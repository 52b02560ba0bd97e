"""Acceptance suite: one test per criterion, printed pass/fail lines.

Each criterion pins its tolerance and sample counts up front and runs
inside its stated time budget.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import contextlib
import io
import time

import numpy as np
import pytest

import starlift as sl
from starlift.certify import (FiniteSubset, QDCertificate, lemma_audit,
                              qd_complexify, qd_realify)
from starlift.cli import cmd_dispatch
from starlift.cpmaps import (LinearMapMat, block_apply, compose, cp_defect,
                             cp_defect_real_report, complexify, doubled_units)
from starlift.matrix import col_norm1, op_norm, split_norm
from starlift.realform import AntiAutomorphism, real_form_basis
from starlift.subspace import orth_rows, realify, subspaces_equal, unrealify
from starlift.tensorexact import (IdealPresentation, exactness_check,
                                  fubini_check,
                                  quotient_kernel_rows, tensor_span_rows)
from starlift.transport import (ThetaScale, rho, sigma, sigma_map, theta,
                                transport_factorization)

from map_fixtures import (block_algebra, full_algebra, random_isometry, random_matrix,
                          unital_compression_map, unital_stinespring_map)


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:2d}] {status}  {detail}  ({time.perf_counter() - t0:.2f}s)")
    assert ok, f"criterion {num}: {detail}"


def _stinespring(rng, n, k):
    p = -(-k // n)
    v = random_isometry(rng, n * p, k)

    def f(x):
        return v.conj().T @ np.kron(np.asarray(x), np.eye(p)) @ v

    return LinearMapMat.from_function(f, n, "C")


def test_criterion_1_rho_sigma_identity():
    """rho . sigma is the identity: 1000 scalars and 100 matrices, k<=8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.standard_normal(), rng.standard_normal())
        worst = max(worst, abs(rho(sigma([[z]]))[0, 0] - z))
    for i in range(100):
        k = 1 + (i % 8)
        x = random_matrix(rng, k)
        worst = max(worst, op_norm(rho(sigma(x)) - x))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-12 and elapsed < 1.0,
            f"max residual {worst:.2e}, budget 1s", t0)


def test_criterion_2_sigma_rho_are_cp():
    """sigma: unital *-homomorphism and sampled-CP at levels <= 3;
    rho: compression representation w*(.)w within 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    hom_worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 6))
        x, y = random_matrix(rng, k), random_matrix(rng, k)
        scale = 1.0 + op_norm(x) * op_norm(y)
        hom_worst = max(hom_worst,
                        op_norm(sigma(x @ y) - sigma(x) @ sigma(y)) / scale,
                        op_norm(sigma(x.conj().T) - sigma(x).T) / scale,
                        op_norm(sigma(np.eye(k)) - np.eye(2 * k)))
    cp_worst = 0.0
    for k in (1, 2, 3):
        for level in (1, 2, 3):
            cp_worst = min(cp_worst,
                           cp_defect_real_report(sigma_map(k), level, samples=8,
                                                 seed=20 + k).defect)
    rep_worst = 0.0
    for k in (1, 2, 3, 4):
        # rho(m) = w* m w for w[2l, l] = 1/sqrt(2), w[2l + 1, l] = i/sqrt(2).
        w = np.kron(np.eye(k), [[1.0], [1.0j]]) / np.sqrt(2.0)
        for _ in range(25):
            m = random_matrix(rng, 2 * k, field="R")
            rep_worst = max(rep_worst, op_norm(rho(m) - w.conj().T @ m @ w))
    elapsed = time.perf_counter() - t0
    ok = hom_worst < 1e-10 and cp_worst >= -1e-9 and rep_worst < 1e-12 \
        and elapsed < 5.0
    _report(2, ok, f"hom {hom_worst:.2e}, cp defect {cp_worst:.2e}, "
                   f"rho repr {rep_worst:.2e}", t0)


def test_criterion_3_factorization_transport():
    """Transported factorizations compose identically, and approximation
    defects are unchanged, over 100 random factorizations."""
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        da = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        db = int(rng.integers(1, 5))
        phi = _stinespring(rng, da, n)
        psi = _stinespring(rng, n, db)
        phi_p, psi_p = transport_factorization(phi, psi)
        before = compose(psi, phi)
        after = compose(psi_p, phi_p)
        for b in doubled_units(da):
            worst = max(worst, op_norm(after.apply(b) - before.apply(b)))
        # defect equality against a compressed target
        target = sl.compress(_stinespring(rng, da, db), random_matrix(rng, db))
        a = random_matrix(rng, da)
        d_before = op_norm(before.apply(a) - target.apply(a))
        d_after = op_norm(after.apply(a) - target.apply(a))
        worst = max(worst, abs(d_before - d_after))
    elapsed = time.perf_counter() - t0
    _report(3, worst < 1e-10 and elapsed < 10.0,
            f"max residual {worst:.2e} over 100 factorizations", t0)


def _cp_ensemble_map(idx, n):
    """Deterministic map ensemble: even = CP, odd = strong CP violator."""
    rng = np.random.default_rng(40_000 + idx)
    k = int(rng.integers(1, 4))
    if idx % 2 == 0:
        return unital_compression_map(rng, n, k, field="R", terms=2), True
    anti = AntiAutomorphism.transpose(n)
    for _ in range(50):
        b1 = rng.standard_normal((n, k))
        b2 = rng.standard_normal((n, k))
        w = 0.3 + rng.random()

        def f(x, b1=b1, b2=b2, w=w):
            xx = np.asarray(x)
            return b1.T @ xx @ b1 - w * b2.T @ xx.T @ b2

        phi = LinearMapMat.from_function(f, n, "R", dom_field="R",
                                         cod_field="R")
        if cp_defect(complexify(phi, anti)) < -1e-3:
            return phi, False
    raise AssertionError("could not build a clear CP violator")


def test_criterion_4_cp_transfer_equivalence():
    """Verdict agreement of sampled real CP and complexified Choi CP on
    200 maps (half CP, half violators), n <= 3, tol 1e-8."""
    t0 = time.perf_counter()
    agreements = 0
    for idx in range(200):
        n = 2 + (idx % 2)          # n in {2, 3}
        phi, intended_cp = _cp_ensemble_map(idx, n)
        anti = AntiAutomorphism.transpose(n)
        real_ok = cp_defect_real_report(phi, level=n, samples=8, seed=idx).defect >= -1e-8
        cplx_ok = cp_defect(complexify(phi, anti)) >= -1e-8
        if real_ok == cplx_ok:
            agreements += 1
    elapsed = time.perf_counter() - t0
    _report(4, agreements == 200 and elapsed < 30.0,
            f"verdict agreement {agreements}/200", t0)


def test_criterion_5_forward_bookkeeping():
    """Complexified certificates respect the quarter-epsilon split: the
    complex multiplicative defect is bounded by the four contributing
    real defects, the split norm defect by the two real norm defects."""
    t0 = time.perf_counter()
    good = 0
    for trial in range(100):
        rng = np.random.default_rng(50_000 + trial)
        n = int(rng.integers(2, 4))       # n <= 3
        k = int(rng.integers(1, 5))       # k <= 4
        phi = unital_compression_map(rng, n, k, field="R", terms=2)
        count = int(rng.integers(2, 5))
        subset = FiniteSubset(tuple(rng.standard_normal((n, n))
                                    for _ in range(count)))
        cert = QDCertificate(full_algebra(n), subset, phi,
                             epsilon=100.0, norm_mode="complex_op",
                             anti=AntiAutomorphism.transpose(n))
        _, rep = qd_complexify(cert)
        if rep.extra["mult_bound_margin"] <= 1e-9 \
                and rep.extra["norm_bound_margin"] <= 1e-9:
            good += 1
    elapsed = time.perf_counter() - t0
    _report(5, good == 100 and elapsed < 30.0,
            f"bookkeeping bounds hold {good}/100", t0)


def test_criterion_6_reverse_transport():
    """Fixed-scale transported certificates satisfy the reported defect
    bound in every seeded run; paper mode always emits the nonlinearity
    flag."""
    t0 = time.perf_counter()
    fixed_ok = 0
    flagged = 0
    for trial in range(100):
        rng = np.random.default_rng(60_000 + trial)
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        phi = unital_stinespring_map(rng, n, k)
        count = int(rng.integers(2, 4))
        subset = FiniteSubset(tuple(rng.standard_normal((n, n))
                                    for _ in range(count)))
        cert = QDCertificate(full_algebra(n), subset, phi,
                             epsilon=100.0, norm_mode="complex_op",
                             anti=AntiAutomorphism.transpose(n))
        new_cert, rep = qd_realify(cert)
        if new_cert is not None and rep.extra["bounds_hold"]:
            fixed_ok += 1
        _, rep_paper = qd_realify(cert, scale=ThetaScale("paper"))
        if any("nonlinear theta" in f for f in rep_paper.extra.get("flags", [])):
            flagged += 1
    elapsed = time.perf_counter() - t0
    _report(6, fixed_ok == 100 and flagged == 100 and elapsed < 30.0,
            f"fixed-mode bounds {fixed_ok}/100, paper flags {flagged}/100", t0)


def test_criterion_7_lemma_audits_frozen_outcomes():
    """The audits reproduce the documented verdicts deterministically."""
    t0 = time.perf_counter()
    r1 = lemma_audit("eqtr1_scale1", samples=100, seed=7)
    ok = (r1.verdict == "counterexample"
          and abs(r1.witness["ratio"] - 2.0) <= 1e-12)
    r2 = lemma_audit("eqtr1_scale_half", samples=100, seed=7)
    ok &= r2.verdict == "holds" and r2.residuals["max_residual"] < 1e-12
    r3 = lemma_audit("eta_cp", samples=50, seed=7)
    witness = [complex(re, im) for re, im in r3.witness["input"]]
    ok &= (r3.verdict == "counterexample" and r3.witness["level"] == 2
           and abs(r3.witness["defect"] + 1.0) <= 1e-10
           and max(abs(a - b) for a, b in zip(witness, [1, 1j, -1j, 1])) < 1e-12)
    r4 = lemma_audit("eq1t2", samples=50, seed=7)
    w4 = [complex(re, im) for re, im in r4.witness["input"]]
    ok &= (r4.verdict == "counterexample"
           and abs(w4[0] - 0.5) < 1e-15
           and max(abs(z) for z in w4[1:]) == 0.0)
    r5 = lemma_audit("theta_linearity", samples=50, seed=7)
    ok &= (r5.verdict == "counterexample"
           and r5.witness["additivity_residual"] > 1e-10)
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 5.0,
            "eqtr1 ratio 2, eta_cp defect -1, eq1t2 at 0.5*E11, "
            "theta additivity counterexample", t0)


def test_criterion_8_exactness_with_oracle():
    """Canonical instance: both kernels equal the ideal span (dims exact,
    angle < 1e-6), cross-checked against a brute-force kernel oracle."""
    t0 = time.perf_counter()
    a2 = full_algebra(2)
    b23 = block_algebra([2, 3])
    anti = AntiAutomorphism.transpose(2)
    pres = IdealPresentation(b23, [0])
    report = exactness_check(a2, anti, pres)
    ok = (report.ok
          and report.real_kernel.kernel_dim == report.real_kernel.span_dim == 32
          and report.real_kernel.principal_angle < 1e-6
          and report.complex_kernel.kernel_dim == 32
          and report.complex_kernel.principal_angle < 1e-6
          and report.fubini_real.match and report.fubini_complex.match)

    # Independent oracle: raw Kronecker products mapped through the
    # quotient directly, null space by SVD on coefficients.
    form = real_form_basis(anti)
    prods = []
    for g in form:
        for h in b23.span:
            prods.append(np.kron(g, h))
            prods.append(1j * np.kron(g, h))
    qi = pres.quotient_indices
    cols = []
    for p in prods:
        p4 = p.reshape(2, 5, 2, 5)
        img = p4[np.ix_(range(2), qi, range(2), qi)].reshape(6, 6)
        cols.append(np.concatenate([img.real.ravel(), img.imag.ravel()]))
    m = np.array(cols).T
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * s[0]))
    oracle = orth_rows(vt[rank:] @ realify(prods))

    # The engine solves on B's rows; tensored with the A leg they are
    # orthonormal rows of the whole kernel.
    kernel = quotient_kernel_rows(tensor_span_rows(form, list(b23.span)), pres)
    engine = realify([np.kron(g, k) for g in form for k in unrealify(kernel, (-1, 5, 5))])
    eq, ang = subspaces_equal(engine, oracle)
    ok &= eq and oracle.shape[0] == 32

    fub = fubini_check(a2, anti, pres)
    ok &= fub.match and fub.kernel_dim == 32
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 10.0,
            f"kernels = span (dim 32, angle {report.real_kernel.principal_angle:.1e}), "
            f"oracle agrees ({ang:.1e})", t0)


def test_criterion_9_norm_conventions():
    """Split norm axioms and submultiplicativity on 500 pairs; paper-mode
    theta stays strictly inside the unit col-norm ball on 500 inputs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        c = random_matrix(rng, n)
        d = random_matrix(rng, n)
        lam = float(rng.standard_normal())
        worst = max(worst, abs(split_norm(lam * c) - abs(lam) * split_norm(c)))
        worst = max(worst, max(0.0, split_norm(c + d) - split_norm(c) - split_norm(d)))
        worst = max(worst, max(0.0, split_norm(c @ d) - split_norm(c) * split_norm(d)))
        assert split_norm(c) > 0.0
    assert split_norm(np.zeros((2, 2))) == 0.0
    contraction_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 5))
        x = random_matrix(rng, n)
        if op_norm(x) == 0.0:
            continue
        contraction_ok &= col_norm1(theta(x)) < 1.0
    elapsed = time.perf_counter() - t0
    _report(9, worst <= 1e-10 and contraction_ok and elapsed < 5.0,
            f"axiom residual {worst:.2e}, theta contraction strict", t0)


def _battery() -> bytes:
    """A fixed battery of CLI reports, concatenated."""
    import tempfile
    import os
    from starlift.io import (algebra_to_json, anti_to_json, canonical_dumps,
                             cert_to_json, map_to_json)

    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        def path_for(name, doc):
            p = os.path.join(tmp, name)
            with open(p, "w") as fh:
                fh.write(canonical_dumps(doc))
            return p

        transpose = LinearMapMat.from_function(lambda m: np.asarray(m).T, 2, "C")
        tpath = path_for("t.json", map_to_json(transpose))
        anti = AntiAutomorphism.transpose(2)
        phi = unital_compression_map(np.random.default_rng(4), 2, 3,
                                     field="R", terms=2)
        rng = np.random.default_rng(12)
        subset = FiniteSubset(tuple(rng.standard_normal((2, 2)) for _ in range(4)))
        rcert = QDCertificate(full_algebra(2), subset, phi, 9.0,
                              "complex_op", anti)
        rpath = path_for("rc.json", cert_to_json(rcert))
        apath = path_for("a.json", algebra_to_json(full_algebra(2)))
        ipath = path_for("i.json", {
            "B": algebra_to_json(block_algebra([2, 3])), "ideal_blocks": [0]})
        phipath = path_for("phi.json", anti_to_json(anti))

        commands = [
            ["lemma-audit", "--claim", claim, "--samples", "60", "--seed", "11"]
            for claim in sl.AUDIT_CLAIMS
        ] + [
            ["cp-check", "--map", tpath],
            ["qd-transport", "--cert", rpath, "--direction", "complexify"],
            ["exactness", "--algebra", apath, "--ideal", ipath,
             "--phi", phipath],
        ]
        for argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cmd_dispatch(argv)
            chunks.append(buf.getvalue())
    return "".join(chunks).encode("ascii")


def test_criterion_10_determinism():
    """Two runs of the report battery with identical seeds are
    byte-identical."""
    t0 = time.perf_counter()
    first = _battery()
    second = _battery()
    _report(10, first == second and len(first) > 0,
            f"{len(first)} report bytes identical across runs", t0)
