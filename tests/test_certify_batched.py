"""Stacked certificate measurements against the loop versions.

Every report of the certificate layer, the antiautomorphism check, the
real-linear CP probe and the entrywise CP lemma audits is compared byte for byte (canonical JSON, so the
sign of a zero counts) with ``certify_oracle``, over the three norm
conventions, u = I and u = J, n = 1..4, and subsets that repeat elements
or hold zeros, so that defects tie and the first worst witness must win.
A traciality residual is the one value compared to rounding: the library
forms the traces of all pairs in one matrix product, the oracle one pair
at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certify_oracle as oracle
from map_fixtures import (block_algebra, full_algebra, random_matrix, random_unitary,
                          unital_compression_map)
from starlift.certify import (COMPLEX_OP, NORM_MODES, PHI_SPLIT, REAL_COL1, FiniteSubset,
                              QDCertificate, TraceWitness, _audit_entrywise_cp,
                              _random_squares, nuclear_witness_verify, qd_complexify,
                              qd_realify, qd_verify, trace_qd_verify, trace_transport)
from starlift.cpmaps import COMPLEX, REAL, LinearMapMat, canonical_basis, cp_defect_real_report
from starlift.io import canonical_dumps
from starlift.realform import (AntiAutomorphism, StarAlgebra, check_antiautomorphism,
                               real_decompose)
from starlift.transport import ThetaScale, eta, upsilon

SETTINGS = settings(max_examples=30, deadline=None)
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _same(report, reference) -> bool:
    return canonical_dumps(report) == canonical_dumps(reference)


def _to_rounding(residual: float):
    """A traciality residual of the oracle's pair loop, which rounds
    unlike the library's single matrix product of all pair traces."""
    return pytest.approx(residual, rel=1e-15, abs=1e-15)


@st.composite
def setups(draw):
    """(n, anti, rng): u = J needs an even n."""
    n = draw(st.integers(1, 4))
    u = np.kron(np.eye(n // 2), J2) if n % 2 == 0 and draw(st.booleans()) else np.eye(n)
    return n, AntiAutomorphism(u), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _subset(data, rng, n: int, anti: AntiAutomorphism | None = None) -> FiniteSubset:
    """Random elements (in the real form of ``anti`` when given), some
    repeated and some zero, so that defects tie."""
    mats = []
    for i in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("new", "repeat", "zero"))) if i else "new"
        if kind == "repeat":
            mats.append(mats[data.draw(st.integers(0, i - 1))])
        elif kind == "zero":
            mats.append(np.zeros((n, n)))
        else:
            x = random_matrix(rng, n)
            mats.append(real_decompose(anti, x)[0] if anti is not None else x)
    return FiniteSubset(tuple(mats), labels=tuple(f"x{i}" for i in range(len(mats))))


def _map(rng, n: int, m: int, linearity: str, dom_field: str = COMPLEX,
         cod_field: str = COMPLEX) -> LinearMapMat:
    shape = (len(canonical_basis(n, linearity, dom_field)), m, m)
    images = rng.standard_normal(shape)
    if cod_field == COMPLEX:
        images = images + 1j * rng.standard_normal(shape)
    return LinearMapMat(n, m, linearity, images, dom_field, cod_field)


def _cert(n, subset, phi, mode, anti) -> QDCertificate:
    return QDCertificate(full_algebra(n), subset, phi, 1.0, mode, anti)


@SETTINGS
@given(setups(), st.sampled_from(NORM_MODES), st.integers(1, 3), st.data())
def test_qd_verify_matches_oracle(setup, mode, m, data):
    n, anti, rng = setup
    if mode == REAL_COL1:       # column sums measure real images only
        phi = _map(rng, n, m, REAL, cod_field=REAL)
    else:
        phi = _map(rng, n, m, data.draw(st.sampled_from((COMPLEX, REAL))))
    cert = _cert(n, _subset(data, rng, n), phi, mode, anti)
    assert _same(qd_verify(cert), oracle.qd_verify(cert))


@SETTINGS
@given(setups(), st.integers(1, 3), st.data())
def test_qd_complexify_matches_oracle(setup, m, data):
    n, anti, rng = setup
    cert = _cert(n, _subset(data, rng, n, anti), _map(rng, n, m, REAL, cod_field=REAL),
                 COMPLEX_OP, anti)
    _, report = qd_complexify(cert)
    assert _same(report, oracle.qd_complexify(cert))


@SETTINGS
@given(setups(), st.integers(1, 3), st.sampled_from(("auto", "paper", "fixed:0.3")),
       st.data())
def test_qd_realify_matches_oracle(setup, m, mode, data):
    n, anti, rng = setup
    form = data.draw(st.booleans())
    cert = _cert(n, _subset(data, rng, n, anti if form else None),
                 _map(rng, n, m, COMPLEX), COMPLEX_OP, anti)
    scale = None if mode == "auto" else ThetaScale.parse(mode)
    _, report = qd_realify(cert, scale=scale)
    assert _same(report, oracle.qd_realify(cert, anti, scale))


@SETTINGS
@given(setups(), st.sampled_from(NORM_MODES), st.integers(1, 3), st.integers(0, 2),
       st.data())
def test_nuclear_witness_verify_matches_oracle(setup, mode, k, count, data):
    n, _, rng = setup
    m = data.draw(st.integers(1, 3))
    if mode == REAL_COL1:       # real factorizations, so the defects are real
        phi = _map(rng, n, k, REAL, cod_field=REAL)
        psi = _map(rng, k, m, REAL, dom_field=REAL, cod_field=REAL)
        target = _map(rng, n, m, REAL, cod_field=REAL)
        b_list = [rng.standard_normal((m, 2)) for _ in range(count)]
    else:
        phi, psi, target = _map(rng, n, k, COMPLEX), _map(rng, k, m, COMPLEX), \
            _map(rng, n, m, COMPLEX)
        b_list = [random_matrix(rng, m, 2) for _ in range(count)]
    subset = _subset(data, rng, n)
    report = nuclear_witness_verify(phi, psi, subset, 1.0, target, mode, b_list)
    assert _same(report,
                 oracle.nuclear_witness_verify(phi, psi, subset, 1.0, target, mode, b_list))


@SETTINGS
@given(setups(), st.sampled_from((COMPLEX_OP, PHI_SPLIT)), st.integers(1, 4), st.data())
def test_trace_qd_verify_matches_oracle(setup, mode, k, data):
    n, anti, rng = setup
    cert = _cert(n, _subset(data, rng, n), unital_compression_map(rng, n, k, terms=k), mode, anti)
    # A tracial functional on M_n is a multiple of the trace.
    witness = TraceWitness(random_matrix(rng, 1)[0, 0] * np.eye(n))
    assert _same(trace_qd_verify(cert, witness),
                 oracle.trace_qd_verify(cert, witness))


def _invariant_algebra(data, n: int) -> StarAlgebra:
    """M_n, the diagonal algebra or, for even n, the 2 x 2 blocks: the
    antiautomorphisms of ``setups`` preserve each."""
    blocks = data.draw(st.sampled_from([[n], [1] * n] + ([[2] * (n // 2)] if n % 2 == 0 else [])))
    return block_algebra(blocks)


@SETTINGS
@given(setups(), st.booleans(), st.sampled_from((0.5, 1.0)), st.data())
def test_trace_transport_on_the_real_frame_matches_oracle(setup, tracial, scale, data):
    n, anti, rng = setup
    algebra = _invariant_algebra(data, n)
    witness = TraceWitness(np.eye(n) / n if tracial else random_matrix(rng, n))
    cert = QDCertificate(algebra, FiniteSubset((np.eye(n),)), LinearMapMat.identity(n), 1.0)
    report = trace_transport(witness, anti, cert, scale)
    imag_on_form, traciality = oracle.trace_transport_residuals(witness, anti, algebra, scale)
    assert report["imag_on_form"] == imag_on_form
    assert report["traciality_residual"] == _to_rounding(traciality)
    assert witness.traciality_residual(algebra) == \
        _to_rounding(oracle.traciality_residual(witness, algebra))


def test_traciality_residual_matches_oracle():
    # M_9: all 6561 pair traces come from one matrix product.
    rng = np.random.default_rng(9)
    algebra = full_algebra(9)
    for gram in (random_matrix(rng, 9), np.eye(9) / 9):
        witness = TraceWitness(gram)
        assert witness.traciality_residual(algebra) == \
            _to_rounding(oracle.traciality_residual(witness, algebra))


@SETTINGS
@given(setups(), st.integers(1, 3), st.sampled_from(("auto", "paper", "fixed:0.3")),
       st.sampled_from((0.5, 1.0)), st.data())
def test_trace_transport_chain_matches_oracle(setup, m, mode, scale, data):
    # Elements in the real form are replayed, the others skipped.
    n, anti, rng = setup
    mats = [real_decompose(anti, x)[0] if data.draw(st.booleans()) else x
            for x in _subset(data, rng, n).elements]
    cert = _cert(n, FiniteSubset(tuple(mats), tuple(f"x{i}" for i in range(len(mats)))),
                 _map(rng, n, m, COMPLEX), COMPLEX_OP, anti)
    witness = TraceWitness(random_matrix(rng, n) if data.draw(st.booleans()) else np.eye(n) / n)
    theta_scale = None if mode == "auto" else ThetaScale.parse(mode)
    report = trace_transport(witness, anti, cert, scale, theta_scale)
    reference = oracle.trace_transport(witness, anti, cert, scale, theta_scale)
    assert report.pop("traciality_residual") == \
        _to_rounding(reference.pop("traciality_residual"))
    assert _same(report, reference)


@SETTINGS
@given(setups(), st.sampled_from(("anti", "unitary", "general")))
def test_check_antiautomorphism_matches_oracle(setup, kind):
    n, anti, rng = setup
    u = {"anti": anti.u, "unitary": random_unitary(rng, n),
         "general": random_matrix(rng, n)}[kind]
    report = check_antiautomorphism(AntiAutomorphism(u, validate=False))
    assert _same(report, oracle.check_antiautomorphism(u))
    # The two defects decide the axioms on every pair of the matrix units.
    axioms = oracle.axiom_residuals(u)
    assert axioms["star_compatible"] <= 1e-12 * max(1.0, np.linalg.norm(u, 2)) ** 2
    if report["ok"]:
        assert max(axioms.values()) <= 1e-9
    if kind == "general":
        assert not report["ok"] and axioms["antimultiplicative"] > 1e-9


@SETTINGS
@given(setups(), st.sampled_from(("random", "identity", "transpose")), st.booleans(),
       st.integers(1, 3), st.integers(0, 100))
def test_cp_defect_real_report_matches_oracle(setup, kind, real_domain, level, seed):
    n, _, rng = setup
    field = REAL if real_domain else COMPLEX
    if kind == "random":
        phi = _map(rng, n, 1 + seed % 3, REAL, dom_field=field)
    else:   # adjoint-preserving: every self-adjointness residual is 0
        f = (lambda x: x) if kind == "identity" else (lambda x: np.asarray(x).T)
        phi = LinearMapMat.from_function(f, n, REAL, dom_field=field, cod_field=field)
    rep = cp_defect_real_report(phi, level)
    # The probe is the oracle's sampled one without its random candidates.
    defect, witness, _, _ = oracle.cp_defect_real_report(phi, level, 0, seed)
    assert rep.defect == defect and np.array_equal(rep.witness, witness)
    assert rep.choi_defect == oracle.real_cp_defect(phi)
    sa, sa_witness = oracle.selfadjointness_defect(phi)
    assert rep.selfadj_defect == sa
    if sa_witness is None:
        assert rep.selfadj_witness is None
    else:
        assert np.array_equal(rep.selfadj_witness, sa_witness)


def _kraus_map(data, rng, n: int) -> LinearMapMat:
    """x -> sum A*xA + sum B*conj(x)B, which is CP, or one of its
    perturbations by +-eps tr(x) 1, +-eps tr(conj x) 1 or -eps x^T."""
    m = data.draw(st.integers(1, 3))
    ka, kb = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    a = [random_matrix(rng, n, m) for _ in range(ka)]
    b = [random_matrix(rng, n, m) for _ in range(kb)]
    kinds = ["none", "+tr", "-tr", "+trbar", "-trbar"] + (["-transpose"] if m == n else [])
    kind = data.draw(st.sampled_from(kinds))
    eps = data.draw(st.sampled_from((0.05, 0.3, 1.0)))

    def f(x):
        x = np.asarray(x)
        out = np.zeros((m, m), dtype=complex)
        for k in a:
            out += k.conj().T @ x @ k
        for k in b:
            out += k.conj().T @ x.conj() @ k
        sign = -1.0 if kind.startswith("-") else 1.0
        if kind.endswith("trbar"):
            out += sign * eps * np.trace(x).conjugate() * np.eye(m)
        elif kind.endswith("tr"):
            out += sign * eps * np.trace(x) * np.eye(m)
        elif kind == "-transpose":
            out -= eps * x.T
        return out

    return LinearMapMat.from_function(f, n, REAL)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_exact_cp_verdict_agrees_with_the_level_2n_probe(n, seed, data):
    # A map the exact kernel calls CP shows no violation to the sampled
    # probe at level 2n; one it calls not CP is shown so by its witness,
    # replayed one block at a time, which is a positive element.
    rng = np.random.default_rng(seed)
    phi = _kraus_map(data, rng, n)
    rep = cp_defect_real_report(phi, 1)
    tol = 1e-9
    sampled, _, _, _ = oracle.cp_defect_real_report(phi, 2 * n, 10, seed % 1000)
    replay = oracle.positivity_defect(oracle._block_apply(phi, rep.choi_witness,
                                                          rep.choi_level))
    assert rep.choi_level == 2 * n
    assert np.linalg.eigvalsh(rep.choi_witness)[0] >= -1e-12
    assert replay <= rep.choi_defect + 1e-12
    assert (rep.choi_defect >= -tol) == (min(sampled, replay) >= -tol)


# eta and upsilon(., 1) fail at level 2; the other two hold at every level,
# so their random samples at levels 2 and 3 are all tested.
ENTRYWISE_MAPS = {"eta": eta, "upsilon": lambda p: upsilon(p, 1.0),
                  "identity": lambda p: p, "conjugate": np.conj}


@SETTINGS
@given(st.sampled_from(sorted(ENTRYWISE_MAPS)), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_entrywise_cp_audit_matches_oracle(name, samples, seed):
    apply_fn = ENTRYWISE_MAPS[name]
    assert _same(_audit_entrywise_cp(name, apply_fn, samples, seed),
                 oracle.audit_entrywise_cp(name, apply_fn, samples, seed))


@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_random_squares_are_successive_single_draws(count, k, seed):
    stack = _random_squares(np.random.default_rng(seed), count, k)
    rng = np.random.default_rng(seed)
    assert np.array_equal(stack, [random_matrix(rng, k) for _ in range(count)])
