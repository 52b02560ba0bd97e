"""Reference implementations of the certificate measurements, one matrix
and one pair at a time.

These are the loop versions that ``starlift.certify``, ``realform`` and
``cpmaps`` replaced with norms of whole stacks: every defect is one
operator-norm, column-sum or split-norm call on one matrix, the worst
witness is kept by scanning rows with a strict ``>``, and the sampled
probes draw and test one sample per iteration.  Each function returns
what its library counterpart reports, so the differential tests can ask
for equal bits.
"""

import numpy as np

from starlift.certify import (COMPLEX_OP, NONLINEAR_THETA_FLAG, PHI_SPLIT, REAL_COL1,
                              DefectReport, FiniteSubset, _evaluate)
from starlift.cpmaps import (LinearMapMat, _canonical_positive, _combine,
                             complexify, compose, compress)
from starlift.matrix import as_array
from starlift.realform import (AntiAutomorphism, CheckReport, real_decompose,
                               real_form_basis, real_form_residual)
from starlift.transport import RealifiedMap, ThetaScale, eta1, theta, upsilon1

from map_fixtures import random_matrix


# -- one-matrix norms --------------------------------------------------------


def op_norm(m) -> float:
    a = as_array(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def col_norm1(m) -> float:
    a = as_array(m)
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise ValueError("col_norm1 requires real entries")
        a = a.real
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=0)))


def theta_normalizer(x) -> float:
    a = as_array(x).astype(np.complex128)
    return float(np.max(np.sum(np.abs(a.real) + np.abs(a.imag), axis=0), initial=0.0))


def split_norm(m) -> float:
    a = as_array(m)
    return op_norm(np.real(a)) + op_norm(np.imag(a))


def positivity_defect(m) -> float:
    a = as_array(m)
    sym = (a + a.conj().T) / 2.0
    skew = (a - a.conj().T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0]) - op_norm(skew)


def _value_norm(m, mode: str, anti=None, domain: bool = False) -> float:
    if mode == COMPLEX_OP:
        return op_norm(m)
    if mode == REAL_COL1:
        return theta_normalizer(m) if domain else col_norm1(m)
    if mode == PHI_SPLIT:
        if domain and anti is not None:
            r, s = real_decompose(anti, m)
            return op_norm(r) + op_norm(s)
        return split_norm(m)
    raise ValueError(f"unknown norm mode {mode!r}")


# -- worst witnesses ---------------------------------------------------------


def _worst(rows) -> dict:
    worst = {"defect": -1.0}
    for row in rows:
        if row["defect"] > worst["defect"]:
            worst = row
    return worst


def _mult_witness(img, prods, subset, mode) -> dict:
    return _worst(
        {"left": subset.label(i), "right": subset.label(j),
         "defect": _value_norm(prods[i, j] - img[i] @ img[j], mode)}
        for i in range(len(img)) for j in range(len(img)))


def _norm_witness(img, subset, mode, anti) -> dict:
    return _worst(
        {"element": subset.label(i),
         "defect": abs(_value_norm(y, mode) - _value_norm(a, mode, anti, domain=True))}
        for i, (a, y) in enumerate(zip(subset.elements, img)))


# -- certificates ------------------------------------------------------------


def qd_verify(cert) -> dict:
    img, prods = _evaluate(cert.phi.apply, np.stack(cert.subset.elements))
    mult = _mult_witness(img, prods, cert.subset, cert.norm_mode)
    norm = _norm_witness(img, cert.subset, cert.norm_mode, cert.anti)
    return DefectReport(cert.epsilon, cert.norm_mode, mult["defect"], norm["defect"],
                        witnesses={"mult": mult, "norm": norm},
                        extra={"unitality_defect": float(cert.phi.unitality_defect())}
                        ).to_json()


def _pairs(subset) -> list:
    """(F[k], F[h + k]) for k < h = ceil(|F| / 2), an odd leftover paired
    with zero."""
    mats = list(subset.elements)
    half = (len(mats) + 1) // 2
    partners = mats[half:] + [np.zeros_like(mats[0])] * (2 * half - len(mats))
    return list(zip(mats[:half], partners))


def qd_complexify(cert) -> dict:
    """The bookkeeping report; the pair loops over the pairs of F, which
    sit interleaved in one stack: parts 2k and 2k + 1 are re and im of
    complexified element k."""
    phi_c = complexify(cert.phi, cert.anti)
    parts = np.stack([x for pair in _pairs(cert.subset) for x in pair])
    img, prods = _evaluate(cert.phi.apply, parts)
    dop = np.array([[op_norm(prods[i, j] - img[i] @ img[j]) for j in range(len(parts))]
                    for i in range(len(parts))])
    part_norms = [op_norm(p) for p in parts]
    norm_op = [abs(op_norm(y) - pn) for y, pn in zip(img, part_norms)]
    complexified = parts[0::2] + 1j * parts[1::2]
    img_c, prod_c = _evaluate(phi_c.apply, complexified)
    norm_rows, mult_rows = [], []
    for k in range(len(complexified)):
        ia, ib = 2 * k, 2 * k + 1
        nd = abs(split_norm(img_c[k]) - (part_norms[ia] + part_norms[ib]))
        norm_rows.append({"element": k, "defect": nd, "bound": norm_op[ia] + norm_op[ib]})
        for l in range(len(complexified)):
            ja, jb = 2 * l, 2 * l + 1
            md = split_norm(prod_c[k, l] - img_c[k] @ img_c[l])
            mult_rows.append({"left": k, "right": l, "defect": md,
                              "bound": dop[ia, ja] + dop[ib, jb] + dop[ib, ja]
                              + dop[ia, jb]})
    mult_witness, norm_witness = _worst(mult_rows), _worst(norm_rows)
    mult_margin = max((r["defect"] - r["bound"] for r in mult_rows), default=-np.inf)
    norm_margin = max((r["defect"] - r["bound"] for r in norm_rows), default=-np.inf)
    return DefectReport(
        cert.epsilon, PHI_SPLIT, mult_witness["defect"], norm_witness["defect"],
        witnesses={"mult": mult_witness, "norm": norm_witness},
        extra={"mult_bound_margin": float(mult_margin),
               "norm_bound_margin": float(norm_margin),
               "bounds_hold": bool(mult_margin <= 1e-9 and norm_margin <= 1e-9),
               "real_defect_op_max": float(np.max(dop))}).to_json()


def _working_set(cert, anti, scale):
    """The real-form subset qd_realify transports, phi's images of it and
    of its products, and ``scale``, None being the per-certificate constant."""
    f_real = []
    for a in cert.subset.elements:
        if real_form_residual(anti, a) <= 1e-8:
            f_real.append(a)
        else:
            f_real.extend(real_decompose(anti, a))
    subset = FiniteSubset(tuple(f_real))
    img, prods = _evaluate(cert.phi.apply, np.stack(subset.elements))
    if scale is None:
        scale = ThetaScale.for_working_set(
            np.concatenate([img, prods.reshape((-1,) + img.shape[1:])]))
    return subset, img, prods, scale


def qd_realify(cert, anti, scale) -> dict:
    """The report, without the transported certificate; ``scale`` None
    is the per-certificate constant."""
    subset, img, prods, scale = _working_set(cert, anti, scale)
    xs = np.stack(subset.elements)
    rmap = RealifiedMap(cert.phi, anti, scale)
    r_img, r_prods = _evaluate(rmap.apply, xs)
    mult_witness = _mult_witness(r_img, r_prods, subset, REAL_COL1)
    norm_witness = _norm_witness(r_img, subset, REAL_COL1, anti)
    extra = {"theta_mode": scale.mode}
    if scale.is_linear:
        s = scale.value
        margin = -np.inf
        for i, pa in enumerate(img):
            for j, pb in enumerate(img):
                measured = col_norm1(theta(prods[i, j], scale)
                                     - theta(pa, scale) @ theta(pb, scale))
                bound = s * theta_normalizer(prods[i, j] - pa @ pb) \
                    + abs(s - s * s) * theta_normalizer(pa @ pb)
                margin = max(margin, measured - bound)
        extra["theta_scale"] = s
        extra["mult_bound_margin"] = float(margin)
        extra["bounds_hold"] = bool(margin <= 1e-9)
        extra["unitality_defect"] = float(rmap.as_linear_map().unitality_defect())
    else:
        extra["flags"] = [NONLINEAR_THETA_FLAG]
    return DefectReport(cert.epsilon, REAL_COL1, mult_witness["defect"],
                        norm_witness["defect"],
                        witnesses={"mult": mult_witness, "norm": norm_witness},
                        extra=extra).to_json()


def nuclear_witness_verify(phi, psi, subset, epsilon, target, norm_mode, b_list) -> dict:
    composed = compose(psi, phi)
    worst = _worst(
        {"element": subset.label(i), "defect": _value_norm(d, norm_mode)}
        for i, d in enumerate(composed.apply(x) - target.apply(x) for x in subset.elements))
    extra = {}
    if b_list:
        per_b = []
        for b in b_list:
            tb = compress(target, b)
            fb = compose(compress(psi, b), phi)
            per_b.append(float(max(_value_norm(fb.apply(x) - tb.apply(x), norm_mode)
                                   for x in subset.elements)))
        extra["compressed_defects"] = per_b
        extra["max_compressed_defect"] = float(max(per_b))
    return DefectReport(epsilon, norm_mode, max_norm_defect=worst["defect"],
                        witnesses={"approximation": worst}, extra=extra).to_json()


def trace_qd_verify(cert, witness) -> dict:
    img, prods = _evaluate(cert.phi.apply, np.stack(cert.subset.elements))
    mult = _mult_witness(img, prods, cert.subset, cert.norm_mode)
    trace = _worst(
        {"element": cert.subset.label(i),
         "defect": abs(normalized_trace(y) - witness_value(witness)(a))}
        for i, (a, y) in enumerate(zip(cert.subset.elements, img)))
    return DefectReport(cert.epsilon, cert.norm_mode, max_mult_defect=mult["defect"],
                        max_trace_defect=trace["defect"],
                        witnesses={"mult": mult, "trace": trace}).to_json()


def witness_value(witness):
    """tau(x) = trace(gram x) on one matrix, as a Python complex."""
    return lambda x: complex(np.trace(witness.gram @ x))


def normalized_trace(x) -> complex:
    a = as_array(x)
    return complex(np.trace(a)) / a.shape[0]


def trace_transport_residuals(witness, anti, scale: float, samples: int, seed: int
                              ) -> tuple[float, float]:
    """imag_on_form and traciality_residual of a trace transport report."""
    tau = witness_value(witness)
    form = real_form_basis(anti)
    imag_on_form = max(abs(tau(g).imag) for g in form)
    rng = np.random.default_rng(seed)
    traciality = 0.0
    for _ in range(samples):
        ca = np.tensordot(rng.standard_normal(len(form)), np.stack(form), axes=(0, 0))
        cb = np.tensordot(rng.standard_normal(len(form)), np.stack(form), axes=(0, 0))
        traciality = max(traciality, abs(upsilon1(tau(ca @ cb), scale)
                                         - upsilon1(tau(cb @ ca), scale)))
    return float(imag_on_form), float(traciality)


def trace_transport(witness, anti, scale: float, cert, theta_scale, samples: int,
                    seed: int) -> dict:
    """The trace transport report, its chain replayed one element at a time."""
    imag_on_form, traciality = trace_transport_residuals(witness, anti, scale, samples, seed)
    report = {"scale": scale, "real_valued_on_form": imag_on_form <= 1e-9,
              "imag_on_form": imag_on_form, "traciality_residual": traciality,
              "samples": samples, "seed": seed}
    if imag_on_form > 1e-9:
        report["flags"] = ["witness is not real-valued on the real form; "
                           "the transported functional is not real-linear there"]
    theta_scale = _working_set(cert, anti, theta_scale)[3]
    report["theta_mode"] = theta_scale.mode
    if theta_scale.is_linear:
        report["theta_scale"] = theta_scale.value
    tau = witness_value(witness)
    rmap = RealifiedMap(cert.phi, anti, theta_scale)
    k2 = 2 * cert.phi.cod_dim
    steps = []
    for i, a in enumerate(cert.subset.elements):
        if real_form_residual(anti, a) > 1e-8:
            continue
        pa = cert.phi.apply(a)
        t2k_theta = float(np.trace(theta(pa, theta_scale)).real / k2)
        t2k_eta1 = float(np.trace(eta1(pa)).real / k2)
        final = abs(float(np.trace(rmap.apply(a)).real / k2) - upsilon1(tau(a), scale))
        steps.append({
            "element": cert.subset.label(i),
            "final_defect": final,
            "trace_compare_lhs": t2k_theta,
            "trace_compare_rhs": t2k_eta1,
            "trace_compare_holds": bool(t2k_theta <= t2k_eta1 + 1e-12),
            "eta1_intertwine_residual": abs(t2k_eta1 - upsilon1(normalized_trace(pa), scale)),
            "complex_trace_defect": float(abs(normalized_trace(pa) - tau(a))),
        })
    report["chain"] = steps
    report["chain_trace_compare_all_hold"] = all(s["trace_compare_holds"] for s in steps)
    return report


def traciality_residual(witness, algebra) -> float:
    tau = witness_value(witness)
    worst = 0.0
    for a in algebra.frame:
        for b in algebra.frame:
            worst = max(worst, abs(tau(a @ b) - tau(b @ a)))
    return worst


# -- sampled probes ------------------------------------------------------------


def check_antiautomorphism(u, samples: int, seed: int, tol: float) -> dict:
    anti = AntiAutomorphism(u, validate=False)
    u, n = anti.u, anti.dim
    unit = op_norm(u.conj().T @ u - np.eye(n))
    sym = min(op_norm(u.T - u), op_norm(u.T + u))
    rng = np.random.default_rng(seed)
    anti_res = star_res = inv_res = 0.0
    for _ in range(samples):
        x = random_matrix(rng, n)
        y = random_matrix(rng, n)
        anti_res = max(anti_res, op_norm(anti.apply(x @ y) - anti.apply(y) @ anti.apply(x)))
        star_res = max(star_res, op_norm(anti.apply(x.conj().T) - anti.apply(x).conj().T))
        inv_res = max(inv_res, op_norm(anti.apply(anti.apply(x)) - x))
    ok = (unit <= 1e-10 and sym <= 1e-10
          and anti_res <= tol and star_res <= tol and inv_res <= tol)
    return CheckReport(unit, sym, anti_res, star_res, inv_res, samples, int(seed), ok).to_json()


def _join_blocks(blocks: np.ndarray, level: int) -> np.ndarray:
    m = blocks.shape[-1]
    return blocks.reshape(level, level, m, m).transpose(0, 2, 1, 3).reshape(level * m, level * m)


def _block_apply(phi: LinearMapMat, x, level: int) -> np.ndarray:
    n = phi.dom_dim
    blocks = as_array(x).reshape(level, n, level, n).transpose(0, 2, 1, 3)
    return _join_blocks(phi.apply(blocks.reshape(level * level, n, n)), level)


def cp_defect_real_report(phi: LinearMapMat, level: int, samples: int, seed: int) -> tuple:
    """(defect, witness, selfadj_defect, selfadj_witness)."""
    n = phi.dom_dim
    rng = np.random.default_rng(seed)
    candidates = [np.eye(level * n, dtype=np.complex128)]
    if phi.dom_field == "C":
        candidates.append(_canonical_positive(level, n, twist=True))
    candidates.append(_canonical_positive(level, n))
    basis = phi.basis
    nb = len(basis)
    coeff = rng.standard_normal((samples * level * level, nb)) / np.sqrt(nb)
    blocks = _combine(coeff, basis).reshape(samples, level * level, n, n)
    for c in (_join_blocks(b, level) for b in blocks):
        p = c.conj().T @ c
        nrm = op_norm(p)
        if nrm > 0:
            candidates.append(p / nrm)
    defects = [positivity_defect(_block_apply(phi, p, level)) for p in candidates]
    best = int(np.argmin(defects))
    sa_worst, sa_witness = 0.0, None
    for x in _combine(rng.standard_normal((samples, nb)), basis):
        r = op_norm(phi.apply(x.conj().T) - phi.apply(x).conj().T)
        if r > sa_worst:
            sa_worst, sa_witness = r, x
    return float(defects[best]), candidates[best], float(sa_worst), sa_witness
