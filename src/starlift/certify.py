"""Quasidiagonality and nuclearity certificates and the lemma audits.

A certificate bundles an algebra, a finite subset, a candidate map into
a matrix algebra, a tolerance, and a norm convention; verification
measures multiplicative, norm, and trace defects (against a trace
witness that must be tracial on the algebra) and reports worst-case
witnesses.  The transport routines replay the complex <-> real
bookkeeping at desk scale: complexification must respect the
quarter-epsilon triangle decomposition, and the real transport through
the scaled block embedding must respect the linear-mode defect bound.
The lemma audits decide documented claims on fixed finite inputs and
either confirm them or emit a replayable counterexample; several are
expected to fail and the suite freezes those outcomes.  Every check
returns its report as the plain JSON object the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cpmaps import (COMPLEX, REAL, LinearMapMat, complexify, compress, compose,
                     cp_defect, selfadjointness_defect)
from .matrix import (DEFAULT_TOL, _re_im_pairs, as_array, as_arrays, col_norm1,
                     doubled_units, hermitian_defect, matrix_units, op_norm,
                     positivity_defect, split_norm)
from .realform import AntiAutomorphism, StarAlgebra, real_decompose, \
    real_form_residual, real_frame
from .transport import RealifiedMap, ThetaScale, eta, eta1, normalized_trace, \
    theta, theta_normalizer, upsilon, upsilon1

COMPLEX_OP = "complex_op"
REAL_COL1 = "real_col1"
PHI_SPLIT = "phi_split"
NORM_MODES = (COMPLEX_OP, REAL_COL1, PHI_SPLIT)
REAL_FORM_TOL = 1e-8    # an element lies in the real form when ||Phi(x) - x*|| is at most this

NONLINEAR_THETA_FLAG = ("nonlinear theta: the normalizer is input-dependent, "
                        "so the linear homomorphism defect bound does not apply; "
                        "defects are reported for audit only")


def _value_norms(xs, mode: str, anti: AntiAutomorphism | None = None,
                 domain: bool = False) -> np.ndarray:
    """Norms of a stack of matrices (..., m, m) under a certificate convention.

    In split mode, domain elements split through the certificate's
    antiautomorphism; codomain values split entrywise (their real
    structure is the transpose one, since real targets are real matrix
    algebras).  In column-sum mode a domain element is measured through
    its real realization sigma(a), which is col_norm1(a) itself when a
    is a real matrix and stays defined on real forms with complex
    entries (u = J).
    """
    if mode == COMPLEX_OP:
        return op_norm(xs)
    if mode == REAL_COL1:
        return theta_normalizer(xs) if domain else col_norm1(xs)
    if mode == PHI_SPLIT:
        if domain and anti is not None:
            r, s = real_decompose(anti, xs)
            return op_norm(r) + op_norm(s)
        return split_norm(xs)
    raise ValueError(f"unknown norm mode {mode!r}")


@dataclass(frozen=True, eq=False)
class FiniteSubset:
    """A nonempty list of square matrices of one size, optionally labelled."""

    elements: np.ndarray    # read-only complex stack (k, n, n); built from any same-shaped sequence
    labels: tuple | None = None

    def __post_init__(self) -> None:
        mats = np.array(self.elements, dtype=np.complex128)
        if not len(mats):
            raise ValueError("finite subset must be nonempty")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("subset elements must be square")
        mats.setflags(write=False)
        object.__setattr__(self, "elements", mats)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(mats):
                raise ValueError("labels must match elements")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"F[{i}]"


@dataclass(frozen=True, eq=False)
class QDCertificate:
    """Candidate quasidiagonality data: (algebra, F, phi, epsilon, mode).

    The map need not be unital: transported certificates produced by the
    scaled block embedding are not, and carry their unitality defect in
    the verification report.  Unitality is a rule for certificate
    documents, checked by ``io.cert_from_json``.
    """

    algebra: StarAlgebra
    subset: FiniteSubset
    phi: LinearMapMat
    epsilon: float
    norm_mode: str = COMPLEX_OP
    anti: AntiAutomorphism | None = None

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"unknown norm mode {self.norm_mode!r}")
        if self.subset.dim != self.algebra.n:
            raise ValueError("subset dimension does not match the algebra")
        if self.phi.dom_dim != self.algebra.n:
            raise ValueError("map domain does not match the algebra")
        if self.anti is not None and self.anti.dim != self.algebra.n:
            raise ValueError("antiautomorphism dimension does not match the algebra")


def _defect_report(epsilon: float, norm_mode: str, witnesses: dict,
                   extra: dict | None = None, **defects: float) -> dict:
    """A certificate check's report: the ``max_*_defect`` values given,
    their worst-case witnesses, and the transport bookkeeping under
    "extra" (left out when empty).  "pass" holds iff every defect is
    below epsilon, so a NaN defect fails it."""
    report = {"epsilon": epsilon, "norm_mode": norm_mode,
              "pass": all(d < epsilon for d in defects.values()),
              "witnesses": witnesses, **defects}
    if extra:
        report["extra"] = extra
    return report


def _worst(defects: np.ndarray, describe) -> dict:
    """The worst defect and its witness: ``describe(*index)`` of the first
    largest entry of ``defects`` plus that ``"defect"``, or
    ``{"defect": -1.0}`` when there is none."""
    if defects.size == 0:
        return {"defect": -1.0}
    index = np.unravel_index(np.argmax(defects), defects.shape)
    return {**describe(*map(int, index)), "defect": float(defects[index])}


def _evaluate(f, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f on a stack and on the products x_i x_j of every ordered pair,
    the latter shaped (k, k, m, m); ``f`` takes and returns stacks."""
    k = len(xs)
    img = f(xs)
    prods = f((xs[:, None] @ xs[None]).reshape((k * k,) + xs.shape[1:]))
    return img, prods.reshape((k, k) + img.shape[1:])


def _mult_witness(img: np.ndarray, prods: np.ndarray, subset: FiniteSubset,
                  mode: str) -> dict:
    """Worst ||phi(ab) - phi(a)phi(b)|| over pairs of the subset, from
    the images of the elements and of their products (see _evaluate)."""
    return _worst(_value_norms(prods - img[:, None] @ img[None], mode),
                  lambda i, j: {"left": subset.label(i), "right": subset.label(j)})


def _norm_witness(img: np.ndarray, subset: FiniteSubset, mode: str,
                  anti: AntiAutomorphism | None) -> dict:
    """Worst | ||phi(a)|| - ||a|| | over the subset, from the images."""
    norms = _value_norms(subset.elements, mode, anti, domain=True)
    return _worst(np.abs(_value_norms(img, mode) - norms),
                  lambda i: {"element": subset.label(i)})


def qd_verify(cert: QDCertificate) -> dict:
    """Measure the multiplicative and norm defects of a certificate.

    The norm defect compares the image norm with the input norm in the
    certificate's convention: operator norms, column-sum norms on real
    matrices, or the split norm ||a|| + ||b|| across a decomposition.
    """
    img, prods = _evaluate(cert.phi.apply, cert.subset.elements)
    mult = _mult_witness(img, prods, cert.subset, cert.norm_mode)
    norm = _norm_witness(img, cert.subset, cert.norm_mode, cert.anti)
    return _defect_report(cert.epsilon, cert.norm_mode, {"mult": mult, "norm": norm},
                          {"unitality_defect": float(cert.phi.unitality_defect())},
                          max_mult_defect=mult["defect"], max_norm_defect=norm["defect"])


def qd_complexify(cert: QDCertificate) -> tuple[QDCertificate, dict]:
    """Complexify a real-form certificate and check the bookkeeping.

    Complexified element k is F[k] + i F[h + k], labelled "x + i y", with
    h = ceil(|F| / 2) and a zero partner "0" for an odd leftover.  Its
    multiplicative defect, in the split norm, must not exceed the sum of
    the four contributing real defects (in operator norm); the split norm
    defect must not exceed the sum of the two real norm defects.  Both
    bounds are triangle inequalities, verified with a 1e-9 cushion.
    """
    if cert.anti is None:
        raise ValueError("complexification needs the certificate's antiautomorphism")
    if cert.phi.linearity != REAL:
        raise ValueError("qd_complexify expects a real-linear certificate map")
    if cert.phi.cod_field != REAL:
        raise ValueError("the bookkeeping bound needs a real matrix target")
    f = cert.subset.elements
    res = real_form_residual(cert.anti, f)
    if np.any(res > REAL_FORM_TOL):
        i = int(np.argmax(res > REAL_FORM_TOL))
        raise ValueError(f"subset element {cert.subset.label(i)} is not in the real form "
                         f"(residual {res[i]:.3e})")

    phi_c = complexify(cert.phi, cert.anti)
    parts = np.concatenate([f, np.zeros_like(f[:len(f) % 2])])    # F padded to even length
    img, prods = _evaluate(cert.phi.apply, parts)
    dop = _value_norms(prods - img[:, None] @ img[None], COMPLEX_OP)
    part_norms = _value_norms(parts, COMPLEX_OP)
    norm_op = np.abs(_value_norms(img, COMPLEX_OP) - part_norms)

    h = len(parts) // 2
    re, im = slice(0, h), slice(h, None)
    complexified = parts[re] + 1j * parts[im]
    img_c, prod_c = _evaluate(phi_c.apply, complexified)
    norm_defects = np.abs(_value_norms(img_c, PHI_SPLIT) - (part_norms[re] + part_norms[im]))
    norm_bounds = norm_op[re] + norm_op[im]
    mult_defects = _value_norms(prod_c - img_c[:, None] @ img_c[None], PHI_SPLIT)
    mult_bounds = dop[re, re] + dop[im, im] + dop[im, re] + dop[re, im]
    mult_witness = _worst(mult_defects, lambda k, l: {
        "left": k, "right": l, "bound": float(mult_bounds[k, l])})
    norm_witness = _worst(norm_defects, lambda k: {"element": k,
                                                   "bound": float(norm_bounds[k])})
    mult_margin = np.max(mult_defects - mult_bounds)
    norm_margin = np.max(norm_defects - norm_bounds)

    names = cert.subset.labels or ()
    labels = [f"{x} + i {y}" for x, y in zip(names[:h], names[h:] + ("0",))]
    new_cert = QDCertificate(cert.algebra, FiniteSubset(complexified, labels or None), phi_c,
                             cert.epsilon, PHI_SPLIT, cert.anti)
    return new_cert, _defect_report(
        cert.epsilon, PHI_SPLIT, {"mult": mult_witness, "norm": norm_witness},
        {"mult_bound_margin": float(mult_margin),
         "norm_bound_margin": float(norm_margin),
         "bounds_hold": bool(mult_margin <= 1e-9 and norm_margin <= 1e-9),
         "real_defect_op_max": float(np.max(dop))},
        max_mult_defect=mult_witness["defect"], max_norm_defect=norm_witness["defect"])


def _realify_working_set(cert: QDCertificate, anti: AntiAutomorphism,
                         scale: ThetaScale | None = None):
    """The real-form subset qd_realify transports (each element x, or
    outside the real form its parts r, s, labelled x.r, x.s, where x is the
    input's label), phi's images of it and of its products (see _evaluate),
    and the theta scale: ``scale``, or for None (the "auto" mode) the fixed
    scale 1/(max N + 1) over those images, so the linear theta is
    contractive there."""
    inside = real_form_residual(anti, cert.subset.elements) <= REAL_FORM_TOL
    parts = [(a,) if ok else real_decompose(anti, a) for a, ok in zip(cert.subset.elements, inside)]
    labels = [cert.subset.label(i) + suffix for i, p in enumerate(parts)
              for suffix in (("",) if len(p) == 1 else (".r", ".s"))]
    subset = FiniteSubset([m for p in parts for m in p], labels)
    img, prods = _evaluate(cert.phi.apply, subset.elements)
    if scale is None:
        scale = ThetaScale.for_working_set(
            np.concatenate([img, prods.reshape((-1,) + img.shape[1:])]))
    return subset, img, prods, scale


def qd_realify(cert: QDCertificate, scale: ThetaScale | None = None
               ) -> tuple[QDCertificate | None, dict]:
    """Transport a complex certificate to the real form through theta.

    Fixed-scale mode produces a genuine real-linear certificate and
    verifies, per pair, that the transported multiplicative defect is at
    most s*N(d) + |s - s^2|*N(phi(a)phi(b)) + 1e-9, where N is the
    column-sum normalizer and d the complex defect matrix (the linear
    term plus the quadratic scaling mismatch).  Paper mode has an
    input-dependent normalizer: the result is nonlinear, no certificate
    object is produced, and the report is flagged accordingly.
    """
    if cert.phi.linearity != COMPLEX:
        raise ValueError("qd_realify expects a complex-linear certificate map")
    if (anti := cert.anti) is None:
        raise ValueError("realification needs an antiautomorphism")

    subset, img, prods, scale = _realify_working_set(cert, anti, scale)
    rmap = RealifiedMap(cert.phi, anti, scale)
    r_img, r_prods = _evaluate(rmap.apply, subset.elements)
    mult_witness = _mult_witness(r_img, r_prods, subset, REAL_COL1)
    norm_witness = _norm_witness(r_img, subset, REAL_COL1, anti)

    extra: dict = {"theta_mode": scale.mode}
    new_cert = None
    if scale.is_linear:
        s = scale.value
        t_img = theta(img, scale)
        pp = img[:, None] @ img[None]
        measured = _value_norms(theta(prods, scale) - t_img[:, None] @ t_img[None], REAL_COL1)
        bound = s * _value_norms(prods - pp, REAL_COL1, domain=True) \
            + abs(s - s * s) * _value_norms(pp, REAL_COL1, domain=True)
        margin = np.max(measured - bound)
        extra["theta_scale"] = s
        extra["mult_bound_margin"] = float(margin)
        extra["bounds_hold"] = bool(margin <= 1e-9)
        linear = rmap.as_linear_map()
        extra["unitality_defect"] = float(linear.unitality_defect())
        new_cert = QDCertificate(cert.algebra, subset, linear, cert.epsilon,
                                 REAL_COL1, anti)
    else:
        extra["flags"] = [NONLINEAR_THETA_FLAG]

    return new_cert, _defect_report(
        cert.epsilon, REAL_COL1, {"mult": mult_witness, "norm": norm_witness}, extra,
        max_mult_defect=mult_witness["defect"], max_norm_defect=norm_witness["defect"])


def nuclear_witness_verify(phi: LinearMapMat, psi: LinearMapMat,
                           subset: FiniteSubset, epsilon: float,
                           target: LinearMapMat | None = None,
                           norm_mode: str = COMPLEX_OP,
                           b_list: list | None = None) -> dict:
    """Check how well the factorization psi . phi approximates the target.

    The defect is max over F of ||psi(phi(a)) - target(a)|| in the given
    norm; the target defaults to the identity.  For each supplied
    compression witness b the same comparison is repeated between
    b* target(.) b and the b-compressed factorization.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if phi.cod_dim != psi.dom_dim:
        raise ValueError("factorization dimensions do not chain")
    if target is None:
        target = LinearMapMat.identity(phi.dom_dim)
    if target.dom_dim != phi.dom_dim or target.cod_dim != psi.cod_dim:
        raise ValueError("target dimensions do not match the factorization")

    elements = subset.elements
    worst = _worst(_value_norms(compose(psi, phi).apply(elements) - target.apply(elements),
                                norm_mode),
                   lambda i: {"element": subset.label(i)})

    extra: dict = {}
    if b_list:
        per_b = [float(np.max(_value_norms(compose(compress(psi, b), phi).apply(elements)
                                           - compress(target, b).apply(elements),
                                           norm_mode)))
                 for b in b_list]
        extra["compressed_defects"] = per_b
        extra["max_compressed_defect"] = float(max(per_b))

    return _defect_report(epsilon, norm_mode, {"approximation": worst}, extra,
                          max_norm_defect=worst["defect"])


# -- traces ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TraceWitness:
    """A linear functional tau(x) = trace(gram x) claimed to be tracial."""

    gram: np.ndarray

    def __post_init__(self) -> None:
        g = as_array(self.gram).astype(np.complex128)
        if g.shape[0] != g.shape[1]:
            raise ValueError("gram matrix must be square")
        if not np.isfinite(g).all():
            raise ValueError("gram matrix has a non-finite entry")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def __call__(self, x):
        """tau(x): a complex for one matrix, an array for a stack."""
        t = np.trace(self.gram @ as_arrays(x), axis1=-2, axis2=-1)
        return complex(t) if t.ndim == 0 else t

    def pair_traces(self, frame: np.ndarray) -> np.ndarray:
        """M[i, j] = tau(f_i f_j) over a stack (d, n, n), as one matrix
        product; tau(f_j f_i) is then M.T."""
        d = len(frame)
        return (self.gram @ frame).reshape(d, -1) @ frame.swapaxes(1, 2).reshape(d, -1).T

    def traciality_residual(self, algebra: StarAlgebra) -> float:
        """max |tau(ab) - tau(ba)| over pairs of frame elements (bilinear,
        so a basis decides it, and the frame makes it scale-free)."""
        m = self.pair_traces(algebra.frame)
        return float(np.max(np.abs(m - m.T), initial=0.0))


def trace_qd_verify(cert: QDCertificate, witness: TraceWitness) -> dict:
    """Quasidiagonal-trace check: multiplicative defects plus the defect
    |tau_k(phi(a)) - tau(a)| against the normalized matrix trace."""
    if cert.phi.unitality_defect() > 1e-9:
        raise ValueError("trace verification needs a unital map")
    if witness.dim != cert.algebra.n:
        raise ValueError("trace witness dimension does not match the algebra")
    residual = witness.traciality_residual(cert.algebra)
    if residual > DEFAULT_TOL:
        raise ValueError("trace witness is not tracial on the algebra: "
                         f"max |tau(ab) - tau(ba)| = {residual:.3e}")
    img, prods = _evaluate(cert.phi.apply, cert.subset.elements)
    mult = _mult_witness(img, prods, cert.subset, cert.norm_mode)
    d = normalized_trace(img) - witness(cert.subset.elements)
    trace = _worst(np.hypot(d.real, d.imag), lambda i: {"element": cert.subset.label(i)})
    return _defect_report(cert.epsilon, cert.norm_mode, {"mult": mult, "trace": trace},
                          max_mult_defect=mult["defect"], max_trace_defect=trace["defect"])


def trace_transport(witness: TraceWitness, anti: AntiAutomorphism, cert: QDCertificate,
                    scale: float = 0.5, theta_scale: ThetaScale | None = None) -> dict:
    """Transport a tracial functional to the real form of the certificate's
    algebra A and audit the chain.

    The transported functional is upsilon1 . tau; it is only real-linear
    when tau is real-valued on A's real form, so witnesses violating that
    are flagged.  Both that and its traciality are read off every element
    and every pair of ``real_frame(A, anti)``, which raises ValueError when
    A is not invariant under Phi.  When the certificate's map is
    complex-linear the full defect chain |tau'(theta(phi(a))) - tau_form(a)|
    is replayed for the elements of F in the real form, with the
    trace-comparison inequality audited rather than assumed; theta scales
    by ``theta_scale``, or for None by the constant qd_realify picks for
    the certificate, and the report records which.
    """
    if witness.dim != anti.dim:
        raise ValueError("trace witness dimension does not match the antiautomorphism")
    form = real_frame(cert.algebra, anti)
    imag_on_form = float(np.max(np.abs(witness(form).imag), initial=0.0))
    real_valued = imag_on_form <= 1e-9
    pairs = upsilon1(witness.pair_traces(form), scale)

    report: dict = {
        "scale": scale,
        "real_valued_on_form": bool(real_valued),
        "imag_on_form": imag_on_form,
        "traciality_residual": float(np.max(np.abs(pairs - pairs.T), initial=0.0)),
    }
    if not real_valued:
        report["flags"] = ["witness is not real-valued on the real form; "
                           "the transported functional is not real-linear there"]

    if cert.phi.linearity == COMPLEX:
        if theta_scale is None:
            theta_scale = _realify_working_set(cert, anti)[3]
        report["theta_mode"] = theta_scale.mode
        if theta_scale.is_linear:
            report["theta_scale"] = theta_scale.value
        inside = np.flatnonzero(real_form_residual(anti, cert.subset.elements) <= REAL_FORM_TOL)
        xs = cert.subset.elements[inside]
        pa, tau = cert.phi.apply(xs), witness(xs)
        tau_k = normalized_trace(pa)
        lhs = normalized_trace(theta(pa, theta_scale)).real
        rhs = normalized_trace(eta1(pa)).real
        realified = RealifiedMap(cert.phi, anti, theta_scale).apply(xs)
        steps = {
            "final_defect": np.abs(normalized_trace(realified).real - upsilon1(tau, scale)),
            "trace_compare_lhs": lhs,
            "trace_compare_rhs": rhs,
            "trace_compare_holds": lhs <= rhs + 1e-12,
            "eta1_intertwine_residual": np.abs(rhs - upsilon1(tau_k, scale)),
            # hypot rounds as abs() of a Python complex does; np.abs may not
            "complex_trace_defect": np.hypot((tau_k - tau).real, (tau_k - tau).imag),
        }
        report["chain"] = [{"element": cert.subset.label(i),
                            **{key: column[j].item() for key, column in steps.items()}}
                           for j, i in enumerate(inside)]
        report["chain_trace_compare_all_hold"] = bool(np.all(steps["trace_compare_holds"]))
    return report


# -- lemma audits -----------------------------------------------------------


def _audit_eqtr1(claim: str, scale: float) -> tuple[dict, dict | None]:
    """upsilon(tau(x)) = tau(eta(x)) for the normalized traces tau.  Both
    sides are real-linear in x, so after the fixed candidate [[1 + i]] the
    doubled units of M_k(C), k = 1..4, decide it, one stack per k."""
    max_resid = 0.0
    for xs in [np.array([[[1.0 + 1.0j]]])] + [doubled_units(k) for k in range(1, 5)]:
        lhs = upsilon(normalized_trace(xs), scale)
        rhs = normalized_trace(eta(xs)).real
        resid = np.abs(lhs - rhs)
        bad = np.flatnonzero(resid > 1e-12)
        if bad.size:
            i = bad[0]
            witness = {"input": _re_im_pairs(xs[i]), "dim": xs.shape[-1],
                       "lhs": float(lhs[i]), "rhs": float(rhs[i])}
            if abs(rhs[i]) > 1e-12:
                witness["ratio"] = float(lhs[i] / rhs[i])
            return {"residual": float(resid[i])}, witness
        max_resid = max(max_resid, float(np.max(resid)))
    return {"max_residual": max_resid}, None


def _audit_entrywise_cp(claim: str, apply_fn) -> tuple[dict, dict | None]:
    """Positivity at every level of an entrywise map.  On M_k it is the
    k-fold amplification of its scalar map f on C, so it is positive at
    every level iff f is completely positive and preserves adjoints:
    ``cp_defect`` and ``selfadjointness_defect`` decide both from f's
    images of 1 and i.  The witness is always the twisted element
    [[1, i], [-i, 1]]: its image [[f(1), f(i)], [f(-i), f(1)]] is
    self-adjoint iff f preserves adjoints, and up to a swap of blocks it
    is twice the image of f's Choi witness, so its defect is at most
    twice ``choi_defect``."""
    images = apply_fn(doubled_units(1))
    f = LinearMapMat(1, images.shape[-1], REAL, images)
    residuals = {"choi_defect": cp_defect(f), "selfadjoint_defect": selfadjointness_defect(f)[0]}
    if residuals["choi_defect"] >= -1e-10 and residuals["selfadjoint_defect"] <= 1e-10:
        return residuals, None
    twisted = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    out = apply_fn(twisted)
    return residuals, {"level": 2, "input": _re_im_pairs(twisted),
                       "defect": float(positivity_defect(out)),
                       "selfadjoint_residual": float(hermitian_defect(out))}


def _audit_eq1t2(claim: str) -> tuple[dict, dict | None]:
    """tau(theta(a)) <= tau(eta1(a)) for positive a in M_k(C).  There
    tau(theta(a)) = Re tr a / (k (N(a) + 1)) and tau(eta1(a)) = tr a / 2k,
    so the claim fails exactly when N(a) < 1, as on 0.5 E11."""
    a = 0.5 * matrix_units(2)[0]
    lhs = float(normalized_trace(theta(a)).real)
    rhs = float(normalized_trace(eta1(a)).real)
    violation = lhs - rhs
    witness = {"input": _re_im_pairs(a), "dim": a.shape[0], "lhs": lhs, "rhs": rhs,
               "violation": violation}
    return {"violation": violation}, witness if violation > 1e-12 else None


def _audit_theta(claim: str) -> tuple[dict, dict | None]:
    """theta_homomorphism or theta_linearity on two fixed pairs (x, y)."""
    pairs = [(np.array([[1.0 + 0.0j]]), np.array([[2.0 + 0.0j]])),
             (np.eye(2, dtype=np.complex128), np.eye(2, dtype=np.complex128))]
    linearity = claim == "theta_linearity"
    reported = "additivity_residual" if linearity else "multiplicativity_residual"
    for x, y in pairs:
        res = {"additivity_residual": float(col_norm1(theta(x + y) - (theta(x) + theta(y))))}
        if linearity:
            res["homogeneity_residual"] = float(col_norm1(theta(2.0 * x) - 2.0 * theta(x)))
        else:
            res["multiplicativity_residual"] = float(col_norm1(theta(x @ y)
                                                               - theta(x) @ theta(y)))
        if max(res.values()) > 1e-10:
            witness = {"x": _re_im_pairs(x), "y": _re_im_pairs(y), "dim": x.shape[0], **res}
            if linearity:
                witness.update(normalizer_x=theta_normalizer(x),
                               normalizer_y=theta_normalizer(y))
            return {reported: res[reported]}, witness
    return {}, None


# Each claim's audit, called as audit(claim); it returns (residuals, witness),
# the witness None when the claim holds.
_AUDITS = {
    "eqtr1_scale1": partial(_audit_eqtr1, scale=1.0),
    "eqtr1_scale_half": partial(_audit_eqtr1, scale=0.5),
    "eta_cp": partial(_audit_entrywise_cp, apply_fn=eta),
    "upsilon_cp": partial(_audit_entrywise_cp, apply_fn=partial(upsilon, scale=1.0)),
    "eq1t2": _audit_eq1t2,
    "theta_homomorphism": _audit_theta,
    "theta_linearity": _audit_theta,
}
AUDIT_CLAIMS = tuple(_AUDITS)


def lemma_audit(claim: str, samples: int = 50, seed: int = 0) -> dict:
    """Evaluate a documented claim on the audit's fixed finite inputs.

    Nothing is sampled, so the report depends on the claim alone, apart
    from its provenance, which records ``samples`` (at least 1) and
    ``seed``.  Every counterexample verdict carries a replayable witness.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if claim not in _AUDITS:
        raise ValueError(f"unknown claim {claim!r}; known: {', '.join(AUDIT_CLAIMS)}")
    residuals, witness = _AUDITS[claim](claim)
    report = {"claim": claim, "verdict": "holds" if witness is None else "counterexample",
              "residuals": residuals, "provenance": {"samples": samples, "seed": seed}}
    if witness is not None:
        report["witness"] = witness
    return report
