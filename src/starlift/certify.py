"""Quasidiagonality and nuclearity certificates and the lemma audits.

A certificate bundles an algebra, a finite subset, a candidate map into
a matrix algebra, a tolerance, and a norm convention; verification
measures multiplicative, norm, and trace defects (against a trace
witness that must be tracial on the algebra) and reports worst-case
witnesses.  The transport routines replay the complex <-> real
bookkeeping at desk scale: complexification must respect the
quarter-epsilon triangle decomposition, and the real transport through
the scaled block embedding must respect the linear-mode defect bound.
The lemma audits evaluate documented claims on deterministic samples and
either confirm them or emit a replayable counterexample; several are
expected to fail and the suite freezes those outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpmaps import COMPLEX, REAL, LinearMapMat, complexify, compress, compose
from .matrix import (DEFAULT_TOL, _re_im_pairs, as_array, as_arrays, batches,
                     col_norm1, matrix_units, op_norm, positivity_defect, split_norm)
from .realform import AntiAutomorphism, StarAlgebra, real_decompose, \
    real_form_basis, real_form_residual
from .transport import RealifiedMap, ThetaScale, eta, eta1, normalized_trace, \
    theta, theta_normalizer, upsilon, upsilon1

COMPLEX_OP = "complex_op"
REAL_COL1 = "real_col1"
PHI_SPLIT = "phi_split"
NORM_MODES = (COMPLEX_OP, REAL_COL1, PHI_SPLIT)
REAL_FORM_TOL = 1e-8    # an element lies in the real form when ||Phi(x) - x*|| is at most this
TRACE_SAMPLES = 20      # pairs (a, b) drawn by trace_transport's traciality probe

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


@dataclass(frozen=True, eq=False)
class DefectReport:
    """Measured defects of a certificate, with worst-case witnesses.

    ``passed`` is true iff every measured defect is below epsilon; bound
    checks and flags from transport bookkeeping live in ``extra``.
    """

    epsilon: float
    norm_mode: str
    max_mult_defect: float | None = None
    max_norm_defect: float | None = None
    max_trace_defect: float | None = None
    witnesses: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        for d in (self.max_mult_defect, self.max_norm_defect, self.max_trace_defect):
            if d is not None and not (d < self.epsilon):
                return False
        return True

    def to_json(self) -> dict:
        out = {
            "epsilon": self.epsilon,
            "norm_mode": self.norm_mode,
            "pass": self.passed,
            "witnesses": self.witnesses,
        }
        for key in ("max_mult_defect", "max_norm_defect", "max_trace_defect"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.extra:
            out["extra"] = self.extra
        return out


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


def qd_verify(cert: QDCertificate) -> DefectReport:
    """Measure the multiplicative and norm defects of a certificate.

    The norm defect compares the image norm with the input norm in the
    certificate's convention: operator norms, column-sum norms on real
    matrices, or the split norm ||a|| + ||b|| across a decomposition.
    """
    img, prods = _evaluate(cert.phi.apply, cert.subset.elements)
    mult = _mult_witness(img, prods, cert.subset, cert.norm_mode)
    norm = _norm_witness(img, cert.subset, cert.norm_mode, cert.anti)
    return DefectReport(
        epsilon=cert.epsilon,
        norm_mode=cert.norm_mode,
        max_mult_defect=mult["defect"],
        max_norm_defect=norm["defect"],
        witnesses={"mult": mult, "norm": norm},
        extra={"unitality_defect": float(cert.phi.unitality_defect())},
    )


def qd_complexify(cert: QDCertificate) -> tuple[QDCertificate, DefectReport]:
    """Complexify a real-form certificate and check the bookkeeping.

    Complexified element k is F[k] + i F[h + k], h = ceil(|F| / 2), with
    a zero partner for an odd leftover.  Its multiplicative defect, in the
    split norm, must not exceed the sum of the four contributing real
    defects (measured in operator norm); the split norm defect must not
    exceed the sum of the two real norm defects.  Both bounds are triangle
    inequalities and are verified numerically with a 1e-9 cushion.
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

    new_cert = QDCertificate(cert.algebra, FiniteSubset(complexified), phi_c, cert.epsilon,
                             PHI_SPLIT, cert.anti)
    report = DefectReport(
        epsilon=cert.epsilon,
        norm_mode=PHI_SPLIT,
        max_mult_defect=mult_witness["defect"],
        max_norm_defect=norm_witness["defect"],
        witnesses={"mult": mult_witness, "norm": norm_witness},
        extra={
            "mult_bound_margin": float(mult_margin),
            "norm_bound_margin": float(norm_margin),
            "bounds_hold": bool(mult_margin <= 1e-9 and norm_margin <= 1e-9),
            "real_defect_op_max": float(np.max(dop)),
        },
    )
    return new_cert, report


def _realify_working_set(cert: QDCertificate, anti: AntiAutomorphism,
                         scale: ThetaScale | None = None):
    """The real-form subset qd_realify transports (each element, or its
    parts r, s when it is outside the real form), phi's images of it and
    of its products (see _evaluate), and the theta scale: ``scale``, or
    for None (the "auto" mode) the fixed scale 1/(max N + 1) over those
    images, so the linear theta is contractive there."""
    inside = real_form_residual(anti, cert.subset.elements) <= REAL_FORM_TOL
    subset = FiniteSubset([part for a, ok in zip(cert.subset.elements, inside)
                           for part in ((a,) if ok else real_decompose(anti, a))])
    img, prods = _evaluate(cert.phi.apply, subset.elements)
    if scale is None:
        scale = ThetaScale.for_working_set(
            np.concatenate([img, prods.reshape((-1,) + img.shape[1:])]))
    return subset, img, prods, scale


def qd_realify(cert: QDCertificate, anti: AntiAutomorphism | None = None,
               scale: ThetaScale | None = None
               ) -> tuple[QDCertificate | None, DefectReport]:
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
    anti = anti if anti is not None else cert.anti
    if anti is None:
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

    report = DefectReport(
        epsilon=cert.epsilon,
        norm_mode=REAL_COL1,
        max_mult_defect=mult_witness["defect"],
        max_norm_defect=norm_witness["defect"],
        witnesses={"mult": mult_witness, "norm": norm_witness},
        extra=extra,
    )
    return new_cert, report


def nuclear_witness_verify(phi: LinearMapMat, psi: LinearMapMat,
                           subset: FiniteSubset, epsilon: float,
                           target: LinearMapMat | None = None,
                           norm_mode: str = COMPLEX_OP,
                           b_list: list | None = None) -> DefectReport:
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

    return DefectReport(
        epsilon=epsilon,
        norm_mode=norm_mode,
        max_norm_defect=worst["defect"],
        witnesses={"approximation": worst},
        extra=extra,
    )


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

    def traciality_residual(self, algebra: StarAlgebra) -> float:
        """max |tau(ab) - tau(ba)| over pairs of frame elements (bilinear,
        so a basis decides it, and the frame makes it scale-free)."""
        f = algebra.frame
        worst = 0.0
        for b in batches(len(f), f.size):    # all products f_i f_j, in bounded batches
            d = self(f[b, None] @ f[None]) - self(f[None] @ f[b, None])
            worst = max(worst, float(np.max(np.hypot(d.real, d.imag))))
        return worst


def trace_qd_verify(cert: QDCertificate, witness: TraceWitness) -> DefectReport:
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
    return DefectReport(
        epsilon=cert.epsilon,
        norm_mode=cert.norm_mode,
        max_mult_defect=mult["defect"],
        max_trace_defect=trace["defect"],
        witnesses={"mult": mult, "trace": trace},
    )


def trace_transport(witness: TraceWitness, anti: AntiAutomorphism,
                    scale: float = 0.5, cert: QDCertificate | None = None,
                    theta_scale: ThetaScale | None = None, seed: int = 0) -> dict:
    """Transport a tracial functional to the real form and audit the chain.

    The transported functional is upsilon1 . tau; it is only real-linear
    when tau is real-valued on the real form, so witnesses violating that
    are flagged.  When a certificate is supplied the full defect chain
    |tau'(theta(phi(a))) - tau_form(a)| is replayed for the elements of F
    in the real form, with the trace-comparison inequality audited rather
    than assumed; theta scales by ``theta_scale``, or for None by the
    constant qd_realify picks for the certificate, and the report records
    which.
    """
    if witness.dim != anti.dim:
        raise ValueError("trace witness dimension does not match the antiautomorphism")
    if not np.isfinite(scale):
        raise ValueError(f"trace transport scale must be finite, got {scale!r}")
    form = real_form_basis(anti)
    imag_on_form = float(np.max(np.abs(witness(form).imag)))
    real_valued = imag_on_form <= 1e-9

    # Per sample the coefficients of a, then of b, each a vector-matrix product.
    coeff = np.random.default_rng(seed).standard_normal((TRACE_SAMPLES, 2, 1, len(form)))
    c = (coeff @ form.reshape(len(form), -1)).reshape(TRACE_SAMPLES, 2, anti.dim, anti.dim)
    ca, cb = c[:, 0], c[:, 1]
    traciality = np.max(np.abs(upsilon1(witness(ca @ cb), scale)
                               - upsilon1(witness(cb @ ca), scale)), initial=0.0)

    report: dict = {
        "scale": scale,
        "real_valued_on_form": bool(real_valued),
        "imag_on_form": float(imag_on_form),
        "traciality_residual": float(traciality),
        "samples": TRACE_SAMPLES,
        "seed": int(seed),
    }
    if not real_valued:
        report["flags"] = ["witness is not real-valued on the real form; "
                           "the transported functional is not real-linear there"]

    if cert is not None:
        if cert.phi.linearity != COMPLEX:
            raise ValueError("chain replay needs a complex-linear certificate map")
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


AUDIT_CLAIMS = ("eqtr1_scale1", "eqtr1_scale_half", "eta_cp", "upsilon_cp",
                "eq1t2", "theta_homomorphism", "theta_linearity")


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Outcome of evaluating a documented claim on deterministic samples."""

    claim: str
    verdict: str                  # "holds" | "counterexample"
    residuals: dict
    witness: dict | None
    samples: int
    seed: int

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_json(self) -> dict:
        out = {
            "claim": self.claim,
            "verdict": self.verdict,
            "residuals": self.residuals,
            "provenance": {"samples": self.samples, "seed": self.seed},
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _random_square(rng: np.random.Generator, k: int) -> np.ndarray:
    """A k x k matrix with iid N + iN entries, real parts drawn first."""
    re = rng.standard_normal((k, k))
    return re + 1j * rng.standard_normal((k, k))


def _audit_eqtr1(samples: int, seed: int, scale: float) -> AuditReport:
    claim = "eqtr1_scale1" if scale == 1.0 else "eqtr1_scale_half"
    rng = np.random.default_rng(seed)
    xs = [np.array([[1.0 + 1.0j]])]
    for i in range(samples):
        k = 1 + (i % 4)
        xs.append(_random_square(rng, k))
    max_resid = 0.0
    for x in xs:
        lhs = upsilon(normalized_trace(x), scale)
        rhs = float(normalized_trace(eta(x)).real)
        resid = abs(lhs - rhs)
        if resid > 1e-12:
            witness = {"input": _re_im_pairs(x), "dim": x.shape[0],
                       "lhs": float(lhs), "rhs": rhs}
            if abs(rhs) > 1e-12:
                witness["ratio"] = float(lhs / rhs)
            return AuditReport(claim, "counterexample",
                               {"residual": resid}, witness, samples, seed)
        max_resid = max(max_resid, resid)
    return AuditReport(claim, "holds", {"max_residual": max_resid}, None,
                       samples, seed)


def _positive_samples(rng, level: int, samples: int,
                      canonical: list[np.ndarray]) -> list[np.ndarray]:
    out = list(canonical)
    for _ in range(samples):
        c = _random_square(rng, level)
        p = c.conj().T @ c
        nrm = op_norm(p)
        if nrm > 0:
            out.append(p / nrm)
    return out


def _audit_entrywise_cp(claim: str, apply_fn, samples: int, seed: int) -> AuditReport:
    """Shared audit for the entrywise diag and sum maps: levels 1..3,
    canonical witnesses first, positivity probed on c*c samples and
    self-adjointness preservation alongside."""
    rng = np.random.default_rng(seed)
    canonical = {
        2: [np.array([[1.0, 1.0j], [-1.0j, 1.0]]),
            np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 1.0]])],
    }
    residuals: dict = {}
    for level in (1, 2, 3):
        worst = np.inf
        for p in _positive_samples(rng, level, samples, canonical.get(level, [])):
            out = apply_fn(p)
            d = positivity_defect(out)
            sa = op_norm(out - out.conj().T)
            worst = min(worst, d)
            if d < -1e-10 or sa > 1e-10:
                witness = {"level": level, "input": _re_im_pairs(p),
                           "defect": float(d), "selfadjoint_residual": float(sa)}
                residuals[f"level{level}_defect"] = float(d)
                return AuditReport(claim, "counterexample", residuals, witness,
                                   samples, seed)
        residuals[f"level{level}_defect"] = float(worst)
    return AuditReport(claim, "holds", residuals, None, samples, seed)


def _audit_eq1t2(samples: int, seed: int) -> AuditReport:
    rng = np.random.default_rng(seed)
    mats = [0.5 * matrix_units(2)[0]]
    for i in range(samples):
        k = 1 + (i % 3)
        c = _random_square(rng, k)
        mats.append(c.conj().T @ c)
    worst_slack = np.inf
    for a in mats:
        lhs = float(normalized_trace(theta(a)).real)
        rhs = float(normalized_trace(eta1(a)).real)
        if lhs > rhs + 1e-12:
            witness = {"input": _re_im_pairs(a), "dim": a.shape[0],
                       "lhs": lhs, "rhs": rhs, "violation": lhs - rhs}
            return AuditReport("eq1t2", "counterexample",
                               {"violation": lhs - rhs}, witness, samples, seed)
        worst_slack = min(worst_slack, rhs - lhs)
    return AuditReport("eq1t2", "holds", {"min_slack": float(worst_slack)},
                       None, samples, seed)


def _audit_theta(claim: str, samples: int, seed: int) -> AuditReport:
    rng = np.random.default_rng(seed)
    pairs = [(np.array([[1.0 + 0.0j]]), np.array([[2.0 + 0.0j]])),
             (np.eye(2, dtype=np.complex128), np.eye(2, dtype=np.complex128))]
    for i in range(samples):
        k = 1 + (i % 3)
        pairs.append((_random_square(rng, k), _random_square(rng, k)))
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
            return AuditReport(claim, "counterexample", {reported: res[reported]},
                               witness, samples, seed)
    return AuditReport(claim, "holds", {}, None, samples, seed)


def lemma_audit(claim: str, samples: int = 50, seed: int = 0) -> AuditReport:
    """Evaluate a documented claim on deterministic samples.

    Verdicts are deterministic given (claim, samples, seed), and every
    counterexample verdict carries a replayable witness.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if claim == "eqtr1_scale1":
        return _audit_eqtr1(samples, seed, scale=1.0)
    if claim == "eqtr1_scale_half":
        return _audit_eqtr1(samples, seed, scale=0.5)
    if claim == "eta_cp":
        return _audit_entrywise_cp("eta_cp", eta, samples, seed)
    if claim == "upsilon_cp":
        return _audit_entrywise_cp(
            "upsilon_cp", lambda p: upsilon(p, 1.0), samples, seed)
    if claim == "eq1t2":
        return _audit_eq1t2(samples, seed)
    if claim in ("theta_homomorphism", "theta_linearity"):
        return _audit_theta(claim, samples, seed)
    raise ValueError(f"unknown claim {claim!r}; known: {', '.join(AUDIT_CLAIMS)}")
