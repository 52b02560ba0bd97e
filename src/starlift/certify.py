"""Quasidiagonality and nuclearity certificates and the lemma audits.

A certificate bundles an algebra, a finite subset, a candidate map into
a matrix algebra, a tolerance, and a norm convention; verification
measures multiplicative, norm, and trace defects and reports worst-case
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
from .matrix import (as_array, col_norm1, matrix_units, op_norm, positivity_defect,
                     split_norm)
from .realform import AntiAutomorphism, StarAlgebra, real_decompose, \
    real_form_basis, real_form_residual
from .sampling import random_matrix, rng_from
from .transport import ThetaScale, eta, eta1, normalized_trace, realify_map, \
    theta, theta_normalizer, upsilon, upsilon1

COMPLEX_OP = "complex_op"
REAL_COL1 = "real_col1"
PHI_SPLIT = "phi_split"
NORM_MODES = (COMPLEX_OP, REAL_COL1, PHI_SPLIT)

NONLINEAR_THETA_FLAG = ("nonlinear theta: the normalizer is input-dependent, "
                        "so the linear homomorphism defect bound does not apply; "
                        "defects are reported for audit only")


def _value_norm(m, mode: str, anti: AntiAutomorphism | None = None,
                domain: bool = False) -> float:
    """Norm of a matrix under a certificate convention.

    In split mode, domain elements split through the certificate's
    antiautomorphism; codomain values split entrywise (their real
    structure is the transpose one, since real targets are real matrix
    algebras).  In column-sum mode a domain element is measured through
    its real realization sigma(a), which is col_norm1(a) itself when a
    is a real matrix and stays defined on real forms with complex
    entries (u = J).
    """
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


@dataclass(frozen=True, eq=False)
class FiniteSubset:
    """A nonempty list of same-shaped matrices, optionally labelled."""

    elements: tuple
    labels: tuple | None = None

    def __post_init__(self) -> None:
        mats = tuple(as_array(m).astype(np.complex128) for m in self.elements)
        if not mats:
            raise ValueError("finite subset must be nonempty")
        shape = mats[0].shape
        if shape[0] != shape[1]:
            raise ValueError("subset elements must be square")
        for m in mats:
            if m.shape != shape:
                raise ValueError("subset elements must share one dimension")
            m.setflags(write=False)
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
        return self.elements[0].shape[0]

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"F[{i}]"


@dataclass(frozen=True, eq=False)
class QDCertificate:
    """Candidate quasidiagonality data: (algebra, F, phi, epsilon, mode).

    When the algebra is unital the map must be unital within 1e-9;
    transported certificates produced by the scaled block embedding are
    inherently non-unital, so they are built unvalidated and carry their
    unitality defect in the verification report instead.
    """

    algebra: StarAlgebra
    subset: FiniteSubset
    phi: LinearMapMat
    epsilon: float
    norm_mode: str = COMPLEX_OP
    anti: AntiAutomorphism | None = None
    validate: bool = True

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
        if self.validate and self.algebra.unital:
            d = self.phi.unitality_defect()
            if d > 1e-9:
                raise ValueError(f"map is not unital: ||phi(1) - 1|| = {d:.3e}")


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
        if self.max_mult_defect is not None:
            out["max_mult_defect"] = self.max_mult_defect
        if self.max_norm_defect is not None:
            out["max_norm_defect"] = self.max_norm_defect
        if self.max_trace_defect is not None:
            out["max_trace_defect"] = self.max_trace_defect
        if self.extra:
            out["extra"] = self.extra
        return out


def _worst(rows) -> dict:
    """The worst defect and its witness: the first row with the largest
    ``"defect"``, or ``{"defect": -1.0}`` when there is none."""
    worst = {"defect": -1.0}
    for row in rows:
        if row["defect"] > worst["defect"]:
            worst = row
    return worst


def _evaluate(f, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f on a stack and on the products x_i x_j of every ordered pair,
    the latter shaped (k, k, m, m); ``f`` takes and returns stacks."""
    k = len(xs)
    img = f(xs)
    prods = f((xs[:, None] @ xs[None]).reshape((k * k,) + xs.shape[1:]))
    return img, prods.reshape((k, k) + img.shape[1:])


def _mult_witness(img: np.ndarray, prods: np.ndarray, subset: FiniteSubset,
                  mode: str, anti: AntiAutomorphism | None) -> dict:
    """Worst ||phi(ab) - phi(a)phi(b)|| over pairs of the subset, from
    the images of the elements and of their products (see _evaluate)."""
    return _worst(
        {"left": subset.label(i), "right": subset.label(j),
         "defect": _value_norm(prods[i, j] - img[i] @ img[j], mode, anti)}
        for i in range(len(img)) for j in range(len(img)))


def _norm_witness(img: np.ndarray, subset: FiniteSubset, mode: str,
                  anti: AntiAutomorphism | None) -> dict:
    """Worst | ||phi(a)|| - ||a|| | over the subset, from the images."""
    return _worst(
        {"element": subset.label(i),
         "defect": abs(_value_norm(y, mode, anti)
                       - _value_norm(a, mode, anti, domain=True))}
        for i, (a, y) in enumerate(zip(subset.elements, img)))


def qd_verify(cert: QDCertificate) -> DefectReport:
    """Measure the multiplicative and norm defects of a certificate.

    The norm defect compares the image norm with the input norm in the
    certificate's convention: operator norms, column-sum norms on real
    matrices, or the split norm ||a|| + ||b|| across a decomposition.
    """
    phi = cert.phi
    img, prods = _evaluate(phi.apply, np.stack(cert.subset.elements))
    mult = _mult_witness(img, prods, cert.subset, cert.norm_mode, cert.anti)
    norm = _norm_witness(img, cert.subset, cert.norm_mode, cert.anti)
    return DefectReport(
        epsilon=cert.epsilon,
        norm_mode=cert.norm_mode,
        max_mult_defect=mult["defect"],
        max_norm_defect=norm["defect"],
        witnesses={"mult": mult, "norm": norm},
        extra={"unitality_defect": float(phi.unitality_defect())},
    )


def synthesize_pairs(subset: FiniteSubset) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair the first half of F with the second half; an odd leftover
    gets a zero imaginary partner."""
    mats = subset.elements
    half = (len(mats) + 1) // 2
    pairs = []
    for j in range(half):
        a = mats[j]
        b = mats[half + j] if half + j < len(mats) else np.zeros_like(a)
        pairs.append((a, b))
    return pairs


def qd_complexify(cert: QDCertificate,
                  pairs: list[tuple[np.ndarray, np.ndarray]] | None = None
                  ) -> tuple[QDCertificate, DefectReport]:
    """Complexify a real-form certificate and check the bookkeeping.

    The complexified multiplicative defect of each synthesized element
    pair, in the split norm, must not exceed the sum of the four
    contributing real defects (measured in operator norm); the split
    norm defect must not exceed the sum of the two real norm defects.
    Both bounds are triangle inequalities and are verified numerically
    with a 1e-9 cushion.
    """
    if cert.anti is None:
        raise ValueError("complexification needs the certificate's antiautomorphism")
    if cert.phi.linearity != REAL:
        raise ValueError("qd_complexify expects a real-linear certificate map")
    if cert.phi.cod_field != REAL:
        raise ValueError("the bookkeeping bound needs a real matrix target")
    anti = cert.anti
    for i, a in enumerate(cert.subset.elements):
        res = real_form_residual(anti, a)
        if res > 1e-8:
            raise ValueError(
                f"subset element {cert.subset.label(i)} is not in the real form "
                f"(residual {res:.3e})")

    phi_c = complexify(cert.phi, anti)
    if pairs is None:
        pairs = synthesize_pairs(cert.subset)

    parts = np.stack([x for pair in pairs for x in pair])
    img, prods = _evaluate(cert.phi.apply, parts)
    dop = np.linalg.norm(prods - img[:, None] @ img[None], 2, axis=(2, 3))
    part_norms = np.linalg.norm(parts, 2, axis=(1, 2))
    norm_op = np.abs(np.linalg.norm(img, 2, axis=(1, 2)) - part_norms)

    complexified = parts[0::2] + 1j * parts[1::2]
    img_c, prod_c = _evaluate(phi_c.apply, complexified)
    norm_rows = []
    mult_rows = []
    for k in range(len(complexified)):
        ia, ib = 2 * k, 2 * k + 1
        nd = abs(split_norm(img_c[k]) - (part_norms[ia] + part_norms[ib]))
        norm_rows.append({"element": k, "defect": nd,
                          "bound": norm_op[ia] + norm_op[ib]})
        for l in range(len(complexified)):
            ja, jb = 2 * l, 2 * l + 1
            md = split_norm(prod_c[k, l] - img_c[k] @ img_c[l])
            mult_rows.append({"left": k, "right": l, "defect": md,
                              "bound": dop[ia, ja] + dop[ib, jb] + dop[ib, ja]
                              + dop[ia, jb]})
    mult_witness = _worst(mult_rows)
    norm_witness = _worst(norm_rows)
    mult_margin = max((r["defect"] - r["bound"] for r in mult_rows), default=-np.inf)
    norm_margin = max((r["defect"] - r["bound"] for r in norm_rows), default=-np.inf)

    new_subset = FiniteSubset(tuple(complexified))
    new_cert = QDCertificate(cert.algebra, new_subset, phi_c, cert.epsilon,
                             PHI_SPLIT, anti, validate=False)
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

    f_real: list[np.ndarray] = []
    for a in cert.subset.elements:
        if real_form_residual(anti, a) <= 1e-8:
            f_real.append(a)
        else:
            r, s = real_decompose(anti, a)
            f_real.extend((r, s))
    subset = FiniteSubset(tuple(f_real))

    phi = cert.phi
    xs = np.stack(subset.elements)
    img, prods = _evaluate(phi.apply, xs)
    if scale is None:
        scale = ThetaScale.for_working_set(
            np.concatenate([img, prods.reshape((-1,) + img.shape[1:])]))
    rmap = realify_map(phi, anti, scale)

    r_img, r_prods = _evaluate(rmap.apply, xs)
    mult_witness = _mult_witness(r_img, r_prods, subset, REAL_COL1, anti)
    norm_witness = _norm_witness(r_img, subset, REAL_COL1, anti)

    extra: dict = {"theta_mode": scale.mode}
    new_cert = None
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
        linear = rmap.as_linear_map()
        extra["unitality_defect"] = float(linear.unitality_defect())
        new_cert = QDCertificate(cert.algebra, subset, linear, cert.epsilon,
                                 REAL_COL1, anti, validate=False)
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
                           b_list: list | None = None,
                           anti: AntiAutomorphism | None = None) -> DefectReport:
    """Check how well the factorization psi . phi approximates the target.

    The defect is max over F of ||psi(phi(a)) - target(a)|| in the given
    norm; the target defaults to the identity.  For each supplied
    compression witness b the same comparison is repeated between
    b* target(.) b and the b-compressed factorization.
    """
    if phi.cod_dim != psi.dom_dim:
        raise ValueError("factorization dimensions do not chain")
    if target is None:
        target = LinearMapMat.identity(phi.dom_dim)
    if target.dom_dim != phi.dom_dim or target.cod_dim != psi.cod_dim:
        raise ValueError("target dimensions do not match the factorization")

    elements = np.stack(subset.elements)
    composed = compose(psi, phi)
    worst = _worst(
        {"element": subset.label(i), "defect": _value_norm(d, norm_mode, anti)}
        for i, d in enumerate(composed.apply(elements) - target.apply(elements)))

    extra: dict = {}
    if b_list:
        per_b = []
        for b in b_list:
            tb = compress(target, b)
            fb = compose(compress(psi, b), phi)
            db = max(_value_norm(d, norm_mode, anti)
                     for d in fb.apply(elements) - tb.apply(elements))
            per_b.append(float(db))
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
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def __call__(self, x) -> complex:
        return complex(np.trace(self.gram @ as_array(x)))

    def traciality_residual(self, algebra: StarAlgebra) -> float:
        worst = 0.0
        for a in algebra.span:
            for b in algebra.span:
                worst = max(worst, abs(self(a @ b) - self(b @ a)))
        return worst

    def positivity_defect(self, samples: int = 10, seed: int = 0) -> float:
        rng = rng_from(seed)
        worst = 0.0
        for _ in range(samples):
            c = random_matrix(rng, self.dim)
            v = self(c.conj().T @ c)
            worst = min(worst, v.real)
            worst = min(worst, -abs(v.imag))
        return worst


def trace_qd_verify(cert: QDCertificate, witness: TraceWitness) -> DefectReport:
    """Quasidiagonal-trace check: multiplicative defects plus the defect
    |tau_k(phi(a)) - tau(a)| against the normalized matrix trace."""
    if cert.phi.unitality_defect() > 1e-9:
        raise ValueError("trace verification needs a unital map")
    if witness.dim != cert.algebra.n:
        raise ValueError("trace witness dimension does not match the algebra")
    img, prods = _evaluate(cert.phi.apply, np.stack(cert.subset.elements))
    mult = _mult_witness(img, prods, cert.subset, cert.norm_mode, cert.anti)
    trace = _worst(
        {"element": cert.subset.label(i),
         "defect": abs(normalized_trace(y) - witness(a))}
        for i, (a, y) in enumerate(zip(cert.subset.elements, img)))
    return DefectReport(
        epsilon=cert.epsilon,
        norm_mode=cert.norm_mode,
        max_mult_defect=mult["defect"],
        max_trace_defect=trace["defect"],
        witnesses={"mult": mult, "trace": trace},
    )


@dataclass(frozen=True, eq=False)
class TransportedTrace:
    """upsilon1 . tau restricted to a real form."""

    source: TraceWitness
    anti: AntiAutomorphism
    scale: float = 0.5

    def __call__(self, a) -> float:
        return upsilon1(self.source(a), self.scale)


def trace_transport(witness: TraceWitness, anti: AntiAutomorphism,
                    scale: float = 0.5, cert: QDCertificate | None = None,
                    theta_scale: ThetaScale | None = None,
                    samples: int = 20, seed: int = 0
                    ) -> tuple[TransportedTrace, dict]:
    """Transport a tracial functional to the real form and audit the chain.

    The transported functional is upsilon1 . tau; it is only real-linear
    when tau is real-valued on the real form, so witnesses violating that
    are flagged.  When a certificate is supplied the full defect chain
    |tau'(theta(phi(a))) - tau_form(a)| is replayed step by step, with
    the trace-comparison inequality audited rather than assumed.
    """
    if witness.dim != anti.dim:
        raise ValueError("trace witness dimension does not match the antiautomorphism")
    form = real_form_basis(anti)
    imag_on_form = max(abs(witness(g).imag) for g in form)
    real_valued = imag_on_form <= 1e-9
    transported = TransportedTrace(witness, anti, scale)

    rng = rng_from(seed)
    traciality = 0.0
    for _ in range(samples):
        ca = np.tensordot(rng.standard_normal(len(form)), np.stack(form), axes=(0, 0))
        cb = np.tensordot(rng.standard_normal(len(form)), np.stack(form), axes=(0, 0))
        traciality = max(traciality, abs(transported(ca @ cb) - transported(cb @ ca)))

    report: dict = {
        "scale": scale,
        "real_valued_on_form": bool(real_valued),
        "imag_on_form": float(imag_on_form),
        "traciality_residual": float(traciality),
        "samples": samples,
        "seed": int(seed),
    }
    if not real_valued:
        report["flags"] = ["witness is not real-valued on the real form; "
                           "the transported functional is not real-linear there"]

    if cert is not None:
        if cert.phi.linearity != COMPLEX:
            raise ValueError("chain replay needs a complex-linear certificate map")
        if theta_scale is None:
            theta_scale = ThetaScale()
        rmap = realify_map(cert.phi, anti, theta_scale)
        steps = []
        for i, a in enumerate(cert.subset.elements):
            if real_form_residual(anti, a) > 1e-8:
                continue
            pa = cert.phi.apply(a)
            t2k_theta = float(np.trace(theta(pa, theta_scale)).real
                              / (2 * cert.phi.cod_dim))
            t2k_eta1 = float(np.trace(eta1(pa)).real
                             / (2 * cert.phi.cod_dim))
            ups_tau_k = upsilon1(normalized_trace(pa), scale)
            final = abs(float(np.trace(rmap.apply(a)).real / (2 * cert.phi.cod_dim))
                        - transported(a))
            base = abs(normalized_trace(pa) - witness(a))
            steps.append({
                "element": cert.subset.label(i),
                "final_defect": final,
                "trace_compare_lhs": t2k_theta,
                "trace_compare_rhs": t2k_eta1,
                "trace_compare_holds": bool(t2k_theta <= t2k_eta1 + 1e-12),
                "eta1_intertwine_residual": abs(t2k_eta1 - ups_tau_k),
                "complex_trace_defect": float(base),
            })
        report["chain"] = steps
        report["chain_trace_compare_all_hold"] = bool(
            all(s["trace_compare_holds"] for s in steps)) if steps else True
    return transported, report


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


def _mat_payload(m) -> list:
    a = as_array(m).astype(np.complex128)
    return [[float(z.real), float(z.imag)] for z in a.ravel()]


def _audit_eqtr1(samples: int, seed: int, scale: float) -> AuditReport:
    rng = rng_from(seed)
    xs = [np.array([[1.0 + 1.0j]])]
    for i in range(samples):
        k = 1 + (i % 4)
        xs.append(random_matrix(rng, k))
    max_resid = 0.0
    for x in xs:
        lhs = upsilon(normalized_trace(x), scale)
        ey = eta(x)
        rhs = float(np.trace(ey).real) / ey.shape[0]
        resid = abs(lhs - rhs)
        if resid > 1e-12:
            witness = {"input": _mat_payload(x), "dim": x.shape[0],
                       "lhs": float(lhs), "rhs": rhs}
            if abs(rhs) > 1e-12:
                witness["ratio"] = float(lhs / rhs)
            claim = "eqtr1_scale1" if scale == 1.0 else "eqtr1_scale_half"
            return AuditReport(claim, "counterexample",
                               {"residual": resid}, witness, samples, seed)
        max_resid = max(max_resid, resid)
    claim = "eqtr1_scale1" if scale == 1.0 else "eqtr1_scale_half"
    return AuditReport(claim, "holds", {"max_residual": max_resid}, None,
                       samples, seed)


def _positive_samples(rng, level: int, samples: int,
                      canonical: list[np.ndarray]) -> list[np.ndarray]:
    out = list(canonical)
    for _ in range(samples):
        c = random_matrix(rng, level)
        p = c.conj().T @ c
        nrm = op_norm(p)
        if nrm > 0:
            out.append(p / nrm)
    return out


def _audit_entrywise_cp(claim: str, apply_fn, samples: int, seed: int) -> AuditReport:
    """Shared audit for the entrywise diag and sum maps: levels 1..3,
    canonical witnesses first, positivity probed on c*c samples and
    self-adjointness preservation alongside."""
    rng = rng_from(seed)
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
                witness = {"level": level, "input": _mat_payload(p),
                           "defect": float(d), "selfadjoint_residual": float(sa)}
                residuals[f"level{level}_defect"] = float(d)
                return AuditReport(claim, "counterexample", residuals, witness,
                                   samples, seed)
        residuals[f"level{level}_defect"] = float(worst)
    return AuditReport(claim, "holds", residuals, None, samples, seed)


def _audit_eq1t2(samples: int, seed: int) -> AuditReport:
    rng = rng_from(seed)
    mats = [0.5 * matrix_units(2)[0]]
    for i in range(samples):
        k = 1 + (i % 3)
        c = random_matrix(rng, k)
        mats.append(c.conj().T @ c)
    worst_slack = np.inf
    for a in mats:
        k2 = 2 * a.shape[0]
        lhs = float(np.trace(theta(a)).real) / k2
        rhs = float(np.trace(eta1(a)).real) / k2
        if lhs > rhs + 1e-12:
            witness = {"input": _mat_payload(a), "dim": a.shape[0],
                       "lhs": lhs, "rhs": rhs, "violation": lhs - rhs}
            return AuditReport("eq1t2", "counterexample",
                               {"violation": lhs - rhs}, witness, samples, seed)
        worst_slack = min(worst_slack, rhs - lhs)
    return AuditReport("eq1t2", "holds", {"min_slack": float(worst_slack)},
                       None, samples, seed)


def _audit_theta(claim: str, samples: int, seed: int) -> AuditReport:
    rng = rng_from(seed)
    pairs = [(np.array([[1.0 + 0.0j]]), np.array([[2.0 + 0.0j]])),
             (np.eye(2, dtype=np.complex128), np.eye(2, dtype=np.complex128))]
    for i in range(samples):
        k = 1 + (i % 3)
        pairs.append((random_matrix(rng, k), random_matrix(rng, k)))
    for x, y in pairs:
        add = col_norm1(theta(x + y) - (theta(x) + theta(y)))
        mult = col_norm1(theta(x @ y) - theta(x) @ theta(y))
        if claim == "theta_linearity":
            hom = col_norm1(theta(2.0 * x) - 2.0 * theta(x))
            if add > 1e-10 or hom > 1e-10:
                witness = {"x": _mat_payload(x), "y": _mat_payload(y),
                           "dim": x.shape[0],
                           "additivity_residual": float(add),
                           "homogeneity_residual": float(hom),
                           "normalizer_x": theta_normalizer(x),
                           "normalizer_y": theta_normalizer(y)}
                return AuditReport(claim, "counterexample",
                                   {"additivity_residual": float(add)},
                                   witness, samples, seed)
        else:
            if add > 1e-10 or mult > 1e-10:
                witness = {"x": _mat_payload(x), "y": _mat_payload(y),
                           "dim": x.shape[0],
                           "additivity_residual": float(add),
                           "multiplicativity_residual": float(mult)}
                return AuditReport(claim, "counterexample",
                                   {"multiplicativity_residual": float(mult)},
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
