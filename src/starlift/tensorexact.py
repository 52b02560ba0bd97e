"""Minimal tensor products, slice maps, Fubini products, exactness checks.

Finite-dimensional algebras are presented on matrices, so the minimal
tensor product is just the Kronecker-product presentation.  Slice maps
are partial-trace contractions against a functional's Gram matrix.  The
Fubini product is computed as the kernel of a stacked linear system of
slice-membership constraints, over R throughout, because real-form legs
are only real-linear subspaces of the complex tensor algebra.  Ideals
are block summands (every closed ideal of a finite-dimensional
C*-algebra is one), which keeps the quotient map exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import TraceWitness
from .cpmaps import COMPLEX, REAL, LinearMapMat
from .matrix import as_array, as_arrays, batches, kron, matrix_units, op_norm
from .realform import AntiAutomorphism, StarAlgebra, real_decompose, real_form_basis
from .subspace import (complex_orth_basis, containment_residual, kernel_rows,
                       max_principal_angle, orth_rows, realify, subspaces_equal,
                       unrealify)


def _legs(x, na: int, nb: int) -> np.ndarray:
    """x in M_na (x) M_nb, or a stack of them, as (..., na, nb, na, nb)."""
    x = as_arrays(x)
    return x.astype(np.complex128).reshape(x.shape[:-2] + (na, nb, na, nb))


def slice_right_value(t_phi, x, na: int, nb: int) -> np.ndarray:
    """R_phi(x): contract the A leg of x in M_na (x) M_nb against t_phi,
    so a (x) b -> trace(t_phi a) b.  Stacks of functionals (..., na, na)
    and of matrices (..., na*nb, na*nb) broadcast against each other."""
    t = as_arrays(t_phi).astype(np.complex128)
    return np.einsum("...ij,...jbic->...bc", t, _legs(x, na, nb), optimize=True)


def slice_left_value(t_psi, x, na: int, nb: int) -> np.ndarray:
    """L_psi(x): contract the B leg, a (x) b -> trace(t_psi b) a; stacks
    broadcast as in ``slice_right_value``."""
    t = as_arrays(t_psi).astype(np.complex128)
    return np.einsum("...bj,...ajcb->...ac", t, _legs(x, na, nb), optimize=True)


@dataclass(frozen=True, eq=False)
class TensorAlgebra:
    """Kronecker-product presentation of a minimal tensor product."""

    a: StarAlgebra
    b: StarAlgebra

    @cached_property
    def span(self) -> tuple:
        """A linearly independent spanning set of Kronecker products,
        chosen greedily in the order of the factors' spans."""
        prods = [kron(x, y) for x in self.a.span for y in self.b.span]
        target = len(complex_orth_basis(prods, prods[0].shape))
        keep: list[np.ndarray] = []
        for p in prods:
            if len(complex_orth_basis(keep + [p], p.shape)) > len(keep):
                keep.append(p)
                if len(keep) == target:
                    break
        return tuple(keep)

    @property
    def na(self) -> int:
        return self.a.n

    @property
    def nb(self) -> int:
        return self.b.n

    @property
    def n(self) -> int:
        return self.a.n * self.b.n

    def complex_dim(self) -> int:
        return len(complex_orth_basis(self.span, (self.n, self.n)))


def min_tensor(a: StarAlgebra, b: StarAlgebra) -> TensorAlgebra:
    """Spatial tensor product of two matrix algebras; its pruned
    spanning set is computed on first use of ``span``."""
    return TensorAlgebra(a, b)


def slice_right_map(phi: TraceWitness, t: TensorAlgebra) -> LinearMapMat:
    """R_phi as a complex-linear map M_{na nb} -> M_nb."""
    na, nb = t.na, t.nb
    return LinearMapMat.from_function(
        lambda x: slice_right_value(phi.gram, x, na, nb), na * nb, COMPLEX)


def slice_left_map(psi: TraceWitness, t: TensorAlgebra) -> LinearMapMat:
    """L_psi as a complex-linear map M_{na nb} -> M_na."""
    na, nb = t.na, t.nb
    return LinearMapMat.from_function(
        lambda x: slice_left_value(psi.gram, x, na, nb), na * nb, COMPLEX)


@dataclass(frozen=True, eq=False)
class IdealPresentation:
    """An ideal of a block-diagonal algebra, given by block indices.

    The quotient map is realized as extraction of the complementary
    principal blocks, a *-homomorphism whose kernel is exactly the ideal
    summand.
    """

    b: StarAlgebra
    blocks: tuple            # ((start, size), ...)
    ideal_blocks: tuple      # indices into blocks

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(tuple(bl) for bl in self.blocks))
        object.__setattr__(self, "ideal_blocks",
                           tuple(int(i) for i in self.ideal_blocks))
        for i in self.ideal_blocks:
            if not (0 <= i < len(self.blocks)):
                raise ValueError(f"ideal block index {i} out of range")

    @classmethod
    def from_block_algebra(cls, b: StarAlgebra, ideal_blocks) -> "IdealPresentation":
        return cls(b, detect_blocks(b.span, b.n), tuple(ideal_blocks))

    @property
    def quotient_indices(self) -> list[int]:
        idx = []
        for bi, (start, size) in enumerate(self.blocks):
            if bi not in self.ideal_blocks:
                idx.extend(range(start, start + size))
        return idx

    @property
    def quotient_dim(self) -> int:
        return len(self.quotient_indices)

    def ideal_span(self) -> list[np.ndarray]:
        """Matrix units spanning the ideal summand, embedded in M_n."""
        out = []
        for bi in self.ideal_blocks:
            start, size = self.blocks[bi]
            out += matrix_units(size, self.b.n, start)
        return out

    def quotient_apply(self, x) -> np.ndarray:
        """pi(x), on one matrix or on a stack."""
        idx = self.quotient_indices
        return as_arrays(x)[..., idx, :][..., idx]

    def validate(self, tol: float = 1e-9) -> None:
        """Two-sided ideal closure and pi annihilating the ideal."""
        ideal = self.ideal_span()
        if not ideal:
            return
        x = np.stack(ideal)
        amb = orth_rows(realify(np.concatenate([x, 1j * x])))
        s = np.stack(self.b.span)
        for b in batches(len(s), 2 * x.size):
            # Products in the order s_i x_j, x_j s_i, by i then j.
            si = s[b, None]
            prods = np.stack([si @ x[None], x[None] @ si], axis=2).reshape(-1, self.b.n, self.b.n)
            rows = realify(prods)[np.linalg.norm(prods, 2, axis=(1, 2)) > tol]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            resid = np.linalg.norm(rows - rows @ amb.T @ amb, axis=1)
            bad = resid[resid > tol]
            if bad.size:
                raise ValueError(f"ideal span is not two-sided: residual {bad[0]:.3e}")
        if np.any(np.linalg.norm(self.quotient_apply(x), 2, axis=(1, 2)) > tol):
            raise ValueError("quotient does not annihilate the ideal")


def detect_blocks(span, n: int, tol: float = 1e-12) -> tuple:
    """Finest contiguous block partition supporting every span matrix."""
    support = np.zeros((n, n), dtype=bool)
    for m in span:
        support |= np.abs(as_array(m)) > tol
    support |= support.T
    blocks = []
    start = 0
    while start < n:
        end = start
        reach = start
        while end <= reach:
            nz = np.nonzero(support[end])[0]
            if nz.size:
                reach = max(reach, int(nz.max()))
            end += 1
        blocks.append((start, end - start))
        start = end
    return tuple(blocks)


# -- spans entering the Fubini and exactness checks -----------------------


def tensor_span_rows(a_leg, b_leg, complex_scalars: bool) -> np.ndarray:
    """Orthonormal real rows of span_R{a (x) b: a in a_leg, b in b_leg}.

    ``complex_scalars`` adds i(a (x) b), i.e. closes the span under
    multiplication by i (which for a complex b_leg it already is).
    """
    a, b = np.stack(a_leg), np.stack(b_leg)
    n = a.shape[1] * b.shape[1]
    # Entry (x, y, i, k, j, l) is a_x[i, j] b_y[k, l]: the products np.kron forms.
    prods = (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(-1, n, n)
    if complex_scalars:
        prods = np.stack([prods, 1j * prods], axis=1).reshape(-1, n, n)
    return orth_rows(realify(prods))


@dataclass(frozen=True, eq=False)
class FubiniResult:
    rows: np.ndarray         # orthonormal real rows spanning the product
    dim: int
    shape: tuple[int, int]
    phi_field: str
    psi_field: str


def fubini(a1, b1, t: TensorAlgebra, anti: AntiAutomorphism | None = None,
           phi_field: str = REAL, psi_field: str = REAL,
           working_rows: np.ndarray | None = None) -> FubiniResult:
    """Elements of the working span all of whose right slices land in
    span_R(b1) and left slices in span_R(a1).

    ``a1`` and ``b1`` are spanning sets of real subspaces (pass m and im
    together to describe a complex subspace).  The right slices range
    over the coordinate functionals of the A leg (the real form of
    ``anti`` when given, else the complex span of the A factor); the left
    slices over the real coordinate functionals of span(B).  Choosing
    ``phi_field``/``psi_field`` = "C" doubles the family with i times
    each functional.  Degenerate (empty) working spans are rejected.
    """
    na, nb = t.na, t.nb
    a_leg = real_form_basis(anti) if anti is not None else list(t.a.span)
    if working_rows is None:
        working_rows = tensor_span_rows(a_leg, list(t.b.span), complex_scalars=True)
    if working_rows.shape[0] == 0:
        raise ValueError("degenerate working span")

    b1 = list(b1)
    a1 = list(a1)
    b1_rows = orth_rows(realify(b1)) if b1 else np.zeros((0, 2 * nb * nb))
    a1_rows = orth_rows(realify(a1)) if a1 else np.zeros((0, 2 * na * na))

    a_duals = np.stack(a_leg).conj().transpose(0, 2, 1)
    if phi_field == COMPLEX:
        a_duals = np.concatenate([a_duals, 1j * a_duals])
    b_dual_grams = np.stack(complex_orth_basis(t.b.span, (nb, nb))).conj().transpose(0, 2, 1)

    k = working_rows.shape[0]
    working = unrealify(working_rows, (k, na * nb, na * nb))
    right = slice_right_value(a_duals[:, None], working, na, nb)    # functional x row
    left = slice_left_value(b_dual_grams[:, None], working, na, nb)
    if psi_field == REAL and anti is not None:
        # A real-valued psi is the real or imaginary part of a
        # complex contraction; on a span with A legs in the real
        # form those parts are the real-form split of the complex
        # slice, so constrain both components.
        left = np.stack(real_decompose(anti, left), axis=1)
    elif psi_field == COMPLEX:
        # Complex-valued psi: the slice and i times it must both
        # land in the (real) target span.
        left = np.stack([left, 1j * left], axis=1)

    def _constraints(vals: np.ndarray, target_rows: np.ndarray) -> np.ndarray:
        """Per functional, the residuals of its k slices (vals: (..., k, n, n))
        against the target span, one column per working row."""
        vecs = realify(vals.reshape(-1, *vals.shape[-2:]))
        if target_rows.shape[0]:
            vecs = vecs - vecs @ target_rows.T @ target_rows
        return vecs.reshape(-1, k, vecs.shape[1]).transpose(0, 2, 1).reshape(-1, k)

    stacked = np.vstack([_constraints(right, b1_rows), _constraints(left, a1_rows)])
    coeff_rows = kernel_rows(stacked)
    rows = orth_rows(coeff_rows @ working_rows)
    return FubiniResult(rows, rows.shape[0], (na * nb, na * nb),
                        phi_field, psi_field)


@dataclass(frozen=True, eq=False)
class KernelCheck:
    kernel_dim: int
    span_dim: int
    principal_angle: float
    containment_kernel_in_span: float
    containment_span_in_kernel: float
    match: bool

    def to_json(self) -> dict:
        return {
            "kernel_dim": self.kernel_dim,
            "span_dim": self.span_dim,
            "principal_angle": self.principal_angle,
            "containment_kernel_in_span": self.containment_kernel_in_span,
            "containment_span_in_kernel": self.containment_span_in_kernel,
            "match": self.match,
        }


def quotient_kernel_rows(working_rows: np.ndarray, pres: IdealPresentation,
                         na: int, nb: int) -> np.ndarray:
    """ker(id (x) pi) inside the working span, as orthonormal real rows."""
    qi = pres.quotient_indices
    x = unrealify(working_rows, (-1, na, nb, na, nb))
    imat = realify(x[:, :, qi][:, :, :, :, qi])  # row r = image of basis row r
    coeff = kernel_rows(imat.T)                 # combos mapping to zero
    return orth_rows(coeff @ working_rows)


def _compare(kernel: np.ndarray, span: np.ndarray, angle_tol: float) -> KernelCheck:
    eq, ang = subspaces_equal(kernel, span, angle_tol)
    return KernelCheck(
        kernel_dim=int(kernel.shape[0]),
        span_dim=int(span.shape[0]),
        principal_angle=float(ang),
        containment_kernel_in_span=float(containment_residual(kernel, span)),
        containment_span_in_kernel=float(containment_residual(span, kernel)),
        match=bool(eq),
    )


@dataclass(frozen=True, eq=False)
class ExactnessReport:
    real_kernel: KernelCheck
    complex_kernel: KernelCheck
    fubini_real: KernelCheck
    fubini_complex: KernelCheck
    decomposition_dims: dict
    dual_field_choice: dict
    ok: bool

    def to_json(self) -> dict:
        return {
            "real_kernel": self.real_kernel.to_json(),
            "complex_kernel": self.complex_kernel.to_json(),
            "fubini_real": self.fubini_real.to_json(),
            "fubini_complex": self.fubini_complex.to_json(),
            "decomposition": self.decomposition_dims,
            "dual_field_choice": self.dual_field_choice,
            "ok": self.ok,
        }


def _real_leg(a: StarAlgebra, anti: AntiAutomorphism, pres: IdealPresentation,
              angle_tol: float):
    """Setup shared by the exactness and Fubini checks, ending with the
    Fubini check itself.

    After validating the inputs, returns the tensor algebra A (x) B, the
    ideal's matrix units, the real-form basis, the working rows
    span(real form (x) B), the rows span(real form (x) ideal), and the
    comparison of fubini(real form, ideal) with those rows.
    """
    pres.validate()
    if anti.dim != a.n:
        raise ValueError("antiautomorphism dimension does not match the algebra")
    t = min_tensor(a, pres.b)
    ideal = pres.ideal_span()
    form_basis = real_form_basis(anti)
    rows = tensor_span_rows(form_basis, list(pres.b.span), complex_scalars=True)
    ideal_rows = tensor_span_rows(form_basis, ideal, complex_scalars=True) \
        if ideal else np.zeros((0, rows.shape[1]))
    fub = fubini(form_basis, ideal + [1j * e for e in ideal], t, anti=anti,
                 phi_field=REAL, psi_field=REAL, working_rows=rows)
    return t, ideal, form_basis, rows, ideal_rows, _compare(fub.rows, ideal_rows, angle_tol)


def exactness_check(a: StarAlgebra, anti: AntiAutomorphism,
                    pres: IdealPresentation, angle_tol: float = 1e-6
                    ) -> ExactnessReport:
    """Kernel identities for the quotient sequence tensored with A and
    with its real form.

    Checks ker(id (x) pi) = span(A_leg (x) I) for the real-form leg and
    the complex leg, the matching Fubini-product identities, and that the
    real-form part plus i times it rebuilds the whole tensor span.
    """
    t, ideal, form_basis, real_rows, real_span_ideal, fub_real_check = \
        _real_leg(a, anti, pres, angle_tol)
    na, nb = t.na, t.nb
    ideal_cx = ideal + [1j * e for e in ideal]

    complex_rows = tensor_span_rows(list(a.span), list(pres.b.span), complex_scalars=True)
    complex_span_ideal = tensor_span_rows(list(a.span), ideal, complex_scalars=True) \
        if ideal else np.zeros((0, real_rows.shape[1]))

    real_check = _compare(quotient_kernel_rows(real_rows, pres, na, nb),
                          real_span_ideal, angle_tol)
    complex_check = _compare(quotient_kernel_rows(complex_rows, pres, na, nb),
                             complex_span_ideal, angle_tol)

    a_span_cx = list(a.span) + [1j * m for m in a.span]
    fub_complex = fubini(a_span_cx, ideal_cx, t, anti=None,
                         phi_field=COMPLEX, psi_field=REAL,
                         working_rows=complex_rows)
    fub_complex_check = _compare(fub_complex.rows, complex_span_ideal, angle_tol)

    i_rows = tensor_span_rows([1j * g for g in form_basis], list(pres.b.span),
                              complex_scalars=True)
    stacked = orth_rows(np.vstack([real_rows, i_rows]))
    decomposition = {
        "real_part_dim": int(real_rows.shape[0]),
        "imag_part_dim": int(i_rows.shape[0]),
        "sum_dim": int(stacked.shape[0]),
        "tensor_dim": int(complex_rows.shape[0]),
        "spans_everything": bool(
            stacked.shape[0] == complex_rows.shape[0]
            and max_principal_angle(stacked, complex_rows) <= angle_tol),
    }

    ok = (real_check.match and complex_check.match and fub_real_check.match
          and fub_complex_check.match and decomposition["spans_everything"])
    return ExactnessReport(
        real_check, complex_check, fub_real_check, fub_complex_check,
        decomposition,
        {"phi_field": "either", "psi_field": "R"},
        ok,
    )


def fubini_check(a: StarAlgebra, anti: AntiAutomorphism,
                 pres: IdealPresentation, angle_tol: float = 1e-6
                 ) -> KernelCheck:
    """Compare fubini(real form, ideal) with span(real form (x) ideal)."""
    return _real_leg(a, anti, pres, angle_tol)[-1]


def decompose_tensor(x, anti: AntiAutomorphism, t: TensorAlgebra,
                     tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Split x in A (x) B into real-form-leg and i real-form-leg parts.

    Expands x over a fixed orthonormal basis of the complex span of the B
    factor, applies the real-form split to each A-leg coefficient, and
    reassembles.  The parts recombine to x up to roundoff, and the split
    is idempotent for the fixed basis.
    """
    na, nb = t.na, t.nb
    a = as_array(x).astype(np.complex128)
    if a.shape != (na * nb, na * nb):
        raise ValueError(f"expected a {na * nb}x{na * nb} matrix, got {a.shape}")
    bbasis = np.stack(complex_orth_basis(t.b.span, (nb, nb)))
    y = slice_left_value(bbasis.conj().transpose(0, 2, 1), a, na, nb)
    r, s = real_decompose(anti, y)

    def _reassemble(coeff: np.ndarray) -> np.ndarray:
        """sum_q coeff_q (x) beta_q."""
        return np.einsum("qac,qbd->abcd", coeff, bbasis).reshape(na * nb, na * nb)

    if op_norm(a - _reassemble(y)) > tol * (1.0 + op_norm(a)):
        raise ValueError("input is outside the tensor span")
    return _reassemble(r), _reassemble(1j * s)
