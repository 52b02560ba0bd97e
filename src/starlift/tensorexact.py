"""Minimal tensor products, slice maps, Fubini products, exactness checks.

Finite-dimensional algebras are presented on matrices, so the minimal
tensor product is just the Kronecker-product presentation.  Slice maps
are partial-trace contractions against a functional's Gram matrix.  The
Fubini product is computed as the kernel of a stacked linear system of
slice-membership constraints, over R throughout, because real-form legs
are only real-linear subspaces of the complex tensor algebra.  Ideals
are block summands (every closed ideal of a finite-dimensional
C*-algebra is one), which keeps the quotient map exactly computable.

Frame contract: every tensor span is built from two leg frames, stacks
of matrices whose Hermitian Gram matrix tr(x* y) is the identity.  Since
<a (x) b, a' (x) b'> = <a, a'><b, b'>, their Kronecker products and the
i-multiples of those are orthonormal real rows as they stand, so no span
of products is ever orthonormalized.  The frames are A's real form
(``real_frame``; tr(x* y) = tr(Phi(x) y) is real there), the ideal's
matrix units, and each factor's ``StarAlgebra.frame``.  ``tensor_span_rows``
checks the contract and raises on a leg that breaks it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .matrix import DEFAULT_TOL, as_array, as_arrays, batches, matrix_units, op_norm
from .realform import AntiAutomorphism, StarAlgebra, real_form_basis
from .subspace import (RANK_TOL, containment_residual, kernel_rows, orth_rows,
                       realify, subspaces_equal, unrealify)


def slice_right_value(t_phi, x, na: int, nb: int) -> np.ndarray:
    """R_phi(x): contract the A leg of x in M_na (x) M_nb against t_phi,
    so a (x) b -> trace(t_phi a) b.  Stacks of functionals (..., na, na)
    and of matrices (..., na*nb, na*nb) broadcast against each other."""
    t = as_arrays(t_phi).astype(np.complex128)
    x = as_arrays(x).astype(np.complex128)
    legs = x.reshape(x.shape[:-2] + (na, nb, na, nb))
    return np.einsum("...ij,...jbic->...bc", t, legs, optimize=True)


def real_frame(a: StarAlgebra, anti: AntiAutomorphism) -> np.ndarray:
    """A's real form {x in A: Phi(x) = x*} as a frame: the real form of
    M_n projected onto A's realified frame.

    The projection is A's real form only when Phi(A) lies in A, so a
    containment residual above ``RANK_TOL`` raises ValueError.
    """
    fa = a.frame
    amb = realify(np.concatenate([fa, 1j * fa]))
    resid = containment_residual(realify(anti.apply(fa)), amb)
    if resid > RANK_TOL:
        raise ValueError("the algebra is not invariant under the "
                         f"antiautomorphism: residual {resid:.3e}")
    rows = orth_rows(realify(real_form_basis(anti)) @ amb.T @ amb)
    return unrealify(rows, (-1, a.n, a.n))


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
        # A repeated index names its block once, so the ideal's units stay a frame.
        object.__setattr__(self, "ideal_blocks",
                           tuple(dict.fromkeys(int(i) for i in self.ideal_blocks)))
        for i in self.ideal_blocks:
            if not (0 <= i < len(self.blocks)):
                raise ValueError(f"ideal block index {i} out of range")

    @classmethod
    def from_block_algebra(cls, b: StarAlgebra, ideal_blocks) -> "IdealPresentation":
        """The ideal of B made of the named blocks, each of which must lie in B."""
        pres = cls(b, detect_blocks(b.span, b.n), tuple(ideal_blocks))
        for i in pres.ideal_blocks:
            start, size = pres.blocks[i]
            resid = b._residuals(np.stack(matrix_units(size, b.n, start))).max()
            if resid > DEFAULT_TOL:
                raise ValueError(f"ideal block {i} does not lie in B: residual {resid:.3e}")
        return pres

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

    def validate(self) -> None:
        """Two-sided ideal closure and pi annihilating the ideal, to 1e-9."""
        tol = 1e-9
        ideal = self.ideal_span()
        if not ideal:
            return
        x = np.stack(ideal)
        # Realified units and i-units are standard basis vectors: a frame.
        amb = realify(np.concatenate([x, 1j * x]))
        s = np.stack(self.b.span)
        for b in batches(len(s), 2 * x.size):
            # Products in the order s_i x_j, x_j s_i, by i then j.
            si = s[b, None]
            prods = np.stack([si @ x[None], x[None] @ si], axis=2).reshape(-1, self.b.n, self.b.n)
            rows = realify(prods)[op_norm(prods) > tol]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            resid = np.linalg.norm(rows - rows @ amb.T @ amb, axis=1)
            bad = resid[resid > tol]
            if bad.size:
                raise ValueError(f"ideal span is not two-sided: residual {bad[0]:.3e}")
        if np.any(op_norm(self.quotient_apply(x)) > tol):
            raise ValueError("quotient does not annihilate the ideal")


def detect_blocks(span, n: int) -> tuple:
    """Finest contiguous block partition supporting every span matrix
    (entries above 1e-12)."""
    support = np.zeros((n, n), dtype=bool)
    for m in span:
        support |= np.abs(as_array(m)) > 1e-12
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


def tensor_span_rows(a_leg, b_leg) -> np.ndarray:
    """Orthonormal real rows of span_C{a (x) b: a in a_leg, b in b_leg}:
    each product, then i times it.

    Both legs must be frames (Hermitian Gram matrix I within
    ``RANK_TOL``); a leg that is not raises ValueError.  An empty leg,
    given as an array of no matrices, spans the zero subspace.
    """
    a, b = np.asarray(a_leg), np.asarray(b_leg)
    for leg in (a, b):
        flat = leg.reshape(len(leg), leg.shape[1] ** 2)
        dev = np.max(np.abs(flat.conj() @ flat.T - np.eye(len(leg))), initial=0.0)
        if dev > RANK_TOL:
            raise ValueError(f"tensor leg is not orthonormal: Gram deviation {dev:.3e}")
    n = a.shape[1] * b.shape[1]
    # Entry (x, y, i, k, j, l) is a_x[i, j] b_y[k, l]: the products np.kron forms.
    prods = (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(-1, n, n)
    return realify(np.stack([prods, 1j * prods], axis=1).reshape(-1, n, n))


def fubini(a_leg, b_leg, ideal) -> np.ndarray:
    """Orthonormal real rows of the elements of span_C(a_leg (x) b_leg)
    whose right slices against a_leg's dual functionals all lie in the
    complex span of ``ideal``.

    ``a_leg`` and ``b_leg`` are frames, and ``ideal`` is matrix units of
    B.  Only right slices are constrained: the left slice of a (x) b is
    a multiple of a, in the A leg's span for every working row.  The
    functionals need not be doubled by i either, as the target span is
    closed under multiplication by i.
    """
    working_rows = tensor_span_rows(a_leg, b_leg)
    a = np.asarray(a_leg)
    na, nb = a.shape[1], np.shape(b_leg)[1]
    ideal = np.reshape(ideal, (-1, nb, nb))
    # Realified units and i-units are standard basis vectors: a frame.
    target = realify(np.concatenate([ideal, 1j * ideal]))
    k = working_rows.shape[0]
    working = unrealify(working_rows, (k, na * nb, na * nb))
    right = slice_right_value(a.conj().transpose(0, 2, 1)[:, None], working, na, nb)
    vecs = realify(right.reshape(-1, nb, nb))
    vecs = vecs - vecs @ target.T @ target
    # One column per working row; orthonormal kernel rows times
    # orthonormal working rows are orthonormal.
    constraints = vecs.reshape(-1, k, vecs.shape[1]).transpose(0, 2, 1).reshape(-1, k)
    return kernel_rows(constraints) @ working_rows


@dataclass(frozen=True, eq=False)
class KernelCheck:
    kernel_dim: int
    span_dim: int
    principal_angle: float
    containment_kernel_in_span: float
    containment_span_in_kernel: float
    match: bool

    def to_json(self) -> dict:
        return asdict(self)


def quotient_kernel_rows(working_rows: np.ndarray, pres: IdealPresentation,
                         na: int, nb: int) -> np.ndarray:
    """ker(id (x) pi) inside the span of the orthonormal ``working_rows``,
    as orthonormal real rows."""
    qi = pres.quotient_indices
    x = unrealify(working_rows, (-1, na, nb, na, nb))
    imat = realify(x[:, :, qi][:, :, :, :, qi])  # row r = image of basis row r
    return kernel_rows(imat.T) @ working_rows   # combos mapping to zero


def _compare(kernel: np.ndarray, span: np.ndarray) -> KernelCheck:
    eq, ang = subspaces_equal(kernel, span)
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
    decomposition: dict
    dual_field_choice: dict
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def _frames(a: StarAlgebra, anti: AntiAutomorphism, pres: IdealPresentation):
    """Validated inputs of the exactness and Fubini checks as legs:
    (A's real form as a frame, B's frame, the ideal's matrix units)."""
    pres.validate()
    if anti.dim != a.n:
        raise ValueError("antiautomorphism dimension does not match the algebra")
    nb = pres.b.n
    return real_frame(a, anti), pres.b.frame, np.reshape(pres.ideal_span(), (-1, nb, nb))


def exactness_check(a: StarAlgebra, anti: AntiAutomorphism,
                    pres: IdealPresentation) -> ExactnessReport:
    """Kernel identities for the quotient sequence tensored with A and
    with its real form.

    Checks ker(id (x) pi) = span(A_leg (x) I) for the real-form leg and
    the complex leg, the matching Fubini-product identities, and that the
    real-form part plus i times it rebuilds the whole tensor span.
    """
    form, b_frame, ideal = _frames(a, anti, pres)
    na, nb = a.n, pres.b.n
    real_rows = tensor_span_rows(form, b_frame)
    complex_rows = tensor_span_rows(a.frame, b_frame)
    real_span_ideal = tensor_span_rows(form, ideal)
    complex_span_ideal = tensor_span_rows(a.frame, ideal)

    real_check = _compare(quotient_kernel_rows(real_rows, pres, na, nb), real_span_ideal)
    complex_check = _compare(quotient_kernel_rows(complex_rows, pres, na, nb),
                             complex_span_ideal)
    fub_real_check = _compare(fubini(form, b_frame, ideal), real_span_ideal)
    fub_complex_check = _compare(fubini(a.frame, b_frame, ideal), complex_span_ideal)

    # real_rows hold the i-multiples of their products, so i times the
    # real-form part spans the same rows and their sum is real_rows again.
    real_dim = int(real_rows.shape[0])
    decomposition = {
        "real_part_dim": real_dim,
        "imag_part_dim": real_dim,
        "sum_dim": real_dim,
        "tensor_dim": int(complex_rows.shape[0]),
        "spans_everything": bool(subspaces_equal(real_rows, complex_rows)[0]),
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
                 pres: IdealPresentation) -> KernelCheck:
    """Compare fubini(A's real form, B, ideal) with span(A's real form (x) ideal)."""
    form, b_frame, ideal = _frames(a, anti, pres)
    return _compare(fubini(form, b_frame, ideal), tensor_span_rows(form, ideal))
