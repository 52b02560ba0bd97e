"""Involutory *-antiautomorphisms and the real forms they carve out.

An antiautomorphism is parameterized as ``Phi(x) = u x^T u*`` with a
unitary ``u`` satisfying ``u^T = +-u``; that family is closed under the
required axioms (antimultiplicative, *-compatible, involutive) and keeps
everything exactly computable.  The real form it defines is the set of
``x`` with ``Phi(x) = x*``; every matrix splits as ``x = r + i s`` with
both parts in the real form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix import (DEFAULT_TOL, as_array, as_arrays, batches, doubled_units,
                     matrix_units, op_norm, worst_op_norm)
from .subspace import (RANK_TOL, complex_orth_basis, containment_residual, orth_rows,
                       realify, unrealify)

ANTI_TOL = 1e-10    # the largest defect of u that AntiAutomorphism accepts


def _u_defects(u: np.ndarray) -> tuple[float, float]:
    """||u*u - I|| and min ||u^T -+ u||; Phi is an involutory
    *-antiautomorphism when both are at most ANTI_TOL."""
    unit, minus, plus = op_norm(np.stack([u.conj().T @ u - np.eye(len(u)), u.T - u, u.T + u]))
    return float(unit), float(min(minus, plus))


@dataclass(frozen=True, eq=False)
class AntiAutomorphism:
    """The map Phi(x) = u x^T u* for a fixed unitary u with u^T = +-u."""

    u: np.ndarray
    validate: bool = True

    def __post_init__(self) -> None:
        u = as_array(self.u).astype(np.complex128)
        if u.shape[0] != u.shape[1]:
            raise ValueError(f"u must be square, got shape {u.shape}")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if self.validate:
            unit, sym = _u_defects(u)
            if unit > ANTI_TOL:
                raise ValueError(f"u is not unitary: ||u*u - I|| = {unit:.3e}")
            if sym > ANTI_TOL:
                raise ValueError(f"u^T must equal +-u for an involution: defect {sym:.3e}")

    @classmethod
    def transpose(cls, n: int) -> "AntiAutomorphism":
        """The default Phi = transpose, whose real form is M_n(R); the
        identity is unitary and symmetric, so it is not validated."""
        return cls(np.eye(n), validate=False)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def is_transpose(self) -> bool:
        return bool(np.array_equal(self.u, np.eye(self.dim)))

    def apply(self, x) -> np.ndarray:
        """Phi(x) = u x^T u*, on one matrix or on a stack of shape (k, n, n)."""
        a = as_arrays(x)
        if a.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {a.shape}")
        return self.u @ np.swapaxes(a, -1, -2) @ self.u.conj().T


def conj_phi(anti: AntiAutomorphism, x) -> np.ndarray:
    """The conjugation Phi(x*): real-linear, multiplicative, involutive.

    Fixes the real form pointwise; for Phi = transpose it is entrywise
    complex conjugation.  Takes one matrix or a stack.
    """
    a = as_arrays(x)
    return anti.apply(np.swapaxes(a.conj(), -1, -2))


def real_decompose(anti: AntiAutomorphism, x) -> tuple[np.ndarray, np.ndarray]:
    """Split x = r + i s with r, s in the real form (one matrix or a stack)."""
    a = as_arrays(x).astype(np.complex128)
    c = conj_phi(anti, a)
    r = (a + c) / 2.0
    s = (a - c) / 2.0j
    return r, s


def real_form_residual(anti: AntiAutomorphism, x):
    """||Phi(x) - x*||, zero iff x lies in the real form: a float for one
    matrix, an array of shape (...) for a stack."""
    a = as_arrays(x)
    return op_norm(anti.apply(a) - np.swapaxes(a.conj(), -1, -2))


def real_form_basis(anti: AntiAutomorphism) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt, over R) basis of the real form, as a stack.

    For the transpose antiautomorphism this is exactly the real matrix
    units.  In general the real form is the fixed space of the
    conjugation x -> Phi(x*), an orthogonal real-linear involution, so
    the basis comes from the range of the averaging projection.
    """
    n = anti.dim
    if anti.is_transpose:
        return matrix_units(n)
    # In realified coordinates the doubled units are the standard basis,
    # so column k of the projection is the image of the k-th unit.
    units = doubled_units(n)
    proj = realify((units + conj_phi(anti, units)) / 2.0).T
    w, vecs = np.linalg.eigh(proj)
    return unrealify(vecs[:, w > 0.5].T, (-1, n, n))


def check_antiautomorphism(anti: AntiAutomorphism) -> dict:
    """The exact defects of u, with ``ok`` decided as the constructor decides.

    For Phi(x) = u x^T u*, Phi(x*) = Phi(x)* holds for every u, and
    Phi(xy) - Phi(y)Phi(x) = u y^T (I - u*u) x^T u* vanishes iff u*u = I;
    given that, Phi(Phi(x)) = x iff u^T = +-u.  An invalid u, built with
    ``AntiAutomorphism(u, validate=False)``, gets a report instead of an
    exception.
    """
    unit, sym = _u_defects(anti.u)
    return {"unitary_defect": unit, "symmetry_defect": sym,
            "ok": unit <= ANTI_TOL and sym <= ANTI_TOL}


def detect_blocks(span, n: int) -> tuple:
    """Finest contiguous block partition supporting every span matrix
    (entries above 1e-12 times the largest one, whatever the scale): a
    block ends at row r when no row up to r has support past column r."""
    peak = np.abs(np.asarray(span)).max(axis=0, initial=0.0)
    support = peak > 1e-12 * peak.max(initial=0.0)
    support = support | support.T
    np.fill_diagonal(support, True)
    reach = np.maximum.accumulate(n - 1 - np.argmax(support[:, ::-1], axis=1))
    ends = (np.flatnonzero(reach == np.arange(n)) + 1).tolist()
    return tuple((s, e - s) for s, e in zip([0, *ends], ends))


@dataclass(frozen=True, eq=False)
class StarAlgebra:
    """A unital *-closed subalgebra of M_n(C) given by spanning matrices.

    A span that is all of a block algebra (``is_block_full``) is accepted
    from its structure; any other span is validated by projecting every
    adjoint and product of its frame onto the frame.  Frame elements have
    unit norm, so every validation residual is relative to the span's scale.
    """

    n: int
    span: np.ndarray    # read-only complex stack (k, n, n); built from any same-shaped sequence
    unital: bool = True
    validate: bool = True

    def __post_init__(self) -> None:
        span = np.array(self.span, dtype=np.complex128)
        if not len(span):
            raise ValueError("span must be nonempty")
        if span.shape[1:] != (self.n, self.n):
            raise ValueError(f"span matrix has shape {span.shape[1:]}, expected ({self.n},{self.n})")
        if not np.isfinite(span).all():
            raise ValueError("span matrix has a non-finite entry")
        if not span.any():
            raise ValueError("span is zero")
        span.setflags(write=False)
        object.__setattr__(self, "span", span)
        if self.validate and not self.is_block_full:
            bad = self._closure_defect()
            if bad > DEFAULT_TOL:
                raise ValueError(f"span is not closed under product/adjoint: residual {bad:.3e}")
            if self.unital and self.contains_residual(np.eye(self.n)) > DEFAULT_TOL:
                raise ValueError("unital algebra must contain the identity")

    @cached_property
    def frame(self) -> np.ndarray:
        """Orthonormal (Hilbert-Schmidt) basis of the span, shape (d, n, n)."""
        frame = complex_orth_basis(self.span)
        frame.setflags(write=False)
        return frame

    @cached_property
    def blocks(self) -> tuple:
        """``detect_blocks``' partition of the span, ((start, size), ...)."""
        return detect_blocks(self.span, self.n)

    @cached_property
    def is_block_full(self) -> bool:
        """Whether the span is all of the block algebra (+) M_size over
        ``blocks``: every entry outside the blocks is exactly 0, and the
        frame has sum size^2 elements.  Such a span is a unital
        *-algebra, and any union of its blocks is a two-sided ideal."""
        sizes = [size for _, size in self.blocks]
        label = np.repeat(np.arange(len(sizes)), sizes)
        return (not np.any(self.span[:, label[:, None] != label[None, :]])
                and len(self.frame) == sum(size * size for size in sizes))

    def _residuals(self, xs: np.ndarray) -> np.ndarray:
        """Least-squares residual matrices of a stack against the span."""
        flat = xs.reshape(len(xs), -1)
        rows = self.frame.reshape(len(self.frame), self.n * self.n)
        rec = flat @ rows.conj().T @ rows
        return xs - rec.reshape(xs.shape)

    def contains_residual(self, x) -> float:
        """Least-squares residual of x against the span (op norm)."""
        return float(op_norm(self._residuals(as_array(x).astype(np.complex128)[None]))[0])

    def worst_residual(self, xs: np.ndarray) -> float:
        """The largest residual (op norm) of a stack against the span if it
        exceeds DEFAULT_TOL, else 0.0."""
        return worst_op_norm(self._residuals(xs))

    def _closure_defect(self) -> float:
        """The largest residual of an adjoint or a product of frame
        elements if it exceeds DEFAULT_TOL, else 0.0."""
        f = self.frame
        worst = self.worst_residual(f.conj().transpose(0, 2, 1))
        for b in batches(len(f), f.size):    # all products f_i f_j
            prods = (f[b, None] @ f[None]).reshape(-1, self.n, self.n)
            worst = max(worst, self.worst_residual(prods))
        return worst


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
