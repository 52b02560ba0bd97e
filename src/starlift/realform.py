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
                     matrix_units, op_norm)
from .sampling import random_matrix, rng_from
from .subspace import realify, unrealify


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
            unit = op_norm(u.conj().T @ u - np.eye(u.shape[0]))
            if unit > 1e-10:
                raise ValueError(f"u is not unitary: ||u*u - I|| = {unit:.3e}")
            sym = min(op_norm(u.T - u), op_norm(u.T + u))
            if sym > 1e-10:
                raise ValueError(
                    f"u^T must equal +-u for an involution: defect {sym:.3e}"
                )

    @classmethod
    def transpose(cls, n: int) -> "AntiAutomorphism":
        """The default Phi = transpose, whose real form is M_n(R)."""
        return cls(np.eye(n))

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


def real_form_residual(anti: AntiAutomorphism, x) -> float:
    """||Phi(x) - x*||; zero iff x lies in the real form."""
    a = as_array(x)
    return op_norm(anti.apply(a) - a.conj().T)


def real_form_basis(anti: AntiAutomorphism) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt, over R) basis of the real form.

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
    units = np.stack(doubled_units(n))
    proj = realify((units + conj_phi(anti, units)) / 2.0).T
    w, vecs = np.linalg.eigh(proj)
    return [unrealify(v, (n, n)) for v in vecs[:, w > 0.5].T]


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Residuals from sampling the antiautomorphism axioms."""

    unitary_defect: float
    symmetry_defect: float
    antimultiplicative: float
    star_compatible: float
    involutive: float
    samples: int
    seed: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "unitary_defect": self.unitary_defect,
            "symmetry_defect": self.symmetry_defect,
            "antimultiplicative": self.antimultiplicative,
            "star_compatible": self.star_compatible,
            "involutive": self.involutive,
            "samples": self.samples,
            "seed": self.seed,
            "ok": self.ok,
        }


def check_antiautomorphism(anti_or_u, samples: int = 50, seed: int = 0,
                           tol: float = DEFAULT_TOL) -> CheckReport:
    """Sample the axioms Phi(xy)=Phi(y)Phi(x), Phi(x*)=Phi(x)*, Phi^2=id.

    Accepts either an AntiAutomorphism or a raw u matrix, so that
    invalid candidates still produce a report instead of an exception.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(anti_or_u, AntiAutomorphism):
        anti = anti_or_u
    else:
        anti = AntiAutomorphism(anti_or_u, validate=False)
    u = anti.u
    n = anti.dim
    unit = op_norm(u.conj().T @ u - np.eye(n))
    sym = min(op_norm(u.T - u), op_norm(u.T + u))
    rng = rng_from(seed)
    anti_res = star_res = inv_res = 0.0
    for _ in range(samples):
        x = random_matrix(rng, n)
        y = random_matrix(rng, n)
        anti_res = max(anti_res, op_norm(anti.apply(x @ y) - anti.apply(y) @ anti.apply(x)))
        star_res = max(star_res, op_norm(anti.apply(x.conj().T) - anti.apply(x).conj().T))
        inv_res = max(inv_res, op_norm(anti.apply(anti.apply(x)) - x))
    ok = (unit <= 1e-10 and sym <= 1e-10
          and anti_res <= tol and star_res <= tol and inv_res <= tol)
    return CheckReport(unit, sym, anti_res, star_res, inv_res, samples, int(seed), ok)


@dataclass(frozen=True, eq=False)
class StarAlgebra:
    """A unital *-closed subalgebra of M_n(C) given by spanning matrices."""

    n: int
    span: tuple
    unital: bool = True
    validate: bool = True

    def __post_init__(self) -> None:
        mats = tuple(as_array(m).astype(np.complex128) for m in self.span)
        if not mats:
            raise ValueError("span must be nonempty")
        for m in mats:
            if m.shape != (self.n, self.n):
                raise ValueError(f"span matrix has shape {m.shape}, expected ({self.n},{self.n})")
            m.setflags(write=False)
        object.__setattr__(self, "span", mats)
        if self.validate:
            bad = self._closure_defect()
            if bad > DEFAULT_TOL:
                raise ValueError(f"span is not closed under product/adjoint: residual {bad:.3e}")
            if self.unital and self.contains_residual(np.eye(self.n)) > DEFAULT_TOL:
                raise ValueError("unital algebra must contain the identity")

    @classmethod
    def full_matrix(cls, n: int) -> "StarAlgebra":
        return cls(n, tuple(matrix_units(n)), unital=True, validate=False)

    @classmethod
    def block_diagonal(cls, dims: list[int]) -> "StarAlgebra":
        """Direct sum of full matrix blocks, embedded block-diagonally."""
        n = sum(dims)
        span = []
        off = 0
        for d in dims:
            span += matrix_units(d, n, off)
            off += d
        return cls(n, tuple(span), unital=True, validate=False)

    @cached_property
    def _span_rows(self) -> np.ndarray:
        return np.stack(self.span).reshape(len(self.span), -1)

    @cached_property
    def _span_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self._span_rows.T)

    def _residuals(self, xs: np.ndarray) -> np.ndarray:
        """Least-squares residuals (op norm) of a stack against the span."""
        flat = xs.reshape(len(xs), -1)
        rec = flat @ self._span_pinv.T @ self._span_rows
        return np.linalg.norm(xs - rec.reshape(xs.shape), 2, axis=(1, 2))

    def contains_residual(self, x) -> float:
        """Least-squares residual of x against the span (op norm)."""
        return float(self._residuals(as_array(x).astype(np.complex128)[None])[0])

    def _closure_defect(self) -> float:
        s = np.stack(self.span)
        worst = self._residuals(s.conj().transpose(0, 2, 1)).max()
        for b in batches(len(s), s.size):    # all products s_i s_j
            prods = (s[b, None] @ s[None]).reshape(-1, self.n, self.n)
            worst = max(worst, self._residuals(prods).max())
        return float(worst)

    def complex_dim(self) -> int:
        return int(np.linalg.matrix_rank(self._span_rows.T, tol=1e-9))
