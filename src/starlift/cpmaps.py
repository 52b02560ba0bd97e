"""Linear maps between matrix spaces and their complete-positivity calculus.

A map is stored by its action on an explicit domain basis: the matrix
units for complex-linear maps, the doubled family {E_jl, i E_jl} for
real-linear maps on a full complex matrix space, the real matrix units
when the domain is a real matrix space, or an orthonormal basis of a
real form.  Complex-linear complete positivity is decided by the Choi
matrix; real-linear maps are probed by deterministic sampled
amplification on elements c*c together with a self-adjointness
preservation check, and violations always come with the witnessing
positive element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import (as_array, doubled_units, kron, matrix_units, op_norm,
                     positivity_defect)
from .realform import AntiAutomorphism, real_decompose, real_form_basis, real_form_residual
from .sampling import rng_from

COMPLEX = "C"
REAL = "R"


def canonical_basis(n: int, linearity: str, dom_field: str = COMPLEX) -> list[np.ndarray]:
    """The domain basis a map is tabulated and serialized on: the matrix
    units, doubled to {E_jl, i E_jl} for real-linear maps on M_n(C)."""
    if linearity == REAL and dom_field == COMPLEX:
        return doubled_units(n)
    return matrix_units(n)


@dataclass(frozen=True, eq=False)
class LinearMapMat:
    """A (real- or complex-)linear map between matrix spaces.

    ``linearity`` is "C" or "R"; ``dom_field`` says whether the domain is
    a complex matrix space ("C") or a real one ("R"); ``cod_field``
    likewise tags the codomain.  ``basis`` and ``images`` are aligned
    stacks of matrices.
    """

    dom_dim: int
    cod_dim: int
    linearity: str
    basis: np.ndarray
    images: np.ndarray
    dom_field: str = COMPLEX
    cod_field: str = COMPLEX

    def __post_init__(self) -> None:
        if self.linearity not in (COMPLEX, REAL):
            raise ValueError(f"linearity must be 'C' or 'R', got {self.linearity!r}")
        if self.linearity == COMPLEX and self.dom_field == REAL:
            raise ValueError("complex-linear maps need a complex domain")
        basis = np.asarray(self.basis, dtype=np.complex128)
        images = np.asarray(self.images, dtype=np.complex128)
        if basis.shape != (len(basis), self.dom_dim, self.dom_dim):
            raise ValueError(f"basis shape {basis.shape} does not match dom_dim {self.dom_dim}")
        if images.shape != (len(basis), self.cod_dim, self.cod_dim):
            raise ValueError(
                f"images shape {images.shape} does not match basis size {len(basis)} "
                f"and cod_dim {self.cod_dim}"
            )
        basis.setflags(write=False)
        images.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "images", images)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_function(cls, f, dom_dim: int, linearity: str = COMPLEX,
                      dom_field: str = COMPLEX, basis=None,
                      cod_field: str = COMPLEX) -> "LinearMapMat":
        """Tabulate ``f`` on the canonical (or supplied) domain basis."""
        if basis is None:
            basis = canonical_basis(dom_dim, linearity, dom_field)
        images = [as_array(f(b)).astype(np.complex128) for b in basis]
        cod_dim = images[0].shape[0]
        return cls(dom_dim, cod_dim, linearity, np.stack(basis),
                   np.stack(images), dom_field, cod_field)

    @classmethod
    def identity(cls, n: int, linearity: str = COMPLEX,
                 field: str = COMPLEX) -> "LinearMapMat":
        return cls.from_function(lambda x: x, n, linearity, dom_field=field,
                                 cod_field=field)

    @classmethod
    def on_real_form(cls, f, anti: AntiAutomorphism,
                     cod_field: str = COMPLEX) -> "LinearMapMat":
        """A real-linear map defined on the real form of ``anti``."""
        basis = real_form_basis(anti)
        return cls.from_function(f, anti.dim, REAL, dom_field=COMPLEX,
                                 basis=basis, cod_field=cod_field)

    @property
    def has_canonical_basis(self) -> bool:
        ref = canonical_basis(self.dom_dim, self.linearity, self.dom_field)
        return len(self.basis) == len(ref) and np.array_equal(self.basis, ref)

    # -- evaluation -----------------------------------------------------

    @property
    def _solver(self) -> np.ndarray:
        cached = getattr(self, "_solver_cache", None)
        if cached is None:
            if self.linearity == COMPLEX:
                cols = np.stack([b.ravel() for b in self.basis], axis=1)
            else:
                cols = np.stack(
                    [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in self.basis],
                    axis=1,
                )
            cached = np.linalg.pinv(cols)
            object.__setattr__(self, "_solver_cache", cached)
        return cached

    def coordinates(self, x) -> np.ndarray:
        """Coefficients of x in the stored basis (complex or real)."""
        a = as_array(x).astype(np.complex128)
        if a.shape != (self.dom_dim, self.dom_dim):
            raise ValueError(
                f"map expects {self.dom_dim}x{self.dom_dim} input, got {a.shape}"
            )
        if self.linearity == COMPLEX:
            return self._solver @ a.ravel()
        return self._solver @ np.concatenate([a.real.ravel(), a.imag.ravel()])

    def apply(self, x, membership_tol: float = 1e-7) -> np.ndarray:
        """Evaluate the map; rejects input outside the domain span."""
        a = as_array(x).astype(np.complex128)
        coeff = self.coordinates(a)
        rec = np.tensordot(coeff, self.basis, axes=(0, 0))
        scale = 1.0 + op_norm(a)
        res = op_norm(a - rec)
        if res > membership_tol * scale:
            raise ValueError(
                f"input is outside the map's domain span: residual {res:.3e}"
            )
        return np.tensordot(coeff, self.images, axes=(0, 0))

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def unitality_defect(self) -> float:
        one = np.eye(self.dom_dim)
        return op_norm(self.apply(one) - np.eye(self.cod_dim))


# -- structural operations ----------------------------------------------


def compose(psi: LinearMapMat, phi: LinearMapMat) -> LinearMapMat:
    """Pointwise composition psi . phi on phi's domain."""
    if phi.cod_dim != psi.dom_dim:
        raise ValueError(
            f"dimension mismatch: phi maps into {phi.cod_dim}, psi expects {psi.dom_dim}"
        )
    linearity = COMPLEX if (psi.linearity == COMPLEX and phi.linearity == COMPLEX) else REAL
    if linearity == REAL and phi.linearity == COMPLEX:
        # Rebase the complex-linear inner map on a real basis so the
        # merely real-linear composite stays well-defined.
        basis = np.stack(list(phi.basis) + [1j * b for b in phi.basis])
    else:
        basis = phi.basis
    images = np.stack([psi.apply(phi.apply(b)) for b in basis])
    return LinearMapMat(phi.dom_dim, psi.cod_dim, linearity, basis, images,
                        phi.dom_field, psi.cod_field)


def amplify(phi: LinearMapMat, k: int) -> LinearMapMat:
    """id_{M_k} (x) phi, acting blockwise on k x k block matrices."""
    if k < 1:
        raise ValueError("amplification level must be >= 1")
    if k == 1:
        return phi
    level_units = matrix_units(k)
    basis = np.stack([kron(e, b) for e in level_units for b in phi.basis])
    images = np.stack([kron(e, im) for e in level_units for im in phi.images])
    return LinearMapMat(k * phi.dom_dim, k * phi.cod_dim, phi.linearity,
                        basis, images, phi.dom_field, phi.cod_field)


def block_apply(phi: LinearMapMat, x, level: int) -> np.ndarray:
    """Evaluate (id_{M_level} (x) phi)(x) by acting on n x n blocks."""
    a = as_array(x).astype(np.complex128)
    n, m = phi.dom_dim, phi.cod_dim
    if a.shape != (level * n, level * n):
        raise ValueError(f"expected a {level * n}x{level * n} matrix, got {a.shape}")
    out = np.zeros((level * m, level * m), dtype=np.complex128)
    for r in range(level):
        for c in range(level):
            out[r * m:(r + 1) * m, c * m:(c + 1) * m] = phi.apply(
                a[r * n:(r + 1) * n, c * n:(c + 1) * n]
            )
    return out


def compress(phi: LinearMapMat, b) -> LinearMapMat:
    """x -> b* phi(x) b; completely positive whenever phi is."""
    bm = as_array(b).astype(np.complex128)
    if bm.shape[0] != phi.cod_dim:
        raise ValueError(
            f"compression needs {phi.cod_dim} rows, got shape {bm.shape}"
        )
    images = np.stack([bm.conj().T @ im @ bm for im in phi.images])
    breal = not np.any(bm.imag != 0)
    cod_field = REAL if (phi.cod_field == REAL and breal) else COMPLEX
    return LinearMapMat(phi.dom_dim, bm.shape[1], phi.linearity, phi.basis,
                        images, phi.dom_field, cod_field)


def restrict_to_real_form(phi: LinearMapMat, anti: AntiAutomorphism) -> LinearMapMat:
    """Restrict a map on M_n(C) to the real form of ``anti``."""
    if anti.dim != phi.dom_dim:
        raise ValueError("antiautomorphism dimension does not match the map's domain")
    basis = real_form_basis(anti)
    images = np.stack([phi.apply(g) for g in basis])
    return LinearMapMat(phi.dom_dim, phi.cod_dim, REAL, np.stack(basis),
                        images, COMPLEX, phi.cod_field)


def complexify(phi: LinearMapMat, anti: AntiAutomorphism) -> LinearMapMat:
    """Unique complex-linear extension of a real-linear map on a real form.

    The extension sends a + ib (a, b in the real form) to
    phi(a) + i phi(b); its restriction to the real form equals phi.
    """
    if phi.linearity != REAL:
        raise ValueError("complexify expects a real-linear map")
    if anti.dim != phi.dom_dim:
        raise ValueError("antiautomorphism dimension does not match the map's domain")
    for g in phi.basis:
        res = real_form_residual(anti, g)
        if res > 1e-8:
            raise ValueError(
                f"domain basis element is not inside the real form: residual {res:.3e}"
            )

    def ext(x):
        r, s = real_decompose(anti, x)
        return phi.apply(r) + 1j * phi.apply(s)

    return LinearMapMat.from_function(ext, phi.dom_dim, COMPLEX,
                                      cod_field=COMPLEX)


# -- Choi calculus -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """sum_jl E_jl (x) phi(E_jl) for a complex-linear phi."""

    value: np.ndarray
    source: LinearMapMat


def choi(phi: LinearMapMat) -> ChoiMatrix:
    if phi.linearity != COMPLEX:
        raise ValueError("choi is defined for complex-linear maps; "
                         "use cp_defect_real for real-linear ones")
    n, m = phi.dom_dim, phi.cod_dim
    c = np.zeros((n * m, n * m), dtype=np.complex128)
    for e in matrix_units(n):
        c += kron(e, phi.apply(e))
    return ChoiMatrix(c, phi)


def cp_defect(phi: LinearMapMat) -> float:
    """Positivity defect of the Choi matrix; >= -tol iff phi is CP."""
    return positivity_defect(choi(phi).value)


# -- real-linear complete positivity -------------------------------------


@dataclass(frozen=True, eq=False)
class RealCPReport:
    """Sampled k-positivity probe of a real-linear map.

    ``defect`` is the worst positivity defect of phi^(level)(p) over the
    deterministic sample of positive elements p = c*c; a negative value
    certifies a violation and ``witness`` is the offending p.
    ``selfadj_defect`` is the worst ||phi(x*) - phi(x)*|| seen.
    """

    defect: float
    level: int
    witness: np.ndarray | None
    selfadj_defect: float
    selfadj_witness: np.ndarray | None
    samples: int
    seed: int


def _canonical_positive(level: int, n: int, twist: bool = False) -> np.ndarray:
    """The maximally entangled projector sum_jl E_jl (x) E_jl, cut to size.

    ``twist`` phases the terms by (-i)^j, which produces genuinely
    complex positive elements (e.g. [[1, i], [-i, 1]] at level 2 over a
    scalar domain) that expose conjugation-like positivity failures.
    """
    d = min(level, n) if n > 1 else level
    v = np.zeros(level * n, dtype=np.complex128)
    for j in range(d):
        pos = j * n + (j % n)
        v[pos] = (-1j) ** j if twist else 1.0
    return np.outer(v, v.conj())


def cp_defect_real_report(phi: LinearMapMat, level: int, samples: int = 20,
                          seed: int = 0) -> RealCPReport:
    """Probe level-k positivity of a real-linear map on c*c samples.

    Sampling is deterministic given the seed.  When the domain is a full
    matrix space the canonical maximally entangled projector is always
    included, which at level n makes the probe as strong as the Choi
    criterion for adjoint-preserving maps.
    """
    if phi.linearity != REAL:
        raise ValueError("cp_defect_real expects a real-linear map")
    if level < 1:
        raise ValueError("level must be >= 1")
    n = phi.dom_dim
    rng = rng_from(seed)

    candidates: list[np.ndarray] = [np.eye(level * n, dtype=np.complex128)]
    if phi.has_canonical_basis:
        if phi.dom_field == COMPLEX:
            candidates.append(_canonical_positive(level, n, twist=True))
        candidates.append(_canonical_positive(level, n))
    nb = len(phi.basis)
    for _ in range(samples):
        coeff = rng.standard_normal((level, level, nb)) / np.sqrt(nb)
        c = np.zeros((level * n, level * n), dtype=np.complex128)
        for a in range(level):
            for b in range(level):
                blk = np.tensordot(coeff[a, b], phi.basis, axes=(0, 0))
                c[a * n:(a + 1) * n, b * n:(b + 1) * n] = blk
        p = c.conj().T @ c
        nrm = op_norm(p)
        if nrm > 0:
            candidates.append(p / nrm)

    worst = np.inf
    witness = None
    for p in candidates:
        d = positivity_defect(block_apply(phi, p, level))
        if d < worst:
            worst = d
            witness = p

    sa_worst = 0.0
    sa_witness = None
    for _ in range(samples):
        coeff = rng.standard_normal(nb)
        x = np.tensordot(coeff, phi.basis, axes=(0, 0))
        try:
            r = op_norm(phi.apply(x.conj().T) - phi.apply(x).conj().T)
        except ValueError:
            # x* can leave the domain span only for exotic bases; treat
            # that as a maximal self-adjointness failure.
            r = np.inf
        if r > sa_worst:
            sa_worst = r
            sa_witness = x

    return RealCPReport(float(worst), level, witness, float(sa_worst),
                        sa_witness, samples, int(seed))


def cp_defect_real(phi: LinearMapMat, level: int, samples: int = 20,
                   seed: int = 0) -> float:
    return cp_defect_real_report(phi, level, samples, seed).defect
