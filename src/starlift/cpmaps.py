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
from functools import cached_property

import numpy as np

from .matrix import as_array, doubled_units, matrix_units, op_norm, positivity_defect
from .realform import AntiAutomorphism, real_decompose, real_form_basis, real_form_residual
from .sampling import rng_from
from .subspace import realify

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
        if self.cod_field == REAL and np.any(images.imag != 0):
            raise ValueError("cod_field 'R' map has an image with a nonzero imaginary part")
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

    @cached_property
    def _basis_kind(self) -> str:
        """How coefficients are read off an input: "units" (vec x),
        "doubled" ([Re vec x, Im vec x]) and "real" (Re vec x) on the
        canonical bases, "solve" (the pinv of the basis) on any other."""
        if not self.has_canonical_basis:
            return "solve"
        if self.linearity == COMPLEX:
            return "units"
        return "real" if self.dom_field == REAL else "doubled"

    @cached_property
    def _solver(self) -> np.ndarray:
        if self.linearity == COMPLEX:
            cols = self.basis.reshape(len(self.basis), -1)
        else:
            cols = realify(self.basis)
        return np.linalg.pinv(cols.T)

    def apply(self, x, membership_tol: float = 1e-7) -> np.ndarray:
        """Evaluate the map on one matrix or on a stack of shape (k, n, n).

        The call is rejected when any input lies outside the domain span,
        ||x - rec|| > membership_tol * (1 + ||x||) in operator norm, where
        rec is x rebuilt from its coefficients.
        """
        single = np.ndim(x) != 3
        xs = (as_array(x)[None] if single else np.asarray(x)).astype(np.complex128, copy=False)
        n = self.dom_dim
        if xs.shape[1:] != (n, n):
            raise ValueError(f"map expects {n}x{n} input, got {xs.shape[1:]}")
        flat = xs.reshape(len(xs), n * n)
        kind = self._basis_kind
        # On the canonical bases the coefficients rebuild x exactly, except
        # for the imaginary part a real domain drops.
        if kind == "units":
            coeff = flat
        elif kind == "doubled":
            coeff = realify(xs)
        elif kind == "real":
            coeff = flat.real
            imag = np.any(flat.imag != 0, axis=1)
            if imag.any():
                _check_membership(xs[imag], xs[imag].imag, membership_tol)
        else:
            vecs = flat if self.linearity == COMPLEX else realify(xs)
            coeff = (self._solver @ vecs[:, :, None])[:, :, 0]
            _check_membership(xs, xs - _combine(coeff, self.basis), membership_tol)
        out = _combine(coeff, self.images)
        return out[0] if single else out

    def unitality_defect(self) -> float:
        one = np.eye(self.dom_dim)
        return op_norm(self.apply(one) - np.eye(self.cod_dim))


def _combine(coeff: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i coeff[r, i] * mats[i] for each row r, in one matmul.

    Each row is its own vector-matrix product rather than a row of one
    matrix-matrix product, whose summation order differs: an input
    evaluated in a stack gets the same bits as evaluated alone.
    """
    out = coeff[:, None, :] @ mats.reshape(len(mats), -1)
    return out.reshape((len(coeff),) + mats.shape[1:])


def _check_membership(xs: np.ndarray, residual: np.ndarray, tol: float) -> None:
    res = np.linalg.norm(residual, 2, axis=(1, 2))
    bad = res > tol * (1.0 + np.linalg.norm(xs, 2, axis=(1, 2)))
    if bad.any():
        raise ValueError(
            f"input is outside the map's domain span: residual {res[bad][0]:.3e}"
        )


# -- structural operations ----------------------------------------------


def compose(psi: LinearMapMat, phi: LinearMapMat) -> LinearMapMat:
    """Pointwise composition psi . phi on phi's domain."""
    if phi.cod_dim != psi.dom_dim:
        raise ValueError(
            f"dimension mismatch: phi maps into {phi.cod_dim}, psi expects {psi.dom_dim}"
        )
    linearity = COMPLEX if (psi.linearity == COMPLEX and phi.linearity == COMPLEX) else REAL
    basis = phi.basis
    if linearity == REAL and phi.linearity == COMPLEX:
        # Rebase the complex-linear inner map on a real basis so the
        # merely real-linear composite stays well-defined.
        basis = np.concatenate([basis, 1j * basis])
    return LinearMapMat(phi.dom_dim, psi.cod_dim, linearity, basis,
                        psi.apply(phi.apply(basis)), phi.dom_field, psi.cod_field)


def block_apply(phi: LinearMapMat, x, level: int) -> np.ndarray:
    """Evaluate (id_{M_level} (x) phi)(x) by acting on n x n blocks."""
    a = as_array(x).astype(np.complex128)
    n = phi.dom_dim
    if a.shape != (level * n, level * n):
        raise ValueError(f"expected a {level * n}x{level * n} matrix, got {a.shape}")
    blocks = a.reshape(level, n, level, n).transpose(0, 2, 1, 3)
    return _join_blocks(phi.apply(blocks.reshape(level * level, n, n)), level)


def _join_blocks(blocks: np.ndarray, level: int) -> np.ndarray:
    """The level x level block matrix with blocks[r * level + c] at (r, c)."""
    m = blocks.shape[-1]
    return blocks.reshape(level, level, m, m).transpose(0, 2, 1, 3).reshape(level * m, level * m)


def compress(phi: LinearMapMat, b) -> LinearMapMat:
    """x -> b* phi(x) b; completely positive whenever phi is."""
    bm = as_array(b).astype(np.complex128)
    if bm.shape[0] != phi.cod_dim:
        raise ValueError(
            f"compression needs {phi.cod_dim} rows, got shape {bm.shape}"
        )
    images = bm.conj().T @ phi.images @ bm
    breal = not np.any(bm.imag != 0)
    cod_field = REAL if (phi.cod_field == REAL and breal) else COMPLEX
    return LinearMapMat(phi.dom_dim, bm.shape[1], phi.linearity, phi.basis,
                        images, phi.dom_field, cod_field)


def restrict_to_real_form(phi: LinearMapMat, anti: AntiAutomorphism) -> LinearMapMat:
    """Restrict a map on M_n(C) to the real form of ``anti``."""
    if anti.dim != phi.dom_dim:
        raise ValueError("antiautomorphism dimension does not match the map's domain")
    basis = np.stack(real_form_basis(anti))
    return LinearMapMat(phi.dom_dim, phi.cod_dim, REAL, basis, phi.apply(basis),
                        COMPLEX, phi.cod_field)


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
    n = phi.dom_dim
    units = np.stack(canonical_basis(n, COMPLEX))
    parts = [real_decompose(anti, e) for e in units]
    images = phi.apply(np.stack([r for r, _ in parts] + [s for _, s in parts]))
    return LinearMapMat(n, phi.cod_dim, COMPLEX, units,
                        images[:len(units)] + 1j * images[len(units):])


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
    n = phi.dom_dim
    # Block (j, l) is phi(E_jl); adding 0.0 turns -0.0 into 0.0, as
    # summing the blocks into a zero matrix does.
    return ChoiMatrix(_join_blocks(phi.apply(np.stack(matrix_units(n))), n) + 0.0, phi)


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
    coeff = rng.standard_normal((samples * level * level, nb)) / np.sqrt(nb)
    blocks = _combine(coeff, phi.basis).reshape(samples, level * level, n, n)
    for c in (_join_blocks(b, level) for b in blocks):
        p = c.conj().T @ c
        nrm = op_norm(p)
        if nrm > 0:
            candidates.append(p / nrm)

    defects = [positivity_defect(block_apply(phi, p, level)) for p in candidates]
    best = int(np.argmin(defects))      # the first candidate with the least defect
    worst, witness = defects[best], candidates[best]

    sa_worst = 0.0
    sa_witness = None
    for x in _combine(rng.standard_normal((samples, nb)), phi.basis):
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
