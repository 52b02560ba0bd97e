"""Linear maps between matrix spaces and their complete-positivity calculus.

A map is stored by its images on the canonical domain basis, which
``canonical_basis`` alone builds: the matrix units for complex-linear
maps, the doubled family {E_jl, i E_jl} for real-linear maps on a full
complex matrix space, and the real matrix units when the domain is a
real matrix space.  Complex-linear complete positivity is decided by the
Choi matrix; real-linear maps are probed by deterministic sampled
amplification on elements c*c together with a self-adjointness
preservation check, and violations always come with the witnessing
positive element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import (as_array, as_arrays, doubled_units, matrix_units, op_norm,
                     positivity_defect)
from .realform import AntiAutomorphism, real_decompose
from .subspace import realify

COMPLEX = "C"
REAL = "R"


def canonical_basis(n: int, linearity: str, dom_field: str = COMPLEX) -> np.ndarray:
    """The domain basis a map is tabulated and serialized on, as a stack:
    the matrix units, doubled to {E_jl, i E_jl} for real-linear maps on
    M_n(C)."""
    if linearity == REAL and dom_field == COMPLEX:
        return doubled_units(n)
    return matrix_units(n)


def basis_size(n: int, linearity: str, dom_field: str = COMPLEX) -> int:
    """len(canonical_basis(n, linearity, dom_field)), without building it."""
    return n * n * (2 if linearity == REAL and dom_field == COMPLEX else 1)


@dataclass(frozen=True, eq=False)
class LinearMapMat:
    """A (real- or complex-)linear map between matrix spaces.

    ``linearity`` is "C" or "R"; ``dom_field`` says whether the domain is
    a complex matrix space ("C") or a real one ("R"); ``cod_field``
    likewise tags the codomain.  ``images`` holds the images of the
    canonical domain basis (see :func:`canonical_basis`), in its order.
    """

    dom_dim: int
    cod_dim: int
    linearity: str
    images: np.ndarray
    dom_field: str = COMPLEX
    cod_field: str = COMPLEX

    def __post_init__(self) -> None:
        if self.linearity not in (COMPLEX, REAL):
            raise ValueError(f"linearity must be 'C' or 'R', got {self.linearity!r}")
        if self.linearity == COMPLEX and self.dom_field == REAL:
            raise ValueError("complex-linear maps need a complex domain")
        images = np.asarray(self.images, dtype=np.complex128)
        size = basis_size(self.dom_dim, self.linearity, self.dom_field)
        if images.shape != (size, self.cod_dim, self.cod_dim):
            raise ValueError(
                f"images shape {images.shape} does not match the {size} basis elements "
                f"of dom_dim {self.dom_dim} and cod_dim {self.cod_dim}"
            )
        if self.cod_field == REAL and np.any(images.imag != 0):
            raise ValueError("cod_field 'R' map has an image with a nonzero imaginary part")
        images.setflags(write=False)
        object.__setattr__(self, "images", images)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_function(cls, f, dom_dim: int, linearity: str = COMPLEX,
                      dom_field: str = COMPLEX,
                      cod_field: str = COMPLEX) -> "LinearMapMat":
        """Tabulate ``f`` on the canonical domain basis, one element at a time."""
        images = [as_array(f(b)) for b in canonical_basis(dom_dim, linearity, dom_field)]
        return cls(dom_dim, len(images[0]), linearity, images, dom_field, cod_field)

    @classmethod
    def identity(cls, n: int) -> "LinearMapMat":
        """The complex-linear identity on M_n(C)."""
        return cls(n, n, COMPLEX, matrix_units(n))

    @property
    def basis(self) -> np.ndarray:
        """The canonical domain basis the images are taken on."""
        return canonical_basis(self.dom_dim, self.linearity, self.dom_field)

    # -- evaluation -----------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on one matrix or on a stack of shape (k, n, n).

        The coefficients rebuild x exactly, except for the imaginary part
        a real domain drops: the call is rejected when an input of a
        real-domain map has ||Im x|| > 1e-7 * (1 + ||x||) in operator norm.
        """
        single = np.ndim(x) != 3
        xs = (as_array(x)[None] if single else np.asarray(x)).astype(np.complex128, copy=False)
        n = self.dom_dim
        if xs.shape[1:] != (n, n):
            raise ValueError(f"map expects {n}x{n} input, got {xs.shape[1:]}")
        flat = xs.reshape(len(xs), n * n)
        # The coefficients on the canonical basis: vec x, [Re vec x, Im vec x]
        # on the doubled units, or Re vec x on a real domain.
        if self.linearity == COMPLEX:
            coeff = flat
        elif self.dom_field == COMPLEX:
            coeff = realify(xs)
        else:
            coeff = flat.real
            imag = np.any(flat.imag != 0, axis=1)
            if imag.any():
                res = op_norm(xs[imag].imag)
                bad = res > 1e-7 * (1.0 + op_norm(xs[imag]))
                if bad.any():
                    raise ValueError(
                        f"input is outside the map's domain span: residual {res[bad][0]:.3e}"
                    )
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


# -- structural operations ----------------------------------------------


def compose(psi: LinearMapMat, phi: LinearMapMat) -> LinearMapMat:
    """Pointwise composition psi . phi on phi's domain."""
    if phi.cod_dim != psi.dom_dim:
        raise ValueError(
            f"dimension mismatch: phi maps into {phi.cod_dim}, psi expects {psi.dom_dim}"
        )
    linearity = COMPLEX if (psi.linearity == COMPLEX and phi.linearity == COMPLEX) else REAL
    # A merely real-linear composite of a complex-linear phi is tabulated
    # on the doubled units.
    basis = canonical_basis(phi.dom_dim, linearity, phi.dom_field)
    return LinearMapMat(phi.dom_dim, psi.cod_dim, linearity,
                        psi.apply(phi.apply(basis)), phi.dom_field, psi.cod_field)


def block_apply(phi: LinearMapMat, x, level: int) -> np.ndarray:
    """Evaluate (id_{M_level} (x) phi)(x) by acting on n x n blocks, on
    one matrix or on a stack of shape (..., level*n, level*n)."""
    a = as_arrays(x).astype(np.complex128)
    n = phi.dom_dim
    if a.shape[-2:] != (level * n, level * n):
        raise ValueError(f"expected a {level * n}x{level * n} matrix, got {a.shape}")
    lead = a.shape[:-2]
    blocks = np.swapaxes(a.reshape(*lead, level, n, level, n), -3, -2)
    images = phi.apply(blocks.reshape(-1, n, n))
    return _join_blocks(images.reshape(*lead, level * level, *images.shape[-2:]), level)


def _join_blocks(blocks: np.ndarray, level: int) -> np.ndarray:
    """The level x level block matrix with blocks[..., r * level + c] at
    (r, c), for each leading index of a stack (..., level**2, m, m)."""
    *lead, _, m, _ = blocks.shape
    grid = blocks.reshape(*lead, level, level, m, m)
    return np.swapaxes(grid, -3, -2).reshape(*lead, level * m, level * m)


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
    return LinearMapMat(phi.dom_dim, bm.shape[1], phi.linearity, images,
                        phi.dom_field, cod_field)


def complexify(phi: LinearMapMat, anti: AntiAutomorphism) -> LinearMapMat:
    """Unique complex-linear extension of phi restricted to the real form.

    Each matrix unit splits as E = r + is with r, s in the real form of
    ``anti``; the extension sends E to phi(r) + i phi(s), so it agrees
    with phi on the real form.  A real-domain map rejects the split when
    the real form is not M_n(R).
    """
    if phi.linearity != REAL:
        raise ValueError("complexify expects a real-linear map")
    if anti.dim != phi.dom_dim:
        raise ValueError("antiautomorphism dimension does not match the map's domain")
    n = phi.dom_dim
    r, s = real_decompose(anti, matrix_units(n))
    images = phi.apply(np.concatenate([r, s]))
    return LinearMapMat(n, phi.cod_dim, COMPLEX, images[:n * n] + 1j * images[n * n:])


# -- Choi calculus -------------------------------------------------------


def choi(phi: LinearMapMat) -> np.ndarray:
    """sum_jl E_jl (x) phi(E_jl) for a complex-linear phi."""
    if phi.linearity != COMPLEX:
        raise ValueError("choi is defined for complex-linear maps; "
                         "use cp_defect_real_report for real-linear ones")
    # Block (j, l) is phi(E_jl), the image of the j*n + l-th unit; adding
    # 0.0 turns -0.0 into 0.0, as summing the blocks into a zero matrix does.
    return _join_blocks(phi.images, phi.dom_dim) + 0.0


def cp_defect(phi: LinearMapMat) -> float:
    """Positivity defect of the Choi matrix; >= -tol iff phi is CP."""
    return positivity_defect(choi(phi))


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
        raise ValueError("cp_defect_real_report expects a real-linear map")
    if level < 1:
        raise ValueError("level must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = phi.dom_dim
    rng = np.random.default_rng(seed)

    fixed = [np.eye(level * n, dtype=np.complex128)]
    if phi.dom_field == COMPLEX:
        fixed.append(_canonical_positive(level, n, twist=True))
    fixed.append(_canonical_positive(level, n))
    basis = phi.basis
    nb = len(basis)
    coeff = rng.standard_normal((samples * level * level, nb)) / np.sqrt(nb)
    c = _join_blocks(_combine(coeff, basis).reshape(samples, level * level, n, n), level)
    p = np.swapaxes(c.conj(), -1, -2) @ c
    nrm = op_norm(p)
    candidates = np.concatenate([fixed, p[nrm > 0] / nrm[nrm > 0, None, None]])

    defects = positivity_defect(block_apply(phi, candidates, level))
    best = int(np.argmin(defects))      # the first candidate with the least defect
    worst, witness = defects[best], candidates[best]

    xs = _combine(rng.standard_normal((samples, nb)), basis)
    sa = op_norm(phi.apply(np.swapaxes(xs.conj(), -1, -2))
                 - np.swapaxes(phi.apply(xs).conj(), -1, -2))
    sa_worst, sa_witness = 0.0, None
    if sa.size and sa.max() > 0:
        first = int(np.argmax(sa))      # the first sample with the largest residual
        sa_worst, sa_witness = sa[first], xs[first]

    return RealCPReport(float(worst), level, witness, float(sa_worst),
                        sa_witness, samples, int(seed))
