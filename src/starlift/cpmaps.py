"""Linear maps between matrix spaces and their complete-positivity calculus.

A map is stored by its images on the canonical domain basis, which
``canonical_basis`` alone builds: the matrix units for complex-linear
maps, the doubled family {E_jl, i E_jl} for real-linear maps on a full
complex matrix space, and the real matrix units when the domain is a
real matrix space.  Complete positivity is decided exactly from the
stored images, by the Choi matrix of a complex-linear map or the Choi
matrices of a real-linear map's complexification (``cp_defect``).  The
rest of a real-linear check is one call per measurement, so a caller
computes only what it reports: ``selfadjointness_defect``,
``choi_witness`` (a positive element that witnesses a failure) and the
level-k probe ``cp_defect_real_report``.  Nothing here is sampled.
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
        for name in ("linearity", "dom_field", "cod_field"):
            if getattr(self, name) not in (COMPLEX, REAL):
                raise ValueError(f"{name} must be 'C' or 'R', got {getattr(self, name)!r}")
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
                         "cp_defect decides real-linear ones")
    # Block (j, l) is phi(E_jl), the image of the j*n + l-th unit; adding
    # 0.0 turns -0.0 into 0.0, as summing the blocks into a zero matrix does.
    return _join_blocks(phi.images, phi.dom_dim) + 0.0


def cp_defect(phi: LinearMapMat) -> float:
    """Positivity defect of phi's Choi matrix; >= -tol iff phi is CP.

    A real-linear map is CP iff its complexification is.  On a real
    matrix space that is the complex-linear extension, whose Choi matrix
    joins the images of the real matrix units.  On M_n(C) phi splits into
    its complex-linear part (phi(x) - i phi(ix))/2 and its
    conjugate-linear part (phi(x) + i phi(ix))/2, whose Choi matrices C+
    and C- join (a - ib)/2 and (a + ib)/2, with a the images of the E_jl
    and b those of the i E_jl; the defect is the smaller of theirs.
    """
    n = phi.dom_dim
    if phi.linearity == COMPLEX:
        return positivity_defect(choi(phi))
    if phi.dom_field == REAL:
        return positivity_defect(_join_blocks(phi.images, n))
    a, b = phi.images[:n * n], phi.images[n * n:]
    pair = _join_blocks(np.stack([a - 1j * b, a + 1j * b]) / 2.0, n)
    return float(np.min(positivity_defect(pair)))


# -- real-linear complete positivity -------------------------------------


def selfadjointness_defect(phi: LinearMapMat) -> tuple[float, np.ndarray | None]:
    """The largest ||phi(b*) - phi(b)*|| over the canonical basis b, and
    the first b that attains it (None when it is 0).  The residual is
    real-linear, so it vanishes on the basis iff phi preserves adjoints."""
    n = phi.dom_dim
    # phi(b*) read off the images: E_jl* = E_lj, and (i E_jl)* = -i E_lj.
    adj = np.arange(n * n).reshape(n, n).T.ravel()
    images = phi.images
    adj_images = images[adj] if len(images) == n * n else \
        np.concatenate([images[adj], -images[n * n + adj]])
    sa = op_norm(adj_images - np.swapaxes(images.conj(), -1, -2))
    first = int(np.argmax(sa))          # the first basis element with the largest residual
    return (float(sa[first]), phi.basis[first]) if sa[first] > 0 else (0.0, None)


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


def choi_witness(phi: LinearMapMat) -> tuple[int, np.ndarray]:
    """(level, W), a positive W with block_apply(phi, W, level) the Choi
    matrix of a real-domain map, or unitarily equivalent to C+ (+) C- on
    M_n(C), so its defect is at most ``cp_defect(phi)`` (equal when the
    Choi matrices are Hermitian).

    On M_n(C), W = ww*/2 with w = sum_j (e_2j + i e_2j+1) (x) e_j has the
    blocks E_jl/2, -i E_jl/2, i E_jl/2 and E_jl/2, so its image is
    [[A, -B], [B, A]]/2 up to a permutation, for the joins A and B of a
    and b; that acts as (A - iB)/2 on the vectors (x, ix) and as
    (A + iB)/2 on (x, -ix).
    """
    n = phi.dom_dim
    if phi.dom_field == REAL:
        return n, _canonical_positive(n, n)
    j = np.arange(n)
    w = np.zeros(2 * n * n, dtype=np.complex128)
    w[2 * j * n + j] = 1.0
    w[(2 * j + 1) * n + j] = 1j
    return 2 * n, np.outer(w, w.conj()) / 2.0


def cp_defect_real_report(phi: LinearMapMat, level: int) -> tuple[float, np.ndarray]:
    """Probe phi^(level) of a real-linear map on the fixed positive
    elements: the identity, the twisted projector (complex domain only)
    and the canonical one.  Returns the worst positivity defect and the
    first element that attains it.  At level n on a real domain the
    canonical projector's image is the Choi matrix; ``cp_defect``, not
    this probe, decides complete positivity."""
    if phi.linearity != REAL:
        raise ValueError("cp_defect_real_report expects a real-linear map")
    if level < 1:
        raise ValueError("level must be >= 1")
    n = phi.dom_dim
    fixed = [np.eye(level * n, dtype=np.complex128)]
    if phi.dom_field == COMPLEX:
        fixed.append(_canonical_positive(level, n, twist=True))
    fixed.append(_canonical_positive(level, n))
    defects = positivity_defect(block_apply(phi, np.stack(fixed), level))
    best = int(np.argmin(defects))      # the first candidate with the least defect
    return float(defects[best]), fixed[best]
