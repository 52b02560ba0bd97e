"""Real-linear subspace arithmetic for spaces of matrices.

Complex matrix spans are handled as real spans of doubled dimension
(stacking Re and Im of the vectorized matrix), so real-form subspaces --
which are only real-linear subspaces of the complex ambient space -- and
honestly complex subspaces share one engine.  Subspace equality is
decided float-friendly: dimension match plus a principal-angle bound,
computed through principal sines which stay well conditioned near zero.
"""

from __future__ import annotations

import math

import numpy as np

RANK_TOL = 1e-9


def realify(mats) -> np.ndarray:
    """Stack matrices (a list or an array of them) as rows
    [Re(vec), Im(vec)] of a real array."""
    a = np.asarray(mats, dtype=np.complex128)
    flat = a.reshape(len(a), math.prod(a.shape[1:]))
    return np.concatenate([flat.real, flat.imag], axis=1)


def unrealify(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of ``realify``, on one row or on rows (``shape`` then leads with k)."""
    half = rows.shape[-1] // 2
    return (rows[..., :half] + 1j * rows[..., half:]).reshape(shape)


def orth_rows(v: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of the row space of v (SVD, singular values
    at most RANK_TOL times the largest pruned)."""
    if v.size == 0:
        return np.zeros((0, v.shape[1] if v.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, v.shape[1]))
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return vt[:rank]


def complex_orth_basis(mats: np.ndarray) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of span_C of a stack (k, r, c), as (d, r, c)."""
    mats = np.asarray(mats, dtype=np.complex128)
    return orth_rows(mats.reshape(len(mats), -1)).reshape(-1, *mats.shape[1:])


def kernel_rows(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the null space of a: singular values
    at most RANK_TOL * max(||a||, 1) count as zero."""
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return np.eye(n)
    # Only a wide a needs the full factorization for its null space.
    wide = a.shape[0] < a.shape[1]
    try:
        _, s, vt = np.linalg.svd(a, full_matrices=wide)
    except np.linalg.LinAlgError:
        # LAPACK's gesdd can fail to converge on a finite a yet factor a^T = conj(V) S U^T.
        u, s, _ = np.linalg.svd(a.T, full_matrices=wide)
        vt = u.T
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > RANK_TOL * max(smax, 1.0)))
    return vt[rank:]


def containment_residual(sub: np.ndarray, ambient: np.ndarray) -> float:
    """Worst distance of a unit row of ``sub`` from span(``ambient``).

    Both arguments are orthonormal row bases.
    """
    if sub.shape[0] == 0:
        return 0.0
    if ambient.shape[0] == 0:
        return 1.0
    proj = sub @ ambient.T @ ambient
    return float(np.max(np.linalg.norm(sub - proj, axis=1)))


def max_principal_angle(u: np.ndarray, w: np.ndarray) -> float:
    """Largest principal angle (radians) between two orthonormal row
    bases of equal dimension.

    The singular values of u - (u w^T) w are the principal sines, which
    stay accurate for small angles; for equal dimensions they are the
    same seen from either side, so one SVD suffices.
    """
    if u.shape[0] != w.shape[0]:
        raise ValueError(f"principal angles need equal dimensions, got "
                         f"{u.shape[0]} and {w.shape[0]}")
    if u.shape[0] == 0:
        return 0.0
    s = np.linalg.svd(u - u @ w.T @ w, compute_uv=False)
    return float(np.arcsin(min(float(s[0]), 1.0)))


def subspaces_equal(u: np.ndarray, w: np.ndarray) -> tuple[bool, float]:
    """Dimension match + max principal angle at most 1e-6 radians."""
    if u.shape[0] != w.shape[0]:
        return False, float(np.pi / 2)
    ang = max_principal_angle(u, w)
    return ang <= 1e-6, ang
