"""Real-linear subspace arithmetic for spaces of matrices.

Complex matrix spans are handled as real spans of doubled dimension
(stacking Re and Im of the vectorized matrix), so real-form subspaces --
which are only real-linear subspaces of the complex ambient space -- and
honestly complex subspaces share one engine.  Subspace equality is
decided float-friendly: dimension match plus a principal-angle bound,
computed through principal sines which stay well conditioned near zero.
"""

from __future__ import annotations

import numpy as np

from .matrix import as_array

RANK_TOL = 1e-9


def realify(mats) -> np.ndarray:
    """Stack matrices (a list or an array of them) as rows
    [Re(vec), Im(vec)] of a real array."""
    if len(mats) == 0:
        return np.zeros((0, 0))
    flat = np.asarray(mats, dtype=np.complex128).reshape(len(mats), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def unrealify(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of ``realify``, on one row or on rows (``shape`` then leads with k)."""
    half = rows.shape[-1] // 2
    return (rows[..., :half] + 1j * rows[..., half:]).reshape(shape)


def orth_rows(v: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal row basis of the row space of v (SVD, rank-pruned)."""
    if v.size == 0:
        return np.zeros((0, v.shape[1] if v.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, v.shape[1]))
    rank = int(np.sum(s > tol * s[0]))
    return vt[:rank]


def complex_orth_basis(mats, shape: tuple[int, int], tol: float = RANK_TOL
                       ) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of the complex span of mats."""
    rows = np.array([as_array(m).astype(np.complex128).ravel() for m in mats])
    return list(orth_rows(rows, tol).reshape(-1, *shape))


def kernel_rows(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the null space of a."""
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return np.eye(n)
    # Only a wide a needs the full factorization for its null space.
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * max(smax, 1.0)))
    return vt[rank:]


def span_dim(mats, tol: float = RANK_TOL) -> int:
    return orth_rows(realify(mats), tol).shape[0]


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
    """Largest principal angle (radians) between equal-dim subspaces.

    Computed from the principal sines max ||u_i - proj_w u_i||-style via
    singular values of u (I - P_w), which is accurate for small angles.
    """
    if u.shape[0] == 0 and w.shape[0] == 0:
        return 0.0
    if u.shape[0] == 0 or w.shape[0] == 0:
        return float(np.pi / 2)
    resid = u - u @ w.T @ w
    s = np.linalg.svd(resid, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    resid2 = w - w @ u.T @ u
    s2 = np.linalg.svd(resid2, compute_uv=False)
    smax = max(smax, float(s2[0]) if s2.size else 0.0)
    return float(np.arcsin(np.clip(smax, 0.0, 1.0)))


def subspaces_equal(u: np.ndarray, w: np.ndarray, angle_tol: float = 1e-6
                    ) -> tuple[bool, float]:
    """Dimension match + max principal angle below ``angle_tol``."""
    if u.shape[0] != w.shape[0]:
        return False, float(np.pi / 2)
    ang = max_principal_angle(u, w)
    return ang <= angle_tol, ang
