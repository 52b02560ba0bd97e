"""Reference implementations of the map operations, one matrix at a time.

These are the loop versions that ``starlift.cpmaps`` replaced with batched
linear algebra on the image array: evaluation solves for coordinates with
a pinv of the basis and checks domain membership with two operator-norm
SVDs per input, and every structural operation calls it once per basis
element or block.  The differential tests compare the two.
"""

import numpy as np

from starlift.cpmaps import COMPLEX, REAL, LinearMapMat, canonical_basis
from starlift.matrix import as_array, kron, matrix_units, op_norm
from starlift.realform import real_decompose, real_form_basis


def solver(phi: LinearMapMat) -> np.ndarray:
    if phi.linearity == COMPLEX:
        cols = np.stack([b.ravel() for b in phi.basis], axis=1)
    else:
        cols = np.stack(
            [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in phi.basis], axis=1)
    return np.linalg.pinv(cols)


def apply(phi: LinearMapMat, x, membership_tol: float = 1e-7) -> np.ndarray:
    a = as_array(x).astype(np.complex128)
    if a.shape != (phi.dom_dim, phi.dom_dim):
        raise ValueError(f"map expects {phi.dom_dim}x{phi.dom_dim} input, got {a.shape}")
    if phi.linearity == COMPLEX:
        coeff = solver(phi) @ a.ravel()
    else:
        coeff = solver(phi) @ np.concatenate([a.real.ravel(), a.imag.ravel()])
    rec = np.tensordot(coeff, phi.basis, axes=(0, 0))
    res = op_norm(a - rec)
    if res > membership_tol * (1.0 + op_norm(a)):
        raise ValueError(f"input is outside the map's domain span: residual {res:.3e}")
    return np.tensordot(coeff, phi.images, axes=(0, 0))


def choi(phi: LinearMapMat) -> np.ndarray:
    n, m = phi.dom_dim, phi.cod_dim
    c = np.zeros((n * m, n * m), dtype=np.complex128)
    for e in matrix_units(n):
        c += kron(e, apply(phi, e))
    return c


def compose(psi: LinearMapMat, phi: LinearMapMat) -> LinearMapMat:
    linearity = COMPLEX if (psi.linearity == COMPLEX and phi.linearity == COMPLEX) else REAL
    if linearity == REAL and phi.linearity == COMPLEX:
        basis = np.stack(list(phi.basis) + [1j * b for b in phi.basis])
    else:
        basis = phi.basis
    images = np.stack([apply(psi, apply(phi, b)) for b in basis])
    return LinearMapMat(phi.dom_dim, psi.cod_dim, linearity, basis, images,
                        phi.dom_field, psi.cod_field)


def block_apply(phi: LinearMapMat, x, level: int) -> np.ndarray:
    a = as_array(x).astype(np.complex128)
    n, m = phi.dom_dim, phi.cod_dim
    out = np.zeros((level * m, level * m), dtype=np.complex128)
    for r in range(level):
        for c in range(level):
            out[r * m:(r + 1) * m, c * m:(c + 1) * m] = apply(
                phi, a[r * n:(r + 1) * n, c * n:(c + 1) * n])
    return out


def restrict_to_real_form(phi: LinearMapMat, anti) -> LinearMapMat:
    basis = real_form_basis(anti)
    images = np.stack([apply(phi, g) for g in basis])
    return LinearMapMat(phi.dom_dim, phi.cod_dim, REAL, np.stack(basis), images,
                        COMPLEX, phi.cod_field)


def complexify_images(phi: LinearMapMat, anti) -> np.ndarray:
    """Images of the complex-linear extension on the matrix units."""
    out = []
    for e in canonical_basis(phi.dom_dim, COMPLEX):
        r, s = real_decompose(anti, e)
        out.append(apply(phi, r) + 1j * apply(phi, s))
    return np.stack(out)
