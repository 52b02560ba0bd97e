"""Reference implementations of the map operations, one matrix at a time.

These are the loop versions that ``starlift.cpmaps`` replaced with batched
linear algebra on the image array: evaluation solves for coordinates with
a pinv of the basis and checks domain membership with two operator-norm
SVDs per input, and every structural operation calls it once per basis
element or block.  A map here may sit on any basis: ``BasisMap`` holds
an explicit one (a real form's, say), and ``apply`` also takes a
``LinearMapMat`` through its canonical ``basis``.  The differential tests
compare the two.
"""

from dataclasses import dataclass

import numpy as np

from starlift.cpmaps import COMPLEX, REAL, canonical_basis
from starlift.matrix import as_array, matrix_units, op_norm
from starlift.realform import real_decompose, real_form_basis


@dataclass(frozen=True)
class BasisMap:
    """A map given by its images on an explicit domain basis."""

    dom_dim: int
    cod_dim: int
    linearity: str
    basis: np.ndarray
    images: np.ndarray
    dom_field: str = COMPLEX
    cod_field: str = COMPLEX


def solver(phi) -> np.ndarray:
    if phi.linearity == COMPLEX:
        cols = np.stack([b.ravel() for b in phi.basis], axis=1)
    else:
        cols = np.stack(
            [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in phi.basis], axis=1)
    return np.linalg.pinv(cols)


def apply(phi, x, membership_tol: float = 1e-7) -> np.ndarray:
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


def choi(phi) -> np.ndarray:
    n, m = phi.dom_dim, phi.cod_dim
    c = np.zeros((n * m, n * m), dtype=np.complex128)
    for e in matrix_units(n):
        c += np.kron(e, apply(phi, e))
    return c


def compose(psi, phi) -> BasisMap:
    linearity = COMPLEX if (psi.linearity == COMPLEX and phi.linearity == COMPLEX) else REAL
    if linearity == REAL and phi.linearity == COMPLEX:
        basis = np.stack(list(phi.basis) + [1j * b for b in phi.basis])
    else:
        basis = phi.basis
    images = np.stack([apply(psi, apply(phi, b)) for b in basis])
    return BasisMap(phi.dom_dim, psi.cod_dim, linearity, basis, images,
                    phi.dom_field, psi.cod_field)


def block_apply(phi, x, level: int) -> np.ndarray:
    a = as_array(x).astype(np.complex128)
    n, m = phi.dom_dim, phi.cod_dim
    out = np.zeros((level * m, level * m), dtype=np.complex128)
    for r in range(level):
        for c in range(level):
            out[r * m:(r + 1) * m, c * m:(c + 1) * m] = apply(
                phi, a[r * n:(r + 1) * n, c * n:(c + 1) * n])
    return out


def restrict_to_real_form(phi, anti) -> BasisMap:
    """phi on an orthonormal basis of the real form of ``anti``."""
    basis = real_form_basis(anti)
    images = np.stack([apply(phi, g) for g in basis])
    return BasisMap(phi.dom_dim, phi.cod_dim, REAL, np.stack(basis), images,
                    COMPLEX, phi.cod_field)


def complexify_images(phi: BasisMap, anti) -> np.ndarray:
    """Images on the matrix units of the complex-linear extension of a
    map on the real form (see ``restrict_to_real_form``)."""
    out = []
    for e in canonical_basis(phi.dom_dim, COMPLEX):
        r, s = real_decompose(anti, e)
        out.append(apply(phi, r) + 1j * apply(phi, s))
    return np.stack(out)
