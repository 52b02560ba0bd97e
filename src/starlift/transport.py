"""Explicit transport maps between complex and real matrix algebras.

The block embedding ``sigma`` replaces each complex entry a + ib by the
2x2 real block [[a, b], [-b, a]] and is a unital *-homomorphism; the
block collapse ``rho`` averages each 2x2 block back to
(a + d)/2 + i (b - c)/2, the compression m -> w* m w by the 2k x k
isometry with w[2l, l] = 1/sqrt(2) and w[2l + 1, l] = i/sqrt(2), so both
are completely positive and ``rho . sigma`` is the identity.  ``theta`` is sigma scaled
by 1/(N(x) + 1) with N(x) the largest column sum of |Re| + |Im|; that
normalizer makes it contractive in the column-sum norm but also makes
the literal map nonlinear, so a fixed-scale linear variant is provided
alongside.  ``eta`` (entrywise diag(a, b)), ``eta1`` (entrywise
diag(a, |b|)) and the entrywise functionals ``upsilon`` and ``upsilon1``
feed the trace-intertwining checks.  The block maps, theta and the
normalized trace take one matrix or a stack of shape (..., n, n), so
``sigma_map`` and ``rho_map`` are tabulated in one call each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmaps import COMPLEX, REAL, LinearMapMat, canonical_basis, compose
from .matrix import as_arrays, col_norm1
from .realform import AntiAutomorphism, conj_phi

_I = np.eye(2)
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_E11 = np.diag([1.0, 0.0])
_E22 = np.diag([0.0, 1.0])


def _embed(re: np.ndarray, im: np.ndarray, re_block: np.ndarray,
           im_block: np.ndarray) -> np.ndarray:
    """Replace each entry pair (a, b) of re, im by the 2x2 block
    a re_block + b im_block; entry (j, l) becomes rows 2j, 2j+1 and
    columns 2l, 2l+1, as in np.kron(re, re_block) + np.kron(im, im_block)."""
    blocks = re[..., None, None] * re_block + im[..., None, None] * im_block
    *lead, r, c, _, _ = blocks.shape
    return np.swapaxes(blocks, -3, -2).reshape(*lead, 2 * r, 2 * c)


def sigma(x) -> np.ndarray:
    """Entrywise block embedding a + ib -> [[a, b], [-b, a]]."""
    a = as_arrays(x).astype(np.complex128)
    return _embed(a.real, a.imag, _I, _J)


def rho(m) -> np.ndarray:
    """Collapse of 2x2 blocks [[a, b], [c, d]] -> (a+d)/2 + i(b-c)/2."""
    a = as_arrays(m)
    if np.iscomplexobj(a) and np.any(a.imag != 0):
        raise ValueError("rho expects a real matrix")
    a = a.real
    if a.shape[-2] != a.shape[-1] or a.shape[-1] % 2 != 0:
        raise ValueError(f"rho needs an even square matrix, got shape {a.shape}")
    re = (a[..., 0::2, 0::2] + a[..., 1::2, 1::2]) / 2.0
    im = (a[..., 0::2, 1::2] - a[..., 1::2, 0::2]) / 2.0
    return re + 1j * im


def theta_normalizer(x):
    """N(x) = max over columns of sum_j (|Re x_jl| + |Im x_jl|).

    Equals the column-sum norm of sigma(x), so the scaled map
    sigma(x)/(N(x)+1) has column-sum norm N/(N+1) < 1 for x != 0.  A
    float for one matrix, an array of shape (...) for a stack.
    """
    a = as_arrays(x).astype(np.complex128)
    return col_norm1(np.abs(a.real) + np.abs(a.imag))


@dataclass(frozen=True)
class ThetaScale:
    """Scaling mode for theta: the literal nonlinear normalizer or a fixed
    linear constant."""

    mode: str = "paper"          # "paper" | "fixed"
    value: float = 1.0           # used in fixed mode

    def __post_init__(self) -> None:
        if self.mode not in ("paper", "fixed"):
            raise ValueError(f"theta mode must be 'paper' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed" and not (np.isfinite(self.value) and self.value > 0):
            raise ValueError(f"fixed theta scale must be positive and finite, got {self.value!r}")

    @property
    def is_linear(self) -> bool:
        return self.mode == "fixed"

    @classmethod
    def parse(cls, text: str) -> "ThetaScale":
        """Parse 'paper' or 'fixed:<value>'."""
        if text == "paper":
            return cls("paper")
        mode, _, value = text.partition(":")
        try:
            scale = float(value) if mode == "fixed" else None
        except ValueError:
            scale = None
        if scale is None:
            raise ValueError(f"bad theta mode {text!r}; expected 'paper' or 'fixed:<value>'")
        return cls("fixed", scale)

    @classmethod
    def for_working_set(cls, mats) -> "ThetaScale":
        """Fixed scale 1/(max N + 1) over the matrices theta will see,
        so the linear variant is contractive on that working set."""
        worst = float(np.max(theta_normalizer(np.asarray(mats)), initial=0.0))
        return cls("fixed", 1.0 / (worst + 1.0))


def theta(x, scale: ThetaScale = ThetaScale()) -> np.ndarray:
    """Scaled block embedding; contractive in col_norm1 in paper mode."""
    s = sigma(x)
    if scale.mode == "paper":
        return s / (np.expand_dims(theta_normalizer(x), (-2, -1)) + 1.0)
    return scale.value * s


def eta(x) -> np.ndarray:
    """Entrywise a + ib -> diag(a, b)."""
    a = as_arrays(x).astype(np.complex128)
    return _embed(a.real, a.imag, _E11, _E22)


def eta1(x) -> np.ndarray:
    """Entrywise a + ib -> diag(a, |b|); a scalar is the 1x1 case."""
    a = as_arrays(x).astype(np.complex128)
    return _embed(a.real, np.abs(a.imag), _E11, _E22)


def upsilon(z, scale: float = 0.5):
    """Entrywise scale * (a + b) for z = a + ib: a float for a scalar,
    an array for an array.

    The default scale 1/2 is what makes the normalized-trace
    intertwining with eta exact; scale 1 is the literal scalar map and
    is kept for auditing.
    """
    z = np.asarray(z)
    return scale * (z.real + z.imag)


def upsilon1(z, scale: float = 0.5):
    """Entrywise scale * (a + |b|) for z = a + ib, shaped like upsilon."""
    z = np.asarray(z)
    return scale * (z.real + np.abs(z.imag))


def normalized_trace(x):
    """tr(x)/k on k x k matrices: a complex for one matrix, an array for a
    stack.  The parts are divided one by one, because a complex quotient
    by k can round differently."""
    a = as_arrays(x)
    t = np.array(np.trace(a, axis1=-2, axis2=-1), dtype=np.complex128)
    t.real /= a.shape[-1]
    t.imag /= a.shape[-1]
    return complex(t) if t.ndim == 0 else t


# -- maps as LinearMapMat objects ----------------------------------------


def sigma_map(k: int) -> LinearMapMat:
    """sigma on M_k(C) as a real-linear map into M_2k(R)."""
    return LinearMapMat(k, 2 * k, REAL, sigma(canonical_basis(k, REAL)), COMPLEX, REAL)


def rho_map(k: int) -> LinearMapMat:
    """rho on M_2k(R) as a real-linear map into M_k(C)."""
    return LinearMapMat(2 * k, k, REAL, rho(canonical_basis(2 * k, REAL, REAL)), REAL, COMPLEX)


def transport_factorization(phi: LinearMapMat, psi: LinearMapMat
                            ) -> tuple[LinearMapMat, LinearMapMat]:
    """Rewrite a factorization through M_n(C) as one through M_2n(R).

    Returns (sigma . phi, psi . rho); because rho . sigma is the
    identity, the composite psi' . phi' equals psi . phi.  ``compose``
    rejects a psi whose domain is not phi's codomain.
    """
    n = phi.cod_dim
    phi_prime = compose(sigma_map(n), phi)
    psi_prime = compose(psi, rho_map(n))
    return phi_prime, psi_prime


@dataclass(frozen=True, eq=False)
class RealifiedMap:
    """theta . phi . Phi . * : the real-form transport of a complex-linear
    phi into M_k(C).

    In fixed mode this is a genuine real-linear map (see
    :meth:`as_linear_map`); in paper mode the theta normalizer depends on
    the input, so the object is a plain function and is flagged as
    nonlinear wherever it is reported.
    """

    phi: LinearMapMat
    anti: AntiAutomorphism
    scale: ThetaScale = ThetaScale()

    def __post_init__(self) -> None:
        if self.phi.linearity != COMPLEX:
            raise ValueError("RealifiedMap expects a complex-linear map")
        if self.anti.dim != self.phi.dom_dim:
            raise ValueError("antiautomorphism dimension does not match the map's domain")

    def apply(self, x) -> np.ndarray:
        return theta(self.phi.apply(conj_phi(self.anti, x)), self.scale)

    def as_linear_map(self) -> LinearMapMat:
        if not self.scale.is_linear:
            raise ValueError("the paper-mode theta is nonlinear; no LinearMapMat exists")
        n = self.phi.dom_dim
        images = self.apply(canonical_basis(n, REAL))
        return LinearMapMat(n, images.shape[-1], REAL, images, COMPLEX, REAL)
