"""Fubini products and exactness checks for an ideal's quotient sequence.

Finite-dimensional algebras are presented on matrices, so the minimal
tensor product is just the Kronecker-product presentation.  Subspaces
are real-linear, as rows of ``realify``, because real-form legs are only
real-linear subspaces of the complex tensor algebra.  Ideals are block
summands (every closed ideal of a finite-dimensional C*-algebra is one),
which keeps the quotient map exactly computable.

Frame contract: every span the checks compare is span_C(A_leg) (x) K,
where K is a complex subspace of B's span and the A leg is a frame, a
stack of matrices whose Hermitian Gram matrix tr(x* y) is the identity.
The A legs are A's real form (``real_frame``; tr(x* y) = tr(Phi(x) y) is
real there) and ``StarAlgebra.frame``.  Since <a (x) b, a' (x) b'> =
<a, a'><b, b'>, K -> A_leg (x) K is then an isometry onto one copy of K
for each leg element, so every check is solved once on K's rows in M_nb:

- ker(id (x) pi) on A_leg (x) B is A_leg (x) ker(pi|B);
- the right slice of sum_i a_i (x) b_i against the dual functional of
  a_p is b_p, so the Fubini product is A_leg (x) (B meet span_C(ideal));
- principal angles, and containment residuals on the product rows
  a (x) k, between A_leg (x) K1 and A_leg (x) K2 are those between K1
  and K2, and real dimensions are len(A_leg) times those on B.

The reduction is exact only because the A leg is orthonormal: a leg with
a repeated or rescaled element would count copies of K that are not
there.  Each check runs the Gram test once on each of its legs and
raises on a leg that fails it, and returns its report as the plain JSON
object the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import DEFAULT_TOL, as_arrays, matrix_units, worst_op_norm
from .realform import AntiAutomorphism, StarAlgebra, real_frame
from .subspace import (RANK_TOL, containment_residual, kernel_rows, realify,
                       subspaces_equal, unrealify)


@dataclass(frozen=True, eq=False)
class IdealPresentation:
    """The ideal of B made of some of B's own blocks, given by their
    indices into ``b.blocks`` and validated when it is built.

    The quotient map is realized as extraction of the complementary
    principal blocks, a *-homomorphism whose kernel is exactly the ideal
    summand: the blocks partition range(n), so pi of every ideal unit is
    exactly 0.
    """

    b: StarAlgebra
    ideal_blocks: tuple      # indices into b.blocks

    def __post_init__(self) -> None:
        # A repeated index names its block once, so the ideal's units stay a frame.
        object.__setattr__(self, "ideal_blocks",
                           tuple(dict.fromkeys(int(i) for i in self.ideal_blocks)))
        for i in self.ideal_blocks:
            if not (0 <= i < len(self.b.blocks)):
                raise ValueError(f"ideal block index {i} out of range")
        self.validate()

    @property
    def quotient_indices(self) -> list[int]:
        idx = []
        for bi, (start, size) in enumerate(self.b.blocks):
            if bi not in self.ideal_blocks:
                idx.extend(range(start, start + size))
        return idx

    def ideal_span(self) -> np.ndarray:
        """Matrix units spanning the ideal summand, embedded in M_n, as a
        stack (k, n, n); k is 0 for the zero ideal."""
        n = self.b.n
        blocks = [self.b.blocks[i] for i in self.ideal_blocks]
        return np.concatenate([matrix_units(0, n)]
                              + [matrix_units(size, n, start) for start, size in blocks])

    def quotient_apply(self, x) -> np.ndarray:
        """pi(x), on one matrix or on a stack."""
        idx = self.quotient_indices
        return as_arrays(x)[..., idx, :][..., idx]

    def validate(self) -> None:
        """Each ideal block lies in B and, given that, is two-sided: every
        element of B is zero between the block and the other indices.  Both
        are tested on B's frame to DEFAULT_TOL, so no product is formed and
        the bound is relative to B's scale; both hold by structure when B
        is all of its block algebra."""
        if self.b.is_block_full:
            return
        for i in self.ideal_blocks:
            start, size = self.b.blocks[i]
            resid = self.b.worst_residual(matrix_units(size, self.b.n, start))
            if resid > DEFAULT_TOL:
                raise ValueError(f"ideal block {i} does not lie in B: residual {resid:.3e}")
        for start, size in (self.b.blocks[i] for i in self.ideal_blocks):
            inside = np.zeros(self.b.n, dtype=bool)
            inside[start:start + size] = True
            cross = self.b.frame * (inside[:, None] != inside[None, :])
            resid = worst_op_norm(cross)
            if resid:
                raise ValueError(f"ideal span is not two-sided: residual {resid:.3e}")


# -- B's rows of the spans entering the Fubini and exactness checks -------


def _complex_rows(frame: np.ndarray) -> np.ndarray:
    """Orthonormal real rows of span_C(frame): each matrix, then i times it."""
    n = frame.shape[-1]
    return realify(np.stack([frame, 1j * frame], axis=1).reshape(-1, n, n))


def _gram_test(leg) -> np.ndarray:
    """The leg as a stack, if it is a frame (Hermitian Gram matrix I
    within ``RANK_TOL``); a leg that is not raises ValueError."""
    leg = np.asarray(leg)
    flat = leg.reshape(len(leg), leg.shape[1] ** 2)
    dev = np.max(np.abs(flat.conj() @ flat.T - np.eye(len(leg))), initial=0.0)
    if dev > RANK_TOL:
        raise ValueError(f"tensor leg is not orthonormal: Gram deviation {dev:.3e}")
    return leg


def tensor_span_rows(a_leg, b_leg) -> np.ndarray:
    """B's rows of span_C{a (x) b: a in a_leg, b in b_leg}: the orthonormal
    real rows of K = span_C(b_leg), each b then i times it.  The span is
    span_C(a_leg) (x) K, of real dimension len(a_leg) * len(rows).

    Both legs must be frames; a leg that is not raises ValueError.  An
    empty leg, given as an array of no matrices, spans the zero subspace."""
    _gram_test(a_leg)
    return _complex_rows(_gram_test(b_leg))


def fubini(rows: np.ndarray, ideal_rows: np.ndarray) -> np.ndarray:
    """B's rows of the Fubini product, from B's ``rows`` of span_C(a_leg
    (x) b_leg) and those of span_C(a_leg (x) ideal) (``tensor_span_rows``).
    The right slice of sum_i a_i (x) b_i against tr(a_p* .) is b_p, so the
    product is span_C(a_leg) (x) K for the orthonormal real rows K
    returned: span(rows) meet span(ideal_rows)."""
    # Orthonormal kernel rows times orthonormal rows are orthonormal.
    return kernel_rows((rows - rows @ ideal_rows.T @ ideal_rows).T) @ rows


def quotient_kernel_rows(b_rows: np.ndarray, pres: IdealPresentation) -> np.ndarray:
    """ker(pi) inside the span of B's orthonormal real ``b_rows``, as
    orthonormal real rows; ker(id (x) pi) on A_leg (x) span(b_rows) is
    A_leg (x) these rows."""
    nb = pres.b.n
    images = realify(pres.quotient_apply(unrealify(b_rows, (-1, nb, nb))))
    return kernel_rows(images.T) @ b_rows   # combos mapping to zero


def _compare(kernel: np.ndarray, span: np.ndarray) -> dict:
    """The identity kernel = span between B's rows of both, as a report."""
    eq, ang = subspaces_equal(kernel, span)
    return {
        "kernel_dim": len(kernel),
        "span_dim": len(span),
        "principal_angle": float(ang),
        "containment_kernel_in_span": float(containment_residual(kernel, span)),
        "containment_span_in_kernel": float(containment_residual(span, kernel)),
        "match": bool(eq),
    }


def _tensored(check: dict, leg) -> dict:
    """A check made on B's rows, for the spans tensored with ``leg``."""
    return {**check, "kernel_dim": len(leg) * check["kernel_dim"],
            "span_dim": len(leg) * check["span_dim"]}


def _legs(a: StarAlgebra, anti: AntiAutomorphism, pres: IdealPresentation):
    """A's real form as a frame and B's rows of its spans with B's frame
    and with the ideal's units, each leg Gram-tested once."""
    if anti.dim != a.n:
        raise ValueError("antiautomorphism dimension does not match the algebra")
    form = real_frame(a, anti)
    return (form, tensor_span_rows(form, pres.b.frame),
            _complex_rows(_gram_test(pres.ideal_span())))


def exactness_check(a: StarAlgebra, anti: AntiAutomorphism,
                    pres: IdealPresentation) -> dict:
    """Kernel identities for the quotient sequence tensored with A and
    with its real form.

    Checks ker(id (x) pi) = span(A_leg (x) I) for the real-form leg and
    the complex leg, the matching Fubini-product identities, and that the
    real-form part plus i times it rebuilds the whole tensor span.  Both
    legs have the same rows on B, so each identity is solved once there
    and reported for each leg.
    """
    form, b_rows, span = _legs(a, anti, pres)
    _gram_test(a.frame)
    kernel = _compare(quotient_kernel_rows(b_rows, pres), span)
    fub = _compare(fubini(b_rows, span), span)

    # The real-form rows hold the i-multiples of their products, so i times
    # the real-form part spans the same rows and their sum is those rows again.
    real_dim = len(form) * len(b_rows)
    decomposition = {
        "real_part_dim": real_dim,
        "imag_part_dim": real_dim,
        "sum_dim": real_dim,
        "tensor_dim": len(a.frame) * len(b_rows),
        "spans_everything": bool(subspaces_equal(_complex_rows(form),
                                                 _complex_rows(a.frame))[0]),
    }

    return {
        "real_kernel": _tensored(kernel, form),
        "complex_kernel": _tensored(kernel, a.frame),
        "fubini_real": _tensored(fub, form),
        "fubini_complex": _tensored(fub, a.frame),
        "decomposition": decomposition,
        "dual_field_choice": {"phi_field": "either", "psi_field": "R"},
        "ok": kernel["match"] and fub["match"] and decomposition["spans_everything"],
    }


def fubini_check(a: StarAlgebra, anti: AntiAutomorphism,
                 pres: IdealPresentation) -> dict:
    """Compare fubini(A's real form, B, ideal) with span(A's real form (x) ideal)."""
    form, b_rows, span = _legs(a, anti, pres)
    return _tensored(_compare(fubini(b_rows, span), span), form)
