"""Dense matrix primitives: norms, positivity defects, matrix units.

Every higher layer (real forms, CP calculus, transport, certificates,
tensor checks) funnels its numerics through this module.  Matrices are
plain numpy arrays, real or complex by dtype; a scalar-field tag exists
only in the JSON matrix schema (``io``).  The norms take one matrix or a
stack, and the matrix units come back as one stack.  Spectral quantities
are compared only through tolerances, never bit-exactly.

A validation threshold goes through ``worst_op_norm``, which takes no
SVD of a stack whose Frobenius norm is below ``DEFAULT_TOL``, and
``positivity_defect`` skips the SVD of an exactly zero skew part.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
BATCH_ENTRIES = 2**18    # bounds the memory of a batch of stacked products


def as_array(x) -> np.ndarray:
    """Coerce an ndarray or nested sequence to a 2-D ndarray."""
    a = np.asarray(x)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.issubdtype(a.dtype, np.number):
        raise ValueError(f"expected numeric entries, got dtype {a.dtype}")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def as_arrays(x) -> np.ndarray:
    """``as_array`` for one matrix; a stack of shape (..., r, c) is taken as is."""
    return np.asarray(x) if np.ndim(x) > 2 else as_array(x)


def batches(count: int, entries_each: int) -> list[slice]:
    """Slices of range(count) of about BATCH_ENTRIES entries (at least one item) each."""
    step = max(1, BATCH_ENTRIES // entries_each)
    return [slice(i, i + step) for i in range(0, count, step)]


def op_norm(m):
    """Largest singular value (the operator norm on column vectors): a
    float for one matrix, an array of shape (...) for a stack (..., r, c)."""
    if np.ndim(m) > 2:
        a = np.asarray(m)
        if a.size == 0:
            return np.zeros(a.shape[:-2])
        return np.linalg.norm(a, 2, axis=(-2, -1))
    a = as_array(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def worst_op_norm(stack) -> float:
    """The largest operator norm in a stack (..., r, c) if it exceeds
    DEFAULT_TOL, else 0.0.  Each sigma_1 is at most the stack's Frobenius
    norm, so a stack whose norm is below DEFAULT_TOL by a relative 1e-6
    (far above the rounding of a sum of a few million squares) takes no
    SVD.  That norm is ``np.linalg.norm``'s, since another sum of squares
    can round to the other side of the edge.  The callers pass residuals
    of frame elements, which have Hilbert-Schmidt norm 1, so the squares
    need no overflow or underflow guard."""
    if np.linalg.norm(stack) <= DEFAULT_TOL * (1.0 - 1e-6):
        return 0.0
    worst = float(np.max(op_norm(stack)))
    return worst if worst > DEFAULT_TOL else 0.0


def col_norm1(m):
    """Max absolute column sum of a real matrix, the norm induced by the
    vector 1-norm: a float for one matrix, an array of shape (...) for a
    stack.  Input with a nonzero imaginary part is rejected."""
    a = as_arrays(m)
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise ValueError("col_norm1 requires real entries")
        a = a.real
    norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1, initial=0.0)
    return float(norms) if norms.ndim == 0 else norms


def hermitian_defect(m) -> float:
    """Operator-norm distance from m to its adjoint, ||m - m*||."""
    a = as_array(m)
    return op_norm(a - a.conj().T)


def positivity_defect(m):
    """Defect of being a positive element: lambda_min(herm) - ||skew||.

    Positive elements of a matrix *-algebra are self-adjoint with
    nonnegative spectrum, so any genuinely positive input scores
    >= 0 and a negative score certifies non-positivity, whether the
    failure is spectral or a failure of self-adjointness.  On Hermitian
    input it is the minimum eigenvalue.  A float for one matrix, an
    array of shape (...) for a stack.
    """
    a = as_arrays(m)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"positivity_defect needs a square matrix, got shape {a.shape}")
    adj = np.swapaxes(a.conj(), -1, -2)
    sym = (a + adj) / 2.0
    skew = (a - adj) / 2.0
    # An exactly Hermitian matrix has a zero skew part, whose SVD gives 0.0.
    nonzero = skew.any(axis=(-2, -1))
    if np.all(nonzero):
        skew_norm = op_norm(skew)
    else:
        skew_norm = np.zeros(a.shape[:-2])
        if nonzero.any():
            skew_norm[nonzero] = op_norm(skew[nonzero])
    defect = np.linalg.eigvalsh(sym)[..., 0] - skew_norm
    return float(defect) if defect.ndim == 0 else defect


def matrix_units(d: int, n: int | None = None, offset: int = 0) -> np.ndarray:
    """E_jl for j, l < d, row-major, as a complex stack (d*d, n, n) (n
    defaults to d) with the d x d block placed at (offset, offset)."""
    n = d if n is None else n
    idx = np.arange(offset, offset + d)
    units = np.zeros((d * d, n, n), dtype=np.complex128)
    units[np.arange(d * d), np.repeat(idx, d), np.tile(idx, d)] = 1.0
    return units


def doubled_units(n: int) -> np.ndarray:
    """Real basis of M_n(C) as a stack: the matrix units followed by i times them."""
    units = matrix_units(n)
    return np.concatenate([units, 1j * units])


def _re_im_pairs(m) -> list:
    """The [re, im] pairs of a matrix's entries, row-major, as one list;
    of a stack (k, r, c), one such list per matrix.  Private, so the
    benchmark's span recorder counts its time in its caller's layer."""
    a = np.ascontiguousarray(m, np.complex128)
    return a.view(np.float64).reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1], 2)).tolist()


def split_norm(m):
    """The norm ||c|| = ||a|| + ||b|| for c = a + ib, op norms on parts;
    a float for one matrix, an array of shape (...) for a stack."""
    a = as_arrays(m)
    return op_norm(np.real(a)) + op_norm(np.imag(a))
