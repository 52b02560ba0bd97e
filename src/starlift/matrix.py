"""Dense matrix primitives: norms, positivity defects, Kronecker products.

Every higher layer (real forms, CP calculus, transport, certificates,
tensor checks) funnels its numerics through this module.  Computational
values are plain numpy arrays; the :class:`Matrix` wrapper adds the
scalar-field tag needed at serialization boundaries and for
field-sensitive norms.  Spectral quantities are compared only through
tolerances, never bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
BATCH_ENTRIES = 2**18    # bounds the memory of a batch of stacked products


@dataclass(frozen=True)
class Tolerance:
    """Nonnegative comparison tolerance, defaulting to 1e-9."""

    eps: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if not (self.eps >= 0.0):
            raise ValueError(f"tolerance must be nonnegative, got {self.eps}")


def as_array(x) -> np.ndarray:
    """Coerce a Matrix, ndarray, or nested sequence to a 2-D ndarray."""
    if isinstance(x, Matrix):
        return x.array
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


@dataclass(frozen=True, eq=False)
class Matrix:
    """A dense rectangular matrix over R or C.

    The field tag is semantic: "R" promises that every entry has zero
    imaginary part (enforced at construction).
    """

    array: np.ndarray
    field: str = field(default="C")

    def __post_init__(self) -> None:
        a = as_array(self.array)
        if self.field not in ("R", "C"):
            raise ValueError(f"field must be 'R' or 'C', got {self.field!r}")
        if self.field == "R":
            if np.iscomplexobj(a) and np.any(a.imag != 0):
                raise ValueError("field 'R' matrix has nonzero imaginary entries")
            a = a.real.astype(np.float64)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @classmethod
    def from_array(cls, a, field: str | None = None) -> "Matrix":
        arr = as_array(a)
        if field is None:
            is_real = not np.iscomplexobj(arr) or not np.any(arr.imag != 0)
            field = "R" if is_real else "C"
        return cls(arr, field)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


def op_norm(m) -> float:
    """Largest singular value (the operator norm on column vectors)."""
    a = as_array(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def col_norm1(m, entrywise: bool = False) -> float:
    """Max absolute column sum of a real matrix.

    This is the norm induced by the vector 1-norm.  ``entrywise=True``
    switches to the entrywise l1 sum instead (kept as a variant because
    both readings of "the 1-norm on real matrices" occur in practice).
    Complex input is rejected.
    """
    a = as_array(m)
    if isinstance(m, Matrix) and m.field == "C":
        raise ValueError("col_norm1 requires a real matrix (field 'R')")
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise ValueError("col_norm1 requires real entries")
        a = a.real
    if entrywise:
        return float(np.sum(np.abs(a)))
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=0)))


def hermitian_defect(m) -> float:
    """Operator-norm distance from m to its adjoint, ||m - m*||."""
    a = as_array(m)
    return op_norm(a - a.conj().T)


def positivity_defect(m) -> float:
    """Defect of being a positive element: lambda_min(herm) - ||skew||.

    Positive elements of a matrix *-algebra are self-adjoint with
    nonnegative spectrum, so any genuinely positive input scores
    >= 0 and a negative score certifies non-positivity, whether the
    failure is spectral or a failure of self-adjointness.  On Hermitian
    input it is the minimum eigenvalue.
    """
    a = as_array(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"positivity_defect needs a square matrix, got shape {a.shape}")
    sym = (a + a.conj().T) / 2.0
    skew = (a - a.conj().T) / 2.0
    lam = float(np.linalg.eigvalsh(sym)[0])
    return lam - op_norm(skew)


def matrix_units(d: int, n: int | None = None, offset: int = 0) -> list[np.ndarray]:
    """E_jl for j, l < d, row-major, as complex n x n matrices (n defaults
    to d) with the d x d block placed at (offset, offset)."""
    n = d if n is None else n
    out = []
    for j in range(offset, offset + d):
        for l in range(offset, offset + d):
            e = np.zeros((n, n), dtype=np.complex128)
            e[j, l] = 1.0
            out.append(e)
    return out


def doubled_units(n: int) -> list[np.ndarray]:
    """Real basis of M_n(C): the matrix units followed by i times them."""
    units = matrix_units(n)
    return units + [1j * e for e in units]


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply."""
    return np.kron(as_array(a), as_array(b))


def split_norm(m) -> float:
    """The norm ||c|| = ||a|| + ||b|| for c = a + ib, op norms on parts."""
    a = as_array(m)
    return op_norm(np.real(a)) + op_norm(np.imag(a))
