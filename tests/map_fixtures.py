"""Generators for the tests: random matrices, unitaries, isometries,
full and block algebras, and unital CP maps with known structure.

Nothing in ``starlift`` calls these; the tests use them to build maps,
algebras, certificates and factorizations whose verdicts are known in
advance.
"""

import numpy as np

from starlift.cpmaps import COMPLEX, REAL, LinearMapMat
from starlift.matrix import as_array, matrix_units
from starlift.realform import StarAlgebra
from starlift.transport import eta


def random_matrix(rng, rows: int, cols: int | None = None, field: str = "C") -> np.ndarray:
    """Dense matrix with iid standard normal entries (complex: N + iN, real
    parts drawn first); ``rng`` is a Generator or a seed."""
    rng = np.random.default_rng(rng)
    cols = rows if cols is None else cols
    re = rng.standard_normal((rows, cols))
    if field == "R":
        return re
    return re + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n: int, field: str = "C") -> np.ndarray:
    """Haar-ish unitary (orthogonal for field 'R') via QR with phase fix."""
    q, r = np.linalg.qr(random_matrix(rng, n, n, field))
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def random_isometry(rng, n: int, k: int, field: str = "C") -> np.ndarray:
    """n x k matrix v with v* v = I_k; requires k <= n."""
    if k > n:
        raise ValueError(f"isometry needs k <= n, got k={k}, n={n}")
    u = random_unitary(rng, n, field)
    return u[:, :k]


def full_algebra(n: int) -> StarAlgebra:
    """M_n spanned by its matrix units."""
    return StarAlgebra(n, matrix_units(n), validate=False)


def block_algebra(dims) -> StarAlgebra:
    """The direct sum of M_d over ``dims``, embedded block-diagonally."""
    n = sum(dims)
    offsets = np.cumsum([0, *dims[:-1]])
    span = np.concatenate([matrix_units(d, n, off) for d, off in zip(dims, offsets)])
    return StarAlgebra(n, span, validate=False)


def unital_compression_map(rng, n: int, k: int, field: str = COMPLEX,
                           terms: int = 2) -> LinearMapMat:
    """x -> sum_i V_i* x V_i with sum_i V_i* V_i = I: unital and CP.

    Real field gives a real-linear map on M_n(R) into M_k(R); complex
    gives the complex-linear analogue.
    """
    rng = np.random.default_rng(rng)
    vs = [random_matrix(rng, n, k, field) for _ in range(terms)]
    s = sum(v.conj().T @ v for v in vs)
    w, u = np.linalg.eigh((s + s.conj().T) / 2)
    if np.min(w) <= 1e-12:
        raise ValueError("degenerate normalization; retry with another seed")
    inv_sqrt = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
    vs = [v @ inv_sqrt for v in vs]

    def f(x):
        return sum(v.conj().T @ as_array(x) @ v for v in vs)

    if field == REAL:
        return LinearMapMat.from_function(f, n, REAL, dom_field=REAL,
                                          cod_field=REAL)
    return LinearMapMat.from_function(f, n, COMPLEX)


def unital_stinespring_map(rng, n: int, k: int) -> LinearMapMat:
    """x -> V*(x (x) I_p)V for an isometry V: unital CP into M_k(C),
    with k allowed to exceed n."""
    rng = np.random.default_rng(rng)
    p = -(-k // n)
    v = random_isometry(rng, n * p, k)

    def f(x):
        return v.conj().T @ np.kron(as_array(x), np.eye(p)) @ v

    return LinearMapMat.from_function(f, n, COMPLEX)


def unitary_conjugation_map(u) -> LinearMapMat:
    um = as_array(u).astype(np.complex128)
    return LinearMapMat.from_function(lambda x: um @ as_array(x) @ um.conj().T,
                                      um.shape[0], COMPLEX)


def eta_map(k: int) -> LinearMapMat:
    """eta on M_k(C) as a real-linear map into M_2k(R)."""
    return LinearMapMat.from_function(eta, k, REAL, dom_field=COMPLEX,
                                      cod_field=REAL)
