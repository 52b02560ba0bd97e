"""Map generators for the tests: unital CP maps with known structure.

Nothing in ``starlift`` calls these; the tests use them to build maps,
certificates and factorizations whose verdicts are known in advance.
"""

import numpy as np

from starlift.cpmaps import COMPLEX, REAL, LinearMapMat
from starlift.matrix import as_array
from starlift.sampling import random_isometry, random_matrix
from starlift.transport import eta


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
