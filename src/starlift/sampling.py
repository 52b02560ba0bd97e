"""Deterministic random generators shared by checks and tests.

All sampling goes through numpy Generators seeded explicitly, so every
report is reproducible from its recorded seed.
"""

from __future__ import annotations

import numpy as np


def random_matrix(rng, rows: int, cols: int | None = None, field: str = "C",
                  scale: float = 1.0) -> np.ndarray:
    """Dense matrix with iid standard normal entries (complex: N + iN);
    ``rng`` is a Generator or a seed."""
    rng = np.random.default_rng(rng)
    cols = rows if cols is None else cols
    re = rng.standard_normal((rows, cols))
    if field == "R":
        return scale * re
    im = rng.standard_normal((rows, cols))
    return scale * (re + 1j * im)


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
