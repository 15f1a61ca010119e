"""Exact (centralised) statistics of a matrix product, used as ground truth.

Everything here computes on ``C = A @ B`` directly and is only used for
verification and for measuring the approximation error of the distributed
protocols; the protocols themselves never touch these functions.
"""

from __future__ import annotations

import numpy as np


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integer matrix product ``C = A @ B``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    # int64 reference, not exact_matmul: the oracle must not share the path it checks.
    return a.astype(np.int64) @ b.astype(np.int64)


def exact_lp_pp(c: np.ndarray, p: float) -> float:
    """Exact ``||C||_p^p`` with the paper's convention ``||C||_0^0 = ||C||_0``."""
    c = np.asarray(c, dtype=float)
    if p == 0:
        return float(np.count_nonzero(c))
    return float(np.sum(np.abs(c) ** p))


def exact_lp_norm(c: np.ndarray, p: float) -> float:
    """Exact ``||C||_p`` (for ``p = 0`` this is the number of non-zeros)."""
    value = exact_lp_pp(c, p)
    if p == 0:
        return value
    return value ** (1.0 / p)


def exact_linf(c: np.ndarray) -> float:
    """Exact ``||C||_inf`` = the largest absolute entry."""
    c = np.asarray(c)
    if c.size == 0:
        return 0.0
    return float(np.max(np.abs(c)))


def exact_support(c: np.ndarray) -> list[tuple[int, int]]:
    """All (row, column) positions of non-zero entries."""
    rows, cols = np.nonzero(np.asarray(c))
    return [(int(i), int(j)) for i, j in zip(rows, cols)]


def exact_heavy_hitters(c: np.ndarray, phi: float, p: float) -> set[tuple[int, int]]:
    """Exact ``HH^p_phi(C) = {(i,j) : |C_ij|^p >= phi * ||C||_p^p}``."""
    if not 0 < phi <= 1:
        raise ValueError(f"phi must be in (0, 1], got {phi}")
    c = np.asarray(c, dtype=float)
    total = exact_lp_pp(c, p)
    if total == 0:
        return set()
    threshold = phi * total
    mask = np.abs(c) ** p >= threshold
    rows, cols = np.nonzero(mask)
    return {(int(i), int(j)) for i, j in zip(rows, cols)}
