"""The benchmark's own arithmetic over F_p, kept apart from filtra.linalg.

Inputs are generated and answers are checked with these routines, so a
fault in filtra's elimination cannot hide itself in a check.  Matrices are
plain int64 numpy arrays holding residues in [0, p).
"""

from __future__ import annotations

import numpy as np


def reduce(a, p: int) -> np.ndarray:
    return np.mod(np.asarray(a, dtype=np.int64), p)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a @ b) % p


def echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination with one rank-1 update per pivot.

    Returns the reduced matrix and its pivot columns.  The pivot row is the
    first row at or below the current one with a nonzero entry; any choice
    gives the same rank and kernel dimension, which is all the checks use.
    """
    a = reduce(a, p).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        i = r + int(nonzero[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a[:, c:] = (a[:, c:] - np.outer(factors, a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(a: np.ndarray, p: int) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return len(echelon(a, p)[1])


def inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a square matrix mod p, or None when it is singular."""
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    reduced, pivots = echelon(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != list(range(n)):
        return None
    return reduced[:, n:]


def random_matrix(rng, p: int, rows: int, cols: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, cols)


def random_invertible(rng, p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly drawn invertible n x n matrix and its inverse."""
    while True:
        a = random_matrix(rng, p, n, n)
        inv = inverse(a, p)
        if inv is not None:
            return a, inv
