"""Exact dense linear algebra over a prime field F_p.

Column-vector convention throughout: a matrix with r rows and c columns
represents a linear map F_p^c -> F_p^r and composition g o f is the product
g @ f.  Elimination always picks the leftmost available pivot, so ranks,
kernels, solutions and quotient projections are deterministic: repeated calls
yield bit-identical results.

``Matrix.rref`` picks one of two Gauss-Jordan eliminations by the number of
entries.  Matrices of at most ``_RREF_SMALL_ENTRIES`` (100) entries are
eliminated as Python int lists, where numpy's per-call overhead would cost
more than the arithmetic.  Larger ones get one numpy rank-1 update per
pivot, applied only to the rows with a nonzero entry in the pivot column and
only to the columns from the pivot column onward.  The reduced row echelon
form is unique, so both give the same matrix and pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError

__all__ = ["PrimeField", "Matrix"]

# Matrix.rref eliminates matrices of at most this many entries as Python int
# rows; perfbench's RREF_SMALL_ENTRIES splits its traced rref time here too
_RREF_SMALL_ENTRIES = 100


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a small prime p.

    Entries of matrices over F_p are stored as canonical representatives in
    [0, p).  The bound keeps p*p products far inside int64 range.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValidationError(f"modulus must be a prime integer, got {self.p!r}")
        if self.p >= 2 ** 15:
            raise ValidationError(f"modulus {self.p} is too large for exact int64 arithmetic here")

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(x, self.p - 2, self.p)


class Matrix:
    """Immutable matrix over F_p backed by an int64 numpy array.

    Zero-sized shapes (0 x c, r x 0) are first-class citizens; they occur
    whenever a quiver representation has a zero space at some vertex.
    """

    __slots__ = ("p", "a", "_hash")

    def __init__(self, p: int, entries, shape: tuple[int, int] | None = None):
        a = np.asarray(entries, dtype=np.int64)
        if shape is not None:
            a = a.reshape(shape)
        if a.ndim != 2:
            raise DimensionMismatch(f"matrix data must be 2-dimensional, got shape {a.shape}")
        a = np.mod(a, p)
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Matrix":
        return Matrix(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Matrix":
        return Matrix(p, np.eye(n, dtype=np.int64))

    @staticmethod
    def from_rows(p: int, rows: Sequence[Sequence[int]], cols: int | None = None) -> "Matrix":
        if len(rows) == 0:
            if cols is None:
                raise DimensionMismatch("empty row list needs an explicit column count")
            return Matrix.zeros(p, 0, cols)
        return Matrix(p, [list(r) for r in rows])

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def entries(self) -> list[list[int]]:
        """Row-major nested list of canonical representatives."""
        return [[int(x) for x in row] for row in self.a]

    def is_zero(self) -> bool:
        return bool(np.all(self.a == 0))

    def is_identity(self) -> bool:
        return self.rows == self.cols and bool(np.array_equal(self.a, np.eye(self.rows, dtype=np.int64)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.p, self.shape, self.a.tobytes()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Matrix(p={self.p}, {self.rows}x{self.cols}, {self.entries})"

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "Matrix") -> None:
        if self.p != other.p:
            raise DimensionMismatch(f"mixed moduli {self.p} and {other.p}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot compose {self.shape} with {other.shape}")
        return Matrix(self.p, (self.a @ other.a) % self.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return Matrix(self.p, self.a + other.a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {other.shape} from {self.shape}")
        return Matrix(self.p, self.a - other.a)

    def __neg__(self) -> "Matrix":
        return Matrix(self.p, -self.a)

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.p, self.a * (c % self.p))

    def transpose(self) -> "Matrix":
        return Matrix(self.p, self.a.T)

    @staticmethod
    def hstack(p: int, blocks: Sequence["Matrix"], rows: int | None = None) -> "Matrix":
        if not blocks:
            if rows is None:
                raise DimensionMismatch("empty hstack needs an explicit row count")
            return Matrix.zeros(p, rows, 0)
        return Matrix(p, np.hstack([b.a for b in blocks]))

    @staticmethod
    def vstack(p: int, blocks: Sequence["Matrix"], cols: int | None = None) -> "Matrix":
        if not blocks:
            if cols is None:
                raise DimensionMismatch("empty vstack needs an explicit column count")
            return Matrix.zeros(p, 0, cols)
        return Matrix(p, np.vstack([b.a for b in blocks]))

    @staticmethod
    def block(p: int, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a block matrix from a rectangular grid of blocks."""
        rows = [Matrix.hstack(p, list(r)) for r in grid]
        return Matrix.vstack(p, rows)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with the leftmost-pivot convention.

        Returns (R, pivots) where pivots lists the pivot column of each
        nonzero row of R in order.
        """
        m, n = self.shape
        if m * n <= _RREF_SMALL_ENTRIES:
            rows, pivots = _rref_int_rows(self.a.tolist(), n, self.p)
            a = np.array(rows, dtype=np.int64).reshape(m, n)
        else:
            a, pivots = _rref_rank1(self.a, self.p)
        return Matrix(self.p, a), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns form the deterministic basis of the kernel.

        One basis vector per free column f of the echelon form: entry 1 at f,
        minus the echelon entry at each pivot position, 0 elsewhere.
        """
        R, pivots = self.rref()
        is_free = np.ones(self.cols, dtype=bool)
        is_free[list(pivots)] = False
        free = np.flatnonzero(is_free)
        basis = np.zeros((self.cols, free.size), dtype=np.int64)
        basis[free, np.arange(free.size)] = 1
        basis[list(pivots)] = -R.a[:len(pivots), free]
        return Matrix(self.p, basis)

    def solve(self, rhs: "Matrix") -> Optional["Matrix"]:
        """One solution X of self @ X = rhs, or None when inconsistent.

        Columns of rhs are solved independently; free variables are set to 0,
        so the choice of solution is deterministic.
        """
        self._check_field(rhs)
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"rhs has {rhs.rows} rows, expected {self.rows}")
        aug = Matrix.hstack(self.p, [self, rhs])
        R, pivots = aug.rref()
        n = self.cols
        if any(c >= n for c in pivots):
            return None
        x = np.zeros((n, rhs.cols), dtype=np.int64)
        x[list(pivots)] = R.a[:len(pivots), n:]
        return Matrix(self.p, x)

    def right_inverse(self) -> Optional["Matrix"]:
        return self.solve(Matrix.identity(self.p, self.rows))

    def inverse(self) -> Optional["Matrix"]:
        if self.rows != self.cols:
            return None
        return self.right_inverse()

    def cokernel_projection(self) -> tuple["Matrix", int]:
        """Deterministic model of the quotient F_p^rows / column space.

        Returns (q, d) with q of shape d x rows, q @ self = 0, q of full row
        rank and d = rows - rank(self).  Rows of q are the deterministic
        kernel basis of the transpose.
        """
        q = self.transpose().kernel_basis().transpose()
        return q, q.rows

    def column_space_basis(self) -> "Matrix":
        """Columns of self at the pivot positions (leftmost independent set)."""
        _, pivots = self.rref()
        return Matrix(self.p, self.a[:, list(pivots)])


def _rref_int_rows(rows: list[list[int]], n: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of a small matrix held as Python int rows."""
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        i = next((i for i in range(r, m) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        pivot_row = rows[r] = [x * inv % p for x in rows[r]]
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                rows[j] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
    return rows, pivots


def _rref_rank1(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination with one rank-1 numpy update per pivot.

    Rows from r down are zero left of column c, so the swap, the scaling and
    the update touch only columns c onward.  Entries stay in [0, p) and
    p < 2**15, so the products cannot overflow int64.
    """
    a = a.copy()
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        below = np.flatnonzero(a[r:, c])
        if below.size == 0:
            continue
        i = r + int(below[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        targets = np.flatnonzero(factors)
        if targets.size:
            a[targets, c:] = (a[targets, c:] - np.outer(factors[targets], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots
