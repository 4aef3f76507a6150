"""Exact dense linear algebra over a prime field F_p.

Column-vector convention throughout: a matrix with r rows and c columns
represents a linear map F_p^c -> F_p^r and composition g o f is the product
g @ f.  Elimination always picks the leftmost available pivot, so ranks,
kernels, solutions and quotient projections are deterministic: repeated calls
yield bit-identical results.

``_reduce`` is the one elimination that ``rref``, ``rank`` and ``solve``
share (``kernel_basis`` reads ``rref``).  It takes a raw array, so ``rank``
builds no echelon ``Matrix`` and ``solve`` no augmented one, and picks one
of two Gauss-Jordan eliminations by the number of entries.  Matrices of at most ``_RREF_SMALL_ENTRIES`` (100)
entries are eliminated as Python int lists, where numpy's per-call overhead
would cost more than the arithmetic.  Larger ones get one numpy rank-1
update per pivot, applied only to the rows with a nonzero entry in the pivot
column and only to the columns from the pivot column onward.  The updates
are not reduced mod p: only the pivot column and the pivot row are, and one
``%= p`` ends the elimination (delayed reduction).  With p below 2**15 and
at most 2**13 pivots the unreduced entries stay below about 2**43, far
inside int64.  The reduced row echelon form is unique, so both
eliminations give the same matrix and pivots.  ``_rref_rank1`` also
finishes an elimination begun elsewhere, from a given row and column: it
eliminates the block below and right of that point in place, then clears
the block's pivot columns from the finished rows above it with one matrix
product.  quiverrep's Hom systems reduce the rows of their first vertex's
arrows in one step and leave the rest to it.

``stack_ranks`` is the batched kernel beside ``rref``: it takes an (N, r, c)
int64 stack of entries in [0, p) and returns the N ranks without building a
``Matrix``.  It makes one vectorised Gauss-Jordan step per column across the
whole stack, which is what lets the exhaustive Hom and End scans of
``quiverrep`` test thousands of candidate morphisms per numpy call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError

__all__ = ["PrimeField", "Matrix", "stack_ranks"]

# _reduce eliminates matrices of at most this many entries as Python int
# rows; perfbench's RREF_SMALL_ENTRIES splits its traced rref time here too
_RREF_SMALL_ENTRIES = 100

# the largest dense matrix built here: 2**26 int64 entries are 512 MiB
_MAX_ENTRIES = 2 ** 26

# PrimeField takes primes below this bound: _is_prime is exact there, and the
# unreduced entries of _rref_rank1 stay far inside int64
_MODULUS_BOUND = 2 ** 15


def _check_entries(what: str, rows: int, cols: int) -> None:
    """Refuse to allocate a rows x cols matrix past _MAX_ENTRIES."""
    if rows * cols > _MAX_ENTRIES:
        raise ValidationError(f"{what} of {rows} x {cols} entries is too large "
                              f"(at most {_MAX_ENTRIES} entries)")


def _integer(value, what: str) -> int:
    """value as an int (operator.index), or ValidationError: a bool counts as
    an int, and a float or a string is refused, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _as_int64(a: np.ndarray) -> np.ndarray:
    """The integer entries of a as int64; anything else is refused."""
    if a.dtype == object and all(isinstance(x, (int, np.integer, np.bool_)) for x in a.flat):
        try:
            return a.astype(np.int64)
        except OverflowError:
            raise ValidationError("matrix entries must fit in int64") from None
    if a.size and a.dtype.kind not in "biu":
        raise ValidationError(f"matrix entries must be integers, got {a.dtype} data")
    if a.dtype.kind == "u" and a.size and a.max() > np.iinfo(np.int64).max:
        raise ValidationError("matrix entries must fit in int64")
    return a.astype(np.int64)


def _check_moduli(p: int, blocks: Sequence[Matrix]) -> None:
    """A stack is wrapped unreduced, so its blocks must all be over F_p."""
    if any(b.p != p for b in blocks):
        raise DimensionMismatch(f"blocks over other moduli than {p}")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2 and 3.

    Exact for n < 1,373,653, the least strong pseudoprime to both bases,
    so for every modulus below PrimeField's bound of 2^15.
    """
    if n < 4 or n % 2 == 0 or n % 3 == 0:
        return n in (2, 3)
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    d = (n - 1) >> r
    for a in (2, 3):
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):  # a strong probable prime meets -1 among a^d, ..., a^(2^(r-1) d)
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a small prime p.

    Entries of matrices over F_p are stored as canonical representatives in
    [0, p).  The bound keeps p*p products far inside int64 range.  The
    validating Matrix and Representation constructors build one, so a
    modulus it refuses never reaches the arithmetic.
    """

    p: int

    def __post_init__(self):
        # the size check first: _is_prime is exact only below its bound
        if isinstance(self.p, int) and self.p >= _MODULUS_BOUND:
            raise ValidationError(f"modulus {self.p} is too large for exact int64 arithmetic here")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValidationError(f"modulus must be a prime integer, got {self.p!r}")


class Matrix:
    """Immutable matrix over F_p backed by an int64 numpy array.

    Zero-sized shapes (0 x c, r x 0) are first-class citizens; they occur
    whenever a quiver representation has a zero space at some vertex.
    There are two ways in.  The constructor ``Matrix(p, entries, shape)``
    takes outside data: it refuses a modulus that PrimeField refuses and
    anything but a rectangular array of integers that fit int64, reduces it
    mod p and copies it.  Given a shape, it takes rows of that shape, flat
    row-major data of that size, or empty data; rows of another shape are a
    DimensionMismatch, never reshaped.  ``_wrap`` is for the results of this
    module's own operations, fresh int64 arrays already in [0, p) that no
    caller holds, and for read-only views of them (quiverrep's Hom bases
    are views of one cached kernel array); it skips all of that.  Not a
    dataclass: the constructor takes raw entries and a shape rather than
    its fields.
    """

    __slots__ = ("p", "a", "_hash")

    def __init__(self, p: int, entries, shape: tuple[int, int] | None = None):
        PrimeField(p)  # raises ValidationError when p is not a small prime
        try:
            a = np.asarray(entries)
        except ValueError:
            raise DimensionMismatch("matrix rows must all have the same length") from None
        if shape is not None and a.shape != tuple(shape):
            if a.ndim > 1 and a.size:  # rows of another shape are not reshaped
                raise DimensionMismatch(f"matrix data of shape {a.shape} is not of shape {shape}")
            try:
                a = a.reshape(shape)
            except ValueError:
                raise DimensionMismatch(f"{a.size} entries do not fill shape {shape}") from None
        if a.ndim != 2:
            raise DimensionMismatch(f"matrix data must be 2-dimensional, got shape {a.shape}")
        if a.dtype != np.int64:
            a = _as_int64(a)
        a = np.mod(a, p)
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _wrap(p: int, a: np.ndarray) -> "Matrix":
        """The Matrix of a fresh int64 array with entries in [0, p), unchecked.

        For results computed in filtra only: ``a`` must be an array no
        caller holds (or a view of a read-only one), since it is frozen in
        place rather than copied.
        """
        a.setflags(write=False)
        m = object.__new__(Matrix)
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "a", a)
        object.__setattr__(m, "_hash", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Matrix":
        return Matrix._wrap(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Matrix":
        return Matrix._wrap(p, np.eye(n, dtype=np.int64))

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
        return not self.a.any()

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
        return Matrix._wrap(self.p, (self.a @ other.a) % self.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return Matrix._wrap(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {other.shape} from {self.shape}")
        return Matrix._wrap(self.p, (self.a - other.a) % self.p)

    def scale(self, c: int) -> "Matrix":
        return Matrix._wrap(self.p, self.a * (_integer(c, "scalar") % self.p) % self.p)

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.p, self.a.T)

    @staticmethod
    def hstack(p: int, blocks: Sequence["Matrix"]) -> "Matrix":
        if not blocks:
            raise DimensionMismatch("hstack needs at least one block")
        _check_moduli(p, blocks)
        return Matrix._wrap(p, np.concatenate([b.a for b in blocks], axis=1))

    @staticmethod
    def vstack(p: int, blocks: Sequence["Matrix"]) -> "Matrix":
        if not blocks:
            raise DimensionMismatch("vstack needs at least one block")
        _check_moduli(p, blocks)
        return Matrix._wrap(p, np.concatenate([b.a for b in blocks], axis=0))

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with the leftmost-pivot convention.

        Returns (R, pivots) where pivots lists the pivot column of each
        nonzero row of R in order.
        """
        a, pivots = _reduce(self.a, self.p)
        return Matrix._wrap(self.p, a), pivots

    def rank(self) -> int:
        return len(_reduce(self.a, self.p)[1])

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns form the deterministic basis of the kernel
        (_kernel_rows of the reduced echelon form)."""
        return self._kernel()[0]

    def _kernel(self) -> tuple["Matrix", np.ndarray]:
        """kernel_basis() and the free columns of the echelon form.

        The basis rows at the free columns are the identity, so a vector
        K @ c of the kernel has coordinates c = (K @ c)[free].
        """
        R, pivots = self.rref()
        basis, free = _kernel_rows(R.a, pivots, self.p)
        return Matrix._wrap(self.p, basis.T), free

    def solve(self, rhs: "Matrix") -> Optional["Matrix"]:
        """One solution X of self @ X = rhs, or None when inconsistent.

        Columns of rhs are solved independently; free variables are set to 0,
        so the choice of solution is deterministic.
        """
        self._check_field(rhs)
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"rhs has {rhs.rows} rows, expected {self.rows}")
        R, pivots = _reduce(np.concatenate((self.a, rhs.a), axis=1), self.p)
        n = self.cols
        if pivots and pivots[-1] >= n:
            return None
        x = np.zeros((n, rhs.cols), dtype=np.int64)
        x[list(pivots)] = R[:len(pivots), n:]
        return Matrix._wrap(self.p, x)

    def right_inverse(self) -> Optional["Matrix"]:
        return self.solve(Matrix.identity(self.p, self.rows))

    def inverse(self) -> Optional["Matrix"]:
        if self.rows != self.cols:
            return None
        return self.right_inverse()

    def cokernel_projection(self) -> "Matrix":
        """Deterministic model of the quotient F_p^rows / column space.

        Returns q of shape d x rows with q @ self = 0, q of full row rank and
        d = rows - rank(self).  Rows of q are the deterministic kernel basis
        of the transpose.
        """
        return self.transpose().kernel_basis().transpose()


def _kernel_rows(r: np.ndarray, pivots: Sequence[int], p: int) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic kernel basis of a matrix, one vector per row, and
    the free columns of its echelon form (the non-pivot columns, in order).

    r is the reduced row echelon form of the matrix and pivots its pivot
    columns.  One basis vector per free column f: entry 1 at f, minus the
    echelon entry at each pivot position, 0 elsewhere.
    """
    n = r.shape[1]
    is_free = np.ones(n, dtype=bool)
    is_free[list(pivots)] = False
    free = np.flatnonzero(is_free)
    _check_entries("kernel basis", n, free.size)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, list(pivots)] = -r[:len(pivots), free].T % p
    return basis, free


def _reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of a (entries in [0, p)) and its pivot columns.

    Returns a fresh array; a itself is left as it is.
    """
    m, n = a.shape
    if m * n <= _RREF_SMALL_ENTRIES:
        rows, pivots = _rref_int_rows(a.tolist(), n, p)
        a = np.array(rows, dtype=np.int64).reshape(m, n)
    else:
        a = a.copy()
        pivots = _rref_rank1(a, p)
    return a, tuple(pivots)


def _rref_int_rows(rows: list[list[int]], n: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of a small matrix held as Python int rows."""
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        pivot_row = rows[i]
        rows[i] = rows[r]
        if pivot_row[c] != 1:  # a pivot at p = 2 is always 1
            inv = pow(pivot_row[c], p - 2, p)
            pivot_row = [x * inv % p for x in pivot_row]
        rows[r] = pivot_row
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                rows[j] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
    return rows, pivots


def _rref_rank1(a: np.ndarray, p: int, r: int = 0, start: int = 0) -> list[int]:
    """Gauss-Jordan elimination of a in place, one rank-1 numpy update per pivot.

    Returns the pivot columns it finds.  It eliminates the block of rows r
    onward and columns start onward, a view of a, so nothing is copied.
    When the k-th pivot of the block is found in column c, the block's rows
    from k down are zero mod p left of c, so the swap, the scaling and the
    update touch only columns c onward.

    The reduction mod p is delayed (Dumas, Giorgi & Pernet 2008): each step
    reduces only the pivot column, to find the pivot and the factors, and
    the scaled pivot row; the update of the target rows, those with a
    nonzero factor, subtracts factor * row unreduced, and one ``%= p`` ends
    the elimination.  Factor and row entries lie in [0, p), so an update
    moves an entry by less than p**2 < 2**30.  A matrix of at most
    _MAX_ENTRIES entries has at most isqrt(_MAX_ENTRIES) = 2**13 pivots, so
    every entry stays below about 2**43 in absolute value, far inside int64.

    Given r and start, it finishes an elimination begun elsewhere.  Each of
    rows 0 to r - 1 must be zero left of its pivot entry, which is 1, and
    zero in the pivot columns of the others; rows r onward must be zero in
    those pivot columns and left of column start.  Once the block is
    reduced, one product clears its new pivot columns from the rows above
    r, so sorting the pivot rows by pivot column then gives the reduced row
    echelon form.
    """
    block = a[r:, start:]
    height, width = block.shape
    pivots: list[int] = []
    k = 0
    for c in range(width):
        if k == height:
            break
        factors = block[:, c] % p
        below = factors[k:].nonzero()[0]
        if below.size == 0:
            continue
        i = k + int(below[0])
        row = block[i, c:] % p
        if i != k:  # row k moves to row i, its factor with it
            block[i, c:] = block[k, c:]
            factors[i] = factors[k]
        factors[k] = 0
        row = row * pow(int(row[0]), p - 2, p) % p
        block[k, c:] = row
        targets = factors.nonzero()[0]
        if targets.size:
            block[targets, c:] -= factors[targets, None] * row
        pivots.append(start + c)
        k += 1
    block %= p
    if r and pivots:
        a[:r, start:] = (a[:r, start:] - a[:r, pivots] @ block[:k]) % p
    return pivots


def stack_ranks(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of matrices, shape (N, r, c), entries in [0, p).

    One elimination step per column of the narrower side, applied to every
    matrix of the stack at once.  Without row swaps: the pivot is the first
    row with a nonzero entry in the column, and every row becomes
    pivot * row - entry * pivot_row, written only on the later columns since
    the column is not read again.  That zeroes the pivot row and eliminates
    the column from the others while keeping the span of all rows together
    with the pivot row, so the rank is the number of pivots.  Entries stay
    in [0, p) with p < 2**15, so no product overflows int64.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)
    a = a.copy()
    n, _, c = a.shape
    ranks = np.zeros(n, dtype=np.int64)
    every = np.arange(n)
    for j in range(c):
        col = a[:, :, j]
        nonzero = col != 0
        has = nonzero.any(axis=1)
        ranks += has
        if j + 1 < c:
            piv = nonzero.argmax(axis=1)
            # scale 1 where the column is zero, which leaves the matrix as it is
            scale = np.where(has, col[every, piv], 1)
            prow = a[every, piv, j + 1:]
            a[:, :, j + 1:] = (a[:, :, j + 1:] * scale[:, None, None]
                               - col[:, :, None] * prow[:, None, :]) % p
    return ranks
