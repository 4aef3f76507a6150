"""Exact linear algebra over small prime fields."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtra import Matrix, ValidationError
from filtra.linalg import _RREF_SMALL_ENTRIES, PrimeField


def random_matrix(rng, p, rows, cols):
    return Matrix.from_rows(p, [[rng.randrange(p) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


def test_prime_field_rejects_composites():
    PrimeField(2)
    PrimeField(13)
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(ValidationError):
            PrimeField(bad)


def test_matmul_and_identity():
    m = Matrix.from_rows(5, [[1, 2], [3, 4]])
    assert (Matrix.identity(5, 2) @ m) == m
    assert (m @ Matrix.identity(5, 2)) == m


def test_rref_is_idempotent_and_pivots_monotone():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        m = random_matrix(rng, p, rng.randrange(5), rng.randrange(5))
        r, pivots = m.rref()
        assert list(pivots) == sorted(pivots)
        r2, pivots2 = r.rref()
        assert r2 == r and pivots2 == pivots


def test_rank_via_known_example():
    m = Matrix.from_rows(2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert m.rank() == 2


def test_kernel_vectors_are_killed():
    rng = random.Random(6)
    for _ in range(120):
        p = rng.choice([2, 3])
        m = random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
        basis = m.kernel_basis()
        assert basis.cols == m.cols - m.rank()
        assert (m @ basis).is_zero()
        assert basis.rank() == basis.cols


def test_solve_and_right_inverse():
    rng = random.Random(7)
    solved = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        m = random_matrix(rng, p, rng.randrange(1, 4), rng.randrange(1, 4))
        x = random_matrix(rng, p, m.cols, 1)
        rhs = m @ x
        got = m.solve(rhs)
        assert got is not None and (m @ got) == rhs
        solved += 1
        if m.rank() == m.rows:
            r = m.right_inverse()
            assert (m @ r).is_identity()
    assert solved == 150


def test_solve_detects_inconsistency():
    m = Matrix.from_rows(2, [[1, 0], [1, 0]])
    rhs = Matrix.from_rows(2, [[1], [0]])
    assert m.solve(rhs) is None


def test_inverse_round_trip():
    rng = random.Random(8)
    found = 0
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 4)
        m = random_matrix(rng, p, n, n)
        if m.rank() < n:
            continue
        inv = m.inverse()
        assert (m @ inv).is_identity() and (inv @ m).is_identity()
        found += 1
    assert found > 50


def test_cokernel_projection_is_exact():
    rng = random.Random(9)
    for _ in range(120):
        p = rng.choice([2, 3])
        m = random_matrix(rng, p, rng.randrange(5), rng.randrange(5))
        q, d = m.cokernel_projection()
        assert d == m.rows - m.rank()
        assert q.rows == d and q.cols == m.rows
        assert (q @ m).is_zero()
        assert q.rank() == d


def test_block_assembly_matches_entries():
    a = Matrix.from_rows(3, [[1]])
    b = Matrix.from_rows(3, [[2]])
    grid = Matrix.block(3, [[a, b], [b, a]])
    assert grid.entries == [[1, 2], [2, 1]]
    assert Matrix.hstack(3, [a, b]).entries == [[1, 2]]
    assert Matrix.vstack(3, [a, b]).entries == [[1], [2]]


def test_entries_are_reduced_mod_p():
    m = Matrix.from_rows(3, [[4, -1]])
    assert m.entries == [[1, 2]]


# -- the row-at-a-time elimination, kept as the reference for Matrix.rref ----

def _reference_rref(m):
    p = m.p
    a = np.array(m.a, dtype=np.int64)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        rows_below = np.nonzero(a[r:, c])[0]
        if rows_below.size == 0:
            continue
        i = r + int(rows_below[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for j in range(rows):
            if j != r and a[j, c] != 0:
                a[j] = (a[j] - a[j, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return Matrix(p, a), tuple(pivots)


def _reference_kernel_basis(m):
    R, pivots = _reference_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-R.a[i, f]) % m.p
    return Matrix(m.p, basis)


def _reference_solve(m, rhs):
    R, pivots = _reference_rref(Matrix.hstack(m.p, [m, rhs]))
    if any(c >= m.cols for c in pivots):
        return None
    x = np.zeros((m.cols, rhs.cols), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = R.a[i, m.cols:]
    return Matrix(m.p, x)


def _same_bytes(x, y):
    return x.shape == y.shape and x.a.dtype == y.a.dtype and x.a.tobytes() == y.a.tobytes()


@st.composite
def _systems(draw):
    """A matrix of a drawn rank and zero pattern, with a right-hand side.

    The shapes lie on both sides of the size at which Matrix.rref switches
    method.  32749 is the largest prime PrimeField allows, so its products come
    closest to the int64 bound.
    """
    p = draw(st.sampled_from([2, 3, 5, 32749]))
    rows, cols = draw(st.one_of(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        st.sampled_from([(11, 13), (13, 11), (40, 60), (60, 40),
                         (1, _RREF_SMALL_ENTRIES), (1, _RREF_SMALL_ENTRIES + 1),
                         (_RREF_SMALL_ENTRIES + 1, 1)])))
    rank = draw(st.integers(0, min(rows, cols)))
    density = draw(st.sampled_from([0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols)) % p
    a *= rng.random((rows, cols)) < density
    m = Matrix(p, a, shape=(rows, cols))
    rhs_cols = draw(st.integers(0, 3))
    if draw(st.booleans()):
        rhs = m @ Matrix(p, rng.integers(0, p, (cols, rhs_cols)), shape=(cols, rhs_cols))
    else:
        rhs = Matrix(p, rng.integers(0, p, (rows, rhs_cols)), shape=(rows, rhs_cols))
    return m, rhs


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_elimination_matches_reference(system):
    m, rhs = system
    R, pivots = m.rref()
    R_ref, pivots_ref = _reference_rref(m)
    assert pivots == pivots_ref and _same_bytes(R, R_ref)
    assert _same_bytes(m.kernel_basis(), _reference_kernel_basis(m))
    x, x_ref = m.solve(rhs), _reference_solve(m, rhs)
    assert (x is None) == (x_ref is None)
    assert x is None or _same_bytes(x, x_ref)
    q, d = m.cokernel_projection()
    q_ref = _reference_kernel_basis(m.transpose()).transpose()
    assert d == q_ref.rows and _same_bytes(q, q_ref)

