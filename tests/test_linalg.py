"""Exact linear algebra over small prime fields."""

import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtra import DimensionMismatch, Matrix, Quiver, Representation, ValidationError
from filtra.linalg import (_MAX_ENTRIES, _MODULUS_BOUND, _RREF_SMALL_ENTRIES, PrimeField,
                           _is_prime, _reduce, _rref_rank1, stack_ranks)


def random_matrix(rng, p, rows, cols):
    return Matrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                  shape=(rows, cols))


def test_prime_field_rejects_composites():
    PrimeField(2)
    PrimeField(13)
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(ValidationError):
            PrimeField(bad)


def test_scale_takes_an_integer_scalar():
    m = Matrix(3, [[1, 2], [0, 1]])
    for c in (1.5, 2.0, "2", None):
        with pytest.raises(ValidationError, match="scalar must be an integer"):
            m.scale(c)
    assert m.scale(True) == m and m.scale(np.int64(5)) == m.scale(2) == Matrix(3, [[2, 1], [0, 2]])
    assert m.scale(-1).a.dtype == np.int64


def test_is_prime_matches_a_sieve():
    # every n below PrimeField's bound of 2^15
    bound = 2 ** 15
    sieve = [False, False] + [True] * (bound - 2)
    for n in range(2, bound):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, bound, n))
    assert [n for n in range(bound) if _is_prime(n)] == [n for n in range(bound) if sieve[n]]


def test_prime_field_checks_size_before_primality():
    # 2^61 - 1 is prime: trial division would run to about 1.5e9
    with pytest.raises(ValidationError, match="too large"):
        PrimeField(2 ** 61 - 1)
    with pytest.raises(ValidationError, match="too large"):
        PrimeField(2 ** 15)
    PrimeField(32749)


def test_constructors_refuse_a_modulus_that_is_not_prime():
    # over Z/4, 2 is neither zero nor invertible, so inverse and rank would
    # answer nonsense; the constructors refuse the modulus instead
    for bad, match in ((4, "prime"), (1, "prime"), (True, "prime"), (3.0, "prime"),
                       (2 ** 15, "too large")):
        with pytest.raises(ValidationError, match=match):
            Matrix(bad, [[2]])
    a1 = Quiver.from_edges(1, [])
    a2 = Quiver.from_edges(2, [("a", 0, 1)])
    for bad in (1, 4, 2 ** 15):
        with pytest.raises(ValidationError, match="modulus"):
            Representation.simple(a2, bad, 0)
        # no arrow matrix to carry the modulus: only the representation checks it
        with pytest.raises(ValidationError, match="modulus"):
            Representation(a1, bad, (1,), [])
    wrapped = Matrix._wrap(4, np.array([[2]], dtype=np.int64))  # unchecked by design
    with pytest.raises(ValidationError, match="modulus"):
        Representation(a2, 4, (1, 1), [wrapped])
    assert Matrix(3, [[2]]).inverse() == Matrix(3, [[2]])


def test_matmul_and_identity():
    m = Matrix(5, [[1, 2], [3, 4]])
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
    m = Matrix(2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
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
            assert m @ r == Matrix.identity(p, m.rows)
    assert solved == 150


def test_solve_detects_inconsistency():
    m = Matrix(2, [[1, 0], [1, 0]])
    rhs = Matrix(2, [[1], [0]])
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
        assert m @ inv == Matrix.identity(p, n) == inv @ m
        found += 1
    assert found > 50


def test_cokernel_projection_is_exact():
    rng = random.Random(9)
    for _ in range(120):
        p = rng.choice([2, 3])
        m = random_matrix(rng, p, rng.randrange(5), rng.randrange(5))
        q = m.cokernel_projection()
        assert q.rows == m.rows - m.rank() and q.cols == m.rows
        assert (q @ m).is_zero()
        assert q.rank() == q.rows


def test_block_assembly_matches_entries():
    a = Matrix(3, [[1]])
    b = Matrix(3, [[2]])
    assert Matrix.hstack(3, [a, b]).entries == [[1, 2]]
    assert Matrix.vstack(3, [a, b]).entries == [[1], [2]]
    # stacks are not reduced again, so a block over another field is refused
    for stack in (Matrix.hstack, Matrix.vstack):
        with pytest.raises(DimensionMismatch, match="moduli"):
            stack(2, [Matrix(2, [[1]]), b])


def test_stacks_need_a_block():
    # no row or column count to fall back on: an empty stack is refused
    for stack, name in ((Matrix.hstack, "hstack"), (Matrix.vstack, "vstack")):
        with pytest.raises(DimensionMismatch, match=f"{name} needs at least one block"):
            stack(3, [])


def test_entries_are_reduced_mod_p():
    m = Matrix(3, [[4, -1]])
    assert m.entries == [[1, 2]]


def test_matrix_refuses_assignment():
    m = Matrix(3, [[1, 2]])
    for name, value in (("a", np.zeros((1, 2), dtype=np.int64)), ("p", 5), ("foo", 1)):
        with pytest.raises(AttributeError, match="Matrix is immutable"):
            setattr(m, name, value)
    assert m.p == 3 and m.entries == [[1, 2]] and not hasattr(m, "foo")


def test_matrix_refuses_non_integer_entries():
    for entries in ([[0.5]], [[1.0]], np.ones((2, 2)), [["1"]], [[None]], [[1, 2.5]]):
        with pytest.raises(ValidationError, match="must be integers"):
            Matrix(3, entries)
    for entries in ([[2 ** 63]], [[2 ** 70]], [[-2 ** 63 - 1]], [[1], [2 ** 64]]):
        with pytest.raises(ValidationError, match="int64"):
            Matrix(3, entries)
    with pytest.raises(DimensionMismatch):
        Matrix(3, [[1], [1, 2]])
    with pytest.raises(DimensionMismatch):
        Matrix(3, [1, 2, 3], shape=(2, 2))
    # empty data reads as float64 in numpy, and bools and every integer dtype are integers
    assert Matrix(3, [], shape=(0, 2)).shape == (0, 2)
    assert Matrix(3, [[True, False]]).entries == [[1, 0]]
    assert Matrix(3, np.array([[-7]], dtype=np.int8)).entries == [[2]]
    assert Matrix(3, np.array([[2 ** 63 - 1]], dtype=np.uint64)).entries == [[1]]
    assert Matrix(3, np.array([[5, -1]], dtype=object)).entries == [[2, 2]]


def test_matrix_takes_a_shape_from_flat_or_empty_data_only():
    # rows of another shape are refused, never reshaped into the one asked for
    for entries in ([[1], [0], [0], [1]], [[1, 0, 0, 1]], np.eye(2, dtype=np.int64)[None]):
        with pytest.raises(DimensionMismatch, match="is not of shape"):
            Matrix(3, entries, shape=(2, 2))
    assert Matrix(3, [1, 0, 0, 1], shape=(2, 2)) == Matrix.identity(3, 2)
    assert Matrix(3, [[1, 0], [0, 1]], shape=(2, 2)) == Matrix.identity(3, 2)
    assert Matrix(3, [], shape=(0, 2)).shape == (0, 2)
    assert Matrix(3, [[], []], shape=(2, 0)).shape == (2, 0)
    # so from_dict takes a map's rows at the arrow's shape only
    quiver = Quiver.from_edges(2, [("a", 0, 1)])
    with pytest.raises(DimensionMismatch):
        Representation.from_dict(quiver, 2, (2, 2), {"a": [[1, 1, 0, 1]]})
    assert Representation.from_dict(quiver, 2, (2, 2), {"a": [1, 1, 0, 1]}).maps[0].entries \
        == [[1, 1], [0, 1]]


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


def _assert_valid(x):
    """x is a Matrix as the validating constructor would build it."""
    assert x.a.dtype == np.int64 and x.a.flags.writeable is False
    assert ((x.a >= 0) & (x.a < x.p)).all()
    rebuilt = Matrix(x.p, x.a.copy())
    assert _same_bytes(x, rebuilt) and x == rebuilt and hash(x) == hash(rebuilt)


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
    p = m.p
    R, pivots = m.rref()
    R_ref, pivots_ref = _reference_rref(m)
    assert pivots == pivots_ref and _same_bytes(R, R_ref)
    assert m.rank() == len(pivots_ref)
    assert _same_bytes(m.kernel_basis(), _reference_kernel_basis(m))
    x, x_ref = m.solve(rhs), _reference_solve(m, rhs)
    assert (x is None) == (x_ref is None)
    assert x is None or _same_bytes(x, x_ref)
    inv, inv_ref = m.right_inverse(), _reference_solve(m, Matrix.identity(p, m.rows))
    assert (inv is None) == (inv_ref is None)
    assert inv is None or _same_bytes(inv, inv_ref)
    if m.rows == m.cols:
        square = m.inverse()
        assert (square is None) == (inv_ref is None)
        assert square is None or _same_bytes(square, inv_ref)
    q = m.cokernel_projection()
    q_ref = _reference_kernel_basis(m.transpose()).transpose()
    assert _same_bytes(q, q_ref)
    # every other result against the validating constructor on the same numpy expression
    a, b = m.a, rhs.a
    mt = m.transpose()
    results = {
        "transpose": (mt, a.T),
        "matmul": (mt @ rhs, a.T @ b),
        "add": (m + R, a + R.a),
        "sub": (m - R, a - R.a),
        "hstack": (Matrix.hstack(p, [m, rhs]), np.hstack([a, b])),
        "vstack": (Matrix.vstack(p, [m, m]), np.vstack([a, a])),
        "vstack_t": (Matrix.vstack(p, [rhs.transpose(), mt]), np.vstack([b.T, a.T])),
        "zeros": (Matrix.zeros(p, m.rows, m.cols), np.zeros(a.shape, dtype=np.int64)),
        "identity": (Matrix.identity(p, m.rows), np.eye(m.rows, dtype=np.int64)),
    }
    for name, (got, expr) in results.items():
        assert _same_bytes(got, Matrix(p, expr)), name
    returned = [R, m.kernel_basis(), q, *(r for r, _ in results.values())]
    returned += [r for r in (x, inv) if r is not None]
    for r in returned:
        _assert_valid(r)


@pytest.mark.parametrize("p", [2, 3, 32749])
def test_rank1_finishes_an_elimination_begun_elsewhere(p):
    # the leading rows are finished pivot rows of a matrix's reduced form,
    # plus multiples of its other rows whose pivots lie further right; the
    # rows below are random combinations of those other rows, so they are
    # zero in the finished pivot columns and left of their first nonzero column
    rng = np.random.default_rng(p)
    for rows, cols in [(12, 15), (20, 30), (30, 20), (9, 40)] * 10:
        rank = int(rng.integers(1, min(rows, cols) + 1))
        b = rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols)) % p
        echelon, pivots = _reduce(b, p)
        done = np.sort(rng.choice(len(pivots), int(rng.integers(0, len(pivots) + 1)),
                                  replace=False))
        others = np.setdiff1d(np.arange(len(pivots)), done)
        right = np.array(pivots)[others] > np.array(pivots)[done][:, None]
        head = (echelon[done] + rng.integers(0, p, right.shape) * right @ echelon[others]) % p
        tail = rng.integers(0, p, (rows - len(done), len(others))) @ echelon[others] % p
        a = np.concatenate((head, tail))
        whole, whole_pivots = _reduce(a, p)
        nonzero = np.flatnonzero(tail.any(axis=0))
        found = [pivots[k] for k in done]
        if nonzero.size:
            found += _rref_rank1(a, p, len(done), int(nonzero[0]))
        a[:len(found)] = a[np.argsort(found)]
        assert tuple(sorted(found)) == whole_pivots
        assert a.tobytes() == whole.tobytes()


def _finish_case(rng, p, rows, cols, done, density=1.0):
    """A system as quiverrep._hom_rref leaves it: done finished pivot rows
    [I | R] on top of rows that are zero on the first done columns.  The
    rows below have rank about half their count, so some columns hold no
    pivot, and a fraction density of their entries is kept."""
    rest = cols - done
    rank = (rows - done) // 2
    below = rng.integers(0, p, (rows - done, rank)) @ rng.integers(0, p, (rank, rest)) % p
    below *= rng.random(below.shape) < density
    top = np.concatenate((np.eye(done, dtype=np.int64), rng.integers(0, p, (done, rest))), 1)
    bottom = np.concatenate((np.zeros((rows - done, done), dtype=np.int64), below), 1)
    return np.concatenate((top, bottom))


@pytest.mark.parametrize("p", [2, 3, 32749])
@pytest.mark.parametrize("rows, cols, done, density", [
    (128, 128, 64, 1.0),   # a homext Kronecker system at (8, 8)
    (135, 156, 81, 1.0),   # a homext D4 system at (9, 5, 5, 5)
    (300, 200, 0, 1.0),    # a plain elimination
    (135, 156, 0, 0.07),   # 7% dense: most rows have no factor at a pivot
    (135, 156, 81, 0.07),
])
def test_rank1_matches_the_reference_at_benchmark_shapes(p, rows, cols, done, density):
    rng = np.random.default_rng([p, rows, cols, done])
    a = _finish_case(rng, p, rows, cols, done, density)
    whole, whole_pivots = _reference_rref(Matrix(p, a))
    nonzero = np.flatnonzero(a[done:].any(axis=0))
    found = list(range(done)) + _rref_rank1(a, p, done, int(nonzero[0]))
    a[:len(found)] = a[np.argsort(found)]
    assert tuple(sorted(found)) == whole_pivots
    assert a.tobytes() == whole.a.tobytes()


def test_delayed_reduction_cannot_overflow_int64():
    # _rref_rank1 leaves its updates unreduced: each moves an entry by less
    # than p**2, and a matrix of at most _MAX_ENTRIES entries has at most
    # isqrt(_MAX_ENTRIES) pivots
    assert isqrt(_MAX_ENTRIES) * (_MODULUS_BOUND - 1) ** 2 + _MODULUS_BOUND < 2 ** 63


@st.composite
def _stacks(draw):
    """A stack of matrices of drawn ranks and zero patterns, all of one shape."""
    p = draw(st.sampled_from([2, 3, 5, 32749]))
    rows, cols = draw(st.one_of(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.sampled_from([(1, 9), (9, 1), (3, 12), (12, 3), (2, 30), (30, 2)])))
    n = draw(st.sampled_from([0, 1, 37]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ranks = rng.integers(0, min(rows, cols) + 1, n)
    a = np.zeros((n, rows, cols), dtype=np.int64)
    for k, rank in enumerate(ranks):
        a[k] = rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols)) % p
    a *= rng.random(a.shape) < draw(st.sampled_from([0.3, 1.0]))
    return p, a


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_stack_ranks_match_matrix_rank(stack):
    p, a = stack
    ranks = stack_ranks(a, p)
    assert ranks.shape == (len(a),)
    assert ranks.tolist() == [Matrix(p, m).rank() for m in a]
