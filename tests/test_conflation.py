"""Conflations, extension classes, and the composition axioms."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtra import (Conflation, DimensionMismatch, Representation, ThetaFamily,
                    ValidationError, class_of, complete_square,
                    conflation_direct_sum, conflations_equivalent,
                    connecting_map, et4_compose, et4op_compose, ext_space,
                    hom_space, is_isomorphic, is_split, pullback, pushforward,
                    realize, shift_base)
from filtra import ExtClass, Matrix, Quiver, errors, linalg
from filtra.quiverrep import RepMorphism, _intertwiner_system
from filtra.selftest import _random_automorphism, random_conflation, scramble_middle


def test_ext_dimension_spot_values(s1, s2, p1):
    assert ext_space(s1, s2).dimension == 1
    assert ext_space(s2, s1).dimension == 0
    assert ext_space(s1, p1).dimension == 0
    assert ext_space(p1, s1).dimension == 0
    assert ext_space(p1, s2).dimension == 0
    assert ext_space(p1, p1).dimension == 0


def _matrix_bytes(m: Matrix):
    return m.p, m.shape, m.a.tobytes()


def _unit_class(space, k):
    return space.element([int(i == k) for i in range(space.dimension)])


def _ext_state(space):
    return (space.dimension,
            [_matrix_bytes(m) for m in (space._coboundary, space._projection, space._section)],
            [[_matrix_bytes(g) for g in _unit_class(space, k).cocycles()]
             for k in range(space.dimension)])


def test_ext_space_ignores_call_order(monkeypatch, clear_caches, a2, a3, d4):
    """Building an Ext space eliminates nothing, and reading its dimension
    (rank-nullity on the Hom elimination) builds no matrix on the space,
    whether Hom was computed first or not.  The matrices and bases built
    once coordinates are read are the same in both orders."""
    kronecker = Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)])
    # every elimination goes through linalg._reduce: rref, rank, solve, kernels
    rref_calls = []
    reduce = linalg._reduce

    def counted_reduce(a, p):
        rref_calls.append(a.shape)
        return reduce(a, p)

    def built(space):
        return [name for name in ("_coboundary", "_projection", "_section")
                if name in space.__dict__]

    monkeypatch.setattr(linalg, "_reduce", counted_reduce)
    rng = random.Random(81)
    for quiver, bound in ((a2, (2, 3)), (a3, (2, 2, 2)), (kronecker, (3, 3)),
                          (d4, (2, 2, 1, 2))):
        dimensions = []
        for p in (2, 3, 5):
            for _ in range(6):
                c = Representation.random(quiver, p, bound, rng)
                a = Representation.random(quiver, p, bound, rng)
                case = (quiver, p, c.dim, a.dim)
                clear_caches()
                rref_calls.clear()
                space = ext_space(c, a)
                assert rref_calls == [], case
                space.dimension
                assert built(space) == [], case
                ext_first = _ext_state(space)
                clear_caches()
                hom_space(c, a)
                rref_calls.clear()
                space = ext_space(c, a)
                assert space.dimension == ext_first[0]
                # the dimension is read off the cached Hom kernel
                assert rref_calls == [] and built(space) == [], case
                assert _ext_state(space) == ext_first, case
                assert rref_calls
                dimensions.append(space.dimension)
        assert max(dimensions) > 0, quiver


ORACLE_QUIVERS = {
    "A2": (Quiver.from_edges(2, [("a", 0, 1)]), 3),
    "A3 linear": (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), 2),
    "A3 middle sink": (Quiver.from_edges(3, [("a", 0, 1), ("b", 2, 1)]), 2),
    "Kronecker": (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), 3),
    "D4 centre source": (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), 2),
    "D4 centre sink": (Quiver.from_edges(4, [("a", 1, 0), ("b", 2, 0), ("c", 3, 0)]), 2),
}


@st.composite
def ext_cases(draw):
    """A quiver, a prime, C and A with zero dimensions allowed, and whether
    Hom(C, A) is computed before the Ext space."""
    quiver, top = ORACLE_QUIVERS[draw(st.sampled_from(sorted(ORACLE_QUIVERS)))]
    p = draw(st.sampled_from([2, 3, 5]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    bound = (top,) * quiver.vertex_count
    c, a = (Representation.random(quiver, p, bound, rng) for _ in range(2))
    return c, a, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(case=ext_cases())
def test_ext_dimension_is_the_cokernel_count(case):
    c, a, hom_first = case
    errors.clear_caches()
    if hom_first:
        hom_space(c, a)
    space = ext_space(c, a)
    dimension = space.dimension
    assert not {"_coboundary", "_projection", "_section"} & set(space.__dict__)
    # an elimination of the cokernel on its own, apart from every cache
    expected = _intertwiner_system(c, a).cokernel_projection().rows
    assert dimension == expected
    failures = {(j, i): d for j, i, d in ThetaFamily.ordering_failures((a, c))}
    assert failures.get((1, 0), 0) == expected
    # the basis cocycles read in place from the section, against ExtClass.cocycles
    assert [[_matrix_bytes(g) for g in cocycles] for cocycles in space.basis_cocycles()] == \
        [[_matrix_bytes(g) for g in _unit_class(space, k).cocycles()]
         for k in range(space.dimension)]


def test_ext_coordinates_refuse_other_moduli(s1, s2, a2):
    # cocycles are wrapped as they are, so a block over another field is refused
    space = ext_space(s1, s2)
    assert space.coordinates([Matrix(2, [[1]])]) == (1,)
    with pytest.raises(DimensionMismatch, match="over F_3"):
        space.coordinates([Matrix(3, [[2]])])


def test_ext_class_holds_reduced_coordinates(s1, s2):
    # however a class is built, it stores its coordinates mod p, so it
    # compares equal to the class that class_of finds for its realization
    space = ext_space(s1, s2)
    for coords, reduced in (((2,), (0,)), ((-1,), (1,)), ((5,), (1,))):
        delta = ExtClass(space, coords)
        assert delta.coords == reduced
        assert delta == space.element(reduced) == class_of(realize(delta))
        assert delta.is_zero() == (reduced == (0,))
    assert ExtClass(space, (2,)) == space.element((0,)) and ExtClass(space, (2,)).is_zero()
    assert space.element((3,)).cocycles() == space.element((1,)).cocycles()
    for make in (lambda c: ExtClass(space, c), space.element):
        with pytest.raises(DimensionMismatch, match="expected 1 coordinates, got 2"):
            make((1, 0))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ext_class_arithmetic_is_coordinate_arithmetic(p):
    # a class built from a sum or a multiple of coordinates holds them mod p,
    # and its cocycles are the blockwise sum or multiple: cocycles() is linear
    kronecker = Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)])
    rng = random.Random(2400 + p)
    spaces = [ext_space(Representation.random(kronecker, p, (2, 2), rng),
                        Representation.random(kronecker, p, (2, 2), rng)) for _ in range(12)]
    assert any(space.dimension > 1 for space in spaces)
    for space in spaces:
        n = space.dimension
        zero = space.element((0,) * n)
        assert zero.coords == (0,) * n and zero.is_zero()
        for _ in range(4):
            a = [rng.randrange(-2 * p, 2 * p) for _ in range(n)]
            b = [rng.randrange(-2 * p, 2 * p) for _ in range(n)]
            c = rng.randrange(-2 * p, 2 * p)
            x, y = space.element(a), space.element(b)
            total = space.element([i + j for i, j in zip(a, b)])
            assert total.coords == tuple((i + j) % p for i, j in zip(a, b))
            assert total.cocycles() == tuple(g + h for g, h in zip(x.cocycles(), y.cocycles()))
            multiple = space.element([c * i for i in a])
            assert multiple.coords == tuple(c * i % p for i in a)
            assert multiple.cocycles() == tuple(g.scale(c) for g in x.cocycles())
            assert space.element([p * i for i in a]) == zero


def test_conflation_validates_exactness(s1, s2, p1):
    c = Conflation.split(s2, s1)
    assert c.B.dim == (1, 1)
    # a non-exact middle is rejected: direct sum maps with the wrong quotient
    with pytest.raises((ValidationError, DimensionMismatch)):
        Conflation(s2, c.B, s2, c.x, c.y)


def test_realize_class_of_round_trip(a2):
    rng = random.Random(21)
    for _ in range(40):
        m = Representation.random(a2, 2, (2, 2), rng)
        n = Representation.random(a2, 2, (2, 2), rng)
        space = ext_space(m, n)
        coords = [rng.randrange(2) for _ in range(space.dimension)]
        delta = space.element(coords)
        assert class_of(realize(delta)) == delta


def test_class_of_is_invariant_under_middle_change(a2):
    rng = random.Random(22)
    for _ in range(30):
        c = random_conflation(rng, a2, 2, (2, 2))
        assert class_of(scramble_middle(rng, c)) == class_of(c)


def test_nonsplit_extension_of_simples(s1, s2, p1):
    c = realize(ext_space(s1, s2).element([1]))
    assert is_isomorphic(c.B, p1)
    assert is_split(c) is None


def test_split_witness_identities(a2):
    rng = random.Random(23)
    found = 0
    for _ in range(60):
        c = random_conflation(rng, a2, 3, (1, 1))
        w = is_split(c)
        assert (w is not None) == class_of(c).is_zero()
        if w is not None:
            found += 1
            assert w.retraction @ c.x == RepMorphism.identity(c.A)
            assert c.y @ w.section == RepMorphism.identity(c.C)
            assert (w.retraction @ w.section).is_zero()
            assert c.x @ w.retraction + w.section @ c.y == RepMorphism.identity(c.B)
    assert found > 10


def test_ext_biadditivity_in_dimensions(a2):
    from filtra import direct_sum
    rng = random.Random(24)
    for _ in range(20):
        m = Representation.random(a2, 2, (2, 2), rng)
        n = Representation.random(a2, 2, (2, 2), rng)
        x = Representation.random(a2, 2, (2, 2), rng)
        both = direct_sum(m, n).rep
        assert ext_space(both, x).dimension == \
            ext_space(m, x).dimension + ext_space(n, x).dimension
        assert ext_space(x, both).dimension == \
            ext_space(x, m).dimension + ext_space(x, n).dimension


def test_pushforward_pullback_are_linear(a2):
    rng = random.Random(25)
    for _ in range(30):
        c = random_conflation(rng, a2, 2, (2, 2))
        delta = class_of(c)
        zero_a = RepMorphism.zero(c.A, c.A)
        zero_c = RepMorphism.zero(c.C, c.C)
        assert pushforward(zero_a, delta).is_zero()
        assert pullback(zero_c, delta).is_zero()
        assert pushforward(RepMorphism.identity(c.A), delta) == delta
        assert pullback(RepMorphism.identity(c.C), delta) == delta


def test_connecting_map_exactness(s1, s2, p1):
    # 0 -> S2 -> P1 -> S1 -> 0 against X = S2:
    # hom(S2, S2) -> ext(S1, S2) must be onto since hom(S2, P1) -> hom(S2, S2)
    # is zero (P1 has no S2 quotient) and ext(S1, P1) = 0
    c = realize(ext_space(s1, s2).element([1]))
    left = connecting_map(c, s2, side="right")
    assert left.shape == (1, 1) and left.rank() == 1
    # against X = S1 on the other side: hom(S1, S1) -> ext(S1, S2) is onto
    right = connecting_map(c, s1, side="left")
    assert right.shape == (1, 1) and right.rank() == 1


def test_connecting_map_kills_factoring_morphisms(a2):
    rng = random.Random(26)
    for _ in range(20):
        c = random_conflation(rng, a2, 2, (2, 2))
        # pullback along the deflation itself gives zero: the composite
        # extension splits by construction
        assert pullback(c.y, class_of(c)).space.dimension == \
            ext_space(c.B, c.A).dimension
        assert pullback(c.y, class_of(c)).is_zero()
        assert pushforward(c.x, class_of(c)).is_zero()


def test_complete_square_and_morphism_of_extensions(s1, s2, p1):
    c = realize(ext_space(s1, s2).element([1]))
    ident_a = RepMorphism.identity(s2)
    ident_b = RepMorphism.identity(c.B)
    induced = complete_square(ident_a, ident_b, c, c)
    assert induced == RepMorphism.identity(s1)


def _random_morphism(rng, source, target):
    f = RepMorphism.zero(source, target)
    for g in hom_space(source, target):
        f = f + g.scale(rng.randrange(source.p))
    return f


def test_complete_square_random(a2, a3):
    # squares that commute by construction: the pushout squares of shift_base,
    # and b = identity between a scrambled conflation and its twist by
    # automorphisms of the end objects
    rng = random.Random(32)
    twisted = 0
    for quiver in (a2, a3):
        bound = (2,) * quiver.vertex_count
        for p in (2, 3):
            for _ in range(15):
                c1 = random_conflation(rng, quiver, p, bound)
                x = Representation.random(quiver, p, bound, rng)
                a = _random_morphism(rng, c1.A, x)
                c2, b = shift_base(a, c1)
                # (a, b, c2, the induced map on quotients)
                squares = [(a, b, c2, RepMorphism.identity(c1.C))]
                phi = _random_automorphism(rng, c1.A)
                psi = _random_automorphism(rng, c1.C)
                if phi is not None and psi is not None:
                    twist = Conflation(c1.A, c1.B, c1.C, c1.x @ phi.inverse(), psi @ c1.y)
                    squares.append((phi, RepMorphism.identity(c1.B), twist, psi))
                    twisted += psi != RepMorphism.identity(c1.C)
                for a, b, c2, expected in squares:
                    c = complete_square(a, b, c1, c2)
                    assert c @ c1.y == c2.y @ b
                    assert pushforward(a, class_of(c1)) == pullback(c, class_of(c2))
                    assert c == expected
    assert twisted >= 20


def reference_shift_base(a, c):
    """shift_base as it was composed before: class_of, pushforward and
    realize, with the cocycle extracted and the pushed class read twice."""
    from filtra.conflation import _extracted_cocycle
    delta = class_of(c)
    moved = pushforward(a, delta)
    shifted = realize(moved)
    g, _, retractions = _extracted_cocycle(c)
    quiver, p = c.B.quiver, c.B.p
    pushed = [a.components[arr.target] @ g[k] for k, arr in enumerate(quiver.arrows)]
    h = moved.space.coboundary_solve([pg - eg for pg, eg in zip(pushed, moved.cocycles())])
    comps = [Matrix.vstack(p, [a.components[v] @ retractions[v] + h[v] @ c.y.components[v],
                               c.y.components[v]], cols=c.B.dim[v])
             for v in range(quiver.vertex_count)]
    return shifted, RepMorphism(c.B, shifted.B, comps, check=False)


def _conflation_bytes(c):
    return ([c.A.dim, c.B.dim, c.C.dim]
            + [_matrix_bytes(m) for r in (c.A, c.B, c.C) for m in r.maps]
            + [_matrix_bytes(m) for f in (c.x, c.y) for m in f.components])


def test_shift_base_pushout(a2, a3):
    # the shifted conflation and b are also the bytes of the earlier
    # composition, which extracted the cocycle and read a_* delta twice
    rng = random.Random(27)
    for quiver in (a2, a3):
        bound = (2,) * quiver.vertex_count
        for p in (2, 3):
            for _ in range(20):
                c = random_conflation(rng, quiver, p, bound)
                x = Representation.random(quiver, p, bound, rng)
                basis = hom_space(c.A, x)
                if not basis:
                    continue
                a = basis[rng.randrange(len(basis))].scale(1 + rng.randrange(p - 1))
                shifted, b = shift_base(a, c)
                assert shifted.A == x and shifted.C == c.C
                assert class_of(shifted) == pushforward(a, class_of(c))
                assert b @ c.x == shifted.x @ a
                assert shifted.y @ b == c.y
                ref_shifted, ref_b = reference_shift_base(a, c)
                assert _conflation_bytes(shifted) == _conflation_bytes(ref_shifted)
                assert [_matrix_bytes(m) for m in b.components] == \
                    [_matrix_bytes(m) for m in ref_b.components]


def test_et4_compose_compatibilities(a2, a3):
    rng = random.Random(28)
    for quiver in (a2, a3):
        bound = (1,) * quiver.vertex_count
        for p in (2, 3):
            for _ in range(25):
                c1 = random_conflation(rng, quiver, p, bound)
                f_obj = Representation.random(quiver, p, bound, rng)
                space = ext_space(f_obj, c1.B)
                c2 = realize(space.element([rng.randrange(p)
                                            for _ in range(space.dimension)]))
                res = et4_compose(c1, c2)
                assert res.composite.A == c1.A and res.composite.B == c2.B
                assert res.quotient.A == c1.C and res.quotient.C == c2.C
                assert class_of(res.quotient) == pushforward(c1.y, class_of(c2))
                assert pullback(res.quotient.x, class_of(res.composite)) == class_of(c1)
                assert pushforward(c1.x, class_of(res.composite)) == \
                    pullback(res.quotient.y, class_of(c2))


def test_et4op_compose_compatibilities(a2, a3):
    rng = random.Random(29)
    for quiver in (a2, a3):
        bound = (1,) * quiver.vertex_count
        for p in (2, 3):
            for _ in range(25):
                c2 = random_conflation(rng, quiver, p, bound)
                a_obj = Representation.random(quiver, p, bound, rng)
                # realize keeps the base object literal, so c1's quotient is c2.B
                space = ext_space(c2.B, a_obj)
                c1 = realize(space.element([rng.randrange(p)
                                            for _ in range(space.dimension)]))
                res = et4op_compose(c1, c2)
                assert res.composite.B == c1.B and res.composite.C == c2.C
                assert res.kernel.A == c1.A and res.kernel.C == c2.A
                assert class_of(res.kernel) == pullback(c2.x, class_of(c1))
                assert pushforward(res.kernel.y, class_of(res.composite)) == class_of(c2)
                assert pullback(c2.y, class_of(res.composite)) == \
                    pushforward(res.kernel.x, class_of(c1))


def test_conflation_direct_sum_adds_classes(s1, s2):
    c1 = realize(ext_space(s1, s2).element([1]))
    c2 = Conflation.split(s2, s1)
    both = conflation_direct_sum(c1, c2)
    assert both.B.dim == (2, 2)
    assert is_split(both) is None


def test_conflations_equivalent_same_class(s1, s2, a3):
    space = ext_space(s1, s2)
    c1 = realize(space.element([1]))
    rng = random.Random(30)
    c2 = scramble_middle(rng, c1)
    b = conflations_equivalent(c1, c2)
    assert b is not None and b.is_isomorphism()
    assert b @ c1.x == c2.x and c2.y @ b == c1.y
    # the split conflation over the same ends is not equivalent
    c3 = Conflation.split(s2, s1)
    assert conflations_equivalent(c1, c3) is None
    # over A3 at p = 3 the middle objects have nontrivial automorphisms, so
    # the comparison map is a genuine solve rather than the identity
    moved = 0
    for _ in range(30):
        c1 = random_conflation(rng, a3, 3, (2, 2, 2))
        c2 = scramble_middle(rng, c1)
        moved += c2.x != c1.x
        b = conflations_equivalent(c1, c2)
        assert b is not None and b.is_isomorphism()
        assert b @ c1.x == c2.x and c2.y @ b == c1.y
        split = conflations_equivalent(c1, Conflation.split(c1.A, c1.C))
        assert (split is None) == (not class_of(c1).is_zero())
    assert moved >= 20


def reference_conflations_equivalent(c1, c2):
    """conflations_equivalent as it was solved before: the system of
    morphisms B1 -> B2 with the rows of b x1 = x2 and y2 b = y1 below it,
    one solve; the solution, or None."""
    B1, B2, p = c1.B, c2.B, c1.B.p
    hom = _intertwiner_system(B1, B2).a
    offsets = np.cumsum([0] + [d1 * d2 for d1, d2 in zip(B1.dim, B2.dim)])
    blocks, rhs = [hom], [np.zeros(hom.shape[0], dtype=np.int64)]
    for v in range(B1.quiver.vertex_count):
        # row-major vec(L f R) = (L kron R^T) vec(f)
        for coeff, value in ((np.kron(np.eye(B2.dim[v], dtype=np.int64), c1.x.components[v].a.T),
                              c2.x.components[v]),
                             (np.kron(c2.y.components[v].a, np.eye(B1.dim[v], dtype=np.int64)),
                              c1.y.components[v])):
            rows = np.zeros((coeff.shape[0], offsets[-1]), dtype=np.int64)
            rows[:, offsets[v]:offsets[v + 1]] = coeff
            blocks.append(rows)
            rhs.append(value.a.reshape(-1))
    system = Matrix(p, np.vstack(blocks))
    return system.solve(Matrix(p, np.concatenate(rhs).reshape(-1, 1)))


EQUIVALENCE_QUIVERS = {
    "A2": (Quiver.from_edges(2, [("a", 0, 1)]), (2, 2)),
    "A3": (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), (2, 2, 2)),
    "A3 middle sink": (Quiver.from_edges(3, [("a", 0, 1), ("b", 2, 1)]), (2, 2, 2)),
    "Kronecker": (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), (2, 2)),
    "D4": (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), (2, 1, 1, 1)),
}


@pytest.mark.parametrize("name", list(EQUIVALENCE_QUIVERS))
def test_conflations_equivalent_matches_the_augmented_solve(name):
    # same-ends pairs: c1 scrambled, c1 twisted by automorphisms of its ends,
    # and a random class over the same ends; the coboundary solve finds an
    # equivalence exactly when the augmented solve does
    quiver, bound = EQUIVALENCE_QUIVERS[name]
    rng = random.Random(f"equivalent-{name}")
    found = {True: 0, False: 0}
    for p in (2, 3):
        for k in range(36):
            c1 = random_conflation(rng, quiver, p, bound)
            if k % 3 == 0:
                c2 = scramble_middle(rng, c1)
            elif k % 3 == 1:
                phi = _random_automorphism(rng, c1.A) or RepMorphism.identity(c1.A)
                psi = _random_automorphism(rng, c1.C) or RepMorphism.identity(c1.C)
                c2 = Conflation(c1.A, c1.B, c1.C, c1.x @ phi.inverse(), psi @ c1.y)
            else:
                space = ext_space(c1.C, c1.A)
                c2 = scramble_middle(rng, realize(space.element(
                    [rng.randrange(p) for _ in range(space.dimension)])))
            b = conflations_equivalent(c1, c2)
            assert (b is None) == (reference_conflations_equivalent(c1, c2) is None)
            found[b is not None] += 1
            if b is not None:
                RepMorphism(b.source, b.target, b.components)  # b intertwines
                assert b.source == c1.B and b.target == c2.B and b.is_isomorphism()
                assert b @ c1.x == c2.x and c2.y @ b == c1.y
    assert found[True] >= 24 and found[False] >= 4, found


def test_identity_conflations(s2):
    left = Conflation.identity_left(s2)
    assert left.A.is_zero() and left.B == s2 and left.C == s2
    right = Conflation.identity_right(s2)
    assert right.A == s2 and right.C.is_zero()
