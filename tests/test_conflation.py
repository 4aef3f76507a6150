"""Conflations, extension classes, and the composition axioms."""

import random

import pytest

from filtra import (Conflation, DimensionMismatch, Representation,
                    ValidationError, class_of, complete_square,
                    conflation_direct_sum, conflations_equivalent,
                    connecting_map, et4_compose, et4op_compose, ext_space,
                    hom_space, is_isomorphic, is_split, pullback, pushforward,
                    realize, shift_base)
from filtra.quiverrep import RepMorphism
from filtra.selftest import random_conflation, scramble_middle


def test_ext_dimension_spot_values(s1, s2, p1):
    assert ext_space(s1, s2).dimension == 1
    assert ext_space(s2, s1).dimension == 0
    assert ext_space(s1, p1).dimension == 0
    assert ext_space(p1, s1).dimension == 0
    assert ext_space(p1, s2).dimension == 0
    assert ext_space(p1, p1).dimension == 0


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
    split, witness = is_split(c)
    assert not split and witness is None


def test_split_witness_identities(a2):
    rng = random.Random(23)
    found = 0
    for _ in range(60):
        c = random_conflation(rng, a2, 3, (1, 1))
        split, w = is_split(c)
        assert split == class_of(c).is_zero()
        if split:
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


def test_shift_base_pushout(a2, s1, s2):
    rng = random.Random(27)
    for _ in range(20):
        c = random_conflation(rng, a2, 2, (2, 2))
        x = Representation.random(a2, 2, (2, 2), rng)
        basis = hom_space(c.A, x)
        if not basis:
            continue
        a = basis[rng.randrange(len(basis))]
        shifted, b = shift_base(a, c)
        assert shifted.A == x and shifted.C == c.C
        assert class_of(shifted) == pushforward(a, class_of(c))
        assert b @ c.x == shifted.x @ a
        assert shifted.y @ b == c.y


def test_et4_compose_compatibilities(a2, a3):
    rng = random.Random(28)
    for quiver in (a2, a3):
        bound = (1,) * quiver.vertex_count
        for _ in range(25):
            c1 = random_conflation(rng, quiver, 2, bound)
            f_obj = Representation.random(quiver, 2, bound, rng)
            space = ext_space(f_obj, c1.B)
            c2 = realize(space.element([rng.randrange(2)
                                        for _ in range(space.dimension)]))
            res = et4_compose(c1, c2)
            assert res.composite.A == c1.A and res.composite.B == c2.B
            assert res.quotient.A == c1.C and res.quotient.C == c2.C
            assert class_of(res.quotient) == pushforward(c1.y, class_of(c2))
            assert pullback(res.d, class_of(res.composite)) == class_of(c1)
            assert pushforward(c1.x, class_of(res.composite)) == \
                pullback(res.e, class_of(c2))


def test_et4op_compose_compatibilities(a2, a3):
    rng = random.Random(29)
    for quiver in (a2, a3):
        bound = (1,) * quiver.vertex_count
        for _ in range(25):
            c2 = random_conflation(rng, quiver, 2, bound)
            a_obj = Representation.random(quiver, 2, bound, rng)
            # realize keeps the base object literal, so c1's quotient is c2.B
            space = ext_space(c2.B, a_obj)
            c1 = realize(space.element([rng.randrange(2)
                                        for _ in range(space.dimension)]))
            res = et4op_compose(c1, c2)
            assert res.composite.B == c1.B and res.composite.C == c2.C
            assert res.kernel.A == c1.A and res.kernel.C == c2.A
            assert class_of(res.kernel) == pullback(c2.x, class_of(c1))
            assert pushforward(res.b, class_of(res.composite)) == class_of(c2)
            assert pullback(c2.y, class_of(res.composite)) == \
                pushforward(res.a, class_of(c1))


def test_conflation_direct_sum_adds_classes(s1, s2):
    c1 = realize(ext_space(s1, s2).element([1]))
    c2 = Conflation.split(s2, s1)
    both = conflation_direct_sum(c1, c2)
    assert both.B.dim == (2, 2)
    split, _ = is_split(both)
    assert not split


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


def test_identity_conflations(s2):
    left = Conflation.identity_left(s2)
    assert left.A.is_zero() and left.B == s2 and left.C == s2
    right = Conflation.identity_right(s2)
    assert right.A == s2 and right.C.is_zero()
