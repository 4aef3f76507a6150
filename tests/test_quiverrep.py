"""Representations of acyclic quivers: construction, hom, enumeration."""

import random

import numpy as np
import pytest

from filtra import (Matrix, Quiver, RepMorphism, Representation, ThetaFamily,
                    ValidationError, direct_power, direct_sum,
                    enumerate_indecomposables, enumerate_reps, euler_pairing,
                    hom_space, is_indecomposable, is_isomorphic, iso_witness,
                    krull_schmidt)
from filtra import quiverrep
from filtra.quiverrep import enumerate_subreps


def test_cyclic_quiver_rejected():
    with pytest.raises(ValidationError, match="acyclic"):
        Quiver.from_edges(2, [("a", 0, 1), ("b", 1, 0)])


def test_duplicate_arrow_names_rejected():
    with pytest.raises(ValidationError):
        Quiver.from_edges(3, [("a", 0, 1), ("a", 1, 2)])


def test_simple_projective_injective_dimensions(a2, s1, s2, p1):
    assert s1.dim == (1, 0) and s2.dim == (0, 1)
    assert p1.dim == (1, 1) and p1.maps[0].entries == [[1]]
    assert Representation.projective(a2, 2, 1).dim == (0, 1)
    assert Representation.injective(a2, 2, 0).dim == (1, 0)
    assert Representation.injective(a2, 2, 1).dim == (1, 1)


def test_morphism_must_intertwine(s2, p1):
    from filtra import Matrix
    # projecting P1 onto its second coordinate is not a morphism to S2:
    # the square at the arrow forces the vertex-1 component to vanish
    assert hom_space(p1, s2) == []
    assert len(hom_space(s2, p1)) == 1
    with pytest.raises(ValidationError, match="intertwiner"):
        RepMorphism(p1, s2, [Matrix.zeros(2, 0, 1), Matrix.from_rows(2, [[1]])])


def test_hom_dimensions_on_the_desk(s1, s2, p1):
    table = {
        ("s1", "s1"): 1, ("s1", "s2"): 0, ("s1", "p1"): 0,
        ("s2", "s1"): 0, ("s2", "s2"): 1, ("s2", "p1"): 1,
        ("p1", "s1"): 1, ("p1", "s2"): 0, ("p1", "p1"): 1,
    }
    reps = {"s1": s1, "s2": s2, "p1": p1}
    for (i, j), want in table.items():
        assert len(hom_space(reps[i], reps[j])) == want, (i, j)


def test_euler_pairing_matches_hom_minus_ext(a2):
    from filtra import ext_space
    # two parallel arrows and three arrows into one sink index the blocks of
    # the intertwiner system in ways that A2 cannot
    kronecker = Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)])
    d4 = Quiver.from_edges(4, [("a", 0, 3), ("b", 1, 3), ("c", 2, 3)])
    rng = random.Random(11)
    for quiver, p, bound in ((a2, 2, (2, 2)), (kronecker, 3, (3, 3)), (d4, 3, (2, 2, 2, 3))):
        for _ in range(60):
            m = Representation.random(quiver, p, bound, rng)
            n = Representation.random(quiver, p, bound, rng)
            basis = hom_space(m, n)
            assert len(basis) - ext_space(m, n).dimension == euler_pairing(m, n)
            for f in basis:
                RepMorphism(m, n, f.components)  # checks the intertwiner law


def test_direct_sum_maps_are_canonical(s1, s2):
    ds = direct_sum(s1, s2)
    assert ds.rep.dim == (1, 1)
    assert ds.project_left @ ds.inject_left == RepMorphism.identity(s1)
    assert ds.project_right @ ds.inject_right == RepMorphism.identity(s2)
    assert (ds.project_left @ ds.inject_right).is_zero()


def test_direct_power_nests_literally(s2):
    assert direct_sum(direct_power(s2, 2), s2).rep == direct_power(s2, 3)
    assert direct_power(s2, 0) == Representation.zero(s2.quiver, 2)


def test_indecomposability(s1, s2, p1):
    assert is_indecomposable(s1) and is_indecomposable(s2) and is_indecomposable(p1)
    assert not is_indecomposable(direct_sum(s1, s2).rep)
    assert not is_indecomposable(Representation.zero(s1.quiver, 2))


def test_krull_schmidt_recovers_the_multiset(a2, s1, s2, p1):
    m = direct_sum(direct_sum(p1, s1).rep, p1).rep
    pieces = krull_schmidt(m)
    expanded = sorted(x.dim for x, count in pieces for _ in range(count))
    assert expanded == [(1, 0), (1, 1), (1, 1)]
    for x, _ in pieces:
        assert is_indecomposable(x)


def test_iso_witness_is_an_isomorphism(a2):
    rng = random.Random(12)
    for _ in range(40):
        m = Representation.random(a2, 3, (2, 2), rng)
        # rebuilding from the decomposition gives an isomorphic, usually not
        # equal, representation; the witness must be invertible
        rebuilt = Representation.zero(a2, 3)
        for x, count in krull_schmidt(m):
            for _ in range(count):
                rebuilt = direct_sum(rebuilt, x).rep
        assert is_isomorphic(m, rebuilt)
        w = iso_witness(m, rebuilt)
        assert w is not None and w.is_isomorphism()


def test_desk_counts(a2, a3):
    assert len(enumerate_reps(a2, 2, (1, 1))) == 5
    assert len(enumerate_reps(a2, 2, (2, 2))) == 14
    assert len(enumerate_reps(a2, 2, (3, 3))) == 30
    assert len(enumerate_reps(a3, 2, (2, 2, 2))) == 74
    # linear A2 has exactly three indecomposables whatever the bound >= (1,1)
    assert len(enumerate_indecomposables(a2, 2, (3, 3))) == 3
    assert len(enumerate_indecomposables(a3, 2, (1, 1, 1))) == 6


def test_enumeration_is_pairwise_nonisomorphic(a2):
    reps = enumerate_reps(a2, 2, (2, 2))
    for i, m in enumerate(reps):
        for n in reps[i + 1:]:
            assert not is_isomorphic(m, n)


def test_subrepresentations_of_p1(p1):
    subs = enumerate_subreps(p1)
    assert sorted(sub.dim for sub, _ in subs) == [(0, 0), (0, 1), (1, 1)]
    for sub, incl in subs:
        assert incl.source == sub and incl.target == p1
        assert incl.is_vertexwise_injective()


def test_theta_family_ordering_enforced(s1, s2):
    fam = ThetaFamily((s1, s2))
    assert len(fam) == 2 and fam[0] == s1
    with pytest.raises(ValidationError, match="ordering"):
        ThetaFamily((s2, s1))
    assert ThetaFamily.ordering_failures((s2, s1)) == [(1, 0, 1)]


def test_theta_family_rejects_zero_member(a2, s1):
    with pytest.raises(ValidationError):
        ThetaFamily((s1, Representation.zero(a2, 2)))


def test_intertwiner_blocks_match_numpy_kron(monkeypatch):
    # 2040 random pairs, zero vertex dimensions included; half of them also
    # carry the extra rows of a conflation equivalence
    rng = random.Random(12)
    quivers = [
        (Quiver.from_edges(2, [("a", 0, 1)]), (3, 3)),
        (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), (2, 2, 2)),
        (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), (3, 3)),
        (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), (3, 2, 2, 2)),
    ]
    cases = []
    for quiver, bound in quivers:
        for p in (2, 3, 5):
            for k in range(170):
                m = Representation.random(quiver, p, bound, rng)
                n = Representation.random(quiver, p, bound, rng)
                x = y = ()
                if k % 2:
                    x = [Matrix(p, [[rng.randrange(p) for _ in range(d)] for _ in range(dm)],
                                shape=(dm, d)) for dm, d in zip(m.dim, bound)]
                    y = [Matrix(p, [[rng.randrange(p) for _ in range(dn)] for _ in range(d)],
                                shape=(d, dn)) for dn, d in zip(n.dim, bound)]
                cases.append((m, n, x, y))
    systems = [quiverrep._intertwiner_system(*case) for case in cases]
    monkeypatch.setattr(quiverrep, "_kron_block", lambda left, right: np.kron(left, right.T))
    assert len(cases) == 2040
    for case, system in zip(cases, systems):
        expected = quiverrep._intertwiner_system(*case)
        assert system.shape == expected.shape
        assert system.a.tobytes() == expected.a.tobytes()
