"""Universal extensions, preenvelopes, precovers, and their verification."""

import dataclasses
import random

import numpy as np
import pytest

from filtra import (Conflation, ExtObstruction, RepMorphism, Representation,
                    ThetaFamily, ValidationError, ZeroExt, connecting_map,
                    direct_power, direct_sum, enumerate_indecomposables,
                    enumerate_reps, ext_space, group, is_isomorphic,
                    is_theta_injective, is_theta_projective, oracle_filtered,
                    perp_class, precover, preenvelope, universal_extension_cover,
                    universal_extension_env, verify_precover, verify_preenvelope)
from filtra.approx import _induced_onto
from filtra.linalg import Matrix
from filtra.quiverrep import _flatten, hom_space
from filtra.selftest import standard_families

# every indecomposable of A3 and of D4 lies under these bounds
INDECOMPOSABLE_BOUNDS = {3: (1, 1, 1), 4: (2, 1, 1, 1)}


def test_universal_extension_cover_of_s1(s1, s2, p1):
    c = universal_extension_cover(s1, s2)
    assert c.A == s2 and c.C == s1
    assert is_isomorphic(c.B, p1)
    # the point of the construction: ext(B, A) vanishes afterwards
    assert ext_space(c.B, s2).dimension == 0


def test_universal_extension_cover_needs_ext(s1, s2):
    with pytest.raises(ZeroExt):
        universal_extension_cover(s2, s1)


def test_universal_extension_env_of_s2(s1, s2, p1):
    c = universal_extension_env(s2, s1)
    assert c.A == s2 and is_isomorphic(c.B, p1)
    assert is_isomorphic(c.C, s1)
    assert ext_space(s1, c.B).dimension == 0


def test_universal_extension_env_degenerate(s1, s2):
    c = universal_extension_env(s1, s2)
    assert c.A == s1 and c.B == s1 and c.C.total_dim == 0


def test_universal_extension_env_obstructed(s1, s2):
    both = direct_sum(s1, s2).rep
    assert ext_space(both, both).dimension == 1
    with pytest.raises(ExtObstruction, match="dimension 1"):
        universal_extension_env(s2, both)


def test_universal_extensions_hit_a_basis_of_ext(a3, d4):
    # the connecting map onto ext has full rank, and the middle has no ext
    # against the power object once that object has no self-extensions
    rng = random.Random(41)
    rigid_covers = rigid_envs = 0
    for quiver in (a3, d4):
        for p in (2, 3):
            bound = (2,) * quiver.vertex_count
            indecs = enumerate_indecomposables(quiver, p, INDECOMPOSABLE_BOUNDS[quiver.vertex_count])
            for _ in range(25):
                # an indecomposable of a Dynkin quiver has no self-extensions
                power = (indecs[rng.randrange(len(indecs))] if rng.random() < 0.5
                         else Representation.random(quiver, p, bound, rng))
                other = Representation.random(quiver, p, bound, rng)
                rigid = ext_space(power, power).dimension == 0
                n = ext_space(other, power).dimension
                if n:
                    c = universal_extension_cover(other, power)
                    assert c.A == direct_power(power, n) and c.C == other
                    assert connecting_map(c, power, side="right").rank() == n
                    if rigid:
                        rigid_covers += 1
                        assert ext_space(c.B, power).dimension == 0
                m = ext_space(power, other).dimension
                try:
                    c = universal_extension_env(other, power)
                except ExtObstruction:
                    assert not rigid
                    continue
                assert c.A == other and c.C == direct_power(power, m)
                assert connecting_map(c, power, side="left").rank() == m
                assert ext_space(power, c.B).dimension == 0
                rigid_envs += rigid and m > 0
    assert rigid_covers >= 15 and rigid_envs >= 15


def test_preenvelope_spot_value(full_family, s1, s2, p1):
    res = preenvelope(s2, full_family)
    assert res.side == "envelope"
    assert res.triangle.A == s2
    assert is_isomorphic(res.triangle.B, p1)
    assert is_isomorphic(res.triangle.C, s1)
    assert res.map == res.triangle.x
    assert res.filtered_part.top == res.triangle.C
    assert res.filtered_part.labels == (0,)


def test_precover_spot_value(full_family, s1, s2, p1):
    res = precover(s1, full_family)
    assert res.side == "cover"
    assert res.triangle.C == s1
    assert is_isomorphic(res.triangle.B, p1)
    assert is_isomorphic(res.triangle.A, s2)
    assert res.map == res.triangle.y
    assert res.filtered_part.top == res.triangle.A
    assert res.filtered_part.labels == (1,)


def test_preenvelope_of_injective_is_identity(full_family, p1):
    res = preenvelope(p1, full_family)
    assert res.triangle.B == p1 and res.triangle.C.total_dim == 0
    assert len(res.filtered_part) == 0


def test_approximations_over_the_desk(a2, full_family):
    for x in enumerate_reps(a2, 2, (2, 2)):
        env = preenvelope(x, full_family)
        assert is_theta_injective(env.triangle.B, full_family)
        assert oracle_filtered(env.triangle.C, full_family)
        assert env.filtered_part.is_ordered()
        assert len(group(env.filtered_part)) <= len(full_family)
        cov = precover(x, full_family)
        assert is_theta_projective(cov.triangle.B, full_family)
        assert oracle_filtered(cov.triangle.A, full_family)
        assert cov.filtered_part.is_ordered()
        assert len(group(cov.filtered_part)) <= len(full_family)


def test_approximation_staircases_over_a3_and_d4(a3, d4):
    # the staircase of a family walks its suffixes (envelope) and prefixes
    # (cover), so every stage of the full walk is the last stage of one of these
    rng = random.Random(42)
    for quiver in (a3, d4):
        for p in (2, 3):
            families = standard_families(quiver, p)
            assert len(families) == 4
            for _ in range(5):
                x = Representation.random(quiver, p, (2,) * quiver.vertex_count, rng)
                for theta in families:
                    for i in range(len(theta)):
                        suffix = ThetaFamily(theta.members[i:])
                        env = preenvelope(x, suffix)
                        assert env.triangle.A == x
                        assert is_theta_injective(env.triangle.B, suffix)
                        prefix = ThetaFamily(theta.members[:i + 1])
                        cov = precover(x, prefix)
                        assert cov.triangle.C == x
                        assert is_theta_projective(cov.triangle.B, prefix)


def test_verify_preenvelope_passes_and_sorts(full_family, s1, s2, p1):
    res = preenvelope(s2, full_family)
    report = verify_preenvelope(res, [p1, s1])
    assert report.passed
    assert [r.dim for r, _ in report.entries] == [(1, 0), (1, 1)]
    assert report.skipped == ()


def test_verify_skips_illegitimate_test_objects(full_family, s2):
    res = preenvelope(s2, full_family)
    report = verify_preenvelope(res, [s2])
    assert report.entries == () and len(report.skipped) == 1
    assert report.passed  # vacuously


def test_verify_detects_a_corrupted_map(full_family, s1, s2, p1):
    res = preenvelope(s2, full_family)
    fake = dataclasses.replace(res, map=RepMorphism.zero(s2, res.triangle.B))
    report = verify_preenvelope(fake, [p1, s1])
    assert not report.passed
    # hom(S2, S1) = 0, so the S1 test is vacuous; P1 must catch the corruption
    outcomes = {r.dim: ok for r, ok in report.entries}
    assert outcomes[(1, 1)] is False


def test_verify_precover_detects_corruption(full_family, s1, s2, p1):
    res = precover(s1, full_family)
    report = verify_precover(res, [p1, s2])
    assert report.passed
    fake = dataclasses.replace(res, map=RepMorphism.zero(res.triangle.B, s1))
    bad = verify_precover(fake, [p1, s2])
    assert not bad.passed


def test_perp_class_sides(a2, s1, s2, p1):
    single = ThetaFamily((s1,))
    indecs = [s1, s2, p1]
    assert perp_class(single, "hom-left", indecs) == [s2]
    assert set(x.dim for x in perp_class(single, "hom-right", indecs)) == \
        {(0, 1), (1, 1)}
    assert set(x.dim for x in perp_class(single, "ext-left", indecs)) == \
        {(1, 0), (0, 1), (1, 1)}
    with pytest.raises(ValidationError, match="side"):
        perp_class(single, "sideways", indecs)


def _coordinates(f, basis):
    """Coordinates of f in a hom-space basis, as a column, by one solve."""
    p = f.source.p
    if not basis:
        assert f.is_zero()
        return Matrix.zeros(p, 0, 1)
    b = Matrix(p, np.stack([_flatten(g.components) for g in basis], axis=1))
    x = b.solve(Matrix(p, _flatten(f.components).reshape(-1, 1)))
    assert x is not None, "morphism is not in the span of the basis"
    return x


def _solved_onto(f, test, side):
    """The former check: solve every composite for its coordinates in the
    target hom space, then ask whether those columns have full rank."""
    if side == "envelope":
        target_basis, source_basis = hom_space(f.source, test), hom_space(f.target, test)
        composites = [g @ f for g in source_basis]
    else:
        target_basis, source_basis = hom_space(test, f.target), hom_space(test, f.source)
        composites = [f @ g for g in source_basis]
    if not target_basis:
        return True
    if not composites:
        return False
    columns = [_coordinates(h, target_basis) for h in composites]
    return Matrix.hstack(f.source.p, columns, rows=len(target_basis)).rank() == len(target_basis)


def test_rank_test_matches_the_coordinate_solve(a2, a3, d4):
    # general morphisms f: X -> Y, not just approximation maps, on both sides
    rng = random.Random(67)
    outcomes = {"envelope": set(), "cover": set()}
    for quiver, bound in ((a2, (2, 2)), (a3, (2, 2, 1)), (d4, (2, 1, 1, 1))):
        for p in (2, 3):
            for _ in range(8):
                x, y, test = (Representation.random(quiver, p, bound, rng) for _ in range(3))
                f = RepMorphism.zero(x, y)
                for g in hom_space(x, y):
                    f = f + g.scale(rng.randrange(p))
                for side in outcomes:
                    onto = _induced_onto(f, test, side)
                    assert onto == _solved_onto(f, test, side), (quiver, p, x.dim, y.dim, side)
                    # a zero target hom space is onto for free; count the others
                    if hom_space(x, test) if side == "envelope" else hom_space(test, y):
                        outcomes[side].add(onto)
    assert outcomes == {"envelope": {True, False}, "cover": {True, False}}
