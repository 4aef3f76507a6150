"""Universal extensions, preenvelopes, precovers, and their verification."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtra import (Conflation, ExtObstruction, ExtSpace, Filtration, GroupedFiltration, Quiver,
                    RepMorphism, Representation, ThetaFamily, ValidationError, ZeroExt, approx,
                    connecting_map, direct_power, direct_sum, enumerate_indecomposables,
                    enumerate_reps, ext_space, group, is_isomorphic,
                    is_theta_injective, is_theta_projective, oracle_filtered,
                    perp_class, power_filtration, precover, preenvelope, realize, reorder,
                    universal_extension_cover, universal_extension_env, verify)
from filtra.approx import ApproxResult, VerifyReport, _induced_onto
from filtra.linalg import Matrix
from filtra.quiverrep import _canonical_key, _flatten, hom_space
from filtra.selftest import random_filtration, standard_families

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
    report = verify(res, [p1, s1])
    assert report.passed
    assert [r.dim for r, _ in report.entries] == [(1, 0), (1, 1)]
    assert report.skipped == ()


def test_verify_skips_illegitimate_test_objects(full_family, s2):
    res = preenvelope(s2, full_family)
    report = verify(res, [s2])
    assert report.entries == () and len(report.skipped) == 1
    assert report.passed  # vacuously


def _with_map(res, f):
    """res with f in place of its map, in the triangle that the map is read from."""
    arrow = "x" if res.side == "envelope" else "y"
    return dataclasses.replace(res, triangle=dataclasses.replace(res.triangle, check=False,
                                                                 **{arrow: f}))


def test_verify_detects_a_corrupted_map(full_family, s1, s2, p1):
    res = preenvelope(s2, full_family)
    fake = _with_map(res, RepMorphism.zero(s2, res.triangle.B))
    report = verify(fake, [p1, s1])
    assert not report.passed
    # hom(S2, S1) = 0, so the S1 test is vacuous; P1 must catch the corruption
    outcomes = {r.dim: ok for r, ok in report.entries}
    assert outcomes[(1, 1)] is False


def test_verify_precover_detects_corruption(full_family, s1, s2, p1):
    res = precover(s1, full_family)
    report = verify(res, [p1, s2])
    assert report.passed
    fake = _with_map(res, RepMorphism.zero(res.triangle.B, s1))
    bad = verify(fake, [p1, s2])
    assert not bad.passed


def reference_verify(result, test_objects, side, perpendicular):
    """The check of verify_preenvelope (side "envelope", is_theta_injective)
    and of verify_precover ("cover", is_theta_projective), which took the
    side and the perpendicular test from the entry point called."""
    entries, skipped = [], []
    for obj in sorted(test_objects, key=_canonical_key):
        if perpendicular(obj, result.theta):
            entries.append((obj, _induced_onto(result.map, obj, side)))
        else:
            skipped.append(obj)
    return VerifyReport(side, tuple(entries), tuple(skipped))


def test_verify_reads_the_side_from_the_result(a2, a3):
    # every desk module of A2 and A3 at p = 2, 3 by every standard family,
    # with its own map and with the zero map, against the per-side check
    counts = {"entries": 0, "skipped": 0, "failed": 0}
    per_side = (("envelope", preenvelope, is_theta_injective),
                ("cover", precover, is_theta_projective))
    for quiver, bound in ((a2, (2, 2)), (a3, (1, 2, 1))):
        tests_bound = INDECOMPOSABLE_BOUNDS.get(quiver.vertex_count, (1, 1))
        for p in (2, 3):
            tests = enumerate_indecomposables(quiver, p, tests_bound)
            for theta in standard_families(quiver, p):
                for x in enumerate_reps(quiver, p, bound):
                    for side, build, perpendicular in per_side:
                        res = build(x, theta)
                        zero = RepMorphism.zero(res.map.source, res.map.target)
                        for r in (res, _with_map(res, zero)):
                            report = verify(r, tests)
                            assert report == reference_verify(r, tests, side, perpendicular)
                            counts["entries"] += len(report.entries)
                            counts["skipped"] += len(report.skipped)
                            counts["failed"] += not report.passed
    assert all(counts.values()), counts


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


# -- universal extensions against the coordinates round trip ------------------
#
# The references below are the earlier universal extensions.  They sent the
# stacked basis cocycle to coordinates in ext(C, A^n) or ext(T^m, N) and back
# before realizing it, and universal_extension_env realized first and tested
# ext(T, B) afterwards.  The round trip returns its input and ext(T, B) is
# ext(T, T)^m, so the two must agree byte for byte.

UE_QUIVERS = {
    "A2": (Quiver.from_edges(2, [("a", 0, 1)]), 3),
    "A3 linear": (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), 2),
    "A3 middle sink": (Quiver.from_edges(3, [("a", 0, 1), ("b", 2, 1)]), 2),
    "A3 middle source": (Quiver.from_edges(3, [("a", 1, 0), ("b", 1, 2)]), 2),
    "Kronecker": (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), 2),
    "D4 centre source": (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), 2),
    "D4 centre sink": (Quiver.from_edges(4, [("a", 1, 0), ("b", 2, 0), ("c", 3, 0)]), 2),
}


def reference_cover(c_obj, a_obj):
    space = ext_space(c_obj, a_obj)
    if space.dimension == 0:
        raise ZeroExt("ext(C, A) = 0; there is nothing to extend by")
    basis_cocycles = [space.element([int(i == k) for i in range(space.dimension)]).cocycles()
                      for k in range(space.dimension)]
    target = ext_space(c_obj, direct_power(a_obj, space.dimension))
    stacked = [Matrix.vstack(a_obj.p, [g[k] for g in basis_cocycles], cols=c_obj.dim[arrow.source])
               for k, arrow in enumerate(a_obj.quiver.arrows)]
    return realize(target.element(target.coordinates(stacked)))


def reference_env_unchecked(n_obj, t_obj):
    """The realized env conflation, before its ext(T, B) test."""
    space = ext_space(t_obj, n_obj)
    if space.dimension == 0:
        return Conflation.identity_right(n_obj)
    basis_cocycles = [space.element([int(i == k) for i in range(space.dimension)]).cocycles()
                      for k in range(space.dimension)]
    target = ext_space(direct_power(t_obj, space.dimension), n_obj)
    stacked = [Matrix.hstack(n_obj.p, [g[k] for g in basis_cocycles], rows=n_obj.dim[arrow.target])
               for k, arrow in enumerate(n_obj.quiver.arrows)]
    return realize(target.element(target.coordinates(stacked)))


def reference_env(n_obj, t_obj):
    c = reference_env_unchecked(n_obj, t_obj)
    if ext_space(t_obj, c.B).dimension != 0:
        d = ext_space(t_obj, t_obj).dimension
        raise ExtObstruction(
            f"ext(T, T) has dimension {d}, so the universal extension cannot kill ext(T, -)")
    return c


def conflation_bytes(c):
    """Dimension vectors and (modulus, shape, bytes) of every matrix of c."""
    mats = [m for r in (c.A, c.B, c.C) for m in r.maps] + list(c.x.components + c.y.components)
    return [c.A.dim, c.B.dim, c.C.dim] + [(m.p, m.shape, m.a.tobytes()) for m in mats]


def outcome(fn, *args):
    """The bytes of fn(*args), or the type and message of what it raised."""
    try:
        return conflation_bytes(fn(*args))
    except (ZeroExt, ExtObstruction) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def ue_cases(draw):
    """A quiver, a prime, two representations with zero dimensions allowed."""
    quiver, top = UE_QUIVERS[draw(st.sampled_from(sorted(UE_QUIVERS)))]
    p = draw(st.sampled_from([2, 3, 5]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    bound = (top,) * quiver.vertex_count
    return Representation.random(quiver, p, bound, rng), Representation.random(quiver, p, bound, rng)


@settings(max_examples=150, deadline=None)
@given(case=ue_cases())
def test_universal_extensions_match_the_round_trip(case):
    first, second = case
    assert outcome(universal_extension_cover, first, second) == \
        outcome(reference_cover, first, second)
    assert outcome(universal_extension_env, first, second) == \
        outcome(reference_env, first, second)


def test_env_obstruction_is_ext_of_t_with_the_middle():
    # T ranges over random representations and two with ext(T, T) != 0:
    # S1 + S2 over A2 and a regular simple of the Kronecker quiver
    rng = random.Random(2103)
    a2, kronecker = UE_QUIVERS["A2"][0], UE_QUIVERS["Kronecker"][0]
    outcomes = {True: 0, False: 0}
    for p in (2, 3, 5):
        pairs = []
        for quiver, top in UE_QUIVERS.values():
            bound = (top,) * quiver.vertex_count
            pairs += [(Representation.random(quiver, p, bound, rng),
                       Representation.random(quiver, p, bound, rng)) for _ in range(6)]
        both = direct_sum(Representation.simple(a2, p, 0), Representation.simple(a2, p, 1)).rep
        regular = Representation(kronecker, p, (1, 1), [Matrix(p, [[1]]), Matrix(p, [[p - 1]])])
        for t_obj in (both, regular):
            assert ext_space(t_obj, t_obj).dimension
            pairs += [(Representation.random(t_obj.quiver, p, (2, 2), rng), t_obj)
                      for _ in range(8)]
        for n_obj, t_obj in pairs:
            if not ext_space(t_obj, n_obj).dimension:
                continue
            obstructed = ext_space(t_obj, reference_env_unchecked(n_obj, t_obj).B).dimension != 0
            try:
                universal_extension_env(n_obj, t_obj)
                raised = False
            except ExtObstruction:
                raised = True
            assert raised == obstructed, (p, n_obj, t_obj)
            outcomes[raised] += 1
    assert outcomes[True] >= 15 and outcomes[False] >= 15


def test_approximation_stages_build_no_power_or_middle_ext(monkeypatch, clear_caches, a2, a3, d4):
    """A stage realizes its stacked cocycle as it stands, and decides the
    env obstruction by ext(T, T): the only Ext spaces it builds are
    ext(C, A) for a cover and ext(T, N) and ext(T, T) for an env, never one
    of the power object or ext(T, B) of its own middle."""
    rng = random.Random(2101)
    calls = []
    for p in (2, 3):
        s1, s2 = Representation.simple(a2, p, 0), Representation.simple(a2, p, 1)
        theta = ThetaFamily((s1, s2))
        for x in (direct_power(s2, 2), direct_power(s1, 3), direct_sum(s2, Representation.projective(a2, p, 0)).rep):
            calls += [(preenvelope, x, theta), (precover, x, theta)]
        for quiver in (a3, d4):
            for theta in standard_families(quiver, p):
                x = Representation.random(quiver, p, (2,) * quiver.vertex_count, rng)
                calls += [(preenvelope, x, theta), (precover, x, theta)]
    built, stages = [], []
    post_init = ExtSpace.__post_init__

    def spy(self):
        built.append((self.C, self.A))
        post_init(self)

    def watched(name):
        fn = getattr(approx, name)

        def stage(first, second):
            start = len(built)
            c = fn(first, second)
            stages.append((name, first, second, c, built[start:]))
            return c
        return stage

    clear_caches()
    monkeypatch.setattr(ExtSpace, "__post_init__", spy)
    for name in ("universal_extension_env", "universal_extension_cover"):
        monkeypatch.setattr(approx, name, watched(name))
    for fn, x, theta in calls:
        fn(x, theta)
    powers = 0
    for name, first, second, c, inside in stages:
        if name == "universal_extension_env":
            allowed = {(second, first), (second, second)}
            powers += c.C != second
        else:
            allowed = {(first, second)}
            powers += c.A != second
        assert set(inside) <= allowed, (name, first, second)
    assert {name for name, *_ in stages} == {"universal_extension_env",
                                              "universal_extension_cover"}
    assert powers >= 5


def result_parts(obj) -> list:
    """Every type name, dimension vector, label, side and matrix (modulus,
    shape, bytes) reachable from obj, in field order; families left out."""
    if isinstance(obj, Matrix):
        return [(obj.p, obj.shape, obj.a.tobytes())]
    if isinstance(obj, (int, str)):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [x for o in obj for x in result_parts(o)]
    if isinstance(obj, Representation):
        return [obj.dim] + result_parts(obj.maps)
    names = [fld.name for fld in dataclasses.fields(obj) if fld.name != "theta"]
    if isinstance(obj, ApproxResult):
        names.insert(1, "map")  # a property read from the triangle, walked after it
    return [type(obj).__name__] + [x for name in names for x in result_parts(getattr(obj, name))]


def approximation_work(quivers, seed):
    """(family, modules, filtration) for every standard family of each
    quiver at p = 2 and 3, drawn from one seeded stream."""
    rng = random.Random(seed)
    work = []
    for quiver in quivers:
        for p in (2, 3):
            for theta in standard_families(quiver, p):
                modules = [Representation.random(quiver, p, (2,) * quiver.vertex_count, rng),
                           random_filtration(rng, theta, 3).top]
                work.append((theta, modules, random_filtration(rng, theta, 5)))
    return work


def approximation_outputs(work) -> list:
    """preenvelope and precover of every module, group(reorder(f)) of every filtration."""
    return [out for theta, modules, f in work
            for out in [g(x, theta) for x in modules for g in (preenvelope, precover)]
            + [group(reorder(f))]]


# sha256 of repr(result_parts(...)) of the outputs for approximation_work((a3, d4), 2601),
# taken from the construction that built a fresh power at every stage
APPROXIMATION_DIGEST = "0896744c0e87eb68c3d41c0c43f339574583465f5e84fb70bed07f5d42abf678"


def test_approximations_read_the_same_bytes_warm_as_cold(clear_caches, a3, d4):
    """The shared powers and power filtrations give the bytes a cold run
    gives, after other modules over the same families filled the stores."""
    work = approximation_work((a3, d4), 2601)
    filler = approximation_work((a3, d4), 2602)
    clear_caches()
    cold = result_parts(approximation_outputs(work))
    asked = set(power_filtration.store), set(direct_power.store)
    clear_caches()
    approximation_outputs(filler)
    # the warm run reads powers that the filler's modules built
    assert asked[0] & set(power_filtration.store) and asked[1] & set(direct_power.store)
    warm = approximation_outputs(work)
    assert result_parts(warm) == cold
    assert hashlib.sha256(repr(cold).encode()).hexdigest() == APPROXIMATION_DIGEST
    for result in warm:
        if isinstance(result, GroupedFiltration):
            GroupedFiltration(result.theta, result.steps)
        else:
            Filtration(result.theta, result.filtered_part.steps)
            c = result.triangle
            Conflation(c.A, c.B, c.C, c.x, c.y)


def test_bad_power_requests_raise_every_time_and_store_nothing(clear_caches, a3):
    theta = standard_families(a3, 3)[0]
    clear_caches()
    for _ in range(2):
        for label, k, message in ((len(theta), 1, "out of range"), (-1, 1, "out of range"),
                                  (0, -1, "nonnegative")):
            with pytest.raises(ValidationError, match=message):
                power_filtration(theta, label, k)
        with pytest.raises(ValidationError, match="nonnegative"):
            direct_power(theta[0], -1)
    assert not power_filtration.store and not direct_power.store
