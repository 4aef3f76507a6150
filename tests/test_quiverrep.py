"""Representations of acyclic quivers: construction, hom, enumeration."""

import dataclasses
import random

import numpy as np
import pytest

from filtra import (DimensionMismatch, Matrix, Quiver, RepMorphism, Representation,
                    ThetaFamily, ValidationError, direct_power, direct_sum,
                    enumerate_indecomposables, enumerate_reps, euler_pairing,
                    hom_space, is_indecomposable, is_isomorphic, iso_witness)
from filtra import Budget, BudgetExceeded, quiverrep
from filtra import (Conflation, Filtration, FiltrationStep, GroupedFiltration,
                    GroupedStep)
from filtra import ExtClass, ExtSpace, ext_space, power_filtration, realize
from filtra.errors import searching
from filtra.linalg import _RREF_SMALL_ENTRIES
from filtra.quiverrep import DirectSum, enumerate_subreps
from oracles import reference_krull_schmidt


def test_cyclic_quiver_rejected():
    with pytest.raises(ValidationError, match="acyclic"):
        Quiver.from_edges(2, [("a", 0, 1), ("b", 1, 0)])


def _quadratic_topological_order(quiver):
    """The former queue.pop(0) and arrow-scan order, kept as the oracle."""
    indeg = [0] * quiver.vertex_count
    for a in quiver.arrows:
        indeg[a.target] += 1
    order, queue = [], [v for v in range(quiver.vertex_count) if indeg[v] == 0]
    while queue:
        v = queue.pop(0)
        order.append(v)
        for a in quiver.arrows:
            if a.source == v:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
    return tuple(order)


def test_topological_order_matches_the_quadratic_scan():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 8)
        edges = [(s, t) for s in range(n) for t in range(n) if s != t]
        rank = list(range(n))
        rng.shuffle(rank)
        chosen = [(s, t) for s, t in edges if rank[s] < rank[t] and rng.random() < 0.4]
        rng.shuffle(chosen)
        quiver = Quiver.from_edges(n, [(f"a{k}", s, t) for k, (s, t) in enumerate(chosen)])
        assert quiver.topological_order() == _quadratic_topological_order(quiver)


def test_topological_order_of_long_paths():
    n = 40_000
    forward = Quiver.from_edges(n, [(f"a{v}", v, v + 1) for v in range(n - 1)])
    assert forward.topological_order() == tuple(range(n))
    backward = Quiver.from_edges(n, [(f"a{v}", v + 1, v) for v in range(n - 1)])
    assert backward.topological_order() == tuple(range(n - 1, -1, -1))


def test_duplicate_arrow_names_rejected():
    with pytest.raises(ValidationError):
        Quiver.from_edges(3, [("a", 0, 1), ("a", 1, 2)])


def test_simple_projective_injective_dimensions(a2, s1, s2, p1):
    assert s1.dim == (1, 0) and s2.dim == (0, 1)
    assert p1.dim == (1, 1) and p1.maps[0].entries == [[1]]
    assert Representation.projective(a2, 2, 1).dim == (0, 1)


# one arrow 1 -> 0: the constructors below once answered an index outside
# 0..1 with a wrong module (simple(2) was zero, projective(-1) had the
# dimension of P(0)) or an IndexError
REVERSED = Quiver.from_edges(2, [("a", 1, 0)])


def test_simple_refuses_a_vertex_outside_the_quiver():
    assert Representation.simple(REVERSED, 2, 1).dim == (0, 1)
    for v in (2, -1):
        with pytest.raises(ValidationError, match=f"vertex {v} is not in 0..1"):
            Representation.simple(REVERSED, 2, v)


def test_projective_refuses_a_vertex_outside_the_quiver():
    assert Representation.projective(REVERSED, 2, 1).dim == (1, 1)
    for v in (2, -1):
        with pytest.raises(ValidationError, match=f"vertex {v} is not in 0..1"):
            Representation.projective(REVERSED, 2, v)


def test_from_dict_refuses_a_dimension_vector_of_the_wrong_length():
    assert Representation.from_dict(REVERSED, 2, (1, 1), {"a": [[1]]}).dim == (1, 1)
    for dim in ((1,), (1, 1, 1)):
        with pytest.raises(DimensionMismatch,
                           match=f"expected 2 vertex dimensions, got {len(dim)}"):
            Representation.from_dict(REVERSED, 2, dim)


def test_random_refuses_a_bound_of_the_wrong_length():
    rng = random.Random(0)
    assert Representation.random(REVERSED, 2, (1, 1), rng).quiver == REVERSED
    for bound in ((1,), (1, 1, 1)):
        with pytest.raises(DimensionMismatch,
                           match=f"expected 2 vertex dimensions, got {len(bound)}"):
            Representation.random(REVERSED, 2, bound, rng)


def test_dimension_vectors_and_bounds_must_be_integers():
    # one check for every dimension vector and bound: nothing is truncated by int()
    zero = [Matrix.zeros(2, 1, 1)]
    for dim in ((1.7, "1"), (1.5, 1)):
        with pytest.raises(ValidationError, match="vertex dimensions must be integers"):
            Representation.from_dict(REVERSED, 2, dim)
        with pytest.raises(ValidationError, match="vertex dimensions must be integers"):
            Representation(REVERSED, 2, dim, zero)
        with pytest.raises(ValidationError, match="vertex dimensions must be integers"):
            Representation.random(REVERSED, 2, dim, random.Random(0))
        with pytest.raises(ValidationError, match="vertex dimensions must be integers"):
            enumerate_reps(REVERSED, 2, dim)
    # numpy integers are integers
    assert Representation.from_dict(REVERSED, 2, np.array([1, 1])).dim == (1, 1)


def test_bounds_are_refused_before_they_are_read():
    with pytest.raises(DimensionMismatch, match="expected 2 vertex dimensions, got 1"):
        enumerate_indecomposables(REVERSED, 2, (1,))
    with pytest.raises(DimensionMismatch, match="expected 2 vertex dimensions, got 3"):
        enumerate_reps(REVERSED, 2, (1, 1, 1))
    for bound in ((-1, 1), (1, -1)):
        with pytest.raises(ValidationError, match="must be nonnegative"):
            Representation.random(REVERSED, 2, bound, random.Random(0))
        with pytest.raises(ValidationError, match="must be nonnegative"):
            enumerate_indecomposables(REVERSED, 2, bound)
        with pytest.raises(ValidationError, match="must be nonnegative"):
            Representation.from_dict(REVERSED, 2, bound)


def test_morphism_must_intertwine(s2, p1):
    from filtra import Matrix
    # projecting P1 onto its second coordinate is not a morphism to S2:
    # the square at the arrow forces the vertex-1 component to vanish
    assert hom_space(p1, s2) == []
    assert len(hom_space(s2, p1)) == 1
    with pytest.raises(ValidationError, match="intertwiner"):
        RepMorphism(p1, s2, [Matrix.zeros(2, 0, 1), Matrix(2, [[1]])])


def test_morphism_components_live_over_its_field(s1):
    # a component over F_3 between representations over F_2 is refused where
    # it enters, with the check on or off, before any arithmetic mixes moduli
    point = Quiver.from_edges(1, [])
    s = Representation.simple(point, 2, 0)
    for check in (True, False):
        with pytest.raises(ValidationError, match="vertex 0: matrix modulus 3 != 2"):
            RepMorphism(s, s, [Matrix(3, [[2]])], check=check)
    # over A2 the intertwiner law would otherwise see the mismatch first
    with pytest.raises(ValidationError, match="vertex 0: matrix modulus 3 != 2"):
        RepMorphism(s1, s1, [Matrix(3, [[1]]), Matrix.zeros(3, 0, 0)])
    assert RepMorphism(s, s, [Matrix(2, [[1]])]).is_isomorphism()


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
            # ext_space reads its dimension off the cached Hom basis and the
            # Euler form, so the cokernel is eliminated here independently
            cokernel = quiverrep._intertwiner_system(m, n).cokernel_projection().rows
            assert len(basis) - cokernel == euler_pairing(m, n)
            assert ext_space(m, n).dimension == cokernel
            for f in basis:
                RepMorphism(m, n, f.components)  # checks the intertwiner law


def test_direct_sum_maps_are_canonical(s1, s2):
    ds = direct_sum(s1, s2)
    assert ds.rep.dim == (1, 1)
    assert ds.project_left @ ds.inject_left == RepMorphism.identity(s1)
    assert ds.project_right @ ds.inject_right == RepMorphism.identity(s2)
    assert (ds.project_left @ ds.inject_right).is_zero()


def _stacked(p, grid):
    """A block matrix assembled row by row, as the former Matrix.block did."""
    return Matrix.vstack(p, [Matrix.hstack(p, list(row)) for row in grid])


def _reference_direct_sum(m, n):
    """direct_sum as it was before the block builder, kept as the oracle."""
    p = m.p
    dim = tuple(dm + dn for dm, dn in zip(m.dim, n.dim))
    maps = [_stacked(p, [[ma, Matrix.zeros(p, ma.rows, na.cols)],
                         [Matrix.zeros(p, na.rows, ma.cols), na]])
            for ma, na in zip(m.maps, n.maps)]
    total = Representation(m.quiver, p, dim, maps)
    il, ir, pl, pr = [], [], [], []
    for dm, dn in zip(m.dim, n.dim):
        im, inn = Matrix.identity(p, dm), Matrix.identity(p, dn)
        il.append(Matrix.vstack(p, [im, Matrix.zeros(p, dn, dm)], cols=dm))
        ir.append(Matrix.vstack(p, [Matrix.zeros(p, dm, dn), inn], cols=dn))
        pl.append(Matrix.hstack(p, [im, Matrix.zeros(p, dm, dn)], rows=dm))
        pr.append(Matrix.hstack(p, [Matrix.zeros(p, dn, dm), inn], rows=dn))
    return DirectSum(total, RepMorphism(m, total, il, check=False),
                     RepMorphism(n, total, ir, check=False),
                     RepMorphism(total, m, pl, check=False),
                     RepMorphism(total, n, pr, check=False))


def _reference_direct_power(m, k):
    """The former left-to-right fold of k direct sums."""
    acc = Representation.zero(m.quiver, m.p)
    for _ in range(k):
        acc = _reference_direct_sum(acc, m).rep
    return acc


def _reference_realize(delta):
    """realize as it was before the block builder."""
    A, C = delta.space.A, delta.space.C
    p, g = A.p, delta.cocycles()
    maps = [_stacked(p, [[A.maps[k], g[k]],
                         [Matrix.zeros(p, C.dim[a.target], A.dim[a.source]), C.maps[k]]])
            for k, a in enumerate(A.quiver.arrows)]
    B = Representation(A.quiver, p, tuple(da + dc for da, dc in zip(A.dim, C.dim)), maps)
    xc = [Matrix.vstack(p, [Matrix.identity(p, da), Matrix.zeros(p, dc, da)], cols=da)
          for da, dc in zip(A.dim, C.dim)]
    yc = [Matrix.hstack(p, [Matrix.zeros(p, dc, da), Matrix.identity(p, dc)], rows=dc)
          for da, dc in zip(A.dim, C.dim)]
    return Conflation(A, B, C, RepMorphism(A, B, xc, check=False),
                      RepMorphism(B, C, yc, check=False))


def _reference_power_filtration(theta, label, k):
    """power_filtration as it was: member^j rebuilt from scratch for each step."""
    member = theta[label]
    ident = RepMorphism.identity(member)
    steps = []
    for j in range(k):
        power = _reference_direct_power(member, j)
        ds = _reference_direct_sum(power, member)
        c = Conflation(power, ds.rep, member, ds.inject_left, ds.project_right)
        steps.append(FiltrationStep(c, label, ident))
    return Filtration(theta, steps)


def _assert_identical(u, v):
    """u == v, and every matrix inside them has the same bytes."""
    assert u == v
    if isinstance(u, Conflation):
        for part in ("A", "B", "C", "x", "y"):
            _assert_identical(getattr(u, part), getattr(v, part))
        return
    mats = (lambda w: w.maps) if isinstance(u, Representation) else (lambda w: w.components)
    assert [m.a.tobytes() for m in mats(u)] == [m.a.tobytes() for m in mats(v)]


def test_direct_power_nests_literally(s2):
    assert direct_sum(direct_power(s2, 2), s2).rep == direct_power(s2, 3)
    assert direct_power(s2, 0) == Representation.zero(s2.quiver, 2)
    # the block builder against the former constructions, byte for byte, over
    # A2, A3, Kronecker and D4 at p = 2, 3, 5 with zero vertex dimensions
    rng = random.Random(7)
    quivers = [
        (Quiver.from_edges(2, [("a", 0, 1)]), (3, 3)),
        (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), (2, 2, 2)),
        (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), (2, 3)),
        (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), (2, 2, 1, 2)),
    ]
    for quiver, bound in quivers:
        for p in (2, 3, 5):
            for _ in range(8):
                m = Representation.random(quiver, p, bound, rng)
                n = Representation.random(quiver, p, bound, rng)
                ds, expected = direct_sum(m, n), _reference_direct_sum(m, n)
                for part in ("rep", "inject_left", "inject_right", "project_left",
                             "project_right"):
                    _assert_identical(getattr(ds, part), getattr(expected, part))
                for k in range(5):
                    _assert_identical(direct_power(m, k), _reference_direct_power(m, k))
                    assert direct_sum(direct_power(m, k), m).rep == direct_power(m, k + 1)
                space = ext_space(n, m)
                for coords in [(0,) * space.dimension,
                               tuple(rng.randrange(p) for _ in range(space.dimension))]:
                    delta = ExtClass(space, coords)
                    _assert_identical(realize(delta), _reference_realize(delta))
            for v in range(quiver.vertex_count):
                for member in (Representation.simple(quiver, p, v),
                               Representation.projective(quiver, p, v)):
                    theta = ThetaFamily((member,))
                    for k in range(5):
                        f = power_filtration(theta, 0, k)
                        expected = _reference_power_filtration(theta, 0, k)
                        assert f == expected and len(f.steps) == k
                        for step, old in zip(f.steps, expected.steps):
                            _assert_identical(step.conflation, old.conflation)
                            _assert_identical(step.witness, old.witness)


def test_indecomposability(s1, s2, p1):
    assert is_indecomposable(s1) and is_indecomposable(s2) and is_indecomposable(p1)
    assert not is_indecomposable(direct_sum(s1, s2).rep)
    assert not is_indecomposable(Representation.zero(s1.quiver, 2))


def test_iso_witness_is_an_isomorphism(a2):
    rng = random.Random(12)
    for _ in range(40):
        m = Representation.random(a2, 3, (2, 2), rng)
        # rebuilding from the decomposition gives an isomorphic, usually not
        # equal, representation; the witness must be invertible
        rebuilt = Representation.zero(a2, 3)
        for x, count in reference_krull_schmidt(m):
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


def test_dynkin_walls_fall_under_a_small_budget(a2, a3, clear_caches):
    # Gabriel's theorem: one brick per positive root, found without the split
    # search; the full walk needs 46,144 and 18,250 nodes here.  The nodes are
    # the dimension vectors listed and the raw representations walked up to
    # the first brick of each root.
    for quiver, bound, count, nodes in ((a2, (3, 3), 3, 16 + 4), (a3, (2, 2, 2), 6, 27 + 12)):
        clear_caches()
        with searching(Budget(1000)) as budget:
            found = enumerate_indecomposables(quiver, 3, bound)
        assert (len(found), budget.used) == (count, nodes)
    # the Kronecker quiver is not Dynkin and still walks every representation
    kronecker = Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)])
    clear_caches()
    with pytest.raises(BudgetExceeded), searching(Budget(1000)):
        enumerate_indecomposables(kronecker, 3, (2, 2))


def test_repeated_enumerations_charge_the_same(a2, clear_caches):
    # no call leans on an earlier one: the walk runs, and charges, each time
    clear_caches()
    for _ in range(2):
        with searching(Budget(1000)) as budget:
            found = enumerate_indecomposables(a2, 3, (3, 3))
        assert (len(found), budget.used) == (3, 20)


def test_enumeration_walks_without_recursion():
    # one vertex: every class is S^k, one sum deeper than the last
    point = Quiver.from_edges(1, [])
    classes = enumerate_reps(point, 2, (1100,))
    assert [m.dim for m in classes] == [(k,) for k in range(1101)]


def test_enumeration_charges_one_node_per_class(d4):
    # 3406 classes here, for only 314 nodes of the indecomposable walk
    with pytest.raises(BudgetExceeded), searching(Budget(1000)):
        enumerate_reps(d4, 2, (3, 3, 3, 3))
    with searching(Budget(10_000)) as walk:
        enumerate_indecomposables(d4, 2, (2, 1, 1, 1))
    with searching(Budget(10_000)) as budget:
        classes = enumerate_reps(d4, 2, (2, 1, 1, 1))
    assert budget.used == walk.used + len(classes)


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


def test_every_scan_charges_the_running_budget(a2, clear_caches):
    clear_caches()
    p1 = Representation.projective(a2, 3, 0)
    scrambled = Representation.from_dict(a2, 3, (1, 1), {"a": [[2]]})
    scans = [lambda: iso_witness(p1, scrambled), lambda: is_indecomposable(p1),
             lambda: enumerate_subreps(p1),
             lambda: enumerate_indecomposables(a2, 3, (1, 1))]
    for scan in scans:
        with pytest.raises(BudgetExceeded), searching(Budget(1)):
            scan()
    # a scan inside another search draws on the enclosing budget
    with searching() as budget:
        assert iso_witness(p1, scrambled) is not None
        used = budget.used
        assert is_indecomposable(p1)
    assert 0 < used < budget.used


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
    # 2040 random pairs, zero vertex dimensions included
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
            for _ in range(170):
                m = Representation.random(quiver, p, bound, rng)
                n = Representation.random(quiver, p, bound, rng)
                cases.append((m, n))
    systems = [quiverrep._intertwiner_system(*case) for case in cases]
    monkeypatch.setattr(quiverrep, "_kron_block", lambda left, right: np.kron(left, right.T))
    assert len(cases) == 2040
    for case, system in zip(cases, systems):
        expected = quiverrep._intertwiner_system(*case)
        assert system.shape == expected.shape
        assert system.a.tobytes() == expected.a.tobytes()


HOM_QUIVERS = {
    "A2": (Quiver.from_edges(2, [("a", 0, 1)]), (5, 5)),
    "A3": (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), (4, 4, 4)),
    "A3 reversed": (Quiver.from_edges(3, [("a", 1, 0), ("b", 2, 1)]), (4, 4, 4)),
    "A3 through 0": (Quiver.from_edges(3, [("a", 1, 0), ("b", 0, 2)]), (4, 4, 4)),
    "Kronecker": (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), (4, 4)),
    "D4 source": (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), (4, 3, 3, 3)),
    "D4 sink": (Quiver.from_edges(4, [("a", 1, 0), ("b", 2, 0), ("c", 3, 0)]), (4, 3, 3, 3)),
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", list(HOM_QUIVERS))
def test_hom_elimination_matches_the_plain_one(name, p, clear_caches):
    # the plain elimination of the whole intertwiner system is the oracle of
    # _hom_rref, which takes the rows of the arrows out of vertex 0 as one block
    quiver, bound = HOM_QUIVERS[name]
    rng = random.Random(f"hom-rref-{name}-{p}")
    sizes = {"small": 0, "large": 0}
    for _ in range(30):
        m = Representation.random(quiver, p, bound, rng)
        n = Representation.random(quiver, p, bound, rng)
        system = quiverrep._intertwiner_system(m, n)
        clear_caches()
        assert quiverrep._hom_dim(m, n) == system.cols - system.rank()
        kernel = quiverrep._hom_kernel(m, n)
        expected = np.ascontiguousarray(system.kernel_basis().a.T)
        assert kernel.shape == expected.shape and kernel.tobytes() == expected.tobytes()
        reduced, pivots = quiverrep._hom_rref(m, n)
        plain, plain_pivots = system.rref()
        assert pivots == plain_pivots and reduced.tobytes() == plain.a.tobytes()
        sizes["large" if system.a.size > _RREF_SMALL_ENTRIES else "small"] += 1
    assert all(sizes.values()), sizes


def _one_value_of_each_class():
    """A representation, a morphism, a family, a conflation and the two
    filtrations of P1 = (F_3 -> F_3) by (S1, S2), all built from scratch."""
    quiver = Quiver.from_edges(2, [("a", 0, 1)])
    s1, s2 = Representation.simple(quiver, 3, 0), Representation.simple(quiver, 3, 1)
    p1 = Representation(quiver, 3, [1, 1], [Matrix(3, [[1]])])
    theta = ThetaFamily([s1, s2])
    x = RepMorphism(s2, p1, [Matrix.zeros(3, 1, 0), Matrix(3, [[1]])])
    y = RepMorphism(p1, s1, [Matrix(3, [[1]]), Matrix.zeros(3, 0, 1)])
    bottom = Conflation.identity_left(s2)
    top = Conflation(s2, p1, s1, x, y)
    filtration = Filtration(theta, [FiltrationStep(bottom, 1, RepMorphism.identity(s2)),
                                    FiltrationStep(top, 0, RepMorphism.identity(s1))])
    grouped = GroupedFiltration(theta, [GroupedStep(bottom, 1, 1), GroupedStep(top, 0, 1)])
    return [p1, x, theta, top, filtration, grouped]


def test_value_classes_are_frozen_and_compare_by_value():
    values, copies = _one_value_of_each_class(), _one_value_of_each_class()
    # as printed before the classes became dataclasses
    assert [repr(v) for v in values] == [
        "Representation(dim=(1, 1), p=3)",
        "RepMorphism((0, 1) -> (1, 1))",
        "ThetaFamily([(1, 0), (0, 1)])",
        "Conflation((0, 1) -> (1, 1) -> (1, 0))",
        "Filtration(top=(1, 1), labels=(1, 0))",
        "GroupedFiltration(top=(1, 1), labels=(1, 0), multiplicities=[1, 1])",
    ]
    for value, copy in zip(values, copies):
        assert dataclasses.is_dataclass(value) and not hasattr(value, "__dict__")
        for f in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, f.name, getattr(value, f.name))
        # a name that is not a field: the generated __setattr__ of a frozen
        # slots dataclass raises TypeError on some Python versions
        with pytest.raises((AttributeError, TypeError)):
            value.foo = 1
        assert not hasattr(value, "foo")
        assert copy is not value
        h = hash(value)  # fills the original's hash cache, if it keeps one
        assert copy == value and hash(copy) == h
    # ExtSpace is frozen too, but keeps a __dict__ for the matrices it builds on first use
    quiver = values[0].quiver
    s1, s2 = Representation.simple(quiver, 3, 0), Representation.simple(quiver, 3, 1)
    space, copy = ext_space(s1, s2), ExtSpace(s1, s2)
    for name in ("C", "dimension", "_projection"):
        with pytest.raises(AttributeError):
            setattr(space, name, getattr(space, name))
    assert copy is not space and copy == space and hash(copy) == hash(space)
    assert repr(space) == "ExtSpace(C=(1, 0), A=(0, 1), dim=1)"
    p1, copy = values[0], copies[0]
    # a value-equal pair hits the cached kernel, and the bases agree
    assert hom_space(copy, copy) == hom_space(p1, p1)
    assert quiverrep._hom_kernel(copy, copy) is quiverrep._hom_kernel(p1, p1)
    # the intertwiner law is checked unless the caller opts out
    broken = [Matrix(3, [[1]]), Matrix(3, [[0]])]
    with pytest.raises(ValidationError, match="intertwiner law fails at arrow a"):
        RepMorphism(p1, p1, broken)
    assert RepMorphism(p1, p1, broken, check=False).components == tuple(broken)
