"""The indecomposable walk and iso_key against the code they replaced.

reference_indecomposables is the full walk of enumerate_indecomposables as
it was before it read Gabriel's theorem, with reference_is_indecomposable,
the split search it called on every raw representation; reference_iso_key is
iso_key before it kept the quiver's paths, with reference_paths, the
Quiver.paths it called.  All four are kept verbatim apart from their names.  The new walk must keep the same representatives
and spend no more budget nodes.
"""

import itertools
import random

import pytest

from filtra import (Budget, Quiver, Representation, enumerate_indecomposables,
                    is_isomorphic, quiverrep)
from filtra.errors import searching
from filtra.quiverrep import _all_raw_reps, _dim_vectors_under, _euler_form, _is_dynkin, iso_key


# -- the code before Gabriel's theorem, kept as oracles ----------------------------

def reference_is_indecomposable(m: Representation) -> bool:
    """True when m is nonzero with no nontrivial direct-sum splitting."""
    if m.total_dim == 0:
        return False
    with searching():
        return not quiverrep._splits(m)


def reference_indecomposables(quiver, p, bound):
    found = []
    with searching():
        for dim in _dim_vectors_under(bound):
            if sum(dim) == 0:
                continue
            for rep in _all_raw_reps(quiver, p, dim):
                if not reference_is_indecomposable(rep):
                    continue
                if any(is_isomorphic(rep, seen) for seen in found if seen.dim == dim):
                    continue
                found.append(rep)
    found.sort(key=quiverrep._canonical_key)
    return tuple(found)


def reference_paths(quiver):
    found = []
    frontier = [(a,) for a in quiver.arrows]
    while frontier:
        found.extend(frontier)
        nxt = []
        for path in frontier:
            for a in quiver.arrows:
                if a.source == path[-1].target:
                    nxt.append(path + (a,))
        frontier = nxt
    return sorted(found, key=lambda path: (len(path), tuple(a.name for a in path)))


def reference_iso_key(m: Representation):
    index = {a.name: k for k, a in enumerate(m.quiver.arrows)}
    path_ranks = []
    for path in reference_paths(m.quiver):
        acc = m.maps[index[path[0].name]]
        for a in path[1:]:
            acc = m.maps[index[a.name]] @ acc
        path_ranks.append(acc.rank())
    return (m.dim, tuple(mm.rank() for mm in m.maps), tuple(path_ranks))


# -- quivers ---------------------------------------------------------------------

def _quiver(n, edges):
    return Quiver.from_edges(n, [(f"a{k}", s, t) for k, (s, t) in enumerate(edges)])


A2 = _quiver(2, [(0, 1)])
A3 = _quiver(3, [(0, 1), (1, 2)])
A3_REVERSED = _quiver(3, [(1, 0), (2, 1)])
D4_SOURCE = _quiver(4, [(0, 1), (0, 2), (0, 3)])
D4_SINK = _quiver(4, [(1, 0), (2, 0), (3, 0)])
A2_A1 = _quiver(3, [(0, 1)])
KRONECKER = _quiver(2, [(0, 1), (0, 1)])

# per case, the bound at p = 2, 3 and at p = 5, where the full walk is slower
WALKS = {
    "A2": (A2, (2, 2), (2, 2)),
    "A3": (A3, (1, 2, 1), (1, 2, 1)),
    "A3 reversed": (A3_REVERSED, (1, 2, 1), (1, 2, 1)),
    "D4 source": (D4_SOURCE, (2, 1, 1, 1), (1, 1, 1, 1)),
    "D4 sink": (D4_SINK, (2, 1, 1, 1), (1, 1, 1, 1)),
    "A2 + A1": (A2_A1, (2, 1, 1), (2, 1, 1)),
    "Kronecker": (KRONECKER, (1, 2), (2, 1)),
}


def _roots_under(quiver, bound):
    """The nonzero d <= bound with Tits form q(d) = 1, sorted."""
    return [d for d in itertools.product(*[range(b + 1) for b in bound])
            if any(d) and _euler_form(quiver, d, d) == 1]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", list(WALKS))
def test_walk_keeps_the_full_walks_representatives(name, p, clear_caches):
    quiver, bound, bound5 = WALKS[name]
    bound = bound5 if p == 5 else bound
    clear_caches()
    with searching(Budget(10 ** 9)) as old_budget:
        expected = reference_indecomposables(quiver, p, bound)
    clear_caches()
    with searching(Budget(10 ** 9)) as new_budget:
        found = enumerate_indecomposables(quiver, p, bound)
    assert found == list(expected)
    assert new_budget.used <= old_budget.used
    if _is_dynkin(quiver):
        # Gabriel: one indecomposable per positive root under the bound
        assert sorted(r.dim for r in found) == _roots_under(quiver, bound)
        assert new_budget.used < old_budget.used


@pytest.mark.parametrize("name", list(WALKS))
def test_walk_decides_indecomposability_like_the_split_search(name, clear_caches):
    # every raw representation the walks see at p = 3: the split search
    # finds each brick indecomposable, and on Dynkin quivers nothing
    # indecomposable off the roots
    quiver, _, bound = WALKS[name]
    clear_caches()
    with searching(Budget(10 ** 9)):
        for dim in _dim_vectors_under(bound):
            if not any(dim):
                continue
            for rep in _all_raw_reps(quiver, 3, dim):
                brick = len(quiverrep._hom_kernel(rep, rep)) == 1
                indecomposable = reference_is_indecomposable(rep)
                assert indecomposable or not brick
                if _is_dynkin(quiver) and _euler_form(quiver, dim, dim) != 1:
                    assert not indecomposable


def _a(n):
    return _quiver(n, [(v, v + 1) for v in range(n - 1)])


def test_dynkin_quivers_are_the_ade_ones():
    dynkin = {
        "A1": _a(1), "A2": _a(2), "A5": _a(5), "A8 zigzag": _quiver(8, [
            (v, v + 1) if v % 2 else (v + 1, v) for v in range(7)]),
        "A2 + A1": A2_A1, "D4 source": D4_SOURCE, "D4 sink": D4_SINK,
        "D6": _quiver(6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]),
        "E6": _quiver(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
        "E8": _quiver(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]),
        "no vertex": Quiver.from_edges(0, []),
        "isolated vertices": Quiver.from_edges(3, []),
    }
    wild_or_tame = {
        "Kronecker": KRONECKER,
        "D~4": _quiver(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        "triangle": _quiver(3, [(0, 1), (1, 2), (0, 2)]),
        "A~3 square": _quiver(4, [(0, 1), (1, 2), (0, 3), (3, 2)]),
        "E~6": _quiver(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]),
        "three arrows": _quiver(2, [(0, 1)] * 3),
        "A2 + Kronecker": _quiver(4, [(0, 1), (2, 3), (2, 3)]),
    }
    assert {name: _is_dynkin(q) for name, q in dynkin.items()} == dict.fromkeys(dynkin, True)
    assert ({name: _is_dynkin(q) for name, q in wild_or_tame.items()}
            == dict.fromkeys(wild_or_tame, False))
    # Gabriel's root counts: the positive roots lie under the highest one
    for quiver, highest, count in ((_a(5), (1,) * 5, 15), (D4_SINK, (2, 1, 1, 1), 12),
                                   (dynkin["E6"], (1, 2, 3, 2, 1, 2), 36)):
        assert len(_roots_under(quiver, highest)) == count
    assert enumerate_indecomposables(dynkin["no vertex"], 3, ()) == []


def test_iso_key_matches_the_per_path_loop():
    # arrow names out of declaration order, so the length-1 paths are not
    # in arrow order; paths of length up to 3
    quivers = [
        (Quiver.from_edges(4, [("c", 0, 1), ("a", 1, 2), ("b", 2, 3), ("d", 0, 2)]), (2, 2, 2, 2)),
        (Quiver.from_edges(3, [("z", 1, 0), ("y", 2, 0), ("x", 2, 1)]), (2, 3, 2)),
        (KRONECKER, (3, 3)),
        (D4_SINK, (2, 1, 1, 1)),
    ]
    rng = random.Random(18)
    for quiver, bound in quivers:
        assert quiver.paths() == reference_paths(quiver)
        for p in (2, 3, 5):
            for _ in range(25):
                m = Representation.random(quiver, p, bound, rng)
                assert iso_key(m) == reference_iso_key(m)
