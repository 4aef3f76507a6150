"""The chunked Hom scans against the per-vector loops they replaced.

The reference functions are the one-vector-at-a-time scans of
quiverrep.iso_witness, of the split search quiverrep._splits (in
tests/oracles.py) and of the filtration.decide_filtered peel (below) as they
were before the scans were batched, kept verbatim apart from their names and
the peel's memo: it is keyed by the module, as the library's is, and by_iso
selects the older memo that looked modules up by an iso scan.  The batched
scans must return the same first hit, or for the split search the same yes
or no, and charge the same budget, including the point where a
BudgetExceeded is raised.
"""

import itertools
import random
import sys
from typing import Optional

import numpy as np
import pytest

from filtra import (Budget, BudgetExceeded, Matrix, Quiver, Representation,
                    RepMorphism, ThetaFamily, ValidationError, decide_filtered,
                    direct_sum, enumerate_indecomposables, iso_witness, quiverrep)
from filtra.conflation import Conflation
from filtra.errors import searching, spend
from filtra.filtration import (Filtration, FiltrationStep, _dim_feasible, _search,
                               transport_top)
from filtra.quiverrep import (_hom_dim, _hom_kernel, _invariants_match, hom_space, iso_key,
                              kernel_sub)
from filtra.selftest import random_filtration, standard_families
from oracles import (combo_components, fitting_split, hom_component_stacks,
                     reference_decompose, reference_invariants_match, reference_iso_witness,
                     reference_krull_schmidt, reference_try_split)


# -- the per-vector peel, kept as an oracle ------------------------------------

def _normalized_coefficients(p: int, h: int):
    for coeffs in itertools.product(range(p), repeat=h):
        first = next((c for c in coeffs if c), None)
        if first != 1:
            continue
        yield np.asarray(coeffs, dtype=np.int64)


def reference_decide_filtered(m: Representation, theta: ThetaFamily, memo: dict,
                              budget: Optional[Budget] = None,
                              by_iso: bool = False) -> Optional[Filtration]:
    """The per-vector peel.  Its memo maps (module, min_label) to the answer;
    with by_iso it is the older memo instead, kept as an oracle: (module,
    answer) pairs under (iso_key, min_label), a lookup scanning Hom for an
    isomorphism and moving a cached filtration over along it."""
    t = len(theta)
    theta_dims = tuple(mem.dim for mem in theta.members)

    def peel(cur: Representation, min_label: int) -> Optional[Filtration]:
        if cur.total_dim == 0:
            return Filtration(theta, ())
        if not _dim_feasible(theta_dims, cur.dim, min_label):
            return None
        if by_iso:
            key = (iso_key(cur), min_label)
            for rep, cached in memo.get(key, []):
                if rep == cur:
                    return cached
                phi = reference_iso_witness(rep, cur)
                if phi is None:
                    continue
                if cached is None:
                    return None
                return transport_top(cached, phi)
        else:
            key = (cur, min_label)
            if key in memo:
                return memo[key]
        result = None
        for i in range(min_label, t):
            member = theta[i]
            if any(dc < dm for dc, dm in zip(cur.dim, member.dim)):
                continue
            basis = hom_space(cur, member)
            stacks = hom_component_stacks(basis, cur, member)
            for coeffs in _normalized_coefficients(cur.p, len(basis)):
                spend()
                comps = combo_components(coeffs, stacks, cur.p)
                if any(Matrix(cur.p, c).rank() != member.dim[v]
                       for v, c in enumerate(comps)):
                    continue
                epi = RepMorphism(cur, member,
                                  [Matrix(cur.p, c) for c in comps], check=False)
                sub, incl = kernel_sub(epi)
                below = peel(sub, i)
                if below is not None:
                    step = FiltrationStep(Conflation(sub, cur, member, incl, epi),
                                          i, RepMorphism.identity(member))
                    result = Filtration(theta, below.steps + (step,))
                    break
            if result is not None:
                break
        if by_iso:
            memo.setdefault(key, []).append((cur, result))
        else:
            memo[key] = result
        return result

    with searching(budget):
        return peel(m, 0)


# -- cases ------------------------------------------------------------------------

QUIVERS = {
    "A2": (Quiver.from_edges(2, [("a", 0, 1)]), (2, 2)),
    "A3": (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), (2, 2, 1)),
    "Kronecker": (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), (2, 2)),
    "D4": (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), (2, 1, 1, 1)),
}
BUDGETS = (None, 1, 3, 17, 40)
# scans are kept to at most this many vectors, so the reference loops stay quick
MAX_SCAN = 800


def _invertible(rng: random.Random, p: int, d: int) -> Matrix:
    while True:
        g = Matrix(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)], shape=(d, d))
        if g.rank() == d:
            return g


def _scrambled(rng: random.Random, m: Representation) -> Representation:
    """m under a random vertexwise change of basis."""
    g = [_invertible(rng, m.p, d) for d in m.dim]
    maps = [g[a.target] @ mm @ g[a.source].inverse()
            for a, mm in zip(m.quiver.arrows, m.maps)]
    return Representation(m.quiver, m.p, m.dim, maps)


def _charged(run, limit):
    """(result, budget.used) of run() under a fresh budget; BudgetExceeded is a result."""
    budget = Budget(limit)
    try:
        with searching(budget):
            result = run(budget)
    except BudgetExceeded:
        result = BudgetExceeded
    return result, budget.used


def _random_at(rng: random.Random, quiver: Quiver, p: int, dim) -> Representation:
    maps = [Matrix(p, [[rng.randrange(p) for _ in range(dim[a.source])]
                       for _ in range(dim[a.target])], shape=(dim[a.target], dim[a.source]))
            for a in quiver.arrows]
    return Representation(quiver, p, dim, maps)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("quiver_name", list(QUIVERS))
def test_scans_match_the_per_vector_loops(quiver_name, p, clear_caches):
    quiver, bound = QUIVERS[quiver_name]
    rng = random.Random(f"{quiver_name}-{p}")
    modules = [Representation.random(quiver, p, bound, rng) for _ in range(12)]
    checked = {"iso": 0, "split": 0, "decide": 0}
    for m in modules:
        # iso: a scrambled copy, and a random module of the same dimension
        for n in (_scrambled(rng, m), _random_at(rng, quiver, p, m.dim)):
            if p ** len(hom_space(m, n)) > MAX_SCAN:
                continue
            for limit in BUDGETS:
                assert (_charged(lambda b: iso_witness(m, n), limit)
                        == _charged(lambda b: reference_iso_witness(m, n), limit))
                checked["iso"] += 1
        # split: m and its indecomposable pieces; the Fitting attempts settle
        # nearly every split, so the End scan mostly runs to the end on the
        # pieces (hits are tested below)
        if p ** len(hom_space(m, m)) <= MAX_SCAN:
            with searching():
                pieces = [piece for piece, _, _ in reference_decompose(m)]
            for x in [m] + pieces:
                for limit in BUDGETS:
                    assert (_charged(lambda b: quiverrep._splits(x), limit)
                            == _charged(lambda b: reference_try_split(x) is not None, limit))
                    checked["split"] += 1
    # decide: a module, then two scrambled copies, which the memo does not
    # answer unless one equals an earlier module: they are peeled
    simples = [Representation.simple(quiver, p, v) for v in range(quiver.vertex_count)]
    families = [ThetaFamily(simples)]
    try:
        families.append(ThetaFamily([simples[0], Representation.projective(quiver, p, 0)]))
    except ValidationError:
        pass
    for theta in families:
        for m in modules[:6]:
            if p ** m.total_dim > MAX_SCAN:
                continue
            chain = [m, _scrambled(rng, m), _scrambled(rng, m)]
            for limit in BUDGETS:
                clear_caches()
                memo = {}
                for x in chain:
                    assert (_charged(lambda b: decide_filtered(x, theta, b), limit)
                            == _charged(lambda b: reference_decide_filtered(x, theta, memo, b),
                                        limit))
                    checked["decide"] += 1
    assert all(checked.values()), checked


# the budget of each decision in the sweep below: the per-vector loops run
# a few thousand vectors at most, and the iso memo runs past it on some modules
SWEEP_LIMIT = 3000


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("quiver_name", list(QUIVERS))
def test_value_memo_matches_the_iso_memo_cold(quiver_name, p, clear_caches):
    # each decision from empty caches, against the peel with the older memo:
    # within one call its iso lookups serve isomorphic sub-modules, which the
    # value-keyed memo peels instead
    quiver, bound = QUIVERS[quiver_name]
    rng = random.Random(f"sweep-{quiver_name}-{p}")
    indecs = enumerate_indecomposables(quiver, p, bound)
    families = standard_families(quiver, p)
    for _ in range(200):
        if len(families) == 6:
            break
        members = rng.sample(indecs, rng.randint(2, 3))
        if not ThetaFamily.ordering_failures(members):
            families.append(ThetaFamily(members))
    seen = {"answered": 0, "member": 0, "budget out": 0}
    for theta in families:
        modules = []
        for _ in range(3):
            # an iterated extension of members, with and without a stray
            # summand, and a random module
            top = random_filtration(rng, theta, rng.randint(2, 4)).top
            modules += [top, direct_sum(top, rng.choice(indecs)).rep,
                        Representation.random(quiver, p, tuple(2 * b for b in bound), rng)]
        for x in modules:
            clear_caches()
            old, old_used = _charged(
                lambda b: reference_decide_filtered(x, theta, {}, b, by_iso=True), SWEEP_LIMIT)
            clear_caches()
            new, new_used = _charged(lambda b: decide_filtered(x, theta, b), SWEEP_LIMIT)
            assert new_used <= old_used
            if old is BudgetExceeded:
                seen["budget out"] += 1
                continue
            assert new == old
            seen["answered"] += 1
            seen["member"] += old is not None
    assert seen["answered"] > seen["member"] > 0, seen


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("quiver_name", ["A2", "A3"])
def test_decision_store_holds_what_the_value_memo_held(quiver_name, p, clear_caches):
    # one warm sweep per family, against the per-vector peel sharing one memo:
    # the same answers and budgets call by call, and _search stores exactly
    # the (module, min_label) keys that memo holds, each module nonzero and
    # dimension-feasible, the zero and infeasible ones staying with the gate
    quiver, bound = QUIVERS[quiver_name]
    rng = random.Random(f"store-{quiver_name}-{p}")
    seen = {"member": 0, "not": 0}
    for theta in standard_families(quiver, p):
        modules = []
        for _ in range(4):
            top = random_filtration(rng, theta, rng.randint(1, 3)).top
            modules += [top, _scrambled(rng, top), Representation.random(quiver, p, bound, rng)]
        clear_caches()
        memo = {}
        for x in modules:
            if p ** x.total_dim > MAX_SCAN:
                continue
            got = _charged(lambda b: decide_filtered(x, theta, b), None)
            assert got == _charged(lambda b: reference_decide_filtered(x, theta, memo, b), None)
            seen["member" if got[0] is not None else "not"] += 1
        keys = set(_search.store)
        assert keys == {(theta, cur, label) for cur, label in memo}
        theta_dims = tuple(mem.dim for mem in theta.members)
        for _, cur, label in keys:
            assert cur.total_dim > 0 and _dim_feasible(theta_dims, cur.dim, label)
    assert all(seen.values()), seen


def test_the_d4_wall_falls(clear_caches):
    # a D4 non-member at p = 2 whose dimension vector is the sum
    # 2 (1,1,0,1) + (2,1,1,1) + (1,0,0,1).  Its peel meets three unequal but
    # isomorphic sub-modules of dim (4,2,1,3), and the iso memo answered each
    # by scanning a 15-dimensional Hom space for an isomorphism: 27,905 nodes
    # in all, where the whole decision with the value-keyed memo takes 105
    quiver, bound = QUIVERS["D4"]
    indecs = {m.dim: m for m in enumerate_indecomposables(quiver, 2, bound)}
    theta = ThetaFamily([indecs[(1, 1, 0, 1)], indecs[(2, 1, 1, 1)], indecs[(1, 0, 0, 1)]])
    m = _random_at(random.Random(28), quiver, 2, (5, 3, 1, 4))
    clear_caches()
    budget = Budget(10_000)
    assert decide_filtered(m, theta, budget) is None
    clear_caches()
    assert _charged(lambda b: reference_decide_filtered(m, theta, {}, b, by_iso=True),
                    100_000) == (None, 27_905)


def test_wide_hom_scan_stops_at_the_budget():
    # dim Hom = 73 at p = 2: the scan's vector indices run far past int64
    a2 = Quiver.from_edges(2, [("a", 0, 1)])
    m = Representation.from_dict(a2, 2, (9, 1), {"a": [[0] * 8 + [1]]})
    n = Representation.from_dict(a2, 2, (9, 1), {"a": [[1] + [0] * 8]})
    assert len(hom_space(m, n)) == 73
    for scan in (iso_witness, reference_iso_witness):
        budget = Budget(1000)
        with pytest.raises(BudgetExceeded), searching(budget):
            scan(m, n)
        assert budget.used == 1001


def _reference_hits(stacks, p, dims, kind):
    """The vectors the loops above accept, one at a time, as a generator."""
    identity = [np.eye(d, dtype=np.int64) for d in dims]
    for combo in itertools.product(range(p), repeat=len(stacks[0])):
        if kind == "epi" and next((c for c in combo if c), None) != 1:
            continue
        spend()
        comps = combo_components(np.asarray(combo, dtype=np.int64), stacks, p)
        if kind == "idempotent":
            if all((c == 0).all() for c in comps):
                continue
            if all(np.array_equal(c, i) for c, i in zip(comps, identity)):
                continue
            if all(np.array_equal((c @ c) % p, c) for c in comps):
                yield comps
        elif all(Matrix(p, c).rank() == d for c, d in zip(comps, dims)):
            yield comps


def _first_hits(scan, k=6):
    return [b"".join(c.tobytes() for c in comps) for comps in itertools.islice(scan, k)]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("quiver_name", list(QUIVERS))
def test_scan_yields_every_hit_in_loop_order(quiver_name, p):
    # several hits per scan, where the callers above mostly stop at the first:
    # idempotents of End(m) for a scrambled m = x + y, epimorphisms m -> x
    quiver, bound = QUIVERS[quiver_name]
    rng = random.Random(f"hits-{quiver_name}-{p}")
    hits = {"idempotent": 0, "epi": 0}
    for _ in range(10):
        x, y = (Representation.random(quiver, p, bound, rng) for _ in range(2))
        m = _scrambled(rng, direct_sum(x, y).rep)
        n = x if x.total_dim else y
        for kind, target in (("idempotent", m), ("epi", n)):
            basis = hom_space(m, target)
            if m.total_dim == 0 or p ** len(basis) > MAX_SCAN:
                continue
            if kind == "idempotent":
                test = lambda cs: quiverrep._nontrivial_idempotent_mask(cs, p)  # noqa: E731
            else:
                test = lambda cs: quiverrep._rank_mask(cs, target.dim, p)  # noqa: E731
            stacks = hom_component_stacks(basis, m, target)
            for limit in BUDGETS:
                got = _charged(lambda b: _first_hits(
                    quiverrep._scan(quiverrep._hom_kernel(m, target), m, target, test,
                                    leading_one=kind == "epi")), limit)
                assert got == _charged(
                    lambda b: _first_hits(_reference_hits(stacks, p, target.dim, kind)), limit)
                if limit is None:
                    hits[kind] += len(got[0])
    assert all(hits.values()), hits


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("quiver_name", list(QUIVERS))
def test_invariants_match_counts_hom_like_the_bases(quiver_name, p, clear_caches):
    # the rank counts of _hom_dim against the four bases of the reference
    quiver, bound = QUIVERS[quiver_name]
    rng = random.Random(f"invariants-{quiver_name}-{p}")
    pairs = []
    for _ in range(8):
        m = Representation.random(quiver, p, bound, rng)
        pairs += [(m, _scrambled(rng, m)), (m, _random_at(rng, quiver, p, m.dim)),
                  (m, Representation.random(quiver, p, bound, rng))]
    if quiver_name == "Kronecker":
        # (1, 1) modules a = [1], b = [l]: one iso_key for every l != 0 and one
        # iso class per l, all with the same Hom and End dimensions.  Their
        # sums of two share an iso_key too, and R1 + R1 against R1 + R2 differ
        # only in dim End (4 against 2)
        pencils = [Representation.from_dict(quiver, p, (1, 1), {"a": [[1]], "b": [[lam]]})
                   for lam in range(1, p)]
        sums = [direct_sum(x, y).rep
                for x, y in itertools.combinations_with_replacement(pencils, 2)]
        pairs += list(itertools.product(pencils, repeat=2)) + list(itertools.product(sums, repeat=2))
        # one dim vector, iso_key and dim End (3), but dim Hom 4 one way and 2 back
        skew = [Representation.from_dict(quiver, p, (2, 2), {"a": [[0, 0], [0, 1]], "b": b})
                for b in ([[0, 0], [1, 0]], [[0, 1], [0, 0]])]
        pairs += [tuple(skew), tuple(skew[::-1])]
    agree = {True: 0, False: 0}
    for m, n in pairs:
        clear_caches()
        want = reference_invariants_match(m, n)
        clear_caches()
        assert _invariants_match(m, n) == want
        agree[want] += 1
        for x, y in itertools.product((m, n), repeat=2):
            clear_caches()
            assert (x, y) not in _hom_kernel.store
            counted = _hom_dim(x, y)
            assert (x, y) not in _hom_kernel.store
            assert counted == len(hom_space(x, y))
            assert _hom_dim(x, y) == len(_hom_kernel.store[x, y]) == counted
    assert all(agree.values()), agree
    if quiver_name == "Kronecker":
        assert iso_key(skew[0]) == iso_key(skew[1]) and not _invariants_match(*skew)
        assert (_hom_dim(*skew), _hom_dim(*skew[::-1])) == (4, 2)
    if quiver_name == "Kronecker" and p == 3:
        one, two = pencils
        assert iso_key(one) == iso_key(two) and _invariants_match(one, two)
        assert iso_witness(one, two) is None
        same, mixed = sums[:2]
        assert iso_key(same) == iso_key(mixed) and not _invariants_match(same, mixed)
        assert _hom_dim(same, mixed) == _hom_dim(mixed, same) == 2


def test_memo_lookups_build_no_hom_basis(a3, clear_caches, monkeypatch):
    p = 3
    rng = random.Random("memo-kernels")
    s1, p1 = Representation.simple(a3, p, 0), Representation.projective(a3, p, 0)
    theta = ThetaFamily([s1, p1])
    m = direct_sum(direct_sum(p1, s1).rep, p1).rep
    copies = [_scrambled(rng, m), _scrambled(rng, m)]
    clear_caches()

    def no_hom_basis(*args):
        raise AssertionError("hom_space called")

    with monkeypatch.context() as patch:
        # every filtra module that bound the name, so no caller reaches the real one
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "filtra" and vars(module).get("hom_space") is hom_space:
                patch.setattr(module, "hom_space", no_hom_basis)
        for x in [m] + copies:
            f = decide_filtered(x, theta)
            assert f is not None and f.top == x
    # the copies were peeled, not looked up by an iso scan of Hom(m, copy)
    assert all(x != m for x in copies)
    assert all((m, x) not in _hom_kernel.store for x in copies)
    # hom_space unpacks the cached kernel without copying it
    kernel = _hom_kernel(m, m)
    assert not kernel.flags.writeable
    blocks = [c.a for f in hom_space(m, m) for c in f.components if c.a.size]
    assert blocks and all(np.shares_memory(b, kernel) and not b.flags.writeable for b in blocks)


def test_split_scan_hit_matches_the_loop(clear_caches):
    # a scrambled R + S over the Kronecker quiver at p = 3 with End = F_9 x F_3:
    # no End basis element and no pairwise sum has a proper Fitting power, so
    # the split is the first nontrivial idempotent of the End scan
    quiver = QUIVERS["Kronecker"][0]
    m = Representation.from_dict(quiver, 3, (3, 3), {
        "a": [[1, 0, 0], [2, 1, 2], [1, 1, 0]], "b": [[2, 2, 2], [1, 0, 0], [1, 2, 0]]})
    basis = hom_space(m, m)
    assert len(basis) == 3
    assert all(fitting_split(m, [c.a for c in f.components]) is None for f in basis)
    assert all(fitting_split(m, [(a.a + b.a) % 3 for a, b in zip(f.components, g.components)])
               is None for f, g in itertools.combinations(basis, 2))

    # the split search spends 21 nodes (6 Fitting attempts, 15 scanned
    # vectors); a budget below that stops it at the same node as the loop
    for limit in BUDGETS + (20, 21):
        clear_caches()
        got = _charged(lambda b: quiverrep._splits(m), limit)
        assert got == _charged(lambda b: reference_try_split(m) is not None, limit)
        assert got[1] == (21 if limit is None else min(21, limit + 1))
        assert got[0] in (True, BudgetExceeded)
    assert [rep.dim for rep, count in reference_krull_schmidt(m)] == [(1, 1), (2, 2)]
