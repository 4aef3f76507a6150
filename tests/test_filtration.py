"""Filtrations: stacking, exchange, collapse, reorder, group, decision."""

import random

import pytest

from filtra import (Budget, BudgetExceeded, Conflation, ExtObstruction, Filtration,
                    Matrix, FiltrationStep, GroupedFiltration, GroupedStep, Quiver,
                    RepMorphism, Representation, ThetaFamily,
                    ValidationError, collapse, decide_filtered, direct_power,
                    direct_sum, enumerate_indecomposables, enumerate_reps,
                    exchange, ext_space, extend, group, in_add, is_isomorphic,
                    iso_witness, multiplicities, oracle_filtered, power_filtration,
                    realize, reorder, star_membership, transport_top)
from filtra.errors import searching
from filtra.filtration import _dim_feasible
from filtra.quiverrep import _hom_kernel
from filtra.selftest import random_filtration, standard_families
from oracles import reference_krull_schmidt


def one_step(theta, label):
    member = theta[label]
    return FiltrationStep(Conflation.identity_left(member), label,
                          RepMorphism.identity(member))


def test_validation_rejects_nonzero_start(full_family, s1, s2):
    step = FiltrationStep(Conflation.split(s1, s2), 1, RepMorphism.identity(s2))
    with pytest.raises(ValidationError, match="start at the zero"):
        Filtration(full_family, [step])


def test_validation_rejects_broken_witness(full_family, s1, s2):
    step = FiltrationStep(Conflation.identity_left(s2), 1,
                          RepMorphism.zero(s2, s2))
    with pytest.raises(ValidationError, match="witness"):
        Filtration(full_family, [step])


def test_power_filtration_shape(full_family, s2):
    f = power_filtration(full_family, 1, 3)
    assert len(f) == 3 and f.labels == (1, 1, 1)
    assert f.top == direct_power(s2, 3)
    assert f.is_ordered()
    g = group(f)
    assert len(g) == 1 and g.steps[0].multiplicity == 3


@pytest.mark.parametrize("label, k, message", [
    (-1, 2, "label -1 is out of range for 2 members"),
    (2, 1, "label 2 is out of range for 2 members"),
    (5, 1, "label 5 is out of range for 2 members"),
    (0, -3, "power must be nonnegative"),
])
def test_power_filtration_refuses_bad_label_or_power(full_family, label, k, message):
    with pytest.raises(ValidationError, match=message):
        power_filtration(full_family, label, k)


def test_power_filtration_of_power_zero_is_empty(full_family):
    f = power_filtration(full_family, 0, 0)
    assert len(f) == 0 and f.top.is_zero()
    f.validate()


def test_extend_concatenates_labels(full_family, s1, s2):
    c = realize(ext_space(s1, s2).element([1]))
    f_sub = Filtration(full_family, [one_step(full_family, 1)])
    f_quot = Filtration(full_family, [one_step(full_family, 0)])
    f = extend(c, f_sub, f_quot)
    assert f.top == c.B
    assert f.labels == (1, 0) and f.is_ordered()
    assert multiplicities(f) == (1, 1)


def test_extend_requires_matching_tops(full_family, s1, s2):
    c = realize(ext_space(s1, s2).element([1]))
    wrong = Filtration(full_family, [one_step(full_family, 0)])
    with pytest.raises(ValidationError, match="tops"):
        extend(c, wrong, wrong)


def test_exchange_swaps_split_neighbors(full_family, s1, s2):
    # S1 below S2 can always be exchanged since ext(S2, S1) = 0
    c1 = Conflation.identity_left(s1)
    c2 = Conflation.split(s1, s2)
    low, high = exchange(c1, c2)
    assert low.A == c1.A and high.B == c2.B
    assert low.B == high.A
    assert is_isomorphic(low.C, s2) and is_isomorphic(high.C, s1)


def test_exchange_obstructed_by_ext(full_family, s1, s2):
    # S2 below S1 cannot be exchanged: ext(S1, S2) = 1
    c1 = Conflation.identity_left(s2)
    c2 = realize(ext_space(s1, s2).element([1]))
    with pytest.raises(ExtObstruction, match="dimension 1"):
        exchange(c1, c2)


def test_collapse_merges_equal_quotients(full_family, s1):
    fs = [Conflation.identity_left(s1), Conflation.split(s1, s1)]
    merged = collapse(fs)
    assert merged.A == fs[0].A and merged.B == fs[1].B
    assert merged.C == direct_power(s1, 2)


def test_collapse_obstructed_by_self_extension(a2, s1, s2):
    both = direct_sum(s1, s2).rep
    assert ext_space(both, both).dimension == 1
    with pytest.raises(ExtObstruction):
        collapse([Conflation.identity_left(both)])


def test_reorder_explicit_swap(full_family, s1, s2):
    st1 = one_step(full_family, 0)
    st2 = FiltrationStep(Conflation.split(s1, s2), 1, RepMorphism.identity(s2))
    f = Filtration(full_family, [st1, st2])
    assert not f.is_ordered()
    g = reorder(f)
    assert g.is_ordered() and g.labels == (1, 0)
    assert g.top == f.top
    assert multiplicities(g) == multiplicities(f)


def test_reorder_random_roundtrip(a2, a3):
    rng = random.Random(31)
    for quiver in (a2, a3):
        for theta in standard_families(quiver, 2):
            for _ in range(10):
                f = random_filtration(rng, theta, rng.randrange(5))
                g = reorder(f)
                assert g.is_ordered()
                assert g.top == f.top
                assert multiplicities(g) == multiplicities(f)
                grouped = group(g)
                assert grouped.top == f.top
                assert multiplicities(grouped) == multiplicities(f)
                assert len(grouped) <= len(theta)


def test_group_keeps_multiplicities_of_repeated_labels(a2, a3):
    # one step more than the family has members, so some label repeats
    rng = random.Random(47)
    for quiver in (a2, a3):
        for theta in standard_families(quiver, 2):
            for extra in (1, 2):
                f = random_filtration(rng, theta, len(theta) + extra)
                grouped = group(reorder(f))
                assert len(grouped) < len(f)
                assert multiplicities(grouped) == multiplicities(f)


@pytest.mark.parametrize("broken", ["nonzero start", "unshared middle", "out-of-range label"])
def test_grouped_and_plain_chains_refuse_alike(full_family, s1, s2, broken):
    if broken == "nonzero start":
        chain = [(Conflation.split(s1, s2), 1)]
    elif broken == "unshared middle":
        chain = [(Conflation.identity_left(s2), 1), (Conflation.identity_left(s1), 0)]
    else:
        chain = [(Conflation.identity_left(s2), 2)]
    plain = [FiltrationStep(c, label, RepMorphism.identity(c.C)) for c, label in chain]
    grouped = [GroupedStep(c, label, 1) for c, label in chain]
    with pytest.raises(ValidationError) as plain_error:
        Filtration(full_family, plain)
    with pytest.raises(ValidationError) as grouped_error:
        GroupedFiltration(full_family, grouped)
    assert str(grouped_error.value) == str(plain_error.value)


def test_group_needs_order(full_family, s1, s2):
    st1 = one_step(full_family, 0)
    st2 = FiltrationStep(Conflation.split(s1, s2), 1, RepMorphism.identity(s2))
    f = Filtration(full_family, [st1, st2])
    with pytest.raises(ValidationError, match="reorder first"):
        group(f)


def test_transport_top_keeps_labels(full_family, p1, s1, s2):
    f = decide_filtered(p1, full_family)
    assert f is not None and f.top == p1
    c = realize(ext_space(s1, s2).element([1]))
    w = iso_witness(p1, c.B)
    g = transport_top(f, w)
    assert g.top == c.B and g.labels == f.labels
    # one inversion checks phi; each caller keeps its own message
    singular, skew = RepMorphism.zero(p1, c.B), RepMorphism.zero(p1, s1)
    for phi in (singular, skew):
        with pytest.raises(ValidationError, match="morphism is not invertible"):
            phi.inverse()
    with pytest.raises(ValidationError, match="transport needs an isomorphism"):
        transport_top(f, singular)
    with pytest.raises(ValidationError, match="middle transport needs an isomorphism"):
        f.steps[-1].conflation.with_middle(singular)
    empty = Filtration(full_family, ())
    with pytest.raises(ValidationError, match="transport needs an isomorphism"):
        transport_top(empty, RepMorphism.zero(empty.top, s1))
    assert transport_top(empty, RepMorphism.identity(empty.top)).steps == ()
    assert w.inverse() @ w == RepMorphism.identity(p1)


def test_star_membership_order_matters(p1, s1, s2):
    chain = star_membership(p1, [in_add(s2), in_add(s1)])
    assert chain is not None and len(chain) == 2
    assert chain[0].A.total_dim == 0 and chain[-1].B == p1
    assert chain[0].B == chain[1].A
    assert is_isomorphic(chain[0].C, s2) and is_isomorphic(chain[1].C, s1)
    assert star_membership(p1, [in_add(s1), in_add(s2)]) is None


def test_star_with_zero_layers(s1, s2, p1):
    # predicates accepting the zero object allow an unused layer
    assert star_membership(s1, [in_add(s2), in_add(s1)]) is not None
    assert star_membership(s1, [in_add(s1), in_add(s2)]) is not None


def test_decide_matches_oracle_spot_values(full_family, mixed_family, s1, s2, p1):
    f = decide_filtered(p1, full_family)
    assert f is not None and f.labels == (1, 0)
    assert oracle_filtered(p1, full_family)
    assert decide_filtered(s2, mixed_family) is None
    assert not oracle_filtered(s2, mixed_family)
    f = decide_filtered(s1, mixed_family)
    assert f is not None and f.labels == (0,)


def test_filtered_class_equals_layered_star(a2, full_family, mixed_family, s1, s2, p1):
    # membership in the filtered class is the same as membership in
    # add theta[t] * ... * add theta[1] (largest label at the bottom)
    for theta in (full_family, mixed_family):
        classes = [in_add(theta[i]) for i in range(len(theta) - 1, -1, -1)]
        for m in enumerate_reps(a2, 2, (2, 2)):
            decided = decide_filtered(m, theta) is not None
            starred = star_membership(m, classes) is not None
            assert decided == starred, m.dim


def test_decide_dimension_additivity(a2, full_family):
    for m in enumerate_reps(a2, 2, (2, 2)):
        f = decide_filtered(m, full_family)
        assert f is not None  # every A2 module is filtered by both simples
        counts = multiplicities(f)
        total = [0, 0]
        for i, k in enumerate(counts):
            for v in range(2):
                total[v] += k * full_family[i].dim[v]
        assert tuple(total) == m.dim


@pytest.mark.parametrize("quiver_name, p, vertex", [
    ("a3", 2, 0), ("a3", 2, None), ("a2", 3, 0), ("a2", 3, None)])
def test_decisions_refuse_a_module_over_another_quiver_or_field(request, full_family,
                                                               quiver_name, p, vertex):
    # full_family lives over A2 at p = 2; None stands for the zero module
    quiver = request.getfixturevalue(quiver_name)
    m = (Representation.zero(quiver, p) if vertex is None
         else Representation.simple(quiver, p, vertex))
    for decide in (decide_filtered, oracle_filtered):
        with pytest.raises(ValidationError, match="module and the family must be over the same"):
            decide(m, full_family)


def reference_dim_feasible(theta_dims, dim, start):
    """The recursion _dim_feasible made before: every multiplicity of each
    member in turn."""
    if all(d == 0 for d in dim):
        return True
    if start >= len(theta_dims):
        return False
    step = theta_dims[start]
    top = min((d // s for d, s in zip(dim, step) if s), default=0)
    return any(reference_dim_feasible(theta_dims, tuple(d - k * s for d, s in zip(dim, step)),
                                      start + 1)
               for k in range(top + 1))


def test_dim_feasible_matches_the_recursion():
    rng = random.Random(437)
    answers = set()
    for _ in range(600):
        vertices, count = rng.randint(1, 3), rng.randint(1, 4)
        members = []
        while len(members) < count:
            dims = tuple(rng.randint(0, 3) for _ in range(vertices))
            if any(dims):
                members.append(dims)
        dim = tuple(rng.randint(0, 9) for _ in range(vertices))
        for start in range(len(members) + 1):
            expected = reference_dim_feasible(tuple(members), dim, start)
            assert _dim_feasible(tuple(members), dim, start) == expected
            answers.add(expected)
    assert answers == {True, False}


def test_dim_feasible_keeps_one_entry_per_query(clear_caches):
    # members of dim 2 and 4 at one vertex: the recursion tried every pair
    # of multiplicities and cached every remainder it reached
    clear_caches()
    assert not _dim_feasible(((2,), (4,)), (2999,), 0)
    assert _dim_feasible(((2,), (4,)), (3000,), 0)
    assert len(_dim_feasible.store) == 2


def test_decide_respects_budget(a2):
    # decisions are memoized per family, so use a field nothing else touches
    fam = ThetaFamily((Representation.simple(a2, 5, 0),
                       Representation.simple(a2, 5, 1)))
    target = direct_power(Representation.projective(a2, 5, 0), 3)
    with pytest.raises(Exception) as info:
        decide_filtered(target, fam, Budget(1))
    assert "budget" in str(info.value)


def test_cached_errors_carry_no_store_lookup(a2, clear_caches):
    # a miss runs the cached function outside the lookup's except block, so
    # its errors chain no KeyError, however deep the cached peel recursed
    clear_caches()
    one = Quiver.from_edges(1, [])
    big = Representation.from_dict(one, 2, (300,), {})
    with pytest.raises(ValidationError, match="too large") as refused:
        _hom_kernel(big, big)
    assert refused.value.__context__ is None
    fam = ThetaFamily((Representation.simple(a2, 3, 0), Representation.simple(a2, 3, 1)))
    target = direct_power(Representation.projective(a2, 3, 0), 3)
    with pytest.raises(BudgetExceeded) as spent:
        decide_filtered(target, fam, Budget(3))
    assert spent.value.__context__ is None


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("quiver_name, bound", [("a2", (2, 2)), ("a3", (1, 2, 1))])
def test_oracle_ignores_earlier_calls(request, quiver_name, bound, p, clear_caches):
    # each desk module decided after the others before it in one process
    # gets the answer and the budget.used of its call from empty caches
    quiver = request.getfixturevalue(quiver_name)
    desk = enumerate_reps(quiver, p, bound)
    answers = set()
    for theta in standard_families(quiver, p):
        cold = []
        for m in desk:
            clear_caches()
            budget = Budget()
            cold.append((oracle_filtered(m, theta, budget), budget.used))
        clear_caches()
        warm = []
        for m in desk:
            budget = Budget()
            warm.append((oracle_filtered(m, theta, budget), budget.used))
        assert warm == cold
        answers |= {answer for answer, _ in cold}
    assert answers == {True, False}


def test_decide_charges_the_memo_iso_scan(a2, clear_caches):
    # the memo is keyed by the module itself, so a module isomorphic but not
    # equal to a decided one misses it and is peeled, which the budget pays for
    clear_caches()
    fam = ThetaFamily((Representation.simple(a2, 3, 0), Representation.simple(a2, 3, 1)))
    m = direct_sum(Representation.projective(a2, 3, 0), Representation.simple(a2, 3, 0)).rep
    scrambled = Representation.from_dict(a2, 3, (2, 1), {"a": [[2, 1]]})
    assert scrambled != m and is_isomorphic(scrambled, m)
    assert decide_filtered(m, fam) is not None
    budget = Budget()
    f = decide_filtered(scrambled, fam, budget)
    assert f is not None and f.top == scrambled
    assert budget.used > 0


def _conjugated(m):
    """m under the vertexwise change of basis by the upper triangular
    matrices of ones."""
    g = [Matrix(m.p, [[int(j >= i) for j in range(d)] for i in range(d)], shape=(d, d))
         for d in m.dim]
    maps = [g[a.target] @ mm @ g[a.source].inverse() for a, mm in zip(m.quiver.arrows, m.maps)]
    return Representation(m.quiver, m.p, m.dim, maps)


def _matrices(f):
    """Every matrix of a filtration, step by step: the maps of each middle
    object, the inflation, the deflation and the witness."""
    return [(mm.shape, mm.a.tobytes()) for s in f.steps
            for mm in (s.conflation.B.maps + s.conflation.x.components
                       + s.conflation.y.components + s.witness.components)]


@pytest.mark.parametrize("quiver_name", ["a2", "a3"])
def test_decision_ignores_earlier_calls(request, quiver_name, clear_caches):
    # an isomorphic copy decided first must not hand its filtration over
    quiver = request.getfixturevalue(quiver_name)
    p = 3
    s1, p1 = Representation.simple(quiver, p, 0), Representation.projective(quiver, p, 0)
    theta = ThetaFamily([s1, p1])
    x = direct_sum(direct_sum(p1, s1).rep, p1).rep
    copy = _conjugated(x)
    assert copy != x and is_isomorphic(copy, x)
    clear_caches()
    cold_budget = Budget()
    cold = decide_filtered(x, theta, cold_budget)
    assert cold is not None and cold.top == x
    clear_caches()
    assert decide_filtered(copy, theta) is not None
    warm_budget = Budget()
    warm = decide_filtered(x, theta, warm_budget)
    assert _matrices(warm) == _matrices(cold)
    assert warm == cold
    assert warm_budget.used <= cold_budget.used


def test_filtration_of_direct_power_family(a2, s1, s2):
    # filtering by a direct power member accepts only multiples of it
    fam = ThetaFamily((s1, direct_power(s2, 2)))
    assert decide_filtered(s2, fam) is None
    assert decide_filtered(direct_power(s2, 2), fam) is not None
    assert oracle_filtered(direct_power(s2, 2), fam)


def _in_add_by_krull_schmidt(pieces):
    """in_add as it was before the rank test, kept as its oracle: every
    Krull-Schmidt summand of m is isomorphic to some piece.  That is add of
    the pieces only when the pieces are indecomposable."""
    pieces = list(pieces)

    def predicate(m):
        if m.total_dim == 0:
            return True
        return all(any(is_isomorphic(part, piece) for piece in pieces)
                   for part, _ in reference_krull_schmidt(m))

    return predicate


@pytest.mark.parametrize("quiver_name, bound", [
    ("a2", (2, 2)), ("a3", (2, 1, 1)), ("kronecker", (1, 2)), ("d4", (1, 1, 1, 1))])
@pytest.mark.parametrize("p", [2, 3])
def test_in_add_matches_the_krull_schmidt_oracle(request, quiver_name, bound, p):
    if quiver_name == "kronecker":
        quiver = Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)])
    else:
        quiver = request.getfixturevalue(quiver_name)
    indecs = enumerate_indecomposables(quiver, p, bound)
    reps = enumerate_reps(quiver, p, bound)
    rng = random.Random(316)
    families = [[x] for x in indecs]
    families += [rng.sample(indecs, 2) for _ in range(6)]
    families += [rng.sample(indecs, 3) for _ in range(3)]
    checked = 0
    for pieces in families:
        expected = [_in_add_by_krull_schmidt(pieces)(m) for m in reps]
        # a direct sum of two pieces has the add of the two
        expected_sum = [_in_add_by_krull_schmidt([pieces[0], pieces[-1]])(m) for m in reps]
        new = in_add(pieces)
        summed = in_add(direct_sum(pieces[0], pieces[-1]).rep)
        with searching(Budget()) as budget:
            assert [new(m) for m in reps] == expected, pieces
            assert [summed(m) for m in reps] == expected_sum, pieces
        assert budget.used == 0  # the rank test searches nothing
        checked += sum(expected)
    assert checked > len(families)


def test_in_add_takes_summands_of_decomposable_pieces(a3):
    # S1 (+) S3 over A3 filters itself, so it lies in the add of its family;
    # the Krull-Schmidt predicate compared its summands with the whole piece
    simples = [Representation.simple(a3, 2, v) for v in range(3)]
    m = direct_sum(simples[0], simples[2]).rep
    assert decide_filtered(m, ThetaFamily([m])) is not None
    assert in_add([m])(m)
    assert in_add(m)(simples[0]) and in_add(m)(simples[2])
    assert in_add(m)(direct_power(m, 2))
    assert not in_add(m)(simples[1])
    assert not in_add(m)(direct_sum(m, simples[1]).rep)
