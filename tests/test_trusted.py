"""filtra's own constructions, validated here rather than on every run.

Conflation, RepMorphism, Filtration and GroupedFiltration check their
invariants on construction unless check=False.  filtra passes check=False
only where the invariant holds by construction: the split, identity and
realized conflations, the transport with_middle, both
results of the two ET4 compositions and their maps, the direct sum of
conflations, the split witnesses, complete_square, shift_base, the
equivalences of conflations_equivalent, exchange, collapse, the peels of
decide_filtered and star_membership, power_filtration, extend,
transport_top, reorder, group, the two universal extensions and the empty
filtrations of the approximations.

A spy records every object of the four classes as it is made, with its
check flag and the function that made it, and every Matrix made by the
validating constructor Matrix(p, ...) rather than Matrix._wrap.  The first
test drives every trusted site over A2, A3 and D4 at p = 2 and 3 and
rebuilds each trusted object with the validating constructors.  The last
one asserts that the approximations, reorder, group, the decision peel,
enumerate_reps and the iso and split scans make no validating
construction, so a new internal site that forgets check=False, or wraps
its own arrays through Matrix(p, ...), fails here.
"""

import random
import sys

import pytest

from filtra import (Conflation, Filtration, GroupedFiltration, Quiver, RepMorphism,
                    Representation, ValidationError, complete_square,
                    conflation_direct_sum, conflations_equivalent, decide_filtered,
                    direct_sum, enumerate_reps, et4_compose, et4op_compose, ext_space,
                    extend, group, hom_space, in_add, is_indecomposable, is_split,
                    iso_witness, power_filtration, precover, preenvelope, realize,
                    reorder, shift_base, star_membership, universal_extension_cover,
                    universal_extension_env)
from filtra.linalg import Matrix
from filtra.selftest import (random_conflation, random_filtration, scramble_middle,
                             standard_families)
from oracles import reference_krull_schmidt

CLASSES = (Conflation, RepMorphism, Filtration, GroupedFiltration)

# the functions that build with check=False, by name; _peel and _search are
# the ones of decide_filtered and go the one of star_membership
TRUSTED_SITES = {
    "split", "identity_right", "identity_left", "with_middle",
    "realize", "et4_compose", "et4op_compose", "conflation_direct_sum",
    "exchange", "collapse", "is_split", "complete_square", "shift_base",
    "conflations_equivalent", "_peel", "_search", "go",
    "power_filtration", "extend", "transport_top", "reorder", "group",
    "universal_extension_cover", "universal_extension_env", "preenvelope", "precover",
}


@pytest.fixture
def constructions(monkeypatch):
    """(object, check flag, name of the building function) for
    every Conflation, RepMorphism, Filtration and GroupedFiltration made
    while the test runs, and for every Matrix that the validating
    constructor makes, with check flag True."""
    made = []
    for cls in CLASSES:
        def spy(self, check, post_init=cls.__post_init__):
            # frames: spy, the dataclass __init__, the building function
            made.append((self, check, sys._getframe(2).f_code.co_name))
            post_init(self, check)
        monkeypatch.setattr(cls, "__post_init__", spy)

    def matrix_spy(self, *args, init=Matrix.__init__, **kwargs):
        # frames: spy, then the building function, perhaps inside a comprehension
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        made.append((self, True, frame.f_code.co_name))
        init(self, *args, **kwargs)
    monkeypatch.setattr(Matrix, "__init__", matrix_spy)
    return made


def revalidate(obj) -> None:
    """Rebuild obj, and the morphisms and conflations it holds, with the
    validating constructors; ValidationError where the trust was misplaced."""
    if isinstance(obj, RepMorphism):
        RepMorphism(obj.source, obj.target, obj.components)
    elif isinstance(obj, Conflation):
        revalidate(obj.x)
        revalidate(obj.y)
        Conflation(obj.A, obj.B, obj.C, obj.x, obj.y)
    else:
        obj.validate()
        for step in obj.steps:
            revalidate(step.conflation)
            if isinstance(obj, Filtration):
                revalidate(step.witness)


def _realize_random(rng, c_obj, a_obj):
    space = ext_space(c_obj, a_obj)
    return realize(space.element([rng.randrange(c_obj.p) for _ in range(space.dimension)]))


def _drive_trusted_sites(rng, quiver, p):
    """Call every trusted site on random input over the quiver at p."""
    bound = (2,) + (1,) * (quiver.vertex_count - 1)
    for _ in range(6):
        x = Representation.random(quiver, p, bound, rng)
        y = Representation.random(quiver, p, bound, rng)
        Conflation.split(x, y)
        Conflation.identity_right(x)
        Conflation.identity_left(y)
        # realize and with_middle
        c1 = random_conflation(rng, quiver, p, bound)
        conflation_direct_sum(c1, scramble_middle(rng, Conflation.split(x, y)))
        is_split(c1)
        is_split(scramble_middle(rng, Conflation.split(x, y)))
        conflations_equivalent(c1, scramble_middle(rng, c1))
        a = RepMorphism.zero(c1.A, x)
        for g in hom_space(c1.A, x):
            a = a + g.scale(rng.randrange(p))
        shifted, b = shift_base(a, c1)
        complete_square(a, b, c1, shifted)
        et4_compose(c1, _realize_random(rng, y, c1.B))
        et4op_compose(_realize_random(rng, c1.B, x), c1)
        if ext_space(x, y).dimension:
            universal_extension_cover(x, y)
            if not ext_space(x, x).dimension:
                universal_extension_env(y, x)
    # ext(S0, S1) != 0 over every quiver here, and S0 has no self-extensions
    s0, s1 = Representation.simple(quiver, p, 0), Representation.simple(quiver, p, 1)
    universal_extension_cover(s0, s1)
    universal_extension_env(s1, s0)
    for theta in standard_families(quiver, p):
        for _ in range(3):
            f = random_filtration(rng, theta, 2 + rng.randrange(3))
            group(reorder(f))
            decide_filtered(f.top, theta)
        power_filtration(theta, len(theta) - 1, 2)
        bottom, top = power_filtration(theta, len(theta) - 1, 1), power_filtration(theta, 0, 1)
        extend(_realize_random(rng, top.top, bottom.top), bottom, top)
        for m in (Representation.zero(quiver, p),
                  Representation.random(quiver, p, bound, rng)):
            preenvelope(m, theta)
            precover(m, theta)
        small = Representation.random(quiver, p, bound, rng)
        star_membership(small, [in_add(theta[i]) for i in range(len(theta) - 1, -1, -1)])


@pytest.mark.parametrize("quiver_name", ["a2", "a3", "d4"])
@pytest.mark.parametrize("p", [2, 3])
def test_trusted_constructions_pass_validation(request, constructions, clear_caches,
                                               quiver_name, p):
    quiver = request.getfixturevalue(quiver_name)
    clear_caches()  # so decide_filtered peels instead of reading its memo
    _drive_trusted_sites(random.Random(1600 + 10 * p + quiver.vertex_count), quiver, p)
    trusted = [(obj, site) for obj, check, site in constructions if not check]
    assert TRUSTED_SITES <= {site for _, site in trusted}
    assert len(trusted) > 500
    for obj, site in trusted:
        try:
            revalidate(obj)
        except ValidationError as exc:
            pytest.fail(f"{site} built an invalid {type(obj).__name__}: {exc}")


def test_revalidation_catches_a_perturbed_morphism(s2, p1):
    # the deflation e of et4_compose with one entry changed, as a mutant of
    # et4_compose would build it: neither a morphism nor a deflation
    res = et4_compose(Conflation.identity_left(s2), Conflation.split(s2, p1))
    quotient = res.quotient
    comps = list(quotient.y.components)
    comps[0] = Matrix(2, (comps[0].a + 1) % 2)
    bent = RepMorphism(quotient.y.source, quotient.y.target, comps, check=False)
    with pytest.raises(ValidationError, match="intertwiner law fails"):
        revalidate(bent)
    with pytest.raises(ValidationError, match="deflation must be vertexwise surjective"):
        Conflation(quotient.A, quotient.B, quotient.C, quotient.x, bent)


def test_filtra_trusts_its_own_constructions(a3, d4, constructions, clear_caches):
    # the inputs are built first; only the calls below are watched
    rng = random.Random(1616)
    calls = []
    for quiver in (a3, d4):
        for p in (2, 3):
            for theta in standard_families(quiver, p):
                f = random_filtration(rng, theta, 3)
                m = Representation.random(quiver, p, (2,) + (1,) * (quiver.vertex_count - 1), rng)
                calls += [(preenvelope, m, theta), (precover, m, theta),
                          (decide_filtered, f.top, theta)]
                calls.append((lambda f: group(reorder(f)), f))
    # the iso and split scans, on a scrambled R + S over the Kronecker quiver
    # whose split is found by the idempotent scan, and the enumerations
    kronecker = Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)])
    m = Representation.from_dict(kronecker, 3, (3, 3), {
        "a": [[1, 0, 0], [2, 1, 2], [1, 1, 0]], "b": [[2, 2, 2], [1, 0, 0], [1, 2, 0]]})
    pieces = [rep for rep, _ in reference_krull_schmidt(m)]
    calls += [(is_indecomposable, m), (iso_witness, direct_sum(*pieces).rep, m),
              (enumerate_reps, kronecker, 2, (2, 1)), (enumerate_reps, d4, 2, (1, 1, 1, 1))]
    clear_caches()
    constructions.clear()
    for fn, *args in calls:
        fn(*args)
    validating = sorted({f"{type(obj).__name__} in {site}"
                         for obj, check, site in constructions if check})
    assert validating == []
    assert len(constructions) > 1000
