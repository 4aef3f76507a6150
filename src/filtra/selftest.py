"""Invariant suites shared by the test suite and the command line selftest.

Each criterion function returns a CriterionResult with a pass flag and a
short human-readable detail line.  A criterion records a note for every
failed check and passes iff it recorded none; the first notes tail the
detail line.  Randomized criteria take a seeded RNG so identical
invocations produce identical outcomes.  A criterion takes no budget: its
searches and its own loops charge the running one (errors.spend), which
run_criteria sets to a fresh Budget() per criterion.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .approx import (is_theta_injective, is_theta_projective, perp_class,
                     precover, preenvelope, verify)
from .conflation import (Conflation, class_of, ext_space, is_split, et4_compose,
                         pullback, pushforward, realize)
from .errors import Budget, searching, spend
from .filtration import (Filtration, FiltrationStep, decide_filtered, group,
                         in_add, multiplicities, oracle_filtered, reorder,
                         star_membership)
from .quiverrep import (Quiver, Representation, RepMorphism, ThetaFamily, _flatten, _hom_dim,
                        _intertwiner_system, enumerate_indecomposables, enumerate_reps,
                        euler_pairing, hom_space, is_isomorphic)

__all__ = [
    "CriterionResult",
    "a2_quiver",
    "a3_quiver",
    "standard_families",
    "random_conflation",
    "random_filtration",
    "CRITERIA",
    "run_criteria",
]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _result(index: int, name: str, detail: str, notes: Sequence[str],
            shown: int = 3) -> CriterionResult:
    """Pass iff no note was recorded; the first `shown` notes tail the detail."""
    if notes:
        detail += "; " + "; ".join(notes[:shown])
    return CriterionResult(index, name, not notes, detail)


def a2_quiver() -> Quiver:
    return Quiver.from_edges(2, [("a", 0, 1)])


def a3_quiver() -> Quiver:
    return Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)])


def standard_families(quiver: Quiver, p: int) -> list[ThetaFamily]:
    """The ordered families used throughout the desk checks.

    Candidates are (all simples), (first two simples), (first simple, first
    projective), (first simple); duplicates and candidates violating the
    ordering condition are dropped.
    """
    simples = [Representation.simple(quiver, p, v) for v in range(quiver.vertex_count)]
    proj = Representation.projective(quiver, p, 0)
    raw = [tuple(simples), tuple(simples[:2]), (simples[0], proj), (simples[0],)]
    families, seen = [], set()
    for members in raw:
        if members in seen:
            continue
        seen.add(members)
        if not ThetaFamily.ordering_failures(members):
            families.append(ThetaFamily(members))
    return families


# -- randomized generators ----------------------------------------------------

def _random_automorphism(rng: random.Random, m: Representation) -> Optional[RepMorphism]:
    basis = hom_space(m, m)
    for _ in range(16):
        phi = RepMorphism.zero(m, m)
        for f in basis:
            phi = phi + f.scale(rng.randrange(m.p))
        if phi.is_isomorphism():
            return phi
    return None


def scramble_middle(rng: random.Random, c: Conflation) -> Conflation:
    """Conjugate the middle object by a random automorphism when one is found."""
    phi = _random_automorphism(rng, c.B)
    return c.with_middle(phi) if phi is not None else c


def random_conflation(rng: random.Random, quiver: Quiver, p: int,
                      max_dim: Sequence[int]) -> Conflation:
    """Realize a random extension class between two random representations."""
    a = Representation.random(quiver, p, max_dim, rng)
    c = Representation.random(quiver, p, max_dim, rng)
    space = ext_space(c, a)
    coords = [rng.randrange(p) for _ in range(space.dimension)]
    return scramble_middle(rng, realize(space.element(coords)))


def random_filtration(rng: random.Random, theta: ThetaFamily, length: int) -> Filtration:
    """Stack random extension classes by randomly labeled family members."""
    steps = []
    cur = Representation.zero(theta.quiver, theta.p)
    for _ in range(length):
        i = rng.randrange(len(theta))
        member = theta[i]
        space = ext_space(member, cur)
        coords = [rng.randrange(theta.p) for _ in range(space.dimension)]
        c = realize(space.element(coords))
        if rng.random() < 0.5:
            c = scramble_middle(rng, c)
        steps.append(FiltrationStep(c, i, RepMorphism.identity(member)))
        cur = c.B
    return Filtration(theta, steps)


# -- criterion 1: ext dimensions and the Euler-form cross-check ---------------

def criterion_ext_dimensions(rng: random.Random) -> CriterionResult:
    quiver, p = a2_quiver(), 2
    s1 = Representation.simple(quiver, p, 0)
    s2 = Representation.simple(quiver, p, 1)
    p1 = Representation.projective(quiver, p, 0)
    notes = []
    spot = {
        ("S1", "S2"): (ext_space(s1, s2).dimension, 1),
        ("S2", "S1"): (ext_space(s2, s1).dimension, 0),
        ("S1", "P1"): (ext_space(s1, p1).dimension, 0),
        ("P1", "S1"): (ext_space(p1, s1).dimension, 0),
        ("P1", "S2"): (ext_space(p1, s2).dimension, 0),
        ("P1", "P1"): (ext_space(p1, p1).dimension, 0),
    }
    for (cn, an), (got, want) in spot.items():
        if got != want:
            notes.append(f"ext({cn},{an}) = {got}, expected {want}")
    desk = enumerate_reps(quiver, p, (3, 3))
    pairs = 0
    for m in desk:
        for n in desk:
            pairs += 1
            # the cokernel is eliminated here on its own, apart from the rank
            # that counts Hom (_hom_dim): the Euler form ties the two
            cokernel = _intertwiner_system(m, n).cokernel_projection().rows
            if _hom_dim(m, n) - cokernel != euler_pairing(m, n):
                notes.append(f"Euler mismatch at dims {m.dim}, {n.dim}")
            if ext_space(m, n).dimension != cokernel:
                notes.append(f"ext dimension mismatch at dims {m.dim}, {n.dim}")
    detail = f"6 pinned dimensions, {pairs} Euler-form pairs"
    return _result(1, "ext dimensions with Euler cross-check", detail, notes, shown=4)


# -- criterion 2: split criterion equivalences ---------------------------------

def _identity_in_span(composites: Sequence[RepMorphism], obj: Representation) -> bool:
    """Is some linear combination of the composites the identity of obj?

    Tries every coefficient vector, so it does not lean on is_split.
    """
    target = _flatten(RepMorphism.identity(obj).components)
    if not composites:
        return not target.any()
    flat = np.stack([_flatten(f.components) for f in composites])
    combos = np.array(list(itertools.product(range(obj.p), repeat=len(composites))),
                      dtype=np.int64)
    return bool((((combos @ flat) % obj.p) == target).all(axis=1).any())


def criterion_split(rng: random.Random) -> CriterionResult:
    setups = [
        (a2_quiver(), 2, (1, 1)), (a2_quiver(), 3, (1, 1)),
        (a3_quiver(), 2, (1, 1, 1)), (a3_quiver(), 3, (1, 1, 1)),
    ]
    per = 130
    checked = split_count = 0
    notes = []
    for quiver, p, max_dim in setups:
        for _ in range(per):
            spend()
            c = random_conflation(rng, quiver, p, max_dim)
            zero = class_of(c).is_zero()
            w = is_split(c)
            split = w is not None
            retraction = _identity_in_span([r @ c.x for r in hom_space(c.B, c.A)], c.A)
            section = _identity_in_span([c.y @ s for s in hom_space(c.C, c.B)], c.C)
            if not (zero == split == retraction == section):
                notes.append(
                    f"disagreement at p={p} dims {c.B.dim}: zero={zero} split={split} "
                    f"retraction={retraction} section={section}")
            if split:
                split_count += 1
                ident_a = RepMorphism.identity(c.A)
                ident_c = RepMorphism.identity(c.C)
                ident_b = RepMorphism.identity(c.B)
                if (w.retraction @ c.x != ident_a or c.y @ w.section != ident_c
                        or not (w.retraction @ w.section).is_zero()
                        or c.x @ w.retraction + w.section @ c.y != ident_b):
                    notes.append(f"bad split witness at p={p} dims {c.B.dim}")
            checked += 1
    detail = f"{checked} conflations, {split_count} split"
    return _result(2, "split criterion equivalences", detail, notes)


# -- criterion 3: composition compatibilities ----------------------------------

def criterion_compose(rng: random.Random) -> CriterionResult:
    setups = [(a2_quiver(), 2, (1, 1)), (a3_quiver(), 2, (1, 1, 1)),
              (a2_quiver(), 3, (1, 1))]
    checked = 0
    notes = []
    target = 120
    while checked < target:
        quiver, p, max_dim = setups[checked % len(setups)]
        spend()
        c1 = random_conflation(rng, quiver, p, max_dim)
        f_obj = Representation.random(quiver, p, max_dim, rng)
        space = ext_space(f_obj, c1.B)
        coords = [rng.randrange(p) for _ in range(space.dimension)]
        c2 = realize(space.element(coords))
        res = et4_compose(c1, c2)
        delta1, delta2, delta3 = class_of(c1), class_of(c2), class_of(res.composite)
        eq1 = class_of(res.quotient) == pushforward(c1.y, delta2)
        eq2 = pullback(res.quotient.x, delta3) == delta1
        eq3 = pushforward(c1.x, delta3) == pullback(res.quotient.y, delta2)
        if not (eq1 and eq2 and eq3):
            notes.append(f"compatibility failure at p={p} dims {res.composite.B.dim}")
        checked += 1
    detail = f"{checked} composable pairs"
    return _result(3, "inflation composition compatibilities", detail, notes)


# -- criterion 4: reorder and group --------------------------------------------

def criterion_reorder(rng: random.Random) -> CriterionResult:
    pools = [(q, standard_families(q, 2)) for q in (a2_quiver(), a3_quiver())]
    checked = 0
    notes = []
    target = 240
    while checked < target:
        _, families = pools[checked % len(pools)]
        theta = families[rng.randrange(len(families))]
        f = random_filtration(rng, theta, rng.randrange(6))
        spend()
        g = reorder(f)
        if g.top != f.top:
            notes.append("reorder changed the filtered object")
        if multiplicities(g) != multiplicities(f):
            notes.append("reorder changed multiplicities")
        if not g.is_ordered():
            notes.append("reorder output is not ordered")
        grouped = group(g)
        labels = grouped.labels
        if any(labels[i] <= labels[i + 1] for i in range(len(labels) - 1)):
            notes.append("grouped labels not strictly decreasing")
        if len(grouped) > len(theta):
            notes.append("grouped filtration longer than the family")
        if grouped.top != f.top:
            notes.append("group changed the filtered object")
        if multiplicities(grouped) != multiplicities(f):
            notes.append("group changed multiplicities")
        checked += 1
    detail = f"{checked} random filtrations"
    return _result(4, "reorder and group invariants", detail, sorted(set(notes)))


# -- criterion 5: decision procedure against the oracle ------------------------

def criterion_decision(rng: random.Random) -> CriterionResult:
    setups = [(a2_quiver(), 2, (3, 3)), (a3_quiver(), 2, (2, 2, 2))]
    notes = []
    compared = 0
    for quiver, p, bound in setups:
        desk = enumerate_reps(quiver, p, bound)
        for theta in standard_families(quiver, p):
            for m in desk:
                found = decide_filtered(m, theta)
                accepted = oracle_filtered(m, theta)
                if (found is not None) != accepted:
                    notes.append(
                        f"disagreement at dims {m.dim} for family {[x.dim for x in theta.members]}")
                if found is not None:
                    if found.top != m:
                        notes.append(f"filtration top mismatch at dims {m.dim}")
                    counts = multiplicities(found)
                    total = [0] * quiver.vertex_count
                    for i, mult in enumerate(counts):
                        for v in range(quiver.vertex_count):
                            total[v] += mult * theta[i].dim[v]
                    if tuple(total) != m.dim:
                        notes.append(f"dimension additivity fails at dims {m.dim}")
                compared += 1
    # spot check: with the (simple, projective) family over the two-vertex
    # quiver, the filtered objects among the desk classes are exactly the
    # direct sums of the two members
    quiver, p = a2_quiver(), 2
    s1 = Representation.simple(quiver, p, 0)
    p1 = Representation.projective(quiver, p, 0)
    theta = ThetaFamily((s1, p1))
    pred = in_add([s1, p1])
    for m in enumerate_reps(quiver, p, (3, 3)):
        if (decide_filtered(m, theta) is not None) != pred(m):
            notes.append(f"spot-family mismatch at dims {m.dim}")
    detail = f"{compared} decisions compared"
    return _result(5, "filtration decision against the oracle", detail, notes)


# -- criterion 6: approximation triangles ---------------------------------------

def criterion_approx(rng: random.Random) -> CriterionResult:
    quiver, p = a2_quiver(), 2
    s1 = Representation.simple(quiver, p, 0)
    s2 = Representation.simple(quiver, p, 1)
    p1 = Representation.projective(quiver, p, 0)
    theta = ThetaFamily((s1, s2))
    indecs = enumerate_indecomposables(quiver, p, (3, 3))
    injectives = perp_class(theta, "ext-right", indecs)
    projectives = perp_class(theta, "ext-left", indecs)
    notes = []
    if not (len(injectives) == 2 and any(is_isomorphic(x, s1) for x in injectives)
            and any(is_isomorphic(x, p1) for x in injectives)):
        notes.append("injective side of the perpendicular class is not {S1, P1}")
    if not (len(projectives) == 2 and any(is_isomorphic(x, s2) for x in projectives)
            and any(is_isomorphic(x, p1) for x in projectives)):
        notes.append("projective side of the perpendicular class is not {S2, P1}")
    count = 0
    for x in enumerate_reps(quiver, p, (2, 2)):
        spend()
        env = preenvelope(x, theta)
        if any(ext_space(member, env.triangle.B).dimension for member in theta.members):
            notes.append(f"envelope middle not perpendicular at dims {x.dim}")
        if not oracle_filtered(env.triangle.C, theta):
            notes.append(f"envelope quotient not filtered at dims {x.dim}")
        report = verify(env, injectives)
        if not (report.passed and not report.skipped):
            notes.append(f"preenvelope verification failed at dims {x.dim}")
        cov = precover(x, theta)
        if any(ext_space(cov.triangle.B, member).dimension for member in theta.members):
            notes.append(f"cover middle not perpendicular at dims {x.dim}")
        if not oracle_filtered(cov.triangle.A, theta):
            notes.append(f"cover kernel not filtered at dims {x.dim}")
        report = verify(cov, projectives)
        if not (report.passed and not report.skipped):
            notes.append(f"precover verification failed at dims {x.dim}")
        count += 1
    env = preenvelope(s2, theta)
    if not (is_isomorphic(env.triangle.B, p1) and is_isomorphic(env.triangle.C, s1)):
        notes.append("preenvelope of S2 is not P1 with quotient S1")
    cov = precover(s1, theta)
    if not (is_isomorphic(cov.triangle.B, p1) and is_isomorphic(cov.triangle.A, s2)):
        notes.append("precover of S1 is not P1 with kernel S2")
    detail = f"{count} objects enveloped and covered"
    return _result(6, "approximation triangles and verification", detail, notes)


# -- criterion 7: perpendicular reduction ---------------------------------------

def criterion_perp(rng: random.Random) -> CriterionResult:
    quiver, p = a2_quiver(), 2
    theta = ThetaFamily((Representation.simple(quiver, p, 0),
                         Representation.simple(quiver, p, 1)))
    desk = enumerate_reps(quiver, p, (3, 3))
    filtered = [m for m in desk if decide_filtered(m, theta) is not None]
    notes = []
    for a in desk:
        left_family = is_theta_projective(a, theta)
        left_class = all(ext_space(a, m).dimension == 0 for m in filtered)
        right_family = is_theta_injective(a, theta)
        right_class = all(ext_space(m, a).dimension == 0 for m in filtered)
        if left_family != left_class:
            notes.append(f"projective-side mismatch at dims {a.dim}")
        if right_family != right_class:
            notes.append(f"injective-side mismatch at dims {a.dim}")
    detail = f"{len(desk)} candidates against {len(filtered)} filtered objects"
    return _result(7, "perpendicular class reduction", detail, notes)


# -- criterion 8: star associativity and monotonicity ---------------------------

def criterion_star(rng: random.Random) -> CriterionResult:
    quiver, p = a2_quiver(), 2
    desk = enumerate_reps(quiver, p, (2, 2))
    notes = []
    assoc_checked = mono_checked = 0
    for theta in standard_families(quiver, p):
        first = in_add(theta[0])
        last = in_add(theta[len(theta) - 1])
        full = in_add(list(theta.members))

        def pair(x: Callable, y: Callable) -> Callable[[Representation], bool]:
            return lambda q: star_membership(q, [x, y]) is not None

        for m in desk:
            flat = star_membership(m, [first, last, full]) is not None
            left = star_membership(m, [pair(first, last), full]) is not None
            right = star_membership(m, [first, pair(last, full)]) is not None
            if not (flat == left == right):
                notes.append(f"associativity mismatch at dims {m.dim}")
            assoc_checked += 1
            chain = [star_membership(m, [full] * k) is not None
                     for k in range(1, 4)]
            if any(chain[i] and not chain[i + 1] for i in range(len(chain) - 1)):
                notes.append(f"monotonicity fails at dims {m.dim}")
            mono_checked += 1
    detail = f"{assoc_checked} associativity and {mono_checked} monotonicity checks"
    return _result(8, "star associativity and monotonicity", detail, notes)


CRITERIA: list[Callable[[random.Random], CriterionResult]] = [
    criterion_ext_dimensions,
    criterion_split,
    criterion_compose,
    criterion_reorder,
    criterion_decision,
    criterion_approx,
    criterion_perp,
    criterion_star,
]


def run_criteria(seed: int = 0) -> list[CriterionResult]:
    """Run all criteria with a fresh seeded RNG and budget per criterion.

    Each criterion runs under searching(Budget()), so FILTRA_BUDGET, when
    set, is the limit of each one.  Every search a criterion runs, iso and
    split scans included, is charged to that budget, and so is each
    errors.spend() of the criterion's own loops; an invalid FILTRA_BUDGET
    raises before any criterion runs.
    """
    results = []
    for fn in CRITERIA:
        rng = random.Random(seed)
        budget = Budget()
        try:
            with searching(budget):
                results.append(fn(rng))
        except Exception as exc:  # a crash is a failure, not an abort
            index = len(results) + 1
            results.append(CriterionResult(index, fn.__name__, False,
                                           f"raised {type(exc).__name__}: {exc}"))
    return results
