"""Filtrations by a fixed ordered family and the calculus that rearranges them.

A filtration of M is a chain of conflations

    0 = M_0 -> M_1 -> ... -> M_n = M,   step i: (M_{i-1} -> M_i -> X_i)

where each quotient X_i comes labeled with a family index k_i and an
isomorphism witness X_i -> theta[k_i].  Consecutive steps share their middle
objects literally (value equality), which is what lets the composition
operations of the conflation module chain them without any gluing.

Conventions: labels are 0-based indices into the family; "ordered" means
labels are non-increasing from the bottom step to the top one, so the top
quotient carries the smallest label.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .conflation import (Conflation, et4_compose, et4op_compose, ext_space,
                         is_split)
from .errors import Budget, ExtObstruction, ValidationError, cached, searching
from .linalg import Matrix, _integer
from .quiverrep import (Representation, RepMorphism, ThetaFamily, direct_power, direct_sum,
                        _composites, _hom_dim, _hom_stacks, _surjections, cokernel_quot,
                        enumerate_subreps, is_isomorphic, iso_key, kernel_sub)

__all__ = [
    "FiltrationStep",
    "Filtration",
    "GroupedStep",
    "GroupedFiltration",
    "multiplicities",
    "extend",
    "exchange",
    "collapse",
    "reorder",
    "group",
    "star_membership",
    "decide_filtered",
    "oracle_filtered",
    "power_filtration",
    "transport_top",
    "in_add",
]


@dataclass(frozen=True)
class FiltrationStep:
    """One layer: a conflation M_{i-1} -> M_i -> X with X ~ theta[label].

    Its quotient is one copy of theta[label], so multiplicities() counts it
    once, as it counts a GroupedStep's multiplicity.
    """

    conflation: Conflation
    label: int
    witness: RepMorphism  # isomorphism conflation.C -> theta[label]
    multiplicity: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class _Chain:
    """What Filtration and GroupedFiltration share: a labeled chain of
    conflations from 0 up to its top object.

    The constructor runs validate() unless check=False.  validate() walks the
    chain once: the first step starts at the zero representation, neighbours
    share their middle object literally, every label indexes the family, and
    each step passes the subclass's own _check_step.
    """

    theta: ThetaFamily
    steps: tuple  # of FiltrationStep or of GroupedStep
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        object.__setattr__(self, "steps", tuple(self.steps))
        if check:
            self.validate()

    def validate(self) -> None:
        for i, step in enumerate(self.steps):
            c = step.conflation
            if i == 0:
                if c.A.total_dim != 0:
                    raise ValidationError("a filtration must start at the zero representation")
            elif c.A != self.steps[i - 1].conflation.B:
                raise ValidationError(f"steps {i} and {i + 1} do not share their middle object")
            if not 0 <= step.label < len(self.theta):
                raise ValidationError(f"step {i + 1} carries the out-of-range label {step.label}")
            self._check_step(i, step)

    @property
    def top(self) -> Representation:
        if self.steps:
            return self.steps[-1].conflation.B
        return Representation.zero(self.theta.quiver, self.theta.p)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(s.label for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, slots=True)
class Filtration(_Chain):
    """A labeled chain of conflations from 0 up to its top object, one
    family member per step, each quotient with an isomorphism witness onto
    theta[label].

    The constructor runs validate() unless check=False, which filtra passes
    where the chain holds by construction: power_filtration, extend,
    transport_top, reorder and the decide_filtered peel.
    tests/test_trusted.py validates their results.
    """

    def _check_step(self, i: int, step: FiltrationStep) -> None:
        w = step.witness
        if w.source != step.conflation.C or w.target != self.theta[step.label]:
            raise ValidationError(f"step {i + 1} witness endpoints do not match")
        if not w.is_isomorphism():
            raise ValidationError(f"step {i + 1} witness is not an isomorphism")

    def is_ordered(self) -> bool:
        labels = self.labels
        return all(labels[i] >= labels[i + 1] for i in range(len(labels) - 1))

    def __repr__(self) -> str:
        return f"Filtration(top={self.top.dim}, labels={self.labels})"


@dataclass(frozen=True)
class GroupedStep:
    """One layer of a grouped filtration with quotient theta[label]^multiplicity."""

    conflation: Conflation
    label: int
    multiplicity: int


@dataclass(frozen=True, slots=True)
class GroupedFiltration(_Chain):
    """Ringel's grouped form: a chain whose labels strictly decrease and
    whose step with label i has the literal direct power theta[i]^m_i as its
    quotient, m_i > 0.

    The constructor runs validate() unless check=False, as for Filtration.
    group passes check=False: its steps chain and carry the labeled powers
    by construction, and tests/test_trusted.py validates its results.
    """

    def _check_step(self, i: int, step: GroupedStep) -> None:
        if i and step.label >= self.steps[i - 1].label:
            raise ValidationError("grouped labels must strictly decrease")
        if step.multiplicity < 1:
            raise ValidationError("grouped multiplicities must be positive")
        if step.conflation.C != direct_power(self.theta[step.label], step.multiplicity):
            raise ValidationError(
                f"grouped step {i + 1} quotient is not the labeled direct power")

    def __repr__(self) -> str:
        return (f"GroupedFiltration(top={self.top.dim}, labels={self.labels}, "
                f"multiplicities={[s.multiplicity for s in self.steps]})")


def multiplicities(f: Filtration | GroupedFiltration) -> tuple[int, ...]:
    """How many copies of each family member the layers of f carry: the
    number of steps with each label for a Filtration, and the multiplicities
    summed per label for a GroupedFiltration."""
    counts = [0] * len(f.theta)
    for s in f.steps:
        counts[s.label] += s.multiplicity
    return tuple(counts)


def transport_top(f: Filtration, phi: RepMorphism) -> Filtration:
    """Move a filtration along an isomorphism phi out of its top object.

    The top step moves by Conflation.with_middle, whose inversion of phi is
    the one check that phi is an isomorphism.
    """
    message = "transport needs an isomorphism out of the top object"
    if phi.source != f.top:
        raise ValidationError(message)
    if not f.steps:
        if not phi.is_isomorphism():
            raise ValidationError(message)
        return Filtration(f.theta, (), check=False)
    last = f.steps[-1]
    try:
        moved = FiltrationStep(last.conflation.with_middle(phi), last.label, last.witness)
    except ValidationError:
        raise ValidationError(message) from None
    return Filtration(f.theta, f.steps[:-1] + (moved,), check=False)


@cached(check=lambda theta, label, k: (theta, _integer(label, "label"), _integer(k, "power")))
def power_filtration(theta: ThetaFamily, label: int, k: int) -> Filtration:
    """The split filtration of theta[label]^k by k copies of theta[label].

    ValidationError unless label and k are integers, label indexes the
    family and k >= 0, checked before the store is read.  Built once
    per (theta, label, k) and shared by every later call until
    clear_caches(), which is safe because values are frozen.  Every call
    that returns keeps its entry for the life of the process; within the
    library only the approximations ask, for powers of their own family.
    """
    if not 0 <= label < len(theta):
        raise ValidationError(f"label {label} is out of range for {len(theta)} members")
    if k < 0:
        raise ValidationError("power must be nonnegative")
    member = theta[label]
    ident = RepMorphism.identity(member)
    power = Representation.zero(member.quiver, member.p)
    steps = []
    for _ in range(k):
        # the middle of step j is member^(j + 1), grown one split at a time
        c = Conflation.split(power, member)
        steps.append(FiltrationStep(c, label, ident))
        power = c.B
    return Filtration(theta, steps, check=False)


def extend(c: Conflation, fA: Filtration, fC: Filtration) -> Filtration:
    """Filtration of c.B obtained by stacking fA under fC across c.

    Peels fC from the top: each peel composes the current conflation with the
    top step of what remains of fC (a deflation composition), replacing the
    middle object by the kernel; when fC is exhausted the inflation of the
    remaining conflation is an isomorphism and fA is transported along it.
    Labels concatenate, so lengths and multiplicities add.
    """
    if fA.theta != fC.theta:
        raise ValidationError("both filtrations must use the same family")
    if fA.top != c.A or fC.top != c.C:
        raise ValidationError("filtration tops must match the conflation ends")

    # peel fC from the top; the steps of the result are built top first
    cur, top = c, []
    for last in reversed(fC.steps):
        res = et4op_compose(cur, last.conflation)
        top.append(FiltrationStep(res.composite, last.label, last.witness))
        cur = res.kernel
    # quotient exhausted: cur.x is an isomorphism onto the middle
    steps = transport_top(fA, cur.x).steps + tuple(reversed(top))
    return Filtration(fA.theta, steps, check=False)


def exchange(c1: Conflation, c2: Conflation) -> tuple[Conflation, Conflation]:
    """Swap the order of two stacked quotients U and V when ext(V, U) = 0.

    Input: c1 = (Z -> Y -> U) and c2 = (Y -> X -> V) with the same literal Y.
    Output: (Z -> W -> V, W -> X -> U) over the same Z and X.  The middle
    conflation U -> T -> V produced by composing the inflations must split,
    which ext(V, U) = 0 guarantees.
    """
    if c1.B != c2.A:
        raise ValidationError("exchange needs c1 and c2 to share their middle object")
    obstruction = ext_space(c2.C, c1.C)
    if obstruction.dimension != 0:
        raise ExtObstruction(
            f"ext space of dimension {obstruction.dimension} obstructs the exchange")
    composed = et4_compose(c1, c2)
    witness = is_split(composed.quotient)
    assert witness is not None  # the ext space is zero, so every class in it vanishes
    eta = Conflation(c2.C, composed.quotient.B, c1.C,
                     witness.section, witness.retraction, check=False)
    swapped = et4op_compose(composed.composite, eta)
    return swapped.kernel, swapped.composite


def collapse(fs: Sequence[Conflation]) -> Conflation:
    """Merge a chain of conflations with one repeated quotient A into one.

    Input conflations M_{i-1} -> M_i -> A must chain literally and share the
    quotient object A with ext(A, A) = 0; the result is M_0 -> M_k -> A^k
    with the direct_power layout and the literal outer objects.
    """
    fs = list(fs)
    if not fs:
        raise ValidationError("collapse needs at least one conflation")
    quotient = fs[0].C
    for i, c in enumerate(fs):
        if c.C != quotient:
            raise ValidationError("collapse needs every quotient to be the same object")
        if i and c.A != fs[i - 1].B:
            raise ValidationError(f"conflations {i} and {i + 1} do not chain")
    self_ext = ext_space(quotient, quotient)
    if self_ext.dimension != 0:
        raise ExtObstruction(
            f"ext space of dimension {self_ext.dimension} obstructs the collapse")
    cur = fs[0]
    for nxt in fs[1:]:
        composed = et4_compose(cur, nxt)
        witness = is_split(composed.quotient)
        assert witness is not None  # class lives in ext(A, A^j) = 0
        ds = direct_sum(cur.C, quotient)
        psi = ds.inject_left @ witness.retraction + ds.inject_right @ composed.quotient.y
        # psi is an isomorphism by construction (a matched splitting), so the
        # quotient moves along it with no rank test
        c = composed.composite
        cur = Conflation(c.A, c.B, psi.target, c.x, psi @ c.y, check=False)
    return cur


def reorder(f: Filtration) -> Filtration:
    """Sort the steps so labels are non-increasing from bottom to top.

    Bubble passes of adjacent exchanges; every swap moves a larger label
    below a smaller one, and its ext hypothesis is exactly the family's
    ordering invariant, so the exchanges cannot be obstructed.  The filtered
    object and the label multiset are unchanged.
    """
    steps = list(f.steps)
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1):
            low, high = steps[i], steps[i + 1]
            if low.label >= high.label:
                continue
            new_low, new_high = exchange(low.conflation, high.conflation)
            steps[i] = FiltrationStep(new_low, high.label, high.witness)
            steps[i + 1] = FiltrationStep(new_high, low.label, low.witness)
            changed = True
    return Filtration(f.theta, steps, check=False)


def group(f: Filtration) -> GroupedFiltration:
    """Bundle runs of equal labels of an ordered filtration into powers.

    Each step's quotient is first transported to the literal family member
    along its witness; maximal runs are then collapsed, giving at most one
    step per distinct label, with strictly decreasing labels.
    """
    if not f.is_ordered():
        raise ValidationError("group needs an ordered filtration; reorder first")
    grouped = []
    for label, run in itertools.groupby(f.steps, key=lambda s: s.label):
        # the witnesses are isomorphisms, checked when f was built or made so
        # by construction, so the quotients move along them without a rank test
        normalized = [Conflation(s.conflation.A, s.conflation.B, s.witness.target,
                                 s.conflation.x, s.witness @ s.conflation.y, check=False)
                      for s in run]
        grouped.append(GroupedStep(collapse(normalized), label, len(normalized)))
    return GroupedFiltration(f.theta, grouped, check=False)


def in_add(pieces: Sequence[Representation] | Representation) -> Callable[[Representation], bool]:
    """Predicate: is the argument a direct summand of a finite direct sum of
    copies of the pieces, that is, does it lie in add(pieces)?

    m lies in add(pieces) iff id_m factors through such a sum, that is iff
    id_m is a sum of composites m -> X -> m over the pieces X.  Those
    composites are spanned by a o b for b in the Hom basis of (m, X) and a
    in that of (X, m) (_composites), and their span is a left ideal of
    End(m): f o (a o b) = (f o a) o b.  A left ideal holds id_m only when it
    is all of End(m), so the test is one rank count: do the composites have
    rank dim End(m)?  No search, so no budget is charged.  The zero
    representation always passes (empty sum); with no pieces, nothing else
    does.
    """
    if isinstance(pieces, Representation):
        pieces = [pieces]
    pieces = list(pieces)

    def predicate(m: Representation) -> bool:
        if m.total_dim == 0:
            return True
        if not pieces:
            return False
        rows = [_composites(_hom_stacks(x, m), _hom_stacks(m, x), m.p) for x in pieces]
        return Matrix._wrap(m.p, np.concatenate(rows)).rank() == _hom_dim(m, m)

    return predicate


def star_membership(m: Representation,
                    classes: Sequence[Callable[[Representation], bool]],
                    budget: Optional[Budget] = None) -> Optional[list[Conflation]]:
    """Witness chain for membership in classes[0] * classes[1] * ... or None.

    The witness is a list of conflations 0 = N_0 -> N_1 -> ... -> N_k = m,
    one per class in order, whose i-th quotient satisfies classes[i].  The
    search enumerates subrepresentations as kernels of candidate top
    deflations and recurses; results are memoized per (object, depth).  The
    budget pays for the subspaces and tuples that enumerate_subreps walks.
    """
    classes = list(classes)
    memo: dict[tuple[Representation, int], Optional[tuple[Conflation, ...]]] = {}

    def go(cur: Representation, k: int) -> Optional[tuple[Conflation, ...]]:
        if k == 0:
            return () if cur.total_dim == 0 else None
        key = (cur, k)
        if key in memo:
            return memo[key]
        result = None
        for sub, incl in enumerate_subreps(cur):
            quot, proj = cokernel_quot(incl)
            if not classes[k - 1](quot):
                continue
            below = go(sub, k - 1)
            if below is not None:
                result = below + (Conflation(sub, cur, quot, incl, proj, check=False),)
                break
        memo[key] = result
        return result

    with searching(budget):
        chain = go(m, len(classes))
    return list(chain) if chain is not None else None


@cached
def _dim_feasible(theta_dims: tuple[tuple[int, ...], ...],
                  dim: tuple[int, ...], start: int) -> bool:
    """Can dim be a nonnegative integer combination of theta_dims[start:]?

    A walk over the remainders reachable from dim by subtracting members:
    each remainder is reached once and tries one subtraction per member, so
    the work is at most their number times the number of members.
    """
    seen, todo = {dim}, [dim]
    while todo:
        rest = todo.pop()
        if not any(rest):
            return True
        for step in theta_dims[start:]:
            below = tuple(d - s for d, s in zip(rest, step))
            if min(below, default=0) >= 0 and below not in seen:
                seen.add(below)
                todo.append(below)
    return False


def _check_over_family(m: Representation, theta: ThetaFamily) -> None:
    if m.quiver != theta.quiver or m.p != theta.p:
        raise ValidationError("the module and the family must be over the same quiver and field")


def _peel(theta: ThetaFamily, cur: Representation, min_label: int) -> Optional[Filtration]:
    """The filtration that decide_filtered finds for cur by theta[min_label:],
    or None: the empty filtration on zero, None when no sum of those members
    has the dimension vector of cur, and otherwise the cached _search."""
    if cur.total_dim == 0:
        return Filtration(theta, (), check=False)
    if not _dim_feasible(tuple(mem.dim for mem in theta.members), cur.dim, min_label):
        return None
    return _search(theta, cur, min_label)


@cached
def _search(theta: ThetaFamily, cur: Representation, min_label: int) -> Optional[Filtration]:
    """The filtration of cur topped by the first epimorphism cur -> theta[i],
    i >= min_label, whose kernel _peel filters by theta[i:]; else None."""
    for i in range(min_label, len(theta)):
        member = theta[i]
        if any(dc < dm for dc, dm in zip(cur.dim, member.dim)):
            continue
        for epi in _surjections(cur, member, leading_one=True):
            sub, incl = kernel_sub(epi)
            below = _peel(theta, sub, i)
            if below is not None:
                step = FiltrationStep(Conflation(sub, cur, member, incl, epi, check=False),
                                      i, RepMorphism.identity(member))
                return Filtration(theta, below.steps + (step,), check=False)
    return None


def decide_filtered(m: Representation, theta: ThetaFamily,
                    budget: Optional[Budget] = None) -> Optional[Filtration]:
    """A filtration of m by the family, or None when no filtration exists.

    Backtracking peel from the top: enumerate epimorphisms m -> theta[i] in
    the hom space and recurse on their kernels.  Along any peel sequence the
    labels are non-decreasing, which is complete because every filtered
    object also has an ordered filtration (whose top label is minimal).
    The epimorphisms are tried in itertools.product order of their
    coefficient vectors, one per line through the origin (leading nonzero
    coefficient 1), by the chunked scan of quiverrep._surjections, the one
    that iso_witness runs too, which yields them one at a time.  Every
    coefficient vector of the peel costs one budget node, charged when the
    scan reaches it, so budget.used and the point of any BudgetExceeded are
    those of a loop over the vectors one at a time.

    The search below each nonzero, dimension-feasible module is an
    errors.cached function of (theta, module, min_label), so its answers,
    positive and negative, last until clear_caches().  The peel is
    deterministic, so a warm call returns exactly what it would compute
    with empty caches; only budget.used can be lower.  Each CLI command
    starts with empty caches.
    """
    _check_over_family(m, theta)
    with searching(budget):
        return _peel(theta, m, 0)


def oracle_filtered(m: Representation, theta: ThetaFamily,
                    budget: Optional[Budget] = None) -> bool:
    """Independent brute-force membership test for the filtered class.

    Recursive search over all subrepresentations: m is filtered iff it is
    zero or some subrepresentation with quotient isomorphic to a family
    member is filtered.  No ordering shortcut and no hom-space enumeration.
    Within the call, answers are memoized up to isomorphism: (module,
    answer) pairs under iso_key, resolved to iso classes on lookup.  The
    memo lasts one call, so the answer and budget.used do not depend on
    earlier calls.  The budget pays for the subspaces and tuples that
    enumerate_subreps walks and for the iso scans.
    """
    _check_over_family(m, theta)
    memo: dict = {}

    def go(cur: Representation) -> bool:
        if cur.total_dim == 0:
            return True
        key = iso_key(cur)
        for rep, known in memo.get(key, []):
            if rep == cur or is_isomorphic(rep, cur):
                return known
        answer = False
        for sub, incl in enumerate_subreps(cur):
            qdim = tuple(dc - ds for dc, ds in zip(cur.dim, sub.dim))
            candidates = [mem for mem in theta.members if mem.dim == qdim]
            if not candidates:
                continue
            quot, _ = cokernel_quot(incl)
            if any(is_isomorphic(quot, mem) for mem in candidates) and go(sub):
                answer = True
                break
        memo.setdefault(key, []).append((cur, answer))
        return answer

    with searching(budget):
        return go(m)
