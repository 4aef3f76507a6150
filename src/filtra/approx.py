"""Universal extensions and approximation triangles for an ordered family.

The two constructions here are staircases of universal extensions.  The
envelope side repeatedly enlarges an object by quotients that are powers of
family members until every ext space out of the family vanishes; the cover
side dually enlarges along kernels.  Both return a single conflation whose
outer object is explicitly filtered, with the filtration built step by step
rather than re-derived by search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conflation import Conflation, et4_compose, et4op_compose, ext_space
from .errors import ExtObstruction, ValidationError, ZeroExt
from .filtration import Filtration, extend, power_filtration
from .linalg import Matrix
from .quiverrep import (Representation, RepMorphism, ThetaFamily, _block_extension, _blocks,
                        _canonical_key, _hom_dim, _hom_kernel, _hom_shapes, direct_power)

__all__ = [
    "ApproxResult",
    "VerifyReport",
    "is_theta_injective",
    "is_theta_projective",
    "universal_extension_cover",
    "universal_extension_env",
    "preenvelope",
    "precover",
    "verify",
    "perp_class",
]


def is_theta_injective(a: Representation, theta: ThetaFamily) -> bool:
    """True when ext(member, a) vanishes for every family member."""
    return all(ext_space(member, a).dimension == 0 for member in theta.members)


def is_theta_projective(a: Representation, theta: ThetaFamily) -> bool:
    """True when ext(a, member) vanishes for every family member."""
    return all(ext_space(a, member).dimension == 0 for member in theta.members)


def perp_class(theta: ThetaFamily, side: str,
               candidates: Sequence[Representation]) -> list[Representation]:
    """Members of candidates perpendicular to the family on the given side.

    sides: "hom-left" keeps A with hom(A, member) = 0 for all members;
    "hom-right" keeps A with hom(member, A) = 0; "ext-left" keeps A with
    ext(A, member) = 0 (the relative projectives); "ext-right" keeps A with
    ext(member, A) = 0 (the relative injectives).
    """
    if side == "hom-left":
        keep = lambda a: all(not _hom_dim(a, m) for m in theta.members)
    elif side == "hom-right":
        keep = lambda a: all(not _hom_dim(m, a) for m in theta.members)
    elif side == "ext-left":
        keep = lambda a: is_theta_projective(a, theta)
    elif side == "ext-right":
        keep = lambda a: is_theta_injective(a, theta)
    else:
        raise ValidationError(
            f"side must be one of hom-left, hom-right, ext-left, ext-right; got {side!r}")
    return [a for a in candidates if keep(a)]


def universal_extension_cover(c_obj: Representation, a_obj: Representation) -> Conflation:
    """The conflation A^n -> B -> C whose class stacks a basis of ext(C, A).

    n is the ext dimension; pushing the class forward along the k-th power
    projection recovers the k-th basis class.  So the connecting map
    hom(A^n, A) -> ext(C, A) is surjective, and when ext(A, A) = 0 the middle
    term satisfies ext(B, A) = 0.  Both are asserted by
    tests/test_approx.py::test_universal_extensions_hit_a_basis_of_ext.

    The stacked basis cocycle is already the canonical representative of
    its class in ext(C, A^n), so it is realized as it stands.  The
    intertwiner system of (C, A^n) is n copies of the system of (C, A),
    interleaved by the flattening order, with each copy in its own row and
    column order.  So the leftmost-pivot projection and section of
    (C, A^n) act copy by copy as those of (C, A), and sending the stacked
    cocycle to coordinates and back would return it unchanged.
    """
    space = ext_space(c_obj, a_obj)
    n = space.dimension
    if n == 0:
        raise ZeroExt("ext(C, A) = 0; there is nothing to extend by")
    cocycles = space.basis_cocycles()
    power = direct_power(a_obj, n)
    stacked = [Matrix.vstack(a_obj.p, [g[k] for g in cocycles], cols=c_obj.dim[arrow.source])
               for k, arrow in enumerate(a_obj.quiver.arrows)]
    B, x, y = _block_extension(power, c_obj, stacked)
    return Conflation(power, B, c_obj, x, y, check=False)


def universal_extension_env(n_obj: Representation, t_obj: Representation) -> Conflation:
    """The conflation N -> B -> T^m killing ext(T, -) against the middle.

    m is the dimension of ext(T, N); when m = 0 the identity conflation
    N -> N -> 0 is returned unchanged.  Pulling the class back along the
    k-th power injection recovers the k-th basis class, so the connecting map
    hom(T, T^m) -> ext(T, N) is surjective, as
    tests/test_approx.py::test_universal_extensions_hit_a_basis_of_ext
    asserts.  The stacked basis cocycle is realized as it stands, for the
    reason given in universal_extension_cover, with (T^m, N) in place of
    (C, A^n).

    After the step ext(T, B) = 0 must hold.  The path algebra is
    hereditary, so the long exact sequence of hom(T, -) on N -> B -> T^m
    ends hom(T, T^m) -> ext(T, N) -> ext(T, B) -> ext(T, T^m) -> 0.  Its
    connecting map is onto, so ext(T, B) is ext(T, T)^m, and for m > 0 the
    obstruction is decided by ext(T, T) before anything is built.
    """
    space = ext_space(t_obj, n_obj)
    m = space.dimension
    if m == 0:
        return Conflation.identity_right(n_obj)
    d = ext_space(t_obj, t_obj).dimension
    if d:
        raise ExtObstruction(
            f"ext(T, T) has dimension {d}, so the universal extension cannot kill ext(T, -)")
    cocycles = space.basis_cocycles()
    power = direct_power(t_obj, m)
    stacked = [Matrix.hstack(n_obj.p, [g[k] for g in cocycles], rows=n_obj.dim[arrow.target])
               for k, arrow in enumerate(n_obj.quiver.arrows)]
    B, x, y = _block_extension(n_obj, power, stacked)
    return Conflation(n_obj, B, power, x, y, check=False)


@dataclass(frozen=True)
class ApproxResult:
    """An approximation triangle with its map and the filtered outer part.

    envelope: triangle is X -> Y -> C with map the inflation X -> Y and
    filtered_part a filtration of C.  cover: triangle is K -> Q -> X with
    map the deflation Q -> X and filtered_part a filtration of K.
    """

    triangle: Conflation
    side: str
    theta: ThetaFamily
    filtered_part: Filtration

    @property
    def map(self) -> RepMorphism:
        return self.triangle.x if self.side == "envelope" else self.triangle.y


def preenvelope(x: Representation, theta: ThetaFamily) -> ApproxResult:
    """Inflation of x into an object with ext(member, -) = 0 for all members.

    Walks the family from the last member down to the first; at stage i a
    universal extension kills ext(theta[i], current) by enlarging along a
    power of theta[i], and the running conflation is recomposed so the final
    quotient is explicitly filtered with non-increasing labels.  Stages with
    vanishing ext are skipped, so an already perpendicular x returns the
    identity inflation with zero quotient.  After stage i, ext(theta[j], -)
    vanishes on the middle for every j >= i, because the one-way ext
    vanishing of the family keeps it at zero for j > i.  So the final middle
    is theta-injective.  test_approximation_staircases_over_a3_and_d4 in
    tests/test_approx.py asserts this at every stage.
    """
    t = len(theta)
    running: Optional[Conflation] = None
    filtered: Optional[Filtration] = None
    for i in range(t - 1, -1, -1):
        cur = running.B if running is not None else x
        member = theta[i]
        m = ext_space(member, cur).dimension
        if m:
            eta = universal_extension_env(cur, member)
            layer = power_filtration(theta, i, m)
            if running is None:
                running, filtered = eta, layer
            else:
                composed = et4_compose(running, eta)
                running = composed.composite
                filtered = extend(composed.quotient, filtered, layer)
    if running is None:
        running = Conflation.identity_right(x)
        filtered = Filtration(theta, (), check=False)
    return ApproxResult(running, "envelope", theta, filtered)


def precover(x: Representation, theta: ThetaFamily) -> ApproxResult:
    """Deflation onto x from an object with ext(-, member) = 0 throughout.

    Dual staircase, walking the family upward from the first member; stage i
    covers the current middle by a universal extension with kernel a power
    of theta[i], and the running conflation is recomposed so the final
    kernel is explicitly filtered with non-increasing labels.  After stage
    i, ext(-, theta[j]) vanishes on the middle for every j <= i, so the
    final middle is theta-projective; the same test as for preenvelope
    asserts this at every stage.
    """
    t = len(theta)
    running: Optional[Conflation] = None
    filtered: Optional[Filtration] = None
    for i in range(t):
        cur = running.B if running is not None else x
        member = theta[i]
        n = ext_space(cur, member).dimension
        if n:
            xi = universal_extension_cover(cur, member)
            layer = power_filtration(theta, i, n)
            if running is None:
                running, filtered = xi, layer
            else:
                composed = et4op_compose(xi, running)
                running = composed.composite
                filtered = extend(composed.kernel, layer, filtered)
    if running is None:
        running = Conflation.identity_left(x)
        filtered = Filtration(theta, (), check=False)
    return ApproxResult(running, "cover", theta, filtered)


@dataclass(frozen=True)
class VerifyReport:
    """Per-object outcome of an approximation check.

    entries pair each retained test object with whether the induced hom map
    was surjective; skipped lists objects that were outside the relevant
    perpendicular class and therefore not legitimate tests.
    """

    side: str
    entries: tuple[tuple[Representation, bool], ...]
    skipped: tuple[Representation, ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.entries)


def _induced_onto(f: RepMorphism, test: Representation, side: str) -> bool:
    """Is the map f induces on hom spaces onto?

    envelope: g -> g o f, hom(f.target, test) -> hom(f.source, test);
    cover: g -> f o g, hom(test, f.source) -> hom(test, f.target).  The
    composites of a source basis lie in the target hom space, so the map is
    onto iff their flattened components have rank equal to its dimension.
    The source basis is the cached Hom kernel, read in place (_blocks), and
    each vertex composes all of its rows in one product.
    """
    envelope = side == "envelope"
    need = _hom_dim(f.source, test) if envelope else _hom_dim(test, f.target)
    if not need:
        return True
    ends = (f.target, test) if envelope else (test, f.source)
    kernel = _hom_kernel(*ends)
    composites = [g @ fv.a if envelope else fv.a @ g
                  for g, fv in zip(_blocks(kernel, _hom_shapes(*ends)), f.components)]
    flat = np.concatenate([c.reshape(len(c), c.shape[1] * c.shape[2]) for c in composites], 1)
    return Matrix._wrap(f.source.p, flat % f.source.p).rank() == need


def verify(result: ApproxResult, test_objects: Sequence[Representation]) -> VerifyReport:
    """Check the approximation property of result against concrete test objects.

    The side of result names the check.  envelope: every morphism from the
    source into a theta-injective test object must factor through the
    inflation f, i.e. g -> g o f must map hom(envelope, test) onto
    hom(source, test).  cover: every morphism from a theta-projective test
    object into the target must factor through the deflation f, i.e.
    g -> f o g must map hom(test, cover) onto hom(test, target).  The
    composites of a basis of the first hom space already lie in the second,
    so the map is onto iff they have rank equal to its dimension.  Test
    objects are taken in canonical order; those outside the perpendicular
    class are skipped and reported, not failed.
    """
    perpendicular = is_theta_injective if result.side == "envelope" else is_theta_projective
    entries, skipped = [], []
    for obj in sorted(test_objects, key=_canonical_key):
        if perpendicular(obj, result.theta):
            entries.append((obj, _induced_onto(result.map, obj, result.side)))
        else:
            skipped.append(obj)
    return VerifyReport(result.side, tuple(entries), tuple(skipped))
