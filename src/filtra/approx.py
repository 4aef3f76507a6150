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

from .conflation import (Conflation, connecting_map, et4_compose,
                         et4op_compose, ext_space, realize)
from .errors import ExtObstruction, ValidationError, ZeroExt
from .filtration import Filtration, extend, power_filtration
from .linalg import Matrix
from .quiverrep import (Representation, RepMorphism, ThetaFamily, _canonical_key,
                        direct_power, hom_coordinates, hom_space)

__all__ = [
    "ApproxResult",
    "VerifyReport",
    "is_theta_injective",
    "is_theta_projective",
    "universal_extension_cover",
    "universal_extension_env",
    "preenvelope",
    "precover",
    "verify_preenvelope",
    "verify_precover",
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
        keep = lambda a: all(not hom_space(a, m) for m in theta.members)
    elif side == "hom-right":
        keep = lambda a: all(not hom_space(m, a) for m in theta.members)
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
    projection recovers the k-th basis class.  The connecting map
    hom(A^n, A) -> ext(C, A) is verified to be surjective, and when
    ext(A, A) = 0 the middle term satisfies ext(B, A) = 0 (also verified).
    """
    space = ext_space(c_obj, a_obj)
    n = space.dimension
    if n == 0:
        raise ZeroExt("ext(C, A) = 0; there is nothing to extend by")
    p = a_obj.p
    basis_cocycles = [delta.cocycles() for delta in space.basis]
    power = direct_power(a_obj, n)
    target = ext_space(c_obj, power)
    stacked = []
    for k, arrow in enumerate(a_obj.quiver.arrows):
        blocks = [g[k] for g in basis_cocycles]
        stacked.append(Matrix.vstack(p, blocks, cols=c_obj.dim[arrow.source]))
    c = realize(target.element(target.coordinates(stacked)))
    connecting = connecting_map(c, a_obj, side="right")
    assert connecting.rank() == n  # a basis of ext(C, A) is hit by construction
    if ext_space(a_obj, a_obj).dimension == 0:
        assert ext_space(c.B, a_obj).dimension == 0
    return c


def universal_extension_env(n_obj: Representation, t_obj: Representation) -> Conflation:
    """The conflation N -> B -> T^m killing ext(T, -) against the middle.

    m is the dimension of ext(T, N); when m = 0 the identity conflation
    N -> N -> 0 is returned unchanged.  Pulling the class back along the
    k-th power injection recovers the k-th basis class.  After the step
    ext(T, B) = 0 must hold; that can only fail when ext(T, T) is nonzero,
    which is reported as an obstruction.
    """
    space = ext_space(t_obj, n_obj)
    m = space.dimension
    if m == 0:
        return Conflation.identity_right(n_obj)
    p = n_obj.p
    basis_cocycles = [delta.cocycles() for delta in space.basis]
    power = direct_power(t_obj, m)
    target = ext_space(power, n_obj)
    stacked = []
    for k, arrow in enumerate(n_obj.quiver.arrows):
        blocks = [g[k] for g in basis_cocycles]
        stacked.append(Matrix.hstack(p, blocks, rows=n_obj.dim[arrow.target]))
    c = realize(target.element(target.coordinates(stacked)))
    connecting = connecting_map(c, t_obj, side="left")
    assert connecting.rank() == m  # a basis of ext(T, N) is hit by construction
    if ext_space(t_obj, c.B).dimension != 0:
        d = ext_space(t_obj, t_obj).dimension
        raise ExtObstruction(
            f"ext(T, T) has dimension {d}, so the universal extension cannot kill ext(T, -)")
    return c


@dataclass(frozen=True)
class ApproxResult:
    """An approximation triangle with its map and the filtered outer part.

    envelope: triangle is X -> Y -> C with map the inflation X -> Y and
    filtered_part a filtration of C.  cover: triangle is K -> Q -> X with
    map the deflation Q -> X and filtered_part a filtration of K.
    """

    triangle: Conflation
    map: RepMorphism
    side: str
    theta: ThetaFamily
    filtered_part: Filtration


def preenvelope(x: Representation, theta: ThetaFamily) -> ApproxResult:
    """Inflation of x into an object with ext(member, -) = 0 for all members.

    Walks the family from the last member down to the first; at stage i a
    universal extension kills ext(theta[i], current) by enlarging along a
    power of theta[i], and the running conflation is recomposed so the final
    quotient is explicitly filtered with non-increasing labels.  Stages with
    vanishing ext are skipped, so an already perpendicular x returns the
    identity inflation with zero quotient.
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
        cur = running.B if running is not None else x
        for j in range(i, t):
            assert ext_space(theta[j], cur).dimension == 0
    if running is None:
        running = Conflation.identity_right(x)
        filtered = Filtration(theta, ())
    assert is_theta_injective(running.B, theta)
    return ApproxResult(running, running.x, "envelope", theta, filtered)


def precover(x: Representation, theta: ThetaFamily) -> ApproxResult:
    """Deflation onto x from an object with ext(-, member) = 0 throughout.

    Dual staircase, walking the family upward from the first member; stage i
    covers the current middle by a universal extension with kernel a power
    of theta[i], and the running conflation is recomposed so the final
    kernel is explicitly filtered with non-increasing labels.
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
        cur = running.B if running is not None else x
        for j in range(i + 1):
            assert ext_space(cur, theta[j]).dimension == 0
    if running is None:
        running = Conflation.identity_left(x)
        filtered = Filtration(theta, ())
    assert is_theta_projective(running.B, theta)
    return ApproxResult(running, running.y, "cover", theta, filtered)


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


def _postcomposition_surjective(before: Representation, after: Representation,
                                f: RepMorphism, test: Representation) -> bool:
    """Is hom(after, test) -> hom(before, test), g -> g o f, surjective?"""
    target_basis = hom_space(before, test)
    if not target_basis:
        return True
    source_basis = hom_space(after, test)
    columns = [hom_coordinates(g @ f, target_basis) for g in source_basis]
    if not columns:
        return False
    stacked = Matrix.hstack(f.source.p, columns, rows=len(target_basis))
    return stacked.rank() == len(target_basis)


def _precomposition_surjective(before: Representation, after: Representation,
                               f: RepMorphism, test: Representation) -> bool:
    """Is hom(test, before) -> hom(test, after), g -> f o g, surjective?"""
    target_basis = hom_space(test, after)
    if not target_basis:
        return True
    source_basis = hom_space(test, before)
    columns = [hom_coordinates(f @ g, target_basis) for g in source_basis]
    if not columns:
        return False
    stacked = Matrix.hstack(f.source.p, columns, rows=len(target_basis))
    return stacked.rank() == len(target_basis)


def verify_preenvelope(result: ApproxResult,
                       test_objects: Sequence[Representation]) -> VerifyReport:
    """Check the preenvelope property against concrete test objects.

    Every morphism from the source into a perpendicular test object must
    factor through the envelope, i.e. composition with the inflation must
    map hom(envelope, test) onto hom(source, test).  Objects that are not
    perpendicular are skipped and reported, not failed.
    """
    if result.side != "envelope":
        raise ValidationError("verify_preenvelope needs an envelope result")
    x, y = result.triangle.A, result.triangle.B
    entries, skipped = [], []
    for obj in sorted(test_objects, key=_canonical_key):
        if not is_theta_injective(obj, result.theta):
            skipped.append(obj)
            continue
        entries.append((obj, _postcomposition_surjective(x, y, result.map, obj)))
    return VerifyReport("envelope", tuple(entries), tuple(skipped))


def verify_precover(result: ApproxResult,
                    test_objects: Sequence[Representation]) -> VerifyReport:
    """Dual check: composition with the deflation must map hom(test, cover)
    onto hom(test, target) for every perpendicular test object."""
    if result.side != "cover":
        raise ValidationError("verify_precover needs a cover result")
    x, q = result.triangle.C, result.triangle.B
    entries, skipped = [], []
    for obj in sorted(test_objects, key=_canonical_key):
        if not is_theta_projective(obj, result.theta):
            skipped.append(obj)
            continue
        entries.append((obj, _precomposition_surjective(q, x, result.map, obj)))
    return VerifyReport("cover", tuple(entries), tuple(skipped))
