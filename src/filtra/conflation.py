"""Short exact structure on quiver representations: ext classes and conflations.

A conflation is a vertexwise short exact sequence A -> B -> C of
representations (inflation x injective, deflation y surjective, image of x
equal to kernel of y at every vertex).  Equivalence classes of conflations
with fixed ends C, A form the ext space computed here.

Path algebras of acyclic quivers are hereditary, so an ext class is encoded
by an arrow-indexed cocycle family with no cocycle condition: matrices
g_a: C_{s(a)} -> A_{t(a)}, taken modulo the coboundary of vertex families
h_v: C_v -> A_v, where

    d(h)_a = A_a @ h_{s(a)} - h_{t(a)} @ C_a.

The class with cocycle g is realized by the block representation
B_v = A_v (+) C_v with arrow maps [[A_a, g_a], [0, C_a]].  This module keeps
that block form as the canonical realization; class_of is a strict left
inverse of realize.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError, cached
from .linalg import Matrix
from .quiverrep import (Representation, RepMorphism, _block_extension, _cokernel_quot, _ext_dim,
                        _flatten, _hom_shapes, _intertwiner_system, _kernel_sub, _unflatten,
                        direct_sum, hom_space)

__all__ = [
    "Conflation",
    "ExtSpace",
    "ExtClass",
    "ext_space",
    "realize",
    "class_of",
    "pushforward",
    "pullback",
    "is_split",
    "SplitWitness",
    "complete_square",
    "shift_base",
    "et4_compose",
    "et4op_compose",
    "ET4",
    "ET4Op",
    "connecting_map",
    "conflation_direct_sum",
    "conflations_equivalent",
]


@dataclass(frozen=True, slots=True)
class Conflation:
    """A -> B -> C, exact at every vertex.

    The constructor checks the endpoints, that x is vertexwise injective and
    y vertexwise surjective, that y x = 0 and the dimension count, unless
    check=False.  filtra passes check=False only where exactness holds by
    construction (split, realize, shift_base, the universal extensions, the
    ET4 composites, the transports of collapse and group, the peels);
    tests/test_trusted.py rebuilds those results with the checks on.
    """

    A: Representation
    B: Representation
    C: Representation
    x: RepMorphism
    y: RepMorphism
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if not check:
            return
        A, B, C, x, y = self.A, self.B, self.C, self.x, self.y
        if x.source != A or x.target != B:
            raise ValidationError("inflation endpoints must be A -> B")
        if y.source != B or y.target != C:
            raise ValidationError("deflation endpoints must be B -> C")
        if not x.is_vertexwise_injective():
            raise ValidationError("inflation must be vertexwise injective")
        if not y.is_vertexwise_surjective():
            raise ValidationError("deflation must be vertexwise surjective")
        if not (y @ x).is_zero():
            raise ValidationError("deflation composed with inflation must vanish")
        for v in range(B.quiver.vertex_count):
            if A.dim[v] + C.dim[v] != B.dim[v]:
                raise ValidationError(f"exactness fails at vertex {v}: dim count")

    def __repr__(self) -> str:
        return f"Conflation({self.A.dim} -> {self.B.dim} -> {self.C.dim})"

    # -- canonical constructions -------------------------------------------

    @staticmethod
    def split(A: Representation, C: Representation) -> "Conflation":
        """The literal block-split conflation A -> A (+) C -> C."""
        B, x, y = _block_extension(A, C)
        return Conflation(A, B, C, x, y, check=False)

    @staticmethod
    def identity_right(m: Representation) -> "Conflation":
        """m -> m -> 0."""
        zero = Representation.zero(m.quiver, m.p)
        return Conflation(m, m, zero, RepMorphism.identity(m), RepMorphism.zero(m, zero),
                          check=False)

    @staticmethod
    def identity_left(m: Representation) -> "Conflation":
        """0 -> m -> m."""
        zero = Representation.zero(m.quiver, m.p)
        return Conflation(zero, m, m, RepMorphism.zero(zero, m), RepMorphism.identity(m),
                          check=False)

    # -- transport along an isomorphism --------------------------------------

    def with_middle(self, phi: RepMorphism) -> "Conflation":
        """Replace B by an isomorphic object via phi: B -> B'.

        Inverting phi is the check that it is an isomorphism.
        """
        message = "middle transport needs an isomorphism out of B"
        if phi.source != self.B:
            raise ValidationError(message)
        try:
            inverse = phi.inverse()
        except ValidationError:
            raise ValidationError(message) from None
        return Conflation(self.A, phi.target, self.C, phi @ self.x, self.y @ inverse,
                          check=False)

    # -- vertexwise splitting data -------------------------------------------

    def sections(self) -> list[Matrix]:
        """Deterministic vertexwise sections s_v of y, with y_v s_v = 1; plain
        linear maps, not morphisms."""
        sections = [yv.right_inverse() for yv in self.y.components]
        assert all(s is not None for s in sections)  # y is vertexwise surjective
        return sections

    def splitting_data(self) -> tuple[list[Matrix], list[Matrix]]:
        """The sections s_v of sections() and retractions t_v of x.

        These satisfy y_v s_v = 1, x_v t_v = 1 - s_v y_v (hence t_v x_v = 1
        and t_v s_v = 0); they are plain linear maps, not morphisms.
        """
        sections, retractions = self.sections(), []
        for s, xv, yv in zip(sections, self.x.components, self.y.components):
            t = xv.solve(Matrix.identity(self.B.p, yv.cols) - s @ yv)
            assert t is not None  # image of 1 - s y is the kernel of y = image of x
            retractions.append(t)
        return sections, retractions


@dataclass(frozen=True)
class ExtSpace:
    """The ext space E(C, A) in cocycle coordinates.

    The coboundary d is the intertwiner system of morphisms C -> A, the one
    that hom_space eliminates: Hom(C, A) is its kernel and Ext(C, A) its
    cokernel.  basis_cocycles()[k] is a cocycle family (one matrix per arrow)
    whose class is the k-th coordinate vector; coordinates() is the corresponding
    projection, well defined modulo coboundaries.  All choices come from the
    deterministic elimination in linalg, so bases are reproducible.

    The dimension is counted by rank-nullity on d (quiverrep._ext_dim) and
    builds no matrix here.  d, the projection and its section are built on
    first use, by coordinates, ExtClass.cocycles, basis_cocycles and
    coboundary_solve; the projection has exactly dimension rows.
    """

    C: Representation
    A: Representation

    def __post_init__(self):
        if self.C.quiver != self.A.quiver or self.C.p != self.A.p:
            raise ValidationError("ext requires representations over the same quiver and field")

    @cached_property
    def dimension(self) -> int:
        return _ext_dim(self.C, self.A)

    @cached_property
    def cocycle_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.A.dim[a.target], self.C.dim[a.source]) for a in self.C.quiver.arrows)

    @cached_property
    def _coboundary(self) -> Matrix:
        return _intertwiner_system(self.C, self.A)

    @cached_property
    def _projection(self) -> Matrix:
        return self._coboundary.cokernel_projection()

    @cached_property
    def _section(self) -> Matrix:
        section = self._projection.right_inverse()
        assert section is not None  # the projection has full row rank
        return section

    @property
    def p(self) -> int:
        return self.A.p

    def _flatten(self, cocycles: Sequence[Matrix]) -> Matrix:
        if len(cocycles) != len(self.cocycle_shapes):
            raise DimensionMismatch("one cocycle matrix per arrow required")
        for m, shape in zip(cocycles, self.cocycle_shapes):
            if m.shape != shape:
                raise DimensionMismatch(f"cocycle block has shape {m.shape}, expected {shape}")
            if m.p != self.p:
                raise DimensionMismatch(f"cocycle block over F_{m.p}, expected F_{self.p}")
        return Matrix._wrap(self.p, _flatten(cocycles).reshape(-1, 1))

    def coordinates(self, cocycles: Sequence[Matrix]) -> tuple[int, ...]:
        coords = self._projection @ self._flatten(cocycles)
        return tuple(int(v) for v in coords.a.reshape(-1))

    def basis_cocycles(self) -> list[list[Matrix]]:
        """The cocycles of each basis class, in order, read in place: the
        k-th unit vector's section image is the k-th column of the section."""
        return ([_unflatten(self.p, column, self.cocycle_shapes) for column in self._section.a.T]
                if self.dimension else [])

    def element(self, coords: Sequence[int]) -> "ExtClass":
        return ExtClass(self, coords)

    def coboundary_solve(self, cocycles: Sequence[Matrix]) -> Optional[list[Matrix]]:
        """A vertex family h with d(h) equal to the given cocycle, or None."""
        h = self._coboundary.solve(self._flatten(cocycles))
        if h is None:
            return None
        return _unflatten(self.p, h.a.reshape(-1), _hom_shapes(self.C, self.A))

    def __repr__(self) -> str:
        return f"ExtSpace(C={self.C.dim}, A={self.A.dim}, dim={self.dimension})"


@dataclass(frozen=True)
class ExtClass:
    """An element of an ExtSpace, stored by its coordinate vector.

    The constructor is the one place that reduces coordinates mod p and
    checks their count, so a class compares equal however it was built.
    """

    space: ExtSpace
    coords: tuple[int, ...]

    def __post_init__(self):
        space = self.space
        coords = tuple(int(c) % space.p for c in self.coords)
        if len(coords) != space.dimension:
            raise DimensionMismatch(f"expected {space.dimension} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def cocycles(self) -> tuple[Matrix, ...]:
        space = self.space
        col = Matrix._wrap(space.p, np.asarray(self.coords, dtype=np.int64).reshape(-1, 1))
        return tuple(_unflatten(space.p, (space._section @ col).a.reshape(-1),
                                space.cocycle_shapes))


@cached
def ext_space(C: Representation, A: Representation) -> ExtSpace:
    """E(C, A), cached on the (immutable) argument pair."""
    return ExtSpace(C, A)


def realize(delta: ExtClass) -> Conflation:
    """The canonical block conflation with class delta."""
    A, C = delta.space.A, delta.space.C
    B, x, y = _block_extension(A, C, delta.cocycles())
    return Conflation(A, B, C, x, y, check=False)


def _extracted_cocycle(c: Conflation) -> tuple[tuple[Matrix, ...], list[Matrix], list[Matrix]]:
    """Cocycle of a conflation from deterministic vertexwise splittings."""
    sections, retractions = c.splitting_data()
    g = []
    for k, a in enumerate(c.B.quiver.arrows):
        g.append(retractions[a.target] @ c.B.maps[k] @ sections[a.source])
    return tuple(g), sections, retractions


def class_of(c: Conflation) -> ExtClass:
    """The ext class of a conflation; strict left inverse of realize."""
    space = ext_space(c.C, c.A)
    g, _, _ = _extracted_cocycle(c)
    return space.element(space.coordinates(g))


def pushforward(a: RepMorphism, delta: ExtClass) -> ExtClass:
    """a_* delta in E(C, A') for a: A -> A'."""
    if a.source != delta.space.A:
        raise ValidationError("pushforward needs a morphism out of the coefficient object")
    target = ext_space(delta.space.C, a.target)
    quiver = a.source.quiver
    g = delta.cocycles()
    moved = tuple(a.components[arr.target] @ g[k] for k, arr in enumerate(quiver.arrows))
    return target.element(target.coordinates(moved))


def pullback(c: RepMorphism, delta: ExtClass) -> ExtClass:
    """c^* delta in E(C', A) for c: C' -> C."""
    if c.target != delta.space.C:
        raise ValidationError("pullback needs a morphism into the base object")
    target = ext_space(c.source, delta.space.A)
    quiver = c.source.quiver
    g = delta.cocycles()
    moved = tuple(g[k] @ c.components[arr.source] for k, arr in enumerate(quiver.arrows))
    return target.element(target.coordinates(moved))


@dataclass(frozen=True)
class SplitWitness:
    retraction: RepMorphism  # r with r o x = id_A
    section: RepMorphism     # s with y o s = id_C


def is_split(c: Conflation) -> Optional[SplitWitness]:
    """Split test: a retraction/section witness when c splits, else None.

    c splits iff its extracted cocycle is a coboundary d(h); correcting the
    vertexwise splitting data by h turns it into an actual retraction/section
    pair of morphisms.  The returned pair additionally satisfies r s = 0 and
    x r + s y = id_B (matched splitting).
    """
    space = ext_space(c.C, c.A)
    g, sections, retractions = _extracted_cocycle(c)
    h = space.coboundary_solve(g)
    if h is None:
        return None
    quiver = c.B.quiver
    r_comps, s_comps = [], []
    for v in range(quiver.vertex_count):
        r_comps.append(retractions[v] + h[v] @ c.y.components[v])
        s_comps.append(sections[v] - c.x.components[v] @ h[v])
    retraction = RepMorphism(c.B, c.A, r_comps, check=False)
    section = RepMorphism(c.C, c.B, s_comps, check=False)
    return SplitWitness(retraction, section)


def complete_square(a: RepMorphism, b: RepMorphism, c1: Conflation, c2: Conflation) -> RepMorphism:
    """Induced map on quotients for a commuting left square.

    Given a: c1.A -> c2.A and b: c1.B -> c2.B with c2.x a = b c1.x, returns
    the unique c: c1.C -> c2.C with c c1.y = c2.y b.  The pair (a, c) is then
    a morphism of extensions: a_* class(c1) = c^* class(c2).  Both identities
    are asserted by tests/test_conflation.py::test_complete_square_random.
    """
    if a.source != c1.A or a.target != c2.A or b.source != c1.B or b.target != c2.B:
        raise ValidationError("square endpoints do not match the conflations")
    if c2.x @ a != b @ c1.x:
        raise ValidationError("left square does not commute")
    comps = [c2.y.components[v] @ b.components[v] @ s for v, s in enumerate(c1.sections())]
    return RepMorphism(c1.C, c2.C, comps, check=False)


def shift_base(a: RepMorphism, c: Conflation) -> tuple[Conflation, RepMorphism]:
    """Pushout of a conflation along a: A -> X.

    Returns (c', b) where c' realizes a_* class(c) in canonical block form
    and b: B -> B' makes both squares commute (b x = x' a and y' b = y), as
    tests/test_conflation.py::test_shift_base_pushout asserts.  When a = 0 the
    result is the literal block-split conflation.
    """
    if a.source != c.A:
        raise ValidationError("base change needs a morphism out of the sub object")
    space = ext_space(c.C, a.target)
    g, _, retractions = _extracted_cocycle(c)
    quiver, p = c.B.quiver, c.B.p
    # a_* class(c) has the coordinates of the pushed cocycle a o g, since
    # a o d(h) = d(a o h); the block form embeds the canonical representative
    # of those coordinates, which differs from a o g by a coboundary d(h),
    # and that h is exactly the correction making the comparison map intertwine
    pushed = [a.components[arr.target] @ g[k] for k, arr in enumerate(quiver.arrows)]
    canonical = space.element(space.coordinates(pushed)).cocycles()
    B, x, y = _block_extension(a.target, c.C, canonical)
    shifted = Conflation(a.target, B, c.C, x, y, check=False)
    h = space.coboundary_solve([pg - eg for pg, eg in zip(pushed, canonical)])
    assert h is not None  # the two representatives are cohomologous
    comps = []
    for v in range(quiver.vertex_count):
        top = a.components[v] @ retractions[v] + h[v] @ c.y.components[v]
        comps.append(Matrix.vstack(p, [top, c.y.components[v]], cols=c.B.dim[v]))
    return shifted, RepMorphism(c.B, shifted.B, comps, check=False)


@dataclass(frozen=True)
class ET4:
    composite: Conflation   # A -> C -> E
    quotient: Conflation    # D -> E -> F, with maps d = quotient.x and e = quotient.y


@dataclass(frozen=True)
class ET4Op:
    composite: Conflation   # W -> B -> Q
    kernel: Conflation      # A -> W -> K, with maps a = kernel.x and b = kernel.y


def et4_compose(c1: Conflation, c2: Conflation) -> ET4:
    """Compose two inflations: c1 = A -> B -> D and c2 = B -> C -> F.

    Requires c1.B == c2.A (the same representation, not merely isomorphic).
    Returns the conflation on the composite inflation A -> C together with
    the induced conflation D -> E -> F on the quotient E = C/A, whose maps
    are d = quotient.x and e = quotient.y.  They satisfy the three
    compatibilities of axiom (ET4):

      (i)   class(D -> E -> F) equals (c1.y)_* class(c2),
      (ii)  d^* class(A -> C -> E) equals class(c1),
      (iii) (c1.x)_* class(A -> C -> E) equals e^* class(c2),

    which tests/test_conflation.py::test_et4_compose_compatibilities and
    selftest criterion 3 assert.

    d and e are the unique maps with d c1.y = h' c2.x and e h' = c2.y, where
    h': C -> E is the cokernel projection: each is a factorization through a
    vertexwise surjection, so d_v = h'_v c2.x_v s_v and e_v = c2.y_v t_v for
    any sections s_v of c1.y_v and t_v of h'_v give the same matrices.  So
    only c1's sections are solved for; t_v is the selector of the free
    coordinates, at which the columns of h'_v are the identity
    (cokernel_quot), and e_v is the free columns of c2.y_v.
    """
    if c1.B != c2.A:
        raise ValidationError("middle object of c1 must literally equal the sub object of c2")
    h = c2.x @ c1.x
    E, hprime, free = _cokernel_quot(h)
    composite = Conflation(c1.A, c2.B, E, h, hprime, check=False)
    # f' = c1.y is surjective and h' g kills the image of the inflation f,
    # so h' g factors through f' as d
    d_comps = [hprime.components[v] @ c2.x.components[v] @ s
               for v, s in enumerate(c1.sections())]
    d = RepMorphism(c1.C, E, d_comps, check=False)
    e_comps = [Matrix._wrap(c1.B.p, yv.a[:, cols]) for yv, cols in zip(c2.y.components, free)]
    e = RepMorphism(E, c2.C, e_comps, check=False)
    return ET4(composite, Conflation(c1.C, E, c2.C, d, e, check=False))


def et4op_compose(c1: Conflation, c2: Conflation) -> ET4Op:
    """Compose two deflations: c1 = A -> B -> C and c2 = K -> C -> Q.

    Requires c1.C == c2.B (the same representation).  Returns the conflation
    on the composite deflation B -> Q with kernel W, together with the
    induced conflation A -> W -> K, whose maps are a = kernel.x and
    b = kernel.y.  They satisfy the dual compatibilities of axiom (ET4)^op:

      (i)   class(A -> W -> K) equals (c2.x)^* class(c1),
      (ii)  b_* class(W -> B -> Q) equals class(c2),
      (iii) (c2.y)^* class(W -> B -> Q) equals (a here the inclusion A -> W)_*
            class(c1),

    which tests/test_conflation.py::test_et4op_compose_compatibilities asserts.

    The rows of the inclusion j: W -> B at the free coordinates of its
    kernel basis are the identity (kernel_sub), so the unique lift a of
    c1.x along j is c1.x at those rows.
    """
    if c1.C != c2.B:
        raise ValidationError("quotient object of c1 must literally equal the middle of c2")
    w_defl = c2.y @ c1.y
    W, j, free = _kernel_sub(w_defl)
    composite = Conflation(W, c1.B, c2.C, j, w_defl, check=False)
    quiver = c1.B.quiver
    a_comps, b_comps = [], []
    for v in range(quiver.vertex_count):
        # x lands in the kernel of the composite deflation, so it lifts along j
        a_comps.append(Matrix._wrap(c1.B.p, c1.x.components[v].a[free[v]]))
        # y restricted to W lands in the kernel of q, so it lifts along c2.x
        through = c2.x.components[v].solve(c1.y.components[v] @ j.components[v])
        assert through is not None
        b_comps.append(through)
    a = RepMorphism(c1.A, W, a_comps, check=False)
    b = RepMorphism(W, c2.A, b_comps, check=False)
    return ET4Op(composite, Conflation(c1.A, W, c2.A, a, b, check=False))


def connecting_map(c: Conflation, x_obj: Representation, side: str) -> Matrix:
    """Matrix of the connecting map of the long exact sequence at x_obj.

    side="left":  Hom(X, C) -> E(X, A), f |-> f^* class(c)
    side="right": Hom(A, X) -> E(C, X), g |-> g_* class(c)

    Bases are the deterministic ones from hom_space and ext_space.
    """
    delta = class_of(c)
    if side == "left":
        basis = hom_space(x_obj, c.C)
        target = ext_space(x_obj, c.A)
        columns = [pullback(f, delta).coords for f in basis]
    elif side == "right":
        basis = hom_space(c.A, x_obj)
        target = ext_space(c.C, x_obj)
        columns = [pushforward(g, delta).coords for g in basis]
    else:
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    p = c.B.p
    if not columns:
        return Matrix.zeros(p, target.dimension, 0)
    return Matrix._wrap(p, np.asarray(columns, dtype=np.int64).T)


def conflation_direct_sum(c1: Conflation, c2: Conflation) -> Conflation:
    """Blockwise direct sum of two conflations."""
    dsa = direct_sum(c1.A, c2.A)
    dsb = direct_sum(c1.B, c2.B)
    dsc = direct_sum(c1.C, c2.C)
    x = dsb.inject_left @ c1.x @ dsa.project_left + dsb.inject_right @ c2.x @ dsa.project_right
    y = dsc.inject_left @ c1.y @ dsb.project_left + dsc.inject_right @ c2.y @ dsb.project_right
    return Conflation(dsa.rep, dsb.rep, dsc.rep, x, y, check=False)


def conflations_equivalent(c1: Conflation, c2: Conflation) -> Optional[RepMorphism]:
    """Isomorphism b: c1.B -> c2.B with b x1 = x2 and y2 b = y1, or None.

    Requires the literal equality c1.A == c2.A and c1.C == c2.C.  The two
    are equivalent iff their extracted cocycles differ by a coboundary,
    g1 - g2 = d(h), as is_split decides the case of a split c2.  Then
    b = x2 (t1 + h y1) + s2 y1, with t1 the retractions of c1 and s2 the
    sections of c2, is [[1, h], [0, 1]] in their splitting coordinates: it
    intertwines because g1 - g2 = d(h), and it is invertible.
    """
    if c1.A != c2.A or c1.C != c2.C:
        raise ValidationError("equivalence is only defined over equal end objects")
    g1, _, t1 = _extracted_cocycle(c1)
    g2, s2, _ = _extracted_cocycle(c2)
    h = ext_space(c1.C, c1.A).coboundary_solve([a - b for a, b in zip(g1, g2)])
    if h is None:
        return None
    comps = [x2 @ (t + hv @ y1) + s @ y1
             for x2, t, hv, y1, s in zip(c2.x.components, t1, h, c1.y.components, s2)]
    return RepMorphism(c1.B, c2.B, comps, check=False)
