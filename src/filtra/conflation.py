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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .linalg import Matrix
from .quiverrep import (Representation, RepMorphism, _flatten, _hom_shapes,
                        _intertwiner_system, _unflatten, direct_sum)

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


class Conflation:
    """A -> B -> C, exact at every vertex; validated on construction."""

    __slots__ = ("A", "B", "C", "x", "y")

    def __init__(self, A: Representation, B: Representation, C: Representation,
                 x: RepMorphism, y: RepMorphism):
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
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Conflation is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Conflation)
            and self.A == other.A and self.B == other.B and self.C == other.C
            and self.x == other.x and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.A, self.B, self.C, self.x, self.y))

    def __repr__(self) -> str:
        return f"Conflation({self.A.dim} -> {self.B.dim} -> {self.C.dim})"

    # -- canonical constructions -------------------------------------------

    @staticmethod
    def split(A: Representation, C: Representation) -> "Conflation":
        """The literal block-split conflation A -> A (+) C -> C."""
        ds = direct_sum(A, C)
        return Conflation(A, ds.rep, C, ds.inject_left, ds.project_right)

    @staticmethod
    def from_inclusion(incl: RepMorphism) -> "Conflation":
        """Sub -> ambient -> cokernel for a vertexwise injective morphism."""
        from .quiverrep import cokernel_quot
        if not incl.is_vertexwise_injective():
            raise ValidationError("from_inclusion needs a vertexwise injective morphism")
        quot, proj = cokernel_quot(incl)
        return Conflation(incl.source, incl.target, quot, incl, proj)

    @staticmethod
    def from_surjection(proj: RepMorphism) -> "Conflation":
        """Kernel -> source -> target for a vertexwise surjective morphism."""
        from .quiverrep import kernel_sub
        if not proj.is_vertexwise_surjective():
            raise ValidationError("from_surjection needs a vertexwise surjective morphism")
        ker, incl = kernel_sub(proj)
        return Conflation(ker, proj.source, proj.target, incl, proj)

    @staticmethod
    def identity_right(m: Representation) -> "Conflation":
        """m -> m -> 0."""
        zero = Representation.zero(m.quiver, m.p)
        return Conflation(m, m, zero, RepMorphism.identity(m), RepMorphism.zero(m, zero))

    @staticmethod
    def identity_left(m: Representation) -> "Conflation":
        """0 -> m -> m."""
        zero = Representation.zero(m.quiver, m.p)
        return Conflation(zero, m, m, RepMorphism.zero(zero, m), RepMorphism.identity(m))

    # -- transports along isomorphisms ---------------------------------------

    def with_middle(self, phi: RepMorphism) -> "Conflation":
        """Replace B by an isomorphic object via phi: B -> B'."""
        if phi.source != self.B or not phi.is_isomorphism():
            raise ValidationError("middle transport needs an isomorphism out of B")
        return Conflation(self.A, phi.target, self.C,
                          phi @ self.x, self.y @ phi.inverse())

    def with_quotient(self, phi: RepMorphism) -> "Conflation":
        """Replace C by an isomorphic object via phi: C -> C'."""
        if phi.source != self.C or not phi.is_isomorphism():
            raise ValidationError("quotient transport needs an isomorphism out of C")
        return Conflation(self.A, self.B, phi.target, self.x, phi @ self.y)

    def with_sub(self, phi: RepMorphism) -> "Conflation":
        """Replace A by an isomorphic object via phi: A -> A'."""
        if phi.source != self.A or not phi.is_isomorphism():
            raise ValidationError("sub transport needs an isomorphism out of A")
        return Conflation(phi.target, self.B, self.C, self.x @ phi.inverse(), self.y)

    # -- vertexwise splitting data -------------------------------------------

    def splitting_data(self) -> tuple[list[Matrix], list[Matrix]]:
        """Deterministic vertexwise sections s_v of y and retractions t_v of x.

        These satisfy y_v s_v = 1, x_v t_v = 1 - s_v y_v (hence t_v x_v = 1
        and t_v s_v = 0); they are plain linear maps, not morphisms.
        """
        p = self.B.p
        sections, retractions = [], []
        for v in range(self.B.quiver.vertex_count):
            yv, xv = self.y.components[v], self.x.components[v]
            s = yv.right_inverse()
            assert s is not None  # y is vertexwise surjective
            ident = Matrix.identity(p, self.B.dim[v])
            t = xv.solve(ident - s @ yv)
            assert t is not None  # image of 1 - s y is the kernel of y = image of x
            sections.append(s)
            retractions.append(t)
        return sections, retractions


class ExtSpace:
    """The ext space E(C, A) in cocycle coordinates.

    The coboundary d is the intertwiner system of morphisms C -> A, the one
    that hom_space eliminates: Hom(C, A) is its kernel and Ext(C, A) its
    cokernel.  basis[k] is a cocycle family (one matrix per arrow) whose
    class is the k-th coordinate vector; coordinates() is the corresponding
    projection, well defined modulo coboundaries.  All choices come from the
    deterministic elimination in linalg, so bases are reproducible.
    """

    __slots__ = ("C", "A", "cocycle_shapes", "dimension",
                 "_coboundary", "_projection", "_section")

    def __init__(self, C: Representation, A: Representation):
        if C.quiver != A.quiver or C.p != A.p:
            raise ValidationError("ext requires representations over the same quiver and field")
        shapes = tuple((A.dim[a.target], C.dim[a.source]) for a in C.quiver.arrows)
        coboundary = _intertwiner_system(C, A)
        projection, dimension = coboundary.cokernel_projection()
        section = projection.right_inverse()
        assert section is not None  # projection has full row rank
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "cocycle_shapes", shapes)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_coboundary", coboundary)
        object.__setattr__(self, "_projection", projection)
        object.__setattr__(self, "_section", section)

    def __setattr__(self, name, value):
        raise AttributeError("ExtSpace is immutable")

    @property
    def p(self) -> int:
        return self.A.p

    def _flatten(self, cocycles: Sequence[Matrix]) -> Matrix:
        if len(cocycles) != len(self.cocycle_shapes):
            raise DimensionMismatch("one cocycle matrix per arrow required")
        for m, shape in zip(cocycles, self.cocycle_shapes):
            if m.shape != shape:
                raise DimensionMismatch(f"cocycle block has shape {m.shape}, expected {shape}")
        return Matrix(self.p, _flatten(cocycles).reshape(-1, 1))

    def coordinates(self, cocycles: Sequence[Matrix]) -> tuple[int, ...]:
        coords = self._projection @ self._flatten(cocycles)
        return tuple(int(v) for v in coords.a.reshape(-1))

    def cocycle_of(self, coords: Sequence[int]) -> tuple[Matrix, ...]:
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.dimension:
            raise DimensionMismatch(f"expected {self.dimension} coordinates, got {len(coords)}")
        col = Matrix(self.p, np.asarray(coords, dtype=np.int64).reshape(-1, 1))
        return tuple(_unflatten(self.p, (self._section @ col).a.reshape(-1),
                                self.cocycle_shapes))

    @property
    def basis(self) -> list["ExtClass"]:
        return [self.element(tuple(1 if i == k else 0 for i in range(self.dimension)))
                for k in range(self.dimension)]

    def element(self, coords: Sequence[int]) -> "ExtClass":
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.dimension:
            raise DimensionMismatch(f"expected {self.dimension} coordinates, got {len(coords)}")
        return ExtClass(self, coords)

    @property
    def zero(self) -> "ExtClass":
        return self.element((0,) * self.dimension)

    def coboundary_solve(self, cocycles: Sequence[Matrix]) -> Optional[list[Matrix]]:
        """A vertex family h with d(h) equal to the given cocycle, or None."""
        h = self._coboundary.solve(self._flatten(cocycles))
        if h is None:
            return None
        return _unflatten(self.p, h.a.reshape(-1), _hom_shapes(self.C, self.A))

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtSpace) and self.C == other.C and self.A == other.A

    def __hash__(self) -> int:
        return hash((self.C, self.A))

    def __repr__(self) -> str:
        return f"ExtSpace(C={self.C.dim}, A={self.A.dim}, dim={self.dimension})"


@dataclass(frozen=True)
class ExtClass:
    """An element of an ExtSpace, stored by its coordinate vector."""

    space: ExtSpace
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.space.dimension:
            raise DimensionMismatch("coordinate count does not match the ext dimension")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def cocycles(self) -> tuple[Matrix, ...]:
        return self.space.cocycle_of(self.coords)

    def __add__(self, other: "ExtClass") -> "ExtClass":
        if self.space != other.space:
            raise ValidationError("cannot add classes from different ext spaces")
        p = self.space.p
        return ExtClass(self.space, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def scale(self, c: int) -> "ExtClass":
        p = self.space.p
        return ExtClass(self.space, tuple((c * v) % p for v in self.coords))


_ext_cache: dict[tuple[Representation, Representation], ExtSpace] = {}


def ext_space(C: Representation, A: Representation) -> ExtSpace:
    """E(C, A), cached on the (immutable) argument pair."""
    key = (C, A)
    space = _ext_cache.get(key)
    if space is None:
        space = ExtSpace(C, A)
        _ext_cache[key] = space
    return space


def realize(delta: ExtClass) -> Conflation:
    """The canonical block conflation with class delta."""
    space = delta.space
    A, C = space.A, space.C
    quiver, p = A.quiver, A.p
    g = delta.cocycles()
    dim = tuple(da + dc for da, dc in zip(A.dim, C.dim))
    maps = []
    for k, a in enumerate(quiver.arrows):
        z = Matrix.zeros(p, C.dim[a.target], A.dim[a.source])
        maps.append(Matrix.block(p, [[A.maps[k], g[k]], [z, C.maps[k]]]))
    B = Representation(quiver, p, dim, maps)
    xc, yc = [], []
    for v in range(quiver.vertex_count):
        da, dc = A.dim[v], C.dim[v]
        xc.append(Matrix.vstack(p, [Matrix.identity(p, da), Matrix.zeros(p, dc, da)], cols=da))
        yc.append(Matrix.hstack(p, [Matrix.zeros(p, dc, da), Matrix.identity(p, dc)], rows=dc))
    x = RepMorphism(A, B, xc, check=False)
    y = RepMorphism(B, C, yc, check=False)
    return Conflation(A, B, C, x, y)


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


def is_split(c: Conflation) -> tuple[bool, Optional[SplitWitness]]:
    """Split test with morphism witnesses.

    The conflation splits iff its extracted cocycle is a coboundary d(h);
    correcting the vertexwise splitting data by h turns it into an actual
    retraction/section pair of morphisms.  The returned pair additionally
    satisfies r s = 0 and x r + s y = id_B (matched splitting).
    """
    space = ext_space(c.C, c.A)
    g, sections, retractions = _extracted_cocycle(c)
    h = space.coboundary_solve(g)
    if h is None:
        return False, None
    quiver = c.B.quiver
    r_comps, s_comps = [], []
    for v in range(quiver.vertex_count):
        r_comps.append(retractions[v] + h[v] @ c.y.components[v])
        s_comps.append(sections[v] - c.x.components[v] @ h[v])
    retraction = RepMorphism(c.B, c.A, r_comps)
    section = RepMorphism(c.C, c.B, s_comps)
    return True, SplitWitness(retraction, section)


def complete_square(a: RepMorphism, b: RepMorphism, c1: Conflation, c2: Conflation) -> RepMorphism:
    """Induced map on quotients for a commuting left square.

    Given a: c1.A -> c2.A and b: c1.B -> c2.B with c2.x a = b c1.x, returns
    the unique c: c1.C -> c2.C with c c1.y = c2.y b.  The pair (a, c) is then
    a morphism of extensions: a_* class(c1) = c^* class(c2), which is
    asserted.
    """
    if a.source != c1.A or a.target != c2.A or b.source != c1.B or b.target != c2.B:
        raise ValidationError("square endpoints do not match the conflations")
    if c2.x @ a != b @ c1.x:
        raise ValidationError("left square does not commute")
    sections, _ = c1.splitting_data()
    comps = [c2.y.components[v] @ b.components[v] @ sections[v]
             for v in range(c1.B.quiver.vertex_count)]
    c = RepMorphism(c1.C, c2.C, comps)
    if c @ c1.y != c2.y @ b:
        raise ValidationError("right square failed to commute; inputs are inconsistent")
    if pushforward(a, class_of(c1)) != pullback(c, class_of(c2)):
        raise ValidationError("completed square is not a morphism of extensions")
    return c


def shift_base(a: RepMorphism, c: Conflation) -> tuple[Conflation, RepMorphism]:
    """Pushout of a conflation along a: A -> X.

    Returns (c', b) where c' realizes a_* class(c) in canonical block form
    and b: B -> B' makes both squares commute (b x = x' a and y' b = y).
    When a = 0 the result is the literal block-split conflation.
    """
    if a.source != c.A:
        raise ValidationError("base change needs a morphism out of the sub object")
    delta = class_of(c)
    moved = pushforward(a, delta)
    shifted = realize(moved)
    g, _, retractions = _extracted_cocycle(c)
    quiver, p = c.B.quiver, c.B.p
    # realize embeds the canonical representative of a_* delta, which agrees
    # with the pushed cocycle a o g only up to a coboundary d(h); that h is
    # exactly the correction making the comparison map intertwine
    pushed = [a.components[arr.target] @ g[k] for k, arr in enumerate(quiver.arrows)]
    diff = [pg - eg for pg, eg in zip(pushed, moved.cocycles())]
    h = moved.space.coboundary_solve(diff)
    assert h is not None  # the two representatives are cohomologous
    comps = []
    for v in range(quiver.vertex_count):
        top = a.components[v] @ retractions[v] + h[v] @ c.y.components[v]
        comps.append(Matrix.vstack(p, [top, c.y.components[v]], cols=c.B.dim[v]))
    b = RepMorphism(c.B, shifted.B, comps)
    if b @ c.x != shifted.x @ a or shifted.y @ b != c.y:
        raise ValidationError("pushout squares failed to commute")
    return shifted, b


@dataclass(frozen=True)
class ET4:
    composite: Conflation   # A -> C -> E
    quotient: Conflation    # D -> E -> F
    d: RepMorphism          # D -> E
    e: RepMorphism          # E -> F


@dataclass(frozen=True)
class ET4Op:
    composite: Conflation   # W -> B -> Q
    kernel: Conflation      # A -> W -> K
    a: RepMorphism          # A -> W
    b: RepMorphism          # W -> K


def et4_compose(c1: Conflation, c2: Conflation) -> ET4:
    """Compose two inflations: c1 = A -> B -> D and c2 = B -> C -> F.

    Requires c1.B == c2.A (the same representation, not merely isomorphic).
    Returns the conflation on the composite inflation A -> C together with
    the induced conflation D -> E -> F on the quotient E = C/A.  Three
    compatibilities are checked before returning:

      (i)   class(D -> E -> F) equals (c1.y)_* class(c2),
      (ii)  d^* class(A -> C -> E) equals class(c1),
      (iii) (c1.x)_* class(A -> C -> E) equals e^* class(c2).
    """
    from .quiverrep import cokernel_quot
    if c1.B != c2.A:
        raise ValidationError("middle object of c1 must literally equal the sub object of c2")
    h = c2.x @ c1.x
    E, hprime = cokernel_quot(h)
    composite = Conflation(c1.A, c2.B, E, h, hprime)
    quiver, p = c1.B.quiver, c1.B.p
    f_sections, _ = c1.splitting_data()   # sections of f' = c1.y
    d_comps = []
    for v in range(quiver.vertex_count):
        # f' is surjective and h' g kills the image of the inflation f,
        # so h' g factors through f' as d
        d_comps.append(hprime.components[v] @ c2.x.components[v] @ f_sections[v])
    d = RepMorphism(c1.C, E, d_comps)
    comp_sections, _ = composite.splitting_data()  # sections of h'
    e_comps = []
    for v in range(quiver.vertex_count):
        e_comps.append(c2.y.components[v] @ comp_sections[v])
    e = RepMorphism(E, c2.C, e_comps)
    quotient = Conflation(c1.C, E, c2.C, d, e)
    delta1 = class_of(c1)
    delta2 = class_of(c2)
    delta3 = class_of(composite)
    if class_of(quotient) != pushforward(c1.y, delta2):
        raise ValidationError("composition compatibility (i) failed")
    if pullback(d, delta3) != delta1:
        raise ValidationError("composition compatibility (ii) failed")
    if pushforward(c1.x, delta3) != pullback(e, delta2):
        raise ValidationError("composition compatibility (iii) failed")
    return ET4(composite, quotient, d, e)


def et4op_compose(c1: Conflation, c2: Conflation) -> ET4Op:
    """Compose two deflations: c1 = A -> B -> C and c2 = K -> C -> Q.

    Requires c1.C == c2.B (the same representation).  Returns the conflation
    on the composite deflation B -> Q with kernel W, together with the
    induced conflation A -> W -> K.  The dual compatibilities are checked:

      (i)   class(A -> W -> K) equals (c2.x)^* class(c1),
      (ii)  b_* class(W -> B -> Q) equals class(c2),
      (iii) (c2.y)^* class(W -> B -> Q) equals (a here the inclusion A -> W)_*
            class(c1).
    """
    from .quiverrep import kernel_sub
    if c1.C != c2.B:
        raise ValidationError("quotient object of c1 must literally equal the middle of c2")
    w_defl = c2.y @ c1.y
    W, j = kernel_sub(w_defl)
    composite = Conflation(W, c1.B, c2.C, j, w_defl)
    quiver = c1.B.quiver
    a_comps, b_comps = [], []
    for v in range(quiver.vertex_count):
        # x lands in the kernel of the composite deflation, so it lifts along j
        lifted = j.components[v].solve(c1.x.components[v])
        assert lifted is not None
        a_comps.append(lifted)
        # y restricted to W lands in the kernel of q, so it lifts along c2.x
        through = c2.x.components[v].solve(c1.y.components[v] @ j.components[v])
        assert through is not None
        b_comps.append(through)
    a = RepMorphism(c1.A, W, a_comps)
    b = RepMorphism(W, c2.A, b_comps)
    kernel = Conflation(c1.A, W, c2.A, a, b)
    delta1 = class_of(c1)
    delta2 = class_of(c2)
    delta3 = class_of(composite)
    if class_of(kernel) != pullback(c2.x, delta1):
        raise ValidationError("dual composition compatibility (i) failed")
    if pushforward(b, delta3) != delta2:
        raise ValidationError("dual composition compatibility (ii) failed")
    if pullback(c2.y, delta3) != pushforward(a, delta1):
        raise ValidationError("dual composition compatibility (iii) failed")
    return ET4Op(composite, kernel, a, b)


def connecting_map(c: Conflation, x_obj: Representation, side: str) -> Matrix:
    """Matrix of the connecting map of the long exact sequence at x_obj.

    side="left":  Hom(X, C) -> E(X, A), f |-> f^* class(c)
    side="right": Hom(A, X) -> E(C, X), g |-> g_* class(c)

    Bases are the deterministic ones from hom_space and ext_space.
    """
    from .quiverrep import hom_space
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
    return Matrix(p, np.asarray(columns, dtype=np.int64).T)


def conflation_direct_sum(c1: Conflation, c2: Conflation) -> Conflation:
    """Blockwise direct sum of two conflations."""
    dsa = direct_sum(c1.A, c2.A)
    dsb = direct_sum(c1.B, c2.B)
    dsc = direct_sum(c1.C, c2.C)
    x = dsb.inject_left @ c1.x @ dsa.project_left + dsb.inject_right @ c2.x @ dsa.project_right
    y = dsc.inject_left @ c1.y @ dsb.project_left + dsc.inject_right @ c2.y @ dsb.project_right
    return Conflation(dsa.rep, dsb.rep, dsc.rep, x, y)


def conflations_equivalent(c1: Conflation, c2: Conflation) -> Optional[RepMorphism]:
    """Isomorphism b: c1.B -> c2.B with b x1 = x2 and y2 b = y1, or None.

    Requires the literal equality c1.A == c2.A and c1.C == c2.C.  Solving the
    combined linear system suffices: any solution is automatically invertible
    (five lemma), which is asserted.
    """
    if c1.A != c2.A or c1.C != c2.C:
        raise ValidationError("equivalence is only defined over equal end objects")
    B1, B2 = c1.B, c2.B
    system = _intertwiner_system(B1, B2, c1.x.components, c2.y.components)
    extra = _flatten([m for v in range(B1.quiver.vertex_count)
                      for m in (c2.x.components[v], c1.y.components[v])])
    rhs = np.concatenate([np.zeros(system.rows - extra.size, dtype=np.int64), extra])
    solution = system.solve(Matrix(B1.p, rhs.reshape(-1, 1)))
    if solution is None:
        return None
    comps = _unflatten(B1.p, solution.a.reshape(-1), _hom_shapes(B1, B2))
    morphism = RepMorphism(B1, B2, comps)
    if not morphism.is_isomorphism():
        raise ValidationError("solved comparison map is not invertible; exactness is broken")
    return morphism
