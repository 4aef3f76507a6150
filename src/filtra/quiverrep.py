"""Finite-dimensional representations of a finite acyclic quiver over F_p.

A representation assigns F_p^{d_v} to each vertex v and a matrix to each
arrow a: i -> j, of shape d_j x d_i (column-vector convention).  Morphisms
are vertex-indexed families of matrices satisfying the intertwiner law

    target.arrow_maps[a] @ components[i] == components[j] @ source.arrow_maps[a]

for every arrow a: i -> j.  Everything here is exact and deterministic;
the only randomized ingredient (splitting searches past the exhaustive
bound) uses a fixed input-independent seed and fails loudly via
SearchBoundExceeded rather than ever guessing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    SEARCH_BOUND,
    DimensionMismatch,
    SearchBoundExceeded,
    ValidationError,
)
from .linalg import Matrix

__all__ = [
    "Arrow",
    "Quiver",
    "Representation",
    "RepMorphism",
    "ThetaFamily",
    "DirectSum",
    "hom_space",
    "direct_sum",
    "direct_power",
    "kernel_sub",
    "image_sub",
    "cokernel_quot",
    "is_isomorphic",
    "iso_witness",
    "is_indecomposable",
    "krull_schmidt",
    "enumerate_reps",
    "enumerate_indecomposables",
    "enumerate_subreps",
    "iso_key",
    "euler_pairing",
]

_FIXED_SEED = 0xF117A


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with 0-based vertices, validated acyclic on construction."""

    vertex_count: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValidationError("vertex count must be nonnegative")
        names = set()
        for a in self.arrows:
            if not (0 <= a.source < self.vertex_count and 0 <= a.target < self.vertex_count):
                raise ValidationError(f"arrow {a.name} endpoints out of range")
            if a.name in names:
                raise ValidationError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
        self.topological_order()  # raises on a cycle

    @staticmethod
    def from_edges(vertex_count: int, edges: Sequence[tuple[str, int, int]]) -> "Quiver":
        return Quiver(vertex_count, tuple(Arrow(n, s, t) for n, s, t in edges))

    def topological_order(self) -> tuple[int, ...]:
        indeg = [0] * self.vertex_count
        for a in self.arrows:
            indeg[a.target] += 1
        order, queue = [], [v for v in range(self.vertex_count) if indeg[v] == 0]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for a in self.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        queue.append(a.target)
        if len(order) != self.vertex_count:
            raise ValidationError("quiver must be acyclic")
        return tuple(order)

    def arrow_index(self, name: str) -> int:
        for k, a in enumerate(self.arrows):
            if a.name == name:
                return k
        raise KeyError(name)

    def paths(self, max_length: int | None = None) -> list[tuple[Arrow, ...]]:
        """All nontrivial directed paths, sorted by (length, arrow name sequence)."""
        limit = self.vertex_count if max_length is None else max_length
        found: list[tuple[Arrow, ...]] = []
        frontier: list[tuple[Arrow, ...]] = [(a,) for a in self.arrows]
        length = 1
        while frontier and length <= limit:
            found.extend(frontier)
            nxt = []
            for path in frontier:
                for a in self.arrows:
                    if a.source == path[-1].target:
                        nxt.append(path + (a,))
            frontier = nxt
            length += 1
        return sorted(found, key=lambda path: (len(path), tuple(a.name for a in path)))


class Representation:
    """A point of the representation variety: dims plus one matrix per arrow."""

    __slots__ = ("quiver", "p", "dim", "maps", "_hash")

    def __init__(self, quiver: Quiver, p: int, dim: Sequence[int], maps: Sequence[Matrix]):
        dim = tuple(int(d) for d in dim)
        maps = tuple(maps)
        if len(dim) != quiver.vertex_count:
            raise DimensionMismatch(
                f"expected {quiver.vertex_count} vertex dimensions, got {len(dim)}")
        if any(d < 0 for d in dim):
            raise ValidationError("vertex dimensions must be nonnegative")
        if len(maps) != len(quiver.arrows):
            raise DimensionMismatch(
                f"expected {len(quiver.arrows)} arrow matrices, got {len(maps)}")
        for a, m in zip(quiver.arrows, maps):
            if m.p != p:
                raise ValidationError(f"arrow {a.name}: matrix modulus {m.p} != {p}")
            if m.shape != (dim[a.target], dim[a.source]):
                raise DimensionMismatch(
                    f"arrow {a.name}: expected shape {(dim[a.target], dim[a.source])}, got {m.shape}")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dict(quiver: Quiver, p: int, dim: Sequence[int],
                  arrow_maps: dict[str, object] | None = None) -> "Representation":
        """Build from a name-keyed dict of matrix data; missing arrows are zero."""
        arrow_maps = arrow_maps or {}
        unknown = set(arrow_maps) - {a.name for a in quiver.arrows}
        if unknown:
            raise ValidationError(f"unknown arrow names {sorted(unknown)}")
        dim = tuple(int(d) for d in dim)
        maps = []
        for a in quiver.arrows:
            shape = (dim[a.target], dim[a.source])
            data = arrow_maps.get(a.name)
            if data is None:
                maps.append(Matrix.zeros(p, *shape))
            elif isinstance(data, Matrix):
                maps.append(data)
            else:
                maps.append(Matrix(p, data, shape=shape))
        return Representation(quiver, p, dim, maps)

    @staticmethod
    def zero(quiver: Quiver, p: int) -> "Representation":
        return Representation.from_dict(quiver, p, (0,) * quiver.vertex_count)

    @staticmethod
    def simple(quiver: Quiver, p: int, v: int) -> "Representation":
        dim = tuple(1 if w == v else 0 for w in range(quiver.vertex_count))
        return Representation.from_dict(quiver, p, dim)

    @staticmethod
    def projective(quiver: Quiver, p: int, v: int) -> "Representation":
        """Paths-out model: basis at vertex w = directed paths from v to w."""
        return _path_representation(quiver, p, v, out=True)

    @staticmethod
    def injective(quiver: Quiver, p: int, v: int) -> "Representation":
        """Paths-in model: basis at vertex w = directed paths from w to v."""
        return _path_representation(quiver, p, v, out=False)

    @staticmethod
    def random(quiver: Quiver, p: int, max_dim: Sequence[int], rng: random.Random) -> "Representation":
        dim = tuple(rng.randrange(b + 1) for b in max_dim)
        maps = []
        for a in quiver.arrows:
            r, c = dim[a.target], dim[a.source]
            maps.append(Matrix(p, [[rng.randrange(p) for _ in range(c)] for _ in range(r)], shape=(r, c)))
        return Representation(quiver, p, dim, maps)

    # -- queries -----------------------------------------------------------

    def map_of(self, arrow_name: str) -> Matrix:
        return self.maps[self.quiver.arrow_index(arrow_name)]

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.p == other.p
            and self.dim == other.dim
            and self.maps == other.maps
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.quiver, self.p, self.dim, self.maps))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Representation(dim={self.dim}, p={self.p})"


def _path_representation(quiver: Quiver, p: int, v: int, out: bool) -> Representation:
    paths_at: list[list[tuple[str, ...]]] = [[] for _ in range(quiver.vertex_count)]
    paths_at[v].append(())
    for path in quiver.paths():
        names = tuple(a.name for a in path)
        if out and path[0].source == v:
            paths_at[path[-1].target].append(names)
        if not out and path[-1].target == v:
            paths_at[path[0].source].append(names)
    for lst in paths_at:
        lst.sort(key=lambda names: (len(names), names))
    dim = tuple(len(lst) for lst in paths_at)
    maps = []
    for a in quiver.arrows:
        m = np.zeros((dim[a.target], dim[a.source]), dtype=np.int64)
        for col, names in enumerate(paths_at[a.source]):
            extended = names + (a.name,) if out else (a.name,) + names
            if extended in paths_at[a.target]:
                m[paths_at[a.target].index(extended), col] = 1
        maps.append(Matrix(p, m))
    return Representation(quiver, p, dim, maps)


class RepMorphism:
    """Vertex-indexed family of matrices satisfying the intertwiner law."""

    __slots__ = ("source", "target", "components", "_hash")

    def __init__(self, source: Representation, target: Representation,
                 components: Sequence[Matrix], check: bool = True):
        if source.quiver != target.quiver or source.p != target.p:
            raise ValidationError("morphism endpoints live over different quivers or fields")
        components = tuple(components)
        if len(components) != source.quiver.vertex_count:
            raise DimensionMismatch("one component per vertex required")
        for v, m in enumerate(components):
            if m.shape != (target.dim[v], source.dim[v]):
                raise DimensionMismatch(
                    f"vertex {v}: expected shape {(target.dim[v], source.dim[v])}, got {m.shape}")
        if check:
            for a, msrc, mtgt in zip(source.quiver.arrows, source.maps, target.maps):
                left = mtgt @ components[a.source]
                right = components[a.target] @ msrc
                if left != right:
                    raise ValidationError(f"intertwiner law fails at arrow {a.name}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RepMorphism is immutable")

    @staticmethod
    def identity(m: Representation) -> "RepMorphism":
        return RepMorphism(m, m, [Matrix.identity(m.p, d) for d in m.dim], check=False)

    @staticmethod
    def zero(source: Representation, target: Representation) -> "RepMorphism":
        comps = [Matrix.zeros(source.p, target.dim[v], source.dim[v])
                 for v in range(source.quiver.vertex_count)]
        return RepMorphism(source, target, comps, check=False)

    def __matmul__(self, other: "RepMorphism") -> "RepMorphism":
        """Composition self o other (apply other first)."""
        if other.target != self.source:
            raise DimensionMismatch("composition endpoints do not match")
        comps = [a @ b for a, b in zip(self.components, other.components)]
        return RepMorphism(other.source, self.target, comps, check=False)

    def __add__(self, other: "RepMorphism") -> "RepMorphism":
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatch("sum endpoints do not match")
        return RepMorphism(self.source, self.target,
                           [a + b for a, b in zip(self.components, other.components)], check=False)

    def __sub__(self, other: "RepMorphism") -> "RepMorphism":
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatch("difference endpoints do not match")
        return RepMorphism(self.source, self.target,
                           [a - b for a, b in zip(self.components, other.components)], check=False)

    def scale(self, c: int) -> "RepMorphism":
        return RepMorphism(self.source, self.target,
                           [m.scale(c) for m in self.components], check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components)

    def is_vertexwise_injective(self) -> bool:
        return all(m.rank() == m.cols for m in self.components)

    def is_vertexwise_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.components)

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and all(
            m.rows == m.cols and m.rank() == m.rows for m in self.components)

    def inverse(self) -> "RepMorphism":
        if not self.is_isomorphism():
            raise ValidationError("morphism is not invertible")
        comps = []
        for m in self.components:
            inv = m.inverse()
            assert inv is not None
            comps.append(inv)
        return RepMorphism(self.target, self.source, comps, check=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RepMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.source, self.target, self.components))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"RepMorphism({self.source.dim} -> {self.target.dim})"


# -- hom spaces -------------------------------------------------------------

_hom_cache: dict[tuple[Representation, Representation], tuple[RepMorphism, ...]] = {}


def _hom_shapes(m: Representation, n: Representation) -> list[tuple[int, int]]:
    return [(dn, dm) for dm, dn in zip(m.dim, n.dim)]


def _flatten(blocks: Sequence[Matrix]) -> np.ndarray:
    """The entries of the blocks, each flattened row-major, one block after another."""
    if not blocks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([b.a.reshape(-1) for b in blocks])


def _unflatten(p: int, vec: np.ndarray, shapes: Sequence[tuple[int, int]]) -> list[Matrix]:
    """Inverse of _flatten for blocks of the given shapes."""
    out, pos = [], 0
    for r, c in shapes:
        out.append(Matrix(p, vec[pos:pos + r * c], shape=(r, c)))
        pos += r * c
    return out


def _kron_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """L kron R^T, so that vec(L f R) = (L kron R^T) vec(f) for the row-major vec.

    A broadcast product: numpy's generic kron costs several times more on
    the tiny blocks that most systems are made of.
    """
    rt = right.T
    return (left[:, None, :, None] * rt[None, :, None, :]).reshape(
        left.shape[0] * rt.shape[0], left.shape[1] * rt.shape[1])


def _intertwiner_system(m: Representation, n: Representation,
                        x: Sequence[Matrix] = (), y: Sequence[Matrix] = ()) -> Matrix:
    """The linear system of morphisms m -> n in _flatten coordinates.

    One block row per arrow a: i -> j holds n_a f_i - f_j m_a, so the
    kernel is Hom(m, n) and, for m = C and n = A, the cokernel is Ext(C, A)
    (Ringel's standard exact sequence).  Given one map x_v into m_v and one
    map y_v out of n_v per vertex, the rows of f_v x_v and y_v f_v follow,
    vertex by vertex: the extra equations of an equivalence of conflations.
    """
    offsets = list(itertools.accumulate((r * c for r, c in _hom_shapes(m, n)), initial=0))
    # (height, terms): the rows of the sum of L @ f_v @ R over the terms
    # (v, L, R), where None stands for an identity
    equations = [(n.dim[a.target] * m.dim[a.source],
                  [(a.source, na.a, None), (a.target, None, -ma.a)])
                 for a, ma, na in zip(m.quiver.arrows, m.maps, n.maps)]
    for v, (xv, yv) in enumerate(zip(x, y)):
        equations += [(n.dim[v] * xv.cols, [(v, None, xv.a)]),
                      (yv.rows * m.dim[v], [(v, yv.a, None)])]
    system = np.zeros((sum(height for height, _ in equations), offsets[-1]), dtype=np.int64)
    start = 0
    for height, terms in equations:
        for v, left, right in terms:
            if height and offsets[v + 1] > offsets[v]:
                left = np.eye(n.dim[v], dtype=np.int64) if left is None else left
                right = np.eye(m.dim[v], dtype=np.int64) if right is None else right
                system[start:start + height, offsets[v]:offsets[v + 1]] += _kron_block(left, right)
        start += height
    return Matrix(m.p, system)


def hom_space(m: Representation, n: Representation) -> list[RepMorphism]:
    """Deterministic basis of the space of morphisms m -> n.

    Hom(m, n) is the kernel of the intertwiner system (_intertwiner_system),
    the same system whose cokernel is Ext(m, n); its kernel basis is
    unpacked into morphisms.  Results are cached; the cache is semantically
    invisible since all inputs and outputs are immutable.
    """
    if m.quiver != n.quiver or m.p != n.p:
        raise ValidationError("hom requires representations over the same quiver and field")
    key = (m, n)
    cached = _hom_cache.get(key)
    if cached is not None:
        return list(cached)
    kernel = _intertwiner_system(m, n).kernel_basis()
    shapes = _hom_shapes(m, n)
    basis = [RepMorphism(m, n, _unflatten(m.p, kernel.a[:, k], shapes), check=False)
             for k in range(kernel.cols)]
    _hom_cache[key] = tuple(basis)
    return basis


def hom_coordinates(f: RepMorphism, basis: Sequence[RepMorphism]) -> Matrix:
    """Coordinates of f in a hom-space basis (column vector)."""
    p = f.source.p
    if not basis:
        if not f.is_zero():
            raise ValidationError("morphism is not in the span of an empty basis")
        return Matrix.zeros(p, 0, 1)
    b = Matrix(p, np.stack([_flatten(g.components) for g in basis], axis=1))
    x = b.solve(Matrix(p, _flatten(f.components).reshape(-1, 1)))
    if x is None:
        raise ValidationError("morphism is not in the span of the given basis")
    return x


def _hom_component_stacks(basis: Sequence[RepMorphism], m: Representation,
                          n: Representation) -> list[np.ndarray]:
    """Per-vertex arrays of shape (len(basis), n.dim[v], m.dim[v])."""
    stacks = []
    for v in range(m.quiver.vertex_count):
        if basis:
            stacks.append(np.stack([f.components[v].a for f in basis]))
        else:
            stacks.append(np.zeros((0, n.dim[v], m.dim[v]), dtype=np.int64))
    return stacks


def _combo_components(coeffs: np.ndarray, stacks: list[np.ndarray], p: int) -> list[np.ndarray]:
    return [np.tensordot(coeffs, s, axes=1) % p if s.shape[0] else s.sum(axis=0)
            for s in stacks]


# -- direct sums ------------------------------------------------------------

@dataclass(frozen=True)
class DirectSum:
    rep: Representation
    inject_left: RepMorphism
    inject_right: RepMorphism
    project_left: RepMorphism
    project_right: RepMorphism


def direct_sum(m: Representation, n: Representation) -> DirectSum:
    """Block-diagonal sum with the four canonical maps (left block first)."""
    if m.quiver != n.quiver or m.p != n.p:
        raise ValidationError("direct sum requires the same quiver and field")
    p = m.p
    dim = tuple(dm + dn for dm, dn in zip(m.dim, n.dim))
    maps = []
    for a, ma, na in zip(m.quiver.arrows, m.maps, n.maps):
        z1 = Matrix.zeros(p, ma.rows, na.cols)
        z2 = Matrix.zeros(p, na.rows, ma.cols)
        maps.append(Matrix.block(p, [[ma, z1], [z2, na]]))
    total = Representation(m.quiver, p, dim, maps)
    il, ir, pl, pr = [], [], [], []
    for v in range(m.quiver.vertex_count):
        dm, dn = m.dim[v], n.dim[v]
        im = Matrix.identity(p, dm)
        inn = Matrix.identity(p, dn)
        il.append(Matrix.vstack(p, [im, Matrix.zeros(p, dn, dm)], cols=dm))
        ir.append(Matrix.vstack(p, [Matrix.zeros(p, dm, dn), inn], cols=dn))
        pl.append(Matrix.hstack(p, [im, Matrix.zeros(p, dm, dn)], rows=dm))
        pr.append(Matrix.hstack(p, [Matrix.zeros(p, dn, dm), inn], rows=dn))
    return DirectSum(
        total,
        RepMorphism(m, total, il, check=False),
        RepMorphism(n, total, ir, check=False),
        RepMorphism(total, m, pl, check=False),
        RepMorphism(total, n, pr, check=False),
    )


def direct_power(m: Representation, k: int) -> Representation:
    """Iterated direct sum m^k, folded left to right so powers nest literally."""
    if k < 0:
        raise ValidationError("power must be nonnegative")
    acc = Representation.zero(m.quiver, m.p)
    for _ in range(k):
        acc = direct_sum(acc, m).rep
    return acc


# -- subobjects and quotients ------------------------------------------------

def kernel_sub(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Kernel subrepresentation with its inclusion into f.source."""
    bases = [m.kernel_basis() for m in f.components]
    return _sub_from_bases(f.source, bases)


def image_sub(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Image subrepresentation with its inclusion into f.target."""
    bases = [m.column_space_basis() for m in f.components]
    return _sub_from_bases(f.target, bases)


def _sub_from_bases(ambient: Representation,
                    bases: Sequence[Matrix]) -> tuple[Representation, RepMorphism]:
    quiver, p = ambient.quiver, ambient.p
    dim = tuple(b.cols for b in bases)
    maps = []
    for a, big in zip(quiver.arrows, ambient.maps):
        rhs = big @ bases[a.source]
        small = bases[a.target].solve(rhs)
        if small is None:
            raise ValidationError(f"subspaces are not closed under arrow {a.name}")
        maps.append(small)
    sub = Representation(quiver, p, dim, maps)
    incl = RepMorphism(sub, ambient, bases, check=False)
    return sub, incl


def cokernel_quot(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Cokernel representation of f with the projection from f.target."""
    quiver, p = f.target.quiver, f.target.p
    projections = []
    sections = []
    for m in f.components:
        q, _ = m.cokernel_projection()
        projections.append(q)
        s = q.right_inverse()
        assert s is not None  # q has full row rank by construction
        sections.append(s)
    dim = tuple(q.rows for q in projections)
    maps = []
    for a, big in zip(quiver.arrows, f.target.maps):
        # induced map: q_t @ big @ section_s; independent of the section since
        # q_t @ big kills the image of f at the source vertex
        maps.append(projections[a.target] @ big @ sections[a.source])
    quot = Representation(quiver, p, dim, maps)
    proj = RepMorphism(f.target, quot, projections, check=False)
    return quot, proj


# -- isomorphism, indecomposability, Krull-Schmidt ---------------------------

def iso_key(m: Representation):
    """Cheap iso-invariant: dims, arrow ranks and path-composite ranks."""
    arrow_ranks = tuple(mm.rank() for mm in m.maps)
    path_ranks = []
    for path in m.quiver.paths():
        acc = m.maps[m.quiver.arrow_index(path[0].name)]
        for a in path[1:]:
            acc = m.maps[m.quiver.arrow_index(a.name)] @ acc
        path_ranks.append(acc.rank())
    return (m.dim, arrow_ranks, tuple(path_ranks))


def _canonical_key(m: Representation):
    """Sort key of the deterministic orders: (total dim, dim, iso_key, map bytes)."""
    return (m.total_dim, m.dim, iso_key(m), tuple(mm.a.tobytes() for mm in m.maps))


def _invariants_match(m: Representation, n: Representation) -> bool:
    if m.dim != n.dim or iso_key(m) != iso_key(n):
        return False
    if len(hom_space(m, n)) != len(hom_space(n, m)):
        return False
    if len(hom_space(m, m)) != len(hom_space(n, n)):
        return False
    return True


def _invertible_combo_search(m: Representation, n: Representation) -> Optional[RepMorphism]:
    """Search Hom(m, n) for a vertexwise invertible element.

    Exhaustive over the whole space while it has at most SEARCH_BOUND
    elements; beyond that, fixed-seed random sampling.  Returns a witness or
    None (None from the sampling path never proves anything by itself, the
    caller must fall back or raise).
    """
    basis = hom_space(m, n)
    h = len(basis)
    p = m.p
    if h == 0:
        return None
    stacks = _hom_component_stacks(basis, m, n)

    def witness_from(coeffs: np.ndarray) -> Optional[RepMorphism]:
        comps = _combo_components(coeffs, stacks, p)
        for v, c in enumerate(comps):
            if c.shape[0] != c.shape[1] or Matrix(p, c).rank() != c.shape[0]:
                return None
        return RepMorphism(m, n, [Matrix(p, c) for c in comps], check=False)

    if p ** h <= SEARCH_BOUND:
        for combo in itertools.product(range(p), repeat=h):
            if not any(combo):
                continue
            w = witness_from(np.asarray(combo, dtype=np.int64))
            if w is not None:
                return w
        return None
    rng = random.Random(_FIXED_SEED)
    for _ in range(4096):
        coeffs = np.asarray([rng.randrange(p) for _ in range(h)], dtype=np.int64)
        if not coeffs.any():
            continue
        w = witness_from(coeffs)
        if w is not None:
            return w
    return None


def iso_witness(m: Representation, n: Representation) -> Optional[RepMorphism]:
    """An invertible morphism m -> n, or None when provably non-isomorphic.

    Raises SearchBoundExceeded when neither a witness nor a proof of
    non-isomorphism fits inside the search bound.
    """
    if m.quiver != n.quiver or m.p != n.p:
        return None
    if m == n:
        return RepMorphism.identity(m)
    if not _invariants_match(m, n):
        return None
    w = _invertible_combo_search(m, n)
    if w is not None:
        return w
    if m.p ** len(hom_space(m, n)) <= SEARCH_BOUND:
        return None  # the search above was exhaustive
    # decompose both sides and match indecomposable summands
    try:
        return _iso_via_decomposition(m, n)
    except SearchBoundExceeded:
        raise SearchBoundExceeded(
            f"cannot decide isomorphism for dims {m.dim} vs {n.dim} within the search bound")


def is_isomorphic(m: Representation, n: Representation) -> bool:
    return iso_witness(m, n) is not None


def _endo_stacks(m: Representation):
    basis = hom_space(m, m)
    return basis, _hom_component_stacks(basis, m, m)


def _fitting_split(m: Representation, phi_comps: list[np.ndarray]) -> Optional[tuple]:
    """Split m along a high power of the endomorphism phi, if proper.

    Returns (part_im, incl_im, part_ker, incl_ker) or None when the power is
    zero or invertible.
    """
    p = m.p
    power = [c.copy() for c in phi_comps]
    for _ in range(max(1, m.total_dim).bit_length() + 1):
        power = [(c @ c) % p for c in power]
    mats = [Matrix(p, c) for c in power]
    rank_total = sum(mat.rank() for mat in mats)
    if rank_total == 0 or rank_total == m.total_dim:
        return None
    phi = RepMorphism(m, m, mats, check=False)
    im, incl_im = image_sub(phi)
    ker, incl_ker = kernel_sub(phi)
    return im, incl_im, ker, incl_ker


def _try_split(m: Representation) -> Optional[tuple]:
    """Find a direct-sum splitting of m, exactly if possible.

    Order of attack: Fitting powers of endo basis elements and pairwise sums
    (deterministic), exhaustive idempotent scan while |End| <= SEARCH_BOUND,
    then fixed-seed random Fitting.  Returns the 4-tuple from _fitting_split,
    None when m is certainly indecomposable, and raises SearchBoundExceeded
    when undecided.
    """
    if m.total_dim == 0:
        return None
    basis, stacks = _endo_stacks(m)
    h = len(basis)
    p = m.p
    for f in basis:
        split = _fitting_split(m, [c.a for c in f.components])
        if split is not None:
            return split
    for f, g in itertools.combinations(basis, 2):
        split = _fitting_split(m, [(a.a + b.a) % p for a, b in zip(f.components, g.components)])
        if split is not None:
            return split
    if p ** h <= SEARCH_BOUND:
        identity = [np.eye(d, dtype=np.int64) for d in m.dim]
        for combo in itertools.product(range(p), repeat=h):
            coeffs = np.asarray(combo, dtype=np.int64)
            comps = _combo_components(coeffs, stacks, p)
            if all((c == 0).all() for c in comps):
                continue
            if all(np.array_equal(c, i) for c, i in zip(comps, identity)):
                continue
            if all(np.array_equal((c @ c) % p, c) for c in comps):
                split = _fitting_split(m, comps)
                if split is not None:
                    return split
        return None
    rng = random.Random(_FIXED_SEED)
    for _ in range(4096):
        coeffs = np.asarray([rng.randrange(p) for _ in range(h)], dtype=np.int64)
        comps = _combo_components(coeffs, stacks, p)
        split = _fitting_split(m, comps)
        if split is not None:
            return split
    raise SearchBoundExceeded(
        f"cannot certify indecomposability for dim {m.dim}: |End| = {p}^{h} exceeds the bound")


def is_indecomposable(m: Representation) -> bool:
    """True when m is nonzero with no nontrivial direct-sum splitting."""
    if m.total_dim == 0:
        return False
    return _try_split(m) is None


def _decompose(m: Representation) -> list[tuple[Representation, RepMorphism, RepMorphism]]:
    """Indecomposable pieces of m as (piece, inclusion, projection) triples."""
    if m.total_dim == 0:
        return []
    split = _try_split(m)
    if split is None:
        ident = RepMorphism.identity(m)
        return [(m, ident, ident)]
    im, incl_im, ker, incl_ker = split
    p = m.p
    # projections: invert the vertexwise change of basis [incl_im | incl_ker]
    proj_im_comps, proj_ker_comps = [], []
    for v in range(m.quiver.vertex_count):
        basis = Matrix.hstack(p, [incl_im.components[v], incl_ker.components[v]], rows=m.dim[v])
        inv = basis.inverse()
        assert inv is not None  # complementary subspaces span
        proj_im_comps.append(Matrix(p, inv.a[: im.dim[v], :]))
        proj_ker_comps.append(Matrix(p, inv.a[im.dim[v]:, :]))
    proj_im = RepMorphism(m, im, proj_im_comps, check=False)
    proj_ker = RepMorphism(m, ker, proj_ker_comps, check=False)
    out = []
    for piece, incl, proj in ((im, incl_im, proj_im), (ker, incl_ker, proj_ker)):
        for small, small_incl, small_proj in _decompose(piece):
            out.append((small, incl @ small_incl, small_proj @ proj))
    return out


def _iso_via_decomposition(m: Representation, n: Representation) -> Optional[RepMorphism]:
    left = _decompose(m)
    right = _decompose(n)
    if len(left) != len(right):
        return None
    used = [False] * len(right)
    matches: list[tuple[int, int, RepMorphism]] = []
    for i, (piece, _, _) in enumerate(left):
        found = False
        for j, (other, _, _) in enumerate(right):
            if used[j]:
                continue
            w = iso_witness(piece, other)
            if w is not None:
                used[j] = True
                matches.append((i, j, w))
                found = True
                break
        if not found:
            return None
    total = RepMorphism.zero(m, n)
    for i, j, w in matches:
        total = total + (right[j][1] @ w @ left[i][2])
    if not total.is_isomorphism():
        return None
    return total


def krull_schmidt(m: Representation) -> list[tuple[Representation, int]]:
    """Indecomposable summands with multiplicities.

    Deterministic order: sorted by (total dimension, dim vector, cheap iso
    key, matrix bytes of the chosen representative).
    """
    pieces = [piece for piece, _, _ in _decompose(m)]
    groups: list[tuple[Representation, int]] = []
    for piece in pieces:
        for k, (rep, count) in enumerate(groups):
            if is_isomorphic(piece, rep):
                groups[k] = (rep, count + 1)
                break
        else:
            groups.append((piece, 1))
    return sorted(groups, key=lambda item: _canonical_key(item[0]))


# -- enumeration --------------------------------------------------------------

_indec_cache: dict[tuple[Quiver, int, tuple[int, ...]], tuple[Representation, ...]] = {}
_reps_cache: dict[tuple[Quiver, int, tuple[int, ...]], tuple[Representation, ...]] = {}


def _all_raw_reps(quiver: Quiver, p: int, dim: tuple[int, ...]) -> Iterator[Representation]:
    shapes = [(dim[a.target], dim[a.source]) for a in quiver.arrows]
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    for flat in itertools.product(range(p), repeat=total):
        maps = []
        pos = 0
        for (r, c), size in zip(shapes, sizes):
            maps.append(Matrix(p, np.asarray(flat[pos:pos + size], dtype=np.int64), shape=(r, c)))
            pos += size
        yield Representation(quiver, p, dim, maps)


def _dim_vectors_under(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(itertools.product(*[range(b + 1) for b in bound]))


def enumerate_indecomposables(quiver: Quiver, p: int,
                              max_dim: Sequence[int]) -> list[Representation]:
    """One representative per indecomposable iso class with dim <= max_dim."""
    bound = tuple(int(b) for b in max_dim)
    key = (quiver, p, bound)
    cached = _indec_cache.get(key)
    if cached is not None:
        return list(cached)
    found: list[Representation] = []
    for dim in _dim_vectors_under(bound):
        if sum(dim) == 0:
            continue
        for rep in _all_raw_reps(quiver, p, dim):
            if not is_indecomposable(rep):
                continue
            if any(is_isomorphic(rep, seen) for seen in found if seen.dim == dim):
                continue
            found.append(rep)
    found.sort(key=_canonical_key)
    _indec_cache[key] = tuple(found)
    return list(found)


def enumerate_reps(quiver: Quiver, p: int, max_dim: Sequence[int]) -> list[Representation]:
    """One representative per iso class with dim <= max_dim componentwise.

    Built as direct sums over multisets of indecomposables; completeness and
    non-redundancy follow from the Krull-Schmidt property (every summand of a
    bounded representation is itself bounded, and distinct multisets are
    non-isomorphic).
    """
    bound = tuple(int(b) for b in max_dim)
    key = (quiver, p, bound)
    cached = _reps_cache.get(key)
    if cached is not None:
        return list(cached)
    indecs = enumerate_indecomposables(quiver, p, bound)
    results: list[Representation] = []

    def extend(idx: int, current: Representation, remaining: tuple[int, ...]):
        results.append(current)
        for k in range(idx, len(indecs)):
            piece = indecs[k]
            if all(d <= r for d, r in zip(piece.dim, remaining)):
                extend(k, direct_sum(current, piece).rep,
                       tuple(r - d for d, r in zip(piece.dim, remaining)))

    extend(0, Representation.zero(quiver, p), bound)
    results.sort(key=_canonical_key)
    _reps_cache[key] = tuple(results)
    return list(results)


def _subspaces(p: int, d: int) -> list[Matrix]:
    """All subspaces of F_p^d as column-basis matrices in echelon order."""
    out = []
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_positions = [
                (i, r) for r in range(k) for i in range(pivots[r] + 1, d)
                if i not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                basis = np.zeros((d, k), dtype=np.int64)
                for r, pc in enumerate(pivots):
                    basis[pc, r] = 1
                for (pos, col), val in zip(free_positions, values):
                    basis[pos, col] = val
                out.append(Matrix(p, basis))
    return out


def enumerate_subreps(m: Representation) -> list[tuple[Representation, RepMorphism]]:
    """All subrepresentations of m as (sub, inclusion) pairs.

    Walks the product of the vertexwise subspace lattices in echelon order
    and keeps the arrow-closed tuples; deterministic.
    """
    lattices = [_subspaces(m.p, d) for d in m.dim]
    out = []
    for choice in itertools.product(*lattices):
        try:
            out.append(_sub_from_bases(m, list(choice)))
        except ValidationError:
            continue
    return out


def euler_pairing(m: Representation, n: Representation) -> int:
    """Sum_v dimM_v dimN_v - sum_{a: i->j} dimM_i dimN_j.

    For an acyclic quiver this equals dim Hom(m,n) - dim Ext(m,n), which the
    test suite uses as an independent cross-check of both computations.
    """
    value = sum(dm * dn for dm, dn in zip(m.dim, n.dim))
    for a in m.quiver.arrows:
        value -= m.dim[a.source] * n.dim[a.target]
    return value


class ThetaFamily:
    """Ordered family of nonzero representations with one-way ext vanishing.

    Construction checks ext(members[j], members[i]) = 0 for all j >= i (both
    indices 0-based); this is the standing hypothesis for every reordering,
    grouping and staircase construction in the package.
    """

    __slots__ = ("members", "_hash")

    def __init__(self, members: Sequence[Representation]):
        members = tuple(members)
        if not members:
            raise ValidationError("theta family needs at least one member")
        quiver, p = members[0].quiver, members[0].p
        for rep in members:
            if rep.quiver != quiver or rep.p != p:
                raise ValidationError("theta members must share one quiver and field")
            if rep.is_zero():
                raise ValidationError("theta members must be nonzero")
        failures = self.ordering_failures(members)
        if failures:
            j, i, d = failures[0]
            raise ValidationError(
                f"theta ordering fails: ext(member {j + 1}, member {i + 1}) has dimension {d}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ThetaFamily is immutable")

    @staticmethod
    def ordering_failures(members: Sequence[Representation]) -> list[tuple[int, int, int]]:
        """(j, i, dim ext) for every pair j >= i with nonvanishing ext."""
        from .conflation import ext_space  # deferred: conflation imports this module
        bad = []
        for j in range(len(members)):
            for i in range(j + 1):
                d = ext_space(members[j], members[i]).dimension
                if d:
                    bad.append((j, i, d))
        return bad

    @property
    def quiver(self) -> Quiver:
        return self.members[0].quiver

    @property
    def p(self) -> int:
        return self.members[0].p

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> Representation:
        return self.members[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ThetaFamily) and self.members == other.members

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.members)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"ThetaFamily({[m.dim for m in self.members]})"
