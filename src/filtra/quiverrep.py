"""Finite-dimensional representations of a finite acyclic quiver over F_p.

A representation assigns F_p^{d_v} to each vertex v and a matrix to each
arrow a: i -> j, of shape d_j x d_i (column-vector convention).  Morphisms
are vertex-indexed families of matrices satisfying the intertwiner law

    target.arrow_maps[a] @ components[i] == components[j] @ source.arrow_maps[a]

for every arrow a: i -> j.  Everything here is exact and deterministic.
Isomorphism, splitting and enumeration are exhaustive scans: every step of
one is charged to the running search budget (errors.searching), so a scan
too large for FILTRA_BUDGET raises BudgetExceeded instead of running on.
On a Dynkin quiver, enumeration reads Gabriel's theorem and scans only up
to the first brick at each positive root.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import random
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError, cached, searching, spend
from .linalg import (_RREF_SMALL_ENTRIES, Matrix, PrimeField, _check_entries, _kernel_rows,
                     _rref_rank1, stack_ranks)

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
    "cokernel_quot",
    "is_isomorphic",
    "iso_witness",
    "is_indecomposable",
    "enumerate_reps",
    "enumerate_indecomposables",
    "enumerate_subreps",
    "iso_key",
    "euler_pairing",
]


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
        """Kahn's order: sources by index, then each vertex as its last
        incoming arrow is removed, arrows taken in declaration order."""
        indeg = [0] * self.vertex_count
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a in self.arrows:
            indeg[a.target] += 1
            out[a.source].append(a.target)
        order = []
        queue = collections.deque(v for v in range(self.vertex_count) if indeg[v] == 0)
        while queue:
            v = queue.popleft()
            order.append(v)
            for t in out[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        if len(order) != self.vertex_count:
            raise ValidationError("quiver must be acyclic")
        return tuple(order)

    def paths(self) -> list[tuple[Arrow, ...]]:
        """All nontrivial directed paths, sorted by (length, arrow name sequence)."""
        return [tuple(self.arrows[k] for k in path) for path in self._path_indices]

    @cached_property
    def _path_indices(self) -> tuple[tuple[int, ...], ...]:
        """The paths() as tuples of arrow indices, found once per quiver.

        The quiver is acyclic, so no path has more than n - 1 arrows and the
        frontier runs dry.
        """
        arrows = self.arrows
        found: list[tuple[int, ...]] = []
        frontier = [(k,) for k in range(len(arrows))]
        while frontier:
            found.extend(frontier)
            frontier = [path + (k,) for path in frontier for k, a in enumerate(arrows)
                        if a.source == arrows[path[-1]].target]
        return tuple(sorted(found, key=lambda path: (len(path),
                                                     tuple(arrows[k].name for k in path))))


@dataclass(frozen=True, slots=True)
class Representation:
    """A point of the representation variety: dims plus one matrix per arrow."""

    quiver: Quiver
    p: int
    dim: tuple[int, ...]
    maps: tuple[Matrix, ...]
    # filled on first use; invisible to equality since the value is immutable
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)
    _iso_key: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        quiver, p = self.quiver, self.p
        PrimeField(p)
        dim = _vertex_dims(quiver, self.dim)
        maps = tuple(self.maps)
        if len(maps) != len(quiver.arrows):
            raise DimensionMismatch(
                f"expected {len(quiver.arrows)} arrow matrices, got {len(maps)}")
        for a, m in zip(quiver.arrows, maps):
            if m.p != p:
                raise ValidationError(f"arrow {a.name}: matrix modulus {m.p} != {p}")
            if m.shape != (dim[a.target], dim[a.source]):
                raise DimensionMismatch(
                    f"arrow {a.name}: expected shape {(dim[a.target], dim[a.source])}, got {m.shape}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "maps", maps)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dict(quiver: Quiver, p: int, dim: Sequence[int],
                  arrow_maps: dict[str, object] | None = None) -> "Representation":
        """Build from a name-keyed dict of matrix data; missing arrows are zero."""
        arrow_maps = arrow_maps or {}
        unknown = set(arrow_maps) - {a.name for a in quiver.arrows}
        if unknown:
            raise ValidationError(f"unknown arrow names {sorted(unknown)}")
        dim = _vertex_dims(quiver, dim)
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
        _check_vertex(quiver, v)
        dim = tuple(1 if w == v else 0 for w in range(quiver.vertex_count))
        return Representation.from_dict(quiver, p, dim)

    @staticmethod
    def projective(quiver: Quiver, p: int, v: int) -> "Representation":
        """Paths-out model: basis at vertex w = directed paths from v to w."""
        _check_vertex(quiver, v)
        paths_at: list[list[tuple[str, ...]]] = [[] for _ in range(quiver.vertex_count)]
        paths_at[v].append(())
        for path in quiver.paths():
            if path[0].source == v:
                paths_at[path[-1].target].append(tuple(a.name for a in path))
        for lst in paths_at:
            lst.sort(key=lambda names: (len(names), names))
        dim = tuple(len(lst) for lst in paths_at)
        maps = []
        for a in quiver.arrows:
            m = np.zeros((dim[a.target], dim[a.source]), dtype=np.int64)
            for col, names in enumerate(paths_at[a.source]):
                extended = names + (a.name,)
                if extended in paths_at[a.target]:
                    m[paths_at[a.target].index(extended), col] = 1
            maps.append(Matrix._wrap(p, m))
        return Representation(quiver, p, dim, maps)

    @staticmethod
    def random(quiver: Quiver, p: int, max_dim: Sequence[int], rng: random.Random) -> "Representation":
        dim = tuple(rng.randrange(b + 1) for b in _vertex_dims(quiver, max_dim))
        maps = []
        for a in quiver.arrows:
            r, c = dim[a.target], dim[a.source]
            maps.append(Matrix(p, [[rng.randrange(p) for _ in range(c)] for _ in range(r)], shape=(r, c)))
        return Representation(quiver, p, dim, maps)

    # -- queries -----------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.quiver, self.p, self.dim, self.maps))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Representation(dim={self.dim}, p={self.p})"


def _vertex_dims(quiver: Quiver, dim: Sequence[int]) -> tuple[int, ...]:
    """dim as a tuple of ints, refused unless it has one nonnegative integer per vertex.

    The one check of every dimension vector and dimension bound that enters
    the library: a float or a string is refused, never truncated.
    """
    try:
        dims = tuple(map(operator.index, dim))
    except TypeError:
        raise ValidationError(f"vertex dimensions must be integers, got {dim!r}") from None
    if len(dims) != quiver.vertex_count:
        raise DimensionMismatch(
            f"expected {quiver.vertex_count} vertex dimensions, got {len(dims)}")
    if min(dims, default=0) < 0:
        raise ValidationError(f"vertex dimensions must be nonnegative, got {dims}")
    return dims


def _check_vertex(quiver: Quiver, v: int) -> None:
    if not 0 <= v < quiver.vertex_count:
        raise ValidationError(f"vertex {v} is not in 0..{quiver.vertex_count - 1}")


@dataclass(frozen=True, slots=True)
class RepMorphism:
    """Vertex-indexed family of matrices satisfying the intertwiner law."""

    source: Representation
    target: Representation
    components: tuple[Matrix, ...]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        source, target = self.source, self.target
        if source.quiver != target.quiver or source.p != target.p:
            raise ValidationError("morphism endpoints live over different quivers or fields")
        components = tuple(self.components)
        if len(components) != source.quiver.vertex_count:
            raise DimensionMismatch("one component per vertex required")
        for v, m in enumerate(components):
            if m.p != source.p:
                raise ValidationError(f"vertex {v}: matrix modulus {m.p} != {source.p}")
            if m.shape != (target.dim[v], source.dim[v]):
                raise DimensionMismatch(
                    f"vertex {v}: expected shape {(target.dim[v], source.dim[v])}, got {m.shape}")
        if check:
            for a, msrc, mtgt in zip(source.quiver.arrows, source.maps, target.maps):
                left = mtgt @ components[a.source]
                right = components[a.target] @ msrc
                if left != right:
                    raise ValidationError(f"intertwiner law fails at arrow {a.name}")
        object.__setattr__(self, "components", components)

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
        """The inverse morphism; ValidationError when self is not invertible.

        Each component is inverted once, and that elimination is also the
        invertibility check.
        """
        comps = [m.inverse() for m in self.components]
        if self.source.dim != self.target.dim or any(c is None for c in comps):
            raise ValidationError("morphism is not invertible")
        return RepMorphism(self.target, self.source, comps, check=False)

    def __repr__(self) -> str:
        return f"RepMorphism({self.source.dim} -> {self.target.dim})"


# -- hom spaces -------------------------------------------------------------

def _hom_shapes(m: Representation, n: Representation) -> list[tuple[int, int]]:
    return [(dn, dm) for dm, dn in zip(m.dim, n.dim)]


def _flatten(blocks: Sequence[Matrix]) -> np.ndarray:
    """The entries of the blocks, each flattened row-major, one block after another."""
    if not blocks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([b.a.reshape(-1) for b in blocks])


def _blocks(rows: np.ndarray, shapes: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """Inverse of _flatten: views of rows cut into blocks of the given shapes.

    rows is one vector or a stack of them, such as a Hom kernel
    (_hom_kernel) or combinations of its rows; each block is then a
    (..., r, c) stack.  The one reader of the layout of a Hom vector.
    """
    lead, out, pos = rows.shape[:-1], [], 0
    for r, c in shapes:
        out.append(rows[..., pos:pos + r * c].reshape(*lead, r, c))
        pos += r * c
    return out


def _unflatten(p: int, vec: np.ndarray, shapes: Sequence[tuple[int, int]]) -> list[Matrix]:
    """The _blocks of vec as matrices that share its memory.

    vec must hold entries in [0, p) and be read-only: the entries of a
    Matrix or a row of a cached Hom kernel (_hom_kernel).
    """
    return [Matrix._wrap(p, b) for b in _blocks(vec, shapes)]


def _kron_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """L kron R^T, so that vec(L f R) = (L kron R^T) vec(f) for the row-major vec.

    A broadcast product: numpy's generic kron costs several times more on
    the tiny blocks that most systems are made of.
    """
    rt = right.T
    return (left[:, None, :, None] * rt[None, :, None, :]).reshape(
        left.shape[0] * rt.shape[0], left.shape[1] * rt.shape[1])


def _intertwiner_system(m: Representation, n: Representation) -> Matrix:
    """The linear system of morphisms m -> n in _flatten coordinates.

    One block row per arrow a: i -> j holds n_a f_i - f_j m_a, so the
    kernel is Hom(m, n) and, for m = C and n = A, the cokernel is Ext(C, A)
    (Ringel's standard exact sequence).

    The unknowns of f_0 come first.  In the rows of the arrows out of
    vertex 0 they meet n_a kron I, and stacked over those arrows that is
    X kron I_{m_0} with X the stack of their n_a.  _hom_rref reduces those
    rows in one step from that structure; the reduced echelon form of the
    system is unique, so its result, and every Hom basis built from it, is
    the plain elimination's.
    """
    offsets = list(itertools.accumulate((r * c for r, c in _hom_shapes(m, n)), initial=0))
    heights = [n.dim[a.target] * m.dim[a.source] for a in m.quiver.arrows]
    _check_entries("intertwiner system", sum(heights), offsets[-1])
    system = np.zeros((sum(heights), offsets[-1]), dtype=np.int64)
    start = 0
    for a, ma, na, height in zip(m.quiver.arrows, m.maps, n.maps, heights):
        i, j, rows = a.source, a.target, slice(start, start + height)
        # empty blocks are skipped: they have nothing to write
        if height and offsets[i + 1] > offsets[i]:
            system[rows, offsets[i]:offsets[i + 1]] += _kron_block(na.a, np.eye(m.dim[i], dtype=np.int64))
        if height and offsets[j + 1] > offsets[j]:
            system[rows, offsets[j]:offsets[j + 1]] -= _kron_block(np.eye(n.dim[j], dtype=np.int64), ma.a)
        start += height
    return Matrix._wrap(m.p, system % m.p)


def _check_same_category(m: Representation, n: Representation) -> None:
    if m.quiver != n.quiver or m.p != n.p:
        raise ValidationError("hom requires representations over the same quiver and field")


def hom_space(m: Representation, n: Representation) -> list[RepMorphism]:
    """Deterministic basis of the space of morphisms m -> n.

    Hom(m, n) is the kernel of the intertwiner system (_intertwiner_system),
    the same system whose cokernel is Ext(m, n).  Basis element k is row k
    of the cached kernel array (_hom_kernel): its components are read-only
    views of that row, so the morphisms, built afresh on each call, hold no
    copy of the entries.
    """
    _check_same_category(m, n)
    shapes = _hom_shapes(m, n)
    return [RepMorphism(m, n, _unflatten(m.p, row, shapes), check=False)
            for row in _hom_kernel(m, n)]


def _hom_rref(m: Representation, n: Representation) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivots of _intertwiner_system(m, n).

    The rows of the arrows out of vertex 0 meet the unknowns of f_0 as
    X kron I_{m_0} (see _intertwiner_system).  One small elimination of
    [X | I] gives E with E X = rref(X), and E kron I, one product, turns
    those rows into rho m_0 finished pivot rows rref(X) kron I and rows
    that are zero on f_0.  One more product clears the finished pivot
    columns from the rows of arrows into vertex 0, _rref_rank1 finishes
    below the finished rows, and a sort by pivot column ends it.  Systems
    of at most _RREF_SMALL_ENTRIES entries, and those without an arrow out
    of vertex 0, take the plain elimination.
    """
    # both eliminations go through Matrix.rref, so each Hom computed afresh
    # shows in perfbench's traced rref calls
    whole = _intertwiner_system(m, n)
    p, system, (rows, cols) = m.p, whole.a, whole.shape
    arrows = m.quiver.arrows
    lead = [a.source == 0 for a in arrows]
    m0, n0 = (m.dim[0], n.dim[0]) if any(lead) else (0, 0)
    width = n0 * m0
    if rows * cols <= _RREF_SMALL_ENTRIES or not width:
        reduced, pivots = whole.rref()
        return reduced.a, pivots
    # one block row per arrow, in arrow order
    top = np.repeat(lead, [n.dim[a.target] * m.dim[a.source] for a in arrows])
    x = np.concatenate([na.a for na, out in zip(n.maps, lead) if out])
    s = len(x)
    # [rref(X) | E]; E's rows past rank X annihilate X
    echelon, x_pivots = Matrix._wrap(p, np.concatenate((x, np.eye(s, dtype=np.int64)), 1)).rref()
    rx, e = echelon.a[:, :n0], echelon.a[:, n0:]
    rho = sum(c < n0 for c in x_pivots)
    done = rho * m0
    a = np.empty((rows, cols), dtype=np.int64)
    # the rows (k, l) of the arrows out of 0 times E kron I: rref(X) kron I on f_0
    a[:s * m0, :width] = np.kron(rx, np.eye(m0, dtype=np.int64))
    right = system[top, width:].reshape(s, m0 * (cols - width))
    a[:s * m0, width:] = (e @ right).reshape(s * m0, cols - width) % p
    a[s * m0:] = system[~top]
    pivots = [c * m0 + l for c in x_pivots[:rho] for l in range(m0)]
    # rows of arrows into 0 still meet the finished pivot columns
    rest = a[done:]
    factors = rest[:, pivots]
    hit = np.flatnonzero(factors.any(axis=1))
    if hit.size:
        rest[hit] = (rest[hit] - factors[hit] @ a[:done]) % p
    nonzero = np.flatnonzero(rest.any(axis=0))
    if nonzero.size:
        pivots += _rref_rank1(a, p, done, int(nonzero[0]))
    a[:len(pivots)] = a[np.argsort(pivots)]
    return a, tuple(sorted(pivots))


@cached
def _hom_kernel(m: Representation, n: Representation) -> np.ndarray:
    """Hom(m, n) as a read-only (dim Hom x unknowns) int64 array.

    Row k is the k-th vector of the deterministic kernel basis of the
    intertwiner system, in _flatten coordinates.  This is the one cached
    elimination of Hom: hom_space unpacks it, _scan combines its rows.
    The echelon form comes from _hom_rref, which takes the rows of the
    arrows out of vertex 0 in one step but gives the same unique reduced
    echelon form as a plain elimination, so the basis is the same too.
    """
    _check_same_category(m, n)
    kernel, _ = _kernel_rows(*_hom_rref(m, n), m.p)
    kernel.setflags(write=False)
    return kernel


def _hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n) without a basis where none is cached.

    The length of a cached _hom_kernel, else the number of unknowns of the
    intertwiner system minus its rank, which reads only the pivots of one
    elimination and keeps no array.  The count itself is not cached: few
    calls ask twice for one pair.
    """
    kernel = _hom_kernel.store.get((m, n))
    if kernel is not None:
        return len(kernel)
    _check_same_category(m, n)
    reduced, pivots = _hom_rref(m, n)
    return reduced.shape[1] - len(pivots)


# chunk sizes of _scan, growing 4x: most scans hit early, and past 256 the
# work wasted beyond a hit outweighs the per-chunk overhead
_SCAN_FIRST_CHUNK = 32
_SCAN_MAX_CHUNK = 256


def _scan(kernel: np.ndarray, m: Representation, n: Representation, test,
          leading_one: bool = False) -> Iterator[list[np.ndarray]]:
    """Components of the elements of Hom(m, n) that pass test, in scan order.

    kernel is _hom_kernel(m, n), whose h rows are the basis of Hom(m, n) in
    _flatten coordinates.  The elements are the combinations of those rows
    for the coefficient vectors in itertools.product(range(p), repeat=h)
    order, or with leading_one only those whose leading nonzero entry is 1.
    A chunk of vectors is the base-p digits of an arange (only the low
    digits it reaches, so p ** h may pass int64), its combinations are one
    matrix product with kernel, and test maps their per-vertex (N, r, c)
    stacks (_blocks) to a hit mask.  A hit is yielded as fresh arrays, which
    callers wrap without a copy (Matrix._wrap).

    Each vector costs one budget node, charged as a loop over the vectors
    would: up to and including a hit before it is yielded, so a chunk that
    passes the limit raises BudgetExceeded at the loop's count.
    """
    p, h = m.p, len(kernel)
    shapes = _hom_shapes(m, n)
    total = p ** h
    start, size = 0, _SCAN_FIRST_CHUNK
    while start < total:
        stop = min(total, start + size)
        index = np.arange(start, stop, dtype=np.int64)
        coeffs = np.zeros((index.size, h), dtype=np.int64)
        for k in range(h - 1, -1, -1):
            if not index.any():
                break
            index, coeffs[:, k] = np.divmod(index, p)
        if leading_one:
            first_nonzero = np.cumsum(coeffs != 0, axis=1) == 1
            coeffs = coeffs[((coeffs == 1) & first_nonzero).any(axis=1)]
        comps = _blocks(coeffs @ kernel % p, shapes)
        charged = 0
        for j in np.flatnonzero(test(comps)).tolist():
            spend(j + 1 - charged)
            charged = j + 1
            yield [c[j].copy() for c in comps]
        if len(coeffs) > charged:
            spend(len(coeffs) - charged)
        start, size = stop, min(4 * size, _SCAN_MAX_CHUNK)


def _rank_mask(comps: list[np.ndarray], ranks: Sequence[int], p: int) -> np.ndarray:
    """Which combinations have the given rank at every vertex."""
    ok = np.ones(len(comps[0]), dtype=bool)
    for c, rank in zip(comps, ranks):
        keep = np.flatnonzero(ok)
        ok[keep] = stack_ranks(c[keep], p) == rank
    return ok


def _nontrivial_idempotent_mask(comps: list[np.ndarray], p: int) -> np.ndarray:
    """Which combinations satisfy e @ e == e and are neither 0 nor 1."""
    idem, zero, one = (np.ones(len(comps[0]), dtype=bool) for _ in range(3))
    for c in comps:
        idem &= (np.matmul(c, c) % p == c).all(axis=(1, 2))
        zero &= ~c.any(axis=(1, 2))
        one &= (c == np.eye(c.shape[1], dtype=np.int64)).all(axis=(1, 2))
    return idem & ~zero & ~one


# -- direct sums ------------------------------------------------------------

@dataclass(frozen=True)
class DirectSum:
    rep: Representation
    inject_left: RepMorphism
    inject_right: RepMorphism
    project_left: RepMorphism
    project_right: RepMorphism


def _block_rep(A: Representation, C: Representation,
               cocycles: Optional[Sequence[Matrix]] = None) -> Representation:
    """The block representation B_v = A_v (+) C_v with arrow maps
    [[A_a, g_a], [0, C_a]].

    g_a is cocycles[a], or 0 when no cocycles are given, so that B is the
    direct sum.  Every block layout in filtra comes from here: enumerate_reps
    and, through _block_extension, direct_sum, Conflation.split and
    conflation.realize.
    """
    if A.quiver != C.quiver or A.p != C.p:
        raise ValidationError("direct sum requires the same quiver and field")
    p = A.p
    maps = []
    for k, (ma, mc) in enumerate(zip(A.maps, C.maps)):
        block = np.zeros((ma.rows + mc.rows, ma.cols + mc.cols), dtype=np.int64)
        block[:ma.rows, :ma.cols] = ma.a
        block[ma.rows:, ma.cols:] = mc.a
        if cocycles is not None:
            block[:ma.rows, ma.cols:] = cocycles[k].a
        maps.append(Matrix._wrap(p, block))
    return Representation(A.quiver, p, tuple(da + dc for da, dc in zip(A.dim, C.dim)), maps)


def _block_extension(A: Representation, C: Representation,
                     cocycles: Optional[Sequence[Matrix]] = None
                     ) -> tuple[Representation, RepMorphism, RepMorphism]:
    """_block_rep(A, C, cocycles) as B, its inclusion x = [1; 0]: A -> B and
    its projection y = [0 1]: B -> C."""
    B = _block_rep(A, C, cocycles)
    p = A.p
    x = RepMorphism(A, B, [Matrix._wrap(p, np.eye(da + dc, da, dtype=np.int64))
                           for da, dc in zip(A.dim, C.dim)], check=False)
    y = RepMorphism(B, C, [Matrix._wrap(p, np.eye(dc, da + dc, da, dtype=np.int64))
                           for da, dc in zip(A.dim, C.dim)], check=False)
    return B, x, y


def direct_sum(m: Representation, n: Representation) -> DirectSum:
    """Block-diagonal sum with the four canonical maps (left block first)."""
    total, inject_left, project_right = _block_extension(m, n)
    p = m.p
    inject_right = RepMorphism(n, total, [Matrix._wrap(p, np.eye(dm + dn, dn, -dm, dtype=np.int64))
                                          for dm, dn in zip(m.dim, n.dim)], check=False)
    project_left = RepMorphism(total, m, [Matrix._wrap(p, np.eye(dm, dm + dn, dtype=np.int64))
                                          for dm, dn in zip(m.dim, n.dim)], check=False)
    return DirectSum(total, inject_left, inject_right, project_left, project_right)


@cached
def direct_power(m: Representation, k: int) -> Representation:
    """m^k with one block-diagonal map per arrow, equal to the left-to-right
    fold of direct sums, so powers nest literally.

    Built once per (m, k) and shared by every later call until
    clear_caches(), which is safe because values are frozen.  Every call
    that returns adds its (m, k) to the store for the life of the process,
    whatever m is; the store stays small only because the library itself
    (the approximations and the GroupedFiltration check) passes family
    members alone.
    """
    if k < 0:
        raise ValidationError("power must be nonnegative")
    eye = np.eye(k, dtype=np.int64)
    return Representation(m.quiver, m.p, tuple(k * d for d in m.dim),
                          [Matrix._wrap(m.p, np.kron(eye, ma.a)) for ma in m.maps])


# -- subobjects and quotients ------------------------------------------------

def kernel_sub(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Kernel subrepresentation with its inclusion into f.source.

    The inclusion at vertex v is the kernel basis K_v of f_v
    (Matrix.kernel_basis), whose rows at the free columns of the echelon
    form of f_v are the identity.  So the arrow map of the kernel, the
    unique S with K_t @ S = big @ K_s, is read off as (big @ K_s)[free_t],
    with no elimination.
    """
    sub, incl, _ = _kernel_sub(f)
    return sub, incl


def _kernel_sub(f: RepMorphism) -> tuple[Representation, RepMorphism, list[np.ndarray]]:
    """kernel_sub(f) and the free coordinates of each inclusion component."""
    quiver, p = f.source.quiver, f.source.p
    bases, free = [], []
    for m in f.components:
        basis, columns = m._kernel()
        bases.append(basis)
        free.append(columns)
    maps = [Matrix._wrap(p, (big @ bases[a.source]).a[free[a.target]])
            for a, big in zip(quiver.arrows, f.source.maps)]
    sub = Representation(quiver, p, tuple(b.cols for b in bases), maps)
    return sub, RepMorphism(sub, f.source, bases, check=False), free


def cokernel_quot(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Cokernel representation of f with the projection from f.target.

    The projection q_v is the transposed kernel basis of f_vᵀ
    (Matrix.cokernel_projection), so its columns at the free columns of
    the echelon form of f_vᵀ are the identity, and the selector of those
    coordinates is a section of q_v.  The arrow map q_t @ big @ s does not
    depend on the section s, since q_t @ big kills the image of f_s; with
    the selector it is the free columns of q_t @ big, with no elimination.
    """
    quot, proj, _ = _cokernel_quot(f)
    return quot, proj


def _cokernel_quot(f: RepMorphism) -> tuple[Representation, RepMorphism, list[np.ndarray]]:
    """cokernel_quot(f) and the free coordinates of each projection component."""
    quiver, p = f.target.quiver, f.target.p
    projections, free = [], []
    for m in f.components:
        basis, columns = m.transpose()._kernel()
        projections.append(basis.transpose())
        free.append(columns)
    maps = [Matrix._wrap(p, (projections[a.target] @ big).a[:, free[a.source]])
            for a, big in zip(quiver.arrows, f.target.maps)]
    quot = Representation(quiver, p, tuple(q.rows for q in projections), maps)
    return quot, RepMorphism(f.target, quot, projections, check=False), free


# -- isomorphism and indecomposability ----------------------------------------

def iso_key(m: Representation):
    """Cheap iso-invariant: dims, arrow ranks and path-composite ranks.

    Kept on m after the first call, which is invisible since m is immutable.
    """
    key = m._iso_key
    if key is None:
        ranks = tuple(mm.rank() for mm in m.maps)
        path_ranks = []
        for path in m.quiver._path_indices:
            if len(path) == 1:  # an arrow, ranked once above
                path_ranks.append(ranks[path[0]])
                continue
            acc = m.maps[path[0]]
            for k in path[1:]:
                acc = m.maps[k] @ acc
            path_ranks.append(acc.rank())
        key = (m.dim, ranks, tuple(path_ranks))
        object.__setattr__(m, "_iso_key", key)
    return key


def _canonical_key(m: Representation):
    """Sort key of the deterministic orders: (total dim, dim, iso_key, map bytes)."""
    return (m.total_dim, m.dim, iso_key(m), tuple(mm.a.tobytes() for mm in m.maps))


def _invariants_match(m: Representation, n: Representation) -> bool:
    """Necessary conditions for m = n up to isomorphism: equal dims and
    iso_key, dim End(m) = dim End(n) and dim Hom(n, m) = dim Hom(m, n).

    Only Hom(m, n) gets a kernel, the one that iso_witness then scans; the
    other three are counted by rank (_hom_dim).
    """
    if m.dim != n.dim or iso_key(m) != iso_key(n):
        return False
    return _hom_dim(m, m) == _hom_dim(n, n) and _hom_dim(n, m) == len(_hom_kernel(m, n))


def iso_witness(m: Representation, n: Representation) -> Optional[RepMorphism]:
    """An invertible morphism m -> n, or None when m and n are not isomorphic.

    Past the cheap invariants (_invariants_match), an exhaustive scan
    (_scan) of the cached kernel array of Hom(m, n) for a vertexwise
    invertible element; no morphism is built but the witness.  The witness
    is the first one in itertools.product order of the coefficient vectors,
    and every vector up to it costs one budget node; a miss costs
    p ** dim Hom(m, n) nodes.
    """
    if m.quiver != n.quiver or m.p != n.p:
        return None
    if m == n:
        return RepMorphism.identity(m)
    if not _invariants_match(m, n):
        return None
    with searching():
        comps = next(_scan(_hom_kernel(m, n), m, n, lambda cs: _rank_mask(cs, n.dim, m.p)), None)
    if comps is None:
        return None
    return RepMorphism(m, n, [Matrix._wrap(m.p, c) for c in comps], check=False)


def is_isomorphic(m: Representation, n: Representation) -> bool:
    return iso_witness(m, n) is not None


def _fitting_splits(m: Representation, phi_comps: list[np.ndarray]) -> bool:
    """Whether a high power of the endomorphism phi is neither zero nor
    invertible, so that its image and kernel split m (Fitting)."""
    p, power = m.p, phi_comps
    # at least two squarings, so the power is made of fresh arrays
    for _ in range(max(1, m.total_dim).bit_length() + 1):
        power = [(c @ c) % p for c in power]
    return 0 < sum(Matrix._wrap(p, c).rank() for c in power) < m.total_dim


def _splits(m: Representation) -> bool:
    """Whether m has a nontrivial direct-sum splitting.

    Fitting powers (_fitting_splits) of the End basis elements and of their
    pairwise sums first, then an exhaustive scan of End(m) (_scan) for a
    nontrivial idempotent, up to the first one in itertools.product order of
    the coefficient vectors.  Every Fitting attempt and every scanned vector
    up to that idempotent costs one budget node.  Call it inside searching().
    """
    if m.total_dim == 0:
        return False
    p = m.p
    kernel, shapes = _hom_kernel(m, m), _hom_shapes(m, m)
    for f in kernel:
        spend()
        if _fitting_splits(m, _blocks(f, shapes)):
            return True
    for f, g in itertools.combinations(kernel, 2):
        spend()
        if _fitting_splits(m, _blocks((f + g) % p, shapes)):
            return True
    idempotents = _scan(kernel, m, m, lambda cs: _nontrivial_idempotent_mask(cs, p))
    return next(idempotents, None) is not None


def is_indecomposable(m: Representation) -> bool:
    """True when m is nonzero with no nontrivial direct-sum splitting."""
    if m.total_dim == 0:
        return False
    with searching():
        return not _splits(m)


# -- enumeration --------------------------------------------------------------

def _all_raw_reps(quiver: Quiver, p: int, dim: tuple[int, ...]) -> Iterator[Representation]:
    shapes = [(dim[a.target], dim[a.source]) for a in quiver.arrows]
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    for flat in itertools.product(range(p), repeat=total):
        spend()
        maps = []
        pos = 0
        for (r, c), size in zip(shapes, sizes):
            entries = np.asarray(flat[pos:pos + size], dtype=np.int64)
            maps.append(Matrix._wrap(p, entries.reshape(r, c)))
            pos += size
        yield Representation(quiver, p, dim, maps)


def _dim_vectors_under(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    spend(math.prod(b + 1 for b in bound))
    return sorted(itertools.product(*[range(b + 1) for b in bound]))


def _is_dynkin(quiver: Quiver) -> bool:
    """Whether the Tits form of the quiver is positive definite, that is,
    every component of its underlying graph is of type A, D or E.

    Sylvester's criterion on the symmetric matrix 2I - A - A^T of the form:
    its leading principal minors are the pivots of Bareiss's fraction-free
    elimination, whose divisions are all exact, so the test stays in
    integers.  The quiver with no vertex passes.
    """
    n = quiver.vertex_count
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for a in quiver.arrows:
        c[a.source][a.target] -= 1
        c[a.target][a.source] -= 1
    previous = 1
    for k in range(n):
        if c[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                c[i][j] = (c[k][k] * c[i][j] - c[i][k] * c[k][j]) // previous
        previous = c[k][k]
    return True


def _euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: i -> j} d_i e_j; <d, d> is the Tits form q(d)."""
    return sum(x * y for x, y in zip(d, e)) - sum(d[a.source] * e[a.target] for a in quiver.arrows)


def enumerate_indecomposables(quiver: Quiver, p: int,
                              max_dim: Sequence[int]) -> list[Representation]:
    """One representative per indecomposable iso class with dim <= max_dim.

    At each dim vector in turn, the walk takes the raw representations in
    _all_raw_reps order and keeps each indecomposable one not isomorphic to
    one kept before.  Nothing is kept across calls, so each call walks, and
    charges, the same.

    A brick (dim End = 1) is indecomposable without the split search.  On
    a Dynkin quiver (_is_dynkin) Gabriel's theorem says more: there is one
    indecomposable per positive root, the d with Tits form q(d) = 1, and it
    is a brick (Ringel, LNM 1099).  So the walk skips every other d and
    stops at the first brick of each root, the representation that the full
    walk keeps there; the result, and every byte printed from it, is the
    full walk's, for fewer budget nodes.
    """
    dynkin = _is_dynkin(quiver)
    found: list[Representation] = []
    with searching():
        for dim in _dim_vectors_under(_vertex_dims(quiver, max_dim)):
            if sum(dim) == 0 or (dynkin and _euler_form(quiver, dim, dim) != 1):
                continue
            for rep in _all_raw_reps(quiver, p, dim):
                # the split search reads this End kernel from the cache
                brick = len(_hom_kernel(rep, rep)) == 1
                if dynkin:
                    if brick:
                        found.append(rep)
                        break
                elif ((brick or not _splits(rep))
                      and not any(is_isomorphic(rep, seen) for seen in found if seen.dim == dim)):
                    found.append(rep)
    found.sort(key=_canonical_key)
    return found


def enumerate_reps(quiver: Quiver, p: int, max_dim: Sequence[int]) -> list[Representation]:
    """One representative per iso class with dim <= max_dim componentwise.

    Built as direct sums over multisets of indecomposables; completeness and
    non-redundancy follow from the Krull-Schmidt property (every summand of a
    bounded representation is itself bounded, and distinct multisets are
    non-isomorphic).  Each multiset is summed in the order of the
    indecomposables, so its block layout does not depend on the walk, and
    each class costs one budget node.
    """
    bound = _vertex_dims(quiver, max_dim)
    results: list[Representation] = []
    with searching():
        indecs = enumerate_indecomposables(quiver, p, bound)
        # (first index still allowed, sum so far, room left under the bound)
        stack = [(0, Representation.zero(quiver, p), bound)]
        while stack:
            spend()
            first, current, room = stack.pop()
            results.append(current)
            for k in range(first, len(indecs)):
                piece = indecs[k]
                if all(d <= r for d, r in zip(piece.dim, room)):
                    stack.append((k, _block_rep(current, piece),
                                  tuple(r - d for d, r in zip(piece.dim, room))))
    results.sort(key=_canonical_key)
    return results


def _subspaces(p: int, d: int) -> list[Matrix]:
    """All subspaces of F_p^d as column-basis matrices in echelon order.

    Each subspace costs one budget node.
    """
    out = []
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free_positions = [
                (i, r) for r in range(k) for i in range(pivots[r] + 1, d)
                if i not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                spend()
                basis = np.zeros((d, k), dtype=np.int64)
                for r, pc in enumerate(pivots):
                    basis[pc, r] = 1
                for (pos, col), val in zip(free_positions, values):
                    basis[pos, col] = val
                out.append(Matrix._wrap(p, basis))
    return out


def enumerate_subreps(m: Representation) -> list[tuple[Representation, RepMorphism]]:
    """All subrepresentations of m as (sub, inclusion) pairs.

    Walks the product of the vertexwise subspace lattices in echelon order
    and keeps the arrow-closed tuples; deterministic.  Each subspace listed
    and each tuple tried costs one budget node.
    """
    out = []
    with searching():
        lattices = [_subspaces(m.p, d) for d in m.dim]
        for choice in itertools.product(*lattices):
            spend()
            maps = []
            for a, big in zip(m.quiver.arrows, m.maps):
                small = choice[a.target].solve(big @ choice[a.source])
                if small is None:  # not closed under a
                    break
                maps.append(small)
            else:
                sub = Representation(m.quiver, m.p, tuple(b.cols for b in choice), maps)
                out.append((sub, RepMorphism(sub, m, list(choice), check=False)))
    return out


def euler_pairing(m: Representation, n: Representation) -> int:
    """Sum_v dimM_v dimN_v - sum_{a: i->j} dimM_i dimN_j.

    For an acyclic quiver this equals dim Hom(m,n) - dim Ext(m,n): it is
    the column count minus the row count of the intertwiner system, whose
    kernel is Hom and whose cokernel is Ext (rank-nullity).  _ext_dim uses
    it to read dim Ext off dim Hom; the test suite and the selftest check
    it against an independent elimination of the cokernel.
    """
    return _euler_form(m.quiver, m.dim, n.dim)


def _ext_dim(m: Representation, n: Representation) -> int:
    """dim Ext(m, n) = dim Hom(m, n) - euler_pairing(m, n).

    The one definition of dim Ext, behind ExtSpace.dimension and
    ThetaFamily.ordering_failures: Hom is the kernel and Ext the cokernel of
    one intertwiner system (Ringel's standard exact sequence), so rank-nullity
    counts Ext from the pivots of the Hom elimination (_hom_dim) and builds
    no cokernel.
    """
    return _hom_dim(m, n) - euler_pairing(m, n)


@dataclass(frozen=True, slots=True)
class ThetaFamily:
    """Ordered family of nonzero representations with one-way ext vanishing.

    Construction runs check_members, which the check-theta command runs
    too, and checks ext(members[j], members[i]) = 0 for all j >= i (both
    indices 0-based); this is the standing hypothesis for every reordering,
    grouping and staircase construction in the package.
    """

    members: tuple[Representation, ...]

    def __post_init__(self):
        members = tuple(self.members)
        self.check_members(members)
        failures = self.ordering_failures(members)
        if failures:
            j, i, d = failures[0]
            raise ValidationError(
                f"theta ordering fails: ext(member {j + 1}, member {i + 1}) has dimension {d}")
        object.__setattr__(self, "members", members)

    @staticmethod
    def check_members(members: Sequence[Representation]) -> None:
        """Raise ValidationError unless the members are at least one nonzero
        representation, all over one quiver and field."""
        if not members:
            raise ValidationError("theta family needs at least one member")
        quiver, p = members[0].quiver, members[0].p
        for rep in members:
            if rep.quiver != quiver or rep.p != p:
                raise ValidationError("theta members must share one quiver and field")
            if rep.is_zero():
                raise ValidationError("theta members must be nonzero")

    @staticmethod
    def ordering_failures(members: Sequence[Representation]) -> list[tuple[int, int, int]]:
        """(j, i, dim ext) for every pair j >= i with nonvanishing ext (_ext_dim)."""
        dims = ((j, i, _ext_dim(members[j], members[i]))
                for j in range(len(members)) for i in range(j + 1))
        return [(j, i, d) for j, i, d in dims if d]

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

    def __repr__(self) -> str:
        return f"ThetaFamily({[m.dim for m in self.members]})"
