"""Answer checks computed apart from filtra.

Each check takes plain arrays read off an answer and returns a list of
problems (empty when the answer is right).  Hom dimensions come from the
benchmark's own intertwiner system and elimination (modp), Ext dimensions
from the Euler form, enumeration counts from the roots of the Tits form.
No check compares against stored output.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

import modp
from inputs import QSpec, Raw, euler, random_rep


def raw_of(rep) -> Raw:
    """The arrays of a filtra Representation."""
    return Raw(tuple(rep.dim), tuple(np.asarray(m.a, dtype=np.int64) for m in rep.maps))


def raw_from_doc(doc: dict, q: QSpec) -> Raw:
    """A representation as printed by the command line (missing arrows are zero)."""
    dim = tuple(doc["dim"])
    maps = tuple(np.array(doc["maps"].get(name) or [], dtype=np.int64).reshape(dim[t], dim[s])
                 for name, s, t in q.arrows)
    return Raw(dim, maps)


def same_rep(a: Raw, b: Raw) -> bool:
    return a.dim == b.dim and all(np.array_equal(x, y) for x, y in zip(a.maps, b.maps))


# -- Hom and Ext -----------------------------------------------------------------

def intertwiner_system(q: QSpec, m: Raw, n: Raw) -> np.ndarray:
    """Rows: the entries (i, j) of N_a f_s - f_t M_a for every arrow a: s -> t.

    Unknowns: the entries of f_v (n_v x m_v), vertex by vertex, row-major.
    The coefficient of f_s[l, k] in row (i, j) is N_a[i, l] [j = k]; that of
    f_t[h, l] is -[i = h] M_a[l, j].
    """
    offset = np.cumsum([0] + [n.dim[v] * m.dim[v] for v in range(q.n)])
    blocks = []
    for k, (_, s, t) in enumerate(q.arrows):
        rows = n.dim[t] * m.dim[s]
        block = np.zeros((rows, offset[-1]), dtype=np.int64)
        block[:, offset[s]:offset[s + 1]] += np.einsum(
            "il,jk->ijlk", n.maps[k], np.eye(m.dim[s], dtype=np.int64)).reshape(rows, n.dim[s] * m.dim[s])
        block[:, offset[t]:offset[t + 1]] -= np.einsum(
            "ih,lj->ijhl", np.eye(n.dim[t], dtype=np.int64), m.maps[k]).reshape(rows, n.dim[t] * m.dim[t])
        blocks.append(block)
    return np.vstack(blocks) if blocks else np.zeros((0, offset[-1]), dtype=np.int64)


def hom_dim(q: QSpec, p: int, m: Raw, n: Raw) -> int:
    system = intertwiner_system(q, m, n)
    return system.shape[1] - modp.rank(system, p)


def ext_dim(q: QSpec, p: int, m: Raw, n: Raw) -> int:
    """dim Ext(m, n) = dim Hom(m, n) - <dim m, dim n> for an acyclic quiver."""
    return hom_dim(q, p, m, n) - euler(q, m.dim, n.dim)


def check_hom_ext(q: QSpec, p: int, m: Raw, n: Raw, basis, ext_dimension: int) -> list[str]:
    """basis: one list of vertex component arrays per basis morphism m -> n."""
    problems = []
    expected = hom_dim(q, p, m, n)
    if len(basis) != expected:
        problems.append(f"hom dimension {len(basis)}, own elimination gives {expected}")
    for b, comps in enumerate(basis):
        for k, (name, s, t) in enumerate(q.arrows):
            if not np.array_equal(modp.mul(n.maps[k], comps[s], p), modp.mul(comps[t], m.maps[k], p)):
                problems.append(f"basis morphism {b} breaks the intertwiner law at {name}")
    if basis:
        flat = np.array([np.concatenate([c.reshape(-1) for c in comps]) for comps in basis])
        if modp.rank(flat, p) != len(basis):
            problems.append("hom basis is linearly dependent")
    if len(basis) - ext_dimension != euler(q, m.dim, n.dim):
        problems.append(f"dim Hom - dim Ext = {len(basis) - ext_dimension}, "
                        f"Euler form gives {euler(q, m.dim, n.dim)}")
    return problems


# -- filtrations -------------------------------------------------------------------

def check_filtration(module: Raw, top: Raw, labels, member_dims) -> list[str]:
    problems = []
    if not same_rep(top, module):
        problems.append("filtration top differs from the module")
    counts = Counter(labels)
    total = tuple(sum(counts[i] * d[v] for i, d in enumerate(member_dims))
                  for v in range(len(module.dim)))
    if total != module.dim:
        problems.append(f"label multiplicities give dim {total}, module has {module.dim}")
    return problems


def check_reordered(before_top: Raw, before_labels, after_top: Raw, after_labels,
                    strict: bool) -> list[str]:
    """reorder (strict=False) or group (strict=True, labels repeated by multiplicity)."""
    problems = []
    if not same_rep(before_top, after_top):
        problems.append("top object changed")
    if Counter(before_labels) != Counter(after_labels):
        problems.append("label multiset changed")
    runs = [k for k, _ in itertools.groupby(after_labels)] if strict else list(after_labels)
    if strict and len(runs) != len(set(runs)):
        problems.append("a label appears in two grouped steps")
    if any(a < b if not strict else a <= b for a, b in zip(runs, runs[1:])):
        problems.append("labels are not " + ("strictly decreasing" if strict else "non-increasing"))
    return problems


# -- approximation triangles --------------------------------------------------------

def check_triangle(q: QSpec, p: int, A: Raw, B: Raw, C: Raw, x, y) -> list[str]:
    """A -> B -> C exact at every vertex, x and y morphisms."""
    problems = []
    for v in range(q.n):
        if B.dim[v] != A.dim[v] + C.dim[v]:
            problems.append(f"dimensions do not add up at vertex {v + 1}")
        if modp.rank(x[v], p) != A.dim[v]:
            problems.append(f"inflation is not injective at vertex {v + 1}")
        if modp.rank(y[v], p) != C.dim[v]:
            problems.append(f"deflation is not surjective at vertex {v + 1}")
        if modp.mul(y[v], x[v], p).any():
            problems.append(f"deflation after inflation is nonzero at vertex {v + 1}")
    for k, (name, s, t) in enumerate(q.arrows):
        if not np.array_equal(modp.mul(B.maps[k], x[s], p), modp.mul(x[t], A.maps[k], p)):
            problems.append(f"inflation breaks the intertwiner law at {name}")
        if not np.array_equal(modp.mul(C.maps[k], y[s], p), modp.mul(y[t], B.maps[k], p)):
            problems.append(f"deflation breaks the intertwiner law at {name}")
    return problems


def check_approximation(q: QSpec, p: int, side: str, module: Raw, members,
                        A: Raw, B: Raw, C: Raw, x, y) -> list[str]:
    """An envelope X -> B -> C or a cover A -> B -> X of module X.

    The triangle must be exact, contain the module at its end, and its
    middle must be Theta-injective (envelope: Ext(member, B) = 0) or
    Theta-projective (cover: Ext(B, member) = 0).
    """
    problems = check_triangle(q, p, A, B, C, x, y)
    if not same_rep(A if side == "envelope" else C, module):
        problems.append("the triangle does not contain the input module")
    for i, t in enumerate(members):
        d = ext_dim(q, p, t, B) if side == "envelope" else ext_dim(q, p, B, t)
        if d:
            problems.append(f"{side} middle has nonzero Ext against member {i + 1}")
    return problems


# -- command line answers --------------------------------------------------------------

def positive_roots(q: QSpec, bound) -> list[tuple[int, ...]]:
    """Dimension vectors d <= bound with Tits form <d, d> = 1 (Gabriel)."""
    return [d for d in itertools.product(*[range(b + 1) for b in bound])
            if any(d) and euler(q, d, d) == 1]


def indecomposable_classes(q: QSpec, p: int, bound) -> list[tuple[int, ...]]:
    """One dimension vector per indecomposable class up to bound.

    Dynkin quivers (A3, D4): one class per positive root.  Kronecker, bounds
    up to (2, 2): one class per real root, p + 1 classes at (1, 1), and
    p + 1 + (p^2 - p)/2 classes at (2, 2) (points of the projective line of
    degree 1 and 2).
    """
    classes = list(positive_roots(q, bound))
    if q.arrows == (("a", 0, 1), ("b", 0, 1)):
        if max(bound) > 2:
            raise ValueError("Kronecker counts are known here up to (2, 2) only")
        for n, count in ((1, p + 1), (2, p + 1 + (p * p - p) // 2)):
            if bound[0] >= n and bound[1] >= n:
                classes += [(n, n)] * count
    return classes


def count_classes(q: QSpec, p: int, bound) -> int:
    """Isomorphism classes up to bound: multisets of indecomposable classes
    whose dimension vectors sum to at most bound (Krull-Schmidt)."""
    bound = tuple(bound)
    ways = Counter({(0,) * q.n: 1})
    for d in indecomposable_classes(q, p, bound):
        nxt = Counter()
        for total, w in ways.items():
            k = 0
            while True:
                t = tuple(a + k * b for a, b in zip(total, d))
                if any(x > y for x, y in zip(t, bound)):
                    break
                nxt[t] += w
                k += 1
        ways = nxt
    return sum(ways.values())


def brick(q: QSpec, p: int, dim, rng, tries: int = 2000) -> Raw:
    """A representation of the given dimension with End = F_p, by sampling.

    For a Dynkin quiver and a positive root this is the indecomposable of
    that dimension."""
    for _ in range(tries):
        r = random_rep(q, p, dim, rng)
        if hom_dim(q, p, r, r) == 1:
            return r
    raise RuntimeError(f"no brick of dimension {dim} found")


def perp_holds(q: QSpec, p: int, a: Raw, members, side: str) -> bool:
    test = {"ext-left": lambda t: ext_dim(q, p, a, t),
            "ext-right": lambda t: ext_dim(q, p, t, a),
            "hom-left": lambda t: hom_dim(q, p, a, t),
            "hom-right": lambda t: hom_dim(q, p, t, a)}[side]
    return all(test(t) == 0 for t in members)


def check_perp(q: QSpec, p: int, listed, members, side: str, bound, rng) -> list[str]:
    """listed: the perpendicular indecomposables the program printed (Dynkin q)."""
    problems = []
    roots = positive_roots(q, bound)
    dims = [r.dim for r in listed]
    if len(set(dims)) != len(dims):
        problems.append("two listed members share a dimension vector")
    for r in listed:
        if r.dim not in roots:
            problems.append(f"listed dim {r.dim} is not a positive root within the bound")
        elif hom_dim(q, p, r, r) != 1:
            problems.append(f"listed member of dim {r.dim} is not indecomposable")
        elif not perp_holds(q, p, r, members, side):
            problems.append(f"listed member of dim {r.dim} is not {side} perpendicular")
    for d in roots:
        if d not in dims and perp_holds(q, p, brick(q, p, d, rng), members, side):
            problems.append(f"perpendicular indecomposable of dim {d} is missing")
    return problems
