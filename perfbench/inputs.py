"""Seeded inputs built with the benchmark's own code, before filtra sees them.

A raw representation is a dimension vector plus one int64 matrix per arrow
(shape dim[target] x dim[source]).  Everything here is plain numpy and the
arithmetic in modp, so building inputs warms none of filtra's caches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from modp import mul, random_invertible, random_matrix


@dataclass(frozen=True)
class QSpec:
    name: str
    n: int
    arrows: tuple[tuple[str, int, int], ...]


A2 = QSpec("A2", 2, (("a", 0, 1),))
A3 = QSpec("A3", 3, (("a", 0, 1), ("b", 1, 2)))
KRONECKER = QSpec("K", 2, (("a", 0, 1), ("b", 0, 1)))
D4 = QSpec("D4", 4, (("a", 0, 1), ("b", 0, 2), ("c", 0, 3)))


@dataclass(frozen=True)
class Raw:
    dim: tuple[int, ...]
    maps: tuple[np.ndarray, ...]


def rng_for(seed, *tags) -> random.Random:
    """An independent stream per (seed, tags), stable across processes."""
    return random.Random("/".join(str(t) for t in (seed,) + tags))


def euler(q: QSpec, d, e) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: s->t} d_s e_t."""
    return sum(x * y for x, y in zip(d, e)) - sum(d[s] * e[t] for _, s, t in q.arrows)


def random_rep(q: QSpec, p: int, dim, rng) -> Raw:
    dim = tuple(dim)
    return Raw(dim, tuple(random_matrix(rng, p, dim[t], dim[s]) for _, s, t in q.arrows))


def simple(q: QSpec, v: int) -> Raw:
    dim = tuple(int(w == v) for w in range(q.n))
    return Raw(dim, tuple(np.zeros((dim[t], dim[s]), dtype=np.int64) for _, s, t in q.arrows))


def projective(q: QSpec, v: int) -> Raw:
    """Paths-out model: the basis at w is the set of paths from v to w."""
    paths = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for path in frontier:
            end = q.arrows[path[-1]][2] if path else v
            nxt.extend(path + (k,) for k, (_, s, _) in enumerate(q.arrows) if s == end)
        paths += nxt
        frontier = nxt
    at = [[] for _ in range(q.n)]
    for path in paths:
        at[q.arrows[path[-1]][2] if path else v].append(path)
    maps = []
    for k, (_, s, t) in enumerate(q.arrows):
        m = np.zeros((len(at[t]), len(at[s])), dtype=np.int64)
        for col, path in enumerate(at[s]):
            m[at[t].index(path + (k,)), col] = 1
        maps.append(m)
    return Raw(tuple(len(x) for x in at), tuple(maps))


def standard_family(q: QSpec, kind: str) -> tuple[Raw, ...]:
    """The families of the desk checks: all simples, the first two simples,
    (S1, P1) and (S1)."""
    simples = [simple(q, v) for v in range(q.n)]
    return {"simples": tuple(simples), "two": tuple(simples[:2]),
            "s1p1": (simples[0], projective(q, 0)), "s1": (simples[0],)}[kind]


def direct_sum(q: QSpec, parts) -> Raw:
    dim = tuple(sum(r.dim[v] for r in parts) for v in range(q.n))
    maps = []
    for k, (_, s, t) in enumerate(q.arrows):
        m = np.zeros((dim[t], dim[s]), dtype=np.int64)
        r0 = c0 = 0
        for r in parts:
            block = r.maps[k]
            m[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block
            r0 += r.dim[t]
            c0 += r.dim[s]
        maps.append(m)
    return Raw(dim, tuple(maps))


def extend_by(q: QSpec, p: int, sub: Raw, quot: Raw, rng) -> Raw:
    """Block upper-triangular extension [[sub, G], [0, quot]] with random G."""
    dim = tuple(a + b for a, b in zip(sub.dim, quot.dim))
    maps = []
    for k, (_, s, t) in enumerate(q.arrows):
        m = np.zeros((dim[t], dim[s]), dtype=np.int64)
        m[:sub.dim[t], :sub.dim[s]] = sub.maps[k]
        m[:sub.dim[t], sub.dim[s]:] = random_matrix(rng, p, sub.dim[t], quot.dim[s])
        m[sub.dim[t]:, sub.dim[s]:] = quot.maps[k]
        maps.append(m)
    return Raw(dim, tuple(maps))


def iterated_extension(q: QSpec, p: int, parts, rng) -> Raw:
    """parts[0] at the bottom, parts[-1] on top."""
    cur = Raw((0,) * q.n, tuple(np.zeros((0, 0), dtype=np.int64) for _ in q.arrows))
    for part in parts:
        cur = extend_by(q, p, cur, part, rng)
    return cur


def change_basis(q: QSpec, p: int, raw: Raw, rng) -> tuple[Raw, list, list]:
    """Conjugate by a random vertexwise change of basis P_v.

    Returns the new representation with P and P^{-1}: the new map of
    a: s -> t is P_t @ M_a @ P_s^{-1}.
    """
    pairs = [random_invertible(rng, p, d) for d in raw.dim]
    P = [a for a, _ in pairs]
    Pinv = [b for _, b in pairs]
    maps = tuple(mul(mul(P[t], raw.maps[k], p), Pinv[s], p)
                 for k, (_, s, t) in enumerate(q.arrows))
    return Raw(raw.dim, maps), P, Pinv


def filtration_chain(q: QSpec, p: int, members, labels, rng):
    """A scrambled filtration 0 = M_0 -> M_1 -> ... -> M_n by members[labels[i]].

    M_i is the extension [[M_{i-1}, G], [0, member]] with random G, conjugated
    by a random change of basis P.  Returns a list of (M_{i-1}, M_i, x_i, y_i)
    with vertexwise inclusion x_i = P [1; 0]: M_{i-1} -> M_i and projection
    y_i = [0 1] P^{-1}: M_i -> member.
    """
    prev = Raw((0,) * q.n, tuple(np.zeros((0, 0), dtype=np.int64) for _ in q.arrows))
    chain = []
    for label in labels:
        member = members[label]
        cur, P, Pinv = change_basis(q, p, extend_by(q, p, prev, member, rng), rng)
        x, y = [], []
        for v in range(q.n):
            x.append(P[v][:, :prev.dim[v]].copy())
            y.append(Pinv[v][prev.dim[v]:, :].copy())
        chain.append((prev, cur, x, y))
        prev = cur
    return chain
