"""Kernels, cokernels and the ET4 compositions against eliminating references.

kernel_sub reads the arrow maps of a kernel off the identity block that its
basis holds at the free rows, cokernel_quot takes the selector of the free
coordinates as the section of its projection, and et4_compose and
et4op_compose read their sections and lifts off those blocks too.  The
references below are the earlier versions, which solved for every map:
kernel arrow maps by solve, cokernel sections by right_inverse, and both
sections and retractions of each conflation by splitting_data.  Each result
is unique, or independent of the section, so the two must agree byte for
byte.
"""

import dataclasses
import json
import random
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from filtra import (Conflation, Matrix, Quiver, RepMorphism, Representation, et4_compose,
                    et4op_compose, ext_space, filtration, group, hom_space, linalg, realize,
                    reorder)
from filtra.cli import _filtration_from_doc, parse_workspace
from filtra.conflation import ET4, ET4Op
from filtra.quiverrep import cokernel_quot, kernel_sub
from filtra.selftest import scramble_middle

DATA = Path(__file__).parent / "data"

QUIVERS = {
    "A2": (Quiver.from_edges(2, [("a", 0, 1)]), 3),
    "A3": (Quiver.from_edges(3, [("a", 0, 1), ("b", 1, 2)]), 3),
    "Kronecker": (Quiver.from_edges(2, [("a", 0, 1), ("b", 0, 1)]), 2),
    "D4": (Quiver.from_edges(4, [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)]), 2),
}


# -- the references: every map solved for ----------------------------------

def reference_kernel_sub(f):
    bases = [m.kernel_basis() for m in f.components]
    quiver, p = f.source.quiver, f.source.p
    maps = []
    for a, big in zip(quiver.arrows, f.source.maps):
        small = bases[a.target].solve(big @ bases[a.source])
        assert small is not None
        maps.append(small)
    sub = Representation(quiver, p, tuple(b.cols for b in bases), maps)
    return sub, RepMorphism(sub, f.source, bases, check=False)


def reference_cokernel_quot(f):
    quiver, p = f.target.quiver, f.target.p
    projections = [m.cokernel_projection() for m in f.components]
    sections = [q.right_inverse() for q in projections]
    maps = [projections[a.target] @ big @ sections[a.source]
            for a, big in zip(quiver.arrows, f.target.maps)]
    quot = Representation(quiver, p, tuple(q.rows for q in projections), maps)
    return quot, RepMorphism(f.target, quot, projections, check=False)


def reference_et4_compose(c1, c2):
    h = c2.x @ c1.x
    E, hprime = reference_cokernel_quot(h)
    composite = Conflation(c1.A, c2.B, E, h, hprime, check=False)
    f_sections, _ = c1.splitting_data()
    d = RepMorphism(c1.C, E, [hprime.components[v] @ c2.x.components[v] @ s
                              for v, s in enumerate(f_sections)], check=False)
    comp_sections, _ = composite.splitting_data()
    e = RepMorphism(E, c2.C, [yv @ s for yv, s in zip(c2.y.components, comp_sections)],
                    check=False)
    return ET4(composite, Conflation(c1.C, E, c2.C, d, e, check=False))


def reference_et4op_compose(c1, c2):
    w_defl = c2.y @ c1.y
    W, j = reference_kernel_sub(w_defl)
    composite = Conflation(W, c1.B, c2.C, j, w_defl, check=False)
    a = RepMorphism(c1.A, W, [jv.solve(xv) for jv, xv in zip(j.components, c1.x.components)],
                    check=False)
    b = RepMorphism(W, c2.A, [kv.solve(yv @ jv) for kv, yv, jv in
                              zip(c2.x.components, c1.y.components, j.components)],
                    check=False)
    return ET4Op(composite, Conflation(c1.A, W, c2.A, a, b, check=False))


def parts(obj, path="") -> list:
    """(path, value) of every matrix, dimension vector and label reachable
    from obj; a matrix by its modulus, shape, dtype and bytes."""
    if isinstance(obj, Matrix):
        return [(path, (obj.p, obj.shape, obj.a.dtype.str, obj.a.tobytes()))]
    if isinstance(obj, int):
        return [(path, obj)]
    if isinstance(obj, (tuple, list)):
        return [x for k, o in enumerate(obj) for x in parts(o, f"{path}[{k}]")]
    if isinstance(obj, Representation):
        return [(path + ".dim", obj.dim)] + parts(obj.maps, path + ".maps")
    return [x for fld in dataclasses.fields(obj) if fld.name != "theta"
            for x in parts(getattr(obj, fld.name), f"{path}.{fld.name}")]


def mismatches(got, want) -> list[str]:
    """The paths at which got and want differ."""
    got, want = dict(parts(got)), dict(parts(want))
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


# -- random inputs ------------------------------------------------------------

def _random_invertible(rng, p, n) -> Matrix:
    while True:
        g = Matrix(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)], shape=(n, n))
        if g.rank() == n:
            return g


def random_rep(rng, quiver, p, dims) -> Representation:
    """A representation of dimension vector dims with random arrow maps."""
    return Representation(quiver, p, dims, [
        Matrix(p, [rng.randrange(p) for _ in range(dims[a.target] * dims[a.source])],
               shape=(dims[a.target], dims[a.source])) for a in quiver.arrows])


def random_morphism(rng, quiver, p, dims, kind) -> RepMorphism:
    """A morphism out of a random representation of dimension dims: zero,
    invertible, or a random combination of a Hom basis."""
    m = random_rep(rng, quiver, p, dims)
    if kind == "invertible":
        g = [_random_invertible(rng, p, d) for d in m.dim]
        maps = [g[a.target] @ big @ g[a.source].inverse() for a, big in zip(quiver.arrows, m.maps)]
        return RepMorphism(m, Representation(quiver, p, m.dim, maps), g)
    n = m if kind == "endo" else random_rep(rng, quiver, p, dims)
    f = RepMorphism.zero(m, n)
    if kind != "zero":
        for g in hom_space(m, n):
            f = f + g.scale(rng.randrange(p))
    return f


def random_extension(rng, c_obj, a_obj) -> Conflation:
    space = ext_space(c_obj, a_obj)
    return scramble_middle(rng, realize(space.element(
        [rng.randrange(c_obj.p) for _ in range(space.dimension)])))


@st.composite
def cases(draw):
    """A quiver, a prime, a dimension vector with zeros allowed, and a seed."""
    name = draw(st.sampled_from(sorted(QUIVERS)))
    quiver, top = QUIVERS[name]
    p = draw(st.sampled_from([2, 3, 5]))
    dims = tuple(draw(st.integers(0, top)) for _ in range(quiver.vertex_count))
    return quiver, p, dims, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=cases(), kind=st.sampled_from(["hom", "endo", "zero", "invertible"]))
def test_kernels_and_cokernels_match_the_references(case, kind):
    quiver, p, dims, seed = case
    f = random_morphism(random.Random(seed), quiver, p, dims, kind)
    assert mismatches(kernel_sub(f), reference_kernel_sub(f)) == []
    assert mismatches(cokernel_quot(f), reference_cokernel_quot(f)) == []


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_et4_compositions_match_the_references(case):
    quiver, p, dims, seed = case
    rng = random.Random(seed)

    def rand():
        return random_rep(rng, quiver, p, dims)

    c1 = random_extension(rng, rand(), rand())
    c2 = random_extension(rng, rand(), c1.B)
    assert mismatches(et4_compose(c1, c2), reference_et4_compose(c1, c2)) == []
    c2 = random_extension(rng, rand(), rand())
    c1 = random_extension(rng, c2.B, rand())
    assert mismatches(et4op_compose(c1, c2), reference_et4op_compose(c1, c2)) == []


def test_a_selector_off_the_free_columns_is_caught(monkeypatch):
    # a mutant of Matrix._kernel that reports the last column as free in
    # place of the first free one: its selector is no section of the
    # cokernel projection, nor its rows a lift along the kernel inclusion
    quiver, p = QUIVERS["A3"][0], 3
    f = random_morphism(random.Random(15), quiver, p, (3, 3, 3), "endo")
    rng = random.Random(0)

    def rand():
        return random_rep(rng, quiver, p, (1, 2, 1))

    c1 = random_extension(rng, rand(), rand())
    c2 = random_extension(rng, rand(), c1.B)
    d2 = random_extension(rng, rand(), rand())
    d1 = random_extension(rng, d2.B, rand())
    references = [reference_kernel_sub(f), reference_cokernel_quot(f),
                  reference_et4_compose(c1, c2), reference_et4op_compose(d1, d2)]
    kernel = Matrix._kernel

    def off_by_one(self):
        basis, free = kernel(self)
        if free.size and free[0] != self.cols - 1:
            free = np.concatenate(([self.cols - 1], free[1:]))
        return basis, free

    monkeypatch.setattr(Matrix, "_kernel", off_by_one)
    mutants = [kernel_sub(f), cokernel_quot(f), et4_compose(c1, c2), et4op_compose(d1, d2)]
    for got, want in zip(mutants, references):
        assert mismatches(got, want) != []


def _unordered_a3():
    ws = parse_workspace((DATA / "a3.ws").read_text())
    return _filtration_from_doc(ws, json.loads((DATA / "a3_unordered.json").read_text()))[0]


def test_reorder_and_group_match_the_references(monkeypatch, clear_caches):
    f = _unordered_a3()

    def reorder_and_group():
        ordered = reorder(f)
        return ordered, group(ordered)

    got = reorder_and_group()
    monkeypatch.setattr(filtration, "et4_compose", reference_et4_compose)
    monkeypatch.setattr(filtration, "et4op_compose", reference_et4op_compose)
    clear_caches()
    assert mismatches(got, reorder_and_group()) == []


def test_reorder_and_group_read_their_echelon_forms(monkeypatch, clear_caches):
    # 537 eliminations when sections, lifts and quotient maps were solved for
    f = _unordered_a3()
    calls = []
    reduce = linalg._reduce

    def counted_reduce(a, p):
        calls.append(a.shape)
        return reduce(a, p)

    clear_caches()
    monkeypatch.setattr(linalg, "_reduce", counted_reduce)
    group(reorder(f))
    assert len(calls) <= 0.6 * 537
