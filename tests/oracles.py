"""Reference implementations kept as test oracles.

The solve-based add-membership test that in_add replaced by a rank count
(reference_in_add).  The one-vector-at-a-time scans of iso_witness and of
the split search as they were before the scans were batched, kept verbatim
apart from their names, and the Krull-Schmidt decomposition built on that
split search.  The library's split search (quiverrep._splits) only answers yes or no and filtra
no longer decomposes modules; reference_decompose and reference_krull_schmidt
split a module along the Fitting power that reference_try_split finds, with
their own copies of the Fitting power and of the image subrepresentation.
"""

import itertools
from typing import Optional, Sequence

import numpy as np

from filtra import Matrix, RepMorphism, Representation
from filtra.errors import searching, spend
from filtra.quiverrep import _canonical_key, hom_space, iso_key, kernel_sub


def reference_in_add(pieces: Sequence[Representation]):
    """in_add as it was before the rank test: is id_m in the span of the
    composites m -> X -> m over the pieces X?  One solve, with the
    composites formed one morphism at a time from hom_space."""
    pieces = list(pieces)

    def flat(f: RepMorphism) -> np.ndarray:
        return np.concatenate([c.a.reshape(-1) for c in f.components])

    def predicate(m: Representation) -> bool:
        if m.total_dim == 0:
            return True
        columns = [flat(a @ b) for x in pieces for a in hom_space(x, m) for b in hom_space(m, x)]
        width = sum(d * d for d in m.dim)
        span = np.stack(columns, axis=1) if columns else np.zeros((width, 0), dtype=np.int64)
        ident = flat(RepMorphism.identity(m)).reshape(-1, 1)
        return Matrix(m.p, span).solve(Matrix(m.p, ident)) is not None

    return predicate


def hom_component_stacks(basis: Sequence[RepMorphism], m: Representation,
                          n: Representation) -> list[np.ndarray]:
    """Per-vertex arrays of shape (len(basis), n.dim[v], m.dim[v])."""
    stacks = []
    for v in range(m.quiver.vertex_count):
        if basis:
            stacks.append(np.stack([f.components[v].a for f in basis]))
        else:
            stacks.append(np.zeros((0, n.dim[v], m.dim[v]), dtype=np.int64))
    return stacks


def combo_components(coeffs: np.ndarray, stacks: list[np.ndarray], p: int) -> list[np.ndarray]:
    return [np.tensordot(coeffs, s, axes=1) % p if s.shape[0] else s.sum(axis=0)
            for s in stacks]


def reference_invariants_match(m: Representation, n: Representation) -> bool:
    if m.dim != n.dim or iso_key(m) != iso_key(n):
        return False
    if len(hom_space(m, n)) != len(hom_space(n, m)):
        return False
    if len(hom_space(m, m)) != len(hom_space(n, n)):
        return False
    return True


def reference_iso_witness(m: Representation, n: Representation) -> Optional[RepMorphism]:
    if m.quiver != n.quiver or m.p != n.p:
        return None
    if m == n:
        return RepMorphism.identity(m)
    if not reference_invariants_match(m, n):
        return None
    basis = hom_space(m, n)
    stacks = hom_component_stacks(basis, m, n)
    p = m.p
    with searching():
        for combo in itertools.product(range(p), repeat=len(basis)):
            spend()
            if not any(combo):
                continue
            comps = combo_components(np.asarray(combo, dtype=np.int64), stacks, p)
            if all(Matrix(p, c).rank() == len(c) for c in comps):
                return RepMorphism(m, n, [Matrix(p, c) for c in comps], check=False)
    return None


def reference_fitting_power(m: Representation,
                            phi_comps: list[np.ndarray]) -> Optional[RepMorphism]:
    """A high power of the endomorphism phi when it is neither zero nor
    invertible, else None.  Its image and kernel then split m (Fitting)."""
    p, power = m.p, phi_comps
    for _ in range(max(1, m.total_dim).bit_length() + 1):
        power = [(c @ c) % p for c in power]
    mats = [Matrix(p, c) for c in power]
    rank_total = sum(mat.rank() for mat in mats)
    if rank_total == 0 or rank_total == m.total_dim:
        return None
    return RepMorphism(m, m, mats, check=False)


def reference_image_sub(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Image subrepresentation with its inclusion into f.target: at each
    vertex, the columns of f_v at its pivot positions."""
    target, p = f.target, f.target.p
    bases = [Matrix(p, c.a[:, list(c.rref()[1])]) for c in f.components]
    maps = []
    for a, big in zip(target.quiver.arrows, target.maps):
        small = bases[a.target].solve(big @ bases[a.source])
        assert small is not None  # an image is closed under the arrows
        maps.append(small)
    sub = Representation(target.quiver, p, tuple(b.cols for b in bases), maps)
    return sub, RepMorphism(sub, target, bases, check=False)


def fitting_split(m: Representation, phi_comps: list[np.ndarray]) -> Optional[tuple]:
    """Split m along a high power of the endomorphism phi, if proper.

    Returns (part_im, incl_im, part_ker, incl_ker) or None when the power is
    zero or invertible.
    """
    phi = reference_fitting_power(m, phi_comps)
    if phi is None:
        return None
    im, incl_im = reference_image_sub(phi)
    ker, incl_ker = kernel_sub(phi)
    return im, incl_im, ker, incl_ker


def reference_try_split(m: Representation) -> Optional[tuple]:
    if m.total_dim == 0:
        return None
    p = m.p
    basis = hom_space(m, m)
    for f in basis:
        spend()
        split = fitting_split(m, [c.a for c in f.components])
        if split is not None:
            return split
    for f, g in itertools.combinations(basis, 2):
        spend()
        split = fitting_split(m, [(a.a + b.a) % p for a, b in zip(f.components, g.components)])
        if split is not None:
            return split
    stacks = hom_component_stacks(basis, m, m)
    identity = [np.eye(d, dtype=np.int64) for d in m.dim]
    for combo in itertools.product(range(p), repeat=len(basis)):
        spend()
        comps = combo_components(np.asarray(combo, dtype=np.int64), stacks, p)
        if all((c == 0).all() for c in comps):
            continue
        if all(np.array_equal(c, i) for c, i in zip(comps, identity)):
            continue
        if all(np.array_equal((c @ c) % p, c) for c in comps):
            split = fitting_split(m, comps)
            if split is not None:
                return split
    return None


def reference_decompose(m: Representation) -> list[tuple[Representation, RepMorphism, RepMorphism]]:
    if m.total_dim == 0:
        return []
    split = reference_try_split(m)
    if split is None:
        ident = RepMorphism.identity(m)
        return [(m, ident, ident)]
    im, incl_im, ker, incl_ker = split
    p = m.p
    proj_im_comps, proj_ker_comps = [], []
    for v in range(m.quiver.vertex_count):
        basis = Matrix.hstack(p, [incl_im.components[v], incl_ker.components[v]])
        inv = basis.inverse()
        assert inv is not None  # complementary subspaces span
        proj_im_comps.append(Matrix(p, inv.a[: im.dim[v], :]))
        proj_ker_comps.append(Matrix(p, inv.a[im.dim[v]:, :]))
    proj_im = RepMorphism(m, im, proj_im_comps, check=False)
    proj_ker = RepMorphism(m, ker, proj_ker_comps, check=False)
    out = []
    for piece, incl, proj in ((im, incl_im, proj_im), (ker, incl_ker, proj_ker)):
        for small, small_incl, small_proj in reference_decompose(piece):
            out.append((small, incl @ small_incl, small_proj @ proj))
    return out


def reference_krull_schmidt(m: Representation) -> list[tuple[Representation, int]]:
    groups: list[tuple[Representation, int]] = []
    with searching():
        for piece, _, _ in reference_decompose(m):
            for k, (rep, count) in enumerate(groups):
                if reference_iso_witness(piece, rep) is not None:
                    groups[k] = (rep, count + 1)
                    break
            else:
                groups.append((piece, 1))
    return sorted(groups, key=lambda item: _canonical_key(item[0]))
