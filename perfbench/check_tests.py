"""Each answer check accepts a right answer and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_tests.py

The file name keeps it out of a plain `pytest` run: its workloads warm
filtra's process-wide caches, and tests/test_cli.py::test_cli_budget_env
needs a cold decision memo.
"""

import json
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import filtra as F  # noqa: E402
import filtra.cli  # noqa: E402

import checks  # noqa: E402
import modp  # noqa: E402
import workloads as W  # noqa: E402
from inputs import (A3, D4, KRONECKER, Raw, change_basis, iterated_extension,  # noqa: E402
                    random_rep, simple, standard_family)


def corrupt(a: np.ndarray, p: int) -> np.ndarray:
    b = a.copy()
    b.reshape(-1)[0] = (b.reshape(-1)[0] + 1) % p
    return b


def test_own_elimination_matches_filtra():
    rng = random.Random(1)
    for rows, cols, p in ((5, 7, 2), (9, 4, 3), (12, 12, 5)):
        a = modp.random_matrix(rng, p, rows, cols)
        assert modp.rank(a, p) == F.Matrix(p, a).rank()
    a, inv = modp.random_invertible(rng, 3, 6)
    assert np.array_equal(modp.mul(a, inv, 3), np.eye(6, dtype=np.int64))


def test_hom_ext_check():
    rng = random.Random(2)
    q, p = D4, 3
    m, n = random_rep(q, p, (3, 1, 2, 1), rng), random_rep(q, p, (2, 2, 1, 1), rng)
    M, N = W.rep(q, p, m), W.rep(q, p, n)
    basis = [[c.a for c in f.components] for f in F.hom_space(M, N)]
    ext = F.ext_space(M, N).dimension
    assert len(basis) >= 2 and not checks.check_hom_ext(q, p, m, n, basis, ext)
    assert checks.check_hom_ext(q, p, m, n, basis[1:], ext)              # dimension
    assert checks.check_hom_ext(q, p, m, n, basis, ext + 1)              # Euler form
    bent = [list(basis[0])]
    bent[0][0] = corrupt(bent[0][0], p)
    assert checks.check_hom_ext(q, p, m, n, bent + basis[1:], ext)       # intertwiner law
    assert checks.check_hom_ext(q, p, m, n, basis[:-1] + basis[:1], ext)  # dependence


def test_filter_checks(tmp_path):
    wl = W.Filter(0, tmp_path)
    wl.prepare()
    ops = wl.round(0)
    records = [(op, op.run()) for op in ops]
    assert not wl.check(records)
    member = next(k for k, (op, f) in enumerate(records) if op.ctx[3] and len(f.steps) > 1)
    op, f = records[member]
    bad_top = Raw(op.ctx[4].dim, tuple(corrupt(x, op.ctx[1]) if x.size else x
                                       for x in op.ctx[4].maps))
    shifted = (op.ctx[:4] + (bad_top,) + op.ctx[5:])
    assert wl.check([(W.Op(op.kind, op.run, shifted), f)])                 # top differs
    members = [mm.dim for mm in wl.families[op.ctx[0], op.ctx[1], op.ctx[2]][0]]
    assert checks.check_filtration(op.ctx[4], checks.raw_of(f.top), f.labels[1:], members)
    assert wl.check([(op, None)])                                            # member missed
    as_nonmember = W.Op(op.kind, op.run, op.ctx[:3] + (False,) + op.ctx[4:])
    assert wl.check([(as_nonmember, None)])                                  # oracle disagrees


def test_approx_checks(tmp_path):
    wl = W.Approx(0, tmp_path)
    wl.prepare()
    ops = wl.round(0)
    records = [(op, op.run()) for op in ops]
    assert not wl.check(records)
    op, (env, cov) = next((op, res) for op, res in records
                          if op.kind.startswith("approximate") and res[0].triangle.C.total_dim)
    q, p, kind, raw = op.ctx
    tri = env.triangle
    A, B, C = (checks.raw_of(o) for o in (tri.A, tri.B, tri.C))
    x = [m.a for m in tri.x.components]
    y = [m.a for m in tri.y.components]
    assert not checks.check_triangle(q, p, A, B, C, x, y)
    v = next(v for v in range(q.n) if x[v].size)
    bent = list(x)
    bent[v] = corrupt(x[v], p)
    assert checks.check_triangle(q, p, A, B, C, bent, y)
    members = wl.families[q, p, kind][0]
    assert not checks.check_approximation(q, p, "envelope", raw, members, A, B, C, x, y)
    assert checks.check_approximation(q, p, "envelope", C, members, A, B, C, x, y)
    # the identity triangle X -> X -> 0 is exact, but X is not Theta-injective
    zero = Raw((0,) * q.n, tuple(np.zeros((0, 0), dtype=np.int64) for _ in q.arrows))
    ident = [np.eye(d, dtype=np.int64) for d in raw.dim]
    none = [np.zeros((0, d), dtype=np.int64) for d in raw.dim]
    assert not checks.check_triangle(q, p, raw, raw, zero, ident, none)
    assert checks.check_approximation(q, p, "envelope", raw, members, raw, raw, zero, ident, none)
    labels = env.filtered_part.labels
    assert checks.check_filtration(C, checks.raw_of(env.filtered_part.top), labels[1:],
                                   [m.dim for m in members])
    op, (ordered, grouped) = next((op, res) for op, res in records if op.kind.startswith("reorder"))
    f = op.ctx[2]
    top = checks.raw_of(f.top)
    assert not checks.check_reordered(top, f.labels, checks.raw_of(ordered.top),
                                      ordered.labels, strict=False)
    assert checks.check_reordered(top, f.labels, top, sorted(ordered.labels), strict=False)
    assert checks.check_reordered(top, f.labels, top, ordered.labels[1:], strict=False)
    assert checks.check_reordered(top, f.labels, checks.raw_of(f.steps[0].conflation.B),
                                  ordered.labels, strict=False)
    expanded = [s.label for s in grouped.steps for _ in range(s.multiplicity)]
    assert not checks.check_reordered(top, f.labels, checks.raw_of(grouped.top), expanded,
                                      strict=True)
    assert checks.check_reordered(top, f.labels, top, expanded[::-1] + [expanded[0]], strict=True)


def test_filtration_chain_wraps():
    rng = random.Random(3)
    members = standard_family(A3, "s1p1")
    theta = F.ThetaFamily([W.rep(A3, 3, m) for m in members])
    f = W.Approx._filtration(A3, 3, theta, members, [0, 1, 1, 0, 1], rng)
    assert f.labels == (0, 1, 1, 0, 1)
    assert f.top.dim == (5, 3, 3)


def test_class_counts_follow_gabriel():
    assert checks.count_classes(KRONECKER, 2, (1, 1)) == 4 + 3   # 0, S1, S2, S1+S2, P^1(F_2)
    assert len(checks.indecomposable_classes(KRONECKER, 2, (2, 2))) == 11
    assert checks.count_classes(A3, 2, (1, 1, 1)) == 13   # interval partitions of subsets
    assert len(checks.positive_roots(D4, (2, 1, 1, 1))) == 12


def cli_doc(tmp_path, capsys, q, reps, thetas, argv):
    path = tmp_path / "ws.txt"
    path.write_text(W.workspace_text(q, 2, reps, thetas))
    capsys.readouterr()
    assert filtra.cli.main(["-w", str(path)] + argv) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_checks(tmp_path, capsys):
    wl = W.Cli(0, tmp_path)
    rng = random.Random(4)
    doc = cli_doc(tmp_path, capsys, KRONECKER, {"S1": simple(KRONECKER, 0)}, {},
                  ["enumerate", "--max-dim", "2,2"])
    op = W.Op("enumerate/K", None, (KRONECKER, "enumerate", (2, 2)))
    assert not wl.check([(op, doc)])
    assert wl.check([(op, dict(doc, count=doc["count"] - 1))])

    members = list(standard_family(A3, "two"))
    reps = {"T1": members[0], "T2": members[1]}
    for side in ("ext-left", "ext-right", "hom-left", "hom-right"):
        doc = cli_doc(tmp_path, capsys, A3, reps, {"fam": ["T1", "T2"]},
                      ["perp", "fam", "--side", side, "--max-dim", "2,1,1"])
        op = W.Op("perp/A3", None, (A3, "perp", (2, 1, 1), members, side))
        assert not wl.check([(op, doc)])
        if doc["members"]:
            assert wl.check([(op, dict(doc, members=doc["members"][1:]))])    # one missing
    doc = cli_doc(tmp_path, capsys, A3, reps, {"fam": ["T1", "T2"]},
                  ["perp", "fam", "--side", "hom-right", "--max-dim", "1,1,1"])
    wrong = dict(doc, members=doc["members"] + [{"dim": [1, 0, 0], "maps": {}}])
    op = W.Op("perp/A3", None, (A3, "perp", (1, 1, 1), members, "hom-right"))
    assert wl.check([(op, wrong)])                                            # S1 maps to T1

    module, _, _ = change_basis(D4, 2, iterated_extension(
        D4, 2, [simple(D4, 0), simple(D4, 1), simple(D4, 0)], rng), rng)
    members = list(standard_family(D4, "simples"))
    reps = {f"T{k + 1}": m for k, m in enumerate(members)}
    reps["M"] = module
    doc = cli_doc(tmp_path, capsys, D4, reps, {"fam": list(reps)[:-1]},
                  ["precover", "M", "--theta", "fam", "--verify", "--max-dim", "1,1,1,1"])
    op = W.Op("verify/D4", None, (D4, "verify", (1, 1, 1, 1), members, "precover", module))
    assert not wl.check([(op, doc)])
    assert wl.check([(op, dict(doc, verified=False))])
    tri = dict(doc["triangle"])
    tri["deflation"] = [[[1 - v for v in row] for row in comp] for comp in tri["deflation"]]
    assert wl.check([(op, dict(doc, triangle=tri))])
