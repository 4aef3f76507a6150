"""Command line surface: parse workspace files, dispatch, print JSON documents.

Workspace format (line based, `#` starts a comment):

    field <p>
    vertices <n>
    arrow <name> <source> <target>          # vertices are 1-based
    rep <name>
    dim <d1> <d2> ... <dn>
    mat <arrow> <rows> <cols> <entries...>  # row-major; rows = dim at target
    theta <name> <rep1> <rep2> ...

Matrices for arrows whose source or target dimension is zero are omitted;
omitted matrices are zero.  All output documents are JSON with sorted keys,
so identical invocations print byte-identical text.  Exit status is 0 on
success, 1 for a negative membership or verification answer, 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .approx import (ApproxResult, perp_class, precover, preenvelope,
                     verify_precover, verify_preenvelope)
from .conflation import Conflation, ext_space, realize
from .errors import Budget, FiltraError, ParseError, ValidationError
from .filtration import (Filtration, FiltrationStep, decide_filtered,
                         oracle_filtered, reorder)
from .linalg import Matrix, PrimeField
from .quiverrep import (Quiver, RepMorphism, Representation, ThetaFamily,
                        enumerate_indecomposables, enumerate_reps, hom_space)
from .selftest import run_criteria

__all__ = ["Workspace", "parse_workspace", "serialize_workspace", "main"]


@dataclass(frozen=True)
class Workspace:
    p: int
    quiver: Quiver
    reps: dict[str, Representation]
    thetas: dict[str, tuple[str, ...]]

    def rep(self, name: str) -> Representation:
        if name not in self.reps:
            raise ValidationError(f"unknown representation {name!r}")
        return self.reps[name]

    def theta_members(self, name: str) -> list[Representation]:
        if name not in self.thetas:
            raise ValidationError(f"unknown theta family {name!r}")
        return [self.rep(r) for r in self.thetas[name]]

    def theta_family(self, name: str) -> ThetaFamily:
        return ThetaFamily(tuple(self.theta_members(name)))


def _matrix_from_entries(p: int, entries, rows: int, cols: int,
                         where: str = "matrix") -> Matrix:
    """Build a matrix from nested (or flat) integer lists of a known shape."""
    a = np.zeros((rows, cols), dtype=np.int64)
    flat = []
    if entries and isinstance(entries[0], (list, tuple)):
        if len(entries) != rows:
            raise ValidationError(f"{where}: expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ValidationError(f"{where}: expected {cols} columns")
            flat.extend(row)
    else:
        flat = list(entries)
    if len(flat) != rows * cols:
        raise ValidationError(f"{where}: expected {rows * cols} entries, got {len(flat)}")
    for i, x in enumerate(flat):
        a[divmod(i, cols)] = int(x) % p
    return Matrix(p, a)


# -- workspace parsing ---------------------------------------------------------


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            out.append((lineno, tokens))
    return out


def _int_token(token: str, lineno: int, column: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno, column) from None


def parse_workspace(text: str) -> Workspace:
    """Parse the line format; ParseError carries the offending position."""
    p: Optional[int] = None
    nverts: Optional[int] = None
    arrows: list[tuple[str, int, int]] = []
    quiver: Optional[Quiver] = None
    reps: dict[str, Representation] = {}
    thetas: dict[str, tuple[str, ...]] = {}

    # state of the representation block currently being read
    rep_name: Optional[str] = None
    rep_dim: Optional[tuple[int, ...]] = None
    rep_maps: dict[str, Matrix] = {}
    rep_line = 0

    def finish_quiver(lineno: int) -> Quiver:
        nonlocal quiver
        if quiver is None:
            if p is None:
                raise ParseError("field must be declared first", lineno, 1)
            if nverts is None:
                raise ParseError("vertices must be declared first", lineno, 1)
            quiver = Quiver.from_edges(nverts, arrows)
        return quiver

    def finish_rep(lineno: int) -> None:
        nonlocal rep_name, rep_dim, rep_maps
        if rep_name is None:
            return
        if rep_dim is None:
            raise ParseError(f"rep {rep_name} has no dim line", rep_line, 1)
        reps[rep_name] = Representation.from_dict(quiver, p, rep_dim, rep_maps)
        rep_name, rep_dim, rep_maps = None, None, {}

    for lineno, tokens in _tokenize(text):
        head, args = tokens[0], tokens[1:]
        if head == "field":
            if p is not None:
                raise ParseError("field declared twice", lineno, 1)
            if len(args) != 1:
                raise ParseError("field takes one argument", lineno, 1)
            p = _int_token(args[0], lineno, 2, "field modulus")
            PrimeField(p)  # raises ValidationError when not prime
        elif head == "vertices":
            if nverts is not None:
                raise ParseError("vertices declared twice", lineno, 1)
            if len(args) != 1:
                raise ParseError("vertices takes one argument", lineno, 1)
            nverts = _int_token(args[0], lineno, 2, "vertex count")
            if nverts < 1:
                raise ParseError("vertex count must be positive", lineno, 2)
        elif head == "arrow":
            if quiver is not None:
                raise ParseError("arrows must precede representations", lineno, 1)
            if nverts is None:
                raise ParseError("vertices must be declared before arrows", lineno, 1)
            if len(args) != 3:
                raise ParseError("arrow takes a name, a source and a target", lineno, 1)
            src = _int_token(args[1], lineno, 3, "arrow source")
            tgt = _int_token(args[2], lineno, 4, "arrow target")
            for label, v in (("source", src), ("target", tgt)):
                if not 1 <= v <= nverts:
                    raise ParseError(f"arrow {label} {v} is not a vertex in 1..{nverts}",
                                     lineno, 3)
            arrows.append((args[0], src - 1, tgt - 1))
        elif head == "rep":
            if len(args) != 1:
                raise ParseError("rep takes one name", lineno, 1)
            finish_quiver(lineno)
            finish_rep(lineno)
            if args[0] in reps:
                raise ValidationError(f"duplicate representation name {args[0]!r}")
            rep_name, rep_line = args[0], lineno
        elif head == "dim":
            if rep_name is None:
                raise ParseError("dim outside of a rep block", lineno, 1)
            if rep_dim is not None:
                raise ParseError(f"rep {rep_name} has two dim lines", lineno, 1)
            if len(args) != nverts:
                raise ParseError(f"dim takes {nverts} entries, got {len(args)}", lineno, 2)
            dims = tuple(_int_token(a, lineno, 2 + i, "dimension")
                         for i, a in enumerate(args))
            if any(d < 0 for d in dims):
                raise ParseError("dimensions must be nonnegative", lineno, 2)
            rep_dim = dims
        elif head == "mat":
            if rep_name is None:
                raise ParseError("mat outside of a rep block", lineno, 1)
            if rep_dim is None:
                raise ParseError("mat before the dim line", lineno, 1)
            if len(args) < 3:
                raise ParseError("mat takes an arrow name, rows, cols and entries",
                                 lineno, 1)
            name = args[0]
            arrow = next((a for a in quiver.arrows if a.name == name), None)
            if arrow is None:
                raise ParseError(f"unknown arrow {name!r}", lineno, 2)
            if name in rep_maps:
                raise ParseError(f"arrow {name} given twice in rep {rep_name}", lineno, 2)
            rows = _int_token(args[1], lineno, 3, "row count")
            cols = _int_token(args[2], lineno, 4, "column count")
            expected = (rep_dim[arrow.target], rep_dim[arrow.source])
            if (rows, cols) != expected:
                raise ParseError(
                    f"arrow {name}: expected a {expected[0]}x{expected[1]} matrix, "
                    f"got {rows}x{cols}", lineno, 3)
            entries = args[3:]
            if len(entries) != rows * cols:
                raise ParseError(f"expected {rows * cols} entries, got {len(entries)}",
                                 lineno, 5)
            values = [_int_token(e, lineno, 5 + i, "entry") for i, e in enumerate(entries)]
            rep_maps[name] = _matrix_from_entries(p, values, rows, cols,
                                                  where=f"arrow {name}")
        elif head == "theta":
            finish_quiver(lineno)
            finish_rep(lineno)
            if len(args) < 2:
                raise ParseError("theta takes a name and at least one member", lineno, 1)
            name, members = args[0], tuple(args[1:])
            if name in thetas:
                raise ValidationError(f"duplicate theta name {name!r}")
            for r in members:
                if r not in reps:
                    raise ValidationError(f"unknown representation {r!r} in theta {name}")
            thetas[name] = members
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)

    if p is None:
        raise ValidationError("workspace does not declare a field")
    if nverts is None:
        raise ValidationError("workspace does not declare vertices")
    end = len(text.splitlines()) + 1
    finish_quiver(end)
    finish_rep(end)
    return Workspace(p, quiver, reps, thetas)


def serialize_workspace(ws: Workspace) -> str:
    """Canonical text for a workspace; parsing it back gives an equal one."""
    lines = [f"field {ws.p}", f"vertices {ws.quiver.vertex_count}"]
    for a in ws.quiver.arrows:
        lines.append(f"arrow {a.name} {a.source + 1} {a.target + 1}")
    for name, rep in ws.reps.items():
        lines.append(f"rep {name}")
        lines.append("dim " + " ".join(str(d) for d in rep.dim))
        for arrow, m in zip(ws.quiver.arrows, rep.maps):
            if m.rows * m.cols == 0 or m.is_zero():
                continue
            flat = " ".join(str(x) for row in m.entries for x in row)
            lines.append(f"mat {arrow.name} {m.rows} {m.cols} {flat}")
    for name, members in ws.thetas.items():
        lines.append(f"theta {name} " + " ".join(members))
    return "\n".join(lines) + "\n"


# -- JSON documents -------------------------------------------------------------


def _rep_doc(r: Representation) -> dict:
    return {"dim": list(r.dim),
            "maps": {a.name: m.entries for a, m in zip(r.quiver.arrows, r.maps)}}


def _morphism_doc(f: RepMorphism) -> list:
    return [m.entries for m in f.components]


def _conflation_doc(c: Conflation) -> dict:
    return {"sub": _rep_doc(c.A), "middle": _rep_doc(c.B), "quotient": _rep_doc(c.C),
            "inflation": _morphism_doc(c.x), "deflation": _morphism_doc(c.y)}


def _filtration_doc(f: Filtration, theta_name: str) -> dict:
    steps = []
    for s in f.steps:
        step = _conflation_doc(s.conflation)
        step["label"] = s.label + 1
        step["witness"] = _morphism_doc(s.witness)
        steps.append(step)
    return {"theta": theta_name, "steps": steps}


def _rep_from_doc(ws: Workspace, doc: dict, where: str) -> Representation:
    dim = tuple(int(d) for d in doc["dim"])
    if not isinstance(doc["maps"], dict):
        raise ValidationError(f"{where}: maps must map arrow names to matrices")
    maps = {}
    for a in ws.quiver.arrows:
        entries = doc["maps"].get(a.name, [])
        maps[a.name] = _matrix_from_entries(ws.p, entries, dim[a.target], dim[a.source],
                                            where=f"{where} arrow {a.name}")
    return Representation.from_dict(ws.quiver, ws.p, dim, maps)


def _morphism_from_doc(ws: Workspace, data, source: Representation,
                       target: Representation, where: str) -> RepMorphism:
    comps = [_matrix_from_entries(ws.p, entries, target.dim[v], source.dim[v],
                                  where=f"{where} vertex {v + 1}")
             for v, entries in enumerate(data)]
    return RepMorphism(source, target, comps)


def _filtration_from_doc(ws: Workspace, doc: dict) -> tuple[Filtration, str]:
    theta_name = doc["theta"]
    theta = ws.theta_family(theta_name)
    steps = []
    for k, sdoc in enumerate(doc["steps"], start=1):
        where = f"step {k}"
        sub = _rep_from_doc(ws, sdoc["sub"], where)
        middle = _rep_from_doc(ws, sdoc["middle"], where)
        quotient = _rep_from_doc(ws, sdoc["quotient"], where)
        x = _morphism_from_doc(ws, sdoc["inflation"], sub, middle, where)
        y = _morphism_from_doc(ws, sdoc["deflation"], middle, quotient, where)
        label = int(sdoc["label"]) - 1
        if not 0 <= label < len(theta):
            raise ValidationError(f"{where}: label {label + 1} outside the family")
        witness = _morphism_from_doc(ws, sdoc["witness"], quotient, theta[label], where)
        steps.append(FiltrationStep(Conflation(sub, middle, quotient, x, y),
                                    label, witness))
    return Filtration(theta, steps), theta_name


# -- commands --------------------------------------------------------------------


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_max_dim(raw: str, quiver: Quiver) -> tuple[int, ...]:
    parts = raw.split(",")
    if len(parts) != quiver.vertex_count:
        raise ValidationError(
            f"--max-dim takes {quiver.vertex_count} comma-separated entries")
    try:
        dims = tuple(int(x) for x in parts)
    except ValueError:
        raise ValidationError("--max-dim entries must be integers") from None
    if any(d < 0 for d in dims):
        raise ValidationError("--max-dim entries must be nonnegative")
    return dims


def _cmd_hom(ws: Workspace, args) -> int:
    basis = hom_space(ws.rep(args.source), ws.rep(args.target))
    _emit({"dimension": len(basis), "basis": [_morphism_doc(f) for f in basis]})
    return 0


def _cmd_ext(ws: Workspace, args) -> int:
    space = ext_space(ws.rep(args.base), ws.rep(args.coefficient))
    basis = [{a.name: g.entries for a, g in zip(ws.quiver.arrows, cls.cocycles())}
             for cls in space.basis]
    _emit({"dimension": space.dimension, "basis": basis})
    return 0


def _cmd_realize(ws: Workspace, args) -> int:
    space = ext_space(ws.rep(args.base), ws.rep(args.coefficient))
    raw = args.cls.split(",") if args.cls else []
    try:
        coords = [int(x) for x in raw]
    except ValueError:
        raise ValidationError("--class entries must be integers") from None
    if len(coords) != space.dimension:
        raise ValidationError(
            f"--class takes {space.dimension} coordinates, got {len(coords)}")
    _emit(_conflation_doc(realize(space.element(coords))))
    return 0


def _cmd_check_theta(ws: Workspace, args) -> int:
    members = ws.theta_members(args.theta)
    failures = ThetaFamily.ordering_failures(members)
    _emit({"valid": not failures,
           "failures": [{"later": j + 1, "earlier": i + 1, "dimension": d}
                        for j, i, d in failures]})
    return 0 if not failures else 1


def _cmd_filter(ws: Workspace, args) -> int:
    theta = ws.theta_family(args.theta)
    m = ws.rep(args.module)
    if args.oracle:
        member = oracle_filtered(m, theta, Budget())
        _emit({"member": member})
        return 0 if member else 1
    f = decide_filtered(m, theta, Budget())
    if f is None:
        _emit({"member": False})
        return 1
    _emit({"member": True, "filtration": _filtration_doc(f, args.theta)})
    return 0


def _cmd_reorder(ws: Workspace, args) -> int:
    try:
        with open(args.filtration, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "filtration" in doc:
            doc = doc["filtration"]
        f, theta_name = _filtration_from_doc(ws, doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"invalid filtration document: {exc}") from exc
    _emit({"filtration": _filtration_doc(reorder(f), theta_name)})
    return 0


def _approx_doc(res: ApproxResult, theta_name: str) -> dict:
    return {"triangle": _conflation_doc(res.triangle),
            "map": _morphism_doc(res.map),
            "side": res.side,
            "filtered_part": _filtration_doc(res.filtered_part, theta_name)}


def _cmd_approx(ws: Workspace, args, side: str) -> int:
    theta = ws.theta_family(args.theta)
    x = ws.rep(args.module)
    res = preenvelope(x, theta) if side == "envelope" else precover(x, theta)
    doc = _approx_doc(res, args.theta)
    status = 0
    if args.verify:
        if args.max_dim is None:
            raise ValidationError("--verify needs --max-dim for the test objects")
        dims = _parse_max_dim(args.max_dim, ws.quiver)
        tests = enumerate_indecomposables(ws.quiver, ws.p, dims)
        report = (verify_preenvelope(res, tests) if side == "envelope"
                  else verify_precover(res, tests))
        doc["verified"] = report.passed
        doc["report"] = {
            "entries": [{"dim": list(r.dim), "ok": ok} for r, ok in report.entries],
            "skipped": [{"dim": list(r.dim)} for r in report.skipped],
        }
        if not report.passed:
            status = 1
    _emit(doc)
    return status


def _cmd_perp(ws: Workspace, args) -> int:
    theta = ws.theta_family(args.theta)
    dims = _parse_max_dim(args.max_dim, ws.quiver)
    candidates = enumerate_indecomposables(ws.quiver, ws.p, dims)
    members = perp_class(theta, args.side, candidates)
    _emit({"side": args.side, "members": [_rep_doc(m) for m in members]})
    return 0


def _cmd_enumerate(ws: Workspace, args) -> int:
    dims = _parse_max_dim(args.max_dim, ws.quiver)
    classes = enumerate_reps(ws.quiver, ws.p, dims)
    _emit({"count": len(classes), "classes": [_rep_doc(m) for m in classes]})
    return 0


def _cmd_selftest(args) -> int:
    results = run_criteria(seed=args.seed, budget_limit=args.budget)
    _emit({"passed": all(r.passed for r in results),
           "criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                         "detail": r.detail} for r in results]})
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtra",
        description="Filtered quiver representations over prime fields.")
    parser.add_argument("--workspace", "-w", help="workspace file to load")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("hom", help="basis of the morphism space source -> target")
    s.add_argument("source")
    s.add_argument("target")

    s = sub.add_parser("ext", help="dimension and basis of ext(base, coefficient)")
    s.add_argument("base")
    s.add_argument("coefficient")

    s = sub.add_parser("realize", help="conflation realizing an extension class")
    s.add_argument("base")
    s.add_argument("coefficient")
    s.add_argument("--class", dest="cls", default="",
                   help="comma-separated coordinates in the basis printed by ext")

    s = sub.add_parser("check-theta", help="verify the ordering condition of a family")
    s.add_argument("theta")

    s = sub.add_parser("filter", help="decide membership in the filtered class")
    s.add_argument("module")
    s.add_argument("--theta", required=True)
    s.add_argument("--oracle", action="store_true",
                   help="use the brute-force oracle; reports membership only")

    s = sub.add_parser("reorder", help="sort a filtration's labels without changing the object")
    s.add_argument("--filtration", required=True,
                   help="JSON file as printed by the filter command")

    for name in ("preenvelope", "precover"):
        s = sub.add_parser(name, help=f"{name} of a module by a family")
        s.add_argument("module")
        s.add_argument("--theta", required=True)
        s.add_argument("--verify", action="store_true")
        s.add_argument("--max-dim", help="bound for the verification test objects")

    s = sub.add_parser("perp", help="perpendicular class among bounded indecomposables")
    s.add_argument("theta")
    s.add_argument("--side", required=True,
                   choices=["ext-left", "ext-right", "hom-left", "hom-right"])
    s.add_argument("--max-dim", required=True)

    s = sub.add_parser("enumerate", help="isomorphism classes up to a dimension bound")
    s.add_argument("--max-dim", required=True)

    s = sub.add_parser("selftest", help="run the invariant suites")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        if not args.workspace:
            raise ValidationError("--workspace is required for this command")
        with open(args.workspace, "r", encoding="utf-8") as fh:
            ws = parse_workspace(fh.read())
        if args.command == "hom":
            return _cmd_hom(ws, args)
        if args.command == "ext":
            return _cmd_ext(ws, args)
        if args.command == "realize":
            return _cmd_realize(ws, args)
        if args.command == "check-theta":
            return _cmd_check_theta(ws, args)
        if args.command == "filter":
            return _cmd_filter(ws, args)
        if args.command == "reorder":
            return _cmd_reorder(ws, args)
        if args.command == "preenvelope":
            return _cmd_approx(ws, args, "envelope")
        if args.command == "precover":
            return _cmd_approx(ws, args, "cover")
        if args.command == "perp":
            return _cmd_perp(ws, args)
        if args.command == "enumerate":
            return _cmd_enumerate(ws, args)
        raise ValidationError(f"unknown command {args.command!r}")
    except FiltraError as exc:
        _emit({"error": str(exc)})
        return 2
    except OSError as exc:
        _emit({"error": str(exc)})
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
