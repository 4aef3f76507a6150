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
omitted matrices are zero.  Every error in a workspace is a ParseError at
its line and at the token it concerns, counted from 1 for the directive.  All output documents are JSON with sorted keys,
so identical invocations print byte-identical text.  Exit status is 0 on
success, 1 for a negative membership or verification answer, 2 on errors.

Each command imports the layers it runs inside its handler, so a process
compiles and loads only those: enumerate needs no module past quiverrep,
and only selftest loads the selftest suites.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import FiltraError, ParseError, ValidationError, clear_caches, searching
from .linalg import Matrix, PrimeField
from .quiverrep import (Quiver, RepMorphism, Representation, ThetaFamily,
                        enumerate_indecomposables, enumerate_reps, hom_space)

if TYPE_CHECKING:
    from .approx import ApproxResult
    from .conflation import Conflation
    from .filtration import Filtration

__all__ = ["Workspace", "parse_workspace", "main"]

# bound on every dim entry, in workspaces and filtration documents alike: one
# vertex this large already needs a Hom system with 2**30 unknowns.  The
# vertex count of a workspace is held below it too.
_DIM_LIMIT = 2 ** 15


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


# -- workspace parsing ---------------------------------------------------------


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            out.append((lineno, tokens))
    return out


def parse_workspace(text: str) -> Workspace:
    """Parse the line format; every error is a ParseError at the token it concerns."""
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

    # the line being read; token 0 is its directive, in column 1
    lineno, tokens = 0, []

    def error(k: int, message: str) -> ParseError:
        return ParseError(message, lineno, k + 1)

    def integer(k: int, what: str, low: Optional[int] = None, high: int = 0) -> int:
        """Token k as an integer, refused outside low..high when low is given."""
        try:
            v = int(tokens[k])
        except ValueError:
            raise error(k, f"{what} must be an integer, got {tokens[k]!r}") from None
        if low is not None and not low <= v <= high:
            raise error(k, f"{what} {v} is too {'large' if v > high else 'small'} "
                           f"(must be in {low}..{high})")
        return v

    def arity(n: int, what: str, first: int = 1) -> None:
        """Refuse unless n tokens stand from token `first` on; the error is at
        the first surplus token, or just past the last one if some are missing."""
        got = len(tokens) - first
        if got != n:
            raise error(first + min(got, n), f"{tokens[0]} takes {what}, got {got}")

    def built(k: int, make, *args):
        """make(*args); what the library refuses there is a ParseError at token k."""
        try:
            return make(*args)
        except FiltraError as exc:
            raise error(k, str(exc)) from exc

    def finish_quiver() -> Quiver:
        nonlocal quiver
        if quiver is None:
            if p is None:
                raise error(0, "field must be declared first")
            if nverts is None:
                raise error(0, "vertices must be declared first")
            quiver = built(0, Quiver.from_edges, nverts, arrows)
        return quiver

    def finish_rep() -> None:
        nonlocal rep_name, rep_dim, rep_maps
        if rep_name is None:
            return
        if rep_dim is None:
            raise ParseError(f"rep {rep_name} has no dim line", rep_line, 1)
        reps[rep_name] = built(0, Representation.from_dict, quiver, p, rep_dim, rep_maps)
        rep_name, rep_dim, rep_maps = None, None, {}

    for lineno, tokens in _tokenize(text):
        head, args = tokens[0], tokens[1:]
        if head == "field":
            if p is not None:
                raise error(0, "field declared twice")
            arity(1, "one argument")
            p = built(1, PrimeField, integer(1, "field modulus")).p
        elif head == "vertices":
            if nverts is not None:
                raise error(0, "vertices declared twice")
            arity(1, "one argument")
            nverts = integer(1, "vertex count", 1, _DIM_LIMIT - 1)
        elif head == "arrow":
            if quiver is not None:
                raise error(0, "arrows must precede representations")
            if nverts is None:
                raise error(0, "vertices must be declared before arrows")
            arity(3, "a name, a source and a target")
            if any(a[0] == args[0] for a in arrows):
                raise error(1, f"duplicate arrow name {args[0]!r}")
            arrows.append((args[0], integer(2, "arrow source", 1, nverts) - 1,
                           integer(3, "arrow target", 1, nverts) - 1))
        elif head == "rep":
            arity(1, "one name")
            finish_quiver()
            finish_rep()
            if args[0] in reps:
                raise error(1, f"duplicate representation name {args[0]!r}")
            rep_name, rep_line = args[0], lineno
        elif head == "dim":
            if rep_name is None:
                raise error(0, "dim outside of a rep block")
            if rep_dim is not None:
                raise error(0, f"rep {rep_name} has two dim lines")
            arity(nverts, "one entry per vertex")
            rep_dim = tuple(integer(k, "dimension", 0, _DIM_LIMIT - 1)
                            for k in range(1, len(tokens)))
        elif head == "mat":
            if rep_name is None:
                raise error(0, "mat outside of a rep block")
            if rep_dim is None:
                raise error(0, "mat before the dim line")
            if len(args) < 3:
                raise error(len(tokens), "mat takes an arrow name, rows, cols and entries")
            name = args[0]
            arrow = next((a for a in quiver.arrows if a.name == name), None)
            if arrow is None:
                raise error(1, f"unknown arrow {name!r}")
            if name in rep_maps:
                raise error(1, f"arrow {name} given twice in rep {rep_name}")
            shape = (rep_dim[arrow.target], rep_dim[arrow.source])
            rows, cols = integer(2, "row count"), integer(3, "column count")
            if (rows, cols) != shape:
                raise error(2 if rows != shape[0] else 3,
                            f"arrow {name}: expected a {shape[0]}x{shape[1]} matrix, "
                            f"got {rows}x{cols}")
            arity(rows * cols, f"{rows}x{cols} entries", first=4)
            rep_maps[name] = Matrix(p, [integer(k, "entry") % p for k in range(4, len(tokens))],
                                    shape=shape)
        elif head == "theta":
            finish_quiver()
            finish_rep()
            if len(args) < 2:
                raise error(len(tokens), "theta takes a name and at least one member")
            name = args[0]
            if name in thetas:
                raise error(1, f"duplicate theta name {name!r}")
            for k in range(2, len(tokens)):
                if tokens[k] not in reps:
                    raise error(k, f"unknown representation {tokens[k]!r} in theta {name}")
            thetas[name] = tuple(args[1:])
        else:
            raise error(0, f"unknown directive {head!r}")

    # the end of the text closes what is still open, on the line past the last
    lineno, tokens = len(text.splitlines()) + 1, []
    finish_quiver()
    finish_rep()
    return Workspace(p, quiver, reps, thetas)


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


def _integer(x, what: str) -> int:
    """x itself if it is an int; JSON booleans and strings are not, though the
    library would read a boolean as 0 or 1."""
    if type(x) is not int:
        raise ValidationError(f"{what} {json.dumps(x)} is not an integer")
    return x


def _entries(data):
    """Matrix data of a JSON document, every leaf checked by _integer; the
    shape is Matrix's to check."""
    if isinstance(data, list):
        return [_entries(row) for row in data]
    return _integer(data, "entry")


def _rep_from_doc(ws: Workspace, doc: dict) -> Representation:
    dim = [_integer(d, "dimension") for d in doc["dim"]]
    if max(dim, default=0) >= _DIM_LIMIT:
        raise ValidationError(f"dimension {max(dim)} is too large (at most {_DIM_LIMIT - 1})")
    if not isinstance(doc["maps"], dict):
        raise ValidationError("maps must map arrow names to matrices")
    return Representation.from_dict(ws.quiver, ws.p, dim,
                                    {name: _entries(data) for name, data in doc["maps"].items()})


def _morphism_from_doc(p: int, data, source: Representation,
                       target: Representation) -> RepMorphism:
    return RepMorphism(source, target, [Matrix(p, _entries(entries),
                                               shape=(target.dim[v], source.dim[v]))
                                        for v, entries in enumerate(data)])


def _filtration_from_doc(ws: Workspace, doc: dict) -> tuple[Filtration, str]:
    from .conflation import Conflation
    from .filtration import Filtration, FiltrationStep
    theta_name = doc["theta"]
    theta = ws.theta_family(theta_name)
    steps = []
    for k, sdoc in enumerate(doc["steps"], start=1):
        try:
            sub, middle, quotient = [_rep_from_doc(ws, sdoc[key])
                                     for key in ("sub", "middle", "quotient")]
            x = _morphism_from_doc(ws.p, sdoc["inflation"], sub, middle)
            y = _morphism_from_doc(ws.p, sdoc["deflation"], middle, quotient)
            label = _integer(sdoc["label"], "label") - 1
            if not 0 <= label < len(theta):
                raise ValidationError(f"label {label + 1} outside the family")
            witness = _morphism_from_doc(ws.p, sdoc["witness"], quotient, theta[label])
            steps.append(FiltrationStep(Conflation(sub, middle, quotient, x, y),
                                        label, witness))
        except FiltraError as exc:
            raise ValidationError(f"step {k}: {exc}") from exc
    return Filtration(theta, steps), theta_name


# -- commands --------------------------------------------------------------------


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _integers(raw: str, option: str) -> list[int]:
    """The comma-separated integers of an option's value; none for an empty one."""
    try:
        return [int(x) for x in raw.split(",")] if raw else []
    except ValueError:
        raise ValidationError(f"{option} entries must be integers") from None


def _cmd_hom(ws: Workspace, args) -> int:
    basis = hom_space(ws.rep(args.source), ws.rep(args.target))
    _emit({"dimension": len(basis), "basis": [_morphism_doc(f) for f in basis]})
    return 0


def _cmd_ext(ws: Workspace, args) -> int:
    from .conflation import ext_space
    space = ext_space(ws.rep(args.base), ws.rep(args.coefficient))
    basis = [{a.name: g.entries for a, g in zip(ws.quiver.arrows, cocycles)}
             for cocycles in space.basis_cocycles()]
    _emit({"dimension": space.dimension, "basis": basis})
    return 0


def _cmd_realize(ws: Workspace, args) -> int:
    from .conflation import ext_space, realize
    space = ext_space(ws.rep(args.base), ws.rep(args.coefficient))
    _emit(_conflation_doc(realize(space.element(_integers(args.cls, "--class")))))
    return 0


def _cmd_check_theta(ws: Workspace, args) -> int:
    members = ws.theta_members(args.theta)
    ThetaFamily.check_members(members)
    failures = ThetaFamily.ordering_failures(members)
    _emit({"valid": not failures,
           "failures": [{"later": j + 1, "earlier": i + 1, "dimension": d}
                        for j, i, d in failures]})
    return 0 if not failures else 1


def _cmd_filter(ws: Workspace, args) -> int:
    from .filtration import decide_filtered, oracle_filtered
    theta = ws.theta_family(args.theta)
    m = ws.rep(args.module)
    if args.oracle:
        member = oracle_filtered(m, theta)
        _emit({"member": member})
        return 0 if member else 1
    f = decide_filtered(m, theta)
    if f is None:
        _emit({"member": False})
        return 1
    _emit({"member": True, "filtration": _filtration_doc(f, args.theta)})
    return 0


def _not_an_integer(text: str):
    raise ValueError(f"{text} is not an integer")


def _cmd_reorder(ws: Workspace, args) -> int:
    from .filtration import reorder
    try:
        with open(args.filtration, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_not_an_integer, parse_constant=_not_an_integer)
        if "filtration" in doc:
            doc = doc["filtration"]
        f, theta_name = _filtration_from_doc(ws, doc)
    except (KeyError, TypeError, IndexError, ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid filtration document: {exc}") from exc
    _emit({"filtration": _filtration_doc(reorder(f), theta_name)})
    return 0


def _approx_doc(res: ApproxResult, theta_name: str) -> dict:
    return {"triangle": _conflation_doc(res.triangle),
            "map": _morphism_doc(res.map),
            "side": res.side,
            "filtered_part": _filtration_doc(res.filtered_part, theta_name)}


def _cmd_approx(ws: Workspace, args) -> int:
    from .approx import precover, preenvelope, verify
    theta = ws.theta_family(args.theta)
    module = ws.rep(args.module)
    # a usage error is refused before the approximation is built
    if args.verify:
        if args.max_dim is None:
            raise ValidationError("--verify needs --max-dim for the test objects")
        dims = _integers(args.max_dim, "--max-dim")
    build = preenvelope if args.command == "preenvelope" else precover
    res = build(module, theta)
    doc = _approx_doc(res, args.theta)
    status = 0
    if args.verify:
        tests = enumerate_indecomposables(ws.quiver, ws.p, dims)
        report = verify(res, tests)
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
    from .approx import perp_class
    theta = ws.theta_family(args.theta)
    dims = _integers(args.max_dim, "--max-dim")
    candidates = enumerate_indecomposables(ws.quiver, ws.p, dims)
    members = perp_class(theta, args.side, candidates)
    _emit({"side": args.side, "members": [_rep_doc(m) for m in members]})
    return 0


def _cmd_enumerate(ws: Workspace, args) -> int:
    dims = _integers(args.max_dim, "--max-dim")
    classes = enumerate_reps(ws.quiver, ws.p, dims)
    _emit({"count": len(classes), "classes": [_rep_doc(m) for m in classes]})
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_criteria
    results = run_criteria(seed=args.seed)
    _emit({"passed": all(r.passed for r in results),
           "criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                         "detail": r.detail} for r in results]})
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ValidationErrors, so main prints them
    as an error document; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="filtra",
        description="Filtered quiver representations over prime fields.")
    parser.add_argument("--workspace", "-w", help="workspace file to load")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("hom", help="basis of the morphism space source -> target")
    s.set_defaults(run=_cmd_hom)
    s.add_argument("source")
    s.add_argument("target")

    s = sub.add_parser("ext", help="dimension and basis of ext(base, coefficient)")
    s.set_defaults(run=_cmd_ext)
    s.add_argument("base")
    s.add_argument("coefficient")

    s = sub.add_parser("realize", help="conflation realizing an extension class")
    s.set_defaults(run=_cmd_realize)
    s.add_argument("base")
    s.add_argument("coefficient")
    s.add_argument("--class", dest="cls", default="",
                   help="comma-separated coordinates in the basis printed by ext")

    s = sub.add_parser("check-theta", help="verify the ordering condition of a family")
    s.set_defaults(run=_cmd_check_theta)
    s.add_argument("theta")

    s = sub.add_parser("filter", help="decide membership in the filtered class")
    s.set_defaults(run=_cmd_filter)
    s.add_argument("module")
    s.add_argument("--theta", required=True)
    s.add_argument("--oracle", action="store_true",
                   help="use the brute-force oracle; reports membership only")

    s = sub.add_parser("reorder", help="sort a filtration's labels without changing the object")
    s.set_defaults(run=_cmd_reorder)
    s.add_argument("--filtration", required=True,
                   help="JSON file as printed by the filter command")

    for name in ("preenvelope", "precover"):
        s = sub.add_parser(name, help=f"{name} of a module by a family")
        s.set_defaults(run=_cmd_approx)
        s.add_argument("module")
        s.add_argument("--theta", required=True)
        s.add_argument("--verify", action="store_true")
        s.add_argument("--max-dim", help="bound for the verification test objects")

    s = sub.add_parser("perp", help="perpendicular class among bounded indecomposables")
    s.set_defaults(run=_cmd_perp)
    s.add_argument("theta")
    s.add_argument("--side", required=True,
                   choices=["ext-left", "ext-right", "hom-left", "hom-right"])
    s.add_argument("--max-dim", required=True)

    s = sub.add_parser("enumerate", help="isomorphism classes up to a dimension bound")
    s.set_defaults(run=_cmd_enumerate)
    s.add_argument("--max-dim", required=True)

    s = sub.add_parser("selftest", help="run the invariant suites")
    s.set_defaults(run=_cmd_selftest)
    s.add_argument("--seed", type=int, default=0)

    return parser


def _run(args) -> int:
    if args.command == "selftest":
        return args.run(args)
    if not args.workspace:
        raise ValidationError("--workspace is required for this command")
    try:
        with open(args.workspace, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"workspace {args.workspace} is not UTF-8: {exc}") from None
    return args.run(parse_workspace(text), args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command from empty caches under one search budget (FILTRA_BUDGET, if set)."""
    clear_caches()
    try:
        args = build_parser().parse_args(argv)
        with searching():
            return _run(args)
    except (FiltraError, OSError, MemoryError, RecursionError) as exc:
        _emit({"error": str(exc) or type(exc).__name__})
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
