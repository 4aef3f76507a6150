"""Check that a fixed sweep of commands enters every function of filtra.

    PYTHONPATH=src python tools/reach.py

runs, in this process and under a call trace (sys.settrace):

- on each tests/data/*.ws: hom, ext and realize on its first two
  representations, enumerate at the all-ones bound, and for each family
  check-theta, perp on all four sides, filter of every representation
  (with reorder of each filtration it prints), preenvelope and precover with
  --verify at the all-ones bound, and one filter --oracle;
- reorder of tests/data/a3_unordered.json;
- enumerate --max-dim 2,2 on the Kronecker quiver at p = 2, the one command
  that reaches the idempotent scan of the split search;
- four refused inputs: a malformed workspace, a command with a missing
  argument, a filtration document holding 1.5, and filter --oracle under
  FILTRA_BUDGET=1;
- selftest --seed 0, filtra.Quiver and dir(filtra).

A function counts as entered when the trace sees a call of a code object
whose file, first line and name are those of its definition (the first line
of a decorated function is that of its first decorator).  The tool prints
every function that was never entered, with the allowlist reason of each
allowed one, and exits 1 if a function outside ALLOWED was never entered or
if an entry of ALLOWED names no function.  It exits 2, and judges nothing,
if a command of the sweep other than the refused inputs exits 2.  The trace
hook slows the run several times over, so this runs as its own process, not
in the test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import filtra
from filtra.cli import main, parse_workspace

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
PACKAGE = Path(filtra.__file__).resolve().parent

_DEBUG = "kept for debugging"
_AXIOM = "an extriangulated operation whose laws the tests check, kept public"

# qualified name -> why the sweep may leave it unentered
ALLOWED = {
    **{f"{name}.__repr__": _DEBUG for name in (
        "conflation.Conflation", "conflation.ExtSpace", "filtration.Filtration",
        "filtration.GroupedFiltration", "linalg.Matrix", "quiverrep.Representation",
        "quiverrep.RepMorphism", "quiverrep.ThetaFamily")},
    "linalg.Matrix.__setattr__": "the immutability guard, which runs only on misuse",
    **{f"conflation.{name}": _AXIOM for name in (
        "complete_square", "shift_base", "connecting_map", "conflation_direct_sum",
        "conflations_equivalent")},
    "quiverrep.is_indecomposable":
        "public and documented; perfbench's indec span group times it",
    "filtration.GroupedFiltration._check_step":
        "runs only with check=True; filtra builds with check=False and "
        "tests/test_trusted.py validates what it builds",
}

_KRONECKER_P2 = "field 2\nvertices 2\narrow a 1 2\narrow b 1 2\n"
_SIDES = ("ext-left", "ext-right", "hom-left", "hom-right")


def definitions() -> dict[tuple[str, int, str], str]:
    """(file, line, name) of each def of the package -> its qualified name.

    Each def is keyed by its own line and by the line of every decorator.
    """
    found: dict[tuple[str, int, str], str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualified = prefix + child.name
                    for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                        found[str(path), line, child.name] = f"{module}.{qualified}"
                    visit(child, qualified + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


class Sweep:
    """Runs CLI commands in this process, capturing what they print."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.commands = 0
        self.misfired: list[str] = []  # commands whose error status was not the planned one

    def run(self, *argv: str, refused: bool = False) -> tuple[int, str]:
        self.commands += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(list(argv))
        if (status == 2) != refused:
            self.misfired.append(f"filtra {' '.join(argv)} exited {status}")
        return status, out.getvalue()

    def write(self, name: str, text: str) -> str:
        path = self.scratch / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def workspace(self, path: Path, reps: list[str], thetas: list[str], vertices: int) -> None:
        ws = str(path)
        ones = ",".join("1" * vertices)
        first, second = reps[0], reps[min(1, len(reps) - 1)]
        self.run("-w", ws, "hom", first, second)
        _, ext_doc = self.run("-w", ws, "ext", first, second)
        ones_class = ",".join("1" * json.loads(ext_doc)["dimension"])
        self.run("-w", ws, "realize", first, second, "--class", ones_class)
        self.run("-w", ws, "enumerate", "--max-dim", ones)
        for theta in thetas:
            self.run("-w", ws, "check-theta", theta)
            for side in _SIDES:
                self.run("-w", ws, "perp", theta, "--side", side, "--max-dim", ones)
            for rep in reps:
                status, doc = self.run("-w", ws, "filter", rep, "--theta", theta)
                if status == 0:
                    self.run("-w", ws, "reorder", "--filtration", self.write("f.json", doc))
                for command in ("preenvelope", "precover"):
                    self.run("-w", ws, command, rep, "--theta", theta, "--verify",
                             "--max-dim", ones)
            self.run("-w", ws, "filter", reps[0], "--theta", theta, "--oracle")

    def refusals(self) -> None:
        self.run("-w", self.write("bad.ws", "vertices 1\n"), "enumerate", "--max-dim", "1",
                 refused=True)
        self.run("-w", str(DATA / "a2.ws"), "hom", "S1", refused=True)
        unordered = json.loads((DATA / "a3_unordered.json").read_text(encoding="utf-8"))
        unordered["steps"][0]["label"] = 1.5
        self.run("-w", str(DATA / "a3.ws"), "reorder",
                 "--filtration", self.write("float.json", json.dumps(unordered)), refused=True)
        os.environ["FILTRA_BUDGET"] = "1"
        try:
            self.run("-w", str(DATA / "a2f3.ws"), "filter", "P1", "--theta", "full", "--oracle",
                     refused=True)
        finally:
            del os.environ["FILTRA_BUDGET"]


def run_sweep(sweep: Sweep) -> set:
    plans = []
    for path in sorted(DATA.glob("*.ws")):
        ws = parse_workspace(path.read_text(encoding="utf-8"))
        plans.append((path, list(ws.reps), list(ws.thetas), ws.quiver.vertex_count))
    seen: set = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)  # a global hook sees only calls; None skips line events

    sys.settrace(hook)
    try:
        filtra.Quiver  # the package's name lookup on first use (PEP 562)
        dir(filtra)
        for plan in plans:
            sweep.workspace(*plan)
        sweep.run("-w", str(DATA / "a3.ws"), "reorder", "--filtration",
                  str(DATA / "a3_unordered.json"))
        sweep.run("-w", sweep.write("kronecker.ws", _KRONECKER_P2),
                  "enumerate", "--max-dim", "2,2")
        sweep.refusals()
        sweep.run("selftest", "--seed", "0")
    finally:
        sys.settrace(None)
    return seen


def main_reach() -> int:
    names = definitions()
    with tempfile.TemporaryDirectory() as scratch:
        sweep = Sweep(Path(scratch))
        seen = run_sweep(sweep)
    if sweep.misfired:
        print("reach: the sweep is broken, so it proves nothing:", *sweep.misfired, sep="\n  ")
        return 2
    entered = {names.get((os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name))
               for code in seen}
    every = set(names.values())
    unentered = sorted(every - entered)
    print(f"reach: {sweep.commands} commands, {len(every) - len(unentered)} of {len(every)} "
          f"functions entered")
    failed = False
    for name in unentered:
        if name in ALLOWED:
            print(f"allowed    {name}: {ALLOWED[name]}")
        else:
            print(f"UNENTERED  {name}")
            failed = True
    for name in sorted(set(ALLOWED) - every):
        print(f"STALE      {name}: allowlisted, but the package defines no such function")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main_reach())
