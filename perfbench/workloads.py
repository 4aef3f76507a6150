"""The four workloads: seeded rounds of operations and the checks of their answers.

A workload builds round r of its operation list from (seed, r) alone, with
the benchmark's own input code, and wraps the inputs into filtra objects
before any operation of the round is timed.  Every round has the same
operations in the same order; only the seeded contents differ.  check()
runs after the timed part and returns a list of problems.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import filtra as F
import numpy as np

import checks
from inputs import (A2, A3, D4, KRONECKER, QSpec, Raw, change_basis, direct_sum,
                    filtration_chain, iterated_extension, random_rep, rng_for, simple,
                    standard_family)


@dataclass
class Op:
    kind: str
    run: object          # callable taking no arguments, returns the answer
    ctx: tuple           # what the check needs besides the answer


_quivers: dict[QSpec, F.Quiver] = {}


def quiver(q: QSpec) -> F.Quiver:
    if q not in _quivers:
        _quivers[q] = F.Quiver.from_edges(q.n, q.arrows)
    return _quivers[q]


def rep(q: QSpec, p: int, raw: Raw) -> F.Representation:
    return F.Representation(quiver(q), p, raw.dim, [F.Matrix(p, m) for m in raw.maps])


def morphism(p: int, source, target, comps) -> F.RepMorphism:
    return F.RepMorphism(source, target, [F.Matrix(p, c) for c in comps])


class Workload:
    name = ""
    #: a run of S seconds does ceil(S * rounds_per_second) rounds, about
    #: 0.8 S of operation time on a 2-vCPU Xeon at 2.1 GHz
    rounds_per_second = 1.0
    #: percentile reported as op_tail_ms; a run has at least min_ops operations
    tail_pct = 90
    #: traced runs alternate untraced and traced rounds, trace_rounds of each
    trace_rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.trace_dir: Path | None = None   # set for traced runs
        self.last_nodes = 0   # search nodes spent by the last operation (filter)

    @property
    def min_ops(self) -> int:
        return -(-10 * 100 // (100 - self.tail_pct))

    def prepare(self) -> None:
        """Wrap the inputs shared by all rounds (families, workspaces)."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, records) -> list[str]:
        raise NotImplementedError


# -- homext ---------------------------------------------------------------------------

class HomExt(Workload):
    """hom_space and ext_space of distinct random representations of one
    dimension vector per quiver: large eliminations, no cache hits."""

    name = "homext"
    rounds_per_second = 1.5
    tail_pct = 90
    trace_rounds = 12
    p = 3
    shapes = ((KRONECKER, (8, 8)), (D4, (9, 5, 5, 5)))
    per_round = 8

    def round(self, r):
        rng = rng_for(self.seed, self.name, r)
        ops = []
        for i in range(self.per_round):
            q, dim = self.shapes[i % len(self.shapes)]
            m, n = random_rep(q, self.p, dim, rng), random_rep(q, self.p, dim, rng)
            M, N = rep(q, self.p, m), rep(q, self.p, n)
            ops.append(Op(q.name, lambda M=M, N=N: (F.hom_space(M, N), F.ext_space(M, N).dimension),
                          (q, m, n)))
        return ops

    def check(self, records):
        problems = []
        for op, (basis, ext_dimension) in records:
            q, m, n = op.ctx
            comps = [[c.a for c in f.components] for f in basis]
            problems += checks.check_hom_ext(q, self.p, m, n, comps, ext_dimension)
        return problems


# -- filter ---------------------------------------------------------------------------

class Filter(Workload):
    """decide_filtered in one process over A2/A3 at p = 2, 3 with the standard
    families; members are scrambled iterated extensions, non-members carry a
    summand outside the family's filtered class."""

    name = "filter"
    rounds_per_second = 13
    tail_pct = 90
    trace_rounds = 60
    specs = ((A2, 2), (A2, 3), (A3, 2), (A3, 3))
    kinds = {A2: ("simples", "s1p1"), A3: ("simples", "two", "s1p1")}
    lengths = {"simples": (3, 4), "two": (3, 4), "s1p1": (2, 3)}
    members_per_round = {"simples": 1, "two": 1, "s1p1": 2}
    #: the first rounds use one stream for every seed: the memo of
    #: decide_filtered keeps the first representative of each iso class, and
    #: those representatives set the cost of every later memo lookup
    fixed_rounds = 60

    def prepare(self):
        self.families = {}
        for q, p in self.specs:
            for kind in self.kinds[q]:
                members = standard_family(q, kind)
                self.families[q, p, kind] = (members, F.ThetaFamily([rep(q, p, m) for m in members]))

    def round(self, r):
        rng = rng_for("fixed" if r < self.fixed_rounds else self.seed, self.name, r)
        ops = []
        for q, p in self.specs:
            for kind in self.kinds[q]:
                members = self.families[q, p, kind][0]
                for _ in range(self.members_per_round[kind]):
                    labels = [rng.randrange(len(members))
                              for _ in range(rng.randint(*self.lengths[kind]))]
                    built = iterated_extension(q, p, [members[i] for i in labels], rng)
                    ops.append(self._decide(q, p, kind, True, built, rng))
                if kind == "s1p1":
                    # a summand S_v (v > 1) makes the module a non-member; the
                    # extra S1 keeps the dimension vector feasible
                    core = members[rng.randrange(2)]
                    extra = [simple(q, v) for v in range(1, q.n)] + [simple(q, 0)]
                    ops.append(self._decide(q, p, kind, False, direct_sum(q, [core] + extra), rng))
        return ops

    def _decide(self, q, p, kind, member, raw, rng) -> Op:
        module, _, _ = change_basis(q, p, raw, rng)
        theta = self.families[q, p, kind][1]
        m = rep(q, p, module)

        def run():
            budget = F.Budget()
            result = F.decide_filtered(m, theta, budget)
            self.last_nodes = budget.used
            return result

        return Op(f"{q.name}/p{p}/{kind}", run, (q, p, kind, member, module, m))

    def check(self, records):
        problems = []
        for op, f in records:
            q, p, kind, member, module, m = op.ctx
            members, theta = self.families[q, p, kind]
            if f is None:
                if member:
                    problems.append(f"{op.kind}: iterated extension got no filtration")
                elif F.oracle_filtered(m, theta, F.Budget()):
                    problems.append(f"{op.kind}: the oracle finds a filtration that decide missed")
                continue
            problems += [f"{op.kind}: {x}" for x in checks.check_filtration(
                module, checks.raw_of(f.top), f.labels, [mm.dim for mm in members])]
        return problems


# -- approx ---------------------------------------------------------------------------

class Approx(Workload):
    """preenvelope and precover over A3 and D4 (direct powers of simples and
    scrambled iterated extensions), plus reorder and group of unordered
    filtrations over A2 and A3."""

    name = "approx"
    rounds_per_second = 2.25
    tail_pct = 90
    trace_rounds = 10
    specs = ((A3, 2), (A3, 3), (D4, 2), (D4, 3))
    kinds = ("simples", "two", "s1p1")
    filtration_specs = ((A2, 2), (A3, 2), (A2, 3), (A3, 3))
    generic_dims = {A3: (4, 4, 4), D4: (5, 3, 3, 3)}

    def prepare(self):
        self.families = {}
        for q, p in self.specs + self.filtration_specs:
            for kind in self.kinds:
                if (q, p, kind) not in self.families:
                    members = standard_family(q, kind)
                    self.families[q, p, kind] = (
                        members, F.ThetaFamily([rep(q, p, m) for m in members]))

    def round(self, r):
        rng = rng_for(self.seed, self.name, r)
        ops = []
        for q, p in self.specs:
            power = direct_sum(q, [simple(q, rng.randrange(q.n))] * rng.randint(1, 4))
            parts = [simple(q, rng.randrange(q.n)) for _ in range(rng.randint(5, 9))]
            scrambled, _, _ = change_basis(q, p, iterated_extension(q, p, parts, rng), rng)
            generic = random_rep(q, p, self.generic_dims[q], rng)
            for raw in (power, scrambled, generic):
                kind = self.kinds[rng.randrange(len(self.kinds))]
                x, theta = rep(q, p, raw), self.families[q, p, kind][1]
                ops.append(Op(f"approximate/{q.name}/p{p}",
                              lambda x=x, theta=theta: (F.preenvelope(x, theta), F.precover(x, theta)),
                              (q, p, kind, raw)))
        for q, p in self.filtration_specs:
            kind = ("simples", "s1p1")[rng.randrange(2)]
            members, theta = self.families[q, p, kind]
            labels = [rng.randrange(len(members)) for _ in range(rng.randint(5, 8))]
            f = self._filtration(q, p, theta, members, labels, rng)
            ops.append(Op(f"reorder/{q.name}/p{p}", lambda f=f: self._reorder_group(f),
                          (q, p, f)))
        return ops

    @staticmethod
    def _reorder_group(f):
        ordered = F.reorder(f)
        return ordered, F.group(ordered)

    @staticmethod
    def _filtration(q, p, theta, members, labels, rng) -> F.Filtration:
        steps = []
        for (sub, mid, x, y), label in zip(filtration_chain(q, p, members, labels, rng), labels):
            A, B, C = rep(q, p, sub), rep(q, p, mid), theta[label]
            c = F.Conflation(A, B, C, morphism(p, A, B, x), morphism(p, B, C, y))
            steps.append(F.FiltrationStep(c, label, F.RepMorphism.identity(C)))
        return F.Filtration(theta, steps)

    def check(self, records):
        problems = []
        for op, result in records:
            if op.kind.startswith("reorder"):
                problems += self._check_reorder(op, *result)
                continue
            q, p, kind, raw = op.ctx
            members = self.families[q, p, kind][0]
            for side, res in zip(("envelope", "cover"), result):
                tri = res.triangle
                A, B, C = (checks.raw_of(o) for o in (tri.A, tri.B, tri.C))
                found = checks.check_approximation(
                    q, p, side, raw, members, A, B, C,
                    [m.a for m in tri.x.components], [m.a for m in tri.y.components])
                found += checks.check_filtration(A if side == "cover" else C,
                                                 checks.raw_of(res.filtered_part.top),
                                                 res.filtered_part.labels,
                                                 [m.dim for m in members])
                problems += [f"{op.kind} {side}: {msg}" for msg in found]
        return problems

    @staticmethod
    def _check_reorder(op, ordered, grouped):
        _, _, f = op.ctx
        top = checks.raw_of(f.top)
        expanded = [s.label for s in grouped.steps for _ in range(s.multiplicity)]
        found = checks.check_reordered(top, f.labels, checks.raw_of(ordered.top),
                                       ordered.labels, strict=False)
        found += checks.check_reordered(top, f.labels, checks.raw_of(grouped.top),
                                        expanded, strict=True)
        return [f"{op.kind}: {msg}" for msg in found]


# -- cli ------------------------------------------------------------------------------

def workspace_text(q: QSpec, p: int, reps: dict[str, Raw], thetas: dict[str, list[str]]) -> str:
    lines = [f"field {p}", f"vertices {q.n}"]
    lines += [f"arrow {name} {s + 1} {t + 1}" for name, s, t in q.arrows]
    for name, raw in reps.items():
        lines += [f"rep {name}", "dim " + " ".join(map(str, raw.dim))]
        for (arrow, _, _), m in zip(q.arrows, raw.maps):
            if m.size:
                lines.append(f"mat {arrow} {m.shape[0]} {m.shape[1]} "
                             + " ".join(str(int(v)) for v in m.reshape(-1)))
    lines += [f"theta {name} " + " ".join(members) for name, members in thetas.items()]
    return "\n".join(lines) + "\n"


class Cli(Workload):
    """Fresh `python -m filtra` processes running enumerate, perp and
    preenvelope/precover --verify on small workspaces at p = 2."""

    name = "cli"
    rounds_per_second = 0.25
    tail_pct = 75
    trace_rounds = 2
    p = 2
    enumerate_bounds = {A3: ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1)),
                        KRONECKER: ((1, 1), (1, 2), (2, 1), (2, 2)),
                        D4: ((1, 1, 1, 1), (2, 1, 1, 1))}
    perp_bounds = {A3: ((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)),
                   D4: ((1, 1, 1, 1), (2, 1, 1, 1))}
    verify_bounds = {A3: ((1, 1, 1), (2, 1, 1), (1, 2, 1)), KRONECKER: ((1, 1), (1, 2)),
                     D4: ((1, 1, 1, 1),)}
    plan = ("enumerate", "perp", "verify", "enumerate", "perp", "verify",
            "enumerate", "perp", "verify", "enumerate", "perp", "verify")
    traced = False   # set by the runner for traced rounds

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        root = Path.cwd()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer_entry = str(Path(__file__).resolve().parent / "cli_trace.py")
        self.trace_files: list[Path] = []

    def minimal_invocation(self) -> float:
        """Seconds for one `python -m filtra ext` on a two-vertex workspace."""
        path = self.workdir / "minimal.ws"
        if not path.exists():
            q = A2
            path.write_text(workspace_text(q, 2, {"S1": simple(q, 0), "S2": simple(q, 1)}, {}))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "filtra", "-w", str(path), "ext", "S1", "S2"],
                              env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or json.loads(proc.stdout)["dimension"] != 1:
            raise RuntimeError(f"minimal invocation failed: {proc.stderr.decode()[-500:]}")
        return elapsed

    def round(self, r):
        rng = rng_for(self.seed, self.name, r)
        ops = []
        for i, what in enumerate(self.plan):
            table = {"enumerate": self.enumerate_bounds, "perp": self.perp_bounds,
                     "verify": self.verify_bounds}[what]
            q = list(table)[rng.randrange(len(table))]
            bound = table[q][rng.randrange(len(table[q]))]
            kind = ("simples", "two", "s1p1", "s1")[rng.randrange(4)]
            members = standard_family(q, kind)
            reps = {f"T{k + 1}": m for k, m in enumerate(members)}
            thetas = {"fam": list(reps)}
            bound_arg = ",".join(map(str, bound))
            if what == "enumerate":
                args = ["enumerate", "--max-dim", bound_arg]
                ctx = (q, what, bound)
            elif what == "perp":
                side = ("ext-left", "ext-right", "hom-left", "hom-right")[rng.randrange(4)]
                args = ["perp", "fam", "--side", side, "--max-dim", bound_arg]
                ctx = (q, what, bound, members, side)
            else:
                parts = [simple(q, rng.randrange(q.n)) for _ in range(rng.randint(1, 3))]
                module, _, _ = change_basis(q, self.p, iterated_extension(q, self.p, parts, rng), rng)
                reps["M"] = module
                side = ("preenvelope", "precover")[rng.randrange(2)]
                args = [side, "M", "--theta", "fam", "--verify", "--max-dim", bound_arg]
                ctx = (q, what, bound, members, side, module)
            path = self.workdir / f"r{r}-{i}.ws"
            path.write_text(workspace_text(q, self.p, reps, thetas))
            ops.append(Op(f"{what}/{q.name}", self._runner(r, i, ["-w", str(path)] + args), ctx))
        return ops

    def _runner(self, r, i, argv):
        def run():
            if self.traced:
                trace = self.trace_dir / f"r{r}-{i}"
                self.trace_files.append(trace)
                cmd = [sys.executable, self.tracer_entry, str(trace)] + argv
                env = dict(self.env, PERFBENCH_LAUNCH=repr(time.monotonic()))
            else:
                cmd, env = [sys.executable, "-m", "filtra"] + argv, self.env
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
            return json.loads(proc.stdout)
        return run

    def check(self, records):
        problems = []
        for n, (op, doc) in enumerate(records):
            q, what, bound = op.ctx[:3]
            rng = rng_for(self.seed, self.name, "check", n)
            if what == "enumerate":
                expected = checks.count_classes(q, self.p, bound)
                if doc["count"] != expected or len(doc["classes"]) != expected:
                    problems.append(f"{op.kind} {bound}: {doc['count']} classes, "
                                    f"root count gives {expected}")
            elif what == "perp":
                members, side = op.ctx[3:]
                listed = [checks.raw_from_doc(d, q) for d in doc["members"]]
                problems += [f"{op.kind} {side} {bound}: {msg}" for msg in
                             checks.check_perp(q, self.p, listed, members, side, bound, rng)]
            else:
                members, side, module = op.ctx[3:]
                tri = doc["triangle"]
                A, B, C = (checks.raw_from_doc(tri[k], q) for k in ("sub", "middle", "quotient"))
                x = [np.asarray(c, dtype=np.int64).reshape(B.dim[v], A.dim[v])
                     for v, c in enumerate(tri["inflation"])]
                y = [np.asarray(c, dtype=np.int64).reshape(C.dim[v], B.dim[v])
                     for v, c in enumerate(tri["deflation"])]
                found = [] if doc.get("verified") is True else ["--verify did not report true"]
                found += checks.check_approximation(
                    q, self.p, "envelope" if side == "preenvelope" else "cover",
                    module, members, A, B, C, x, y)
                problems += [f"{op.kind} {side}: {msg}" for msg in found]
        return problems

WORKLOADS = {w.name: w for w in (HomExt, Filter, Approx, Cli)}
