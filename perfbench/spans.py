"""Spans around calls into filtra's layers, and their fold into per-layer totals.

A Tracer replaces the public functions and methods of each layer module with
wrappers that record one span per call: name, start, end and parent span.
It is installed only in traced rounds and uninstalled afterwards, so untraced
rounds run filtra's own code.  A few wrappers also keep counts (Matrix
constructions, ExtSpace constructions, distinct matrices eliminated).

Spans are kept in flat arrays, written to a results file with save(), and
folded by fold() into additive totals; metrics() turns summed totals into the
per-layer metrics.  Self time is a span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("linalg", "quiverrep", "conflation", "filtration", "approx", "cli")

#: Matrices with at most this many entries count as small eliminations.
RREF_SMALL_ENTRIES = 100

# span groups whose outermost calls are timed inclusively
GROUPS = {
    "iso": ("quiverrep.iso_witness",),
    "indec": ("quiverrep.is_indecomposable",),
    "enum": ("quiverrep.enumerate_indecomposables", "quiverrep.enumerate_reps"),
    "class_of": ("conflation.class_of",),
    "compose": ("conflation.et4_compose", "conflation.et4op_compose"),
    "decide": ("filtration.decide_filtered",),
    "extend": ("filtration.extend",),
    "reorder": ("filtration.reorder",),
    "group": ("filtration.group",),
    "envelope": ("approx.preenvelope",),
    "cover": ("approx.precover",),
    "universal": ("approx.universal_extension_env", "approx.universal_extension_cover"),
    "parse": ("cli.parse_workspace",),
    "main": ("cli.main",),
}

RREF = "linalg.Matrix.rref"
HOM = "quiverrep.hom_space"
ISO = "quiverrep.iso_witness"
EXT = "conflation.ext_space"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.aux = array("q")  # rref: entries of the matrix; iso_witness: 1 if found
        self.stack: list[int] = []
        self.counts = {"matrix_new": 0, "ext_builds": 0}
        self.rref_seen: set[int] = set()
        self.startup_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, aux=None):
        nid = self._name_id(name)
        name_ids, parents, starts, ends, auxs, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.aux, self.stack)
        clock = time.perf_counter
        mark_found = name == ISO

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            auxs.append(aux(args) if aux is not None else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if mark_found:
                    auxs[idx] = int(result is not None)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def _rref_aux(self, args) -> int:
        a = args[0].a
        self.rref_seen.add(hash((args[0].p, a.shape, a.tobytes())))
        return a.size

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules.

        A module-level function is rebound in every filtra module that holds
        it, so calls through `from .x import f` names are traced as well.
        """
        import filtra
        modules = {name: importlib.import_module(f"filtra.{name}") for name in LAYERS}
        holders = [filtra] + [importlib.import_module(f"filtra.{m}") for m in
                              ("linalg", "quiverrep", "conflation", "filtration", "approx",
                               "cli", "selftest")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._span(f"{layer}.{attr}", obj)
                    for holder in holders:
                        if getattr(holder, attr, None) is obj:
                            self._patch(holder, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        self._patch(modules["linalg"].Matrix, "__init__",
                    self._counter("matrix_new", modules["linalg"].Matrix.__init__))
        self._patch(modules["conflation"].ExtSpace, "__init__",
                    self._counter("ext_builds", modules["conflation"].ExtSpace.__init__))

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            aux = self._rref_aux if name == RREF else None
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._span(name, raw, aux))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write spans and counts: <path>.npz holds the arrays, <path>.json the rest."""
        np.savez(path.with_suffix(".npz"),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64),
                 aux=np.frombuffer(self.aux, dtype=np.int64))
        meta = dict(self.counts, names=self.names, rref_distinct=len(self.rref_seen),
                    startup_s=self.startup_s)
        path.with_suffix(".json").write_text(json.dumps(meta))


def load_and_fold(path: Path) -> dict:
    meta = json.loads(path.with_suffix(".json").read_text())
    with np.load(path.with_suffix(".npz")) as arrays:
        return fold(meta, arrays["name_ids"], arrays["parents"], arrays["starts"],
                    arrays["ends"], arrays["aux"])


def fold(meta: dict, name_ids, parents, starts, ends, aux) -> dict:
    """Additive totals of one trace: self times, call counts, group times."""
    names = meta["names"]
    n = len(name_ids)
    dur = ends - starts
    child = np.zeros(n)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    calls = np.bincount(name_ids, minlength=len(names))
    self_by_name = np.bincount(name_ids, weights=self_t, minlength=len(names))
    ids = {name: k for k, name in enumerate(names)}

    def nid(name):
        return ids.get(name, -1)

    totals = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for k, name in enumerate(names):
        totals[f"{name.split('.')[0]}.self_s"] += float(self_by_name[k])

    # bit g of bits[name] is set when the name belongs to group g; anc[i] is
    # the union over the ancestors of span i
    group_names = list(GROUPS)
    bits = np.zeros(len(names) + 1, dtype=np.int64)
    for g, members in enumerate(GROUPS.values()):
        for member in members:
            if member in ids:
                bits[ids[member]] |= 1 << g
    iso_bit = 1 << group_names.index("iso")
    rref_id, hom_id = nid(RREF), nid(HOM)
    ran_rref = np.zeros(n, dtype=bool)
    ids_list = name_ids.tolist()
    parents_list = parents.tolist()
    anc_list = [0] * n
    for i in range(n):
        par = parents_list[i]
        if par >= 0:
            anc_list[i] = anc_list[par] | int(bits[ids_list[par]])
    anc = np.array(anc_list, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        par = parents_list[i]
        if par >= 0 and (ran_rref[i] or ids_list[i] == rref_id):
            ran_rref[par] = True
    span_bits = bits[name_ids] if n else np.zeros(0, dtype=np.int64)
    for g, group in enumerate(group_names):
        outer = ((span_bits >> g) & 1).astype(bool) & ~((anc >> g) & 1).astype(bool)
        totals[f"group.{group}.s"] = float(dur[outer].sum())
        totals[f"group.{group}.calls"] = int(((span_bits >> g) & 1).sum())

    is_rref = name_ids == rref_id
    small = is_rref & (aux <= RREF_SMALL_ENTRIES)
    is_hom = name_ids == hom_id
    is_iso = name_ids == nid(ISO)
    totals.update({
        "rref.calls": int(is_rref.sum()),
        "rref.small_s": float(dur[small].sum()),
        "rref.large_s": float(dur[is_rref & ~small].sum()),
        "rref.distinct": int(meta["rref_distinct"]),
        "matrix.new_calls": int(meta["matrix_new"]),
        "hom.calls": int(is_hom.sum()),
        "hom.self_s": float(self_t[is_hom].sum()),
        "hom.hits": int((is_hom & ~ran_rref).sum()),
        "iso.found": int((is_iso & (aux == 1)).sum()),
        "iso.rref_calls": int((is_rref & ((anc & iso_bit) != 0)).sum()),
        "ext.calls": int(calls[nid(EXT)]) if nid(EXT) >= 0 else 0,
        "ext.self_s": float(self_by_name[nid(EXT)]) if nid(EXT) >= 0 else 0.0,
        "ext.builds": int(meta["ext_builds"]),
        "cli.startup_s": float(meta["startup_s"]),
        "spans": n,
    })
    return totals


def add(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(t: dict) -> dict:
    """Per-layer metrics from summed totals; (value, unit) per name."""
    out = {f"{layer}.self_s": (t.get(f"{layer}.self_s", 0.0), "s") for layer in LAYERS}
    g = lambda name: t.get(name, 0)
    out.update({
        "linalg.rref.calls": (g("rref.calls"), "count"),
        "linalg.rref.small_s": (g("rref.small_s"), "s"),
        "linalg.rref.large_s": (g("rref.large_s"), "s"),
        "linalg.rref.distinct_ratio": (_ratio(g("rref.distinct"), g("rref.calls")), "ratio"),
        "linalg.matrix.new_calls": (g("matrix.new_calls"), "count"),
        "quiverrep.hom_space.calls": (g("hom.calls"), "count"),
        "quiverrep.hom_space.self_s": (g("hom.self_s"), "s"),
        "quiverrep.hom_space.hit_ratio": (_ratio(g("hom.hits"), g("hom.calls")), "ratio"),
        "quiverrep.iso_witness.calls": (g("group.iso.calls"), "count"),
        "quiverrep.iso_witness.s": (g("group.iso.s"), "s"),
        "quiverrep.iso_witness.rref_calls": (g("iso.rref_calls"), "count"),
        "quiverrep.iso_witness.found_ratio": (_ratio(g("iso.found"), g("group.iso.calls")),
                                              "ratio"),
        "quiverrep.is_indecomposable.calls": (g("group.indec.calls"), "count"),
        "quiverrep.is_indecomposable.s": (g("group.indec.s"), "s"),
        "quiverrep.enumerate.s": (g("group.enum.s"), "s"),
        "conflation.ext_space.calls": (g("ext.calls"), "count"),
        "conflation.ext_space.self_s": (g("ext.self_s"), "s"),
        "conflation.ext_space.build_ratio": (_ratio(g("ext.builds"), g("ext.calls")), "ratio"),
        "conflation.class_of.calls": (g("group.class_of.calls"), "count"),
        "conflation.class_of.s": (g("group.class_of.s"), "s"),
        "conflation.compose.calls": (g("group.compose.calls"), "count"),
        "conflation.compose.s": (g("group.compose.s"), "s"),
        "filtration.decide.s": (g("group.decide.s"), "s"),
        "filtration.decide.nodes": (g("decide.nodes"), "count"),
        "filtration.extend.s": (g("group.extend.s"), "s"),
        "filtration.reorder.s": (g("group.reorder.s"), "s"),
        "filtration.group.s": (g("group.group.s"), "s"),
        "approx.envelope.s": (g("group.envelope.s"), "s"),
        "approx.cover.s": (g("group.cover.s"), "s"),
        "approx.universal_extension.s": (g("group.universal.s"), "s"),
        "cli.startup_s": (g("cli.startup_s"), "s"),
        "cli.parse_s": (g("group.parse.s"), "s"),
        "cli.main.s": (g("group.main.s"), "s"),
    })
    return out
