"""Workspace parsing and the command surface."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import filtra
from filtra import (ParseError, Quiver, Representation, ThetaFamily, ValidationError, cli,
                    decide_filtered, direct_sum, errors)
from filtra.cli import main, parse_workspace

DATA = Path(__file__).parent / "data"
A2_WS = str(DATA / "a2.ws")
A2_F3_WS = str(DATA / "a2f3.ws")
A3_WS = str(DATA / "a3.ws")
A2_POW_WS = str(DATA / "a2pow.ws")
KRON3_WS = str(DATA / "kron3.ws")
MID3_WS = str(DATA / "mid3.ws")
D4_F3_WS = str(DATA / "d4f3.ws")
A3_UNORDERED = str(DATA / "a3_unordered.json")

MINIMAL = """\
field 2
vertices 2
arrow a 1 2
rep S1
dim 1 0
rep S2
dim 0 1
rep P1
dim 1 1
mat a 1 1 1
theta full S1 S2
"""


def run(capsys, *argv):
    status = main(list(argv))
    return status, json.loads(capsys.readouterr().out)


def test_minimal_workspace_parses():
    ws = parse_workspace(MINIMAL)
    assert ws.p == 2
    assert len(ws.reps) == 3
    assert ws.reps["P1"].dim == (1, 1)
    assert ws.reps["P1"].maps[0].entries == [[1]]
    assert ws.thetas["full"] == ("S1", "S2")


def test_comments_and_blank_lines_ignored():
    ws = parse_workspace("# header\n\nfield 2 # trailing\nvertices 1\nrep X\ndim 2\n")
    assert ws.reps["X"].dim == (2,)


def test_non_prime_field_rejected():
    with pytest.raises(ValidationError, match="prime"):
        parse_workspace("field 4\nvertices 1\n")


def test_cyclic_quiver_rejected():
    with pytest.raises(ValidationError, match="acyclic"):
        parse_workspace("field 2\nvertices 2\narrow a 1 2\narrow b 2 1\nrep X\ndim 1 1\n")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_workspace("field 2\nvertices 2\narrow a 1 2\nrep X\ndim 1 1\nmat a 2 2 1 0 0 1\n")
    assert info.value.line == 6
    assert "expected a 1x1 matrix" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_workspace("field 2\nbogus 1\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        parse_workspace("field 2\nvertices 2\nrep X\ndim 1\n")
    assert info.value.line == 4
    # dimensions are bounded like the field modulus, at the offending entry
    assert parse_workspace("field 2\nvertices 1\nrep X\ndim 32767\n").reps["X"].dim == (32767,)
    with pytest.raises(ParseError, match="too large") as info:
        parse_workspace("field 2\nvertices 2\nrep X\ndim 1 32768\n")
    assert (info.value.line, info.value.column) == (4, 3)
    # and so is the vertex count, before any list of that length is made
    assert parse_workspace("field 2\nvertices 32767\n").quiver.vertex_count == 32767
    with pytest.raises(ParseError, match="vertex count 32768 is too large") as info:
        parse_workspace("field 2\nvertices 32768\n")
    assert (info.value.line, info.value.column) == (2, 2)


_HEAD = "field 2\nvertices 2\narrow a 1 2\n"


@pytest.mark.parametrize("text, position, message", [
    ("field 4\nvertices 1\n", (1, 2), "prime"),
    (_HEAD + "arrow a 1 2\n", (4, 2), "duplicate arrow name 'a'"),
    # a cycle shows when the quiver closes: at the first rep, or past the text
    (_HEAD + "arrow b 2 1\nrep X\ndim 1 1\n", (5, 1), "acyclic"),
    (_HEAD + "arrow b 2 1\n", (5, 1), "acyclic"),
    ("field 2\nvertices 2\narrow a 1 3\n", (3, 4), "arrow target 3"),
    ("field 2\nvertices 2\nrep X\ndim 1 -1\n", (4, 3), "dimension -1"),
    (_HEAD + "rep X\ndim 2 1\nmat a 1 1 1\n", (6, 4), "expected a 1x2 matrix"),
    (_HEAD + "rep X\ndim 1 1\nmat a 2 1 1 0\n", (6, 3), "expected a 1x1 matrix"),
    (_HEAD + "rep X\ndim 1 1\nmat a 1 1 1 0\n", (6, 6), "mat takes 1x1 entries, got 2"),
    ("field 2\nvertices 1\nrep X\ndim 1\nrep X\n", (5, 2), "duplicate representation"),
    ("field 2\nvertices 1\nrep X\ndim 1\ntheta t X\ntheta t X\n", (6, 2), "duplicate theta"),
    ("field 2\nvertices 1\nrep X\ndim 1\ntheta t X Y X\n", (5, 4), "unknown representation 'Y'"),
    ("vertices 1\n", (2, 1), "field must be declared first"),
])
def test_workspace_errors_name_their_token(text, position, message):
    # the column counts tokens, the directive being column 1
    with pytest.raises(ParseError, match=message) as info:
        parse_workspace(text)
    assert (info.value.line, info.value.column) == position
    assert str(info.value).startswith(f"line {position[0]}, column {position[1]}: ")


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_workspace("field 2\nvertices 1\nrep X\ndim 1\nrep X\ndim 1\n")


def test_cli_ext_worked_example(capsys):
    status, doc = run(capsys, "-w", A2_WS, "ext", "S1", "S2")
    assert status == 0
    assert doc["dimension"] == 1
    assert doc["basis"] == [{"a": [[1]]}]


def test_cli_filter_worked_example(capsys):
    status, doc = run(capsys, "-w", A2_WS, "filter", "S2", "--theta", "full")
    assert status == 0
    assert doc["member"] is True
    assert len(doc["filtration"]["steps"]) == 1
    assert doc["filtration"]["steps"][0]["label"] == 2


def test_cli_preenvelope_worked_example(capsys):
    status, doc = run(capsys, "-w", A2_WS, "preenvelope", "S2", "--theta", "full",
                      "--verify", "--max-dim", "3,3")
    assert status == 0
    assert doc["verified"] is True
    assert doc["triangle"]["middle"]["dim"] == [1, 1]


@pytest.mark.parametrize("command", ["preenvelope", "precover"])
def test_cli_verify_usage_errors_are_refused_before_the_build(capsys, monkeypatch, command):
    import filtra.approx

    def unreachable(module, theta):
        raise AssertionError("the approximation was built")

    monkeypatch.setattr(filtra.approx, command, unreachable)
    status, doc = run(capsys, "-w", A2_WS, command, "S2", "--theta", "full", "--verify")
    assert status == 2
    assert doc == {"error": "--verify needs --max-dim for the test objects"}
    status, doc = run(capsys, "-w", A2_WS, command, "S2", "--theta", "full",
                      "--verify", "--max-dim", "3,x")
    assert status == 2
    assert doc == {"error": "--max-dim entries must be integers"}


@pytest.mark.parametrize("command, module", [("preenvelope", "S2"), ("precover", "S1")])
def test_cli_verify_failure_exits_1(capsys, monkeypatch, command, module):
    # an approximation map that induces no onto map fails every test object
    import filtra.approx

    monkeypatch.setattr(filtra.approx, "_induced_onto", lambda f, test, side: False)
    status, doc = run(capsys, "-w", A2_WS, command, module, "--theta", "full",
                      "--verify", "--max-dim", "3,3")
    assert status == 1
    assert doc["verified"] is False
    entries = doc["report"]["entries"]
    assert entries and all(entry["ok"] is False for entry in entries)


def test_cli_filter_nonmember_exits_1(capsys):
    status, doc = run(capsys, "-w", A2_WS, "filter", "S2", "--theta", "mixed")
    assert status == 1
    assert doc["member"] is False


def test_cli_oracle_flag(capsys):
    status, doc = run(capsys, "-w", A2_WS, "filter", "P1", "--theta", "mixed",
                      "--oracle")
    assert status == 0
    assert doc == {"member": True}


def test_cli_check_theta(capsys, tmp_path):
    status, doc = run(capsys, "-w", A2_WS, "check-theta", "full")
    assert status == 0 and doc["valid"] is True
    bad = tmp_path / "bad.ws"
    bad.write_text(MINIMAL + "theta rev S2 S1\n")
    status, doc = run(capsys, "-w", str(bad), "check-theta", "rev")
    assert status == 1
    assert doc["failures"] == [{"later": 2, "earlier": 1, "dimension": 1}]
    # a zero member is refused as by every command that builds the family
    bad.write_text(MINIMAL + "rep Z\ndim 0 0\ntheta t S1 Z\n")
    refused = run(capsys, "-w", str(bad), "filter", "S1", "--theta", "t")
    assert refused == (2, {"error": "theta members must be nonzero"})
    assert run(capsys, "-w", str(bad), "check-theta", "t") == refused


def test_cli_realize_round_trip(capsys):
    status, doc = run(capsys, "-w", A2_WS, "realize", "S1", "S2", "--class", "1")
    assert status == 0
    assert doc["middle"]["dim"] == [1, 1]
    assert doc["middle"]["maps"]["a"] == [[1]]
    status, doc = run(capsys, "-w", A2_WS, "realize", "S1", "S2", "--class", "1,1")
    assert status == 2
    assert "coordinates" in doc["error"]


def test_cli_reorder_from_file(capsys, tmp_path):
    status, doc = run(capsys, "-w", A2_WS, "filter", "P1", "--theta", "full")
    assert status == 0
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    status, doc = run(capsys, "-w", A2_WS, "reorder", "--filtration", str(path))
    assert status == 0
    labels = [s["label"] for s in doc["filtration"]["steps"]]
    assert labels == sorted(labels, reverse=True)


@pytest.mark.parametrize("case", ["malformed json", "non-integer dim", "maps as a list",
                                  "entry past int64", "max-dim past int64",
                                  "selftest budget 0", "selftest budget -1",
                                  "huge dim", "huge dim at one vertex", "out of memory",
                                  "infinite label", "fractional dim",
                                  "huge dim in a document", "boolean label", "string dim",
                                  "boolean entry", "dense kernel past memory",
                                  "dense system past memory", "deeply nested document",
                                  "unknown arrow name"])
def test_cli_bad_input_never_raises(capsys, monkeypatch, tmp_path, case):
    ws = tmp_path / "a2.ws"
    ws.write_text(MINIMAL)
    if case in ("huge dim", "huge dim at one vertex"):
        # numpy refuses these shapes before allocating anything
        if case == "huge dim":
            ws.write_text("field 2\nvertices 2\narrow a 1 2\nrep X\ndim 10000000000 10000000000\n")
            commands = ["hom"]
        else:
            ws.write_text("field 2\nvertices 1\nrep X\ndim 10000000000\n")
            commands = ["hom", "ext"]
        for command in commands:
            status, doc = run(capsys, "-w", str(ws), command, "X", "X")
            assert status == 2
            assert list(doc) == ["error"]
        return
    if case == "dense kernel past memory":
        # no arrow, no equation: Hom(X, X) is all 90000 matrix units, Ext(X, X) is 0
        ws.write_text("field 2\nvertices 1\nrep X\ndim 300\n")
        assert run(capsys, "-w", str(ws), "ext", "X", "X") == (0, {"dimension": 0, "basis": []})
        status, doc = run(capsys, "-w", str(ws), "hom", "X", "X")
        assert status == 2
        assert doc["error"].startswith("kernel basis of 90000 x 90000 entries is too large")
        return
    if case == "dense system past memory":
        ws.write_text("field 2\nvertices 2\narrow a 1 2\narrow b 1 2\nrep X\ndim 200 200\n")
        for command in ("hom", "ext"):
            status, doc = run(capsys, "-w", str(ws), command, "X", "X")
            assert status == 2
            assert doc["error"].startswith("intertwiner system of 80000 x 80000 entries")
        return
    if case == "entry past int64":
        # entries are residues mod p, so the workspace is valid and reads as entry 1
        expected = run(capsys, "-w", str(ws), "hom", "P1", "P1")
        ws.write_text(MINIMAL.replace("mat a 1 1 1", "mat a 1 1 99999999999999999999999"))
        assert run(capsys, "-w", str(ws), "hom", "P1", "P1") == expected
        return
    if case == "out of memory":
        def exhausted(m, n):
            raise MemoryError("Unable to allocate")
        monkeypatch.setattr(cli, "hom_space", exhausted)
        status, doc = run(capsys, "-w", str(ws), "hom", "P1", "P1")
    elif case == "max-dim past int64":
        # no natural bound rejects it: listing its dimension vectors overruns the budget
        status, doc = run(capsys, "-w", str(ws), "enumerate",
                          "--max-dim", "99999999999999999999,1")
    elif case.startswith("selftest budget"):
        # FILTRA_BUDGET is the one budget setting; each criterion reads it
        limit = case.split()[-1]
        monkeypatch.setenv("FILTRA_BUDGET", limit)
        status, doc = run(capsys, "selftest")
        assert doc == {"error": f"the search budget (FILTRA_BUDGET) must be positive, got {limit}"}
    else:
        status, doc = run(capsys, "-w", str(ws), "filter", "P1", "--theta", "full")
        assert status == 0
        step, second = doc["filtration"]["steps"]
        if case == "non-integer dim":
            step["sub"]["dim"] = ["one", 0]
        elif case == "maps as a list":
            step["middle"]["maps"] = [[[1]]]
        elif case == "infinite label":
            step["label"] = float("inf")  # written as Infinity, which json reads back
        elif case == "fractional dim":
            step["sub"]["dim"] = [0.5, 0]
        elif case == "huge dim in a document":
            step["sub"]["dim"] = [2 ** 61, 0]
        # the next three read as the step's own values under int()
        elif case == "boolean label":
            second["label"] = True
        elif case == "string dim":
            second["sub"]["dim"] = [0, "1"]
        elif case == "boolean entry":
            second["middle"]["maps"]["a"] = [[True]]
        elif case == "unknown arrow name":
            second["sub"]["maps"]["zz"] = [[5, 5], [7]]
        path = tmp_path / "f.json"
        path.write_text({"malformed json": "{not json",
                         "deeply nested document": "[" * 100000 + "]" * 100000,
                         }.get(case, json.dumps(doc)))
        status, doc = run(capsys, "-w", str(ws), "reorder", "--filtration", str(path))
    assert status == 2
    assert list(doc) == ["error"]
    if case == "huge dim in a document":
        assert "at most 32767" in doc["error"]
    if case in ("boolean label", "string dim", "boolean entry"):
        assert doc["error"].endswith("is not an integer")
    if case == "unknown arrow name":
        assert doc["error"] == "step 2: unknown arrow names ['zz']"


def test_cli_precover(capsys):
    status, doc = run(capsys, "-w", A2_WS, "precover", "S1", "--theta", "full",
                      "--verify", "--max-dim", "3,3")
    assert status == 0
    assert doc["verified"] is True
    assert doc["triangle"]["sub"]["dim"] == [0, 1]


def test_cli_perp(capsys):
    status, doc = run(capsys, "-w", A2_WS, "perp", "full", "--side", "ext-right",
                      "--max-dim", "3,3")
    assert status == 0
    assert [m["dim"] for m in doc["members"]] == [[1, 0], [1, 1]]


def test_cli_enumerate(capsys):
    status, doc = run(capsys, "-w", A2_WS, "enumerate", "--max-dim", "2,2")
    assert status == 0
    assert doc["count"] == 14 and len(doc["classes"]) == 14


def test_cli_unknown_name_exits_2(capsys):
    status, doc = run(capsys, "-w", A2_WS, "hom", "NOPE", "S1")
    assert status == 2
    assert "unknown representation" in doc["error"]


def test_cli_missing_workspace_exits_2(capsys):
    status, doc = run(capsys, "ext", "S1", "S2")
    assert status == 2
    assert "workspace" in doc["error"]


def test_cli_workspace_not_utf8_exits_2(capsys, tmp_path):
    ws = tmp_path / "bad.ws"
    ws.write_bytes(b"# \xff\xfe\n" + MINIMAL.encode())
    status, doc = run(capsys, "-w", str(ws), "hom", "S1", "S1")
    assert status == 2
    assert list(doc) == ["error"]
    assert str(ws) in doc["error"] and "UTF-8" in doc["error"]


@pytest.mark.parametrize("argv, message", [
    (["-w", A2_WS, "hom"], "the following arguments are required: source, target"),
    (["selftest", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["-w", A2_WS, "hom", "S1", "S2", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["selftest", "--budget", "5"], "unrecognized arguments: --budget 5"),
    # one reader for the comma-separated integers of --class and --max-dim
    (["-w", A2_WS, "realize", "S1", "S2", "--class", "x"], "--class entries must be integers"),
    (["-w", A2_WS, "enumerate", "--max-dim", "1.5,1"], "--max-dim entries must be integers"),
    (["-w", A2_WS, "enumerate", "--max-dim", "1"], "expected 2 vertex dimensions, got 1"),
])
def test_cli_usage_errors_print_an_error_document(capsys, argv, message):
    # main returns 2 with one error document on stdout, as for any other error
    assert run(capsys, *argv) == (2, {"error": message})
    assert capsys.readouterr().err == ""


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["hom", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: filtra hom")


def test_cli_filter_over_f3(capsys, tmp_path):
    # runs before test_cli_budget_env, whose filter cases must not reuse this decision
    ws = tmp_path / "a2f3.ws"
    ws.write_text(MINIMAL.replace("field 2", "field 3"))
    status, doc = run(capsys, "-w", str(ws), "filter", "P1", "--theta", "full")
    assert status == 0
    assert doc["member"] is True


def test_too_deep_a_decision_is_an_error_document(capsys, tmp_path):
    # the peel of S^400 by S takes 400 steps of three frames each, past the
    # default recursion limit; the traceback once exited 1, the code of a
    # non-member
    ws = tmp_path / "point.ws"
    ws.write_text("field 2\nvertices 1\nrep M\ndim 400\nrep S\ndim 1\ntheta t S\n")
    status, doc = run(capsys, "-w", str(ws), "filter", "M", "--theta", "t")
    assert status == 2
    assert list(doc) == ["error"] and "recursion" in doc["error"]


def test_enumerate_deep_sums(capsys, tmp_path):
    # S^1100 on one vertex: the sums nest 1100 deep
    ws = tmp_path / "point.ws"
    ws.write_text("field 2\nvertices 1\n")
    status, doc = run(capsys, "-w", str(ws), "enumerate", "--max-dim", "1100")
    assert status == 0
    assert [c["dim"] for c in doc["classes"]] == [[k] for k in range(1101)]


@pytest.mark.parametrize("command", [
    "enumerate --max-dim 1,1",
    "perp full --side ext-right --max-dim 1,1",
    "preenvelope S2 --theta full --verify --max-dim 1,1",
    "precover S1 --theta full --verify --max-dim 1,1",
    "filter P1 --theta full --oracle",
    "filter P1 --theta full",
], ids=["enumerate", "perp", "preenvelope --verify", "precover --verify",
        "filter --oracle", "filter"])
def test_cli_budget_env(capsys, monkeypatch, tmp_path, command, clear_caches):
    # empty memos, so the search runs whatever the process decided before
    clear_caches()
    ws = tmp_path / "a2f3.ws"
    ws.write_text(MINIMAL.replace("field 2", "field 3"))
    monkeypatch.setenv("FILTRA_BUDGET", "1")
    status, doc = run(capsys, "-w", str(ws), *command.split())
    assert status == 2
    assert "budget of 1" in doc["error"]


def test_every_cross_call_store_is_registered(capsys):
    # a module-level dict, set or functools cache would outlive clear_caches()
    stray, stores = [], []
    for info in pkgutil.iter_modules(filtra.__path__):
        module = importlib.import_module(f"filtra.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and (isinstance(value, (dict, set))
                                              or hasattr(value, "cache_clear")):
                stray.append(f"{info.name}.{name}")
            if hasattr(value, "store") and getattr(value, "__module__", None) == module.__name__:
                stores.append(f"{info.name}.{name}")
    assert stray == []
    # each errors.cached store, pinned: a new one must show the traffic it
    # serves (CHANGES.md gives the hits and misses of each on the benchmark)
    assert sorted(stores) == ["conflation.ext_space", "filtration._dim_feasible",
                              "filtration._search", "filtration.power_filtration",
                              "quiverrep._hom_kernel", "quiverrep.direct_power"]
    assert len(errors._stores) == len(stores)
    assert main(["-w", A2_F3_WS, "filter", "X", "--theta", "mixed"]) == 0
    capsys.readouterr()
    assert any(errors._stores)
    errors.clear_caches()
    assert not any(errors._stores)


# the public names of the package, as its __init__ imported them eagerly
PACKAGE_NAMES = [
    "Budget", "BudgetExceeded", "DimensionMismatch", "ExtObstruction", "FiltraError",
    "ParseError", "ValidationError", "ZeroExt", "default_budget", "Matrix", "PrimeField",
    "Arrow", "Quiver", "RepMorphism", "Representation", "ThetaFamily", "direct_sum",
    "direct_power", "enumerate_indecomposables", "enumerate_reps", "enumerate_subreps",
    "euler_pairing", "hom_space", "is_indecomposable", "is_isomorphic", "iso_key",
    "iso_witness", "Conflation", "ExtClass", "ExtSpace", "SplitWitness",
    "class_of", "complete_square", "conflation_direct_sum", "conflations_equivalent",
    "connecting_map", "et4_compose", "et4op_compose", "ext_space", "is_split", "pullback",
    "pushforward", "realize", "shift_base", "Filtration", "FiltrationStep",
    "GroupedFiltration", "GroupedStep", "collapse", "decide_filtered", "exchange", "extend",
    "group", "in_add", "multiplicities", "oracle_filtered", "power_filtration", "reorder",
    "star_membership", "transport_top", "ApproxResult", "VerifyReport", "is_theta_injective",
    "is_theta_projective", "perp_class", "precover", "preenvelope",
    "universal_extension_cover", "universal_extension_env", "verify",
]


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports filtra from this checkout."""
    src = str(Path(filtra.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_load_only_their_layers():
    loaded = json.loads(_fresh_python(f"""
import contextlib, io, json, sys
from filtra import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["-w", {A3_WS!r}, "enumerate", "--max-dim", "1,1,1"]) == 0
print(json.dumps(sorted(sys.modules)))
"""))
    assert "filtra.quiverrep" in loaded
    for name in ("selftest", "approx", "filtration", "conflation"):
        assert f"filtra.{name}" not in loaded


def test_package_names_resolve_on_first_use():
    out = _fresh_python(f"""
import sys
import filtra
names = {PACKAGE_NAMES!r}
assert filtra.__all__ == names, filtra.__all__
assert set(names) <= set(dir(filtra))
assert [m for m in sys.modules if m.startswith("filtra.")] == []
star = {{}}
exec("from filtra import *", star)
assert sorted(set(star) - {{"__builtins__"}}) == sorted(names)
for name in names:
    assert getattr(filtra, name) is star[name] is not None, name
try:
    filtra.no_such_name
except AttributeError as exc:
    print(exc)
""")
    assert out == "module 'filtra' has no attribute 'no_such_name'\n"


def test_dir_lists_every_public_name():
    listed = dir(filtra)
    assert listed == sorted(listed) and set(PACKAGE_NAMES) <= set(listed)


def test_cli_output_is_deterministic(capsys):
    main(["-w", A2_WS, "enumerate", "--max-dim", "2,2"])
    first = capsys.readouterr().out
    main(["-w", A2_WS, "enumerate", "--max-dim", "2,2"])
    assert capsys.readouterr().out == first


# sha256 of stdout.  The first seven were taken before the Hom scans were
# batched: the printed epimorphisms are the first hits of the decide_filtered
# peel, Y's decision by the mixed family peels sub-modules isomorphic to
# earlier ones, and the others run the split and iso scans.  The last four pin
# the staircases of universal extensions and their compositions that
# preenvelope and precover print.
PINNED = [
    (A2_F3_WS, "filter X --theta mixed", 0,
     "d727538477164566c6dde73092a5d45b81a66c88b3fbf83560442915dfcb44af"),
    (A2_F3_WS, "filter X --theta full", 0,
     "47bd0074b1486597529243ea8e50378625f9d765caa11aa319c49871a20801a6"),
    (A2_F3_WS, "filter Y --theta mixed", 1,
     "d02ba242cb261c22fe7573813011af3d4e223e42a9f0063c557965ef3c1de603"),
    (A2_F3_WS, "filter Y --theta full", 0,
     "05260d8d38c2d632cd6ab4a507034ffc6cb4fc8dd55c04aa714005c9e3d99ec4"),
    (A3_WS, "enumerate --max-dim 2,2,1", 0,
     "c3ba4d6c9303f1e785169283a0ac10e2b5bd5a82d4322bed0cfe2ac7890abbb4"),
    (A3_WS, "perp mixed --side ext-right --max-dim 2,2,1", 0,
     "9e23c3b5883beeda5807c05aec9d352afeca69c9b2b8826f784263e218cc01f9"),
    (A3_WS, "preenvelope S3 --theta full --verify --max-dim 2,2,1", 0,
     "ff8c85f1eb8e9f241f1b037ca198567abef03e8b81330f2aed9f35281bb35313"),
    (A2_F3_WS, "preenvelope X --theta full", 0,
     "e70e700545e0254d0ab864d94728044ff50aef6c16139074fea5cf329afc9bb8"),
    (A2_F3_WS, "precover Y --theta full", 0,
     "60969c885a26cdccb2c25e212679cb97bd8461176c980df3162d9c67293023d9"),
    (A2_F3_WS, "preenvelope Y --theta mixed", 0,
     "29b5dc1aefce6db13bffc85679e4949a3027680ab0aa403f2d32c69479f5307d"),
    (A2_F3_WS, "precover X --theta mixed", 0,
     "55545588be60ca58c90109aa1c6f57eb88257cdc4257b185503cc043682a560a"),
    # Hom and Ext of one pair, each eliminated afresh: every main() starts from
    # empty caches
    (A2_F3_WS, "hom X Y", 0,
     "455005267870947a01a0aec0c746248e267a2cc77599caeec19b3ba844e6376b"),
    (A2_F3_WS, "ext X Y", 0,
     "1b4998d8d1aeccb781e767d34b53f4bb4455440fe137bed889c1706f3ae2abe0"),
    (A2_F3_WS, "ext Y X", 0,
     "dc77bfe9864d61f6d1f4b50b6612c61895659e48870bdda6015334d7de09ed4b"),
    (A2_F3_WS, "realize X Y --class 1", 0,
     "93dcf17ac8514ac3eb222905155f25c5bfc4fe5b55d6428c0da9ee9213d8f18a"),
    (A3_WS, "ext S2 S3", 0,
     "eb171e3c7b05fa4f22b2439b7f5008d5ddae5dfe4075b97ffbec71e4e5ddfc74"),
    # the block builder behind realize, Conflation.split, direct_sum and direct_power
    (A3_WS, "realize S1 S2 --class 1", 0,
     "59828189de5fbbc14840b15045bf7cc2c6225386cd31dbd3fbe2206fa4034ec2"),
    (A3_WS, "precover S1 --theta full --verify --max-dim 2,2,1", 0,
     "5634de46d023ea7642f2f7ce1b3c6532379bfec33a8f79e59f2479dbc81bfa40"),
    (A2_WS, "enumerate --max-dim 3,3", 0,
     "55b2c4ed44fe3f8dc5f5d3d78a9300091cde731d84e7ab57456b1d79583a6055"),
    # a filtration layer of multiplicity 2: labels [1, 1] and [2, 2]
    (A2_POW_WS, "preenvelope T --theta full", 0,
     "a1c12abd71a217d3b526af957814b8d1bfb0fb05e8f8feb94735b4e4d53b8f93"),
    (A2_POW_WS, "precover U --theta full", 0,
     "bdbdd1b68bc8df38a0730e972d5982d594912bf9a39824f714c426c7d998e7ff"),
    # Hom systems past 100 entries with arrows out of the first vertex, which
    # quiverrep._hom_rref eliminates as one block: the Kronecker quiver at (4, 4),
    # and a first vertex with an arrow in and an arrow out (ext does not reach it)
    (KRON3_WS, "hom X Y", 0,
     "23192a1e08736dc6f8f38d8e27d720b1b601b3ce917ef078f9660474f6a4cedf"),
    (KRON3_WS, "hom Y X", 0,
     "242b3f3ba66e91103702a3b5d84f039c971514553b843d9ce4199d1bd8ecebde"),
    (KRON3_WS, "ext X Y", 0,
     "3195a6be3574fd656051f3984b20a2eb1de6cd6fb10aada99452019b46dd6c01"),
    (KRON3_WS, "ext Y X", 0,
     "08abc5ae2a0d7549716d1b5e3ddadfcc80ff2eb72d8adb6275cd071e205d040f"),
    (MID3_WS, "hom X Y", 0,
     "e747b6b27adefdae7183ed3d9aead60c8b6d3a0174571d59a8843d5e64ae4f41"),
    (MID3_WS, "hom Y X", 0,
     "a7e63903d20eb8f3ef161db29b797ff32958ec1948e0b4cee3ff5b3a13997c33"),
    (MID3_WS, "ext X Y", 0,
     "dc77bfe9864d61f6d1f4b50b6612c61895659e48870bdda6015334d7de09ed4b"),
    (MID3_WS, "ext Y X", 0,
     "dc77bfe9864d61f6d1f4b50b6612c61895659e48870bdda6015334d7de09ed4b"),
    # enumeration of Dynkin quivers at p = 3, taken from the full walk before
    # it read Gabriel's theorem (9-11 s and 3-4 s there): A2, A3 with vertex 1
    # in the middle, and the test objects of perp and --verify on D4
    (A2_F3_WS, "enumerate --max-dim 3,3", 0,
     "55b2c4ed44fe3f8dc5f5d3d78a9300091cde731d84e7ab57456b1d79583a6055"),
    (MID3_WS, "enumerate --max-dim 2,2,2", 0,
     "79c867291f2ee37b5e503ea99e74dbea0e7af2a15935a2400b3b8df2520a08ff"),
    (D4_F3_WS, "perp two --side ext-right --max-dim 2,1,1,1", 0,
     "54bf5d566129754e432b461f9d7934ea60a5e3671553b339fc60b2ee96bcba27"),
    (D4_F3_WS, "preenvelope X --theta two --verify --max-dim 2,1,1,1", 0,
     "4373f518e56d30b012c24f9574a59314bf7ad6b7fdcea624074401e7425d776d"),
    (D4_F3_WS, "precover X --theta arms --verify --max-dim 2,1,1,1", 0,
     "a46d7301da12081deb313e7ac284f0038f982549d3489dc039a37b797954bdfc"),
    # seven steps over A3 at p = 2 labelled 2, 2, 1, 3, 3, 2, 3 from the bottom, some
    # with scrambled middles: eleven exchanges, each an (ET4) and an (ET4)^op composition
    (A3_WS, f"reorder --filtration {A3_UNORDERED}", 0,
     "501e6f800829410de62dd409e3e27fb5141420aba4a7b6b3a02b53891450b0c8"),
]


def test_cli_stdout_pinned(capsys):
    for ws, command, expected_status, digest in PINNED:
        status = main(["-w", ws] + command.split())
        out = capsys.readouterr().out
        assert (status, hashlib.sha256(out.encode()).hexdigest()) == (expected_status, digest), command


def test_cli_output_ignores_earlier_work_in_the_process(capsys):
    # deciding a module isomorphic to X first fills the memo, which the
    # command, starting with empty caches, must not read
    a2 = Quiver.from_edges(2, [("a", 0, 1)])
    s1, p1 = Representation.simple(a2, 3, 0), Representation.projective(a2, 3, 0)
    x = direct_sum(direct_sum(p1, p1).rep, s1).rep
    assert decide_filtered(x, ThetaFamily((s1, p1))) is not None
    ws, command, expected_status, digest = PINNED[0]
    status = main(["-w", ws] + command.split())
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == (expected_status, digest)


REP_NAMES = ("S1", "S2", "P1", "X")
ARROW_NAMES = ("a", "b", "c")


@st.composite
def _workspace_texts(draw):
    """Workspace text from the grammar's own directives with random arguments,
    with two representation names and a family name to run commands on.

    The lines follow the documented order with arguments that usually fit,
    so most texts parse; about one token in sixteen is replaced by a wrong
    one, and a line may be repeated out of place.
    """
    def token(valid):
        if draw(st.integers(0, 15)) < 15:
            return str(valid)
        return str(draw(st.one_of(st.integers(-1, 3), st.sampled_from(["x", "1.5"]))))

    nverts = draw(st.integers(1, 3))
    lines = ["field " + token(draw(st.sampled_from([2, 3, 5]))),
             "vertices " + token(nverts)]
    edges = [(s, t) for s in range(nverts) for t in range(s + 1, nverts)]
    arrows = {}
    if edges:
        for name in draw(st.lists(st.sampled_from(ARROW_NAMES), max_size=3, unique=True)):
            src, tgt = draw(st.sampled_from(edges))
            arrows[name] = (src, tgt)
            lines.append(f"arrow {name} {token(src + 1)} {token(tgt + 1)}")
    reps = draw(st.lists(st.sampled_from(REP_NAMES), max_size=4, unique=True))
    for name in reps:
        lines.append(f"rep {name}")
        dim = draw(st.lists(st.integers(0, 2), min_size=nverts, max_size=nverts))
        lines.append("dim " + " ".join(token(d) for d in dim))
        for arrow in draw(st.lists(st.sampled_from(sorted(arrows)), unique=True)) if arrows else ():
            src, tgt = arrows[arrow]
            rows, cols = dim[tgt], dim[src]
            count = max(0, rows * cols + draw(st.sampled_from([0] * 8 + [1, -1])))
            entries = draw(st.lists(st.integers(), min_size=count, max_size=count))
            lines.append(f"mat {token(arrow)} {token(rows)} {token(cols)} "
                         + " ".join(map(str, entries)))
    thetas = draw(st.lists(st.sampled_from(["full", "mixed"]), max_size=2, unique=True)) \
        if reps else []
    for name in thetas:
        members = draw(st.lists(st.sampled_from(reps), min_size=1, max_size=3))
        lines.append(f"theta {name} {' '.join(token(m) for m in members)}")
    if draw(st.integers(0, 7)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    known = st.sampled_from(reps + ["NOPE"])
    return ("\n".join(lines) + "\n", draw(st.tuples(known, known)),
            draw(st.sampled_from(thetas + ["NOPE"])))


@settings(max_examples=300, deadline=None)
@given(case=_workspace_texts())
def test_cli_fuzzed_workspaces_exit_cleanly(tmp_path_factory, case):
    text, names, theta = case
    ws = tmp_path_factory.getbasetemp() / "fuzzed.ws"
    ws.write_text(text)
    for command in (["hom", *names], ["ext", *names], ["check-theta", theta]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["-w", str(ws), *command])
        assert status in (0, 1, 2), command
        doc = json.loads(out.getvalue())
        assert status != 2 or list(doc) == ["error"], command


@settings(max_examples=150, deadline=None)
@given(case=_workspace_texts())
def test_fuzzed_workspace_errors_carry_positions(case):
    # whatever refuses the text, the parser or a constructor it calls, the
    # error names a line and a column of it
    text = case[0]
    try:
        parse_workspace(text)
    except ParseError as exc:
        assert 1 <= exc.line <= len(text.splitlines()) + 1
        assert str(exc).startswith(f"line {exc.line}, column {exc.column}: ")


# JSON values that replace leaves of a filtration document: the only large
# integers are the two past the dim bound, so no example allocates much
_JSON_LEAVES = st.one_of(
    st.integers(-1, 3), st.sampled_from([2 ** 15, 2 ** 61]), st.floats(-4, 4),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.text(max_size=3), st.none(), st.booleans())
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
# stands for a leaf nested about 2,000 arrays deep, past json's recursion limit;
# it is spliced into the written text, since json.dumps would not reach it either
_DEEP = "<deep>"
_DEEP_TEXT = "[" * 2000 + "0" + "]" * 2000


def _entries(node):
    """(container, key) of every entry of every object and array in a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _entries(child)


@pytest.fixture(scope="module")
def filter_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["-w", A2_WS, "filter", "P1", "--theta", "full"]) == 0
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6),
                                _JSON_VALUES | st.just(_DEEP)),
                      min_size=1, max_size=4))
def test_cli_fuzzed_filtration_documents_exit_cleanly(tmp_path_factory, filter_output, edits):
    # each edit deletes a key or replaces a leaf, picked by index
    doc = json.loads(filter_output)
    for delete, index, value in edits:
        if delete:
            slots = [(c, k) for c, k in _entries(doc) if isinstance(c, dict)]
        else:
            slots = [(c, k) for c, k in _entries(doc) if not isinstance(c[k], (dict, list))]
        if not slots:
            continue
        container, key = slots[index % len(slots)]
        if delete:
            del container[key]
        else:
            container[key] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc).replace(json.dumps(_DEEP), _DEEP_TEXT))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["-w", A2_WS, "reorder", "--filtration", str(path)])
    assert status in (0, 1, 2)
    printed = json.loads(out.getvalue())
    assert status != 2 or list(printed) == ["error"]
