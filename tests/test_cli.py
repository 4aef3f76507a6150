"""Workspace parsing, serialization, and the command surface."""

import json
from pathlib import Path

import pytest

from filtra import ParseError, ValidationError, filtration
from filtra.cli import main, parse_workspace, serialize_workspace

DATA = Path(__file__).parent / "data"
A2_WS = str(DATA / "a2.ws")

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


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_workspace("field 2\nvertices 1\nrep X\ndim 1\nrep X\ndim 1\n")


def test_round_trip():
    ws = parse_workspace(MINIMAL)
    text = serialize_workspace(ws)
    again = parse_workspace(text)
    assert again == ws
    assert serialize_workspace(again) == text


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
                                  "entry past int64"])
def test_cli_bad_input_never_raises(capsys, tmp_path, case):
    ws = tmp_path / "a2.ws"
    ws.write_text(MINIMAL)
    if case == "entry past int64":
        # entries are residues mod p, so the workspace is valid and reads as entry 1
        expected = run(capsys, "-w", str(ws), "hom", "P1", "P1")
        ws.write_text(MINIMAL.replace("mat a 1 1 1", "mat a 1 1 99999999999999999999999"))
        assert run(capsys, "-w", str(ws), "hom", "P1", "P1") == expected
        return
    status, doc = run(capsys, "-w", str(ws), "filter", "P1", "--theta", "full")
    assert status == 0
    step = doc["filtration"]["steps"][0]
    if case == "non-integer dim":
        step["sub"]["dim"] = ["one", 0]
    elif case == "maps as a list":
        step["middle"]["maps"] = [[[1]]]
    path = tmp_path / "f.json"
    path.write_text("{not json" if case == "malformed json" else json.dumps(doc))
    status, doc = run(capsys, "-w", str(ws), "reorder", "--filtration", str(path))
    assert status == 2
    assert list(doc) == ["error"]


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


def test_cli_filter_over_f3(capsys, tmp_path):
    # runs before test_cli_budget_env and leaves this decision in the memo
    ws = tmp_path / "a2f3.ws"
    ws.write_text(MINIMAL.replace("field 2", "field 3"))
    status, doc = run(capsys, "-w", str(ws), "filter", "P1", "--theta", "full")
    assert status == 0
    assert doc["member"] is True


def test_cli_budget_env(capsys, monkeypatch, tmp_path):
    # an empty decision memo, so the search runs whatever the process decided before
    monkeypatch.setattr(filtration, "_decide_memo", {})
    ws = tmp_path / "a2f3.ws"
    ws.write_text(MINIMAL.replace("field 2", "field 3"))
    monkeypatch.setenv("FILTRA_BUDGET", "1")
    status, doc = run(capsys, "-w", str(ws), "filter", "P1", "--theta", "full")
    assert status == 2
    assert "budget of 1" in doc["error"]


def test_cli_output_is_deterministic(capsys):
    main(["-w", A2_WS, "enumerate", "--max-dim", "2,2"])
    first = capsys.readouterr().out
    main(["-w", A2_WS, "enumerate", "--max-dim", "2,2"])
    assert capsys.readouterr().out == first
