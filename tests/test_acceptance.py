"""Acceptance gate: one test per criterion, each printing one pass/fail line.

Criteria 1-8 are the shared invariant suites from filtra.selftest, run here
with a fixed seed and asserted together with their wall-clock bounds;
criterion 9 drives the command line surface end to end.  The last test runs
the composition, reorder, approximation and perpendicular-reduction criteria
in both orders from empty caches.
"""

import json
import random
import time
from pathlib import Path

from filtra import enumerate_reps, euler_pairing, selftest
from filtra.cli import main
from filtra.errors import Budget, searching
from filtra.selftest import (CriterionResult, a2_quiver, criterion_approx, criterion_compose,
                             criterion_decision, criterion_ext_dimensions,
                             criterion_perp, criterion_reorder, criterion_split,
                             criterion_star)

A2_WS = str(Path(__file__).parent / "data" / "a2.ws")

BOUNDS = {1: 5.0, 2: 30.0, 3: 30.0, 4: 60.0, 5: 300.0, 6: 120.0, 7: 120.0, 8: 120.0}


def run_criterion(fn):
    rng = random.Random(0)
    start = time.perf_counter()
    with searching(Budget()):
        result = fn(rng)
    elapsed = time.perf_counter() - start
    verdict = "PASS" if result.passed else "FAIL"
    line = (f"criterion {result.index} {verdict} ({elapsed:.1f}s / "
            f"{BOUNDS[result.index]:.0f}s): {result.name}; {result.detail}")
    print(line)
    assert result.passed, line
    assert elapsed < BOUNDS[result.index], line


def test_criterion_1_ext_dimensions_with_euler_cross_check():
    run_criterion(criterion_ext_dimensions)


def test_criterion_2_split_equivalences():
    run_criterion(criterion_split)


def test_criterion_3_composition_compatibilities():
    run_criterion(criterion_compose)


def test_criterion_4_reorder_and_group():
    run_criterion(criterion_reorder)


def test_criterion_5_decision_against_oracle():
    run_criterion(criterion_decision)


def test_criterion_6_approximation_triangles():
    run_criterion(criterion_approx)


def test_criterion_7_perpendicular_reduction():
    run_criterion(criterion_perp)


def test_criterion_8_star_associativity_monotonicity():
    run_criterion(criterion_star)


def test_a_failed_check_fails_its_criterion(monkeypatch):
    # an Euler form off by one breaks every pair: the criterion fails, and its
    # detail shows the first four notes in the order the desk is walked
    monkeypatch.setattr(selftest, "euler_pairing", lambda m, n: euler_pairing(m, n) + 1)
    with searching(Budget()):
        result = criterion_ext_dimensions(random.Random(0))
    desk = enumerate_reps(a2_quiver(), 2, (3, 3))
    notes = [f"Euler mismatch at dims {desk[0].dim}, {n.dim}" for n in desk[:4]]
    assert not result.passed
    assert result.detail == "6 pinned dimensions, 900 Euler-form pairs; " + "; ".join(notes)


def test_a_crashing_criterion_fails_and_the_run_goes_on(monkeypatch):
    ran = []

    def criterion_crash(rng):
        raise RuntimeError("boom")

    def criterion_after(rng):
        ran.append(rng.random())
        return CriterionResult(2, "criterion_after", True, "ran")

    monkeypatch.setattr(selftest, "CRITERIA", [criterion_crash, criterion_after])
    first, second = selftest.run_criteria(seed=0)
    assert (first.index, first.name, first.passed) == (1, "criterion_crash", False)
    assert first.detail == "raised RuntimeError: boom"
    assert len(ran) == 1 and second.passed and second.detail == "ran"


def test_criterion_9_cli_worked_examples(capsys):
    failures = []

    def run(*argv):
        status = main(list(argv))
        return status, json.loads(capsys.readouterr().out)

    status, doc = run("-w", A2_WS, "ext", "S1", "S2")
    if status != 0 or doc.get("dimension") != 1:
        failures.append(f"ext S1 S2 gave status {status}, dimension {doc.get('dimension')}")

    status, doc = run("-w", A2_WS, "filter", "S2", "--theta", "full")
    steps = doc.get("filtration", {}).get("steps", [])
    if status != 0 or doc.get("member") is not True or len(steps) != 1:
        failures.append(f"filter S2 gave status {status} with {len(steps)} steps")

    status, doc = run("-w", A2_WS, "preenvelope", "S2", "--theta", "full",
                      "--verify", "--max-dim", "3,3")
    if (status != 0 or doc.get("verified") is not True
            or doc.get("triangle", {}).get("middle", {}).get("dim") != [1, 1]):
        failures.append(f"preenvelope S2 gave status {status}")

    status, doc = run("selftest")
    if status != 0 or doc.get("passed") is not True:
        failed = [c["index"] for c in doc.get("criteria", []) if not c["passed"]]
        failures.append(f"selftest exited {status}, failing criteria {failed}")

    verdict = "PASS" if not failures else "FAIL"
    line = f"criterion 9 {verdict}: cli worked examples and selftest"
    if failures:
        line += "; " + "; ".join(failures)
    print(line)
    assert not failures, line


def test_criteria_ignore_call_order_and_cache_state(clear_caches):
    # each pass starts from empty caches, so no answer can lean on an entry
    # that another criterion (or an earlier test) left behind
    order = [criterion_compose, criterion_reorder, criterion_approx, criterion_perp]
    passes = []
    for fns in (order, order[::-1]):
        clear_caches()
        results = {}
        for fn in fns:
            with searching(Budget()):
                results[fn.__name__] = fn(random.Random(0))
        passes.append(results)
    assert passes[0] == passes[1]
    assert all(r.passed for r in passes[0].values())
