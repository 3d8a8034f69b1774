"""Tests of the benchmark itself: `python -m pytest kbench/tests`.

Smoke runs use tiny input sets so the benchmark cannot rot unnoticed; the
checker tests prove the correctness gate flags wrong answers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

KBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(KBENCH)
sys.path.insert(0, KBENCH)

import check  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "kbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(*args: str) -> dict:
    done = _run(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _report(results, texts=None, diffs=()):
    return {"results": results, "texts": texts or [], "round_diffs": [list(d) for d in diffs]}


def test_manifest_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == spec.manifest()


def test_inputs_follow_the_seed():
    for generate in inputs.GENERATORS.values():
        assert generate(7, 0.05) == generate(7, 0.05)
    assert inputs.query_inputs(7, 0.05) != inputs.query_inputs(8, 0.05)
    assert inputs.factored_inputs(7, 0.05) != inputs.factored_inputs(8, 0.05)
    assert inputs.table_inputs(7) != inputs.table_inputs(8)


def test_gate_flags_wrong_answers_and_missing_errors():
    ops = [["eta_p", 10, 5], ["decompose", 10, 5], ["eta_p", 0, 5], ["zeros", 5]]
    expected = [None, None, "ValueError", None]
    right = [["int", 45], ["terms", [[2, 1], [1, 4]]], ["err", "ValueError"], ["zeros", []]]
    assert check.check("factored", ops, expected, _report(right))[:2] == (4, 0)

    for i, wrong in enumerate([["int", 50], ["terms", [[2, 2]]], ["int", 0], ["zeros", [25]]]):
        results = right[:i] + [wrong] + right[i + 1 :]
        assert check.check("factored", ops, expected, _report(results))[:2] == (4, 1)
    # a wrong error type is as bad as none
    results = right[:2] + [["err", "OverflowError"]] + right[3:]
    assert check.check("factored", ops, expected, _report(results))[:2] == (4, 1)
    # a later round that changes one outcome fails that operation there
    assert check.check("factored", ops, expected, _report(right, diffs=[[1]]))[:2] == (8, 1)


def test_gate_checks_query_factorizations():
    ops = [["360", 360], ["-7", -7], ["0", None]]
    expected = [None, None, "ZeroInputError"]
    good = [
        [["eta", 6, 3, [[2, 3, 4], [3, 2, 6], [5, 1, 5]]], ["fact", 1, [[2, 3], [3, 2], [5, 1]]]],
        [["eta", 7, 7, [[7, 1, 7]]], ["fact", -1, [[7, 1]]]],
        ["err", "ZeroInputError"],
    ]
    assert check.check("query", ops, expected, _report(good))[:2] == (3, 0)
    bad = [good[0], [["eta", 7, 7, [[7, 1, 7]]], ["fact", 1, [[7, 1]]]], ["err", "ValueError"]]
    assert check.check("query", ops, expected, _report(bad))[:2] == (3, 2)


def test_gate_checks_every_table_row():
    expected = [(8, 10, "plain"), (8, 10, "json-lines")]
    json_rows = (
        '{"n":8,"eta":4,"witness":[[2,3,4]]}\n'
        '{"n":9,"eta":6,"witness":[[3,2,6]]}\n'
        '{"n":10,"eta":5,"witness":[[2,1,2],[5,1,5]]}\n'
    )
    good = _report([[0, ""], [0, ""]], ["8 4\n9 6\n10 5\n", json_rows])
    assert check.check("table", None, expected, good)[:2] == (6, 0)
    wrong_plain = _report([[0, ""], [0, ""]], ["8 4\n9 5\n10 5\n", json_rows])
    assert check.check("table", None, expected, wrong_plain)[:2] == (6, 1)
    wrong_witness = _report([[0, ""], [0, ""]], ["8 4\n9 6\n10 5\n", json_rows.replace("[3,2,6]", "[3,2,5]")])
    # the bad json row also leaves plain row 9 without a trusted value
    assert check.check("table", None, expected, wrong_witness)[:2] == (6, 2)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0", "--scale", "0.02")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, *_ in spec.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    args = ("--workload", "factored", "--seed", "3", "--seconds", "0.1", "--trace", "1", "--scale", "0.02")
    first, second = _result(*args), _result(*args)
    assert first["correct"]
    assert set(first["metrics"]) == {name for name, _ in spec.per_layer()}
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith((".calls", ".terms"))}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["number_core.is_prime.calls"] > 0


def test_flagship_calls_is_prime_fifteen_times():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kempner.cli  # noqa: F401
    from tracer import Tracer

    exprs, apps = sys.modules["kempner.exprs"], sys.modules["kempner.applications"]
    tracer = Tracer()
    tracer.install(spec.TRACED)
    try:
        tracer.begin_op()
        assert apps.smallest_factorial_multiple(exprs.parse_factored_expr("2^31*3^27*7^13")).value == 84
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["number_core.is_prime"]["calls"] == 15
    assert summary["eta.eta_p"]["calls"] == 3
    assert exprs.parse_factored_expr.__name__ == "parse_factored_expr"  # bindings restored


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(KBENCH, tmp_path / "kbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
