"""The CI smoke gates (``scripts/ci_checks.py``) pass on good results
and can still fail: each gate is fed a tiny hand-made result set,
first clean, then with one field flipped."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ci_checks.py"


def write_jsonl(path: Path, records) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records)
                    + '{"type": "torn', encoding="utf-8")
    return str(path)


def write_report(path: Path, unsound=0, **counters) -> str:
    report = {"configs": {"default": {"unsound": unsound,
                                      "counters": counters}}}
    path.write_text(json.dumps(report), encoding="utf-8")
    return str(path)


def gate(*args) -> int:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True).returncode


def kill_resume_args(tmp_path, unsound=0):
    events = write_jsonl(tmp_path / "events.jsonl",
                         [{"type": "checkpoint.saved", "rounds": 3},
                          {"type": "checkpoint.restored", "rounds": 3}])
    store = write_jsonl(tmp_path / "store.jsonl",
                        [{"status": "terminating"}, {"status": "oom"}])
    report = write_report(tmp_path / "report.json", unsound=unsound)
    return ["kill-resume", "--events", events, "--store", store,
            "--report", report]


def library_args(tmp_path, unsound=0):
    events = write_jsonl(tmp_path / "events.jsonl",
                         [{"type": "library.hit", "count": 2}])
    report = write_report(tmp_path / "report.json", unsound=unsound,
                          **{"library.hits": 2})
    return ["library", "--events", events, "--report", report]


def poison_args(tmp_path, unsound=0, hits=0):
    report = write_report(tmp_path / "report.json", unsound=unsound,
                          **{"library.rejected": 1, "library.hits": hits})
    return ["poison", "--report", report]


@pytest.mark.parametrize("build", [kill_resume_args, library_args,
                                   poison_args])
def test_gate_passes_clean_results_and_fails_unsound(build, tmp_path):
    assert gate(*build(tmp_path)) == 0
    assert gate(*build(tmp_path, unsound=1)) != 0


def test_poison_gate_fails_on_a_served_hit(tmp_path):
    assert gate(*poison_args(tmp_path, hits=1)) != 0


BASELINE = (Path(__file__).resolve().parent.parent / "benchmarks"
            / "baselines" / "perfbench_effort.json")


def effort_args(tmp_path, workload="suite-decided", **overrides):
    """A perfbench result line carrying the baseline's counters, with
    ``overrides`` applied (``None`` drops a counter)."""
    counters = json.loads(BASELINE.read_text())["workloads"][workload]
    metrics = {"wall_s": {"value": 1.0, "unit": "s"},
               "logic.fm.calls": {"value": 123, "unit": "count"}}
    for name, value in {**counters, **overrides}.items():
        if value is not None:
            metrics[name] = {"value": value, "unit": "count"}
    result = tmp_path / "result.log"
    result.write_text("[suite] a table line\n" + json.dumps(
        {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        + "\n", encoding="utf-8")
    return ["effort", str(BASELINE), str(result), "--workload", workload]


@pytest.mark.parametrize("workload", ["suite-decided", "suite-diverging"])
def test_effort_gate_passes_the_baseline_itself(workload, tmp_path):
    assert gate(*effort_args(tmp_path, workload)) == 0


def test_effort_gate_fails_on_one_extra_elimination(tmp_path):
    counters = json.loads(BASELINE.read_text())["workloads"]["suite-decided"]
    extra = counters["logic.fm.eliminations"] + 1
    assert gate(*effort_args(tmp_path,
                             **{"logic.fm.eliminations": extra})) != 0


def test_effort_gate_fails_on_a_missing_counter(tmp_path):
    assert gate(*effort_args(tmp_path,
                             **{"logic.entailment_calls": None})) != 0


def test_effort_gate_ignores_layer_calls_but_not_new_counters(tmp_path):
    # a layer's .calls is not an effort counter; an unrecorded counter is
    assert gate(*effort_args(tmp_path, **{"logic.lp.calls": 7})) == 0
    assert gate(*effort_args(tmp_path, **{"logic.fm.new": 1})) != 0


def test_effort_gate_fails_without_a_baseline_workload(tmp_path):
    args = effort_args(tmp_path)
    args[-1] = "corpus-pool"
    assert gate(*args) != 0
