"""The repository benchmark: decided suite, diverging suite, pooled corpus.

Run from the repository root::

    python3 perfbench/run.py --workload suite-decided --seed 1 --seconds 40 --trace 0

Every pass runs in a fresh interpreter (``one_pass.py``) with
``PYTHONHASHSEED`` set from ``--seed``.  With ``--trace 0`` the command
runs passes until the next one would end past ``--seconds`` (at least
two) and reports the end-to-end metrics; with ``--trace 1`` it runs one
plain pass and one pass under the layer clocks of ``layers.py`` and
reports the per-layer metrics.  Every verdict is checked against its
label.  The command prints a readable table, then one JSON object as
its last line, and exits 1 when any check fails.  ``NOTES.md`` describes
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite-decided", "suite-diverging", "corpus-pool")
MIN_PASSES = 2
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Share of the traced wall the layer self times must cover (suites).
MIN_COVERAGE = 0.9
#: Effort counters summed over a pass and reported by the traced run.
COUNTERS = (
    "logic.fm.eliminations", "logic.fm.sat_checks", "logic.entailment_calls",
    "logic.lp.solves", "logic.lp.pivots", "ranking.syntheses",
    "difference.explored_states", "difference.subsumption_hits",
    "complement.ncsb-lazy.macrostates", "complement.ncsb-original.macrostates",
    "complement.modular.macrostates", "firewall.screens", "library.hits",
    "library.misses", "library.published", "library.rejected",
    "refinement.rounds",
)
LIBRARY_COUNTERS = ("library.hits", "library.misses", "library.published",
                    "library.rejected")

sys.path.insert(0, str(HERE))
import layers  # noqa: E402  (the benchmark's own module, beside this file)


def run_pass(workload: str, seed: int, index: int, trace: bool, root: Path,
             workdir: Path, deadline: float) -> dict:
    """One pass in a fresh process; its JSON result, or ``crashed``."""
    env = dict(os.environ)
    for name in ("REPRO_FAULT_PLAN", "REPRO_RUNNER_INPROCESS"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
         str(index), "1" if trace else "0", repr(launched), str(workdir)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crashed": f"pass exceeded the {RUN_LIMIT_S:.0f} s run limit"}
    finally:
        # The corpus pass forks workers into the same session: make sure
        # none outlives the pass.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last_error = (err.strip().splitlines() or [""])[-1]
        return {"crashed": f"pass exited {proc.returncode}: {last_error}"}
    result = json.loads(lines[-1])
    result["pass_s"] = time.monotonic() - launched
    return result


def percentile_summary(samples: list[float]) -> dict:
    # Inclusive: interpolate within the samples, never past the largest
    # (the exclusive method extrapolates when samples are few).
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    return {"p50": statistics.median(samples), "p90": p90, "n": len(samples),
            "beyond_p90": sum(1 for s in samples if s > p90)}


def summed_counters(result: dict) -> dict:
    total = dict.fromkeys(COUNTERS, 0)
    for program in result["programs"]:
        for name in COUNTERS:
            total[name] += program["counters"].get(name, 0)
    return total


def effort_profile(result: dict) -> list:
    """Per-program effort counters of a pass, for the same-seed check."""
    return [(p["name"], sorted(p["counters"].items()))
            for p in result["programs"]]


class Checks:
    """Every verdict and self-test of a run; any failure fails the run."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.unsound = 0
        self.solved = 0

    def verdicts(self, result: dict, index: int) -> None:
        for program in result["programs"]:
            self.attempted += 1
            if program["status"] != "ok":
                self.failed += 1
                continue
            verdict, expected = program["verdict"], program["expected"]
            if verdict == expected:
                self.solved += 1
            elif verdict != "unknown" and expected != "unknown":
                self.unsound += 1
                self.problems.append(f"pass {index}: {program['name']} is "
                                     f"{verdict}, labelled {expected}")
        for problem in result.get("store_problems", ()):
            self.problems.append(f"pass {index}: store: {problem}")
        for name in result.get("unrestored", ()):
            self.problems.append(f"pass {index}: {name} still wrapped")

    def crashed(self, result: dict, index: int, expected_programs: int) -> None:
        self.attempted += expected_programs
        self.failed += expected_programs
        self.problems.append(f"pass {index}: {result['crashed']}")

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed == 0 and self.unsound == 0


def program_count(workload: str) -> int:
    if workload == "corpus-pool":
        return 14
    return 28 if workload == "suite-decided" else 2


def run_passes(args, root: Path, workdir: Path, checks: Checks) -> list[dict]:
    """Plain passes until the next would end past ``--seconds``."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    results: list[dict] = []
    last = 0.0
    while (len(results) < MIN_PASSES
           or time.monotonic() - start + last <= args.seconds):
        result = run_pass(args.workload, args.seed, len(results), False,
                          root, workdir, deadline)
        if "crashed" in result:
            checks.crashed(result, len(results), program_count(args.workload))
            break
        checks.verdicts(result, len(results))
        last = result["pass_s"]
        results.append(result)
    return results


def end_to_end(args, results: list[dict], checks: Checks, table) -> dict:
    samples = [p["seconds"] for r in results for p in r["programs"]]
    tail = percentile_summary(samples)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "program_s_p50": (tail["p50"], "s"),
        "program_s_p90": (tail["p90"], "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                        "MB"),
    }
    passes = len(results)
    table(f"passes: {passes} at seed {args.seed}, each in a fresh process")
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("program_s"):
            note = f"n={tail['n']}"
        if name == "program_s_p90":
            note += f", {tail['beyond_p90']} beyond"
            if tail["beyond_p90"] < 10:
                note += " (fewer than 10: reads as the slowest programs)"
        table(f"{name:16s} {value:12.4f} {unit:5s} {note}")
    per_pass = program_count(args.workload)
    table(f"{'solved':16s} {checks.solved / passes:12.1f} "
          f"{'count':5s} of {per_pass} per pass")
    table(f"{'unsound':16s} {checks.unsound:12d} count")
    table(f"{'failed':16s} {checks.failed:12d} count of "
          f"{checks.attempted} attempted")
    if args.workload == "corpus-pool":
        for name in LIBRARY_COUNTERS:
            values = [summed_counters(r)[name] for r in results]
            table(f"{name:16s} {min(values)}..{max(values)} over {passes} "
                  f"passes (order and scheduling move it)")
    else:
        profiles = {json.dumps(effort_profile(r)) for r in results}
        if len(profiles) != 1:
            checks.problems.append("effort counters differ between passes "
                                   "at the same seed")
        table(f"effort counters identical over {passes} passes: "
              f"{len(profiles) == 1}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def per_layer(args, plain: dict, traced: dict, checks: Checks, table) -> dict:
    clocks = traced["layers"]
    span = traced["wall_s"]
    runner = traced.get("runner")
    if runner is not None:
        # Worker-slot seconds: the layers partition wall x workers, and
        # the runner owns the slot time in which no worker analysed.
        span = runner["pool_wall_s"] * runner["workers"]
        clocks["self_s"]["runner"] = span - runner["worker_s"]
        table(f"runner: pool wall {runner['pool_wall_s']:.3f} s x "
              f"{runner['workers']} workers, {runner['worker_s']:.3f} s "
              f"analysing; library inclusive "
              f"{clocks['incl_s']['core.library']:.3f} s")
    covered = sum(clocks["self_s"].values()) / span
    counts = summed_counters(traced)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        # Seconds of a layer that only corpus-pool uses would read 0.0 on
        # every suite run, so they stay in the table, not the result line.
        if layer not in layers.CORPUS_ONLY:
            metrics[f"{layer}.self_s"] = (clocks["self_s"][layer], "s")
        metrics[f"{layer}.calls"] = (clocks["calls"][layer], "count")
    metrics["tracing.coverage"] = (covered, "ratio")
    metrics["tracing.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    for name in COUNTERS:
        metrics[name] = (counts[name], "count")

    if args.workload != "corpus-pool":
        if covered < MIN_COVERAGE:
            checks.problems.append(f"layer self times cover {covered:.1%} "
                                   f"of the traced wall")
        if effort_profile(plain) != effort_profile(traced):
            checks.problems.append("the traced pass did different work")
    table(f"traced wall {traced['wall_s']:.3f} s, plain wall "
          f"{plain['wall_s']:.3f} s, layers cover {covered:.1%}")
    for layer in sorted(layers.LAYERS, key=lambda l: -clocks["self_s"][l]):
        share = clocks["self_s"][layer] / span
        table(f"{layer:20s} {clocks['self_s'][layer]:9.3f} s  {share:6.1%}  "
              f"{clocks['calls'][layer]:8d} calls")
    for name in COUNTERS:
        table(f"{name:36s} {counts[name]}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    checks = Checks()

    def table(line: str) -> None:
        print(f"[{args.workload}] {line}")

    try:
        if args.trace:
            deadline = time.monotonic() + RUN_LIMIT_S
            results = []
            for index, trace in enumerate((False, True)):
                # Both passes take pass 0's inputs, so they do the same work.
                result = run_pass(args.workload, args.seed, 0, trace, root,
                                  workdir, deadline)
                if "crashed" in result:
                    checks.crashed(result, index,
                                   program_count(args.workload))
                    break
                checks.verdicts(result, index)
                results.append(result)
            metrics = (per_layer(args, *results, checks, table)
                       if len(results) == 2 else {})
        else:
            results = run_passes(args, root, workdir, checks)
            metrics = (end_to_end(args, results, checks, table)
                       if results else {})
    finally:
        try:
            workdir.rmdir()
        except OSError:
            pass  # another run shares it, or a pass left files behind
    for problem in checks.problems:
        table(f"CHECK FAILED: {problem}")
    correct = checks.ok and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
