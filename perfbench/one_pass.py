"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, with ``PYTHONHASHSEED``
set from the workload seed and ``src`` on the import path, and reads
the JSON object it prints as its last line.  A fresh process per pass
means no pass inherits solver caches warmed by an earlier one (the
``LinConj`` sat cache on module-level constants such as ``TRUE``), so
every pass does the same work at the same seed; the price -- interpreter
start, imports and input generation -- is measured as set-up.

Usage: ``python3 perfbench/one_pass.py WORKLOAD SEED PASS TRACE LAUNCHED
WORKDIR`` where ``PASS`` numbers the pass within its run and ``LAUNCHED``
is the ``time.monotonic()`` reading taken just before the process was
started.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import layers
from repro.benchgen.programs import program_suite
from repro.core import api
from repro.core.config import AnalysisConfig
from repro.obs.metrics import MetricsRegistry, use_registry

#: Suite programs the default configuration does not decide.  The two
#: that run out of rounds form ``suite-diverging``; the other two take
#: about 45 s per pass together and are left out.
DIVERGING = ("alternate_guarded", "two_phase")
UNDECIDED = DIVERGING + ("nested_reset", "triple_nest")

#: (scaled family, size) pairs of ``corpus-pool``.
CORPUS = ([(family, k) for family in ("sequential_loops",
                                       "interleaved_counters", "phase_chain")
           for k in (1, 2, 3, 4)]
          + [("nested_loops", 1), ("nested_loops", 2)])
CORPUS_WORKERS = 2

#: Pool statuses that count as a failed analysis.
FAILED_STATUSES = ("error", "timeout", "oom", "quarantined", "cancelled")


def suite_programs(workload: str):
    suite = program_suite()
    if workload == "suite-decided":
        return [p for p in suite if p.name not in UNDECIDED]
    return [p for p in suite if p.name in DIVERGING]


def run_suite(workload: str, trace: bool) -> dict:
    """Analyse the suite programs one after another in this process."""
    parsed = [(bench, bench.parse()) for bench in suite_programs(workload)]
    config = AnalysisConfig()
    clock = layers.LayerClock() if trace else None
    if clock is not None:
        clock.install(layers.ANALYSIS_LAYERS)
    ready = time.monotonic()
    programs = []
    start = time.perf_counter()
    try:
        for bench, program in parsed:
            # The firewall counts outside the engine's per-run registry;
            # this scope catches those counts for this one analysis.
            outside = MetricsRegistry()
            t0 = time.perf_counter()
            with use_registry(outside):
                if clock is None:
                    result = api.prove_termination(program, config)
                else:
                    result = clock.span(layers.ROOT_LAYER,
                                        api.prove_termination,
                                        program, config)
            seconds = time.perf_counter() - t0
            counters = dict(result.stats.metrics.get("counters", {}))
            counters.update(outside.snapshot()["counters"])
            programs.append({"name": bench.name, "expected": bench.expected,
                             "status": "ok", "verdict": result.verdict.value,
                             "seconds": seconds, "counters": counters})
        wall = time.perf_counter() - start
    finally:
        if clock is not None:
            clock.restore()
    out = {"ready": ready, "wall_s": wall, "programs": programs}
    if clock is not None:
        out["layers"] = clock.snapshot()
        out["unrestored"] = layers.still_wrapped(layers.ANALYSIS_LAYERS)
    return out


def corpus_manifest(seed: int, pass_index: int) -> dict:
    """The corpus in an order drawn from the seed, a new one each pass:
    which programs share the two workers sets the pool's makespan, so a
    run's median wall averages over several orders."""
    order = list(CORPUS)
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return {"name": "perfbench-corpus",
            "programs": [{"scaled": family, "k": [k]} for family, k in order],
            "configs": [{"name": "default"}]}


def run_corpus_pass(seed: int, pass_index: int, trace: bool,
                    workdir: Path) -> dict:
    """Run the scaled corpus through the worker pool with a fresh store
    and a fresh shared module library."""
    from repro.runner.corpus import expand_manifest, run_corpus
    from repro.runner.pool import WorkerPool, analysis_task
    from repro.runner.store import read_rows

    manifest = corpus_manifest(seed, pass_index)
    jobs = expand_manifest(manifest)
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    store_path = scratch / "store.jsonl"
    library_path = scratch / "library.jsonl"
    pool = WorkerPool(workers=CORPUS_WORKERS,
                      task=layers.traced_analysis_task if trace
                      else analysis_task)
    clock = layers.LayerClock() if trace else None
    if clock is not None:
        clock.install(layers.RUNNER_LAYERS)
    ready = time.monotonic()
    start = time.perf_counter()
    try:
        summary = run_corpus(manifest, store_path, pool=pool,
                             module_library=library_path)
        wall = time.perf_counter() - start
        stored = list(read_rows(store_path))
    finally:
        if clock is not None:
            clock.restore()
        shutil.rmtree(scratch, ignore_errors=True)

    problems = []
    keys = [row.get("key") for row in stored]
    for job in jobs:
        if keys.count(job.key) != 1:
            problems.append(f"{job.name}: {keys.count(job.key)} store rows")
    if len(keys) != len(jobs):
        problems.append(f"{len(keys)} store rows for {len(jobs)} jobs")

    programs = []
    worker_clock = layers.empty()
    unrestored: set[str] = set()
    for row in summary.rows:
        status = row.get("status")
        counters = dict(((row.get("stats") or {}).get("metrics") or {})
                        .get("counters", {}))
        counters.update(row.get("outside_counters") or {})
        programs.append({
            "name": row.get("program"),
            "expected": row.get("expected"),
            "status": "failed" if status in FAILED_STATUSES else "ok",
            "verdict": row.get("verdict"), "seconds": row.get("seconds", 0.0),
            "counters": counters})
        if "layer_clock" in row:
            layers.merge(worker_clock, row["layer_clock"])
            unrestored.update(row.get("layer_clock_unrestored", ()))
    out = {"ready": ready, "wall_s": wall, "programs": programs,
           "store_problems": problems}
    if clock is not None:
        parent = clock.snapshot()
        out["layers"] = layers.merge(worker_clock, parent)
        out["runner"] = {"workers": CORPUS_WORKERS,
                         "pool_wall_s": parent["incl_s"]["runner"],
                         "worker_s": worker_clock["incl_s"][layers.ROOT_LAYER]}
        unrestored.update(layers.still_wrapped(layers.RUNNER_LAYERS))
        out["unrestored"] = sorted(unrestored)
    return out


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace, launched, workdir = argv
    trace_on = trace == "1"
    if workload == "corpus-pool":
        out = run_corpus_pass(int(seed), int(pass_index), trace_on,
                              Path(workdir))
    else:
        out = run_suite(workload, trace_on)
    out["setup_s"] = out.pop("ready") - float(launched)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own + children) / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
