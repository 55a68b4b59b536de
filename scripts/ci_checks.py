"""Result gates of the CI smoke jobs, runnable locally.

Each subcommand reads the files a smoke job leaves behind and exits
nonzero when a gate fails:

``kill-resume``
    A corpus killed mid-analysis and resumed from durable checkpoints:
    at least one ``checkpoint.restored`` event, every row status inside
    the known taxonomy, no ``error`` rows, zero unsound verdicts.
``library``
    The warm pass over a shared module library: at least one
    ``library.hit`` event, ``library.hits > 0`` in the report
    aggregate, zero unsound verdicts.
``poison``
    The passes under the ``library.publish`` tamper fault: at least
    one ``library.rejected``, zero ``library.hits``, zero unsound
    verdicts.
``effort``
    A traced ``perfbench/run.py`` pass (``--trace 1``): its effort
    counters -- the ``count`` metrics other than the layer ``.calls`` --
    must equal the committed baseline for the workload exactly.  The
    counters are deterministic at a fixed seed, so the threshold is
    zero; a change that moves them updates the baseline in the same
    commit.

Usage::

    python scripts/ci_checks.py kill-resume [--events F] [--store F] [--report F]
    python scripts/ci_checks.py library [--events F] [--report F]
    python scripts/ci_checks.py poison [--report F]
    python scripts/ci_checks.py effort BASELINE RESULT --workload W

The defaults are the file names the CI workflow writes.  ``RESULT`` is
the output of ``perfbench/run.py``; its last line is the result.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Every row status the runner may write.
KNOWN_STATUSES = {"terminating", "nonterminating", "unknown", "timeout",
                  "error", "cancelled", "oom", "quarantined"}


class GateFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailed(message)


def read_jsonl(path: str):
    """The records of a JSONL file; torn or garbage lines are skipped
    (a torn tail is legal in a fleet log)."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def counter_total(report: dict, name: str) -> int:
    return sum(agg["counters"].get(name, 0)
               for agg in report["configs"].values())


def check_sound(report: dict, context: str) -> None:
    unsound = {config: agg["unsound"]
               for config, agg in report["configs"].items()
               if agg["unsound"]}
    check(not unsound, f"unsound verdicts {context}: {unsound}")
    print("all configs: unsound == 0")


def kill_resume(args) -> None:
    restored = saved = rejected = 0
    for event in read_jsonl(args.events):
        restored += event.get("type") == "checkpoint.restored"
        saved += event.get("type") == "checkpoint.saved"
        rejected += event.get("type") == "checkpoint.rejected"
    print(f"checkpoint events: {saved} saved, {restored} restored, "
          f"{rejected} rejected")
    check(restored >= 1, "resume pass restored nothing from the checkpoints")

    statuses: dict[str, int] = {}
    for row in read_jsonl(args.store):
        status = row.get("status", "?")
        statuses[status] = statuses.get(status, 0) + 1
    print(f"row statuses: {statuses}")
    unknown_statuses = set(statuses) - KNOWN_STATUSES
    check(not unknown_statuses,
          f"statuses outside the taxonomy: {unknown_statuses}")
    check(not statuses.get("error"), "error rows after resume")

    check_sound(load_report(args.report), "after resume")


def library(args) -> None:
    hits = published = rejected = 0
    for event in read_jsonl(args.events):
        if event.get("type") == "library.hit":
            hits += event.get("count", 1)
        published += event.get("type") == "library.published"
        rejected += event.get("type") == "library.rejected"
    print(f"library events: {hits} hits, {published} published, "
          f"{rejected} rejected")
    check(hits >= 1, "warm pass never hit the module library")

    report = load_report(args.report)
    total_hits = counter_total(report, "library.hits")
    print(f"aggregate library.hits: {total_hits}")
    check(total_hits > 0, "no library.hits in the report aggregate")
    check_sound(report, "with a library")


def poison(args) -> None:
    report = load_report(args.report)
    rejected = counter_total(report, "library.rejected")
    hits = counter_total(report, "library.hits")
    print(f"tampered library: {rejected} rejected, {hits} hits")
    check(rejected >= 1, "tampered entries were never rejected")
    check(hits == 0, "a tampered entry was served as a hit")
    check_sound(report, "under a poisoned library")


def effort_counters(result: dict) -> dict:
    """The effort counters of a perfbench result line."""
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] == "count" and not name.endswith(".calls")}


def effort(args) -> None:
    baseline = load_report(args.baseline)["workloads"].get(args.workload)
    check(baseline is not None,
          f"no baseline for workload {args.workload!r}")
    with open(args.result, encoding="utf-8") as fh:
        result = json.loads(fh.read().strip().splitlines()[-1])
    check(result["correct"], "the perfbench run failed its own checks")
    counters = effort_counters(result)
    differences = []
    for name in sorted(baseline.keys() | counters.keys()):
        expected, got = baseline.get(name), counters.get(name)
        if expected != got:
            differences.append(f"{name}: baseline {expected}, now {got}")
    print(f"{args.workload}: {len(baseline)} baseline counters, "
          f"{len(differences)} differ")
    check(not differences,
          f"effort counters moved on {args.workload} (update "
          f"{args.baseline} if intended): {'; '.join(differences)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Result gates of the CI smoke jobs.")
    commands = parser.add_subparsers(dest="command", required=True)
    sub = commands.add_parser("kill-resume",
                              help="restored rounds, clean taxonomy, "
                                   "zero unsound")
    sub.add_argument("--events", default="resume-events.jsonl")
    sub.add_argument("--store", default="killresume.jsonl")
    sub.add_argument("--report", default="killresume-report.json")
    sub.set_defaults(gate=kill_resume)
    sub = commands.add_parser("library", help="library hits, zero unsound")
    sub.add_argument("--events", default="library-events.jsonl")
    sub.add_argument("--report", default="library-report.json")
    sub.set_defaults(gate=library)
    sub = commands.add_parser("poison",
                              help="poison rejected, never believed")
    sub.add_argument("--report", default="tampered-report.json")
    sub.set_defaults(gate=poison)
    sub = commands.add_parser("effort",
                              help="perfbench effort counters equal the "
                                   "baseline")
    sub.add_argument("baseline")
    sub.add_argument("result")
    sub.add_argument("--workload", required=True)
    sub.set_defaults(gate=effort)
    args = parser.parse_args(argv)
    try:
        args.gate(args)
    except GateFailed as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
