"""Ablation: rank-based complement vs semi-determinize + NCSB.

The stage-4 ``M_nondet`` modules are general BAs.  The paper complements
them directly (the expensive operation the whole multi-stage approach
avoids); semi-determinization + NCSB is the alternative route this
library also offers (``AnalysisConfig(complement_kind="semidet+ncsb")``,
which pins it for every module subtraction).

This bench complements random general BAs both ways and compares the
states constructed and single-stage analysis outcomes.
"""

from __future__ import annotations

import random
import time

from conftest import TIMEOUT

from repro.automata.complement import ComplementKind
from repro.automata.emptiness import remove_useless
from repro.automata.complement.dispatch import implicit_complement
from repro.automata.gba import ba
from repro.core.api import prove_termination
from repro.core.budget import Budget, ResourceExhausted, use_budget
from repro.core.config import AnalysisConfig


def random_general_ba(seed: int, n: int = 4):
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n)]
    sigma = ("a", "b")
    transitions = {}
    for q in states:
        for s in sigma:
            targets = {t for t in states if rng.random() < 0.4}
            if targets:
                transitions[(q, s)] = targets
    accepting = [q for q in states if rng.random() < 0.35] or [states[-1]]
    return ba(set(sigma), transitions, [states[0]], accepting, states=states)


def complement_cost(auto, kind: ComplementKind, budget: int = 8_000):
    implicit, _ = implicit_complement(auto, kind=kind)
    try:
        with use_budget(Budget(difference_state_cap=budget)):
            _, stats = remove_useless(implicit)
    except ResourceExhausted:
        return budget, True
    return stats.explored_states, False


def sweep(kind: ComplementKind, count: int = 8):
    total = blowups = 0
    for seed in range(count):
        states, blown = complement_cost(random_general_ba(seed), kind)
        total += states
        blowups += blown
    return total, blowups


def test_ablation_rank(benchmark):
    total = benchmark.pedantic(sweep, args=(ComplementKind.RANK,),
                               rounds=1, iterations=1)
    benchmark.extra_info["states"] = total[0]


def test_ablation_semidet(benchmark):
    total = benchmark.pedantic(sweep, args=(ComplementKind.VIA_SEMIDET,),
                               rounds=1, iterations=1)
    benchmark.extra_info["states"] = total[0]


def test_ablation_report():
    t0 = time.perf_counter()
    rank_states, rank_blow = sweep(ComplementKind.RANK)
    rank_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    semi_states, semi_blow = sweep(ComplementKind.VIA_SEMIDET)
    semi_time = time.perf_counter() - t0
    print("\n=== ablation: general-BA complementation route (8 random BAs, n=4) ===")
    print(f"  rank-based:       {rank_states:8d} states, {rank_blow} budget "
          f"blowups, {rank_time:6.2f}s")
    print(f"  semidet + NCSB:   {semi_states:8d} states, {semi_blow} budget "
          f"blowups, {semi_time:6.2f}s")


def test_single_stage_with_semidet_route():
    """Single-stage analysis with the alternative route still sound."""
    from repro.benchgen import suite_by_name
    sort = suite_by_name()["sort"]
    config = AnalysisConfig.single_stage(timeout=TIMEOUT,
                                         complement_kind="semidet+ncsb")
    result = prove_termination(sort.parse(), config)
    assert result.verdict.value in ("terminating", "unknown")
    baseline = prove_termination(sort.parse(),
                                 AnalysisConfig.single_stage(timeout=TIMEOUT))
    print(f"\nsingle-stage on sort: rank-based -> {baseline.verdict.value}, "
          f"via semidet+NCSB -> {result.verdict.value}")
