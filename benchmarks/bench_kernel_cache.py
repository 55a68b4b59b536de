"""Kernel successor-index / memoization layer: timed replays.

The difference pipeline always wraps the product (and any implicit
minuend) in CachedImplicitGBA wrappers, giving Algorithm 1 precomputed
per-state sorted edge lists instead of a fresh ``sorted(alphabet)`` per
pushed state, plus memoized successor/acceptance queries.

Methodology: for each ``bench_scaling`` family at its largest
configuration, one analysis run harvests the certified-module chain;
the difference chain is then *replayed* through ``difference``.  The
replay isolates the automata kernel from ranking synthesis, which is
what the layer accelerates.  Each replay must route its successor
queries through the wrappers (``cache_misses > 0``; a one-shot
difference explores every product state once, so its ``cache_hits``
stay 0 -- the gain is the precomputed edge index) and reproduce the analysis's per-step emptiness
verdicts: every step non-empty except the last, which is empty exactly
when the harvest proved termination.  ``cached_seconds`` is the timing
the ``trajectory`` gate aligns against the committed baseline.

A second sweep exercises the Figure-4 corpus: differences against the
random SDBA corpus, whose emptiness verdicts must agree with plain
Algorithm 1 on the unwrapped, unreduced product.

The cached-vs-uncached comparison is written up in EXPERIMENTS.md,
"Extension ablation -- kernel cache".
"""

from __future__ import annotations

import random
import time

from conftest import TIMEOUT, write_bench_json

from repro.automata.complement.dispatch import implicit_complement
from repro.automata.difference import difference
from repro.automata.emptiness import remove_useless
from repro.automata.gba import ba
from repro.automata.ops import ProductGBA
from repro.benchgen.scaled import (interleaved_counters, nested_loops,
                                   phase_chain, sequential_loops)
from repro.core.api import prove_termination
from repro.core.config import AnalysisConfig
from repro.core.refinement import Verdict
from repro.program.cfg import build_cfg

#: family -> (generator, largest k used by bench_scaling)
LARGEST = {
    "interleaved": (interleaved_counters, 4),
    "sequential": (sequential_loops, 4),
    "phases": (phase_chain, 4),
    "nested": (nested_loops, 3),  # the largest configuration overall
}
HEADLINE_FAMILY = "nested"


def harvest_chain(family: str):
    """One analysis run; returns (program GBA, certified module automata,
    whether termination was proved)."""
    generator, k = LARGEST[family]
    bench = generator(k)
    program = bench.parse()
    result = prove_termination(program, AnalysisConfig(timeout=TIMEOUT))
    return (build_cfg(program).to_gba(),
            [m.automaton for m in result.modules],
            result.verdict is Verdict.TERMINATING)


def replay_chain(program_gba, modules):
    """Replay the difference chain; returns (seconds, per-step
    verdicts, wrapper queries summed over the chain)."""
    start = time.perf_counter()
    current = program_gba
    verdicts = []
    queries = 0
    for module in modules:
        result = difference(current, module)
        verdicts.append((result.is_empty, result.stats.useful_states))
        queries += result.stats.cache_misses
        current = result.automaton
    return time.perf_counter() - start, verdicts, queries


def timed_replay(program_gba, modules, *, rounds: int = 3):
    best, verdicts, queries = replay_chain(program_gba, modules)
    for _ in range(rounds - 1):
        seconds, again, _ = replay_chain(program_gba, modules)
        assert again == verdicts
        best = min(best, seconds)
    return best, verdicts, queries


def test_kernel_cache_report():
    print(f"\n=== kernel cache replays (harvest budget {TIMEOUT:.0f}s/program) ===")
    families = {}
    for family in LARGEST:
        program_gba, modules, terminating = harvest_chain(family)
        cached_s, verdicts, queries = timed_replay(program_gba, modules)
        assert queries > 0, family
        # the replay reproduces the analysis: the chain stays non-empty
        # until the last module, which empties it iff termination was
        # proved
        emptiness = [empty for empty, _ in verdicts]
        assert emptiness == [False] * (len(modules) - 1) + [terminating], \
            family
        families[family] = {"modules": len(modules),
                            "cached_seconds": cached_s}
        print(f"  {family:12s} ({len(modules):2d} modules): "
              f"{cached_s*1000:8.1f}ms  {queries:6d} wrapper queries")
    write_bench_json("kernel_cache", {
        "families": families,
        "headline_family": HEADLINE_FAMILY,
    })


# -- Figure-4 corpus sweep ---------------------------------------------------------


def _corpus_pairs(corpus, count: int = 20):
    rng = random.Random(42)
    pairs = []
    for sdba in corpus[:count]:
        sigma = sorted(sdba.alphabet, key=str)
        states = list(range(4))
        transitions = {}
        for q in states:
            for s in sigma:
                targets = {t for t in states if rng.random() < 0.5}
                if targets:
                    transitions[(q, s)] = targets
        minuend = ba(sdba.alphabet, transitions, [0], states, states=states)
        pairs.append((minuend, sdba))
    return pairs


def plain_is_empty(minuend, sdba) -> bool:
    """Emptiness of ``L(minuend) \\ L(sdba)`` by plain Algorithm 1 on the
    unwrapped, unreduced product, without the antichain."""
    comp, _ = implicit_complement(sdba, minuend.alphabet)
    useful, _ = remove_useless(ProductGBA(minuend, comp))
    return not useful.initial_states()


def test_kernel_cache_corpus_agreement(corpus):
    pairs = _corpus_pairs(corpus)
    start = time.perf_counter()
    results = [difference(minuend, sdba) for minuend, sdba in pairs]
    seconds = time.perf_counter() - start
    assert [r.is_empty for r in results] == \
        [plain_is_empty(minuend, sdba) for minuend, sdba in pairs]
    print(f"\n=== kernel cache on the Fig. 4 corpus ({len(pairs)} differences) ===")
    print(f"  cached:   {seconds*1000:8.1f}ms")
    write_bench_json("kernel_cache_corpus", {
        "differences": len(pairs),
        "cached_seconds": seconds,
    })


# -- pytest-benchmark hooks --------------------------------------------------------


def test_kernel_cache_largest_cached_benchmark(benchmark):
    program_gba, modules, _ = harvest_chain(HEADLINE_FAMILY)
    benchmark.pedantic(replay_chain, args=(program_gba, modules),
                       rounds=1, iterations=1)
