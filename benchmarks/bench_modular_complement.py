"""Modular mix-and-match complementation vs monolithic rank-based.

The headline experiment for the per-SCC decomposition subsystem
(``repro.automata.complement.modular``): on automata whose condensation
mixes inherently-weak, deterministic-accepting, and general accepting
SCCs, the round-robin product of per-class partial complements should
be *dramatically* smaller than the monolithic rank-based complement,
which pays the rank machinery for every state -- including the ones a
breakpoint construction handles for free.

Methodology: three hand-built mixed-SCC families (weak+general,
det+general, and the full weak+det+general mix behind a
nondeterministic rejecting prefix).  Every family classifies as RANK
(the general SCC breaks semideterminism) and has a genuinely mixed
condensation, so the dispatch heuristic engages on its own.  For each
automaton both complements are materialized and the macrostate counts
compared; the monolithic side is capped (it reaches tens of thousands
of macrostates on seven input states), and a capped count enters the
saving as a *lower bound*.  Each family must show >= 25% fewer
complement macrostates -- in practice the saving is far larger.

Correctness rides along: the modular complement is word-checked as a
complement of its input, and checked against the rank complement
whenever the latter fits under the cap.  A final sweep checks
difference-verdict agreement between forced-modular and the default
dispatch on the Figure-4 random-SDBA corpus.
"""

from __future__ import annotations

import random
import time

from conftest import write_bench_json

from repro.automata.complement.dispatch import (ComplementKind, classify_kind,
                                                implicit_complement)
from repro.automata.complement.modular import condensation
from repro.automata.complement.rank_based import RankComplement
from repro.automata.difference import difference
from repro.automata.gba import ba, materialize
from repro.automata.ops import complete
from repro.automata.words import UPWord, accepts
from repro.core.budget import ResourceExhausted

SIGMA = ("a", "b")

#: Required macrostate saving per family (the ISSUE's acceptance bar).
TARGET_SAVING = 0.25

#: Exploration cap for the monolithic rank complement; hitting it turns
#: the measured saving into a lower bound.
RANK_CAP = 20_000

#: Sampled ultimately-periodic words per automaton.
N_WORDS = 120


def _mixed(weak: bool, det: bool) -> "GBA":
    """Nondet rejecting prefix feeding the requested accepting SCCs plus
    one small general SCC (which keeps ``classify_kind`` at RANK)."""
    trans = {
        ("p0", "a"): {"p0"}, ("p0", "b"): {"p0", "g0"},
        # general accepting SCC {g0, g1}: internal nondeterminism and an
        # F-free cycle
        ("g0", "a"): {"g0", "g1"}, ("g1", "a"): {"g0"},
        ("g1", "b"): {"g1"},
    }
    accepting = {"g0"}
    if weak:
        trans[("p0", "a")] = {"p0", "w0"}
        trans[("w0", "a")] = {"w1"}
        trans[("w1", "a")] = {"w0"}
        accepting |= {"w0", "w1"}
    if det:
        trans[("p0", "b")] = {"p0", "g0", "d0"}
        trans[("d0", "a")] = {"d1"}
        trans[("d1", "a")] = {"d0"}
        trans[("d1", "b")] = {"d1"}
        accepting.add("d0")
    return complete(ba(SIGMA, trans, {"p0"}, accepting))


FAMILIES = {
    "weak+general": lambda: _mixed(weak=True, det=False),
    "det+general": lambda: _mixed(weak=False, det=True),
    "weak+det+general": lambda: _mixed(weak=True, det=True),
}


def _words(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        prefix = tuple(rng.choice(SIGMA) for _ in range(rng.randint(0, 4)))
        period = tuple(rng.choice(SIGMA) for _ in range(rng.randint(1, 4)))
        out.append(UPWord(prefix, period))
    return out


def measure(auto):
    """Materialize both complements; returns the per-family record."""
    assert classify_kind(auto) is ComplementKind.RANK
    cond = condensation(auto)
    assert cond.modular_pays_off(), cond.counts()
    implicit, kind = implicit_complement(auto, modular=True)
    assert kind is ComplementKind.MODULAR

    start = time.perf_counter()
    modular = materialize(implicit)
    seconds_modular = time.perf_counter() - start

    start = time.perf_counter()
    try:
        rank = materialize(RankComplement(auto), limit=RANK_CAP)
        rank_states, capped = len(rank.states), False
    except ResourceExhausted:
        rank, rank_states, capped = None, RANK_CAP, True
    seconds_rank = time.perf_counter() - start

    sample = _words(N_WORDS, hash(frozenset(auto.states)) % 10_000)
    for word in sample:
        assert accepts(auto, word) != accepts(modular, word), str(word)
        if rank is not None:
            assert accepts(modular, word) == accepts(rank, word), str(word)

    saving = 1.0 - len(modular.states) / rank_states
    return {
        "input_states": len(auto.states),
        "condensation": cond.counts(),
        "modular_states": len(modular.states),
        "rank_states": rank_states,
        "rank_capped": capped,
        "saving": saving,
        "seconds_modular": seconds_modular,
        "seconds_rank": seconds_rank,
    }


def test_modular_complement_report():
    print(f"\n=== modular vs monolithic rank-based complementation "
          f"(rank cap {RANK_CAP}) ===")
    families = {}
    for name, build in FAMILIES.items():
        record = measure(build())
        families[name] = record
        capped = ">=" if record["rank_capped"] else "  "
        print(f"  {name:18s} |A|={record['input_states']:2d}  "
              f"modular {record['modular_states']:5d} vs "
              f"rank {capped}{record['rank_states']:5d}  "
              f"saving {record['saving']*100:5.1f}%  "
              f"({record['seconds_modular']*1000:6.1f}ms vs "
              f"{record['seconds_rank']*1000:7.1f}ms)")
    worst = min(families.values(), key=lambda r: r["saving"])
    write_bench_json("modular_complement", {
        "rank_cap": RANK_CAP,
        "families": families,
        "worst_saving": worst["saving"],
        "target_saving": TARGET_SAVING,
        "seconds_modular": sum(r["seconds_modular"] for r in families.values()),
        "seconds_rank": sum(r["seconds_rank"] for r in families.values()),
    })
    for name, record in families.items():
        assert record["saving"] >= TARGET_SAVING, (
            f"{name}: expected >= {TARGET_SAVING:.0%} fewer complement "
            f"macrostates, got {record['saving']:.1%}")


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


def test_modular_complement_corpus_agreement(corpus):
    pairs = _corpus_pairs(corpus)
    start = time.perf_counter()
    forced = [difference(m, s, kind=ComplementKind.MODULAR).is_empty
              for m, s in pairs]
    mid = time.perf_counter()
    default = [difference(m, s).is_empty for m, s in pairs]
    end = time.perf_counter()
    assert forced == default
    print(f"\n=== forced-modular vs dispatch on the Fig. 4 corpus "
          f"({len(pairs)} differences) ===")
    print(f"  modular:  {(mid - start)*1000:8.1f}ms")
    print(f"  dispatch: {(end - mid)*1000:8.1f}ms")
    write_bench_json("modular_complement_corpus", {
        "differences": len(pairs),
        "seconds_modular": mid - start,
        "seconds_dispatch": end - mid,
    })
