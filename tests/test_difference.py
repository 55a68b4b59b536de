"""Tests for the on-the-fly difference construction with subsumption.

Correctness oracle: ``w in L(A \\ B)  iff  w in L(A) and not w in L(B)``
over sampled UP words, for every complementation class of ``B``; plus
the Section 6 guarantees (same language with and without subsumption,
never more explored states with pruning on).
"""

import random

import pytest

from repro.automata.complement import ComplementKind
from repro.automata.complement.ncsb import MacroState, subsumes, subsumes_b
from repro.automata.difference import SubsumptionOracle, difference
from repro.automata.emptiness import find_accepting_lasso
from repro.automata.gba import GBA, ba
from repro.automata.words import UPWord, accepts

SIGMA = ("a", "b")


def words(count, seed):
    rng = random.Random(seed)
    return [UPWord(tuple(rng.choice(SIGMA) for _ in range(rng.randint(0, 4))),
                   tuple(rng.choice(SIGMA) for _ in range(rng.randint(1, 4))))
            for _ in range(count)]


def random_ba(seed, n=4, acceptance_density=0.5):
    rng = random.Random(seed)
    states = list(range(n))
    transitions = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if rng.random() < 0.4}
            if targets:
                transitions[(q, s)] = targets
    accepting = [q for q in states if rng.random() < acceptance_density] or [0]
    return ba(set(SIGMA), transitions, [0], accepting, states=states)


def sdba(seed):
    rng = random.Random(seed)
    q1 = ["n0", "n1"]
    q2 = ["d0", "d1", "d2"]
    accepting = [q for q in q2 if rng.random() < 0.6] or [q2[0]]
    transitions = {}
    for q in q1:
        for s in SIGMA:
            targets = {t for t in q1 if rng.random() < 0.5}
            if rng.random() < 0.5:
                targets.add(rng.choice(q2))
            if targets:
                transitions[(q, s)] = targets
    for q in q2:
        for s in SIGMA:
            transitions[(q, s)] = {rng.choice(q2)}
    return ba(set(SIGMA), transitions, ["n0"], accepting, states=q1 + q2)


@pytest.mark.parametrize("seed", range(10))
def test_difference_language_sdba(seed):
    minuend = random_ba(seed, acceptance_density=1.0)
    subtrahend = sdba(seed + 100)
    result = difference(minuend, subtrahend)
    assert result.kind in (ComplementKind.SDBA_LAZY, ComplementKind.DBA,
                           ComplementKind.FINITE_TRACE)
    for word in words(120, seed):
        expected = accepts(minuend, word) and not accepts(subtrahend, word)
        assert accepts(result.automaton, word) == expected, str(word)


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("subsumption", [True, False])
def test_difference_all_option_combinations(lazy, subsumption):
    minuend = random_ba(3, acceptance_density=1.0)
    subtrahend = sdba(77)
    result = difference(minuend, subtrahend, lazy=lazy, subsumption=subsumption)
    for word in words(100, 5):
        expected = accepts(minuend, word) and not accepts(subtrahend, word)
        assert accepts(result.automaton, word) == expected


@pytest.mark.parametrize("seed", range(6))
def test_subsumption_explores_no_more_states(seed):
    minuend = random_ba(seed, acceptance_density=1.0)
    subtrahend = sdba(seed + 200)
    with_sub = difference(minuend, subtrahend, subsumption=True)
    without = difference(minuend, subtrahend, subsumption=False)
    assert with_sub.stats.explored_states <= without.stats.explored_states
    assert with_sub.is_empty == without.is_empty


def test_difference_with_self_is_empty():
    auto = sdba(9)
    all_accepting = ba(auto.alphabet, auto.transitions, auto.initial_states(),
                       auto.states, states=auto.states)
    result = difference(all_accepting, all_accepting)
    # L(A) \ L(A) = empty for the all-accepting view of the same graph
    assert result.is_empty


def test_difference_forced_kind():
    from repro.automata.classify import is_deterministic
    minuend = random_ba(1, acceptance_density=1.0)
    # pick a genuinely nondeterministic SDBA (a deterministic one would
    # legitimately dispatch to the DBA procedure)
    subtrahend = next(s for s in (sdba(k) for k in range(50))
                      if not is_deterministic(s))
    forced = difference(minuend, subtrahend, kind=ComplementKind.SDBA_ORIGINAL)
    assert forced.kind is ComplementKind.SDBA_ORIGINAL
    default = difference(minuend, subtrahend)
    assert default.kind is ComplementKind.SDBA_LAZY
    for word in words(80, 3):
        assert accepts(forced.automaton, word) == accepts(default.automaton, word)


def test_difference_with_rank_based_complement():
    minuend = random_ba(11, acceptance_density=1.0)
    general = ba(set(SIGMA),
                 {("f", "a"): {"f", "g"}, ("f", "b"): {"f"},
                  ("g", "a"): {"g"}, ("g", "b"): {"f"}},
                 ["f"], ["f"])
    result = difference(minuend, general)
    assert result.kind is ComplementKind.RANK
    for word in words(80, 12):
        expected = accepts(minuend, word) and not accepts(general, word)
        assert accepts(result.automaton, word) == expected


def test_difference_witness_extraction():
    # words with infinitely many a's, minus words ending in a^w
    minuend = ba(set(SIGMA),
                 {("p", "a"): {"q"}, ("p", "b"): {"p"},
                  ("q", "a"): {"q"}, ("q", "b"): {"p"}},
                 ["p"], ["q"])
    subtrahend = sdba_suffix_a()
    result = difference(minuend, subtrahend)
    assert not result.is_empty
    witness = find_accepting_lasso(result.automaton)
    assert witness is not None
    assert accepts(minuend, witness)
    assert not accepts(subtrahend, witness)


def sdba_suffix_a():
    return ba(set(SIGMA),
              {("u", "a"): {"u", "v"}, ("u", "b"): {"u"},
               ("v", "a"): {"v"}, ("v", "b"): {"w"},
               ("w", "a"): {"w"}, ("w", "b"): {"w"}},
              ["u"], ["v"])


# -- the subsumption oracle --------------------------------------------------------------

def _macro(n=(), c=(), s=(), b=()):
    return MacroState(frozenset(n), frozenset(c), frozenset(s), frozenset(b))


def test_oracle_antichain_basics():
    oracle = SubsumptionOracle(subsumes)
    big = _macro(c={"x"})
    small = _macro(c={"x", "y"})  # superset components = smaller language
    oracle.add(("qa", big))
    assert oracle.contains(("qa", big))
    assert oracle.contains(("qa", small))      # subsumed by big
    assert not oracle.contains(("other", big))  # different GBA-side state
    before = len(oracle)
    oracle.add(("qa", small))                   # redundant: no growth
    assert len(oracle) == before


def test_oracle_replaces_dominated_entries():
    oracle = SubsumptionOracle(subsumes)
    small = _macro(c={"x", "y"})
    big = _macro(c={"x"})
    oracle.add(("qa", small))
    assert len(oracle) == 1
    oracle.add(("qa", big))  # big dominates small: antichain stays size 1
    assert len(oracle) == 1
    assert oracle.contains(("qa", small))
    assert oracle.contains(("qa", big))


def test_oracle_b_relation_distinguishes():
    oracle = SubsumptionOracle(subsumes_b)
    with_b = _macro(c={"x"}, b={"x"})
    without_b = _macro(c={"x"})
    oracle.add(("qa", without_b))
    # with_b has a superset B-component, so it IS subsumed under <=_B
    assert oracle.contains(("qa", with_b))
    # the converse direction must not hold
    oracle2 = SubsumptionOracle(subsumes_b)
    oracle2.add(("qa", with_b))
    assert not oracle2.contains(("qa", without_b))


def test_oracle_non_macro_states_fall_back_to_exact():
    oracle = SubsumptionOracle(subsumes)
    oracle.add(("qa", "plain-state"))
    assert oracle.contains(("qa", "plain-state"))
    assert not oracle.contains(("qa", "other"))


def test_blown_state_limit_still_registers_partial_effort():
    """Regression: a difference aborted by its state cap used to
    skip counter registration entirely, so a corpus whose every round
    degraded reported ``difference.explored_states == 0`` -- partial
    exploration must always be accounted."""
    from repro.core.budget import Budget, ResourceExhausted, use_budget
    from repro.obs.metrics import MetricsRegistry, use_registry

    minuend = random_ba(1, n=5)
    subtrahend = random_ba(2, n=4)
    with use_registry(MetricsRegistry()) as registry, \
            use_budget(Budget(difference_state_cap=1)):
        with pytest.raises(ResourceExhausted) as err:
            difference(minuend, subtrahend)
        counters = registry.snapshot()["counters"]
    assert err.value.resource == "difference-states"
    assert counters.get("difference.explored_states", 0) >= 1
    assert counters.get("difference.aborted", 0) == 1


def test_expired_deadline_still_registers_partial_effort(monkeypatch):
    import importlib
    import time

    from repro.core.budget import Budget, DeadlineExceeded, use_budget
    from repro.obs.metrics import MetricsRegistry, use_registry

    # The deadline expires once the product exploration starts (the
    # complement construction polls the scoped budget too, and would
    # otherwise stop the call before any exploration effort exists).
    difference_module = importlib.import_module("repro.automata.difference")
    explore = difference_module.remove_useless

    def explore_past_deadline(*args, **kwargs):
        with use_budget(Budget(deadline=time.perf_counter() - 1.0)):
            return explore(*args, **kwargs)

    monkeypatch.setattr(difference_module, "remove_useless",
                        explore_past_deadline)
    minuend = random_ba(3, n=5)
    subtrahend = random_ba(4, n=4)
    with use_registry(MetricsRegistry()) as registry:
        with pytest.raises(DeadlineExceeded):
            difference(minuend, subtrahend)
        counters = registry.snapshot()["counters"]
    assert counters.get("difference.aborted", 0) == 1
