"""Tests for the verdict firewall (:mod:`repro.core.firewall`)."""

from fractions import Fraction

from repro.automata.gba import ba
from repro.core.api import prove_termination_source
from repro.core.config import AnalysisConfig
from repro.core.firewall import screen
from repro.core.refinement import Verdict
from repro.program.cfg import build_cfg
from repro.program.parser import parse_program

COUNTDOWN = """
program countdown(x):
    while x > 0:
        x := x - 1
"""

DIVERGING = """
program up(x):
    while x > 0:
        x := x + 1
"""


def unscreened(source: str):
    """An honest engine result that has not passed the firewall yet."""
    result = prove_termination_source(
        source, AnalysisConfig(firewall=False, timeout=30.0))
    assert result.verdict is not Verdict.UNKNOWN
    return result


def firewall_incidents(result):
    return [i for i in result.stats.incidents if i.component == "firewall"]


def test_honest_terminating_result_passes():
    result = unscreened(COUNTDOWN)
    screened = screen(result, timeout=30.0)
    assert screened is result  # untouched, same object
    assert not firewall_incidents(screened)


def test_honest_nonterminating_result_passes():
    result = unscreened(DIVERGING)
    screened = screen(result, timeout=30.0)
    assert screened is result
    assert not firewall_incidents(screened)


def test_unknown_passes_through():
    result = prove_termination_source(
        COUNTDOWN, AnalysisConfig(firewall=False, max_refinements=0))
    assert result.verdict is Verdict.UNKNOWN
    assert screen(result) is result


def test_sabotaged_ranking_is_downgraded():
    result = unscreened(COUNTDOWN)
    module = result.modules[0]
    module.ranking = module.ranking + 5  # rank decrease no longer forced
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert screened.reason and screened.reason.startswith("firewall:")
    kinds = {i.kind for i in firewall_incidents(screened)}
    assert "firewall.certificate" in kinds
    assert screened.stats.gave_up_reason == screened.reason


def test_dropped_certificate_state_is_downgraded():
    result = unscreened(COUNTDOWN)
    module = result.modules[0]
    dropped = next(iter(module.certificate))
    del module.certificate[dropped]
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.certificate"
               for i in firewall_incidents(screened))


def test_nonempty_remainder_is_downgraded():
    result = unscreened(COUNTDOWN)
    # Swap in an automaton that still accepts lassos: the emptiness
    # recheck must refuse to certify the (now bogus) verdict.
    result.remainder = build_cfg(parse_program(DIVERGING)).to_gba()
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.emptiness"
               for i in firewall_incidents(screened))


def test_mutated_witness_state_is_downgraded():
    result = unscreened(DIVERGING)
    result.witness.state["x"] = Fraction(-5)  # guard x>0 now false
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.witness"
               for i in firewall_incidents(screened))


def test_non_integral_witness_is_downgraded():
    result = unscreened(DIVERGING)
    result.witness.state["x"] = Fraction(1, 2)
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any("non-integral" in i.detail
               for i in firewall_incidents(screened))


def test_missing_witness_is_downgraded():
    result = unscreened(DIVERGING)
    result.witness = None
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.witness"
               for i in firewall_incidents(screened))


def test_firewall_on_by_default_stays_conclusive():
    # The default pipeline screens every verdict; honest runs keep them.
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    result = prove_termination_source(DIVERGING, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.NONTERMINATING


def test_firewall_counts_on_the_runs_own_counters():
    # The screen runs after the engine's registry closed; its counters
    # must still reach the result (and so --json, store rows, reports).
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    counters = result.stats.metrics["counters"]
    assert counters["firewall.screens"] == 1
    assert counters["firewall.passed"] == 1
    assert "firewall.incidents" not in counters


def test_module_that_breaks_the_checker_is_downgraded():
    # A transition symbol that is not a Statement makes validate_module
    # raise; the firewall must turn that into a violation, not crash.
    result = unscreened(COUNTDOWN)
    module = result.modules[0]
    auto = module.automaton
    module.automaton = ba(
        {str(symbol) for symbol in auto.alphabet},
        {(q, str(symbol)): targets
         for (q, symbol), targets in auto.transitions.items()},
        auto.initial_states(), auto.accepting, states=auto.states)
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.certificate"
               for i in firewall_incidents(screened))
    counters = screened.stats.metrics["counters"]
    assert counters["firewall.incidents"] >= 1
    assert counters["incidents.firewall.certificate"] >= 1
