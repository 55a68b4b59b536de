"""Tests for statistics collection and configuration plumbing."""

import pytest

from repro.core.config import AnalysisConfig, StageSequence
from repro.core.stages import Stage
from repro.core.stats import AnalysisStats, RefinementRound, StatsCollector


def test_stage_sequences_well_formed():
    for name, sequence in StageSequence.BY_NAME.items():
        assert sequence, name
        assert sequence[-1] is Stage.NONDET, name
        # stages appear at most once
        assert len(sequence) == len(set(sequence)), name
    # fin always precedes the powerset stages in the multi sequences
    for name in ("i", "ii", "iii"):
        sequence = StageSequence.BY_NAME[name]
        assert sequence[0] is Stage.FINITE, name


def test_config_with_creates_modified_copy():
    base = AnalysisConfig()
    changed = base.with_(timeout=1.5, max_refinements=3)
    assert changed.timeout == 1.5
    assert changed.max_refinements == 3
    assert base.timeout is None
    assert changed.stages == base.stages


def test_config_is_hashable_value():
    assert AnalysisConfig() == AnalysisConfig()
    assert AnalysisConfig() != AnalysisConfig(subsumption=False)
    assert hash(AnalysisConfig()) == hash(AnalysisConfig())


def test_describe_mentions_all_options():
    config = AnalysisConfig(lazy_complement=False, subsumption=True,
                            interpolant_modules=True,
                            complement_kind="semidet+ncsb")
    described = config.describe()
    for token in ("ncsb-original", "subsumption", "interpolants", "semidet"):
        assert token in described


def test_stats_record_round_updates_aggregates():
    stats = AnalysisStats(program="p", config="c")
    stats.record_round(RefinementRound(word="w1", proof_kind="ranked",
                                       stage="semi", difference_states=10))
    stats.record_round(RefinementRound(word="w2", proof_kind="ranked",
                                       stage="semi", difference_states=50))
    stats.record_round(RefinementRound(word="w3", proof_kind="stem-infeasible",
                                       stage="finite", difference_states=5))
    assert stats.iterations == 3
    assert stats.modules_by_stage == {"semi": 2, "finite": 1}
    assert stats.peak_difference_states == 50
    summary = stats.summary()
    assert "3 rounds" in summary
    assert "semi=2" in summary


def test_stats_round_without_stage_not_counted_as_module():
    stats = AnalysisStats()
    stats.record_round(RefinementRound(word="w", proof_kind="nonterminating"))
    assert stats.iterations == 1
    assert not stats.modules_by_stage


def test_collector_finish_stamps_metadata():
    collector = StatsCollector()
    stats = collector.finish("prog", "cfg", "timeout")
    assert stats.program == "prog"
    assert stats.config == "cfg"
    assert stats.gave_up_reason == "timeout"
    assert stats.total_seconds >= 0


def test_collector_sdba_capture_flag():
    from repro.automata.gba import ba
    auto = ba({"a"}, {("q", "a"): {"q"}}, ["q"], ["q"])
    off = StatsCollector(capture_sdbas=False)
    off.observe_sdba(auto)
    assert off.sdbas == []
    on = StatsCollector(capture_sdbas=True)
    on.observe_sdba(auto)
    assert on.sdbas == [auto]


def test_config_round_trips_simulation_fields():
    config = AnalysisConfig(simulation_cap=1234)
    data = config.to_dict()
    assert data["simulation_cap"] == 1234
    assert AnalysisConfig.from_dict(data) == config
    # the default round-trips too (finite default cap)
    default = AnalysisConfig()
    assert AnalysisConfig.from_dict(default.to_dict()) == default


def test_refinement_round_records_companion_stage():
    stats = AnalysisStats(program="p", config="c")
    plain = RefinementRound(word="w1", proof_kind="ranked", stage="interp",
                            difference_states=4)
    companion = RefinementRound(word="w2", proof_kind="ranked", stage="interp",
                                companion_stage="finite", difference_states=7)
    stats.record_round(plain)
    stats.record_round(companion)
    from dataclasses import asdict
    assert asdict(plain)["companion_stage"] is None
    assert asdict(companion)["companion_stage"] == "finite"
    rebuilt = AnalysisStats.from_dict(stats.to_dict())
    assert rebuilt.rounds[1].companion_stage == "finite"


def test_collector_observe_companion_accumulates():
    from repro.automata.emptiness import RemovalStats
    from repro.automata.gba import ba

    class FakeResult:
        def __init__(self):
            self.automaton = ba({"a"}, {("q", "a"): {"q"}}, ["q"], ["q"])
            self.stats = RemovalStats()
            self.stats.explored_states = 5

    collector = StatsCollector()
    round_stats = RefinementRound(word="w", proof_kind="ranked",
                                  stage="interp", difference_states=40,
                                  explored_states=10)
    collector.observe_companion(round_stats, FakeResult(), "finite")
    assert round_stats.companion_stage == "finite"
    # explored states accumulate across the two subtractions ...
    assert round_stats.explored_states == 15
    # ... while difference_states reflects the final (companion) result
    assert round_stats.difference_states == 1
