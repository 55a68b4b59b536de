"""Per-analysis statistics.

The evaluation section needs per-run counters: refinement rounds,
modules produced per stage, difference-automaton sizes, complement
exploration effort, and wall-clock times.  A :class:`StatsCollector`
is threaded through the refinement engine; SDBAs sent to
complementation can be captured for the Figure 4 corpus.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

from repro.automata.difference import DifferenceResult
from repro.automata.gba import GBA


@dataclass
class Incident:
    """A structured record of a degradation or validation failure.

    Incidents are the machine-readable audit trail of the robustness
    layer: when the verdict firewall rejects a certificate, when the
    budget ladder falls back to a cheaper stage, or when a resource cap
    turns a run into UNKNOWN, one of these lands in
    ``AnalysisStats.incidents`` (and a ``incidents.<kind>`` counter
    ticks in the run's metrics).  Kinds in use:

    - ``firewall.certificate`` / ``firewall.emptiness`` /
      ``firewall.witness`` -- a conclusive verdict failed re-validation
      and was downgraded to UNKNOWN,
    - ``budget.degraded`` -- the refinement loop fell down the stage
      ladder after a resource blowup,
    - ``budget.exhausted`` -- a resource cap ended the analysis.
    """

    kind: str
    component: str
    detail: str = ""
    round: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RefinementRound:
    """One iteration of the loop of Figure 1."""

    word: str
    proof_kind: str
    stage: str | None = None
    #: The per-round progress series: module size, remainder size and
    #: product states explored.  Run-wide effort totals (cache hits,
    #: subsumption hits, ...) live only in the run's metrics
    #: (``difference.*`` counters).
    module_states: int = 0
    difference_states: int = 0
    explored_states: int = 0
    complement_kind: str | None = None
    #: Per-kind accepting-component counts when this round's subtrahend
    #: went through modular complementation
    #: (``{"weak": .., "det": .., "rank": .., "inert": ..}``), else None.
    modular_components: dict | None = None
    #: Stage of the free companion module subtracted in the same round
    #: (interpolant rounds), or None.  When set, ``explored_states``
    #: includes the companion subtraction's effort and
    #: ``difference_states`` is the post-companion remainder size.
    companion_stage: str | None = None
    seconds: float = 0.0


_ROUND_FIELDS = frozenset(f.name for f in fields(RefinementRound))


@dataclass
class AnalysisStats:
    """Aggregated statistics of one analysis run."""

    program: str = ""
    config: str = ""
    rounds: list[RefinementRound] = field(default_factory=list)
    modules_by_stage: Counter = field(default_factory=Counter)
    total_seconds: float = 0.0
    gave_up_reason: str | None = None
    #: Snapshot of the run's metrics registry (see :mod:`repro.obs.metrics`):
    #: ``{"counters": ..., "gauges": ..., "histograms": ...}``.
    metrics: dict = field(default_factory=dict)
    #: Degradations and validation failures (see :class:`Incident`).
    incidents: list[Incident] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def peak_difference_states(self) -> int:
        return max((r.difference_states for r in self.rounds), default=0)

    def counter(self, name: str) -> int:
        return self.metrics.get("counters", {}).get(name, 0)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a snapshot counter: for events after the run's registry
        closed (incidents, the verdict firewall)."""
        counters = self.metrics.setdefault("counters", {})
        counters[name] = counters.get(name, 0) + n

    # Views over the counters: rounds seeded from a checkpoint (not in
    # ``iterations``), and module-library hits / misses.
    @property
    def restored_rounds(self) -> int:
        return self.counter("checkpoint.rounds_restored")

    @property
    def library_hits(self) -> int:
        return self.counter("library.hits")

    @property
    def library_misses(self) -> int:
        return self.counter("library.misses")

    def record_incident(self, incident: Incident) -> None:
        self.incidents.append(incident)
        self.count(f"incidents.{incident.kind}")

    def record_round(self, round_stats: RefinementRound) -> None:
        self.rounds.append(round_stats)
        if round_stats.stage:
            self.modules_by_stage[round_stats.stage] += 1

    def summary(self) -> str:
        stages = ", ".join(f"{k}={v}" for k, v in sorted(self.modules_by_stage.items()))
        return (f"{self.program} [{self.config}]: {self.iterations} rounds, "
                f"modules: {stages or 'none'}, {self.total_seconds:.3f}s")

    def to_dict(self) -> dict:
        """JSON-ready view of the full stats (``--stats-json`` payload)."""
        return {
            "program": self.program,
            "config": self.config,
            "iterations": self.iterations,
            "total_seconds": self.total_seconds,
            "peak_difference_states": self.peak_difference_states,
            "gave_up_reason": self.gave_up_reason,
            "restored_rounds": self.restored_rounds,
            "library_hits": self.library_hits,
            "library_misses": self.library_misses,
            "modules_by_stage": dict(self.modules_by_stage),
            "rounds": [asdict(r) for r in self.rounds],
            "metrics": self.metrics,
            "incidents": [i.to_dict() for i in self.incidents],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisStats":
        """Inverse of :meth:`to_dict`.  Extra keys are ignored, also on
        the rounds, so rows written by older versions still load."""
        stats = cls(program=data.get("program", ""),
                    config=data.get("config", ""),
                    total_seconds=data.get("total_seconds", 0.0),
                    gave_up_reason=data.get("gave_up_reason"),
                    metrics=data.get("metrics", {}))
        stats.rounds = [RefinementRound(**{k: v for k, v in r.items()
                                           if k in _ROUND_FIELDS})
                        for r in data.get("rounds", ())]
        stats.modules_by_stage = Counter(data.get("modules_by_stage", {}))
        stats.incidents = [Incident(**i) for i in data.get("incidents", ())]
        return stats


class StatsCollector:
    """Collects rounds and (optionally) the SDBAs sent to complementation."""

    def __init__(self, capture_sdbas: bool = False):
        self.stats = AnalysisStats()
        self.capture_sdbas = capture_sdbas
        self.sdbas: list[GBA] = []
        self._start = time.perf_counter()

    def observe_difference(self, round_stats: RefinementRound,
                           result: DifferenceResult) -> None:
        round_stats.difference_states = len(result.automaton.states)
        round_stats.explored_states = result.stats.explored_states
        round_stats.complement_kind = result.kind.value
        round_stats.modular_components = result.stats.modular_components

    def observe_companion(self, round_stats: RefinementRound,
                          result: DifferenceResult, stage: str) -> None:
        """Fold a same-round companion subtraction into the round.

        Unlike :meth:`observe_difference` this *accumulates*: the
        companion's explored states add to the main subtraction's,
        while ``difference_states`` becomes the size of the remainder
        the round actually ends with.
        """
        round_stats.companion_stage = stage
        round_stats.difference_states = len(result.automaton.states)
        round_stats.explored_states += result.stats.explored_states

    def observe_sdba(self, automaton: GBA) -> None:
        if self.capture_sdbas:
            self.sdbas.append(automaton)

    def finish(self, program: str, config: str, reason: str | None) -> AnalysisStats:
        self.stats.program = program
        self.stats.config = config
        self.stats.total_seconds = time.perf_counter() - self._start
        self.stats.gave_up_reason = reason
        return self.stats
