"""The refinement loop of Figure 1.

Starting from the program GBA, the engine repeatedly

1. extracts an ultimately periodic word ``u v^w`` from the uncertified
   remainder (Algorithm 1 keeps it trimmed, so a plain accepting-lasso
   search suffices),
2. runs the lasso prover,
3. on success, generalizes the proof into a certified module through the
   configured stage sequence,
4. removes the module's language with the on-the-fly difference
   (complementation class chosen by the module's shape; NCSB-Lazy and
   subsumption per configuration),

until the remainder is empty (TERMINATING), a nontermination witness is
found (NONTERMINATING), or a budget is exhausted (UNKNOWN).

Resource discipline: every run owns a :class:`~repro.core.budget.Budget`
(wall-clock deadline plus every cap of the configuration, the per-call
difference and powerset state caps included) scoped via ``use_budget``,
the only route by which a deadline or cap reaches the solver, stage and
automata layers.  Next to it the run scopes a fresh Fourier--Motzkin
memo (:func:`repro.logic.fourier_motzkin.use_memo`), dropped when the
run ends.  A state or constraint blowup first walks the
*degradation ladder* -- the same proof re-generalized at structurally
cheaper stages -- and only becomes UNKNOWN when every rung blows up
too; each fallback is recorded as an ``Incident`` on the run's stats.
A deadline, wherever it hits, reaches the one handler at the end of the
loop and ends the run UNKNOWN/timeout.

Each run is observed end to end: an ``analysis`` span wraps the loop,
every iteration gets a ``round`` span (with ``lasso-search``,
``prove-lasso``, and ``generalize`` children; ``difference`` /
``emptiness`` / ``solver-call`` spans open further down the stack), and
a fresh metrics registry is scoped to the run so its snapshot lands in
``AnalysisStats.metrics``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.automata.complement.dispatch import ComplementKind, kind_applies
from repro.automata.difference import difference
from repro.automata.emptiness import find_accepting_lasso
from repro.automata.gba import GBA
from repro.automata.words import UPWord
from repro.core.budget import (Budget, Capped, DeadlineExceeded,
                               ResourceExhausted, use_budget)
from repro.core.config import AnalysisConfig
from repro.core.module import CertifiedModule
from repro.core.stages import Stage, build_finite_module, generalize
from repro.core.stats import (AnalysisStats, Incident, RefinementRound,
                              StatsCollector)
from repro.logic import fourier_motzkin as fm
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.program.cfg import ControlFlowGraph
from repro.ranking.lasso import Lasso
from repro.ranking.nontermination import NontermWitness
from repro.ranking.synthesis import ProofKind, prove_lasso


class Verdict(enum.Enum):
    TERMINATING = "terminating"
    NONTERMINATING = "nonterminating"
    UNKNOWN = "unknown"


#: The degradation ladder: when subtracting a module blows a resource
#: cap, the proof is re-generalized at the next rung and the subtraction
#: retried.  Ordered from the most general module (worst-case
#: complementation) down to the finite-trace module whose complement is
#: trivial; the lasso module sits between the semideterministic and
#: deterministic powerset stages because it is semideterministic but
#: never larger than the sampled word.
DEGRADATION_LADDER: tuple[Stage, ...] = (Stage.NONDET, Stage.SEMIDET,
                                         Stage.LASSO, Stage.DETERMINISTIC,
                                         Stage.FINITE)


def ladder_tail(stage_value: str) -> tuple[Stage, ...]:
    """The rungs to retry after a module of stage ``stage_value`` blew a
    resource cap: everything strictly below it on the ladder.

    A stage *not* on the ladder (e.g. ``"interp"`` interpolant modules)
    restarts the ladder from the top -- every rung is structurally
    cheaper than an off-ladder module, and silently skipping the ladder
    (the old ``start = len(ladder)`` behavior) sent such runs straight
    to UNKNOWN.
    """
    for position, stage in enumerate(DEGRADATION_LADDER):
        if stage.value == stage_value:
            return DEGRADATION_LADDER[position + 1:]
    return DEGRADATION_LADDER


@dataclass
class TerminationResult:
    """Outcome of a termination analysis."""

    verdict: Verdict
    modules: list[CertifiedModule] = field(default_factory=list)
    witness: NontermWitness | None = None
    witness_word: UPWord | None = None
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    reason: str | None = None
    #: Per-configuration stats of a portfolio run (the winner's included;
    #: empty for direct :func:`~repro.core.api.prove_termination` calls).
    attempts: list[AnalysisStats] = field(default_factory=list)
    #: The final uncertified remainder for TERMINATING verdicts, so the
    #: firewall can recheck emptiness independently.  None otherwise.
    remainder: GBA | None = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.TERMINATING

    def __repr__(self) -> str:
        return f"TerminationResult({self.verdict.value}, modules={len(self.modules)})"


class RefinementEngine:
    """Drives the analysis of one program."""

    def __init__(self, cfg: ControlFlowGraph,
                 config: AnalysisConfig | None = None,
                 collector: StatsCollector | None = None,
                 checkpoint=None,
                 library=None):
        self._cfg = cfg
        self._config = config or AnalysisConfig()
        self._collector = collector or StatsCollector()
        #: Optional :class:`repro.core.checkpoint.Checkpointer`: the
        #: certified decomposition is persisted after every round and
        #: re-validated modules seed the run before the first one.
        self._checkpoint = checkpoint
        #: Optional :class:`repro.core.library.ModuleLibrary`: each
        #: fresh counterexample queries it before synthesis (a
        #: validated hit is subtracted with zero LP work) and every
        #: newly certified module is published back for other jobs.
        self._library = library

    def run(self) -> TerminationResult:
        tracer = get_tracer()
        registry = MetricsRegistry()
        config = self._config
        budget = Budget(deadline=(time.perf_counter() + config.timeout
                                  if config.timeout is not None else None),
                        macrostate_cap=config.macrostate_cap,
                        antichain_cap=config.antichain_cap,
                        fm_constraint_cap=config.fm_constraint_cap,
                        simulation_cap=config.simulation_cap,
                        difference_state_cap=config.difference_state_limit,
                        stage_state_cap=config.stage_state_budget)
        with obs_metrics.use_registry(registry), use_budget(budget), \
                fm.use_memo():
            with tracer.span("analysis", program=self._cfg.name,
                             config=config.describe()) as span:
                result = self._refine(tracer, registry, budget)
                span.set(verdict=result.verdict.value,
                         rounds=result.stats.iterations)
        return result

    def _refine(self, tracer, registry: MetricsRegistry,
                budget: Budget) -> TerminationResult:
        config = self._config
        collector = self._collector
        program_gba: GBA = self._cfg.to_gba()
        alphabet = program_gba.alphabet
        current = program_gba
        modules: list[CertifiedModule] = []
        library = self._library
        checkpoint = self._checkpoint
        round_start = time.perf_counter()
        # The round in progress: recorded by whichever exit ends it
        # (commit, or any verdict -- a timeout included).
        open_round: RefinementRound | None = None

        def close_round() -> None:
            nonlocal open_round
            if open_round is None:
                return
            open_round.seconds = time.perf_counter() - round_start
            registry.counter("refinement.rounds").inc()
            registry.histogram("round.seconds").observe(open_round.seconds)
            collector.stats.record_round(open_round)
            open_round = None

        def finish(verdict: Verdict, *, witness=None, word=None,
                   reason: str | None = None) -> TerminationResult:
            close_round()
            stats = collector.finish(self._cfg.name, config.describe(), reason)
            stats.metrics = registry.snapshot()
            result = TerminationResult(verdict, modules, witness, word,
                                       stats, reason)
            if verdict is Verdict.TERMINATING:
                result.remainder = current
            return result

        def note(kind: str, component: str, detail: str, index: int) -> None:
            # Counted in the registry only: finish() replaces the stats
            # snapshot with the registry's.
            collector.stats.incidents.append(
                Incident(kind, component, detail, round=index))
            registry.counter(f"incidents.{kind}").inc()

        def exhausted(component: str, exc: ResourceExhausted,
                      index: int) -> TerminationResult:
            """End the run on a cap no cheaper stage could dodge."""
            note("budget.exhausted", component,
                 f"{exc.resource}: {exc.detail}", index)
            return finish(Verdict.UNKNOWN,
                          reason=f"resource exhausted: {exc.resource}")

        pinned_kind = (ComplementKind(config.complement_kind)
                       if config.complement_kind else None)

        def subtract(minuend: GBA, module: CertifiedModule):
            # Best-effort pin: a kind that cannot complement this
            # module's automaton (e.g. NCSB pinned but a degraded module
            # is not semideterministic) falls back to the dispatch for
            # this subtraction instead of sinking the whole analysis.
            module_kind = pinned_kind
            if module_kind is not None \
                    and not kind_applies(module_kind, module.automaton):
                module_kind = None
            return difference(
                minuend, module.automaton,
                lazy=config.lazy_complement,
                subsumption=config.subsumption,
                modular=True,
                kind=module_kind)

        def degrade(failed: CertifiedModule, proof, exc: ResourceExhausted,
                    index: int):
            """Walk the ladder below ``failed``'s stage, retrying the
            subtraction at each rung: ``(module, result, None)``, or
            ``(None, None, last_overrun)`` when every rung blows up."""
            tried = {failed.stage}
            last: ResourceExhausted = exc
            for stage in ladder_tail(failed.stage):
                if stage.value in tried:
                    continue
                with Capped() as cap:
                    candidate = generalize(proof, (stage,), alphabet,
                                           interpolants=False)
                if cap.overrun is not None:
                    last = cap.overrun
                    continue
                if candidate.stage in tried:
                    continue
                tried.add(candidate.stage)
                note("budget.degraded", "refinement",
                     f"{failed.stage} -> {candidate.stage} "
                     f"after {last.resource}", index)
                registry.counter("budget.degradations").inc()
                with Capped() as cap:
                    return candidate, subtract(current, candidate), None
                last = cap.overrun
            return None, None, last

        def commit(module: CertifiedModule, result, *, fresh: bool,
                   companion: CertifiedModule | None = None) -> bool:
            """Make ``module``'s subtraction the new remainder and close
            the open round; True when the remainder is empty."""
            nonlocal current
            if result.kind in (ComplementKind.SDBA_ORIGINAL,
                               ComplementKind.SDBA_LAZY):
                # the Figure 4 corpus: every SDBA sent to NCSB
                collector.observe_sdba(module.automaton)
            collector.observe_difference(open_round, result)
            current = result.automaton
            if companion is not None and not result.is_empty:
                try:
                    extra = subtract(current, companion)
                except ResourceExhausted:
                    # Includes deadline overruns: the companion is an
                    # optional extra subtraction, and the next round's
                    # deadline check ends the run if time is truly up.
                    extra = None
                if extra is not None:
                    modules.append(companion)
                    if library is not None:
                        library.publish(companion, program=self._cfg.name)
                    collector.stats.modules_by_stage[companion.stage] += 1
                    # Fold the companion subtraction into the round's
                    # counters: it is real effort of this round, and the
                    # round's remainder size is the post-companion one
                    # (a companion emptying the remainder must show).
                    collector.observe_companion(open_round, extra,
                                                companion.stage)
                    current = extra.automaton
            close_round()
            modules.append(module)
            if fresh and library is not None:
                # Publish only freshly certified modules: library hits
                # are already in the file, restored checkpoint modules
                # were published by the run that earned them.
                library.publish(module, program=self._cfg.name)
            if checkpoint is not None:
                checkpoint.save(alphabet, modules)
            return not current.initial_states()

        try:
            if checkpoint is not None:
                # Warm start: only the modules restore() re-validated come
                # from disk; the remainder is rebuilt here, so the
                # checkpoint never enters the trust base.  A rejected
                # checkpoint costs nothing but the cold start.
                restored = checkpoint.restore(alphabet)
                if checkpoint.rejected:
                    note("checkpoint.rejected", "checkpoint",
                         checkpoint.rejected, None)
                for seeded, module in enumerate(restored):
                    with Capped() as cap:
                        result = subtract(current, module)
                    if cap.overrun is not None:
                        # The re-subtraction itself blew a cap: keep the
                        # modules already seeded (each was sound on its
                        # own) and let the refinement loop take it from
                        # the remainder built so far.
                        note("budget.degraded", "checkpoint",
                             f"restore stopped after {seeded} rounds: "
                             f"{cap.overrun.resource}", None)
                        break
                    current = result.automaton
                    modules.append(module)
                    collector.stats.modules_by_stage[module.stage] += 1
                    registry.counter("checkpoint.rounds_restored").inc()
                if modules and not current.initial_states():
                    return finish(Verdict.TERMINATING)
            for index in range(config.max_refinements):
                budget.check_deadline("refinement")
                round_start = time.perf_counter()
                with tracer.span("round", index=index) as round_span:
                    # The budget is checked *inside* the long
                    # explorations too (lasso search here, Algorithm 1
                    # in difference, the FM combination step in the
                    # solver), so one oversized round cannot blow far
                    # past the deadline.
                    with tracer.span("lasso-search"):
                        word = find_accepting_lasso(current)
                    if word is None:
                        return finish(Verdict.TERMINATING)
                    round_span.set(word=str(word))

                    if library is not None:
                        # Reuse before synthesis: a published module
                        # that accepts this counterexample and survives
                        # the Definition 3.1 re-check is subtracted with
                        # zero prover/LP work.  The library is advisory
                        # -- any failure below just falls through to
                        # synthesis.
                        hit: CertifiedModule | None = None
                        try:
                            with tracer.span("library-lookup") as lib_span:
                                hit = library.match(word, alphabet)
                                lib_span.set(hit=hit is not None)
                        except Exception as exc:  # noqa: BLE001 - advisory layer
                            note("library.error", "library",
                                 f"{type(exc).__name__}: {exc}", index)
                        if hit is not None:
                            open_round = RefinementRound(
                                word=str(word), proof_kind="library",
                                stage=hit.stage,
                                module_states=len(hit.automaton.states))
                            round_span.set(library=True, stage=hit.stage)
                            with Capped() as cap:
                                result = subtract(current, hit)
                            if cap.overrun is None:
                                if commit(hit, result, fresh=False):
                                    return finish(Verdict.TERMINATING)
                                continue
                            # A reused module blowing a cap is a miss in
                            # disguise: synthesize fresh, which can walk
                            # the degradation ladder stage by stage.
                            note("library.degraded", "library",
                                 f"reused {hit.stage} module blew "
                                 f"{cap.overrun.resource}; synthesizing fresh",
                                 index)
                            open_round = None

                    lasso = Lasso.from_word(word)
                    with Capped() as cap, \
                            tracer.span("prove-lasso") as proof_span:
                        proof = prove_lasso(
                            lasso,
                            check_nontermination=config.check_nontermination)
                        proof_span.set(kind=proof.kind.value)
                    if cap.overrun is not None:
                        return exhausted("prove-lasso", cap.overrun, index)
                    round_span.set(proof=proof.kind.value)
                    open_round = RefinementRound(word=str(word),
                                                 proof_kind=proof.kind.value)
                    if proof.kind is ProofKind.NONTERMINATING:
                        # Report the canonicalized lasso's word, not the
                        # sampled one: Lasso.from_word may rotate the
                        # period, and the nontermination witness state is
                        # a loop-head state of the *rotated* loop --
                        # replaying the sampled period from it could
                        # block at the rotated-away guard.
                        return finish(Verdict.NONTERMINATING,
                                      witness=proof.witness, word=lasso.word())
                    if not proof.is_terminating:
                        return finish(Verdict.UNKNOWN, word=word,
                                      reason=f"lasso not provable: {word}")

                    budget.check_deadline("generalize")
                    with Capped() as cap, \
                            tracer.span("generalize") as gen_span:
                        module = generalize(
                            proof, config.stages, alphabet,
                            interpolants=config.interpolant_modules)
                        gen_span.set(stage=module.stage,
                                     states=len(module.automaton.states))
                    if cap.overrun is not None:
                        # Re-generalize at the cheap end of the ladder:
                        # the finite/lasso modules exist for every proof
                        # and need no powerset construction or solver
                        # calls.
                        note("budget.degraded", "generalize",
                             f"{cap.overrun.resource} -> fallback module",
                             index)
                        registry.counter("budget.degradations").inc()
                        with Capped() as cap:
                            module = generalize(
                                proof, (Stage.FINITE, Stage.LASSO), alphabet,
                                interpolants=False)
                        if cap.overrun is not None:
                            return exhausted("generalize", cap.overrun, index)
                    open_round.stage = module.stage
                    open_round.module_states = len(module.automaton.states)
                    round_span.set(stage=module.stage)
                    # With interpolant modules on, the O(1)-complement
                    # finite module still comes for free: subtract it in
                    # the same round so coverage is a strict superset of
                    # the stage-1 path.
                    companion: CertifiedModule | None = None
                    if (config.interpolant_modules
                            and proof.kind is ProofKind.STEM_INFEASIBLE
                            and module.stage != Stage.FINITE.value):
                        companion = build_finite_module(proof, alphabet)
                    with Capped() as cap:
                        result = subtract(current, module)
                    if cap.overrun is not None:
                        module, result, last = degrade(module, proof,
                                                       cap.overrun, index)
                        if last is not None:
                            return exhausted("difference", last, index)
                        open_round.stage = module.stage
                        open_round.module_states = len(module.automaton.states)
                        round_span.set(stage=module.stage, degraded=True)
                    if commit(module, result, fresh=True, companion=companion):
                        return finish(Verdict.TERMINATING)
            return finish(Verdict.UNKNOWN, reason="refinement budget exhausted")
        except DeadlineExceeded:
            # The one place a timeout becomes a verdict, wherever the
            # deadline hit; finish() records the round it cut short.
            return finish(Verdict.UNKNOWN, reason="timeout")
