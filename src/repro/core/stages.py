"""The multi-stage generalization constructions of Section 3.1.

Stage 0 builds the initial certified lasso module ``M_uvw`` (merging
equal-predicate states); stages 1-4 generalize it into, respectively, a
finite-trace module, the deterministic module of Definition 3.2, the
semideterministic module of Section 3.1.4, and the fully
nondeterministic module of Section 3.1.5.  ``generalize`` walks a
configured stage sequence and returns the first module whose language
contains the sampled word ``u v^w`` -- the guarantee the refinement loop
needs to make progress.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Iterable, Sequence

from repro.automata.gba import State, ba
from repro.core.budget import current_budget
from repro.core.module import CertifiedModule
from repro.logic.predicates import Pred
from repro.obs import metrics as _metrics
from repro.program.statements import Statement, hoare_valid
from repro.ranking.certificate import RankCertificate, build_certificate
from repro.ranking.lasso import Lasso
from repro.ranking.synthesis import LassoProof, ProofKind


class Stage(enum.Enum):
    """Generalization stages in increasing complementation cost."""

    LASSO = "lasso"          # stage 0
    FINITE = "finite"        # stage 1
    DETERMINISTIC = "det"    # stage 2
    SEMIDET = "semi"         # stage 3
    NONDET = "nondet"        # stage 4


#: Stage label of interpolant-based modules.  Deliberately *not* a
#: :class:`Stage` member: interpolant modules sit outside the ladder of
#: re-generalizable stages (they need the interpolating solver, not just
#: a cheaper powerset), and the refinement loop's degradation logic
#: keys off this being off-ladder (see ``ladder_tail``).
INTERPOLANT_STAGE = "interp"


# -- stage 0: the initial certified lasso module --------------------------------

def build_lasso_module(proof: LassoProof,
                       cert: RankCertificate | None = None) -> CertifiedModule:
    """``M_uvw``: a BA for exactly ``u v^w`` with equal-predicate states
    merged (Section 3.1.1)."""
    lasso = proof.lasso
    cert = cert or build_certificate(proof)
    stem, loop = lasso.stem, lasso.loop

    positions: list[tuple[str, int]] = [("s", i) for i in range(len(stem) + 1)]
    positions += [("l", i) for i in range(1, len(loop))]
    head: tuple[str, int] = ("s", len(stem))

    def pred_of(pos: tuple[str, int]) -> Pred:
        section, index = pos
        return cert.stem_preds[index] if section == "s" else cert.loop_preds[index]

    # Merge equal-predicate positions into classes (stable representatives).
    class_of: dict[tuple[str, int], int] = {}
    reps: list[Pred] = []
    for pos in positions:
        pred = pred_of(pos)
        for k, existing in enumerate(reps):
            if existing == pred:
                class_of[pos] = k
                break
        else:
            class_of[pos] = len(reps)
            reps.append(pred)

    def loop_pos(index: int) -> tuple[str, int]:
        return head if index % len(loop) == 0 else ("l", index)

    transitions: dict[tuple[State, Statement], set[State]] = {}
    for i, stmt in enumerate(stem):
        transitions.setdefault(
            (class_of[("s", i)], stmt), set()).add(class_of[("s", i + 1)])
    for i, stmt in enumerate(loop):
        transitions.setdefault(
            (class_of[loop_pos(i)], stmt), set()).add(class_of[loop_pos(i + 1)])

    alphabet = frozenset(stem + loop)
    automaton = ba(alphabet, transitions, [class_of[("s", 0)]],
                   [class_of[head]], states=set(class_of.values()))
    certificate = {k: reps[k] for k in set(class_of.values())}
    return CertifiedModule(automaton, cert.ranking, certificate,
                           stage=Stage.LASSO.value, source_word=lasso.word())


# -- stage 1: finite-trace module ---------------------------------------------------

def build_finite_module(proof: LassoProof,
                        program_alphabet: Iterable[Statement],
                        ) -> CertifiedModule | None:
    """``M_fin`` (Section 3.1.2): only for stem-infeasible lassos.

    Accepts ``u_1 .. u_p . Sigma^w`` where ``p`` is the first infeasible
    stem position -- any path with that prefix is infeasible, hence
    trivially terminating.
    """
    if proof.kind is not ProofKind.STEM_INFEASIBLE:
        return None
    assert proof.infeasible_at is not None and proof.ranking is not None
    p = proof.infeasible_at
    lasso = proof.lasso
    sigma = frozenset(program_alphabet) | frozenset(lasso.stem[:p])
    posts = lasso.stem_posts()

    transitions: dict[tuple[State, Statement], set[State]] = {}
    for i in range(p):
        transitions.setdefault((i, lasso.stem[i]), set()).add(i + 1)
    for stmt in sigma:
        transitions.setdefault((p, stmt), set()).add(p)
    automaton = ba(sigma, transitions, [0], [p], states=range(p + 1))
    certificate: dict[State, Pred] = {
        i: Pred.of_inf(posts[i]) for i in range(p)}
    certificate[p] = Pred.bottom()
    return CertifiedModule(automaton, proof.ranking.expr, certificate,
                           stage=Stage.FINITE.value, source_word=lasso.word())


# -- stages 2 and 3: powerset constructions over M_uvw --------------------------------

class _PowersetBuilder:
    """Shared delta-wedge machinery of Definitions 3.2 / Section 3.1.4."""

    def __init__(self, base: CertifiedModule):
        self._base = base
        self._accepting = base.automaton.accepting
        self._all_states = sorted(base.automaton.states, key=repr)
        self._cert = base.certificate
        self._ranking = base.ranking
        budget = current_budget()
        self._left = budget.stage_state_cap if budget is not None else None
        self._conj_cache: dict[frozenset, Pred] = {}
        self._wedge_cache: dict[tuple[frozenset, Statement], frozenset] = {}

    @property
    def alphabet(self) -> frozenset:
        return self._base.automaton.alphabet

    def conj(self, states: frozenset) -> Pred:
        """``AND of I(q) for q in states`` (top for the empty set)."""
        if states not in self._conj_cache:
            pred = Pred.top()
            for q in sorted(states, key=repr):
                pred = pred.and_(self._cert[q])
            self._conj_cache[states] = pred
        return self._conj_cache[states]

    def has_accepting(self, states: frozenset) -> bool:
        return bool(states & self._accepting)

    def is_accepting_state(self, states: frozenset) -> bool:
        """F_det membership: contains qf or has an unsat conjunction."""
        return self.has_accepting(states) or self.conj(states).is_unsat()

    def delta_wedge(self, states: frozenset, stmt: Statement) -> frozenset:
        """``delta_and(Q, stmt)`` of Definition 3.2: the maximal set of
        base states whose predicate follows by a valid Hoare triple."""
        key = (states, stmt)
        if key not in self._wedge_cache:
            pre = self.conj(states)
            update = self._ranking if self.has_accepting(states) else None
            out = frozenset(
                q for q in self._all_states
                if hoare_valid(pre, stmt, self._cert[q], oldrnk_update=update))
            self._wedge_cache[key] = out
        return self._wedge_cache[key]

    def det_successor(self, states: frozenset, stmt: Statement) -> frozenset:
        """``delta_det`` of Definition 3.2: when the accepting state is
        entered, drop non-accepting states whose predicate mentions
        ``oldrnk`` (they would mix stem and loop knowledge)."""
        wedge = self.delta_wedge(states, stmt)
        if not self.has_accepting(wedge):
            return wedge
        return frozenset(q for q in wedge
                         if q in self._accepting
                         or not self._cert[q].mentions_oldrnk())

    def nondet_successor(self, states: frozenset, stmt: Statement) -> frozenset:
        """The additional stage-3 successor: ``delta_and \\ {qf}``."""
        return self.delta_wedge(states, stmt) - self._accepting

    def admit(self) -> bool:
        """Count one fresh powerset state; False once the scoped
        budget's ``stage_state_cap``, read when the builder was made,
        is spent (counted as ``stages.state_cap_hits``)."""
        if self._left is None:
            return True
        self._left -= 1
        if self._left < 0:
            _metrics.inc("stages.state_cap_hits")
            return False
        return True


def build_deterministic_module(base: CertifiedModule) -> CertifiedModule | None:
    """``M_det`` (Definition 3.2): the deterministic powerset module, or
    ``None`` when it outgrows the budget's ``stage_state_cap``."""
    builder = _PowersetBuilder(base)
    start = frozenset(base.automaton.initial_states())
    transitions: dict[tuple[State, Statement], set[State]] = {}
    seen: set[frozenset] = {start}
    queue: deque[frozenset] = deque([start])
    while queue:
        current = queue.popleft()
        for stmt in sorted(builder.alphabet, key=str):
            target = builder.det_successor(current, stmt)
            transitions.setdefault((current, stmt), set()).add(target)
            if target not in seen:
                if not builder.admit():
                    return None
                seen.add(target)
                queue.append(target)
    accepting = {q for q in seen if builder.is_accepting_state(q)}
    automaton = ba(builder.alphabet, transitions, [start], accepting,
                   states=seen)
    certificate = {q: builder.conj(q) for q in seen}
    return CertifiedModule(automaton, base.ranking, certificate,
                           stage=Stage.DETERMINISTIC.value,
                           source_word=base.source_word)


def build_semideterministic_module(base: CertifiedModule) -> CertifiedModule | None:
    """``M_semi`` (Section 3.1.4): ``M_det`` enriched with nondeterministic
    stay-in-the-stem successors; the result is a normalized SDBA, or
    ``None`` when it outgrows the budget's ``stage_state_cap``."""
    builder = _PowersetBuilder(base)
    start: tuple[frozenset, str] = (frozenset(base.automaton.initial_states()), "n")
    transitions: dict[tuple[State, Statement], set[State]] = {}
    seen: set[tuple[frozenset, str]] = {start}
    queue: deque[tuple[frozenset, str]] = deque([start])
    while queue:
        current = queue.popleft()
        states, phase = current
        for stmt in sorted(builder.alphabet, key=str):
            det_target = builder.det_successor(states, stmt)
            targets: set[tuple[frozenset, str]] = set()
            if phase == "d":
                targets.add((det_target, "d"))
            else:
                wedge = builder.delta_wedge(states, stmt)
                if builder.has_accepting(wedge):
                    targets.add((det_target, "d"))
                    targets.add((builder.nondet_successor(states, stmt), "n"))
                else:
                    targets.add((det_target, "n"))
            transitions.setdefault((current, stmt), set()).update(targets)
            for target in targets:
                if target not in seen:
                    if not builder.admit():
                        return None
                    seen.add(target)
                    queue.append(target)
    accepting = {(q, phase) for (q, phase) in seen
                 if phase == "d" and builder.is_accepting_state(q)}
    automaton = ba(builder.alphabet, transitions, [start], accepting,
                   states=seen)
    certificate = {(q, phase): builder.conj(q) for (q, phase) in seen}
    return CertifiedModule(automaton, base.ranking, certificate,
                           stage=Stage.SEMIDET.value,
                           source_word=base.source_word)


# -- stage 4: nondeterministic module --------------------------------------------------

def build_nondeterministic_module(base: CertifiedModule) -> CertifiedModule:
    """``M_nondet`` (Section 3.1.5): every Hoare-valid transition between
    pairs of ``M_uvw`` states is added.  Always accepts the source word."""
    auto = base.automaton
    accepting = auto.accepting
    cert = base.certificate
    transitions: dict[tuple[State, Statement], set[State]] = {
        key: set(targets) for key, targets in auto.transitions.items()}
    for q in auto.states:
        update = base.ranking if q in accepting else None
        for stmt in auto.alphabet:
            for target in auto.states:
                if target in transitions.get((q, stmt), set()):
                    continue
                if hoare_valid(cert[q], stmt, cert[target], oldrnk_update=update):
                    transitions.setdefault((q, stmt), set()).add(target)
    automaton = ba(auto.alphabet, transitions, auto.initial_states(),
                   accepting, states=auto.states)
    return CertifiedModule(automaton, base.ranking, dict(cert),
                           stage=Stage.NONDET.value, source_word=base.source_word)


# -- stage selection ---------------------------------------------------------------------

#: Loops longer than this are not rotation-searched (cost control).
_MAX_ROTATED_LOOP = 12


def _rotation_proofs(proof: LassoProof) -> Iterable[LassoProof]:
    """The proof itself, then proofs of the rotated alignments.

    ``u (v1 .. vm)^w  =  (u v1 .. vk) (v_{k+1} .. vm v1 .. vk)^w``: every
    rotation denotes the same omega-word, but the powerset stages are
    sensitive to where the accepting state falls in the loop, so a
    different alignment can succeed where the sampled one fails.
    Rotations that are not provably terminating are skipped.
    """
    from repro.ranking.synthesis import prove_lasso

    yield proof
    lasso = proof.lasso
    loop = lasso.loop
    if len(loop) > _MAX_ROTATED_LOOP:
        return
    for k in range(1, len(loop)):
        rotated = Lasso(lasso.stem + loop[:k], loop[k:] + loop[:k])
        candidate = prove_lasso(rotated, check_nontermination=False)
        if candidate.is_terminating:
            yield candidate


def _build_stage(stage: Stage, proof: LassoProof,
                 lasso_module: CertifiedModule,
                 program_alphabet: Iterable[Statement]) -> CertifiedModule | None:
    if stage is Stage.LASSO:
        return lasso_module
    if stage is Stage.FINITE:
        return build_finite_module(proof, program_alphabet)
    if stage is Stage.DETERMINISTIC:
        return build_deterministic_module(lasso_module)
    if stage is Stage.SEMIDET:
        return build_semideterministic_module(lasso_module)
    if stage is Stage.NONDET:
        return build_nondeterministic_module(lasso_module)
    raise ValueError(f"unknown stage {stage!r}")


def generalize(proof: LassoProof,
               sequence: Sequence[Stage],
               program_alphabet: Iterable[Statement],
               *,
               rotate: bool = True,
               interpolants: bool = False) -> CertifiedModule:
    """Run the multi-stage generalization (Section 3.1).

    Walks the sampled alignment through ``sequence`` first, then the
    loop rotations (see :func:`_rotation_proofs`); returns the first
    module whose language contains the sampled word.  Falls back to the
    lasso module itself (which accepts exactly that word) if every
    stage fails -- the refinement loop always makes progress.

    With ``interpolants`` enabled, a stem-infeasible lasso first tries a
    semideterministic module over *interpolant* predicates -- usually a
    far bigger language than stage 1's ``prefix . Sigma^w``.
    """
    word = proof.lasso.word()
    if interpolants and proof.kind is ProofKind.STEM_INFEASIBLE:
        cert = build_certificate(proof, interpolate=True)
        base = build_lasso_module(proof, cert)
        positions = len(proof.lasso.stem) + len(proof.lasso.loop)
        # Generalization beyond the stage-1 prefix module comes from
        # equal-interpolant positions merging into loops; an unmerged
        # chain only adds powerset cost, so fall through in that case.
        if len(base.automaton.states) < positions:
            module = build_semideterministic_module(base)
            if module is not None and module.language_contains(word):
                module.stage = INTERPOLANT_STAGE
                return module
    strong = [s for s in sequence if s not in (Stage.LASSO, Stage.NONDET)]
    weak = [s for s in sequence if s in (Stage.LASSO, Stage.NONDET)]

    # The sampled alignment is tried in full first; rotations only rescue
    # when every strong stage of the sampled alignment failed.
    base_module: CertifiedModule | None = None
    for candidate in (_rotation_proofs(proof) if rotate else iter([proof])):
        lasso_module = build_lasso_module(candidate,
                                          build_certificate(candidate))
        if base_module is None:
            base_module = lasso_module
        for stage in strong:
            module = _build_stage(stage, candidate, lasso_module,
                                  program_alphabet)
            if module is not None and module.language_contains(word):
                return module
    assert base_module is not None
    for stage in weak:
        module = _build_stage(stage, proof, base_module, program_alphabet)
        if module is not None and module.language_contains(word):
            return module
    return base_module
