"""Tests for the certified-module constructions (stages 0-4)."""

import pytest

from repro.automata.classify import (is_deterministic, is_finite_trace,
                                     is_normalized_sdba, is_semideterministic)
from repro.automata.words import UPWord, accepts
from repro.benchgen.programs import program_suite
from repro.core.api import prove_termination
from repro.core.budget import Budget, use_budget
from repro.core.config import AnalysisConfig, StageSequence
from repro.core.module import validate_module
from repro.core.stages import (Stage, _PowersetBuilder,
                               build_deterministic_module,
                               build_finite_module, build_lasso_module,
                               build_nondeterministic_module,
                               build_semideterministic_module, generalize)
from repro.logic.atoms import atom_gt, atom_lt
from repro.logic.fourier_motzkin import use_memo
from repro.logic.linconj import conj
from repro.logic.terms import var
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.program.statements import Assign, Assume, hoare_valid
from repro.ranking.certificate import build_certificate
from repro.ranking.lasso import Lasso
from repro.ranking.synthesis import prove_lasso

i, j, x = var("i"), var("j"), var("x")

# the paper's sort inner-loop lasso: i>0 j:=1 (j<i j++)^w
OUTER_GUARD = Assume(conj(atom_gt(i, 0)), "i>0")
SET_J = Assign("j", var("one") * 0 + 1)
INNER_GUARD = Assume(conj(atom_lt(j, i)), "j<i")
INC_J = Assign("j", j + 1)

SORT_LASSO = Lasso([OUTER_GUARD, SET_J], [INNER_GUARD, INC_J])


def sort_proof():
    proof = prove_lasso(SORT_LASSO)
    assert proof.is_terminating
    return proof


# -- stage 0 ------------------------------------------------------------------------

def test_lasso_module_accepts_exactly_generalized_words():
    proof = sort_proof()
    module = build_lasso_module(proof)
    word = SORT_LASSO.word()
    assert module.language_contains(word)
    # the paper: merging yields (i>0)* j:=1 (j<i j++)^w
    more = UPWord((OUTER_GUARD, OUTER_GUARD, OUTER_GUARD, SET_J),
                  (INNER_GUARD, INC_J))
    assert module.language_contains(more)
    # but not words leaving the loop structure
    assert not module.language_contains(UPWord((OUTER_GUARD, SET_J), (INC_J,)))


def test_lasso_module_is_valid_certified_module():
    module = build_lasso_module(sort_proof())
    assert validate_module(module) == []


def test_lasso_module_stem_merging():
    # invariant-free proof: whole stem shares oldrnk=oo and merges
    module = build_lasso_module(sort_proof())
    assert len(module.automaton.states) <= 4


# -- stage 1 -------------------------------------------------------------------------

def make_infeasible_proof():
    kill = Assign("i", var("none") * 0)
    lasso = Lasso([kill, OUTER_GUARD, SET_J], [INNER_GUARD, INC_J])
    proof = prove_lasso(lasso)
    return proof


def test_finite_module_shape_and_language():
    proof = make_infeasible_proof()
    alphabet = {OUTER_GUARD, SET_J, INNER_GUARD, INC_J, Assign("i", i - 1)}
    module = build_finite_module(proof, alphabet)
    assert module is not None
    assert is_finite_trace(module.automaton)
    assert validate_module(module) == []
    # accepts the original word and ANY continuation after the prefix
    assert module.language_contains(proof.lasso.word())
    weird = UPWord((Assign("i", var("none") * 0), OUTER_GUARD),
                   (Assign("i", i - 1),))
    assert module.language_contains(weird)


def test_finite_module_requires_stem_infeasibility():
    assert build_finite_module(sort_proof(), {OUTER_GUARD}) is None


# -- stage 2 --------------------------------------------------------------------------

def test_deterministic_module_is_dba_and_valid():
    base = build_lasso_module(sort_proof())
    module = build_deterministic_module(base)
    assert module is not None
    assert is_deterministic(module.automaton)
    assert validate_module(module) == []


def test_deterministic_module_respects_budget():
    base = build_lasso_module(sort_proof())
    with use_registry(MetricsRegistry()) as registry:
        with use_budget(Budget(stage_state_cap=0)):
            assert build_deterministic_module(base) is None
            assert build_semideterministic_module(base) is None
        # outside a run the cap is off
        assert build_deterministic_module(base) is not None
    assert registry.snapshot()["counters"]["stages.state_cap_hits"] == 2


# -- stage 3 ---------------------------------------------------------------------------

def test_semideterministic_module_is_normalized_sdba_and_valid():
    base = build_lasso_module(sort_proof())
    module = build_semideterministic_module(base)
    assert module is not None
    assert is_semideterministic(module.automaton)
    assert is_normalized_sdba(module.automaton)
    assert validate_module(module) == []
    # the paper: M_semi accepts the sampled word (M_det may not)
    assert module.language_contains(SORT_LASSO.word())


def test_semi_language_contains_det_language():
    base = build_lasso_module(sort_proof())
    det = build_deterministic_module(base)
    semi = build_semideterministic_module(base)
    import random
    rng = random.Random(4)
    symbols = sorted(base.automaton.alphabet, key=str)
    for _ in range(150):
        word = UPWord(tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))),
                      tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3))))
        if accepts(det.automaton, word):
            assert accepts(semi.automaton, word), str(word)


# -- stage 4 -----------------------------------------------------------------------------

def test_nondet_module_always_accepts_source_word():
    base = build_lasso_module(sort_proof())
    module = build_nondeterministic_module(base)
    assert module.language_contains(SORT_LASSO.word())
    assert validate_module(module) == []


def test_nondet_module_supersets_lasso_language():
    base = build_lasso_module(sort_proof())
    module = build_nondeterministic_module(base)
    import random
    rng = random.Random(5)
    symbols = sorted(base.automaton.alphabet, key=str)
    for _ in range(150):
        word = UPWord(tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))),
                      tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3))))
        if accepts(base.automaton, word):
            assert accepts(module.automaton, word), str(word)


# -- generalize ------------------------------------------------------------------------------

def test_generalize_prefers_finite_for_infeasible():
    proof = make_infeasible_proof()
    module = generalize(proof, StageSequence.SEQ_I,
                        {OUTER_GUARD, SET_J, INNER_GUARD, INC_J})
    assert module.stage == Stage.FINITE.value
    assert module.language_contains(proof.lasso.word())


def test_generalize_picks_semi_for_ranked():
    proof = sort_proof()
    module = generalize(proof, StageSequence.SEQ_I,
                        {OUTER_GUARD, SET_J, INNER_GUARD, INC_J})
    assert module.stage == Stage.SEMIDET.value


def test_generalize_single_stage():
    proof = sort_proof()
    module = generalize(proof, StageSequence.SINGLE,
                        {OUTER_GUARD, SET_J, INNER_GUARD, INC_J})
    assert module.stage == Stage.NONDET.value


def test_generalize_always_returns_containing_module():
    for sequence in (StageSequence.SEQ_I, StageSequence.SEQ_II,
                     StageSequence.SEQ_III, StageSequence.SINGLE, ()):
        module = generalize(sort_proof(), sequence,
                            {OUTER_GUARD, SET_J, INNER_GUARD, INC_J})
        assert module.language_contains(SORT_LASSO.word())
        assert validate_module(module) == []



# -- the hoisted delta-wedge -----------------------------------------------------------

def _reachable_wedges(base):
    """Every ``(builder, states, stmt)`` the stage-2/3 constructions over
    ``base`` reach (the union of deterministic and stay-in-stem steps)."""
    builder = _PowersetBuilder(base)
    start = frozenset(base.automaton.initial_states())
    seen, queue = {start}, [start]
    while queue:
        states = queue.pop()
        for stmt in sorted(builder.alphabet, key=str):
            yield builder, states, stmt
            for target in (builder.det_successor(states, stmt),
                           builder.nondet_successor(states, stmt)):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)


@pytest.mark.parametrize("name", ["sort", "lex_pair", "two_branch",
                                  "inner_depends_outer"])
def test_delta_wedge_matches_per_state_hoare_triples(name):
    """One strongest postcondition per ``(states, stmt)`` decides the
    same successor set as one ``hoare_valid`` triple per base state, on
    every powerset state reached from the stage-0 lasso modules of suite
    programs."""
    program = next(p for p in program_suite() if p.name == name).parse()
    # The run uses delta_wedge too: the timeout keeps a broken one from
    # hanging this test instead of failing it.
    result = prove_termination(program, AnalysisConfig(timeout=30))
    checked = 0
    for module in result.modules:
        proof = prove_lasso(Lasso.from_word(module.source_word))
        if not proof.is_terminating or proof.ranking is None:
            continue
        base = build_lasso_module(proof)
        with use_memo():
            for builder, states, stmt in _reachable_wedges(base):
                update = (base.ranking if builder.has_accepting(states)
                          else None)
                expected = frozenset(
                    q for q in base.automaton.states
                    if hoare_valid(builder.conj(states), stmt,
                                   base.certificate[q], oldrnk_update=update))
                assert builder.delta_wedge(states, stmt) == expected
                checked += 1
    assert checked > 0
