"""Tests for the certified-module constructions (stages 0-4)."""

import pytest

from repro.automata.classify import (is_deterministic, is_finite_trace,
                                     is_normalized_sdba, is_semideterministic)
from repro.automata.words import UPWord, accepts
from repro.core.budget import Budget, use_budget
from repro.core.config import StageSequence
from repro.core.module import validate_module
from repro.core.stages import (Stage, build_deterministic_module,
                               build_finite_module, build_lasso_module,
                               build_nondeterministic_module,
                               build_semideterministic_module, generalize)
from repro.logic.atoms import atom_gt, atom_lt
from repro.logic.linconj import conj
from repro.logic.terms import var
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.program.statements import Assign, Assume
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
