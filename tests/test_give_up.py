"""The refinement loop's give-up path for time.

A deadline can hit any layer the loop drives -- the lasso search, the
prover, generalization, a difference (fresh, reused from the module
library, or re-subtracting a checkpoint on restore).  Wherever it hits,
the run ends UNKNOWN with reason ``"timeout"``, and the round it cut
short is recorded exactly once.  A run under a timeout also returns
within that timeout plus the verdict firewall's allowance and a small
grace.
"""

import importlib
import time

import pytest

from repro.benchgen.programs import program_suite
from repro.core.api import prove_termination, prove_termination_source
from repro.core.budget import DeadlineExceeded
from repro.core.checkpoint import Checkpointer
from repro.core.config import AnalysisConfig
from repro.core.firewall import _allowance
from repro.core.library import ModuleLibrary
from repro.core.refinement import Verdict

refinement = importlib.import_module("repro.core.refinement")

COUNTDOWN = """
program count_down(x):
    while x > 0:
        x := x - 1
"""


def expired(*args, **kwargs):
    raise DeadlineExceeded("injected")


@pytest.mark.parametrize("layer, seed, rounds", [
    ("find_accepting_lasso", None, 0),
    ("prove_lasso", None, 0),
    ("generalize", None, 1),
    ("difference", None, 1),
    ("difference", "library", 1),
    ("difference", "checkpoint", 0),
], ids=["lasso-search", "prove-lasso", "generalize", "difference",
        "library-hit", "checkpoint-restore"])
def test_deadline_in_any_layer_is_a_timeout(monkeypatch, tmp_path, layer,
                                            seed, rounds):
    config = AnalysisConfig()

    def run():
        library = (ModuleLibrary(tmp_path / "lib.jsonl")
                   if seed == "library" else None)
        checkpoint = (Checkpointer(str(tmp_path), "give-up", "count_down")
                      if seed == "checkpoint" else None)
        return prove_termination_source(COUNTDOWN, config,
                                        checkpoint=checkpoint,
                                        library=library)

    if seed is not None:
        # An undisturbed first run leaves a module for the second to reuse.
        assert run().verdict is Verdict.TERMINATING
    monkeypatch.setattr(refinement, layer, expired)
    result = run()
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "timeout"
    assert result.stats.gave_up_reason == "timeout"
    assert result.stats.iterations == rounds
    assert result.stats.metrics["counters"].get("refinement.rounds", 0) == rounds
    assert not result.stats.incidents
    if seed == "library":
        assert result.stats.library_hits == 1


#: Suite programs the default configuration does not decide: two run out
#: of rounds, two take far longer than the timeout below.
UNDECIDED = ("nested_reset", "triple_nest", "two_phase", "alternate_guarded")

#: Slack for process noise on top of timeout + firewall allowance.
GRACE_S = 0.5


@pytest.mark.parametrize("name", UNDECIDED)
@pytest.mark.parametrize("interpolants", [False, True],
                         ids=["default", "interpolant"])
def test_run_returns_within_its_deadline(name, interpolants):
    program = next(p for p in program_suite() if p.name == name).parse()
    config = AnalysisConfig(timeout=1.0, interpolant_modules=interpolants)
    start = time.perf_counter()
    prove_termination(program, config)
    elapsed = time.perf_counter() - start
    assert elapsed <= config.timeout + _allowance(config.timeout) + GRACE_S
