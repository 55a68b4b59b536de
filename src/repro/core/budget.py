"""Resource budgets and the structured error taxonomy.

Every "give up" path of the analysis used to speak its own dialect:
``RuntimeError`` subclasses in :mod:`repro.automata.emptiness`, ad-hoc
deadline checks sprinkled through the refinement loop, and unguarded
growth everywhere else (the Fourier--Motzkin combination step, the
NCSB successor cache, the subsumption antichain).  This module gives
them one vocabulary:

- :class:`ReproError` is the root of every error the analysis raises
  deliberately (resource exhaustion, injected faults),
- :class:`ResourceExhausted` carries *which* resource ran out, so the
  refinement loop can decide between falling down the degradation
  ladder (state/constraint blowups) and giving up (deadline),
- :class:`DeadlineExceeded` is the wall-clock case -- once the deadline
  passed there is no cheaper stage worth trying,
- :class:`Budget` bundles the deadline with the cumulative caps
  (macro-states, antichain size, FM constraints, simulation pairs) and
  counts consumption against them,
- :class:`Capped` hands a cap overrun to a caller that can degrade,
  while a deadline propagates.

The deadline reaches every layer only through the scoped budget:
:func:`use_budget` installs the engine's budget in a module global,
mirroring the registry scoping of :mod:`repro.obs.metrics`, and no
signature carries a ``deadline``.  Per-call state caps
(``difference_state_limit``, ``stage_state_budget``) stay parameters;
the :class:`Budget` caps count across the whole run.  All guards are
nil-checked (``current_budget() is None`` outside an engine run), so
standalone library use pays one attribute load per checkpoint.

This module must stay a leaf (standard library imports only): it is
imported from :mod:`repro.logic` and :mod:`repro.automata`, which load
*during* ``repro.core`` package initialization.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class ReproError(Exception):
    """Root of every deliberate analysis error (see module docstring)."""


class ResourceExhausted(ReproError):
    """A budget cap was exceeded.

    ``resource`` names the cap (``"deadline"``, ``"difference-states"``,
    ``"macrostates"``, ``"antichain"``, ``"fm-constraints"``,
    ``"stage-states"``, ``"simulation"``); the refinement loop keys its
    recovery on it.
    """

    def __init__(self, resource: str, detail: str = "",
                 limit: float | int | None = None):
        message = f"{resource} budget exhausted"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.resource = resource
        self.detail = detail
        self.limit = limit


class DeadlineExceeded(ResourceExhausted):
    """The wall-clock deadline passed; no cheaper stage can help."""

    def __init__(self, detail: str = "", deadline: float | None = None):
        super().__init__("deadline", detail, deadline)


class Budget:
    """Caps for one analysis run, with consumption counters.

    ``deadline`` is an absolute :func:`time.perf_counter` value; the
    remaining caps are cumulative per run.  ``None`` disables a cap.
    Checkpoints raise :class:`ResourceExhausted` (or its
    :class:`DeadlineExceeded` subclass); callers that can degrade catch
    at round boundaries, everyone else lets it propagate.
    """

    __slots__ = ("deadline", "macrostate_cap", "antichain_cap",
                 "fm_constraint_cap", "simulation_cap", "macrostates",
                 "fm_checks", "simulation_pairs")

    #: Deadline polling stride for the FM checkpoint: one
    #: ``perf_counter`` call per this many charges.
    CHECK_EVERY = 256

    def __init__(self, deadline: float | None = None, *,
                 macrostate_cap: int | None = None,
                 antichain_cap: int | None = None,
                 fm_constraint_cap: int | None = None,
                 simulation_cap: int | None = None):
        self.deadline = deadline
        self.macrostate_cap = macrostate_cap
        self.antichain_cap = antichain_cap
        self.fm_constraint_cap = fm_constraint_cap
        self.simulation_cap = simulation_cap
        self.macrostates = 0
        self.fm_checks = 0
        self.simulation_pairs = 0

    def remaining(self) -> float | None:
        """Wall-clock seconds left, or ``None`` without a deadline."""
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def check_deadline(self, where: str = "") -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceeded(where, self.deadline)

    def charge_macrostates(self, n: int = 1) -> None:
        """Charge ``n`` freshly built complement macro-states."""
        self.macrostates += n
        if (self.macrostate_cap is not None
                and self.macrostates > self.macrostate_cap):
            raise ResourceExhausted("macrostates",
                                    f"{self.macrostates} macro-states built",
                                    self.macrostate_cap)

    def check_antichain(self, size: int) -> None:
        """Check the subsumption-antichain size against its cap."""
        if self.antichain_cap is not None and size > self.antichain_cap:
            raise ResourceExhausted("antichain",
                                    f"{size} antichain entries",
                                    self.antichain_cap)

    def charge_fm(self, constraints: int) -> None:
        """Checkpoint one Fourier--Motzkin elimination round.

        ``constraints`` is the current system size -- FM can square the
        constraint count per eliminated variable, and this is the only
        guard between a pathological conjunction and an effectively hung
        solver call.  Doubles as the solver's cooperative deadline poll.
        """
        if (self.fm_constraint_cap is not None
                and constraints > self.fm_constraint_cap):
            raise ResourceExhausted("fm-constraints",
                                    f"{constraints} constraints",
                                    self.fm_constraint_cap)
        self.fm_checks += 1
        if self.fm_checks % self.CHECK_EVERY == 0:
            self.check_deadline("fourier-motzkin")

    def charge_simulation(self, pairs: int) -> None:
        """Charge ``pairs`` candidate pairs of a simulation solve.

        Simulation-based reduction is an *optimization*: callers catch
        the plain :class:`ResourceExhausted` (never the deadline
        subclass) and fall back to the unreduced pipeline, so a blown
        cap costs nothing but the reduction itself.  Doubles as the
        solvers' cooperative deadline poll.
        """
        self.simulation_pairs += pairs
        if (self.simulation_cap is not None
                and self.simulation_pairs > self.simulation_cap):
            raise ResourceExhausted("simulation",
                                    f"{self.simulation_pairs} candidate pairs",
                                    self.simulation_cap)
        self.check_deadline("simulation")


_CURRENT: Budget | None = None


def current_budget() -> Budget | None:
    """The budget scoped to the running analysis, if any."""
    return _CURRENT


@contextmanager
def use_budget(budget: Budget | None) -> Iterator[Budget | None]:
    """Scope ``budget`` as the ambient budget (``None`` clears it --
    the verdict firewall re-validates outside any budget)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = budget
    try:
        yield budget
    finally:
        _CURRENT = previous


class Capped:
    """``with Capped() as cap:`` keeps a cap overrun in ``cap.overrun``
    for a caller with a cheaper fallback (the degradation ladder, the
    unreduced pipeline); :class:`DeadlineExceeded` propagates -- no
    fallback wins back time."""

    overrun: ResourceExhausted | None = None

    def __enter__(self) -> "Capped":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not isinstance(exc, ResourceExhausted) \
                or isinstance(exc, DeadlineExceeded):
            return False
        self.overrun = exc
        return True
