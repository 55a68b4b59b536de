"""Class-aware complementation dispatch.

``implicit_complement`` picks the cheapest applicable procedure for the
input BA -- the automaton-side mirror of the multi-stage module
generalization -- and returns an implicit (on-the-fly) automaton plus
the kind that was chosen.  ``complement`` materializes the result.
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro.automata.classify import (is_deterministic, is_finite_trace,
                                     is_semideterministic)
from repro.automata.complement.dba import complement_dba
from repro.automata.complement.finite_trace import complement_finite_trace
from repro.automata.complement.modular import ModularComplement, condensation
from repro.automata.complement.ncsb import NCSBLazy, NCSBOriginal, prepare_sdba
from repro.automata.complement.rank_based import RankComplement
from repro.automata.gba import GBA, ImplicitGBA, Symbol, materialize
from repro.automata.ops import complete


class ComplementKind(enum.Enum):
    FINITE_TRACE = "finite-trace"
    DBA = "dba"
    SDBA_ORIGINAL = "ncsb-original"
    SDBA_LAZY = "ncsb-lazy"
    RANK = "rank-based"
    #: general BA via semi-determinization followed by NCSB (an
    #: alternative to the rank-based construction; see
    #: repro.automata.semidet)
    VIA_SEMIDET = "semidet+ncsb"
    #: per-SCC mix-and-match decomposition: partial complements per
    #: accepting-SCC class combined in a round-robin product (see
    #: repro.automata.complement.modular)
    MODULAR = "modular"


#: Shape guards: which automata a forced ``kind`` can complement.
#: Kinds absent here (RANK, VIA_SEMIDET, MODULAR) apply to any BA.
KIND_GUARDS = {
    ComplementKind.FINITE_TRACE: is_finite_trace,
    ComplementKind.DBA: is_deterministic,
    ComplementKind.SDBA_ORIGINAL: is_semideterministic,
    ComplementKind.SDBA_LAZY: is_semideterministic,
}


def kind_applies(kind: ComplementKind, auto: GBA) -> bool:
    """Can ``kind`` complement ``auto``?  (Used for best-effort pinning.)"""
    if not auto.is_ba():
        return False
    guard = KIND_GUARDS.get(kind)
    return guard is None or guard(auto)


def classify_kind(auto: GBA) -> ComplementKind:
    """Cheapest complementation class the BA falls into."""
    if is_finite_trace(auto):
        return ComplementKind.FINITE_TRACE
    if is_deterministic(auto):
        return ComplementKind.DBA
    if is_semideterministic(auto):
        return ComplementKind.SDBA_LAZY
    return ComplementKind.RANK


def implicit_complement(auto: GBA,
                        alphabet: Iterable[Symbol] | None = None,
                        *,
                        lazy: bool = True,
                        modular: bool = False,
                        kind: ComplementKind | None = None,
                        ) -> tuple[ImplicitGBA, ComplementKind]:
    """Complement ``auto`` over ``alphabet`` (defaults to its own).

    Returns an implicit BA; ``lazy`` selects NCSB-Lazy over
    NCSB-Original for SDBAs; ``modular`` lets general BAs with a
    genuinely mixed SCC condensation go through the per-SCC
    mix-and-match decomposition; ``kind`` forces a specific procedure
    (e.g. ``VIA_SEMIDET`` for semi-determinization + NCSB instead of
    the rank-based construction, or a head-to-head benchmark's pick).
    """
    sigma = frozenset(auto.alphabet if alphabet is None else alphabet)
    if kind is None:
        kind = classify_kind(auto)
        if kind is ComplementKind.SDBA_LAZY and not lazy:
            kind = ComplementKind.SDBA_ORIGINAL
        if kind is ComplementKind.RANK and modular:
            completed = complete(auto, sigma)
            cond = condensation(completed)
            if cond.modular_pays_off():
                return (ModularComplement(completed, cond),
                        ComplementKind.MODULAR)

    if kind is ComplementKind.MODULAR:
        return ModularComplement(complete(auto, sigma)), kind
    if kind is ComplementKind.FINITE_TRACE:
        result = complement_finite_trace(auto)
        if sigma != auto.alphabet:
            # finite-trace complement over a larger alphabet: deviating
            # symbols also escape, so rebuild over the big alphabet.
            result = complement_finite_trace(_widen_finite_trace(auto, sigma))
        return result, kind
    if kind is ComplementKind.DBA:
        return complement_dba(complete(auto, sigma)), kind
    if kind is ComplementKind.SDBA_ORIGINAL:
        return NCSBOriginal(prepare_sdba(auto, sigma)), kind
    if kind is ComplementKind.SDBA_LAZY:
        return NCSBLazy(prepare_sdba(auto, sigma)), kind
    if kind is ComplementKind.VIA_SEMIDET:
        from repro.automata.semidet import semi_determinize
        sdba = semi_determinize(complete(auto, sigma))
        ncsb = NCSBLazy if lazy else NCSBOriginal
        return ncsb(prepare_sdba(sdba)), kind
    return RankComplement(complete(auto, sigma)), kind


def _widen_finite_trace(auto: GBA, sigma: frozenset) -> GBA:
    """Re-embed a finite-trace BA into a larger alphabet.

    The chain transitions stay as-is; the accepting sink's universal
    self-loop covers the new symbols too (``w . Sigma^w`` over big Sigma).
    """
    transitions = {key: set(targets) for key, targets in auto.transitions.items()}
    (accepting,) = [q for q in auto.accepting]
    for symbol in sigma:
        transitions[(accepting, symbol)] = {accepting}
    return GBA(sigma, transitions, auto.initial_states(), [auto.accepting],
               states=auto.states)


def complement(auto: GBA, alphabet: Iterable[Symbol] | None = None,
               **kwargs) -> tuple[GBA, ComplementKind]:
    """Materialized complement (reachable part) plus the chosen kind."""
    implicit, kind = implicit_complement(auto, alphabet, **kwargs)
    if isinstance(implicit, GBA):
        return implicit, kind
    return materialize(implicit), kind
