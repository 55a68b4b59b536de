"""Durable refinement checkpoints: crash-recoverable analyses.

A long refinement run loses everything when its worker dies -- OOM
kill, hard deadline, a pulled plug -- even though every certified
module it already produced is an independently checkable artifact.
This module persists the certified module decomposition after each
round so an interrupted analysis warm-starts instead of recomputing:

- **what is saved**: the modules only -- automaton, ranking function,
  rank certificate, provenance word -- serialized as portable dicts
  (Fractions as ``[num, den]`` pairs, states renumbered to ints,
  symbols as their ``str()`` over the program alphabet).  The
  uncertified *remainder* is deliberately **not** saved: it is exactly
  the part of the analysis state that carries trust, and it is cheap
  to rebuild by re-subtracting the restored modules from the freshly
  constructed program automaton.
- **how it is saved**: write-to-temp + flush + fsync + atomic rename,
  so a crash mid-save leaves either the previous checkpoint or a
  stray ``*.tmp`` -- never a torn file a reader could half-trust.
  The ``checkpoint.write`` fault site (:mod:`repro.faults`) simulates
  both torn-final-file and orphaned-tmp crashes for chaos testing.
- **how it is keyed**: by the corpus store's job key (sha256 of
  program, config, code version; see :func:`repro.runner.store.job_key`),
  so a checkpoint is reused only while program, configuration, and
  analysis version all match.
- **the trust model**: a checkpoint is *untrusted input*.  On restore
  every module passes the trust gate
  (:func:`repro.core.module.revalidate`: the Definition 3.1 obligations
  plus source-word acceptance, with fault injection suspended and the
  budget cleared) -- the verdict-firewall discipline.
  Any module that fails (or any decode error, version/alphabet
  mismatch, torn file) rejects the whole checkpoint and the analysis
  cold-starts with a structured ``checkpoint.rejected`` incident.
  A forged checkpoint can therefore cost work, never soundness: a
  module that passes Definition 3.1 is sound to subtract regardless
  of where it came from.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import repro.faults as _faults
# The portable-dict serialization lives in the shared module codec
# (also used by the cross-program library, repro.core.library); the
# re-exports keep this module the stable import surface for
# checkpoint-layer users.
from repro.core.codec import (  # noqa: F401 - re-exported codec surface
    CodecError,
    atom_from_dict,
    atom_to_dict,
    conj_from_dict,
    conj_to_dict,
    frac_from_dict,
    frac_to_dict,
    gba_from_dict,
    gba_to_dict,
    module_from_dict,
    module_to_dict,
    pred_from_dict,
    pred_to_dict,
    symbol_table,
    term_from_dict,
    term_to_dict,
    word_from_dict,
    word_to_dict,
)
from repro.core.module import CertifiedModule, revalidate
from repro.obs import metrics as _metrics

#: Bump on any incompatible change to the checkpoint layout; a version
#: mismatch rejects the checkpoint (cold start) instead of guessing.
CHECKPOINT_VERSION = 1

#: A checkpoint failing to decode is the codec's error; the historical
#: name stays importable for checkpoint-layer callers and tests.
CheckpointError = CodecError


# -- the checkpoint file --------------------------------------------------------

def encode_checkpoint(key: str, program: str, alphabet: Iterable,
                      modules: list[CertifiedModule]) -> dict | None:
    """The JSON-ready checkpoint payload; None if the alphabet's
    symbols do not stringify uniquely (checkpointing disabled)."""
    table = symbol_table(alphabet)
    if table is None:
        return None
    ordered, index = table
    return {"version": CHECKPOINT_VERSION, "key": key, "program": program,
            "alphabet": [str(sym) for sym in ordered],
            "rounds": len(modules),
            "modules": [module_to_dict(m, index) for m in modules]}


def decode_checkpoint(data, key: str, alphabet: Iterable,
                      ) -> list[CertifiedModule]:
    """Deserialize ``data`` against the *fresh* program alphabet.

    Purely structural: Definition 3.1 re-validation is the caller's job
    (see :meth:`Checkpointer.restore`).  Raises :class:`CheckpointError`
    on any mismatch.
    """
    if not isinstance(data, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {data.get('version')!r} != {CHECKPOINT_VERSION}")
    if key and data.get("key") != key:
        raise CheckpointError(
            f"checkpoint key {data.get('key')!r} does not match {key!r}")
    table = symbol_table(alphabet)
    if table is None:
        raise CheckpointError("program alphabet is ambiguous under str()")
    ordered, _index = table
    names = [str(sym) for sym in ordered]
    if data.get("alphabet") != names:
        raise CheckpointError("checkpoint alphabet does not match the program")
    modules_data = data.get("modules")
    if not isinstance(modules_data, list):
        raise CheckpointError("checkpoint without a module list")
    return [module_from_dict(m, ordered) for m in modules_data]


def _sanitize(key: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in key)


class Checkpointer:
    """One job's durable checkpoint: atomic save, firewall-style restore.

    Bound to a ``(directory, key)`` pair; the file is
    ``<directory>/checkpoint_<key>.json``.  All failure modes are
    contained: a failed save never interrupts the analysis, a bad
    checkpoint never seeds it.  Saves, failed saves and rejections are
    counted in the run's metrics registry (``checkpoint.saves`` /
    ``.save_failures`` / ``.rejections``; the engine counts
    ``checkpoint.rounds_restored``); the instance keeps only the last
    rejection reason.
    """

    def __init__(self, directory: str, key: str, program: str = "?"):
        self.directory = str(directory)
        self.key = str(key)
        self.program = program
        self.path = os.path.join(self.directory,
                                 f"checkpoint_{_sanitize(self.key)}.json")
        #: why the checkpoint was rejected (None = not rejected)
        self.rejected: str | None = None
        # which crash shape the next injected write fault leaves
        self._torn_next = True

    # -- save -------------------------------------------------------------------

    def save(self, alphabet: Iterable, modules: list[CertifiedModule]) -> bool:
        """Atomically persist the decomposition; returns success.

        Never raises: serialization bugs, full disks, and injected
        ``checkpoint.write`` faults all degrade to "no new checkpoint"
        (the previous one, if any, stays intact thanks to the
        write-tmp-then-rename protocol).
        """
        try:
            data = encode_checkpoint(self.key, self.program, alphabet, modules)
            if data is None:
                raise CheckpointError("program alphabet is ambiguous under str()")
            text = json.dumps(data, sort_keys=True)
            os.makedirs(self.directory, exist_ok=True)
            tmp = self.path + ".tmp"
            try:
                _faults.perturb("checkpoint.write")
            except _faults.InjectedFault:
                self._simulate_crash(text, tmp)
                raise
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except (OSError, CheckpointError, _faults.InjectedFault):
            _metrics.inc("checkpoint.save_failures")
            return False
        _metrics.inc("checkpoint.saves")
        return True

    def _simulate_crash(self, text: str, tmp: str) -> None:
        """The ``checkpoint.write`` fault: reproduce the two on-disk
        shapes a real crash leaves, alternating deterministically --
        a torn file at the *final* path (died mid-write before the
        rename protocol existed / direct-write bugs), and an orphaned
        complete tmp (died between fsync and rename)."""
        torn, self._torn_next = self._torn_next, not self._torn_next
        try:
            if torn:
                with open(self.path, "w", encoding="utf-8") as fh:
                    fh.write(text[:max(1, len(text) // 2)])
            else:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
        except OSError:
            pass

    # -- restore ----------------------------------------------------------------

    def restore(self, alphabet: Iterable) -> list[CertifiedModule]:
        """Load, decode, and *re-validate* the checkpointed modules.

        Returns the validated modules (possibly empty: no checkpoint on
        disk is a normal cold start, not a rejection).  Every other
        failure -- torn file, bad JSON, version/alphabet/key mismatch,
        any module failing the Definition 3.1 re-check or no longer
        accepting its source word -- rejects the *whole* checkpoint:
        ``self.rejected`` carries the reason and the caller cold-starts.
        Validation is :func:`~repro.core.module.revalidate`, the verdict
        firewall's own gate.
        """
        self.rejected = None
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return []
        except OSError as exc:
            self._reject(f"unreadable checkpoint: {exc}")
            return []
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._reject("torn or corrupt checkpoint file")
            return []
        try:
            modules = decode_checkpoint(data, self.key, alphabet)
        except CheckpointError as exc:
            self._reject(str(exc))
            return []
        except Exception as exc:  # noqa: BLE001 - untrusted input
            self._reject(f"{type(exc).__name__}: {exc}")
            return []
        for index, module in enumerate(modules):
            issues = revalidate(module)
            if issues:
                self._reject(f"module {index} ({module.stage}) failed "
                             f"re-validation: {issues[0]}")
                return []
        return modules

    def _reject(self, reason: str) -> None:
        self.rejected = reason
        _metrics.inc("checkpoint.rejections")
