"""Cross-program certified-module library: reuse before synthesis.

Corpus programs share loop shapes -- ``benchgen`` families are scaled
copies of each other, and real corpora repeat idioms -- yet the
refinement loop pays ranking synthesis (Farkas/LP), generalization,
and complementation from scratch for every job.  Heizmann et al.
(arXiv 1405.4189) observed that certified modules are reusable
artifacts, not per-program scratch work: a module that satisfies the
Definition 3.1 obligations is sound to subtract from *any* program
over a compatible alphabet, regardless of which program it was
learned on.  This module is the corpus-wide realization of that idea,
the cross-run analogue of the in-run subtraction cache and the
per-job durable checkpoint.

**The file.**  One append-only JSONL file shared by every pool worker.
Each record is a self-contained entry: the codec payload
(:func:`repro.core.codec.module_to_dict`) over the module's
*used*-symbol table (so an entry published from a small program stays
reusable by any larger sibling), the ``str(symbol)`` table itself,
the publishing ``code_version``, provenance, and a content id.
Writers append with a single ``os.write`` on an ``O_APPEND`` fd --
POSIX guarantees the atomicity we need for same-filesystem appends of
small records -- and readers use the result store's torn-tail-tolerant
:func:`repro.runner.store.read_rows`, so a record half-written at the
moment of a crash or a concurrent read costs that record only, never
the file.

**The query path.**  On each fresh counterexample lasso the engine
asks the library first (:meth:`ModuleLibrary.match`): an
alphabet-compatibility prefilter (entry symbols must be a subset of
the program's, by ``str``), then "does the candidate accept the
counterexample word", and only then -- on the one entry about to be
used -- the trust gate :func:`repro.core.module.revalidate`, exactly
like checkpoint restore and the verdict firewall.  A
validated hit is subtracted with **zero** synthesis/LP work.

**The trust model.**  Published entries are untrusted input, exactly
like checkpoints: every reuse re-validates the certificate against
the *reading* program's own statement objects, a failed validation
rejects only that entry (with a structured reason, and the entry is
skipped for the rest of the run), and the uncertified remainder is
never serialized at all.  A forged or corrupted entry -- including
the deliberate corruption injected by the ``library.publish`` chaos
fault -- can therefore cost work, never soundness.

**Freshness.**  Entries are keyed by ``code_version``: a library file
survives analysis-code changes, but entries published by a different
version are invisible (certificates encode the exact obligations the
running checker enforces).  An in-process index caches the parsed
file and refreshes only when the file's ``(size, mtime)`` changes, so
a worker polling the library every round pays one ``stat`` per round,
not one parse.
"""

from __future__ import annotations

import hashlib
import json
import os

import repro.faults as _faults
from repro.core.codec import (CodecError, module_from_dict, module_symbols,
                              module_to_dict, symbol_table)
from repro.core.module import CertifiedModule, revalidate
from repro.obs import metrics as _metrics

#: Bump on any incompatible change to the entry layout; mismatched
#: records are skipped on read (old libraries degrade, never break).
LIBRARY_VERSION = 1

#: Structured rejection reasons kept per run (the count of all of them
#: is the ``library.rejected`` counter); bounded so a hostile library
#: cannot balloon result rows.
_MAX_REJECTIONS = 8


def entry_id(record: dict) -> str:
    """Content id of an entry: a short digest over the parts that
    determine reuse behavior (symbol table + codec payload), so the
    same module republished by any worker dedupes to one record."""
    payload = json.dumps({"alphabet": record.get("alphabet"),
                          "module": record.get("module")},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class _Entry:
    """One parsed library record: prefilter data + the raw payload."""

    __slots__ = ("id", "stage", "symbols", "data")

    def __init__(self, eid: str, stage: str, symbols: frozenset, data: dict):
        self.id = eid
        self.stage = stage
        self.symbols = symbols
        self.data = data


class ModuleLibrary:
    """One process's handle on a shared certified-module library file.

    All failure modes are contained, mirroring :class:`Checkpointer`:
    a failed publish never interrupts the analysis, a bad entry never
    seeds it -- ``match`` and ``publish`` do not raise.  Every event is
    counted once, in the run's metrics registry (``library.hits`` /
    ``.misses`` / ``.published`` / ``.publish_failures`` /
    ``.rejected``); the handle keeps only the rejection reasons.
    """

    def __init__(self, path, code_version: str | None = None):
        self.path = str(path)
        if code_version is None:
            from repro.runner.store import code_version as current_version
            code_version = current_version()
        self.code_version = code_version
        #: structured reasons for the first few entries rejected by
        #: decode or Definition 3.1 re-validation
        self.rejections: list[dict] = []
        # -- the in-process index cache --
        self._stat: tuple[int, int] | None = None  # (size, mtime_ns) parsed
        self._entries: list[_Entry] = []
        self._ids: set[str] = set()
        # -- per-alphabet decode/validation caches --
        self._bound: frozenset | None = None  # alphabet strs the caches bind
        self._decoded: dict[str, CertifiedModule] = {}
        self._validated: set[str] = set()
        self._bad: set[str] = set()

    # -- reading ----------------------------------------------------------------

    def refresh(self) -> None:
        """Re-read the file iff its ``(size, mtime)`` changed."""
        try:
            st = os.stat(self.path)
            stat = (st.st_size, st.st_mtime_ns)
        except OSError:
            stat = None
        if stat == self._stat:
            return
        from repro.runner.store import read_rows
        entries: list[_Entry] = []
        ids: set[str] = set()
        for record in read_rows(self.path):
            if not isinstance(record, dict):
                continue
            if record.get("v") != LIBRARY_VERSION:
                continue
            if record.get("code_version") != self.code_version:
                continue
            alphabet = record.get("alphabet")
            module = record.get("module")
            if not isinstance(alphabet, list) or not isinstance(module, dict):
                continue
            eid = record.get("id") or entry_id(record)
            if eid in ids:
                continue
            ids.add(eid)
            entries.append(_Entry(eid, str(module.get("stage", "?")),
                                  frozenset(str(s) for s in alphabet),
                                  record))
        self._entries, self._ids, self._stat = entries, ids, stat

    def __len__(self) -> int:
        return len(self._entries)

    def match(self, word, alphabet) -> CertifiedModule | None:
        """The reuse query: a *validated* module accepting ``word``,
        decoded over this program's own ``alphabet``, or None.

        Validation runs only on candidates that already pass the
        alphabet prefilter and accept the word, and its outcome is
        cached per entry -- a rejected entry stays rejected for the
        rest of the run, a validated one is never re-checked.
        """
        self.refresh()
        hit = self._match(word, alphabet) if self._entries else None
        _metrics.inc("library.misses" if hit is None else "library.hits")
        return hit

    def _match(self, word, alphabet) -> CertifiedModule | None:
        table = symbol_table(alphabet)
        if table is None:  # ambiguous str(): the codec cannot rebind
            return None
        ordered, _index = table
        by_str = {str(sym): sym for sym in ordered}
        names = frozenset(by_str)
        if names != self._bound:
            # The caches hold modules rebound to a *specific* program
            # alphabet; a different program means a clean slate.
            self._bound = names
            self._decoded.clear()
            self._validated.clear()
            self._bad.clear()
        for entry in self._entries:
            if entry.id in self._bad or not entry.symbols <= names:
                continue
            module = self._decode(entry, by_str, ordered)
            if module is None or not module.language_contains(word):
                continue
            if self._validate(entry, module):
                return module
        return None

    def _decode(self, entry: _Entry, by_str: dict,
                alphabet: list) -> CertifiedModule | None:
        module = self._decoded.get(entry.id)
        if module is not None:
            return module
        try:
            symbols = [by_str[str(name)] for name in entry.data["alphabet"]]
            module = module_from_dict(entry.data["module"], symbols,
                                      alphabet=alphabet)
        except (CodecError, KeyError, TypeError) as exc:
            self._reject(entry, f"decode failed: {exc}")
            return None
        self._decoded[entry.id] = module
        return module

    def _validate(self, entry: _Entry, module: CertifiedModule) -> bool:
        if entry.id in self._validated:
            return True
        # The firewall's gate, exactly like checkpoint restore: the
        # re-check must not be starved by the deadline that pressured
        # the round into querying the library in the first place.
        issues = revalidate(module)
        if issues:
            self._reject(entry, f"failed re-validation: {issues[0]}")
            return False
        self._validated.add(entry.id)
        return True

    def _reject(self, entry: _Entry, reason: str) -> None:
        self._bad.add(entry.id)
        if len(self.rejections) < _MAX_REJECTIONS:
            self.rejections.append({"id": entry.id, "stage": entry.stage,
                                    "reason": reason})
        _metrics.inc("library.rejected")

    # -- publishing -------------------------------------------------------------

    def publish(self, module: CertifiedModule, program: str = "?") -> bool:
        """Append one freshly certified module; returns success.

        Never raises: serialization problems, full disks, and injected
        ``library.publish`` faults all degrade to "not published".
        Entries are serialized over the module's *used* symbols (see
        :func:`repro.core.codec.module_symbols`) and deduplicated by
        content id against everything already in the file.
        """
        try:
            table = symbol_table(module_symbols(module))
            if table is None:  # ambiguous str(): the codec cannot encode
                raise ValueError("module symbols do not stringify uniquely")
            ordered, index = table
            record = {"v": LIBRARY_VERSION,
                      "code_version": self.code_version,
                      "program": program,
                      "stage": module.stage,
                      "alphabet": [str(sym) for sym in ordered],
                      "module": module_to_dict(module, index)}
            record["id"] = entry_id(record)
            self.refresh()
            if record["id"] in self._ids:
                return False  # someone (maybe us) already published it
            try:
                _faults.perturb("library.publish")
            except _faults.InjectedFault:
                self._publish_tampered(record)
                raise
            self._append(json.dumps(record, sort_keys=True) + "\n")
        except (OSError, TypeError, ValueError, _faults.InjectedFault):
            _metrics.inc("library.publish_failures")
            return False
        _metrics.inc("library.published")
        # Another worker may append between our write and the next
        # stat; dropping the cached stat forces a real re-read next
        # query instead of trusting bookkeeping.
        self._stat = None
        return True

    def _append(self, line: str) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        # One O_APPEND write per record: concurrent workers interleave
        # whole lines, never bytes (same-filesystem POSIX semantics).
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def _publish_tampered(self, record: dict) -> None:
        """The ``library.publish`` fault: instead of the honest entry,
        a plausibly-corrupted one reaches the shared file -- the
        certificate silently loses one state's predicate, so the entry
        decodes fine and still accepts its words, but the Definition
        3.1 re-check on reuse must reject it.  Chaos plans use this to
        assert that a poisoned library costs work, never soundness."""
        try:
            tampered = json.loads(json.dumps(record))
            certificate = tampered["module"]["certificate"]
            if certificate:
                certificate.pop(sorted(certificate)[0])
            tampered["id"] = entry_id(tampered)
            self._append(json.dumps(tampered, sort_keys=True) + "\n")
        except (OSError, KeyError, TypeError, ValueError):
            pass

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict:
        """The row's ``library`` field: the file and the rejection
        reasons.  Counts live in the run's metrics, not here."""
        out: dict = {"path": self.path}
        if self.rejections:
            out["rejections"] = list(self.rejections)
        return out
