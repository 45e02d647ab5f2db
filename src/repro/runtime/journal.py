"""Append-only checkpoint journal, and the per-context result store it backs.

A city-scale sweep is hours of work; a SIGKILL (preemption, OOM, operator)
must not throw it away.  Every sweep result is kept in the submitting
context's :class:`ResultStore` under a *content fingerprint* — a SHA-256
over the workload profile, seed, evaluator identity and the
result-determining fields of the cell's :class:`~repro.context.RunContext`
— one entry per (cell, evaluator) pair.  Within one run that store serves
every pair it already holds instead of recomputing it (the figures
overlap: Figs 2a, 3 and 4a sweep the same cells).  When the context names
a ``journal_path`` the journal is the store's on-disk form: the store
reads and writes through it, so a restarted run with ``--resume`` replays
exactly the pairs whose inputs are unchanged and recomputes everything
else.  Because every evaluator is a pure function of those inputs, a
replayed result is bit-identical to a recomputed one, and a resumed
sweep's figure output is byte-identical to an uninterrupted run's
(enforced by the crash-resume CI smoke job).  Streamed tiles are
journalled whole, under their own ``"tile-cell"`` key, and never served
from memory.

Format (one JSON object per line)::

    {"kind": "header", "version": 1}
    {"kind": "cell", "key": "<sha256 hex>", "data": "<base64 pickle>"}

A completed sweep cell appends one line per newly computed evaluator
result, all in one flushed and fsynced write.  Journals written before
results were keyed per evaluator hold ``"sweep-cell"`` keys that match no
key here, so ``--resume`` recomputes their cells.

Crash tolerance: the loader ignores a truncated or corrupt final line, so
a journal written up to the moment of a ``kill -9`` loads cleanly.  Only
the dispatching process writes; workers never touch the journal.

``--journal PATH`` without ``--resume`` starts the journal fresh (the
file is truncated on the first open of the process); with ``--resume``
existing entries are loaded and replayed.  Results that cannot be
fingerprinted — those of callable evaluators, whose identity the journal
cannot capture — always run live and are never recorded.
"""

from __future__ import annotations

import atexit
import base64
import hashlib
import json
import os
import pickle
from collections import OrderedDict
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple

from repro.context import RunContext

__all__ = [
    "Journal",
    "ResultStore",
    "context_fingerprint",
    "fingerprint",
    "journal_for",
    "result_store",
]

_JOURNAL_VERSION = 1

#: RunContext fields that determine results.  Runtime knobs (retry/timeout
#: config, the journal settings themselves), telemetry, tracing and cache
#: capacities are deliberately excluded: they change how a run executes or
#: reports, never what it computes, so a resumed run may replay cells
#: recorded under different values of them.
_RESULT_FIELDS: Tuple[str, ...] = ("reference", "seed")


def context_fingerprint(context: RunContext) -> Tuple[Any, ...]:
    """The result-determining slice of a context, as a hashable tuple."""
    return tuple(
        (name, getattr(context, name)) for name in _RESULT_FIELDS
    )


def fingerprint(*parts: Any) -> str:
    """SHA-256 over the canonical repr of ``parts``.

    Every part must have a deterministic ``repr`` (frozen dataclasses of
    primitives, tuples, strings, numbers) — the callers build keys only
    from such values.
    """
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


class Journal:
    """One append-only JSONL checkpoint file.

    :param path: journal location.
    :param resume: load existing entries for replay; when ``False`` the
        file is truncated and started fresh.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        self._entries: Dict[str, bytes] = {}
        #: Keys loaded from the file on open: an earlier run's results.
        self._loaded: set = set()
        if resume and os.path.exists(path):
            self._load(path)
        self._handle: IO[str] = open(path, "a" if resume else "w")
        if not resume or os.path.getsize(path) == 0:
            self._append({"kind": "header", "version": _JOURNAL_VERSION})

    def _load(self, path: str) -> None:
        """Read every parseable entry; tolerate a torn final line."""
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append leaves at most one torn line;
                    # anything before it already hit the disk fsynced.
                    continue
                if entry.get("kind") != "cell":
                    continue
                key = entry.get("key")
                data = entry.get("data")
                if not isinstance(key, str) or not isinstance(data, str):
                    continue
                try:
                    self._entries[key] = base64.b64decode(data, validate=True)
                except (ValueError, TypeError):
                    continue
                self._loaded.add(key)

    def _append(self, *entries: Dict[str, Any]) -> None:
        """Write ``entries`` as one flushed and fsynced append."""
        self._handle.write(
            "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def replayed(self, key: str) -> bool:
        """Whether ``key`` was loaded from the file, i.e. recorded by an
        earlier run rather than this one."""
        return key in self._loaded

    def get(self, key: str) -> Optional[Any]:
        """The recorded value for ``key``, or ``None``."""
        blob = self._entries.get(key)
        if blob is None:
            return None
        try:
            return pickle.loads(blob)
        except Exception:
            # A journal written by an incompatible version: recompute.
            return None

    def record(self, key: str, value: Any) -> None:
        """Durably append one entry (flush + fsync)."""
        self.record_many({key: value})

    def record_many(self, entries: Dict[str, Any]) -> None:
        """Durably append several entries with one flush + fsync — one
        completed cell's results."""
        lines = []
        for key, value in entries.items():
            blob = pickle.dumps(value)
            self._entries[key] = blob
            self._loaded.discard(key)
            lines.append(
                {
                    "kind": "cell",
                    "key": key,
                    "data": base64.b64encode(blob).decode("ascii"),
                }
            )
        self._append(*lines)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Open journals keyed by absolute path.  A multi-sweep invocation
#: (``all-figures``, repeated ``run_cells`` calls) shares one handle per
#: path, so a fresh (non-resume) run truncates once — at the first open —
#: and appends from then on.
_OPEN_JOURNALS: Dict[str, Journal] = {}


def journal_for(path: Optional[str], resume: bool = False) -> Optional[Journal]:
    """The process-wide journal for ``path`` (opened on first use).

    :param path: journal file location; ``None`` disables journaling.
    :param resume: honoured on the first open of each path only.
    """
    if path is None:
        return None
    key = os.path.abspath(path)
    journal = _OPEN_JOURNALS.get(key)
    if journal is None:
        journal = Journal(path, resume=resume)
        _OPEN_JOURNALS[key] = journal
    return journal


def _close_journals() -> None:
    while _OPEN_JOURNALS:
        _, journal = _OPEN_JOURNALS.popitem()
        journal.close()


atexit.register(_close_journals)


#: Entries one context's in-memory :class:`ResultStore` keeps (LRU).  A
#: figure sweep adds one per (cell, evaluator) pair — ``all-figures`` over
#: three seeds adds about 500 — and the process-wide default context must
#: not grow without limit.
_RESULT_STORE_CAPACITY = 4096


class ResultStore:
    """One context's results, keyed by content fingerprint.

    Without a journal the store is an in-memory LRU of
    :data:`_RESULT_STORE_CAPACITY` entries.  When the context names a
    ``journal_path`` it reads and writes through that journal instead,
    which then holds every entry of the run.

    Lookups and writes take a ``reuse`` flag.  Only reused lookups read
    what this run stored and are counted as ``store.hits`` /
    ``store.misses``; a lookup with ``reuse=False`` (reference mode, which
    stays the uncached baseline, and streamed tiles) is served only by
    entries an earlier run journalled, and such a write goes only to the
    journal.  Entries an earlier run journalled count one
    ``journal.replays`` per lookup that used them.

    :param context: the owning context: its telemetry sink records the
        counters, and its ``journal_path`` and ``resume`` pick the journal.
    """

    def __init__(self, context: RunContext) -> None:
        self._telemetry = context.telemetry
        self._journal_path = context.journal_path
        self._resume = context.resume
        self._memory: "OrderedDict[str, Any]" = OrderedDict()

    def lookup(
        self, keys: Sequence[Optional[str]], reuse: bool
    ) -> List[Optional[Any]]:
        """The stored value for each key, ``None`` where there is none.

        :param keys: one cell's keys; ``None`` marks a result that is
            never stored.
        :param reuse: serve what this run stored, and count the lookups.
        """
        journal = journal_for(self._journal_path, self._resume)
        metrics = self._telemetry.metrics
        values: List[Optional[Any]] = []
        replayed = False
        for key in keys:
            value = None
            if key is not None:
                if journal is not None and (reuse or journal.replayed(key)):
                    value = journal.get(key)
                    replayed |= value is not None and journal.replayed(key)
                elif reuse:
                    value = self._memory.get(key)
                    if value is not None:
                        self._memory.move_to_end(key)
                if reuse:
                    metrics.incr("store.hits" if value is not None else "store.misses")
            values.append(value)
        if replayed:
            metrics.incr("journal.replays")
        return values

    def keep(self, entries: Dict[str, Any], reuse: bool) -> None:
        """Store one completed cell's new entries: one journal append when
        a journal is open, else (``reuse`` only) the in-memory LRU."""
        if not entries:
            return
        journal = journal_for(self._journal_path, self._resume)
        if journal is not None:
            journal.record_many(entries)
        elif reuse:
            self._memory.update(entries)
            while len(self._memory) > _RESULT_STORE_CAPACITY:
                self._memory.popitem(last=False)


def result_store(context: RunContext) -> ResultStore:
    """The context's result store, created on first use.

    Memoised in the instance ``__dict__`` like the LP solve cache, so it
    lives as long as the context, never crosses a pickle, and a copy made
    by :meth:`RunContext.replace` starts empty.
    """
    store = context.__dict__.get("_result_store")
    if store is None:
        store = ResultStore(context)
        # Frozen dataclass: memoise via __dict__ to bypass __setattr__.
        context.__dict__["_result_store"] = store
    return store
