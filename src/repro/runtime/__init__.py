"""Crash-safe execution runtime: journaling, supervision, remote errors.

The sweep and tile engines (`repro.experiments.parallel`) dispatch
through this package so that hours-long city-scale runs survive worker
crashes, hung solves and SIGKILLs:

- :mod:`repro.runtime.journal` — the per-context result store, keyed by
  content fingerprint, and the append-only checkpoint journal that is its
  on-disk form, powering ``--resume``.
- :mod:`repro.runtime.supervisor` — per-unit timeouts, bounded retries
  with decorrelated-jitter backoff, poison-cell quarantine.
- :mod:`repro.runtime.errors` — picklable remote-traceback wrapper and
  the config-error classification the supervisor refuses to retry.
"""

from repro.runtime.errors import (
    CellFailedError,
    RemoteCellError,
    config_error_of,
    is_config_error,
)
from repro.runtime.journal import (
    Journal,
    ResultStore,
    context_fingerprint,
    fingerprint,
    journal_for,
    result_store,
)
from repro.runtime.supervisor import PoolHandle, RetryPolicy, Supervisor

__all__ = [
    "CellFailedError",
    "Journal",
    "PoolHandle",
    "RemoteCellError",
    "ResultStore",
    "RetryPolicy",
    "Supervisor",
    "config_error_of",
    "context_fingerprint",
    "fingerprint",
    "is_config_error",
    "journal_for",
    "result_store",
]
