"""Remote-failure types for the crash-safe execution runtime.

A worker that dies mid-cell reaches the parent as a bare
``BrokenProcessPool``; a worker that *raises* historically reached it as
the exception repr with the remote stack lost to the pickle boundary.
:class:`RemoteCellError` closes that gap: worker entry points catch any
evaluation failure and re-raise it wrapped with the formatted remote
traceback plus the cell coordinates (cell indices, shard id, seed), all
carried through pickling, so the main-process error message (and the
quarantine record) shows exactly where and why the worker failed.

Configuration mistakes — an unknown algorithm name, a bad evaluator kind —
raise ``ValueError``/``TypeError`` (or a subclass) and must stay *fatal*:
retrying them is useless and quarantining them would silently turn a typo
into a ``nan`` curve.  :func:`is_config_error` is the supervisor's
classifier.  A :class:`RemoteCellError` carries the verdict the worker
reached with the same ``isinstance`` rule, so an exception is classified
the same in-process and across a pool.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Optional

__all__ = ["CellFailedError", "RemoteCellError", "is_config_error"]

#: Exception types that indicate a configuration mistake rather than a
#: transient runtime failure.  The supervisor re-raises these immediately
#: instead of retrying or quarantining.
_CONFIG_ERROR_TYPES = (ValueError, TypeError)


class RemoteCellError(RuntimeError):
    """An evaluation failure in a worker, with its remote stack preserved.

    :param label: where the failure happened (cell indices, shard, seed).
    :param original_type: class name of the original exception.
    :param remote_traceback: ``traceback.format_exc()`` from the worker.
    :param original: the original exception instance when it pickles,
        else ``None`` (the type name and traceback always survive).
    :param config_error: whether the original exception is a
        configuration mistake, decided where its type was at hand.
    """

    def __init__(
        self,
        label: str,
        original_type: str,
        remote_traceback: str,
        original: Optional[BaseException] = None,
        config_error: bool = False,
    ) -> None:
        super().__init__(
            f"{label} failed with {original_type}; remote traceback:\n"
            f"{remote_traceback}"
        )
        self.label = label
        self.original_type = original_type
        self.remote_traceback = remote_traceback
        self.original = original
        self.config_error = config_error

    def __reduce__(self):
        return (
            RemoteCellError,
            (
                self.label, self.original_type, self.remote_traceback,
                self.original, self.config_error,
            ),
        )

    @classmethod
    def wrap(cls, exc: BaseException, label: str) -> "RemoteCellError":
        """Wrap ``exc`` (the currently-handled exception) for the wire."""
        original: Optional[BaseException] = exc
        try:
            pickle.dumps(exc)
        except Exception:
            original = None
        return cls(
            label=label,
            original_type=type(exc).__name__,
            remote_traceback=traceback.format_exc(),
            original=original,
            config_error=isinstance(exc, _CONFIG_ERROR_TYPES),
        )


class CellFailedError(RuntimeError):
    """A cell exhausted its attempts and quarantine is disabled."""


def is_config_error(exc: BaseException) -> bool:
    """Whether ``exc`` is a configuration mistake the supervisor must
    re-raise instead of retrying (unknown algorithm/backend/evaluator)."""
    if isinstance(exc, RemoteCellError):
        return exc.config_error
    return isinstance(exc, _CONFIG_ERROR_TYPES)


def config_error_of(exc: BaseException) -> BaseException:
    """The exception to re-raise for a config error: the original when a
    :class:`RemoteCellError` still carries it, else ``exc`` itself."""
    if isinstance(exc, RemoteCellError) and exc.original is not None:
        return exc.original
    return exc
