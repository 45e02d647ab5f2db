"""A minimal discrete-event simulation kernel.

Callback-style: schedule ``(delay, callback)`` pairs; :meth:`run` pops
events in time order (FIFO among simultaneous events) and invokes them.
Deliberately tiny — deterministic, no processes, no channels — because the
replay layer only needs ordered time advancement.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["EventSimulator", "clamp_to_now"]


def clamp_to_now(now: float, time: float) -> float:
    """The delay :meth:`EventSimulator.schedule_at` derives from a target.

    Named because the closed form in :mod:`repro.des.engine` replicates
    this arithmetic bit for bit — ``now + max(time - now, 0.0)`` is *not*
    ``max(time, now)`` in floats, and simplifying it would break the
    differential guarantees.
    """
    return max(time - now, 0.0)


class EventSimulator:
    """An event queue with a clock.

    Events scheduled for the same instant fire in scheduling order, which
    keeps replays deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        :raises ValueError: on negative delays (time travels forward only).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute time ≥ now.

        Times a rounding error below ``now`` are clamped to ``now`` — chains
        of float additions legitimately produce finish times a few ulps in
        the past.
        """
        self.schedule(clamp_to_now(self._now, time), callback)

    def run(self, until: Optional[float] = None) -> float:
        """Process events in order until the queue drains (or ``until``).

        :param until: stop the clock at this time, leaving later events
            queued; ``None`` runs to exhaustion.
        :returns: the final simulation time.
        """
        while self._queue:
            time, _, callback = self._queue[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._now = time
            self._processed += 1
            callback()
        return self._now

    def step(self) -> bool:
        """Process exactly one event; returns False if none were queued."""
        if not self._queue:
            return False
        time, _, callback = heapq.heappop(self._queue)
        self._now = time
        self._processed += 1
        callback()
        return True
