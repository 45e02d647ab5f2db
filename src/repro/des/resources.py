"""FIFO resources for the contention-aware replay mode.

A :class:`FIFOResource` models a serially-shared facility (a device's radio,
a base station's CPU): requests are served one at a time in arrival order.
In the *dedicated* mode the resource never queues — matching the analytic
model's assumption that every transfer gets the full link.

:class:`FaultyResource` adds failure injection: scheduled outage windows
during which the facility cannot serve.  A request overlapping an outage is
deferred to the window's end (non-preemptive retry semantics — a transfer
interrupted by a backhaul blip restarts after it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

__all__ = [
    "FIFOResource",
    "FaultyResource",
    "normalise_windows",
]


def normalise_windows(
    windows: Sequence[Tuple[float, float]],
) -> Tuple[Tuple[float, float], ...]:
    """Sort outage windows and merge overlapping or adjacent ones.

    Stochastic fault plans routinely sample overlapping windows (two
    Poisson outage arrivals whose repairs overlap), so the canonical form
    accepted everywhere is the sorted union: disjoint windows separated by
    strictly positive gaps.

    :param windows: (start, end) pairs, in any order, possibly overlapping.
    :returns: the merged windows, sorted by start time.
    :raises ValueError: if any window is empty or inverted (start >= end).
    """
    for start, end in windows:
        if start >= end:
            raise ValueError(f"outage window ({start}, {end}) is empty")
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return tuple(merged)


@dataclass
class FIFOResource:
    """A serially-shared facility with optional FIFO queueing.

    :param name: label for diagnostics.
    :param shared: if True, requests queue behind each other (contention
        mode); if False, every request starts at its arrival time (the
        dedicated-link assumption of the analytic model).
    """

    name: str
    shared: bool = True
    _next_free: float = 0.0
    _busy_time: float = 0.0
    _requests: int = 0
    _log: List[Tuple[float, float, float]] = field(default_factory=list)

    def request(self, arrival: float, service_time: float) -> Tuple[float, float]:
        """Reserve the resource; returns (start, finish) times.

        :param arrival: when the request arrives.
        :param service_time: how long it occupies the resource.
        :raises ValueError: on negative inputs.
        """
        if arrival < 0 or service_time < 0:
            raise ValueError("arrival and service_time must be non-negative")
        start = max(arrival, self._next_free) if self.shared else arrival
        finish = start + service_time
        if self.shared:
            self._next_free = finish
        self._busy_time += service_time
        self._requests += 1
        self._log.append((arrival, start, finish))
        return start, finish

    @property
    def requests_served(self) -> int:
        """Number of requests that reserved this resource."""
        return self._requests

    @property
    def busy_time(self) -> float:
        """Total service time accumulated."""
        return self._busy_time

    def utilisation(self, horizon: float) -> float:
        """Busy fraction over a horizon (≥ 0; may exceed 1 if dedicated)."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self._busy_time / horizon

    def waiting_times(self) -> List[float]:
        """Per-request queueing delays (start − arrival)."""
        return [start - arrival for arrival, start, _ in self._log]


@dataclass
class FaultyResource(FIFOResource):
    """A FIFO resource with injected outage windows.

    :param outages: (start, end) windows when the facility is down, in any
        order; overlapping or adjacent windows are merged on construction
        (stochastic fault plans routinely produce overlaps).  A request
        whose service would overlap a window is pushed to the window's end
        and retried (so a single request may be deferred past several
        consecutive outages).
    """

    outages: Sequence[Tuple[float, float]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.outages = normalise_windows(self.outages)

    def _defer_past_outages(self, start: float, service_time: float) -> float:
        """Earliest start ≥ ``start`` whose service avoids every outage."""
        # Outages are sorted and disjoint (normalised in __post_init__), so
        # one forward scan suffices: deferring past window k can only ever
        # collide with windows > k.
        for outage_start, outage_end in self.outages:
            if start < outage_end and start + service_time > outage_start:
                start = outage_end
        return start

    def request(self, arrival: float, service_time: float) -> Tuple[float, float]:
        """Reserve the facility, deferring past outages; (start, finish)."""
        if arrival < 0 or service_time < 0:
            raise ValueError("arrival and service_time must be non-negative")
        earliest = max(arrival, self._next_free) if self.shared else arrival
        start = self._defer_past_outages(earliest, service_time)
        finish = start + service_time
        if self.shared:
            self._next_free = finish
        self._busy_time += service_time
        self._requests += 1
        self._log.append((arrival, start, finish))
        return start, finish
