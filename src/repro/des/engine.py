"""Closed-form DES replay for dedicated resources (the fast path of ``des/replay``).

The closure-chained :class:`~repro.des.replay._Replay` is the event engine:
it builds, per task, a small graph of Python callbacks and pushes them
through a heapq-backed event kernel, and every contended or outage replay
runs it.  A dedicated replay with no outage windows has no shared state at
all, so each task's event chain collapses into a per-stage recurrence
``(value, now) -> (finish, heap_time)`` that vectorises across tasks with
masked NumPy slot updates (4 external-chain slots, 1 local slot, 3 tail
slots).  :func:`compile_rows` flattens each launched row into its stage
service times and :func:`_closed_form` evaluates the recurrence.

The closed form reproduces the closure engine *bit for bit* — every float
operation (the ``now + max(t - now, 0.0)`` clamp, the join
``max(latest, finish)``) is written in the reference's exact order and
associativity, never simplified algebraically.
``tests/test_des_engine.py`` asserts equality of whole
:class:`~repro.des.replay.RealizedMetrics` against the closure kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment, Subsystem
from repro.core.task import Task
from repro.system.topology import MECSystem

__all__ = ["compile_rows", "replay_closed_form"]


class _RowProgram:
    """One launched task row, flattened to its stage service times.

    ``chain_a`` is the external-data branch (for joins) or the whole serial
    chain (device execution); ``chain_b`` is the owner's local uplink time
    (only for station/cloud joins, ``None`` otherwise); ``tail`` runs after
    the join.
    """

    __slots__ = ("row", "start", "chain_a", "chain_b", "tail")

    def __init__(
        self,
        row: int,
        start: float,
        chain_a: List[float],
        chain_b: Optional[float] = None,
        tail: Sequence[float] = (),
    ) -> None:
        self.row = row
        self.start = start
        self.chain_a = chain_a
        self.chain_b = chain_b
        self.tail = tail

    def event_count(self) -> int:
        """Kernel events this row generates.

        A ``k``-stage chain is ``2k + 1`` events (fire + continuation per
        stage, plus the trailing empty-``_chain`` done hop); an empty
        branch is one immediate done event.
        """
        if self.chain_b is None:
            return 2 * len(self.chain_a) + 1
        a = 2 * len(self.chain_a) + 1 if self.chain_a else 1
        return a + 3 + 2 * len(self.tail) + 1


def compile_rows(
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    start_times: Optional[Sequence[float]],
) -> List[_RowProgram]:
    """Flatten every launched row into a :class:`_RowProgram`.

    Service times are computed with the same calls, in the same order, as
    :meth:`~repro.des.replay._Replay.launch`, and validation (negative
    start times) raises the same error in the same row order as its
    launch loop.
    """
    params = system.parameters
    cycles = params.cycles
    result_bytes = params.result_size.result_bytes
    bs_bs_time = system.bs_bs_link.transfer_time_s
    bs_cloud_time = system.bs_cloud_link.transfer_time_s
    cloud_freq = system.cloud.cpu_frequency_hz

    # device id -> (uplink fn, download fn, cpu f, station f, cluster)
    dev_cache: Dict[int, tuple] = {}

    def device_entry(device_id: int) -> tuple:
        entry = dev_cache.get(device_id)
        if entry is None:
            device = system.device(device_id)
            entry = (
                device.wireless.upload_time_s,
                device.wireless.download_time_s,
                device.cpu_frequency_hz,
                system.station_of(device_id).cpu_frequency_hz,
                system.cluster_of(device_id),
            )
            dev_cache[device_id] = entry
        return entry

    programs: List[_RowProgram] = []
    for row, task in enumerate(tasks):
        decision = assignment.decisions[row]
        if decision is Subsystem.CANCELLED:
            continue
        start = float(start_times[row]) if start_times is not None else 0.0
        if start < 0:
            raise ValueError("start_times must be non-negative")

        up_t, down_t, dev_freq, st_freq, owner_cluster = device_entry(
            task.owner_device_id
        )
        alpha, beta = task.local_bytes, task.external_bytes
        total = task.input_bytes
        result = result_bytes(total)

        ext_stages: List[float] = []
        cross = False
        if task.has_external_data:
            src = device_entry(task.external_source)
            cross = src[4] != owner_cluster
            ext_stages.append(src[0](beta))

        if decision is Subsystem.DEVICE:
            chain = ext_stages
            if task.has_external_data:
                if cross:
                    chain.append(bs_bs_time(beta))
                chain.append(down_t(beta))
            chain.append(cycles.cycles_on_device(total) / dev_freq)
            programs.append(_RowProgram(row, start, chain))

        elif decision is Subsystem.STATION:
            if task.has_external_data and cross:
                ext_stages.append(bs_bs_time(beta))
            tail = (cycles.cycles_on_station(total) / st_freq, down_t(result))
            programs.append(_RowProgram(row, start, ext_stages, up_t(alpha), tail))

        elif decision is Subsystem.CLOUD:
            tail = (
                bs_cloud_time(total + result),
                cycles.cycles_on_cloud(total) / cloud_freq,
                down_t(result),
            )
            programs.append(_RowProgram(row, start, ext_stages, up_t(alpha), tail))

        else:  # pragma: no cover - assignments only carry the four decisions
            raise ValueError(f"cannot replay decision {decision}")

    return programs


def _closed_form(
    programs: Sequence[_RowProgram],
) -> Tuple[List[float], float, int]:
    """Per-program finish values, makespan and event count without a heap.

    In dedicated mode with no outage windows every ``request`` returns
    ``(arrival, arrival + service)`` — resources carry no state — so each
    event chain reduces to the recurrence per stage::

        fire   = now + max(value - now, 0.0)     # schedule_at clamp
        finish = fire + service                  # dedicated request
        now'   = fire + max(finish - fire, 0.0)  # the then(finish) event
        value' = finish

    closed by the trailing done hop every chain ends with::

        end = now + max(value - now, 0.0)

    applied over fixed stage slots with ``np.where`` masks (padding with
    no-op stages would perturb the floats — the clamp is not algebraically
    transparent: ``t + (v - t) != v`` in general).  The end transform also
    covers empty branches exactly (``value = start``, ``now = 0``).  Joins
    take the value-max of both branches and the heap-time max of their end
    events for the tail's scheduling ``now``.
    """
    m = len(programs)
    if m == 0:
        return [], 0.0, 0

    start = np.empty(m)
    count_a = np.zeros(m, dtype=np.int64)
    svc_a = np.zeros((m, 4))
    has_join = np.zeros(m, dtype=bool)
    svc_b = np.zeros(m)
    count_t = np.zeros(m, dtype=np.int64)
    svc_t = np.zeros((m, 3))
    events = 0
    for i, prog in enumerate(programs):
        start[i] = prog.start
        count_a[i] = len(prog.chain_a)
        svc_a[i, : count_a[i]] = prog.chain_a
        if prog.chain_b is not None:
            has_join[i] = True
            svc_b[i] = prog.chain_b
            count_t[i] = len(prog.tail)
            svc_t[i, : count_t[i]] = prog.tail
        events += prog.event_count()

    value = start.copy()
    now = np.zeros(m)
    for slot in range(4):
        active = slot < count_a
        if not active.any():
            break
        fire = now + np.maximum(value - now, 0.0)
        finish = fire + svc_a[:, slot]
        then = fire + np.maximum(finish - fire, 0.0)
        value = np.where(active, finish, value)
        now = np.where(active, then, now)
    # The done hop that closes every chain (and IS the whole event for an
    # empty branch, where value = start and now = 0 still hold).
    end_a = now + np.maximum(value - now, 0.0)
    final_value = value
    final_now = end_a

    if has_join.any():
        fire_b = 0.0 + np.maximum(start - 0.0, 0.0)
        finish_b = fire_b + svc_b
        then_b = fire_b + np.maximum(finish_b - fire_b, 0.0)
        end_b = then_b + np.maximum(finish_b - then_b, 0.0)
        # The join completes at the later-popped branch end event; its
        # value is the branch-finish max, its clock the end-time max.
        value = np.maximum(final_value, finish_b)
        now = np.maximum(end_a, end_b)
        for slot in range(3):
            active = slot < count_t
            if not active.any():
                break
            fire = now + np.maximum(value - now, 0.0)
            finish = fire + svc_t[:, slot]
            then = fire + np.maximum(finish - fire, 0.0)
            value = np.where(active, finish, value)
            now = np.where(active, then, now)
        end_t = now + np.maximum(value - now, 0.0)
        final_value = np.where(has_join, value, final_value)
        final_now = np.where(has_join, end_t, end_a)

    return final_value.tolist(), float(final_now.max()), events


def replay_closed_form(
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    start_times: Optional[Sequence[float]],
) -> Tuple[Tuple[Optional[float], ...], float, int]:
    """Replay a dedicated, outage-free assignment without an event queue.

    :returns: ``(latencies, makespan, events_processed)`` with the exact
        values the closure engine produces; every queueing delay is 0.0,
        because dedicated requests start at arrival.
    """
    programs = compile_rows(system, tasks, assignment, start_times)
    finishes, makespan, events = _closed_form(programs)
    latencies: List[Optional[float]] = [None] * len(tasks)
    for prog, finish in zip(programs, finishes):
        latencies[prog.row] = finish - prog.start
    return tuple(latencies), makespan, events
