"""Array-native DES replay engine (the compiled hot path of ``des/replay``).

The closure-chained :class:`~repro.des.replay._Replay` builds, per task, a
small graph of Python callbacks and pushes them through a heapq-backed
event kernel.  That is the right *reference* semantics, but at sweep scale
the interpreter cost dominates: every stage is two heap operations, two
closure allocations and a bound-method dispatch.  This module compiles an
assignment into a struct-of-arrays *replay program* — parallel arrays
of stage resource ids, service times, chain successors and join targets —
and executes it with one of two interchangeable backends:

- **closed form** — dedicated mode with no outage windows has no shared
  state at all, so each task's event chain collapses into a per-stage
  recurrence ``(value, now) -> (finish, heap_time)`` that vectorises across
  tasks with masked NumPy slot updates (4 external-chain slots, 1 local
  slot, 3 tail slots).  This is the sweep hot path.
- **event loop** — contention or outages couple tasks through FIFO
  resources, so events must pop in global ``(time, counter)`` order.  The
  loop replays the kernel exactly over plain lists: a ``heapq`` of
  ``(time, counter)``-keyed events, FIFO ``next_free`` state per resource
  id, and outage-window deferral scans.

Both backends reproduce the closure engine *bit for bit* — every
float operation (the ``now + max(t - now, 0.0)`` clamp, the FIFO
``max(arrival, next_free)``, the join ``max(latest, finish)``) is written
in the reference's exact order and associativity, never simplified
algebraically.  ``tests/test_differential_perf.py`` asserts equality of
whole :class:`~repro.des.replay.RealizedMetrics` against the object path.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment, Subsystem
from repro.core.task import Task
from repro.des.kernel import clamp_to_now
from repro.des.resources import normalise_windows
from repro.system.topology import MECSystem

__all__ = ["HAVE_NUMBA", "compile_rows", "replay_with_engine"]

# Event kinds of the index-based loop, mirroring the closure roles one for
# one: a stage's ``fire`` callback, the ``then(finish)`` continuation it
# schedules, the trailing empty-``_chain`` hop that finally calls ``done``
# (every chain ends with one — it is a real kernel event and counts), and
# an empty branch's immediate ``done``.
_FIRE = 0
_COMPLETE = 1
_END = 2
_EMPTY_END = 3

# Chain-end actions.
_END_RECORD = 0
_END_JOIN = 1


class _RowProgram:
    """One launched task row, flattened to ``(resource id, service)`` stages.

    ``chain_a`` is the external-data branch (for joins) or the whole serial
    chain (device execution); ``chain_b`` is the owner's local uplink (only
    for station/cloud joins); ``tail`` runs after the join.
    """

    __slots__ = ("row", "start", "chain_a", "has_join", "chain_b", "tail")

    def __init__(
        self,
        row: int,
        start: float,
        chain_a: List[Tuple[int, float]],
        has_join: bool,
        chain_b: Optional[Tuple[int, float]],
        tail: List[Tuple[int, float]],
    ) -> None:
        self.row = row
        self.start = start
        self.chain_a = chain_a
        self.has_join = has_join
        self.chain_b = chain_b
        self.tail = tail

    def event_count(self) -> int:
        """Kernel events this row generates.

        A ``k``-stage chain is ``2k + 1`` events (fire + continuation per
        stage, plus the trailing empty-``_chain`` done hop); an empty
        branch is one immediate done event.
        """
        if not self.has_join:
            return 2 * len(self.chain_a) + 1
        a = 2 * len(self.chain_a) + 1 if self.chain_a else 1
        return a + 3 + 2 * len(self.tail) + 1


def compile_rows(
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    start_times: Optional[Sequence[float]],
) -> Tuple[List[_RowProgram], int, int, int]:
    """Flatten every launched row into a :class:`_RowProgram`.

    Resource ids follow ``_Replay.all_resources()`` order exactly —
    uplinks, downlinks, device CPUs (device iteration order), station CPUs
    (station iteration order), then backhaul, WAN, cloud CPU — so the
    waiting-time statistics can be summed in the reference's order.

    Validation (row correspondence, negative start times) raises the same
    errors in the same row order as the object path's launch loop.

    :returns: (programs, num resources, backhaul resource id, wan id).
    """
    dev_pos = {d: i for i, d in enumerate(system.devices)}
    st_pos = {s: i for i, s in enumerate(system.stations)}
    nd = len(dev_pos)
    backhaul_id = 3 * nd + len(st_pos)
    wan_id = backhaul_id + 1
    cloud_id = backhaul_id + 2

    params = system.parameters
    cycles = params.cycles
    result_bytes = params.result_size.result_bytes
    bs_bs_time = system.bs_bs_link.transfer_time_s
    bs_cloud_time = system.bs_cloud_link.transfer_time_s
    cloud_freq = system.cloud.cpu_frequency_hz

    # device id -> (uplink fn, download fn, cpu f, uplink res, downlink res,
    #               cpu res, station cpu res, station f, cluster)
    dev_cache: Dict[int, tuple] = {}

    def device_entry(device_id: int) -> tuple:
        entry = dev_cache.get(device_id)
        if entry is None:
            device = system.device(device_id)
            station = system.station_of(device_id)
            pos = dev_pos[device_id]
            entry = (
                device.wireless.upload_time_s,
                device.wireless.download_time_s,
                device.cpu_frequency_hz,
                pos,
                nd + pos,
                2 * nd + pos,
                3 * nd + st_pos[station.station_id],
                station.cpu_frequency_hz,
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

        (up_t, down_t, dev_freq, up_res, down_res, cpu_res,
         st_cpu_res, st_freq, owner_cluster) = device_entry(task.owner_device_id)
        alpha, beta = task.local_bytes, task.external_bytes
        total = task.input_bytes
        result = result_bytes(total)

        ext_stages: List[Tuple[int, float]] = []
        cross = False
        if task.has_external_data:
            src = device_entry(task.external_source)
            cross = src[8] != owner_cluster
            ext_stages.append((src[3], src[0](beta)))

        if decision is Subsystem.DEVICE:
            chain = list(ext_stages)
            if task.has_external_data:
                if cross:
                    chain.append((backhaul_id, bs_bs_time(beta)))
                chain.append((down_res, down_t(beta)))
            chain.append((cpu_res, cycles.cycles_on_device(total) / dev_freq))
            programs.append(_RowProgram(row, start, chain, False, None, []))

        elif decision is Subsystem.STATION:
            ext_branch = list(ext_stages)
            if task.has_external_data and cross:
                ext_branch.append((backhaul_id, bs_bs_time(beta)))
            tail = [
                (st_cpu_res, cycles.cycles_on_station(total) / st_freq),
                (down_res, down_t(result)),
            ]
            programs.append(
                _RowProgram(row, start, ext_branch, True, (up_res, up_t(alpha)), tail)
            )

        elif decision is Subsystem.CLOUD:
            tail = [
                (wan_id, bs_cloud_time(total + result)),
                (cloud_id, cycles.cycles_on_cloud(total) / cloud_freq),
                (down_res, down_t(result)),
            ]
            programs.append(
                _RowProgram(
                    row, start, list(ext_stages), True, (up_res, up_t(alpha)), tail
                )
            )

        else:  # pragma: no cover - assignments only carry the four decisions
            raise ValueError(f"cannot replay decision {decision}")

    return programs, backhaul_id + 3, backhaul_id, wan_id


# ---------------------------------------------------------------------------
# Closed form: dedicated resources, no outages.


def _closed_form(
    programs: Sequence[_RowProgram],
) -> Tuple[Dict[int, float], float, int]:
    """Per-row finish values, makespan and event count without a heap.

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
        return {}, 0.0, 0

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
        for slot, (_, service) in enumerate(prog.chain_a):
            svc_a[i, slot] = service
        if prog.has_join:
            has_join[i] = True
            svc_b[i] = prog.chain_b[1]
            count_t[i] = len(prog.tail)
            for slot, (_, service) in enumerate(prog.tail):
                svc_t[i, slot] = service
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

    finish_values = final_value.tolist()
    finishes = {prog.row: finish_values[i] for i, prog in enumerate(programs)}
    return finishes, float(final_now.max()), events


# ---------------------------------------------------------------------------
# Exact event loop: contention and/or outage windows.


def _event_loop_py(
    stage_res,
    stage_service,
    stage_next,
    stage_end_kind,
    stage_end_ref,
    join_tail,
    init_kind,
    init_target,
    init_value,
    init_time,
    res_shared,
    out_lo,
    out_hi,
    out_start,
    out_end,
    n_tasks,
):
    """Replay the kernel's events in global ``(time, counter)`` order.

    Runs over plain lists with the C-implemented ``heapq`` (indexing
    ndarrays scalar-by-scalar is slower than the closure engine this
    replaces).  Counters are unique and assigned in the kernel's push
    order, so pops — and thus FIFO ties — follow the reference exactly;
    the float arithmetic matches it statement for statement.
    """
    heap = []
    counter = 0
    for i in range(len(init_kind)):
        heap.append((init_time[i], counter, init_kind[i], init_target[i], init_value[i]))
        counter += 1
    heapq.heapify(heap)

    next_free = [0.0] * len(res_shared)
    join_remaining = [2] * len(join_tail)
    join_latest = [0.0] * len(join_tail)
    task_finish = [0.0] * n_tasks
    task_done = [False] * n_tasks
    wait_res: List[int] = []
    wait_val: List[float] = []

    now = 0.0
    n_events = 0
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        now, _, kind, target, value = heappop(heap)
        n_events += 1

        if kind == _FIRE:
            res = stage_res[target]
            if res_shared[res]:
                free = next_free[res]
                begin = free if free > now else now
            else:
                begin = now
            service = stage_service[target]
            for w in range(out_lo[res], out_hi[res]):
                if begin < out_end[w] and begin + service > out_start[w]:
                    begin = out_end[w]
            finish = begin + service
            if res_shared[res]:
                next_free[res] = finish
            wait_res.append(res)
            wait_val.append(begin - now)
            delay = finish - now
            if 0.0 > delay:
                delay = 0.0
            heappush(heap, (now + delay, counter, _COMPLETE, target, finish))
            counter += 1
        elif kind == _COMPLETE:
            nxt = stage_next[target]
            delay = value - now
            if 0.0 > delay:
                delay = 0.0
            if nxt >= 0:
                heappush(heap, (now + delay, counter, _FIRE, nxt, value))
            else:
                heappush(heap, (now + delay, counter, _END, target, value))
            counter += 1
        else:
            if kind == _END:
                if stage_end_kind[target] == _END_RECORD:
                    task_finish[stage_end_ref[target]] = value
                    task_done[stage_end_ref[target]] = True
                    continue
                join = stage_end_ref[target]
            else:
                join = target
            if value > join_latest[join]:
                join_latest[join] = value
            join_remaining[join] -= 1
            if join_remaining[join] == 0:
                latest = join_latest[join]
                delay = latest - now
                if 0.0 > delay:
                    delay = 0.0
                heappush(heap, (now + delay, counter, _FIRE, join_tail[join], latest))
                counter += 1

    return task_finish, task_done, wait_res, wait_val, now, n_events


#: The replay engine has no compiled backend; kept as a constant because
#: benchmark regime stamps import it.
HAVE_NUMBA = False


def _build_event_arrays(
    programs: Sequence[_RowProgram],
    num_resources: int,
    contention: bool,
    backhaul_id: int,
    wan_id: int,
    backhaul_windows: Tuple[Tuple[float, float], ...],
    wan_windows: Tuple[Tuple[float, float], ...],
) -> dict:
    """Struct-of-lists form of the programs: :func:`_event_loop_py`'s kwargs."""
    stage_res: List[int] = []
    stage_service: List[float] = []
    stage_next: List[int] = []
    stage_end_kind: List[int] = []
    stage_end_ref: List[int] = []
    join_tail: List[int] = []

    init_kind: List[int] = []
    init_target: List[int] = []
    init_value: List[float] = []
    init_time: List[float] = []

    def add_chain(stages: Sequence[Tuple[int, float]], end_kind: int, ref: int) -> int:
        first = len(stage_res)
        last = first + len(stages) - 1
        for sid, (res, service) in enumerate(stages, start=first):
            stage_res.append(res)
            stage_service.append(float(service))
            if sid < last:
                stage_next.append(sid + 1)
                stage_end_kind.append(_END_RECORD)
                stage_end_ref.append(0)
            else:
                stage_next.append(-1)
                stage_end_kind.append(end_kind)
                stage_end_ref.append(ref)
        return first

    def launch(kind: int, target: int, value: float, t0: float) -> None:
        init_kind.append(kind)
        init_target.append(target)
        init_value.append(value)
        init_time.append(t0)

    for prog in programs:
        t0 = 0.0 + clamp_to_now(0.0, prog.start)
        if not prog.has_join:
            launch(_FIRE, add_chain(prog.chain_a, _END_RECORD, prog.row), 0.0, t0)
            continue
        join = len(join_tail)
        # Branches launch in the reference's order: external first, local
        # second (counters — and thus FIFO ties — depend on it).
        if prog.chain_a:
            launch(_FIRE, add_chain(prog.chain_a, _END_JOIN, join), 0.0, t0)
        else:
            launch(_EMPTY_END, join, prog.start, t0)
        launch(_FIRE, add_chain([prog.chain_b], _END_JOIN, join), 0.0, t0)
        join_tail.append(add_chain(prog.tail, _END_RECORD, prog.row))

    # Radios and CPUs queue under contention; infra links stay dedicated.
    res_shared = [contention and res < backhaul_id for res in range(num_resources)]

    out_lo = [0] * num_resources
    out_hi = [0] * num_resources
    windows = backhaul_windows + wan_windows
    out_hi[backhaul_id] = out_lo[wan_id] = len(backhaul_windows)
    out_hi[wan_id] = len(windows)

    return {
        "stage_res": stage_res,
        "stage_service": stage_service,
        "stage_next": stage_next,
        "stage_end_kind": stage_end_kind,
        "stage_end_ref": stage_end_ref,
        "join_tail": join_tail,
        "init_kind": init_kind,
        "init_target": init_target,
        "init_value": init_value,
        "init_time": init_time,
        "res_shared": res_shared,
        "out_lo": out_lo,
        "out_hi": out_hi,
        "out_start": [float(start) for start, _ in windows],
        "out_end": [float(end) for _, end in windows],
    }


def replay_with_engine(
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    contention: bool,
    backhaul_outages: Sequence[Tuple[float, float]],
    wan_outages: Sequence[Tuple[float, float]],
    start_times: Optional[Sequence[float]],
) -> Tuple[Tuple[Optional[float], ...], float, int, float]:
    """Replay through the compiled engine.

    :returns: ``(latencies, makespan, events_processed, mean_wait)`` with
        the exact values the closure engine produces — the caller wraps
        them in :class:`~repro.des.replay.RealizedMetrics`.
    """
    # Outage windows normalise before the launch loop, matching the
    # FaultyResource construction order of the object path (bad windows
    # raise before any start-time validation does).
    backhaul_windows = normalise_windows(backhaul_outages) if backhaul_outages else ()
    wan_windows = normalise_windows(wan_outages) if wan_outages else ()

    programs, num_resources, backhaul_id, wan_id = compile_rows(
        system, tasks, assignment, start_times
    )
    starts = {
        prog.row: (float(start_times[prog.row]) if start_times is not None else 0.0)
        for prog in programs
    }

    if not contention and not backhaul_windows and not wan_windows:
        finishes, makespan, events = _closed_form(programs)
        mean_wait = 0.0  # dedicated requests start at arrival: every wait is 0.0
    else:
        arrays = _build_event_arrays(
            programs,
            num_resources,
            contention,
            backhaul_id,
            wan_id,
            backhaul_windows,
            wan_windows,
        )
        finish_list, done_list, wait_res_list, wait_val_list, now, events = (
            _event_loop_py(**arrays, n_tasks=len(tasks))
        )
        makespan = float(now)
        finishes = {
            row: finish_list[row] for row in range(len(tasks)) if done_list[row]
        }
        # The reference sums waits over all_resources() order (resource id
        # ascending), each resource's log in request order — a stable sort
        # by resource id reconstructs exactly that summation order.
        if wait_val_list:
            order = sorted(range(len(wait_res_list)), key=wait_res_list.__getitem__)
            total = 0.0
            for i in order:
                total += wait_val_list[i]
            mean_wait = total / len(wait_val_list)
        else:
            mean_wait = 0.0

    latencies: List[Optional[float]] = []
    for row in range(len(tasks)):
        finish = finishes.get(row)
        if finish is None:
            latencies.append(None)
        else:
            latencies.append(finish - starts.get(row, 0.0))
    return tuple(latencies), makespan, events, mean_wait
