"""Energy and time accounting for rearranged divisible-task schedules.

Section IV-C states the pay-off qualitatively: "only the task information
and partial results are required to transmit, much energy will be saved".
This module makes the accounting concrete (documented here because the paper
does not spell it out):

- **Sub-task execution** — the sub-tasks are scheduled with LP-HTA and
  charged its Section II costs (they carry no external data, so this is
  almost entirely local computation).
- **Task-information distribution** — for every (parent task, executor)
  pair, the requester uploads one op description to its base station and the
  executor downloads it (plus a BS–BS hop when they sit in different
  clusters).
- **Partial-result collection** — each sub-task's result, of size
  η(sub-input), travels from its executor to the *requester's* base station
  (device uplink, plus a BS–BS hop across clusters; a BS–cloud hop if LP-HTA
  put the sub-task on the cloud).
- **Final-result delivery** — the aggregate, of size η(parent input), is
  downloaded by the requesting device.

Processing time follows the paper's parallel-execution argument for Fig. 6a:
devices compute concurrently, so the dominant term is the *busiest* device's
total sub-task latency, plus the (maximal) op-distribution, partial-upload
and delivery stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.context import RunContext, current_context
from repro.core import costs
from repro.core.assignment import Assignment, Subsystem
from repro.core.hta import (
    HTAReport,
    LPHTAOptions,
    _sequential_sum,
    lp_hta,
    lp_hta_batch,
)
from repro.core.task import Task
from repro.data.items import DataCatalog
from repro.data.ownership import OwnershipMap
from repro.dta.coverage import Coverage, dta_number, dta_workload
from repro.dta.rearrange import RearrangedPlan, rearrange_tasks
from repro.system.topology import MECSystem
from repro.units import BITS_PER_BYTE

__all__ = [
    "DTAOutcome",
    "evaluate_plan",
    "evaluate_plans",
    "prepare_dta",
    "run_dta",
]


@dataclass(frozen=True)
class DTAOutcome:
    """The priced result of a divisible-task rearrangement.

    :param coverage: the data division used.
    :param plan: the rearranged sub-task plan.
    :param hta_report: LP-HTA's schedule of the sub-tasks.
    :param execution_energy_j: Section II energy of the sub-task schedule.
    :param op_info_energy_j: energy to distribute the task descriptions.
    :param partial_result_energy_j: energy to collect partial results.
    :param final_result_energy_j: energy to deliver the aggregates.
    :param processing_time_s: parallel makespan (see module docstring).
    """

    coverage: Coverage
    plan: RearrangedPlan
    hta_report: HTAReport
    execution_energy_j: float
    op_info_energy_j: float
    partial_result_energy_j: float
    final_result_energy_j: float
    processing_time_s: float

    @property
    def assignment(self) -> Assignment:
        """The LP-HTA assignment of the sub-tasks."""
        return self.hta_report.assignment

    @property
    def total_energy_j(self) -> float:
        """Total system energy of the divisible-task pipeline."""
        return (
            self.execution_energy_j
            + self.op_info_energy_j
            + self.partial_result_energy_j
            + self.final_result_energy_j
        )

    @property
    def involved_devices(self) -> int:
        """Devices participating in the coverage (the Fig. 6b metric)."""
        return self.coverage.involved_devices


@dataclass(frozen=True)
class _PlanDevices:
    """A plan's rows as indices into one table of the devices they name.

    :param requester: per row, the parent owner's index into ``ids``.
    :param executor: per row, the executor's index into ``ids``.
    :param parent_key: per row, a number per distinct parent task id.
    :param ids: the devices' ids, ascending.
    :param cluster: per device, its station id.
    """

    requester: np.ndarray
    executor: np.ndarray
    parent_key: np.ndarray
    ids: np.ndarray
    cluster: np.ndarray

    @classmethod
    def of(cls, system: MECSystem, plan: RearrangedPlan) -> "_PlanDevices":
        rows = plan.rows
        n = len(rows.executor)
        _, first, parent_index = np.unique(
            rows.parent_row, return_index=True, return_inverse=True
        )
        parents = [plan.parents[row] for row in first.tolist()]
        keys: Dict[Tuple[int, int], int] = {}
        parent_key = np.array(
            [keys.setdefault(parent.task_id, len(keys)) for parent in parents],
            dtype=np.int64,
        )
        requester_id = np.array(
            [parent.owner_device_id for parent in parents], dtype=np.int64
        )
        ids, device_index = np.unique(
            np.concatenate((requester_id[parent_index], rows.executor)),
            return_inverse=True,
        )
        return cls(
            requester=device_index[:n],
            executor=device_index[n:],
            parent_key=parent_key[parent_index],
            ids=ids,
            cluster=np.array(
                [system.cluster_of(device_id) for device_id in ids.tolist()],
                dtype=np.int64,
            ),
        )

    def wireless(self, system: MECSystem) -> list:
        """The devices' radio profiles, in ``ids`` order."""
        return [system.device(device_id).wireless for device_id in self.ids.tolist()]


def _running_max(values: np.ndarray) -> float:
    """``max(0.0, v[0], v[1], ...)``, a Python loop's running max."""
    return max(0.0, float(values.max())) if values.size else 0.0


def _op_info_costs(
    system: MECSystem, plan: RearrangedPlan, devices: Optional[_PlanDevices] = None
) -> Tuple[float, float]:
    """(energy, max time) of distributing task descriptions.

    One description per distinct (parent task id, executor), at that
    pair's first row: the requester's upload, plus the executor's download
    (and a BS–BS hop across clusters) when the executor is another device.
    Elementwise over per-device tables of the same radio calls the
    reference makes, summed in row order, so the floats match
    :func:`_op_info_costs_reference` bit for bit.
    """
    if current_context().reference:
        return _op_info_costs_reference(system, plan)
    if devices is None:
        devices = _PlanDevices.of(system, plan)
    size = plan.op_info_bytes
    radios = devices.wireless(system)
    up_e = np.array([radio.upload_energy_j(size) for radio in radios])
    up_t = np.array([radio.upload_time_s(size) for radio in radios])
    down_e = np.array([radio.download_energy_j(size) for radio in radios])
    down_t = np.array([radio.download_time_s(size) for radio in radios])
    hop_e = system.bs_bs_link.transfer_energy_j(size)
    hop_t = system.bs_bs_link.transfer_time_s(size)

    pair = devices.parent_key * len(devices.ids) + devices.executor
    first = np.sort(np.unique(pair, return_index=True)[1])
    requester = devices.requester[first]
    executor = devices.executor[first]
    remote = executor != requester
    cross = remote & (devices.cluster[executor] != devices.cluster[requester])
    energy = np.where(cross, up_e[requester] + hop_e, up_e[requester])
    energy = np.where(remote, energy + down_e[executor], energy)
    time_s = np.where(cross, up_t[requester] + hop_t, up_t[requester])
    time_s = np.where(remote, time_s + down_t[executor], time_s)
    return _sequential_sum(energy), _running_max(time_s)


def _op_info_costs_reference(
    system: MECSystem, plan: RearrangedPlan
) -> Tuple[float, float]:
    """(energy, max time) of distributing task descriptions, row by row
    (the reference path).

    The description size is one per-plan constant, so the radio costs are
    pure functions of the device involved: they are memoised per device
    (and the BS–BS hop computed once), which changes nothing about the
    values or the accumulation order.
    """
    seen = set()
    energy = 0.0
    max_time = 0.0
    size = plan.op_info_bytes
    upload: Dict[int, Tuple[float, float]] = {}
    download: Dict[int, Tuple[float, float]] = {}
    hop_e = system.bs_bs_link.transfer_energy_j(size)
    hop_t = system.bs_bs_link.transfer_time_s(size)
    same_cluster: Dict[Tuple[int, int], bool] = {}
    for subtask, parent in zip(plan.subtasks, plan.parents):
        key = (parent.task_id, subtask.owner_device_id)
        if key in seen:
            continue
        seen.add(key)
        requester_id = parent.owner_device_id
        executor_id = subtask.owner_device_id
        up = upload.get(requester_id)
        if up is None:
            wireless = system.device(requester_id).wireless
            up = (wireless.upload_energy_j(size), wireless.upload_time_s(size))
            upload[requester_id] = up
        energy_one, time_one = up
        if executor_id != requester_id:
            pair = (requester_id, executor_id)
            same = same_cluster.get(pair)
            if same is None:
                same = system.same_cluster(requester_id, executor_id)
                same_cluster[pair] = same
            if not same:
                energy_one += hop_e
                time_one += hop_t
            down = download.get(executor_id)
            if down is None:
                wireless = system.device(executor_id).wireless
                down = (
                    wireless.download_energy_j(size),
                    wireless.download_time_s(size),
                )
                download[executor_id] = down
            energy_one += down[0]
            time_one += down[1]
        energy += energy_one
        max_time = max(max_time, time_one)
    return energy, max_time


def _partial_result_costs(
    system: MECSystem,
    plan: RearrangedPlan,
    assignment: Assignment,
    devices: Optional[_PlanDevices] = None,
) -> Tuple[float, float]:
    """(energy, max time) of collecting partial results at requesters.

    Per assigned row: the executor's uplink (device) or the cloud's WAN
    hop (cloud) — nothing for the station, where the partial already sits
    — plus a BS–BS hop when the requester is in another cluster.
    Elementwise, in the reference's operation order, summed in row order:
    bit for bit :func:`_partial_result_costs_reference`.
    """
    if current_context().reference:
        return _partial_result_costs_reference(system, plan, assignment)
    if devices is None:
        devices = _PlanDevices.of(system, plan)
    rows, cols = assignment._assigned_rows_cols()
    result_model = system.parameters.result_size
    if result_model.constant_bytes is not None:
        partial = np.full(len(rows), float(result_model.constant_bytes))
    else:
        partial = result_model.ratio * plan.rows.part_bytes[rows]
    sent = partial != 0
    executor = devices.executor[rows]
    requester = devices.requester[rows]
    radios = devices.wireless(system)
    tx_power = np.array([radio.tx_power_w for radio in radios])
    up_rate = np.array([radio.upload_rate_bps for radio in radios])
    cloud_link = system.bs_cloud_link
    hop_link = system.bs_bs_link
    bits = partial * BITS_PER_BYTE

    on_device = cols == Subsystem.DEVICE.column
    on_cloud = cols == Subsystem.CLOUD.column
    # Result on the executor: push it up to its station.
    air_s = np.where(sent, bits / up_rate[executor], 0.0)
    energy = np.where(on_device, 0.0 + tx_power[executor] * air_s, 0.0)
    time_s = np.where(on_device, 0.0 + air_s, 0.0)
    # Result on the cloud: pull it down to the edge.
    energy = np.where(on_cloud, 0.0 + cloud_link.energy_per_byte_j * partial, energy)
    time_s = np.where(
        on_cloud & sent,
        0.0 + (cloud_link.latency_s + bits / cloud_link.bandwidth_bps),
        time_s,
    )
    cross = devices.cluster[executor] != devices.cluster[requester]
    energy = np.where(cross, energy + hop_link.energy_per_byte_j * partial, energy)
    time_s = np.where(
        cross & sent,
        time_s + (hop_link.latency_s + bits / hop_link.bandwidth_bps),
        time_s,
    )
    return _sequential_sum(energy), _running_max(time_s)


def _partial_result_costs_reference(
    system: MECSystem, plan: RearrangedPlan, assignment: Assignment
) -> Tuple[float, float]:
    """(energy, max time) of collecting partial results, row by row (the
    reference path).

    Cluster co-residency is memoised per (executor, requester) pair.  The
    per-row radio costs are the radio/link formulas inlined — the same
    divisions and products in the same order (time on air first, energy =
    power × time), so every float matches the method chain bit for bit.
    """
    result_model = system.parameters.result_size
    energy = 0.0
    max_time = 0.0
    same_cluster: Dict[Tuple[int, int], bool] = {}
    cloud_link = system.bs_cloud_link
    hop_link = system.bs_bs_link
    # Per-executor (tx_power_w, upload_rate_bps), resolved once.
    radio: Dict[int, Tuple[float, float]] = {}
    for row, (subtask, parent) in enumerate(zip(plan.subtasks, plan.parents)):
        decision = assignment.decisions[row]
        if decision is Subsystem.CANCELLED:
            continue
        partial = result_model.result_bytes(subtask.input_bytes)
        executor_id = subtask.owner_device_id
        energy_one = 0.0
        time_one = 0.0
        if decision is Subsystem.DEVICE:
            # Result sits on the executor; push it up to its station.
            up = radio.get(executor_id)
            if up is None:
                wireless = system.device(executor_id).wireless
                up = (wireless.tx_power_w, wireless.upload_rate_bps)
                radio[executor_id] = up
            air_s = 0.0 if partial == 0 else partial * BITS_PER_BYTE / up[1]
            energy_one += up[0] * air_s
            time_one += air_s
        elif decision is Subsystem.CLOUD:
            # Result sits on the cloud; pull it down to the edge.
            energy_one += cloud_link.energy_per_byte_j * partial
            if partial != 0:
                time_one += cloud_link.latency_s + (
                    partial * BITS_PER_BYTE / cloud_link.bandwidth_bps
                )
        # (STATION: the partial already sits on the executor's station.)
        pair = (executor_id, parent.owner_device_id)
        same = same_cluster.get(pair)
        if same is None:
            same = system.same_cluster(*pair)
            same_cluster[pair] = same
        if not same:
            energy_one += hop_link.energy_per_byte_j * partial
            if partial != 0:
                time_one += hop_link.latency_s + (
                    partial * BITS_PER_BYTE / hop_link.bandwidth_bps
                )
        energy += energy_one
        max_time = max(max_time, time_one)
    return energy, max_time


def _final_result_costs(
    system: MECSystem, plan: RearrangedPlan, catalog: DataCatalog
) -> Tuple[float, float]:
    """(energy, max time) of delivering aggregates to requesters."""
    result_model = system.parameters.result_size
    energy = 0.0
    max_time = 0.0
    for parent in {p.task_id: p for p in plan.parents}.values():
        total_input = catalog.total_bytes(parent.required_items)
        final = result_model.result_bytes(total_input)
        requester = system.device(parent.owner_device_id)
        energy += requester.wireless.download_energy_j(final)
        max_time = max(max_time, requester.wireless.download_time_s(final))
    return energy, max_time


def _busiest_executor_time(plan: RearrangedPlan, assignment: Assignment) -> float:
    """Max over devices of their summed sub-task latencies (parallel model).

    One ``np.bincount`` per plan: each device's latencies summed in row
    order, as :func:`_busiest_executor_time_reference` adds them.
    """
    if current_context().reference:
        return _busiest_executor_time_reference(plan, assignment)
    rows, cols = assignment._assigned_rows_cols()
    if not rows.size:
        return 0.0
    _, executor = np.unique(plan.rows.executor[rows], return_inverse=True)
    busy = np.bincount(executor, weights=assignment.costs.time_s[rows, cols])
    return float(busy.max())


def _busiest_executor_time_reference(
    plan: RearrangedPlan, assignment: Assignment
) -> float:
    """Max over devices of their summed sub-task latencies, row by row
    (the reference path)."""
    busy: Dict[int, float] = {}
    for row, subtask in enumerate(plan.subtasks):
        latency = assignment.task_latency_s(row)
        if latency is None:
            continue
        owner = subtask.owner_device_id
        busy[owner] = busy.get(owner, 0.0) + latency
    return max(busy.values()) if busy else 0.0


def _register_plan_arrays(system: MECSystem, plan: RearrangedPlan) -> None:
    """Hand the plan's rows to the cost table builder, which then prices
    the sub-tasks from arrays (see :func:`repro.core.costs.register_task_arrays`)."""
    rows = plan.rows
    n = len(rows.executor)
    position = {device_id: k for k, device_id in enumerate(system.devices)}
    executors, executor_index = np.unique(rows.executor, return_inverse=True)
    costs.register_task_arrays(
        system,
        plan.subtasks,
        {
            "owner": np.array(
                [position[device_id] for device_id in executors.tolist()],
                dtype=np.int64,
            )[executor_index],
            "alpha": rows.part_bytes,
            "beta": np.zeros(n),
            "source": np.full(n, -1, dtype=np.int64),
            "has_ext": np.zeros(n, dtype=bool),
            "resource": rows.resource,
            "deadline": rows.deadline,
        },
    )


def evaluate_plan(
    system: MECSystem,
    plan: RearrangedPlan,
    catalog: DataCatalog,
    options: Optional[LPHTAOptions] = None,
    context: Optional[RunContext] = None,
    hta_report: Optional[HTAReport] = None,
) -> DTAOutcome:
    """Schedule a rearranged plan with LP-HTA and price the whole pipeline.

    :param system: the MEC system.
    :param plan: the rearranged sub-tasks.
    :param catalog: item sizes (for final-result sizing).
    :param options: LP-HTA tunables for the sub-task schedule; defaults to
        the context's LP settings.
    :param context: run configuration threaded through to LP-HTA.
    :param hta_report: optional precomputed sub-task schedule (from the
        batched :func:`evaluate_plans`); when given, the LP-HTA call is
        skipped and pricing runs on it unchanged.
    """
    if hta_report is None:
        _register_plan_arrays(system, plan)
        hta_report = lp_hta(system, plan.subtasks, options, context=context)
    assignment = hta_report.assignment

    execution_energy = assignment.total_energy_j()
    devices = None if current_context().reference else _PlanDevices.of(system, plan)
    op_energy, op_time = _op_info_costs(system, plan, devices)
    partial_energy, partial_time = _partial_result_costs(
        system, plan, assignment, devices
    )
    final_energy, final_time = _final_result_costs(system, plan, catalog)
    processing_time = (
        op_time + _busiest_executor_time(plan, assignment) + partial_time + final_time
    )

    return DTAOutcome(
        coverage=plan.coverage,
        plan=plan,
        hta_report=hta_report,
        execution_energy_j=execution_energy,
        op_info_energy_j=op_energy,
        partial_result_energy_j=partial_energy,
        final_result_energy_j=final_energy,
        processing_time_s=processing_time,
    )


def evaluate_plans(
    jobs: Sequence[Tuple[MECSystem, RearrangedPlan, DataCatalog]],
    options: Optional[LPHTAOptions] = None,
    context: Optional[RunContext] = None,
) -> Tuple[DTAOutcome, ...]:
    """Price many rearranged plans with one batched LP-HTA mega-solve.

    The sub-task schedules of independent plans are independent P2
    instances, so the whole candidate list clears in one block-diagonal
    Step-1 solve (:func:`repro.core.hta.lp_hta_batch`) instead of a Python
    loop of :func:`evaluate_plan` calls.  Results are identical plan for
    plan.

    :param jobs: (system, plan, catalog) triples, each priced exactly as
        :func:`evaluate_plan` would.
    :param options: LP-HTA tunables shared by every job.
    :param context: run configuration threaded through to LP-HTA.
    """
    for system, plan, _ in jobs:
        _register_plan_arrays(system, plan)
    reports = lp_hta_batch(
        [(system, plan.subtasks) for system, plan, _ in jobs],
        options,
        context=context,
    )
    return tuple(
        evaluate_plan(
            system, plan, catalog, options, context=context, hta_report=report
        )
        for (system, plan, catalog), report in zip(jobs, reports)
    )


def prepare_dta(
    tasks: Sequence[Task],
    ownership: OwnershipMap,
    catalog: DataCatalog,
    objective: Literal["workload", "number"] = "workload",
    universe: Optional[frozenset] = None,
) -> RearrangedPlan:
    """The combinatorial half of DTA: divide the data and rearrange.

    Pure and LP-free — everything up to (but excluding) the LP-HTA
    schedule, so batch callers can prepare every candidate plan first and
    clear the LP half in one mega-solve via :func:`evaluate_plans`.

    :param tasks: the divisible tasks.
    :param ownership: per-device data holdings.
    :param catalog: item sizes.
    :param objective: ``"workload"`` for DTA-Workload (Section IV-A) or
        ``"number"`` for DTA-Number (Section IV-B).
    :param universe: override for D (defaults to the union of the tasks'
        required items).
    """
    if universe is None:
        required = set()
        for task in tasks:
            required |= task.required_items
        universe = frozenset(required)
    if objective == "workload":
        coverage = dta_workload(universe, ownership)
    elif objective == "number":
        coverage = dta_number(universe, ownership)
    else:
        raise ValueError(f"unknown DTA objective {objective!r}")
    return rearrange_tasks(tasks, coverage, catalog)


def run_dta(
    system: MECSystem,
    tasks: Sequence[Task],
    ownership: OwnershipMap,
    catalog: DataCatalog,
    objective: Literal["workload", "number"] = "workload",
    options: Optional[LPHTAOptions] = None,
    universe: Optional[frozenset] = None,
    context: Optional[RunContext] = None,
) -> DTAOutcome:
    """End-to-end divisible-task assignment: divide, rearrange, schedule, price.

    :param system: the MEC system.
    :param tasks: the divisible tasks.
    :param ownership: per-device data holdings.
    :param catalog: item sizes.
    :param objective: ``"workload"`` for DTA-Workload (Section IV-A) or
        ``"number"`` for DTA-Number (Section IV-B).
    :param options: LP-HTA tunables for the sub-task schedule; defaults to
        the context's LP settings.
    :param universe: override for D (defaults to the union of the tasks'
        required items).
    :param context: run configuration threaded through to LP-HTA.
    """
    plan = prepare_dta(tasks, ownership, catalog, objective, universe)
    return evaluate_plan(system, plan, catalog, options, context=context)
