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

from repro.context import RunContext
from repro.core.assignment import Assignment, Subsystem
from repro.core.hta import HTAReport, LPHTAOptions, lp_hta, lp_hta_batch
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


def _op_info_costs(
    system: MECSystem, plan: RearrangedPlan
) -> Tuple[float, float]:
    """(energy, max time) of distributing task descriptions.

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
    system: MECSystem, plan: RearrangedPlan, assignment: Assignment
) -> Tuple[float, float]:
    """(energy, max time) of collecting partial results at requesters.

    Cluster co-residency is memoised per (executor, requester) pair.  The
    per-row radio costs are the radio/link formulas inlined — the same
    divisions and products in the same order (time on air first, energy =
    power × time), so every float matches the method chain bit for bit —
    because three method hops per sub-task row dominate this accounting
    pass on large plans.
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
    """Max over devices of their summed sub-task latencies (parallel model)."""
    busy: Dict[int, float] = {}
    for row, subtask in enumerate(plan.subtasks):
        latency = assignment.task_latency_s(row)
        if latency is None:
            continue
        owner = subtask.owner_device_id
        busy[owner] = busy.get(owner, 0.0) + latency
    return max(busy.values()) if busy else 0.0


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
        hta_report = lp_hta(system, list(plan.subtasks), options, context=context)
    assignment = hta_report.assignment

    execution_energy = assignment.total_energy_j()
    op_energy, op_time = _op_info_costs(system, plan)
    partial_energy, partial_time = _partial_result_costs(system, plan, assignment)
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
    reports = lp_hta_batch(
        [(system, list(plan.subtasks)) for system, plan, _ in jobs],
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
