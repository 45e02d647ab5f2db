"""Epoch-based online scheduling over a mobile MEC system.

Every ``epoch_length_s`` the scheduler: observes the current device→station
association (from the mobility model, or the static one), re-prices the
tasks that arrived during the previous epoch under that association, and
runs the configured policy on the batch.  The quasi-static assumption is
then *audited*: the same decisions are re-priced under the association at
the end of the epoch, and the report records the realized energy and the
extra deadline misses the drift caused.

When a :class:`~repro.faults.FaultPlan` is supplied, each epoch also
consumes its slice of the fault history: devices that departed before the
epoch are marked and their tasks dropped before re-planning, the planned
schedule is replayed under the epoch's outage windows to detect mid-flight
failures (:func:`repro.faults.detect_threats`), and the configured recovery
policy (:data:`repro.faults.RECOVERY_POLICIES`) decides what each failure
costs.  Recovery events land in the :class:`~repro.context.RunContext`
telemetry sink, so ``--stats`` reports retries/degradations/reassignments,
and in the report for the resilience experiment to trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import registry
from repro.context import RunContext, current_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import cluster_costs
from repro.core.task import Task
from repro.faults.model import FaultPlan, shift_windows
from repro.faults.recovery import (
    RECOVERY_POLICIES,
    RecoveryEvent,
    RecoveryOptions,
    apply_recovery,
    detect_threats,
)
from repro.mobility.handover import attachment_at
from repro.mobility.waypoint import RandomWaypointModel
from repro.obs.tracer import record_span, span
from repro.online.arrivals import TimedTask
from repro.system.topology import MECSystem

__all__ = [
    "EpochRecord",
    "OnlineOptions",
    "OnlineReport",
    "POLICIES",
    "simulate_online",
]

#: Accepted policy keys — registry lookups: lower-cased display names
#: ("lp-hta", "hgos", "game") or registered aliases ("cloud" → AllToC).
POLICIES = ("lp-hta", "hgos", "game", "cloud")
_POLICIES = POLICIES


@dataclass(frozen=True)
class OnlineOptions:
    """Online-scheduler tunables.

    :param epoch_length_s: planning cadence.
    :param policy: ``"lp-hta"`` (default), ``"hgos"``, ``"game"`` or
        ``"cloud"``.
    :param audit_drift: re-price each epoch's decisions under the
        end-of-epoch association to measure what mobility cost.
    :param recovery: fault-recovery policy applied when a fault plan is
        supplied — one of :data:`repro.faults.RECOVERY_POLICIES`
        (``"none"``, ``"retry"``, ``"degrade"``, ``"reassign"``).
    :param recovery_options: retry/backoff tunables for the recovery step.
    """

    epoch_length_s: float = 60.0
    policy: str = "lp-hta"
    audit_drift: bool = True
    recovery: str = "none"
    recovery_options: RecoveryOptions = field(default_factory=RecoveryOptions)

    def __post_init__(self) -> None:
        if self.epoch_length_s <= 0:
            raise ValueError("epoch_length_s must be positive")
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(f"recovery must be one of {RECOVERY_POLICIES}")


@dataclass(frozen=True)
class EpochRecord:
    """Metrics of one planning epoch.

    :param epoch: epoch index.
    :param start_s: epoch start time.
    :param num_tasks: tasks that *arrived* in this epoch — including tasks
        dropped before planning because their owner had departed.
    :param planned_energy_j: energy under the epoch-start association
        (planned tasks only).
    :param realized_energy_j: energy of the same decisions after auditing
        association drift *and* fault recovery — includes energy wasted on
        failed work, late cloud re-executions and recovery overheads.
    :param planned_unsatisfied: deadline miss/cancel rate at plan time
        (over the planned tasks).
    :param realized_unsatisfied: miss/cancel/drop rate after drift and
        faults, over *every* arrival of the epoch.
    :param handovers: devices whose station changed within the epoch.
    :param dropped: tasks lost to device departures or data loss.
    :param recovered: threatened tasks the recovery policy saved.
    :param retries: retry recoveries attempted.
    :param degradations: degrade-to-cloud recoveries attempted.
    :param reassignments: LP reassignment recoveries attempted.
    :param fault_extra_energy_j: realized minus planned energy that is
        attributable to faults (waste, redo, recovery overhead).
    """

    epoch: int
    start_s: float
    num_tasks: int
    planned_energy_j: float
    realized_energy_j: float
    planned_unsatisfied: float
    realized_unsatisfied: float
    handovers: int
    dropped: int = 0
    recovered: int = 0
    retries: int = 0
    degradations: int = 0
    reassignments: int = 0
    fault_extra_energy_j: float = 0.0


@dataclass(frozen=True)
class OnlineReport:
    """Whole-run summary of an online simulation.

    :param epochs: per-epoch records.
    :param policy: the policy that produced them.
    :param recovery: the fault-recovery policy in force (``"none"`` when
        no fault plan was supplied).
    :param events: every fault-recovery event, in (epoch, row) order.
    """

    epochs: Tuple[EpochRecord, ...]
    policy: str
    recovery: str = "none"
    events: Tuple[RecoveryEvent, ...] = ()

    @property
    def total_tasks(self) -> int:
        """Tasks that arrived across the run (planned or dropped)."""
        return sum(e.num_tasks for e in self.epochs)

    @property
    def total_planned_energy_j(self) -> float:
        """Energy the planner believed it was spending."""
        return sum(e.planned_energy_j for e in self.epochs)

    @property
    def total_realized_energy_j(self) -> float:
        """Energy after auditing association drift and fault recovery."""
        return sum(e.realized_energy_j for e in self.epochs)

    @property
    def drift_energy_gap_j(self) -> float:
        """Extra energy attributable to quasi-static violations and faults.

        Includes the energy of failed work: wasted attempts, late cloud
        re-executions and recovery overheads all land in the realized
        total, so dropped or degraded tasks no longer undercount the gap.
        """
        return self.total_realized_energy_j - self.total_planned_energy_j

    @property
    def mean_realized_unsatisfied(self) -> float:
        """Arrival-weighted realized miss rate.

        Weighted by every task that *arrived* — tasks dropped mid-epoch
        (departed owners, lost data) count as unsatisfied work instead of
        silently vanishing from the denominator.
        """
        total = self.total_tasks
        if total == 0:
            return 0.0
        return (
            sum(e.realized_unsatisfied * e.num_tasks for e in self.epochs) / total
        )

    @property
    def total_dropped(self) -> int:
        """Tasks lost to departures/data loss across the run."""
        return sum(e.dropped for e in self.epochs)

    @property
    def total_recovered(self) -> int:
        """Threatened tasks the recovery policy saved across the run."""
        return sum(e.recovered for e in self.epochs)

    def event_trace(self) -> Tuple[tuple, ...]:
        """The canonical recovery-event trace (bit-identity comparisons)."""
        return tuple(event.as_tuple() for event in self.events)


def _rebuild(system: MECSystem, attachment: Dict[int, int]) -> MECSystem:
    """The same system under a different device→station association."""
    return MECSystem(
        devices=list(system.devices.values()),
        stations=list(system.stations.values()),
        attachment=attachment,
        cloud=system.cloud,
        bs_bs_link=system.bs_bs_link,
        bs_cloud_link=system.bs_cloud_link,
        parameters=system.parameters,
    )


def _run_policy(
    policy: str,
    system: MECSystem,
    tasks: Sequence[Task],
    context: RunContext,
) -> Assignment:
    return registry.resolve_assignment(policy, system, list(tasks), context)


def _reprice(
    system: MECSystem, tasks: Sequence[Task], decisions: Sequence[Subsystem]
) -> Assignment:
    """The same decisions under a re-priced cost table."""
    return Assignment(cluster_costs(system, list(tasks)), decisions)


def simulate_online(
    system: MECSystem,
    arrivals: Sequence[TimedTask],
    options: OnlineOptions = OnlineOptions(),
    mobility: Optional[RandomWaypointModel] = None,
    context: Optional[RunContext] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> OnlineReport:
    """Run the epoch scheduler over a stream of arrivals.

    :param system: the MEC system (its attachment is used when no mobility
        model is given; its station positions anchor handover when one is).
    :param arrivals: timed tasks, in any order.
    :param options: scheduler tunables.
    :param mobility: optional mobility model driving the association.
    :param context: run configuration for every epoch's policy run;
        defaults to the active context.
    :param fault_plan: optional fault history to inject — device
        departures are marked before re-planning, link outages are
        replayed against each epoch's schedule, and ``options.recovery``
        decides what the resulting failures cost.
    :returns: per-epoch and aggregate metrics, plus the recovery events.
    """
    context = context if context is not None else current_context()
    if mobility is not None:
        station_positions = {
            sid: station.position
            for sid, station in system.stations.items()
        }
        if any(p is None for p in station_positions.values()):
            raise ValueError("mobility requires positioned base stations")

    ordered = sorted(arrivals, key=lambda timed: timed.arrival_s)
    if not ordered:
        return OnlineReport(
            epochs=(), policy=options.policy, recovery=options.recovery
        )
    horizon = ordered[-1].arrival_s
    num_epochs = int(horizon // options.epoch_length_s) + 1

    records: List[EpochRecord] = []
    all_events: List[RecoveryEvent] = []
    cursor = 0
    for epoch in range(num_epochs):
        start = epoch * options.epoch_length_s
        end = start + options.epoch_length_s
        timed_batch: List[TimedTask] = []
        while cursor < len(ordered) and ordered[cursor].arrival_s < end:
            timed_batch.append(ordered[cursor])
            cursor += 1
        if not timed_batch:
            continue
        epoch_work_start = time.perf_counter()
        full_batch: List[Task] = [timed.task for timed in timed_batch]

        # Mark departed devices before re-planning: their tasks never make
        # it into the planner's batch.  Surviving rows keep their arrival
        # offset within the epoch — the replay launches them there, so
        # mid-epoch outage windows hit the tasks actually in flight.
        epoch_events: List[RecoveryEvent] = []
        batch: List[Task] = []
        offsets: List[float] = []
        if fault_plan is not None:
            gone_at_plan = fault_plan.departed_devices(start)
            for timed in timed_batch:
                if timed.task.owner_device_id in gone_at_plan:
                    epoch_events.append(
                        RecoveryEvent(
                            epoch=epoch,
                            task_id=timed.task.task_id,
                            row=-1,
                            kind="departure",
                            action="drop",
                            recovered=False,
                            extra_energy_j=0.0,
                        )
                    )
                else:
                    batch.append(timed.task)
                    offsets.append(max(0.0, timed.arrival_s - start))
        else:
            batch = full_batch
            offsets = [max(0.0, t.arrival_s - start) for t in timed_batch]

        if mobility is None:
            plan_system = system
            drift_system = system
            handovers = 0
        else:
            plan_attachment = attachment_at(mobility, station_positions, end)
            drift_attachment = attachment_at(
                mobility, station_positions, end + options.epoch_length_s
            )
            plan_system = _rebuild(system, plan_attachment)
            drift_system = _rebuild(system, drift_attachment)
            handovers = sum(
                1
                for device_id in plan_attachment
                if plan_attachment[device_id] != drift_attachment[device_id]
            )

        if batch:
            plan_start = time.perf_counter()
            with span("online.plan", context=context, epoch=epoch, tasks=len(batch)):
                assignment = _run_policy(
                    options.policy, plan_system, batch, context
                )
            context.telemetry.metrics.observe(
                "online.decision_latency_s", time.perf_counter() - plan_start
            )
            planned_energy = assignment.total_energy_j()
            planned_unsat = assignment.unsatisfied_rate()

            if options.audit_drift and mobility is not None:
                realized = _reprice(drift_system, batch, assignment.decisions)
            else:
                realized = assignment
            realized_energy = realized.total_energy_j()
        else:
            assignment = None
            realized = None
            planned_energy = 0.0
            planned_unsat = 0.0
            realized_energy = 0.0

        dropped = len(epoch_events)
        recovered = 0
        counts: Dict[str, int] = {}
        fault_extra = 0.0
        if fault_plan is not None and assignment is not None:
            backhaul = shift_windows(fault_plan.backhaul_outages, start, end)
            wan = shift_windows(fault_plan.wan_outages, start, end)
            departed = fault_plan.departed_devices(end)
            crashed = fault_plan.crashed_stations(end)
            threats = detect_threats(
                plan_system,
                batch,
                assignment,
                backhaul_outages=backhaul,
                wan_outages=wan,
                departed=departed,
                crashed=crashed,
                start_times=offsets,
            )
            outcome = apply_recovery(
                options.recovery,
                epoch,
                plan_system,
                batch,
                assignment,
                threats,
                options=options.recovery_options,
                context=context,
                backhaul_outages=backhaul,
                wan_outages=wan,
                departed=departed,
                crashed=crashed,
                start_times=offsets,
            )
            epoch_events.extend(outcome.events)
            fault_extra = outcome.extra_energy_j
            realized_energy += fault_extra
            recovered = len(outcome.recovered_rows)
            counts = outcome.counts
            dropped += len(threats.dropped_rows) + len(threats.data_loss_rows)
            unsat_rows = outcome.unsatisfied_rows
        else:
            unsat_rows = frozenset()

        # Realized satisfaction per arrival: drift-audited deadline check,
        # overridden by any fault the recovery policy could not absorb;
        # pre-planning drops count against the epoch too.
        if realized is not None:
            base_unsat = sum(
                1
                for row in range(len(batch))
                if not realized.meets_deadline(row) or row in unsat_rows
            )
        else:
            base_unsat = 0
        pre_dropped = len(full_batch) - len(batch)
        realized_unsat = (base_unsat + pre_dropped) / len(full_batch)

        metrics = context.telemetry.metrics
        for event in epoch_events:
            metrics.incr("faults.detected")
            if event.action != "none":
                metrics.incr(f"faults.{event.action}")
            if event.recovered:
                metrics.incr("faults.recovered")
        all_events.extend(epoch_events)

        records.append(
            EpochRecord(
                epoch=epoch,
                start_s=start,
                num_tasks=len(full_batch),
                planned_energy_j=planned_energy,
                realized_energy_j=realized_energy,
                planned_unsatisfied=planned_unsat,
                realized_unsatisfied=realized_unsat,
                handovers=handovers,
                dropped=dropped,
                recovered=recovered,
                retries=counts.get("retry", 0),
                degradations=counts.get("degrade", 0),
                reassignments=counts.get("reassign", 0),
                fault_extra_energy_j=fault_extra,
            )
        )
        # The loop's ``continue`` paths make a ``with`` block awkward here;
        # record the already-measured interval instead.
        record_span(
            "online.epoch",
            epoch_work_start,
            time.perf_counter() - epoch_work_start,
            context=context,
            epoch=epoch,
            tasks=len(full_batch),
        )

    return OnlineReport(
        epochs=tuple(records),
        policy=options.policy,
        recovery=options.recovery,
        events=tuple(all_events),
    )
