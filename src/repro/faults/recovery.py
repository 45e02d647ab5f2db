"""Recovery policies for mid-flight failures detected by the DES replay.

The online scheduler plans each epoch against the quasi-static snapshot;
the fault plan then hits the planned schedule with link outages, device
departures and station crashes.  :func:`detect_threats` replays the epoch
on the event kernel — once healthy, once under the epoch's outage windows
— and classifies every endangered task.  :func:`apply_recovery` then runs
one of the pluggable policies over the threatened set:

- ``none`` — fail-stop baseline: a task interrupted by a failure is
  abandoned; the work already spent is wasted and the request must still
  be served, so it is re-executed late over the always-available
  AllToC-style cloud path (the :math:`e_{BC}` terms of Section II-B,
  exactly what :func:`repro.core.baselines.all_to_cloud` charges).  The
  task counts as unsatisfied.
- ``retry`` — re-request the failed link: the transfer restarts after
  each outage window with exponential backoff, re-paying the path's
  transmission energy (Sec. II-B) once per attempt, bounded by a retry
  budget.  Succeeds when the deferred finish still meets the deadline and
  the retransmission energy undercuts the cloud re-execution.
- ``degrade`` — degrade-to-cloud: abandon the original path and fall back
  to the cloud, paying the same energy as the fail-stop baseline (wasted
  attempt + cloud re-execution) but *before* the deadline when the WAN
  allows; the realized finish is measured by replaying the degraded
  decisions under the same outage windows.
- ``reassign`` — re-run the LP-HTA repair step over only the surviving
  devices and stations (departed devices removed, crashed stations'
  clusters re-attached), re-planning just the threatened tasks; the
  context's LP solve cache (:mod:`repro.caching.lp_cache`) makes repeated
  repair solves cheap.  A repaired decision is accepted only when its
  replayed finish meets the deadline and its energy undercuts the cloud
  re-execution.

**Accounting invariants** (what the resilience experiment's bounds rest
on): every event carries ``extra_energy_j``, the row's realized energy
minus its planned energy, so an epoch's realized energy is exactly
``planned + Σ extras``.  A failed recovery costs the same as the
fail-stop baseline, and a successful one is accepted only when cheaper —
hence every policy's realized energy and miss count are ≤ the
no-recovery baseline on the same fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.context import RunContext, current_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import task_costs
from repro.core.hta import lp_hta
from repro.core.task import Task
from repro.des.replay import RealizedMetrics, replay_assignment
from repro.obs.tracer import staged, traced
from repro.policies import RECOVERY_POLICIES
from repro.system.topology import MECSystem

__all__ = [
    "RECOVERY_POLICIES",
    "RecoveryEvent",
    "RecoveryOptions",
    "RecoveryOutcome",
    "ThreatReport",
    "apply_recovery",
    "detect_threats",
    "surviving_system",
]

_CLOUD_COL = Subsystem.CLOUD.column
_LATENCY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RecoveryOptions:
    """Tunables of the recovery policies.

    :param retry_budget: maximum link re-requests per task before the
        retry policy gives up.
    :param backoff_base_s: base of the exponential backoff — attempt *k*
        waits ``backoff_base_s * 2**(k-1)`` before re-requesting, so *n*
        attempts add ``backoff_base_s * (2**n - 1)`` of delay.
    """

    retry_budget: int = 3
    backoff_base_s: float = 0.05

    def __post_init__(self) -> None:
        if self.retry_budget < 1:
            raise ValueError("retry_budget must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")


@dataclass(frozen=True)
class RecoveryEvent:
    """One fault-and-response record (the telemetry/trace unit).

    :param epoch: epoch index the fault hit.
    :param task_id: the (owner, index) pair of the affected task.
    :param row: row in the epoch's planned batch (``-1`` for tasks dropped
        before planning because their owner had already departed).
    :param kind: what failed — ``"departure"`` (owner left),
        ``"data-loss"`` (external-data holder left), ``"crash"`` (serving
        station crashed) or ``"outage"`` (a link outage deferred the task
        past usefulness).
    :param action: the recovery action taken (``"drop"``, ``"none"``,
        ``"retry"``, ``"degrade"``, ``"reassign"``).
    :param recovered: whether the task still met its deadline.
    :param extra_energy_j: realized minus planned energy for this row
        (negative for drops — the planned energy was never spent).
    """

    epoch: int
    task_id: Tuple[int, int]
    row: int
    kind: str
    action: str
    recovered: bool
    extra_energy_j: float

    def as_tuple(self) -> tuple:
        """Canonical trace entry (what the bit-identity CI job diffs)."""
        return (
            self.epoch,
            self.task_id,
            self.row,
            self.kind,
            self.action,
            self.recovered,
            self.extra_energy_j,
        )


@dataclass(frozen=True)
class ThreatReport:
    """What the detection replay found for one epoch.

    :param healthy: replay metrics with no fault injected.
    :param faulty: replay metrics under the epoch's outage windows.
    :param dropped_rows: assigned rows whose owner departed mid-epoch.
    :param data_loss_rows: rows whose external-data holder departed.
    :param crash_rows: rows assigned to a crashed station (and on track to
        meet their deadline before the crash).
    :param outage_rows: rows whose outage-deferred finish breaks a
        deadline they would otherwise have met, or defers them at all —
        any row the outages touched.
    """

    healthy: RealizedMetrics
    faulty: RealizedMetrics
    dropped_rows: Tuple[int, ...]
    data_loss_rows: Tuple[int, ...]
    crash_rows: Tuple[int, ...]
    outage_rows: Tuple[int, ...]

    @property
    def threatened_rows(self) -> Tuple[int, ...]:
        """Rows a recovery policy can still act on, in row order."""
        return tuple(sorted((*self.crash_rows, *self.outage_rows)))

    @property
    def any_faults(self) -> bool:
        """Whether this epoch was touched by the fault plan at all."""
        return bool(
            self.dropped_rows
            or self.data_loss_rows
            or self.crash_rows
            or self.outage_rows
        )


@dataclass(frozen=True)
class RecoveryOutcome:
    """The net effect of one epoch's faults after a recovery policy ran.

    :param events: one event per affected row, in row order.
    :param extra_energy_j: Σ event extras — the epoch's realized energy is
        its planned energy plus this.
    :param unsatisfied_rows: batch rows the faults made (or left)
        unsatisfied despite recovery.
    :param recovered_rows: batch rows recovery saved.
    """

    events: Tuple[RecoveryEvent, ...]
    extra_energy_j: float
    unsatisfied_rows: FrozenSet[int]
    recovered_rows: FrozenSet[int]

    @property
    def counts(self) -> Dict[str, int]:
        """Event counts keyed by action (for telemetry/tests)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.action] = out.get(event.action, 0) + 1
        return out


@traced("faults.detect")
def detect_threats(
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    backhaul_outages: Sequence[Tuple[float, float]] = (),
    wan_outages: Sequence[Tuple[float, float]] = (),
    departed: FrozenSet[int] = frozenset(),
    crashed: FrozenSet[int] = frozenset(),
    start_times: Optional[Sequence[float]] = None,
    context: Optional[RunContext] = None,
) -> ThreatReport:
    """Replay one epoch healthy and faulty, and classify endangered tasks.

    Classification is exclusive and checked in severity order: a departed
    owner beats a lost data source beats a crashed station beats a link
    outage.  Planner-cancelled rows and rows that were already going to
    miss their deadline are never threatened — recovery cannot un-plan a
    bad plan, only shield a good one from failures.

    :param system: the (plan-time) MEC system.
    :param tasks: the epoch batch, in assignment row order.
    :param assignment: the planned decisions.
    :param backhaul_outages: epoch-relative BS–BS outage windows.
    :param wan_outages: epoch-relative BS–cloud outage windows.
    :param departed: devices gone by the end of the epoch.
    :param crashed: stations crashed by the end of the epoch.
    :param start_times: per-row epoch-relative launch times (the task's
        arrival offset within the epoch); defaults to launching at 0.
    :param context: run configuration of both replays; defaults to the
        active context.
    """
    healthy = replay_assignment(
        system, tasks, assignment, start_times=start_times, context=context
    )
    faulty = replay_assignment(
        system,
        tasks,
        assignment,
        backhaul_outages=tuple(backhaul_outages),
        wan_outages=tuple(wan_outages),
        start_times=start_times,
        context=context,
    )

    dropped: List[int] = []
    data_loss: List[int] = []
    crash: List[int] = []
    outage: List[int] = []
    for row, task in enumerate(tasks):
        decision = assignment.decisions[row]
        if decision is Subsystem.CANCELLED:
            continue
        if task.owner_device_id in departed:
            dropped.append(row)
            continue
        if task.external_source is not None and task.external_source in departed:
            data_loss.append(row)
            continue
        deadline = float(assignment.costs.deadline_s[row])
        healthy_latency = healthy.latencies_s[row]
        if healthy_latency is None or healthy_latency > deadline:
            continue  # a planned miss, not a fault
        if (
            decision is Subsystem.STATION
            and system.cluster_of(task.owner_device_id) in crashed
        ):
            crash.append(row)
            continue
        faulty_latency = faulty.latencies_s[row]
        if (
            faulty_latency is not None
            and faulty_latency > healthy_latency + _LATENCY_TOLERANCE
        ):
            outage.append(row)

    return ThreatReport(
        healthy=healthy,
        faulty=faulty,
        dropped_rows=tuple(dropped),
        data_loss_rows=tuple(data_loss),
        crash_rows=tuple(crash),
        outage_rows=tuple(outage),
    )


def surviving_system(
    system: MECSystem,
    departed: FrozenSet[int] = frozenset(),
    crashed: FrozenSet[int] = frozenset(),
) -> Optional[MECSystem]:
    """The system with departed devices and crashed stations removed.

    Devices of a crashed cluster are re-attached to the lowest-id
    surviving station (the deterministic stand-in for a re-association
    sweep).  Returns ``None`` when no station or no device survives —
    nothing is left to reassign onto.
    """
    stations = [s for sid, s in system.stations.items() if sid not in crashed]
    devices = [d for did, d in system.devices.items() if did not in departed]
    if not stations or not devices:
        return None
    fallback = min(s.station_id for s in stations)
    surviving_ids = {s.station_id for s in stations}
    attachment = {}
    for device in devices:
        home = system.cluster_of(device.device_id)
        attachment[device.device_id] = home if home in surviving_ids else fallback
    return MECSystem(
        devices=devices,
        stations=stations,
        attachment=attachment,
        cloud=system.cloud,
        bs_bs_link=system.bs_bs_link,
        bs_cloud_link=system.bs_cloud_link,
        parameters=system.parameters,
    )


def _relevant_windows(
    system: MECSystem,
    task: Task,
    decision: Subsystem,
    backhaul_outages: Sequence[Tuple[float, float]],
    wan_outages: Sequence[Tuple[float, float]],
) -> Tuple[Tuple[float, float], ...]:
    """The outage windows the task's path can actually collide with."""
    windows: List[Tuple[float, float]] = []
    if (
        task.external_source is not None
        and not system.same_cluster(task.owner_device_id, task.external_source)
        and decision is not Subsystem.CLOUD
    ):
        windows.extend(backhaul_outages)
    if decision is Subsystem.CLOUD:
        windows.extend(wan_outages)
    return tuple(sorted(windows))


def _attempts(
    windows: Sequence[Tuple[float, float]], start_s: float, finish_s: float
) -> int:
    """Link re-requests implied by outages overlapping the task's run.

    The task occupies ``[start_s, finish_s)`` on the epoch clock; every
    outage window intersecting that span interrupted (or deferred) one
    transfer and costs one re-request.
    """
    overlapping = sum(
        1 for w_start, w_end in windows if w_start < finish_s and w_end > start_s
    )
    return max(1, overlapping)


@staged("recovery")
def apply_recovery(
    policy: str,
    epoch: int,
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    threats: ThreatReport,
    options: RecoveryOptions = RecoveryOptions(),
    context: Optional[RunContext] = None,
    backhaul_outages: Sequence[Tuple[float, float]] = (),
    wan_outages: Sequence[Tuple[float, float]] = (),
    departed: FrozenSet[int] = frozenset(),
    crashed: FrozenSet[int] = frozenset(),
    start_times: Optional[Sequence[float]] = None,
) -> RecoveryOutcome:
    """Run one recovery policy over a detected threat report.

    :param policy: one of :data:`RECOVERY_POLICIES`.
    :param epoch: epoch index, stamped onto every event.
    :param system: the plan-time system.
    :param tasks: the epoch batch, in assignment row order.
    :param assignment: the planned decisions.
    :param threats: output of :func:`detect_threats` for this epoch.
    :param options: retry/backoff tunables.
    :param context: run configuration for the reassignment LP and the
        replays; defaults to the active context (whose LP solve cache the
        repair step reuses).
    :param backhaul_outages: epoch-relative BS–BS outage windows.
    :param wan_outages: epoch-relative BS–cloud outage windows.
    :param departed: devices gone by the end of the epoch.
    :param crashed: stations crashed by the end of the epoch.
    :param start_times: per-row epoch-relative launch times (must match
        what :func:`detect_threats` replayed with).
    """
    if policy not in RECOVERY_POLICIES:
        raise ValueError(f"recovery policy must be one of {RECOVERY_POLICIES}")
    context = context if context is not None else current_context()

    events: List[RecoveryEvent] = []
    unsatisfied: List[int] = []
    recovered: List[int] = []

    def emit(
        row: int, kind: str, action: str, ok: bool, extra: float
    ) -> None:
        events.append(
            RecoveryEvent(
                epoch=epoch,
                task_id=tasks[row].task_id,
                row=row,
                kind=kind,
                action=action,
                recovered=ok,
                extra_energy_j=extra,
            )
        )
        (recovered if ok else unsatisfied).append(row)

    # Unrecoverable categories first: the work (or its data) left with a
    # device, identically for every policy.
    for row in threats.dropped_rows:
        emit(row, "departure", "drop", False, -assignment.task_energy_j(row))
    for row in threats.data_loss_rows:
        emit(row, "data-loss", "drop", False, 0.0)

    threatened = threats.threatened_rows
    redo_j = {
        row: float(assignment.costs.energy_j[row, _CLOUD_COL])
        for row in threatened
    }
    kind_of = {row: "crash" for row in threats.crash_rows}
    kind_of.update({row: "outage" for row in threats.outage_rows})

    # Policy-specific pre-computation: a single replay (degrade) or LP
    # repair plus replay (reassign) covering every threatened row at once.
    degrade_latency: Dict[int, Optional[float]] = {}
    reassign_result: Dict[int, Tuple[Subsystem, float, Optional[float]]] = {}
    if threatened and policy == "degrade":
        decisions = list(assignment.decisions)
        for row in range(len(decisions)):
            if row in set(threats.dropped_rows) | set(threats.data_loss_rows):
                decisions[row] = Subsystem.CANCELLED
        for row in threatened:
            decisions[row] = Subsystem.CLOUD
        degraded = replay_assignment(
            system,
            tasks,
            Assignment(assignment.costs, decisions),
            backhaul_outages=tuple(backhaul_outages),
            wan_outages=tuple(wan_outages),
            start_times=start_times,
            context=context,
        )
        degrade_latency = {row: degraded.latencies_s[row] for row in threatened}
    elif threatened and policy == "reassign":
        survivors = surviving_system(system, departed=departed, crashed=crashed)
        if survivors is not None:
            threatened_tasks = [tasks[row] for row in threatened]
            repaired = lp_hta(
                survivors, threatened_tasks, context=context
            ).assignment
            replayed = replay_assignment(
                survivors,
                threatened_tasks,
                repaired,
                backhaul_outages=tuple(backhaul_outages),
                wan_outages=tuple(wan_outages),
                start_times=(
                    None
                    if start_times is None
                    else [start_times[row] for row in threatened]
                ),
                context=context,
            )
            for local, row in enumerate(threatened):
                reassign_result[row] = (
                    repaired.decisions[local],
                    repaired.task_energy_j(local),
                    replayed.latencies_s[local],
                )

    for row in threatened:
        kind = kind_of[row]
        deadline = float(assignment.costs.deadline_s[row])
        redo = redo_j[row]

        if policy == "retry" and kind == "outage":
            # Re-request the link with exponential backoff; each failed
            # attempt re-pays the path's transmission energy (Sec. II-B).
            windows = _relevant_windows(
                system, tasks[row], assignment.decisions[row],
                backhaul_outages, wan_outages,
            )
            faulty_latency = threats.faulty.latencies_s[row]
            assert faulty_latency is not None
            task_start = (
                float(start_times[row]) if start_times is not None else 0.0
            )
            attempts = _attempts(
                windows, task_start, task_start + faulty_latency
            )
            backoff = options.backoff_base_s * (2.0**attempts - 1.0)
            column = assignment.decisions[row].column
            per_attempt = task_costs(system, tasks[row]).transmission_energy_j[
                column
            ]
            extra = attempts * per_attempt
            ok = (
                attempts <= options.retry_budget
                and faulty_latency + backoff <= deadline
                and extra <= redo
            )
            emit(row, kind, "retry", ok, extra if ok else redo)
        elif policy == "degrade":
            latency = degrade_latency.get(row)
            ok = latency is not None and latency <= deadline
            emit(row, kind, "degrade", ok, redo)
        elif policy == "reassign" and row in reassign_result:
            decision, energy, latency = reassign_result[row]
            ok = (
                decision is not Subsystem.CANCELLED
                and latency is not None
                and latency <= deadline
                and energy <= redo
            )
            # The interrupted attempt is wasted either way; a successful
            # repair adds the new path's energy, a failed one the cloud
            # re-execution (== the fail-stop baseline).
            emit(row, kind, "reassign", ok, energy if ok else redo)
        else:
            # Fail-stop: wasted attempt plus a late cloud re-execution.
            emit(row, kind, "none", False, redo)

    return RecoveryOutcome(
        events=tuple(events),
        extra_energy_j=float(sum(e.extra_energy_j for e in events)),
        unsatisfied_rows=frozenset(unsatisfied),
        recovered_rows=frozenset(recovered),
    )
