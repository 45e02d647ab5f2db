"""Event-driven replay of an assignment over the modelled MEC system.

Each assigned task is decomposed into its Section II stages (external-data
uplink, backhaul hop, local-data uplink, compute, result downlink, …) and
executed on the event kernel.  In dedicated mode every stage gets the full
resource — realized latencies must then reproduce the analytic
:math:`t_{ijl}` exactly, which the integration tests assert.  In contention
mode, device radios, device CPUs and station CPUs are FIFO-shared, showing
the queueing the analytic model abstracts away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.context import RunContext, current_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.task import Task
from repro.des.engine import replay_closed_form
from repro.des.kernel import EventSimulator
from repro.des.resources import FaultyResource, FIFOResource
from repro.obs.tracer import staged
from repro.system.topology import MECSystem

OutageWindows = Sequence[Tuple[float, float]]

__all__ = ["RealizedMetrics", "replay_algorithm", "replay_assignment"]


@dataclass(frozen=True)
class RealizedMetrics:
    """What the replay measured.

    :param latencies_s: realized completion time per task row (None for
        cancelled tasks).
    :param makespan_s: completion time of the last task.
    :param total_energy_j: energy of the replayed schedule (identical to
        the analytic energy — queueing delays tasks, it does not change
        how many bytes move or cycles run).
    :param events_processed: kernel events executed.
    :param mean_queueing_delay_s: average FIFO waiting across resources
        (zero in dedicated mode).
    """

    latencies_s: Tuple[Optional[float], ...]
    makespan_s: float
    total_energy_j: float
    events_processed: int
    mean_queueing_delay_s: float


class _Replay:
    """One replay run: resources, stage wiring, measurement."""

    def __init__(
        self,
        system: MECSystem,
        assignment: Assignment,
        contention: bool,
        backhaul_outages: OutageWindows = (),
        wan_outages: OutageWindows = (),
    ) -> None:
        self.system = system
        self.assignment = assignment
        self.contention = contention
        self.start_times: Dict[int, float] = {}
        self.sim = EventSimulator()
        self.uplink = {
            d: FIFOResource(f"uplink[{d}]", shared=contention) for d in system.devices
        }
        self.downlink = {
            d: FIFOResource(f"downlink[{d}]", shared=contention)
            for d in system.devices
        }
        self.device_cpu = {
            d: FIFOResource(f"cpu[dev {d}]", shared=contention)
            for d in system.devices
        }
        self.station_cpu = {
            s: FIFOResource(f"cpu[bs {s}]", shared=contention)
            for s in system.stations
        }
        # Backhaul, WAN and the cloud are modelled dedicated in both modes
        # (the paper treats them as un-contended infrastructure); outage
        # windows inject infrastructure failures.
        self.backhaul = (
            FaultyResource("backhaul", shared=False, outages=tuple(backhaul_outages))
            if backhaul_outages
            else FIFOResource("backhaul", shared=False)
        )
        self.wan = (
            FaultyResource("wan", shared=False, outages=tuple(wan_outages))
            if wan_outages
            else FIFOResource("wan", shared=False)
        )
        self.cloud_cpu = FIFOResource("cpu[cloud]", shared=False)
        self.finish_times: Dict[int, float] = {}

    # -- stage helpers ---------------------------------------------------

    def _stage(
        self,
        resource: FIFOResource,
        service_time: float,
        then: Callable[[float], None],
    ) -> Callable[[], None]:
        """An event callback that reserves ``resource`` then chains on."""

        def fire() -> None:
            _, finish = resource.request(self.sim.now, service_time)
            self.sim.schedule_at(finish, lambda: then(finish))

        return fire

    def _chain(
        self,
        start: float,
        stages: Sequence[Tuple[FIFOResource, float]],
        done: Callable[[float], None],
    ) -> None:
        """Run stages sequentially from ``start``, then call ``done``."""
        if not stages:
            self.sim.schedule_at(start, lambda: done(start))
            return
        (resource, service), rest = stages[0], stages[1:]
        self.sim.schedule_at(
            start,
            self._stage(resource, service, lambda t: self._chain(t, rest, done)),
        )

    def _join(
        self,
        branches: Sequence[Tuple[float, Sequence[Tuple[FIFOResource, float]]]],
        done: Callable[[float], None],
    ) -> None:
        """Run branches concurrently; call ``done`` at the latest finish."""
        remaining = len(branches)
        latest = 0.0

        def branch_done(finish: float) -> None:
            nonlocal remaining, latest
            remaining -= 1
            latest = max(latest, finish)
            if remaining == 0:
                done(latest)

        if not branches:
            done(0.0)
            return
        for start, stages in branches:
            self._chain(start, stages, branch_done)

    # -- per-task wiring ---------------------------------------------------

    def launch(
        self, row: int, task: Task, decision: Subsystem, start: float = 0.0
    ) -> None:
        """Schedule all stages of one task, starting at ``start``."""
        self.start_times[row] = start
        params = self.system.parameters
        owner = self.system.device(task.owner_device_id)
        station = self.system.station_of(task.owner_device_id)
        alpha, beta = task.local_bytes, task.external_bytes
        total = task.input_bytes
        result = params.result_size.result_bytes(total)

        cross = False
        ext_stages: List[Tuple[FIFOResource, float]] = []
        if task.has_external_data:
            source = self.system.device(task.external_source)
            cross = not self.system.same_cluster(
                task.owner_device_id, task.external_source
            )
            ext_stages.append(
                (self.uplink[source.device_id], source.wireless.upload_time_s(beta))
            )

        def record(finish: float) -> None:
            self.finish_times[row] = finish

        if decision is Subsystem.DEVICE:
            stages = list(ext_stages)
            if task.has_external_data:
                if cross:
                    stages.append(
                        (self.backhaul, self.system.bs_bs_link.transfer_time_s(beta))
                    )
                stages.append(
                    (
                        self.downlink[owner.device_id],
                        owner.wireless.download_time_s(beta),
                    )
                )
            stages.append(
                (
                    self.device_cpu[owner.device_id],
                    params.cycles.cycles_on_device(total) / owner.cpu_frequency_hz,
                )
            )
            self._chain(start, stages, record)

        elif decision is Subsystem.STATION:
            ext_branch = list(ext_stages)
            if task.has_external_data and cross:
                ext_branch.append(
                    (self.backhaul, self.system.bs_bs_link.transfer_time_s(beta))
                )
            local_branch = [
                (self.uplink[owner.device_id], owner.wireless.upload_time_s(alpha))
            ]

            def after_join(joined: float) -> None:
                tail = [
                    (
                        self.station_cpu[station.station_id],
                        params.cycles.cycles_on_station(total)
                        / station.cpu_frequency_hz,
                    ),
                    (
                        self.downlink[owner.device_id],
                        owner.wireless.download_time_s(result),
                    ),
                ]
                self._chain(joined, tail, record)

            self._join([(start, ext_branch), (start, local_branch)], after_join)

        elif decision is Subsystem.CLOUD:
            local_branch = [
                (self.uplink[owner.device_id], owner.wireless.upload_time_s(alpha))
            ]

            def after_join(joined: float) -> None:
                tail = [
                    (
                        self.wan,
                        self.system.bs_cloud_link.transfer_time_s(total + result),
                    ),
                    (
                        self.cloud_cpu,
                        params.cycles.cycles_on_cloud(total)
                        / self.system.cloud.cpu_frequency_hz,
                    ),
                    (
                        self.downlink[owner.device_id],
                        owner.wireless.download_time_s(result),
                    ),
                ]
                self._chain(joined, tail, record)

            self._join([(start, ext_stages), (start, local_branch)], after_join)

        else:  # pragma: no cover - launch() is only called for assigned tasks
            raise ValueError(f"cannot replay decision {decision}")

    def all_resources(self) -> List[FIFOResource]:
        """Every resource of the replay, for waiting-time statistics."""
        return (
            list(self.uplink.values())
            + list(self.downlink.values())
            + list(self.device_cpu.values())
            + list(self.station_cpu.values())
            + [self.backhaul, self.wan, self.cloud_cpu]
        )


@staged("replay")
def replay_assignment(
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    contention: bool = False,
    backhaul_outages: OutageWindows = (),
    wan_outages: OutageWindows = (),
    start_times: Optional[Sequence[float]] = None,
    context: Optional[RunContext] = None,
) -> RealizedMetrics:
    """Replay an assignment on the event simulator and measure it.

    :param system: the MEC system.
    :param tasks: the tasks, in the assignment's row order.
    :param assignment: decisions to replay.
    :param contention: FIFO-share device radios/CPUs and station CPUs
        (False reproduces the analytic model's dedicated-resource world).
    :param backhaul_outages: injected BS–BS link outage windows
        (start, end) in seconds — cross-cluster transfers defer past them.
    :param wan_outages: injected BS–cloud link outage windows.
    :param start_times: per-row launch time (seconds, same clock as the
        outage windows); defaults to launching everything at 0.  Latencies
        are always measured from the row's launch, so staggered starts
        still report per-task completion times.
    :param context: run configuration that picks the route and receives
        the ``des.events`` count; defaults to the active context.
    :returns: realized metrics; in dedicated mode with no outages,
        ``latencies_s`` equals the analytic :math:`t_{ijl}` per task.

    Outside reference mode, a dedicated replay with no outage windows is
    evaluated by the closed form of :mod:`repro.des.engine`; every other
    replay runs the closure kernel (:class:`_Replay`).  Both give the same
    bits.
    """
    if len(tasks) != assignment.costs.num_tasks:
        raise ValueError("tasks and assignment rows must correspond")
    if start_times is not None and len(start_times) != len(tasks):
        raise ValueError("start_times and tasks must correspond")

    context = context if context is not None else current_context()
    if not (context.reference or contention or backhaul_outages or wan_outages):
        latencies, makespan, events = replay_closed_form(
            system, tasks, assignment, start_times
        )
        mean_wait = 0.0
    else:
        latencies, makespan, events, mean_wait = _replay_events(
            system,
            tasks,
            assignment,
            contention,
            backhaul_outages,
            wan_outages,
            start_times,
        )
    context.telemetry.metrics.incr("des.events", events)
    return RealizedMetrics(
        latencies_s=latencies,
        makespan_s=makespan,
        total_energy_j=assignment.total_energy_j(),
        events_processed=events,
        mean_queueing_delay_s=mean_wait,
    )


def _replay_events(
    system: MECSystem,
    tasks: Sequence[Task],
    assignment: Assignment,
    contention: bool,
    backhaul_outages: OutageWindows,
    wan_outages: OutageWindows,
    start_times: Optional[Sequence[float]],
) -> Tuple[Tuple[Optional[float], ...], float, int, float]:
    """Run the closure kernel: ``(latencies, makespan, events, mean wait)``."""
    replay = _Replay(system, assignment, contention, backhaul_outages, wan_outages)
    for row, task in enumerate(tasks):
        decision = assignment.decisions[row]
        if decision is Subsystem.CANCELLED:
            continue
        start = float(start_times[row]) if start_times is not None else 0.0
        if start < 0:
            raise ValueError("start_times must be non-negative")
        replay.launch(row, task, decision, start=start)
    makespan = replay.sim.run()

    latencies: List[Optional[float]] = []
    for row in range(len(tasks)):
        finish = replay.finish_times.get(row)
        if finish is None:
            latencies.append(None)
        else:
            latencies.append(finish - replay.start_times.get(row, 0.0))

    waits: List[float] = []
    for resource in replay.all_resources():
        waits.extend(resource.waiting_times())
    mean_wait = sum(waits) / len(waits) if waits else 0.0
    return tuple(latencies), makespan, replay.sim.events_processed, mean_wait


def replay_algorithm(
    system: MECSystem,
    tasks: Sequence[Task],
    algorithm: str,
    contention: bool = False,
    backhaul_outages: OutageWindows = (),
    wan_outages: OutageWindows = (),
    context: Optional[RunContext] = None,
    start_times: Optional[Sequence[float]] = None,
) -> Tuple[Assignment, RealizedMetrics]:
    """Plan with a registered algorithm, then replay its assignment.

    The algorithm is resolved through :mod:`repro.registry` (display name
    or alias, case-insensitive), so the DES shares the exact planner code
    every other entry point uses.

    :param system: the MEC system.
    :param tasks: the tasks to plan and replay.
    :param algorithm: registry name of an assignment-producing algorithm
        (e.g. ``"LP-HTA"``, ``"HGOS"``, ``"cloud"``).
    :param contention: FIFO-share radios/CPUs during the replay.
    :param backhaul_outages: injected BS–BS outage windows.
    :param wan_outages: injected BS–cloud outage windows.
    :param context: run configuration for the planning and replay steps;
        defaults to the active context.
    :param start_times: per-row launch times for the replay step.
    :returns: the planned assignment and its realized metrics.
    :raises ValueError: for unknown names or evaluation-only algorithms.
    """
    from repro import registry

    assignment = registry.resolve_assignment(algorithm, system, tasks, context)
    metrics = replay_assignment(
        system,
        tasks,
        assignment,
        contention=contention,
        backhaul_outages=backhaul_outages,
        wan_outages=wan_outages,
        start_times=start_times,
        context=context,
    )
    return assignment, metrics
