"""The DES replay's default routing versus the closure-chain simulator.

Every test replays the same assignment by default and in reference mode
and asserts the full :class:`RealizedMetrics` are *equal* — not
approximately equal.  A dedicated, outage-free replay takes the closed
form of :mod:`repro.des.engine`, whose contract is bit-identical floats
and identical event counts; every other replay runs the closure kernel
itself.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro import registry
from repro.context import RunContext, use_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import cluster_costs
from repro.core.hta import lp_hta
from repro.des import engine
from repro.des.replay import replay_assignment
from repro.units import KB
from repro.workload import PAPER_DEFAULTS, generate_scenario


def _replay_both(system, tasks, assignment, **kwargs):
    with use_context(RunContext()):
        fast = replay_assignment(system, tasks, assignment, **kwargs)
    with use_context(RunContext(reference=True)):
        slow = replay_assignment(system, tasks, assignment, **kwargs)
    assert fast == slow
    return fast


def _replay_tracing_engine(context, *args, **kwargs):
    """Replay under ``context``; also return how many calls entered
    :mod:`repro.des.engine` (profiled by code object, so no import alias
    can hide one) and the ``des.events`` the replay recorded."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == engine.__file__:
            entered.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with use_context(context):
            metrics = replay_assignment(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return metrics, len(entered), context.telemetry.metrics.read("des.events")


class TestZeroTaskDevices:
    """Devices without any tasks must not perturb the replay."""

    def test_fewer_tasks_than_devices(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=3, num_devices=8, num_stations=2),
            seed=1,
        )
        tasks = list(scenario.tasks)
        assignment = lp_hta(scenario.system, tasks).assignment
        for contention in (False, True):
            metrics = _replay_both(
                scenario.system, tasks, assignment, contention=contention
            )
            assert metrics.makespan_s > 0.0

    def test_empty_assignment(self, two_cluster_system):
        costs = cluster_costs(two_cluster_system, [])
        assignment = Assignment(costs, [])
        metrics = _replay_both(two_cluster_system, [], assignment)
        assert metrics.latencies_s == ()
        assert metrics.makespan_s == 0.0

    def test_all_rows_cancelled(self, two_cluster_system, local_task):
        costs = cluster_costs(two_cluster_system, [local_task])
        assignment = Assignment(costs, [Subsystem.CANCELLED])
        metrics = _replay_both(two_cluster_system, [local_task], assignment)
        assert metrics.latencies_s == (None,)
        assert metrics.makespan_s == 0.0


class TestSimultaneousFinishTies:
    """Identical tasks finishing at the same instant on a shared FIFO."""

    def _clone_tasks(self, count):
        from repro.core.task import Task

        return [
            Task(
                owner_device_id=0,
                index=i,
                local_bytes=1000 * KB,
                external_bytes=0.0,
                external_source=None,
                resource_demand=1.0,
                deadline_s=50.0,
            )
            for i in range(count)
        ]

    @pytest.mark.parametrize(
        "subsystem", [Subsystem.DEVICE, Subsystem.STATION, Subsystem.CLOUD]
    )
    def test_identical_tasks_tie_on_every_subsystem(
        self, two_cluster_system, subsystem
    ):
        tasks = self._clone_tasks(4)
        costs = cluster_costs(two_cluster_system, tasks)
        assignment = Assignment(costs, [subsystem] * len(tasks))
        metrics = _replay_both(
            two_cluster_system, tasks, assignment, contention=True
        )
        if subsystem is not Subsystem.DEVICE:
            # The shared uplink serialises the equal transfers.
            assert metrics.mean_queueing_delay_s > 0.0

    def test_tied_tasks_with_staggered_starts(self, two_cluster_system):
        tasks = self._clone_tasks(3)
        costs = cluster_costs(two_cluster_system, tasks)
        assignment = Assignment(costs, [Subsystem.STATION] * 3)
        _replay_both(
            two_cluster_system,
            tasks,
            assignment,
            contention=True,
            start_times={0: 0.0, 1: 0.0, 2: 0.5},
        )


class TestDivisibleBranchJoins:
    """Divisible tasks with external shares exercise the fork/join path."""

    def _assignments(self, scenario):
        tasks = list(scenario.tasks)
        costs = cluster_costs(scenario.system, tasks)
        for subsystem in (Subsystem.STATION, Subsystem.CLOUD):
            yield tasks, Assignment(costs, [subsystem] * len(tasks))

    def test_station_and_cloud_joins(self, divisible_scenario):
        joined = 0
        for tasks, assignment in self._assignments(divisible_scenario):
            for contention in (False, True):
                _replay_both(
                    divisible_scenario.system,
                    tasks,
                    assignment,
                    contention=contention,
                )
            joined += sum(1 for t in tasks if t.has_external_data)
        assert joined > 0  # the scenario actually forked branches

    def test_joins_under_outages(self, divisible_scenario):
        for tasks, assignment in self._assignments(divisible_scenario):
            _replay_both(
                divisible_scenario.system,
                tasks,
                assignment,
                contention=True,
                backhaul_outages=((0.0, 0.3), (0.6, 0.9)),
                wan_outages=((0.1, 0.5),),
            )


class TestFaultyReplayEveryAlgorithm:
    """Outage-aware replay through the closure kernel, per registry entry."""

    @pytest.fixture(scope="class")
    def tiny_scenario(self):
        # (num_tasks=8, seed=0) keeps every algorithm feasible — BnB-Exact
        # refuses instances where no full assignment fits the caps.
        return generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=8, num_devices=4, num_stations=2),
            seed=0,
        )

    @pytest.mark.parametrize("name", registry.names(assignable=True))
    def test_engine_matches_object_replay(self, tiny_scenario, name):
        tasks = list(tiny_scenario.tasks)
        assignment = registry.resolve_assignment(name, tiny_scenario.system, tasks)
        metrics = _replay_both(
            tiny_scenario.system,
            tasks,
            assignment,
            contention=True,
            backhaul_outages=((0.2, 0.5),),
            wan_outages=((0.4, 0.9),),
        )
        assert metrics.events_processed > 0


class TestEnginePaths:
    def test_reference_context_uses_object_path(self, small_scenario):
        tasks = list(small_scenario.tasks)
        assignment = lp_hta(small_scenario.system, tasks).assignment
        with use_context(RunContext(reference=True)):
            reference = replay_assignment(small_scenario.system, tasks, assignment)
        with use_context(RunContext()):
            default = replay_assignment(small_scenario.system, tasks, assignment)
        assert reference == default

    def test_closed_form_matches_event_loop_when_dedicated(
        self,
        two_cluster_system,
        local_task,
        shared_task_same_cluster,
        shared_task_cross_cluster,
        divisible_scenario,
    ):
        # The closed form's only differential, against the closure kernel's
        # event loop (reference mode): every decision kind over a local, a
        # same-cluster and a cross-cluster task, each twice with equal
        # inputs and starts (tied finishes), at staggered starts; then the
        # divisible scenario's station and cloud joins.
        templates = (local_task, shared_task_same_cluster, shared_task_cross_cluster)
        decisions = (
            Subsystem.DEVICE, Subsystem.STATION, Subsystem.CLOUD, Subsystem.CANCELLED
        )
        tasks, rows, starts = [], [], []
        for decision in decisions:
            for template in templates:
                start = 0.25 * (len(tasks) // 6)
                for _ in range(2):
                    tasks.append(dataclasses.replace(template, index=len(tasks)))
                    rows.append(decision)
                    starts.append(start)
        cases = [
            (two_cluster_system, tasks, rows, starts),
            (two_cluster_system, tasks, rows, None),
        ]
        divisible = list(divisible_scenario.tasks)
        assert any(task.has_external_data for task in divisible)
        for decision in (Subsystem.STATION, Subsystem.CLOUD):
            cases.append(
                (
                    divisible_scenario.system,
                    divisible,
                    [decision] * len(divisible),
                    [0.1 * (row % 4) for row in range(len(divisible))],
                )
            )

        replayed = []
        for system, case_tasks, case_rows, case_starts in cases:
            assignment = Assignment(cluster_costs(system, case_tasks), case_rows)
            closed, entered, _ = _replay_tracing_engine(
                RunContext(), system, case_tasks, assignment, start_times=case_starts
            )
            assert entered > 0  # the default route took the closed form
            reference, entered, _ = _replay_tracing_engine(
                RunContext(reference=True),
                system,
                case_tasks,
                assignment,
                start_times=case_starts,
            )
            assert entered == 0
            assert closed == reference
            assert closed.mean_queueing_delay_s == 0.0
            replayed.append(closed.latencies_s)
        # Each clone pair finished at the same instant.
        assert replayed[0][0::2] == replayed[0][1::2]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(contention=True),
            dict(backhaul_outages=((0.1, 0.4),)),
            dict(contention=True, wan_outages=((0.3, 0.8),)),
        ],
        ids=["contended", "outage", "contended_outage"],
    )
    def test_contended_or_outage_replay_never_enters_the_engine(
        self, small_scenario, kwargs
    ):
        tasks = list(small_scenario.tasks)
        assignment = lp_hta(small_scenario.system, tasks).assignment
        default, entered, events = _replay_tracing_engine(
            RunContext(), small_scenario.system, tasks, assignment, **kwargs
        )
        assert entered == 0
        reference, _, reference_events = _replay_tracing_engine(
            RunContext(reference=True),
            small_scenario.system,
            tasks,
            assignment,
            **kwargs,
        )
        assert default == reference
        assert events == reference_events == default.events_processed > 0
