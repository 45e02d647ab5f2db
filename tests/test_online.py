"""The online extension: arrivals and epoch scheduling."""

from unittest import mock

import pytest

from repro.context import RunContext, use_context
from repro.faults import FaultConfig, generate_fault_plan
from repro.mobility.waypoint import RandomWaypointModel
from repro.online.arrivals import PoissonArrivals
from repro.online.scheduler import OnlineOptions, simulate_online
from repro.workload import PAPER_DEFAULTS, generate_system


@pytest.fixture(scope="module")
def system():
    return generate_system(
        PAPER_DEFAULTS.with_updates(num_devices=12, num_stations=3), seed=0
    )


@pytest.fixture(scope="module")
def arrivals(system):
    return PoissonArrivals(
        system,
        PAPER_DEFAULTS.with_updates(num_devices=12, num_stations=3),
        rate_per_s=0.4,
        seed=1,
    ).generate(300.0)


class TestArrivals:
    def test_sorted_and_within_horizon(self, arrivals):
        times = [t.arrival_s for t in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 300.0 for t in times)

    def test_rate_roughly_respected(self, arrivals):
        # 0.4/s over 300 s → ~120 expected arrivals.
        assert 70 <= len(arrivals) <= 180

    def test_unique_task_indices(self, arrivals):
        indices = [t.task.index for t in arrivals]
        assert len(indices) == len(set(indices))

    def test_owners_valid(self, system, arrivals):
        for timed in arrivals:
            assert timed.task.owner_device_id in system.devices

    def test_validation(self, system):
        with pytest.raises(ValueError):
            PoissonArrivals(system, PAPER_DEFAULTS, rate_per_s=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(system, PAPER_DEFAULTS, 1.0).generate(0.0)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineOptions(epoch_length_s=0.0)
        with pytest.raises(ValueError):
            OnlineOptions(policy="dqn")
        with pytest.raises(ValueError):
            OnlineOptions(recovery="reboot")


class TestStaticScheduling:
    def test_every_task_planned_once(self, system, arrivals):
        report = simulate_online(system, arrivals, OnlineOptions(epoch_length_s=60.0))
        assert report.total_tasks == len(arrivals)

    def test_no_mobility_means_no_drift(self, system, arrivals):
        report = simulate_online(system, arrivals, OnlineOptions(epoch_length_s=60.0))
        assert report.drift_energy_gap_j == 0.0
        for epoch in report.epochs:
            assert epoch.handovers == 0
            assert epoch.planned_energy_j == epoch.realized_energy_j

    def test_empty_arrivals(self, system):
        report = simulate_online(system, [], OnlineOptions())
        assert report.epochs == ()
        assert report.total_tasks == 0
        assert report.mean_realized_unsatisfied == 0.0

    def test_policy_ordering(self, system, arrivals):
        energies = {}
        for policy in ("lp-hta", "hgos", "cloud"):
            report = simulate_online(
                system, arrivals, OnlineOptions(epoch_length_s=60.0, policy=policy)
            )
            energies[policy] = report.total_planned_energy_j
        assert energies["lp-hta"] <= energies["hgos"] * 1.02
        assert energies["hgos"] < energies["cloud"]

    def test_game_policy_runs(self, system, arrivals):
        report = simulate_online(
            system, arrivals, OnlineOptions(epoch_length_s=60.0, policy="game")
        )
        assert report.total_tasks == len(arrivals)
        assert report.total_planned_energy_j > 0


class TestFaultyScheduling:
    @pytest.fixture(scope="class")
    def fault_plan(self, system):
        config = FaultConfig(
            horizon_s=300.0, intensity_per_s=0.1, mean_outage_s=6.0,
            departure_ratio=0.01, crash_ratio=0.005,
        )
        return generate_fault_plan(system, config, seed=42)

    def test_no_fault_plan_reports_no_events(self, system, arrivals):
        report = simulate_online(system, arrivals, OnlineOptions())
        assert report.events == ()
        assert report.recovery == "none"
        assert report.total_dropped == 0

    def test_arrivals_still_all_accounted(self, system, arrivals, fault_plan):
        report = simulate_online(
            system, arrivals, OnlineOptions(), fault_plan=fault_plan
        )
        # Dropped tasks count as arrivals, not silent disappearances.
        assert report.total_tasks == len(arrivals)

    def test_dropped_tasks_counted_unsatisfied(
        self, system, arrivals, fault_plan
    ):
        clean = simulate_online(system, arrivals, OnlineOptions())
        faulty = simulate_online(
            system, arrivals, OnlineOptions(), fault_plan=fault_plan
        )
        if faulty.total_dropped:
            assert (
                faulty.mean_realized_unsatisfied
                > clean.mean_realized_unsatisfied - 1e-12
            )

    def test_fault_extras_flow_into_energy_gap(
        self, system, arrivals, fault_plan
    ):
        report = simulate_online(
            system, arrivals, OnlineOptions(), fault_plan=fault_plan
        )
        expected = sum(e.extra_energy_j for e in report.events)
        assert report.drift_energy_gap_j == pytest.approx(expected)
        per_epoch = sum(e.fault_extra_energy_j for e in report.epochs)
        assert per_epoch == pytest.approx(expected)

    def test_telemetry_counters_match_events(
        self, system, arrivals, fault_plan
    ):
        context = RunContext(seed=0)
        with use_context(context):
            report = simulate_online(
                system, arrivals, OnlineOptions(recovery="retry"),
                context=context, fault_plan=fault_plan,
            )
        telemetry = context.telemetry
        assert telemetry.faults_detected == len(report.events)
        assert telemetry.retries == sum(
            1 for e in report.events if e.action == "retry"
        )
        assert telemetry.tasks_dropped == sum(
            1 for e in report.events if e.action == "drop"
        )
        assert telemetry.tasks_recovered == sum(
            1 for e in report.events if e.recovered
        )

    def test_replays_count_events_into_the_passed_context(
        self, system, arrivals, fault_plan
    ):
        # Called outside ``use_context``: the replays must still report to
        # the context they were handed, not to the ambient one.
        context = RunContext(seed=0)
        ambient = RunContext()
        with use_context(ambient):
            simulate_online(
                system, arrivals, OnlineOptions(recovery="reassign"),
                context=context, fault_plan=fault_plan,
            )
        assert context.telemetry.metrics.counters.get("des.events", 0) > 0
        assert ambient.telemetry.metrics.counters.get("des.events", 0) == 0

    def test_reference_context_reaches_the_closure_kernel(
        self, system, arrivals, fault_plan
    ):
        from repro.des import replay

        closed_form = mock.Mock(wraps=replay.replay_closed_form)
        kernel = mock.Mock(wraps=replay._replay_events)
        with mock.patch.object(
            replay, "replay_closed_form", closed_form
        ), mock.patch.object(replay, "_replay_events", kernel):
            simulate_online(
                system, arrivals, OnlineOptions(recovery="reassign"),
                context=RunContext(seed=0, reference=True),
                fault_plan=fault_plan,
            )
        # Every healthy replay is dedicated and outage-free, the closed
        # form's case outside reference mode.
        assert kernel.call_count > 0
        assert closed_form.call_count == 0

    def test_event_trace_deterministic(self, system, arrivals, fault_plan):
        def run():
            return simulate_online(
                system, arrivals, OnlineOptions(recovery="reassign"),
                context=RunContext(seed=0), fault_plan=fault_plan,
            ).event_trace()

        assert run() == run()

    @pytest.mark.parametrize("recovery", ("retry", "degrade", "reassign"))
    def test_recovery_never_worse_than_fail_stop(
        self, system, arrivals, fault_plan, recovery
    ):
        baseline = simulate_online(
            system, arrivals, OnlineOptions(recovery="none"),
            context=RunContext(seed=0), fault_plan=fault_plan,
        )
        recovered = simulate_online(
            system, arrivals, OnlineOptions(recovery=recovery),
            context=RunContext(seed=0), fault_plan=fault_plan,
        )
        assert (
            recovered.total_realized_energy_j
            <= baseline.total_realized_energy_j + 1e-9
        )
        assert (
            recovered.mean_realized_unsatisfied
            <= baseline.mean_realized_unsatisfied + 1e-12
        )


class TestMobileScheduling:
    def test_drift_audit(self, system, arrivals):
        positions = {d: dev.position for d, dev in system.devices.items()}
        mobility = RandomWaypointModel(
            sorted(system.devices), area_side_m=2000.0,
            speed_range_mps=(5.0, 20.0), pause_range_s=(0.0, 0.0),
            seed=3, initial_positions=positions,
        )
        report = simulate_online(
            system, arrivals, OnlineOptions(epoch_length_s=60.0), mobility=mobility
        )
        assert report.total_tasks == len(arrivals)
        assert sum(e.handovers for e in report.epochs) > 0

    def test_mobility_requires_positioned_stations(self, arrivals):
        from repro.system.devices import BaseStation, MobileDevice
        from repro.system.radio import FOUR_G
        from repro.system.topology import MECSystem
        from repro.units import gigahertz

        bare = MECSystem(
            [MobileDevice(0, gigahertz(1.0), FOUR_G, max_resource=1.0)],
            [BaseStation(0)],  # no position
            {0: 0},
        )
        mobility = RandomWaypointModel([0], area_side_m=100.0, seed=0)
        with pytest.raises(ValueError, match="positioned"):
            simulate_online(bare, arrivals, OnlineOptions(), mobility=mobility)
