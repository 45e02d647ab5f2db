"""Sharded topology views and the sharded LP-HTA solver."""

import math

import pytest

from repro.context import RunContext, use_context
from repro.core import hta, sharded as sharded_module
from repro.core.assignment import Subsystem
from repro.core.costs import cluster_costs
from repro.core.hta import lp_hta
from repro.core.lagrangian import CoordinatorOptions
from repro.core.sharded import lp_hta_sharded
from repro.system.sharding import ShardSpec, ShardedSystem
from repro.workload import PAPER_DEFAULTS, generate_scenario


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(
        PAPER_DEFAULTS.with_updates(
            num_devices=12, num_stations=4, num_tasks=60
        ),
        seed=3,
    )


@pytest.fixture(scope="module")
def monolithic(scenario):
    return lp_hta(scenario.system, list(scenario.tasks))


class TestShardSpec:
    def test_balanced_near_even(self):
        spec = ShardSpec.balanced(range(10), 3)
        assert spec.shards == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert spec.num_shards == 3
        assert spec.station_ids == tuple(range(10))

    def test_balanced_clamps_to_station_count(self):
        assert ShardSpec.balanced(range(3), 8).num_shards == 3
        assert ShardSpec.balanced(range(3), 0).num_shards == 1

    def test_balanced_empty_rejected(self):
        with pytest.raises(ValueError, match="empty station set"):
            ShardSpec.balanced((), 2)

    def test_sorts_within_shard(self):
        assert ShardSpec(((2, 0, 1),)).shards == ((0, 1, 2),)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="appears in shards"):
            ShardSpec(((0, 1), (1, 2)))

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError, match="is empty"):
            ShardSpec(((0,), ()))

    def test_duplicate_within_shard_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            ShardSpec(((0, 0),))

    def test_shard_of(self):
        spec = ShardSpec(((0, 1), (2, 3)))
        assert spec.shard_of(1) == 0
        assert spec.shard_of(3) == 1
        with pytest.raises(KeyError):
            spec.shard_of(9)


class TestShardedSystem:
    def test_spec_must_cover_stations(self, scenario):
        with pytest.raises(ValueError, match="cover exactly"):
            ShardedSystem(scenario.system, ShardSpec(((0, 1),)))
        with pytest.raises(ValueError, match="cover exactly"):
            ShardedSystem(scenario.system, ShardSpec(((0, 1, 2, 3, 4),)))

    def test_views_partition_tasks(self, scenario):
        spec = ShardSpec.balanced(range(4), 2)
        views = ShardedSystem(scenario.system, spec).views(
            list(scenario.tasks)
        )
        rows = sorted(row for view in views for row in view.task_rows)
        assert rows == list(range(len(scenario.tasks)))
        for view in views:
            for row in view.task_rows:
                owner = scenario.tasks[row].owner_device_id
                station = scenario.system.cluster_of(owner)
                assert station in view.manifest.core_stations

    def test_halo_devices_cover_external_sources(self, scenario):
        spec = ShardSpec.balanced(range(4), 4)
        views = ShardedSystem(scenario.system, spec).views(
            list(scenario.tasks)
        )
        for view in views:
            members = set(view.system.devices)
            for row in view.task_rows:
                source = scenario.tasks[row].external_source
                if source is not None:
                    assert source in members
            core = set(view.manifest.core_devices)
            assert set(view.manifest.halo_devices) == members - core

    def test_halo_stations_carry_cross_shard_caps(self, scenario):
        spec = ShardSpec.balanced(range(4), 4)
        views = ShardedSystem(scenario.system, spec).views(
            list(scenario.tasks)
        )
        for view in views:
            capped = dict(view.manifest.cross_shard_station_caps)
            assert sorted(capped) == list(view.manifest.halo_stations)
            for station_id, cap in capped.items():
                assert cap == scenario.system.station(station_id).max_resource

    def test_manifests_include_every_shard(self, scenario):
        spec = ShardSpec.balanced(range(4), 4)
        manifests = ShardedSystem(scenario.system, spec).manifests()
        assert [m.shard_id for m in manifests] == [0, 1, 2, 3]
        devices = sorted(d for m in manifests for d in m.core_devices)
        assert devices == sorted(scenario.system.devices)


class TestDifferentialUncapped:
    # ``None`` leaves the spec to its one-shard default.
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, None])
    @pytest.mark.parametrize("alone", [False, True])
    def test_bit_identical_to_monolithic(
        self, scenario, monolithic, num_shards, alone, monkeypatch
    ):
        if alone:
            # Each cluster's Step 1 as its own batch of one.
            monkeypatch.setattr(
                sharded_module, "_solve_p2_ladder",
                lambda jobs, options, context: [
                    hta._solve_p2_ladder([job], options, context)[0]
                    for job in jobs
                ],
            )
        with use_context(RunContext()):
            report = lp_hta_sharded(
                scenario.system,
                list(scenario.tasks),
                spec=num_shards and ShardSpec.balanced(range(4), num_shards),
            )
        assert report.assignment.decisions == monolithic.assignment.decisions
        assert report.clusters == monolithic.clusters
        assert (
            report.assignment.total_energy_j()
            == monolithic.assignment.total_energy_j()
        )
        assert report.num_shards == (num_shards or 1)
        assert report.outer_iterations == 0
        assert report.best_dual_j == pytest.approx(monolithic.lp_objective_j)

    def test_telemetry_counts_shard_solves(self, scenario):
        context = RunContext()
        with use_context(context):
            lp_hta_sharded(
                scenario.system, list(scenario.tasks),
                spec=ShardSpec.balanced(range(4), 3),
            )
        assert context.telemetry.shard_solves == 3
        assert "shard solves" in context.telemetry.summary()


class TestCoordinatedCapped:
    @pytest.fixture(scope="class")
    def loaded_scenario(self):
        # Enough tasks that the monolithic solve pushes real work (~122
        # resource units) to the cloud; a budget of 60 then binds.
        return generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_devices=12, num_stations=4, num_tasks=300
            ),
            seed=3,
        )

    @pytest.fixture(scope="class")
    def capped(self, loaded_scenario):
        context = RunContext()
        with use_context(context):
            report = lp_hta_sharded(
                loaded_scenario.system,
                list(loaded_scenario.tasks),
                spec=ShardSpec.balanced(range(4), 2),
                cloud_capacity=60.0,
            )
        return report, context

    def test_budget_respected(self, capped):
        report, _ = capped
        assert report.cloud_load <= 60.0 + 1e-9

    def test_outer_loop_ran(self, capped):
        report, context = capped
        assert report.outer_iterations >= 1
        assert len(report.dual_history) == report.outer_iterations
        assert context.telemetry.coordinator_iterations == report.outer_iterations

    def test_dual_is_a_lower_bound_without_cancellations(self, capped):
        report, _ = capped
        counts = report.assignment.subsystem_counts()
        if counts[Subsystem.CANCELLED] == 0:
            assert report.duality_gap_j >= -1e-6
        assert math.isfinite(report.best_dual_j)

    def test_deterministic(self, capped, loaded_scenario):
        report, _ = capped
        with use_context(RunContext()):
            again = lp_hta_sharded(
                loaded_scenario.system,
                list(loaded_scenario.tasks),
                spec=ShardSpec.balanced(range(4), 2),
                cloud_capacity=60.0,
            )
        assert again.assignment.decisions == report.assignment.decisions
        assert again.dual_history == report.dual_history

    def test_uncapped_cloud_load_exceeds_budget(self, loaded_scenario):
        # The budget genuinely binds: without it the cloud takes more.
        with use_context(RunContext()):
            free = lp_hta_sharded(
                loaded_scenario.system,
                list(loaded_scenario.tasks),
                spec=ShardSpec.balanced(range(4), 2),
            )
        assert free.cloud_load > 60.0

    def test_coordinator_requires_finite_capacity(self, loaded_scenario):
        from repro.core.lagrangian import coordinate_shared_capacity

        with pytest.raises(ValueError, match="finite"):
            coordinate_shared_capacity(
                lambda nu: (0.0, 0.0, (0, 0.0), None), float("inf")
            )

    def test_coordinator_options_validated(self):
        with pytest.raises(ValueError):
            CoordinatorOptions(iterations=0)
        with pytest.raises(ValueError):
            CoordinatorOptions(initial_step=0.0)
        with pytest.raises(ValueError):
            CoordinatorOptions(tolerance=-1.0)


class TestCloudLoadAccounting:
    def test_cloud_load_matches_decisions(self, scenario):
        with use_context(RunContext()):
            report = lp_hta_sharded(
                scenario.system,
                list(scenario.tasks),
                spec=ShardSpec.balanced(range(4), 2),
            )
        costs = cluster_costs(scenario.system, list(scenario.tasks))
        expected = sum(
            float(costs.resource[row])
            for row, decision in enumerate(report.assignment.decisions)
            if decision is Subsystem.CLOUD
        )
        assert report.cloud_load == pytest.approx(expected)
