"""Station shard specs and the sharded LP-HTA solver."""

import math

import pytest

from repro.context import RunContext, use_context
from repro.core import hta, sharded as sharded_module
from repro.core.assignment import Subsystem
from repro.core.costs import cluster_costs
from repro.core.hta import lp_hta
from repro.core.lagrangian import CoordinatorOptions
from repro.core.sharded import lp_hta_sharded
from repro.lp.result import LPResult, LPStatus
from repro.system.sharding import ShardSpec
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


class TestEntryValidation:
    def test_spec_must_cover_stations(self, scenario):
        for spec in (ShardSpec(((0, 1),)), ShardSpec(((0, 1, 2, 3, 4),))):
            with pytest.raises(ValueError, match="cover exactly"):
                lp_hta_sharded(scenario.system, list(scenario.tasks), spec=spec)

    @pytest.mark.parametrize("capacity", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_cloud_capacity(self, scenario, capacity):
        with pytest.raises(ValueError, match="cloud_capacity"):
            lp_hta_sharded(
                scenario.system, list(scenario.tasks), cloud_capacity=capacity
            )

    def test_zero_cloud_capacity_is_a_feasible_budget(self, scenario):
        with use_context(RunContext()):
            report = lp_hta_sharded(
                scenario.system, list(scenario.tasks), cloud_capacity=0.0
            )
        assert report.cloud_load == 0.0
        assert report.budget_feasible
        assert math.isfinite(report.duality_gap_j)


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

    def test_greedy_rung_poisons_the_dual(self, scenario, monkeypatch):
        # Every LP rung fails, so each block falls to the greedy rung,
        # whose one-hot objective is no lower bound.
        def failed(backend):
            return LPResult(
                status=LPStatus.NUMERICAL_ERROR, x=None, objective=float("nan"),
                iterations=0, backend=backend, message="rigged non-convergence",
            )

        monkeypatch.setattr(
            "repro.core.hta.lp_solve",
            lambda lp, backend, **kwargs: failed(backend),
        )
        monkeypatch.setattr(
            "repro.core.hta.solve_structured_batch",
            lambda blocks: [failed("structured") for _ in blocks],
        )
        monkeypatch.setattr(
            "repro.core.hta.solve_interior_point_batch",
            lambda problems: [failed("interior-point") for _ in problems],
        )
        context = RunContext()
        with use_context(context):
            report = lp_hta_sharded(scenario.system, list(scenario.tasks))
        assert {c.lp_backend for c in report.clusters} == {"greedy"}
        assert report.best_dual_j == float("-inf")
        assert "shard.duality_gap_j" not in context.telemetry.metrics.counters


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

    def test_dual_is_a_lower_bound_without_cancellations(self):
        # Deadlines loose enough that no task is cancelled, and a budget
        # equal to the load the uncapped solve puts on the cloud: the
        # budget is feasible, so the dual bounds the served energy.
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_devices=12,
                num_stations=4,
                num_tasks=200,
                deadline_range_s=(20.0, 40.0),
            ),
            seed=3,
        )
        tasks = list(scenario.tasks)
        with use_context(RunContext()):
            free = lp_hta_sharded(scenario.system, tasks)
            report = lp_hta_sharded(
                scenario.system, tasks, cloud_capacity=free.cloud_load
            )
        assert free.cloud_load > 0.0
        assert report.budget_feasible is True
        assert report.assignment.subsystem_counts()[Subsystem.CANCELLED] == 0
        assert report.duality_gap_j >= -1e-6

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

    @pytest.mark.parametrize(
        "spec",
        [
            ShardSpec.balanced(range(4), 1),
            ShardSpec.balanced(range(4), 4),
            ShardSpec(((0, 2), (1, 3))),
        ],
        ids=["1", "4", "non-contiguous"],
    )
    def test_shard_split_changes_nothing(self, capped, loaded_scenario, spec):
        report, _ = capped
        with use_context(RunContext()):
            again = lp_hta_sharded(
                loaded_scenario.system,
                list(loaded_scenario.tasks),
                spec=spec,
                cloud_capacity=60.0,
            )
        assert again.assignment.decisions == report.assignment.decisions
        assert again.clusters == report.clusters
        assert again.best_dual_j == report.best_dual_j
        assert again.dual_history == report.dual_history

    def test_infeasible_budget_claims_no_bound(self, capped):
        # The relaxation needs about 190 resource units on the cloud to
        # serve every task, so no ν bounds the dual: it only climbs.
        report, context = capped
        assert report.budget_feasible is False
        assert report.assignment.subsystem_counts()[Subsystem.CANCELLED] > 0
        assert math.isfinite(report.best_dual_j)
        assert list(report.dual_history) == sorted(report.dual_history)
        assert math.isnan(report.duality_gap_j)
        assert math.isnan(report.relative_gap)
        assert "shard.duality_gap_j" not in context.telemetry.metrics.counters
        assert "coordinator.duality_gap_rel" not in context.telemetry.metrics.histograms

    def test_feasible_budget_reports_a_finite_gap(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_devices=12, num_stations=4, num_tasks=100
            ),
            seed=9,
        )
        context = RunContext()
        with use_context(context):
            report = lp_hta_sharded(
                scenario.system, list(scenario.tasks), cloud_capacity=1.0
            )
        assert report.budget_feasible
        assert report.cloud_load <= 1.0
        assert math.isfinite(report.duality_gap_j)
        assert math.isfinite(report.relative_gap)
        assert context.telemetry.metrics.counters["shard.duality_gap_j"] == (
            report.duality_gap_j
        )

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
