"""The divisible pipeline on arrays equals its row-by-row reference.

A rearranged plan records its (parent, executor) rows as arrays; the cost
table builder prices the sub-tasks from them, the DTA accounting sums over
them and LP-HTA's Steps 5–6 pre-check loads with them.  Every float must
match the per-row loops bit for bit (``float.hex`` equality, so even the
sign of a zero counts), because the figures are pinned byte for byte.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.context import RunContext, use_context
from repro.core import costs as costs_module
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import _cluster_costs_scalar, cluster_costs
from repro.core.hta import lp_hta_cluster
from repro.core.task import Task
from repro.dta import accounting
from repro.dta.accounting import evaluate_plans, prepare_dta
from repro.dta.rearrange import RearrangedPlan, rearrange_tasks
from repro.experiments.figures import TASK_SWEEP, _divisible
from repro.lp.result import LPResult, LPStatus
from repro.units import KB
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS


def _figure_profiles():
    """The profiles of Figs 5a, 5b and 6a, as the figure module builds them."""
    fig5a = [
        _divisible(
            PAPER_DEFAULTS.with_updates(
                num_tasks=n, max_input_bytes=3000 * KB, result_ratio=0.2
            )
        )
        for n in TASK_SWEEP
    ]
    base = PAPER_DEFAULTS.with_updates(num_tasks=100, max_input_bytes=3000 * KB)
    fig5b = [
        _divisible(base.with_updates(result_ratio=ratio))
        for ratio in (0.4, 0.2, 0.1, 0.05)
    ] + [_divisible(base.with_updates(result_constant_bytes=10 * KB))]
    fig6a = [
        _divisible(PAPER_DEFAULTS.with_updates(num_tasks=200, max_input_bytes=kb * KB))
        for kb in (1200, 1400, 1600, 1800, 2000)
    ]
    return fig5a + fig5b + fig6a


@pytest.fixture(scope="module")
def figure_outcomes():
    """All 108 DTA-Workload and DTA-Number plans of Figs 5a/5b/6a at seeds
    0–2, scheduled in one batch as the sweep does."""
    with use_context(RunContext()):
        jobs = []
        for profile in _figure_profiles():
            for seed in (0, 1, 2):
                scenario = generate_scenario(profile, seed=seed)
                for objective in ("workload", "number"):
                    plan = prepare_dta(
                        list(scenario.tasks), scenario.ownership,
                        scenario.catalog, objective=objective,
                    )
                    jobs.append((scenario.system, plan, scenario.catalog))
        outcomes = evaluate_plans(jobs)
    return [(system, outcome) for (system, _, _), outcome in zip(jobs, outcomes)]


def _bits(values):
    return tuple(float(value).hex() for value in values)


def _array_and_reference(system, plan, assignment):
    """(array path, reference path) of the three per-row accounting passes."""
    arrays = (
        *accounting._op_info_costs(system, plan),
        *accounting._partial_result_costs(system, plan, assignment),
        accounting._busiest_executor_time(plan, assignment),
    )
    reference = (
        *accounting._op_info_costs_reference(system, plan),
        *accounting._partial_result_costs_reference(system, plan, assignment),
        accounting._busiest_executor_time_reference(plan, assignment),
    )
    return _bits(arrays), _bits(reference)


def _rotated(assignment):
    """The same table with every row's decision rotated through all four
    outcomes, so cancelled, station and cloud rows all occur."""
    cycle = (Subsystem.DEVICE, Subsystem.CLOUD, Subsystem.STATION, Subsystem.CANCELLED)
    return Assignment(
        assignment.costs,
        [cycle[row % 4] for row in range(assignment.costs.num_tasks)],
    )


class TestAccountingArrays:
    def test_figure_plans_match_reference(self, figure_outcomes):
        assert len(figure_outcomes) == 108
        for system, outcome in figure_outcomes:
            arrays, reference = _array_and_reference(
                system, outcome.plan, outcome.assignment
            )
            assert arrays == reference

    def test_cancelled_station_and_cloud_rows_match_reference(self, figure_outcomes):
        for system, outcome in figure_outcomes[::7]:
            arrays, reference = _array_and_reference(
                system, outcome.plan, _rotated(outcome.assignment)
            )
            assert arrays == reference

    def test_fixture_covers_constant_results_and_cross_cluster_rows(
        self, figure_outcomes
    ):
        constant = [
            outcome for system, outcome in figure_outcomes
            if system.parameters.result_size.is_constant
        ]
        assert len(constant) == 6
        cross = 0
        for system, outcome in figure_outcomes:
            rows = outcome.plan.rows
            cross += sum(
                system.cluster_of(executor) != system.cluster_of(parent.owner_device_id)
                for executor, parent in zip(rows.executor.tolist(), outcome.plan.parents)
            )
        assert cross > 0

    def test_empty_plan(self, divisible_scenario):
        plan = prepare_dta([], divisible_scenario.ownership, divisible_scenario.catalog)
        assert plan.num_subtasks == 0
        with use_context(RunContext()):
            (outcome,) = evaluate_plans(
                [(divisible_scenario.system, plan, divisible_scenario.catalog)]
            )
        arrays, reference = _array_and_reference(
            divisible_scenario.system, plan, outcome.assignment
        )
        assert arrays == reference == _bits((0.0,) * 5)

    def test_duplicate_task_ids_are_described_once(self, divisible_scenario):
        tasks = list(divisible_scenario.tasks)
        # The same object twice, and an equal copy under the same id.
        twin = tasks[1].with_deadline(tasks[1].deadline_s)
        duplicated = tasks + [tasks[0], twin]
        with use_context(RunContext()):
            plan = prepare_dta(
                duplicated, divisible_scenario.ownership, divisible_scenario.catalog
            )
            (outcome,) = evaluate_plans(
                [(divisible_scenario.system, plan, divisible_scenario.catalog)]
            )
        assert len(set(plan.rows.parent_row.tolist())) == len(duplicated)
        arrays, reference = _array_and_reference(
            divisible_scenario.system, plan, outcome.assignment
        )
        assert arrays == reference
        single = accounting._op_info_costs(
            divisible_scenario.system,
            prepare_dta(tasks, divisible_scenario.ownership, divisible_scenario.catalog),
        )
        assert _bits(single) == arrays[:2]

    def test_hand_built_plan_reads_rows_from_its_tasks(self, divisible_scenario):
        plan = prepare_dta(
            list(divisible_scenario.tasks),
            divisible_scenario.ownership,
            divisible_scenario.catalog,
        )
        rebuilt = RearrangedPlan(
            coverage=plan.coverage, subtasks=plan.subtasks, parents=plan.parents
        )
        for name in ("executor", "part_bytes", "resource", "deadline"):
            assert getattr(rebuilt.rows, name).tobytes() == (
                getattr(plan.rows, name).tobytes()
            )
        # Parents are numbered by first appearance rather than by input
        # position, so only the grouping has to agree.
        _, by_position = np.unique(plan.rows.parent_row, return_inverse=True)
        assert np.array_equal(rebuilt.rows.parent_row, by_position)

    def test_outcome_is_the_same_under_reference(self, divisible_scenario):
        def outcome_bits(reference):
            with use_context(RunContext(reference=reference)):
                (outcome,) = evaluate_plans(
                    [(
                        divisible_scenario.system,
                        prepare_dta(
                            list(divisible_scenario.tasks),
                            divisible_scenario.ownership,
                            divisible_scenario.catalog,
                        ),
                        divisible_scenario.catalog,
                    )]
                )
            return _bits((
                outcome.execution_energy_j, outcome.op_info_energy_j,
                outcome.partial_result_energy_j, outcome.final_result_energy_j,
                outcome.processing_time_s,
            ))

        assert outcome_bits(False) == outcome_bits(True)


class TestHintedSubtaskTables:
    def test_hinted_tables_equal_the_scalar_reference(self, figure_outcomes):
        for system, outcome in figure_outcomes:
            subtasks = outcome.plan.subtasks
            hint = costs_module._task_array_hint(system, subtasks)
            assert hint is not None and hint.table is not None
            table = cluster_costs(system, subtasks)
            assert table is hint.table
            scalar = _cluster_costs_scalar(system, subtasks)
            for name in ("time_s", "energy_j", "resource", "deadline_s"):
                assert getattr(table, name).tobytes() == getattr(scalar, name).tobytes()

    def test_both_plans_of_a_system_keep_their_hints(self, divisible_scenario):
        system = divisible_scenario.system
        plans = [
            prepare_dta(
                list(divisible_scenario.tasks), divisible_scenario.ownership,
                divisible_scenario.catalog, objective=objective,
            )
            for objective in ("workload", "number")
        ]
        with use_context(RunContext()):
            evaluate_plans([(system, plan, divisible_scenario.catalog) for plan in plans])
        for plan in plans:
            assert costs_module._task_array_hint(system, plan.subtasks) is not None

    def _count_hashes(self, call):
        calls = []
        original = Task.__hash__

        def counting(task):
            calls.append(task)
            return original(task)

        with mock.patch.object(Task, "__hash__", counting):
            result = call()
        return result, len(calls)

    def test_hinted_lookup_hashes_no_task(self, divisible_scenario):
        system = divisible_scenario.system
        plan = prepare_dta(
            list(divisible_scenario.tasks),
            divisible_scenario.ownership,
            divisible_scenario.catalog,
        )
        with use_context(RunContext()):
            accounting._register_plan_arrays(system, plan)
            first, priced = self._count_hashes(
                lambda: cluster_costs(system, plan.subtasks)
            )
            again, looked_up = self._count_hashes(
                lambda: cluster_costs(system, list(plan.subtasks))
            )
            # The control: an unregistered list is memoised by value.
            _, unhinted = self._count_hashes(
                lambda: cluster_costs(system, divisible_scenario.tasks)
            )
        assert again is first
        assert (priced, looked_up) == (0, 0)
        assert unhinted > 0

    def test_array_generated_tasks_price_without_hashing(self):
        profile = PAPER_DEFAULTS.with_updates(num_tasks=60, num_devices=12)
        with use_context(RunContext()):
            scenario = generate_scenario(profile, seed=4)
            assert costs_module._task_array_hint(scenario.system, tuple(scenario.tasks))
            _, hashes = self._count_hashes(
                lambda: cluster_costs(scenario.system, scenario.tasks)
            )
        assert hashes == 0


class TestRepairPrecheck:
    """Steps 5–6 skip the loads no cap is exceeded by; the rows they do
    repair must come out exactly as the reference repairs them."""

    def _run(self, reference, device_cap, station_cap, column):
        profile = PAPER_DEFAULTS.with_updates(num_tasks=40, num_devices=6, num_stations=1)
        scenario = generate_scenario(profile, seed=7)
        with use_context(RunContext(reference=reference)) as context:
            table = cluster_costs(scenario.system, scenario.tasks)
            n = table.num_tasks
            x = np.zeros((n, 3))
            x[:, column] = 1.0
            lp_result = LPResult(LPStatus.OPTIMAL, x.ravel(), 1.0, 0, "rigged")
            caps = {device_id: device_cap for device_id in table.owner_rows()}
            # One device without a cap entry: unbounded, never repaired.
            caps.pop(next(iter(caps)))
            decisions, report = lp_hta_cluster(
                table, caps, station_cap, context=context, lp_result=lp_result
            )
        return [int(d) for d in decisions], report

    @pytest.mark.parametrize(
        "device_cap, station_cap, column",
        [
            (0.0, 1e12, 0),  # every capped device over its cap
            (1e12, 0.0, 1),  # the station over its cap
            (1e12, 1e12, 0),  # nothing over: the pre-check skips all
            (25.0, 40.0, 0),  # some devices over, then the station
        ],
    )
    def test_matches_reference(self, device_cap, station_cap, column):
        optimized = self._run(False, device_cap, station_cap, column)
        reference = self._run(True, device_cap, station_cap, column)
        assert optimized == reference


def test_rearrangement_rows_match_the_subtasks(divisible_scenario):
    plan = rearrange_tasks(
        list(divisible_scenario.tasks),
        prepare_dta(
            list(divisible_scenario.tasks),
            divisible_scenario.ownership,
            divisible_scenario.catalog,
        ).coverage,
        divisible_scenario.catalog,
    )
    rows = plan.rows
    assert rows.executor.tolist() == [t.owner_device_id for t in plan.subtasks]
    assert _bits(rows.part_bytes) == _bits(t.local_bytes for t in plan.subtasks)
    assert _bits(rows.deadline) == _bits(t.deadline_s for t in plan.subtasks)
    assert _bits(rows.resource) == _bits(t.resource_demand for t in plan.subtasks)
    tasks = list(divisible_scenario.tasks)
    assert [tasks[r] for r in rows.parent_row.tolist()] == list(plan.parents)
    # The fast constructor builds the same Task the dataclass would.
    for subtask in plan.subtasks[:20]:
        rebuilt = Task(**{
            name: getattr(subtask, name) for name in Task.__dataclass_fields__
        })
        assert rebuilt == subtask and hash(rebuilt) == hash(subtask)
