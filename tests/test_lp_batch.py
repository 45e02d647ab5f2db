"""The batched block-diagonal LP path: batched == each block alone.

The lockstep structured loop (:func:`solve_structured_batch`) advances every
pooled block through the exact floating-point trajectory of that block
solved alone (:func:`solve_structured` is a batch of one): elementwise work
runs on the concatenated state, every reduction and factorisation runs on a
block's contiguous slice, and converged blocks are frozen while stragglers
continue.  These tests pin that contract — same objectives (to 1e-9 and
bitwise), same iteration counts, same ``lp_hta`` assignments with batching
on or off — over ragged batches, batches of one, and batches whose blocks
converge at very different iterations.  Against the frozen seed solver the
comparison is by tolerance: its ``x`` differs from the optimised loop's in
the last bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.context import RunContext, use_context
from repro.core import hta
from repro.core.hta import LPHTAOptions, lp_hta, lp_hta_batch
from repro.lp import LinearProgram
from repro.lp.interior_point import solve_interior_point, solve_interior_point_batch
from repro.lp._structured_reference import solve_structured_reference
from repro.lp.structured import (
    GroupedBoundedLP,
    StructuredIPMOptions,
    solve_structured,
    solve_structured_batch,
)
from repro.workload import PAPER_DEFAULTS, generate_scenario


def _random_grouped(rng: np.random.Generator, num_groups: int) -> GroupedBoundedLP:
    """A feasible random P2-shaped block (transportation-like)."""
    sizes = rng.integers(2, 5, size=num_groups)
    n = int(sizes.sum())
    group_index = np.repeat(np.arange(num_groups), sizes)
    c = rng.uniform(0.5, 10.0, size=n)
    upper = np.ones(n)
    upper[rng.random(n) < 0.25] = np.inf
    # Spreading each group's unit mass evenly is feasible for the groups and
    # the bounds; padding the coupling rhs above that point keeps K rows
    # feasible too.
    x_feasible = 1.0 / np.repeat(sizes, sizes)
    k = int(rng.integers(0, 3))
    if k:
        coupling_a = (rng.random((k, n)) < 0.4).astype(float)
        coupling_b = coupling_a @ x_feasible + rng.uniform(0.1, 1.0, size=k)
    else:
        coupling_a = None
        coupling_b = None
    return GroupedBoundedLP(
        c=c,
        group_index=group_index,
        group_rhs=np.ones(num_groups),
        coupling_a=coupling_a,
        coupling_b=coupling_b,
        upper=upper,
    )


def _random_generic(rng: np.random.Generator, num_groups: int) -> LinearProgram:
    """The same shape as :func:`_random_grouped`, in generic bounded form."""
    grouped = _random_grouped(rng, num_groups)
    n = grouped.c.shape[0]
    a_eq = np.zeros((num_groups, n))
    a_eq[grouped.group_index, np.arange(n)] = 1.0
    a_ub = grouped.coupling_a if grouped.coupling_a is not None else None
    b_ub = grouped.coupling_b if a_ub is not None else None
    return LinearProgram(
        c=grouped.c,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=grouped.group_rhs,
        upper_bounds=grouped.upper,
    )


def _assert_block_equal(batched, sequential):
    """One block of a batch solve must replay its sequential solve exactly."""
    assert batched.status is sequential.status
    assert batched.iterations == sequential.iterations
    assert batched.objective == pytest.approx(sequential.objective, abs=1e-9)
    if sequential.x is None:
        assert batched.x is None
    else:
        assert np.array_equal(batched.x, sequential.x)


class TestStructuredBatch:
    """solve_structured_batch vs each block solved alone."""

    def test_ragged_batch_block_for_block(self):
        rng = np.random.default_rng(0)
        blocks = [_random_grouped(rng, int(g)) for g in (1, 7, 2, 12, 4, 30)]
        batched = solve_structured_batch(blocks)
        sequential = [solve_structured(block) for block in blocks]
        assert len(batched) == len(blocks)
        for b, s in zip(batched, sequential):
            _assert_block_equal(b, s)

    def test_batch_of_one(self):
        rng = np.random.default_rng(1)
        block = _random_grouped(rng, 5)
        (batched,) = solve_structured_batch([block])
        _assert_block_equal(batched, solve_structured(block))

    def test_converged_blocks_freeze_while_stragglers_continue(self):
        # A trivial block converges many iterations before a large coupled
        # one; lockstep masking must report each block's own convergence
        # iteration (a frozen block does not keep counting), and freezing
        # must not perturb the straggler's trajectory.
        rng = np.random.default_rng(2)
        trivial = GroupedBoundedLP(
            c=np.array([1.0, 2.0]),
            group_index=np.array([0, 0]),
            group_rhs=np.array([1.0]),
            upper=np.ones(2),
        )
        straggler = _random_grouped(rng, 40)
        sequential = [solve_structured(b) for b in (trivial, straggler)]
        assert sequential[0].iterations < sequential[1].iterations
        for order in ((trivial, straggler), (straggler, trivial)):
            batched = solve_structured_batch(list(order))
            expected = sequential if order[0] is trivial else sequential[::-1]
            for b, s in zip(batched, expected):
                _assert_block_equal(b, s)

    def test_matches_seed_reference(self):
        # The seed solver is the layer's reference.  Its iterates differ
        # from the optimised loop's in the last bits, so the comparison is
        # on status, objective and feasibility rather than bytes.
        rng = np.random.default_rng(6)
        blocks = [_random_grouped(rng, int(g)) for g in (1, 5, 3, 18, 9, 40)]
        options = StructuredIPMOptions()
        batched = solve_structured_batch(blocks, options)
        for block, ours in zip(blocks, batched):
            seed = solve_structured_reference(block, options)
            assert ours.status is seed.status
            assert ours.status.ok
            assert ours.objective == pytest.approx(seed.objective, abs=1e-7)
            assert block.is_feasible(ours.x)

    def test_reference_mode_runs_the_seed_solver(self):
        rng = np.random.default_rng(7)
        blocks = [_random_grouped(rng, int(g)) for g in (2, 11)]
        seed = [
            solve_structured_reference(block, StructuredIPMOptions())
            for block in blocks
        ]
        with use_context(RunContext(reference=True)):
            batched = solve_structured_batch(blocks)
            single = [solve_structured(block) for block in blocks]
        for expected, b, s in zip(seed, batched, single):
            _assert_block_equal(b, expected)
            _assert_block_equal(s, expected)


class TestInteriorPointBatch:
    """solve_interior_point_batch: one sequential solve per problem."""

    def test_ragged_batch_block_for_block(self):
        rng = np.random.default_rng(3)
        problems = [_random_generic(rng, int(g)) for g in (1, 6, 3, 15)]
        batched = solve_interior_point_batch(problems)
        sequential = [solve_interior_point(p) for p in problems]
        assert len(batched) == len(problems)
        for b, s in zip(batched, sequential):
            _assert_block_equal(b, s)


@st.composite
def small_profile(draw):
    """A small random scenario profile + seed (multi-cluster by default)."""
    num_stations = draw(st.integers(min_value=1, max_value=3))
    num_devices = num_stations * draw(st.integers(min_value=2, max_value=4))
    profile = PAPER_DEFAULTS.with_updates(
        num_stations=num_stations,
        num_devices=num_devices,
        num_tasks=draw(st.integers(min_value=5, max_value=30)),
        max_input_bytes=draw(st.floats(min_value=500e3, max_value=4000e3)),
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return profile, seed


def _sequential_step1():
    """Route LP-HTA's Step 1 through the sequential per-cluster ladder."""
    return mock.patch.object(hta, "_batching_enabled", return_value=False)


def _reports_identical(a, b):
    assert a.assignment.decisions == b.assignment.decisions
    assert a.clusters == b.clusters  # exact energies, objectives, deltas


class TestLPHTABatched:
    """lp_hta with batching on emits exactly the sequential output."""

    @settings(max_examples=10, deadline=None)
    @given(small_profile())
    def test_batched_equals_sequential_assignments(self, case):
        profile, seed = case
        scenario = generate_scenario(profile, seed=seed)
        tasks = list(scenario.tasks)
        with use_context(RunContext()) as batched_ctx:
            batched = lp_hta(scenario.system, tasks, context=batched_ctx)
        with use_context(RunContext()) as sequential_ctx, _sequential_step1():
            sequential = lp_hta(scenario.system, tasks, context=sequential_ctx)
        _reports_identical(batched, sequential)
        assert sequential_ctx.telemetry.batch_solves == 0
        if len(batched.clusters) >= 2:
            assert batched_ctx.telemetry.batch_solves == 1
            assert (
                batched_ctx.telemetry.batched_blocks == len(batched.clusters)
            )
        # Batched or not, the same per-block iterations are observed —
        # unless a block failed its primary solve: the batch path then
        # falls back to the full sequential ladder, whose first rung
        # repeats the failed solve, so its iterations are counted twice.
        # Equal solve counts mean no fallback fired.
        if batched_ctx.telemetry.solves == sequential_ctx.telemetry.solves:
            assert (
                batched_ctx.telemetry.lp_iterations
                == sequential_ctx.telemetry.lp_iterations
            )

    def test_interior_point_backend_batches_identically(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=40), seed=2
        )
        tasks = list(scenario.tasks)
        options = LPHTAOptions(backend="interior-point")
        with use_context(RunContext()) as batched_ctx:
            batched = lp_hta(scenario.system, tasks, options, context=batched_ctx)
        with use_context(RunContext()) as sequential_ctx, _sequential_step1():
            sequential = lp_hta(
                scenario.system, tasks, options, context=sequential_ctx
            )
        _reports_identical(batched, sequential)
        assert batched_ctx.telemetry.batch_solves == 1

    def test_single_cluster_stays_sequential(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_stations=1, num_devices=4, num_tasks=10
            ),
            seed=0,
        )
        context = RunContext()
        report = lp_hta(scenario.system, list(scenario.tasks), context=context)
        assert len(report.clusters) == 1
        assert context.telemetry.batch_solves == 0  # blocks >= 2 gate
        assert context.telemetry.solves == 1


class TestLPHTABatchEntryPoint:
    """lp_hta_batch pools every input's clusters into one mega-solve."""

    def _jobs(self):
        jobs = []
        for seed in range(3):
            scenario = generate_scenario(
                PAPER_DEFAULTS.with_updates(num_tasks=10 + 5 * seed), seed=seed
            )
            jobs.append((scenario.system, list(scenario.tasks)))
        return jobs

    def test_matches_per_job_lp_hta(self):
        jobs = self._jobs()
        with use_context(RunContext()) as batched_ctx:
            batched = lp_hta_batch(jobs, context=batched_ctx)
        sequential = []
        with use_context(RunContext()) as sequential_ctx, _sequential_step1():
            for system, tasks in jobs:
                sequential.append(lp_hta(system, tasks, context=sequential_ctx))
        assert len(batched) == len(sequential)
        for b, s in zip(batched, sequential):
            _reports_identical(b, s)
        total_clusters = sum(len(r.clusters) for r in sequential)
        assert batched_ctx.telemetry.batch_solves == 1
        assert batched_ctx.telemetry.batched_blocks == total_clusters

    def test_reference_context_never_batches(self):
        jobs = self._jobs()[:1]
        context = RunContext(reference=True)
        reports = lp_hta_batch(jobs, context=context)
        assert len(reports) == 1
        assert context.telemetry.batch_solves == 0

    def test_repeated_column_is_a_whole_batch_cache_hit(self):
        jobs = self._jobs()
        context = RunContext()
        first = lp_hta_batch(jobs, context=context)
        assert context.telemetry.batch_cache_hits == 0
        second = lp_hta_batch(jobs, context=context)
        assert context.telemetry.batch_cache_hits == 1
        assert context.telemetry.batch_solves == 1  # no second mega-solve
        for a, b in zip(first, second):
            _reports_identical(a, b)
