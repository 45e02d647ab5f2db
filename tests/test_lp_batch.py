"""The batched block-diagonal LP path: batched == each block alone.

The lockstep structured loop (:func:`solve_structured_batch`) advances every
pooled block through the exact floating-point trajectory of that block
solved alone (:func:`solve_structured` is a batch of one): elementwise work
runs on the concatenated state of the active blocks, every sum and
factorisation sees exactly a block's own slice, and blocks that converge or
leave the positive orthant are compacted out of the state while stragglers
continue.  These tests pin that contract — same objectives (to 1e-9 and
bitwise), same iteration counts, same ``lp_hta`` assignments whether the
clusters share one batch or each is solved alone — over ragged batches,
batches of one, and batches whose blocks leave at very different
iterations.  Against the frozen seed solver the comparison is by
tolerance: its ``x`` differs from the optimised loop's in the last bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.context import RunContext, use_context
from repro.core import hta
from repro.core.hta import LPHTAOptions, lp_hta, lp_hta_batch
from repro.core.lp_builder import build_p2_structured
from repro.lp import LinearProgram
from repro.lp.interior_point import solve_interior_point, solve_interior_point_batch
from repro.lp._structured_reference import solve_structured_reference
from repro.lp.result import LPStatus
from repro.lp.structured import (
    GroupedBoundedLP,
    StructuredIPMOptions,
    solve_structured,
    solve_structured_batch,
)
from repro.experiments import figures
from repro.system.sharding import ShardSpec
from repro.workload import PAPER_DEFAULTS, generate_scenario
from repro.workload.streaming import generate_tile
from tests.test_ladder_fixtures import (
    BLOCKS as LADDER_BLOCKS,
    SIMPLEX_BLOCK,
    load_block,
)


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
    assert batched.objective == pytest.approx(
        sequential.objective, abs=1e-9, nan_ok=True
    )
    assert batched.message == sequential.message
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


class TestCompactedFreezePaths:
    """Blocks leave the lockstep state at many different iterations.

    A mixed batch: the two committed ladder blocks (200-iteration
    stragglers under the default options), 60 random blocks, and a K = 0
    block.  Under the largest step fraction below 1 most blocks step onto
    the boundary and exit on the orthant check, one by one, while others
    run on; under the default options blocks converge one by one around
    the stragglers.  Either way each exit compacts the state, and every
    block must still replay its solve alone, in either batch order.
    """

    @staticmethod
    def _mixed_batch():
        rng = np.random.default_rng(11)
        ladder = [
            build_p2_structured(*load_block(name)).lp for name in LADDER_BLOCKS
        ]
        uncoupled = GroupedBoundedLP(
            c=np.array([3.0, 1.0, 2.0]),
            group_index=np.array([0, 0, 1]),
            group_rhs=np.array([1.0, 1.0]),
            upper=np.array([1.0, np.inf, 1.0]),
        )
        randoms = [_random_grouped(rng, int(g)) for g in rng.integers(1, 25, 60)]
        return ladder + [uncoupled] + randoms

    @pytest.mark.parametrize(
        "step_fraction", [StructuredIPMOptions().step_fraction, np.nextafter(1.0, 0.0)]
    )
    def test_mixed_batch_block_for_block_in_both_orders(self, step_fraction):
        options = StructuredIPMOptions(step_fraction=float(step_fraction))
        blocks = self._mixed_batch()
        alone = [solve_structured(block, options) for block in blocks]
        for order in (blocks, blocks[::-1]):
            expected = alone if order is blocks else alone[::-1]
            for b, s in zip(solve_structured_batch(order, options), expected):
                _assert_block_equal(b, s)
        statuses = [result.status for result in alone]
        exits = {result.iterations for result in alone}
        assert len(exits) > 3  # blocks leave at several iterations
        if step_fraction == StructuredIPMOptions().step_fraction:
            assert statuses[:2] == [LPStatus.ITERATION_LIMIT] * 2
            assert statuses.count(LPStatus.OPTIMAL) == len(blocks) - 2
        else:
            left = [
                result for result in alone
                if result.status is LPStatus.NUMERICAL_ERROR
            ]
            assert left
            assert all(
                result.message == "iterate left the positive orthant"
                for result in left
            )
            assert len(left) < len(blocks)


def _fixed_shape(rng, k, num_groups, free=0):
    """A feasible block of a given shape: ``num_groups`` groups of three
    variables, ``k`` coupling rows and ``free`` unbounded variables; only
    the values vary between two calls."""
    n = 3 * num_groups
    group_index = np.repeat(np.arange(num_groups), 3)
    upper = rng.uniform(0.5, 1.5, size=n)
    upper[rng.permutation(n)[:free]] = np.inf
    coupling_a = (rng.random((k, n)) < 0.5) * rng.uniform(0.5, 2.0, (k, n))
    coupling_b = coupling_a @ np.full(n, 1.0 / 3.0) + rng.uniform(0.1, 1.0, k)
    return GroupedBoundedLP(
        c=rng.uniform(0.5, 10.0, size=n),
        group_index=group_index,
        group_rhs=np.ones(num_groups),
        coupling_a=coupling_a if k else None,
        coupling_b=coupling_b if k else None,
        upper=upper,
    )


def _assert_block_bytes(batched, alone):
    """Status, iterations, message and the bytes of ``x`` all equal."""
    assert batched.status is alone.status
    assert batched.iterations == alone.iterations
    assert batched.message == alone.message
    if alone.x is None:
        assert batched.x is None
    else:
        assert batched.x.tobytes() == alone.x.tobytes()


def _captured_step1_batches(run):
    """Every block list Step 1 hands the structured solver during ``run()``."""
    batches = []
    solve = hta.solve_structured_batch

    def capture(blocks, *args, **kwargs):
        batches.append(list(blocks))
        return solve(blocks, *args, **kwargs)

    with mock.patch.object(hta, "solve_structured_batch", capture):
        run()
    return batches


class TestShapeGroups:
    """Same-shape blocks are stacked into one group and solved by stacked
    calls; each must still replay its solve alone, bit for bit.

    The batch interleaves, in input order, a run of four equal-shape fully
    bounded blocks with a K = 0 run, a block with free variables, the three
    ladder fixtures (200-iteration stragglers) and random ragged blocks.
    Under the largest step fraction below 1 some blocks leave the positive
    orthant instead of converging.
    """

    @staticmethod
    def _batch():
        rng = np.random.default_rng(5)
        coupled = [_fixed_shape(rng, 2, 4) for _ in range(4)]
        uncoupled = [_fixed_shape(rng, 0, 3) for _ in range(3)]
        free = _fixed_shape(rng, 1, 5, free=2)
        ladder = [
            build_p2_structured(*load_block(name)).lp
            for name in LADDER_BLOCKS + (SIMPLEX_BLOCK,)
        ]
        randoms = [_random_grouped(rng, int(g)) for g in (3, 9, 5, 14)]
        return [
            coupled[0], uncoupled[0], free, ladder[0], coupled[1], randoms[0],
            uncoupled[1], coupled[2], ladder[1], randoms[1], randoms[2],
            coupled[3], ladder[2], uncoupled[2], randoms[3],
        ]

    @pytest.mark.parametrize(
        "step_fraction", [StructuredIPMOptions().step_fraction, np.nextafter(1.0, 0.0)]
    )
    def test_every_block_replays_its_solve_alone_in_both_orders(self, step_fraction):
        options = StructuredIPMOptions(step_fraction=float(step_fraction))
        blocks = self._batch()
        alone = [solve_structured(block, options) for block in blocks]
        for order in (blocks, blocks[::-1]):
            expected = alone if order is blocks else alone[::-1]
            context = RunContext()
            with use_context(context):
                batched = solve_structured_batch(order, options)
            for b, s in zip(batched, expected):
                _assert_block_bytes(b, s)
            # The four coupled blocks and the three uncoupled ones were
            # stacked: the first layout's largest group held four.
            groups = context.telemetry.metrics.histogram("lp.shape_group")
            assert groups.max == 4
        statuses = {result.status for result in alone}
        assert LPStatus.ITERATION_LIMIT in statuses  # the ladder stragglers
        if step_fraction == StructuredIPMOptions().step_fraction:
            assert LPStatus.NUMERICAL_ERROR not in statuses
        else:
            assert LPStatus.NUMERICAL_ERROR in statuses

    def test_stats_line_counts_blocks_per_group(self):
        blocks = self._batch()[:3]  # one coupled, one uncoupled, one free
        context = RunContext()
        with use_context(context):
            solve_structured_batch(blocks + blocks)
        telemetry = context.telemetry
        assert telemetry.shape_groups >= 3
        first = telemetry.metrics.histogram("lp.shape_group")
        assert first.max == 2 and first.min >= 1
        assert "shape groups" in telemetry.summary()


class TestStepOneBlocks:
    """Real P2 blocks: the array generator's layouts, batched and alone."""

    def test_streamed_city_tile_blocks(self):
        profile = PAPER_DEFAULTS.with_updates(
            num_devices=400, num_stations=40, num_tasks=800
        )
        tile = generate_tile(profile, ShardSpec.balanced(range(40), 2), 0, seed=0)
        (blocks, *_) = _captured_step1_batches(
            lambda: lp_hta(tile.system, list(tile.tasks), context=RunContext())
        )
        self._check(blocks)

    def test_fig2a_column_blocks(self):
        # A fresh context: an earlier run's result store would serve the cells.
        def run():
            with use_context(RunContext()):
                figures.fig2a(seeds=(0,))

        batches = _captured_step1_batches(run)
        self._check(max(batches, key=len))

    @staticmethod
    def _check(blocks):
        assert len(blocks) > 1
        shapes = {(lp.num_coupling, lp.num_vars) for lp in blocks}
        assert len(shapes) < len(blocks)  # some blocks share a group
        with use_context(RunContext()):
            batched = solve_structured_batch(blocks)
            for block, result in zip(blocks, batched):
                _assert_block_bytes(result, solve_structured(block))


class TestStackedKernels:
    """Platform assumption behind the bit-identical shape groups.

    Each stacked call the lockstep loop makes on a ``(B, …)`` group must
    return, item for item, the bits of the 2-D or 1-D call a block alone
    would make: numpy has to hand every stacked item to the same BLAS or
    LAPACK kernel with the same memory layout.  A numpy or BLAS upgrade
    that breaks this fails here, by name, instead of moving a benchmark
    digest without explanation.
    """

    N, M = 60, 20

    @pytest.fixture(params=[1, 3, 625], ids=lambda b: f"B{b}")
    def count(self, request):
        return request.param

    @pytest.fixture(params=[0, 1, 11], ids=lambda k: f"K{k}")
    def k(self, request):
        return request.param

    @staticmethod
    def _same(stacked, per_slice):
        per_slice = np.array(per_slice).reshape(stacked.shape)
        assert stacked.tobytes() == per_slice.tobytes()

    def test_matmul_items_equal_per_slice_products(self, count, k):
        rng = np.random.default_rng(count * 100 + k)
        n, m = self.N, self.M
        r_mat = rng.standard_normal((count, k, n)) * 10.0 ** rng.uniform(-3, 3, (count, k, n))
        x = rng.standard_normal((count, n))
        y = rng.standard_normal((count, k))
        theta = rng.uniform(0.1, 10.0, (count, 1, n))
        rt = r_mat * theta
        # u_block[b] is F-ordered, as bincount(...).reshape(k, m).T makes it.
        ut = rng.standard_normal((count, k, m))
        u_block = ut.transpose(0, 2, 1)
        dg = rng.uniform(0.1, 10.0, (count, m, 1))
        g = rng.standard_normal((count, m))
        r_t = r_mat.transpose(0, 2, 1)
        items = range(count)
        self._same(np.matmul(r_mat, x[..., None]), [r_mat[b] @ x[b] for b in items])
        self._same(np.matmul(r_t, y[..., None]), [r_mat[b].T @ y[b] for b in items])
        self._same(np.matmul(rt, r_t), [rt[b] @ r_mat[b].T for b in items])
        self._same(
            np.matmul(ut, u_block / dg),
            [u_block[b].T @ (u_block[b] / dg[b]) for b in items],
        )
        self._same(np.matmul(ut, g[..., None]), [u_block[b].T @ g[b] for b in items])
        self._same(np.matmul(u_block, y[..., None]), [u_block[b] @ y[b] for b in items])
        out = np.empty((count, k, 1))
        np.matmul(r_mat, x[..., None], out=out)
        self._same(out, [r_mat[b] @ x[b] for b in items])

    def test_vecdot_equals_per_slice_dot(self, count, k):
        rng = np.random.default_rng(count * 100 + k + 1)
        for size in (self.N, k):
            a = rng.standard_normal((3, count, size))
            b = rng.standard_normal((3, count, size))
            out = np.empty((3, count))
            np.vecdot(a, b, out=out)
            self._same(
                out,
                [[float(a[r, i] @ b[r, i]) for i in range(count)] for r in range(3)],
            )

    def test_trace_and_solve_equal_per_slice_calls(self, count, k):
        rng = np.random.default_rng(count * 100 + k + 2)
        schur = rng.standard_normal((count, k, k)) * 10.0 ** rng.uniform(-3, 3, (count, k, k))
        items = range(count)
        traces = [schur[b].trace() for b in items]
        self._same(np.trace(schur, axis1=1, axis2=2), traces)
        # The loop sums a prebuilt diagonal view, which is what np.trace reduces.
        diag = schur.reshape(count, k * k)[:, :: k + 1]
        self._same(np.add.reduce(diag, axis=1), traces)
        if k:
            spd = np.matmul(schur, schur.transpose(0, 2, 1)) + np.eye(k)
            rhs = rng.standard_normal((count, k, 1))
            self._same(
                np.linalg.solve(spd, rhs),
                [np.linalg.solve(spd[b], rhs[b, :, 0]) for b in items],
            )

    def test_offset_bincount_equals_per_block_bincount(self, count, k):
        rng = np.random.default_rng(count * 100 + k + 3)
        n, m = self.N, self.M
        gi = rng.integers(0, m, (count, 1, n))
        rt = rng.standard_normal((count, k, n))
        rows = np.arange(count * k).reshape(count, k, 1) * m
        stacked = np.bincount(
            (rows + gi).ravel(), weights=rt.ravel(), minlength=count * k * m
        )
        per_block = [
            np.bincount(
                (np.arange(k)[:, None] * m + gi[b]).ravel(),
                weights=rt[b].ravel(),
                minlength=k * m,
            )
            for b in range(count)
        ]
        self._same(stacked, per_block)


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
    """Run LP-HTA's Step 1 on each cluster alone, as a batch of one."""
    ladder = hta._solve_p2_ladder
    return mock.patch.object(
        hta, "_solve_p2_ladder",
        lambda jobs, options, context: [
            ladder([job], options, context)[0] for job in jobs
        ],
    )


def _reports_identical(a, b):
    assert a.assignment.decisions == b.assignment.decisions
    assert a.clusters == b.clusters  # exact energies, objectives, deltas


class TestLPHTABatched:
    """lp_hta's pooled Step 1 emits exactly each cluster solved alone."""

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
        # The first rung is one mega-solve over every cluster, and each
        # block meets each rung once, batched or alone: the same solves
        # with the same per-block iterations.
        assert batched_ctx.telemetry.batched_blocks >= len(batched.clusters)
        assert sequential_ctx.telemetry.batch_solves >= len(batched.clusters)
        assert batched_ctx.telemetry.solves == sequential_ctx.telemetry.solves
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

    def test_single_cluster_is_one_block(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(
                num_stations=1, num_devices=4, num_tasks=10
            ),
            seed=0,
        )
        context = RunContext()
        report = lp_hta(scenario.system, list(scenario.tasks), context=context)
        assert len(report.clusters) == 1
        assert context.telemetry.batch_solves == 1
        assert context.telemetry.batched_blocks == 1
        assert context.telemetry.solves == 1
        # A batch of one probes only its block key, never a whole-batch key.
        assert context.telemetry.batch_cache_lookups == 0
        assert context.telemetry.cache_lookups == 1


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

    def test_reference_context_runs_the_seed_solver(self):
        jobs = self._jobs()
        seed_calls = []

        def counting(lp, options):
            seed_calls.append(lp)
            return solve_structured_reference(lp, options)

        with use_context(RunContext(reference=True)) as context, mock.patch(
            "repro.lp.structured.solve_structured_reference", counting
        ):
            reports = lp_hta_batch(jobs, context=context)
        clusters = sum(len(r.clusters) for r in reports)
        assert len(seed_calls) == clusters
        assert context.telemetry.cache_lookups == 0  # reference: uncached
        # The seed solver's optimum differs in the last bits only.
        for reference, optimised in zip(reports, lp_hta_batch(jobs)):
            assert (
                reference.assignment.decisions
                == optimised.assignment.decisions
            )
            assert reference.lp_objective_j == pytest.approx(
                optimised.lp_objective_j, rel=1e-9
            )

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
