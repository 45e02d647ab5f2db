"""Differential tests: optimised hot paths vs their seed-era references.

Each optimisation in the sweep hot path keeps its replaced implementation
as a selectable reference, and these tests pin the two to *identical*
output (not merely approximately equal):

- lazy-greedy DTA (CELF heap / size-keyed heap) vs the per-round rescan
  references, property-tested over random ownership maps;
- sparse COO/CSR LP assembly vs the dense reference — equal matrices in
  ``build_p2`` and its standard form, and identical ``lp_hta`` assignments
  on the Table I profile;
- the per-worker scenario memo — hit/miss telemetry and the reference-mode
  bypass that keeps benchmark baselines honest;
- the batched block-diagonal mega-solve path vs both the sequential
  optimised path and the full seed-era reference, over a miniature
  figure-style sweep (identical per-cell results, not just close).
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.context import RunContext, use_context
from repro.core import hta
from repro.core.costs import ClusterCosts, cluster_costs
from repro.core.hta import LPHTAOptions, lp_hta
from repro.core.lp_builder import build_p2
from repro.data.ownership import OwnershipMap
from repro.dta.coverage import (
    _dta_number_lazy,
    _dta_workload_lazy,
    dta_number,
    dta_number_naive,
    dta_workload,
    dta_workload_naive,
)
from repro.experiments import parallel
from repro.experiments.parallel import SweepCell, dta_spec, holistic_spec, run_cells
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS


@st.composite
def coverable_instance(draw):
    """A universe plus an ownership map that jointly covers it."""
    num_items = draw(st.integers(min_value=1, max_value=30))
    num_devices = draw(st.integers(min_value=1, max_value=10))
    holdings = {d: set() for d in range(num_devices)}
    for item in range(num_items):
        owners = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_devices - 1),
                min_size=1, max_size=num_devices, unique=True,
            )
        )
        for owner in owners:
            holdings[owner].add(item)
    universe = frozenset(range(num_items))
    return universe, OwnershipMap(holdings)


class TestLazyGreedyMatchesNaive:
    """The lazy-heap DTA implementations replay the reference argmin exactly."""

    @settings(max_examples=80, deadline=None)
    @given(coverable_instance())
    def test_workload_lazy_equals_naive(self, instance):
        universe, ownership = instance
        lazy = _dta_workload_lazy(universe, ownership)
        naive = dta_workload_naive(universe, ownership)
        assert lazy.universe == naive.universe
        assert dict(lazy.sets) == dict(naive.sets)

    @settings(max_examples=80, deadline=None)
    @given(coverable_instance())
    def test_number_lazy_equals_naive(self, instance):
        universe, ownership = instance
        lazy = _dta_number_lazy(universe, ownership)
        naive = dta_number_naive(universe, ownership)
        assert lazy.universe == naive.universe
        assert dict(lazy.sets) == dict(naive.sets)

    @settings(max_examples=30, deadline=None)
    @given(coverable_instance())
    def test_public_wrappers_route_both_modes_to_same_output(self, instance):
        universe, ownership = instance
        for algorithm, naive in (
            (dta_workload, dta_workload_naive),
            (dta_number, dta_number_naive),
        ):
            optimised = algorithm(universe, ownership)
            with use_context(RunContext(reference=True)):
                reference = algorithm(universe, ownership)
            assert dict(optimised.sets) == dict(reference.sets)
            assert dict(reference.sets) == dict(naive(universe, ownership).sets)


def _dense(matrix):
    return matrix.toarray() if sp.issparse(matrix) else matrix


def _cluster_inputs(scenario):
    """Per-cluster (costs, device_caps, station_cap), as ``lp_hta`` slices."""
    system = scenario.system
    tasks = list(scenario.tasks)
    costs = cluster_costs(system, tasks)
    by_cluster = {}
    for row, task in enumerate(tasks):
        by_cluster.setdefault(
            system.cluster_of(task.owner_device_id), []
        ).append(row)
    for station_id in sorted(by_cluster):
        rows = by_cluster[station_id]
        sub_costs = ClusterCosts(
            tasks=tuple(costs.tasks[r] for r in rows),
            time_s=costs.time_s[rows],
            energy_j=costs.energy_j[rows],
            resource=costs.resource[rows],
            deadline_s=costs.deadline_s[rows],
        )
        device_caps = {
            device_id: system.device(device_id).max_resource
            for device_id in {t.owner_device_id for t in sub_costs.tasks}
        }
        yield sub_costs, device_caps, system.station(station_id).max_resource


class TestSparseAssemblyMatchesDense:
    """CSR assembly of P2 reproduces the dense reference bit for bit."""

    def test_build_p2_matrices_equal_on_table1_profile(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=80), seed=0
        )
        checked = 0
        for sub_costs, device_caps, station_cap in _cluster_inputs(scenario):
            sparse = build_p2(sub_costs, device_caps, station_cap)
            with use_context(RunContext(reference=True)):
                dense = build_p2(sub_costs, device_caps, station_cap)
            assert sparse.doomed_rows == dense.doomed_rows
            assert np.array_equal(sparse.lp.c, dense.lp.c)
            assert np.array_equal(sparse.lp.upper_bounds, dense.lp.upper_bounds)
            assert (sparse.lp.a_ub is None) == (dense.lp.a_ub is None)
            if sparse.lp.a_ub is not None:
                assert sp.issparse(sparse.lp.a_ub)
                assert not sp.issparse(dense.lp.a_ub)
                assert np.array_equal(_dense(sparse.lp.a_ub), dense.lp.a_ub)
                assert np.array_equal(sparse.lp.b_ub, dense.lp.b_ub)
            assert sp.issparse(sparse.lp.a_eq)
            assert np.array_equal(_dense(sparse.lp.a_eq), dense.lp.a_eq)
            assert np.array_equal(sparse.lp.b_eq, dense.lp.b_eq)

            std_sparse = sparse.lp.to_standard_form()
            std_dense = dense.lp.to_standard_form()
            assert std_sparse.is_sparse and not std_dense.is_sparse
            assert np.array_equal(_dense(std_sparse.a), std_dense.a)
            assert np.array_equal(std_sparse.b, std_dense.b)
            assert np.array_equal(std_sparse.c, std_dense.c)
            checked += 1
        assert checked > 0  # the profile yields at least one cluster

    def test_lp_hta_assignments_identical_across_backends(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=80), seed=1
        )
        tasks = list(scenario.tasks)

        def dense_build(*args, **kwargs):
            # Reference mode is what selects the dense assembly.
            with use_context(RunContext(reference=True)):
                return build_p2(*args, **kwargs)

        for backend in ("interior-point", "scipy"):
            options = LPHTAOptions(backend=backend)
            with use_context(RunContext(lp_cache_capacity=0)):
                sparse_report = lp_hta(scenario.system, tasks, options)
                with mock.patch.object(hta, "build_p2", dense_build):
                    dense_report = lp_hta(scenario.system, tasks, options)
            assert (
                sparse_report.assignment.decisions
                == dense_report.assignment.decisions
            ), backend


class TestScenarioMemo:
    """The per-worker scenario memo: hits counted, reference mode bypassed."""

    def setup_method(self):
        parallel._SCENARIO_MEMO.clear()

    def test_repeated_lookup_hits_and_counts(self):
        context = RunContext()
        profile = PAPER_DEFAULTS.with_updates(num_tasks=5)
        first = parallel._scenario_for(profile, 3, context)
        second = parallel._scenario_for(profile, 3, context)
        assert second is first
        assert context.telemetry.scenario_memo_misses == 1
        assert context.telemetry.scenario_memo_hits == 1

    def test_distinct_keys_miss(self):
        context = RunContext()
        profile = PAPER_DEFAULTS.with_updates(num_tasks=5)
        a = parallel._scenario_for(profile, 0, context)
        b = parallel._scenario_for(profile, 1, context)
        c = parallel._scenario_for(profile, 0, RunContext(seed=1))
        assert a is not b and a is not c
        assert context.telemetry.scenario_memo_hits == 0

    def test_reference_mode_bypasses_memo(self):
        context = RunContext(reference=True)
        profile = PAPER_DEFAULTS.with_updates(num_tasks=5)
        first = parallel._scenario_for(profile, 3, context)
        second = parallel._scenario_for(profile, 3, context)
        assert second is not first  # regenerated, never memoised
        assert not parallel._SCENARIO_MEMO
        assert context.telemetry.scenario_memo_hits == 0
        assert context.telemetry.scenario_memo_misses == 0

    def test_memoised_scenario_equals_fresh_generation(self):
        context = RunContext()
        profile = PAPER_DEFAULTS.with_updates(num_tasks=12)
        memoised = parallel._scenario_for(profile, 7, context)
        fresh = generate_scenario(profile, seed=7)
        assert len(memoised.tasks) == len(fresh.tasks)
        stats_memo = [t.owner_device_id for t in memoised.tasks]
        stats_fresh = [t.owner_device_id for t in fresh.tasks]
        assert stats_memo == stats_fresh


def _mini_figure(context):
    """A two-point, two-seed figure-style sweep (LP-HTA + DTA columns).

    Each profile's cells form one sweep column, so outside reference mode
    the holistic and DTA evaluators both route through their mega-solve
    entry points — the same shape as a full figure sweep, small enough
    for CI.
    """
    specs = (holistic_spec("LP-HTA"), dta_spec("workload"))
    profiles = [
        PAPER_DEFAULTS.with_updates(
            num_tasks=n, num_devices=8, num_stations=2,
            divisible=True, num_data_items=40,
        )
        for n in (8, 12)
    ]
    cells = [
        SweepCell(
            index=i, profile=profile, seed=seed,
            evaluators=specs, context=context,
        )
        for i, (profile, seed) in enumerate(
            (profile, seed) for profile in profiles for seed in (0, 1)
        )
    ]
    return run_cells(cells, jobs=1)


class TestBatchedSweepMatchesReference:
    """The mega-solve sweep path is a pure perf change: identical figures."""

    def setup_method(self):
        parallel._SCENARIO_MEMO.clear()

    def test_figure_diff_batched_vs_sequential_vs_reference(self):
        batched_ctx = RunContext()
        alone_ctx = RunContext()
        reference_ctx = RunContext(reference=True)
        batched = _mini_figure(batched_ctx)
        ladder = hta._solve_p2_ladder
        with mock.patch.object(
            hta, "_solve_p2_ladder",
            lambda jobs, options, context: [
                ladder([job], options, context)[0] for job in jobs
            ],
        ):
            alone = _mini_figure(alone_ctx)
        reference = _mini_figure(reference_ctx)
        # The batched run pooled blocks; the sequential control solved each
        # cluster alone, as a batch of one.
        batched_t, alone_t = batched_ctx.telemetry, alone_ctx.telemetry
        assert batched_t.batched_blocks > batched_t.batch_solves
        assert alone_t.batched_blocks == alone_t.batch_solves > 0
        # Cell-for-cell identical AlgorithmResults across all three modes.
        assert batched == alone
        assert batched == reference


def _scenario_fingerprint(scenario):
    """Every float and field of a scenario, for exact comparison."""
    tasks = tuple(
        (
            t.owner_device_id, t.index, t.local_bytes, t.external_bytes,
            t.external_source, t.resource_demand, t.deadline_s,
            t.divisible, t.required_items, t.operation,
        )
        for t in scenario.tasks
    )
    devices = tuple(
        (
            d.device_id, d.cpu_frequency_hz, d.wireless, d.max_resource,
            d.data_items, d.position,
        )
        for d in (scenario.system.device(i) for i in scenario.system.devices)
    )
    return tasks, devices


class TestArrayGeneratorMatchesReference:
    """The raw-word-stream generator is a pure perf change: identical draws."""

    def test_scenarios_identical_across_all_three_paths(self):
        from repro.workload import array_gen

        profiles = [
            PAPER_DEFAULTS.with_updates(num_tasks=60, num_devices=12, num_stations=3),
            PAPER_DEFAULTS.with_updates(num_tasks=7, num_devices=1, num_stations=1),
            PAPER_DEFAULTS.with_updates(
                num_tasks=30, num_devices=6, num_stations=2,
                external_ratio_range=(0.0, 0.0),
            ),
            PAPER_DEFAULTS.with_updates(
                num_tasks=30, num_devices=6, num_stations=3,
                external_cross_cluster_prob=1.0,
            ),
        ]
        for profile in profiles:
            for seed in (0, 5):
                with use_context(RunContext()):
                    array = _scenario_fingerprint(generate_scenario(profile, seed=seed))
                # A bail-out sends the tasks down the object path with the
                # pooled source candidates.
                with mock.patch.object(
                    array_gen, "generate_holistic_tasks", return_value=None
                ):
                    pooled = _scenario_fingerprint(generate_scenario(profile, seed=seed))
                with use_context(RunContext(reference=True)):
                    reference = _scenario_fingerprint(
                        generate_scenario(profile, seed=seed)
                    )
                assert array == pooled == reference

    def test_cross_cluster_branches_identical_to_reference(self):
        # Devices attach to stations round-robin.  Three devices on two
        # stations put all devices but one in cluster 0, so its cross draws
        # take the one-candidate branch and cluster 1's same-cluster draws
        # fall back; one station per device makes every cluster a
        # singleton.
        profiles = [
            PAPER_DEFAULTS.with_updates(
                num_tasks=40, num_devices=3, num_stations=2,
                external_cross_cluster_prob=0.5,
            ),
            PAPER_DEFAULTS.with_updates(
                num_tasks=40, num_devices=5, num_stations=5,
                external_cross_cluster_prob=0.5,
            ),
        ]
        for profile in profiles:
            for seed in (0, 1, 2):
                with use_context(RunContext()):
                    array = _scenario_fingerprint(generate_scenario(profile, seed=seed))
                with use_context(RunContext(reference=True)):
                    reference = _scenario_fingerprint(
                        generate_scenario(profile, seed=seed)
                    )
                assert array == reference

    def test_divisible_scenarios_identical_to_reference(self):
        # Divisible generation stays on the object path but memoises the
        # sorted catalog and the per-item owner index; draws and every
        # byte total must stay bit-identical to the unmemoised code.
        for num_tasks in (24, 120):
            profile = PAPER_DEFAULTS.with_updates(
                num_tasks=num_tasks, divisible=True
            )
            for seed in (0, 5):
                with use_context(RunContext()):
                    fast = _scenario_fingerprint(generate_scenario(profile, seed=seed))
                with use_context(RunContext(reference=True)):
                    reference = _scenario_fingerprint(
                        generate_scenario(profile, seed=seed)
                    )
                assert fast == reference

    def test_bailout_falls_back_to_object_path(self, monkeypatch):
        from repro.workload import array_gen

        profile = PAPER_DEFAULTS.with_updates(
            num_tasks=20, num_devices=5, num_stations=2
        )
        with use_context(RunContext(reference=True)):
            expected = _scenario_fingerprint(generate_scenario(profile, seed=3))
        monkeypatch.setattr(
            array_gen, "generate_holistic_tasks", lambda *a, **k: None
        )
        context = RunContext()
        with use_context(context):
            bailed = _scenario_fingerprint(generate_scenario(profile, seed=3))
        assert bailed == expected
        assert context.telemetry.metrics.counters["generate.array_bailout"] > 0

    def test_fused_cost_table_identical_to_gather_loop(self):
        # A dense scenario (device ids 0..n-1), then shard 2 of a 4-shard
        # toy city: a tile on stations 4 and 5 whose device ids are 4, 5,
        # 12, 13, ..., so the hint's owner and source positions differ from
        # the ids.
        from repro.core import costs as costs_module
        from repro.system.sharding import ShardSpec
        from repro.workload.streaming import generate_tile

        hints = []

        def recording_hint(system, tasks):
            hint = original_hint(system, tasks)
            hints.append(hint)
            return hint

        original_hint = costs_module._task_array_hint
        city = PAPER_DEFAULTS.with_updates(
            num_tasks=120, num_devices=40, num_stations=8,
            external_cross_cluster_prob=0.5,
        )
        with use_context(RunContext()):
            dense = generate_scenario(
                PAPER_DEFAULTS.with_updates(
                    num_tasks=50, num_devices=10, num_stations=2
                ),
                seed=4,
            )
            tile = generate_tile(city, ShardSpec.balanced(range(8), 4), 2, seed=4)
            assert list(tile.system.devices)[:3] == [4, 5, 12]
            for scenario in (dense, tile):
                hints.clear()
                with mock.patch.object(
                    costs_module, "_task_array_hint", recording_hint
                ):
                    fused = cluster_costs(scenario.system, scenario.tasks)
                # The fused branch ran: the generator's arrays were found.
                assert len(hints) == 1 and hints[0] is not None
                # Drop the generator's array hint and the table memo: the
                # same tasks now price through the per-task gather loop.
                costs_module._TASK_ARRAY_HINTS.pop(scenario.system, None)
                costs_module._TABLE_CACHE.pop(scenario.system, None)
                looped = cluster_costs(scenario.system, scenario.tasks)
                assert fused.time_s.tobytes() == looped.time_s.tobytes()
                assert fused.energy_j.tobytes() == looped.energy_j.tobytes()
                assert fused.resource.tobytes() == looped.resource.tobytes()
                assert fused.deadline_s.tobytes() == looped.deadline_s.tobytes()


class TestEngineReplayBitIdentity:
    """Default-route replay equals the closure engine, metric for metric."""

    def _replay_matrix(self, scenario, assignment):
        from repro.des.replay import replay_assignment

        tasks = list(scenario.tasks)
        cases = [
            dict(contention=False),
            dict(contention=True),
            dict(contention=True, backhaul_outages=((0.2, 0.5),)),
            dict(
                contention=False,
                backhaul_outages=((0.1, 0.4),),
                wan_outages=((0.3, 0.8),),
            ),
        ]
        for kwargs in cases:
            with use_context(RunContext()):
                fast = replay_assignment(scenario.system, tasks, assignment, **kwargs)
            with use_context(RunContext(reference=True)):
                reference = replay_assignment(
                    scenario.system, tasks, assignment, **kwargs
                )
            assert fast == reference

    def test_realized_metrics_bit_identical(self):
        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=40, num_devices=8, num_stations=2),
            seed=0,
        )
        assignment = lp_hta(scenario.system, list(scenario.tasks)).assignment
        self._replay_matrix(scenario, assignment)


class TestVectorisedKernelsPreserveFigures:
    """The kernels change nothing about a figure-style sweep's output."""

    def setup_method(self):
        parallel._SCENARIO_MEMO.clear()

    def _holistic_mini_figure(self, context):
        specs = (holistic_spec("LP-HTA"), holistic_spec("HGOS"))
        cells = [
            SweepCell(
                index=i,
                profile=PAPER_DEFAULTS.with_updates(
                    num_tasks=n, num_devices=8, num_stations=2
                ),
                seed=seed,
                evaluators=specs,
                context=context,
            )
            for i, (n, seed) in enumerate(
                (n, seed) for n in (8, 12) for seed in (0, 1)
            )
        ]
        return run_cells(cells, jobs=1)

    def test_generator_and_engine_flags_are_pure_perf(self):
        default = self._holistic_mini_figure(RunContext())
        parallel._SCENARIO_MEMO.clear()
        reference = self._holistic_mini_figure(RunContext(reference=True))
        assert default == reference


@st.composite
def cluster_layout(draw):
    """A device -> cluster map over ids ``0..N-1``: random, all singletons,
    one cluster holding every device but one, or a single cluster."""
    num_devices = draw(st.integers(min_value=1, max_value=40))
    shape = draw(st.sampled_from(["random", "singletons", "all_but_one", "one"]))
    if shape == "singletons":
        return list(range(num_devices))
    if shape == "one":
        return [0] * num_devices
    if shape == "all_but_one":
        odd = draw(st.integers(min_value=0, max_value=num_devices - 1))
        return [1 if d == odd else 0 for d in range(num_devices)]
    num_clusters = draw(st.integers(min_value=1, max_value=num_devices))
    return draw(
        st.lists(
            st.integers(min_value=0, max_value=num_clusters - 1),
            min_size=num_devices, max_size=num_devices,
        )
    )


class TestCrossClusterWalk:
    """The array generator picks a cross-cluster source by walking the
    owner's ascending member list instead of listing the outside devices."""

    @settings(max_examples=200, deadline=None)
    @given(cluster_layout())
    def test_walk_equals_listing_the_outside_devices(self, clusters):
        from repro.workload.array_gen import _nth_outside

        for cluster in set(clusters):
            members = [d for d, c in enumerate(clusters) if c == cluster]
            outside = [d for d, c in enumerate(clusters) if c != cluster]
            for idx, expected in enumerate(outside):
                assert _nth_outside(members, idx) == expected
