"""RunContext: activation stack, LP cache and telemetry plumbing."""

import ast
import json
import pickle
from pathlib import Path

import pytest

from repro.context import COUNTERS, RunContext, Telemetry, current_context, use_context
from repro.obs.export import jsonl_lines
from repro.lp import backends
from repro.lp.problem import LinearProgram
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS


def _tiny_lp() -> LinearProgram:
    # min -x0 - x1 subject to x0 + x1 <= 1, 0 <= x <= 1
    return LinearProgram(
        c=[-1.0, -1.0],
        a_ub=[[1.0, 1.0]],
        b_ub=[1.0],
        upper_bounds=[1.0, 1.0],
    )


class TestActivation:
    def test_default_context_is_optimized(self):
        context = current_context()
        assert not context.reference

    def test_use_context_nests_and_restores(self):
        outer = current_context()
        with use_context(RunContext(reference=True)) as ctx:
            assert current_context() is ctx
            with use_context(RunContext(seed=7)) as inner:
                assert current_context() is inner
            assert current_context() is ctx
        assert current_context() is outer

    def test_replace_shares_telemetry_sink(self):
        context = RunContext()
        derived = context.replace(reference=True)
        assert derived.reference
        assert derived.telemetry is context.telemetry

    def test_contexts_compare_ignoring_telemetry(self):
        a, b = RunContext(), RunContext()
        a.telemetry.record_solve(wall_time_s=1.0, iterations=3)
        assert a == b


class TestLPCache:
    def test_cache_on_by_default_and_zero_disables(self):
        assert RunContext().lp_cache is not None
        assert RunContext(lp_cache_capacity=0).lp_cache is None

    def test_reference_mode_bypasses_cache(self):
        context = RunContext(reference=True, lp_cache_capacity=8)
        with use_context(context):
            first = backends.solve(_tiny_lp(), "interior-point")
            second = backends.solve(_tiny_lp(), "interior-point")
        assert second is not first  # each call solved afresh
        assert context.telemetry.cache_hits == 0
        assert context.telemetry.cache_misses == 0

    def test_cache_created_lazily_and_memoised(self):
        context = RunContext(lp_cache_capacity=4)
        cache = context.lp_cache
        assert cache is not None
        assert context.lp_cache is cache
        assert cache.capacity == 4

    def test_cache_used_by_solver(self):
        context = RunContext(lp_cache_capacity=8)
        with use_context(context):
            first = backends.solve(_tiny_lp(), "interior-point")
            second = backends.solve(_tiny_lp(), "interior-point")
        assert second is first  # bit-identical problem → stored result
        assert context.telemetry.cache_hits == 1
        assert context.telemetry.cache_misses == 1

    def test_cache_covers_lp_hta_structured_path(self):
        from repro.core.hta import lp_hta

        scenario = generate_scenario(
            PAPER_DEFAULTS.with_updates(num_tasks=30), seed=0
        )
        cached = RunContext(lp_cache_capacity=64)
        with use_context(cached):
            first = lp_hta(scenario.system, list(scenario.tasks))
            second = lp_hta(scenario.system, list(scenario.tasks))
        # Every P2 of the second run is bit-identical to the first's.
        assert cached.telemetry.cache_hits > 0
        assert cached.telemetry.cache_misses == cached.telemetry.cache_hits
        assert (
            second.assignment.stats().total_energy_j
            == first.assignment.stats().total_energy_j
        )
        # And the cache never changes the answer vs. an uncached run.
        plain = lp_hta(scenario.system, list(scenario.tasks))
        assert (
            plain.assignment.stats().total_energy_j
            == first.assignment.stats().total_energy_j
        )


class TestTelemetry:
    def test_record_and_summary(self):
        telemetry = Telemetry()
        telemetry.record_solve(wall_time_s=0.25, iterations=10)
        telemetry.record_solve(wall_time_s=0.05, iterations=4)
        telemetry.metrics.incr("lp.cache.hits")
        telemetry.metrics.incr("lp.cache.misses")
        assert telemetry.solves == 2
        assert telemetry.lp_iterations == 14
        summary = telemetry.summary()
        assert "LP solves          2" in summary
        assert "1/2 hits" in summary

    def test_merge_is_additive(self):
        a, b = Telemetry(), Telemetry()
        a.record_solve(wall_time_s=1.0, iterations=5)
        b.record_solve(wall_time_s=2.0, iterations=7)
        b.metrics.incr("lp.cache.hits")
        a.merge(b)
        assert a.solves == 2
        assert a.solve_wall_s == pytest.approx(3.0)
        assert a.lp_iterations == 12
        assert a.cache_hits == 1

    def test_pickle_roundtrip(self):
        telemetry = Telemetry()
        telemetry.record_solve(wall_time_s=0.5, iterations=2)
        telemetry.metrics.incr("runtime.quarantines")
        telemetry.quarantines.append({"label": "c", "attempts": 2, "error": "x"})
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone.metrics == telemetry.metrics
        assert clone.quarantines == telemetry.quarantines
        assert clone.solves == 1 and clone.cells_quarantined == 1

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            Telemetry().no_such_counter  # noqa: B018

    def test_bench_attributes_resolve(self):
        # bench/layers.py reads the sink by attribute name; every name it
        # reads must resolve on a fresh sink (to zero).
        source = (Path(__file__).parents[1] / "bench" / "layers.py").read_text()
        function = next(
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == "telemetry_counts"
        )
        names = {
            node.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "telemetry"
            and node.attr != "metrics"
        }
        assert {"lp_iterations", "lp_fallbacks", "cache_hits"} <= names
        telemetry = Telemetry()
        for name in names:
            assert getattr(telemetry, name) == 0, name

    def test_solves_recorded_by_backend(self):
        context = RunContext()
        with use_context(context):
            backends.solve(_tiny_lp(), "interior-point")
        assert context.telemetry.solves == 1
        assert context.telemetry.solve_wall_s > 0.0
        assert context.telemetry.lp_iterations > 0


def _bump(telemetry: Telemetry, source: str) -> str:
    """Record one event into ``source``; return the metric name it hit."""
    name, _, field = source.partition(":")
    if field:
        telemetry.metrics.observe(name, 1.0)
        return name
    if name.endswith("*"):
        name = name[:-1] + "probe"
    telemetry.metrics.incr(name)
    return name


def _bumped_all() -> Telemetry:
    telemetry = Telemetry()
    for _, source, _ in COUNTERS:
        _bump(telemetry, source)
    return telemetry


class TestCounterTable:
    """Every :data:`COUNTERS` row reaches every view of the sink."""

    def test_attributes_are_unique(self):
        attrs = [attr for attr, _, _ in COUNTERS]
        assert len(attrs) == len(set(attrs))

    @pytest.mark.parametrize("attr, source", [row[:2] for row in COUNTERS])
    def test_row_reaches_every_view(self, attr, source):
        telemetry = _bumped_all()
        before = getattr(telemetry, attr)
        summary = telemetry.summary()
        metric = _bump(telemetry, source)
        assert getattr(telemetry, attr) != before
        # --stats renders the row (its own line or another row's line).
        assert telemetry.summary() != summary
        # The JSONL log carries it as a counter or histogram line.
        names = {json.loads(line).get("name") for line in jsonl_lines(telemetry)}
        assert metric in names
        # It survives pickling and merges additively.
        clone = pickle.loads(pickle.dumps(telemetry))
        assert getattr(clone, attr) == getattr(telemetry, attr)
        clone.merge(telemetry)
        assert getattr(clone, attr) == pytest.approx(2 * getattr(telemetry, attr))
