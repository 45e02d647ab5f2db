"""The observability subsystem: metrics, spans, tracer, exporters.

Three contracts pinned here:

- **Merge fidelity** — metrics and span logs ride the Telemetry
  reset/merge/pickle protocol, so a spawn-started parallel sweep reports
  exactly the same histograms and span content as the sequential run of
  the same cells (the cross-process differential tests).
- **Disabled cost** — tracing is off by default and the disabled path is
  a shared no-op: no spans recorded, no per-call allocation.
- **Export determinism** — everything in a trace except ``ts``/``dur``
  is a pure function of the workload, so canonical traces diff clean
  across start methods.
"""

import json
import math
import multiprocessing
import pickle

import pytest

from repro.context import RunContext, Telemetry, use_context
from repro.experiments.parallel import SweepCell, holistic_spec, run_cells
from repro.obs.export import (
    CANONICAL_STAGES,
    canonical_trace,
    chrome_trace,
    jsonl_lines,
    stage_breakdown,
    stage_report,
)
from repro.obs.metrics import TIME_BOUNDS_S, Histogram, Metrics, bounds_for, format_count
from repro.obs.spans import SpanLog, SpanRecord
from repro.obs.tracer import NOOP_SPAN, record_span, span, stage, staged, traced
from repro.registry import LP_HTA
from repro.workload.profiles import PAPER_DEFAULTS

_PROFILE = PAPER_DEFAULTS.with_updates(num_tasks=8)


def _spawn_available() -> bool:
    return "spawn" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Histogram / Metrics / SpanLog units


class TestHistogram:
    def test_observe_and_quantiles(self):
        h = Histogram("stage.solve_s")
        for value in (0.001, 0.002, 0.004, 0.1):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(0.107)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.1)
        assert h.min <= h.quantile(0.5) <= h.max
        # Quantiles are clamped to the observed range, not bucket edges.
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) <= h.max

    def test_empty_quantile_is_nan(self):
        h = Histogram("stage.solve_s")
        assert math.isnan(h.quantile(0.5))

    def test_merge_adds_bucketwise(self):
        a = Histogram("stage.solve_s")
        b = Histogram("stage.solve_s")
        a.observe(0.001)
        b.observe(0.5)
        b.observe(2.0)
        merged = a.merged(b)
        assert merged.count == 3
        assert merged.sum == pytest.approx(2.501)
        assert merged.counts == [
            x + y for x, y in zip(a.counts, b.counts)
        ]
        assert merged.min == a.min and merged.max == b.max

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram("stage.solve_s")
        b = Histogram("lp.iterations")
        with pytest.raises(ValueError):
            a.merged(b)

    @pytest.mark.parametrize(
        "samples", [(0.6, 1.4), (0.11, 0.12, 0.13, 0.14)], ids=["two", "four"]
    )
    def test_low_count_median_within_one_grid_step(self, samples):
        # A coarse grid once reported p50 = 1.0 s for (0.6, 1.4) — a value
        # never observed — and 0.14 s for the second set.
        h = Histogram("stage.solve_s")
        for value in samples:
            h.observe(value)
        nearest_rank = sorted(samples)[math.ceil(0.5 * len(samples)) - 1]
        step = TIME_BOUNDS_S[1] / TIME_BOUNDS_S[0]
        assert step == pytest.approx(10 ** 0.05)
        ratio = h.quantile(0.5) / nearest_rank
        assert 1 / step <= ratio <= step

    def test_bounds_for_is_stable_per_name(self):
        # Merge-compatibility across processes relies on this.
        assert bounds_for("stage.solve_s") == bounds_for("stage.solve_s")
        assert bounds_for("lp.iterations") != bounds_for("stage.solve_s")
        assert bounds_for("unknown") == bounds_for("other_unknown")


class TestMetrics:
    def test_counters_and_histograms_merge(self):
        a = Metrics()
        b = Metrics()
        a.incr("des.events", 10)
        b.incr("des.events", 5)
        b.incr("only.b")
        a.observe("stage.solve_s", 0.01)
        b.observe("stage.solve_s", 0.02)
        b.observe("stage.build_s", 0.001)
        merged = a + b
        assert merged.counter("des.events") == 15
        assert merged.counter("only.b") == 1
        assert merged.histogram("stage.solve_s").count == 2
        assert merged.histogram("stage.build_s").count == 1
        # Inputs are untouched (merge copies).
        assert a.counter("des.events") == 10
        assert a.histogram("stage.build_s") is None

    def test_as_dict_round_trips_to_json(self):
        m = Metrics()
        m.incr("c", 2)
        m.observe("stage.solve_s", 0.01)
        assert json.loads(json.dumps(m.as_dict())) == m.as_dict()


class TestSpanLog:
    def _record(self, name, track=0, depth=0):
        return SpanRecord(
            name=name, start_s=1.0, duration_s=0.5, depth=depth, track=track
        )

    def test_merge_remaps_tracks(self):
        a = SpanLog()
        a.append(self._record("a"))
        b = SpanLog()
        b.append(self._record("b"))
        b.append(self._record("c", depth=1))
        merged = a + b
        assert [r.name for r in merged] == ["a", "b", "c"]
        assert [r.track for r in merged] == [0, 1, 1]
        assert merged.tracks == 2

    def test_merging_empty_log_keeps_tracks(self):
        a = SpanLog()
        a.append(self._record("a"))
        merged = a + SpanLog()
        assert merged.tracks == a.tracks and len(merged) == 1

    def test_content_excludes_wall_clock(self):
        log = SpanLog()
        log.append(self._record("a"))
        other = SpanLog()
        other.append(
            SpanRecord(name="a", start_s=9.0, duration_s=7.0, depth=0, track=0)
        )
        assert log.content() == other.content()
        assert log != other  # full equality still sees the timings


# ---------------------------------------------------------------------------
# Tracer


class TestTracerDisabled:
    def test_span_returns_shared_noop(self):
        with use_context(RunContext()):
            assert span("x") is NOOP_SPAN
            assert span("y", attr=1) is NOOP_SPAN

    def test_no_spans_recorded(self):
        context = RunContext()
        with use_context(context):
            with span("outer"):
                with stage("solve"):
                    pass
            record_span("late", 0.0, 1.0)
        assert len(context.telemetry.spans) == 0
        # The stage histogram is always on, even without tracing.
        assert context.telemetry.metrics.histogram("stage.solve_s").count == 1

    def test_disabled_overhead_is_small(self):
        # Differential guard for the fast path: 100k disabled span() calls
        # must stay far from the per-call cost of real work (generous bound
        # so CI machines under load stay green).
        import time

        with use_context(RunContext()):
            start = time.perf_counter()
            for _ in range(100_000):
                with span("hot"):
                    pass
            elapsed = time.perf_counter() - start
        assert elapsed < 2.0


class TestTracerEnabled:
    def test_nesting_depth_and_attrs(self):
        context = RunContext(trace=True)
        with use_context(context):
            with span("outer", kind="a"):
                with span("inner"):
                    pass
                with stage("solve", backend="structured"):
                    pass
        spans = list(context.telemetry.spans)
        # Spans record on exit: children close before their parent.
        assert [s.name for s in spans] == ["inner", "solve", "outer"]
        assert [s.depth for s in spans] == [1, 1, 0]
        assert spans[2].attrs == (("kind", "a"),)
        assert spans[1].attrs == (("backend", "structured"),)
        assert context.telemetry.metrics.histogram("stage.solve_s").count == 1

    def test_staged_and_traced_decorators(self):
        @staged("dta")
        def staged_fn():
            return 41

        @traced("lp.simplex")
        def traced_fn():
            return 42

        context = RunContext(trace=True)
        with use_context(context):
            assert staged_fn() == 41
            assert traced_fn() == 42
        assert [s.name for s in context.telemetry.spans] == [
            "dta", "lp.simplex",
        ]
        assert context.telemetry.metrics.histogram("stage.dta_s").count == 1

        disabled = RunContext()
        with use_context(disabled):
            assert staged_fn() == 41
            assert traced_fn() == 42
        assert len(disabled.telemetry.spans) == 0
        assert disabled.telemetry.metrics.histogram("stage.dta_s").count == 1

    def test_record_span_uses_current_depth(self):
        context = RunContext(trace=True)
        with use_context(context):
            with span("outer"):
                record_span("epoch", 0.0, 0.25, epoch=3)
        epoch = context.telemetry.spans.records[0]
        assert epoch.name == "epoch"
        assert epoch.depth == 1
        assert epoch.attrs == (("epoch", 3),)


# ---------------------------------------------------------------------------
# Telemetry integration


class TestTelemetryIntegration:
    def test_record_solve_feeds_stage_and_iterations(self):
        t = Telemetry()
        t.record_solve(wall_time_s=0.01, iterations=7)
        t.record_solve(wall_time_s=0.001, iterations=0, cache_hit=True)
        assert t.metrics.histogram("stage.solve_s").count == 2
        # Cache hits don't pollute the iteration distribution.
        assert t.metrics.histogram("lp.iterations").count == 1
        assert t.metrics.histogram("lp.iterations").max == 7

    def test_merge_carries_metrics_and_spans(self):
        a = Telemetry()
        b = Telemetry()
        a.record_solve(wall_time_s=0.01, iterations=3)
        b.record_solve(wall_time_s=0.02, iterations=5)
        b.metrics.incr("des.events", 9)
        b.spans.append(
            SpanRecord(name="x", start_s=0.0, duration_s=1.0, depth=0, track=0)
        )
        a.merge(b)
        assert a.solves == 2
        assert a.metrics.histogram("stage.solve_s").count == 2
        assert a.metrics.counter("des.events") == 9
        assert len(a.spans) == 1 and a.spans.records[0].track == 1

    def test_telemetry_pickle_preserves_metrics(self):
        t = Telemetry()
        t.record_solve(wall_time_s=0.01, iterations=3)
        t.spans.append(
            SpanRecord(name="x", start_s=0.0, duration_s=1.0, depth=0, track=0)
        )
        clone = pickle.loads(pickle.dumps(t))
        assert clone.metrics == t.metrics
        assert clone.spans == t.spans

    def test_context_pickle_resets_metrics_and_spans(self):
        context = RunContext(trace=True)
        context.telemetry.record_solve(wall_time_s=0.01, iterations=3)
        context.telemetry.spans.append(
            SpanRecord(name="x", start_s=0.0, duration_s=1.0, depth=0, track=0)
        )
        clone = pickle.loads(pickle.dumps(context))
        assert clone.trace is True  # the flag survives; the sink resets
        assert clone.telemetry.metrics.histogram("stage.solve_s") is None
        assert len(clone.telemetry.spans) == 0

    def test_summary_zero_solves(self):
        assert Telemetry().summary() == "no LP solves recorded"

    def test_summary_with_solves_keeps_counters(self):
        t = Telemetry()
        t.record_solve(wall_time_s=0.5, iterations=12)
        assert "LP solves" in t.summary()
        assert "no LP solves" not in t.summary()


# ---------------------------------------------------------------------------
# Cross-process differential


class TestCrossProcessMerge:
    """Parallel sweeps report the same metrics/spans as sequential ones."""

    def _cells(self):
        # Distinct seeds per cell: within one in-process sequential run the
        # cells share the ambient context (and so its LP cache), while each
        # worker cell runs under its own unpickled context.  Distinct seeds
        # keep every cell's solve sequence cache-cold, so both execution
        # modes do identical work.
        return [
            SweepCell(
                index=i,
                profile=_PROFILE,
                seed=i,
                evaluators=(holistic_spec(LP_HTA),),
            )
            for i in range(3)
        ]

    def _run(self, jobs, start_method=None):
        context = RunContext(trace=True)
        with use_context(context):
            results = run_cells(
                self._cells(), jobs=jobs, start_method=start_method
            )
        return context.telemetry, results

    @staticmethod
    def _assert_metrics_equivalent(a, b):
        """Everything deterministic about two metrics bags matches.

        Timing histograms record wall-clock values, so their bucket
        placement and min/max legitimately vary run to run; what the merge
        protocol guarantees is that no observation is lost or invented
        (equal counts per histogram) and that value-deterministic
        histograms (LP iteration counts) match bucket for bucket.
        """
        assert a.counters == b.counters
        assert set(a.histograms) == set(b.histograms)
        for name in a.histograms:
            assert a.histogram(name).count == b.histogram(name).count, name
        assert a.histogram("lp.iterations") == b.histogram("lp.iterations")

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parallel_equals_sequential(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        sequential, seq_results = self._run(jobs=1)
        parallel, par_results = self._run(jobs=2, start_method=start_method)
        assert seq_results == par_results
        self._assert_metrics_equivalent(parallel.metrics, sequential.metrics)
        assert len(parallel.spans) == len(sequential.spans)
        # Span content matches modulo track ids (sequential records on one
        # track, workers on one track per cell).
        strip = lambda content: [key[1:] for key in content]  # noqa: E731
        assert strip(parallel.spans.content()) == strip(
            sequential.spans.content()
        )

    def test_fork_and_spawn_traces_identical(self):
        if not _spawn_available():
            pytest.skip("spawn unavailable on this platform")
        fork, _ = self._run(jobs=2, start_method="fork")
        spawn, _ = self._run(jobs=2, start_method="spawn")
        assert canonical_trace(chrome_trace(fork)) == canonical_trace(
            chrome_trace(spawn)
        )
        self._assert_metrics_equivalent(fork.metrics, spawn.metrics)


# ---------------------------------------------------------------------------
# Exporters


def _traced_telemetry():
    context = RunContext(trace=True)
    with use_context(context):
        with span("outer", kind="demo"):
            with stage("solve", backend="structured"):
                pass
        context.telemetry.record_solve(wall_time_s=0.01, iterations=4)
        context.telemetry.metrics.incr("des.events", 3)
    return context.telemetry


class TestExport:
    def test_chrome_trace_structure(self):
        trace = chrome_trace(_traced_telemetry())
        events = trace["traceEvents"]
        phases = [event["ph"] for event in events]
        assert phases.count("M") == 2  # process_name + one track
        complete = [event for event in events if event["ph"] == "X"]
        assert [event["name"] for event in complete] == ["solve", "outer"]
        # Timestamps are re-based per track: the first span of a track
        # starts at its track's origin.
        assert min(event["ts"] for event in complete) >= 0.0
        assert all(event["dur"] >= 0.0 for event in complete)
        assert complete[0]["args"] == {"backend": "structured"}

    def test_canonical_trace_strips_wall_clock_only(self):
        trace = chrome_trace(_traced_telemetry())
        canon = canonical_trace(trace)
        for event in canon["traceEvents"]:
            assert "ts" not in event and "dur" not in event
        # Everything else survives.
        assert [e["name"] for e in canon["traceEvents"]] == [
            e["name"] for e in trace["traceEvents"]
        ]

    def test_jsonl_lines_parse(self):
        lines = list(jsonl_lines(_traced_telemetry()))
        parsed = [json.loads(line) for line in lines]
        types = {entry["type"] for entry in parsed}
        assert types == {"span", "counter", "histogram"}
        counters = {e["name"]: e["value"] for e in parsed if e["type"] == "counter"}
        assert counters["lp.solves"] == 1

    def test_stage_report_prints_integral_counters_as_integers(self):
        telemetry = Telemetry()
        telemetry.metrics.incr("des.events", 1234567)
        telemetry.metrics.incr("shard.duality_gap_j", -2342.8312)
        report = stage_report(telemetry)
        assert f"{'des.events':<26} 1234567" in report
        assert f"{'shard.duality_gap_j':<26} -2342.83" in report

    def test_format_count(self):
        assert format_count(1234567.0) == "1234567"
        assert format_count(0.0) == "0"
        assert format_count(0.125) == "0.125"

    def test_stage_report_lists_canonical_stages(self):
        report = stage_report(_traced_telemetry())
        for stage_name in CANONICAL_STAGES:
            assert f"\n{stage_name:<10}" in "\n" + report
        assert "lp.iterations" in report

    def test_stage_breakdown_only_observed_stages(self):
        breakdown = stage_breakdown(_traced_telemetry())
        assert set(breakdown) == {"solve"}
        assert breakdown["solve"]["count"] == 2  # stage() + record_solve
        assert breakdown["solve"]["total_s"] >= 0.0
        assert breakdown["solve"]["p50_ms"] <= breakdown["solve"]["p99_ms"]


# ---------------------------------------------------------------------------
# CLI


class TestCLI:
    def test_report_prints_stage_table(self, capsys):
        from repro.cli import main

        assert main(["report", "--figure", "fig2b", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        for stage_name in CANONICAL_STAGES:
            assert stage_name in out
        assert "p50" in out and "p95" in out and "p99" in out

    def test_figure_trace_and_log_json(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        from repro.cli import main

        # scripts/ is not a package; load the validator by path.
        spec = importlib.util.spec_from_file_location(
            "validate_trace",
            Path(__file__).parent.parent / "scripts" / "validate_trace.py",
        )
        validate_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validate_trace)
        validate = validate_trace.validate

        trace_path = tmp_path / "trace.json"
        log_path = tmp_path / "log.jsonl"
        assert (
            main(
                [
                    "figure", "fig2b", "--seeds", "0",
                    "--trace", str(trace_path),
                    "--log-json", str(log_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        assert validate(trace) == []
        assert any(
            event["ph"] == "X" and event["name"] == "solve"
            for event in trace["traceEvents"]
        )
        for line in log_path.read_text().splitlines():
            json.loads(line)
