"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import multiprocessing
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import OnlineFaulty, digest  # noqa: E402


def _toy_module() -> types.ModuleType:
    """outer() calls inner() twice through the module's own globals."""
    toy = types.ModuleType("toy_layers")
    exec(
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.01)\n"
        "    return 1\n"
        "def outer():\n"
        "    time.sleep(0.01)\n"
        "    return inner() + inner()\n",
        toy.__dict__,
    )
    return toy


def _wrap_toy(tracer: layers.Tracer, toy: types.ModuleType) -> layers.Installation:
    undo = []
    for layer, name in (("lp", "inner"), ("hta", "outer")):
        original = getattr(toy, name)
        undo += layers.rebind(original, tracer.wrap(layer, original), [toy])
    return undo


def test_self_time_is_duration_minus_children(tmp_path):
    tracer = layers.Tracer(tmp_path)
    toy = _toy_module()
    _wrap_toy(tracer, toy)
    assert toy.outer() == 2
    inner_a, inner_b, outer = tracer.spans
    assert (inner_a[0], inner_b[0], outer[0]) == ("lp", "lp", "hta")
    assert inner_a[3] == inner_a[2] and inner_b[3] == inner_b[2]
    assert outer[3] == outer[2] - (inner_a[2] + inner_b[2])
    assert 0.0 < outer[3] < outer[2]

    summary = layers.summarize(tracer.spans, [], window_s=outer[2], since=0.0)
    assert summary["hta.calls"] == 1 and summary["lp.calls"] == 2
    assert summary["hta.self_s"] + summary["lp.self_s"] == outer[2]
    assert summary["unattributed_s"] == 0.0


def _call_wrapped_in_child(toy: types.ModuleType) -> None:
    toy.outer()


def test_worker_span_files_merge(tmp_path):
    tracer = layers.Tracer(tmp_path)
    toy = _toy_module()
    _wrap_toy(tracer, toy)
    worker_entry = tracer.wrap(layers.WORKER, toy.outer)
    toy.outer = worker_entry  # the pool entry point wraps the work
    process = multiprocessing.get_context("fork").Process(
        target=_call_wrapped_in_child, args=(toy,)
    )
    process.start()
    process.join(timeout=30)
    assert not process.is_alive() and process.exitcode == 0
    assert tracer.spans == []  # the parent recorded nothing itself

    files = list(tmp_path.glob("spans-*.jsonl"))
    assert [f.name for f in files] == [f"spans-{process.pid}.jsonl"]
    merged = layers.worker_spans(tmp_path)
    assert {pid for pid, _ in merged} == {process.pid}
    assert sorted(span[0] for _, span in merged) == ["hta", "lp", "lp", "worker"]
    summary = layers.summarize([], merged, window_s=1.0, since=0.0)
    assert summary["lp.calls"] == 2 and summary["hta.calls"] == 1
    busy = [span[2] for _, span in merged if span[0] == layers.WORKER]
    assert summary["parallel.worker_busy_s"] == busy[0]


def test_install_rebinds_every_alias_and_uninstall_restores(tmp_path):
    import repro.core.costs
    import repro.online.scheduler
    import repro.registry

    originals = {
        "costs": repro.core.costs.cluster_costs,
        "scheduler": repro.online.scheduler.cluster_costs,
        "registry": repro.registry.cluster_costs,
    }
    assert len({id(f) for f in originals.values()}) == 1
    tracer = layers.Tracer(tmp_path)
    undo = layers.install(tracer)
    try:
        wrapped = repro.core.costs.cluster_costs
        assert wrapped is not originals["costs"]
        assert repro.online.scheduler.cluster_costs is wrapped
        assert repro.registry.cluster_costs is wrapped
        # No module binding anywhere in the process still points at an
        # original entry point.
        replaced = {id(original) for _, _, original in undo}
        leftovers = [
            (module.__name__, name)
            for module in list(sys.modules.values())
            if isinstance(module, types.ModuleType)
            for name, value in vars(module).items()
            if id(value) in replaced
        ]
        assert leftovers == []
    finally:
        layers.uninstall(undo)
    assert repro.core.costs.cluster_costs is originals["costs"]
    assert repro.online.scheduler.cluster_costs is originals["costs"]


def test_wrapping_is_transparent(tmp_path):
    from repro.context import RunContext, use_context
    from repro.core.assignment import Assignment
    from repro.experiments import figures

    def outputs():
        with use_context(RunContext()):
            figure = figures.run_figure("fig4b", seeds=(3,), jobs=1)
        online = OnlineFaulty(seed=2, toy=True)
        epochs = [operation()[0] for operation in online.operations()]
        return digest(figure), digest(epochs)

    plain = outputs()
    original_stats = Assignment.stats
    tracer = layers.Tracer(tmp_path)
    undo = layers.install(tracer)
    try:
        assert Assignment.stats is not original_stats
        traced = outputs()
    finally:
        layers.uninstall(undo)
    assert Assignment.stats is original_stats
    assert traced == plain
    layers_seen = {span[0] for span in tracer.spans}
    assert {"workload", "costs", "lp", "hta", "baselines", "assignment",
            "des", "faults", "mobility", "parallel", "online"} <= layers_seen


def test_epoch_at_a_time_matches_one_call():
    from repro.context import RunContext
    from repro.online import simulate_online

    workload = OnlineFaulty(seed=5, toy=True)
    built = workload.build(1, 40, 6)
    arrivals = [timed for batch in built.epochs for timed in batch]
    whole = simulate_online(
        built.system, arrivals, workload.options,
        mobility=workload.build(1, 40, 6).mobility,
        context=RunContext(), fault_plan=built.plan,
    )
    records, events = [], []
    context = RunContext()
    for batch in built.epochs:
        report = simulate_online(
            built.system, batch, workload.options, mobility=built.mobility,
            context=context, fault_plan=built.plan,
        )
        records += report.epochs
        events += report.events
    assert tuple(records) == whole.epochs
    assert tuple(events) == whole.events
    assert events, "the toy plan should inject faults"


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == 4.6
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)
