"""Step-1 blocks that defeat the structured solver, kept as fixtures.

``tests/data/ladder_blocks.npz`` holds three P2 cluster blocks on which the
structured interior-point loop runs into its iteration cap:

- ``fig2a_seed57``: a 37-task cluster of the Fig. 2(a) sweep at seed 57,
- ``online_faulty_seed0``: a one-task cluster of the ``online_faulty``
  benchmark workload at seed 0,
- ``online_faulty_seed0_simplex``: an 11-task cluster of the same run.

The first two descend LP-HTA's fallback ladder to the sparse
interior-point rung.  The third fails that rung too and is the one block
of the ladder census in ``docs/robustness.md`` that the simplex rung
catches, which is why that rung stays.  Each block stores its cost arrays, its tasks (owner, index, local and
external bytes, external source or -1, resource demand, deadline), its
device capacities as ``(device_id, cap)`` rows and its station capacity.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.context import RunContext, use_context
from repro.core import hta
from repro.core.costs import ClusterCosts
from repro.core.hta import LPHTAOptions, lp_hta_cluster
from repro.core.lp_builder import build_p2, build_p2_structured
from repro.core.task import Task
from repro.lp.backends import solve
from repro.lp.result import LPStatus
from repro.lp.structured import solve_structured

FIXTURES = Path(__file__).parent / "data" / "ladder_blocks.npz"
#: Blocks the sparse interior-point rung catches.
BLOCKS = ("fig2a_seed57", "online_faulty_seed0")
#: The block only the simplex rung catches.
SIMPLEX_BLOCK = "online_faulty_seed0_simplex"


def load_block(name):
    """``(costs, device_caps, station_cap)`` of one committed block."""
    with np.load(FIXTURES) as data:
        tasks = tuple(
            Task(
                owner_device_id=int(row[0]),
                index=int(row[1]),
                local_bytes=float(row[2]),
                external_bytes=float(row[3]),
                external_source=None if row[4] < 0 else int(row[4]),
                resource_demand=float(row[5]),
                deadline_s=float(row[6]),
            )
            for row in data[f"{name}.tasks"]
        )
        costs = ClusterCosts(
            tasks=tasks,
            time_s=data[f"{name}.time_s"],
            energy_j=data[f"{name}.energy_j"],
            resource=data[f"{name}.resource"],
            deadline_s=data[f"{name}.deadline_s"],
        )
        caps = {int(d): float(cap) for d, cap in data[f"{name}.device_caps"]}
        return costs, caps, float(data[f"{name}.station_cap"])


@pytest.mark.parametrize("name", BLOCKS + (SIMPLEX_BLOCK,))
def test_structured_solver_hits_its_iteration_cap(name):
    with use_context(RunContext()):
        result = solve_structured(build_p2_structured(*load_block(name)).lp)
    assert result.status is LPStatus.ITERATION_LIMIT


def test_step1_runs_the_structured_loop_once_per_block(monkeypatch):
    """A block the first rung fails goes straight to the next rung: the
    structured loop runs on it once, not a second time as a retry."""
    structured_blocks = []
    batch = hta.solve_structured_batch

    def counting(blocks):
        structured_blocks.append(len(blocks))
        return batch(blocks)

    monkeypatch.setattr(hta, "solve_structured_batch", counting)
    context = RunContext()
    with use_context(context):
        results = hta._solve_p2_ladder(
            [load_block(name) for name in BLOCKS], LPHTAOptions(), context
        )
    assert structured_blocks == [len(BLOCKS)]
    assert [r.backend for r in results] == ["interior-point"] * len(BLOCKS)
    metrics = context.telemetry.metrics
    assert metrics.counter("lp.fallback.interior-point") == len(BLOCKS)
    assert context.telemetry.lp_fallbacks == len(BLOCKS)


@pytest.mark.parametrize("name", BLOCKS)
def test_cluster_report_matches_reference(name):
    costs, caps, cap = load_block(name)
    reports = []
    for reference in (False, True):
        with use_context(RunContext(reference=reference)) as context:
            reports.append(lp_hta_cluster(costs, caps, cap, context=context))
    (decisions, report), (ref_decisions, ref_report) = reports
    assert decisions == ref_decisions
    assert report.lp_backend == ref_report.lp_backend == "interior-point"
    for field in (
        "num_tasks", "rounded_energy_j", "final_energy_j", "delta_j",
        "cancelled_tasks",
    ):
        assert getattr(report, field) == getattr(ref_report, field)
    # Reference mode solves the dense assembly of the same relaxation, so
    # the LP optimum (and the bounds built on it) agree to rounding only.
    for field in (
        "lp_objective_j", "ratio_bound_theorem2", "ratio_bound_corollary1",
    ):
        assert getattr(report, field) == pytest.approx(
            getattr(ref_report, field), rel=1e-6
        )


def test_simplex_catches_the_block_the_interior_point_rung_fails(monkeypatch):
    """The unrelaxed level tries structured, then sparse interior-point,
    then simplex, which solves the block: no dense retry, no scipy."""
    rungs = []
    solve_rung = hta._solve_rung

    def recording(jobs, backend, *rest):
        results = solve_rung(jobs, backend, *rest)
        rungs.append((backend, [r.status.ok for r in results]))
        return results

    monkeypatch.setattr(hta, "_solve_rung", recording)
    block = load_block(SIMPLEX_BLOCK)
    context = RunContext()
    with use_context(context):
        (result,) = hta._solve_p2_ladder([block], LPHTAOptions(), context)
        expected = solve(build_p2(*block).lp, "scipy", context=context)
    assert rungs == [
        ("structured", [False]), ("interior-point", [False]), ("simplex", [True]),
    ]
    assert result.backend == "simplex"
    fallbacks = {
        name: count
        for name, count in context.telemetry.metrics.counters.items()
        if name.startswith("lp.fallback.")
    }
    assert fallbacks == {"lp.fallback.simplex": 1}
    assert expected.status.ok
    assert result.objective == pytest.approx(expected.objective, rel=1e-9)
