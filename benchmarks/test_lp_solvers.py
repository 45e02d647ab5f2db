"""Raw LP-solver checks: every P2 backend solves the same instance.

The structured solver is what makes the 900-task sweeps feasible; these
tests pin that it, the generic dense IPM and the simplex all reach an
optimum on the same P2 instance, and that the two interior-point
objectives agree with scipy's.
"""

import pytest

from repro.core.costs import cluster_costs
from repro.core.lp_builder import build_p2, build_p2_structured
from repro.lp.backends import solve
from repro.lp.structured import solve_structured
from repro.workload import PAPER_DEFAULTS, generate_scenario


def _p2_instance(num_tasks: int):
    scenario = generate_scenario(
        PAPER_DEFAULTS.with_updates(
            num_tasks=num_tasks, num_devices=10, num_stations=1
        ),
        seed=0,
    )
    costs = cluster_costs(scenario.system, list(scenario.tasks))
    caps = {d: scenario.system.device(d).max_resource for d in scenario.system.devices}
    cap = scenario.system.station(0).max_resource
    return costs, caps, cap


@pytest.fixture(scope="module")
def p2_small():
    return _p2_instance(60)


@pytest.fixture(scope="module")
def p2_large():
    return _p2_instance(400)


def test_structured_ipm_small(p2_small):
    costs, caps, cap = p2_small
    build = build_p2_structured(costs, caps, cap)
    result = solve_structured(build.lp)
    assert result.status.ok


def test_structured_ipm_large(p2_large):
    costs, caps, cap = p2_large
    build = build_p2_structured(costs, caps, cap)
    result = solve_structured(build.lp)
    assert result.status.ok


def test_dense_ipm_small(p2_small):
    costs, caps, cap = p2_small
    build = build_p2(costs, caps, cap)
    result = solve(build.lp, "interior-point")
    assert result.status.ok


def test_simplex_small(p2_small):
    costs, caps, cap = p2_small
    build = build_p2(costs, caps, cap)
    result = solve(build.lp, "simplex")
    assert result.status.ok


def test_backends_same_objective(p2_small):
    """The three P2 paths agree on the optimum (scipy as the reference)."""
    costs, caps, cap = p2_small
    generic = build_p2(costs, caps, cap)
    structured = build_p2_structured(costs, caps, cap)
    reference = solve(generic.lp, "scipy").objective
    assert solve_structured(structured.lp).objective == pytest.approx(
        reference, rel=1e-6
    )
    assert solve(generic.lp, "interior-point").objective == pytest.approx(
        reference, rel=1e-5
    )


def test_des_kernel_throughput():
    """Substrate: the event kernel processes every event it was given."""
    from repro.des.kernel import EventSimulator

    sim = EventSimulator()
    for index in range(20_000):
        sim.schedule(float(index % 97) / 10.0, lambda: None)
    sim.run()
    assert sim.events_processed == 20_000
