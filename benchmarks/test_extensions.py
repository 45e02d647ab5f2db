"""Shape tests for the extension modules (beyond the paper's figures).

Each quantifies one extension against the paper's core machinery:

- the decentralized game's price of anarchy vs LP-HTA,
- partial offloading's saving over binary assignment,
- the cache-capacity sweep of the [29]-style edge cache,
- the quasi-static violation rate vs planning-epoch length,
- LP-HTA's empirical approximation ratio vs exact optima.
"""

import pytest

from repro.caching import LRUCache, QueryCatalog, simulate_with_cache, zipf_query_stream
from repro.core.assignment import Subsystem
from repro.core.game import best_response_offloading
from repro.core.hta import lp_hta
from repro.experiments.ratio_study import run_ratio_study
from repro.mobility import RandomWaypointModel, analyse_handovers
from repro.partial import partial_offloading
from repro.units import MB
from repro.workload import PAPER_DEFAULTS, generate_scenario, generate_system


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(PAPER_DEFAULTS.with_updates(num_tasks=150), seed=4)


def test_game_price_of_anarchy(scenario):
    game = best_response_offloading(scenario.system, list(scenario.tasks))
    lp = lp_hta(scenario.system, list(scenario.tasks))
    assert game.converged
    cancelled = lp.assignment.subsystem_counts()[Subsystem.CANCELLED]
    poa = game.assignment.total_energy_j() / lp.assignment.total_energy_j()
    print(f"\nprice of anarchy = {poa:.3f} over {game.rounds} rounds")
    if cancelled == 0:
        assert 1.0 - 1e-9 <= poa
    # An equilibrium should still be far better than no coordination at all.
    from repro.core.baselines import all_to_cloud

    cloud = all_to_cloud(scenario.system, list(scenario.tasks))
    assert game.assignment.total_energy_j() < cloud.total_energy_j()


def test_partial_offloading_saving(scenario):
    split = partial_offloading(scenario.system, list(scenario.tasks))
    lp = lp_hta(scenario.system, list(scenario.tasks))
    binary = lp.assignment.total_energy_j()
    print(
        f"\nbinary {binary:.1f} J -> fractional {split.total_energy_j:.1f} J "
        f"({split.num_fractional} split tasks, {split.num_dropped} dropped)"
    )
    if lp.assignment.subsystem_counts()[Subsystem.CANCELLED] == 0:
        assert split.total_energy_j <= binary * 1.001


def test_cache_capacity_sweep():
    system = generate_system(PAPER_DEFAULTS, seed=0)
    catalog = QueryCatalog.generate(system, PAPER_DEFAULTS, num_queries=80, seed=1)
    stream = zipf_query_stream(system, catalog, length=400, exponent=1.3, seed=2)

    def sweep():
        return [
            simulate_with_cache(system, stream, lambda c=cap: LRUCache(c * MB))
            for cap in (1, 5, 20, 80)
        ]

    reports = sweep()
    rates = [r.hit_rate for r in reports]
    savings = [r.energy_saving_fraction for r in reports]
    print("\ncapacity (MB) -> hit rate:", [f"{r:.2f}" for r in rates])
    print("capacity (MB) -> saving:  ", [f"{s:.2f}" for s in savings])
    # More capacity never hurts.
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(savings, savings[1:]))
    assert savings[-1] > 0.3


def test_quasi_static_violation_sweep():
    system = generate_system(PAPER_DEFAULTS, seed=0)
    positions = {d: dev.position for d, dev in system.devices.items()}
    mobility = RandomWaypointModel(
        sorted(system.devices), area_side_m=2000.0,
        speed_range_mps=(2.0, 15.0), seed=1, initial_positions=positions,
    )
    stations = {sid: s.position for sid, s in system.stations.items()}

    def sweep():
        return [
            analyse_handovers(mobility, stations, 960.0, epoch)
            for epoch in (30.0, 120.0, 480.0)
        ]

    analyses = sweep()
    rates = [a.violation_rate for a in analyses]
    print("\nepoch 30/120/480 s violation rates:", [f"{r:.2f}" for r in rates])
    assert rates[0] < rates[1] < rates[2]
    assert rates[0] < 0.5 and rates[2] > 0.8


def test_empirical_ratio_study():
    study = run_ratio_study(seeds=tuple(range(12)))
    print(f"\nempirical ratio: {study.summary.format()}; "
          f"worst {study.summary.maximum:.3f}; skipped {study.skipped}")
    assert study.bound_violations == 0
    assert study.summary.maximum >= 1.0 - 1e-9
    # LP-HTA is near-optimal on small instances (far below the bound of 3).
    assert study.summary.mean < 1.5


def test_congestion_fixed_point(scenario):
    from repro.congestion import congestion_aware_assignment
    from repro.system.interference import InterferenceChannel

    channel = InterferenceChannel(
        bandwidth_hz=5e6, channel_gain=1e-6, tx_power_w=0.5,
        noise_power_w=1e-9, orthogonality_loss=0.02,
    )
    result = congestion_aware_assignment(
        scenario.system, list(scenario.tasks), channel
    )
    print(
        f"\nfixed point in {result.iterations} rounds; "
        f"blind {result.naive_energy_j:.0f} J vs self-consistent "
        f"{result.final_energy_j:.0f} J"
    )
    assert result.converged
    # Blind pricing can only underestimate when uplinks are actually shared.
    offloaded = sum(result.concurrency_history[-1].values())
    if offloaded > len(scenario.system.stations):
        assert result.final_energy_j >= result.naive_energy_j - 1e-6


def test_lagrangian_vs_lp_hta(scenario):
    from repro.core.lagrangian import lagrangian_hta

    lag = lagrangian_hta(scenario.system, list(scenario.tasks))
    lp = lp_hta(scenario.system, list(scenario.tasks))
    print(
        f"\ndual bound {lag.best_dual_j:.1f} J vs E_LP_OPT "
        f"{lp.lp_objective_j:.1f} J; primal {lag.primal_energy_j:.1f} J vs "
        f"LP-HTA {lp.assignment.total_energy_j():.1f} J"
    )
    assert lag.best_dual_j <= lag.primal_energy_j + 1e-6
    # The dual can never exceed the LP relaxation optimum (same instance,
    # both relax C2/C3-coupled integrality; integrality property).
    assert lag.best_dual_j <= lp.lp_objective_j * 1.001


def test_dvfs_saving(scenario):
    from repro.dvfs import rescale_assignment

    lp = lp_hta(scenario.system, list(scenario.tasks))
    result = rescale_assignment(
        scenario.system, list(scenario.tasks), lp.assignment
    )
    print(
        f"\nDVFS: {result.nominal_energy_j:.1f} J -> "
        f"{result.scaled_energy_j:.1f} J ({result.saving_fraction:.1%} saved "
        "on the locally-run share)"
    )
    assert result.scaled_energy_j <= result.nominal_energy_j + 1e-9
    # Deadlines leave slack in this scenario: real savings must appear.
    assert result.saving_fraction > 0.01
