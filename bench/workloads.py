"""The benchmark's four workloads.

Each workload turns ``--seed`` into inputs, runs one warm-up operation on
inputs outside that set, then hands the timed loop a list of operations.
An operation is one call into the program — one figure sweep, one city
tile or one online epoch — and returns its output plus the number of task
decisions it made.  Every repetition of a workload with the same seed
runs the same operations on the same inputs.

Why each workload exists:

- ``sweep_holistic`` — the paper's own evaluation (Figs 2a/2b/3/4a/4b),
  in-process like the CLI default.  Small batched LPs, and the only
  workload where the LP solve cache hits: fig3/fig4a reuse fig2a's
  relaxations under the unit's shared context.
- ``sweep_divisible`` — Figs 5a/5b/6a on a two-worker pool: DTA cover,
  rearrangement and accounting, the object-path generator and pool
  dispatch/IPC do the work.  No cache hits.
- ``city_tiles`` — two tiles of the 16-shard, 10^5-device city, streamed
  in-process: the array generator, the 625-block mega-solve and the
  Python repair loops.  No DTA, no pool, no cache hits; peak memory
  matters.
- ``online_faulty`` — the epoch scheduler under Poisson arrivals,
  random-waypoint mobility and link/device/station faults with ``reassign``
  recovery, one epoch per call: small latency-bound solves, DES replay,
  recovery and per-epoch re-pricing.  The only workload that replays.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.context import RunContext, Telemetry, use_context
from repro.experiments import figures
from repro.experiments.parallel import TileCell, run_tiles, shutdown_pools
from repro.faults.model import FaultConfig, generate_fault_plan
from repro.mobility import RandomWaypointModel
from repro.online import OnlineOptions, PoissonArrivals, simulate_online
from repro.system.sharding import ShardSpec
from repro.workload import PAPER_DEFAULTS, generate_system

#: One timed call: returns (output, task decisions made).
Operation = Callable[[], Tuple[Any, int]]

#: Scenario seeds in [0, 200) whose LP-HTA Step 1 descends the solver
#: fallback ladder in at least one of the holistic figures' sweep points
#: (found by running the five figures once per seed).  Such a seed costs
#: about 2.4x a clean one, so a run's time would hinge on how many of them
#: its draw happened to contain.  ``sweep_holistic`` therefore draws only
#: clean seeds from ``--seed`` and adds one fixed ladder seed to every run:
#: one seed in nine, close to the one in ten of the screened range.
LADDER_SEEDS: Tuple[int, ...] = (
    16, 26, 29, 57, 64, 67, 75, 82, 91, 111, 112, 119, 128, 147, 153, 164,
    186, 189, 197,
)
LADDER_SEED = 57
CLEAN_SEEDS: Tuple[int, ...] = tuple(
    s for s in range(200) if s not in LADDER_SEEDS
)

#: Warm-up inputs come from seeds outside every drawn set.
WARMUP_SEED = 1000


def canonical(value: Any) -> Any:
    """A JSON-ready form of an output; floats keep 12 significant digits.

    Twelve digits catch any change to what the program computes, while a
    last-bit difference in a vectorised math kernel cannot flip a digest.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return format(value, ".12g")
    if is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """SHA-256 of :func:`canonical` ``value``."""
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(values: Sequence[float]) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


class Workload:
    """Inputs, warm-up and timed operations of one workload.

    :param seed: the benchmark seed every input derives from.
    :param toy: a tiny instance of the same shape (``--smoke``).
    """

    name = ""
    why = ""
    jobs = 1

    def __init__(self, seed: int, toy: bool = False) -> None:
        self.seed = seed
        self.toy = toy
        self.telemetry = Telemetry()

    def warmup(self) -> None:
        """Run one operation on inputs outside the timed set."""
        raise NotImplementedError

    def operations(self) -> List[Operation]:
        """The timed operations, in order."""
        raise NotImplementedError

    def check(self, output: Any) -> bool:
        """Whether one operation's output satisfies the workload's
        invariants (the pinned digests check the exact values)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pools and other process-wide state."""
        shutdown_pools()


def _figure_tasks(figure_id: str, data: Any, seeds: int) -> int:
    """Task decisions one figure call made: tasks × seeds × evaluators."""
    fixed = {"fig2b": 100, "fig4b": 100, "fig5b": 100, "fig6a": 200}
    per_point = [fixed.get(figure_id, x) for x in data.x_values]
    return sum(per_point) * seeds * len(data.series)


class _Sweep(Workload):
    """Figure sweeps: each unit runs ``figure_ids`` over three seeds under
    one fresh :class:`RunContext`, as ``mecrepro all-figures`` does."""

    figure_ids: Tuple[str, ...] = ()

    def unit_seeds(self) -> List[Tuple[int, ...]]:
        raise NotImplementedError

    def _figure(self, context: RunContext, figure_id: str, seeds: Tuple[int, ...]) -> Operation:
        def run() -> Tuple[Any, int]:
            with use_context(context):
                data = figures.run_figure(figure_id, seeds=seeds, jobs=self.jobs)
            return data, _figure_tasks(figure_id, data, len(seeds))

        return run

    def operations(self) -> List[Operation]:
        ops: List[Operation] = []
        for seeds in self.unit_seeds():
            context = RunContext(telemetry=self.telemetry)
            ops.extend(self._figure(context, f, seeds) for f in self.figure_ids)
        return ops

    def check(self, output: Any) -> bool:
        # NaN marks a quarantined sweep cell.
        values = [v for series in output.series.values() for v in series]
        rates_ok = output.figure_id != "fig3" or all(v <= 1.0 for v in values)
        return _finite(values) and rates_ok


class SweepHolistic(_Sweep):
    name = "sweep_holistic"
    why = (
        "Figs 2a/2b/3/4a/4b in-process: small batched LPs; the only "
        "workload where the LP solve cache hits"
    )
    figure_ids = ("fig2a", "fig2b", "fig3", "fig4a", "fig4b")

    def unit_seeds(self) -> List[Tuple[int, ...]]:
        clean = random.Random(self.seed).sample(CLEAN_SEEDS, 8)
        if self.toy:
            return [(clean[0],)]
        return [(LADDER_SEED, clean[0], clean[1])] + [
            tuple(clean[i : i + 3]) for i in (2, 5)
        ]

    def warmup(self) -> None:
        with use_context(RunContext()):
            figures.run_figure("fig4b", seeds=(WARMUP_SEED,), jobs=self.jobs)


class SweepDivisible(_Sweep):
    name = "sweep_divisible"
    why = (
        "Figs 5a/5b/6a on a 2-worker pool: DTA cover/rearrange/accounting "
        "and pool dispatch; no cache hits"
    )
    figure_ids = ("fig5a", "fig5b", "fig6a")
    jobs = 2

    def unit_seeds(self) -> List[Tuple[int, ...]]:
        rng = random.Random(self.seed)
        if self.toy:
            return [(rng.randrange(200),)]
        return [tuple(rng.sample(range(200), 3))]

    def warmup(self) -> None:
        # Forks the pool's two workers (fig5b has five sweep columns).
        with use_context(RunContext()):
            figures.run_figure(
                "fig5b", seeds=(WARMUP_SEED, WARMUP_SEED + 1), jobs=self.jobs
            )


class CityTiles(Workload):
    name = "city_tiles"
    why = (
        "2 tiles of the 16-shard 10^5-device city in-process: array "
        "generator, 625-block mega-solve, repair loops; peak memory"
    )

    #: Per-shard size of ``scripts/bench_scale.py``: 6250 devices over 625
    #: stations, two tasks per device; 16 shards make 10^5 devices.
    SHARDS = 16
    DEVICES, STATIONS, TASKS_PER_DEVICE = 6250, 625, 2
    TILES = (0, 1)
    #: (devices, stations, shards) of the warm-up and ``--smoke`` city.
    TOY = (200, 20, 2)

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.context = RunContext(telemetry=self.telemetry)

    def _city(self, devices: int, stations: int, shards: int) -> Tuple[Any, ShardSpec]:
        profile = PAPER_DEFAULTS.with_updates(
            num_devices=devices * shards,
            num_stations=stations * shards,
            num_tasks=devices * shards * self.TASKS_PER_DEVICE,
        )
        return profile, ShardSpec.balanced(range(profile.num_stations), shards)

    def _tile(self, profile: Any, spec: ShardSpec, shard_id: int, seed: int) -> Operation:
        def run() -> Tuple[Any, int]:
            with use_context(self.context):
                (result,) = run_tiles(
                    [TileCell(profile=profile, spec=spec, shard_id=shard_id, seed=seed)],
                    jobs=1,
                )
            return result, 0 if result is None else result.num_tasks

        return run

    def warmup(self) -> None:
        profile, spec = self._city(*self.TOY)
        with use_context(RunContext()):
            run_tiles([TileCell(profile, spec, 0, WARMUP_SEED)], jobs=1)

    def operations(self) -> List[Operation]:
        if self.toy:
            profile, spec = self._city(*self.TOY)
            return [self._tile(profile, spec, 0, self.seed)]
        profile, spec = self._city(self.DEVICES, self.STATIONS, self.SHARDS)
        return [self._tile(profile, spec, t, self.seed) for t in self.TILES]

    def check(self, output: Any) -> bool:
        if output is None:  # quarantined tile
            return False
        devices, stations, _ = self.TOY if self.toy else (
            self.DEVICES, self.STATIONS, self.SHARDS
        )
        return (
            output.num_devices == devices
            and output.num_stations == stations
            and output.num_tasks == devices * self.TASKS_PER_DEVICE
            and 0 <= output.cancelled <= output.num_tasks
            and _finite([output.total_energy_j, output.lp_objective_j])
        )


@dataclass
class _OnlineSystem:
    system: Any
    epochs: List[List[Any]]
    mobility: RandomWaypointModel
    plan: Any


class OnlineFaulty(Workload):
    name = "online_faulty"
    why = (
        "epoch scheduler, Poisson 4/s, mobility, faults with reassign "
        "recovery, one epoch per call: DES replay and recovery"
    )

    EPOCH_S = 10.0
    RATE_PER_S = 4.0
    #: Systems per repetition and epochs each.  The systems and their
    #: fault plans are fixed; ``--seed`` draws the arrivals and the
    #: mobility.  How many epochs descend the LP fallback ladder (each
    #: costs about ten ordinary epochs) depends mostly on the system and
    #: its fault plan, so fixing them keeps a run's cost from hinging on
    #: the draw.
    SYSTEMS, EPOCHS = 6, 30

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.context = RunContext(telemetry=self.telemetry)
        self.options = OnlineOptions(
            epoch_length_s=self.EPOCH_S, policy="lp-hta", recovery="reassign"
        )

    def build(self, system_seed: int, traffic_seed: int, epochs: int) -> _OnlineSystem:
        """One system and its fault plan (resilience-sweep fault defaults,
        λ = 0.05/s) from ``system_seed``; Poisson arrivals cut into epochs
        and a waypoint model from ``traffic_seed``."""
        horizon = epochs * self.EPOCH_S
        system = generate_system(PAPER_DEFAULTS, seed=system_seed)
        config = FaultConfig(
            horizon_s=horizon, intensity_per_s=0.05, mean_outage_s=6.0,
            departure_ratio=0.004, crash_ratio=0.002,
        )
        plan = generate_fault_plan(system, config, seed=system_seed)
        arrivals = PoissonArrivals(
            system, PAPER_DEFAULTS, rate_per_s=self.RATE_PER_S, seed=traffic_seed
        ).generate(horizon)
        batches: List[List[Any]] = [[] for _ in range(epochs)]
        for timed in arrivals:
            batches[int(timed.arrival_s // self.EPOCH_S)].append(timed)
        mobility = RandomWaypointModel(
            sorted(system.devices), area_side_m=2000.0,
            speed_range_mps=(2.0, 15.0), seed=traffic_seed + 1,
            initial_positions={d: dev.position for d, dev in system.devices.items()},
        )
        return _OnlineSystem(system, batches, mobility, plan)

    def _epoch(self, online: _OnlineSystem, batch: List[Any]) -> Operation:
        def run() -> Tuple[Any, int]:
            report = simulate_online(
                online.system, batch, self.options, mobility=online.mobility,
                context=self.context, fault_plan=online.plan,
            )
            return report, len(batch)

        return run

    def warmup(self) -> None:
        # System 0 is outside the timed set, which uses systems 1..SYSTEMS.
        online = self.build(0, 0, 3)
        warm = RunContext()
        for batch in online.epochs:
            simulate_online(
                online.system, batch, self.options, mobility=online.mobility,
                context=warm, fault_plan=online.plan,
            )

    def operations(self) -> List[Operation]:
        systems, epochs = (1, 4) if self.toy else (self.SYSTEMS, self.EPOCHS)
        ops: List[Operation] = []
        for k in range(systems):
            traffic_seed = 2 * (systems * self.seed + k) + 2
            online = self.build(k + 1, traffic_seed, epochs)
            ops.extend(self._epoch(online, batch) for batch in online.epochs)
        return ops

    def check(self, output: Any) -> bool:
        return len(output.epochs) <= 1 and all(
            0.0 <= e.realized_unsatisfied <= 1.0
            and _finite([e.planned_energy_j, e.realized_energy_j])
            for e in output.epochs
        )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (SweepHolistic, SweepDivisible, CityTiles, OnlineFaulty)
}
