"""Streaming per-shard scenario tiles for city-scale workloads.

:func:`repro.workload.generator.generate_scenario` materialises one global
system, one global task list and (downstream) one global cost table — fine
at paper scale, hopeless at 10⁵+ devices.  This module generates the same
*kind* of workload shard by shard: each :class:`ScenarioTile` is an
independently drawn mini-scenario, generated directly in the global id
namespace of a contiguous :class:`~repro.system.sharding.ShardSpec` range,
so a consumer can generate → solve → discard one tile at a time and never
hold the whole city in memory.  The dense scenario is the same generator
with the identity ranges.

**Id mapping.**  The dense generator attaches device ``d`` to station
``d % k`` (round-robin).  For a shard owning the contiguous station range
``[a, a + k_s)``, the global devices attached to it are exactly
``{d : d % k ∈ [a, a+k_s)}``, and the i-th such device (sorted) is
``(i // k_s)·k + a + (i % k_s)`` — which is also where the tile's local
round-robin attachment (local device ``i`` on local station ``i % k_s``)
lands, so tile topologies embed exactly into the dense topology.  The
tile's :class:`~repro.workload.generator.IdRanges` carry these device ids,
the station range and a balanced per-shard slice of the item universe
(keeping tiles disjoint); the generator names every device, station, task
and item by them as it builds it.  Ids never change a draw: a tile equals
its sub-profile generated on its own with every id shifted.  Per-device
task counts match the dense generator's even split, device for device.

**What streaming does not preserve.**  Tiles draw from independent
per-shard RNG streams, so tile *contents* (frequencies, sizes, sources)
differ from the dense generator's at equal seeds — except for
``num_shards == 1``, where the single tile IS ``generate_scenario(profile,
seed)``, bit for bit.  External data sources are drawn shard-locally
(that independence is precisely what makes tiles streamable); the dense
generator remains the reference for cross-shard data sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.data.items import DataCatalog
from repro.data.ownership import OwnershipMap
from repro.core.task import Task
from repro.system.sharding import ShardSpec
from repro.system.topology import MECSystem
from repro.workload.generator import IdRanges, Scenario, generate_scenario
from repro.workload.profiles import WorkloadProfile

__all__ = [
    "ScenarioTile",
    "generate_tile",
    "materialize_tiles",
    "stream_scenario_tiles",
]

#: Seed stride between shards — larger than any per-scenario seed offset
#: the dense generator uses internally (it derives seed, seed+1, seed+2).
_TILE_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class ScenarioTile:
    """One shard's slice of a streamed scenario, in global ids.

    :param shard_id: index of the shard in its spec.
    :param num_shards: total shards in the spec.
    :param profile: the *global* profile being streamed.
    :param tile_profile: the per-shard sub-profile actually generated.
    :param seed: the global stream seed.
    :param tile_seed: the derived per-shard seed.
    :param system: the shard's system, in global device/station ids (a
        standalone :class:`~repro.system.topology.MECSystem`).
    :param tasks: the shard's tasks, owners/sources in global ids.
    :param catalog: the shard's data-item slice (divisible only).
    :param ownership: the shard's holdings slice (divisible only).
    """

    shard_id: int
    num_shards: int
    profile: WorkloadProfile
    tile_profile: WorkloadProfile
    seed: int
    tile_seed: int
    system: MECSystem
    tasks: Tuple[Task, ...]
    catalog: Optional[DataCatalog] = None
    ownership: Optional[OwnershipMap] = None

    @property
    def num_devices(self) -> int:
        """Devices in this tile."""
        return self.system.num_devices

    @property
    def num_tasks(self) -> int:
        """Tasks in this tile."""
        return len(self.tasks)


def _contiguous_range(stations: Tuple[int, ...]) -> Tuple[int, int]:
    """The shard's ``(first, count)`` station range; raises if gapped."""
    first, count = stations[0], len(stations)
    if stations != tuple(range(first, first + count)):
        raise ValueError(
            "streaming tiles need contiguous shard station ranges "
            f"(got {stations}); use ShardSpec.balanced"
        )
    return first, count


def _check_spec(profile: WorkloadProfile, spec: ShardSpec) -> None:
    if spec.station_ids != tuple(range(profile.num_stations)):
        raise ValueError(
            f"spec covers stations {spec.station_ids}, profile has "
            f"0..{profile.num_stations - 1}"
        )
    if profile.divisible and profile.num_data_items < spec.num_shards:
        raise ValueError(
            "divisible streaming needs at least one data item per shard "
            f"({profile.num_data_items} items, {spec.num_shards} shards)"
        )


def _devices_below(limit: int, k: int, first: int, width: int) -> int:
    """How many global devices ``d < limit`` have ``d % k ∈ [first,
    first+width)`` — i.e. attach inside the shard's station range."""
    rounds, partial = divmod(limit, k)
    return rounds * width + max(0, min(partial, first + width) - first)


def _item_slice(num_items: int, num_shards: int, shard_id: int) -> Tuple[int, int]:
    """Balanced ``(offset, count)`` slice of the item universe."""
    base, extra = divmod(num_items, num_shards)
    count = base + (1 if shard_id < extra else 0)
    offset = shard_id * base + min(shard_id, extra)
    return offset, count


def generate_tile(
    profile: WorkloadProfile,
    spec: ShardSpec,
    shard_id: int,
    seed: int = 0,
) -> ScenarioTile:
    """Generate one shard's tile of the streamed scenario.

    Pure in (profile, spec, shard_id, seed) — tiles can be generated in any
    order, in any process, and stay bit-identical.  The tile is generated
    directly in the shard's global ids, so every device, station and task
    is built once.  A one-shard spec returns ``generate_scenario(profile,
    seed)``, which pins the streaming path to the dense reference.

    :param profile: the global workload profile.
    :param spec: contiguous station partition covering the profile.
    :param shard_id: which shard to generate.
    :param seed: the global stream seed.
    """
    _check_spec(profile, spec)
    stations = spec.shards[shard_id]
    first, width = _contiguous_range(stations)
    k = profile.num_stations
    n = profile.num_devices

    num_devices = _devices_below(n, k, first, width)
    base, extra = divmod(profile.num_tasks, n)
    num_tasks = base * num_devices + _devices_below(extra, k, first, width)
    item_offset, num_items = _item_slice(
        profile.num_data_items, spec.num_shards, shard_id
    )
    tile_profile = profile.with_updates(
        num_stations=width,
        num_devices=num_devices,
        # The dense generator's task RNG (seed+1) is independent of its
        # system RNG (seed), so a zero-task tile generates with a one-task
        # placeholder profile and drops the task list afterwards.
        num_tasks=max(num_tasks, 1),
        num_data_items=num_items,
    )
    if spec.num_shards == 1:
        tile_seed = seed
    else:
        tile_seed = seed + (shard_id + 1) * _TILE_SEED_STRIDE
    ids = IdRanges(
        devices=tuple(
            (local // width) * k + first + (local % width)
            for local in range(num_devices)
        ),
        stations=range(first, first + width),
        items=range(item_offset, item_offset + num_items),
    )
    scenario = generate_scenario(tile_profile, tile_seed, ids)
    return ScenarioTile(
        shard_id=shard_id,
        num_shards=spec.num_shards,
        profile=profile,
        tile_profile=tile_profile,
        seed=seed,
        tile_seed=tile_seed,
        system=scenario.system,
        tasks=scenario.tasks if num_tasks else (),
        catalog=scenario.catalog,
        ownership=scenario.ownership,
    )


def stream_scenario_tiles(
    profile: WorkloadProfile,
    spec: Optional[ShardSpec] = None,
    num_shards: int = 1,
    seed: int = 0,
) -> Iterator[ScenarioTile]:
    """Yield the scenario one shard tile at a time.

    :param profile: the global workload profile.
    :param spec: station partition; defaults to
        ``ShardSpec.balanced(range(num_stations), num_shards)``.
    :param num_shards: shard count used when ``spec`` is omitted.
    :param seed: the global stream seed.
    """
    if spec is None:
        spec = ShardSpec.balanced(range(profile.num_stations), num_shards)
    for shard_id in range(spec.num_shards):
        yield generate_tile(profile, spec, shard_id, seed)


def materialize_tiles(
    profile: WorkloadProfile,
    spec: Optional[ShardSpec] = None,
    num_shards: int = 1,
    seed: int = 0,
) -> Scenario:
    """Assemble the streamed tiles into one dense :class:`Scenario`.

    The inverse check for streaming: the combined system has every tile as
    a station-range shard, tasks ordered canonically by (owner, index).
    Intended for differential tests and paper-scale instances — at city
    scale, stream the tiles instead.
    """
    tiles = list(stream_scenario_tiles(profile, spec, num_shards, seed))
    if len(tiles) == 1:
        tile = tiles[0]
        return Scenario(
            profile=profile,
            seed=seed,
            system=tile.system,
            tasks=tile.tasks,
            catalog=tile.catalog,
            ownership=tile.ownership,
        )
    devices = sorted(
        (device for tile in tiles for device in tile.system.devices.values()),
        key=lambda device: device.device_id,
    )
    station_list = sorted(
        (station for tile in tiles for station in tile.system.stations.values()),
        key=lambda station: station.station_id,
    )
    attachment = {
        device.device_id: tile.system.cluster_of(device.device_id)
        for tile in tiles
        for device in tile.system.devices.values()
    }
    reference = tiles[0].system
    system = MECSystem(
        devices=devices,
        stations=station_list,
        attachment=attachment,
        cloud=reference.cloud,
        bs_bs_link=reference.bs_bs_link,
        bs_cloud_link=reference.bs_cloud_link,
        parameters=reference.parameters,
    )
    tasks = tuple(
        sorted(
            (task for tile in tiles for task in tile.tasks),
            key=lambda task: (task.owner_device_id, task.index),
        )
    )
    catalog = None
    ownership = None
    if all(tile.catalog is not None for tile in tiles):
        sizes = {}
        for tile in tiles:
            for item in tile.catalog.item_ids:
                sizes[item] = tile.catalog.size_of(item)
        catalog = DataCatalog.from_sizes(sizes)
    if all(tile.ownership is not None for tile in tiles):
        holdings: dict = {}
        for tile in tiles:
            for device in tile.system.devices:
                holdings[device] = set(tile.ownership.items_of(device))
        ownership = OwnershipMap(holdings)
    return Scenario(
        profile=profile,
        seed=seed,
        system=system,
        tasks=tasks,
        catalog=catalog,
        ownership=ownership,
    )
