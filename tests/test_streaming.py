"""Streaming scenario tiles: structure, identity and solve equivalence."""

import dataclasses
from unittest import mock

import pytest

from repro.context import RunContext, use_context
from repro.core.hta import lp_hta
from repro.data.items import DataCatalog
from repro.data.ownership import OwnershipMap
from repro.system.sharding import ShardSpec
from repro.system.topology import MECSystem
from repro.workload import PAPER_DEFAULTS, array_gen, generate_scenario
from repro.workload.streaming import (
    _TILE_SEED_STRIDE,
    _contiguous_range,
    _devices_below,
    _item_slice,
    generate_tile,
    materialize_tiles,
    stream_scenario_tiles,
)


def _relabelled_tile(profile, spec, shard_id, seed):
    """Oracle: generate the tile in local ids, then relabel every object.

    This is how tiles were built before the generator learnt global ids:
    a standalone ``generate_scenario`` of the shard's sub-profile, whose
    devices, stations, tasks, catalog and ownership are then copied into
    the shard's slice of the global namespace.  Returns ``(system, tasks,
    catalog, ownership)``.
    """
    first, width = _contiguous_range(spec.shards[shard_id])
    k = profile.num_stations
    n = profile.num_devices
    if spec.num_shards == 1:
        scenario = generate_scenario(profile, seed)
        return (
            scenario.system, scenario.tasks, scenario.catalog,
            scenario.ownership,
        )
    num_devices = _devices_below(n, k, first, width)
    base, extra = divmod(profile.num_tasks, n)
    num_tasks = base * num_devices + _devices_below(extra, k, first, width)
    item_offset, num_items = _item_slice(
        profile.num_data_items, spec.num_shards, shard_id
    )
    tile_profile = profile.with_updates(
        num_stations=width,
        num_devices=num_devices,
        num_tasks=max(num_tasks, 1),
        num_data_items=num_items,
    )
    scenario = generate_scenario(
        tile_profile, seed + (shard_id + 1) * _TILE_SEED_STRIDE
    )
    local_system = scenario.system
    device_map = [
        (local // width) * k + first + (local % width)
        for local in range(num_devices)
    ]
    devices = [
        dataclasses.replace(
            local_system.device(local),
            device_id=device_map[local],
            data_items=frozenset(
                item + item_offset
                for item in local_system.device(local).data_items
            ),
        )
        for local in range(num_devices)
    ]
    stations = [
        dataclasses.replace(local_system.station(local), station_id=first + local)
        for local in range(width)
    ]
    system = MECSystem(
        devices=devices,
        stations=stations,
        attachment={
            device_map[local]: first + local_system.cluster_of(local)
            for local in range(num_devices)
        },
        cloud=local_system.cloud,
        bs_bs_link=local_system.bs_bs_link,
        bs_cloud_link=local_system.bs_cloud_link,
        parameters=local_system.parameters,
    )
    tasks = tuple(
        dataclasses.replace(
            task,
            owner_device_id=device_map[task.owner_device_id],
            external_source=(
                None
                if task.external_source is None
                else device_map[task.external_source]
            ),
            required_items=frozenset(
                item + item_offset for item in task.required_items
            ),
        )
        for task in scenario.tasks[:num_tasks]
    )
    catalog = None
    ownership = None
    if scenario.catalog is not None:
        catalog = DataCatalog.from_sizes(
            {
                item + item_offset: scenario.catalog.size_of(item)
                for item in scenario.catalog.item_ids
            }
        )
    if scenario.ownership is not None:
        ownership = OwnershipMap(
            {
                device_map[local]: {
                    item + item_offset
                    for item in scenario.ownership.items_of(local)
                }
                for local in range(num_devices)
            }
        )
    return system, tasks, catalog, ownership


def _assert_same_tile(tile, oracle):
    """Field-for-field equality of a tile and the relabel oracle's tile."""
    system, tasks, catalog, ownership = oracle
    assert tile.tasks == tasks
    assert list(tile.system.devices.items()) == list(system.devices.items())
    assert list(tile.system.stations.items()) == list(system.stations.items())
    assert {d: tile.system.cluster_of(d) for d in tile.system.devices} == {
        d: system.cluster_of(d) for d in system.devices
    }
    assert tile.system.cloud == system.cloud
    assert tile.system.parameters == system.parameters
    if catalog is None:
        assert tile.catalog is None
    else:
        assert dict(tile.catalog.sizes()) == dict(catalog.sizes())
    if ownership is None:
        assert tile.ownership is None
    else:
        assert tile.ownership.device_ids == ownership.device_ids
        for device in ownership.device_ids:
            assert tile.ownership.items_of(device) == ownership.items_of(device)


@pytest.fixture(scope="module")
def profile():
    return PAPER_DEFAULTS.with_updates(
        num_devices=14, num_stations=4, num_tasks=40
    )


class TestSingleShardIdentity:
    def test_tile_is_the_dense_scenario(self, profile):
        dense = generate_scenario(profile, seed=5)
        tile = generate_tile(
            profile, ShardSpec.balanced(range(4), 1), 0, seed=5
        )
        assert tile.tasks == dense.tasks
        assert list(tile.system.devices) == list(dense.system.devices)
        assert list(tile.system.stations) == list(dense.system.stations)
        assert tile.tile_seed == 5


class TestTileStructure:
    @pytest.fixture(scope="class")
    def tiles(self, profile):
        return list(stream_scenario_tiles(profile, num_shards=3, seed=0))

    def test_devices_partition_round_robin(self, profile, tiles):
        ids = sorted(d for tile in tiles for d in tile.system.devices)
        assert ids == list(range(profile.num_devices))
        for tile in tiles:
            stations = set(tile.system.stations)
            for device_id in tile.system.devices:
                # Dense attachment rule: device d sits on station d % k.
                assert tile.system.cluster_of(device_id) == device_id % 4
                assert device_id % 4 in stations

    def test_task_counts_match_dense_split(self, profile, tiles):
        assert sum(tile.num_tasks for tile in tiles) == profile.num_tasks
        dense = generate_scenario(profile, seed=0)
        dense_per_device = {}
        for task in dense.tasks:
            dense_per_device[task.owner_device_id] = (
                dense_per_device.get(task.owner_device_id, 0) + 1
            )
        for tile in tiles:
            for device_id in tile.system.devices:
                owned = sum(
                    1
                    for task in tile.tasks
                    if task.owner_device_id == device_id
                )
                assert owned == dense_per_device.get(device_id, 0)

    def test_external_sources_stay_in_tile(self, tiles):
        for tile in tiles:
            members = set(tile.system.devices)
            for task in tile.tasks:
                if task.external_source is not None:
                    assert task.external_source in members

    def test_item_slices_disjoint_when_divisible(self, profile):
        divisible = profile.with_updates(divisible=True)
        tiles = list(stream_scenario_tiles(divisible, num_shards=3, seed=0))
        seen = set()
        for tile in tiles:
            items = set(tile.catalog.item_ids)
            assert not items & seen
            seen |= items
        assert len(seen) == divisible.num_data_items

    def test_too_many_shards_for_items_rejected(self, profile):
        tiny = profile.with_updates(divisible=True, num_data_items=2)
        with pytest.raises(ValueError, match="at least one data item"):
            generate_tile(tiny, ShardSpec.balanced(range(4), 3), 0)

    def test_gapped_spec_rejected(self, profile):
        with pytest.raises(ValueError, match="contiguous"):
            generate_tile(profile, ShardSpec(((0, 2), (1, 3))), 0)


class TestSolveEquivalence:
    def test_tile_solves_match_materialized(self, profile):
        tiles = list(stream_scenario_tiles(profile, num_shards=3, seed=0))
        merged = materialize_tiles(profile, num_shards=3, seed=0)
        with use_context(RunContext()):
            merged_report = lp_hta(merged.system, list(merged.tasks))
            merged_by_key = {
                (task.owner_device_id, task.index): decision
                for task, decision in zip(
                    merged.tasks, merged_report.assignment.decisions
                )
            }
            for tile in tiles:
                report = lp_hta(tile.system, list(tile.tasks))
                for task, decision in zip(
                    tile.tasks, report.assignment.decisions
                ):
                    key = (task.owner_device_id, task.index)
                    assert merged_by_key[key] == decision

    def test_materialized_single_shard_is_dense(self, profile):
        dense = generate_scenario(profile, seed=2)
        merged = materialize_tiles(profile, num_shards=1, seed=2)
        assert merged.tasks == dense.tasks
        assert list(merged.system.devices) == list(dense.system.devices)


class TestDeterminism:
    def test_tiles_pure_in_their_inputs(self, profile):
        spec = ShardSpec.balanced(range(4), 3)
        first = generate_tile(profile, spec, 1, seed=7)
        again = generate_tile(profile, spec, 1, seed=7)
        assert first.tasks == again.tasks
        assert list(first.system.devices) == list(again.system.devices)

    def test_distinct_shards_get_distinct_streams(self, profile):
        spec = ShardSpec.balanced(range(4), 2)
        a = generate_tile(profile, spec, 0, seed=7)
        b = generate_tile(profile, spec, 1, seed=7)
        assert a.tile_seed != b.tile_seed
        assert not set(a.system.devices) & set(b.system.devices)


class TestInPlaceTilesMatchRelabelOracle:
    """Tiles generated in global ids equal tiles relabelled after the fact."""

    CITY = PAPER_DEFAULTS.with_updates(
        num_devices=48, num_stations=16, num_tasks=130,
        external_cross_cluster_prob=0.4,
    )

    @pytest.mark.parametrize("divisible", [False, True])
    @pytest.mark.parametrize("shards", [1, 2, 3, 16])
    @pytest.mark.parametrize("reference", [False, True])
    def test_tiles_equal_oracle(self, divisible, shards, reference):
        profile = self.CITY.with_updates(divisible=divisible)
        spec = ShardSpec.balanced(range(profile.num_stations), shards)
        for shard_id in range(shards):
            with use_context(RunContext(reference=reference)):
                tile = generate_tile(profile, spec, shard_id, seed=3)
                oracle = _relabelled_tile(profile, spec, shard_id, seed=3)
            _assert_same_tile(tile, oracle)

    @pytest.mark.parametrize("shards", [1, 3, 16])
    def test_array_bailout_tiles_equal_oracle(self, shards):
        spec = ShardSpec.balanced(range(self.CITY.num_stations), shards)
        for shard_id in range(shards):
            with use_context(RunContext()):
                oracle = _relabelled_tile(self.CITY, spec, shard_id, seed=3)
            context = RunContext()
            with use_context(context), mock.patch.object(
                array_gen, "generate_holistic_tasks", return_value=None
            ):
                tile = generate_tile(self.CITY, spec, shard_id, seed=3)
            assert context.telemetry.metrics.counters["generate.array_bailout"] > 0
            _assert_same_tile(tile, oracle)

    def test_zero_task_tile_equals_oracle(self):
        # Three tasks over 48 devices: devices 0-2 own one task each, all
        # on shard 0's stations, so the other shards of a 4-shard spec own
        # none.
        profile = self.CITY.with_updates(num_tasks=3)
        spec = ShardSpec.balanced(range(profile.num_stations), 4)
        with use_context(RunContext()):
            tiles = [generate_tile(profile, spec, s, seed=1) for s in range(4)]
            oracles = [_relabelled_tile(profile, spec, s, seed=1) for s in range(4)]
        assert any(tile.num_tasks == 0 for tile in tiles)
        for tile, oracle in zip(tiles, oracles):
            _assert_same_tile(tile, oracle)
