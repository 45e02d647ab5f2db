"""Generative models for shared-data universes.

Two ways to produce a (catalog, ownership) pair:

- :func:`random_overlap_universe` — each item is held by a random number of
  devices (≥ 1), matching a target mean replication.  The fastest way to a
  data-shared workload.
- :func:`spatial_grid_universe` — items sit on a grid of monitoring regions
  and a device owns the items within its sensing radius, reproducing the
  paper's motivating scenarios (city-wide traffic monitoring, object
  tracking) where nearby devices observe overlapping regions.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.data.items import DataCatalog, DataItem
from repro.data.ownership import OwnershipMap

__all__ = ["random_overlap_universe", "spatial_grid_universe"]


def _item_sizes(
    num_items: int,
    mean_size_bytes: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Item sizes uniform in [0.5, 1.5]·mean (positive, finite)."""
    if mean_size_bytes <= 0:
        raise ValueError("mean_size_bytes must be positive")
    return rng.uniform(0.5 * mean_size_bytes, 1.5 * mean_size_bytes, size=num_items)


def random_overlap_universe(
    num_items: int,
    device_ids: Sequence[int],
    mean_size_bytes: float,
    replication: float = 3.0,
    seed: int = 0,
    first_item_id: int = 0,
) -> Tuple[DataCatalog, OwnershipMap]:
    """A universe where each item is replicated on ~``replication`` devices.

    :param num_items: M, the number of data items.
    :param device_ids: ids of the devices that can own data.
    :param mean_size_bytes: mean item size.
    :param replication: target mean number of owners per item (≥ 1; each
        item always has at least one owner so the universe is coverable).
    :param seed: RNG seed.
    :param first_item_id: id of the first item; items are numbered
        consecutively from it.  The draws do not depend on it.
    """
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    if not device_ids:
        raise ValueError("need at least one device")
    if replication < 1:
        raise ValueError("replication must be at least 1")
    rng = np.random.default_rng(seed)
    sizes = _item_sizes(num_items, mean_size_bytes, rng)
    catalog = DataCatalog(
        DataItem(item_id, float(size))
        for item_id, size in enumerate(sizes, first_item_id)
    )

    holdings: Dict[int, Set[int]] = {device_id: set() for device_id in device_ids}
    ids = np.asarray(device_ids)
    for item_id in range(first_item_id, first_item_id + num_items):
        extra = int(rng.poisson(max(replication - 1.0, 0.0)))
        count = min(len(ids), 1 + extra)
        owners = rng.choice(ids, size=count, replace=False)
        for owner in owners:
            holdings[int(owner)].add(item_id)
    return catalog, OwnershipMap(holdings)


def spatial_grid_universe(
    grid_side: int,
    device_positions: Dict[int, Tuple[float, float]],
    area_side_m: float,
    sensing_radius_m: float,
    mean_size_bytes: float,
    seed: int = 0,
) -> Tuple[DataCatalog, OwnershipMap]:
    """A universe of grid-cell items owned by devices within sensing range.

    The monitored area ``[0, area_side_m]²`` is divided into
    ``grid_side × grid_side`` cells; the item of a cell is owned by every
    device within ``sensing_radius_m`` of the cell centre.  Items nobody can
    sense are dropped from the catalog (no device can ever process them).

    :param grid_side: cells per axis.
    :param device_positions: device id → (x, y), metres.
    :param area_side_m: side length of the monitored square.
    :param sensing_radius_m: a device's sensing radius.
    :param mean_size_bytes: mean item size.
    :param seed: RNG seed for item sizes.
    """
    if grid_side <= 0:
        raise ValueError("grid_side must be positive")
    if area_side_m <= 0 or sensing_radius_m <= 0:
        raise ValueError("area and radius must be positive")
    if not device_positions:
        raise ValueError("need at least one positioned device")
    rng = np.random.default_rng(seed)
    cell = area_side_m / grid_side

    holdings: Dict[int, Set[int]] = {device_id: set() for device_id in device_positions}
    covered: List[int] = []
    item_id = 0
    for row in range(grid_side):
        for col in range(grid_side):
            centre = ((col + 0.5) * cell, (row + 0.5) * cell)
            owners = [
                device_id
                for device_id, (x, y) in device_positions.items()
                if math.hypot(x - centre[0], y - centre[1]) <= sensing_radius_m
            ]
            if owners:
                covered.append(item_id)
                for owner in owners:
                    holdings[owner].add(item_id)
            item_id += 1

    sizes = _item_sizes(len(covered), mean_size_bytes, rng)
    catalog = DataCatalog(
        DataItem(cid, float(size)) for cid, size in zip(covered, sizes)
    )
    return catalog, OwnershipMap(holdings)
