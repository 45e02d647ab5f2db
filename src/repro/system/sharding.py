"""Station shards of a city-scale MEC system.

The paper's quasi-static cluster assumption makes clusters independent: a
task runs on its own device, its own base station, or the shared cloud
(Section III-A).  A *shard* groups whole clusters, so splitting the
stations into shards never changes a per-cluster solve.
:class:`ShardSpec` is that partition: the streaming tile generator
(:mod:`repro.workload.streaming`) builds one tile per shard, and
:func:`repro.core.sharded.lp_hta_sharded` validates a spec against its
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = ["ShardSpec"]


@dataclass(frozen=True)
class ShardSpec:
    """A partition of station ids into shards.

    :param shards: per-shard tuples of station ids.  Shards must be
        non-empty and pairwise disjoint; ids within a shard are kept
        sorted.  Whether the spec *covers* a concrete system's stations is
        checked where a spec meets a system
        (:func:`repro.core.sharded.lp_hta_sharded`).
    """

    shards: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a ShardSpec needs at least one shard")
        normalized: List[Tuple[int, ...]] = []
        seen: Dict[int, int] = {}
        for shard_id, stations in enumerate(self.shards):
            ordered = tuple(sorted(stations))
            if not ordered:
                raise ValueError(f"shard {shard_id} is empty")
            if len(set(ordered)) != len(ordered):
                raise ValueError(f"shard {shard_id} repeats a station id")
            for station_id in ordered:
                if station_id in seen:
                    raise ValueError(
                        f"station {station_id} appears in shards "
                        f"{seen[station_id]} and {shard_id}"
                    )
                seen[station_id] = shard_id
            normalized.append(ordered)
        object.__setattr__(self, "shards", tuple(normalized))

    @classmethod
    def balanced(cls, station_ids: Iterable[int], num_shards: int) -> "ShardSpec":
        """A contiguous, near-even split of the sorted station ids.

        ``num_shards`` is clamped to ``[1, len(station_ids)]``; the first
        ``len % num_shards`` shards take one extra station.  Contiguity
        matters to the streaming tile generator
        (:mod:`repro.workload.streaming`), which maps round-robin device
        attachment onto contiguous station ranges.

        :param station_ids: the stations to partition.
        :param num_shards: requested shard count.
        """
        ordered = sorted(station_ids)
        if not ordered:
            raise ValueError("cannot shard an empty station set")
        count = max(1, min(num_shards, len(ordered)))
        base, extra = divmod(len(ordered), count)
        shards: List[Tuple[int, ...]] = []
        cursor = 0
        for shard_id in range(count):
            size = base + (1 if shard_id < extra else 0)
            shards.append(tuple(ordered[cursor : cursor + size]))
            cursor += size
        return cls(tuple(shards))

    @property
    def num_shards(self) -> int:
        """Number of shards in the partition."""
        return len(self.shards)

    @property
    def station_ids(self) -> Tuple[int, ...]:
        """Every station id covered by the spec (sorted)."""
        return tuple(sorted(sid for shard in self.shards for sid in shard))
