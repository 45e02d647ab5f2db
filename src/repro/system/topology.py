"""The MEC system: clusters of devices around base stations, plus the cloud.

A :class:`MECSystem` is the quasi-static snapshot the paper assumes: each
mobile device is attached to exactly one base station for the whole planning
period, base stations are pairwise connected by a backhaul link, and every
base station reaches the remote cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Tuple

from repro.system.computation import (
    DEFAULT_KAPPA,
    CyclesModel,
    ResultSizeModel,
)
from repro.system.devices import BaseStation, Cloud, MobileDevice
from repro.system.links import (
    DEFAULT_BS_BS_LINK,
    DEFAULT_BS_CLOUD_LINK,
    BackhaulLink,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["MECSystem", "SystemParameters", "nearest_station_attachment"]


def nearest_station_attachment(
    devices: Iterable[MobileDevice],
    stations: Iterable[BaseStation],
) -> Dict[int, int]:
    """Attach every device to its nearest base station (Euclidean).

    Distance ties — a device exactly equidistant from two stations — break
    deterministically to the lowest station id, so the resulting clusters
    are reproducible regardless of input ordering.

    :param devices: devices with positions.
    :param stations: candidate stations with positions.
    :raises ValueError: if any device or station has no position, or no
        stations are given.
    :returns: ``device_id -> station_id``.
    """
    placed = sorted(stations, key=lambda s: s.station_id)
    if not placed:
        raise ValueError("nearest_station_attachment needs at least one station")
    for station in placed:
        if station.position is None:
            raise ValueError(f"station {station.station_id} has no position")
    attachment: Dict[int, int] = {}
    for device in devices:
        if device.position is None:
            raise ValueError(f"device {device.device_id} has no position")
        dx, dy = device.position
        best_id = -1
        best_sq = float("inf")
        for station in placed:  # ascending ids: first win = lowest id on ties
            sx, sy = station.position
            dist_sq = (dx - sx) ** 2 + (dy - sy) ** 2
            if dist_sq < best_sq:
                best_sq = dist_sq
                best_id = station.station_id
        attachment[device.device_id] = best_id
    return attachment


@dataclass(frozen=True)
class SystemParameters:
    """System-wide modelling constants (Section V-A defaults).

    :param kappa: κ, the chip constant of the local-energy model (Eq. 2).
    :param cycles: the CPU-cycle demand model λ(y).
    :param result_size: the result-size model η(y).
    """

    kappa: float = DEFAULT_KAPPA
    cycles: CyclesModel = field(default_factory=CyclesModel)
    result_size: ResultSizeModel = field(default_factory=ResultSizeModel)


class MECSystem:
    """A three-level MEC system (Fig. 1 of the paper).

    :param devices: the mobile devices (level 1).
    :param stations: the base stations (level 2).
    :param attachment: mapping ``device_id -> station_id`` (the quasi-static
        radio association; defines the clusters).
    :param cloud: the remote cloud (level 3).
    :param bs_bs_link: backhaul link model between any two base stations.
    :param bs_cloud_link: link model between any base station and the cloud.
    :param parameters: system-wide modelling constants.
    """

    def __init__(
        self,
        devices: Iterable[MobileDevice],
        stations: Iterable[BaseStation],
        attachment: Mapping[int, int],
        cloud: Cloud = Cloud(),
        bs_bs_link: BackhaulLink = DEFAULT_BS_BS_LINK,
        bs_cloud_link: BackhaulLink = DEFAULT_BS_CLOUD_LINK,
        parameters: SystemParameters = SystemParameters(),
    ) -> None:
        self._devices: Dict[int, MobileDevice] = {}
        for device in devices:
            if device.device_id in self._devices:
                raise ValueError(f"duplicate device id {device.device_id}")
            self._devices[device.device_id] = device

        self._stations: Dict[int, BaseStation] = {}
        for station in stations:
            if station.station_id in self._stations:
                raise ValueError(f"duplicate station id {station.station_id}")
            self._stations[station.station_id] = station

        if not self._devices:
            raise ValueError("a MEC system needs at least one mobile device")
        if not self._stations:
            raise ValueError("a MEC system needs at least one base station")

        self._attachment: Dict[int, int] = dict(attachment)
        missing = set(self._devices) - set(self._attachment)
        if missing:
            raise ValueError(f"devices without a base station: {sorted(missing)}")
        for device_id, station_id in self._attachment.items():
            if device_id not in self._devices:
                raise ValueError(f"attachment references unknown device {device_id}")
            if station_id not in self._stations:
                raise ValueError(
                    f"device {device_id} attached to unknown station {station_id}"
                )

        self.cloud = cloud
        self.bs_bs_link = bs_bs_link
        self.bs_cloud_link = bs_cloud_link
        self.parameters = parameters

        self._clusters: Dict[int, List[int]] = {sid: [] for sid in self._stations}
        for device_id in sorted(self._devices):
            self._clusters[self._attachment[device_id]].append(device_id)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def devices(self) -> Mapping[int, MobileDevice]:
        """All mobile devices, keyed by device id."""
        return self._devices

    @property
    def stations(self) -> Mapping[int, BaseStation]:
        """All base stations, keyed by station id."""
        return self._stations

    @property
    def num_devices(self) -> int:
        """n, the number of mobile devices (= users)."""
        return len(self._devices)

    @property
    def num_stations(self) -> int:
        """k, the number of base stations."""
        return len(self._stations)

    def device(self, device_id: int) -> MobileDevice:
        """The device with id ``device_id``."""
        return self._devices[device_id]

    def station(self, station_id: int) -> BaseStation:
        """The station with id ``station_id``."""
        return self._stations[station_id]

    def station_of(self, device_id: int) -> BaseStation:
        """The base station device ``device_id`` is attached to."""
        return self._stations[self._attachment[device_id]]

    def cluster_of(self, device_id: int) -> int:
        """The station id of the cluster containing ``device_id``."""
        return self._attachment[device_id]

    def cluster_members(self, station_id: int) -> Tuple[int, ...]:
        """Device ids attached to station ``station_id`` (sorted)."""
        return tuple(self._clusters[station_id])

    def cluster_sizes(self) -> Dict[int, int]:
        """Cluster size :math:`n_r` for every station r."""
        return {sid: len(members) for sid, members in self._clusters.items()}

    def same_cluster(self, device_a: int, device_b: int) -> bool:
        """Whether two devices share a base station (Section II-B cases)."""
        return self._attachment[device_a] == self._attachment[device_b]

    def without_devices(self, device_ids: Iterable[int]) -> "MECSystem":
        """A copy of the system with the given devices departed.

        Stations are retained even when their whole cluster leaves, so a
        departure can produce an *empty* cluster — exactly the state a
        quasi-static snapshot sees after users roam away mid-epoch.

        :param device_ids: devices to remove.
        :raises KeyError: if any id is not a device of this system.
        :raises ValueError: if removing them would leave no devices at all.
        """
        departed = set(device_ids)
        for device_id in departed:
            if device_id not in self._devices:
                raise KeyError(f"unknown device {device_id}")
        remaining = [
            device
            for device_id, device in self._devices.items()
            if device_id not in departed
        ]
        return MECSystem(
            devices=remaining,
            stations=self._stations.values(),
            attachment={
                device_id: station_id
                for device_id, station_id in self._attachment.items()
                if device_id not in departed
            },
            cloud=self.cloud,
            bs_bs_link=self.bs_bs_link,
            bs_cloud_link=self.bs_cloud_link,
            parameters=self.parameters,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Export the topology as a networkx graph.

        Nodes are ``("device", id)``, ``("station", id)`` and ``"cloud"``;
        edges carry a ``kind`` attribute in {"radio", "backhaul", "wan"}.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_node("cloud", kind="cloud")
        for station_id in self._stations:
            graph.add_node(("station", station_id), kind="station")
            graph.add_edge(("station", station_id), "cloud", kind="wan")
        station_ids = sorted(self._stations)
        for index, first in enumerate(station_ids):
            for second in station_ids[index + 1 :]:
                graph.add_edge(("station", first), ("station", second), kind="backhaul")
        for device_id, station_id in self._attachment.items():
            graph.add_node(("device", device_id), kind="device")
            graph.add_edge(("device", device_id), ("station", station_id), kind="radio")
        return graph

    def __repr__(self) -> str:
        return (
            f"MECSystem(devices={self.num_devices}, stations={self.num_stations}, "
            f"clusters={self.cluster_sizes()})"
        )
