"""MEC system substrate: devices, radio links, energy/time/computation models.

This package implements the three-level Mobile Edge Computing system of
Section II of the paper: mobile devices connected to base stations by radio
access networks (clusters), base stations connected to each other and to a
remote cloud by backhaul links.
"""

from repro.system.computation import CyclesModel, ResultSizeModel, compute_energy_j, compute_time_s
from repro.system.devices import BaseStation, Cloud, MobileDevice
from repro.system.interference import InterferenceChannel, congestion_profiles
from repro.system.links import BackhaulLink, CloudLink, DEFAULT_BS_BS_LINK, DEFAULT_BS_CLOUD_LINK
from repro.system.radio import (
    FOUR_G,
    WIFI,
    ShannonChannel,
    WirelessProfile,
    shannon_rate_bps,
)
from repro.system.sharding import ShardSpec
from repro.system.topology import MECSystem, SystemParameters, nearest_station_attachment

__all__ = [
    "BackhaulLink",
    "InterferenceChannel",
    "congestion_profiles",
    "BaseStation",
    "Cloud",
    "CloudLink",
    "CyclesModel",
    "DEFAULT_BS_BS_LINK",
    "DEFAULT_BS_CLOUD_LINK",
    "FOUR_G",
    "MECSystem",
    "MobileDevice",
    "ResultSizeModel",
    "ShannonChannel",
    "ShardSpec",
    "SystemParameters",
    "WIFI",
    "WirelessProfile",
    "compute_energy_j",
    "compute_time_s",
    "nearest_station_attachment",
    "shannon_rate_bps",
]
