"""Offline grouping of lossy multi-sensor message streams.

The replay hands every message to `Synchronizer.group` at once. Each
modality is swept on its own: the anchor is the earliest ungrouped
message of any of its sensors, and each sensor's earliest ungrouped
message joins the anchor's group when it lies within the modality
threshold (10 ms for lidar, 1 ms for IMU by default). A sensor that lost
its message at that tick is simply absent from the group, so the
survivors are fused on their own; no message is dropped or used twice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter

POSITIONS = ("F_L", "F_R", "R_L", "R_R")
MODALITIES = ("imu", "lidar")

MS = 1_000_000  # ns


def modality_of(sid: str) -> str:
    return sid.split("/", 1)[0]


@dataclass(frozen=True)
class StampedSignal:
    stamp: int  # nanoseconds
    sensor_id: str
    payload: object


@dataclass(frozen=True)
class SyncGroup:
    anchor_stamp: int
    modality: str
    members: dict  # sensor_id -> StampedSignal


@dataclass
class SyncConfig:
    lidar_threshold: int = 10 * MS
    imu_threshold: int = 1 * MS

    def threshold(self, modality: str) -> int:
        return self.imu_threshold if modality == "imu" else self.lidar_threshold

    def __post_init__(self):
        if self.lidar_threshold <= 0 or self.imu_threshold <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class SyncCounters:
    # late, capacity_drops and evictions are 0 by construction: an offline
    # replay sees every message, so none arrives late, overflows a queue or
    # ages out. The benchmark still reports them.
    late: int = 0
    capacity_drops: int = 0
    evictions: int = 0
    groups: int = 0


class Synchronizer:
    """Groups the complete message streams of a fixed set of sensors."""

    def __init__(self, sensors, config: SyncConfig | None = None):
        self.config = config or SyncConfig()
        self.sensors = list(sensors)
        self.counters = SyncCounters()

    def group(self, signals) -> list:
        """Every group of `signals`, oldest anchor first (an IMU group
        before a lidar group at the same anchor). Each sensor's stream
        is stably sorted by stamp first."""
        streams = {sid: [] for sid in self.sensors}
        for s in signals:
            if s.stamp < 0:
                raise ValueError("negative timestamp")
            streams[s.sensor_id].append(s)
        stamp = attrgetter("stamp")
        groups = []
        for modality in MODALITIES:
            threshold = self.config.threshold(modality)
            pending = [
                (sid, deque(sorted(stream, key=stamp)))
                for sid, stream in streams.items()
                if stream and modality_of(sid) == modality
            ]
            while pending:
                anchor = min(q[0].stamp for _, q in pending)
                members = {
                    sid: q.popleft() for sid, q in pending
                    if q[0].stamp - anchor <= threshold
                }
                groups.append(SyncGroup(anchor, modality, members))
                pending = [(sid, q) for sid, q in pending if q]
        groups.sort(key=attrgetter("anchor_stamp"))  # stable: imu first on a tie
        self.counters.groups += len(groups)
        return groups
