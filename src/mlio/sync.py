"""Buffered synchronization of lossy multi-sensor message streams.

Each sensor feeds its own FIFO queue. Messages are grouped per modality by
comparing head timestamps against the modality threshold (10 ms for lidar,
1 ms for IMU by default). Unlike a strict approximate-time policy, a group
is still emitted when some sensors have no data: once the oldest head has
aged past ``max_age`` relative to the newest stamp seen, the survivors are
fused on their own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

POSITIONS = ("F_L", "F_R", "R_L", "R_R")
MODALITIES = ("imu", "lidar")

MS = 1_000_000  # ns


def sensor_id(modality: str, position: str) -> str:
    return f"{modality}/{position}"


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
    imu_max_age: int = 100 * MS
    lidar_max_age: int = 300 * MS
    queue_capacity: int = 1000

    def threshold(self, modality: str) -> int:
        return self.imu_threshold if modality == "imu" else self.lidar_threshold

    def max_age(self, modality: str) -> int:
        return self.imu_max_age if modality == "imu" else self.lidar_max_age

    def __post_init__(self):
        if self.lidar_threshold <= 0 or self.imu_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if self.imu_max_age <= self.imu_threshold:
            raise ValueError("imu max_age must exceed the threshold")
        if self.lidar_max_age <= self.lidar_threshold:
            raise ValueError("lidar max_age must exceed the threshold")


@dataclass
class SyncCounters:
    late: int = 0
    capacity_drops: int = 0
    evictions: int = 0  # no replay path evicts; the benchmark reports it
    groups: int = 0


class Synchronizer:
    """Message synchronizer over per-sensor FIFO queues, fed and
    drained by one replay loop."""

    def __init__(self, sensors, config: SyncConfig | None = None):
        self.config = config or SyncConfig()
        self._queues = {sid: deque() for sid in sensors}
        self._by_modality = {
            m: [sid for sid in sensors if modality_of(sid) == m] for m in MODALITIES
        }
        self._last_anchor = {m: None for m in MODALITIES}
        self._newest_seen = None
        self.counters = SyncCounters()

    def push(self, signal: StampedSignal) -> None:
        if signal.stamp < 0:
            raise ValueError("negative timestamp")
        modality = modality_of(signal.sensor_id)
        last = self._last_anchor.get(modality)
        if last is not None and signal.stamp < last:
            self.counters.late += 1
            return
        queue = self._queues[signal.sensor_id]
        if len(queue) >= self.config.queue_capacity:
            queue.popleft()
            self.counters.capacity_drops += 1
        queue.append(signal)
        if self._newest_seen is None or signal.stamp > self._newest_seen:
            self._newest_seen = signal.stamp

    def _candidate(self, modality: str, flushing: bool):
        heads = [
            (self._queues[sid][0].stamp, sid)
            for sid in self._by_modality[modality]
            if self._queues[sid]
        ]
        if not heads:
            return None
        anchor = min(h[0] for h in heads)
        complete = len(heads) == len(self._by_modality[modality])
        aged = flushing or (
            self._newest_seen is not None
            and self._newest_seen - anchor > self.config.max_age(modality)
        )
        if not complete and not aged:
            return None
        return anchor, modality

    def _pop_group(self, flushing: bool):
        candidates = [c for m in MODALITIES if (c := self._candidate(m, flushing))]
        if not candidates:
            return None
        anchor, modality = min(candidates)
        threshold = self.config.threshold(modality)
        members = {}
        for sid in self._by_modality[modality]:
            queue = self._queues[sid]
            if queue and abs(queue[0].stamp - anchor) <= threshold:
                members[sid] = queue.popleft()
        self._last_anchor[modality] = anchor
        self.counters.groups += 1
        return SyncGroup(anchor_stamp=anchor, modality=modality, members=members)

    def associate(self):
        """Pop and return the oldest ready SyncGroup, or None."""
        return self._pop_group(flushing=False)

    def drain(self):
        """Yield every group that is currently ready."""
        while (group := self.associate()) is not None:
            yield group

    def flush(self):
        """Yield every buffered group, oldest first, each treated as aged:
        at the end of the input no later message can complete one."""
        while (group := self._pop_group(flushing=True)) is not None:
            yield group
