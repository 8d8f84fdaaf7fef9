"""Reference streaming synchronizer for the offline `mlio.sync.Synchronizer`.

Per-sensor FIFO queues fed one message at a time, with a late-message
discard, a capacity bound and aging of incomplete groups: a group is
released when every sensor of its modality has a message queued, or once
the newest stamp seen is more than `max_age` past its anchor, or at the
end of the input (`flush`). Fed stamp-sorted streams, it must give the
same groups as the offline sweep, since no later message could then
change a group.
"""

from __future__ import annotations

from collections import deque

from mlio.sync import MODALITIES, MS, SyncConfig, SyncGroup, modality_of


class StreamingSynchronizer:
    def __init__(self, sensors, config: SyncConfig | None = None,
                 imu_max_age: int = 100 * MS, lidar_max_age: int = 300 * MS,
                 queue_capacity: int = 1000):
        self.config = config or SyncConfig()
        self.max_age = {"imu": imu_max_age, "lidar": lidar_max_age}
        self.queue_capacity = queue_capacity
        self._queues = {sid: deque() for sid in sensors}
        self._by_modality = {
            m: [sid for sid in sensors if modality_of(sid) == m] for m in MODALITIES
        }
        self._last_anchor = {m: None for m in MODALITIES}
        self._newest_seen = None
        self.late = 0
        self.capacity_drops = 0

    def push(self, signal) -> None:
        if signal.stamp < 0:
            raise ValueError("negative timestamp")
        modality = modality_of(signal.sensor_id)
        last = self._last_anchor.get(modality)
        if last is not None and signal.stamp < last:
            self.late += 1
            return
        queue = self._queues[signal.sensor_id]
        if len(queue) >= self.queue_capacity:
            queue.popleft()
            self.capacity_drops += 1
        queue.append(signal)
        if self._newest_seen is None or signal.stamp > self._newest_seen:
            self._newest_seen = signal.stamp

    def _candidate(self, modality: str, flushing: bool):
        heads = [
            self._queues[sid][0].stamp
            for sid in self._by_modality[modality]
            if self._queues[sid]
        ]
        if not heads:
            return None
        anchor = min(heads)
        complete = len(heads) == len(self._by_modality[modality])
        aged = flushing or self._newest_seen - anchor > self.max_age[modality]
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
        return SyncGroup(anchor_stamp=anchor, modality=modality, members=members)

    def drain(self):
        """Yield every group that is ready now."""
        while (group := self._pop_group(flushing=False)) is not None:
            yield group

    def flush(self):
        """Yield every buffered group, each treated as aged."""
        while (group := self._pop_group(flushing=True)) is not None:
            yield group


def replay(sensors, signals, config: SyncConfig | None = None) -> list:
    """Push `signals` in (stamp, sensor) order, draining after each push,
    then flush: the replay loop the offline sweep replaced."""
    sync = StreamingSynchronizer(sensors, config)
    groups = []
    for s in sorted(signals, key=lambda s: (s.stamp, s.sensor_id)):
        sync.push(s)
        groups.extend(sync.drain())
    groups.extend(sync.flush())
    assert sync.late == 0 and sync.capacity_drops == 0
    return groups
