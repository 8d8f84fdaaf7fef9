"""Offline grouping of lossy multi-sensor stamp streams.

The replay hands every sensor's message stamps to `Synchronizer.group`
at once. Each modality is swept on its own over each sensor's stably
sorted stamps: the anchor is the earliest ungrouped stamp of any of its
sensors, and each sensor's earliest ungrouped message joins the
anchor's group when it lies within the modality threshold (10 ms for
lidar, 1 ms for IMU by default). A sensor that lost its message at that
tick is simply absent from the group, so the survivors are fused on
their own; no message is dropped or used twice. A modality's groups
come back as index arrays (`SyncGroups`), not per-message objects.

Each modality is grouped in one vectorized pass (`_group`) over its
merged, stably stamp-sorted stamps. A stamp more than the threshold past
the one before it opens a run, and no group spans two runs. A run is
one group unless it spans more than the threshold or holds a sensor
twice (two stamps of one sensor within the threshold always share a
run, so one `np.diff` per sensor finds them). Only those runs are swept
in Python (`_sweep`), all in one call, with the rule above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POSITIONS = ("F_L", "F_R", "R_L", "R_R")
MODALITIES = ("imu", "lidar")

MS = 1_000_000  # ns


def modality_of(sid: str) -> str:
    return sid.split("/", 1)[0]


@dataclass(frozen=True, eq=False)
class SyncGroups:
    """The groups of one modality, oldest anchor first.

    Column k of `members` belongs to sensor `sensors[k]`; its entries
    index `streams[k]`, the messages whose stamps were grouped."""

    sensors: tuple  # sensor ids, one per column
    anchors: np.ndarray  # (G,) int64 ns
    members: np.ndarray  # (G, S) int64, -1 where the sensor is absent
    streams: tuple  # per column, the sensor's messages

    def __len__(self) -> int:
        return len(self.anchors)

    def messages(self) -> list:
        """Per group, its members' messages in column order."""
        return [
            [self.streams[k][i] for k, i in enumerate(row) if i >= 0]
            for row in self.members.tolist()
        ]


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


def _sweep(stamps: list, columns: list, threshold: int):
    """Anchor flags and group labels (0, 1, ... in anchor order) of
    stamp-sorted stamps, `columns` naming each one's sensor: the anchor
    is the first ungrouped stamp, and each sensor's first ungrouped stamp
    joins it when at most `threshold` past it."""
    head, label = [False] * len(stamps), [-1] * len(stamps)
    start = group = 0
    while start < len(stamps):
        head[start], limit, seen = True, stamps[start] + threshold, set()
        for i in range(start, len(stamps)):
            if stamps[i] > limit:
                break
            if label[i] < 0 and columns[i] not in seen:
                seen.add(columns[i])
                label[i] = group
        group += 1
        while start < len(stamps) and label[start] >= 0:
            start += 1
    return head, label


def _group(stamps: list, orders: list, threshold: int):
    """Anchors (G,) and member rows (G, S) of stream indices of stamp-sorted
    int64 arrays, one per sensor, `orders[k]` mapping sensor k's sorted
    positions to its stream indices."""
    merged = np.concatenate([np.empty(0, np.int64), *stamps])
    column = np.repeat(np.arange(len(stamps)), [len(s) for s in stamps])
    index = np.concatenate([np.empty(0, np.int64), *orders])
    # a stamp at most `threshold` past its sensor's previous one
    close = np.zeros(len(merged), dtype=bool)
    close[1:] = (np.diff(merged) <= threshold) & (column[1:] == column[:-1])
    order = np.argsort(merged, kind="stable")
    m, col = merged[order], column[order]
    # A stamp more than `threshold` past the one before it opens a run. A
    # run is one group unless it spans more than `threshold` or holds a
    # sensor twice; only those runs are swept.
    head = np.ones(len(m), dtype=bool)
    head[1:] = np.diff(m) > threshold
    starts = np.flatnonzero(head)
    stops = np.append(starts, len(m))[1:]
    swept = m[stops - 1] - m[starts] > threshold
    swept[np.searchsorted(starts, np.flatnonzero(close[order]), side="right") - 1] = True
    # Runs are more than `threshold` apart, so they are swept as one.
    at = np.flatnonzero(np.repeat(swept, stops - starts))
    flags, label = _sweep(m[at].tolist(), col[at].tolist(), threshold)
    head[at] = flags
    group = np.cumsum(head) - 1
    # the sweep's k-th group is the one its k-th anchor opens
    group[at] = group[at[np.array(flags, dtype=bool)]][label]
    anchors = m[np.flatnonzero(head)]
    members = np.full((len(anchors), len(stamps)), -1, dtype=np.int64)
    members.reshape(-1)[group * len(stamps) + col] = index[order]
    return anchors, members


class Synchronizer:
    """Groups the complete stamp streams of a fixed set of sensors."""

    def __init__(self, sensors, config: SyncConfig | None = None):
        self.config = config or SyncConfig()
        self.sensors = list(sensors)
        self.counters = SyncCounters()

    def group(self, stamps: dict, streams: dict | None = None) -> dict:
        """Modality -> `SyncGroups` of `stamps`, which maps each sensor to
        its message stamps in ns (a missing sensor has none). `streams`
        maps each sensor to the messages those stamps belong to, in the
        same order; by default they are the stamps themselves."""
        stamps = {
            sid: np.asarray(stamps.get(sid, ()), dtype=np.int64).reshape(-1)
            for sid in self.sensors
        }
        if any(len(s) and s.min() < 0 for s in stamps.values()):
            raise ValueError("negative timestamp")
        streams = stamps if streams is None else streams
        out = {}
        for modality in MODALITIES:
            sensors = [sid for sid in self.sensors if modality_of(sid) == modality]
            orders = [np.argsort(stamps[sid], kind="stable") for sid in sensors]
            anchors, members = _group(
                [stamps[sid][o] for sid, o in zip(sensors, orders)], orders,
                self.config.threshold(modality))
            out[modality] = SyncGroups(
                sensors=tuple(sensors),
                anchors=anchors,
                members=members,
                streams=tuple(streams.get(sid, ()) for sid in sensors),
            )
        return out
