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


def _sweep(stamps: list, threshold: int):
    """Anchors and member rows of stamp-sorted int lists, one per sensor;
    a row holds each sensor's position in its list, or -1."""
    heads = [0] * len(stamps)
    live = [k for k, s in enumerate(stamps) if s]
    anchors, rows = [], []
    while live:
        anchor = min(stamps[k][heads[k]] for k in live)
        limit = anchor + threshold
        row = [-1] * len(stamps)
        for k in live:
            if stamps[k][heads[k]] <= limit:
                row[k] = heads[k]
                heads[k] += 1
        anchors.append(anchor)
        rows.append(row)
        live = [k for k in live if heads[k] < len(stamps[k])]
    return anchors, rows


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
            anchors, rows = _sweep(
                [stamps[sid][o].tolist() for sid, o in zip(sensors, orders)],
                self.config.threshold(modality),
            )
            members = np.array(rows, dtype=np.int64).reshape(len(rows), len(sensors))
            for k, order in enumerate(orders):  # sorted positions -> stream indices
                col = members[:, k]
                col[col >= 0] = order[col[col >= 0]]
            out[modality] = SyncGroups(
                sensors=tuple(sensors),
                anchors=np.array(anchors, dtype=np.int64),
                members=members,
                streams=tuple(streams.get(sid, ()) for sid in sensors),
            )
        return out
