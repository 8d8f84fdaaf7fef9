import numpy as np
import pytest

from mlio.sync import (
    MS,
    POSITIONS,
    StampedSignal,
    SyncConfig,
    Synchronizer,
)
from sync_oracle import replay

IMU_SENSORS = [f"imu/{p}" for p in POSITIONS]
LIDAR_SENSORS = [f"lidar/{p}" for p in POSITIONS]
S = 1000 * MS


def make_sync(sensors=None, **cfg):
    return Synchronizer(sensors or IMU_SENSORS + LIDAR_SENSORS, SyncConfig(**cfg))


def signal(sid, stamp):
    return StampedSignal(stamp=stamp, sensor_id=sid, payload=None)


class TestAssociate:
    def test_four_lidars_within_threshold(self):
        sync = make_sync()
        stamps = [100 * S, 100 * S + 4 * MS, 100 * S + 7 * MS, 100 * S + 9 * MS]
        group = sync.group([signal(sid, st) for sid, st in zip(LIDAR_SENSORS, stamps)])[0]
        assert group is not None
        assert group.modality == "lidar"
        assert group.anchor_stamp == 100 * S
        assert set(group.members) == set(LIDAR_SENSORS)

    def test_partial_group_after_aging(self):
        # dropout pattern: only F_L and R_R deliver at t2
        t2 = 10 * S
        groups = make_sync().group([
            signal("lidar/F_L", t2),
            signal("lidar/R_R", t2 + 2 * MS),
            signal("lidar/F_L", t2 + 400 * MS),  # time moves on
        ])
        group = groups[0]
        assert group is not None
        assert set(group.members) == {"lidar/F_L", "lidar/R_R"}

    def test_beyond_threshold_two_groups(self):
        sync = make_sync(sensors=["lidar/F_L", "lidar/F_R"])
        g1, g2, _ = sync.group([
            signal("lidar/F_L", 100 * S),
            signal("lidar/F_R", 100 * S + 15 * MS),
            signal("lidar/F_L", 101 * S),
        ])
        assert set(g1.members) == {"lidar/F_L"}
        assert set(g2.members) == {"lidar/F_R"}
        assert g2.anchor_stamp == 100 * S + 15 * MS

    def test_empty_returns_none(self):
        assert make_sync().group([]) == []

    def test_flush_releases_every_buffered_group_oldest_first(self):
        sync = make_sync()
        signals = [
            signal("lidar/F_L", 10 * S),
            signal("imu/F_L", 10 * S + 5 * MS),
            signal("imu/F_R", 10 * S + 20 * MS),
        ]
        groups = sync.group(signals)
        assert [(g.modality, set(g.members)) for g in groups] == [
            ("lidar", {"lidar/F_L"}), ("imu", {"imu/F_L"}), ("imu", {"imu/F_R"}),
        ]
        assert [m for g in groups for m in g.members.values()] == signals
        assert sync.counters.groups == 3

    def test_no_message_reused_and_monotone_anchors(self):
        rng = np.random.default_rng(1)
        signals = []
        t = 0
        for step in range(200):
            t += int(10 * MS)
            for sid in IMU_SENSORS + LIDAR_SENSORS:
                if rng.random() < 0.8:
                    signals.append(signal(sid, t + int(rng.integers(0, MS // 2))))
        seen = set()
        last_anchor = {"imu": -1, "lidar": -1}
        for group in make_sync().group(signals):
            assert group.anchor_stamp >= last_anchor[group.modality]
            last_anchor[group.modality] = group.anchor_stamp
            for member in group.members.values():
                key = (member.sensor_id, member.stamp)
                assert key not in seen
                seen.add(key)

    def test_negative_stamp_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_sync().group([signal("imu/F_L", 0), signal("imu/F_R", -1)])


class TestLossyPatternReplay:
    """Scripted replay of the dropout illustration: four sensors at a nominal
    common cadence, with individual cells missing at certain ticks."""

    # rows: F_L, F_R, R_L, R_R; columns: t1..t6 (True = signal present)
    PATTERN = {
        "F_L": [1, 1, 1, 0, 1, 1],
        "F_R": [1, 0, 1, 1, 0, 1],
        "R_L": [1, 0, 1, 1, 1, 1],
        "R_R": [1, 1, 0, 1, 1, 1],
    }

    def test_group_membership_matches_pattern(self):
        period = 100 * MS
        signals = [
            signal(f"imu/{pos}", (col + 1) * period)
            for col in range(6)
            for pos, row in self.PATTERN.items()
            if row[col]
        ]
        groups = make_sync(sensors=IMU_SENSORS).group(signals)
        memberships = [set(g.members) for g in groups[:6]]
        expected = [
            {f"imu/{p}" for p, row in self.PATTERN.items() if row[col]}
            for col in range(6)
        ]
        assert memberships == expected
        # t2 column is the F_L + R_R only case
        assert memberships[1] == {"imu/F_L", "imu/R_R"}


def lossy_streams(rng, modality, ticks=150):
    """One modality's four streams at a common cadence: single dropouts,
    blackouts of every sensor (some longer than the streaming aging
    limits), equal stamps across and within sensors, and jitter just
    inside, at and just outside the threshold."""
    thr = SyncConfig().threshold(modality)
    offsets = [0, 0, 1, thr - 1, thr, thr + 1, 2 * thr, -thr, -thr - 1]
    signals = []
    t = 2 * thr
    for _ in range(ticks):
        t += int(rng.choice([thr // 2, 3 * thr, 10 * thr]))
        if rng.random() < 0.05:
            t += int(rng.integers(0, 400 * MS))  # every sensor silent
        for p in POSITIONS:
            if rng.random() < 0.25:
                continue
            stamp = t + int(rng.choice(offsets))
            signals.append(StampedSignal(stamp, f"{modality}/{p}", object()))
            if rng.random() < 0.05:
                signals.append(StampedSignal(stamp, f"{modality}/{p}", object()))
    return signals


@pytest.mark.parametrize("seed", range(12))
def test_sweep_matches_streaming_oracle(seed):
    """The offline sweep gives the streaming synchronizer's groups per
    modality: the same anchors, member sensors, stamps and payloads."""
    rng = np.random.default_rng(seed)
    signals = lossy_streams(rng, "imu") + lossy_streams(rng, "lidar")
    signals = [signals[i] for i in rng.permutation(len(signals))]
    sensors = IMU_SENSORS + LIDAR_SENSORS
    got = make_sync().group(signals)
    want = replay(sensors, signals)

    def key(groups, modality):
        return [
            (g.anchor_stamp, [(sid, m.stamp, id(m.payload)) for sid, m in g.members.items()])
            for g in groups if g.modality == modality
        ]

    for modality in ("imu", "lidar"):
        assert key(got, modality) == key(want, modality)
    assert sum(len(g.members) for g in got) == len(signals)
