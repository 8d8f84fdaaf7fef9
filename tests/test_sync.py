import numpy as np

from mlio.sync import (
    MS,
    POSITIONS,
    StampedSignal,
    SyncConfig,
    Synchronizer,
    modality_of,
    sensor_id,
)

IMU_SENSORS = [sensor_id("imu", p) for p in POSITIONS]
LIDAR_SENSORS = [sensor_id("lidar", p) for p in POSITIONS]
S = 1000 * MS


def make_sync(sensors=None, **cfg):
    return Synchronizer(sensors or IMU_SENSORS + LIDAR_SENSORS, SyncConfig(**cfg))


def push(sync, sid, stamp):
    sync.push(StampedSignal(stamp=stamp, sensor_id=sid, payload=None))


def queue_lengths(sync) -> dict:
    return {sid: len(q) for sid, q in sync._queues.items()}


def evict_aged(sync, now: int) -> int:
    """Drop all buffered messages older than max_age relative to now."""
    count = 0
    for sid, queue in sync._queues.items():
        max_age = sync.config.max_age(modality_of(sid))
        while queue and now - queue[0].stamp > max_age:
            queue.popleft()
            count += 1
    return count


class TestPush:
    def test_push_appends_to_own_queue(self):
        sync = make_sync()
        for k in range(3):
            push(sync, "imu/F_L", k * MS)
        lengths = queue_lengths(sync)
        assert lengths["imu/F_L"] == 3
        assert all(n == 0 for sid, n in lengths.items() if sid != "imu/F_L")

    def test_late_message_discarded(self):
        sync = make_sync()
        for sid in IMU_SENSORS:
            push(sync, sid, 100 * S)
        assert sync.associate() is not None
        push(sync, "imu/F_L", 99 * S)
        assert sync.counters.late == 1
        assert queue_lengths(sync)["imu/F_L"] == 0

    def test_capacity_bound(self):
        sync = make_sync(queue_capacity=5)
        for k in range(9):
            push(sync, "imu/F_L", k * MS)
        assert queue_lengths(sync)["imu/F_L"] == 5
        assert sync.counters.capacity_drops == 4

    def test_total_memory_bounded(self):
        sync = make_sync(queue_capacity=7)
        rng = np.random.default_rng(0)
        for k in range(500):
            sid = IMU_SENSORS[rng.integers(4)]
            push(sync, sid, k * MS)
            assert sum(queue_lengths(sync).values()) <= 8 * 7


class TestAssociate:
    def test_four_lidars_within_threshold(self):
        sync = make_sync()
        stamps = [100 * S, 100 * S + 4 * MS, 100 * S + 7 * MS, 100 * S + 9 * MS]
        for sid, st in zip(LIDAR_SENSORS, stamps):
            push(sync, sid, st)
        group = sync.associate()
        assert group is not None
        assert group.modality == "lidar"
        assert group.anchor_stamp == 100 * S
        assert set(group.members) == set(LIDAR_SENSORS)

    def test_partial_group_after_aging(self):
        # dropout pattern: only F_L and R_R deliver at t2
        sync = make_sync()
        t2 = 10 * S
        push(sync, "lidar/F_L", t2)
        push(sync, "lidar/R_R", t2 + 2 * MS)
        assert sync.associate() is None  # still waiting for the other two
        push(sync, "lidar/F_L", t2 + 400 * MS)  # time moves on
        group = sync.associate()
        assert group is not None
        assert set(group.members) == {"lidar/F_L", "lidar/R_R"}

    def test_beyond_threshold_two_groups(self):
        sync = make_sync(sensors=["lidar/F_L", "lidar/F_R"])
        push(sync, "lidar/F_L", 100 * S)
        push(sync, "lidar/F_R", 100 * S + 15 * MS)
        g1 = sync.associate()
        assert set(g1.members) == {"lidar/F_L"}
        push(sync, "lidar/F_L", 101 * S)  # time moves on, F_R head ages out
        g2 = sync.associate()
        assert set(g2.members) == {"lidar/F_R"}
        assert g2.anchor_stamp == 100 * S + 15 * MS

    def test_empty_returns_none(self):
        assert make_sync().associate() is None

    def test_flush_releases_every_buffered_group_oldest_first(self):
        sync = make_sync()
        push(sync, "lidar/F_L", 10 * S)
        push(sync, "imu/F_L", 10 * S + 5 * MS)
        push(sync, "imu/F_R", 10 * S + 20 * MS)
        assert list(sync.drain()) == []  # neither complete nor aged
        groups = list(sync.flush())
        assert [(g.modality, set(g.members)) for g in groups] == [
            ("lidar", {"lidar/F_L"}), ("imu", {"imu/F_L"}), ("imu", {"imu/F_R"}),
        ]
        assert sum(queue_lengths(sync).values()) == 0
        assert sync.counters.groups == 3

    def test_no_message_reused_and_monotone_anchors(self):
        rng = np.random.default_rng(1)
        sync = make_sync()
        seen = set()
        last_anchor = {"imu": -1, "lidar": -1}
        t = 0
        for step in range(200):
            t += int(10 * MS)
            for sid in IMU_SENSORS + LIDAR_SENSORS:
                if rng.random() < 0.8:
                    push(sync, sid, t + int(rng.integers(0, MS // 2)))
            for group in sync.drain():
                assert group.anchor_stamp >= last_anchor[group.modality]
                last_anchor[group.modality] = group.anchor_stamp
                for member in group.members.values():
                    key = (member.sensor_id, member.stamp)
                    assert key not in seen
                    seen.add(key)


class TestEvictAged:
    def test_old_entry_evicted(self):
        sync = make_sync(imu_max_age=1000 * MS)
        push(sync, "imu/F_L", 0)
        assert evict_aged(sync, 2 * S) == 1
        assert queue_lengths(sync)["imu/F_L"] == 0

    def test_empty_queues(self):
        assert evict_aged(make_sync(), 10 * S) == 0

    def test_mixed_ages_filtered_fifo_preserved(self):
        sync = make_sync(imu_max_age=500 * MS)
        stamps = [0, 100 * MS, 900 * MS, 950 * MS, 990 * MS]
        for st in stamps:
            push(sync, "imu/F_L", st)
        now = 1000 * MS
        expected_survivors = [s for s in stamps if now - s <= 500 * MS]
        evicted = evict_aged(sync, now)
        assert evicted == len(stamps) - len(expected_survivors)
        queue = sync._queues["imu/F_L"]
        assert [m.stamp for m in queue] == expected_survivors


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
        sync = make_sync(sensors=IMU_SENSORS)
        period = 100 * MS
        groups = []
        for col in range(6):
            t = (col + 1) * period
            for pos, row in self.PATTERN.items():
                if row[col]:
                    push(sync, sensor_id("imu", pos), t)
            groups.extend(sync.drain())
        # flush: advance time past max_age to release waiting partial groups
        push(sync, "imu/F_L", 6 * period + 200 * MS)
        groups.extend(sync.drain())
        memberships = [set(g.members) for g in groups[:6]]
        expected = [
            {sensor_id("imu", p) for p, row in self.PATTERN.items() if row[col]}
            for col in range(6)
        ]
        assert memberships == expected
        # t2 column is the F_L + R_R only case
        assert memberships[1] == {"imu/F_L", "imu/R_R"}
