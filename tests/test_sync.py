import numpy as np
import pytest

from mlio.sync import (
    MS,
    POSITIONS,
    SyncConfig,
    Synchronizer,
)
from sync_oracle import replay

IMU_SENSORS = [f"imu/{p}" for p in POSITIONS]
LIDAR_SENSORS = [f"lidar/{p}" for p in POSITIONS]
S = 1000 * MS


def make_sync(sensors=None, **cfg):
    return Synchronizer(sensors or IMU_SENSORS + LIDAR_SENSORS, SyncConfig(**cfg))


def member_sets(groups) -> list:
    """Per group, the set of sensors present."""
    return [
        {sid for sid, i in zip(groups.sensors, row) if i >= 0}
        for row in groups.members.tolist()
    ]


def assert_each_message_once(groups, stamps):
    """Every message of every sensor is the member of exactly one group."""
    for k, sid in enumerate(groups.sensors):
        col = groups.members[:, k]
        used = np.sort(col[col >= 0])
        assert np.array_equal(used, np.arange(len(stamps.get(sid, ()))))


class TestAssociate:
    def test_four_lidars_within_threshold(self):
        stamps = [100 * S, 100 * S + 4 * MS, 100 * S + 7 * MS, 100 * S + 9 * MS]
        groups = make_sync().group(
            {sid: [st] for sid, st in zip(LIDAR_SENSORS, stamps)}
        )["lidar"]
        assert len(groups) == 1
        assert groups.sensors == tuple(LIDAR_SENSORS)
        assert groups.anchors.tolist() == [100 * S]
        assert groups.members.tolist() == [[0, 0, 0, 0]]

    def test_partial_group_after_aging(self):
        # dropout pattern: only F_L and R_R deliver at t2
        t2 = 10 * S
        groups = make_sync().group({
            "lidar/F_L": [t2, t2 + 400 * MS],  # time moves on
            "lidar/R_R": [t2 + 2 * MS],
        })["lidar"]
        assert member_sets(groups)[0] == {"lidar/F_L", "lidar/R_R"}

    def test_beyond_threshold_two_groups(self):
        sync = make_sync(sensors=["lidar/F_L", "lidar/F_R"])
        groups = sync.group({
            "lidar/F_L": [100 * S, 101 * S],
            "lidar/F_R": [100 * S + 15 * MS],
        })["lidar"]
        assert member_sets(groups) == [{"lidar/F_L"}, {"lidar/F_R"}, {"lidar/F_L"}]
        assert groups.anchors[1] == 100 * S + 15 * MS
        assert groups.members.tolist() == [[0, -1], [-1, 0], [1, -1]]

    def test_empty_returns_none(self):
        groups = make_sync().group({})
        for modality in ("imu", "lidar"):
            assert len(groups[modality]) == 0
            assert groups[modality].members.shape == (0, 4)

    def test_flush_releases_every_buffered_group_oldest_first(self):
        sync = make_sync()
        stamps = {
            "lidar/F_L": [10 * S],
            "imu/F_L": [10 * S + 5 * MS],
            "imu/F_R": [10 * S + 20 * MS],
        }
        groups = sync.group(stamps)
        assert member_sets(groups["lidar"]) == [{"lidar/F_L"}]
        assert member_sets(groups["imu"]) == [{"imu/F_L"}, {"imu/F_R"}]
        assert groups["imu"].anchors.tolist() == [10 * S + 5 * MS, 10 * S + 20 * MS]
        assert len(groups["lidar"]) + len(groups["imu"]) == 3

    def test_no_message_reused_and_monotone_anchors(self):
        rng = np.random.default_rng(1)
        stamps = {sid: [] for sid in IMU_SENSORS + LIDAR_SENSORS}
        t = 0
        for step in range(200):
            t += int(10 * MS)
            for sid in stamps:
                if rng.random() < 0.8:
                    stamps[sid].append(t + int(rng.integers(0, MS // 2)))
        for groups in make_sync().group(stamps).values():
            assert np.all(np.diff(groups.anchors) >= 0)
            assert_each_message_once(groups, stamps)

    def test_negative_stamp_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_sync().group({"imu/F_L": [0], "imu/F_R": [-1]})

    def test_members_index_the_unsorted_streams(self):
        stamps = {"imu/F_L": [3 * MS, 1 * MS, 2 * MS], "imu/F_R": [2 * MS + MS // 2]}
        streams = {"imu/F_L": ["c", "a", "b"], "imu/F_R": ["B"]}
        groups = make_sync(sensors=list(stamps)).group(stamps, streams)["imu"]
        assert groups.anchors.tolist() == [1 * MS, 2 * MS, 3 * MS]
        assert groups.members.tolist() == [[1, -1], [2, 0], [0, -1]]
        assert groups.messages() == [["a"], ["b", "B"], ["c"]]


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
        stamps = {
            f"imu/{pos}": [(col + 1) * period for col in range(6) if row[col]]
            for pos, row in self.PATTERN.items()
        }
        groups = make_sync(sensors=IMU_SENSORS).group(stamps)["imu"]
        memberships = member_sets(groups)[:6]
        expected = [
            {f"imu/{p}" for p, row in self.PATTERN.items() if row[col]}
            for col in range(6)
        ]
        assert memberships == expected
        # t2 column is the F_L + R_R only case
        assert memberships[1] == {"imu/F_L", "imu/R_R"}


def lossy_streams(rng, modality, ticks=150, silent=(), collide=True):
    """One modality's four stamp streams at a common cadence: single
    dropouts, blackouts of every sensor (some longer than the streaming
    aging limits), equal stamps across and within sensors, and jitter just
    inside, at and just outside the threshold. Sensors at the positions
    in `silent` have empty streams. Each stream is shuffled, so its order is
    not its stamp order.

    With `collide` false no sensor has two stamps within the threshold:
    ticks are at least three thresholds apart, each stamp lies less than
    one threshold from its tick, and no stamp repeats within a sensor.
    Stamps of different sensors still coincide, and one tick's stamps
    can still span more than one threshold."""
    thr = SyncConfig().threshold(modality)
    if collide:
        offsets = [0, 0, 1, thr - 1, thr, thr + 1, 2 * thr, -thr, -thr - 1]
        steps = [thr // 2, 3 * thr, 10 * thr]
    else:
        offsets = [0, 0, 1, thr // 2, thr - 1, -thr + 1]
        steps = [3 * thr, 10 * thr]
    stamps = {f"{modality}/{p}": [] for p in POSITIONS}
    t = 2 * thr
    for _ in range(ticks):
        t += int(rng.choice(steps))
        if rng.random() < 0.05:
            t += int(rng.integers(0, 400 * MS))  # every sensor silent
        for sid, stream in stamps.items():
            if sid.split("/")[1] in silent or rng.random() < 0.25:
                continue
            stamp = t + int(rng.choice(offsets))
            stream.append(stamp)
            if collide and rng.random() < 0.05:
                stream.append(stamp)
    return {sid: [s[i] for i in rng.permutation(len(s))] for sid, s in stamps.items()}


def assert_groups_match_oracle(stamps):
    sensors = IMU_SENSORS + LIDAR_SENSORS
    got = make_sync().group(stamps)
    want = replay(sensors, stamps)
    for modality in ("imu", "lidar"):
        anchors, members = want[modality]
        assert np.array_equal(got[modality].anchors, anchors)
        assert np.array_equal(got[modality].members, members)
        assert_each_message_once(got[modality], stamps)


@pytest.mark.parametrize("seed", range(12))
def test_sweep_matches_streaming_oracle(seed):
    """The offline sweep gives the streaming synchronizer's groups per
    modality: the same anchors and the same member message of each
    sensor, duplicate stamps included."""
    rng = np.random.default_rng(seed)
    assert_groups_match_oracle(
        {**lossy_streams(rng, "imu"), **lossy_streams(rng, "lidar")}
    )


@pytest.mark.parametrize("seed", range(4))
def test_sweep_matches_streaming_oracle_with_a_silent_sensor(seed):
    """As above, with one sensor of each modality that sends nothing."""
    rng = np.random.default_rng(100 + seed)
    silent = (POSITIONS[seed],)
    stamps = {**lossy_streams(rng, "imu", silent=silent),
              **lossy_streams(rng, "lidar", silent=silent)}
    assert_groups_match_oracle(stamps)
    got = make_sync().group(stamps)
    for groups in got.values():
        assert np.all(groups.members[:, seed] == -1)


@pytest.mark.parametrize("seed", range(12))
def test_one_pass_matches_streaming_oracle(seed):
    """Streams with no two stamps of a sensor within the threshold, so
    that only a tick spanning more than the threshold is swept, give the
    streaming synchronizer's groups."""
    rng = np.random.default_rng(200 + seed)
    assert_groups_match_oracle({**lossy_streams(rng, "imu", collide=False),
                                **lossy_streams(rng, "lidar", collide=False)})


class TestWindowBoundaries:
    """Each group is the window [anchor, anchor + threshold]; explicit
    groups, each also checked against the streaming oracle."""

    def assert_groups(self, stamps, anchors, members):
        groups = make_sync(sensors=list(stamps)).group(stamps)["imu"]
        assert groups.anchors.tolist() == anchors
        assert groups.members.tolist() == members
        want_anchors, want_members = replay(list(stamps), stamps)["imu"]
        assert np.array_equal(groups.anchors, want_anchors)
        assert np.array_equal(groups.members, want_members)

    @pytest.mark.parametrize("late, anchors, members", [
        (0, [5 * MS], [[0, 0]]),  # exactly at the anchor plus the threshold: joins
        (1, [5 * MS, 6 * MS + 1], [[0, -1], [-1, 0]]),  # one ns later: a new group
    ])
    def test_window_closes_at_anchor_plus_threshold(self, late, anchors, members):
        self.assert_groups({"imu/F_L": [5 * MS], "imu/F_R": [6 * MS + late]},
                           anchors, members)

    def test_a_tick_that_spans_two_windows_is_split(self):
        # no two stamps of the first tick are more than the threshold
        # apart, yet they span more: F_R's stamp, exactly at the anchor
        # plus the threshold, joins F_L's group, and R_L's, one ns later,
        # anchors its own
        self.assert_groups(
            {"imu/F_L": [0, 10 * MS], "imu/F_R": [MS], "imu/R_L": [MS + 1]},
            [0, MS + 1, 10 * MS], [[0, 0, -1], [-1, -1, 0], [1, -1, -1]])

    def test_in_sensor_gap_of_exactly_the_threshold_opens_a_group(self):
        self.assert_groups({"imu/F_L": [0, MS], "imu/F_R": [MS]},
                           [0, MS], [[0, 0], [1, -1]])

    def test_end_of_span_pair_of_every_imu_is_two_groups(self):
        # 10 ms ticks, then a last sample 0.796 ms after the one before it
        ticks = [100 * S + k * 10 * MS for k in range(6)]
        ticks.append(ticks[-1] + 796_000)
        self.assert_groups({sid: ticks for sid in IMU_SENSORS},
                           ticks, [[k] * 4 for k in range(len(ticks))])

    def test_wide_run_holding_a_sensor_twice(self):
        # consecutive stamps 0.4-0.5 ms apart span 1.4 ms; F_L's second
        # stamp anchors the group R_L's joins
        self.assert_groups(
            {"imu/F_L": [0, 900_000], "imu/F_R": [500_000], "imu/R_L": [1_400_000]},
            [0, 900_000], [[0, 0, -1], [1, -1, 0]])

    def test_repeat_at_a_sensors_first_stamp(self):
        self.assert_groups(
            {"imu/F_L": [5 * MS, 5 * MS, 15 * MS], "imu/F_R": [15 * MS, 5 * MS]},
            [5 * MS, 5 * MS, 15 * MS], [[0, 1], [1, -1], [2, 0]])

    def test_silent_sensor_next_to_a_repeating_one(self):
        self.assert_groups(
            {"imu/F_L": [0, 0, 10 * MS], "imu/F_R": [],
             "imu/R_L": [200_000, 10 * MS], "imu/R_R": [10 * MS + 500_000]},
            [0, 0, 10 * MS], [[0, -1, 0, -1], [1, -1, -1, -1], [2, -1, 1, 0]])

    def test_one_modality_collides_while_the_other_does_not(self):
        rng = np.random.default_rng(7)
        assert_groups_match_oracle({**lossy_streams(rng, "imu"),
                                    **lossy_streams(rng, "lidar", collide=False)})
