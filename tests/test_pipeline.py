import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import mlio
from mlio import pipeline
from mlio.dataset import load_dataset, write_dataset
from mlio.evaluation import Trajectory, ape, rpe
from mlio.geometry import NavState, pose_compose, pose_inverse, so3_log
from mlio.graph import STATE_DIM, FactorGraph, GnssStream, PriorFactor
from mlio.mimu import BatchFuser, FusedImu, ImuStream, MimuArray
from mlio.pipeline import (
    EstimatorDivergence,
    PipelineConfig,
    SensorMask,
    _gnss_schedule,
    _Interval,
    _keyframe_schedule,
    _keyframe_step,
    fuse_imu_groups,
    initialize,
    parse_sensor_mask,
    replay_sync,
    run_pipeline,
    RunCounters,
    write_fused_imu,
)
from mlio.preintegration import GRAVITY, ImuNoiseParams
from mlio.submap import LocalSubmap
from mlio.sim import (
    Dropout,
    NoiseSpec,
    corridor_scenario,
    gen_trajectory,
    loop_scenario,
    simulate,
    synth_imu,
)
from oracles import (
    EagerPropagator,
    fuse_imu_groups_per_group,
    keyframe_schedule_per_sample,
    pose_at,
    write_fused_imu_rows,
)


def straight_scenario(duration=6.0, dropouts=()):
    """Short straight drive through the structured loop world."""
    base = loop_scenario()
    return dataclasses.replace(
        base,
        segments=((1.0, np.zeros(6)), (duration, np.array([0, 0, 0, 8.0, 0, 0]))),
        dropouts=tuple(dropouts),
    )


@pytest.fixture(scope="module")
def straight_data():
    return simulate(straight_scenario())


@pytest.fixture(scope="module")
def straight_gt(straight_data):
    return Trajectory(
        stamps=straight_data.gt.stamps, poses=tuple(straight_data.gt.poses)
    )


class TestSensorMask:
    @pytest.mark.parametrize(
        "text, n_l, n_i, n_g",
        [("L4I4", 4, 4, 0), ("L1I1", 1, 1, 0), ("L4I4G1", 4, 4, 1), ("L2I3", 2, 3, 0)],
    )
    def test_parse(self, text, n_l, n_i, n_g):
        m = parse_sensor_mask(text)
        assert (m.n_lidar, m.n_imu, m.n_gnss) == (n_l, n_i, n_g)
        assert str(m) == text

    @pytest.mark.parametrize("text", ["", "L4", "I4L4", "L0I1", "L4I4G2", "l4i4"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_sensor_mask(text)

    def test_positions_are_prefixes(self):
        m = SensorMask(n_lidar=2, n_imu=3, n_gnss=1)
        assert m.lidar_positions == ("F_L", "F_R")
        assert m.imu_positions == ("F_L", "F_R", "R_L")
        assert m.use_gnss


class TestReplay:
    def test_mask_limits_consumed_sensors(self, straight_data):
        counters = RunCounters()
        replay_sync(
            straight_data, parse_sensor_mask("L1I1"), PipelineConfig().sync, counters
        )
        assert set(counters.sensors_consumed) == {"imu/F_L", "lidar/F_L"}

    def test_full_mask_consumes_all_positions(self, straight_data):
        counters = RunCounters()
        replay_sync(
            straight_data, parse_sensor_mask("L4I4"), PipelineConfig().sync, counters
        )
        assert len(counters.sensors_consumed) == 8

    def test_single_imu_fusion_recovers_gravity_at_rest(self, straight_data):
        counters = RunCounters()
        mask = parse_sensor_mask("L1I1")
        imu_groups, _ = replay_sync(
            straight_data, mask, PipelineConfig().sync, counters
        )
        imus = {p: straight_data.scenario.imus[p] for p in mask.imu_positions}
        fused = fuse_imu_groups(imu_groups, imus, counters)
        assert np.allclose(fused.f[0], [0, 0, 9.81], atol=1e-9)
        assert np.allclose(fused.w_dot[0], 0.0, atol=1e-9)
        # one channel cannot observe the angular acceleration: the fuser
        # says so, and every fused row's w_dot is pinned to zero
        assert not BatchFuser(MimuArray((imus["F_L"],))).w_dot_observable
        assert not fused.w_dot.any()

    def test_no_groups_fuse_to_an_empty_stream(self, straight_data):
        mask = parse_sensor_mask("L1I2")
        data = SimpleNamespace(imu={}, lidar={})
        groups, _ = replay_sync(data, mask, PipelineConfig().sync, RunCounters())
        imus = {p: straight_data.scenario.imus[p] for p in mask.imu_positions}
        counters = RunCounters()
        fused = fuse_imu_groups(groups, imus, counters)
        assert len(fused) == 0 and counters.fused_samples == 0
        assert fused.stamps.shape == (0,) and fused.stamps.dtype == np.int64
        assert fused.f.shape == fused.w.shape == fused.w_dot.shape == (0, 3)


@pytest.mark.parametrize("seed", range(3))
def test_batched_fusion_matches_per_group_loop(seed):
    """With random per-sample IMU dropouts, stamp jitter past the sync
    threshold, repeated stamps and shuffled streams, `fuse_imu_groups`
    gives bit for bit the samples of the per-group loop it replaced."""
    rng = np.random.default_rng(seed)
    scenario = loop_scenario(seed=seed, noise=NoiseSpec(accel_sigma=0.01,
                                                        gyro_sigma=0.001))
    scenario = dataclasses.replace(scenario, segments=scenario.segments[:3])
    gt = gen_trajectory(scenario)
    streams = {}
    for sid, stream in synth_imu(gt, scenario.imus, scenario.noise,
                                 scenario.seed).items():
        rows = rng.permutation(np.flatnonzero(rng.random(len(stream)) > 0.3))
        stamps = stream.stamps[rows] + rng.integers(0, 3_000_000, size=len(rows))
        # repeated stamps carrying other samples: groups with equal anchors
        dup = rng.choice(len(rows), size=len(rows) // 50, replace=False)
        stamps = np.concatenate([stamps, stamps[dup]])
        rows = np.concatenate([rows, rng.choice(rows, size=len(dup))])
        streams[sid] = ImuStream(stamps, stream.f[rows], stream.w[rows], sid)
    data = SimpleNamespace(imu=streams, lidar={})
    mask = parse_sensor_mask("L1I4")
    groups, _ = replay_sync(data, mask, PipelineConfig().sync, RunCounters())
    imus = {p: scenario.imus[p] for p in mask.imu_positions}
    got = fuse_imu_groups(groups, imus)
    want = fuse_imu_groups_per_group(groups, imus)
    assert len({tuple(row >= 0) for row in groups.members}) == 15
    assert np.any(np.diff(groups.anchors) == 0)
    assert got.stamps.tolist() == want.stamps.tolist()
    # a lone channel cannot observe w_dot (BatchFuser.w_dot_observable is
    # False) and fuses to exactly zero w_dot; no larger subset does
    singles = np.sum((groups.members >= 0).sum(axis=1) == 1)
    assert singles > 0 and np.sum(~got.w_dot.any(axis=1)) == singles
    for name in ("f", "w", "w_dot"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestFusedImuWriter:
    @staticmethod
    def _stream():
        """Negative values, signed and unsigned zeros, tiny and large
        magnitudes, and stamps from 0 up to 2^53 - 1 ns."""
        rng = np.random.default_rng(12)
        n = 40
        cols = [rng.normal(scale=10.0, size=(n, 3)) for _ in range(3)]
        cols[0][:4] = [[0.0, -0.0, 1e-300], [-1e-7, 0.0, -9.81],
                       [123456.789, -0.0, 5e-10], [-1.0, 1.0, 0.0]]
        cols[2][::3] = 0.0
        stamps = np.sort(rng.integers(0, 2**53, size=n))
        stamps[0], stamps[-1] = 0, 2**53 - 1
        return FusedImu(stamps, *cols)

    def test_matches_row_writer(self, tmp_path):
        fused = self._stream()
        write_fused_imu(tmp_path / "cols.csv", fused)
        write_fused_imu_rows(tmp_path / "rows.csv", fused)
        text = (tmp_path / "cols.csv").read_bytes()
        assert text == (tmp_path / "rows.csv").read_bytes()
        assert b"\n9007199254740991," in text and b"-0.000000000e+00" in text

    def test_empty_stream_writes_the_header_only(self, tmp_path):
        write_fused_imu(tmp_path / "empty.csv", FusedImu(np.zeros(0, np.int64),
                                                       *np.zeros((3, 0, 3))))
        assert (tmp_path / "empty.csv").read_text() == (
            "t_ns,fx,fy,fz,wx,wy,wz,wdx,wdy,wdz\n")

    def test_large_stamp_written_exactly(self, tmp_path):
        stamps = np.array([1700000000123456789, 1700000000123456790])
        write_fused_imu(tmp_path / "big.csv",
                        FusedImu(stamps, *np.ones((3, 2, 3))))
        text = (tmp_path / "big.csv").read_text()
        assert "\n1700000000123456789,1.000000000e+00," in text
        back = np.loadtxt(tmp_path / "big.csv", delimiter=",", skiprows=1,
                          usecols=0, dtype=np.int64)
        assert np.array_equal(back, stamps)

    def test_rows_equal_columns(self):
        fused = self._stream()
        rows = list(fused)
        assert len(rows) == len(fused) == 40
        assert [r.stamp for r in rows] == fused.stamps.tolist()
        assert all(type(r.stamp) is int for r in rows)
        for name in ("f", "w", "w_dot"):
            assert np.array_equal(np.stack([getattr(r, name) for r in rows]),
                                  getattr(fused, name)), name


def _gt_sample(gt, i):
    """Noise-free IMU sample of ground-truth row i: (stamp, f, w)."""
    return (int(gt.stamps[i]), gt.poses[i].R.T @ (gt.a_world[i] - GRAVITY),
            gt.w_body[i])


def _interval(state, w0, samples, noise=ImuNoiseParams()):
    """The interval value of (stamp, f, w) samples, the keyframe's first."""
    stamps, f, w = (np.array(c) for c in zip(*samples))
    return _Interval(state, w0, stamps, f, w, noise)


class TestPropagator:
    def test_pose_at_equals_eager_track(self):
        """Bit for bit: stamps before the keyframe, on samples, between
        samples (also across a 0.26 s gap) and after the last sample, at
        biased keyframe states mid-turn; and with the keyframe's own
        sample alone."""
        gt = gen_trajectory(loop_scenario())
        rng = np.random.default_rng(21)
        for k in (int(np.searchsorted(gt.stamps, t)) for t in (4e9, 13.5e9)):
            state = NavState(pose=gt.poses[k], v=gt.v_world[k],
                             b_a=rng.normal(scale=0.05, size=3),
                             b_g=rng.normal(scale=0.005, size=3))
            eager = EagerPropagator(ImuNoiseParams())
            eager.reset(state, gt.w_body[k], *_gt_sample(gt, k))
            samples = [_gt_sample(gt, k)]
            t0 = int(gt.stamps[k])
            queries = [t0 - 100_000_000, t0 - 1, t0, t0 + 7_000_000]
            self._assert_same_poses(_interval(state, gt.w_body[k], samples),
                                    eager, queries)
            for i in [j for j in range(k + 1, k + 60) if not k + 20 <= j < k + 45]:
                samples.append(_gt_sample(gt, i))
                eager.advance(*samples[-1])
            stamps = [int(gt.stamps[i]) for i in (k + 1, k + 19, k + 45, k + 59)]
            queries += stamps + [s + 3_000_000 for s in stamps] + [
                int(gt.stamps[k + 30]), stamps[-1] + 400_000_000]
            self._assert_same_poses(_interval(state, gt.w_body[k], samples),
                                    eager, queries)

    @staticmethod
    def _assert_same_poses(interval, eager, stamps):
        v_eager = eager.predicted().v
        for stamp in stamps:
            a, b = interval.pose_at(stamp), eager.pose_at(stamp, v_eager)
            np.testing.assert_array_equal(a.R, b.R)
            np.testing.assert_array_equal(a.t, b.t)

    def test_pose_before_keyframe_follows_keyframe_state(self):
        # keyframe mid-turn on the urban loop (1 rad/s at 8 m/s); a scan
        # that started 0.1 s before it is deskewed from this pose by the
        # interval that runs on to the next keyframe
        gt = gen_trajectory(loop_scenario())
        k = int(np.searchsorted(gt.stamps, 13_500_000_000))
        state = NavState(pose=gt.poses[k], v=gt.v_world[k])
        interval = _interval(state, gt.w_body[k],
                             [_gt_sample(gt, i) for i in range(k, k + 51)])
        stamp = int(gt.stamps[k]) - 100_000_000
        pose, truth = interval.pose_at(stamp), pose_at(gt, stamp)
        assert np.linalg.norm(pose.t - truth.t) < 0.01
        assert np.linalg.norm(so3_log(truth.R.T @ pose.R)) < 1e-3

    def test_block_advance_equals_per_sample_advance(self):
        """The interval's one integration call equals the per-sample
        advance of the eager track bit for bit: deltas, stamps and
        poses, over a 0.26 s gap (three sub-steps) and repeated stamps
        (skipped, their samples unused)."""
        gt = gen_trajectory(loop_scenario())
        k = int(np.searchsorted(gt.stamps, 13.5e9))
        rng = np.random.default_rng(22)
        state = NavState(pose=gt.poses[k], v=gt.v_world[k],
                         b_a=rng.normal(scale=0.05, size=3),
                         b_g=rng.normal(scale=0.005, size=3))
        rows = [i for i in range(k + 1, k + 60) if not k + 20 <= i < k + 45]
        samples = [_gt_sample(gt, i) for i in rows]
        for at in (0, 10, 11, 11, 30):  # a repeat of the keyframe stamp too
            stamp, f, w = samples[at - 1] if at else _gt_sample(gt, k)
            samples.insert(at, (stamp, f + rng.normal(size=3), w + 1.0))
        interval = _interval(state, gt.w_body[k], [_gt_sample(gt, k)] + samples)
        eager = EagerPropagator(ImuNoiseParams())
        eager.reset(state, gt.w_body[k], *_gt_sample(gt, k))
        for sample in samples:
            eager.advance(*sample)
        assert interval.stamps == eager.stamps == [
            int(gt.stamps[i]) for i in [k] + rows]
        for f in dataclasses.fields(interval.delta):
            np.testing.assert_array_equal(getattr(interval.delta, f.name),
                                          getattr(eager.delta, f.name))
        self._assert_same_poses(interval, eager, interval.stamps + [
            s + 3_000_000 for s in interval.stamps] + [int(gt.stamps[k + 30])])

    @staticmethod
    def _propagate_at_rest(noise, stamps_s):
        f, w = np.array([0.1, -0.2, 9.81]), np.array([0.01, 0.02, -0.03])
        samples = [(int(round(t * 1e9)), f, w) for t in stamps_s]
        return _interval(NavState(), np.zeros(3), samples, noise)

    def test_imu_noise_reaches_preintegrated_covariance(self):
        base = ImuNoiseParams()
        loud = dataclasses.replace(
            base, gyro_noise_density=10 * base.gyro_noise_density,
            acc_noise_density=10 * base.acc_noise_density,
        )
        covs = [self._propagate_at_rest(noise, np.arange(0.0, 0.5, 0.01)).delta.cov
                for noise in (base, loud)]
        assert np.all(np.isfinite(covs[0])) and covs[0][0, 0] > 0
        scale = np.abs(covs[1]).max()
        np.testing.assert_allclose(covs[1], 100.0 * covs[0], rtol=0, atol=1e-9 * scale)

    def test_gap_integrated_over_full_length(self):
        # a 0.5 s hole in the fused stream, longer than one integrate() step
        stamps = np.concatenate([np.arange(0.0, 0.2, 0.01), 0.7 + np.arange(0.0, 0.1, 0.01)])
        interval = self._propagate_at_rest(ImuNoiseParams(), stamps)
        assert abs(interval.delta.dt - (stamps[-1] - stamps[0])) < 1e-6


SCHEDULE_CASES = ("duplicate stamps", "interval 0", "ends outside the samples",
                  "ends out of order")


@pytest.mark.parametrize("case", SCHEDULE_CASES)
def test_schedule_matches_per_sample_loop(case):
    """The up-front keyframe rows and per-keyframe lidar groups equal
    the bookkeeping of the per-sample loop they replaced, on seeded
    random stamps of a few ns, so that repeated stamps, keyframe bounds
    that land on a sample and scan ends equal to a keyframe stamp all
    occur."""
    rng = np.random.default_rng(SCHEDULE_CASES.index(case))
    for _ in range(750):
        n = int(rng.integers(2, 30))
        stamps = np.sort(rng.integers(0, 40, size=n))
        interval = int(rng.integers(1, 10))
        ends = np.sort(rng.integers(stamps[0], stamps[-1] + 1,
                                    size=rng.integers(0, 12)))
        if case == "duplicate stamps":
            stamps = np.repeat(stamps, rng.integers(1, 4, size=n))
        elif case == "interval 0":
            interval = int(rng.integers(-2, 1))
        elif case == "ends outside the samples":
            outside = [stamps[0] - rng.integers(0, 5, size=2),
                       stamps[-1] + rng.integers(1, 5, size=2)]
            ends = np.sort(np.concatenate([ends, *outside]))
        else:
            rng.shuffle(ends)
        rows, taken = _keyframe_schedule(stamps, interval, ends)
        want_rows, want_groups = keyframe_schedule_per_sample(
            stamps.tolist(), interval, ends.tolist())
        assert rows == want_rows
        assert [list(range(a, b)) for a, b in zip(taken, taken[1:])] == want_groups


@pytest.fixture(scope="module")
def result(straight_data):
    return run_pipeline(straight_data, parse_sensor_mask("L4I4G1"))


@pytest.fixture(scope="module")
def dropout_data():
    drops = [
        Dropout(sensor_id=sid, start=2.0, end=4.5)
        for sid in ("imu/F_L", "lidar/F_L", "imu/R_R", "lidar/R_R")
    ]
    return simulate(straight_scenario(dropouts=drops))


class TestInitialize:
    LEVER = np.array([0.3, -0.2, 1.0])

    @staticmethod
    def _fused(f, n=30):
        return FusedImu(np.arange(n, dtype=np.int64) * 10_000_000,
                        np.tile(f, (n, 1)), np.zeros((n, 3)), np.zeros((n, 3)))

    def test_one_fix_sets_the_prior_position_variance(self):
        gnss = GnssStream([0], [[100.0, 200.0, 5.0]], [0.25])
        x0, prior_cov = initialize(self._fused([0.0, 0.0, 9.81]), gnss,
                                   parse_sensor_mask("L4I4G1"), self.LEVER, 30)
        np.testing.assert_array_equal(np.diag(prior_cov)[3:6], 0.25)
        np.testing.assert_allclose(x0.pose.t, gnss.t[0] - x0.pose.R @ self.LEVER,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fixes", [
        [[100.0, 200.0, 5.0]],
        [[100.0, 200.0, 5.0], [100.3, 200.4, 5.0]],
    ], ids=["one-fix", "fixes-0.5m-apart"])
    def test_heading_unknown_without_a_course_baseline(self, fixes):
        """A standing rig with GNSS: no fix lies at the 10 m course
        baseline of 0.5 m fixes, so the heading in the fixes' frame is
        unknown; the yaw stays 0 and its prior is a uniform heading's."""
        gnss = GnssStream(np.arange(len(fixes)) * 10**9, fixes, [0.25] * len(fixes))
        x0, prior_cov = initialize(self._fused([0.0, 0.0, 9.81]), gnss,
                                   parse_sensor_mask("L4I4G1"), self.LEVER, 30)
        np.testing.assert_allclose(x0.pose.R, np.eye(3), rtol=0, atol=1e-15)
        assert prior_cov[2, 2] == pytest.approx(math.pi**2 / 3.0, rel=1e-12)
        np.testing.assert_array_equal(np.diag(prior_cov)[:2], 1e-4)

    def test_course_baseline_sets_a_tight_heading(self):
        """A fix 10 m from the first (the baseline of 0.5 m fixes) gives
        the yaw and a prior sigma of sqrt(2) * 0.5 / 10 rad."""
        gnss = GnssStream([0, 10**9], [[100.0, 200.0, 5.0], [106.0, 208.0, 5.0]],
                          [0.25, 0.25])
        x0, prior_cov = initialize(self._fused([0.0, 0.0, 9.81]), gnss,
                                   parse_sensor_mask("L4I4G1"), self.LEVER, 30)
        yaw = math.atan2(x0.pose.R[1, 0], x0.pose.R[0, 0])
        assert yaw == pytest.approx(math.atan2(8.0, 6.0), abs=1e-12)
        assert prior_cov[2, 2] == pytest.approx((math.sqrt(2.0) * 0.05) ** 2,
                                                rel=1e-12)

    def test_start_not_at_rest_falls_back_to_level(self):
        """Samples far from 1 g: the anchor is level, heads along the
        GNSS course, has zero biases and sits at the first fix less the
        rotated lever arm."""
        gnss = GnssStream([0, 10**9], [[100.0, 200.0, 5.0], [103.0, 204.0, 5.0]],
                          [0.01, 0.01])
        x0, prior_cov = initialize(self._fused([3.0, 0.0, 14.0]), gnss,
                                   parse_sensor_mask("L4I4G1"), self.LEVER, 30)
        yaw = math.atan2(4.0, 3.0)
        c, s = math.cos(yaw), math.sin(yaw)
        np.testing.assert_allclose(x0.pose.R, [[c, -s, 0], [s, c, 0], [0, 0, 1]],
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(x0.b_a, 0.0)
        np.testing.assert_array_equal(x0.b_g, 0.0)
        np.testing.assert_array_equal(x0.v, 0.0)
        np.testing.assert_allclose(x0.pose.t, gnss.t[0] - x0.pose.R @ self.LEVER,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.diag(prior_cov)[3:6], 0.01, rtol=1e-12)


class TestKeyframeStep:
    def test_records_match_the_graph(self, straight_data):
        """The first two keyframes of an L4I4G1 replay, stepped by hand.
        The first seeds the map and runs no ICP; the second registers
        against it. Each record's GNSS decision is the graph's new GNSS
        factor or its absence, the between factor is built from the
        record's ICP estimate, and the report's final cost is the
        graph's cost at the smoothed states."""
        mask, config = parse_sensor_mask("L4I4G1"), PipelineConfig()
        scenario = straight_data.scenario
        imu_groups, lidar_groups = replay_sync(straight_data, mask, config.sync,
                                               RunCounters())
        fused = fuse_imu_groups(
            imu_groups, {p: scenario.imus[p] for p in mask.imu_positions})
        x0, _ = initialize(fused, straight_data.gnss, mask, scenario.gnss_lever,
                           config.init_samples)
        scans = lidar_groups.messages()
        rows, taken = _keyframe_schedule(fused.stamps, 500_000_000,
                                         [max(s.scan_end for s in g) for g in scans])
        fixes = _gnss_schedule(straight_data.gnss, fused.stamps[rows[1:]].tolist())
        graph = FactorGraph()
        graph.add_node(0, x0)
        graph.add_factor(PriorFactor(0, x0.pose, x0.b_a, x0.b_g,
                                     1e-4 * np.eye(STATE_DIM)))
        submap = LocalSubmap(config.voxel_resolution, config.map_extent)
        w = np.zeros(3)
        for node in (1, 2):
            state = graph.nodes[node - 1]
            block = slice(rows[node - 1], rows[node] + 1)
            interval = _Interval(state, w, fused.stamps[block], fused.f[block],
                                 fused.w[block], config.imu_noise)
            w = fused.w[rows[node]] - state.b_g
            batch = [s for g in scans[taken[node - 1]:taken[node]] for s in g]
            assert batch
            before = len(graph.factors)
            record = _keyframe_step(graph, submap, node, interval, batch,
                                    straight_data.gnss, fixes[node - 1], scenario,
                                    x0, config)
            new = {f.kind: f for f in graph.factors[before:]}
            assert (record.gnss is None) == (fixes[node - 1] is None)
            assert ("gnss" in new) == bool(record.gnss)
            assert len(submap) > 0
            if node == 1:
                assert record.icp is None and new.keys() <= {"imu", "bias_anchor",
                                                             "gnss"}
            else:
                assert record.icp.converged and not record.icp.insufficient_overlap
                z = pose_compose(pose_inverse(state.pose), record.icp.pose)
                np.testing.assert_array_equal(new["between"].z.R, z.R)
                np.testing.assert_array_equal(new["between"].z.t, z.t)
            assert record.report.converged
            _, _, cost = graph.normal_equations(graph.nodes, sorted(graph.nodes))
            assert cost == pytest.approx(record.report.final_cost, rel=1e-12)
            truth = pose_at(straight_data.gt, int(fused.stamps[rows[node]]))
            assert np.linalg.norm(graph.nodes[node].pose.t - truth.t) < 0.05


class TestEachThingOnce:
    """A short L4I4 replay with the scan-boundary predictions and the
    map inserts recorded per keyframe step."""

    @pytest.fixture(scope="class")
    def calls(self, straight_data):
        steps, poses, inserts = [], [], []
        step, pose_at_, insert = (pipeline._keyframe_step, _Interval.pose_at,
                                  LocalSubmap.insert)

        def record_step(graph, submap, node, interval, scans, *args):
            steps.append((interval, scans))
            return step(graph, submap, node, interval, scans, *args)

        def record_pose_at(self, stamp):
            poses.append((self, stamp))
            return pose_at_(self, stamp)

        def record_insert(self, points):
            inserts.append(len(steps))
            return insert(self, points)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_keyframe_step", record_step)
            mp.setattr(_Interval, "pose_at", record_pose_at)
            mp.setattr(LocalSubmap, "insert", record_insert)
            run_pipeline(straight_data, parse_sensor_mask("L4I4"))
        return steps, poses, inserts

    def test_each_scan_boundary_is_predicted_once(self, calls):
        steps, poses, _ = calls
        asked = [(id(i), s) for i, scans in steps
                 for s in {t for scan in scans for t in (scan.scan_start,
                                                         scan.scan_end)}]
        predicted = [(id(i), s) for i, s in poses]
        assert len(predicted) == len(set(predicted))
        assert sorted(predicted) == sorted(asked)
        # the lidars scan in step, so a shared stamp is asked for twice
        assert sum(2 * len(scans) for _, scans in steps) > len(asked)

    def test_each_cloud_enters_the_map_once(self, calls):
        steps, _, inserts = calls
        # inserts[j] is the 1-based step that made insert j; none is made outside
        per_step = np.bincount(inserts, minlength=len(steps) + 1)
        assert per_step.tolist() == [0] + [int(bool(scans)) for _, scans in steps]
        assert per_step[1] == 1


class TestConfigKnobs:
    def test_voxel_and_extent_reach_the_clouds_and_the_map(self, straight_data,
                                                            monkeypatch):
        """Non-default `voxel_resolution` and `map_extent`: every keyframe
        cloud is downsampled at that voxel, and the one map every step
        registers against and inserts into is built with both."""
        clouds, maps, steps = [], [], []
        downsample, init = pipeline.voxel_downsample, LocalSubmap.__init__
        step = pipeline._keyframe_step

        def spy_downsample(points, resolution):
            clouds.append(resolution)
            return downsample(points, resolution)

        def spy_init(self, voxel_resolution, extent):
            maps.append((voxel_resolution, extent))
            init(self, voxel_resolution, extent)

        def spy_step(graph, submap, node, interval, scans, *args):
            steps.append((id(submap), bool(scans)))
            return step(graph, submap, node, interval, scans, *args)

        monkeypatch.setattr(pipeline, "voxel_downsample", spy_downsample)
        monkeypatch.setattr(LocalSubmap, "__init__", spy_init)
        monkeypatch.setattr(pipeline, "_keyframe_step", spy_step)
        run_pipeline(straight_data, parse_sensor_mask("L1I1"),
                     PipelineConfig(voxel_resolution=0.3, map_extent=120.0))
        assert maps == [(0.3, 120.0)]
        assert len({submap for submap, _ in steps}) == 1
        assert clouds and clouds == [0.3] * sum(scans for _, scans in steps)


class TestEndToEnd:
    def test_keyframes_cover_run(self, result, straight_data):
        span_s = (result.stamps[-1] - result.stamps[0]) / 1e9
        assert result.counters.keyframes >= span_s  # 2 Hz keyframes
        assert np.all(np.diff(result.stamps) > 0)

    def test_noise_free_accuracy(self, result, straight_gt):
        est = Trajectory(stamps=np.array(result.stamps), poses=tuple(result.poses))
        assert ape(straight_gt, est) < 1e-2

    def test_rpe_small_on_straight(self, result, straight_gt):
        est = Trajectory(stamps=np.array(result.stamps), poses=tuple(result.poses))
        rpe_trans, rpe_rot, pairs = rpe(straight_gt, est)
        assert pairs > 0
        assert rpe_trans < 0.05
        assert rpe_rot < 0.1

    def test_gnss_factors_used(self, result):
        assert result.counters.gnss_added > 0

    def test_every_gnss_fix_accounted_for(self, result, straight_data):
        c = result.counters
        assert c.gnss_unassociated > 0  # 5 Hz fixes, 2 Hz keyframes
        assert c.gnss_added + c.gnss_rejected + c.gnss_unassociated == len(
            straight_data.gnss
        )

    def test_deterministic_rerun(self, result, straight_data):
        again = run_pipeline(straight_data, parse_sensor_mask("L4I4G1"))
        assert again.stamps == result.stamps
        for a, b in zip(again.poses, result.poses):
            assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t)


class TestWithoutGnssFile:
    def test_gnss_mask_on_an_empty_stream(self, straight_data, tmp_path):
        """A dataset without gnss.csv replays under a GNSS mask: every
        GNSS counter is 0, and the trajectory is the one without GNSS."""
        write_dataset(tmp_path, dataclasses.replace(straight_data, lidar={}))
        os.remove(tmp_path / "gnss.csv")
        ds = dataclasses.replace(load_dataset(tmp_path), lidar=straight_data.lidar)
        assert len(ds.gnss) == 0 and ds.gnss.t.shape == (0, 3)
        result = run_pipeline(ds, parse_sensor_mask("L4I4G1"))
        c = result.counters
        assert c.keyframes > 0
        assert (c.gnss_added, c.gnss_rejected, c.gnss_unassociated) == (0, 0, 0)
        blind = run_pipeline(ds, parse_sensor_mask("L4I4"))
        assert result.stamps == blind.stamps
        for a, b in zip(result.poses, blind.poses):
            assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t)


class TestBenchmarkTracer:
    def test_every_span_opens_and_every_patch_is_undone(self, straight_data,
                                                        tmp_path, monkeypatch):
        """The benchmark's tracer times mlio by patching names such as
        `pipeline.integrate`; a refactor that calls
        `preintegration.integrate` instead would lose those spans. Every
        name the tracer patches must open a span in one replay (the
        loader excepted: a replay gets its dataset in memory), and every
        patch must be undone when the tracer is removed."""
        monkeypatch.syspath_prepend(
            os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
        import tracer as perf_tracer
        from mlio import dataset, graph, lidar, mimu, pipeline, submap

        modules = (dataset, graph, lidar, mimu, pipeline, submap)
        owners = list(modules) + [
            v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__]
        before = [(owner, dict(vars(owner))) for owner in owners]
        t = perf_tracer.Tracer()
        with t.installed():
            spans = {
                inspect.getclosurevars(value).nonlocals["name"]
                for owner, attrs in before for key, value in vars(owner).items()
                if attrs.get(key) is not value and hasattr(value, "__wrapped__")
            }
            with t.replay():
                result = pipeline.run_pipeline(
                    straight_data, parse_sensor_mask("L4I4G1"),
                    PipelineConfig(window=5))
                pipeline.write_run_outputs(tmp_path, result)
        assert len(spans) >= 20 and "preintegration.integrate" in spans
        opened = {name for name, *_ in t.spans}
        assert spans - opened == {"dataset.load"}
        for owner, attrs in before:
            now = dict(vars(owner))
            assert now.keys() == attrs.keys(), owner
            assert all(now[key] is value for key, value in attrs.items()), owner


    def test_submap_counts_are_the_queries_and_fits(self, straight_data, monkeypatch):
        """The tracer counts `submap.knn_queries` as the rows of `knn`'s
        first result and `submap.normals_requested` as the rows of
        `plane_normals`' first argument; both must equal the queries
        answered and the hoods fitted in its replay."""
        monkeypatch.syspath_prepend(
            os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
        import tracer as perf_tracer

        seen = {"queries": 0, "hoods": 0}
        knn, fit = LocalSubmap.knn, LocalSubmap.plane_normals

        def counted_knn(self, queries, *args, **kwargs):
            d, xyz = knn(self, queries, *args, **kwargs)
            assert xyz.shape == d.shape + (3,)
            seen["queries"] += len(np.atleast_2d(queries))
            return d, xyz

        def counted_fit(self, hoods):
            normals, centroids, valid = fit(self, hoods)
            seen["hoods"] += len(valid)
            return normals, centroids, valid

        monkeypatch.setattr(LocalSubmap, "knn", counted_knn)
        monkeypatch.setattr(LocalSubmap, "plane_normals", counted_fit)
        t = perf_tracer.Tracer()
        with t.installed(), t.replay():
            pipeline.run_pipeline(straight_data, parse_sensor_mask("L4I4G1"),
                                  PipelineConfig(window=5))
        assert 0 < seen["hoods"] <= seen["queries"]
        assert t.counts["submap.knn_queries"] == seen["queries"]
        assert t.counts["submap.normals_requested"] == seen["hoods"]


class TestDropout:
    def test_redundant_array_survives_dropout(self, dropout_data, straight_gt):
        result = run_pipeline(dropout_data, parse_sensor_mask("L4I4"))
        gaps_s = np.diff(result.stamps) / 1e9
        assert gaps_s.max() < 1.0  # no hole in the keyframe trajectory
        est = Trajectory(stamps=np.array(result.stamps), poses=tuple(result.poses))
        assert ape(straight_gt, est) < 0.5

    def test_sole_sensor_dropout_aborts(self, dropout_data):
        with pytest.raises(EstimatorDivergence, match="blackout"):
            run_pipeline(dropout_data, parse_sensor_mask("L1I1"))

    def test_mask_monotonicity(self, dropout_data):
        # adding sensors never turns a completed run into an abort
        run_pipeline(dropout_data, parse_sensor_mask("L2I2"))
        run_pipeline(dropout_data, parse_sensor_mask("L4I4"))


class TestCorridor:
    def test_blind_run_stays_on_noise_free_corridor(self):
        # between parallel walls ICP often stops at its iteration cap with
        # an along-track error; such results must not drag the state along
        data = simulate(corridor_scenario())
        gt = Trajectory(stamps=data.gt.stamps, poses=tuple(data.gt.poses))
        result = run_pipeline(data, parse_sensor_mask("L4I4"))
        est = Trajectory(stamps=np.array(result.stamps), poses=tuple(result.poses))
        assert ape(gt, est) < 0.5


# 1 cm lidar noise, IMU noise at the default rig's declared variances
NOISY_CORRIDOR = NoiseSpec(accel_sigma=0.01, gyro_sigma=0.001, lidar_sigma=0.01,
                           gnss_sigma=0.5)


class TestCorridorPitch:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lidar_noise_does_not_pitch_the_blind_corridor(self, seed):
        """ICP fits each plane to a point's 5 nearest map points. On a
        map whose voxel leaves those hoods a span not far above the 1 cm
        lidar noise, the noise tilts the planes and the corridor's pose
        pitches by 0.08-0.13 deg, which gravity turns into metres of
        along-track drift where the walls see nothing. An along-track
        step solved from a few far points (`WEAK_EIGENVALUE` too low)
        pitches it as well. The largest pitch error over all keyframes
        (the y component of log(R_gt^T R_est)) stays at most 0.05 deg."""
        data = simulate(corridor_scenario(length=60.0, seed=seed,
                                          noise=NOISY_CORRIDOR))
        result = run_pipeline(data, parse_sensor_mask("L4I4"))
        pitch = [so3_log(pose_at(data.gt, stamp).R.T @ pose.R)[1]
                 for stamp, pose in zip(result.stamps, result.poses)]
        assert len(pitch) > 20
        assert np.max(np.abs(pitch)) <= math.radians(0.05)


# one short noisy L4I4 run (standstill, three straights, two turns);
# prints the keyframe positions as JSON
_THREAD_RUN = """
import dataclasses, json
from mlio import sim
from mlio.pipeline import parse_sensor_mask, run_pipeline
noise = sim.NoiseSpec(accel_sigma=0.01, gyro_sigma=0.001, lidar_sigma=0.01,
                      gnss_sigma=0.5)
base = sim.loop_scenario(side=24.0, seed=0, noise=noise)
scenario = dataclasses.replace(base, segments=base.segments[:6])
result = run_pipeline(sim.simulate(scenario), parse_sensor_mask("L4I4"))
print(json.dumps([list(p.t) for p in result.poses]))
"""


class TestBlasThreads:
    def test_keyframes_agree_across_thread_counts(self):
        """The estimate must not hinge on how BLAS splits its sums. Runs
        with 1 and 2 OpenBLAS threads differ by up to 8.5e-7 m on this
        scenario (1e-10 m at seeds 1-3); 1e-4 m leaves two orders of
        magnitude for other CPUs while a rounding-driven divergence
        (metres) still fails."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(mlio.__file__)))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                                 capture_output=True, text=True, timeout=300,
                                 check=True).stdout
            runs.append(np.array(json.loads(out)))
        one, two = runs
        assert len(one) == len(two) >= 10
        assert np.max(np.linalg.norm(one - two, axis=1)) < 1e-4


class TestOutputs:
    def test_write_run_outputs(self, straight_data, tmp_path):
        from mlio.pipeline import write_run_outputs

        result = run_pipeline(straight_data, parse_sensor_mask("L2I2"))
        out = tmp_path / "run"
        write_run_outputs(out, result)
        assert (out / "est.tum").exists()
        assert (out / "fused_imu.csv").exists()
        counters = (out / "counters.txt").read_text()
        assert "mask: L2I2" in counters
        assert "keyframes:" in counters
        c = result.counters
        assert c.lm_iterations > 0
        for name in ("lm_iterations", "lm_rejected", "lm_unconverged"):
            assert f"{name}: {getattr(c, name)}\n" in counters
