import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import mlio
from mlio.evaluation import Trajectory, ape, rpe
from mlio.geometry import NS_PER_S, NavState, Pose, pose_compose, se3_exp, so3_log
from mlio.graph import (
    STATE_DIM,
    BetweenFactor,
    FactorGraph,
    GnssFactor,
    GnssFix,
    PriorFactor,
)
from mlio.mimu import BatchFuser, FusedImu, ImuStream, MimuArray
from mlio.pipeline import (
    EstimatorDivergence,
    PipelineConfig,
    SensorMask,
    _Propagator,
    fuse_imu_groups,
    graph_position_covariance,
    parse_sensor_mask,
    replay_sync,
    run_pipeline,
    RunCounters,
    write_fused_imu,
)
from mlio.preintegration import GRAVITY, ImuNoiseParams, integrate, predict
from mlio.sim import (
    Dropout,
    NoiseSpec,
    corridor_scenario,
    gen_trajectory,
    loop_scenario,
    simulate,
    synth_imu,
)
from oracles import fuse_imu_groups_per_group, write_fused_imu_rows


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

    def test_rows_equal_columns(self):
        fused = self._stream()
        rows = list(fused)
        assert len(rows) == len(fused) == 40
        assert [r.stamp for r in rows] == fused.stamps.tolist()
        assert all(type(r.stamp) is int for r in rows)
        for name in ("f", "w", "w_dot"):
            assert np.array_equal(np.stack([getattr(r, name) for r in rows]),
                                  getattr(fused, name)), name


class EagerPropagator(_Propagator):
    """The propagator with a predicted pose stored at every fused
    sample, as before `pose_at` predicted only the stamps it is asked
    about."""

    def reset(self, state, w):
        super().reset(state, w)
        self.track = [(0, state.pose)]

    def advance(self, stamp, f, w):
        if self.last_stamp is None:
            self.track = [(stamp, self.state.pose)]
        else:
            dt = (stamp - self.last_stamp) / NS_PER_S
            if dt <= 0:
                return
            f_mid = 0.5 * (self.last_f + f)
            w_mid = 0.5 * (self.last_w + w)
            steps = int(np.ceil(dt / 0.099))
            for _ in range(steps):
                self.delta = integrate(self.delta, f_mid, w_mid, dt / steps,
                                       self.noise)
            self.track.append((stamp, predict(self.state, self.delta).pose))
        self.last_stamp = stamp
        self.last_f, self.last_w = f, w

    def pose_at(self, stamp, v):
        stamps = [t for t, _ in self.track]
        k = int(np.searchsorted(stamps, stamp, side="right")) - 1
        if k < 0:
            t_k, pose = self.track[0]
            w, v = self.w, self.state.v
        else:
            t_k, pose = self.track[k]
            if self.last_w is None:
                return pose
            w = self.last_w - self.state.b_g
        rem = (stamp - t_k) / NS_PER_S
        if abs(rem) < 1e-12:
            return pose
        v_body = pose.R.T @ v
        return pose_compose(pose, se3_exp(np.concatenate([w, v_body]) * rem))


class TestPropagator:
    def test_pose_at_equals_eager_track(self):
        """Bit for bit: stamps before the keyframe, on samples, between
        samples (also across a 0.26 s gap) and after the last sample, at
        biased keyframe states mid-turn; and before any sample."""
        gt = gen_trajectory(loop_scenario())
        rng = np.random.default_rng(21)
        for k in (int(np.searchsorted(gt.stamps, t)) for t in (4e9, 13.5e9)):
            state = NavState(pose=gt.poses[k], v=gt.v_world[k],
                             b_a=rng.normal(scale=0.05, size=3),
                             b_g=rng.normal(scale=0.005, size=3))
            lazy, eager = (cls(state, ImuNoiseParams(), w=gt.w_body[k])
                           for cls in (_Propagator, EagerPropagator))
            t0 = int(gt.stamps[k])
            queries = [t0 - 100_000_000, t0 - 1, t0, t0 + 7_000_000]
            self._assert_same_poses(lazy, eager, queries)
            for i in [j for j in range(k, k + 60) if not k + 20 <= j < k + 45]:
                sample = (int(gt.stamps[i]),
                          gt.poses[i].R.T @ (gt.a_world[i] - GRAVITY),
                          gt.w_body[i])
                lazy.advance(*sample)
                eager.advance(*sample)
            stamps = [int(gt.stamps[i]) for i in (k + 1, k + 19, k + 45, k + 59)]
            queries += stamps + [s + 3_000_000 for s in stamps] + [
                int(gt.stamps[k + 30]), stamps[-1] + 400_000_000]
            self._assert_same_poses(lazy, eager, queries)

    @staticmethod
    def _assert_same_poses(lazy, eager, stamps):
        v_lazy, v_eager = lazy.predicted().v, eager.predicted().v
        for stamp in stamps:
            a, b = lazy.pose_at(stamp, v_lazy), eager.pose_at(stamp, v_eager)
            np.testing.assert_array_equal(a.R, b.R)
            np.testing.assert_array_equal(a.t, b.t)

    def test_pose_before_keyframe_follows_keyframe_state(self):
        # keyframe mid-turn on the urban loop (1 rad/s at 8 m/s); a scan
        # that started 0.1 s before it is deskewed from this pose after
        # the propagator has run on to the next keyframe
        gt = gen_trajectory(loop_scenario())
        k = int(np.searchsorted(gt.stamps, 13_500_000_000))
        state = NavState(pose=gt.poses[k], v=gt.v_world[k])
        prop = _Propagator(state, ImuNoiseParams(), w=gt.w_body[k])
        for i in range(k, k + 51):
            prop.advance(int(gt.stamps[i]),
                         gt.poses[i].R.T @ (gt.a_world[i] - GRAVITY),
                         gt.w_body[i])
        stamp = int(gt.stamps[k]) - 100_000_000
        pose, truth = prop.pose_at(stamp, prop.predicted().v), gt.pose_at(stamp)
        assert np.linalg.norm(pose.t - truth.t) < 0.01
        assert np.linalg.norm(so3_log(truth.R.T @ pose.R)) < 1e-3

    @staticmethod
    def _advance_at_rest(prop, stamps_s):
        for t in stamps_s:
            prop.advance(int(round(t * 1e9)), np.array([0.1, -0.2, 9.81]),
                         np.array([0.01, 0.02, -0.03]))

    def test_imu_noise_reaches_preintegrated_covariance(self):
        base = ImuNoiseParams()
        loud = dataclasses.replace(
            base, gyro_noise_density=10 * base.gyro_noise_density,
            acc_noise_density=10 * base.acc_noise_density,
        )
        covs = []
        for noise in (base, loud):
            prop = _Propagator(NavState(), noise)
            self._advance_at_rest(prop, np.arange(0.0, 0.5, 0.01))
            covs.append(prop.delta.cov)
        assert np.all(np.isfinite(covs[0])) and covs[0][0, 0] > 0
        scale = np.abs(covs[1]).max()
        np.testing.assert_allclose(covs[1], 100.0 * covs[0], rtol=0, atol=1e-9 * scale)

    def test_gap_integrated_over_full_length(self):
        # a 0.5 s hole in the fused stream, longer than one integrate() step
        stamps = np.concatenate([np.arange(0.0, 0.2, 0.01), 0.7 + np.arange(0.0, 0.1, 0.01)])
        prop = _Propagator(NavState(), ImuNoiseParams())
        self._advance_at_rest(prop, stamps)
        assert abs(prop.delta.dt - (stamps[-1] - stamps[0])) < 1e-6


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


class TestPositionCovariance:
    def test_matches_inverse_of_ridged_normal_matrix(self):
        g = FactorGraph()
        for k in range(3):
            g.add_node(k, NavState(pose=Pose(np.eye(3), [k, 0.0, 0.0])))
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3),
                                 np.eye(STATE_DIM) * 0.01))
        for k in range(2):
            g.add_factor(BetweenFactor(k, k + 1, Pose(np.eye(3), [1.0, 0, 0])))
        g.add_factor(GnssFactor(2, GnssFix(0, [2.0, 0.1, 0], np.diag([0.25, 0.5, 1.0]))))
        H, _, _ = g.normal_equations(g.nodes, [0, 1, 2])
        inv = np.linalg.inv(H + np.eye(len(H)) * 1e-9)
        for k in range(3):
            p = STATE_DIM * k + 3  # position columns of node k
            block = inv[p:p + 3, p:p + 3]
            np.testing.assert_allclose(graph_position_covariance(g, k), block,
                                       rtol=1e-9, atol=1e-15)


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
