"""End-to-end acceptance suite.

Each test class checks one externally stated guarantee of the package
against an independent oracle: closed-form identities, fine-step
numerical integration, central finite differences, hand-computed metric
values, or direction-of-effect comparisons on the synthetic urban loop.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from mlio.allan import allan_variance
from mlio.evaluation import Trajectory, ape, associate, rpe
from mlio.geometry import (
    NavState,
    Pose,
    pose_compose,
    pose_inverse,
    se3_exp,
    so3_exp,
    so3_log,
)
from mlio.graph import STATE_DIM, GnssFix, residual_gnss
from mlio.lidar import IcpConfig, LidarScan, deskew, icp_register
from mlio.mimu import (
    BatchFuser,
    ImuChannelCalib,
    MimuArray,
    build_stacked_model,
)
from mlio.pipeline import (
    EstimatorDivergence,
    parse_sensor_mask,
    run_pipeline,
)
from mlio.preintegration import empty_delta, integrate
from mlio.sim import Dropout, NoiseSpec, loop_scenario, simulate
from mlio.submap import LocalSubmap
from mlio.sync import Synchronizer
from oracles import (
    fuse_mle,
    imu_residual,
    imu_residual_jacobians,
    numeric_jacobian,
    residual_between_jacobians,
    residual_prior,
    residual_prior_jacobian,
)


# ---------------------------------------------------------------------------
# shared urban-loop fixtures (one simulation serves several tests)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def loop_data():
    return simulate(loop_scenario(noise=NoiseSpec(gnss_sigma=0.5)))


@pytest.fixture(scope="module")
def loop_gt(loop_data):
    return Trajectory(stamps=loop_data.gt.stamps, poses=tuple(loop_data.gt.poses))


@pytest.fixture(scope="module")
def loop_l4i4(loop_data):
    return run_pipeline(loop_data, parse_sensor_mask("L4I4"))


@pytest.fixture(scope="module")
def dropout_loop_data():
    drops = [
        Dropout(sensor_id=sid, start=20.0, end=30.0)
        for sid in ("imu/F_L", "lidar/F_L", "imu/R_R", "lidar/R_R")
    ]
    return simulate(loop_scenario(dropouts=drops))


def as_trajectory(result):
    return Trajectory(stamps=np.array(result.stamps), poses=tuple(result.poses))


def translation_ape(gt, est):
    pairs = associate(gt, est)
    errs = [
        np.linalg.norm(gt.poses[gi].t - est.poses[ei].t) for gi, ei in pairs
    ]
    return float(np.sqrt(np.mean(np.square(errs))))


# ---------------------------------------------------------------------------
# 1. MIMU fusion satisfies its normal equations
# ---------------------------------------------------------------------------


def random_array(rng, K):
    channels = []
    for _ in range(K):
        channels.append(
            ImuChannelCalib(
                R=Rotation.random(random_state=rng).as_matrix(),
                t=rng.uniform(-0.8, 0.8, 3),
                acc_noise_var=rng.uniform(1e-4, 4e-3, 3),
                gyro_noise_var=rng.uniform(1e-6, 4e-5, 3),
            )
        )
    return MimuArray(tuple(channels))


class TestMimuOptimality:
    def test_normal_equations_hold(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(1000):
            K = int(rng.integers(2, 5))
            arr = random_array(rng, K)
            y_f = rng.normal(0.0, 4.0, 3 * K)
            y_w = rng.normal(0.0, 0.5, 3 * K)
            cases.append((arr, y_f, y_w))
        worst = 0.0
        t0 = time.monotonic()
        for arr, y_f, y_w in cases:
            fused = fuse_mle(arr, y_f, y_w)
            h, H = build_stacked_model(arr, fused.w)
            Qinv = np.linalg.inv(arr.Q)
            phi = np.concatenate([fused.w_dot, fused.f])
            grad = H.T @ Qinv @ (np.concatenate([y_f, y_w]) - h - H @ phi)
            worst = max(worst, float(np.linalg.norm(grad)))
        elapsed = time.monotonic() - t0
        assert worst < 1e-8
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. preintegration against a 10 kHz fine integrator
# ---------------------------------------------------------------------------


def fine_integrate(W, A, dt, substeps):
    """Midpoint-rule strapdown integration of piecewise-constant (w, a)
    samples at `substeps` substeps per sample, gravity-free frame."""
    R = np.eye(3)
    v = np.zeros(3)
    p = np.zeros(3)
    h = dt / substeps
    tau_mid = (np.arange(substeps) + 0.5) * h
    for w, a in zip(W, A):
        rots = Rotation.from_rotvec(np.outer(tau_mid, w)).as_matrix()
        a_world = np.einsum("nij,j->ni", rots, a) @ R.T
        v_ends = v + np.cumsum(a_world, axis=0) * h
        v_starts = np.vstack([v, v_ends[:-1]])
        p = p + np.sum(v_starts * h + 0.5 * a_world * h * h, axis=0)
        v = v_ends[-1]
        R = R @ Rotation.from_rotvec(w * dt).as_matrix()
    return R, v, p


class TestPreintegrationOracle:
    def test_matches_fine_integrator(self):
        rng = np.random.default_rng(3)
        dt = 0.01  # 100 Hz samples over 1 s segments
        worst_rot, worst_pos = 0.0, 0.0
        t0 = time.monotonic()
        for _ in range(100):
            W = rng.uniform(-1.0, 1.0, (100, 3))
            A = rng.uniform(-5.0, 5.0, (100, 3))
            delta = empty_delta()
            for w, a in zip(W, A):
                delta = integrate(delta, a, w, dt)
            R_ref, _, p_ref = fine_integrate(W, A, dt, substeps=100)
            worst_rot = max(
                worst_rot, float(np.linalg.norm(so3_log(delta.dR.T @ R_ref)))
            )
            worst_pos = max(worst_pos, float(np.linalg.norm(delta.dp - p_ref)))
        elapsed = time.monotonic() - t0
        assert worst_rot < 1e-5
        assert worst_pos < 1e-5
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. factor residual Jacobians against central differences
# ---------------------------------------------------------------------------


def random_state(rng):
    pose = Pose(
        Rotation.random(random_state=rng).as_matrix(), rng.normal(0, 5, 3)
    )
    v = rng.normal(0, 2, 3)
    rng.normal(0, 0.5, 3)  # the former body-rate draw: keeps each seed's data
    return NavState(
        pose=pose,
        v=v,
        b_a=rng.normal(0, 0.05, 3),
        b_g=rng.normal(0, 0.005, 3),
    )


def jac_close(J_a, J_n, tol=1e-5):
    scale = 1.0 + np.abs(J_n).max()
    return np.abs(J_a - J_n).max() / scale < tol


class TestFactorJacobians:
    N = 100

    def test_prior(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N):
            x = random_state(rng)
            anchor = Pose(
                Rotation.random(random_state=rng).as_matrix(), rng.normal(0, 5, 3)
            )
            b_a0, b_g0 = rng.normal(0, 0.05, 3), rng.normal(0, 0.005, 3)
            J = residual_prior_jacobian(x, anchor)
            Jn = numeric_jacobian(
                lambda s: residual_prior(s, anchor, b_a0, b_g0), x
            )
            assert jac_close(J, Jn)

    def test_imu(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N):
            delta = empty_delta(
                b_a0=rng.normal(0, 0.05, 3), b_g0=rng.normal(0, 0.005, 3)
            )
            for _ in range(10):
                delta = integrate(
                    delta, rng.uniform(-5, 5, 3), rng.uniform(-1, 1, 3), 0.01
                )
            x_i, x_j = random_state(rng), random_state(rng)
            J_i, J_j = imu_residual_jacobians(x_i, x_j, delta)
            Jn_i = numeric_jacobian(
                lambda s: imu_residual(s, x_j, delta), x_i
            )
            Jn_j = numeric_jacobian(
                lambda s: imu_residual(x_i, s, delta), x_j
            )
            assert jac_close(J_i, Jn_i)
            assert jac_close(J_j, Jn_j)

    def test_between(self):
        rng = np.random.default_rng(17)
        for _ in range(self.N):
            x_i, x_j = random_state(rng), random_state(rng)
            z = Pose(
                Rotation.random(random_state=rng).as_matrix(), rng.normal(0, 2, 3)
            )
            _, J_i, J_j = residual_between_jacobians(x_i.pose, x_j.pose, z)
            Jn_i = numeric_jacobian(
                lambda s: residual_between_jacobians(s.pose, x_j.pose, z)[0], x_i
            )
            Jn_j = numeric_jacobian(
                lambda s: residual_between_jacobians(x_i.pose, s.pose, z)[0], x_j
            )
            assert jac_close(J_i, Jn_i[:, :6])
            assert jac_close(J_j, Jn_j[:, :6])
            assert np.abs(Jn_i[:, 6:]).max() < 1e-9
            assert np.abs(Jn_j[:, 6:]).max() < 1e-9

    def test_gnss(self):
        rng = np.random.default_rng(19)
        for _ in range(self.N):
            x = random_state(rng)
            fix = GnssFix(stamp=0, t=rng.normal(0, 5, 3), cov=np.eye(3))
            Jn = numeric_jacobian(lambda s: residual_gnss(s, fix), x)
            J = np.zeros((3, STATE_DIM))
            J[:, 3:6] = np.eye(3)
            assert jac_close(J, Jn)


# ---------------------------------------------------------------------------
# 4. deskew and ICP oracles
# ---------------------------------------------------------------------------


def surface_points(step, offset=0.0):
    """Structured indoor scene: floor, two walls, two boxes."""
    pts = []
    g = np.arange(-10.0 + offset, 10.0, step)
    gx, gy = np.meshgrid(g, g)
    pts.append(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
    h = np.arange(0.0 + offset, 4.0, step)
    wx, wz = np.meshgrid(g, h)
    pts.append(np.column_stack([wx.ravel(), np.full(wx.size, 10.0), wz.ravel()]))
    pts.append(np.column_stack([np.full(wx.size, 10.0), wx.ravel(), wz.ravel()]))
    for cx, cy in ((-4.0, -2.0), (3.0, -5.0)):
        b = np.arange(0.0 + offset, 2.0, step)
        bx, bz = np.meshgrid(cx + b, np.arange(0.0 + offset, 1.5, step))
        pts.append(np.column_stack([bx.ravel(), np.full(bx.size, cy), bz.ravel()]))
        by, bz = np.meshgrid(cy + b, np.arange(0.0 + offset, 1.5, step))
        pts.append(np.column_stack([np.full(by.size, cx), by.ravel(), bz.ravel()]))
    return np.concatenate(pts, axis=0)


class TestDeskewOracle:
    def test_constant_twist_plane(self):
        rng = np.random.default_rng(23)
        xi = np.array([0.02, -0.01, 0.04, 0.8, 0.2, 0.05])  # twist over the scan
        start = Pose(so3_exp([0.0, 0.0, 0.3]), np.array([1.0, 2.0, 1.5]))
        end = pose_compose(start, se3_exp(xi))
        span = 100_000_000  # 0.1 s scan
        n = 400
        stamps = np.sort(rng.integers(0, span + 1, n)).astype(np.int64)
        world = np.column_stack(
            [rng.uniform(-10, 10, n), rng.uniform(-10, 10, n), np.zeros(n)]
        )
        etas = stamps / span
        sensor_pts = np.stack(
            [
                pose_inverse(pose_compose(start, se3_exp(xi * e))).apply(q)
                for e, q in zip(etas, world)
            ]
        )
        scan = LidarScan(
            sensor_id="lidar/F_L", scan_start=0, scan_end=span,
            stamps=stamps, points=sensor_pts,
        )
        flat = deskew(scan, start, end)
        expected = pose_inverse(start).apply(world)
        assert np.abs(flat.points - expected).max() < 1e-3


@pytest.fixture(scope="module")
def scene_submap():
    m = LocalSubmap(0.05, 150.0)
    m.insert(surface_points(step=0.15))
    return m


class TestIcpOracle:
    @pytest.mark.parametrize(
        "rot_deg, trans",
        [
            (5.0, [0.5, 0.0, 0.0]),
            (-5.0, [0.0, -0.4, 0.1]),
            (2.0, [0.3, 0.3, -0.2]),
            (0.0, [0.0, 0.0, 0.5]),
        ],
    )
    def test_recovers_injected_perturbation(self, scene_submap, rot_deg, trans):
        true_pose = Pose(so3_exp([0.0, 0.0, 0.2]), np.array([1.0, -1.0, 1.2]))
        cloud = pose_inverse(true_pose).apply(surface_points(step=0.17, offset=0.06))
        axis = np.array([0.3, -0.2, 0.93])
        axis /= np.linalg.norm(axis)
        prior = Pose(
            so3_exp(axis * math.radians(rot_deg)) @ true_pose.R,
            true_pose.t + np.asarray(trans),
        )
        est = icp_register(cloud, scene_submap, prior, IcpConfig(max_iterations=60))
        assert not est.insufficient_overlap
        err_t = np.linalg.norm(est.pose.t - true_pose.t)
        err_r = np.linalg.norm(so3_log(est.pose.R.T @ true_pose.R))
        assert err_t < 1e-2
        assert math.degrees(err_r) < 0.1

    def test_single_plane_sets_degenerate_flag(self):
        m = LocalSubmap(0.05, 150.0)
        g = np.arange(-8.0, 8.0, 0.15)
        gx, gy = np.meshgrid(g, g)
        m.insert(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
        cloud = np.column_stack(
            [gx.ravel(), gy.ravel(), np.zeros(gx.size)]
        )[::3] + [0.04, 0.02, 0.0]
        est = icp_register(cloud, m, Pose.identity())
        assert est.degenerate


# ---------------------------------------------------------------------------
# 5. MLE fusion beats plain averaging on a heterogeneous array
# ---------------------------------------------------------------------------


LEVERS = np.array(
    [[0.5, 0.3, 0.1], [-0.4, 0.5, -0.1], [-0.5, -0.4, 0.2], [0.4, -0.5, -0.2]]
)


def heterogeneous_rig(rng):
    channels = []
    for t in LEVERS:
        channels.append(
            ImuChannelCalib(
                R=np.eye(3), t=t,
                acc_noise_var=np.full(3, float(rng.uniform(0.01, 0.05)) ** 2),
                gyro_noise_var=np.full(3, float(rng.uniform(0.002, 0.01)) ** 2),
            )
        )
    return MimuArray(tuple(channels))


class TestFusionBeatsAveraging:
    def test_rmse_ordering_over_seeds(self):
        t = np.arange(0.0, 60.0, 0.01)  # 60 s at 100 Hz
        w_true = 0.4 * np.column_stack(
            [np.sin(0.7 * t), np.sin(1.1 * t + 1.0), np.sin(1.3 * t + 2.0)]
        )
        w_dot_true = 0.4 * np.column_stack(
            [
                0.7 * np.cos(0.7 * t),
                1.1 * np.cos(1.1 * t + 1.0),
                1.3 * np.cos(1.3 * t + 2.0),
            ]
        )
        f_true = np.column_stack(
            [2.0 * np.sin(0.5 * t), 2.0 * np.cos(0.8 * t),
             9.81 + 0.5 * np.sin(1.7 * t)]
        )
        acc_wins = gyro_wins = 0
        t0 = time.monotonic()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            arr = heterogeneous_rig(rng)
            K = arr.K
            Yf = np.empty((t.size, 3 * K))
            Yw = np.empty((t.size, 3 * K))
            for k, c in enumerate(arr.channels):
                lever = np.cross(
                    w_true, np.cross(w_true, np.broadcast_to(c.t, (t.size, 3)))
                ) + np.cross(w_dot_true, np.broadcast_to(c.t, (t.size, 3)))
                sig_a = math.sqrt(float(c.acc_noise_var[0]))
                sig_g = math.sqrt(float(c.gyro_noise_var[0]))
                Yf[:, 3 * k:3 * k + 3] = (
                    f_true + lever + rng.normal(0.0, sig_a, (t.size, 3))
                )
                Yw[:, 3 * k:3 * k + 3] = w_true + rng.normal(
                    0.0, sig_g, (t.size, 3)
                )
            fuser = BatchFuser(arr)
            F, W, _ = fuser.fuse(Yf, Yw)
            Fa, Wa = fuser.fuse_average(Yf, Yw)
            rmse = lambda x, ref: float(np.sqrt(np.mean((x - ref) ** 2)))
            if rmse(F, f_true) < rmse(Fa, f_true):
                acc_wins += 1
            if rmse(W, w_true) <= rmse(Wa, w_true):
                gyro_wins += 1
        elapsed = time.monotonic() - t0
        assert acc_wins >= 95
        assert gyro_wins >= 95
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. dropout robustness on the urban loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dropout_l4i4(dropout_loop_data):
    t0 = time.monotonic()
    result = run_pipeline(dropout_loop_data, parse_sensor_mask("L4I4"))
    return result, time.monotonic() - t0


class TestDropoutRobustness:
    def test_redundant_rig_survives_with_bounded_degradation(
        self, dropout_loop_data, dropout_l4i4, loop_gt, loop_l4i4
    ):
        baseline_rpe, _, _ = rpe(loop_gt, as_trajectory(loop_l4i4))
        gt = Trajectory(
            stamps=dropout_loop_data.gt.stamps,
            poses=tuple(dropout_loop_data.gt.poses),
        )
        result, elapsed = dropout_l4i4
        dropout_rpe, _, _ = rpe(gt, as_trajectory(result))
        assert dropout_rpe < 2.0 * baseline_rpe
        assert elapsed < 300.0

    def test_single_chain_aborts_or_degrades_past_5x(
        self, dropout_loop_data, loop_data, loop_gt
    ):
        gt = Trajectory(
            stamps=dropout_loop_data.gt.stamps,
            poses=tuple(dropout_loop_data.gt.poses),
        )
        try:
            result = run_pipeline(dropout_loop_data, parse_sensor_mask("L1I1"))
        except EstimatorDivergence:
            # abort: the single chain has no data at all during the gap, and
            # an aborted run compares as unbounded error against any
            # completed one
            return
        dropout_rpe, _, _ = rpe(gt, as_trajectory(result))
        healthy = run_pipeline(loop_data, parse_sensor_mask("L1I1"))
        healthy_rpe, _, _ = rpe(loop_gt, as_trajectory(healthy))
        assert dropout_rpe > 5.0 * healthy_rpe

    def test_redundant_rig_beats_single_chain_under_dropout(
        self, dropout_loop_data, dropout_l4i4
    ):
        gt = Trajectory(
            stamps=dropout_loop_data.gt.stamps,
            poses=tuple(dropout_loop_data.gt.poses),
        )
        full_rpe, _, _ = rpe(gt, as_trajectory(dropout_l4i4[0]))
        try:
            single = run_pipeline(dropout_loop_data, parse_sensor_mask("L1I1"))
        except EstimatorDivergence:
            return  # aborted run: unbounded error, trivially worse
        single_rpe, _, _ = rpe(gt, as_trajectory(single))
        assert full_rpe < single_rpe


# ---------------------------------------------------------------------------
# 7. GNSS bounds the absolute drift
# ---------------------------------------------------------------------------


# The urban loop seen from a map frame in which it starts away from the
# origin with a 30 degree heading, as fixes in a map projection (UTM) would
# place it. Only GNSS observes this frame: the IMUs and lidars measure in
# the body and sensor frames, which a yaw rotation and a shift of the world
# leave unchanged (gravity stays along z), so the blind run on these data
# is the blind run on the original loop, anchored at the origin facing +x.
MAP_FROM_LOOP = Pose(so3_exp([0.0, 0.0, math.radians(30.0)]), [60.0, -40.0, 0.0])


@pytest.fixture(scope="module")
def map_frame_loop(loop_data):
    T = MAP_FROM_LOOP
    gt = dataclasses.replace(
        loop_data.gt,
        poses=tuple(pose_compose(T, p) for p in loop_data.gt.poses),
        v_world=loop_data.gt.v_world @ T.R.T,
        a_world=loop_data.gt.a_world @ T.R.T,
    )
    gnss = [
        GnssFix(stamp=f.stamp, t=T.apply(f.t), cov=T.R @ f.cov @ T.R.T)
        for f in loop_data.gnss
    ]
    data = dataclasses.replace(loop_data, gt=gt, gnss=gnss)
    return data, Trajectory(stamps=gt.stamps, poses=gt.poses)


class TestGnssDriftBound:
    def test_ape_bounded_and_improved(self, map_frame_loop, loop_l4i4):
        # GNSS bounds the error against the map frame, which the blind run
        # cannot observe
        data, gt = map_frame_loop
        est = as_trajectory(run_pipeline(data, parse_sensor_mask("L4I4G1")))
        blind = as_trajectory(loop_l4i4)
        ape_gnss = translation_ape(gt, est)
        assert ape_gnss <= 1.5  # ~3 sigma of the 0.5 m fix noise
        assert ape_gnss < translation_ape(gt, blind)
        assert ape(gt, est) < ape(gt, blind)


# ---------------------------------------------------------------------------
# 8. metric correctness
# ---------------------------------------------------------------------------


S = 1_000_000_000  # ns


def trans_pose(x, y=0.0, z=0.0, yaw=0.0):
    return Pose(so3_exp([0.0, 0.0, yaw]), np.array([x, y, z]))


class TestMetricCorrectness:
    def test_rpe_two_pose_translation(self):
        gt = Trajectory([0, S], (trans_pose(0.0), trans_pose(12.0)))
        est = Trajectory([0, S], (trans_pose(0.0), trans_pose(12.5)))
        rpe_t, rpe_r, pairs = rpe(gt, est, distance=10.0)
        assert pairs == 1
        assert rpe_t == pytest.approx(0.5, abs=1e-12)
        assert rpe_r == pytest.approx(0.0, abs=1e-12)

    def test_rpe_two_pose_rotation(self):
        yaw = math.radians(2.0)
        gt = Trajectory([0, S], (trans_pose(0.0), trans_pose(12.0)))
        est = Trajectory([0, S], (trans_pose(0.0), trans_pose(12.0, yaw=yaw)))
        rpe_t, rpe_r, _ = rpe(gt, est, distance=10.0)
        assert rpe_t == pytest.approx(0.0, abs=1e-12)
        assert rpe_r == pytest.approx(2.0, abs=1e-12)

    def test_ape_two_pose_translation(self):
        gt = Trajectory([0, S], (trans_pose(0.0), trans_pose(12.0)))
        est = Trajectory([0, S], (trans_pose(0.0), trans_pose(12.3, 0.4)))
        # Frobenius error is 0 for the first pose, 0.5 for the second
        assert ape(gt, est) == pytest.approx(math.sqrt(0.25 / 2.0), abs=1e-12)

    def test_ape_pure_rotation(self):
        yaw = math.radians(10.0)
        gt = Trajectory([0], (trans_pose(0.0),))
        est = Trajectory([0], (trans_pose(0.0, yaw=yaw),))
        expected = 2.0 * math.sqrt(2.0) * math.sin(yaw / 2.0)
        assert ape(gt, est) == pytest.approx(expected, abs=1e-12)

    def test_rpe_invariant_under_rigid_transform(self):
        rng = np.random.default_rng(29)
        stamps = np.arange(30) * S
        gt_poses, est_poses = [], []
        for i in range(30):
            yaw = 0.05 * i
            gt_poses.append(trans_pose(1.0 * i, 0.1 * i, yaw=yaw))
            est_poses.append(
                trans_pose(1.0 * i + 0.02 * i, 0.1 * i - 0.01 * i, yaw=yaw + 0.002 * i)
            )
        gt = Trajectory(stamps, tuple(gt_poses))
        est = Trajectory(stamps, tuple(est_poses))
        T = Pose(Rotation.random(random_state=rng).as_matrix(), rng.normal(0, 50, 3))
        moved = Trajectory(
            stamps, tuple(pose_compose(T, p) for p in est_poses)
        )
        a = rpe(gt, est, distance=10.0)
        b = rpe(gt, moved, distance=10.0)
        assert abs(a[0] - b[0]) < 1e-9
        assert abs(a[1] - b[1]) < 1e-9


# ---------------------------------------------------------------------------
# 9. synchronizer replay of the scripted loss pattern
# ---------------------------------------------------------------------------


class TestSynchronizerReplay:
    def test_lossy_pattern_groups(self):
        sensors = [f"lidar/{p}" for p in ("F_L", "F_R", "R_L", "R_R")]
        sync = Synchronizer(sensors)
        sent = {sid: [] for sid in sensors}

        def push(sid, t_s):
            sent[sid].append(int(t_s * S))

        def present(groups, g):
            return {sid for sid, i in zip(groups.sensors, groups.members[g]) if i >= 0}

        # t1: all four sensors report within the 10 ms window
        for sid, t_s in zip(sensors, (100.000, 100.004, 100.007, 100.009)):
            push(sid, t_s)
        groups = sync.group(sent)["lidar"]
        assert len(groups) == 1
        assert present(groups, 0) == set(sensors)

        # t2: only F_L and R_R survive
        push("lidar/F_L", 100.200)
        push("lidar/R_R", 100.203)

        # t3: the full rig reports again
        for sid in sensors:
            push(sid, 100.600)
        groups = sync.group(sent)["lidar"]
        assert present(groups, 1) == {"lidar/F_L", "lidar/R_R"}
        assert present(groups, 2) == set(sensors)

        anchors = groups.anchors.tolist()
        assert anchors == sorted(anchors)
        # every message is used once
        for k, sid in enumerate(groups.sensors):
            col = groups.members[:, k]
            assert sorted(col[col >= 0].tolist()) == list(range(len(sent[sid])))


# ---------------------------------------------------------------------------
# 10. Allan variance recovers the white-noise density
# ---------------------------------------------------------------------------


class TestAllanRecovery:
    def test_white_noise_density_within_10_percent(self):
        rate = 100.0
        sigma = 0.03
        n_true = sigma / math.sqrt(rate)
        rng = np.random.default_rng(31)
        samples = rng.normal(0.0, sigma, int(rate * 600))  # 10 min static log
        res = allan_variance(samples, rate)
        assert abs(res.white_noise_density - n_true) / n_true < 0.10


# ---------------------------------------------------------------------------
# 11. end-to-end determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_byte_identical_est_tum(self, tmp_path):
        from mlio.cli import main
        from mlio.sim import save_scenario

        scenario = dataclasses.replace(
            loop_scenario(),
            segments=((1.0, np.zeros(6)), (5.0, np.array([0, 0, 0, 8.0, 0, 0]))),
        )
        yaml_path = tmp_path / "straight.yaml"
        save_scenario(yaml_path, scenario)
        data = str(tmp_path / "data")
        assert main(["simulate", "--scenario", str(yaml_path), "--out", data,
                     "--seed", "5"]) == 0
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["run", "--dataset", data, "--sensors", "L4I4",
                         "--out", out]) == 0
            with open(f"{out}/est.tum", "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
        assert len(outs[0]) > 0
