import dataclasses
import math
import os

import numpy as np
import pytest
import yaml

import mlio.sim as sim_module

from mlio.dataset import _format_rows, load_dataset, read_scan_file, write_dataset
from mlio.geometry import (
    NS_PER_S,
    Pose,
    pose_compose,
    pose_inverse,
    se3_exp,
    se3_log,
    so3_exp,
    to_nanos,
)
from mlio.graph import GnssStream
from mlio.lidar import deskew
from mlio.mimu import ImuChannelCalib, ImuStream
from mlio.sim import (
    BUILTIN_SCENARIOS,
    Box,
    Dropout,
    LidarMount,
    NoiseSpec,
    Plane,
    Rates,
    Scenario,
    _scan_pattern,
    _segment_starts,
    _twists_at,
    corridor_scenario,
    gen_trajectory,
    inject_dropout,
    load_scenario,
    loop_scenario,
    raycast_world,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    synth_gnss,
    synth_imu,
    synth_lidar,
)
from oracles import (
    ImuSample,
    pose_at,
    raycast_world_per_surface,
    synth_scan_per_call,
    transform_to_base,
    twist_at_linear,
    write_dataset_rows,
    write_scan_file_rows,
    write_stamped_csv_rows,
)


def simple_imus(levers):
    return {
        pos: ImuChannelCalib(
            R=np.eye(3), t=t, acc_noise_var=[1e-4] * 3, gyro_noise_var=[1e-6] * 3
        )
        for pos, t in levers.items()
    }


def scenario_with(segments, **kwargs):
    defaults = dict(
        seed=0,
        segments=segments,
        world=[Plane(point=[0, 0, 0], normal=[0, 0, 1])],
        imus=simple_imus({"F_L": [0.0, 0.0, 0.0]}),
        lidars={},
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestRaycast:
    def test_plane_straight_down(self):
        world = [Plane(point=[0, 0, 0], normal=[0, 0, 1])]
        r = raycast_world(world, np.array([[0, 0, 5.0]]), np.array([[0, 0, -1.0]]))
        assert r[0] == pytest.approx(5.0)

    def test_box_entry_distance(self):
        world = [Box(lo=[2, -1, -1], hi=[4, 1, 1])]
        r = raycast_world(world, np.array([[0, 0, 0.0]]), np.array([[1.0, 0, 0]]))
        assert r[0] == pytest.approx(2.0)

    def test_miss_is_inf(self):
        world = [Box(lo=[2, -1, -1], hi=[4, 1, 1])]
        r = raycast_world(world, np.array([[0, 0, 0.0]]), np.array([[-1.0, 0, 0]]))
        assert np.isinf(r[0])

    BOXES = [Box(lo=[2, -1, -1], hi=[4, 1, 1]),
             Box(lo=[-3, -3, 0], hi=[-1, 3, 2]),
             Box(lo=[-1, 2, -2], hi=[5, 2.5, 3]),
             Box(lo=[0, -6, 0], hi=[0.4, -4, 1])]

    @staticmethod
    def seeded_rays(boxes, n=4000):
        """Random rays, with origins on box faces and inside boxes,
        direction components at, around and below 1e-12, and rays that
        point away from everything."""
        rng = np.random.default_rng(12)
        origins = rng.uniform(-8, 8, size=(n, 3))
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        tiny = np.array([0.0, -0.0, 1e-12, -1e-12, 5e-13, -1e-13, 1.1e-12,
                         -2e-12])
        k = rng.integers(0, 3, size=n // 2)
        dirs[np.arange(n // 2), k] = rng.choice(tiny, size=n // 2)
        for i, box in enumerate(boxes):
            inside = slice(n // 2 + 200 * i, n // 2 + 200 * i + 100)
            origins[inside] = rng.uniform(box.lo, box.hi, size=(100, 3))
            # on a face; half of them run along it (0 * inf = NaN)
            on_face = np.arange(n // 2 + 200 * i + 100, n // 2 + 200 * (i + 1))
            axis = rng.integers(0, 3, size=100)
            origins[on_face] = rng.uniform(box.lo, box.hi, size=(100, 3))
            origins[on_face, axis] = np.where(rng.random(100) < 0.5,
                                              box.lo[axis], box.hi[axis])
            dirs[on_face[:50], axis[:50]] = rng.choice(tiny, size=50)
        # far above the world, looking up: hits nothing
        origins[-50:] = [0.0, 0.0, 50.0]
        dirs[-50:] = [0.0, 0.0, 1.0]
        return origins, dirs

    @pytest.mark.parametrize("world", [
        [Plane(point=[0, 0, -1], normal=[0.1, 0, 1])] + BOXES,
        BOXES + [Plane(point=[0, 0, -1], normal=[0, 0, 1])],
        [Plane(point=[0, 0, -1], normal=[0.1, 0.2, 1])],
        BOXES[:1],
    ], ids=["plane-first", "plane-last", "plane-only", "one-box"])
    def test_matches_per_surface_oracle_bitwise(self, world):
        origins, dirs = self.seeded_rays(self.BOXES)
        got = raycast_world(world, origins, dirs)
        want = raycast_world_per_surface(world, origins, dirs)
        assert got.tobytes() == want.tobytes()
        hit = np.isfinite(want)
        assert 0 < hit.sum() < len(want)
        assert np.all(want[hit] > 1e-6)

    def test_origin_inside_box_hits_where_it_leaves(self):
        world = [Box(lo=[-1, -1, -1], hi=[3, 1, 1])]
        r = raycast_world(world, np.array([[0.0, 0, 0], [0.0, 0, 0]]),
                          np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        np.testing.assert_array_equal(r, [3.0, 1.0])

    def test_box_behind_the_origin_is_missed(self):
        world = [Box(lo=[2, -1, -1], hi=[4, 1, 1])]
        r = raycast_world(world, np.array([[5.0, 0, 0], [4.0, 0, 0]]),
                          np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        assert np.isinf(r).all()


class TestGenTrajectory:
    def test_zero_twist_constant_pose(self):
        s = scenario_with([(10.0, np.zeros(6))])
        gt = gen_trajectory(s)
        for p in gt.poses[:: 100]:
            np.testing.assert_allclose(p.t, 0.0, atol=1e-12)
            np.testing.assert_allclose(p.R, np.eye(3), atol=1e-12)

    def test_straight_line(self):
        s = scenario_with([(10.0, [0, 0, 0, 1.0, 0, 0])])
        gt = gen_trajectory(s)
        np.testing.assert_allclose(gt.poses[-1].t, [10.0, 0, 0], atol=1e-9)

    def test_circle_returns_to_start(self):
        # w_z = 0.1, v_x = 1: radius 10 m, period 2*pi/0.1
        T = 2.0 * math.pi / 0.1
        s = scenario_with([(T, [0, 0, 0.1, 1.0, 0, 0])])
        gt = gen_trajectory(s)
        assert np.linalg.norm(gt.poses[-1].t) < 1e-6

    def test_kinematic_consistency(self):
        s = scenario_with(
            [(3.0, [0.05, 0, 0.3, 2.0, 0.1, 0]), (3.0, [0, 0.1, -0.2, 1.0, 0, 0.2])],
            ramp=0.5,
        )
        gt = gen_trajectory(s)
        dt = 1.0 / s.rates.imu_hz
        # second-order central differences lose accuracy where the twist
        # curvature is high: skip the blend window at the segment boundary
        ramp = (3.0 - 2 * dt, 3.5 + 2 * dt)
        from mlio.geometry import so3_log

        for k in range(1, len(gt.poses) - 1):
            t = gt.stamps[k] / NS_PER_S
            if ramp[0] <= t <= ramp[1]:
                continue
            v_num = (gt.poses[k + 1].t - gt.poses[k - 1].t) / (2 * dt)
            assert np.linalg.norm(v_num - gt.v_world[k]) < 1e-4
            w_num = so3_log(gt.poses[k - 1].R.T @ gt.poses[k + 1].R) / (2 * dt)
            assert np.linalg.norm(w_num - gt.w_body[k]) < 1e-4

    def test_twist_at_equals_linear_scan(self):
        """The batched twists equal the one-time linear-scan reference
        bit for bit: at every segment start and ramp end and 1 ns or one
        ulp either side, through each ramp, before the start and past
        the end."""
        s = scenario_with(
            [(0.37, [0, 0, 0.1, 1, 0, 0]), (1.13, [0.2, 0, -0.3, 2, 0, 0.1]),
             (0.1, np.zeros(6)), (2.9, [0, 0.1, 0.4, 3, -0.2, 0]),
             (0.25, [0, 0, 0, 1, 0, 0])],
            ramp=0.3,
        )
        times = [-1.0, -1e-9, s.duration, s.duration + 1.0]
        for start in _segment_starts(s):
            for edge in (start, start + s.ramp):
                ns = to_nanos(edge)
                times += [edge, np.nextafter(edge, -1.0), np.nextafter(edge, 9.0)]
                times += [(ns + d) / NS_PER_S for d in (-1, 0, 1)]
            times += list(start + np.linspace(0.0, 0.31, 32))
        xi, dxi = _twists_at(s, times)
        for t, row, drow in zip(times, xi, dxi):
            xi_ref, dxi_ref = twist_at_linear(s, t)
            assert row.tobytes() == xi_ref.tobytes(), t
            assert drow.tobytes() == dxi_ref.tobytes(), t

    def test_pose_at_matches_samples(self):
        """The batched poses equal the one-stamp reference bit for bit:
        before, at and after both ends of the span, on samples and
        between them; on samples they are the samples."""
        s = scenario_with([(2.0, [0.1, 0, 0.3, 1.0, 0.2, 0])], ramp=0.5)
        gt = gen_trajectory(s)
        first, last = int(gt.stamps[0]), int(gt.stamps[-1])
        stamps = [first - 10**9, first - 1, first, first + 1, last - 1, last, last + 1,
                  last + 10**9, 3_456_789]
        for k in (1, 57, 123, len(gt.stamps) - 2):
            stamps += [int(gt.stamps[k]) + d for d in (-1, 0, 1, 4_999_999)]
        R, t = gt.poses_at(stamps)
        assert R.shape == (len(stamps), 3, 3) and t.shape == (len(stamps), 3)
        for stamp, R_k, t_k in zip(stamps, R, t):
            ref = pose_at(gt, stamp)
            assert R_k.tobytes() == ref.R.tobytes(), stamp
            assert t_k.tobytes() == ref.t.tobytes(), stamp
        for k in (0, 57, 123, len(gt.stamps) - 1):
            _, t_k = gt.poses_at([gt.stamps[k]])
            np.testing.assert_allclose(t_k[0], gt.poses[k].t, atol=1e-12)


class TestSynthImu:
    def test_static_reads_gravity(self):
        s = scenario_with(
            [(1.0, np.zeros(6))],
            imus=simple_imus({"F_L": [0.5, 0.3, 0], "R_R": [-0.5, -0.3, 0]}),
        )
        gt = gen_trajectory(s)
        streams = synth_imu(gt, s.imus, NoiseSpec(), seed=0)
        for sid, stream in streams.items():
            assert stream.sensor_id == sid
            assert np.array_equal(stream.stamps, gt.stamps)
            np.testing.assert_allclose(stream.f, np.tile([0, 0, 9.81], (len(stream), 1)),
                                       atol=1e-9)
            np.testing.assert_allclose(stream.w, 0.0, atol=1e-12)

    def test_centrifugal_difference_between_levers(self):
        # steady yaw at 1 rad/s: channels at (1,0,0) and (-1,0,0) differ
        # by 2 [w]^2 t = (-2, 0, 0) on the x axis
        s = scenario_with(
            [(5.0, [0, 0, 1.0, 0, 0, 0])],
            imus=simple_imus({"F_L": [1.0, 0, 0], "R_R": [-1.0, 0, 0]}),
        )
        gt = gen_trajectory(s)
        streams = synth_imu(gt, s.imus, NoiseSpec(), seed=0)
        k = 250  # mid-run, away from start
        d = streams["imu/F_L"].f[k] - streams["imu/R_R"].f[k]
        np.testing.assert_allclose(d, [-2.0, 0, 0], atol=1e-9)

    def test_noise_free_round_trip(self):
        s = scenario_with(
            [(2.0, [0.1, 0, 0.5, 2.0, 0, 0]), (2.0, [0, 0.2, -0.4, 1.0, 0.5, 0])],
            ramp=0.4,
            imus={
                "F_L": ImuChannelCalib(
                    R=so3_exp([0.2, -0.1, 0.3]),
                    t=[0.4, 0.2, -0.1],
                    acc_noise_var=[1e-4] * 3,
                    gyro_noise_var=[1e-6] * 3,
                )
            },
        )
        gt = gen_trajectory(s)
        streams = synth_imu(gt, s.imus, NoiseSpec(), seed=0)
        calib = s.imus["F_L"]
        g = np.array([0, 0, -9.81])
        for k in range(0, len(gt.stamps), 37):
            back = transform_to_base(
                ImuSample.row(streams["imu/F_L"], k), calib, w_dot_est=gt.w_dot[k]
            )
            f_b_true = gt.poses[k].R.T @ (gt.a_world[k] - g)
            assert np.linalg.norm(back.f - f_b_true) < 1e-10
            assert np.linalg.norm(back.w - gt.w_body[k]) < 1e-10


class TestSynthLidar:
    def test_static_points_on_plane(self):
        s = scenario_with(
            [(1.0, np.zeros(6))],
            lidars={"F_L": LidarMount(pose=Pose(np.eye(3), [0, 0, 2.0]))},
        )
        gt = gen_trajectory(s)
        streams = synth_lidar(gt, s.world, s.lidars, 5.0, NoiseSpec(), seed=0)
        scans = streams["lidar/F_L"]
        assert len(scans) == 5
        for scan in scans:
            world_pts = scan.points + np.array([0, 0, 2.0])
            np.testing.assert_allclose(world_pts[:, 2], 0.0, atol=1e-9)

    def test_moving_sensor_deskew_flattens_wall(self):
        mount = LidarMount(pose=Pose(np.eye(3), [0, 0, 1.5]), fov_deg=120.0,
                           elevations_deg=(0.0, 5.0))
        world = [Box(lo=[30, -40, 0], hi=[30.5, 40, 10.0])]
        s = scenario_with([(2.0, [0, 0, 0.2, 5.0, 0, 0])], lidars={"F_L": mount},
                          world=world)
        gt = gen_trajectory(s)
        streams = synth_lidar(gt, world, s.lidars, 2.0, NoiseSpec(), seed=0)
        scan = streams["lidar/F_L"][0]
        S0 = pose_compose(pose_at(gt, scan.scan_start), mount.pose)
        S1 = pose_compose(pose_at(gt, scan.scan_end), mount.pose)
        flat = deskew(scan, S0, S1)
        wall_x = S0.apply(flat)[:, 0]
        np.testing.assert_allclose(wall_x, 30.0, atol=1e-9)
        # without deskew the raw points do not lie on the wall
        raw_x = S0.apply(scan.points)[:, 0]
        assert np.max(np.abs(raw_x - 30.0)) > 0.1

    def test_matches_per_azimuth_pose_loop(self):
        """Each azimuth step is cast from pose_compose(S0, se3_exp(eta
        xi)), evaluated here one azimuth at a time."""
        mount = LidarMount(pose=Pose(so3_exp([0.0, 0.1, 0.6]), [0.4, -0.2, 1.5]))
        world = [Plane(point=[0, 0, 0], normal=[0, 0, 1]),
                 Box(lo=[8, -20, 0], hi=[9, 20, 6]),
                 Box(lo=[-20, 6, 0], hi=[20, 7, 6])]
        s = scenario_with([(1.0, [0.1, 0, 0.8, 4.0, 0.5, 0])],
                          lidars={"F_L": mount}, world=world)
        gt = gen_trajectory(s)
        period_ns = NS_PER_S // 5
        pattern = _scan_pattern(mount)
        n_az = len(pattern)
        scans = synth_lidar(gt, world, s.lidars, 5.0, NoiseSpec(), seed=0)["lidar/F_L"]
        assert len(scans) == 5
        for scan in scans:
            S0 = pose_compose(pose_at(gt, scan.scan_start), mount.pose)
            S1 = pose_compose(pose_at(gt, scan.scan_end), mount.pose)
            xi = se3_log(pose_compose(pose_inverse(S0), S1))
            pts, stamps = [], []
            for a in range(n_az):
                offset = a * period_ns // n_az
                Sa = pose_compose(S0, se3_exp(xi * (offset / period_ns)))
                dirs = pattern[a] @ Sa.R.T
                ranges = raycast_world(world, np.tile(Sa.t, (len(dirs), 1)), dirs)
                hit = np.isfinite(ranges) & (ranges <= s.max_range)
                pts.append(pattern[a][hit] * ranges[hit, None])
                stamps += [scan.scan_start + offset] * int(hit.sum())
            np.testing.assert_array_equal(scan.stamps, stamps)
            np.testing.assert_allclose(scan.points, np.concatenate(pts),
                                       rtol=0, atol=1e-9)

    def test_scans_equal_per_call_pose_variant(self):
        """Interpolating each scan-boundary pose once for all sensors
        gives the scans that `pose_at` per scan end gives."""
        s = corridor_scenario(length=4.0)
        gt = gen_trajectory(s)
        period_ns = NS_PER_S // 5
        streams = synth_lidar(gt, s.world, s.lidars, 5.0, NoiseSpec(), seed=0)
        assert len(streams) == 4
        for sid, scans in streams.items():
            mount = s.lidars[sid.split("/")[1]]
            pattern = _scan_pattern(mount)
            assert len(scans) == int(gt.stamps[-1] // period_ns)
            for scan in scans:
                stamps, points = synth_scan_per_call(
                    gt, s.world, mount, pattern, scan.scan_start, period_ns,
                    s.max_range)
                assert scan.stamps.tobytes() == stamps.astype(np.int64).tobytes()
                assert scan.points.tobytes() == points.tobytes()

    def test_four_mounts_cover_full_circle(self):
        s = loop_scenario(seed=0)
        gt = gen_trajectory(
            scenario_with([(1.0, np.zeros(6))])
        )
        streams = synth_lidar(
            gt, s.world, s.lidars, 5.0, NoiseSpec(), seed=0
        )
        bins = 36
        union = np.zeros(bins, dtype=bool)
        for sid, scans in streams.items():
            mount = s.lidars[sid.split("/")[1]]
            own = np.zeros(bins, dtype=bool)
            for scan in scans[:1]:
                world_dirs = (mount.pose.R @ scan.points.T).T
                az = np.arctan2(world_dirs[:, 1], world_dirs[:, 0])
                idx = ((az + math.pi) / (2 * math.pi) * bins).astype(int) % bins
                own[idx] = True
            assert own.sum() < bins  # each sensor alone is not 360 degrees
            union |= own
        assert union.all()  # the rig together covers 360 degrees


class TestSynthGnss:
    def test_zero_sigma_on_true_path(self):
        s = scenario_with([(10.0, [0, 0, 0.1, 2.0, 0, 0])])
        gt = gen_trajectory(s)
        fixes = synth_gnss(gt, 5.0, 0.0, [0, 0, 0], seed=0)
        for stamp, t in zip(fixes.stamps[::7].tolist(), fixes.t[::7]):
            np.testing.assert_allclose(t, pose_at(gt, stamp).t, atol=1e-12)

    def test_count(self):
        s = scenario_with([(100.0, [0, 0, 0, 1.0, 0, 0])])
        gt = gen_trajectory(s)
        fixes = synth_gnss(gt, 5.0, 0.0, [0, 0, 0], seed=0)
        assert len(fixes) == 500

    def test_sigma_statistics(self):
        s = scenario_with([(100.0, np.zeros(6))])
        gt = gen_trajectory(s)
        fixes = synth_gnss(gt, 100.0, 0.5, [0, 0, 0], seed=1)
        err = fixes.t
        assert abs(err.std() - 0.5) / 0.5 < 0.05

    def test_lever_arm_offset(self):
        s = scenario_with([(2.0, np.zeros(6))])
        gt = gen_trajectory(s)
        fixes = synth_gnss(gt, 5.0, 0.0, [0.0, 0.0, 2.0], seed=0)
        np.testing.assert_allclose(fixes.t[0], [0, 0, 2.0], atol=1e-12)


class TestInjectDropout:
    def test_interval_removed_others_untouched(self):
        s = scenario_with(
            [(20.0, np.zeros(6))],
            imus=simple_imus({"F_L": [0.1, 0, 0], "R_R": [-0.1, 0, 0]}),
        )
        gt = gen_trajectory(s)
        streams = synth_imu(gt, s.imus, NoiseSpec(), seed=0)
        out = inject_dropout(
            streams, [Dropout("imu/F_L", 5.0, 15.0)]
        )
        fl = out["imu/F_L"]
        assert not np.any((fl.stamps >= 5 * NS_PER_S) & (fl.stamps <= 15 * NS_PER_S))
        kept = (streams["imu/F_L"].stamps < 5 * NS_PER_S) | (
            streams["imu/F_L"].stamps > 15 * NS_PER_S)
        assert np.array_equal(fl.stamps, streams["imu/F_L"].stamps[kept])
        assert np.array_equal(fl.f, streams["imu/F_L"].f[kept])
        assert np.array_equal(fl.w, streams["imu/F_L"].w[kept])
        assert np.array_equal(out["imu/R_R"].stamps, streams["imu/R_R"].stamps)
        assert np.array_equal(out["imu/R_R"].f, streams["imu/R_R"].f)

    def test_empty_is_identity(self):
        out = inject_dropout({"gnss": GnssStream([], [], [])}, [])
        assert len(out["gnss"]) == 0 and out["gnss"].t.shape == (0, 3)
        s = scenario_with([(1.0, np.zeros(6))])
        gt = gen_trajectory(s)
        imu = synth_imu(gt, s.imus, NoiseSpec(), seed=0)
        out = inject_dropout(imu, [])
        assert set(out) == set(imu)
        for sid, stream in imu.items():
            assert np.array_equal(out[sid].stamps, stream.stamps)
            assert np.array_equal(out[sid].f, stream.f)
            assert np.array_equal(out[sid].w, stream.w)

    def test_gnss_fixes_removed_by_stamp(self):
        """A GNSS stream loses the fixes stamped inside a window, both
        ends included, by the rule that IMU streams follow."""
        s = scenario_with([(4.0, np.zeros(6))])
        gnss = synth_gnss(gen_trajectory(s), 10.0, 0.3, [0, 0, 1.0], seed=0)
        out = inject_dropout({"gnss": gnss}, [Dropout("gnss", 1.0, 2.5),
                                              Dropout("imu/F_L", 0.0, 4.0)])["gnss"]
        kept = (gnss.stamps < NS_PER_S) | (gnss.stamps > 2_500_000_000)
        assert {NS_PER_S, 2_500_000_000} <= set(gnss.stamps.tolist())
        assert isinstance(out, GnssStream) and len(out) == kept.sum() == len(gnss) - 16
        for name in ("stamps", "t", "var"):
            assert np.array_equal(getattr(out, name), getattr(gnss, name)[kept])

    def test_drop_everything(self):
        s = scenario_with([(2.0, np.zeros(6))])
        gt = gen_trajectory(s)
        imu = synth_imu(gt, s.imus, NoiseSpec(), seed=0)
        out = inject_dropout(imu, [Dropout("imu/F_L", 0.0, 2.0)])
        assert len(out["imu/F_L"]) == 0
        assert out["imu/F_L"].f.shape == (0, 3)


class TestDeterminism:
    def test_identical_seed_identical_streams(self):
        noise = NoiseSpec(accel_sigma=0.05, gyro_sigma=0.005, lidar_sigma=0.01,
                          gnss_sigma=0.3)
        a = simulate(corridor_scenario(length=10.0, seed=7, noise=noise))
        b = simulate(corridor_scenario(length=10.0, seed=7, noise=noise))
        for sid in a.imu:
            assert np.array_equal(a.imu[sid].f, b.imu[sid].f)
            assert np.array_equal(a.imu[sid].w, b.imu[sid].w)
        for sid in a.lidar:
            for x, y in zip(a.lidar[sid], b.lidar[sid]):
                assert np.array_equal(x.points, y.points)
        assert np.array_equal(a.gnss.t, b.gnss.t)

    def test_sensor_streams_independent_of_subset(self):
        # generating fewer sensors must not change the shared ones
        full = loop_scenario(side=40.0, seed=3, noise=NoiseSpec(accel_sigma=0.1))
        gt = gen_trajectory(full)
        all_streams = synth_imu(gt, full.imus, full.noise, full.seed)
        only_fl = synth_imu(
            gt, {"F_L": full.imus["F_L"]}, full.noise, full.seed
        )
        assert np.array_equal(all_streams["imu/F_L"].f, only_fl["imu/F_L"].f)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        sim = simulate(
            corridor_scenario(
                length=8.0, seed=2,
                noise=NoiseSpec(lidar_sigma=0.01, gnss_sigma=0.2),
                dropouts=[Dropout("imu/F_L", 0.2, 0.6)],
            )
        )
        out = tmp_path / "ds"
        write_dataset(out, sim)
        ds = load_dataset(out)
        assert set(ds.imu) == set(sim.imu)
        for sid in sim.imu:
            assert len(ds.imu[sid]) == len(sim.imu[sid])
            np.testing.assert_allclose(ds.imu[sid].f, sim.imu[sid].f, atol=1e-8)
            assert np.array_equal(ds.imu[sid].stamps, sim.imu[sid].stamps)
        assert len(ds.gnss) == len(sim.gnss)
        for sid in sim.lidar:
            assert len(ds.lidar[sid]) == len(sim.lidar[sid])
            s0, s1 = ds.lidar[sid][0], sim.lidar[sid][0]
            assert s0.scan_start == s1.scan_start
            np.testing.assert_allclose(s0.points, s1.points, atol=1e-8)
            assert np.array_equal(s0.stamps, s1.stamps)
        assert len(ds.gt_poses) == len(sim.gt.poses)
        np.testing.assert_allclose(
            ds.gt_poses[-1].t, sim.gt.poses[-1].t, atol=1e-8
        )
        assert ds.scenario.seed == 2
        assert len(ds.scenario.dropouts) == 1

    def test_byte_identical_on_same_seed(self, tmp_path):
        for d in ("a", "b"):
            sim = simulate(
                corridor_scenario(length=5.0, seed=4,
                                  noise=NoiseSpec(lidar_sigma=0.02))
            )
            write_dataset(tmp_path / d, sim)
        for root, _, files in os.walk(tmp_path / "a"):
            for f in files:
                pa = os.path.join(root, f)
                pb = pa.replace(str(tmp_path / "a"), str(tmp_path / "b"))
                with open(pa, "rb") as fa, open(pb, "rb") as fb:
                    assert fa.read() == fb.read(), f


    def test_imu_round_trip_is_bit_identical(self, tmp_path):
        """sim -> write -> load gives the written text's values exactly,
        and writing the loaded streams again gives the same bytes."""
        sim = simulate(
            corridor_scenario(
                length=5.0, seed=3, noise=NoiseSpec(accel_sigma=0.05),
                dropouts=[Dropout("imu/R_L", 0.3, 0.9)],
            )
        )
        write_dataset(tmp_path / "a", sim)
        ds = load_dataset(tmp_path / "a")
        for sid, stream in sim.imu.items():
            got = ds.imu[sid]
            assert got.sensor_id == sid
            assert got.stamps.dtype == np.int64
            assert np.array_equal(got.stamps, stream.stamps)
            for mine, theirs in ((got.f, stream.f), (got.w, stream.w)):
                printed = np.vectorize(lambda v: float(f"{v:.9e}"))(theirs)
                assert np.array_equal(mine, printed)
        write_dataset(tmp_path / "b", dataclasses.replace(sim, imu=ds.imu))
        for sid in sim.imu:
            name = f"imu_{sid.split('/')[1]}.csv"
            with open(tmp_path / "a" / name, "rb") as fa, \
                    open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read()

    def test_large_stamps_round_trip_exactly(self, tmp_path):
        """Stamps past 2^53 ns (here Unix time in ns) are written and
        read back exactly in the IMU and GNSS CSVs; gt.tum, like every
        TUM file, holds seconds."""
        sim = simulate(corridor_scenario(length=4.0, seed=1))
        first = 1700000000123456789
        shift = first - int(sim.imu["imu/F_L"].stamps[0])
        imu = {sid: ImuStream(s.stamps + shift, s.f, s.w, sid)
               for sid, s in sim.imu.items()}
        gnss = dataclasses.replace(sim.gnss, stamps=sim.gnss.stamps + shift)
        write_dataset(tmp_path, dataclasses.replace(sim, imu=imu, gnss=gnss,
                                                    lidar={}))
        assert (tmp_path / "imu_F_L.csv").read_text().startswith(f"{first},")
        ds = load_dataset(tmp_path)
        for sid, stream in imu.items():
            assert ds.imu[sid].stamps.dtype == np.int64
            assert np.array_equal(ds.imu[sid].stamps, stream.stamps)
        assert len(gnss) > 0
        assert ds.gnss.stamps.dtype == np.int64
        assert np.array_equal(ds.gnss.stamps, gnss.stamps)

    def test_scan_files_match_the_row_writer(self, tmp_path):
        """Each scan file holds the bytes of the per-point writer, also
        with epoch-scale stamps, and reads back as the written scan."""
        sim = simulate(corridor_scenario(length=4.0, seed=1))
        shift = 1700000000123456789 - sim.lidar["lidar/F_L"][0].scan_start
        lidar = {sid: [dataclasses.replace(
            s, scan_start=s.scan_start + shift, scan_end=s.scan_end + shift,
            stamps=s.stamps + shift) for s in scans[:3]]
            for sid, scans in sim.lidar.items()}
        write_dataset(tmp_path, dataclasses.replace(sim, lidar=lidar))
        for sid, scans in lidar.items():
            for n, scan in enumerate(scans):
                path = tmp_path / "scans" / sid.split("/")[1] / f"{n:06d}.csv"
                write_scan_file_rows(tmp_path / "rows.csv", scan)
                assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
                back = read_scan_file(path)
                assert (back.sensor_id, back.scan_start, back.scan_end) == (
                    scan.sensor_id, scan.scan_start, scan.scan_end)
                assert np.array_equal(back.stamps, scan.stamps)
                np.testing.assert_allclose(back.points, scan.points, rtol=1e-9)

    @staticmethod
    def gnss_dataset_with_variance(path, var, line=None):
        """A short corridor dataset whose gnss.csv has variance `var` on
        1-based `line`, or on every line."""
        write_dataset(path, simulate(corridor_scenario(length=4.0, seed=1)))
        lines = (path / "gnss.csv").read_text().splitlines()
        assert len(lines) > 1
        lines = [
            row.rsplit(",", 1)[0] + f",{var}" if line in (None, n + 1) else row
            for n, row in enumerate(lines)
        ]
        (path / "gnss.csv").write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("var", ["-2.500000000e-01", "nan", "inf"])
    def test_bad_gnss_variance_is_rejected_with_its_line(self, tmp_path, var):
        self.gnss_dataset_with_variance(tmp_path, var, line=2)
        with pytest.raises(ValueError, match=r"gnss\.csv line 2: variance"):
            load_dataset(tmp_path)

    def test_gnss_out_of_stamp_order_is_rejected_with_its_line(self, tmp_path):
        """Fixes 0, 5, 12 and 20 m along x, 0.2 s apart, written in the
        order 2, 0, 3, 1: the anchor would land on the third fix, facing
        back, and the keyframes would pass two fixes over."""
        sim = simulate(corridor_scenario(length=4.0, seed=1))
        order = [2, 0, 3, 1]
        fixes = GnssStream(np.arange(4) * 200_000_000,
                           np.array([[0.0, 0, 0], [5, 0, 0], [12, 0, 0], [20, 0, 0]]),
                           np.full(4, 0.25)).take(order)
        write_dataset(tmp_path, dataclasses.replace(sim, gnss=fixes))
        with pytest.raises(ValueError, match=r"gnss\.csv line 2: stamp before"):
            load_dataset(tmp_path)

    def test_equal_gnss_stamps_load(self, tmp_path):
        sim = simulate(corridor_scenario(length=4.0, seed=1))
        fixes = sim.gnss.take([0, 1, 1, 2])
        write_dataset(tmp_path, dataclasses.replace(sim, gnss=fixes))
        assert np.array_equal(load_dataset(tmp_path).gnss.stamps, fixes.stamps)

    def test_zero_gnss_variance_loads_at_the_floor(self, tmp_path):
        self.gnss_dataset_with_variance(tmp_path, "0.000000000e+00")
        fixes = load_dataset(tmp_path).gnss
        assert len(fixes) > 1
        assert np.array_equal(fixes.var, np.full(len(fixes), 1e-12))
        assert np.array_equal(fixes.cov(1), 1e-12 * np.eye(3))

    def test_gnss_round_trip_is_exact(self, tmp_path):
        """Every fix's stamp, position and variance reads back exactly
        as written: values of at most ten significant digits as they
        are, a simulated stream as `%.9e` prints it."""
        rng = np.random.default_rng(3)
        exact = GnssStream(np.arange(7) * 200_000_000 + 2**60,
                           rng.integers(-10**5, 10**5, size=(7, 3)) / 64,
                           rng.integers(1, 10**4, size=7) / 64)
        sim = simulate(corridor_scenario(length=4.0, seed=1,
                                         noise=NoiseSpec(gnss_sigma=0.3)))
        printed = np.vectorize(lambda v: float(f"{v:.9e}"))
        for gnss, expected in ((exact, exact), (sim.gnss, GnssStream(
                sim.gnss.stamps, printed(sim.gnss.t), printed(sim.gnss.var)))):
            write_dataset(tmp_path, dataclasses.replace(sim, gnss=gnss, lidar={}))
            back = load_dataset(tmp_path).gnss
            assert back.stamps.dtype == np.int64
            for name in ("stamps", "t", "var"):
                assert np.array_equal(getattr(back, name), getattr(expected, name))

    def test_tiny_gnss_sigma_floors_as_on_disk(self, tmp_path):
        """A GNSS sigma under 1 um gives the floored variance in memory,
        the one the written dataset loads with."""
        sim = simulate(corridor_scenario(length=4.0, seed=1,
                                         noise=NoiseSpec(gnss_sigma=1e-7)))
        write_dataset(tmp_path, sim)
        assert np.array_equal(sim.gnss.var, np.full(len(sim.gnss), 1e-12))
        assert np.array_equal(load_dataset(tmp_path).gnss.var, sim.gnss.var)

    def test_missing_gnss_file_loads_an_empty_stream(self, tmp_path):
        write_dataset(tmp_path, simulate(corridor_scenario(length=4.0, seed=1)))
        os.remove(tmp_path / "gnss.csv")
        gnss = load_dataset(tmp_path).gnss
        assert isinstance(gnss, GnssStream) and len(gnss) == 0
        assert gnss.stamps.dtype == np.int64 and gnss.stamps.shape == (0,)
        assert gnss.t.dtype == float and gnss.t.shape == (0, 3)
        assert gnss.var.dtype == float and gnss.var.shape == (0,)

    def test_ground_truth_read_on_first_access(self, tmp_path):
        sim = simulate(corridor_scenario(length=4.0, seed=1))
        write_dataset(tmp_path, sim)
        os.rename(tmp_path / "gt.tum", tmp_path / "gt.later")
        ds = load_dataset(tmp_path)
        os.rename(tmp_path / "gt.later", tmp_path / "gt.tum")
        assert np.array_equal(ds.gt_stamps, sim.gt.stamps)
        assert len(ds.gt_poses) == len(sim.gt.poses)


def hard_values(rng) -> np.ndarray:
    """Over 1M doubles of every class the row formatter treats apart."""
    n = 400_000
    sign = rng.choice([-1.0, 1.0], size=n)
    # exact 11-digit ties (…5) where 10**(9 - e) is inexact, e = 10..17,
    # and dyadic ties j / 2**(10 - e), e = -3..9, where it is exact
    k = rng.integers(10**9 // 2, 10**10 // 2, size=60_000)
    e = rng.integers(10, 18, size=len(k))
    decimal_ties = ((2 * k + 1) * 5).astype(float) * 10.0 ** (e - 10)
    e = rng.integers(-3, 10, size=20_000)
    j = np.floor(10.0 ** (e + rng.uniform(0, 1, len(e))) * 2.0 ** (10 - e))
    dyadic_ties = (j + (j % 2 == 0)) * 2.0 ** (e - 10.0)
    # each power of ten, values that round up to the next (the carry)
    # and their neighbours
    p = 10.0 ** np.arange(-307, 308)
    near = np.concatenate([p, p * 9.9999999995, p * 9.99999999951, p * 9.99999999949,
                           [1e308, 9.9999999995, 1e22, 1e23, 2.2250738585072014e-308]])
    near = np.concatenate([near, *(np.nextafter(near, t) for t in (0.0, np.inf))])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.5e-310,
                        1e-300, 1.7976931348623157e308])
    values = np.concatenate([
        sign * rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n),
        sign * 10.0 ** rng.uniform(-300, 300, size=n),
        sign[:200_000] * 10.0 ** rng.uniform(-308, -299, size=200_000),  # 10**(9 - e) overflows
        sign[:20_000] * rng.uniform(0, 2.2250738585072014e-308, size=20_000),  # subnormal
        decimal_ties, -decimal_ties, dyadic_ties, near, -near, special, -special,
    ])
    return values[rng.permutation(len(values))]


def percent_rows(tmp_path, stamps, values) -> bytes:
    write_stamped_csv_rows(tmp_path / "rows.csv", stamps, values)
    return (tmp_path / "rows.csv").read_bytes()


class TestStampedRows:
    def test_equals_percent_on_every_class(self, tmp_path):
        rng = np.random.default_rng(17)
        values = hard_values(rng)
        values = values[:len(values) // 3 * 3].reshape(-1, 3)
        assert values.size >= 1_000_000
        stamps = rng.integers(-2**62, 2**62, size=len(values))
        stamps[:5] = [-2**63, 2**63 - 1, 0, -1, 9]
        assert _format_rows(stamps, values) == percent_rows(tmp_path, stamps, values)

    def test_zero_and_single_rows(self, tmp_path):
        for k in (1, 4, 7):
            assert _format_rows([], np.zeros((0, k))) == b""
            for stamp, value in ((0, 1.0), (-2**63, -0.0), (123, 9.99999999951)):
                row = np.full((1, k), value)
                assert _format_rows([stamp], row) == percent_rows(tmp_path, [stamp], row)

    @pytest.mark.parametrize("scenario", [
        corridor_scenario(length=4.0, seed=8, noise=NoiseSpec(
            lidar_sigma=0.01, gnss_sigma=0.5, accel_sigma=0.01, gyro_sigma=0.001)),
        dataclasses.replace(
            loop_scenario(side=24.0, seed=9, noise=NoiseSpec(lidar_sigma=0.01),
                          dropouts=[Dropout("lidar/F_L", 2.0, 3.0),
                                    Dropout("imu/R_R", 2.0, 3.0)]),
            segments=loop_scenario(side=24.0).segments[:4]),
    ], ids=["corridor", "loop-dropout"])
    def test_write_dataset_equals_the_row_writer(self, tmp_path, scenario):
        sim = simulate(scenario)
        assert sim.gnss
        write_dataset(tmp_path / "cols", sim)
        write_dataset_rows(tmp_path / "rows", sim)
        names = sorted(str(f.relative_to(tmp_path / "rows"))
                       for f in (tmp_path / "rows").rglob("*") if f.is_file())
        assert names == sorted(str(f.relative_to(tmp_path / "cols"))
                               for f in (tmp_path / "cols").rglob("*") if f.is_file())
        assert len(names) > 20
        for name in names:
            assert (tmp_path / "cols" / name).read_bytes() == (
                tmp_path / "rows" / name).read_bytes(), name


class TestScenarioFile:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    def test_libyaml_and_python_loaders_agree(self, tmp_path, monkeypatch):
        path = tmp_path / "loop.yaml"
        save_scenario(path, loop_scenario(seed=5))
        assert sim_module.YAML_LOADER is yaml.CSafeLoader
        fast = load_scenario(path)
        monkeypatch.setattr(sim_module, "YAML_LOADER", yaml.SafeLoader)
        slow = load_scenario(path)
        assert scenario_to_dict(fast) == scenario_to_dict(slow)
        assert repr(fast) == repr(slow)

    @pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                        reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_libyaml_and_python_dumpers_agree(self, tmp_path, name):
        assert sim_module.YAML_DUMPER is yaml.CSafeDumper
        scenario = BUILTIN_SCENARIOS[name]()
        save_scenario(tmp_path / "fast.yaml", scenario)
        assert (tmp_path / "fast.yaml").read_text() == yaml.safe_dump(
            scenario_to_dict(scenario), sort_keys=False)


class TestScenarioValidation:
    def test_dropout_outside_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            scenario_with(
                [(5.0, np.zeros(6))],
                dropouts=(Dropout("imu/F_L", 2.0, 10.0),),
            )

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            Rates(imu_hz=0.0)

    def test_builtin_names(self):
        assert BUILTIN_SCENARIOS["urban-loop"]().duration > 30.0
        with pytest.raises(KeyError):
            BUILTIN_SCENARIOS["nope"]

    def test_lidar_keys_omitted_from_file_keep_mount_defaults(self):
        doc = {
            "segments": [{"duration": 1.0, "twist": [0.0] * 6}],
            "lidars": {"F_L": {"pose": {"quat": [1.0, 0, 0, 0],
                                        "t": [0.0, 0.0, 1.8]}}},
        }
        got = scenario_from_dict(doc).lidars["F_L"]
        expected = LidarMount(pose=Pose(np.eye(3), [0.0, 0.0, 1.8]))
        assert got.fov_deg == expected.fov_deg
        assert got.n_azimuth == expected.n_azimuth
        np.testing.assert_array_equal(got.elevations_deg,
                                      expected.elevations_deg)
