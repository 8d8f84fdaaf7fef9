import math

import numpy as np
import pytest

from mlio.evaluation import (
    ASSOCIATION_WINDOW_NS,
    IMU_ASSOCIATION_NS,
    AssociationError,
    Trajectory,
    ape,
    associate,
    evaluate,
    imu_rmse,
    rpe,
    write_pair_csv,
    write_report,
)
from mlio.geometry import NS_PER_S, Pose, pose_compose, so3_exp
from mlio.mimu import FusedImuSample


def straight_trajectory(n=101, step=0.2, dt_ns=100_000_000):
    stamps = np.arange(n, dtype=np.int64) * dt_ns
    poses = tuple(Pose(np.eye(3), [k * step, 0.0, 0.0]) for k in range(n))
    return Trajectory(stamps=stamps, poses=poses)


class TestRpe:
    def test_identical_zero(self):
        t = straight_trajectory()
        tr, rot, n = rpe(t, t)
        assert tr == pytest.approx(0.0, abs=1e-12)
        assert rot == pytest.approx(0.0, abs=1e-10)
        assert n > 0

    def test_invariant_to_global_transform(self):
        gt = straight_trajectory()
        G = Pose(so3_exp([0.3, -0.2, 0.9]), [5.0, -2.0, 1.0])
        est = Trajectory(
            stamps=gt.stamps,
            poses=tuple(pose_compose(G, p) for p in gt.poses),
        )
        tr, rot, _ = rpe(gt, est)
        assert tr < 1e-10
        assert rot < 1e-8

    def test_two_pose_hand_case(self):
        stamps = np.array([0, NS_PER_S], dtype=np.int64)
        gt = Trajectory(
            stamps=stamps,
            poses=(Pose(), Pose(np.eye(3), [10.0, 0, 0])),
        )
        est = Trajectory(
            stamps=stamps,
            poses=(Pose(), Pose(np.eye(3), [11.0, 0, 0])),
        )
        tr, rot, n = rpe(gt, est, distance=10.0)
        assert tr == pytest.approx(1.0)
        assert rot == pytest.approx(0.0, abs=1e-10)
        assert n == 1

    def test_short_path_raises(self):
        t = straight_trajectory(n=5)  # 0.8 m of path
        with pytest.raises(AssociationError):
            rpe(t, t, distance=10.0)

    def test_distance_flag_scales_pairs(self):
        # with every-pose windows, pair count is (L - d) / spacing, so a
        # 15 m path roughly doubles the count between d=10 and d=5
        t = straight_trajectory(n=76)
        _, _, n10 = rpe(t, t, distance=10.0)
        _, _, n5 = rpe(t, t, distance=5.0)
        assert abs(n5 - 2 * n10) <= 0.1 * n10 + 2

    def test_subsampling_stability(self):
        rng = np.random.default_rng(0)
        gt = straight_trajectory(n=401)
        est = Trajectory(
            stamps=gt.stamps,
            poses=tuple(
                Pose(
                    p.R @ so3_exp(rng.normal(scale=2e-3, size=3)),
                    p.t + rng.normal(scale=0.01, size=3),
                )
                for p in gt.poses
            ),
        )
        tr_full, _, _ = rpe(gt, est)
        gt2 = Trajectory(stamps=gt.stamps[::2], poses=gt.poses[::2])
        est2 = Trajectory(stamps=est.stamps[::2], poses=est.poses[::2])
        tr_half, _, _ = rpe(gt2, est2)
        assert abs(tr_half - tr_full) / tr_full < 0.2


class TestApe:
    def test_identical_zero(self):
        t = straight_trajectory()
        assert ape(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_translation_offset_is_norm(self):
        stamps = np.array([0], dtype=np.int64)
        gt = Trajectory(stamps=stamps, poses=(Pose(),))
        est = Trajectory(stamps=stamps, poses=(Pose(np.eye(3), [3.0, 4.0, 0]),))
        assert ape(gt, est) == pytest.approx(5.0)

    def test_half_turn_sqrt8(self):
        stamps = np.array([0], dtype=np.int64)
        gt = Trajectory(stamps=stamps, poses=(Pose(),))
        est = Trajectory(
            stamps=stamps, poses=(Pose(so3_exp([0, 0, math.pi]), [0, 0, 0]),)
        )
        assert ape(gt, est) == pytest.approx(math.sqrt(8.0))

    def test_not_invariant_to_global_transform(self):
        gt = straight_trajectory()
        G = Pose(np.eye(3), [1.0, 0, 0])
        est = Trajectory(
            stamps=gt.stamps, poses=tuple(pose_compose(G, p) for p in gt.poses)
        )
        assert ape(gt, est) == pytest.approx(1.0)


class TestImuRmse:
    def fused(self, stamp, f, w):
        return FusedImuSample(stamp=stamp, f=np.asarray(f, float),
                              w=np.asarray(w, float), w_dot=np.zeros(3))

    def test_identical_zero(self):
        stream = [self.fused(k * 10_000_000, [0, 0, 9.81], [0.1, 0, 0])
                  for k in range(100)]
        acc, gyro = imu_rmse(stream, stream)
        assert acc == 0.0 and gyro == 0.0

    def test_constant_offset(self):
        a = [self.fused(k * 10_000_000, [0, 0, 0], [0, 0, 0]) for k in range(50)]
        b = [self.fused(k * 10_000_000, [1.0, 0, 0], [0, 0, 0]) for k in range(50)]
        acc, gyro = imu_rmse(a, b)
        assert acc == pytest.approx(1.0)
        assert gyro == 0.0

    def test_white_noise_statistics(self):
        rng = np.random.default_rng(1)
        n = 10_000
        a = [self.fused(k * 1_000_000, [0, 0, 0], [0, 0, 0]) for k in range(n)]
        b = [
            self.fused(k * 1_000_000, rng.normal(scale=0.2, size=3), [0, 0, 0])
            for k in range(n)
        ]
        acc, _ = imu_rmse(a, b)
        assert abs(acc - 0.2 * math.sqrt(3)) / (0.2 * math.sqrt(3)) < 0.05

    def test_empty_association_raises(self):
        a = [self.fused(0, [0, 0, 0], [0, 0, 0])]
        b = [self.fused(10_000_000, [0, 0, 0], [0, 0, 0])]
        with pytest.raises(AssociationError):
            imu_rmse(a, b)


def matched_by_associate(ref, stamp):
    gt = Trajectory(stamps=ref, poses=(Pose(),) * len(ref))
    pairs = associate(gt, Trajectory(stamps=[stamp], poses=(Pose(),)))
    return pairs[0][0] if pairs else None


def matched_by_imu_rmse(ref, stamp):
    # reference sample k carries f = (k, 0, 0), so the error names the match
    z = np.zeros(3)
    fused = [FusedImuSample(s, [k, 0, 0], z, z) for k, s in enumerate(ref)]
    try:
        return round(imu_rmse([FusedImuSample(stamp, z, z, z)], fused)[0])
    except AssociationError:
        return None


@pytest.mark.parametrize("match, window", [
    (matched_by_associate, ASSOCIATION_WINDOW_NS),
    (matched_by_imu_rmse, IMU_ASSOCIATION_NS),
], ids=["associate", "imu_rmse"])
def test_nearest_stamp_rule(match, window):
    """An exact-midpoint tie goes to the earlier stamp; a distance of
    exactly the window is accepted, one more is not."""
    assert match([0, 2 * window], window) == 0
    assert match([0, 2 * window + 2], window + 1) is None
    assert match([0], window) == 0
    assert match([0], window + 1) is None
    assert match([10 * window, 11 * window + 1], 11 * window) == 1


class TestReports:
    def test_report_files(self, tmp_path):
        t = straight_trajectory(n=201)
        report = evaluate(t, t)
        assert report.pairs_evaluated > 0
        rp = tmp_path / "metrics.txt"
        write_report(rp, report)
        text = rp.read_text()
        assert "rpe_trans_m: 0.000000" in text
        assert "ape: 0.000000" in text
        cp = tmp_path / "pairs.csv"
        write_pair_csv(cp, t, t)
        lines = cp.read_text().strip().splitlines()
        assert lines[0] == "t_s,rpe_trans_m,rpe_rot_deg"
        assert len(lines) == report.pairs_evaluated + 1

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(stamps=np.array([0, 0]), poses=(Pose(), Pose()))
