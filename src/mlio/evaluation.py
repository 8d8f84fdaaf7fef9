"""Trajectory and signal metrics.

RPE is computed over pairs separated by a fixed ground-truth arc
length (default 10 m), APE as the Frobenius-norm RMS of the absolute
pose difference in the shared global frame (no alignment), and the
fused-IMU error as separate RMS over acceleration and angular rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import load_tum
from .geometry import pose_compose, pose_inverse, so3_log

ASSOCIATION_WINDOW_NS = 10_000_000  # trajectory stamp matching, 10 ms
IMU_ASSOCIATION_NS = 1_000_000  # fused-IMU stamp matching, 1 ms


class AssociationError(ValueError):
    pass


@dataclass(frozen=True)
class Trajectory:
    stamps: np.ndarray  # (N,) ns, strictly increasing
    poses: tuple

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=np.int64).reshape(-1)
        if len(stamps) != len(self.poses):
            raise ValueError("stamps/poses length mismatch")
        if len(stamps) > 1 and np.any(np.diff(stamps) <= 0):
            raise ValueError("stamps must be strictly increasing")
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "poses", tuple(self.poses))

    @staticmethod
    def from_tum(path) -> "Trajectory":
        stamps, poses = load_tum(path)
        return Trajectory(stamps=stamps, poses=poses)


@dataclass(frozen=True)
class MetricReport:
    rpe_trans: float  # m, RMS
    rpe_rot: float  # degrees, RMS
    ape: float  # Frobenius RMS (mixed units)
    pairs_evaluated: int


def _nearest(sorted_stamps, stamps, window_ns) -> np.ndarray:
    """Per query in `stamps`, the index of the entry of `sorted_stamps`
    nearest to it, or -1 if none is within `window_ns` (inclusive); of
    two equally near entries the earlier wins."""
    ref = np.asarray(sorted_stamps, dtype=np.int64)
    query = np.asarray(stamps, dtype=np.int64)
    if len(ref) == 0:
        return np.full(len(query), -1)
    i = np.searchsorted(ref, query)
    before, after = np.maximum(i - 1, 0), np.minimum(i, len(ref) - 1)
    d_before = np.abs(ref[before] - query)
    d_after = np.abs(ref[after] - query)
    best = np.where(d_after < d_before, after, before)
    return np.where(np.minimum(d_before, d_after) <= window_ns, best, -1)


def associate(gt: Trajectory, est: Trajectory, window_ns=ASSOCIATION_WINDOW_NS):
    """Index pairs (i_gt, i_est): each estimated stamp with its nearest
    ground-truth stamp within the association window."""
    match = _nearest(gt.stamps, est.stamps, window_ns).tolist()
    return [(i, j) for j, i in enumerate(match) if i >= 0]


def _arc_lengths(poses) -> np.ndarray:
    steps = [
        np.linalg.norm(b.t - a.t) for a, b in zip(poses[:-1], poses[1:])
    ]
    return np.concatenate([[0.0], np.cumsum(steps)])


def _rpe_errors(gt: Trajectory, est: Trajectory, pairs, distance: float):
    """Yield (gi, err) for each associated pair whose partner j is the
    first pair at least `distance` meters of gt path beyond it; err is
    the discrepancy between the gt and estimated relative transforms."""
    arc = _arc_lengths(gt.poses)
    j = 0
    for gi, ei in pairs:
        while j < len(pairs) and arc[pairs[j][0]] < arc[gi] + distance:
            j += 1
        if j >= len(pairs):
            return
        gj, ej = pairs[j]
        rel_gt = pose_compose(pose_inverse(gt.poses[gi]), gt.poses[gj])
        rel_est = pose_compose(pose_inverse(est.poses[ei]), est.poses[ej])
        yield gi, pose_compose(pose_inverse(rel_gt), rel_est)


def rpe(gt: Trajectory, est: Trajectory, distance: float = 10.0):
    """RMS relative pose error over ground-truth arc-length windows.

    For each associated pose i the partner j is the first pose at least
    `distance` meters of gt path beyond i; the error is the discrepancy
    between the gt and estimated relative transforms.
    """
    pairs = associate(gt, est)
    if not pairs:
        raise AssociationError("no associated poses")
    trans_sq, rot_sq, count = 0.0, 0.0, 0
    for _, err in _rpe_errors(gt, est, pairs, distance):
        trans_sq += float(err.t @ err.t)
        rot_sq += float(np.sum(so3_log(err.R) ** 2))
        count += 1
    if count == 0:
        raise AssociationError(
            f"ground-truth path shorter than the {distance} m window"
        )
    return (
        math.sqrt(trans_sq / count),
        math.degrees(math.sqrt(rot_sq / count)),
        count,
    )


def rpe_pairs(gt: Trajectory, est: Trajectory, distance: float = 10.0):
    """Per-pair (stamp_s, trans_err, rot_err_deg) rows for plotting."""
    return [
        (
            gt.stamps[gi] / 1e9,
            float(np.linalg.norm(err.t)),
            math.degrees(float(np.linalg.norm(so3_log(err.R)))),
        )
        for gi, err in _rpe_errors(gt, est, associate(gt, est), distance)
    ]


def ape(gt: Trajectory, est: Trajectory) -> float:
    """Frobenius RMS of T_gt^-1 T_est - I over associated poses (global
    frame, no alignment; mixes rotation and translation units)."""
    pairs = associate(gt, est)
    if not pairs:
        raise AssociationError("no associated poses")
    total = 0.0
    for gi, ei in pairs:
        D = (
            pose_compose(pose_inverse(gt.poses[gi]), est.poses[ei]).matrix()
            - np.eye(4)
        )
        total += float(np.sum(D * D))
    return math.sqrt(total / len(pairs))


def imu_rmse(gt_stream, fused):
    """(rmse_acc, rmse_gyro): RMS of the stacked residual matrices for
    acceleration and angular rate. Each row of `gt_stream` (with stamp,
    f and w) is matched within 1 ms to its nearest row of the
    `FusedImu` `fused`."""
    rows = list(gt_stream)
    match = _nearest(fused.stamps, [s.stamp for s in rows], IMU_ASSOCIATION_NS)
    hit = match >= 0
    if not hit.any():
        raise AssociationError("no associated IMU samples")
    gt_f = np.array([s.f for s in rows], dtype=float)[hit]
    gt_w = np.array([s.w for s in rows], dtype=float)[hit]
    j = match[hit]
    acc_sq = float(np.sum((gt_f - fused.f[j]) ** 2))
    gyro_sq = float(np.sum((gt_w - fused.w[j]) ** 2))
    return math.sqrt(acc_sq / len(j)), math.sqrt(gyro_sq / len(j))


def evaluate(gt: Trajectory, est: Trajectory, distance: float = 10.0) -> MetricReport:
    rpe_trans, rpe_rot, pairs = rpe(gt, est, distance)
    return MetricReport(
        rpe_trans=rpe_trans,
        rpe_rot=rpe_rot,
        ape=ape(gt, est),
        pairs_evaluated=pairs,
    )


def write_report(path, report: MetricReport, distance: float = 10.0) -> None:
    with open(path, "w") as fh:
        fh.write(f"rpe_distance_m: {distance}\n")
        fh.write(f"rpe_trans_m: {report.rpe_trans:.6f}\n")
        fh.write(f"rpe_rot_deg: {report.rpe_rot:.6f}\n")
        fh.write(f"ape: {report.ape:.6f}\n")
        fh.write(f"pairs_evaluated: {report.pairs_evaluated}\n")


def write_pair_csv(path, gt: Trajectory, est: Trajectory, distance: float = 10.0):
    rows = rpe_pairs(gt, est, distance)
    with open(path, "w") as fh:
        fh.write("t_s,rpe_trans_m,rpe_rot_deg\n")
        for t, tr, rot in rows:
            fh.write(f"{t:.6f},{tr:.9f},{rot:.9f}\n")
