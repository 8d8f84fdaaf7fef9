"""Trajectory and signal metrics.

RPE is computed over pairs separated by a fixed ground-truth arc
length (default 10 m, less 1e-6 m for rounding), APE as the
Frobenius-norm RMS of the absolute pose difference in the shared global
frame (no alignment), and the fused-IMU error as separate RMS over
acceleration and angular rate.

A `Trajectory` stacks its poses once into R (N, 3, 3) and t (N, 3), and
every metric is an array expression over them: `associate` matches all
estimated stamps in one `searchsorted` and returns index arrays, each
RPE partner comes from one `searchsorted` over the associated gt arc
lengths, and the relative and absolute pose errors are batched
products of the stacked poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import load_tum
from .geometry import _derived_pose, matvec_many, so3_log_many

ASSOCIATION_WINDOW_NS = 10_000_000  # trajectory stamp matching, 10 ms
RPE_ARC_TOLERANCE = 1e-6  # m an RPE partner may fall short of the window by
IMU_ASSOCIATION_NS = 1_000_000  # fused-IMU stamp matching, 1 ms


class AssociationError(ValueError):
    pass


@dataclass(frozen=True)
class Trajectory:
    """Stamped poses, stacked once into R (N, 3, 3) and t (N, 3)."""

    stamps: np.ndarray  # (N,) ns, strictly increasing
    poses: tuple
    R: np.ndarray = field(init=False, repr=False)
    t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=np.int64).reshape(-1)
        n = len(stamps)
        if n != len(self.poses):
            raise ValueError("stamps/poses length mismatch")
        if np.any(np.diff(stamps) <= 0):
            raise ValueError("stamps must be strictly increasing")
        poses = tuple(self.poses)
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "R", np.array([p.R for p in poses], float).reshape(n, 3, 3))
        object.__setattr__(self, "t", np.array([p.t for p in poses], float).reshape(n, 3))

    @staticmethod
    def from_tum(path) -> "Trajectory":
        stamps, R, t = load_tum(path)
        return Trajectory(stamps, tuple(map(_derived_pose, R, t)))


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
    """Index arrays (i_gt, i_est): each estimated stamp, in order, with
    its nearest ground-truth stamp within the association window."""
    i_gt = _nearest(gt.stamps, est.stamps, window_ns)
    i_est = np.flatnonzero(i_gt >= 0)
    return i_gt[i_est], i_est


def _between(Ra, ta, Rb, tb):
    """T_a^-1 T_b of stacked poses, in `pose_compose`'s arithmetic."""
    RaT = np.swapaxes(Ra, -1, -2)
    return RaT @ Rb, matvec_many(RaT, tb) - matvec_many(RaT, ta)


def _associated(gt: Trajectory, est: Trajectory):
    pairs = associate(gt, est)
    if not len(pairs[0]):
        raise AssociationError("no associated poses")
    return pairs


def rpe_pairs(gt: Trajectory, est: Trajectory, distance: float = 10.0):
    """Per-pair rows (stamp_s, trans_err_m, rot_err_deg), (n, 3).

    For each associated pose i the partner j is the first associated
    pose at least `distance` meters, less `RPE_ARC_TOLERANCE`, of gt path
    beyond i; the error is the discrepancy between the gt and estimated
    relative transforms. The associated gt arc lengths never decrease,
    so one `searchsorted` finds every partner."""
    i_gt, i_est = _associated(gt, est)
    steps = np.linalg.norm(np.diff(gt.t, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(steps)])[i_gt]
    j = np.searchsorted(arc, arc + distance - RPE_ARC_TOLERANCE)
    i = np.flatnonzero(j < len(arc))
    j = j[i]
    rel_gt = _between(gt.R[i_gt[i]], gt.t[i_gt[i]], gt.R[i_gt[j]], gt.t[i_gt[j]])
    rel_est = _between(est.R[i_est[i]], est.t[i_est[i]], est.R[i_est[j]], est.t[i_est[j]])
    R, t = _between(*rel_gt, *rel_est)
    return np.column_stack([gt.stamps[i_gt[i]] / 1e9, np.linalg.norm(t, axis=1),
                            np.degrees(np.linalg.norm(so3_log_many(R), axis=1))])


def rpe(gt: Trajectory, est: Trajectory, distance: float = 10.0):
    """RMS relative pose error over ground-truth arc-length windows, as
    (translation m, rotation degrees, pairs evaluated); the pairs are
    those of `rpe_pairs`."""
    rows = rpe_pairs(gt, est, distance)
    if not len(rows):
        raise AssociationError(
            f"ground-truth path shorter than the {distance} m window"
        )
    trans, rot = np.sqrt(np.mean(rows[:, 1:] ** 2, axis=0))
    return float(trans), float(rot), len(rows)


def ape(gt: Trajectory, est: Trajectory) -> float:
    """Frobenius RMS of T_gt^-1 T_est - I over associated poses (global
    frame, no alignment; mixes rotation and translation units)."""
    i_gt, i_est = _associated(gt, est)
    R, t = _between(gt.R[i_gt], gt.t[i_gt], est.R[i_est], est.t[i_est])
    return math.sqrt((np.sum((R - np.eye(3)) ** 2) + np.sum(t * t)) / len(i_gt))


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
    np.savetxt(path, rpe_pairs(gt, est, distance), fmt="%.6f,%.9f,%.9f",
               header="t_s,rpe_trans_m,rpe_rot_deg", comments="")
