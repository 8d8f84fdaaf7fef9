"""Per-sample references for the batched code in `mlio`, shared by tests.

`ImuSample` is one row of an `ImuStream`. `transform_to_base`,
`fuse_gyro` and `fuse_mle` solve the IMU array model one sample at a
time, independently of `BatchFuser`; `fuse_mle` returns a `FusedRow`.
`fuse_imu_groups_per_group` is the per-group loop that
`pipeline.fuse_imu_groups` replaced by one gather per channel and
subset. `write_fused_imu_rows` is the per-row f-string writer that
`pipeline.write_fused_imu` replaced by one `savetxt`; the benchmark
harness writes its fused CSV the same way. The residual
adapters call the product `_many` functions with a batch of one, so
finite-difference tests (`numeric_jacobian`) of them check the code that
runs. `voxel_downsample_rows` groups a cloud by its (n, 3) integer voxel
rows, where `lidar.voxel_downsample` groups by one int64 key per voxel.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from mlio.geometry import NavStates, skew
from mlio.graph import STATE_DIM, _between_many, _prior_many
from mlio.mimu import (
    BatchFuser,
    FusedImu,
    ImuStream,
    MimuArray,
    _phi_projector,
    build_stacked_model,
)
from mlio.preintegration import GRAVITY, imu_residual_jacobians_many, stack_deltas
from mlio.sync import POSITIONS


@dataclass(frozen=True)
class ImuSample:
    """One IMU sample, checked by the rules of a one-row `ImuStream`."""

    stamp: int  # nanoseconds
    f: np.ndarray  # specific force, m/s^2, sensor frame
    w: np.ndarray  # angular rate, rad/s, sensor frame

    def __post_init__(self):
        row = ImuStream([self.stamp], self.f, self.w, "imu")
        object.__setattr__(self, "f", row.f[0])
        object.__setattr__(self, "w", row.w[0])

    @classmethod
    def row(cls, stream: ImuStream, i: int) -> "ImuSample":
        return cls(int(stream.stamps[i]), stream.f[i], stream.w[i])


def transform_to_base(s: ImuSample, c, w_dot_est=None) -> ImuSample:
    """One channel's sample at the base origin, less the centrifugal
    term w x (w x t) and the Euler term wdot x t."""
    if w_dot_est is None:
        w_dot_est = np.zeros(3)
    w_b = c.R @ s.w
    f_b = c.R @ s.f - skew(w_b) @ skew(w_b) @ c.t - np.cross(w_dot_est, c.t)
    return ImuSample(stamp=s.stamp, f=f_b, w=w_b)


def fuse_gyro(arr, y_w) -> np.ndarray:
    """Inverse-variance weighted least-squares angular rate over the array."""
    y = np.asarray(y_w, dtype=float).reshape(3 * arr.K)
    Winv = np.linalg.inv(arr.Q_gyro)
    S = np.tile(np.eye(3), (arr.K, 1))  # 1_K (x) I_3
    return np.linalg.solve(S.T @ Winv @ S, S.T @ Winv @ y)


# one fused sample and whether its angular acceleration is fully observable
FusedRow = namedtuple("FusedRow", "f w w_dot w_dot_observable")


def fuse_mle(arr, y_f, y_w) -> FusedRow:
    """Two-stage maximum-likelihood fusion of one sample: y_f, y_w stack
    the base-oriented channel measurements (lever-arm terms still in)."""
    w_star = fuse_gyro(arr, y_w)
    h, H = build_stacked_model(arr, w_star)
    # whitened least squares: better conditioned than forming H^T Q^-1 H
    L = np.linalg.cholesky(arr.Q)
    A = np.linalg.solve(L, H)
    b = np.linalg.solve(L, np.concatenate([y_f, y_w]) - h)
    # reduced solve: unobservable wdot directions (single channel,
    # collinear lever arms) are pinned to zero and flagged
    T, observable = _phi_projector(A.T @ A)
    phi = T @ np.linalg.lstsq(A @ T, b, rcond=None)[0]
    return FusedRow(f=phi[3:], w=w_star, w_dot=phi[:3],
                    w_dot_observable=bool(observable))


def fuse_imu_groups_per_group(groups, imus: dict) -> FusedImu:
    """Fused samples of IMU `SyncGroups`, one group and one channel at a
    time: groups bucketed by channel subset in first-appearance order,
    each member rotated by its own 3x3 product, the buckets joined and
    stably sorted by stamp."""
    order = [p for p in POSITIONS if p in imus]
    array = MimuArray(tuple(imus[p] for p in order))
    cols = [groups.sensors.index(f"imu/{p}") for p in order]
    buckets = {}
    for anchor, row in zip(groups.anchors.tolist(), groups.members.tolist()):
        idx = tuple(i for i, col in enumerate(cols) if row[col] >= 0)
        buckets.setdefault(idx, []).append((anchor, row))
    fused = []
    for idx, members in buckets.items():
        sub = array.subset(idx)
        fuser = BatchFuser(sub)
        Yf = np.empty((len(members), 3 * sub.K))
        Yw = np.empty((len(members), 3 * sub.K))
        for r, (_, row) in enumerate(members):
            for c, i in enumerate(idx):
                stream = groups.streams[cols[i]]
                R = sub.channels[c].R
                Yf[r, 3 * c:3 * c + 3] = R @ stream.f[row[cols[i]]]
                Yw[r, 3 * c:3 * c + 3] = R @ stream.w[row[cols[i]]]
        F, W, Wdot = fuser.fuse(Yf, Yw)
        for (anchor, _), f, w, wd in zip(members, F, W, Wdot):
            fused.append((anchor, f, w, wd))
    fused.sort(key=lambda row: row[0])
    return FusedImu(*map(np.array, zip(*fused)))


def write_fused_imu_rows(path, fused) -> None:
    """Fused-IMU CSV, one f-string line per row of `fused`."""
    with open(path, "w") as fh:
        fh.write("t_ns,fx,fy,fz,wx,wy,wz,wdx,wdy,wdz\n")
        for s in fused:
            vals = ",".join(f"{v:.9e}" for v in (*s.f, *s.w, *s.w_dot))
            fh.write(f"{s.stamp},{vals}\n")


def residual_prior(x0, anchor, b_a0, b_g0) -> np.ndarray:
    return _prior_many(NavStates.stack([x0]), anchor.R, anchor.t,
                       b_a0, b_g0)[0][0]


def residual_prior_jacobian(x0, anchor) -> np.ndarray:
    return _prior_many(NavStates.stack([x0]), anchor.R, anchor.t, 0.0, 0.0)[1][0]


def residual_between_jacobians(T_i, T_j, z):
    r, J_i, J_j = _between_many(T_i.R[None], T_i.t[None], T_j.R[None],
                                T_j.t[None], z.R[None], z.t[None])
    return r[0], J_i[0], J_j[0]


def residual_between(T_i, T_j, z) -> np.ndarray:
    return residual_between_jacobians(T_i, T_j, z)[0]


def _imu_of_one(x_i, x_j, delta, g):
    return imu_residual_jacobians_many(
        NavStates.stack([x_i]), NavStates.stack([x_j]), stack_deltas([delta]), g
    )


def imu_residual(x_i, x_j, delta, g=GRAVITY) -> np.ndarray:
    return _imu_of_one(x_i, x_j, delta, g)[0][0]


def imu_residual_jacobians(x_i, x_j, delta, g=GRAVITY):
    _, J_i, J_j = _imu_of_one(x_i, x_j, delta, g)
    return J_i[0], J_j[0]


def numeric_jacobian(fn, state, eps=1e-6):
    """Central differences of fn along the 15 tangent directions of state."""
    r0 = fn(state)
    J = np.zeros((len(r0), STATE_DIM))
    for k in range(STATE_DIM):
        step = np.zeros(STATE_DIM)
        step[k] = eps
        J[:, k] = (fn(state.retract(step)) - fn(state.retract(-step))) / (2 * eps)
    return J


def voxel_downsample_rows(points, resolution: float) -> np.ndarray:
    """Voxel centroids, grouped by np.unique over the integer voxel rows."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    keys = np.floor(points / resolution).astype(np.int64)
    _, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, points)
    return sums / counts[:, None]
