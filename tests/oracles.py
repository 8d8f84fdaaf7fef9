"""Per-sample references for the batched code in `mlio`, shared by tests.

`ImuSample` is one row of an `ImuStream`. `transform_to_base`,
`fuse_gyro` and `fuse_mle` solve the IMU array model one sample at a
time, independently of `BatchFuser`; `fuse_mle` returns a `FusedRow`.
`fuse_average_many` is the averaging baseline the MLE is compared with.
`fuse_imu_groups_per_group` is the per-group loop that
`pipeline.fuse_imu_groups` replaced by one gather per channel and
subset. `write_fused_imu_rows` is the per-row f-string writer of the
fused-IMU CSV that `pipeline.write_fused_imu` prints with one `%`
call; the benchmark harness writes its fused CSV the same way. The
residual adapters call the product `_many` functions with a batch of one, so
finite-difference tests (`numeric_jacobian`) of them check the code that
runs. `voxel_downsample_rows` groups a cloud by its (n, 3) integer voxel
rows, where `lidar.voxel_downsample` groups by one int64 key per voxel.
`brute_knn` is k-NN over a point array by a full scan, and
`icp_register_requery` is `lidar.icp_register` with every point queried
afresh by it on every iteration, each hood kept or replaced by the
product's rule. `ArraySubmap` is `LocalSubmap` with the insert and crop
it had before it kept its points in key order: a membership test by
`np.isin` over every stored key and an append, a crop through (N, 3)
temporaries, and then a full sort of the points and keys by key. `exact_so3_maps` and
`exact_se3_left_jacobian_inv` are the exact references of every SO(3)
and SE(3) series in `geometry`: each map's defining power series (and
its inverse) in decimal arithmetic at `EXACT_DIGITS` digits, rounded to
float. `integrate_sample` folds one IMU sample into a delta with
`exact_so3_maps`, as `preintegration.integrate` did before it took a
block of samples; `integrate_one` folds one through the product kernel,
as the last row of a one-row block. `skew` is the one-vector `geometry.skew_many`.
`predict_one` predicts one state across one delta, bias corrected to
first order, as `preintegration.predict` did before it took a block of
deltas. `EagerPropagator` is the per-sample propagator, built on
`predict_one`, that `pipeline._Interval` replaced by one value per
keyframe interval. `deskew_one` deskews one scan, as
`lidar.deskew` did before it took all the scans of a keyframe in one
call. `write_scan_store_rows` writes a lidar's scan store one scan at a
time and `write_imu_store_rows` an IMU's store one sample at a time,
each array through `write_npy_rows`. `write_stamped_csv_rows` prints
a stamped CSV one row at a time with `%`, where
`dataset._write_stamped_csv` prints all rows with one. `quat_from_rotmat`
is the one-matrix `geometry.quat_from_rotmat_many` and `quat_to_rotmat` the
one-quaternion `geometry.quat_to_rotmat_many`, `format_tum_line` one
line of `dataset.write_tum`, and `write_dataset_rows` writes a whole
dataset with these and PyYAML's pure-Python `safe_dump`, as
`dataset.write_dataset` did before. `write_fused_imu_streaming_groups`
writes `mlio fuse-imu`'s CSV from the streaming synchronizer's groups.
`box_raycast` is the one-box slab cast and `raycast_world_per_surface`
the surface-at-a-time world cast that
`sim.raycast_world` replaced by one pass over all boxes.
`twist_at_linear` is the body twist at one time that `sim._twists_at`
gives for many, finding its segment by a linear scan over start times
it adds up on each call; `pose_at` is the ground-truth pose at one
stamp that `GroundTruth.poses_at` gives for many. `synth_scan_per_call`
casts one noise-free scan the way `sim.synth_lidar` did before it
interpolated each scan-boundary pose once for all sensors: from
`pose_at` at both ends of every scan. `retract` applies one state's
tangent update through `NavStates.retract`, and `residual_gnss` is the
GNSS factor's unwhitened residual: the state's position less the fix.
`pose_matrix` is a `Pose`'s 4x4 homogeneous matrix. `rpe_walk`,
`rpe_pairs_walk` and `ape_per_pose` are the trajectory metrics one pose
at a time, as `evaluation` computed them before it stacked each
`Trajectory`: `associate_pairs` lists the (i_gt, i_est) pairs, each RPE
partner comes from a two-pointer walk over the gt arc length, and every
relative pose is a `pose_compose` of `pose_inverse`s.
"""

import itertools
import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext

import numpy as np
import yaml

from mlio.dataset import FLOAT_FMT, load_dataset
from mlio.evaluation import (
    ASSOCIATION_WINDOW_NS,
    RPE_ARC_TOLERANCE,
    AssociationError,
    _nearest,
)
from mlio.geometry import (
    NS_PER_S,
    NavState,
    NavStates,
    Pose,
    matvec_many,
    pose_compose,
    pose_inverse,
    se3_exp,
    se3_exp_many,
    se3_log,
    so3_exp,
    so3_log,
)
from mlio.graph import STATE_DIM, _between_many, _prior_many
from mlio.lidar import (
    WEAK_EIGENVALUE,
    IcpConfig,
    OdomEstimate,
    _apply_delta,
    _huber_weights,
)
from mlio.mimu import (
    BatchFuser,
    FusedImu,
    ImuStream,
    MimuArray,
    _phi_projector,
    stacked_jacobian,
)
from mlio.preintegration import (
    GRAVITY,
    ImuNoiseParams,
    PreintegratedDelta,
    imu_residual_jacobians_many,
    integrate,
    stack_deltas,
)
from mlio.pipeline import fuse_imu_groups, write_fused_imu
from mlio.sim import Box, scenario_to_dict
from mlio.submap import LocalSubmap, voxel_keys
from mlio.sync import POSITIONS, SyncGroups
from sync_oracle import replay as replay_streaming


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


def build_stacked_model(arr, w):
    """(h, H) of the stacked array model y = h(w) + H [wdot; f] at
    angular rate w: h holds each channel's centrifugal term
    w x (w x t_k), then w once per channel; H is `stacked_jacobian`'s."""
    w = np.asarray(w, dtype=float).reshape(3)
    levers = np.array([c.t for c in arr.channels])
    Wx = skew(w)
    h = np.concatenate([(Wx @ Wx @ levers[:, :, None]).ravel(), *[w] * arr.K])
    return h, stacked_jacobian(arr)


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


def fuse_average_many(arr, Yf, Yw):
    """Averaging baseline over (T, 3K) stacked base-oriented
    measurements: (F, W), each (T, 3), the channel means with each
    channel's centrifugal term taken out of its specific force."""
    Yf = np.asarray(Yf, dtype=float).reshape(len(Yf), arr.K, 3)
    Yw = np.asarray(Yw, dtype=float).reshape(len(Yw), arr.K, 3)
    levers = np.stack([c.t for c in arr.channels])
    centrifugal = np.cross(Yw, np.cross(Yw, levers))
    return (Yf - centrifugal).mean(axis=1), Yw.mean(axis=1)


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


def keyframe_schedule_per_sample(stamps, interval_ns, scan_ends):
    """The keyframe bookkeeping of the per-sample replay loop that
    `run_pipeline` ran before its schedule was fixed up front.

    Walks the fused stamps from the second on. At each sample, the
    lidar groups (in anchor order) join a queue while the next one's
    scan end is at or before the sample; a sample at or after the
    keyframe bound becomes a keyframe and takes the queue. Returns the
    keyframe rows (row 0 first) and, per keyframe after row 0, the
    indices of the groups it takes."""
    rows, taken, queue = [0], [], []
    bound = stamps[0] + interval_ns
    g = 0
    for j, stamp in enumerate(stamps[1:], 1):
        while g < len(scan_ends) and scan_ends[g] <= stamp:
            queue.append(g)
            g += 1
        if stamp < bound:
            continue
        rows.append(j)
        taken.append(queue)
        queue = []
        bound = stamp + interval_ns
    return rows, taken


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


def retract(state, delta):
    """`state` moved by a 15-dim tangent update, see NavStates.retract."""
    delta = np.asarray(delta, dtype=float).reshape(1, STATE_DIM)
    return NavStates.stack([state]).retract(delta).unstack()[0]


def residual_gnss(state, t) -> np.ndarray:
    return state.pose.t - t


def numeric_jacobian(fn, state, eps=1e-6):
    """Central differences of fn along the 15 tangent directions of state."""
    r0 = fn(state)
    J = np.zeros((len(r0), STATE_DIM))
    for k in range(STATE_DIM):
        step = np.zeros(STATE_DIM)
        step[k] = eps
        J[:, k] = (fn(retract(state, step)) - fn(retract(state, -step))) / (2 * eps)
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


class ArraySubmap(LocalSubmap):
    """`LocalSubmap` with the insert and crop it had before it kept its
    points in key order, each change followed by a full sort of the
    points and keys by key."""

    def _sort_by_key(self):
        order = np.argsort(self._keys, kind="stable")
        self._points, self._keys = self._points[order], self._keys[order]
        self._tree = None

    def insert(self, points) -> int:
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not len(self._points) and len(points):
            self._move_origin(points[0])
        packed = voxel_keys(np.floor(points / self.voxel_resolution), self._origin)
        keys, first = np.unique(packed, return_index=True)
        new = np.sort(first[~np.isin(keys, self._keys, assume_unique=True)])
        if len(new):
            self._points = np.concatenate([self._points, points[new]])
            self._keys = np.concatenate([self._keys, packed[new]])
            self._sort_by_key()
        return len(new)

    def crop_to_box(self, center) -> int:
        center = np.asarray(center, dtype=float)
        out = np.abs(self._points - center) > self.extent / 2.0
        doomed = out[:, 0] | out[:, 1] | out[:, 2]
        removed = int(doomed.sum())
        if removed:
            self._points = self._points[~doomed]
            self._keys = self._keys[~doomed]
            self._sort_by_key()
        self._move_origin(center)
        return removed


def brute_knn(points, queries, k: int, chunk: int = 256):
    """(distances, indices) of each query's k nearest points, ascending,
    by a full scan: squared distances summed one axis at a time. Columns
    beyond len(points) have distance inf and index len(points), as the
    KD-tree gives them."""
    m = len(points)
    d = np.full((len(queries), k), np.inf)
    idx = np.full((len(queries), k), m, dtype=np.intp)
    kk = min(k, m)
    for lo in range(0, len(queries), chunk):
        q = queries[lo:lo + chunk]
        sq = (points[None, :, 0] - q[:, None, 0]) ** 2
        sq += (points[None, :, 1] - q[:, None, 1]) ** 2
        sq += (points[None, :, 2] - q[:, None, 2]) ** 2
        near = np.argpartition(sq, kk - 1, axis=1)[:, :kk]
        order = np.take_along_axis(
            near, np.argsort(np.take_along_axis(sq, near, axis=1), axis=1), axis=1)
        idx[lo:lo + chunk, :kk] = order
        d[lo:lo + chunk, :kk] = np.sqrt(np.take_along_axis(sq, order, axis=1))
    return d, idx


def icp_register_requery(cloud, submap, prior, config=IcpConfig()) -> OdomEstimate:
    """`lidar.icp_register` with every point queried afresh on every
    iteration, by `brute_knn`, and its hood replaced by the fresh one
    only where the kept hood cannot certify its nearest map point: where
    neither the kept nearest distance nor the gate is below the bound of
    the hood's query (its k-th distance, or its gate when fewer than k
    lay within it) less the distance moved since. A certified point's
    fresh nearest distance must equal its kept one, which is asserted.
    Planes come from `submap.plane_normals`, so the fits are the
    product's; the solve is `icp_register`'s."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    pts = submap._points
    k, n = config.plane_neighbors, len(cloud)
    pose = prior
    fitness = np.inf
    weak = np.empty((0, 6))
    hood = np.full((n, k), len(pts), dtype=np.intp)
    origin = np.zeros((n, 3))
    bound = np.full(n, -np.inf)  # never queried: nothing certified
    normal, centroid = np.empty((n, 3)), np.empty((n, 3))
    planar = np.zeros(n, dtype=bool)
    padded = np.concatenate([pts, np.full((1, 3), np.inf)])
    for iterations in range(1, config.max_iterations + 1):
        gate = max(
            config.max_correspondence_dist,
            config.coarse_correspondence_dist * 0.5 ** (iterations - 1),
        )
        world = pose.apply(cloud)
        d, idx = brute_knn(pts, world, k)
        kept = np.sqrt(((padded[hood] - world[:, None]) ** 2).sum(axis=2)).min(axis=1)
        moved = np.linalg.norm(world - origin, axis=1) + 1e-9
        certified = np.minimum(kept, gate) < bound - moved
        near = np.minimum(d[:, 0], np.nextafter(gate, np.inf))
        assert np.allclose(np.minimum(kept, np.nextafter(gate, np.inf))[certified],
                           near[certified], rtol=0, atol=1e-12)
        stale = np.flatnonzero(~certified)
        within = d[stale] <= gate
        hood[stale] = np.where(within, idx[stale], len(pts))
        origin[stale] = world[stale]
        bound[stale] = np.where(within[:, -1], d[stale, -1], gate)
        full = within[:, -1]
        planar[stale] = False
        if full.any():
            fit = stale[full]
            normal[fit], centroid[fit], planar[fit] = submap.plane_normals(padded[hood[fit]])
        mask = (d[:, 0] <= gate) & planar
        n_corr = int(mask.sum())
        if n_corr < config.min_correspondences:
            return OdomEstimate(
                pose=prior, fitness=np.inf, iterations=iterations,
                weak=np.eye(6), insufficient_overlap=True, converged=False,
            )
        src = cloud[mask]
        w = world[mask]
        normals, targets = normal[mask], centroid[mask]
        r = np.einsum("ij,ij->i", normals, w - targets)
        weights = _huber_weights(r, config.huber_delta)
        J = np.empty((n_corr, 6))
        J[:, :3] = np.cross(w - pose.t, normals)
        J[:, 3:] = normals
        Jw = J * weights[:, None]
        N = J.T @ Jw
        g = Jw.T @ r
        vals, vecs = np.linalg.eigh(N)
        strong = vals >= WEAK_EIGENVALUE
        weak = vecs[:, ~strong].T
        basis = vecs[:, strong]
        delta = -basis @ ((basis.T @ g) / vals[strong])
        cost = float(np.sum(weights * r * r))
        step = 1.0
        for _ in range(6):
            cand = _apply_delta(pose, delta * step)
            cw = cand.apply(src)
            cr = np.einsum("ij,ij->i", normals, cw - targets)
            ccost = float(np.sum(_huber_weights(cr, config.huber_delta) * cr * cr))
            if ccost <= cost or np.linalg.norm(delta * step) < 1e-12:
                break
            step *= 0.5
        pose = _apply_delta(pose, delta * step)
        fitness = float(np.mean(r * r))
        if (
            gate <= config.max_correspondence_dist
            and np.linalg.norm(delta * step) < config.translation_tol
        ):
            return OdomEstimate(pose=pose, fitness=fitness, iterations=iterations,
                                weak=weak, converged=True)
    return OdomEstimate(pose=pose, fitness=fitness, iterations=iterations,
                        weak=weak, converged=False)


# digits of the decimal arithmetic of the exact series references
EXACT_DIGITS = 50


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix M with M @ b == cross(v, b): the one-vector
    `geometry.skew_many`."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _exact_series(M, coefficients) -> list:
    """[sum_n c(n) M^n for c in coefficients] of a square float matrix M
    (each coefficient at most 1 / n!), as lists of Decimal rows summed at
    EXACT_DIGITS digits until the terms fall below 1e-48."""
    P = [[Decimal(int(i == j)) for j in range(len(M))] for i in range(len(M))]
    M = [[Decimal(float(x)) for x in row] for row in M]  # exact
    sums = [[[Decimal(0)] * len(M) for _ in M] for _ in coefficients]
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        for n in itertools.count():
            if max(abs(x) for row in P for x in row) / math.factorial(n) < Decimal("1e-48"):
                return sums
            for S, c in zip(sums, coefficients):
                cn = c(n)
                for S_row, P_row in zip(S, P):
                    S_row[:] = [s + cn * p for s, p in zip(S_row, P_row)]
            P = [[sum(a * b for a, b in zip(row, col)) for col in zip(*M)] for row in P]


def _exact_inverse(A) -> list:
    """Inverse of a square matrix of Decimal rows by Gauss-Jordan
    elimination with partial pivoting, at EXACT_DIGITS digits."""
    m = len(A)
    rows = [list(row) + [Decimal(int(i == j)) for j in range(m)] for i, row in enumerate(A)]
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        for k in range(m):
            pivot = max(range(k, m), key=lambda i: abs(rows[i][k]))
            rows[k], rows[pivot] = rows[pivot], rows[k]
            rows[k] = [x / rows[k][k] for x in rows[k]]
            for i in range(m):
                if i != k:
                    f = rows[i][k]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[m:] for row in rows]


def _to_float(A) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in A])


def exact_so3_maps(phi):
    """(Exp, J_l, J_r, C, J_l^-1) of one rotation vector phi from their
    defining series in K = skew(phi): sum_n K^n / n!, sum_n K^n /
    (n + 1)!, sum_n (-K)^n / (n + 1)!, sum_n K^n / (n + 2)! and the
    inverse of J_l, in decimal at EXACT_DIGITS digits, each rounded to
    float."""
    coefficients = (lambda n: Decimal(1) / math.factorial(n),
                    lambda n: Decimal(1) / math.factorial(n + 1),
                    lambda n: Decimal((-1) ** n) / math.factorial(n + 1),
                    lambda n: Decimal(1) / math.factorial(n + 2))
    series = _exact_series(skew(phi), coefficients)
    return (*map(_to_float, series), _to_float(_exact_inverse(series[1])))


def exact_se3_left_jacobian_inv(xi) -> np.ndarray:
    """Inverse left Jacobian of SE(3) in (rot, trans) ordering of one
    twist xi: the inverse of sum_n ad^n / (n + 1)!, ad = [[skew(phi),
    0], [skew(rho), skew(phi)]], in decimal at EXACT_DIGITS digits,
    rounded to float."""
    ad = np.zeros((6, 6))
    ad[:3, :3] = ad[3:, 3:] = skew(xi[:3])
    ad[3:, :3] = skew(xi[3:])
    (J,) = _exact_series(ad, (lambda n: Decimal(1) / math.factorial(n + 1),))
    return _to_float(_exact_inverse(J))


def integrate_sample(delta, f, w, dt: float, noise=ImuNoiseParams()):
    """Fold one fused IMU sample, specific force f and angular rate w
    held constant over dt, into the delta."""
    if not (0.0 < dt < 0.1):
        raise ValueError(f"dt out of range: {dt}")
    w = np.asarray(w, dtype=float) - delta.b_g0
    a = np.asarray(f, dtype=float) - delta.b_a0
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a))):
        raise ValueError("non-finite IMU sample")

    A, Jl, Jr, C, _ = exact_so3_maps(w * dt)
    dR, dv, dp = delta.dR, delta.dv, delta.dp

    dp_new = dp + dv * dt + dR @ C @ a * dt**2
    dv_new = dv + dR @ Jl @ a * dt
    dR_new = dR @ A

    # first-order bias Jacobians
    Jla = Jl @ a
    Ca = C @ a
    J_r_bg = A.T @ delta.J_r_bg - Jr * dt
    J_v_ba = delta.J_v_ba - dR @ Jl * dt
    J_v_bg = delta.J_v_bg - dR @ skew(Jla) @ delta.J_r_bg * dt
    J_p_ba = delta.J_p_ba + delta.J_v_ba * dt - dR @ C * dt**2
    J_p_bg = delta.J_p_bg + delta.J_v_bg * dt - dR @ skew(Ca) @ delta.J_r_bg * dt**2

    # covariance over (rot, vel, pos)
    F = np.eye(9)
    F[0:3, 0:3] = A.T
    F[3:6, 0:3] = -dR @ skew(Jla) * dt
    F[6:9, 0:3] = -dR @ skew(Ca) * dt**2
    F[6:9, 3:6] = np.eye(3) * dt
    G = np.zeros((9, 6))
    G[0:3, 0:3] = Jr * dt
    G[3:6, 3:6] = dR * dt
    G[6:9, 3:6] = 0.5 * dR * dt**2
    Qd = np.zeros((6, 6))
    Qd[:3, :3] = np.eye(3) * noise.gyro_noise_density**2 / dt
    Qd[3:, 3:] = np.eye(3) * noise.acc_noise_density**2 / dt
    cov = F @ delta.cov @ F.T + G @ Qd @ G.T

    return replace(
        delta,
        dR=dR_new, dv=dv_new, dp=dp_new, dt=delta.dt + dt,
        J_r_bg=J_r_bg, J_v_ba=J_v_ba, J_v_bg=J_v_bg,
        J_p_ba=J_p_ba, J_p_bg=J_p_bg, cov=cov,
    )


def integrate_one(delta, f, w, dt: float, noise=ImuNoiseParams()):
    """`delta` with one IMU sample folded in by `preintegration.integrate`:
    the last row of a one-row block."""
    return integrate(delta, np.reshape(f, (1, 3)), np.reshape(w, (1, 3)), [dt],
                     noise).take(-1)


def predict_one(x_i, delta, g=GRAVITY) -> NavState:
    """Forward state prediction across one preintegrated delta, bias
    corrected to first order at x_i's biases."""
    dba = np.asarray(x_i.b_a, dtype=float) - delta.b_a0
    dbg = np.asarray(x_i.b_g, dtype=float) - delta.b_g0
    dR = delta.dR @ so3_exp(delta.J_r_bg @ dbg)
    dv = delta.dv + delta.J_v_ba @ dba + delta.J_v_bg @ dbg
    dp = delta.dp + delta.J_p_ba @ dba + delta.J_p_bg @ dbg
    R_i, p_i, v_i = x_i.pose.R, x_i.pose.t, x_i.v
    dt = delta.dt
    R_j = R_i @ dR
    v_j = v_i + g * dt + R_i @ dv
    p_j = p_i + v_i * dt + 0.5 * g * dt**2 + R_i @ dp
    return NavState(pose=Pose(R_j, p_j), v=v_j, b_a=x_i.b_a, b_g=x_i.b_g)


class EagerPropagator:
    """The keyframe propagator of the per-sample replay, the reference
    for `pipeline._Interval`: `reset` starts it at a keyframe's fused
    sample (`stamp`, `f`, `w_meas`) with the smoothed `state` and body
    rate `w`, `advance` integrates one later sample (a repeated stamp is
    skipped) and stores the predicted pose at it, and `pose_at` looks
    the pose up in that track."""

    def __init__(self, noise):
        self.noise = noise

    def reset(self, state, w, stamp, f, w_meas):
        self.state, self.w = state, w
        self.delta = PreintegratedDelta(b_a0=state.b_a, b_g0=state.b_g)
        self.stamps, self.poses = [stamp], [state.pose]
        self.last_f, self.last_w = f, w_meas

    def advance(self, stamp, f, w):
        dt = (stamp - self.stamps[-1]) / NS_PER_S
        if dt <= 0:
            return
        f_mid = 0.5 * (self.last_f + f)
        w_mid = 0.5 * (self.last_w + w)
        steps = int(np.ceil(dt / 0.099))
        for _ in range(steps):
            self.delta = integrate_one(self.delta, f_mid, w_mid, dt / steps,
                                       self.noise)
        self.stamps.append(stamp)
        self.poses.append(predict_one(self.state, self.delta).pose)
        self.last_f, self.last_w = f, w

    def predicted(self):
        return predict_one(self.state, self.delta)

    def pose_at(self, stamp, v):
        k = int(np.searchsorted(self.stamps, stamp, side="right")) - 1
        if k < 0:
            t_k, pose = self.stamps[0], self.poses[0]
            w, v = self.w, self.state.v
        else:
            t_k, pose = self.stamps[k], self.poses[k]
            w = self.last_w - self.state.b_g
        rem = (stamp - t_k) / NS_PER_S
        if abs(rem) < 1e-12:
            return pose
        v_body = pose.R.T @ v
        return pose_compose(pose, se3_exp(np.concatenate([w, v_body]) * rem))


def deskew_one(scan, pose_start, pose_end) -> np.ndarray:
    """One scan's (N, 3) points in its start frame, under the constant
    twist between the predicted start and end sensor poses, as
    `lidar.deskew` gave them before it took all of a keyframe's scans."""
    span = scan.scan_end - scan.scan_start
    if span == 0:
        return scan.points
    xi = se3_log(pose_compose(pose_inverse(pose_start), pose_end))
    stamps, inverse = np.unique(scan.stamps, return_inverse=True)
    etas = (stamps - scan.scan_start) / span
    R, t = se3_exp_many(etas[:, None] * xi)
    return matvec_many(R[inverse], scan.points) + t[inverse]


def write_npy_rows(path, descr, shape, rows) -> None:
    """An `.npy` file of `shape`: a header from `numpy.lib.format`, then
    the byte strings `rows`."""
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": descr, "fortran_order": False, "shape": shape})
        fh.writelines(rows)


def write_scan_store_rows(scan_dir, scans) -> None:
    """A lidar's store directory, its three arrays written scan by scan."""
    os.makedirs(scan_dir, exist_ok=True)
    n = sum(len(scan.stamps) for scan in scans)
    for name, descr, shape, rows in (
        ("bounds", "<i8", (len(scans), 3),
         (struct.pack("<3q", s.scan_start, s.scan_end, len(s.stamps)) for s in scans)),
        ("stamps", "<i8", (n,), (s.stamps.astype("<i8").tobytes() for s in scans)),
        ("points", "<f8", (n, 3), (s.points.astype("<f8").tobytes() for s in scans)),
    ):
        write_npy_rows(os.path.join(scan_dir, f"{name}.npy"), descr, shape, rows)


def write_imu_store_rows(store_dir, stream) -> None:
    """An IMU's store directory, its three arrays written sample by sample."""
    os.makedirs(store_dir, exist_ok=True)
    n = len(stream.stamps)
    for name, descr, shape, rows in (
        ("stamps", "<i8", (n,), (struct.pack("<q", t) for t in stream.stamps.tolist())),
        ("f", "<f8", (n, 3), (struct.pack("<3d", *v) for v in stream.f.tolist())),
        ("w", "<f8", (n, 3), (struct.pack("<3d", *v) for v in stream.w.tolist())),
    ):
        write_npy_rows(os.path.join(store_dir, f"{name}.npy"), descr, shape, rows)


def write_stamped_csv_rows(path, stamps, values, header="") -> None:
    """A 't_ns,v0,v1,...' line per row, each printed by its own `%`."""
    line = ",".join(["%d"] + [FLOAT_FMT] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(line % (t, *v) for t, v in
                      zip(np.asarray(stamps, np.int64).tolist(), values.tolist()))


def quat_from_rotmat(R) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
             (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s,
             (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s,
             (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
             (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_to_rotmat(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def format_tum_line(stamp_ns: int, pose) -> str:
    """'t x y z qx qy qz qw'; t is the ns stamp in seconds, digit for
    digit, so it is exact at any size."""
    q = quat_from_rotmat(pose.R)  # (w, x, y, z)
    s = int(stamp_ns)
    sec, ns = divmod(abs(s), NS_PER_S)
    vals = [*pose.t, q[1], q[2], q[3], q[0]]
    return " ".join([f"{'-' if s < 0 else ''}{sec}.{ns:09d}",
                     *(f"{v:.9f}" for v in vals)])


def write_dataset_rows(path, sim) -> None:
    """`dataset.write_dataset`, one row, pose and quaternion at a time."""
    os.makedirs(path, exist_ok=True)
    for sid, stream in sim.imu.items():
        write_imu_store_rows(os.path.join(path, "imu", sid.split("/")[1]), stream)
    write_stamped_csv_rows(os.path.join(path, "gnss.csv"), sim.gnss.stamps,
                           np.column_stack([sim.gnss.t, sim.gnss.var]))
    for sid, scans in sim.lidar.items():
        write_scan_store_rows(os.path.join(path, "scans", sid.split("/")[1]), scans)
    with open(os.path.join(path, "gt.tum"), "w") as fh:
        for s, p in zip(sim.gt.stamps, sim.gt.poses):
            fh.write(format_tum_line(s, p) + "\n")
    doc = scenario_to_dict(sim.scenario)
    for pos, imu in sim.scenario.imus.items():
        doc["imus"][pos]["quat"] = [float(x) for x in quat_from_rotmat(imu.R)]
    for pos, mount in sim.scenario.lidars.items():
        doc["lidars"][pos]["pose"]["quat"] = [
            float(x) for x in quat_from_rotmat(mount.pose.R)]
    with open(os.path.join(path, "scenario.yaml"), "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def write_fused_imu_streaming_groups(dataset_path, out_path) -> None:
    """`mlio fuse-imu --sensors I4`, with the IMU groups of the streaming
    synchronizer in `sync_oracle` in place of `Synchronizer.group`."""
    ds = load_dataset(dataset_path)
    sensors = [f"imu/{p}" for p in POSITIONS]
    anchors, members = replay_streaming(
        sensors, {sid: s.stamps for sid, s in ds.imu.items()})["imu"]
    groups = SyncGroups(tuple(sensors), anchors, members,
                        tuple(ds.imu.get(sid, ()) for sid in sensors))
    imus = {p: ds.scenario.imus[p] for p in POSITIONS}
    write_fused_imu(out_path, fuse_imu_groups(groups, imus))


def box_raycast(box, origins, dirs) -> np.ndarray:
    """Entry distance of each ray into one box (inf on a miss), by the
    slab method with per-axis reductions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(np.abs(dirs) > 1e-12, 1.0 / dirs, np.inf)
        t1 = (box.lo - origins) * inv
        t2 = (box.hi - origins) * inv
    tmin = np.minimum(t1, t2).max(axis=1)
    tmax = np.maximum(t1, t2).min(axis=1)
    hit = (tmax >= tmin) & (tmax > 1e-6)
    entry = np.where(tmin > 1e-6, tmin, tmax)
    return np.where(hit, entry, np.inf)


def raycast_world_per_surface(world, origins, dirs) -> np.ndarray:
    """Nearest positive hit distance per ray, one surface at a time."""
    best = np.full(len(origins), np.inf)
    for surface in world:
        hits = (box_raycast(surface, origins, dirs) if isinstance(surface, Box)
                else surface.raycast(origins, dirs))
        best = np.minimum(best, hits)
    return best


def twist_at_linear(scenario, t: float):
    """Body twist and its time derivative at time t, one row of
    `sim._twists_at`, with its segment found by a linear scan."""
    starts = []
    acc = 0.0
    for d, _ in scenario.segments:
        starts.append(acc)
        acc += d
    k = 0
    for i, s in enumerate(starts):
        if t >= s:
            k = i
    xi = scenario.segments[k][1]
    dxi = np.zeros(6)
    r = scenario.ramp
    if r > 0 and k > 0 and t < starts[k] + r:
        prev = scenario.segments[k - 1][1]
        alpha = (t - starts[k]) / r
        blend = alpha * alpha * (3.0 - 2.0 * alpha)
        dxi = 6.0 * alpha * (1.0 - alpha) / r * (xi - prev)
        xi = prev + blend * (xi - prev)
    return xi, dxi


def pose_at(gt, stamp_ns: int):
    """Ground-truth pose at an arbitrary time by constant-twist
    interpolation between the two bracketing samples."""
    stamps = gt.stamps
    if stamp_ns <= stamps[0]:
        return gt.poses[0]
    if stamp_ns >= stamps[-1]:
        return gt.poses[-1]
    k = int(np.searchsorted(stamps, stamp_ns, side="right")) - 1
    T0, T1 = gt.poses[k], gt.poses[k + 1]
    eta = (stamp_ns - stamps[k]) / (stamps[k + 1] - stamps[k])
    xi = se3_log(pose_compose(pose_inverse(T0), T1))
    return pose_compose(T0, se3_exp(eta * xi))


def synth_scan_per_call(gt, world, mount, pattern, start, period_ns, max_range):
    """Stamps and sensor-frame points of the noise-free scan that starts
    at `start`, cast from `pose_at` at both of its ends and
    `pattern` = `sim._scan_pattern(mount)`."""
    n_az, n_el = pattern.shape[:2]
    S0 = pose_compose(pose_at(gt, start), mount.pose)
    S1 = pose_compose(pose_at(gt, start + period_ns), mount.pose)
    xi = se3_log(pose_compose(pose_inverse(S0), S1))
    offsets = (np.arange(n_az) * period_ns) // n_az
    R_rel, t_rel = se3_exp_many((offsets / period_ns)[:, None] * xi)
    origins = matvec_many(S0.R, t_rel) + S0.t
    dirs = np.einsum("aij,aej->aei", S0.R @ R_rel, pattern)
    ranges = raycast_world_per_surface(
        world, np.repeat(origins, n_el, axis=0), dirs.reshape(-1, 3))
    hit = np.isfinite(ranges) & (ranges <= max_range)
    points = pattern.reshape(-1, 3)[hit] * ranges[hit, None]
    return start + np.repeat(offsets, n_el)[hit], points


def pose_matrix(pose) -> np.ndarray:
    """The 4x4 homogeneous matrix of a `Pose`."""
    T = np.eye(4)
    T[:3, :3] = pose.R
    T[:3, 3] = pose.t
    return T


def associate_pairs(gt, est, window_ns=ASSOCIATION_WINDOW_NS) -> list:
    """`evaluation.associate` as a list of (i_gt, i_est) pairs."""
    match = _nearest(gt.stamps, est.stamps, window_ns).tolist()
    return [(i, j) for j, i in enumerate(match) if i >= 0]


def _rpe_errors_walk(gt, est, pairs, distance):
    """(gi, err) for each associated pair whose partner, found by a
    two-pointer walk, is the first pair at least `distance` m, less
    `RPE_ARC_TOLERANCE`, of gt path beyond it; err is T_rel_gt^-1
    T_rel_est."""
    steps = [np.linalg.norm(b.t - a.t) for a, b in zip(gt.poses[:-1], gt.poses[1:])]
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    j = 0
    for gi, ei in pairs:
        while j < len(pairs) and arc[pairs[j][0]] < arc[gi] + distance - RPE_ARC_TOLERANCE:
            j += 1
        if j >= len(pairs):
            return
        gj, ej = pairs[j]
        rel_gt = pose_compose(pose_inverse(gt.poses[gi]), gt.poses[gj])
        rel_est = pose_compose(pose_inverse(est.poses[ei]), est.poses[ej])
        yield gi, pose_compose(pose_inverse(rel_gt), rel_est)


def rpe_walk(gt, est, distance=10.0):
    """`evaluation.rpe` one pose pair at a time."""
    pairs = associate_pairs(gt, est)
    if not pairs:
        raise AssociationError("no associated poses")
    trans_sq, rot_sq, count = 0.0, 0.0, 0
    for _, err in _rpe_errors_walk(gt, est, pairs, distance):
        trans_sq += float(err.t @ err.t)
        rot_sq += float(np.sum(so3_log(err.R) ** 2))
        count += 1
    if count == 0:
        raise AssociationError(f"ground-truth path shorter than the {distance} m window")
    return math.sqrt(trans_sq / count), math.degrees(math.sqrt(rot_sq / count)), count


def rpe_pairs_walk(gt, est, distance=10.0) -> list:
    """`evaluation.rpe_pairs` one pose pair at a time."""
    return [(gt.stamps[gi] / 1e9, float(np.linalg.norm(err.t)),
             math.degrees(float(np.linalg.norm(so3_log(err.R)))))
            for gi, err in _rpe_errors_walk(gt, est, associate_pairs(gt, est), distance)]


def ape_per_pose(gt, est) -> float:
    """`evaluation.ape` one associated pose at a time."""
    pairs = associate_pairs(gt, est)
    if not pairs:
        raise AssociationError("no associated poses")
    total = 0.0
    for gi, ei in pairs:
        D = pose_matrix(pose_compose(pose_inverse(gt.poses[gi]), est.poses[ei])) - np.eye(4)
        total += float(np.sum(D * D))
    return math.sqrt(total / len(pairs))
