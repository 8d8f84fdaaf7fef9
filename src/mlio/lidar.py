"""Scan deskewing, downsampling and direct ICP odometry.

Scans are deskewed to their start time with a constant-twist motion model:
the sensor pose at fraction eta of the scan is se3_exp(eta * xi) relative
to the start pose, xi being the twist of the start-to-end motion. Scans
are then voxel-downsampled and registered point-to-plane against the
incremental local submap. k-NN candidates are kept across ICP
iterations; a point is queried again only when its nearest neighbour may
have changed, which a triangle-inequality bound on its motion decides
(`_KnnCandidates`), so the correspondences equal a fresh query's.
`run_pipeline` moves each deskewed scan into the base frame by its mount
pose before the scans of one keyframe are downsampled together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Pose,
    matvec_many,
    pose_compose,
    pose_inverse,
    se3_exp_many,
    se3_log,
    so3_exp,
)
from .submap import LocalSubmap


@dataclass(frozen=True)
class LidarScan:
    sensor_id: str
    scan_start: int  # ns
    scan_end: int  # ns
    stamps: np.ndarray  # (N,) ns, absolute
    points: np.ndarray  # (N, 3) sensor frame, m

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=np.int64).reshape(-1)
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if len(stamps) != len(points) or len(points) < 1:
            raise ValueError("scan needs matching, non-empty stamps and points")
        if stamps.min() < self.scan_start or stamps.max() > self.scan_end:
            raise ValueError("point stamps outside [scan_start, scan_end]")
        if not np.all(np.isfinite(points)):
            raise ValueError(f"non-finite point in scan of {self.sensor_id}")
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class OdomEstimate:
    pose: Pose
    fitness: float  # mean squared point-to-plane distance
    iterations: int
    degenerate: bool = False
    insufficient_overlap: bool = False
    converged: bool = True


def deskew(scan: LidarScan, pose_start: Pose, pose_end: Pose) -> np.ndarray:
    """The scan's (N, 3) points in the scan-start frame, under the
    constant-twist motion between the predicted start and end sensor
    poses."""
    span = scan.scan_end - scan.scan_start
    if span == 0:
        return scan.points
    xi = se3_log(pose_compose(pose_inverse(pose_start), pose_end))
    # a point stamped eta of the way through the scan was seen from
    # exp(eta xi) relative to the start pose; a scan has one stamp per
    # azimuth step, so one exponential per distinct stamp
    stamps, inverse = np.unique(scan.stamps, return_inverse=True)
    etas = (stamps - scan.scan_start) / span
    R, t = se3_exp_many(etas[:, None] * xi)
    return matvec_many(R[inverse], scan.points) + t[inverse]


_VOXEL_SPAN = 1 << 21  # voxels per axis below which three fit one int64


def voxel_downsample(points, resolution: float = 0.05) -> np.ndarray:
    """One point per voxel: the centroid of the voxel's members, in the
    lexicographic order of the voxels' integer coordinates."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return points
    voxels = np.floor(points / resolution)
    voxels -= voxels.min(axis=0)
    dims = voxels.max(axis=0) + 1.0
    if not np.all(dims < _VOXEL_SPAN):  # also false for NaN
        raise ValueError(
            "cloud is not finite or spans 2**21 voxels or more on an axis, "
            "so its voxel keys do not fit one int64"
        )
    # one int64 per voxel, ordered as its (x, y, z) coordinates
    keys = np.ravel_multi_index(voxels.astype(np.int64).T, dims.astype(np.int64))
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, points)
    return sums / counts[:, None]


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 30
    translation_tol: float = 1e-4
    max_correspondence_dist: float = 0.5
    coarse_correspondence_dist: float = 2.0
    huber_delta: float = 0.1
    min_correspondences: int = 50
    plane_neighbors: int = 5
    degenerate_condition: float = 1e5


def icp_register(
    cloud, submap: LocalSubmap, prior: Pose, config: IcpConfig = IcpConfig(),
) -> OdomEstimate:
    """Point-to-plane Gauss-Newton registration of a base-frame cloud
    against the local submap, starting from the IMU motion prior."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    pose = prior
    center = np.asarray(prior.t, dtype=float)  # rotation pivot
    degenerate = False
    fitness = np.inf
    iterations = 0
    neighbors = _KnnCandidates(submap, len(cloud))
    for iterations in range(1, config.max_iterations + 1):
        # coarse-to-fine gate: early iterations accept distant pairs for
        # capture range, converged iterations keep only tight pairs to
        # avoid the bias of long in-plane correspondence offsets
        gate = max(
            config.max_correspondence_dist,
            config.coarse_correspondence_dist * 0.5 ** (iterations - 1),
        )
        world = pose.apply(cloud)
        # pairs beyond the gate are dropped
        dist, nearest, targets = neighbors.nearest(world, gate)
        mask = dist <= gate
        if mask.any():
            normals_all, valid = submap.plane_normals(
                nearest[mask], k=config.plane_neighbors
            )
            full = np.flatnonzero(mask)
            mask = np.zeros_like(mask)
            mask[full[valid]] = True
            normals = normals_all[valid]
        n_corr = int(mask.sum())
        if n_corr < config.min_correspondences:
            return OdomEstimate(
                pose=prior, fitness=np.inf, iterations=iterations,
                insufficient_overlap=True, degenerate=True, converged=False,
            )
        src = cloud[mask]
        w = world[mask]
        targets = targets[mask]
        r = np.einsum("ij,ij->i", normals, w - targets)
        weights = _huber_weights(r, config.huber_delta)
        J = np.empty((n_corr, 6))
        # rotation about the prior position keeps the lever arms at scene
        # scale, so the conditioning of N reflects the geometry alone
        J[:, :3] = np.cross(w - center, normals)
        J[:, 3:] = normals
        Jw = J * weights[:, None]
        N = J.T @ Jw
        g = Jw.T @ r
        # unit-normalize before the condition test so mixed rad/m scales
        # do not masquerade as degeneracy
        d = np.sqrt(np.maximum(N.diagonal(), 1e-30))
        Nn = N / d[:, None] / d[None, :]
        if np.linalg.cond(Nn) > config.degenerate_condition:
            degenerate = True
            Nn = Nn + np.eye(6) / config.degenerate_condition
        delta = -np.linalg.solve(Nn, g / d) / d
        cost = float(np.sum(weights * r * r))
        # step halving if the update does not reduce the robust cost
        step = 1.0
        for _ in range(6):
            cand = _apply_delta(pose, delta * step, center)
            cw = cand.apply(src)
            cr = np.einsum("ij,ij->i", normals, cw - targets)
            ccost = float(np.sum(_huber_weights(cr, config.huber_delta) * cr * cr))
            if ccost <= cost or np.linalg.norm(delta * step) < 1e-12:
                break
            step *= 0.5
        pose = _apply_delta(pose, delta * step, center)
        fitness = float(np.mean(r * r))
        # only declare convergence once the gate has tightened fully
        if (
            gate <= config.max_correspondence_dist
            and np.linalg.norm(delta * step) < config.translation_tol
        ):
            return OdomEstimate(
                pose=pose, fitness=fitness, iterations=iterations,
                degenerate=degenerate, converged=True,
            )
    return OdomEstimate(
        pose=pose, fitness=fitness, iterations=iterations,
        degenerate=degenerate, converged=False,
    )


KNN_CANDIDATES = 4  # map points kept per cloud point across ICP iterations
_MOVED_MARGIN = 1e-9  # m, covers the rounding of the distances compared


class _KnnCandidates:
    """Each cloud point's K nearest map points within the gate, kept from
    its last k-NN query across ICP iterations.

    A query at `origin` keeps the candidates and a lower bound `bound` on
    the distance from `origin` to every other map point: the K-th
    distance, or the query's gate when fewer than K are found. After the
    point moves by `moved`, every other map point is at least
    `bound - moved` away (triangle inequality). If the nearest candidate
    is nearer than that, it is the nearest map point; if the gate is, no
    map point lies within the gate. Only the points that meet neither
    test are queried again. The candidates' coordinates are stored at
    query time, so a kept point reads nothing from the map.
    """

    def __init__(self, submap: LocalSubmap, n: int):
        self.submap = submap
        # candidate-major, so each candidate's distances are one
        # contiguous row of n
        self.index = np.empty((KNN_CANDIDATES, n), dtype=np.intp)
        self.xyz = np.empty((3, KNN_CANDIDATES, n))
        self.origin = np.empty((n, 3))  # where each point was last queried
        self.bound = None  # (n,) once the first call has queried every point

    def nearest(self, world, gate: float):
        """(distance, index, coordinates) of each world point's nearest map
        point. Within the gate they equal a fresh gated k=1 query's, but
        between equally near map points; a point with no map point within
        the gate gets a distance above it."""
        n = len(world)
        if self.bound is None:
            self.bound = np.empty(n)
            best, dist = np.zeros(n, dtype=np.intp), np.empty(n)
            stale = slice(None)
        else:
            # squared distances summed one axis at a time, as the KD-tree
            # sums them
            (x, y, z), (wx, wy, wz) = self.xyz, world.T
            sq = (x - wx) ** 2
            sq += (y - wy) ** 2
            sq += (z - wz) ** 2
            best = np.zeros(n, dtype=np.intp)
            least = sq[0].copy()
            for k in range(1, KNN_CANDIDATES):  # first of equals wins
                best[sq[k] < least] = k
                np.minimum(least, sq[k], out=least)
            dist = np.sqrt(least)
            step = world - self.origin
            moved = np.sqrt(np.einsum("ij,ij->i", step, step)) + _MOVED_MARGIN
            stale = np.flatnonzero(~(np.minimum(dist, gate) < self.bound - moved))
        queries = world[stale]
        if len(queries):
            d, idx = self.submap.knn(queries, k=KNN_CANDIDATES, max_dist=gate)
            pts = self.submap.points()
            xyz = np.take(pts, idx.T, axis=0, mode="clip")  # (K, m, 3)
            missing = idx.T == len(pts)  # never nearest: inf, as k-NN says
            if missing.any():
                xyz[missing] = np.inf
            self.index[:, stale] = idx.T
            self.xyz[:, :, stale] = xyz.transpose(2, 0, 1)
            self.origin[stale] = queries
            self.bound[stale] = np.minimum(d[:, -1], gate)
            best[stale] = 0
            dist[stale] = d[:, 0]
        flat = best * n + np.arange(n)
        return (dist, np.take(self.index, flat),
                np.take(self.xyz.reshape(3, -1), flat, axis=1).T)


def _huber_weights(r, delta: float) -> np.ndarray:
    """Huber IRLS weights of the residuals r."""
    absr = np.abs(r)
    return np.where(absr <= delta, 1.0, delta / np.maximum(absr, 1e-12))


def _apply_delta(pose: Pose, delta, center) -> Pose:
    """World-frame perturbation rotating about `center`:
    R <- Exp(dphi) R, t <- Exp(dphi) (t - c) + c + dt."""
    dphi, dt = delta[:3], delta[3:]
    Rd = so3_exp(dphi)
    return Pose(Rd @ pose.R, Rd @ (pose.t - center) + center + dt)


def map_update(submap: LocalSubmap, cloud_world, current_pose: Pose) -> None:
    """Insert registered world-frame points (voxel dedup) and slide the
    bounding box to the current pose."""
    submap.insert(cloud_world)
    submap.crop_to_box(current_pose.t)
