"""Scan deskewing, downsampling and direct ICP odometry.

Scans are deskewed to their start time with a constant-twist motion model:
the sensor pose at fraction eta of the scan is se3_exp(eta * xi) relative
to the start pose, xi being the twist of the start-to-end motion. All
the scans of a keyframe are deskewed in one `deskew` call: one log over
their motions, one exponential per distinct (scan, stamp) and one
gathered product, each point computed as deskewing its scan alone
would. Scans are then voxel-downsampled and registered point-to-plane
against the incremental local submap, which reports neighbours by their
coordinates, never by index. Each cloud point's correspondence is the
plane fitted to the neighbours its last gated k-NN query returned (as
LOAM and LIO-SAM fit theirs). That hood is kept across ICP iterations
until a triangle-inequality bound on the point's motion can no longer
certify its nearest map point (`_Hoods`); only then is the point
queried again.
Each Gauss-Newton step rotates about the current pose's own position and
is solved only in the eigen-directions of the normal matrix that the
scene constrains; the others are reported as the result's weak
directions (Zhang, Kaess & Singh, ICRA 2016). The result states its own
uncertainty (`OdomEstimate.covariance`), which the between factor takes.
`run_pipeline` moves each deskewed scan into the predicted base frame by
its start pose (mount included) before the scans of one keyframe are
downsampled together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Pose,
    matvec_many,
    pose_compose,
    pose_inverse,
    se3_exp_many,
    se3_log_many,
    so3_exp,
)
from .submap import LocalSubmap, voxel_keys


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


# a converged registration's noise: 0.5 deg rotation, 5 cm translation
BASE_COV = np.diag([np.radians(0.5) ** 2] * 3 + [0.05**2] * 3)
DEGENERATE_COV_SCALE = 100.0  # BASE_COV scale of an unconverged result
WEAK_VARIANCE = 100.0  # added variance along each weak direction


@dataclass(frozen=True)
class OdomEstimate:
    pose: Pose
    fitness: float  # mean squared point-to-plane distance
    iterations: int
    # unit world-frame steps (dphi, dt) about the pose's own position,
    # one per row, along which the last step was not solved (`_apply_delta`)
    weak: np.ndarray = field(default_factory=lambda: np.empty((0, 6)))
    insufficient_overlap: bool = False
    converged: bool = True

    @property
    def degenerate(self) -> bool:
        """The scene left the pose unconstrained in some direction."""
        return len(self.weak) > 0

    @property
    def covariance(self) -> np.ndarray:
        """The registration's (6, 6) covariance as a right perturbation
        (rot, trans) of `pose`, which is how a between residual on it
        sees it: BASE_COV, DEGENERATE_COV_SCALE times larger unless
        converged, plus WEAK_VARIANCE along each weak direction. A weak
        step (dphi, dt) about the pose's position is the right twist
        (R^T dphi, R^T dt)."""
        twists = (self.weak.reshape(-1, 2, 3) @ self.pose.R).reshape(-1, 6)
        scale = 1.0 if self.converged else DEGENERATE_COV_SCALE
        return BASE_COV * scale + WEAK_VARIANCE * twists.T @ twists


def deskew(scans, starts, ends) -> np.ndarray:
    """The points of `scans` (N, 3), concatenated in scan order, each in
    its own scan's start frame, under the constant-twist motion between
    the scan's predicted start and end sensor poses `starts[k]` and
    `ends[k]`. A scan of zero span is returned as it is."""
    if not scans:
        return np.empty((0, 3))
    counts = [len(scan.stamps) for scan in scans]
    cuts = np.cumsum([0] + counts)
    scan_of = np.repeat(np.arange(len(scans)), counts)
    first = np.array([scan.scan_start for scan in scans], dtype=np.int64)
    spans = np.array([scan.scan_end for scan in scans], dtype=np.int64) - first
    offsets = np.concatenate([scan.stamps for scan in scans]) - first[scan_of]
    motions = [pose_compose(pose_inverse(a), b) for a, b in zip(starts, ends)]
    xi = se3_log_many(np.array([m.R for m in motions]), np.array([m.t for m in motions]))
    # a point stamped eta of the way through its scan was seen from
    # exp(eta xi) relative to the scan's start pose; a scan has one stamp
    # per azimuth step, so one exponential per distinct (scan, stamp),
    # keyed scan-major in one int64 (np.unique over rows is far slower)
    width = int(spans.max()) + 1
    if len(scans) * width > np.iinfo(np.int64).max:
        raise ValueError("scans too long to key their stamps in one int64")
    keys, inverse = np.unique(scan_of * width + offsets, return_inverse=True)
    key_scan, key_offset = np.divmod(keys, width)
    etas = key_offset / np.maximum(spans[key_scan], 1)
    R, t = se3_exp_many(etas[:, None] * xi[key_scan])
    out = matvec_many(R[inverse], np.concatenate([scan.points for scan in scans]))
    out += t[inverse]
    for k in np.flatnonzero(spans == 0):
        out[cuts[k]:cuts[k + 1]] = scans[k].points
    return out


def voxel_downsample(points, resolution: float) -> np.ndarray:
    """One point per voxel: the centroid of the voxel's members, in the
    lexicographic order of the voxels' integer coordinates. Keys count
    from the cloud's least voxel plus 2**20 (`voxel_keys`), so a cloud
    spanning 2**21 voxels or more on an axis, or not finite, raises."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return points
    voxels = np.floor(points / resolution)
    keys = voxel_keys(voxels, voxels.min(axis=0) + 2.0 ** 20)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    # bincount adds the members of each voxel in input order
    sums = np.empty((len(counts), 3))
    for axis in range(3):
        sums[:, axis] = np.bincount(inverse, weights=points[:, axis],
                                    minlength=len(counts))
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


# least eigenvalue of N = J^T W J along which a step is solved; with unit
# Huber weights, the information of 35 points facing that way. Set for the
# 0.2 m cloud of `PipelineConfig`, which keeps about 0.7 of the points of a
# 0.05 m one (50 before). Lower thresholds (30, 25, 12.5), or 1-2% of the
# correspondences, let a few far points set the blind corridor's
# along-track step, and the smoother pitches the pose to agree with it.
WEAK_EIGENVALUE = 35.0


def icp_register(
    cloud, submap: LocalSubmap, prior: Pose, config: IcpConfig = IcpConfig(),
) -> OdomEstimate:
    """Point-to-plane Gauss-Newton registration of a base-frame cloud
    against the local submap, starting from the IMU motion prior. No
    step is taken along an eigenvector of N = J^T W J whose eigenvalue
    is below WEAK_EIGENVALUE; the last iteration's are the result's weak
    directions."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    pose = prior
    fitness = np.inf
    iterations = 0
    weak = np.empty((0, 6))
    hoods = _Hoods(submap, len(cloud), config.plane_neighbors)
    for iterations in range(1, config.max_iterations + 1):
        # coarse-to-fine gate: early iterations accept distant pairs for
        # capture range, converged iterations keep only tight pairs to
        # avoid the bias of long in-plane correspondence offsets
        gate = max(
            config.max_correspondence_dist,
            config.coarse_correspondence_dist * 0.5 ** (iterations - 1),
        )
        world = pose.apply(cloud)
        # pairs beyond the gate are dropped, and hoods that are no plane
        mask = (hoods.nearest(world, gate) <= gate) & hoods.planar
        n_corr = int(np.count_nonzero(mask))
        if n_corr < config.min_correspondences:
            return OdomEstimate(
                pose=prior, fitness=np.inf, iterations=iterations,
                weak=np.eye(6), insufficient_overlap=True, converged=False,
            )
        src = cloud[mask]
        w = world[mask]
        normals = hoods.normal[mask]
        centroids = hoods.centroid[mask]
        r = np.einsum("ij,ij->i", normals, w - centroids)
        weights = _huber_weights(r, config.huber_delta)
        J = np.empty((n_corr, 6))
        # rotation about the current position keeps the lever arms at
        # scene scale, so the spectrum of N reflects the geometry alone
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
        # step halving if the update does not reduce the robust cost
        step = 1.0
        for _ in range(6):
            cand = _apply_delta(pose, delta * step)
            cw = cand.apply(src)
            cr = np.einsum("ij,ij->i", normals, cw - centroids)
            ccost = float(np.sum(_huber_weights(cr, config.huber_delta) * cr * cr))
            if ccost <= cost or np.linalg.norm(delta * step) < 1e-12:
                break
            step *= 0.5
        pose = _apply_delta(pose, delta * step)
        fitness = float(np.mean(r * r))
        # only declare convergence once the gate has tightened fully
        if (
            gate <= config.max_correspondence_dist
            and np.linalg.norm(delta * step) < config.translation_tol
        ):
            return OdomEstimate(pose=pose, fitness=fitness, iterations=iterations,
                                weak=weak, converged=True)
    return OdomEstimate(pose=pose, fitness=fitness, iterations=iterations,
                        weak=weak, converged=False)


_MOVED_MARGIN = 1e-9  # m, covers the rounding of the distances compared


class _Hoods:
    """Each cloud point's k nearest map points within the gate of its last
    k-NN query, and the plane fitted to them, kept across ICP iterations.

    A query at `origin` keeps the hood and a lower bound `bound` on the
    distance from `origin` to every other map point: the k-th distance,
    or the query's gate when fewer than k are found. After the point
    moves by `moved`, every other map point is at least `bound - moved`
    away (triangle inequality). If the nearest hood point is nearer than
    that, it is the nearest map point; if the gate is, no map point lies
    within the gate. Only the points that meet neither test are queried
    again. A hood is a plane when all k of its points lay within its
    query's gate and `LocalSubmap.plane_normals` finds them planar. The
    hood holds the coordinates k-NN reported (inf for a missing point,
    never nearest), so a kept point reads nothing from the map.
    """

    def __init__(self, submap: LocalSubmap, n: int, k: int):
        self.submap = submap
        self.k = k
        # hood-major, so each hood point's distances are one contiguous
        # row of n
        self.xyz = np.empty((3, k, n))
        self.origin = np.empty((n, 3))  # where each point was last queried
        self.bound = None  # (n,) once the first call has queried every point
        self.normal = np.empty((n, 3))
        self.centroid = np.empty((n, 3))
        self.planar = np.zeros(n, dtype=bool)

    def nearest(self, world, gate: float) -> np.ndarray:
        """Distance from each world point to its nearest map point, after
        querying again the points whose hood cannot certify it. Within
        the gate it equals a fresh gated query's; a point with no map
        point within the gate gets a distance above it."""
        n = len(world)
        if self.bound is None:
            self.bound = np.empty(n)
            dist = np.empty(n)
            stale = np.arange(n)
        else:
            # squared distances summed one axis at a time, as the KD-tree
            # sums them
            (x, y, z), (wx, wy, wz) = self.xyz, world.T
            sq = (x - wx) ** 2
            sq += (y - wy) ** 2
            sq += (z - wz) ** 2
            dist = np.sqrt(sq.min(axis=0))
            step = world - self.origin
            moved = np.sqrt(np.einsum("ij,ij->i", step, step)) + _MOVED_MARGIN
            stale = np.flatnonzero(~(np.minimum(dist, gate) < self.bound - moved))
        if len(stale):
            queries = world[stale]
            d, xyz = self.submap.knn(queries, k=self.k, max_dist=gate)
            self.xyz[:, :, stale] = xyz.T
            self.origin[stale] = queries
            self.bound[stale] = np.minimum(d[:, -1], gate)
            dist[stale] = d[:, 0]
            full = d[:, -1] <= gate
            self.planar[stale] = False
            fit = stale[full]
            if len(fit):
                self.normal[fit], self.centroid[fit], self.planar[fit] = \
                    self.submap.plane_normals(xyz[full])
        return dist


def _huber_weights(r, delta: float) -> np.ndarray:
    """Huber IRLS weights of the residuals r."""
    absr = np.abs(r)
    return np.where(absr <= delta, 1.0, delta / np.maximum(absr, 1e-12))


def _apply_delta(pose: Pose, delta) -> Pose:
    """World-frame perturbation rotating about the pose's own position:
    R <- Exp(dphi) R, t <- t + dt."""
    return Pose(so3_exp(delta[:3]) @ pose.R, pose.t + delta[3:])


def map_update(submap: LocalSubmap, cloud_world, current_pose: Pose) -> None:
    """Insert registered world-frame points (voxel dedup) and slide the
    bounding box to the current pose."""
    submap.insert(cloud_world)
    submap.crop_to_box(current_pose.t)
