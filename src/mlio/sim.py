"""Deterministic scenario simulator.

Generates a ground-truth trajectory from piecewise constant-twist
segments, then synthesizes per-channel IMU measurements (including the
centrifugal and Euler lever-arm terms), motion-distorted lidar scans by
ray casting planes and boxes from the continuously moving sensor, and
GNSS fixes — all reproducible from a single scenario seed.

The ground truth is generated in arrays: the twists at all sample
times come from one `_twists_at` call, and only the chain that composes
each step's motion onto the last pose is a loop. That chain fills the
stacked poses `GroundTruth.R` (N, 3, 3) and `GroundTruth.t` (N, 3)
once; `synth_imu`, `poses_at` and `dataset.write_dataset` read them,
and `GroundTruth.poses` is a tuple of `Pose`s derived from them.
`GroundTruth.poses_at` interpolates poses at any stamps in one batch,
for the scan boundaries and the GNSS fixes alike. Each scan-boundary
pose is interpolated once and shared by every sensor's scans, and each
scan casts its rays against all boxes in one batched slab pass. GNSS
fixes are one `GnssStream`, and dropouts remove IMU and GNSS rows by
stamp.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import yaml

from .geometry import (
    NS_PER_S,
    Pose,
    _derived_pose,
    matvec_many,
    pose_compose,
    pose_inverse,
    quat_from_rotmat_many,
    quat_to_rotmat_many,
    se3_exp_many,
    se3_log,
    se3_log_many,
    skew_many,
    so3_exp,
    to_nanos,
)
from .graph import GnssStream
from .lidar import LidarScan
from .mimu import ImuChannelCalib, ImuStream
from .preintegration import GRAVITY

# ---------------------------------------------------------------------------
# world geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plane:
    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).reshape(3))
        n = np.asarray(self.normal, dtype=float).reshape(3)
        object.__setattr__(self, "normal", n / np.linalg.norm(n))

    def raycast(self, origins, dirs) -> np.ndarray:
        denom = dirs @ self.normal
        num = (self.point - origins) @ self.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(denom) > 1e-12, num / denom, np.inf)
        return np.where(t > 1e-6, t, np.inf)


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if np.any(hi <= lo):
            raise ValueError("box hi must exceed lo")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def raycast_world(world, origins, dirs) -> np.ndarray:
    """Nearest positive hit distance per ray (inf where nothing is hit).

    Planes are cast one at a time. Boxes are cast together with the slab
    method (Kay & Kajiya, SIGGRAPH 1986) over (3, boxes, rays) arrays: a
    ray enters a box at the latest of its three slab entries, tmin, and
    leaves at the earliest exit, tmax. A direction component at or below
    1e-12 counts as parallel to its slab. Hits at 1e-6 or closer do not
    count, and a ray from inside a box hits it where it leaves."""
    best = np.full(len(origins), np.inf)
    boxes = []
    for surface in world:
        if isinstance(surface, Box):
            boxes.append(surface)
        else:
            best = np.minimum(best, surface.raycast(origins, dirs))
    if not boxes:
        return best
    lo = np.stack([b.lo for b in boxes], axis=1)[..., None]  # (3, boxes, 1)
    hi = np.stack([b.hi for b in boxes], axis=1)[..., None]
    o = np.asarray(origins).T[:, None]  # (3, 1, rays)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(np.abs(dirs) > 1e-12, 1.0 / dirs, np.inf).T[:, None]
        t1 = (lo - o) * inv
        t2 = (hi - o) * inv
        near, far = np.minimum(t1, t2), np.maximum(t1, t2)
    # pairwise chains propagate NaN (0 * inf: an origin on a face of a
    # slab the ray runs along) as a reduction over the axes would
    tmin = np.maximum(np.maximum(near[0], near[1]), near[2])
    tmax = np.minimum(np.minimum(far[0], far[1]), far[2])
    hit = (tmax >= tmin) & (tmax > 1e-6)
    entry = np.where(tmin > 1e-6, tmin, tmax)
    return np.minimum(best, np.where(hit, entry, np.inf).min(axis=0))


# ---------------------------------------------------------------------------
# scenario definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LidarMount:
    pose: Pose
    fov_deg: float = 360.0
    n_azimuth: int = 60
    elevations_deg: tuple = tuple(np.linspace(-15.0, 10.0, 12))


@dataclass(frozen=True)
class Rates:
    imu_hz: float = 100.0
    lidar_hz: float = 5.0
    gnss_hz: float = 5.0

    def __post_init__(self):
        if min(self.imu_hz, self.lidar_hz, self.gnss_hz) <= 0:
            raise ValueError("rates must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    accel_sigma: float = 0.0
    gyro_sigma: float = 0.0
    lidar_sigma: float = 0.0
    gnss_sigma: float = 0.0


@dataclass(frozen=True)
class Dropout:
    sensor_id: str
    start: float  # s
    end: float  # s

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("dropout end must exceed start")


@dataclass(frozen=True)
class Scenario:
    seed: int = 0
    segments: tuple = ()  # (duration_s, twist6 (rot, trans)) pairs
    ramp: float = 0.0  # twist blend time at segment boundaries, s
    world: tuple = ()
    imus: dict = field(default_factory=dict)  # position -> ImuChannelCalib
    lidars: dict = field(default_factory=dict)  # position -> LidarMount
    gnss_lever: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rates: Rates = field(default_factory=Rates)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    dropouts: tuple = ()
    max_range: float = 80.0

    def __post_init__(self):
        segs = tuple(
            (float(d), np.asarray(tw, dtype=float).reshape(6))
            for d, tw in self.segments
        )
        if any(d <= 0 for d, _ in segs):
            raise ValueError("segment durations must be positive")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "world", tuple(self.world))
        object.__setattr__(
            self, "gnss_lever", np.asarray(self.gnss_lever, dtype=float).reshape(3)
        )
        span = self.duration
        for d in self.dropouts:
            if d.start < 0 or d.end > span:
                raise ValueError("dropout outside trajectory span")

    @property
    def duration(self) -> float:
        return sum(d for d, _ in self.segments)


def _channel_rng(seed: int, sensor_id: str) -> np.random.Generator:
    """Independent, reproducible stream per sensor: unaffected by which
    other sensors are generated."""
    digest = hashlib.sha256(f"{seed}:{sensor_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruth:
    stamps: np.ndarray  # (N,) ns
    R: np.ndarray  # (N, 3, 3) world <- base
    t: np.ndarray  # (N, 3)
    v_world: np.ndarray  # (N, 3)
    w_body: np.ndarray  # (N, 3)
    a_world: np.ndarray  # (N, 3)
    w_dot: np.ndarray  # (N, 3) body

    @cached_property
    def poses(self) -> tuple:
        """The N poses as `Pose`s."""
        return tuple(map(_derived_pose, self.R, self.t))

    def poses_at(self, stamps):
        """Poses (R (m, 3, 3), t (m, 3)) at the ns `stamps` by
        constant-twist interpolation between the two bracketing samples;
        a stamp at or past either end gets that end's pose."""
        stamps = np.asarray(stamps, dtype=np.int64)
        R, t = self.R, self.t
        k = np.clip(np.searchsorted(self.stamps, stamps, side="right") - 1,
                    0, len(self.stamps) - 2)
        eta = (stamps - self.stamps[k]) / (self.stamps[k + 1] - self.stamps[k])
        R0, t0 = R[k], t[k]
        R0T = np.swapaxes(R0, -1, -2)
        # T0^-1 T1, then T0 Exp(eta xi)
        xi = se3_log_many(R0T @ R[k + 1],
                          matvec_many(R0T, t[k + 1]) - matvec_many(R0T, t0))
        R_eta, t_eta = se3_exp_many(eta[:, None] * xi)
        out_R, out_t = R0 @ R_eta, matvec_many(R0, t_eta) + t0
        for end, at in ((0, stamps <= self.stamps[0]), (-1, stamps >= self.stamps[-1])):
            out_R[at], out_t[at] = R[end], t[end]
        return out_R, out_t


def _segment_starts(scenario: Scenario) -> list:
    """Start time of each segment, s."""
    return [0.0, *itertools.accumulate(d for d, _ in scenario.segments[:-1])]


def _twists_at(scenario: Scenario, times):
    """Body twists (m, 6) and their time derivatives (m, 6) at the
    `times` (m,) s: piecewise constant, with optional smoothstep ramps
    at segment boundaries so the acceleration profile is continuous."""
    times = np.asarray(times, dtype=float)
    starts = np.array(_segment_starts(scenario))
    twists = np.stack([tw for _, tw in scenario.segments])
    k = np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)
    xi, dxi = twists[k], np.zeros((len(times), 6))
    r = scenario.ramp
    if r > 0:
        ramp = np.flatnonzero((k > 0) & (times < starts[k] + r))
        j = k[ramp]
        prev, step = twists[j - 1], twists[j] - twists[j - 1]
        alpha = ((times[ramp] - starts[j]) / r)[:, None]
        dxi[ramp] = 6.0 * alpha * (1.0 - alpha) / r * step
        xi[ramp] = prev + alpha * alpha * (3.0 - 2.0 * alpha) * step
    return xi, dxi


def gen_trajectory(scenario: Scenario) -> GroundTruth:
    """Integrate the piecewise constant-twist trajectory at IMU rate."""
    dt = 1.0 / scenario.rates.imu_hz
    step_ns = int(round(dt * NS_PER_S))
    end_ns = to_nanos(scenario.duration)
    stamps = np.arange(0, end_ns, step_ns, dtype=np.int64)
    # close the span exactly even when it is not a multiple of dt
    if end_ns - stamps[-1] > step_ns // 100:
        stamps = np.append(stamps, end_ns)
    else:
        stamps[-1] = end_ns
    # each step's motion is its midpoint twist, which depends on time alone
    h = np.diff(stamps) / NS_PER_S
    mid = _twists_at(scenario, stamps[:-1] / NS_PER_S + h / 2.0)[0] * h[:, None]
    # pose k + 1 is pose k composed with step k, in `pose_compose`'s
    # arithmetic
    R, t = np.tile(np.eye(3), (len(stamps), 1, 1)), np.zeros((len(stamps), 3))
    for k, (dR, dp) in enumerate(zip(*se3_exp_many(mid))):
        R[k + 1], t[k + 1] = R[k] @ dR, R[k] @ dp + t[k]
    xi, dxi = _twists_at(scenario, stamps / NS_PER_S)
    w, v_b = np.ascontiguousarray(xi[:, :3]), xi[:, 3:]
    return GroundTruth(
        stamps, R, t,
        v_world=matvec_many(R, v_b),
        w_body=w,
        a_world=matvec_many(R, matvec_many(skew_many(w), v_b) + dxi[:, 3:]),
        w_dot=np.ascontiguousarray(dxi[:, :3]),
    )


# ---------------------------------------------------------------------------
# sensor synthesis
# ---------------------------------------------------------------------------


def synth_imu(gt: GroundTruth, imus: dict, noise: NoiseSpec, seed: int) -> dict:
    """Per-channel IMU streams keyed 'imu/<position>'.

    Each channel at lever arm t sees the base specific force plus the
    centrifugal term w x (w x t) and the Euler term wdot x t, rotated
    into its own frame.
    """
    g = np.asarray(GRAVITY)
    out = {}
    n = len(gt.stamps)
    # base-frame specific force
    f_base = np.einsum("nji,nj->ni", gt.R, gt.a_world - g)
    for pos, calib in imus.items():
        sid = f"imu/{pos}"
        rng = _channel_rng(seed, sid)
        centrifugal = np.cross(gt.w_body, np.cross(gt.w_body, calib.t))
        euler = np.cross(gt.w_dot, calib.t)
        f = (f_base + centrifugal + euler) @ calib.R  # row-wise R^T @ v
        w = gt.w_body @ calib.R
        if noise.accel_sigma > 0:
            f = f + rng.normal(scale=noise.accel_sigma, size=(n, 3))
        if noise.gyro_sigma > 0:
            w = w + rng.normal(scale=noise.gyro_sigma, size=(n, 3))
        out[sid] = ImuStream(gt.stamps, f, w, sid)
    return out


def _scan_pattern(mount: LidarMount):
    """Unit ray directions in the sensor frame, grouped per azimuth step."""
    half = math.radians(mount.fov_deg) / 2.0
    az = np.linspace(-half, half, mount.n_azimuth, endpoint=False)
    el = np.radians(mount.elevations_deg)
    dirs = np.empty((mount.n_azimuth, len(el), 3))
    dirs[..., 0] = np.cos(el)[None, :] * np.cos(az)[:, None]
    dirs[..., 1] = np.cos(el)[None, :] * np.sin(az)[:, None]
    dirs[..., 2] = np.tile(np.sin(el), (mount.n_azimuth, 1))
    return dirs


def synth_lidar(
    gt: GroundTruth,
    world,
    mounts: dict,
    rate: float,
    noise: NoiseSpec,
    seed: int,
    max_range: float = 80.0,
) -> dict:
    """Per-sensor motion-distorted scans keyed 'lidar/<position>'.

    Rays are cast from the continuously moving sensor pose; each azimuth
    step carries its own stamp across the scan period, so motion
    distortion is present by construction.
    """
    if not world:
        raise ValueError("world must be non-empty")
    period_ns = int(round(NS_PER_S / rate))
    n_scans = int(gt.stamps[-1] // period_ns)
    # every sensor's scan i runs between the same two boundary poses
    bound_R, bound_t = gt.poses_at(np.arange(n_scans + 1) * period_ns)
    out = {}
    for pos, mount in mounts.items():
        sid = f"lidar/{pos}"
        rng = _channel_rng(seed, sid)
        pattern = _scan_pattern(mount)  # (n_az, n_el, 3)
        n_az, n_el = pattern.shape[:2]
        offsets = (np.arange(n_az) * period_ns) // n_az
        etas = (offsets / period_ns)[:, None]
        scans = []
        for i in range(n_scans):
            start = i * period_ns
            end = start + period_ns
            # constant-twist sensor motion across the scan period
            S0 = pose_compose(_derived_pose(bound_R[i], bound_t[i]), mount.pose)
            S1 = pose_compose(_derived_pose(bound_R[i + 1], bound_t[i + 1]), mount.pose)
            xi = se3_log(pose_compose(pose_inverse(S0), S1))
            R_rel, t_rel = se3_exp_many(etas * xi)
            rot = S0.R @ R_rel
            origins = matvec_many(S0.R, t_rel) + S0.t
            dirs_w = np.einsum("aij,aej->aei", rot, pattern)
            o_flat = np.repeat(origins, n_el, axis=0)
            d_flat = dirs_w.reshape(-1, 3)
            ranges = raycast_world(world, o_flat, d_flat)
            if noise.lidar_sigma > 0:
                ranges = ranges + rng.normal(
                    scale=noise.lidar_sigma, size=ranges.shape
                )
            hit = np.isfinite(ranges) & (ranges <= max_range)
            if hit.sum() == 0:
                continue
            pts_sensor = pattern.reshape(-1, 3)[hit] * ranges[hit, None]
            stamps = start + np.repeat(offsets, n_el)[hit]
            scans.append(
                LidarScan(
                    sensor_id=sid,
                    scan_start=start,
                    scan_end=end,
                    stamps=stamps.astype(np.int64),
                    points=pts_sensor,
                )
            )
        out[sid] = scans
    return out


def synth_gnss(
    gt: GroundTruth, rate: float, sigma: float, lever, seed: int
) -> GnssStream:
    """GNSS fixes at the antenna position (base + lever arm)."""
    lever = np.asarray(lever, dtype=float).reshape(3)
    rng = _channel_rng(seed, "gnss")
    stamps = np.arange(0, gt.stamps[-1], int(round(NS_PER_S / rate)), dtype=np.int64)
    R, t = gt.poses_at(stamps)
    p = t + matvec_many(R, lever)
    if sigma > 0:
        p = p + rng.normal(scale=sigma, size=p.shape)
    return GnssStream(stamps, p, np.full(len(stamps), sigma**2))


def inject_dropout(streams: dict, dropouts) -> dict:
    """Remove messages whose stamp falls in a (sensor, interval) dropout,
    window ends included; everything else is passed through unchanged. A
    stream is an `ImuStream` or a `GnssStream`, or a list of scans, each
    stamped by its scan start."""
    out = {}
    for sid, items in streams.items():
        windows = [
            (to_nanos(d.start), to_nanos(d.end))
            for d in dropouts
            if d.sensor_id == sid
        ]
        if isinstance(items, (ImuStream, GnssStream)):
            keep = np.ones(len(items), dtype=bool)
            for a, b in windows:
                keep &= (items.stamps < a) | (items.stamps > b)
            out[sid] = items.take(keep)
        else:
            out[sid] = [scan for scan in items
                        if not any(a <= scan.scan_start <= b for a, b in windows)]
    return out


@dataclass(frozen=True)
class SimData:
    scenario: Scenario
    gt: GroundTruth
    imu: dict  # 'imu/<pos>' -> ImuStream
    lidar: dict  # 'lidar/<pos>' -> [LidarScan]
    gnss: GnssStream


def simulate(scenario: Scenario) -> SimData:
    """Full deterministic generation pass, dropouts applied."""
    gt = gen_trajectory(scenario)
    imu = synth_imu(gt, scenario.imus, scenario.noise, scenario.seed)
    lidar = synth_lidar(
        gt,
        scenario.world,
        scenario.lidars,
        scenario.rates.lidar_hz,
        scenario.noise,
        scenario.seed,
        scenario.max_range,
    )
    gnss = synth_gnss(
        gt,
        scenario.rates.gnss_hz,
        scenario.noise.gnss_sigma,
        scenario.gnss_lever,
        scenario.seed,
    )
    imu = inject_dropout(imu, scenario.dropouts)
    lidar = inject_dropout(lidar, scenario.dropouts)
    gnss_streams = inject_dropout({"gnss": gnss}, scenario.dropouts)
    return SimData(
        scenario=scenario, gt=gt, imu=imu, lidar=lidar, gnss=gnss_streams["gnss"]
    )


# ---------------------------------------------------------------------------
# scenario serialization
# ---------------------------------------------------------------------------


def scenario_to_dict(s: Scenario) -> dict:
    def quat_list(R) -> list:
        return quat_from_rotmat_many(R[None])[0].tolist()

    def pose_dict(p: Pose) -> dict:
        return {
            "quat": quat_list(p.R),
            "t": [float(x) for x in p.t],
        }

    def float_fields(obj) -> dict:
        return {f.name: float(getattr(obj, f.name)) for f in fields(obj)}

    world = []
    for surf in s.world:
        if isinstance(surf, Plane):
            world.append(
                {
                    "type": "plane",
                    "point": [float(x) for x in surf.point],
                    "normal": [float(x) for x in surf.normal],
                }
            )
        else:
            world.append(
                {
                    "type": "box",
                    "lo": [float(x) for x in surf.lo],
                    "hi": [float(x) for x in surf.hi],
                }
            )
    return {
        "seed": int(s.seed),
        "ramp": float(s.ramp),
        "max_range": float(s.max_range),
        "segments": [
            {"duration": float(d), "twist": [float(x) for x in tw]}
            for d, tw in s.segments
        ],
        "world": world,
        "imus": {
            pos: {
                "quat": quat_list(c.R),
                "lever_arm": [float(x) for x in c.t],
                "acc_noise_var": [float(x) for x in c.acc_noise_var],
                "gyro_noise_var": [float(x) for x in c.gyro_noise_var],
            }
            for pos, c in s.imus.items()
        },
        "lidars": {
            pos: {
                "pose": pose_dict(m.pose),
                "fov_deg": float(m.fov_deg),
                "n_azimuth": int(m.n_azimuth),
                "elevations_deg": [float(x) for x in m.elevations_deg],
            }
            for pos, m in s.lidars.items()
        },
        "gnss_lever": [float(x) for x in s.gnss_lever],
        "rates": float_fields(s.rates),
        "noise": float_fields(s.noise),
        "dropouts": [
            {"sensor": d.sensor_id, "start": float(d.start), "end": float(d.end)}
            for d in s.dropouts
        ],
    }


def scenario_from_dict(doc: dict) -> Scenario:
    world = []
    for surf in doc.get("world", []):
        if surf["type"] == "plane":
            world.append(Plane(point=surf["point"], normal=surf["normal"]))
        elif surf["type"] == "box":
            world.append(Box(lo=surf["lo"], hi=surf["hi"]))
        else:
            raise ValueError(f"unknown surface type {surf['type']!r}")
    imus = {
        pos: ImuChannelCalib(
            R=quat_to_rotmat_many(c["quat"]),
            t=c["lever_arm"],
            acc_noise_var=c["acc_noise_var"],
            gyro_noise_var=c["gyro_noise_var"],
        )
        for pos, c in doc.get("imus", {}).items()
    }
    lidars = {}
    for pos, m in doc.get("lidars", {}).items():
        # keys the file omits keep LidarMount's defaults
        opts = {k: m[k] for k in ("fov_deg", "n_azimuth") if k in m}
        if "elevations_deg" in m:
            opts["elevations_deg"] = tuple(m["elevations_deg"])
        lidars[pos] = LidarMount(
            pose=Pose(
                quat_to_rotmat_many(m["pose"]["quat"]),
                m["pose"]["t"],
            ),
            **opts,
        )
    rates = Rates(**doc.get("rates", {}))
    noise = NoiseSpec(**doc.get("noise", {}))
    dropouts = tuple(
        Dropout(sensor_id=d["sensor"], start=d["start"], end=d["end"])
        for d in doc.get("dropouts", [])
    )
    return Scenario(
        seed=doc.get("seed", 0),
        segments=[(seg["duration"], seg["twist"]) for seg in doc["segments"]],
        ramp=doc.get("ramp", 0.0),
        world=world,
        imus=imus,
        lidars=lidars,
        gnss_lever=doc.get("gnss_lever", [0.0, 0.0, 0.0]),
        rates=rates,
        noise=noise,
        dropouts=dropouts,
        max_range=doc.get("max_range", 80.0),
    )


# libyaml's parser and emitter when PyYAML was built with it; the loaders
# give the same dicts and the dumpers the same text
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(yaml.load(fh, Loader=YAML_LOADER))


def save_scenario(path, scenario: Scenario) -> None:
    with open(path, "w") as fh:
        yaml.dump(scenario_to_dict(scenario), fh, Dumper=YAML_DUMPER, sort_keys=False)


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------


def _default_rig(accel_var=1e-4, gyro_var=1e-6):
    """Four IMUs at the rig corners and four yawed wide-FOV lidars."""
    levers = {
        "F_L": [0.5, 0.3, 0.0],
        "F_R": [0.5, -0.3, 0.0],
        "R_L": [-0.5, 0.3, 0.0],
        "R_R": [-0.5, -0.3, 0.0],
    }
    imus = {
        pos: ImuChannelCalib(
            R=np.eye(3),
            t=lever,
            acc_noise_var=[accel_var] * 3,
            gyro_noise_var=[gyro_var] * 3,
        )
        for pos, lever in levers.items()
    }
    yaws = {"F_L": 45.0, "F_R": -45.0, "R_L": 135.0, "R_R": -135.0}
    lidars = {
        pos: LidarMount(
            pose=Pose(
                so3_exp([0.0, 0.0, math.radians(yaws[pos])]),
                [lever[0] * 2.0, lever[1] * 2.0, 1.8],
            ),
            fov_deg=180.0,
        )
        for pos, lever in levers.items()
    }
    return imus, lidars


def _loop_world(side: float, lane: float = 8.0) -> list:
    """Square loop course: ground plane, inner/outer walls and corner
    pillars for longitudinal ICP constraints."""
    world = [Plane(point=[0, 0, 0], normal=[0, 0, 1])]
    h = 4.0
    lo, hi = -lane, side + lane
    t = 0.4  # wall thickness
    world += [
        Box(lo=[lo - t, lo - t, 0], hi=[hi + t, lo, h]),
        Box(lo=[lo - t, hi, 0], hi=[hi + t, hi + t, h]),
        Box(lo=[lo - t, lo, 0], hi=[lo, hi, h]),
        Box(lo=[hi, lo, 0], hi=[hi + t, hi, h]),
    ]
    inner_lo, inner_hi = lane, side - lane
    if inner_hi > inner_lo:
        world.append(
            Box(lo=[inner_lo, inner_lo, 0], hi=[inner_hi, inner_hi, h + 2.0])
        )
    # facade blocks protruding from both wall lines break the corridor
    # symmetry and constrain the along-track direction everywhere,
    # whichever side of the lane a sensor happens to face
    depth, width, pitch = 3.0, 4.0, 12.0
    n_blocks = int((hi - lo) // pitch)
    for i in range(n_blocks):
        c = lo + (i + 0.5) * pitch
        hb = 5.0 if i % 2 else 3.0
        world += [
            Box(lo=[c - width / 2, lo, 0], hi=[c + width / 2, lo + depth, hb]),
            Box(lo=[c - width / 2, hi - depth, 0], hi=[c + width / 2, hi, hb]),
            Box(lo=[lo, c - width / 2, 0], hi=[lo + depth, c + width / 2, hb]),
            Box(lo=[hi - depth, c - width / 2, 0], hi=[hi, c + width / 2, hb]),
        ]
        if inner_hi > inner_lo and inner_lo + width < c < inner_hi - width:
            hc = 6.0 if i % 2 else 4.0
            world += [
                Box(lo=[c - width / 2, inner_lo - depth, 0],
                    hi=[c + width / 2, inner_lo, hc]),
                Box(lo=[c - width / 2, inner_hi, 0],
                    hi=[c + width / 2, inner_hi + depth, hc]),
                Box(lo=[inner_lo - depth, c - width / 2, 0],
                    hi=[inner_lo, c + width / 2, hc]),
                Box(lo=[inner_hi, c - width / 2, 0],
                    hi=[inner_hi + depth, c + width / 2, hc]),
            ]
    return world


def loop_scenario(
    side: float = 110.0,
    speed: float = 8.0,
    seed: int = 0,
    noise: NoiseSpec = None,
    dropouts=(),
) -> Scenario:
    """Closed square loop (four straights and four quarter-turn arcs),
    driven counter-clockwise starting at the origin facing +x."""
    radius = 8.0
    straight = side - 2.0 * radius
    if straight <= 0:
        raise ValueError("side too small for the turn radius")
    w_z = speed / radius
    t_straight = straight / speed
    t_turn = (math.pi / 2.0) / w_z
    # start at rest so gravity alignment sees a static vehicle; the ramp
    # blends smoothly into the first straight
    segments = [(1.0, np.zeros(6))]
    for _ in range(4):
        segments.append((t_straight, [0, 0, 0, speed, 0, 0]))
        segments.append((t_turn, [0, 0, w_z, speed, 0, 0]))
    imus, lidars = _default_rig()
    return Scenario(
        seed=seed,
        segments=segments,
        ramp=0.5,
        world=_loop_world(side),
        imus=imus,
        lidars=lidars,
        gnss_lever=[0.0, 0.0, 2.0],
        rates=Rates(),
        noise=noise if noise is not None else NoiseSpec(),
        dropouts=tuple(dropouts),
    )


def corridor_scenario(
    length: float = 60.0, speed: float = 5.0, seed: int = 0,
    noise: NoiseSpec = None, dropouts=(),
) -> Scenario:
    """Straight drive between two parallel walls (degeneracy stressor)."""
    world = [
        Plane(point=[0, 0, 0], normal=[0, 0, 1]),
        Box(lo=[-10, 4, 0], hi=[length + 10, 4.4, 4.0]),
        Box(lo=[-10, -4.4, 0], hi=[length + 10, -4, 4.0]),
        Box(lo=[length + 6, -4, 0], hi=[length + 6.4, 4, 4.0]),
    ]
    imus, lidars = _default_rig()
    return Scenario(
        seed=seed,
        segments=[(1.0, np.zeros(6)), (length / speed, [0, 0, 0, speed, 0, 0])],
        ramp=0.5,
        world=world,
        imus=imus,
        lidars=lidars,
        gnss_lever=[0.0, 0.0, 2.0],
        noise=noise if noise is not None else NoiseSpec(),
        dropouts=tuple(dropouts),
    )


BUILTIN_SCENARIOS = {
    "urban-loop": loop_scenario,
    "corridor": corridor_scenario,
}
