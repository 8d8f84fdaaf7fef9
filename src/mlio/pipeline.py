"""Offline estimation pipeline.

Replays a dataset by message stamp through synchronization, MIMU
fusion, IMU preintegration, scan deskewing, multi-lidar ICP odometry
and the sliding-window factor graph, producing a keyframe trajectory
plus per-stage counters. The fused IMU is one columnar `FusedImu` from
`fuse_imu_groups` to `write_fused_imu`; every stage indexes its columns.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import lidar
from .dataset import FLOAT_FMT, write_tum
from .geometry import (
    NS_PER_S,
    NavState,
    Pose,
    pose_compose,
    pose_inverse,
    se3_exp,
)
from .graph import (
    DEFAULT_BETWEEN_SIGMA_ROT,
    DEFAULT_BETWEEN_SIGMA_TRANS,
    STATE_DIM,
    BetweenFactor,
    BiasAnchorFactor,
    FactorGraph,
    GnssFix,
    ImuFactor,
    PriorFactor,
)
from .lidar import IcpConfig, deskew, voxel_downsample
from .mimu import BatchFuser, FusedImu, MimuArray
from .preintegration import (
    GravityInit,
    ImuNoiseParams,
    NotStaticError,
    empty_delta,
    gravity_align,
    integrate,
    predict,
)
from .submap import LocalSubmap
from .sync import POSITIONS, SyncConfig, SyncGroups, Synchronizer

GNSS_ASSOCIATION_NS = 50_000_000


class EstimatorDivergence(RuntimeError):
    pass


@dataclass(frozen=True)
class SensorMask:
    """Sensor selection in the L<n>I<n>G<n> notation: the first n
    positions of each modality (order F_L, F_R, R_L, R_R) are enabled."""

    n_lidar: int
    n_imu: int
    n_gnss: int = 0

    def __post_init__(self):
        if not (1 <= self.n_lidar <= 4 and 1 <= self.n_imu <= 4):
            raise ValueError("mask needs 1-4 lidars and 1-4 IMUs")
        if self.n_gnss not in (0, 1):
            raise ValueError("mask supports at most one GNSS receiver")

    @property
    def lidar_positions(self):
        return POSITIONS[: self.n_lidar]

    @property
    def imu_positions(self):
        return POSITIONS[: self.n_imu]

    @property
    def use_gnss(self) -> bool:
        return self.n_gnss > 0

    def __str__(self):
        s = f"L{self.n_lidar}I{self.n_imu}"
        return s + (f"G{self.n_gnss}" if self.n_gnss else "")


def parse_sensor_mask(text: str) -> SensorMask:
    m = re.fullmatch(r"L(\d)I(\d)(?:G(\d))?", text.strip())
    if not m:
        raise ValueError(f"malformed sensor mask {text!r} (expected e.g. L4I4G1)")
    return SensorMask(
        n_lidar=int(m.group(1)),
        n_imu=int(m.group(2)),
        n_gnss=int(m.group(3)) if m.group(3) else 0,
    )


@dataclass
class PipelineConfig:
    sync: SyncConfig = field(default_factory=SyncConfig)
    icp: IcpConfig = field(default_factory=IcpConfig)
    imu_noise: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    keyframe_interval_s: float = 0.5
    window: int = 20
    voxel_resolution: float = 0.05
    map_extent: float = 150.0
    optimize_iters: int = 15
    init_samples: int = 30
    max_sensor_gap_s: float = 2.0
    degenerate_cov_scale: float = 100.0


@dataclass
class RunCounters:
    imu_groups: int = 0
    lidar_groups: int = 0
    fused_samples: int = 0
    keyframes: int = 0
    icp_iterations: int = 0
    icp_degenerate: int = 0
    icp_insufficient: int = 0
    gnss_added: int = 0
    gnss_rejected: int = 0
    gnss_unassociated: int = 0  # fixes no keyframe took (GNSS_ASSOCIATION_NS)
    lm_iterations: int = 0  # accepted LM steps, summed over keyframes
    lm_rejected: int = 0  # LM trials whose cost rose
    lm_unconverged: int = 0  # optimizes that stopped unconverged
    sensors_consumed: dict = field(default_factory=dict)


@dataclass
class RunResult:
    stamps: list  # keyframe ns
    poses: list  # optimized keyframe Pose
    fused: FusedImu
    counters: RunCounters
    mask: SensorMask


# ---------------------------------------------------------------------------
# stage 1: synchronization
# ---------------------------------------------------------------------------


def replay_sync(dataset, mask: SensorMask, config: SyncConfig, counters: RunCounters):
    """Group every enabled message per modality. Returns (imu_groups,
    lidar_groups), each a `SyncGroups` whose streams are the dataset's
    `ImuStream`s and scan lists."""
    sensors = [f"imu/{p}" for p in mask.imu_positions] + [
        f"lidar/{p}" for p in mask.lidar_positions
    ]
    stamps, streams = {}, {}
    for sid in sensors:
        if sid.startswith("imu/"):
            stream = dataset.imu.get(sid)
            if stream is None:
                continue
            stamps[sid] = stream.stamps
        else:
            stream = dataset.lidar.get(sid, [])
            stamps[sid] = [scan.scan_start for scan in stream]
        streams[sid] = stream
        if len(stream):
            counters.sensors_consumed[sid] = len(stream)
    groups = Synchronizer(sensors, config).group(stamps, streams)
    counters.imu_groups = len(groups["imu"])
    counters.lidar_groups = len(groups["lidar"])
    return groups["imu"], groups["lidar"]


# ---------------------------------------------------------------------------
# stage 2: MIMU fusion
# ---------------------------------------------------------------------------


def fuse_imu_groups(groups: SyncGroups, imus: dict, counters: RunCounters = None):
    """Maximum-likelihood fusion of synchronized IMU groups, batched by
    channel subset so each distinct dropout pattern reuses one solver.

    Subsets are fused in the order their pattern first appears; each
    channel's rows are gathered from its stream with one index. Returns
    one `FusedImu`, the subsets' rows stably sorted by stamp."""
    order = [p for p in POSITIONS if p in imus]
    array = MimuArray(tuple(imus[p] for p in order))
    cols = [groups.sensors.index(f"imu/{p}") for p in order]
    members = groups.members[:, cols]
    pattern = (members >= 0) @ (1 << np.arange(len(order)))
    codes, first = np.unique(pattern, return_index=True)
    # an empty first part: without groups the stream still has typed columns
    parts = [(np.zeros(0, np.int64), *np.zeros((3, 0, 3)))]
    for code in codes[np.argsort(first)]:
        rows = np.flatnonzero(pattern == code)
        idx = tuple(i for i in range(len(order)) if code >> i & 1)
        sub = array.subset(idx)
        fuser = BatchFuser(sub)
        Yf = np.empty((len(rows), 3 * sub.K))
        Yw = np.empty((len(rows), 3 * sub.K))
        for c, i in enumerate(idx):
            stream = groups.streams[cols[i]]
            take = members[rows, i]
            R_T = sub.channels[c].R.T
            Yf[:, 3 * c:3 * c + 3] = stream.f[take] @ R_T
            Yw[:, 3 * c:3 * c + 3] = stream.w[take] @ R_T
        parts.append((groups.anchors[rows], *fuser.fuse(Yf, Yw)))
    columns = [np.concatenate(p) for p in zip(*parts)]
    by_stamp = np.argsort(columns[0], kind="stable")
    fused = FusedImu(*(c[by_stamp] for c in columns))
    if counters is not None:
        counters.fused_samples = len(fused)
    return fused


# ---------------------------------------------------------------------------
# stage 3: initialization
# ---------------------------------------------------------------------------


def initialize(fused, gnss, mask: SensorMask, lever, n_samples: int):
    """Anchor pose, initial biases and their prior sigmas.

    Gravity alignment gives roll/pitch; with GNSS the anchor position
    comes from the first fix and the yaw from the early course over
    ground. The course baseline scales with the fix noise so the yaw
    estimate stays usable, and the returned sigmas widen the anchor
    prior to match what the initialization actually knows."""
    yaw = 0.0
    t0 = np.zeros(3)
    yaw_sigma = 0.01
    pos_sigma = 0.05
    if mask.use_gnss and len(gnss) >= 2:
        first = gnss[0]
        fix_sigma = float(np.sqrt(np.trace(first.cov) / 3.0))
        pos_sigma = max(pos_sigma, fix_sigma)
        baseline = max(2.0, 20.0 * fix_sigma)
        for fix in gnss[1:]:
            d = fix.t - first.t
            if np.linalg.norm(d[:2]) >= baseline:
                yaw = float(np.arctan2(d[1], d[0]))
                yaw_sigma = max(
                    yaw_sigma, math.sqrt(2.0) * fix_sigma / baseline
                )
                break
        t0 = first.t  # refined below once attitude is known
    try:
        init = gravity_align(fused.f[:n_samples], fused.w[:n_samples], t0, yaw)
    except NotStaticError:
        # accelerating start: fall back to a level attitude, zero biases
        init = GravityInit(roll=0.0, pitch=0.0, yaw=yaw, t0=t0,
                           b_a0=np.zeros(3), b_g0=np.zeros(3))
    anchor = init.pose()
    if mask.use_gnss and len(gnss) >= 1:
        anchor = Pose(anchor.R, gnss[0].t - anchor.R @ np.asarray(lever, float))
    return anchor, init, yaw_sigma, pos_sigma


# ---------------------------------------------------------------------------
# stage 4: odometry + smoothing replay
# ---------------------------------------------------------------------------


class _Propagator:
    """IMU-mechanized pose prediction between keyframes; records the
    preintegrated delta at every fused sample stamp, from which
    `pose_at` predicts the poses that deskewing asks for.

    `w` is the body rate at the keyframe (bias-corrected gyro), which
    the smoothed state does not carry."""

    def __init__(self, state: NavState, noise: ImuNoiseParams,
                 w=np.zeros(3)):
        self.reset(state, w)
        self.noise = noise

    def reset(self, state: NavState, w):
        self.state = state
        self.w = w
        self.delta = empty_delta(b_a0=state.b_a, b_g0=state.b_g)
        self.track = [(0, None)]  # (stamp, delta; None at the keyframe)
        self.last_stamp = None
        self.last_f = self.last_w = None

    def advance(self, stamp: int, f, w):
        if self.last_stamp is None:
            self.track = [(stamp, None)]
        else:
            dt = (stamp - self.last_stamp) / NS_PER_S
            if dt <= 0:
                return
            # trapezoidal hold: integrate the interval-average measurement
            f_mid = 0.5 * (self.last_f + f)
            w_mid = 0.5 * (self.last_w + w)
            # integrate() takes steps below 0.1 s; a longer gap is held
            # over equal sub-steps so it counts at its full length
            steps = math.ceil(dt / 0.099)
            for _ in range(steps):
                self.delta = integrate(self.delta, f_mid, w_mid, dt / steps, self.noise)
            self.track.append((stamp, self.delta))
        self.last_stamp = stamp
        self.last_f, self.last_w = f, w

    def predicted(self) -> NavState:
        return predict(self.state, self.delta)

    def pose_at(self, stamp: int, v) -> Pose:
        """Predicted base pose at `stamp`.

        Stamps inside the track extrapolate from the last recorded
        sample at or before them with the latest rate and the velocity
        `v` of the current prediction, `predicted().v`, which the
        caller takes once per keyframe.
        Stamps before the keyframe (scans that started before it) are
        extrapolated backwards from the keyframe pose with the keyframe
        state's own velocity and body rate: the current prediction
        can be up to a keyframe interval later and, in a turn, points
        elsewhere."""
        stamps = [t for t, _ in self.track]
        k = int(np.searchsorted(stamps, stamp, side="right")) - 1
        t_k, delta = self.track[max(k, 0)]
        pose = self.state.pose if delta is None else predict(self.state, delta).pose
        if k < 0:
            w, v = self.w, self.state.v
        elif self.last_w is None:
            return pose
        else:
            w = self.last_w - self.state.b_g
        rem = (stamp - t_k) / NS_PER_S
        if abs(rem) < 1e-12:
            return pose
        v_body = pose.R.T @ v
        return pose_compose(pose, se3_exp(np.concatenate([w, v_body]) * rem))


def run_pipeline(dataset, mask: SensorMask, config: PipelineConfig = None):
    """Full replay: returns a RunResult with the optimized keyframe
    trajectory."""
    config = config or PipelineConfig()
    counters = RunCounters()
    imus = {p: dataset.scenario.imus[p] for p in mask.imu_positions}
    mounts = {
        f"lidar/{p}": dataset.scenario.lidars[p].pose
        for p in mask.lidar_positions
    }
    gnss = list(dataset.gnss) if mask.use_gnss else []

    imu_groups, lidar_groups = replay_sync(dataset, mask, config.sync, counters)
    fused = fuse_imu_groups(imu_groups, imus, counters)
    if len(fused) < config.init_samples + 2:
        raise EstimatorDivergence("not enough fused IMU data to initialize")
    anchor, init, yaw_sigma, pos_sigma = initialize(
        fused, gnss, mask, dataset.scenario.gnss_lever, config.init_samples
    )

    state = NavState(pose=anchor, b_a=init.b_a0, b_g=init.b_g0)
    graph = FactorGraph()
    graph.add_node(0, state)
    prior_cov = np.diag(
        [0.01**2, 0.01**2, yaw_sigma**2] + [pos_sigma**2] * 3 + [0.1**2] * 3
        + [0.005**2] * 3 + [0.0005**2] * 3
    )
    graph.add_factor(PriorFactor(0, anchor, init.b_a0, init.b_g0, prior_cov))

    submap = LocalSubmap(config.voxel_resolution, config.map_extent)
    est_poses = {0: state.pose}
    stamps = fused.stamps.tolist()
    est_stamps = {0: stamps[0]}
    interval_ns = int(round(config.keyframe_interval_s * NS_PER_S))
    kf_bound = stamps[0] + interval_ns
    prop = _Propagator(state, config.imu_noise)
    prop.advance(stamps[0], fused.f[0], fused.w[0])
    gnss_idx = 0
    pending_scans = []
    lidar_iter = iter(lidar_groups.messages())
    next_lidar = next(lidar_iter, None)
    node = 0
    last_fused_stamp = stamps[0]
    for stamp, f, w in zip(stamps[1:], fused.f[1:], fused.w[1:]):
        gap = (stamp - last_fused_stamp) / NS_PER_S
        if gap > config.max_sensor_gap_s:
            raise EstimatorDivergence(
                f"inertial blackout: no fused IMU data for {gap:.1f} s "
                f"after t={last_fused_stamp / NS_PER_S:.1f} s"
            )
        last_fused_stamp = stamp
        prop.advance(stamp, f, w)
        # collect lidar groups whose scans have fully ended
        while next_lidar is not None and max(
            scan.scan_end for scan in next_lidar
        ) <= stamp:
            pending_scans.extend(next_lidar)
            next_lidar = next(lidar_iter, None)
        if stamp < kf_bound:
            continue
        # ---- keyframe ----
        node += 1
        kf_stamp = stamp
        kf_bound = kf_stamp + interval_ns
        pred = prop.predicted()
        w_kf = w - state.b_g
        # deskew + fuse accumulated scans into the predicted keyframe frame
        cloud = None
        if pending_scans:
            parts = []
            for scan in pending_scans:
                mount = mounts[scan.sensor_id]
                S0 = pose_compose(prop.pose_at(scan.scan_start, pred.v), mount)
                S1 = pose_compose(prop.pose_at(scan.scan_end, pred.v), mount)
                flat = deskew(scan, S0, S1)
                base_rel = pose_compose(pose_inverse(pred.pose), S0)
                parts.append(base_rel.apply(flat.points))
            cloud = voxel_downsample(
                np.concatenate(parts, axis=0), config.voxel_resolution
            )
            pending_scans = []
        if node == 1 and cloud is not None:
            submap.insert(pred.pose.apply(cloud))
        # ---- ICP odometry ----
        icp_pose = pred.pose
        degenerate = False
        have_odom = False
        if cloud is not None and len(submap) > 0 and node > 1:
            est = lidar.icp_register(cloud, submap, pred.pose, config.icp)
            counters.icp_iterations += est.iterations
            if est.insufficient_overlap:
                counters.icp_insufficient += 1
            else:
                icp_pose = est.pose
                # a result that ran out of iterations is no better
                # constrained than a degenerate one
                degenerate = est.degenerate or not est.converged
                have_odom = True
                if est.degenerate:
                    counters.icp_degenerate += 1
        # ---- graph update ----
        x_new = NavState(pose=icp_pose, v=pred.v, b_a=pred.b_a, b_g=pred.b_g)
        graph.add_node(node, x_new)
        graph.add_factor(ImuFactor(node - 1, node, prop.delta, config.imu_noise))
        graph.add_factor(BiasAnchorFactor(node, init.b_a0, init.b_g0))
        if have_odom:
            # z is relative to the smoothed pose of node - 1, which the
            # ICP prior and the map were built from
            z = pose_compose(pose_inverse(state.pose), icp_pose)
            cov = None
            if degenerate:
                cov = np.diag([DEFAULT_BETWEEN_SIGMA_ROT**2] * 3
                              + [DEFAULT_BETWEEN_SIGMA_TRANS**2] * 3)
                cov = cov * config.degenerate_cov_scale
            graph.add_factor(BetweenFactor(node - 1, node, z, cov))
        # ---- GNSS ----
        while gnss_idx < len(gnss) and gnss[gnss_idx].stamp < kf_stamp - GNSS_ASSOCIATION_NS:
            gnss_idx += 1
            counters.gnss_unassociated += 1
        if (
            gnss_idx < len(gnss)
            and abs(gnss[gnss_idx].stamp - kf_stamp) <= GNSS_ASSOCIATION_NS
        ):
            fix = gnss[gnss_idx]
            lever = np.asarray(dataset.scenario.gnss_lever, dtype=float)
            base_fix = GnssFix(
                stamp=fix.stamp, t=fix.t - x_new.pose.R @ lever, cov=fix.cov
            )
            est_cov = graph_position_covariance(graph, node)
            if graph.maybe_add_gnss(node, est_cov, base_fix):
                counters.gnss_added += 1
            else:
                counters.gnss_rejected += 1
            gnss_idx += 1
        # ---- optimize / marginalize ----
        report = graph.optimize(max_iter=config.optimize_iters)
        if not np.isfinite(report.final_cost):
            raise EstimatorDivergence(
                f"non-finite cost at keyframe {node}: {report}"
            )
        counters.lm_iterations += report.iterations
        counters.lm_rejected += report.rejected
        counters.lm_unconverged += int(not report.converged)
        while len(graph.nodes) > config.window:
            oldest = min(graph.nodes)
            est_poses[oldest] = graph.nodes[oldest].pose
            graph.marginalize_oldest()
        for k in graph.nodes:
            est_poses[k] = graph.nodes[k].pose
        est_stamps[node] = kf_stamp
        state = graph.nodes[node]
        if cloud is not None:
            lidar.map_update(submap, state.pose.apply(cloud), state.pose)
        prop.reset(state, w_kf)
        prop.advance(stamp, f, w)
        counters.keyframes += 1

    counters.gnss_unassociated += len(gnss) - gnss_idx
    order = sorted(est_poses)
    return RunResult(
        stamps=[est_stamps[k] for k in order],
        poses=[est_poses[k] for k in order],
        fused=fused,
        counters=counters,
        mask=mask,
    )


def graph_position_covariance(graph: FactorGraph, idx: int) -> np.ndarray:
    """Marginal position covariance of a node from the current
    linearization. The 1e-9 ridge keeps H factorable for graphs whose
    nodes lack IMU factors, where velocity and biases are unconstrained
    (e.g. a chain of between factors only)."""
    order = sorted(graph.nodes)
    H, _, _ = graph.normal_equations(graph.nodes, order)
    H[np.diag_indices_from(H)] += 1e-9
    k = order.index(idx) * STATE_DIM + 3
    unit = np.zeros((len(H), 3))
    unit[k:k + 3] = np.eye(3)
    # the three position columns of H^-1
    return cho_solve(cho_factor(H), unit)[k:k + 3]


def write_fused_imu(path, fused: FusedImu) -> None:
    """Fused-IMU CSV: one 't_ns, f, w, w_dot' line per sample (stamps
    go through float64, as in the dataset CSVs: exact below 2^53 ns)."""
    np.savetxt(path, np.column_stack([fused.stamps, fused.f, fused.w, fused.w_dot]),
               fmt=["%d"] + [FLOAT_FMT] * 9, delimiter=",", comments="",
               header="t_ns,fx,fy,fz,wx,wy,wz,wdx,wdy,wdz")


def write_run_outputs(out_dir, result: RunResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_tum(os.path.join(out_dir, "est.tum"), result.stamps, result.poses)
    write_fused_imu(os.path.join(out_dir, "fused_imu.csv"), result.fused)
    c = result.counters
    with open(os.path.join(out_dir, "counters.txt"), "w") as fh:
        fh.write(f"mask: {result.mask}\n")
        for f in fields(RunCounters):
            if f.name != "sensors_consumed":
                fh.write(f"{f.name}: {getattr(c, f.name)}\n")
        for sid in sorted(c.sensors_consumed):
            fh.write(f"consumed {sid}: {c.sensors_consumed[sid]}\n")
