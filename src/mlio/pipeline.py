"""Offline estimation pipeline.

Synchronizes and fuses a dataset's IMUs, takes the anchor `NavState`
and its prior from `initialize`, fixes the keyframe schedule (from the
fused stamps and the lidar scan ends) and each keyframe's GNSS fix up
front, then runs one `_keyframe_step` per keyframe: IMU preintegration
of the interval's fused rows and the prediction of the states at them,
one call each, the deskewing of all its scans in one call, multi-lidar
ICP odometry and the sliding-window factor graph, whose between factor
takes the ICP estimate's own covariance.
Each step returns a `KeyframeRecord`, and the run's counters are summed
from them. The fused IMU is one columnar `FusedImu` from
`fuse_imu_groups` to `write_fused_imu`, and the preintegrated deltas
one block per interval; every stage indexes their rows.
"""

from __future__ import annotations

import bisect
import math
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import lidar
from .dataset import _write_stamped_csv, write_tum
from .geometry import (
    NS_PER_S,
    NavState,
    Pose,
    pose_compose,
    pose_inverse,
    se3_exp,
)
from .graph import (
    BetweenFactor,
    BiasAnchorFactor,
    FactorGraph,
    GnssStream,
    ImuFactor,
    OptimizeReport,
    PriorFactor,
    graph_position_covariance,
)
from .lidar import IcpConfig, deskew, voxel_downsample
from .mimu import BatchFuser, FusedImu, MimuArray
from .preintegration import (
    MAX_STEP_S,
    ImuNoiseParams,
    NotStaticError,
    PreintegratedDelta,
    gravity_align,
    integrate,
    predict,
    rotation_rpy,
)
from .submap import LocalSubmap
from .sync import POSITIONS, SyncConfig, SyncGroups, Synchronizer

GNSS_ASSOCIATION_NS = 50_000_000
UNKNOWN_YAW_SIGMA = math.pi / math.sqrt(3.0)  # rad, a heading uniform on the circle


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
    # cloud and map voxel, m: 5-point plane hoods span ~0.4 m against 1 cm lidar noise
    voxel_resolution: float = 0.2
    map_extent: float = 150.0
    optimize_iters: int = 15
    init_samples: int = 30
    max_sensor_gap_s: float = 2.0


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


def initialize(fused, gnss: GnssStream, mask: SensorMask, lever, n_samples: int):
    """The anchor state x0 (at rest) and the covariance of its prior.

    Gravity alignment gives roll/pitch and the biases; with GNSS the
    anchor position comes from the first fix and the yaw from the early
    course over ground. The course baseline scales with the fix noise so
    the yaw estimate stays usable, and the prior's yaw and position
    sigmas widen to match what the initialization actually knows. With
    GNSS but no fix at the baseline from the first, the world frame is
    the fixes' and the heading in it unknown: the yaw stays 0 with the
    sigma of a heading uniform on the circle."""
    yaw = 0.0
    yaw_sigma = 0.01
    pos_sigma = 0.05
    fixed = mask.use_gnss and len(gnss) >= 1
    if fixed:
        fix_sigma = float(np.sqrt(np.trace(gnss.cov(0)) / 3.0))
        pos_sigma = max(pos_sigma, fix_sigma)
        baseline = max(2.0, 20.0 * fix_sigma)
        d = gnss.t[1:] - gnss.t[0]
        far = np.flatnonzero(np.linalg.norm(d[:, :2], axis=1) >= baseline)
        if len(far):
            yaw = float(np.arctan2(d[far[0], 1], d[far[0], 0]))
            yaw_sigma = max(yaw_sigma, math.sqrt(2.0) * fix_sigma / baseline)
        else:
            yaw_sigma = UNKNOWN_YAW_SIGMA
    try:
        R, b_a0, b_g0 = gravity_align(fused.f[:n_samples], fused.w[:n_samples], yaw)
    except NotStaticError:
        # accelerating start: fall back to a level attitude, zero biases
        R, b_a0, b_g0 = rotation_rpy(0.0, 0.0, yaw), np.zeros(3), np.zeros(3)
    t = gnss.t[0] - R @ np.asarray(lever, float) if fixed else np.zeros(3)
    prior_cov = np.diag(
        [0.01**2, 0.01**2, yaw_sigma**2] + [pos_sigma**2] * 3 + [0.1**2] * 3
        + [0.005**2] * 3 + [0.0005**2] * 3
    )
    return NavState(pose=Pose(R, t), b_a=b_a0, b_g=b_g0), prior_cov


# ---------------------------------------------------------------------------
# stage 4: odometry + smoothing replay
# ---------------------------------------------------------------------------


class _Interval:
    """IMU-mechanized prediction over one keyframe interval, from the
    smoothed `state` of the keyframe that opens it, that keyframe's body
    rate `w0` (bias-corrected gyro, which the state does not carry) and
    the fused rows from the keyframe's own sample to the next keyframe's
    (`stamps`, `f`, `w`). A row whose stamp repeats the one before it is
    skipped. One `integrate` call gives the delta at every sub-step
    boundary, empty at the keyframe's own stamp; `track` holds the state
    predicted at each kept stamp from the row at that stamp (so the
    first is `state`); `delta` is a copy of the last row, the interval's
    delta, and `pred` the state it predicts at the next keyframe;
    `pose_at` predicts the poses that deskewing asks for."""

    def __init__(self, state: NavState, w0, stamps, f, w, noise: ImuNoiseParams):
        keep = np.r_[True, np.diff(stamps) > 0]
        stamps, f, w = stamps[keep], f[keep], w[keep]
        self.state, self.w0 = state, w0
        self.stamps = stamps.tolist()  # strictly increasing
        self.w = w[-1] - state.b_g  # body rate at the last sample
        dt = np.diff(stamps) / NS_PER_S
        # trapezoidal hold: integrate the interval-average measurement
        f_mid, w_mid = 0.5 * (f[:-1] + f[1:]), 0.5 * (w[:-1] + w[1:])
        # integrate() takes steps below MAX_STEP_S; a longer gap is
        # held over equal sub-steps (repeated rows) so it counts at
        # its full length
        steps = np.ceil(dt / (0.99 * MAX_STEP_S)).astype(np.int64)
        block = integrate(PreintegratedDelta(b_a0=state.b_a, b_g0=state.b_g),
                          np.repeat(f_mid, steps, axis=0),
                          np.repeat(w_mid, steps, axis=0),
                          np.repeat(dt / steps, steps), noise)
        self.delta = block.take(-1)
        self.track = predict(state, block.take(np.r_[0, np.cumsum(steps)]))
        self.pred = self.track[-1]

    def pose_at(self, stamp: int) -> Pose:
        """Predicted base pose at `stamp`.

        Stamps inside the interval extrapolate from the last sample at
        or before them with the latest body rate and the predicted
        velocity `pred.v`. Stamps before the keyframe (scans that
        started before it) are extrapolated backwards from the keyframe
        pose with the keyframe state's own velocity and body rate: the
        prediction is up to a keyframe interval later and, in a turn,
        points elsewhere."""
        k = bisect.bisect_right(self.stamps, stamp) - 1
        pose = self.track[max(k, 0)].pose
        w, v = (self.w0, self.state.v) if k < 0 else (self.w, self.pred.v)
        rem = (stamp - self.stamps[max(k, 0)]) / NS_PER_S
        if abs(rem) < 1e-12:
            return pose
        v_body = pose.R.T @ v
        return pose_compose(pose, se3_exp(np.concatenate([w, v_body]) * rem))


def _keyframe_schedule(stamps: np.ndarray, interval_ns: int, scan_ends):
    """Keyframe rows of the fused `stamps`, and `taken`: keyframe n
    deskews the lidar groups `taken[n - 1]:taken[n]`. Row 0 is the first
    keyframe; each next one is the first sample at least `interval_ns`
    after the last, and a later row even if the interval is <= 0. The
    groups queue in anchor order: each goes to the first keyframe after
    row 0 at or after its own scan end and every earlier group's."""
    rows = [0]
    while True:
        bound = stamps[rows[-1]] + interval_ns
        row = max(int(np.searchsorted(stamps, bound, side="left")), rows[-1] + 1)
        if row == len(stamps):
            break
        rows.append(row)
    due = np.maximum.accumulate(np.asarray(scan_ends, dtype=np.int64))
    taken = np.searchsorted(due, stamps[rows], side="right")
    taken[0] = 0
    return rows, taken


def _gnss_schedule(gnss: GnssStream, stamps):
    """The row of `gnss` each keyframe stamp takes, or None. Fixes are
    walked in order: those more than GNSS_ASSOCIATION_NS before the
    keyframe are passed over for good, and the next one is taken if it
    is at most that far after it."""
    fixes = gnss.stamps.tolist()
    taken, i = [], 0
    for stamp in stamps:
        while i < len(fixes) and fixes[i] < stamp - GNSS_ASSOCIATION_NS:
            i += 1
        near = i < len(fixes) and abs(fixes[i] - stamp) <= GNSS_ASSOCIATION_NS
        taken.append(i if near else None)
        i += near
    return taken


@dataclass(frozen=True)
class KeyframeRecord:
    """What one keyframe step did: the ICP estimate (None when ICP did
    not run), the GNSS gate decision (None when no fix was associated)
    and the smoother's report."""

    icp: lidar.OdomEstimate | None
    gnss: bool | None
    report: OptimizeReport


def _keyframe_step(graph: FactorGraph, submap: LocalSubmap, node: int,
                   interval: _Interval, scans, gnss: GnssStream, fix, scenario,
                   x0: NavState, config: PipelineConfig) -> KeyframeRecord:
    """One keyframe: deskew its `scans` into the frame that `interval`
    predicts, register the cloud against `submap`, add node `node` with
    its IMU, bias-anchor, lidar and GNSS (row `fix` of `gnss`, or None)
    factors (the bias anchor at the biases of the anchor state `x0`),
    optimize, and insert the cloud into the map at the smoothed
    pose. That insert is the only one, so every cloud enters the map
    once; the map is empty at keyframe 1, whose cloud is not registered."""
    pred = interval.pred
    cloud = None
    if scans:
        # the sensors scan in step, so their scans share a few stamps
        bounds = {stamp for scan in scans for stamp in (scan.scan_start, scan.scan_end)}
        poses = {stamp: interval.pose_at(stamp) for stamp in bounds}
        starts, ends = [], []
        for scan in scans:
            mount = scenario.lidars[scan.sensor_id.split("/")[1]].pose
            starts.append(pose_compose(poses[scan.scan_start], mount))
            ends.append(pose_compose(poses[scan.scan_end], mount))
        # every scan of the keyframe in one call, each then moved from its
        # start frame into the frame `pred` predicts
        flat = deskew(scans, starts, ends)
        cuts = np.cumsum([0] + [len(scan.stamps) for scan in scans])
        pred_inv = pose_inverse(pred.pose)
        parts = [pose_compose(pred_inv, S0).apply(flat[a:b])
                 for S0, a, b in zip(starts, cuts, cuts[1:])]
        cloud = voxel_downsample(
            np.concatenate(parts, axis=0), config.voxel_resolution
        )
    # ---- ICP odometry ----
    est = None
    if cloud is not None and len(submap) > 0:
        est = lidar.icp_register(cloud, submap, pred.pose, config.icp)
    odom = est is not None and not est.insufficient_overlap
    # ---- graph update ----
    x_new = NavState(pose=est.pose if odom else pred.pose, v=pred.v,
                     b_a=pred.b_a, b_g=pred.b_g)
    graph.add_node(node, x_new)
    graph.add_factor(ImuFactor(node - 1, node, interval.delta, config.imu_noise))
    graph.add_factor(BiasAnchorFactor(node, x0.b_a, x0.b_g))
    if odom:
        # z is relative to the smoothed pose of node - 1, which the ICP
        # prior and the map were built from; the registration states its
        # own uncertainty
        z = pose_compose(pose_inverse(interval.state.pose), est.pose)
        graph.add_factor(BetweenFactor(node - 1, node, z, est.covariance))
    # ---- GNSS ----
    added = None
    if fix is not None:
        # the fix at the base origin
        t = gnss.t[fix] - x_new.pose.R @ np.asarray(scenario.gnss_lever, dtype=float)
        est_cov = graph_position_covariance(graph, node)
        added = graph.maybe_add_gnss(node, est_cov, t, gnss.cov(fix))
    # ---- optimize ----
    report = graph.optimize(max_iter=config.optimize_iters)
    if not np.isfinite(report.final_cost):
        raise EstimatorDivergence(f"non-finite cost at keyframe {node}: {report}")
    if cloud is not None:
        pose = graph.nodes[node].pose
        lidar.map_update(submap, pose.apply(cloud), pose)
    return KeyframeRecord(est, added, report)


def run_pipeline(dataset, mask: SensorMask, config: PipelineConfig = None):
    """Full replay: returns a RunResult with the optimized keyframe
    trajectory."""
    config = config or PipelineConfig()
    counters = RunCounters()
    imus = {p: dataset.scenario.imus[p] for p in mask.imu_positions}
    gnss = dataset.gnss if mask.use_gnss else GnssStream([], [], [])

    imu_groups, lidar_groups = replay_sync(dataset, mask, config.sync, counters)
    fused = fuse_imu_groups(imu_groups, imus, counters)
    if len(fused) < config.init_samples + 2:
        raise EstimatorDivergence("not enough fused IMU data to initialize")
    gaps = np.diff(fused.stamps) / NS_PER_S
    over = np.flatnonzero(gaps > config.max_sensor_gap_s)
    if len(over):
        i = over[0]
        raise EstimatorDivergence(
            f"inertial blackout: no fused IMU data for {gaps[i]:.1f} s "
            f"after t={int(fused.stamps[i]) / NS_PER_S:.1f} s"
        )
    x0, prior_cov = initialize(
        fused, gnss, mask, dataset.scenario.gnss_lever, config.init_samples
    )

    scans = lidar_groups.messages()
    rows, taken = _keyframe_schedule(
        fused.stamps, int(round(config.keyframe_interval_s * NS_PER_S)),
        [max(scan.scan_end for scan in group) for group in scans])
    stamps = fused.stamps[rows].tolist()
    fixes = _gnss_schedule(gnss, stamps[1:])

    graph = FactorGraph()
    graph.add_node(0, x0)
    graph.add_factor(PriorFactor(0, x0.pose, x0.b_a, x0.b_g, prior_cov))

    submap = LocalSubmap(config.voxel_resolution, config.map_extent)
    poses, records = [], []  # marginalized keyframe poses, oldest first
    w = np.zeros(3)  # the anchor's body rate is not known
    for node, (prev, row) in enumerate(zip(rows, rows[1:]), 1):
        state = graph.nodes[node - 1]
        block = slice(prev, row + 1)
        interval = _Interval(state, w, fused.stamps[block], fused.f[block],
                             fused.w[block], config.imu_noise)
        w = fused.w[row] - state.b_g
        batch = [scan for group in scans[taken[node - 1]:taken[node]] for scan in group]
        records.append(_keyframe_step(graph, submap, node, interval, batch,
                                      gnss, fixes[node - 1], dataset.scenario, x0,
                                      config))
        while len(graph.nodes) > config.window:
            poses.append(graph.nodes[min(graph.nodes)].pose)
            graph.marginalize_oldest()

    icps = [r.icp for r in records if r.icp is not None]
    gates = [r.gnss for r in records if r.gnss is not None]
    reports = [r.report for r in records]
    counters.keyframes = len(records)
    counters.icp_iterations = sum(e.iterations for e in icps)
    counters.icp_insufficient = sum(e.insufficient_overlap for e in icps)
    counters.icp_degenerate = sum(e.degenerate and not e.insufficient_overlap
                                  for e in icps)
    counters.gnss_added = sum(gates)
    counters.gnss_rejected = len(gates) - counters.gnss_added
    counters.gnss_unassociated = (len(gnss) - counters.gnss_added
                                  - counters.gnss_rejected)
    counters.lm_iterations = sum(r.iterations for r in reports)
    counters.lm_rejected = sum(r.rejected for r in reports)
    counters.lm_unconverged = sum(not r.converged for r in reports)
    return RunResult(
        stamps=stamps,
        poses=poses + [graph.nodes[k].pose for k in sorted(graph.nodes)],
        fused=fused,
        counters=counters,
        mask=mask,
    )


def write_fused_imu(path, fused: FusedImu) -> None:
    """Fused-IMU CSV: one 't_ns, f, w, w_dot' line per sample."""
    _write_stamped_csv(path, fused.stamps, np.hstack([fused.f, fused.w, fused.w_dot]),
                       header="t_ns,fx,fy,fz,wx,wy,wz,wdx,wdy,wdz\n")


def write_run_outputs(out_dir, result: RunResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_tum(os.path.join(out_dir, "est.tum"), result.stamps,
              [p.R for p in result.poses], [p.t for p in result.poses])
    write_fused_imu(os.path.join(out_dir, "fused_imu.csv"), result.fused)
    c = result.counters
    with open(os.path.join(out_dir, "counters.txt"), "w") as fh:
        fh.write(f"mask: {result.mask}\n")
        for f in fields(RunCounters):
            if f.name != "sensors_consumed":
                fh.write(f"{f.name}: {getattr(c, f.name)}\n")
        for sid in sorted(c.sensors_consumed):
            fh.write(f"consumed {sid}: {c.sensors_consumed[sid]}\n")
