"""On-disk dataset format.

A dataset directory contains per-IMU CSVs, a GNSS CSV, per-lidar scan
directories, the ground-truth trajectory in TUM format and a copy of
the generating scenario:

    imu_<id>.csv          t_ns, fx, fy, fz, wx, wy, wz
    gnss.csv              t_ns, x, y, z, var
    scans/<id>/<n>.csv    header 'sensor_id,start,end' then t_offset_ns, x, y, z
    gt.tum                t x y z qx qy qz qw
    scenario.yaml         scenario copy

Each IMU CSV and the GNSS CSV are read with one structured `loadtxt`;
their ns stamps are read and written as ints, exact at any size. gt.tum
is read only when a `Dataset`'s ground truth is first asked for; a
replay never reads it. The TUM trajectory format (gt.tum here, a run's
est.tum) is read and written by this module alone; it holds seconds,
written and read as decimals, so ns stamps are exact there too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property

import numpy as np

from .geometry import NS_PER_S, Pose, quat_from_rotmat, quat_to_rotmat
from .graph import GnssFix
from .lidar import LidarScan
from .mimu import ImuStream
from .sim import Scenario, SimData, load_scenario, save_scenario

FLOAT_FMT = "%.9e"


def _write_stamped_csv(path, stamps, values, header="") -> None:
    """A 't_ns,v0,v1,...' line per row, the stamps formatted as ints."""
    line = ",".join(["%d"] + [FLOAT_FMT] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(line % (t, *v) for t, v in
                      zip(np.asarray(stamps, np.int64).tolist(), values.tolist()))


def write_dataset(path, sim: SimData) -> None:
    os.makedirs(path, exist_ok=True)
    for sid, stream in sim.imu.items():
        _write_stamped_csv(os.path.join(path, f"imu_{sid.split('/')[1]}.csv"),
                           stream.stamps, np.hstack([stream.f, stream.w]))
    _write_stamped_csv(
        os.path.join(path, "gnss.csv"),
        [f.stamp for f in sim.gnss],
        np.array([[*f.t, f.cov[0, 0]] for f in sim.gnss], dtype=float).reshape(-1, 4),
    )
    for sid, scans in sim.lidar.items():
        scan_dir = os.path.join(path, "scans", sid.split("/")[1])
        os.makedirs(scan_dir, exist_ok=True)
        for n, scan in enumerate(scans):
            _write_stamped_csv(
                os.path.join(scan_dir, f"{n:06d}.csv"),
                scan.stamps - scan.scan_start, scan.points,
                header=f"{scan.sensor_id},{scan.scan_start},{scan.scan_end}\n")
    write_tum(os.path.join(path, "gt.tum"), sim.gt.stamps, sim.gt.poses)
    save_scenario(os.path.join(path, "scenario.yaml"), sim.scenario)


def read_scan_file(path) -> LidarScan:
    with open(path) as fh:
        sensor_id, start, end = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",").reshape(-1, 4)
    start, end = int(start), int(end)
    return LidarScan(
        sensor_id=sensor_id,
        scan_start=start,
        scan_end=end,
        stamps=rows[:, 0].astype(np.int64) + start,
        points=rows[:, 1:4],
    )


@dataclass(frozen=True)
class Dataset:
    """A loaded dataset directory. The ground truth is read from gt.tum
    when first asked for, so a directory without it replays."""

    path: str
    scenario: Scenario
    imu: dict  # 'imu/<pos>' -> ImuStream
    lidar: dict  # 'lidar/<pos>' -> [LidarScan]
    gnss: list  # [GnssFix]

    @cached_property
    def _gt(self):
        return load_tum(os.path.join(self.path, "gt.tum"))

    @property
    def gt_stamps(self) -> np.ndarray:
        return self._gt[0]

    @property
    def gt_poses(self) -> tuple:
        return self._gt[1]


def format_tum_line(stamp_ns: int, pose: Pose) -> str:
    """'t x y z qx qy qz qw'; t is the ns stamp in seconds, digit for
    digit, so it is exact at any size."""
    q = quat_from_rotmat(pose.R)  # (w, x, y, z)
    s = int(stamp_ns)
    sec, ns = divmod(abs(s), NS_PER_S)
    vals = [*pose.t, q[1], q[2], q[3], q[0]]
    return " ".join([f"{'-' if s < 0 else ''}{sec}.{ns:09d}",
                     *(f"{v:.9f}" for v in vals)])


def write_tum(path, stamps, poses) -> None:
    """Trajectory file: one 't x y z qx qy qz qw' line per pose."""
    with open(path, "w") as fh:
        for s, p in zip(stamps, poses):
            fh.write(format_tum_line(s, p) + "\n")


def load_tum(path):
    """(stamps, poses) of a TUM file; the stamps are parsed as decimals,
    so they are exact to the nanosecond at any size."""
    fields = np.loadtxt(path, dtype=str, ndmin=2).reshape(-1, 8)
    rows = fields[:, 1:].astype(float)
    stamps = np.array(
        [int((Decimal(t) * NS_PER_S).to_integral_value()) for t in fields[:, 0]],
        dtype=np.int64,
    )
    poses = tuple(
        Pose(quat_to_rotmat([r[6], r[3], r[4], r[5]]), r[0:3]) for r in rows
    )
    return stamps, poses


def load_dataset(path) -> Dataset:
    scenario = load_scenario(os.path.join(path, "scenario.yaml"))
    imu = {}
    for entry in sorted(os.listdir(path)):
        if entry.startswith("imu_") and entry.endswith(".csv"):
            pos = entry[len("imu_"):-len(".csv")]
            sid = f"imu/{pos}"
            rows = np.loadtxt(os.path.join(path, entry), delimiter=",", ndmin=1,
                              dtype=[("t", np.int64), ("f", float, 3), ("w", float, 3)])
            imu[sid] = ImuStream(rows["t"], rows["f"], rows["w"], sid)
    gnss = []
    gnss_path = os.path.join(path, "gnss.csv")
    if os.path.exists(gnss_path):
        rows = np.loadtxt(gnss_path, delimiter=",", ndmin=1,
                          dtype=[("t", np.int64), ("p", float, 3), ("var", float)])
        gnss = [GnssFix(stamp=t, t=p, cov=np.eye(3) * max(var, 1e-12))
                for t, p, var in zip(rows["t"].tolist(), rows["p"], rows["var"].tolist())]
    lidar = {}
    scans_root = os.path.join(path, "scans")
    if os.path.isdir(scans_root):
        for pos in sorted(os.listdir(scans_root)):
            files = sorted(os.listdir(os.path.join(scans_root, pos)))
            lidar[f"lidar/{pos}"] = [
                read_scan_file(os.path.join(scans_root, pos, f)) for f in files
            ]
    return Dataset(
        path=str(path), scenario=scenario, imu=imu, lidar=lidar, gnss=gnss
    )
