"""On-disk dataset format.

A dataset directory contains one store directory per IMU and per lidar,
a GNSS CSV, the ground-truth trajectory in TUM format and a copy of the
generating scenario:

    imu/<pos>/            stamps.npy  (N,) int64: each sample's stamp (ns)
                          f.npy       (N, 3) float64: specific force, sensor frame (m/s^2)
                          w.npy       (N, 3) float64: angular rate, sensor frame (rad/s)
    scans/<pos>/          bounds.npy  (S, 3) int64: scan start, end (ns), point count
                          stamps.npy  (N,) int64: each point's stamp (ns)
                          points.npy  (N, 3) float64: each point, sensor frame (m)
    gnss.csv              t_ns, x, y, z, var
    gt.tum                t x y z qx qy qz qw
    scenario.yaml         scenario copy

A store's arrays are written by `np.save` (the same samples give the
same bytes) and read by one `np.load` each, pickles refused. The sensor
id is the directory's name. A directory named for no sensor of
scenario.yaml fails the load naming it, as does a store that lacks an
array, holds one of the wrong dtype or shape, or whose row counts
disagree (for a lidar, point counts that do not sum to its rows). An
IMU store loads as one `ImuStream`, a lidar's as `LidarScan` views of
its rows, each checked as any stream or scan is.

The GNSS CSV is read with one structured `loadtxt`; its ns stamps are
read and written as ints, exact at any size. It becomes one
`GnssStream` (empty without the file), its `var` column the isotropic
variance. A variance that is negative, NaN or infinite fails the load
with its line; a zero one (a noise-free simulation) loads at the floor
`GnssStream` puts on it. A stamp before the one on the line above also
fails the load with its line, since the first fix anchors the run and
keyframes take fixes in file order; equal stamps load. gt.tum
is read only when a `Dataset`'s ground truth is first asked for; a
replay never reads it. The TUM trajectory format (gt.tum here, a run's
est.tum) is read and written by this module alone; it holds seconds,
written and read as decimals, so ns stamps are exact there too. Each
stamped CSV (the GNSS CSV, a run's fused_imu.csv) and TUM file is
printed by one `%` call over all its rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property

import numpy as np

from .geometry import (
    NS_PER_S,
    Pose,
    _derived_pose,
    quat_from_rotmat_many,
    quat_to_rotmat_many,
)
from .graph import GnssStream
from .lidar import LidarScan
from .mimu import ImuStream
from .sim import Scenario, SimData, load_scenario, save_scenario

FLOAT_FMT = "%.9e"


def _write_stamped_csv(path, stamps, values, header="") -> None:
    """A 't_ns,v0,v1,...' line per row after `header`, all printed by
    one `%`."""
    fields = np.column_stack([np.asarray(stamps, dtype=np.int64).astype(object), values])
    line = ",".join(["%d"] + [FLOAT_FMT] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + (line * len(fields)) % tuple(fields.ravel().tolist()))


def _write_store(store_dir, arrays) -> None:
    """A sensor's arrays, one `.npy` each, in its store directory."""
    os.makedirs(store_dir, exist_ok=True)
    for name, array in arrays.items():
        np.save(os.path.join(store_dir, f"{name}.npy"), array)


def write_dataset(path, sim: SimData) -> None:
    os.makedirs(path, exist_ok=True)
    for sid, stream in sim.imu.items():
        _write_store(os.path.join(path, "imu", sid.split("/")[1]),
                     {"stamps": stream.stamps, "f": stream.f, "w": stream.w})
    _write_stamped_csv(os.path.join(path, "gnss.csv"), sim.gnss.stamps,
                       np.column_stack([sim.gnss.t, sim.gnss.var]))
    for sid, scans in sim.lidar.items():
        bounds = [(s.scan_start, s.scan_end, len(s.stamps)) for s in scans]
        _write_store(os.path.join(path, "scans", sid.split("/")[1]), {
            "bounds": np.array(bounds, dtype=np.int64).reshape(-1, 3),
            "stamps": np.concatenate([np.zeros(0, np.int64)] + [s.stamps for s in scans]),
            "points": np.concatenate([np.zeros((0, 3))] + [s.points for s in scans]),
        })
    write_tum(os.path.join(path, "gt.tum"), sim.gt.stamps, sim.gt.R, sim.gt.t)
    save_scenario(os.path.join(path, "scenario.yaml"), sim.scenario)


@dataclass(frozen=True)
class Dataset:
    """A loaded dataset directory. The ground truth is read from gt.tum
    when first asked for, so a directory without it replays."""

    path: str
    scenario: Scenario
    imu: dict  # 'imu/<pos>' -> ImuStream
    lidar: dict  # 'lidar/<pos>' -> [LidarScan]
    gnss: GnssStream

    @cached_property
    def _gt(self):
        return load_tum(os.path.join(self.path, "gt.tum"))

    @property
    def gt_stamps(self) -> np.ndarray:
        return self._gt[0]

    @cached_property
    def gt_poses(self) -> tuple:
        # load_tum has projected every row that `Pose` would
        return tuple(map(_derived_pose, *self._gt[1:]))


def write_tum(path, stamps, R, t) -> None:
    """Trajectory file of the poses (R (N, 3, 3), t (N, 3)): one
    't x y z qx qy qz qw' line per pose, all printed by one `%`. t is
    the ns stamp in seconds, digit for digit, so it is exact at any
    size."""
    stamps = np.asarray(stamps, dtype=np.int64)
    n = len(stamps)
    q = quat_from_rotmat_many(np.asarray(R, float).reshape(n, 3, 3))
    neg = stamps < 0
    mag = np.abs(stamps).astype(np.uint64)  # exact for -2**63 too
    fields = np.empty((n, 10), dtype=object)
    fields[:, 0] = np.where(neg, "-", "")
    fields[:, 1], fields[:, 2] = np.divmod(mag, np.uint64(NS_PER_S))
    fields[:, 3:6] = np.asarray(t, float).reshape(n, 3)
    fields[:, 6:9] = q[:, 1:]
    fields[:, 9] = q[:, 0]
    line = "%s%d.%09d" + " %.9f" * 7 + "\n"
    with open(path, "w") as fh:
        fh.write((line * n) % tuple(fields.ravel().tolist()))


def load_tum(path):
    """(stamps (N,), R (N, 3, 3), t (N, 3)) of a TUM file. The stamps are
    parsed as decimals, so they are exact to the nanosecond at any size.
    A rotation whose quaternion is too far from unit length (as in a
    hand-written file) is projected onto SO(3) as `Pose` projects it."""
    fields = np.loadtxt(path, dtype=str, ndmin=2).reshape(-1, 8)
    rows = fields[:, 1:].astype(float)
    stamps = np.array(
        [int((Decimal(t) * NS_PER_S).to_integral_value()) for t in fields[:, 0]],
        dtype=np.int64,
    )
    R = quat_to_rotmat_many(rows[:, [6, 3, 4, 5]])
    # `Pose` decides on every row whose batched defect nears its bound
    D = R @ np.swapaxes(R, 1, 2) - np.eye(3)
    near = np.einsum("nij,nij->n", D, D) > (Pose.ROTATION_TOLERANCE / 2) ** 2
    for k in np.flatnonzero(near):
        R[k] = Pose(R[k]).R
    return stamps, R, rows[:, :3]


_GNSS_ROW = [("t", np.int64), ("p", float, 3), ("var", float)]
# each array of a store directory: dtype and shape, as the module
# docstring states them; axes of one name have one length
_IMU_ARRAYS = {"stamps": (np.int64, "(N,)"), "f": (np.float64, "(N, 3)"),
               "w": (np.float64, "(N, 3)")}
_SCAN_ARRAYS = {"bounds": (np.int64, "(S, 3)"), "stamps": (np.int64, "(N,)"),
                "points": (np.float64, "(N, 3)")}


def _load_store(store_dir, spec) -> list:
    """The arrays `spec` names in a store directory, each read by one
    `np.load`, pickles refused. An array that is missing, unreadable or
    not of its stated dtype and shape, or whose rows differ in number
    from an earlier array's on the same axis, fails the load naming the
    directory."""
    arrays, rows = [], {}
    for name, (dtype, shape) in spec.items():
        axis, *row = shape.strip("(,)").split(", ")
        row = tuple(map(int, row))
        try:
            array = np.load(os.path.join(store_dir, f"{name}.npy"), allow_pickle=False)
        except (OSError, ValueError) as e:
            raise ValueError(f"{store_dir}: {name}.npy: {e}") from None
        if array.dtype != dtype or array.ndim != 1 + len(row) or array.shape[1:] != row:
            raise ValueError(f"{store_dir}: {name}.npy is a {array.shape} {array.dtype} "
                             f"array, not {shape} {np.dtype(dtype)}")
        first, n = rows.setdefault(axis, (name, len(array)))
        if len(array) != n:
            raise ValueError(f"{store_dir}: {name}.npy has {len(array)} rows, "
                             f"but {first}.npy has {n}")
        arrays.append(array)
    return arrays


def load_imu(store_dir) -> ImuStream:
    """The stream of one IMU's store directory, whose name is the IMU's
    position. A stream `ImuStream` rejects fails the load."""
    stamps, f, w = _load_store(store_dir, _IMU_ARRAYS)
    return ImuStream(stamps, f, w, f"imu/{os.path.basename(os.path.normpath(store_dir))}")


def _load_scans(scan_dir) -> list:
    """The scans of one lidar's store directory, named for its position,
    as `LidarScan` views of the arrays' rows. Point counts that do not
    sum to the rows, or a scan `LidarScan` rejects, fail the load."""
    bounds, stamps, points = _load_store(scan_dir, _SCAN_ARRAYS)
    sensor_id = f"lidar/{os.path.basename(scan_dir)}"
    cuts = np.concatenate([[0], np.cumsum(bounds[:, 2])]).tolist()
    if cuts[-1] != len(stamps):
        raise ValueError(f"{scan_dir}: the scans' point counts sum to {cuts[-1]}, but "
                         f"stamps has {len(stamps)} rows")
    scans = []
    for n, (start, end, _) in enumerate(bounds.tolist()):
        try:
            scans.append(LidarScan(sensor_id, start, end, stamps[cuts[n]:cuts[n + 1]],
                                   points[cuts[n]:cuts[n + 1]]))
        except ValueError as e:
            raise ValueError(f"{scan_dir} scan {n}: {e}") from None
    return scans


def _stores(path, root, sensors) -> list:
    """(position, directory) of each store directory in path/root, none
    without it; one not named for a position of `sensors` fails the load."""
    root = os.path.join(path, root)
    stores = [(pos, os.path.join(root, pos))
              for pos in (sorted(os.listdir(root)) if os.path.isdir(root) else [])]
    for pos, store in stores:
        if pos not in sensors:
            raise ValueError(f"{store}: not a sensor of scenario.yaml ({', '.join(sensors)})")
    return stores


def load_dataset(path) -> Dataset:
    scenario = load_scenario(os.path.join(path, "scenario.yaml"))
    imu = {f"imu/{pos}": load_imu(d) for pos, d in _stores(path, "imu", scenario.imus)}
    gnss_path = os.path.join(path, "gnss.csv")
    rows = np.zeros(0, _GNSS_ROW)
    if os.path.exists(gnss_path):
        rows = np.loadtxt(gnss_path, delimiter=",", ndmin=1, dtype=_GNSS_ROW)
        var = rows["var"]
        bad = np.flatnonzero(~(np.isfinite(var) & (var >= 0)))
        if len(bad):
            raise ValueError(f"{gnss_path} line {bad[0] + 1}: variance {var[bad[0]]} "
                             "is not a finite non-negative number")
        back = np.flatnonzero(np.diff(rows["t"]) < 0) + 1
        if len(back):
            raise ValueError(f"{gnss_path} line {back[0] + 1}: stamp before the line above's")
    gnss = GnssStream(rows["t"], rows["p"], rows["var"])
    lidar = {f"lidar/{pos}": _load_scans(d) for pos, d in _stores(path, "scans", scenario.lidars)}
    return Dataset(
        path=str(path), scenario=scenario, imu=imu, lidar=lidar, gnss=gnss
    )
