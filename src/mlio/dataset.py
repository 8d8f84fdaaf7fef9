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
their ns stamps are read and written as ints, exact at any size. The
GNSS CSV becomes one `GnssStream` (empty without the file), its `var`
column the isotropic variance. A variance that is negative, NaN or
infinite fails the load with its line; a zero one (a noise-free
simulation) loads at the floor `GnssStream` puts on it. A stamp before
the one on the line above also fails the load with its line, since the
first fix anchors the run and keyframes take fixes in file order;
equal stamps load. gt.tum
is read only when a `Dataset`'s ground truth is first asked for; a
replay never reads it. The TUM trajectory format (gt.tum here, a run's
est.tum) is read and written by this module alone; it holds seconds,
written and read as decimals, so ns stamps are exact there too.

Every stamped CSV (the IMU and GNSS CSVs, the scan files, a run's
fused_imu.csv) is printed by `_format_rows`, one vectorized pass per
sensor stream that gives byte for byte what `'%d,%.9e,...' %` prints
row by row. It rounds each mantissa in float64 and prints the few
values whose rounding that cannot decide with `%` itself. A lidar's
scans are formatted in one call and cut into files at their newlines.
A TUM file is printed by one `%` call over all its poses and read with
one batched quaternion conversion.
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

# `_format_rows` prints into one uint8 buffer of fixed-width rows: a
# `%d` stamp field, then a `,%.9e` field per value. Each field is a few
# constant bytes and 4-byte words looked up in the tables below; the
# bytes a number does not use (a sign, leading zeros of a stamp, a
# third exponent digit) are NUL, and are deleted from the whole text.
_STAMP_WIDTH = 21  # sign, then five 4-digit words (2**63 has 19 digits)
_FIELD_WIDTH = 18  # ',' [sign d '.' d] [dddd] [dddd] 'e' [sign 3 digits]
_E_MIN, _E_MAX = -308, 308  # decimal exponents of the normal doubles


def _words(strings) -> np.ndarray:
    return np.frombuffer(b"".join(strings), np.uint32)


_DIGITS = _words(b"%04d" % k for k in range(10000))
# the sign, first digit, '.' and second digit of a mantissa, by
# 100 * signbit(x) + its first two digits
_LEADS = _words(sign + b"%d.%d" % divmod(d, 10) for sign in (b"\0", b"-")
                for d in range(100))
_EXPONENTS = _words(b"%c%c%02d" % (b"-+"[e >= 0], b"\x00123"[abs(e) // 100],
                                   abs(e) % 100) for e in range(_E_MIN, _E_MAX + 1))
# 10**(9 - e) for each exponent e, correctly rounded; 0 where it
# overflows (e < -299), which sends those values to `%`
_SCALE = np.array([float(f"1e{9 - e}") if 9 - e <= 308 else 0.0
                   for e in range(_E_MIN, _E_MAX + 1)])


def _word(fields, offset) -> np.ndarray:
    """The uint32 view of bytes offset..offset+3 of each field."""
    return fields[..., offset:offset + 4].view(np.uint32)[..., 0]


def _magnitude(stamps):
    """(stamps < 0, |stamps| as uint64), exact for -2**63 too."""
    neg = stamps < 0
    mag = stamps.astype(np.uint64)
    return neg, np.where(neg, ~mag + np.uint64(1), mag)


def _format_stamps(out, stamps) -> None:
    """`%d` of each int64 stamp into the (n, 21) uint8 view `out`."""
    neg, mag = _magnitude(stamps)
    out[:, 0] = neg * ord("-")
    width = 4 * -(-len(str(mag.max(initial=0))) // 4)  # whole words
    q = mag
    for offset in range(_STAMP_WIDTH - 4, _STAMP_WIDTH - width - 1, -4):
        q, r = np.divmod(q, np.uint64(10000))
        _word(out, offset)[:] = _DIGITS[r]
    # leading zeros go: digit j (from the right) shows if |stamp| >= 10**j
    shown = mag[:, None] >= 10 ** np.arange(width - 1, 0, -1, dtype=np.uint64)
    out[:, _STAMP_WIDTH - width:-1] *= shown


def _format_values(out, x) -> None:
    """`,%.9e` of each value of the (n, k) float array `x` into the
    (n, k, 18) uint8 view `out`, whose ',' and 'e' are set; byte for
    byte what `%` prints.

    The mantissa is rint(y), y = |x| * 10**(9 - e), e = floor(log10|x|).
    Both roundings in y together are under 3 ulp, so y is within 7e-6
    of its exact value. A value goes through `%` itself where rint can
    round otherwise or the digits are not ten: where y's fraction is
    within 1e-4 of .5 (every exact tie is), where y is not in
    [1e9, 1e10) (log10 was off by one) or rounds up to 1e10, and for
    subnormals, NaN and inf. ±0 is the mantissa 0 with exponent 0."""
    a = np.abs(x)
    zero = a == 0.0
    normal = np.isfinite(x) & (a >= np.finfo(float).tiny)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    y = a * _SCALE[e]
    m = np.rint(y)
    exact = normal & (y >= 1e9) & (m < 1e10) & (np.abs(y - np.floor(y) - 0.5) > 1e-4)
    m = np.where(exact, m, 0.0)
    exact |= zero
    lead, lo = np.divmod(m.astype(np.int64), 10000)
    lead, mid = np.divmod(lead, 10000)
    _word(out, 1)[:] = _LEADS[lead + 100 * np.signbit(x)]
    _word(out, 5)[:] = _DIGITS[mid]
    _word(out, 9)[:] = _DIGITS[lo]
    _word(out, 14)[:] = _EXPONENTS[e]
    for i, j in zip(*np.nonzero(~exact)):
        text = np.frombuffer((FLOAT_FMT % x[i, j]).encode(), np.uint8)
        out[i, j, 1:] = 0
        out[i, j, 1:1 + len(text)] = text


def _format_rows(stamps, values) -> bytes:
    """A 't_ns,v0,v1,...' line per row, as `%d` and `%.9e` print them."""
    stamps = np.asarray(stamps, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    template = np.zeros(_STAMP_WIDTH + k * _FIELD_WIDTH + 1, np.uint8)
    template[_STAMP_WIDTH::_FIELD_WIDTH] = ord(",")
    template[_STAMP_WIDTH + 13::_FIELD_WIDTH] = ord("e")
    template[-1] = ord("\n")
    rows = np.empty((n, len(template)), np.uint8)
    rows[:] = template
    _format_stamps(rows[:, :_STAMP_WIDTH], stamps)
    _format_values(rows[:, _STAMP_WIDTH:-1].reshape(n, k, _FIELD_WIDTH), values)
    return rows.tobytes().translate(None, b"\0")


def _write_stamped_csv(path, stamps, values, header="") -> None:
    """A 't_ns,v0,v1,...' line per row after `header`."""
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(_format_rows(stamps, values))


def _write_scans(scan_dir, scans) -> None:
    """One file per scan, 'sensor_id,start,end' then its stamp offsets
    and points; the rows of all scans are formatted in one call and cut
    at their newlines."""
    os.makedirs(scan_dir, exist_ok=True)
    if not scans:
        return
    text = _format_rows(np.concatenate([s.stamps - s.scan_start for s in scans]),
                        np.concatenate([s.points for s in scans]))
    row_starts = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1
    row_starts = np.concatenate([[0], row_starts])
    cuts = row_starts[np.cumsum([0] + [len(s.stamps) for s in scans])].tolist()
    text = memoryview(text)
    for n, scan in enumerate(scans):
        with open(os.path.join(scan_dir, f"{n:06d}.csv"), "wb") as fh:
            fh.write(f"{scan.sensor_id},{scan.scan_start},{scan.scan_end}\n".encode())
            fh.write(text[cuts[n]:cuts[n + 1]])


def write_dataset(path, sim: SimData) -> None:
    os.makedirs(path, exist_ok=True)
    for sid, stream in sim.imu.items():
        _write_stamped_csv(os.path.join(path, f"imu_{sid.split('/')[1]}.csv"),
                           stream.stamps, np.hstack([stream.f, stream.w]))
    _write_stamped_csv(os.path.join(path, "gnss.csv"), sim.gnss.stamps,
                       np.column_stack([sim.gnss.t, sim.gnss.var]))
    for sid, scans in sim.lidar.items():
        _write_scans(os.path.join(path, "scans", sid.split("/")[1]), scans)
    write_tum(os.path.join(path, "gt.tum"), sim.gt.stamps, sim.gt.R, sim.gt.t)
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
    neg, mag = _magnitude(stamps)
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
