"""Fusion of a rigidly-mounted IMU array into one virtual base-frame IMU.

Each channel k has extrinsics (R_k, t_k) and sees, in its own frame,
the base specific force plus the centrifugal term w x (w x t_k) and the
Euler term wdot x t_k. After rotating all measurements into the base
orientation the array obeys the linear model

    y = h(w) + H Phi + noise,     Phi = [wdot; f_B],

which is solved in two stages: the angular rate by inverse-variance
weighted least squares over the gyros, then Phi by generalized least
squares with the stacked covariance Q.

Raw channel data travels as one `ImuStream` per sensor (columns of
stamps, f and w, checked for plausibility on construction); `BatchFuser`
fuses a whole channel subset's stacked rows at once (whether it observes
w_dot is `BatchFuser.w_dot_observable`) into one columnar `FusedImu`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import skew, skew_many

MAX_SPECIFIC_FORCE = 200.0  # m/s^2
MAX_ANGULAR_RATE = 35.0  # rad/s


class ImuPlausibilityError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ImuStream:
    """One IMU's samples as columns: stamps (N,) int64 ns, specific force
    f (N, 3) m/s^2 and angular rate w (N, 3) rad/s, both in the sensor
    frame. The whole stream is checked on construction: the first row
    with a non-finite value, |f| >= MAX_SPECIFIC_FORCE or
    |w| >= MAX_ANGULAR_RATE raises ImuPlausibilityError naming the sensor
    and the row."""

    stamps: np.ndarray
    f: np.ndarray
    w: np.ndarray
    sensor_id: str

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=np.int64).reshape(-1)
        f = np.asarray(self.f, dtype=float).reshape(-1, 3)
        w = np.asarray(self.w, dtype=float).reshape(-1, 3)
        finite = np.isfinite(f).all(axis=1) & np.isfinite(w).all(axis=1)
        f_norm = np.linalg.norm(f, axis=1)
        w_norm = np.linalg.norm(w, axis=1)
        bad = ~finite | (f_norm >= MAX_SPECIFIC_FORCE) | (w_norm >= MAX_ANGULAR_RATE)
        if bad.any():
            i = int(np.argmax(bad))
            if not finite[i]:
                what = "non-finite IMU sample"
            elif f_norm[i] >= MAX_SPECIFIC_FORCE:
                what = f"specific force {f_norm[i]:.1f} m/s^2"
            else:
                what = f"angular rate {w_norm[i]:.1f} rad/s"
            raise ImuPlausibilityError(f"{self.sensor_id} row {i}: {what}")
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return len(self.stamps)

    def take(self, rows) -> "ImuStream":
        """The stream restricted to `rows` (an index or boolean mask)."""
        return ImuStream(self.stamps[rows], self.f[rows], self.w[rows],
                         self.sensor_id)


@dataclass(frozen=True)
class ImuChannelCalib:
    """Extrinsics and noise of one IMU channel.

    R maps sensor-frame vectors into the base orientation (v_B = R @ v_I);
    t is the lever arm from base origin to the sensor, in base coordinates.
    """

    R: np.ndarray
    t: np.ndarray
    acc_noise_var: np.ndarray  # (m/s^2)^2, per axis
    gyro_noise_var: np.ndarray  # (rad/s)^2, per axis

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if np.linalg.norm(R @ R.T - np.eye(3)) > 1e-6:
            raise ValueError("channel rotation is not orthonormal")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3))
        for name in ("acc_noise_var", "gyro_noise_var"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if np.any(v <= 0.0):
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class MimuArray:
    """K calibrated channels plus their stacked 6K x 6K covariance Q, the
    diagonal of the channel noise variances (accelerometer block above
    the gyro block)."""

    channels: tuple
    Q: np.ndarray = field(init=False)

    def __post_init__(self):
        channels = tuple(self.channels)
        if len(channels) < 1:
            raise ValueError("need at least one channel")
        object.__setattr__(self, "channels", channels)
        acc = np.concatenate([c.acc_noise_var for c in channels])
        gyr = np.concatenate([c.gyro_noise_var for c in channels])
        object.__setattr__(self, "Q", np.diag(np.concatenate([acc, gyr])))

    @property
    def K(self) -> int:
        return len(self.channels)

    @property
    def Q_gyro(self) -> np.ndarray:
        return self.Q[3 * self.K :, 3 * self.K :]

    def subset(self, indices) -> "MimuArray":
        """Array restricted to the given channel indices (dropout handling)."""
        return MimuArray(tuple(self.channels[i] for i in indices))


FusedImuRow = namedtuple("FusedImuRow", "stamp f w w_dot")


@dataclass(frozen=True, eq=False)
class FusedImu:
    """The fused base-frame IMU as columns, oldest first: stamps (N,) int64
    ns; specific force f, angular rate w and angular acceleration w_dot,
    each (N, 3). Iterating yields lazy `FusedImuRow`s; mlio reads the
    columns, and the rows exist only because the benchmark harness's
    `perfbench/run.py` `replay_fuse` writes its CSV in a loop over rows."""

    stamps: np.ndarray
    f: np.ndarray
    w: np.ndarray
    w_dot: np.ndarray

    def __len__(self) -> int:
        return len(self.stamps)

    def __iter__(self):
        return map(FusedImuRow, self.stamps.tolist(), self.f, self.w, self.w_dot)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_stacked_model(arr: MimuArray, w):
    """Return (h, H) of the stacked array model at angular rate w."""
    w = np.asarray(w, dtype=float).reshape(3)
    K = arr.K
    levers = np.array([c.t for c in arr.channels])
    Wx = skew(w)
    h = np.concatenate([(Wx @ Wx @ levers[:, :, None]).ravel(), *[w] * K])
    H = np.zeros((6 * K, 6))
    acc_rows = H.reshape(2 * K, 3, 6)[:K]  # each channel's 3 x 6 block
    acc_rows[:, :, :3] = -skew_many(levers)
    acc_rows[:, :, 3:] = np.eye(3)
    return h, H


RANK_DEFICIENCY_RATIO = 1e-8


def _phi_projector(N):
    """Observable reparameterization of Phi = [wdot; f] for the normal
    matrix N.

    The specific force is always observable, but wdot directions can be
    indistinguishable from a common shift of f (e.g. a single channel, or
    collinear lever arms); a minimum-norm solve would then smear f into
    wdot. Returns (T, observable) where T maps reduced parameters
    [z; f] -> Phi with the wdot block restricted to the column space B of
    the wdot information after marginalizing f.
    """
    Nww, Nwf, Nff = N[:3, :3], N[:3, 3:], N[3:, 3:]
    Sw = Nww - Nwf @ np.linalg.solve(Nff, Nwf.T)
    vals, vecs = np.linalg.eigh(Sw)
    B = vecs[:, vals > RANK_DEFICIENCY_RATIO * np.linalg.norm(N, 2)]
    r = B.shape[1]
    T = np.zeros((6, r + 3))
    T[:3, :r] = B
    T[3:, r:] = np.eye(3)
    return T, r == 3


class BatchFuser:
    """Precomputed solve matrices for fusing long measurement series of a
    fixed array, vectorized over time."""

    def __init__(self, arr: MimuArray):
        self.arr = arr
        K = arr.K
        Wg = np.linalg.inv(arr.Q_gyro)
        S = np.tile(np.eye(3), (K, 1))
        self._gyro_solve = np.linalg.solve(S.T @ Wg @ S, S.T @ Wg)
        _, H = build_stacked_model(arr, np.zeros(3))
        Qinv = np.linalg.inv(arr.Q)
        N = H.T @ Qinv @ H
        T, self.w_dot_observable = _phi_projector(N)
        self._phi_solve = T @ np.linalg.solve(T.T @ N @ T, T.T @ H.T @ Qinv)
        self._levers = np.stack([c.t for c in arr.channels])

    def fuse(self, Yf, Yw):
        """Fuse (T, 3K) stacked base-oriented measurements.

        Returns (F, W, Wdot) arrays of shape (T, 3).
        """
        Yf = np.asarray(Yf, dtype=float)
        Yw = np.asarray(Yw, dtype=float)
        T = Yf.shape[0]
        K = self.arr.K
        Wstar = Yw @ self._gyro_solve.T
        # h_f rows: w x (w x t_k) per channel, vectorized over time
        wxt = np.cross(Wstar[:, None, :], self._levers[None, :, :])
        h_f = np.cross(Wstar[:, None, :], wxt).reshape(T, 3 * K)
        h_w = np.tile(Wstar, (1, K))
        err = np.concatenate([Yf - h_f, Yw - h_w], axis=1)
        phi = err @ self._phi_solve.T
        return phi[:, 3:], Wstar, phi[:, :3]

    def fuse_average(self, Yf, Yw):
        """Vectorized averaging baseline over the same stacked inputs."""
        Yf = np.asarray(Yf, dtype=float)
        Yw = np.asarray(Yw, dtype=float)
        T = Yf.shape[0]
        K = self.arr.K
        Yw3 = Yw.reshape(T, K, 3)
        Yf3 = Yf.reshape(T, K, 3)
        wxt = np.cross(Yw3, self._levers[None, :, :])
        centrifugal = np.cross(Yw3, wxt)
        return (Yf3 - centrifugal).mean(axis=1), Yw3.mean(axis=1)

