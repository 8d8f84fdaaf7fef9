"""Fusion of a rigidly-mounted IMU array into one virtual base-frame IMU.

Each channel k has extrinsics (R_k, t_k) and sees, in its own frame,
the base specific force plus the centrifugal term w x (w x t_k) and the
Euler term wdot x t_k. After rotating all measurements into the base
orientation the array obeys the linear model

    y = h(w) + H Phi + noise,     Phi = [wdot; f_B],

which is solved in two stages: the angular rate by inverse-variance
weighted least squares over the gyros, then Phi by generalized least
squares with the stacked covariance Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .geometry import quat_from_rotmat, quat_to_rotmat, skew

MAX_SPECIFIC_FORCE = 200.0  # m/s^2
MAX_ANGULAR_RATE = 35.0  # rad/s


class ImuPlausibilityError(ValueError):
    pass


@dataclass(frozen=True)
class ImuSample:
    stamp: int  # nanoseconds
    f: np.ndarray  # specific force, m/s^2, sensor frame
    w: np.ndarray  # angular rate, rad/s, sensor frame

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float).reshape(3)
        w = np.asarray(self.w, dtype=float).reshape(3)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(w))):
            raise ImuPlausibilityError("non-finite IMU sample")
        if np.linalg.norm(f) >= MAX_SPECIFIC_FORCE:
            raise ImuPlausibilityError(f"specific force {np.linalg.norm(f):.1f} m/s^2")
        if np.linalg.norm(w) >= MAX_ANGULAR_RATE:
            raise ImuPlausibilityError(f"angular rate {np.linalg.norm(w):.1f} rad/s")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "w", w)


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
    """K calibrated channels plus the stacked 6K x 6K covariance Q
    (accelerometer block above the gyro block)."""

    channels: tuple
    Q: np.ndarray = None

    def __post_init__(self):
        channels = tuple(self.channels)
        if len(channels) < 1:
            raise ValueError("need at least one channel")
        object.__setattr__(self, "channels", channels)
        if self.Q is None:
            acc = np.concatenate([c.acc_noise_var for c in channels])
            gyr = np.concatenate([c.gyro_noise_var for c in channels])
            object.__setattr__(self, "Q", np.diag(np.concatenate([acc, gyr])))
        else:
            Q = np.asarray(self.Q, dtype=float)
            if Q.shape != (6 * len(channels),) * 2:
                raise ValueError("Q shape mismatch")
            if np.linalg.norm(Q - Q.T) > 1e-12 * np.linalg.norm(Q):
                raise ValueError("Q must be symmetric")
            object.__setattr__(self, "Q", Q)

    @property
    def K(self) -> int:
        return len(self.channels)

    @property
    def Q_acc(self) -> np.ndarray:
        return self.Q[: 3 * self.K, : 3 * self.K]

    @property
    def Q_gyro(self) -> np.ndarray:
        return self.Q[3 * self.K :, 3 * self.K :]

    def subset(self, indices) -> "MimuArray":
        """Array restricted to the given channel indices (dropout handling)."""
        return MimuArray(tuple(self.channels[i] for i in indices))


@dataclass(frozen=True)
class FusedImuSample:
    stamp: int
    f: np.ndarray  # base-frame specific force
    w: np.ndarray  # base-frame angular rate
    w_dot: np.ndarray  # angular acceleration estimate
    cov: np.ndarray = field(default_factory=lambda: np.eye(9))  # (wdot, f, w)
    w_dot_observable: bool = True

    def __post_init__(self):
        for name in ("f", "w", "w_dot"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=float).reshape(3)
            )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def transform_to_base(s: ImuSample, c: ImuChannelCalib, w_dot_est=None) -> ImuSample:
    """Re-express one channel's measurement at the base origin.

    Removes the centrifugal term w x (w x t) and the Euler term wdot x t
    from the rotated specific force.
    """
    if w_dot_est is None:
        w_dot_est = np.zeros(3)
    w_b = c.R @ s.w
    f_b = c.R @ s.f - skew(w_b) @ skew(w_b) @ c.t - np.cross(w_dot_est, c.t)
    return ImuSample(stamp=s.stamp, f=f_b, w=w_b)


def build_stacked_model(arr: MimuArray, w):
    """Return (h, H) of the stacked array model at angular rate w."""
    w = np.asarray(w, dtype=float).reshape(3)
    K = arr.K
    h = np.zeros(6 * K)
    H = np.zeros((6 * K, 6))
    Wx = skew(w)
    for k, c in enumerate(arr.channels):
        h[3 * k : 3 * k + 3] = Wx @ Wx @ c.t
        H[3 * k : 3 * k + 3, :3] = -skew(c.t)
        H[3 * k : 3 * k + 3, 3:] = np.eye(3)
    h[3 * K :] = np.tile(w, K)
    return h, H


def fuse_gyro(arr: MimuArray, y_w) -> np.ndarray:
    """Inverse-variance weighted least-squares angular rate over the array."""
    y = np.asarray(y_w, dtype=float).reshape(3 * arr.K)
    Winv = np.linalg.inv(arr.Q_gyro)
    S = np.kron(np.ones((arr.K, 1)), np.eye(3))  # 1_K (x) I_3
    A = S.T @ Winv @ S
    return np.linalg.solve(A, S.T @ Winv @ y)


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


def fuse_mle(arr: MimuArray, y_f, y_w, stamp: int = 0) -> FusedImuSample:
    """Two-stage maximum-likelihood fusion of the stacked array measurement.

    y_f and y_w are the per-channel measurements rotated into the base
    orientation (lever-arm terms still present), stacked channel-major.
    """
    K = arr.K
    y_f = np.asarray(y_f, dtype=float).reshape(3 * K)
    y_w = np.asarray(y_w, dtype=float).reshape(3 * K)
    w_star = fuse_gyro(arr, y_w)

    h, H = build_stacked_model(arr, w_star)
    y = np.concatenate([y_f, y_w])
    # whitened least squares: better conditioned than forming H^T Q^-1 H
    L = np.linalg.cholesky(arr.Q)
    A = np.linalg.solve(L, H)
    b = np.linalg.solve(L, y - h)
    N = A.T @ A

    T, observable = _phi_projector(N)
    cov = np.zeros((9, 9))
    S = np.kron(np.ones((arr.K, 1)), np.eye(3))
    Wg = np.linalg.inv(arr.Q_gyro)
    cov[6:, 6:] = np.linalg.inv(S.T @ Wg @ S)
    # reduced solve: unobservable wdot directions (single channel,
    # collinear lever arms) are pinned to zero and flagged
    phi_r, *_ = np.linalg.lstsq(A @ T, b, rcond=None)
    phi = T @ phi_r
    w_dot, f_b = phi[:3], phi[3:]
    cov[:6, :6] = T @ np.linalg.inv(T.T @ N @ T) @ T.T
    return FusedImuSample(
        stamp=stamp, f=f_b, w=w_star, w_dot=w_dot, cov=cov,
        w_dot_observable=bool(observable),
    )


def fuse_average(arr: MimuArray, y_f, y_w, stamp: int = 0) -> FusedImuSample:
    """Arithmetic-mean baseline with per-channel centrifugal correction."""
    K = arr.K
    y_f = np.asarray(y_f, dtype=float).reshape(K, 3)
    y_w = np.asarray(y_w, dtype=float).reshape(K, 3)
    f_acc = np.zeros(3)
    for k, c in enumerate(arr.channels):
        wk = y_w[k]
        f_acc += y_f[k] - skew(wk) @ skew(wk) @ c.t
    return FusedImuSample(
        stamp=stamp, f=f_acc / K, w=y_w.mean(axis=0), w_dot=np.zeros(3),
        w_dot_observable=False,
    )


def stack_channel_samples(arr: MimuArray, samples, indices=None):
    """Rotate per-channel samples into the base orientation and stack them.

    Returns (sub_array, y_f, y_w) where sub_array is restricted to the
    channels actually present (dropout support).
    """
    if indices is None:
        indices = range(len(samples))
    sub = arr.subset(indices)
    y_f = np.concatenate([sub.channels[i].R @ s.f for i, s in enumerate(samples)])
    y_w = np.concatenate([sub.channels[i].R @ s.w for i, s in enumerate(samples)])
    return sub, y_f, y_w


class BatchFuser:
    """Precomputed solve matrices for fusing long measurement series of a
    fixed array, vectorized over time."""

    def __init__(self, arr: MimuArray):
        self.arr = arr
        K = arr.K
        Wg = np.linalg.inv(arr.Q_gyro)
        S = np.kron(np.ones((K, 1)), np.eye(3))
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


# ---------------------------------------------------------------------------
# calibration file
# ---------------------------------------------------------------------------

def load_calibration(path) -> dict:
    """Read a channel calibration file (YAML).

    Returns {channel_id: ImuChannelCalib}; quaternions are [w, x, y, z].
    """
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    out = {}
    for entry in doc["channels"]:
        out[entry["id"]] = ImuChannelCalib(
            R=quat_to_rotmat(np.asarray(entry["quat"], dtype=float)),
            t=np.asarray(entry["lever_arm"], dtype=float),
            acc_noise_var=np.asarray(entry["acc_noise_var"], dtype=float),
            gyro_noise_var=np.asarray(entry["gyro_noise_var"], dtype=float),
        )
    return out


def save_calibration(path, channels: dict) -> None:
    doc = {
        "channels": [
            {
                "id": cid,
                "quat": [float(x) for x in quat_from_rotmat(c.R)],
                "lever_arm": [float(x) for x in c.t],
                "acc_noise_var": [float(x) for x in c.acc_noise_var],
                "gyro_noise_var": [float(x) for x in c.gyro_noise_var],
            }
            for cid, c in channels.items()
        ]
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
