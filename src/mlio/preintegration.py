"""On-manifold IMU preintegration and gravity-aligned initialization.

Accumulates fused IMU samples between keyframes into a relative-motion
pseudo-measurement (dR, dv, dp) that is independent of the absolute start
state, with first-order bias Jacobians and a propagated 9x9 noise
covariance. Within each sample interval the measurement is held constant
and the propagation uses the exact constant-input solution (left-Jacobian
and double-integral correction terms), so the coarse-rate result matches a
fine-step integrator to the integrator's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import (
    NavState,
    NavStates,
    Pose,
    matvec_many,
    skew,
    skew_many,
    so3_exp,
    so3_exp_many,
    so3_left_jacobian_inv_many,
    so3_left_jacobian_many,
    so3_log_many,
    so3_series,
)

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class ImuNoiseParams:
    gyro_noise_density: float = 1e-3  # rad/s/sqrt(Hz)
    acc_noise_density: float = 1e-2  # m/s^2/sqrt(Hz)
    gyro_bias_rw_density: float = 1e-5  # rad/s^2/sqrt(Hz)
    acc_bias_rw_density: float = 1e-4  # m/s^3/sqrt(Hz)


@dataclass(frozen=True)
class PreintegratedDelta:
    """Relative-motion pseudo-measurement between two keyframes.

    Covariance is over (rot, vel, pos) error; bias Jacobians are first
    order around the linearization point (b_a0, b_g0).
    """

    dR: np.ndarray = field(default_factory=lambda: np.eye(3))
    dv: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dt: float = 0.0
    J_r_bg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    J_v_ba: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    J_v_bg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    J_p_ba: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    J_p_bg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    cov: np.ndarray = field(default_factory=lambda: np.zeros((9, 9)))
    b_a0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_g0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def corrected(self, b_a, b_g):
        """First-order bias-corrected (dR, dv, dp) at biases (b_a, b_g)."""
        dba = np.asarray(b_a, dtype=float) - self.b_a0
        dbg = np.asarray(b_g, dtype=float) - self.b_g0
        dR = self.dR @ so3_exp(self.J_r_bg @ dbg)
        dv = self.dv + self.J_v_ba @ dba + self.J_v_bg @ dbg
        dp = self.dp + self.J_p_ba @ dba + self.J_p_bg @ dbg
        return dR, dv, dp


def empty_delta(b_a0=None, b_g0=None) -> PreintegratedDelta:
    return PreintegratedDelta(
        b_a0=np.zeros(3) if b_a0 is None else np.asarray(b_a0, dtype=float),
        b_g0=np.zeros(3) if b_g0 is None else np.asarray(b_g0, dtype=float),
    )


def integrate(
    delta: PreintegratedDelta, f, w, dt: float,
    noise: ImuNoiseParams = ImuNoiseParams(),
) -> PreintegratedDelta:
    """Fold one fused IMU sample, specific force f and angular rate w
    held constant over dt, into the delta."""
    if not (0.0 < dt < 0.1):
        raise ValueError(f"dt out of range: {dt}")
    w = np.asarray(w, dtype=float) - delta.b_g0
    a = np.asarray(f, dtype=float) - delta.b_a0
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a))):
        raise ValueError("non-finite IMU sample")

    A, Jl, Jr, C = so3_series(w * dt)
    dR, dv, dp = delta.dR, delta.dv, delta.dp

    dp_new = dp + dv * dt + dR @ C @ a * dt**2
    dv_new = dv + dR @ Jl @ a * dt
    dR_new = dR @ A

    # first-order bias Jacobians
    Jla = Jl @ a
    Ca = C @ a
    J_r_bg = A.T @ delta.J_r_bg - Jr * dt
    J_v_ba = delta.J_v_ba - dR @ Jl * dt
    J_v_bg = delta.J_v_bg - dR @ skew(Jla) @ delta.J_r_bg * dt
    J_p_ba = delta.J_p_ba + delta.J_v_ba * dt - dR @ C * dt**2
    J_p_bg = delta.J_p_bg + delta.J_v_bg * dt - dR @ skew(Ca) @ delta.J_r_bg * dt**2

    # covariance over (rot, vel, pos)
    F = np.eye(9)
    F[0:3, 0:3] = A.T
    F[3:6, 0:3] = -dR @ skew(Jla) * dt
    F[6:9, 0:3] = -dR @ skew(Ca) * dt**2
    F[6:9, 3:6] = np.eye(3) * dt
    G = np.zeros((9, 6))
    G[0:3, 0:3] = Jr * dt
    G[3:6, 3:6] = dR * dt
    G[6:9, 3:6] = 0.5 * dR * dt**2
    Qd = np.zeros((6, 6))
    Qd[:3, :3] = np.eye(3) * noise.gyro_noise_density**2 / dt
    Qd[3:, 3:] = np.eye(3) * noise.acc_noise_density**2 / dt
    cov = F @ delta.cov @ F.T + G @ Qd @ G.T

    return replace(
        delta,
        dR=dR_new, dv=dv_new, dp=dp_new, dt=delta.dt + dt,
        J_r_bg=J_r_bg, J_v_ba=J_v_ba, J_v_bg=J_v_bg,
        J_p_ba=J_p_ba, J_p_bg=J_p_bg, cov=cov,
    )


def predict(x_i: NavState, delta: PreintegratedDelta, g=GRAVITY) -> NavState:
    """Forward state prediction across the preintegrated interval."""
    dR, dv, dp = delta.corrected(x_i.b_a, x_i.b_g)
    R_i, p_i, v_i = x_i.pose.R, x_i.pose.t, x_i.v
    dt = delta.dt
    R_j = R_i @ dR
    v_j = v_i + g * dt + R_i @ dv
    p_j = p_i + v_i * dt + 0.5 * g * dt**2 + R_i @ dp
    return NavState(pose=Pose(R_j, p_j), v=v_j, b_a=x_i.b_a, b_g=x_i.b_g)


def stack_deltas(deltas) -> PreintegratedDelta:
    """m deltas as one PreintegratedDelta whose fields carry a leading
    axis of length m (dt becomes an (m,) array)."""
    return PreintegratedDelta(**{
        f.name: np.stack([getattr(d, f.name) for d in deltas])
        for f in fields(PreintegratedDelta)
    })


def imu_residual_jacobians_many(
    x_i: NavStates, x_j: NavStates, delta: PreintegratedDelta, g=GRAVITY
):
    """Residuals and analytic Jacobians of m IMU factors at once: x_i,
    x_j hold their m start and end states, delta their stacked deltas
    (stack_deltas). Returns r (m, 15) ordered (rot, pos, vel, b_a, b_g)
    and J_i, J_j (m, 15, 15) with respect to the tangents of x_i and
    x_j (NavState.retract ordering: rot, trans, v, b_a, b_g)."""
    dba = x_i.b_a - delta.b_a0
    dbg = x_i.b_g - delta.b_g0
    # first-order bias correction, as PreintegratedDelta.corrected
    u = matvec_many(delta.J_r_bg, dbg)
    dR = delta.dR @ so3_exp_many(u)
    dv = (delta.dv + matvec_many(delta.J_v_ba, dba)
          + matvec_many(delta.J_v_bg, dbg))
    dp = (delta.dp + matvec_many(delta.J_p_ba, dba)
          + matvec_many(delta.J_p_bg, dbg))
    dt = delta.dt[:, None]
    RiT = np.swapaxes(x_i.R, -1, -2)
    E = RiT @ x_j.R
    r_rot = so3_log_many(np.swapaxes(dR, -1, -2) @ E)
    u_p = matvec_many(RiT, x_j.t - x_i.t - x_i.v * dt - 0.5 * g * dt**2)
    u_v = matvec_many(RiT, x_j.v - x_i.v - g * dt)
    r = np.concatenate([r_rot, u_p - dp, u_v - dv, x_j.b_a - x_i.b_a,
                        x_j.b_g - x_i.b_g], axis=-1)

    Jr_inv = so3_left_jacobian_inv_many(-r_rot)  # right-Jacobian inverse at r_rot
    Jl_inv = so3_left_jacobian_inv_many(r_rot)
    m = len(r)
    Ji = np.zeros((m, 15, 15))
    Jj = np.zeros((m, 15, 15))
    # rotation block; the bias correction enters through
    # Exp(J_r_bg (bg + d)) = Exp(u) Exp(Jr(u) J_r_bg d)
    Ji[:, 0:3, 0:3] = -Jr_inv @ np.swapaxes(E, -1, -2)
    Ji[:, 0:3, 12:15] = -Jl_inv @ so3_left_jacobian_many(-u) @ delta.J_r_bg
    Jj[:, 0:3, 0:3] = Jr_inv
    # position block
    Ji[:, 3:6, 0:3] = skew_many(u_p)
    Ji[:, 3:6, 3:6] = -RiT
    Ji[:, 3:6, 6:9] = -RiT * dt[..., None]
    Ji[:, 3:6, 9:12] = -delta.J_p_ba
    Ji[:, 3:6, 12:15] = -delta.J_p_bg
    Jj[:, 3:6, 3:6] = RiT
    # velocity block
    Ji[:, 6:9, 0:3] = skew_many(u_v)
    Ji[:, 6:9, 6:9] = -RiT
    Ji[:, 6:9, 9:12] = -delta.J_v_ba
    Ji[:, 6:9, 12:15] = -delta.J_v_bg
    Jj[:, 6:9, 6:9] = RiT
    # bias random-walk blocks
    Ji[:, 9:15, 9:15] = -np.eye(6)
    Jj[:, 9:15, 9:15] = np.eye(6)
    return r, Ji, Jj


def residual_covariance(
    delta: PreintegratedDelta, noise: ImuNoiseParams = ImuNoiseParams()
) -> np.ndarray:
    """15x15 covariance for the residual ordering (rot, pos, vel, ba, bg)."""
    out = np.eye(15) * 1e-12
    perm = np.array([0, 1, 2, 6, 7, 8, 3, 4, 5])  # (rot, vel, pos) -> (rot, pos, vel)
    out[:9, :9] += delta.cov[np.ix_(perm, perm)]
    dt = max(delta.dt, 1e-6)
    out[9:12, 9:12] += np.eye(3) * noise.acc_bias_rw_density**2 * dt
    out[12:15, 12:15] += np.eye(3) * noise.gyro_bias_rw_density**2 * dt
    return out


# ---------------------------------------------------------------------------
# gravity-aligned initialization
# ---------------------------------------------------------------------------

class NotStaticError(ValueError):
    pass


@dataclass(frozen=True)
class GravityInit:
    roll: float
    pitch: float
    yaw: float
    t0: np.ndarray  # world (UTM) position, m
    b_a0: np.ndarray
    b_g0: np.ndarray

    def rotation(self) -> np.ndarray:
        """World-from-base rotation Rz(yaw) Ry(pitch) Rx(roll)."""
        cr, sr = math.cos(self.roll), math.sin(self.roll)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        return Rz @ Ry @ Rx

    def pose(self) -> Pose:
        return Pose(self.rotation(), self.t0)


def gravity_align(F, W, t0, yaw: float = 0.0) -> GravityInit:
    """Tilt initialization from the averaged specific force F and angular
    rate W, (n, 3) arrays of static fused samples.

    roll = atan2(a_y, a_z), pitch = atan2(-a_x, sqrt(a_y^2 + a_z^2));
    yaw and the world position t0 come from GNSS.
    """
    F, W = np.asarray(F, dtype=float), np.asarray(W, dtype=float)
    if len(F) == 0:
        raise NotStaticError("no static samples")
    a_bar = F.mean(axis=0)
    if abs(np.linalg.norm(a_bar) - 9.81) > 1.0:
        raise NotStaticError(
            f"mean specific force {np.linalg.norm(a_bar):.2f} m/s^2 is not 1 g"
        )
    roll = math.atan2(a_bar[1], a_bar[2])
    pitch = math.atan2(-a_bar[0], math.hypot(a_bar[1], a_bar[2]))
    init = GravityInit(
        roll=roll, pitch=pitch, yaw=yaw,
        t0=np.asarray(t0, dtype=float).reshape(3),
        b_a0=np.zeros(3), b_g0=W.mean(axis=0),
    )
    # accelerometer bias: whatever the tilt model cannot explain
    b_a0 = a_bar - init.rotation().T @ np.array([0.0, 0.0, 9.81])
    return replace(init, b_a0=b_a0)
