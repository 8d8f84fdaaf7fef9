"""On-manifold IMU preintegration and gravity-aligned initialization.

Accumulates fused IMU samples between keyframes into a relative-motion
pseudo-measurement (dR, dv, dp) that is independent of the absolute start
state, with first-order bias Jacobians and a propagated 9x9 noise
covariance. Within each sample interval the measurement is held constant
and the propagation uses the exact constant-input solution (left-Jacobian
and double-integral correction terms), so the coarse-rate result matches a
fine-step integrator to the integrator's own error. `integrate` folds
a block of samples, such as one keyframe interval, in one call and
returns the delta at every row boundary; `PreintegratedDelta.take`
picks rows of such a block. `_corrected` is the one first-order
bias correction of stacked deltas (Forster et al., T-RO 2017), shared by
`predict`, which predicts a state across every row of a block, and the
IMU factor's residual. `gravity_align` gives the anchor's attitude and
biases from static samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import (
    NavState,
    NavStates,
    matvec_many,
    skew_many,
    so3_exp_many,
    so3_left_jacobian_inv_many,
    so3_left_jacobian_many,
    so3_log_many,
    so3_series_many,
)

GRAVITY = np.array([0.0, 0.0, -9.81])
MAX_STEP_S = 0.1  # integrate takes samples with 0 < dt < MAX_STEP_S


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

    def take(self, rows) -> "PreintegratedDelta":
        """Copies of `rows` of a delta in the `stack_deltas` layout: an
        index array gives a stacked delta, an integer one delta."""
        return PreintegratedDelta(**{
            f.name: np.take(getattr(self, f.name), rows, axis=0)
            for f in fields(PreintegratedDelta)
        })


def _running_sum(start, *steps) -> np.ndarray:
    """`start` and its running sum after each row, shape (m + 1, ...):
    out[k + 1] = (out[k] + steps[0][k]) + steps[1][k] + ..., added in
    exactly that order, as a row-by-row loop adds them."""
    start = np.asarray(start, dtype=float)
    n, m = len(steps), len(steps[0])
    terms = np.empty((1 + n * m,) + start.shape)
    terms[0] = start
    for i, step in enumerate(steps):
        terms[1 + i::n] = step
    return np.cumsum(terms, axis=0)[::n]


def integrate(
    delta: PreintegratedDelta, f, w, dt,
    noise: ImuNoiseParams = ImuNoiseParams(),
) -> PreintegratedDelta:
    """Fold a block of fused IMU samples into the delta: f and w of
    shape (m, 3) and dt of shape (m,), m >= 0, each row's specific force
    and angular rate held constant over its dt. Returns the m + 1 deltas
    at the block's row boundaries in the `stack_deltas` layout: row 0 is
    `delta`, row k + 1 the delta after input row k. The SO(3) series of
    every row come from one batched call, dR, J_r_bg and the covariance
    step row by row, and the other terms are running sums added in the
    order of a row-by-row loop."""
    dt = np.asarray(dt, dtype=float)
    if dt.ndim != 1:
        raise ValueError(f"dt needs shape (m,), not {dt.shape}")
    out = ~((dt > 0.0) & (dt < MAX_STEP_S))
    if out.any():
        raise ValueError(f"dt out of range: {dt[out][0]}")
    f, w = np.asarray(f, dtype=float), np.asarray(w, dtype=float)
    m = len(dt)
    if not f.shape == w.shape == (m, 3):
        raise ValueError("f, w and dt need one row per sample")
    w, a = w - delta.b_g0, f - delta.b_a0
    if not (np.isfinite(w).all() and np.isfinite(a).all()):
        raise ValueError("non-finite IMU sample")

    A, Jl, Jr, C = so3_series_many(w * dt[:, None])
    At = np.swapaxes(A, 1, 2)
    Jr_dt = Jr * dt[:, None, None]
    dR = np.empty((m + 1, 3, 3))
    J_r_bg = np.empty((m + 1, 3, 3))
    dR[0], J_r_bg[0] = delta.dR, delta.J_r_bg
    for k in range(m):
        dR[k + 1] = dR[k] @ A[k]
        J_r_bg[k + 1] = At[k] @ J_r_bg[k] - Jr_dt[k]
    R, Jrb = dR[:-1], J_r_bg[:-1]  # at the start of each row

    h, h2 = dt[:, None], dt[:, None] ** 2  # per row, for vectors
    H, H2 = h[..., None], h2[..., None]  # for matrices
    RJl, RC = R @ Jl, R @ C
    RS_v = R @ skew_many(matvec_many(Jl, a))
    RS_p = R @ skew_many(matvec_many(C, a))
    dv = _running_sum(delta.dv, matvec_many(RJl, a) * h)
    dp = _running_sum(delta.dp, dv[:-1] * h, matvec_many(RC, a) * h2)

    # first-order bias Jacobians
    J_v_ba = _running_sum(delta.J_v_ba, -(RJl * H))
    J_v_bg = _running_sum(delta.J_v_bg, -((RS_v @ Jrb) * H))
    J_p_ba = _running_sum(delta.J_p_ba, J_v_ba[:-1] * H, -(RC * H2))
    J_p_bg = _running_sum(delta.J_p_bg, J_v_bg[:-1] * H, -((RS_p @ Jrb) * H2))

    # covariance over (rot, vel, pos)
    F = np.tile(np.eye(9), (m, 1, 1))
    F[:, 0:3, 0:3] = At
    F[:, 3:6, 0:3] = -RS_v * H
    F[:, 6:9, 0:3] = -RS_p * H2
    F[:, 6:9, 3:6] = np.eye(3) * H
    G = np.zeros((m, 9, 6))
    G[:, 0:3, 0:3] = Jr_dt
    G[:, 3:6, 3:6] = R * H
    G[:, 6:9, 3:6] = 0.5 * R * H2
    Qd = np.zeros((m, 6, 6))
    Qd[:, [0, 1, 2], [0, 1, 2]] = noise.gyro_noise_density**2 / h
    Qd[:, [3, 4, 5], [3, 4, 5]] = noise.acc_noise_density**2 / h
    GQG = G @ Qd @ np.swapaxes(G, 1, 2)
    cov = np.empty((m + 1, 9, 9))
    cov[0] = delta.cov
    for k in range(m):
        cov[k + 1] = F[k] @ cov[k] @ F[k].T + GQG[k]

    return PreintegratedDelta(
        dR=dR, dv=dv, dp=dp, dt=_running_sum(delta.dt, dt), J_r_bg=J_r_bg,
        J_v_ba=J_v_ba, J_v_bg=J_v_bg, J_p_ba=J_p_ba, J_p_bg=J_p_bg, cov=cov,
        b_a0=np.tile(delta.b_a0, (m + 1, 1)), b_g0=np.tile(delta.b_g0, (m + 1, 1)))


def stack_deltas(deltas) -> PreintegratedDelta:
    """m deltas as one PreintegratedDelta whose fields carry a leading
    axis of length m (dt becomes an (m,) array)."""
    return PreintegratedDelta(**{
        f.name: np.stack([getattr(d, f.name) for d in deltas])
        for f in fields(PreintegratedDelta)
    })


def _corrected(delta: PreintegratedDelta, b_a, b_g):
    """First-order bias-corrected (dR, dv, dp) of stacked deltas at
    biases (b_a, b_g), and u = J_r_bg (b_g - b_g0), the rotation
    correction's tangent."""
    dba = b_a - delta.b_a0
    dbg = b_g - delta.b_g0
    u = matvec_many(delta.J_r_bg, dbg)
    dR = delta.dR @ so3_exp_many(u)
    dv = delta.dv + matvec_many(delta.J_v_ba, dba) + matvec_many(delta.J_v_bg, dbg)
    dp = delta.dp + matvec_many(delta.J_p_ba, dba) + matvec_many(delta.J_p_bg, dbg)
    return dR, dv, dp, u


def predict(x_i: NavState, delta: PreintegratedDelta, g=GRAVITY) -> NavStates:
    """The states predicted from x_i across each row of stacked deltas
    (stack_deltas), bias corrected at x_i's biases, which they keep."""
    dR, dv, dp, _ = _corrected(delta, x_i.b_a, x_i.b_g)
    R_i, p_i, v_i = x_i.pose.R, x_i.pose.t, x_i.v
    dt = delta.dt[:, None]
    return NavStates(R_i @ dR, p_i + v_i * dt + 0.5 * g * dt**2 + matvec_many(R_i, dp),
                     v_i + g * dt + matvec_many(R_i, dv),
                     np.tile(x_i.b_a, (len(dt), 1)), np.tile(x_i.b_g, (len(dt), 1)))


def imu_residual_jacobians_many(
    x_i: NavStates, x_j: NavStates, delta: PreintegratedDelta, g=GRAVITY
):
    """Residuals and analytic Jacobians of m IMU factors at once: x_i,
    x_j hold their m start and end states, delta their stacked deltas
    (stack_deltas). Returns r (m, 15) ordered (rot, pos, vel, b_a, b_g)
    and J_i, J_j (m, 15, 15) with respect to the tangents of x_i and
    x_j (NavStates.retract ordering: rot, trans, v, b_a, b_g)."""
    dR, dv, dp, u = _corrected(delta, x_i.b_a, x_i.b_g)
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


def rotation_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """World-from-base rotation Rz(yaw) Ry(pitch) Rx(roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return Rz @ Ry @ Rx


def gravity_align(F, W, yaw: float = 0.0):
    """Tilt initialization from the averaged specific force F and angular
    rate W, (n, 3) arrays of static fused samples. Returns the
    world-from-base rotation R and the biases (b_a0, b_g0).

    roll = atan2(a_y, a_z), pitch = atan2(-a_x, sqrt(a_y^2 + a_z^2));
    yaw comes from GNSS.
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
    R = rotation_rpy(roll, pitch, yaw)
    # accelerometer bias: whatever the tilt model cannot explain
    return R, a_bar - R.T @ np.array([0.0, 0.0, 9.81]), W.mean(axis=0)
