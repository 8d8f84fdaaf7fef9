"""SE(3) algebra shared by every other module.

Every SO(3)/SE(3) series (Exp, the scale of Log, J_l, J_r, the double
integral C and both J_l^-1) reads its coefficients of the angle from one
kernel, `_series_coefficients`, exact to rounding at every angle.

Conventions:
    - Quaternions are [w, x, y, z] with non-negative scalar part after
      canonicalization.
    - se(3) tangent vectors are ordered (rotation, translation).
    - Timestamps are integer nanoseconds (plain ints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NS_PER_S = 1_000_000_000


def to_nanos(seconds: float) -> int:
    return int(round(seconds * NS_PER_S))


class DegenerateInputError(ValueError):
    """Raised when an operation hits a geometric singularity (e.g. angle pi)."""


# ---------------------------------------------------------------------------
# skew / SO(3)
# ---------------------------------------------------------------------------

def matvec_many(A, x) -> np.ndarray:
    """Stacked matrix-vector products A[k] @ x[k], shape (..., a)."""
    return (A @ np.asarray(x)[..., None])[..., 0]


def skew_many(v) -> np.ndarray:
    """Stacked skew matrices of (..., 3) vectors, shape (..., 3, 3):
    skew_many(v) @ b == cross(v, b)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


# Every SO(3) and SE(3) series below is a sum of I, K = skew(phi) and
# K @ K (K^3 = -theta^2 K, theta = |phi|) weighted by coefficients of
# theta: row k = 1..5 of the kernel's table is
#     A_k = sum_n (-1)^n theta^2n / (2n + k)!,
# that is sin/theta, (1 - cos)/theta^2, (theta - sin)/theta^3,
# (cos - 1 + theta^2/2)/theta^4 and (sin - theta + theta^3/6)/theta^5;
# row 0 is
#     B = (1 - (theta/2) cot(theta/2)) / theta^2
#       = sum_n |Bernoulli_(2n+2)| theta^2n / (2n + 2)!.
# Below the switch angle the kernel sums the first _SERIES_TERMS terms
# (the rest is under 1e-17 of the sum there); at and above it, the
# closed forms, whose cancellation there costs the maps only their last
# few bits.
_SERIES_SWITCH = 0.5
_SERIES_TERMS = 8  # a power of 2, for Estrin's scheme
_SERIES_TAYLOR = np.array(
    [[1 / 12, 1 / 720, 1 / 30240, 1 / 1209600, 1 / 47900160, 691 / 1307674368000,
      1 / 74724249600, 3617 / 10670622842880000]]
    + [[(-1) ** n / math.factorial(2 * n + k) for n in range(_SERIES_TERMS)]
       for k in range(1, 6)])[:, :, None]  # (row, term, 1)


def _series_coefficients(theta, rows) -> np.ndarray:
    """The kernel's `rows` (0 for B, k for A_k) at stacked angles theta
    (m,), shape (len(rows), m): the table in theta^2 by Estrin's scheme
    below the switch, the closed forms of one sin and cos at and above
    it."""
    small = theta < _SERIES_SWITCH
    n_small = np.count_nonzero(small)
    if 0 < n_small < len(theta):  # each part takes one way
        out = np.empty((len(rows), len(theta)))
        for part in (small, ~small):
            out[:, part] = _series_coefficients(theta[part], rows)
        return out
    t, t2 = theta, theta * theta
    if n_small:
        p, x = _SERIES_TAYLOR[list(rows)], t2
        while p.shape[1] > 1:  # pair the terms, square x
            p, x = p[:, 0::2] + p[:, 1::2] * x, x * x
        return p[:, 0]
    s, c = np.sin(t), np.cos(t)
    forms = {
        0: lambda: (1.0 - 0.5 * t * s / (1.0 - c)) / t2,
        1: lambda: s / t,
        2: lambda: (1.0 - c) / t2,
        3: lambda: (t - s) / (t2 * t),
        4: lambda: (c - 1.0 + 0.5 * t2) / (t2 * t2),
        5: lambda: (s - t + t2 * t / 6.0) / (t2 * t2 * t),
    }
    return np.array([forms[k]() for k in rows])


def _so3_terms_many(phi, rows):
    """(K, K @ K, the kernel's rows at theta) of stacked (m, 3) rotation
    vectors, each row shaped (m, 1, 1) to scale K."""
    phi = np.asarray(phi, dtype=float)
    K = skew_many(phi)
    coeffs = _series_coefficients(np.linalg.norm(phi, axis=-1), rows)
    return K, K @ K, coeffs[..., None, None]


def so3_exp(phi) -> np.ndarray:
    """Rotation matrix of one rotation vector; see so3_exp_many."""
    return so3_exp_many(np.asarray(phi, dtype=float)[None])[0]


def so3_exp_many(phi) -> np.ndarray:
    """Rotations Exp(phi) = I + A_1 K + A_2 K^2 (Rodrigues) of stacked
    (m, 3) rotation vectors, shape (m, 3, 3)."""
    K, KK, (a1, a2) = _so3_terms_many(phi, (1, 2))
    return np.eye(3) + a1 * K + a2 * KK


def so3_log(R) -> np.ndarray:
    """Rotation vector of R; see so3_log_many."""
    return so3_log_many(np.asarray(R, dtype=float)[None])[0]


# The log is two-valued at a half-turn (phi and -phi), and closer to it
# than this a perturbation of R of the same size flips the result's sign.
LOG_PI_MARGIN = 1e-8


def so3_log_many(R) -> np.ndarray:
    """Rotation vectors of stacked (m, 3, 3) rotations, shape (m, 3).

    The angle is atan2(sin, cos), accurate over the whole range. Below a
    quarter turn the axis comes from the antisymmetric part of R (2 sin
    theta times the axis, scaled by theta / (2 sin theta) = 1 / (2 A_1));
    above it from the largest column of the symmetric part
    R + R^T + (1 - tr R) I (2 (1 - cos theta) times axis axis^T), with
    the sign of the antisymmetric part. Neither divides by a small
    number, so no angle loses precision. Requires every angle
    <= pi - LOG_PI_MARGIN."""
    R = np.asarray(R, dtype=float)
    w = R[:, (2, 0, 1), (1, 2, 0)] - R[:, (1, 2, 0), (2, 0, 1)]
    s = 0.5 * np.sqrt(np.sum(w * w, axis=-1))
    c = 0.5 * (R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2] - 1.0)
    theta = np.arctan2(s, c)
    if (theta > math.pi - LOG_PI_MARGIN).any():
        raise DegenerateInputError("rotation angle too close to pi for log map")
    out = (0.5 / _series_coefficients(theta, (1,))[0])[:, None] * w
    wide = c < 0.0
    if wide.any():
        Rw = R[wide]
        B = Rw + np.swapaxes(Rw, -1, -2)
        B[:, [0, 1, 2], [0, 1, 2]] -= 2.0 * c[wide, None]
        k = np.argmax(np.diagonal(B, axis1=-2, axis2=-1), axis=-1)
        axis = B[np.arange(len(k)), :, k]
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        axis *= np.where(np.sum(axis * w[wide], axis=-1) < 0.0, -1.0, 1.0)[:, None]
        out[wide] = theta[wide, None] * axis
    return out


def so3_series_many(phi):
    """(Exp, J_l, J_r, C) of stacked (m, 3) rotation vectors from one
    norm, skew, K @ K and kernel call, each (m, 3, 3): the exponential
    I + A_1 K + A_2 K^2, the left Jacobian J_l = integral_0^1 Exp(s*phi)
    ds = I + A_2 K + A_3 K^2, the right Jacobian J_r = J_l(-phi) and the
    double integral C = integral_0^1 integral_0^a Exp(u*phi) du da =
    I/2 + A_3 K + A_4 K^2."""
    K, KK, (a1, a2, a3, a4) = _so3_terms_many(phi, (1, 2, 3, 4))
    eye = np.eye(3)
    return (eye + a1 * K + a2 * KK, eye + a2 * K + a3 * KK,
            eye - a2 * K + a3 * KK, 0.5 * eye + a3 * K + a4 * KK)


def so3_left_jacobian_many(phi) -> np.ndarray:
    """Left Jacobians J_l(phi) = integral_0^1 Exp(s*phi) ds of stacked
    (m, 3) vectors, shape (m, 3, 3)."""
    K, KK, (a2, a3) = _so3_terms_many(phi, (2, 3))
    return np.eye(3) + a2 * K + a3 * KK


def so3_left_jacobian_inv_many(phi) -> np.ndarray:
    """Inverse left Jacobians I - K/2 + B K^2 of stacked (m, 3) vectors,
    (m, 3, 3); the inverse right Jacobian at phi is the one at -phi."""
    K, KK, (b,) = _so3_terms_many(phi, (0,))
    return np.eye(3) - 0.5 * K + b * KK


def _project_rotation(R) -> np.ndarray:
    """Nearest rotation matrix by polar decomposition (SVD)."""
    U, _, Vt = np.linalg.svd(R)
    D = np.eye(3)
    D[2, 2] = np.sign(np.linalg.det(U @ Vt))
    return U @ D @ Vt


# ---------------------------------------------------------------------------
# quaternions [w, x, y, z]
# ---------------------------------------------------------------------------

# the numerators of (w, x, y, z) in each branch of `quat_from_rotmat_many`,
# as columns of [R21 - R12, R02 - R20, R10 - R01, R01 + R10, R02 + R20,
# R12 + R21]; the branch's own component (-1) is s / 4
_QUAT_NUMERATORS = np.array([[-1, 0, 1, 2], [0, -1, 3, 4], [1, 3, -1, 5], [2, 4, 5, -1]])


def quat_from_rotmat_many(R) -> np.ndarray:
    """(n, 4) unit quaternions [w, x, y, z], w >= 0, of (n, 3, 3)
    rotations. Each is built from the largest of the trace and the
    diagonal entries, so no division is by a small number. Each norm is
    a 1x4 @ 4x1 matmul, which numpy hands to the BLAS dot that
    `np.linalg.norm` of one vector calls, so it has the same bits."""
    R = np.asarray(R, dtype=float)
    d0, d1, d2 = R[:, 0, 0], R[:, 1, 1], R[:, 2, 2]
    trace = d0 + d1 + d2
    branch = np.where(trace > 0.0, 0,
                      np.where((d0 > d1) & (d0 > d2), 1, np.where(d1 > d2, 2, 3)))
    radicand = np.choose(branch, [trace + 1.0, 1.0 + d0 - d1 - d2,
                                  1.0 + d1 - d0 - d2, 1.0 + d2 - d0 - d1])
    s = np.sqrt(radicand) * 2.0
    num = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                    R[:, 1, 0] - R[:, 0, 1], R[:, 0, 1] + R[:, 1, 0],
                    R[:, 0, 2] + R[:, 2, 0], R[:, 1, 2] + R[:, 2, 1]], axis=1)
    rows = np.arange(len(R))
    q = num[rows[:, None], _QUAT_NUMERATORS[branch]] / s[:, None]
    q[rows, branch] = 0.25 * s
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    q[q[:, 0] < 0.0] *= -1.0
    return q


def quat_to_rotmat_many(q) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of quaternions [w, x, y, z] (..., 4)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(w.shape + (3, 3))


# ---------------------------------------------------------------------------
# Pose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid transform: p_out = R @ p_in + t."""

    ROTATION_TOLERANCE = 1e-7  # |R R^T - I| (Frobenius) above which R is projected

    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        t = np.asarray(self.t, dtype=float).reshape(3)
        defect = np.linalg.norm(R @ R.T - np.eye(3))
        if defect > self.ROTATION_TOLERANCE:
            R = _project_rotation(R)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.R.T + self.t


def _derived_pose(R: np.ndarray, t: np.ndarray) -> Pose:
    """A Pose from a float (3, 3) R and (3,) t derived from checked
    poses or from the exponential map, so R is orthonormal to rounding:
    it skips the check (and projection) that `Pose(...)` runs."""
    pose = object.__new__(Pose)
    object.__setattr__(pose, "R", R)
    object.__setattr__(pose, "t", t)
    return pose


def pose_compose(a: Pose, b: Pose) -> Pose:
    return _derived_pose(a.R @ b.R, a.R @ b.t + a.t)


def pose_inverse(a: Pose) -> Pose:
    Rt = a.R.T
    return _derived_pose(Rt, -(Rt @ a.t))


def se3_exp(xi) -> Pose:
    """Exponential map; xi = (phi, rho) ordered rotation-first."""
    R, t = se3_exp_many(np.asarray(xi, dtype=float)[None])
    return _derived_pose(R[0], t[0])


def se3_exp_many(xi):
    """Poses (R (m, 3, 3), t (m, 3)) of stacked (m, 6) twists. The pose
    at fraction eta of a constant twist xi is se3_exp(eta * xi), the
    screw motion that deskewing and the simulator's scans share."""
    xi = np.asarray(xi, dtype=float)
    K, KK, (a1, a2, a3) = _so3_terms_many(xi[:, :3], (1, 2, 3))
    eye = np.eye(3)
    return (eye + a1 * K + a2 * KK,
            matvec_many(eye + a2 * K + a3 * KK, xi[:, 3:]))


def se3_log(p: Pose) -> np.ndarray:
    return se3_log_many(p.R[None], p.t[None])[0]


def se3_log_many(R, t) -> np.ndarray:
    """Twists (m, 6) of the poses (R (m, 3, 3), t (m, 3))."""
    phi = so3_log_many(R)
    rho = matvec_many(so3_left_jacobian_inv_many(phi), t)
    return np.concatenate([phi, rho], axis=-1)


def se3_left_jacobian_inv_many(xi) -> np.ndarray:
    """Inverse left Jacobians of SE(3) in (rot, trans) ordering of
    stacked (m, 6) twists, shape (m, 6, 6); the inverse right Jacobian
    at xi is the one at -xi. Its lower-left block is -J^-1 Q J^-1, with
    Q the second-order block of the left Jacobian (Barfoot & Furgale)."""
    xi = np.asarray(xi, dtype=float)
    K, KK, (b, a3, a4, a5) = _so3_terms_many(xi[:, :3], (0, 3, 4, 5))
    rx = skew_many(xi[:, 3:])
    Kr, rK = K @ rx, rx @ K
    KrK = Kr @ K
    Q = (0.5 * rx + a3 * (Kr + rK + KrK) + a4 * (KK @ rx + rx @ KK - 3.0 * KrK)
         + 0.5 * (a4 - 3.0 * a5) * (Kr @ KK + KK @ rK))
    Jinv = np.eye(3) - 0.5 * K + b * KK
    out = np.zeros((len(xi), 6, 6))
    out[:, :3, :3] = Jinv
    out[:, 3:, 3:] = Jinv
    out[:, 3:, :3] = -Jinv @ Q @ Jinv
    return out


@dataclass(frozen=True)
class NavState:
    """Smoothed vehicle state: pose, world-frame velocity and the
    accelerometer / gyro biases."""

    pose: Pose = field(default_factory=Pose.identity)
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_g: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("v", "b_a", "b_g"):
            val = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if not np.all(np.isfinite(val)):
                raise ValueError(f"non-finite {name}")
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class NavStates:
    """m NavStates as stacked arrays: R (m, 3, 3); t, v, b_a, b_g (m, 3)."""

    R: np.ndarray
    t: np.ndarray
    v: np.ndarray
    b_a: np.ndarray
    b_g: np.ndarray

    @staticmethod
    def stack(states) -> "NavStates":
        return NavStates(
            np.stack([s.pose.R for s in states]),
            np.stack([s.pose.t for s in states]),
            np.stack([s.v for s in states]),
            np.stack([s.b_a for s in states]),
            np.stack([s.b_g for s in states]),
        )

    def __getitem__(self, k) -> NavState:
        return NavState(pose=Pose(self.R[k], self.t[k]), v=self.v[k],
                        b_a=self.b_a[k], b_g=self.b_g[k])

    def unstack(self) -> list:
        return [self[k] for k in range(len(self.R))]

    def take(self, idx) -> "NavStates":
        return NavStates(self.R[idx], self.t[idx], self.v[idx],
                         self.b_a[idx], self.b_g[idx])

    def retract(self, delta) -> "NavStates":
        """Apply (m, 15) tangent updates ordered (rot, trans, v, b_a,
        b_g); rotation via right perturbation, translation and vector
        blocks additive."""
        return NavStates(
            self.R @ so3_exp_many(delta[:, 0:3]),
            self.t + delta[:, 3:6],
            self.v + delta[:, 6:9],
            self.b_a + delta[:, 9:12],
            self.b_g + delta[:, 12:15],
        )

    def local(self, other: "NavStates") -> np.ndarray:
        """Tangents (m, 15) of other relative to self, the inverse of
        retract."""
        return np.concatenate([
            so3_log_many(np.swapaxes(self.R, -1, -2) @ other.R),
            other.t - self.t,
            other.v - self.v,
            other.b_a - self.b_a,
            other.b_g - self.b_g,
        ], axis=-1)
