"""Sliding-window factor-graph smoother.

Keyframe states are connected by prior, preintegrated-IMU, lidar
between and GNSS position factors; the joint nonlinear least-squares
problem is solved with Levenberg-Marquardt on the manifold (lift,
solve, retract) and old keyframes leave the window through a
Schur-complement marginal prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .geometry import (
    NavState,
    Pose,
    pose_compose,
    pose_inverse,
    quat_from_rotmat,
    se3_left_jacobian_inv,
    se3_log,
    skew,
    to_seconds,
)
from .preintegration import (
    ImuNoiseParams,
    PreintegratedDelta,
    imu_residual,
    imu_residual_jacobians,
    residual_covariance,
)

STATE_DIM = 15  # tangent (rot, trans, v, b_a, b_g), see NavState.retract
DEFAULT_BETWEEN_SIGMA_ROT = math.radians(0.5)
DEFAULT_BETWEEN_SIGMA_TRANS = 0.05
GNSS_GATE_CHI2 = 16.27  # chi-square 3 dof, 99.9%


@dataclass(frozen=True)
class GnssFix:
    stamp: int
    t: np.ndarray  # UTM position, m
    cov: np.ndarray  # 3x3 SPD

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(3)
        cov = np.asarray(self.cov, dtype=float).reshape(3, 3)
        if np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) <= 0:
            raise ValueError("GNSS covariance must be SPD")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class OptimizeReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool


def _sqrt_info(cov) -> np.ndarray:
    """A with A cov A^T = I, so whitened residual is A @ r."""
    return np.linalg.inv(np.linalg.cholesky(np.asarray(cov, dtype=float)))


def _decoupled(R) -> np.ndarray:
    """Maps the (rot, trans) retraction tangent of a pose to the right
    se3 perturbation of that pose."""
    out = np.eye(6)
    out[3:, 3:] = R.T
    return out


def se3_right_jacobian_inv(xi) -> np.ndarray:
    return se3_left_jacobian_inv(-np.asarray(xi, dtype=float))


def pose_adjoint(p: Pose) -> np.ndarray:
    ad = np.zeros((6, 6))
    ad[:3, :3] = p.R
    ad[3:, 3:] = p.R
    ad[3:, :3] = skew(p.t) @ p.R
    return ad


def residual_prior(x0: NavState, anchor: Pose, b_a0, b_g0) -> np.ndarray:
    """Anchors the first state: pose to the initialization pose,
    velocity to zero, biases to their initial estimates. The 15-vector
    is ordered like the state tangent (pose, v, b_a, b_g)."""
    r_pose = se3_log(pose_compose(pose_inverse(anchor), x0.pose))
    return np.concatenate(
        [r_pose, x0.v, x0.b_a - np.asarray(b_a0, dtype=float),
         x0.b_g - np.asarray(b_g0, dtype=float)]
    )


def residual_prior_jacobian(x0: NavState, anchor: Pose) -> np.ndarray:
    r_pose = se3_log(pose_compose(pose_inverse(anchor), x0.pose))
    J = np.eye(STATE_DIM)
    J[:6, :6] = se3_right_jacobian_inv(r_pose) @ _decoupled(x0.pose.R)
    return J


def residual_between(T_i: Pose, T_j: Pose, z: Pose) -> np.ndarray:
    """Log of the discrepancy between the state relative pose and the
    measured (lidar odometry) relative pose
    z = (smoothed pose of i at the time j is registered)^-1 (ICP pose of j).

    ICP at j starts from a prior predicted from the smoothed i and
    registers against a map built from smoothed poses, so z is taken
    relative to that smoothed pose."""
    rel = pose_compose(pose_inverse(T_i), T_j)
    return se3_log(pose_compose(pose_inverse(rel), z))


def residual_between_jacobians(T_i: Pose, T_j: Pose, z: Pose):
    r = residual_between(T_i, T_j, z)
    J_i = se3_right_jacobian_inv(r) @ pose_adjoint(pose_inverse(z)) @ _decoupled(T_i.R)
    J_j = -se3_left_jacobian_inv(r) @ _decoupled(T_j.R)
    return r, J_i, J_j


def residual_gnss(x_i: NavState, fix: GnssFix) -> np.ndarray:
    return x_i.pose.t - fix.t


class _Factor:
    """Base: concrete factors define nodes, residual and jacobians
    (already whitened)."""

    nodes: tuple

    def whitened(self, states):  # -> (residual, [jacobian per node])
        raise NotImplementedError


class PriorFactor(_Factor):
    kind = "prior"

    def __init__(self, node, anchor: Pose, b_a0, b_g0, cov):
        self.nodes = (node,)
        self.anchor = anchor
        self.b_a0 = np.asarray(b_a0, dtype=float).reshape(3)
        self.b_g0 = np.asarray(b_g0, dtype=float).reshape(3)
        self.sqrt_info = _sqrt_info(cov)

    def whitened(self, states):
        x = states[0]
        r = residual_prior(x, self.anchor, self.b_a0, self.b_g0)
        J = residual_prior_jacobian(x, self.anchor)
        return self.sqrt_info @ r, [self.sqrt_info @ J]


class BiasAnchorFactor(_Factor):
    """Weak unary prior on a node's IMU biases.

    Keeps the bias level observable after the initial prior has been
    marginalized away; without it the smoother can absorb accumulated
    odometry drift into the biases, which then extrapolates the drift
    into every later prediction.
    """

    kind = "bias_anchor"

    def __init__(self, node, b_a0, b_g0, sigma_ba=0.01, sigma_bg=0.001):
        self.nodes = (node,)
        self.b_a0 = np.asarray(b_a0, dtype=float).reshape(3)
        self.b_g0 = np.asarray(b_g0, dtype=float).reshape(3)
        self.sqrt_info = np.diag([1.0 / sigma_ba] * 3 + [1.0 / sigma_bg] * 3)

    def whitened(self, states):
        x = states[0]
        r = np.concatenate([x.b_a - self.b_a0, x.b_g - self.b_g0])
        J = np.zeros((6, STATE_DIM))
        J[:3, 9:12] = np.eye(3)
        J[3:, 12:15] = np.eye(3)
        return self.sqrt_info @ r, [self.sqrt_info @ J]


class ImuFactor(_Factor):
    kind = "imu"

    def __init__(self, i, j, delta: PreintegratedDelta,
                 noise: ImuNoiseParams = ImuNoiseParams()):
        self.nodes = (i, j)
        self.delta = delta
        self.sqrt_info = _sqrt_info(residual_covariance(delta, noise))

    def whitened(self, states):
        x_i, x_j = states
        r = imu_residual(x_i, x_j, self.delta)
        J_i, J_j = imu_residual_jacobians(x_i, x_j, self.delta)
        return self.sqrt_info @ r, [self.sqrt_info @ J_i, self.sqrt_info @ J_j]


class BetweenFactor(_Factor):
    """Lidar odometry between keyframes i and j, z as in
    residual_between."""

    kind = "between"

    def __init__(self, i, j, z: Pose, cov=None):
        self.nodes = (i, j)
        self.z = z
        if cov is None:
            cov = np.diag(
                [DEFAULT_BETWEEN_SIGMA_ROT**2] * 3
                + [DEFAULT_BETWEEN_SIGMA_TRANS**2] * 3
            )
        self.sqrt_info = _sqrt_info(cov)

    def whitened(self, states):
        x_i, x_j = states
        r, J_i, J_j = residual_between_jacobians(x_i.pose, x_j.pose, self.z)
        Z = np.zeros((6, STATE_DIM))
        Ji = Z.copy()
        Jj = Z.copy()
        Ji[:, :6] = J_i
        Jj[:, :6] = J_j
        return self.sqrt_info @ r, [self.sqrt_info @ Ji, self.sqrt_info @ Jj]


class GnssFactor(_Factor):
    kind = "gnss"

    def __init__(self, i, fix: GnssFix):
        self.nodes = (i,)
        self.fix = fix
        self.sqrt_info = _sqrt_info(fix.cov)

    def whitened(self, states):
        x = states[0]
        r = residual_gnss(x, self.fix)
        J = np.zeros((3, STATE_DIM))
        J[:, 3:6] = np.eye(3)
        return self.sqrt_info @ r, [self.sqrt_info @ J]


class LinearFactor(_Factor):
    """Marginal prior: residual r0 + Lambda * delta, delta the stacked
    local coordinates of the nodes relative to frozen linearization
    states. Already whitened."""

    kind = "linear"

    def __init__(self, nodes, lin_states, Lambda, r0):
        self.nodes = tuple(nodes)
        self.lin_states = list(lin_states)
        self.Lambda = np.asarray(Lambda, dtype=float)
        self.r0 = np.asarray(r0, dtype=float)

    def whitened(self, states):
        delta = np.concatenate(
            [lin.local(x) for lin, x in zip(self.lin_states, states)]
        )
        jacs = [
            self.Lambda[:, k * STATE_DIM:(k + 1) * STATE_DIM]
            for k in range(len(self.nodes))
        ]
        return self.r0 + self.Lambda @ delta, jacs


@dataclass
class FactorGraph:
    nodes: dict = field(default_factory=dict)  # keyframe index -> NavState
    stamps: dict = field(default_factory=dict)  # keyframe index -> ns
    factors: list = field(default_factory=list)

    def add_node(self, idx: int, state: NavState, stamp: int = 0):
        if idx in self.nodes:
            raise ValueError(f"node {idx} already exists")
        self.nodes[idx] = state
        self.stamps[idx] = int(stamp)

    def add_factor(self, factor: _Factor):
        for n in factor.nodes:
            if n not in self.nodes:
                raise ValueError(f"factor references missing node {n}")
        self.factors.append(factor)

    def maybe_add_gnss(self, idx: int, est_cov, fix: GnssFix) -> bool:
        """Add the GNSS factor unless it is a clear outlier.

        A fix that is more precise than the current position estimate is
        always informative and accepted. Otherwise the innovation is
        gated chi-square (3 dof, 99.9%) against the combined position
        covariance, rejecting fixes inconsistent with the estimate."""
        est_cov = np.asarray(est_cov, dtype=float)
        if float(np.trace(est_cov)) > float(np.trace(fix.cov)):
            self.add_factor(GnssFactor(idx, fix))
            return True
        r = self.nodes[idx].pose.t - fix.t
        S = est_cov + fix.cov + np.eye(3) * 1e-9
        if float(r @ np.linalg.solve(S, r)) > GNSS_GATE_CHI2:
            return False
        self.add_factor(GnssFactor(idx, fix))
        return True

    # -- optimization --------------------------------------------------

    def _order(self):
        return sorted(self.nodes)

    def normal_equations(self, states: dict, order, factors=None):
        """Gauss-Newton system (H, b, cost) of `factors` (default: all)
        at `states` over the nodes in `order`: H = J^T J and b = J^T r
        of the whitened residuals, cost = r^T r. Each factor is
        evaluated once and adds J_a^T J_c into the block of each of its
        node pairs; J itself is never formed."""
        factors = self.factors if factors is None else factors
        col = {idx: k * STATE_DIM for k, idx in enumerate(order)}
        n = STATE_DIM * len(order)
        H = np.zeros((n, n))
        b = np.zeros(n)
        cost = 0.0
        for f in factors:
            r, jacs = f.whitened([states[i] for i in f.nodes])
            cost += float(r @ r)
            cols = [col[i] for i in f.nodes]
            for a, J_a in zip(cols, jacs):
                b[a:a + STATE_DIM] += J_a.T @ r
                for c, J_c in zip(cols, jacs):
                    H[a:a + STATE_DIM, c:c + STATE_DIM] += J_a.T @ J_c
        return H, b, cost

    def optimize(self, max_iter: int = 50) -> OptimizeReport:
        order = self._order()
        self._check_connected(order)
        states = dict(self.nodes)
        H, b, cost = self.normal_equations(states, order)
        initial_cost = cost
        lam = 1e-4
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            accepted = False
            for _ in range(12):
                try:
                    # unchecked: a non-finite system fails here or at the cost test
                    factor = cho_factor(H + lam * np.eye(len(b)),
                                        check_finite=False)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                delta = cho_solve(factor, -b, check_finite=False)
                cand = {
                    idx: states[idx].retract(
                        delta[k * STATE_DIM:(k + 1) * STATE_DIM]
                    )
                    for k, idx in enumerate(order)
                }
                # the accepted candidate's system is the next linearization
                H_c, b_c, new_cost = self.normal_equations(cand, order)
                if new_cost <= cost:
                    step_norm = float(np.linalg.norm(delta))
                    states, H, b = cand, H_c, b_c
                    rel = (cost - new_cost) / max(cost, 1e-300)
                    cost = new_cost
                    lam = max(lam / 10.0, 1e-12)
                    accepted = True
                    if rel < 1e-9 or step_norm < 1e-10:
                        converged = True
                    break
                lam *= 10.0
            if not accepted or converged:
                break
        self.nodes.update(states)
        return OptimizeReport(
            iterations=iterations,
            initial_cost=initial_cost,
            final_cost=cost,
            converged=converged,
        )

    def _check_connected(self, order):
        if len(order) <= 1:
            return
        adj = {n: set() for n in order}
        for f in self.factors:
            for a in f.nodes:
                adj[a].update(f.nodes)
        seen = set()
        stack = [order[0]]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(adj[n] - seen)
        missing = set(order) - seen
        if missing:
            raise ValueError(f"disconnected nodes: {sorted(missing)}")

    # -- marginalization ----------------------------------------------

    def marginalize_oldest(self):
        order = self._order()
        oldest = order[0]
        conn = [f for f in self.factors if oldest in f.nodes]
        blanket = sorted({n for f in conn for n in f.nodes} - {oldest})
        if blanket:
            H, b, _ = self.normal_equations(
                self.nodes, [oldest] + blanket, conn
            )
            d = STATE_DIM
            H_mm = H[:d, :d]
            H_mb = H[:d, d:]
            H_bb = H[d:, d:]
            b_m, b_b = b[:d], b[d:]
            H_mm_inv = np.linalg.pinv(H_mm, rcond=1e-12)
            H_t = H_bb - H_mb.T @ H_mm_inv @ H_mb
            b_t = b_b - H_mb.T @ H_mm_inv @ b_m
            vals, vecs = np.linalg.eigh(0.5 * (H_t + H_t.T))
            keep = vals > max(vals.max(), 1.0) * 1e-12
            s = np.sqrt(vals[keep])
            Lambda = s[:, None] * vecs[:, keep].T
            r0 = (vecs[:, keep].T @ b_t) / s
            self.factors.append(
                LinearFactor(
                    blanket, [self.nodes[n] for n in blanket], Lambda, r0
                )
            )
        for f in conn:
            self.factors.remove(f)
        del self.nodes[oldest]
        del self.stamps[oldest]


def format_tum_line(stamp_ns: int, pose: Pose) -> str:
    q = quat_from_rotmat(pose.R)  # (w, x, y, z)
    vals = [to_seconds(stamp_ns), *pose.t, q[1], q[2], q[3], q[0]]
    return " ".join(f"{v:.9f}" for v in vals)


def write_tum(path, stamps, poses) -> None:
    """Trajectory file: one 't x y z qx qy qz qw' line per pose."""
    with open(path, "w") as fh:
        for s, p in zip(stamps, poses):
            fh.write(format_tum_line(s, p) + "\n")
