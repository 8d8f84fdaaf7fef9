"""Sliding-window factor-graph smoother.

Keyframe states are connected by prior, preintegrated-IMU, lidar
between and GNSS position factors (the fixes arrive as one columnar
`GnssStream`); the joint nonlinear least-squares problem is solved with
Levenberg-Marquardt on the manifold (lift, solve, retract) and old
keyframes leave the window through a Schur-complement marginal prior.
Every pass over the factors evaluates each factor kind in one vectorized
batch on stacked states.

Every linear system (the LM step, the Schur complement, the marginal
prior's square root, and the GNSS gate's position covariance and
innovation test) is solved by one Cholesky factorization, which raises
`LinAlgError` unless the system is positive definite. Each window the
pipeline builds is: node 0 has a full-rank prior, and every later node
a bias anchor and an IMU factor whose Jacobian in the node's state has
full rank 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .geometry import (
    NavState,
    NavStates,
    Pose,
    matvec_many,
    se3_left_jacobian_inv_many,
    se3_log_many,
    skew_many,
)
from .preintegration import (
    ImuNoiseParams,
    PreintegratedDelta,
    imu_residual_jacobians_many,
    residual_covariance,
    stack_deltas,
)

STATE_DIM = 15  # tangent (rot, trans, v, b_a, b_g), see NavStates.retract
GNSS_GATE_CHI2 = 16.27  # chi-square 3 dof, 99.9%


@dataclass(frozen=True)
class GnssStream:
    """GNSS fixes as columns: stamps (N,) int64 ns, antenna positions t
    (N, 3) m (UTM) and isotropic position variances var (N,) m^2, so fix
    k has covariance var[k] * I. A variance below that of a 1 um sigma is
    raised to it on construction, so a noise-free fix keeps a factorable
    covariance."""

    stamps: np.ndarray
    t: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        var = np.asarray(self.var, dtype=float).reshape(-1)
        object.__setattr__(self, "stamps", np.asarray(self.stamps, np.int64).reshape(-1))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "var", np.maximum(var, 1e-12))

    def __len__(self) -> int:
        return len(self.stamps)

    def take(self, rows) -> "GnssStream":
        """The stream restricted to `rows` (an index or boolean mask)."""
        return GnssStream(self.stamps[rows], self.t[rows], self.var[rows])

    def cov(self, row: int) -> np.ndarray:
        """The 3x3 covariance of fix `row`."""
        return np.eye(3) * self.var[row]


@dataclass(frozen=True)
class OptimizeReport:
    iterations: int  # accepted LM steps
    initial_cost: float
    final_cost: float
    converged: bool
    rejected: int  # trials whose cost rose


# Levenberg-Marquardt stop rules (Madsen, Nielsen & Tingleff 2004): the
# decrease the linear model predicts for a step below this share of the
# cost, or a gradient J^T r with no entry above LM_GRADIENT_TOL.
LM_FUNCTION_TOL = 1e-12
LM_GRADIENT_TOL = 1e-10
LM_MAX_TRIALS = 12  # consecutive rejected or unfactorable trials


def _sqrt_info(cov) -> np.ndarray:
    """A with A cov A^T = I, so whitened residual is A @ r."""
    return np.linalg.inv(np.linalg.cholesky(np.asarray(cov, dtype=float)))


def _cholesky_solve(H, B):
    """(c, H^-1 B) of the symmetric positive-definite H, whose upper
    triangle alone is read: c's upper triangle is the upper Cholesky
    factor U of H (H = U^T U), the rest of c is not cleared. Raises
    LinAlgError unless H is positive definite to working precision,
    which a non-finite entry fails too."""
    c, lower = cho_factor(H, check_finite=False)
    return c, cho_solve((c, lower), B, check_finite=False)


def _tr(A) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def _decoupled(J, R) -> np.ndarray:
    """J (m, 6, 6) with respect to the (rot, trans) retraction tangent of
    poses with rotations R, given J with respect to their right se3
    perturbation: the trans columns turn by R^T."""
    out = J.copy()
    out[:, :, 3:] = J[:, :, 3:] @ _tr(R)
    return out


def _prior_many(x: NavStates, anchor_R, anchor_t, b_a0, b_g0):
    """Prior residuals r (m, 15) and Jacobians J (m, 15, 15) of m
    states. Each anchors its state: pose to the anchor pose (anchor_R,
    anchor_t), velocity to zero, biases to b_a0, b_g0; r is ordered like
    the state tangent (pose, v, b_a, b_g)."""
    RaT = _tr(anchor_R)
    r_pose = se3_log_many(RaT @ x.R, matvec_many(RaT, x.t - anchor_t))
    r = np.concatenate([r_pose, x.v, x.b_a - b_a0, x.b_g - b_g0], axis=-1)
    J = np.tile(np.eye(STATE_DIM), (len(r), 1, 1))
    J[:, :6, :6] = _decoupled(se3_left_jacobian_inv_many(-r_pose), x.R)
    return r, J


def _between_many(R_i, t_i, R_j, t_j, z_R, z_t):
    """Between residuals r (m, 6) and Jacobians J_i, J_j (m, 6, 6) of m
    pose pairs: r is the log of the discrepancy between the relative
    pose T_i^-1 T_j of the states and the measured (lidar odometry)
    relative pose z = (z_R, z_t)."""
    RjT = _tr(R_j)
    # (T_i^-1 T_j)^-1 z
    r = se3_log_many(RjT @ R_i @ z_R,
                     matvec_many(RjT, matvec_many(R_i, z_t) + t_i - t_j))
    # adjoint of z^-1 = (z_R^T, -z_R^T z_t)
    ad = np.zeros((len(r), 6, 6))
    ad[:, :3, :3] = _tr(z_R)
    ad[:, 3:, 3:] = _tr(z_R)
    ad[:, 3:, :3] = skew_many(-matvec_many(_tr(z_R), z_t)) @ _tr(z_R)
    J_i = _decoupled(se3_left_jacobian_inv_many(-r) @ ad, R_i)
    J_j = -_decoupled(se3_left_jacobian_inv_many(r), R_j)
    return r, J_i, J_j


def _whiten(S, r, J):
    """Whitened residuals (m, d) and Jacobians (m, k, d, 15) of m
    factors with square-root informations S (m, d, d)."""
    return matvec_many(S, r), S[:, None] @ J


def _stacked(factors, name) -> np.ndarray:
    return np.stack([getattr(f, name) for f in factors])


class _Factor:
    """Base. Each concrete kind evaluates m of its factors in one call:
    `stack(factors)` gathers their constants into stacked arrays once,
    and `evaluate(params, x, idx)` takes those, the stacked states x and
    idx (m, k), the row of x of each factor's k nodes. It returns the
    whitened residuals (m, d) and Jacobians (m, k, d, STATE_DIM)."""

    nodes: tuple

    def batch_key(self):
        """Factors with equal keys are evaluated in one batch."""
        return type(self)

    @classmethod
    def stack(cls, factors):
        raise NotImplementedError

    @classmethod
    def evaluate(cls, params, x: NavStates, idx):
        raise NotImplementedError


class PriorFactor(_Factor):
    kind = "prior"

    def __init__(self, node, anchor: Pose, b_a0, b_g0, cov):
        self.nodes = (node,)
        self.anchor = anchor
        self.b_a0 = np.asarray(b_a0, dtype=float).reshape(3)
        self.b_g0 = np.asarray(b_g0, dtype=float).reshape(3)
        self.sqrt_info = _sqrt_info(cov)

    @classmethod
    def stack(cls, factors):
        return (np.stack([f.anchor.R for f in factors]),
                np.stack([f.anchor.t for f in factors]),
                _stacked(factors, "b_a0"), _stacked(factors, "b_g0"),
                _stacked(factors, "sqrt_info"))

    @classmethod
    def evaluate(cls, params, x, idx):
        *anchors, S = params
        r, J = _prior_many(x.take(idx[:, 0]), *anchors)
        return _whiten(S, r, J[:, None])


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

    @classmethod
    def stack(cls, factors):
        return (_stacked(factors, "b_a0"), _stacked(factors, "b_g0"),
                _stacked(factors, "sqrt_info"))

    @classmethod
    def evaluate(cls, params, x, idx):
        b_a0, b_g0, S = params
        x = x.take(idx[:, 0])
        r = np.concatenate([x.b_a - b_a0, x.b_g - b_g0], axis=-1)
        J = np.zeros((len(r), 1, 6, STATE_DIM))
        J[:, 0, :, 9:15] = np.eye(6)
        return _whiten(S, r, J)


class ImuFactor(_Factor):
    kind = "imu"

    def __init__(self, i, j, delta: PreintegratedDelta,
                 noise: ImuNoiseParams = ImuNoiseParams()):
        self.nodes = (i, j)
        self.delta = delta
        self.sqrt_info = _sqrt_info(residual_covariance(delta, noise))

    @classmethod
    def stack(cls, factors):
        return (stack_deltas([f.delta for f in factors]),
                _stacked(factors, "sqrt_info"))

    @classmethod
    def evaluate(cls, params, x, idx):
        deltas, S = params
        r, J_i, J_j = imu_residual_jacobians_many(
            x.take(idx[:, 0]), x.take(idx[:, 1]), deltas)
        return _whiten(S, r, np.stack([J_i, J_j], axis=1))


class BetweenFactor(_Factor):
    """Lidar odometry between keyframes i and j:
    z = (smoothed pose of i at the time j is registered)^-1 (ICP pose of j).

    ICP at j starts from a prior predicted from the smoothed i and
    registers against a map built from smoothed poses, so z is taken
    relative to that smoothed pose."""

    kind = "between"

    def __init__(self, i, j, z: Pose, cov):
        self.nodes = (i, j)
        self.z = z
        self.sqrt_info = _sqrt_info(cov)

    @classmethod
    def stack(cls, factors):
        return (np.stack([f.z.R for f in factors]),
                np.stack([f.z.t for f in factors]),
                _stacked(factors, "sqrt_info"))

    @classmethod
    def evaluate(cls, params, x, idx):
        z_R, z_t, S = params
        x_i, x_j = x.take(idx[:, 0]), x.take(idx[:, 1])
        r, J_i, J_j = _between_many(x_i.R, x_i.t, x_j.R, x_j.t, z_R, z_t)
        J = np.zeros((len(r), 2, 6, STATE_DIM))
        J[:, 0, :, :6] = J_i
        J[:, 1, :, :6] = J_j
        return _whiten(S, r, J)


class GnssFactor(_Factor):
    kind = "gnss"

    def __init__(self, i, t, cov):
        self.nodes = (i,)
        self.t = np.asarray(t, dtype=float).reshape(3)
        self.sqrt_info = _sqrt_info(cov)

    @classmethod
    def stack(cls, factors):
        return _stacked(factors, "t"), _stacked(factors, "sqrt_info")

    @classmethod
    def evaluate(cls, params, x, idx):
        t, S = params
        r = x.take(idx[:, 0]).t - t
        J = np.zeros((len(r), 1, 3, STATE_DIM))
        J[:, 0, :, 3:6] = np.eye(3)
        return _whiten(S, r, J)


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

    def batch_key(self):
        return (type(self), self.Lambda.shape)

    @classmethod
    def stack(cls, factors):
        lin = NavStates.stack([s for f in factors for s in f.lin_states])
        return lin, _stacked(factors, "Lambda"), _stacked(factors, "r0")

    @classmethod
    def evaluate(cls, params, x, idx):
        lin, Lam, r0 = params
        m, k = idx.shape
        delta = lin.local(x.take(idx.reshape(-1))).reshape(m, k * STATE_DIM)
        r = r0 + matvec_many(Lam, delta)
        J = Lam.reshape(m, -1, k, STATE_DIM).transpose(0, 2, 1, 3)
        return r, J


def _batches(factors, order) -> list:
    """`factors` grouped into batches by batch_key: (kind, its stacked
    constants, the rows in `order` of each factor's nodes (m, k))."""
    row = {idx: k for k, idx in enumerate(order)}
    groups = {}
    for f in factors:
        groups.setdefault(f.batch_key(), []).append(f)
    return [
        (type(fs[0]), type(fs[0]).stack(fs),
         np.array([[row[i] for i in f.nodes] for f in fs]))
        for fs in groups.values()
    ]


@dataclass
class FactorGraph:
    nodes: dict = field(default_factory=dict)  # keyframe index -> NavState
    factors: list = field(default_factory=list)

    def add_node(self, idx: int, state: NavState):
        if idx in self.nodes:
            raise ValueError(f"node {idx} already exists")
        self.nodes[idx] = state

    def add_factor(self, factor: _Factor):
        for n in factor.nodes:
            if n not in self.nodes:
                raise ValueError(f"factor references missing node {n}")
        self.factors.append(factor)

    def maybe_add_gnss(self, idx: int, est_cov, t, cov) -> bool:
        """Add the GNSS factor of position `t` with covariance `cov`
        unless it is a clear outlier: its innovation is gated chi-square
        (3 dof, 99.9%) against the combined position covariance
        est_cov + cov, which must be positive definite."""
        r = self.nodes[idx].pose.t - t
        if float(r @ _cholesky_solve(est_cov + cov, r)[1]) > GNSS_GATE_CHI2:
            return False
        self.add_factor(GnssFactor(idx, t, cov))
        return True

    # -- optimization --------------------------------------------------

    def _order(self):
        return sorted(self.nodes)

    def normal_equations(self, states: dict, order, factors=None):
        """Gauss-Newton system (H, b, cost) of `factors` (default: all)
        at `states` over the nodes in `order`: H = J^T J and b = J^T r
        of the whitened residuals, cost = r^T r."""
        factors = self.factors if factors is None else factors
        x = NavStates.stack([states[i] for i in order])
        return self._linearize(x, _batches(factors, order))

    def _linearize(self, x: NavStates, batches):
        """normal_equations at the stacked states x of prepared
        `batches`. Each batch is evaluated in one call, and its
        J_a^T J_c blocks for every node pair (a, c) of its factors are
        added in with one indexed add; J itself is never formed."""
        n, d = len(x.t), STATE_DIM
        H = np.zeros((n * n, d, d))  # block (a, c) at row a * n + c
        b = np.zeros((n, d))
        cost = 0.0
        for kind, params, idx in batches:
            r, J = kind.evaluate(params, x, idx)
            cost += float(np.einsum("md,md->", r, r))
            Jt = np.swapaxes(J, -1, -2)
            np.add.at(b, idx, matvec_many(Jt, r[:, None]))
            np.add.at(H, idx[:, :, None] * n + idx[:, None, :],
                      Jt[:, :, None] @ J[:, None])
        H = H.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d)
        return H, b.reshape(-1), cost

    def optimize(self, max_iter: int = 50) -> OptimizeReport:
        """Levenberg-Marquardt over the window, at most `max_iter`
        accepted steps. Each trial solves (H + lam I) delta = -b; a step
        is taken when the cost does not rise, and lam shrinks or grows
        tenfold on acceptance or rejection. It stops converged, without
        evaluating the step, when the step's predicted decrease
        delta^T H delta + 2 lam |delta|^2 is at most LM_FUNCTION_TOL of
        the cost or the gradient is below LM_GRADIENT_TOL, and also
        after an accepted step that changed the cost by a relative 1e-9
        or less or moved less than 1e-10; it stops unconverged after
        LM_MAX_TRIALS failed trials in a row.

        The step is a Cholesky solve of H + lam I; a trial whose system
        is not positive definite counts as failed, and lam grows
        tenfold. A window built like the pipeline's has H itself
        positive definite (see the module docstring)."""
        order = self._order()
        batches = _batches(self.factors, order)
        x = NavStates.stack([self.nodes[i] for i in order])
        H, b, cost = self._linearize(x, batches)
        initial_cost = cost
        lam = 1e-4
        converged = False
        iterations = rejected = trials = 0
        eye = np.eye(len(b))
        while iterations < max_iter and trials < LM_MAX_TRIALS:
            if np.max(np.abs(b)) <= LM_GRADIENT_TOL:
                converged = True
                break
            trials += 1
            try:
                # a non-finite system fails here or at the cost test
                _, delta = _cholesky_solve(H + lam * eye, -b)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            step_sq = float(delta @ delta)
            predicted = float(delta @ H @ delta) + 2.0 * lam * step_sq
            if predicted <= LM_FUNCTION_TOL * cost:
                converged = True
                break
            cand = x.retract(delta.reshape(-1, STATE_DIM))
            # the accepted candidate's system is the next linearization
            H_c, b_c, new_cost = self._linearize(cand, batches)
            if not new_cost <= cost:  # a non-finite cost is rejected too
                rejected += 1
                lam *= 10.0
                continue
            rel = (cost - new_cost) / max(cost, 1e-300)
            x, H, b, cost = cand, H_c, b_c, new_cost
            lam = max(lam / 10.0, 1e-12)
            iterations += 1
            trials = 0
            if rel < 1e-9 or step_sq < 1e-20:
                converged = True
                break
        self.nodes.update(zip(order, x.unstack()))
        return OptimizeReport(
            iterations=iterations,
            initial_cost=initial_cost,
            final_cost=cost,
            converged=converged,
            rejected=rejected,
        )

    # -- marginalization ----------------------------------------------

    def marginalize_oldest(self):
        """Remove the oldest node and the factors on it, leaving their
        information on its neighbours (its Markov blanket) as one
        `LinearFactor`: the Schur complement H_t = H_bb - H_bm H_mm^-1
        H_mb, b_t = b_b - H_bm H_mm^-1 b_m of those factors' system at
        the current states, whitened as Lambda = U, r0 = U^-T b_t with U
        the upper Cholesky factor of H_t, so Lambda^T Lambda = H_t and
        Lambda^T r0 = b_t. Both H_mm and H_t must be positive definite,
        as they are in a window built like the pipeline's; otherwise
        LinAlgError is raised and the graph is left as it was."""
        order = self._order()
        oldest = order[0]
        conn = [f for f in self.factors if oldest in f.nodes]
        blanket = sorted({n for f in conn for n in f.nodes} - {oldest})
        if blanket:
            H, b, _ = self.normal_equations(
                self.nodes, [oldest] + blanket, conn
            )
            d = STATE_DIM
            H_bm = H[d:, :d]
            # H_mm^-1 [H_mb, b_m]
            _, X = _cholesky_solve(H[:d, :d], np.column_stack([H_bm.T, b[:d]]))
            H_t = H[d:, d:] - H_bm @ X[:, :-1]
            c, y = _cholesky_solve(H_t, b[d:] - H_bm @ X[:, -1])
            Lambda = np.triu(c)
            self.factors.append(LinearFactor(
                blanket, [self.nodes[n] for n in blanket], Lambda, Lambda @ y))
        for f in conn:
            self.factors.remove(f)
        del self.nodes[oldest]


def graph_position_covariance(graph: FactorGraph, idx: int) -> np.ndarray:
    """Marginal position covariance (3, 3) of node `idx` at the current
    linearization: the position block of H^-1, H the whole window's
    normal matrix. H must be positive definite, as it is in a window
    built like the pipeline's; otherwise LinAlgError is raised."""
    order = graph._order()
    H, _, _ = graph.normal_equations(graph.nodes, order)
    k = order.index(idx) * STATE_DIM + 3
    unit = np.zeros((len(H), 3))
    unit[k:k + 3] = np.eye(3)
    return _cholesky_solve(H, unit)[1][k:k + 3]
