import numpy as np
import pytest
from scipy.linalg import cho_factor

from mlio.dataset import Dataset, load_tum, write_tum
from mlio.geometry import (
    NavState,
    NavStates,
    Pose,
    pose_compose,
    se3_exp,
    se3_log,
    so3_exp,
)
from mlio.graph import (
    STATE_DIM,
    BetweenFactor,
    BiasAnchorFactor,
    FactorGraph,
    GnssFactor,
    GnssStream,
    ImuFactor,
    PriorFactor,
    graph_position_covariance,
)
from mlio.lidar import BASE_COV
from mlio.preintegration import PreintegratedDelta
from oracles import (
    format_tum_line,
    integrate_one,
    numeric_jacobian,
    pose_matrix,
    quat_to_rotmat,
    residual_between,
    residual_gnss,
    residual_prior,
    retract,
)


def whitened(factor, states):
    """Whitened residual and per-node Jacobians of `factor` alone at
    `states`, evaluated as a batch of one."""
    r, J = factor.evaluate(factor.stack([factor]), NavStates.stack(states),
                           np.arange(len(states))[None])
    return r[0], list(J[0])


def node_jacobian(factor, states, which):
    """Central differences of the whitened residual of `factor` at
    `states` along the tangent of its node `which`."""
    def residual(s):
        return whitened(factor, states[:which] + [s] + states[which + 1:])[0]

    return numeric_jacobian(residual, states[which])


def random_state(rng, scale=1.0):
    pose = Pose(so3_exp(rng.normal(scale=scale, size=3)), rng.normal(size=3))
    v = rng.normal(size=3)
    rng.normal(size=3)  # the former body-rate draw: keeps each seed's data
    return NavState(
        pose=pose,
        v=v,
        b_a=rng.normal(scale=0.05, size=3),
        b_g=rng.normal(scale=0.01, size=3),
    )


def random_delta(rng, n=20):
    delta = PreintegratedDelta(
        b_a0=rng.normal(scale=0.05, size=3), b_g0=rng.normal(scale=0.01, size=3)
    )
    for _ in range(n):
        delta = integrate_one(
            delta, rng.normal(scale=2, size=3), rng.normal(scale=0.5, size=3), 0.01
        )
    return delta


class TestResiduals:
    def test_prior_zero_at_anchor(self):
        anchor = Pose(so3_exp([0.1, 0.2, 0.3]), [1, 2, 3])
        b_a0, b_g0 = np.array([0.01, 0, 0]), np.array([0, 0.02, 0])
        x = NavState(pose=anchor, b_a=b_a0, b_g=b_g0)
        r = residual_prior(x, anchor, b_a0, b_g0)
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_prior_translation_block(self):
        x = NavState(pose=Pose(np.eye(3), [1.0, 0, 0]))
        r = residual_prior(x, Pose(), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(r[:6], [0, 0, 0, 1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(r[6:], 0.0, atol=1e-12)

    def test_prior_velocity_block(self):
        x = NavState(v=[1.0, 0, 0])
        r = residual_prior(x, Pose(), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(r[6:9], [1, 0, 0])
        np.testing.assert_allclose(np.delete(r, [6, 7, 8]), 0.0, atol=1e-12)

    def test_prior_log_map_oracle(self):
        from scipy.linalg import logm

        rng = np.random.default_rng(0)
        anchor = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        x = NavState(pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)))
        r = residual_prior(x, anchor, np.zeros(3), np.zeros(3))
        M = np.linalg.inv(pose_matrix(anchor)) @ pose_matrix(x.pose)
        X = np.real(logm(M))
        phi = np.array([X[2, 1], X[0, 2], X[1, 0]])
        rho = X[:3, 3]
        np.testing.assert_allclose(r[:3], phi, atol=1e-9)
        np.testing.assert_allclose(r[3:6], rho, atol=1e-9)

    def test_between_identity(self):
        r = residual_between(Pose(), Pose(), Pose())
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_between_gauge_invariance(self):
        rng = np.random.default_rng(1)
        z = se3_exp([0, 0, 0, 1.0, 0, 0])
        G = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        T_i = Pose()
        T_j = se3_exp([0, 0, 0, 1.0, 0, 0])
        r1 = residual_between(T_i, T_j, z)
        r2 = residual_between(pose_compose(G, T_i), pose_compose(G, T_j), z)
        np.testing.assert_allclose(r1, 0.0, atol=1e-12)
        np.testing.assert_allclose(r2, 0.0, atol=1e-12)

    def test_between_translation_block(self):
        z = Pose(np.eye(3), [1.0, 0, 0])
        r = residual_between(Pose(), Pose(), z)
        np.testing.assert_allclose(r, [0, 0, 0, 1, 0, 0], atol=1e-12)

    def test_gnss_examples(self):
        fix = np.array([3.0, 4.0, 0.0])
        assert np.allclose(residual_gnss(NavState(pose=Pose(np.eye(3), fix)), fix), 0.0)
        r = residual_gnss(NavState(), fix)
        np.testing.assert_allclose(r, [-3, -4, 0])
        assert np.linalg.norm(r) == pytest.approx(5.0)

    def test_gnss_whitening_scale(self):
        g = FactorGraph()
        g.add_node(0, NavState())
        r1, _ = whitened(GnssFactor(0, [3.0, 4.0, 0.0], np.eye(3)), [g.nodes[0]])
        r4, _ = whitened(GnssFactor(0, [3.0, 4.0, 0.0], 4.0 * np.eye(3)), [g.nodes[0]])
        assert np.linalg.norm(r4) == pytest.approx(np.linalg.norm(r1) / 2.0)

    def test_gnss_cov_must_be_spd(self):
        with pytest.raises(ValueError):
            GnssFactor(0, [0, 0, 0], np.diag([1.0, -1.0, 1.0]))


class TestGnssStream:
    def test_columns_length_and_take(self):
        gnss = GnssStream([5, 7, 9], np.arange(9.0), [0.25, 1.0, 4.0])
        assert len(gnss) == 3
        assert gnss.stamps.dtype == np.int64 and gnss.t.shape == (3, 3)
        part = gnss.take(np.array([True, False, True]))
        assert isinstance(part, GnssStream) and len(part) == 2
        assert part.stamps.tolist() == [5, 9]
        assert np.array_equal(part.t, [[0.0, 1, 2], [6, 7, 8]])
        assert part.var.tolist() == [0.25, 4.0]
        assert np.array_equal(gnss.take([1]).cov(0), np.eye(3))
        empty = GnssStream([], [], [])
        assert len(empty) == 0 and empty.t.shape == (0, 3)

    def test_variance_floor(self):
        """A variance under 1e-12 m^2 (a noise-free or sub-micron fix)
        becomes 1e-12; larger ones are kept as they are."""
        var = [0.0, 1e-20, 1e-12, np.nextafter(1e-12, 1.0), 0.25]
        gnss = GnssStream(np.arange(5), np.zeros((5, 3)), var)
        assert gnss.var.tolist() == [1e-12, 1e-12, 1e-12, var[3], 0.25]
        assert gnss.take([0, 4]).var.tolist() == [1e-12, 0.25]


class TestFactorJacobians:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x_i = random_state(rng)
        x_j = random_state(rng)
        anchor = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        z = Pose(so3_exp(rng.normal(scale=0.3, size=3)), rng.normal(size=3))
        fix = rng.normal(size=3)
        factors = [
            PriorFactor(0, anchor, rng.normal(size=3) * 0.01,
                        rng.normal(size=3) * 0.01, np.eye(STATE_DIM) * 0.1),
            BetweenFactor(0, 1, z, BASE_COV),
            GnssFactor(0, fix, np.eye(3) * 0.25),
            ImuFactor(0, 1, random_delta(rng)),
        ]
        for factor in factors:
            states = [x_i, x_j][: len(factor.nodes)]
            _, jacs = whitened(factor, states)
            for which, J in enumerate(jacs):
                num = node_jacobian(factor, states, which)
                scale = max(1.0, float(np.max(np.abs(num))))
                assert np.max(np.abs(J - num)) / scale < 1e-5, factor.kind


def chain_graph(n, step=None, gnss_on=(), prior_cov=None, sigma_gnss=0.5):
    """Noiseless chain: ground truth moves `step` per keyframe, between
    factors measure exactly that, optional GNSS factors at ground truth."""
    step = np.array([1.0, 0, 0]) if step is None else np.asarray(step, float)
    g = FactorGraph()
    truth = []
    for k in range(n):
        pose = Pose(np.eye(3), k * step)
        truth.append(pose)
        g.add_node(k, NavState(pose=pose))
    g.add_factor(
        PriorFactor(0, truth[0], np.zeros(3), np.zeros(3),
                    prior_cov if prior_cov is not None else np.eye(STATE_DIM) * 0.01)
    )
    z = Pose(np.eye(3), step)
    for k in range(n - 1):
        g.add_factor(BetweenFactor(k, k + 1, z, BASE_COV))
    for k in gnss_on:
        g.add_factor(
            GnssFactor(k, truth[k].t, np.eye(3) * sigma_gnss**2)
        )
    return g, truth


# the sigmas of the replay's prior on its first keyframe (rot, trans, v,
# b_a, b_g), with 0.01 rad and 0.1 m for the yaw and position sigmas the
# replay derives at initialization
REPLAY_PRIOR_COV = np.diag([0.01**2] * 3 + [0.1**2] * 3 + [0.1**2] * 3
                           + [0.005**2] * 3 + [0.0005**2] * 3)


def replay_window(n, gnss_on=(), sigma_gnss=0.5, accel=0.2, dt=0.5):
    """Noiseless window built as the replay builds one: a prior on node
    0, then per node an ImuFactor from the node before and a
    BiasAnchorFactor, and a between factor measuring the true relative
    pose; optional GNSS factors at ground truth. The truth starts at
    rest, as the replay does, and accelerates at `accel` along x; each
    IMU delta integrates that specific force (gravity cancelled) with no
    rotation, so the truth is the optimum."""
    f = np.array([accel, 0.0, 9.81])
    delta = PreintegratedDelta()
    for _ in range(10):
        delta = integrate_one(delta, f, np.zeros(3), dt / 10)
    g = FactorGraph()
    truth = []
    for k in range(n):
        pose = Pose(np.eye(3), [0.5 * accel * (k * dt) ** 2, 0.0, 0.0])
        truth.append(pose)
        g.add_node(k, NavState(pose=pose, v=[accel * k * dt, 0.0, 0.0]))
    g.add_factor(PriorFactor(0, truth[0], np.zeros(3), np.zeros(3), REPLAY_PRIOR_COV))
    for k in range(1, n):
        g.add_factor(ImuFactor(k - 1, k, delta))
        g.add_factor(BiasAnchorFactor(k, np.zeros(3), np.zeros(3)))
        z = Pose(np.eye(3), truth[k].t - truth[k - 1].t)
        g.add_factor(BetweenFactor(k - 1, k, z, BASE_COV))
    for k in gnss_on:
        g.add_factor(GnssFactor(k, truth[k].t, np.eye(3) * sigma_gnss**2))
    return g, truth


def whitened_cost(g, states):
    """Sum of squared whitened residuals of every factor at `states`."""
    return sum(
        float(np.sum(whitened(f, [states[n] for n in f.nodes])[0] ** 2))
        for f in g.factors
    )


def stacked_whitened(g, factors, order):
    """J and r of `factors` at g.nodes, stacked factor by factor from
    each one's own whitened residual and Jacobians."""
    rows, res = [], []
    for f in factors:
        r, jacs = whitened(f, [g.nodes[n] for n in f.nodes])
        J = np.zeros((len(r), STATE_DIM * len(order)))
        for n, jac in zip(f.nodes, jacs):
            c = STATE_DIM * order.index(n)
            J[:, c:c + STATE_DIM] += jac
        rows.append(J)
        res.append(r)
    return np.vstack(rows), np.concatenate(res)


class TestNormalEquations:
    def test_matches_stacked_jacobian(self):
        """H, b and the cost equal J^T J, J^T r and r^T r of the stacked
        whitened factors, in any node order and for a factor subset."""
        rng = np.random.default_rng(6)
        g = FactorGraph()
        for k in range(5):
            g.add_node(k, random_state(rng, scale=0.3))
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3),
                                 np.eye(STATE_DIM) * 0.01))
        for k in range(4):
            g.add_factor(ImuFactor(k, k + 1, random_delta(rng)))
            g.add_factor(BetweenFactor(k, k + 1, se3_exp(rng.normal(size=6)), BASE_COV))
        g.add_factor(GnssFactor(3, rng.normal(size=3), np.eye(3)))
        g.marginalize_oldest()  # adds a dense LinearFactor on node 1
        for k in g.nodes:
            g.nodes[k] = retract(g.nodes[k], rng.normal(scale=0.05, size=STATE_DIM))
        order = [3, 1, 4, 2]
        for factors in (g.factors, g.factors[::2]):
            J, r = stacked_whitened(g, factors, order)
            sub = None if factors is g.factors else factors
            H, b, cost = g.normal_equations(g.nodes, order, sub)
            scale = np.max(np.abs(J.T @ J))
            np.testing.assert_allclose(H, J.T @ J, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(b, J.T @ r, rtol=1e-10,
                                       atol=1e-12 * np.max(np.abs(J.T @ r)))
            assert abs(cost - r @ r) <= 1e-12 * (r @ r)

    def test_every_kind_batched_matches_per_factor(self):
        """One batch per factor kind gives the system of the factors
        stacked one by one, for a window holding every kind (two GNSS
        fixes on one node, a marginal prior from marginalize_oldest), in
        shuffled node order and on a shuffled factor subset."""
        rng = np.random.default_rng(8)
        g = FactorGraph()
        for k in range(5):
            g.add_node(k, random_state(rng, scale=0.3))
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3),
                                 np.eye(STATE_DIM) * 0.01))
        for k in range(5):
            g.add_factor(BiasAnchorFactor(k, rng.normal(scale=0.01, size=3),
                                          rng.normal(scale=0.001, size=3)))
        for k in range(4):
            g.add_factor(ImuFactor(k, k + 1, random_delta(rng)))
            g.add_factor(BetweenFactor(k, k + 1, se3_exp(rng.normal(size=6)), BASE_COV))
        for _ in range(2):
            g.add_factor(GnssFactor(3, rng.normal(size=3), np.eye(3) * 0.5))
        g.marginalize_oldest()
        assert {f.kind for f in g.factors} == {
            "linear", "bias_anchor", "imu", "between", "gnss"}
        g.add_factor(PriorFactor(2, se3_exp(rng.normal(scale=0.3, size=6)),
                                 np.zeros(3), np.zeros(3), np.eye(STATE_DIM)))
        for k in g.nodes:
            g.nodes[k] = retract(g.nodes[k], rng.normal(scale=0.05, size=STATE_DIM))
        order = [int(n) for n in rng.permutation(sorted(g.nodes))]
        subset = [g.factors[i] for i in rng.permutation(len(g.factors))[:9]]
        for factors in (g.factors, subset):
            J, r = stacked_whitened(g, factors, order)
            H, b, cost = g.normal_equations(g.nodes, order, factors)
            scale = np.max(np.abs(J.T @ J))
            np.testing.assert_allclose(H, J.T @ J, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(b, J.T @ r, rtol=0,
                                       atol=1e-12 * np.max(np.abs(J.T @ r)))
            assert abs(cost - r @ r) <= 1e-12 * (r @ r)

    def test_pipeline_window_constrains_every_state_dimension(self):
        """A window built like the pipeline's (prior, chained IMU factors,
        a bias anchor per node, lidar between factors) touches every
        tangent dimension, so H is positive definite without a ridge."""
        rng = np.random.default_rng(7)
        g = FactorGraph()
        for k in range(3):
            g.add_node(k, random_state(rng, scale=0.3))
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3),
                                 np.eye(STATE_DIM) * 0.01))
        for k in range(3):
            g.add_factor(BiasAnchorFactor(k, np.zeros(3), np.zeros(3)))
        for k in range(2):
            g.add_factor(ImuFactor(k, k + 1, random_delta(rng)))
            g.add_factor(BetweenFactor(k, k + 1, se3_exp(rng.normal(size=6)), BASE_COV))
        H, _, _ = g.normal_equations(g.nodes, [0, 1, 2])
        assert H.shape == (3 * STATE_DIM, 3 * STATE_DIM)
        assert np.all(np.any(H != 0.0, axis=1))
        cho_factor(H)  # raises LinAlgError if H is not positive definite


class TestOptimize:
    def test_consistent_graph_fixed_point(self):
        g, truth = chain_graph(5, gnss_on=(2, 4))
        before = {k: v for k, v in g.nodes.items()}
        report = g.optimize()
        assert report.converged
        assert report.final_cost < 1e-12
        for k in g.nodes:
            assert np.linalg.norm(g.nodes[k].pose.t - before[k].pose.t) < 1e-9

    def test_single_node_prior_vs_gnss_midpoint(self):
        g = FactorGraph()
        g.add_node(0, NavState())
        cov = np.eye(STATE_DIM)
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3), cov))
        g.add_factor(GnssFactor(0, [1.0, 0, 0], np.eye(3)))
        report = g.optimize()
        assert report.converged
        np.testing.assert_allclose(g.nodes[0].pose.t, [0.5, 0, 0], atol=1e-6)

    def test_three_node_chain_matches_dense_oracle(self):
        g, _ = chain_graph(3, prior_cov=np.eye(STATE_DIM) * 0.01)
        # GNSS on the last node, offset 0.3 m, tight covariance
        g.add_factor(
            GnssFactor(2, [2.3, 0, 0], np.eye(3) * 0.01**2)
        )
        oracle = {k: v for k, v in g.nodes.items()}
        order = sorted(oracle)
        # independent dense Gauss-Newton oracle with numeric Jacobians
        for _ in range(30):
            r_blocks, J_rows = [], []
            ncols = STATE_DIM * len(order)
            for f in g.factors:
                states = [oracle[n] for n in f.nodes]
                r0 = whitened(f, states)[0]
                Jrow = np.zeros((len(r0), ncols))
                for sl, n in enumerate(f.nodes):
                    base = order.index(n) * STATE_DIM
                    Jrow[:, base:base + STATE_DIM] = node_jacobian(f, states, sl)
                r_blocks.append(r0)
                J_rows.append(Jrow)
            J = np.vstack(J_rows)
            r = np.concatenate(r_blocks)
            delta = -np.linalg.pinv(J.T @ J, hermitian=True) @ (J.T @ r)
            for i, n in enumerate(order):
                oracle[n] = retract(oracle[n], delta[STATE_DIM * i:STATE_DIM * (i + 1)])
            if np.linalg.norm(delta) < 1e-12:
                break
        report = g.optimize()
        assert report.final_cost <= report.initial_cost
        assert g.nodes[2].pose.t[0] > 2.05  # pulled toward the GNSS fix
        for n in order:
            assert np.linalg.norm(g.nodes[n].pose.t - oracle[n].pose.t) < 1e-6
            assert (
                np.linalg.norm(se3_log(pose_compose(
                    Pose(g.nodes[n].pose.R.T, -g.nodes[n].pose.R.T @ g.nodes[n].pose.t),
                    oracle[n].pose,
                ))) < 1e-6
            )

    def test_rerun_at_minimum_is_one_pass(self, monkeypatch):
        """Optimizing a window that is already at its minimum evaluates
        the system once, tries no step and reports convergence."""
        rng = np.random.default_rng(9)
        g, _ = chain_graph(5, gnss_on=(2, 4))
        g.add_factor(GnssFactor(4, [4.3, 0.2, 0.0], np.eye(3) * 0.25))
        for k in g.nodes:
            g.nodes[k] = retract(g.nodes[k], rng.normal(scale=0.05, size=STATE_DIM))
        first = g.optimize()
        assert first.converged and first.final_cost > 1e-3
        passes = []
        linearize = g._linearize
        monkeypatch.setattr(g, "_linearize",
                            lambda *a: passes.append(a) or linearize(*a))
        second = g.optimize()
        assert len(passes) == 1
        assert second.converged
        assert second.rejected == 0 and second.iterations == 0
        assert second.final_cost == first.final_cost

    def test_cost_never_increases(self):
        rng = np.random.default_rng(2)
        g, truth = chain_graph(6, gnss_on=(5,))
        for k in g.nodes:
            g.nodes[k] = retract(g.nodes[k], rng.normal(scale=0.1, size=STATE_DIM))
        report = g.optimize()
        assert report.final_cost <= report.initial_cost
        assert report.final_cost >= 0.0

    def test_gauge_invariance_without_prior(self):
        rng = np.random.default_rng(3)
        g = FactorGraph()
        for k in range(4):
            g.add_node(k, random_state(rng, scale=0.3))
        z = se3_exp(rng.normal(scale=0.2, size=6))
        for k in range(3):
            g.add_factor(BetweenFactor(k, k + 1, z, BASE_COV))
        cost0 = whitened_cost(g, g.nodes)
        G = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        moved = {
            k: NavState(pose=pose_compose(G, s.pose), v=s.v, b_a=s.b_a,
                        b_g=s.b_g)
            for k, s in g.nodes.items()
        }
        assert abs(whitened_cost(g, moved) - cost0) < 1e-10
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3), np.eye(STATE_DIM)))
        assert abs(whitened_cost(g, moved) - whitened_cost(g, g.nodes)) > 1e-3


class TestGnssGating:
    def test_accepts_fix_more_precise_than_estimate(self):
        g = FactorGraph()
        # estimate far from the fix, but the fix is the better source
        g.add_node(0, NavState(pose=Pose(np.eye(3), [5.0, 0, 0])))
        # fix trace 1, estimate trace 9
        assert g.maybe_add_gnss(0, np.eye(3) * 3.0, [0, 0, 0], np.eye(3) / 3.0)
        assert len(g.factors) == 1

    def test_rejects_outlier_against_a_loose_estimate(self):
        g = FactorGraph()
        g.add_node(0, NavState())
        # a fix more precise than a loose estimate is gated too:
        # chi-square 2500 / (3 + 1) against 16.27
        assert not g.maybe_add_gnss(0, np.eye(3) * 3.0, [50.0, 0, 0], np.eye(3))
        assert len(g.factors) == 0

    def test_innovation_gate(self):
        g = FactorGraph()
        g.add_node(0, NavState())
        tight = np.eye(3) * 1e-4  # estimate claims higher precision
        cov = np.eye(3) * 0.25
        assert g.maybe_add_gnss(0, tight, [0.5, 0, 0], cov)  # consistent innovation
        assert len(g.factors) == 1
        assert not g.maybe_add_gnss(0, tight, [5.0, 0, 0], cov)  # clear outlier
        assert len(g.factors) == 1

    def test_optimizes_without_gnss(self):
        g, truth = chain_graph(4)
        rng = np.random.default_rng(4)
        for k in g.nodes:
            g.nodes[k] = retract(g.nodes[k], rng.normal(scale=0.05, size=STATE_DIM))
        report = g.optimize()
        assert report.converged
        for k, pose in enumerate(truth):
            assert np.linalg.norm(g.nodes[k].pose.t - pose.t) < 1e-5


class TestMarginalization:
    def test_window_size_restored(self):
        g, _ = replay_window(11, gnss_on=(10,))
        g.marginalize_oldest()
        assert len(g.nodes) == 10
        assert 0 not in g.nodes
        assert all(0 not in f.nodes for f in g.factors)

    def test_prior_only_node_cost_equivalent(self):
        g = FactorGraph()
        g.add_node(0, NavState(pose=Pose(np.eye(3), [0.1, 0, 0])))
        g.add_node(1, NavState())
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3), np.eye(STATE_DIM)))
        g.add_factor(GnssFactor(1, [0.2, 0, 0], np.eye(3)))
        rest_cost = 0.2**2  # the GNSS factor alone
        g.marginalize_oldest()
        assert abs(whitened_cost(g, g.nodes) - rest_cost) < 1e-8

    def test_repeated_marginalization_matches_full_smoothing(self):
        rng = np.random.default_rng(5)
        full, truth = replay_window(20, gnss_on=(0, 10, 19))
        marg, _ = replay_window(20, gnss_on=(0, 10, 19))
        # marginalize at the consistent estimate (as after an optimize
        # pass), then perturb the remaining nodes identically in both
        for _ in range(10):
            marg.marginalize_oldest()
        perturb = {k: rng.normal(scale=0.01, size=STATE_DIM) for k in marg.nodes}
        for k in perturb:
            full.nodes[k] = retract(full.nodes[k], perturb[k])
            marg.nodes[k] = retract(marg.nodes[k], perturb[k])
        full.optimize()
        marg.optimize()
        for k in marg.nodes:
            assert (
                np.linalg.norm(full.nodes[k].pose.t - marg.nodes[k].pose.t)
                < 1e-6
            )
            np.testing.assert_allclose(
                full.nodes[k].pose.R, marg.nodes[k].pose.R, atol=1e-6
            )

    def test_marginal_prior_is_the_dense_schur_complement(self):
        """Away from the optimum, so b is not zero: each marginal prior
        (the second one absorbing the first) has Lambda^T Lambda =
        H_bb - H_bm H_mm^-1 H_mb and Lambda^T r0 = b_b - H_bm H_mm^-1 b_m
        of the removed factors' system, computed with a dense inverse."""
        rng = np.random.default_rng(11)
        g, _ = replay_window(6, gnss_on=(0, 3))
        for k in g.nodes:
            g.nodes[k] = retract(g.nodes[k], rng.normal(scale=0.05, size=STATE_DIM))
        d = STATE_DIM
        for oldest in (0, 1):
            conn = [f for f in g.factors if oldest in f.nodes]
            blanket = sorted({n for f in conn for n in f.nodes} - {oldest})
            H, b, _ = g.normal_equations(g.nodes, [oldest] + blanket, conn)
            inv = np.linalg.inv(H[:d, :d])
            H_t = H[d:, d:] - H[d:, :d] @ inv @ H[:d, d:]
            b_t = b[d:] - H[d:, :d] @ inv @ b[:d]
            g.marginalize_oldest()
            prior = g.factors[-1]
            assert prior.kind == "linear" and prior.nodes == tuple(blanket)
            Lam = prior.Lambda
            np.testing.assert_allclose(Lam.T @ Lam, H_t, rtol=0,
                                       atol=1e-9 * np.max(np.abs(H_t)))
            np.testing.assert_allclose(Lam.T @ prior.r0, b_t, rtol=0,
                                       atol=1e-9 * np.max(np.abs(b_t)))

    def test_between_only_chain_is_not_positive_definite(self):
        """Without IMU factors nothing constrains the later nodes'
        velocities and biases: marginalization and the position
        covariance raise rather than return a pseudo-inverse, and the
        graph is left as it was."""
        g, _ = chain_graph(3, gnss_on=(2,))
        factors, nodes = list(g.factors), dict(g.nodes)
        with pytest.raises(np.linalg.LinAlgError):
            g.marginalize_oldest()
        assert g.factors == factors and g.nodes == nodes
        with pytest.raises(np.linalg.LinAlgError):
            graph_position_covariance(g, 2)


class TestPositionCovariance:
    def test_matches_inverse_of_normal_matrix(self):
        g, _ = replay_window(3)
        g.add_factor(GnssFactor(2, [0.4, 0.1, 0], np.diag([0.25, 0.5, 1.0])))
        H, _, _ = g.normal_equations(g.nodes, [0, 1, 2])
        inv = np.linalg.inv(H)
        for k in range(3):
            p = STATE_DIM * k + 3  # position columns of node k
            block = inv[p:p + 3, p:p + 3]
            np.testing.assert_allclose(graph_position_covariance(g, k), block,
                                       rtol=1e-9, atol=1e-15)


class TestTumOutput:
    def test_identity_line(self, tmp_path):
        write_tum(tmp_path / "traj.tum", [1_000_000_000], [np.eye(3)], [np.zeros(3)])
        fields = (tmp_path / "traj.tum").read_text().split()
        assert len(fields) == 8
        assert float(fields[0]) == pytest.approx(1.0)
        np.testing.assert_allclose([float(f) for f in fields[1:7]], 0.0)
        assert float(fields[7]) == pytest.approx(1.0)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        poses = [Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)) for _ in range(5)]
        stamps = [int(i * 1e8) for i in range(5)]
        path = tmp_path / "traj.tum"
        write_tum(path, stamps, [p.R for p in poses], [p.t for p in poses])
        rows = np.loadtxt(path)
        assert rows.shape == (5, 8)
        np.testing.assert_allclose(rows[:, 1:4], [p.t for p in poses], atol=1e-8)

    def test_lines_match_the_per_pose_formatter(self, tmp_path):
        """Every line equals `format_tum_line` of its pose, for rotations
        in each branch of the quaternion and stamps of either sign."""
        rng = np.random.default_rng(7)
        axes = np.vstack([np.eye(3), rng.normal(size=(60, 3))])
        angles = np.concatenate([rng.uniform(0, np.pi, 40), np.pi - 10.0 ** rng.uniform(-9, -1, 23)])
        poses = [Pose(so3_exp(a / np.linalg.norm(a) * th), rng.normal(size=3) * 100)
                 for a, th in zip(axes, angles)]
        stamps = rng.integers(-2**62, 2**62, size=len(poses)).tolist()
        stamps[:3] = [-2**63, 2**63 - 1, -1]
        write_tum(tmp_path / "traj.tum", stamps, [p.R for p in poses], [p.t for p in poses])
        assert (tmp_path / "traj.tum").read_text() == "".join(
            format_tum_line(s, p) + "\n" for s, p in zip(stamps, poses))
        write_tum(tmp_path / "empty.tum", [], [], [])
        assert (tmp_path / "empty.tum").read_text() == ""

    def test_epoch_scale_stamps_round_trip_exactly(self, tmp_path):
        """Nanosecond stamps at epoch scale, where float64 seconds are
        238 ns apart, are written digit for digit and read back exactly."""
        stamps = [1700000000123456789, 1700000000123456790, 999_999_999, 0, 7]
        path = tmp_path / "traj.tum"
        write_tum(path, stamps, [np.eye(3)] * len(stamps), np.zeros((len(stamps), 3)))
        assert [line.split()[0] for line in path.read_text().splitlines()] == [
            "1700000000.123456789", "1700000000.123456790", "0.999999999",
            "0.000000000", "0.000000007"]
        got, R, t = load_tum(path)
        assert got.tolist() == stamps
        assert R.shape == (len(stamps), 3, 3) and t.shape == (len(stamps), 3)

    def test_negative_stamps_round_trip_exactly(self, tmp_path):
        stamps = [-5, -1_000_000_001, -1700000000123456789, -2**63]
        path = tmp_path / "traj.tum"
        write_tum(path, stamps, [np.eye(3)] * len(stamps), np.zeros((len(stamps), 3)))
        assert [line.split()[0] for line in path.read_text().splitlines()] == [
            "-0.000000005", "-1.000000001", "-1700000000.123456789",
            "-9223372036.854775808"]
        got, _, _ = load_tum(path)
        assert got.tolist() == stamps

    def test_load_reads_exponent_stamps(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("1.7e9 1 2 3 0 0 0 1\n1700000000.5 1 2 3 0 0 0 1\n")
        stamps, R, t = load_tum(path)
        assert stamps.tolist() == [1_700_000_000_000_000_000, 1_700_000_000_500_000_000]
        np.testing.assert_array_equal(t[1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(R[1], np.eye(3))

    def test_load_matches_one_pose_per_line(self, tmp_path):
        """`load_tum`, and a dataset's `gt_poses` from it, give the bits
        of one `Pose` per line of the one-quaternion formula: quaternions
        unit to rounding are kept as they are, and those far enough off
        unit length, as a hand-written file may hold, are projected onto
        SO(3) as `Pose` projects them."""
        rng = np.random.default_rng(9)
        q = rng.normal(size=(60, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        q[20:] *= 1.0 + np.logspace(-10, -1, 40)[:, None] * rng.choice([-1, 1], size=(40, 1))
        t = rng.normal(size=(60, 3)) * 100.0
        path = tmp_path / "traj.tum"
        path.write_text("".join(
            " ".join(f"{v:.17g}" for v in (k, *t[k], *q[k, 1:], q[k, 0])) + "\n"
            for k in range(60)))
        _, R, t_got = load_tum(path)
        want = [Pose(quat_to_rotmat(row), tt) for row, tt in zip(q, t)]
        assert np.array_equal(R, [p.R for p in want]) and np.array_equal(t_got, t)
        # a dataset's ground-truth poses, derived from the same stacks
        path.rename(tmp_path / "gt.tum")
        poses = Dataset(str(tmp_path), None, {}, {}, None).gt_poses
        assert all(np.array_equal(p.R, w.R) and np.array_equal(p.t, w.t)
                   for p, w in zip(poses, want, strict=True))
        projected = [not np.array_equal(p.R, quat_to_rotmat(row)) for p, row in zip(want, q)]
        assert 10 < sum(projected) < 40
