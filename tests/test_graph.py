import numpy as np
import pytest
from scipy.linalg import cho_factor

from mlio.dataset import format_tum_line, write_tum
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
    GnssFix,
    ImuFactor,
    PriorFactor,
    residual_gnss,
)
from mlio.preintegration import empty_delta, integrate
from oracles import numeric_jacobian, residual_between, residual_prior


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
    delta = empty_delta(
        b_a0=rng.normal(scale=0.05, size=3), b_g0=rng.normal(scale=0.01, size=3)
    )
    for _ in range(n):
        delta = integrate(
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
        M = np.linalg.inv(anchor.matrix()) @ x.pose.matrix()
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
        fix = GnssFix(0, [3.0, 4.0, 0.0], np.eye(3))
        assert np.allclose(residual_gnss(NavState(pose=Pose(np.eye(3), fix.t)), fix), 0.0)
        r = residual_gnss(NavState(), fix)
        np.testing.assert_allclose(r, [-3, -4, 0])
        assert np.linalg.norm(r) == pytest.approx(5.0)

    def test_gnss_whitening_scale(self):
        fix1 = GnssFix(0, [3.0, 4.0, 0.0], np.eye(3))
        fix4 = GnssFix(0, [3.0, 4.0, 0.0], 4.0 * np.eye(3))
        g = FactorGraph()
        g.add_node(0, NavState())
        r1, _ = whitened(GnssFactor(0, fix1), [g.nodes[0]])
        r4, _ = whitened(GnssFactor(0, fix4), [g.nodes[0]])
        assert np.linalg.norm(r4) == pytest.approx(np.linalg.norm(r1) / 2.0)

    def test_gnss_cov_must_be_spd(self):
        with pytest.raises(ValueError):
            GnssFix(0, [0, 0, 0], np.diag([1.0, -1.0, 1.0]))


class TestFactorJacobians:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x_i = random_state(rng)
        x_j = random_state(rng)
        anchor = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        z = Pose(so3_exp(rng.normal(scale=0.3, size=3)), rng.normal(size=3))
        fix = GnssFix(0, rng.normal(size=3), np.eye(3) * 0.25)
        factors = [
            PriorFactor(0, anchor, rng.normal(size=3) * 0.01,
                        rng.normal(size=3) * 0.01, np.eye(STATE_DIM) * 0.1),
            BetweenFactor(0, 1, z),
            GnssFactor(0, fix),
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
        g.add_factor(BetweenFactor(k, k + 1, z))
    for k in gnss_on:
        g.add_factor(
            GnssFactor(k, GnssFix(0, truth[k].t, np.eye(3) * sigma_gnss**2))
        )
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
            g.add_factor(BetweenFactor(k, k + 1, se3_exp(rng.normal(size=6))))
        g.add_factor(GnssFactor(3, GnssFix(0, rng.normal(size=3), np.eye(3))))
        g.marginalize_oldest()  # adds a dense LinearFactor on node 1
        for k in g.nodes:
            g.nodes[k] = g.nodes[k].retract(rng.normal(scale=0.05, size=STATE_DIM))
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
            g.add_factor(BetweenFactor(k, k + 1, se3_exp(rng.normal(size=6))))
        for _ in range(2):
            g.add_factor(GnssFactor(3, GnssFix(0, rng.normal(size=3),
                                               np.eye(3) * 0.5)))
        g.marginalize_oldest()
        assert {f.kind for f in g.factors} == {
            "linear", "bias_anchor", "imu", "between", "gnss"}
        g.add_factor(PriorFactor(2, se3_exp(rng.normal(scale=0.3, size=6)),
                                 np.zeros(3), np.zeros(3), np.eye(STATE_DIM)))
        for k in g.nodes:
            g.nodes[k] = g.nodes[k].retract(rng.normal(scale=0.05, size=STATE_DIM))
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
            g.add_factor(BetweenFactor(k, k + 1, se3_exp(rng.normal(size=6))))
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
        g.add_factor(GnssFactor(0, GnssFix(0, [1.0, 0, 0], np.eye(3))))
        report = g.optimize()
        assert report.converged
        np.testing.assert_allclose(g.nodes[0].pose.t, [0.5, 0, 0], atol=1e-6)

    def test_three_node_chain_matches_dense_oracle(self):
        g, _ = chain_graph(3, prior_cov=np.eye(STATE_DIM) * 0.01)
        # GNSS on the last node, offset 0.3 m, tight covariance
        g.add_factor(
            GnssFactor(2, GnssFix(0, [2.3, 0, 0], np.eye(3) * 0.01**2))
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
                oracle[n] = oracle[n].retract(delta[STATE_DIM * i:STATE_DIM * (i + 1)])
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
        g.add_factor(GnssFactor(4, GnssFix(0, [4.3, 0.2, 0.0], np.eye(3) * 0.25)))
        for k in g.nodes:
            g.nodes[k] = g.nodes[k].retract(rng.normal(scale=0.05, size=STATE_DIM))
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
            g.nodes[k] = g.nodes[k].retract(rng.normal(scale=0.1, size=STATE_DIM))
        report = g.optimize()
        assert report.final_cost <= report.initial_cost
        assert report.final_cost >= 0.0

    def test_disconnected_node_rejected(self):
        g, _ = chain_graph(3)
        g.add_node(99, NavState())
        with pytest.raises(ValueError, match="disconnected"):
            g.optimize()

    def test_gauge_invariance_without_prior(self):
        rng = np.random.default_rng(3)
        g = FactorGraph()
        for k in range(4):
            g.add_node(k, random_state(rng, scale=0.3))
        z = se3_exp(rng.normal(scale=0.2, size=6))
        for k in range(3):
            g.add_factor(BetweenFactor(k, k + 1, z))
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
        fix = GnssFix(0, [0, 0, 0], np.eye(3) / 3.0)  # trace 1
        assert g.maybe_add_gnss(0, np.eye(3) * 3.0, fix)  # est trace 9
        assert len(g.factors) == 1

    def test_innovation_gate(self):
        g = FactorGraph()
        g.add_node(0, NavState())
        tight = np.eye(3) * 1e-4  # estimate claims higher precision
        near = GnssFix(0, [0.5, 0, 0], np.eye(3) * 0.25)
        far = GnssFix(0, [5.0, 0, 0], np.eye(3) * 0.25)
        assert g.maybe_add_gnss(0, tight, near)  # consistent innovation
        assert len(g.factors) == 1
        assert not g.maybe_add_gnss(0, tight, far)  # clear outlier
        assert len(g.factors) == 1

    def test_optimizes_without_gnss(self):
        g, truth = chain_graph(4)
        rng = np.random.default_rng(4)
        for k in g.nodes:
            g.nodes[k] = g.nodes[k].retract(rng.normal(scale=0.05, size=STATE_DIM))
        report = g.optimize()
        assert report.converged
        for k, pose in enumerate(truth):
            assert np.linalg.norm(g.nodes[k].pose.t - pose.t) < 1e-5


class TestMarginalization:
    def test_window_size_restored(self):
        g, _ = chain_graph(11, gnss_on=(10,))
        g.marginalize_oldest()
        assert len(g.nodes) == 10
        assert 0 not in g.nodes
        assert all(0 not in f.nodes for f in g.factors)

    def test_prior_only_node_cost_equivalent(self):
        g = FactorGraph()
        g.add_node(0, NavState(pose=Pose(np.eye(3), [0.1, 0, 0])))
        g.add_node(1, NavState())
        g.add_factor(PriorFactor(0, Pose(), np.zeros(3), np.zeros(3), np.eye(STATE_DIM)))
        g.add_factor(GnssFactor(1, GnssFix(0, [0.2, 0, 0], np.eye(3))))
        rest_cost = 0.2**2  # the GNSS factor alone
        g.marginalize_oldest()
        assert abs(whitened_cost(g, g.nodes) - rest_cost) < 1e-8

    def test_repeated_marginalization_matches_full_smoothing(self):
        rng = np.random.default_rng(5)
        full, truth = chain_graph(20, gnss_on=(0, 10, 19))
        marg, _ = chain_graph(20, gnss_on=(0, 10, 19))
        # marginalize at the consistent estimate (as after an optimize
        # pass), then perturb the remaining nodes identically in both
        for _ in range(10):
            marg.marginalize_oldest()
        perturb = {k: rng.normal(scale=0.01, size=STATE_DIM) for k in marg.nodes}
        for k in perturb:
            full.nodes[k] = full.nodes[k].retract(perturb[k])
            marg.nodes[k] = marg.nodes[k].retract(perturb[k])
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


class TestTumOutput:
    def test_identity_line(self):
        line = format_tum_line(1_000_000_000, Pose())
        fields = line.split()
        assert len(fields) == 8
        assert float(fields[0]) == pytest.approx(1.0)
        np.testing.assert_allclose([float(f) for f in fields[1:7]], 0.0)
        assert float(fields[7]) == pytest.approx(1.0)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        poses = [Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)) for _ in range(5)]
        stamps = [int(i * 1e8) for i in range(5)]
        path = tmp_path / "traj.tum"
        write_tum(path, stamps, poses)
        rows = np.loadtxt(path)
        assert rows.shape == (5, 8)
        np.testing.assert_allclose(rows[:, 1:4], [p.t for p in poses], atol=1e-8)
