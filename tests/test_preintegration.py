import math

import numpy as np
import pytest

from mlio.geometry import NavState, Pose, so3_exp, so3_log
from mlio.graph import STATE_DIM
from mlio.preintegration import (
    GRAVITY,
    NotStaticError,
    empty_delta,
    gravity_align,
    integrate,
    predict,
)
from oracles import imu_residual, imu_residual_jacobians


def integrate_samples(F, W, dt, b_a0=None, b_g0=None):
    delta = empty_delta(b_a0=b_a0, b_g0=b_g0)
    for f, w in zip(F, W):
        delta = integrate(delta, f, w, dt)
    return delta


def fine_oracle(F, W, coarse_dt, substeps=100, b_a=None, b_g=None):
    """Midpoint-rule integrator on the same zero-order-hold measurements,
    independent of the closed-form path under test."""
    b_a = np.zeros(3) if b_a is None else b_a
    b_g = np.zeros(3) if b_g is None else b_g
    h = coarse_dt / substeps
    dR, dv, dp = np.eye(3), np.zeros(3), np.zeros(3)
    for f, w in zip(F, W):
        wm, am = w - b_g, f - b_a
        for _ in range(substeps):
            R_mid = dR @ so3_exp(wm * h / 2.0)
            dp = dp + dv * h + 0.5 * (R_mid @ am) * h * h
            dv = dv + R_mid @ am * h
            dR = dR @ so3_exp(wm * h)
    return dR, dv, dp


class TestIntegrate:
    def test_zero_readings(self):
        F = [np.zeros(3)] * 100
        W = [np.zeros(3)] * 100
        d = integrate_samples(F, W, 0.01)
        np.testing.assert_allclose(d.dR, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(d.dv, 0.0, atol=1e-12)
        np.testing.assert_allclose(d.dp, 0.0, atol=1e-12)
        assert d.dt == pytest.approx(1.0)

    def test_constant_acceleration(self):
        F = [np.array([1.0, 0, 0])] * 100
        W = [np.zeros(3)] * 100
        d = integrate_samples(F, W, 0.01)
        np.testing.assert_allclose(d.dv, [1.0, 0, 0], atol=1e-6)
        np.testing.assert_allclose(d.dp, [0.5, 0, 0], atol=1e-6)

    def test_quarter_turn_against_fine_oracle(self):
        W = [np.array([0.0, 0, math.pi / 2])] * 100
        F = [np.zeros(3)] * 100
        d = integrate_samples(F, W, 0.01)
        expected = so3_exp([0, 0, math.pi / 2])
        assert np.max(np.abs(d.dR - expected)) < 1e-5
        dR_o, _, _ = fine_oracle(F, W, 0.01)
        assert np.max(np.abs(d.dR - dR_o)) < 1e-9

    def test_random_segments_match_fine_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            F = rng.normal(scale=2.0, size=(100, 3))
            W = rng.normal(scale=1.0, size=(100, 3))
            d = integrate_samples(F, W, 0.01)
            dR_o, dv_o, dp_o = fine_oracle(F, W, 0.01)
            assert np.linalg.norm(so3_log(d.dR.T @ dR_o)) < 1e-5
            assert np.linalg.norm(d.dp - dp_o) < 1e-5
            assert np.linalg.norm(d.dv - dv_o) < 1e-5

    def test_dt_validation(self):
        d = empty_delta()
        with pytest.raises(ValueError):
            integrate(d, [0, 0, 0], [0, 0, 0], 0.0)
        with pytest.raises(ValueError):
            integrate(d, [0, 0, 0], [0, 0, 0], 0.5)

    def test_covariance_trace_monotone(self):
        rng = np.random.default_rng(1)
        delta = empty_delta()
        prev = 0.0
        for _ in range(50):
            delta = integrate(delta, rng.normal(size=3), rng.normal(size=3), 0.01)
            tr = float(np.trace(delta.cov))
            assert tr >= prev
            prev = tr

    def test_bias_jacobian_first_order(self):
        rng = np.random.default_rng(2)
        F = rng.normal(scale=2.0, size=(50, 3))
        W = rng.normal(scale=1.0, size=(50, 3))
        d0 = integrate_samples(F, W, 0.01)
        db_a = rng.normal(scale=1e-3, size=3)
        db_g = rng.normal(scale=1e-3, size=3)
        dR_c, dv_c, dp_c = d0.corrected(db_a, db_g)
        d1 = integrate_samples(F, W, 0.01, b_a0=db_a, b_g0=db_g)
        assert np.linalg.norm(so3_log(dR_c.T @ d1.dR)) < 1e-5
        assert np.linalg.norm(dv_c - d1.dv) < 1e-5
        assert np.linalg.norm(dp_c - d1.dp) < 1e-5

    def test_independent_of_absolute_state(self):
        # preintegration never sees the absolute state, so the same samples
        # give the same delta; check predict consistency from two states
        rng = np.random.default_rng(3)
        F = rng.normal(size=(20, 3))
        W = rng.normal(scale=0.5, size=(20, 3))
        d = integrate_samples(F, W, 0.01)
        for _ in range(3):
            x = NavState(
                pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)),
                v=rng.normal(size=3),
            )
            r = imu_residual(x, predict(x, d), d)
            assert np.linalg.norm(r) < 1e-9


class TestPredict:
    def test_empty_delta_identity(self):
        x = NavState()
        y = predict(x, empty_delta())
        np.testing.assert_allclose(y.pose.t, x.pose.t)
        np.testing.assert_allclose(y.v, x.v)

    def test_gravity_cancellation(self):
        delta = empty_delta()
        for _ in range(100):
            delta = integrate(delta, [0, 0, 9.81], [0, 0, 0], 0.01)
        y = predict(NavState(), delta, g=GRAVITY)
        np.testing.assert_allclose(y.v, 0.0, atol=1e-9)
        np.testing.assert_allclose(y.pose.t, 0.0, atol=1e-9)


class TestResidual:
    def test_zero_at_prediction(self):
        rng = np.random.default_rng(4)
        delta = empty_delta()
        for _ in range(30):
            delta = integrate(
                delta, rng.normal(size=3), rng.normal(scale=0.5, size=3), 0.01
            )
        x_i = NavState(
            pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)),
            v=rng.normal(size=3),
        )
        r = imu_residual(x_i, predict(x_i, delta), delta)
        assert np.linalg.norm(r) < 1e-9

    def test_position_perturbation_block(self):
        rng = np.random.default_rng(5)
        delta = empty_delta()
        for _ in range(10):
            delta = integrate(delta, [0, 0, 9.81], [0, 0, 0], 0.01)
        x_i = NavState(pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)))
        x_j = predict(x_i, delta)
        shift = np.array([0.1, 0.0, 0.0])
        x_shifted = NavState(
            pose=Pose(x_j.pose.R, x_j.pose.t + shift),
            v=x_j.v, b_a=x_j.b_a, b_g=x_j.b_g,
        )
        r = imu_residual(x_i, x_shifted, delta)
        np.testing.assert_allclose(r[3:6], x_i.pose.R.T @ shift, atol=1e-9)
        np.testing.assert_allclose(r[:3], 0.0, atol=1e-9)
        np.testing.assert_allclose(r[6:], 0.0, atol=1e-9)

    def test_bias_blocks(self):
        b_i = np.array([0.1, -0.2, 0.3])
        b_j = np.array([-0.4, 0.5, -0.6])
        delta = empty_delta(b_a0=b_i, b_g0=np.zeros(3))
        delta = integrate(delta, b_i, [0, 0, 0], 0.01)
        x_i = NavState(b_a=b_i)
        x_j = predict(x_i, delta)
        x_j = NavState(pose=x_j.pose, v=x_j.v, b_a=b_j, b_g=x_j.b_g)
        r = imu_residual(x_i, x_j, delta)
        np.testing.assert_allclose(r[9:12], b_j - b_i, atol=1e-12)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            delta = empty_delta(
                b_a0=rng.normal(scale=0.05, size=3),
                b_g0=rng.normal(scale=0.01, size=3),
            )
            for _ in range(20):
                delta = integrate(
                    delta, rng.normal(scale=2, size=3), rng.normal(scale=0.5, size=3),
                    0.01,
                )
            states = []
            for _ in range(2):
                states.append(
                    NavState(
                        pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)),
                        v=rng.normal(size=3),
                        b_a=rng.normal(scale=0.05, size=3),
                        b_g=rng.normal(scale=0.01, size=3),
                    )
                )
            x_i, x_j = states
            Ji, Jj = imu_residual_jacobians(x_i, x_j, delta)
            h = 1e-6
            for J, which in ((Ji, 0), (Jj, 1)):
                num = np.zeros_like(J)
                for k in range(STATE_DIM):
                    e = np.zeros(STATE_DIM)
                    e[k] = h
                    xs_p = [x_i, x_j]
                    xs_m = [x_i, x_j]
                    xs_p[which] = xs_p[which].retract(e)
                    xs_m[which] = xs_m[which].retract(-e)
                    num[:, k] = (
                        imu_residual(*xs_p, delta) - imu_residual(*xs_m, delta)
                    ) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(num))))
                assert np.max(np.abs(J - num)) / scale < 1e-5


class TestGravityAlign:
    def test_level(self):
        init = gravity_align([[0, 0, 9.81]] * 10, [[0, 0, 0]] * 10,
                             t0=[1.0, 2.0, 3.0], yaw=0.3)
        assert init.roll == pytest.approx(0.0)
        assert init.pitch == pytest.approx(0.0)
        assert init.yaw == pytest.approx(0.3)
        np.testing.assert_allclose(init.t0, [1, 2, 3])
        np.testing.assert_allclose(init.b_a0, 0.0, atol=1e-12)

    def test_roll_ten_degrees(self):
        a = 9.81 * np.array([0.0, math.sin(math.radians(10)), math.cos(math.radians(10))])
        init = gravity_align([a] * 5, [[0, 0, 0]] * 5, t0=np.zeros(3))
        assert math.degrees(init.roll) == pytest.approx(10.0, abs=1e-9)
        assert init.pitch == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(init.b_a0, 0.0, atol=1e-12)

    def test_pitch_five_degrees(self):
        a = 9.81 * np.array([-math.sin(math.radians(5)), 0.0, math.cos(math.radians(5))])
        init = gravity_align([a] * 5, [[0, 0, 0]] * 5, t0=np.zeros(3))
        assert math.degrees(init.pitch) == pytest.approx(5.0, abs=1e-9)
        assert init.roll == pytest.approx(0.0, abs=1e-12)

    def test_gyro_bias_from_mean(self):
        init = gravity_align([[0, 0, 9.81]] * 8, [[0.01, -0.02, 0.005]] * 8,
                             t0=np.zeros(3))
        np.testing.assert_allclose(init.b_g0, [0.01, -0.02, 0.005])

    def test_not_static_rejected(self):
        with pytest.raises(NotStaticError):
            gravity_align([[0, 0, 15.0]] * 5, [[0, 0, 0]] * 5, t0=np.zeros(3))
