import math
from dataclasses import fields

import numpy as np
import pytest

from mlio.geometry import NavState, Pose, so3_exp, so3_log
from mlio.graph import STATE_DIM
from mlio.preintegration import (
    GRAVITY,
    NotStaticError,
    PreintegratedDelta,
    _corrected,
    gravity_align,
    integrate,
    predict,
    stack_deltas,
)
from oracles import (
    imu_residual,
    imu_residual_jacobians,
    integrate_one,
    integrate_sample,
    predict_one,
    retract,
)


def integrate_samples(F, W, dt, **biases):
    delta = PreintegratedDelta(**biases)
    for f, w in zip(F, W):
        delta = integrate_one(delta, f, w, dt)
    return delta


def predict_across(x, delta, g=GRAVITY):
    """The product prediction across one delta, a block of one."""
    return predict(x, stack_deltas([delta]), g)[0]


def rpy(R):
    """(roll, pitch, yaw) of R = Rz(yaw) Ry(pitch) Rx(roll)."""
    return (math.atan2(R[2, 1], R[2, 2]), math.asin(-R[2, 0]),
            math.atan2(R[1, 0], R[0, 0]))


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
        d = PreintegratedDelta()
        with pytest.raises(ValueError):
            integrate_one(d, [0, 0, 0], [0, 0, 0], 0.0)
        with pytest.raises(ValueError):
            integrate_one(d, [0, 0, 0], [0, 0, 0], 0.5)
        with pytest.raises(ValueError, match="shape"):  # a sample is a block of one
            integrate(d, [0, 0, 0], [0, 0, 0], 0.01)

    def test_covariance_trace_monotone(self):
        rng = np.random.default_rng(1)
        delta = PreintegratedDelta()
        prev = 0.0
        for _ in range(50):
            delta = integrate_one(delta, rng.normal(size=3), rng.normal(size=3), 0.01)
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
        dR_c, dv_c, dp_c, _ = (c[0] for c in _corrected(stack_deltas([d0]),
                                                           db_a, db_g))
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
            r = imu_residual(x, predict_across(x, d), d)
            assert np.linalg.norm(r) < 1e-9


def _block(rng, m):
    """m random fused samples: turn rates from standstill to fast (each
    small-angle threshold of the SO(3) series crossed) and steps from
    1 ms to just under the 0.1 s limit."""
    F = rng.normal(scale=3.0, size=(m, 3))
    W = rng.normal(size=(m, 3)) * np.logspace(-9, 0.5, m)[:, None]
    dt = rng.uniform(0.001, 0.0999, size=m)
    start = PreintegratedDelta(b_a0=rng.normal(scale=0.05, size=3),
                               b_g0=rng.normal(scale=0.005, size=3))
    # a delta in mid-interval, so every Jacobian starts non-zero
    for f, w, h in zip(F[:3], W[-3:], dt[:3]):
        start = integrate_one(start, f, w, h)
    return start, F, W, dt


class TestIntegrateBlock:
    def test_block_equals_single_sample_calls(self):
        """Row k + 1 of a block of m samples equals k + 1 chained
        one-row blocks bit for bit, in every field."""
        start, F, W, dt = _block(np.random.default_rng(30), 50)
        block = integrate(start, F, W, dt)
        one = start
        for k in range(50):
            one = integrate_one(one, F[k], W[k], dt[k])
            for f in fields(one):
                np.testing.assert_array_equal(
                    getattr(block, f.name)[k + 1], getattr(one, f.name),
                    err_msg=f.name)

    def test_block_matches_per_sample_recursion(self):
        """The block kernel against the one-sample recursion it replaced
        (oracles.integrate_sample), within 1e-12 of each field's size."""
        start, F, W, dt = _block(np.random.default_rng(31), 50)
        block = integrate(start, F, W, dt)
        ref = start
        for k in range(50):
            ref = integrate_sample(ref, F[k], W[k], dt[k])
            for f in fields(ref):
                want = np.asarray(getattr(ref, f.name))
                np.testing.assert_allclose(
                    getattr(block, f.name)[k + 1], want, rtol=0,
                    atol=1e-12 * np.abs(want).max(), err_msg=f.name)

    @pytest.mark.parametrize("row", [0, 7, 19])
    @pytest.mark.parametrize("bad", ["dt 0", "dt -1e-3", "dt 0.1", "dt nan",
                                     "f nan", "f inf", "w nan", "w -inf"])
    def test_bad_row_raises(self, row, bad):
        start, F, W, dt = _block(np.random.default_rng(32), 20)
        what, value = bad.split()
        {"dt": dt[row:row + 1], "f": F[row], "w": W[row]}[what][0] = float(value)
        with pytest.raises(ValueError):
            integrate(start, F, W, dt)

    def test_block_of_one_is_a_single_sample(self):
        start, F, W, dt = _block(np.random.default_rng(33), 1)
        block, one = integrate(start, F, W, dt), integrate_one(start, F[0], W[0], dt[0])
        assert block.dR.shape == (2, 3, 3) and one.dR.shape == (3, 3)
        np.testing.assert_array_equal(block.b_g0, np.stack([start.b_g0] * 2))
        for f in fields(one):
            np.testing.assert_array_equal(getattr(block, f.name)[0], getattr(start, f.name))
            np.testing.assert_array_equal(getattr(block, f.name)[1], getattr(one, f.name))

    def test_empty_block_is_the_start_delta(self):
        start, *_ = _block(np.random.default_rng(36), 3)
        block = integrate(start, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert block.dR.shape == (1, 3, 3)
        for f in fields(start):
            np.testing.assert_array_equal(getattr(block, f.name)[0], getattr(start, f.name),
                                          err_msg=f.name)

    def test_take_copies_its_rows(self):
        """A taken row owns its arrays, so a kept delta does not pin the
        block it came from."""
        start, F, W, dt = _block(np.random.default_rng(37), 5)
        block = integrate(start, F, W, dt)
        for rows in (-1, [0, 2, 5]):
            part = block.take(rows)
            for f in fields(block):
                assert not np.shares_memory(getattr(part, f.name), getattr(block, f.name))
                np.testing.assert_array_equal(getattr(part, f.name),
                                              getattr(block, f.name)[rows], err_msg=f.name)


class TestPredict:
    def test_empty_delta_identity(self):
        x = NavState()
        y = predict_across(x, PreintegratedDelta())
        np.testing.assert_allclose(y.pose.t, x.pose.t)
        np.testing.assert_allclose(y.v, x.v)

    def test_gravity_cancellation(self):
        delta = PreintegratedDelta()
        for _ in range(100):
            delta = integrate_one(delta, [0, 0, 9.81], [0, 0, 0], 0.01)
        y = predict_across(NavState(), delta, g=GRAVITY)
        np.testing.assert_allclose(y.v, 0.0, atol=1e-9)
        np.testing.assert_allclose(y.pose.t, 0.0, atol=1e-9)

    @pytest.mark.parametrize("m", [1, 7, 40])
    def test_block_matches_one_delta_at_a_time(self, m):
        """Every row of a predicted block equals the one-delta oracle
        bit for bit, from a rotated, moving, biased state."""
        start, F, W, dt = _block(np.random.default_rng(34), m)
        block = integrate(start, F, W, dt)
        rng = np.random.default_rng(35)
        x = NavState(pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)),
                     v=rng.normal(size=3), b_a=rng.normal(scale=0.05, size=3),
                     b_g=rng.normal(scale=0.005, size=3))
        track = predict(x, block)
        assert track.R.shape == (m + 1, 3, 3)
        for k in range(m + 1):
            one = predict_one(x, block.take(k))
            got = track[k]
            for a, b in ((got.pose.R, one.pose.R), (got.pose.t, one.pose.t),
                         (got.v, one.v), (got.b_a, one.b_a), (got.b_g, one.b_g)):
                np.testing.assert_array_equal(a, b)


class TestResidual:
    def test_zero_at_prediction(self):
        rng = np.random.default_rng(4)
        delta = PreintegratedDelta()
        for _ in range(30):
            delta = integrate_one(
                delta, rng.normal(size=3), rng.normal(scale=0.5, size=3), 0.01
            )
        x_i = NavState(
            pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)),
            v=rng.normal(size=3),
        )
        r = imu_residual(x_i, predict_across(x_i, delta), delta)
        assert np.linalg.norm(r) < 1e-9

    def test_position_perturbation_block(self):
        rng = np.random.default_rng(5)
        delta = PreintegratedDelta()
        for _ in range(10):
            delta = integrate_one(delta, [0, 0, 9.81], [0, 0, 0], 0.01)
        x_i = NavState(pose=Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3)))
        x_j = predict_across(x_i, delta)
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
        delta = PreintegratedDelta(b_a0=b_i, b_g0=np.zeros(3))
        delta = integrate_one(delta, b_i, [0, 0, 0], 0.01)
        x_i = NavState(b_a=b_i)
        x_j = predict_across(x_i, delta)
        x_j = NavState(pose=x_j.pose, v=x_j.v, b_a=b_j, b_g=x_j.b_g)
        r = imu_residual(x_i, x_j, delta)
        np.testing.assert_allclose(r[9:12], b_j - b_i, atol=1e-12)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            delta = PreintegratedDelta(
                b_a0=rng.normal(scale=0.05, size=3),
                b_g0=rng.normal(scale=0.01, size=3),
            )
            for _ in range(20):
                delta = integrate_one(
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
                    xs_p[which] = retract(xs_p[which], e)
                    xs_m[which] = retract(xs_m[which], -e)
                    num[:, k] = (
                        imu_residual(*xs_p, delta) - imu_residual(*xs_m, delta)
                    ) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(num))))
                assert np.max(np.abs(J - num)) / scale < 1e-5


class TestGravityAlign:
    def test_level(self):
        R, b_a0, _ = gravity_align([[0, 0, 9.81]] * 10, [[0, 0, 0]] * 10, yaw=0.3)
        roll, pitch, yaw = rpy(R)
        assert roll == pytest.approx(0.0)
        assert pitch == pytest.approx(0.0)
        assert yaw == pytest.approx(0.3)
        np.testing.assert_allclose(b_a0, 0.0, atol=1e-12)

    def test_roll_ten_degrees(self):
        a = 9.81 * np.array([0.0, math.sin(math.radians(10)), math.cos(math.radians(10))])
        R, b_a0, _ = gravity_align([a] * 5, [[0, 0, 0]] * 5)
        roll, pitch, _ = rpy(R)
        assert math.degrees(roll) == pytest.approx(10.0, abs=1e-9)
        assert pitch == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(b_a0, 0.0, atol=1e-12)

    def test_pitch_five_degrees(self):
        a = 9.81 * np.array([-math.sin(math.radians(5)), 0.0, math.cos(math.radians(5))])
        R, _, _ = gravity_align([a] * 5, [[0, 0, 0]] * 5)
        roll, pitch, _ = rpy(R)
        assert math.degrees(pitch) == pytest.approx(5.0, abs=1e-9)
        assert roll == pytest.approx(0.0, abs=1e-12)

    def test_gyro_bias_from_mean(self):
        _, _, b_g0 = gravity_align([[0, 0, 9.81]] * 8, [[0.01, -0.02, 0.005]] * 8)
        np.testing.assert_allclose(b_g0, [0.01, -0.02, 0.005])

    def test_not_static_rejected(self):
        with pytest.raises(NotStaticError):
            gravity_align([[0, 0, 15.0]] * 5, [[0, 0, 0]] * 5)
