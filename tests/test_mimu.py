from dataclasses import replace

import numpy as np
import pytest

from mlio.geometry import so3_exp
from mlio.mimu import (
    BatchFuser,
    ImuChannelCalib,
    ImuPlausibilityError,
    ImuStream,
    MimuArray,
)
from mlio.sim import Scenario, load_scenario, save_scenario
from oracles import (
    FusedRow,
    ImuSample,
    build_stacked_model,
    fuse_average_many,
    fuse_gyro,
    fuse_mle,
    skew,
    transform_to_base,
)


def calib(t=(0, 0, 0), R=None, acc_var=1.0, gyro_var=1.0):
    return ImuChannelCalib(
        R=np.eye(3) if R is None else R,
        t=np.asarray(t, dtype=float),
        acc_noise_var=np.full(3, acc_var),
        gyro_noise_var=np.full(3, gyro_var),
    )


def scale_variances(channels, k):
    """The channels with every noise variance multiplied by k."""
    return tuple(
        replace(c, acc_noise_var=k * c.acc_noise_var,
                gyro_noise_var=k * c.gyro_noise_var)
        for c in channels
    )


def fuse_average(arr, y_f, y_w) -> FusedRow:
    """Arithmetic-mean baseline with per-channel centrifugal correction."""
    y_f = np.asarray(y_f, dtype=float).reshape(arr.K, 3)
    y_w = np.asarray(y_w, dtype=float).reshape(arr.K, 3)
    f = [yf - skew(yw) @ skew(yw) @ c.t
         for yf, yw, c in zip(y_f, y_w, arr.channels)]
    return FusedRow(f=np.mean(f, axis=0), w=y_w.mean(axis=0),
                    w_dot=np.zeros(3), w_dot_observable=False)


def stack_channel_samples(arr, samples, indices):
    """(sub_array, y_f, y_w): the samples of channels `indices` rotated
    into the base orientation and stacked, and the array of those channels."""
    sub = arr.subset(indices)
    y_f = np.concatenate([sub.channels[i].R @ s.f for i, s in enumerate(samples)])
    y_w = np.concatenate([sub.channels[i].R @ s.w for i, s in enumerate(samples)])
    return sub, y_f, y_w


class TestImuSample:
    def test_plausibility_gates(self):
        with pytest.raises(ImuPlausibilityError):
            ImuSample(0, f=[500.0, 0, 0], w=[0, 0, 0])
        with pytest.raises(ImuPlausibilityError):
            ImuSample(0, f=[0, 0, 0], w=[40.0, 0, 0])
        with pytest.raises(ImuPlausibilityError):
            ImuSample(0, f=[np.nan, 0, 0], w=[0, 0, 0])


def stream_with(row=None, f=None, w=None, n=5):
    """A plausible n-row stream of imu/R_L, with row `row` replaced."""
    F = np.tile([0.1, -0.2, 9.81], (n, 1))
    W = np.tile([0.01, 0.02, -0.3], (n, 1))
    if f is not None:
        F[row] = f
    if w is not None:
        W[row] = w
    return ImuStream(np.arange(n) * 10_000_000, F, W, "imu/R_L")


class TestImuStream:
    def test_plausible_stream_is_columnar(self):
        s = stream_with()
        assert len(s) == 5
        assert s.stamps.dtype == np.int64 and s.stamps.shape == (5,)
        assert s.f.shape == (5, 3) and s.w.shape == (5, 3)

    def test_non_finite_names_sensor_and_row(self):
        with pytest.raises(ImuPlausibilityError, match=r"imu/R_L row 3: non-finite"):
            stream_with(3, w=[0.0, np.inf, 0.0])
        with pytest.raises(ImuPlausibilityError, match=r"imu/R_L row 1: non-finite"):
            stream_with(1, f=[np.nan, 0.0, 0.0])

    def test_specific_force_limit_names_sensor_and_row(self):
        stream_with(2, f=[199.9, 0.0, 0.0])
        with pytest.raises(ImuPlausibilityError,
                           match=r"imu/R_L row 2: specific force 200\.0"):
            stream_with(2, f=[0.0, 0.0, 200.0])

    def test_angular_rate_limit_names_sensor_and_row(self):
        stream_with(4, w=[0.0, 34.9, 0.0])
        with pytest.raises(ImuPlausibilityError,
                           match=r"imu/R_L row 4: angular rate 35\.0"):
            stream_with(4, w=[0.0, 35.0, 0.0])

    def test_first_bad_row_is_named(self):
        F = np.tile([0.0, 0.0, 9.81], (6, 1))
        W = np.zeros((6, 3))
        F[4] = [500.0, 0, 0]
        W[2] = [40.0, 0, 0]
        with pytest.raises(ImuPlausibilityError, match=r"row 2: angular rate"):
            ImuStream(np.arange(6), F, W, "imu/F_L")

    def test_take_keeps_rows_and_sensor(self):
        s = stream_with()
        sub = s.take(np.array([True, False, True, False, True]))
        assert sub.stamps.tolist() == [0, 20_000_000, 40_000_000]
        assert sub.sensor_id == "imu/R_L"
        assert np.array_equal(sub.f, s.f[::2])


class TestTransformToBase:
    def test_identity_calibration(self):
        s = ImuSample(0, f=[1.0, 2.0, 3.0], w=[0.1, 0.2, 0.3])
        out = transform_to_base(s, calib())
        np.testing.assert_allclose(out.f, s.f)
        np.testing.assert_allclose(out.w, s.w)

    def test_centripetal_term(self):
        s = ImuSample(0, f=[0.0, 0, 0], w=[0, 0, 1.0])
        out = transform_to_base(s, calib(t=(1, 0, 0)))
        # -w x (w x t) with w=(0,0,1), t=(1,0,0) gives +x
        np.testing.assert_allclose(out.f, [1.0, 0, 0], atol=1e-12)

    def test_euler_term(self):
        s = ImuSample(0, f=[0.0, 0, 0], w=[0.0, 0, 0])
        out = transform_to_base(s, calib(t=(1, 0, 0)), w_dot_est=[0, 0, 1.0])
        np.testing.assert_allclose(out.f, [0.0, -1.0, 0.0], atol=1e-12)

    def test_rotated_channel_round_trip(self):
        rng = np.random.default_rng(0)
        R = so3_exp(rng.normal(size=3))
        t = rng.normal(size=3)
        c = calib(t=t, R=R)
        f_b, w_b, w_dot = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        f_i = R.T @ (f_b + np.cross(w_b, np.cross(w_b, t)) + np.cross(w_dot, t))
        w_i = R.T @ w_b
        out = transform_to_base(ImuSample(0, f=f_i, w=w_i), c, w_dot_est=w_dot)
        np.testing.assert_allclose(out.f, f_b, atol=1e-10)
        np.testing.assert_allclose(out.w, w_b, atol=1e-10)


class TestStackedModel:
    def test_single_channel_zero_lever(self):
        arr = MimuArray((calib(),))
        h, H = build_stacked_model(arr, np.zeros(3))
        np.testing.assert_allclose(h, np.zeros(6))
        np.testing.assert_allclose(H[:3, :3], np.zeros((3, 3)))
        np.testing.assert_allclose(H[:3, 3:], np.eye(3))
        np.testing.assert_allclose(H[3:, :], np.zeros((3, 6)))

    def test_two_channels_centrifugal_rows(self):
        arr = MimuArray((calib(t=(1, 0, 0)), calib()))
        h, _ = build_stacked_model(arr, [0, 0, 1.0])
        w = np.array([0.0, 0, 1.0])
        np.testing.assert_allclose(h[:3], skew(w) @ skew(w) @ [1.0, 0, 0])
        np.testing.assert_allclose(h[:3], [-1.0, 0, 0])

    def test_gyro_block_repeats_omega(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=3)
        arr = MimuArray((calib(), calib(t=(0, 1, 0)), calib(t=(1, 1, 0))))
        h, H = build_stacked_model(arr, w)
        np.testing.assert_allclose(h[9:], np.tile(w, 3))
        np.testing.assert_allclose(H[9:], 0.0)


class TestFuseGyro:
    def test_equal_weights_mean(self):
        arr = MimuArray((calib(), calib(t=(1, 0, 0))))
        w = fuse_gyro(arr, np.array([1.0, 0, 0, 3.0, 0, 0]))
        np.testing.assert_allclose(w, [2.0, 0, 0])

    def test_inverse_variance_weights(self):
        arr = MimuArray((calib(gyro_var=1.0), calib(gyro_var=4.0)))
        w = fuse_gyro(arr, np.array([1.0, 0, 0, 6.0, 0, 0]))
        np.testing.assert_allclose(w, [2.0, 0, 0])

    def test_single_channel_identity(self):
        arr = MimuArray((calib(),))
        y = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(fuse_gyro(arr, y), y)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        base = MimuArray((calib(gyro_var=0.5), calib(t=(1, 0, 0), gyro_var=2.0)))
        scaled = MimuArray(scale_variances(base.channels, 7.3))
        np.testing.assert_allclose(scaled.Q, 7.3 * base.Q, rtol=1e-15)
        y = rng.normal(size=6)
        np.testing.assert_allclose(
            fuse_gyro(base, y), fuse_gyro(scaled, y), atol=1e-10
        )


class TestFuseMle:
    def test_degenerate_lever_arms(self):
        arr = MimuArray(tuple(calib() for _ in range(4)))
        f0 = np.array([1.0, -2.0, 9.0])
        y_f = np.tile(f0, 4)
        y_w = np.zeros(12)
        out = fuse_mle(arr, y_f, y_w)
        assert not out.w_dot_observable
        np.testing.assert_allclose(out.f, f0, atol=1e-10)
        np.testing.assert_allclose(out.w_dot, 0.0)

    def test_symmetric_pair_against_dense_ls_oracle(self):
        arr = MimuArray((calib(t=(1, 0, 0)), calib(t=(-1, 0, 0))))
        g = np.array([0.0, 0, 9.81])
        delta = np.array([0.0, 0.4, 0.0])
        y_f = np.concatenate([g + delta, g - delta])
        y_w = np.zeros(6)
        out = fuse_mle(arr, y_f, y_w)
        # independent dense least-squares on the stacked system
        _, H = build_stacked_model(arr, np.zeros(3))
        y = np.concatenate([y_f, y_w])
        phi, *_ = np.linalg.lstsq(H, y, rcond=None)
        np.testing.assert_allclose(out.w_dot, phi[:3], atol=1e-9)
        np.testing.assert_allclose(out.f, phi[3:], atol=1e-9)
        np.testing.assert_allclose(out.f, g, atol=1e-9)

    def test_uniform_q_equals_unweighted_ls(self):
        rng = np.random.default_rng(3)
        channels = tuple(calib(t=rng.normal(size=3), acc_var=1.0) for _ in range(3))
        arr = MimuArray(scale_variances(channels, 0.37))
        y_f, y_w = rng.normal(size=9), rng.normal(size=9)
        out = fuse_mle(arr, y_f, y_w)
        w = fuse_gyro(arr, y_w)
        h, H = build_stacked_model(arr, w)
        phi, *_ = np.linalg.lstsq(H, np.concatenate([y_f, y_w]) - h, rcond=None)
        np.testing.assert_allclose(np.concatenate([out.w_dot, out.f]), phi, atol=1e-9)

    def test_normal_equations_satisfied(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            K = int(rng.integers(2, 5))
            channels = tuple(
                calib(
                    t=rng.normal(size=3),
                    R=so3_exp(rng.normal(size=3)),
                    acc_var=rng.uniform(0.5, 2.0),
                    gyro_var=rng.uniform(0.5, 2.0),
                )
                for _ in range(K)
            )
            arr = MimuArray(channels)
            y_f, y_w = rng.normal(size=3 * K), rng.normal(size=3 * K)
            out = fuse_mle(arr, y_f, y_w)
            h, H = build_stacked_model(arr, out.w)
            y = np.concatenate([y_f, y_w])
            phi = np.concatenate([out.w_dot, out.f])
            resid = H.T @ np.linalg.inv(arr.Q) @ (y - h - H @ phi)
            assert np.linalg.norm(resid) < 1e-8

    def test_single_channel_reproduces_input(self):
        arr = MimuArray((calib(),))
        y_f = np.array([1.0, 2.0, 3.0])
        y_w = np.array([0.1, 0.2, 0.3])
        out = fuse_mle(arr, y_f, y_w)
        assert not out.w_dot_observable
        np.testing.assert_allclose(out.f, y_f, atol=1e-12)
        np.testing.assert_allclose(out.w, y_w, atol=1e-12)

    def test_dropout_any_subset_valid(self):
        rng = np.random.default_rng(5)
        arr = MimuArray(
            tuple(calib(t=t) for t in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
        )
        samples = [
            ImuSample(0, f=rng.normal(size=3), w=rng.normal(scale=0.1, size=3))
            for _ in range(4)
        ]
        for keep in [[0], [1, 3], [0, 2, 3], [0, 1, 2, 3]]:
            sub, y_f, y_w = stack_channel_samples(
                arr, [samples[i] for i in keep], keep
            )
            out = fuse_mle(sub, y_f, y_w)
            assert np.all(np.isfinite(out.f)) and np.all(np.isfinite(out.w))


class TestFuseAverage:
    def test_identical_channels(self):
        arr = MimuArray((calib(), calib()))
        out = fuse_average(arr, np.tile([1.0, 2, 3], 2), np.tile([0.1, 0, 0], 2))
        np.testing.assert_allclose(out.f, [1.0, 2, 3], atol=1e-12)

    def test_mean_of_two(self):
        arr = MimuArray((calib(), calib()))
        out = fuse_average(
            arr, np.array([1.0, 0, 0, 3.0, 0, 0]), np.zeros(6)
        )
        np.testing.assert_allclose(out.f, [2.0, 0, 0])

    def test_matches_mle_omega_for_uniform_q(self):
        rng = np.random.default_rng(6)
        arr = MimuArray((calib(), calib(t=(1, 0, 0))))
        y_w = rng.normal(size=6)
        y_f = rng.normal(size=6)
        np.testing.assert_allclose(
            fuse_average(arr, y_f, y_w).w, fuse_mle(arr, y_f, y_w).w, atol=1e-10
        )


class TestBatchFuser:
    def test_matches_per_sample_fusion(self):
        rng = np.random.default_rng(7)
        arr = MimuArray(
            tuple(
                calib(t=rng.normal(size=3), acc_var=rng.uniform(0.5, 2))
                for _ in range(3)
            )
        )
        fuser = BatchFuser(arr)
        Yf = rng.normal(size=(10, 9))
        Yw = rng.normal(size=(10, 9))
        F, W, Wdot = fuser.fuse(Yf, Yw)
        for i in range(10):
            ref = fuse_mle(arr, Yf[i], Yw[i])
            np.testing.assert_allclose(F[i], ref.f, atol=1e-9)
            np.testing.assert_allclose(W[i], ref.w, atol=1e-9)
            np.testing.assert_allclose(Wdot[i], ref.w_dot, atol=1e-9)

    def test_average_matches_per_sample(self):
        rng = np.random.default_rng(8)
        arr = MimuArray((calib(t=(1, 0, 0)), calib(t=(0, 1, 0))))
        Yf, Yw = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        F, W = fuse_average_many(arr, Yf, Yw)
        for i in range(5):
            ref = fuse_average(arr, Yf[i], Yw[i])
            np.testing.assert_allclose(F[i], ref.f, atol=1e-10)
            np.testing.assert_allclose(W[i], ref.w, atol=1e-10)


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        """The `imus` block of a scenario file is the rig calibration."""
        rng = np.random.default_rng(9)
        channels = {
            "F_L": calib(t=rng.normal(size=3), R=so3_exp(rng.normal(size=3))),
            "R_R": calib(t=(0, 1, 2), acc_var=0.25, gyro_var=0.04),
        }
        path = tmp_path / "scenario.yaml"
        save_scenario(path, Scenario(imus=channels))
        loaded = load_scenario(path).imus
        assert set(loaded) == {"F_L", "R_R"}
        for cid in channels:
            np.testing.assert_allclose(loaded[cid].R, channels[cid].R, atol=1e-9)
            np.testing.assert_allclose(loaded[cid].t, channels[cid].t, atol=1e-9)
            np.testing.assert_allclose(
                loaded[cid].acc_noise_var, channels[cid].acc_noise_var
            )
