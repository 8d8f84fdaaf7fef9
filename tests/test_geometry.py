import math

import numpy as np
import pytest
from scipy.linalg import expm, logm

from mlio.geometry import (
    _SERIES_SWITCH,
    DegenerateInputError,
    Pose,
    matvec_many,
    pose_compose,
    pose_inverse,
    quat_from_rotmat_many,
    quat_to_rotmat_many,
    se3_exp,
    se3_exp_many,
    se3_left_jacobian_inv_many,
    se3_log,
    skew_many,
    so3_exp,
    so3_exp_many,
    so3_left_jacobian_inv_many,
    so3_left_jacobian_many,
    so3_log,
    so3_log_many,
    so3_series_many,
)
from mlio.lidar import LidarScan
from oracles import (
    deskew_one,
    exact_se3_left_jacobian_inv,
    exact_so3_maps,
    pose_matrix,
    quat_from_rotmat,
    quat_to_rotmat,
    skew,
)


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_pose(rng, max_angle=2.5):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    return Pose(so3_exp(axis * angle), rng.normal(scale=3.0, size=3))


def twist_power(p: Pose, eta: float) -> Pose:
    """p**eta, the pose at fraction eta of p's constant twist."""
    R, t = se3_exp_many(eta * se3_log(p)[None])
    return Pose(R[0], t[0])


def se3_left_jacobian_inv(xi) -> np.ndarray:
    """Inverse left Jacobian of SE(3) in (rot, trans) ordering."""
    return se3_left_jacobian_inv_many(np.asarray(xi, dtype=float)[None])[0]


class TestSkew:
    def test_unit_z(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(skew_many([0, 0, 1]), expected)

    def test_zero(self):
        np.testing.assert_array_equal(skew_many([0, 0, 0]), np.zeros((3, 3)))

    def test_cross_product_antisymmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 100, 3))
        np.testing.assert_allclose(matvec_many(skew_many(a), b), np.cross(a, b), atol=1e-12)
        np.testing.assert_allclose(matvec_many(skew_many(a), b),
                                   -matvec_many(skew_many(b), a), atol=1e-12)

    def test_skew_squared_equals_nested_cross(self):
        rng = np.random.default_rng(1)
        w, t = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(
            skew_many(w) @ skew_many(w) @ t, np.cross(w, np.cross(w, t)), atol=1e-12
        )

    def test_any_leading_shape(self):
        v = np.random.default_rng(2).normal(size=(2, 4, 3))
        got = skew_many(v)
        assert got.shape == (2, 4, 3, 3)
        for i, j in np.ndindex(2, 4):
            np.testing.assert_array_equal(got[i, j], skew_many(v[i, j]))


class TestPose:
    def test_compose_identity(self):
        p = Pose(rot_z(0.7), np.array([1.0, 2.0, 3.0]))
        q = pose_compose(Pose.identity(), p)
        np.testing.assert_allclose(q.R, p.R)
        np.testing.assert_allclose(q.t, p.t)

    def test_inverse_pure_translation(self):
        p = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(pose_inverse(p).t, [-1.0, -2.0, -3.0])

    def test_rotation_group(self):
        q = pose_compose(Pose(rot_z(math.pi / 2)), Pose(rot_z(math.pi / 2)))
        np.testing.assert_allclose(q.R, rot_z(math.pi), atol=1e-12)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_pose(rng)
            e = pose_compose(p, pose_inverse(p))
            np.testing.assert_allclose(e.R, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(e.t, 0.0, atol=1e-9)

    def test_public_constructor_projects_a_non_rotation(self):
        R = rot_z(0.4) + 1e-5 * np.arange(9.0).reshape(3, 3)
        p = Pose(R, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(p.R @ p.R.T, np.eye(3), atol=1e-12)
        assert np.linalg.norm(p.R - R) > 1e-6

    def test_derived_poses_are_the_plain_products(self):
        """compose, inverse and exp return their arithmetic as is: the
        inputs are rotations already."""
        rng = np.random.default_rng(4)
        a, b = random_pose(rng), random_pose(rng)
        ab = pose_compose(a, b)
        assert ab.R.tobytes() == (a.R @ b.R).tobytes()
        assert ab.t.tobytes() == (a.R @ b.t + a.t).tobytes()
        inv = pose_inverse(a)
        assert inv.R.tobytes() == a.R.T.tobytes()
        assert inv.t.tobytes() == (-(a.R.T @ a.t)).tobytes()
        xi = rng.normal(size=6)
        R, t = se3_exp_many(xi[None])
        e = se3_exp(xi)
        assert e.R.tobytes() == R[0].tobytes() and e.t.tobytes() == t[0].tobytes()

    def test_orthonormality_after_long_chain(self):
        rng = np.random.default_rng(3)
        p = Pose.identity()
        step = random_pose(rng, max_angle=0.3)
        for _ in range(2000):
            p = pose_compose(p, step)
        np.testing.assert_allclose(p.R @ p.R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(p.R) == pytest.approx(1.0, abs=1e-9)


class TestDqPow:
    """The constant-twist power T**eta = se3_exp(eta * se3_log(T)), the
    kernel of scan deskewing and of the simulator's scans (formerly a
    dual-quaternion screw power, hence the name)."""

    def test_zero_exponent(self):
        rng = np.random.default_rng(6)
        r = twist_power(random_pose(rng), 0.0)
        np.testing.assert_allclose(r.R, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(r.t, 0.0, atol=1e-12)

    def test_unit_exponent(self):
        rng = np.random.default_rng(7)
        p = random_pose(rng)
        r = twist_power(p, 1.0)
        np.testing.assert_allclose(r.R, p.R, atol=1e-9)
        np.testing.assert_allclose(r.t, p.t, atol=1e-9)

    def test_half_translation(self):
        p = twist_power(Pose(np.eye(3), np.array([1.0, 0.0, 0.0])), 0.5)
        np.testing.assert_allclose(p.t, [0.5, 0, 0], atol=1e-12)
        np.testing.assert_allclose(p.R, np.eye(3), atol=1e-12)

    def test_half_screw_against_matrix_log_oracle(self):
        pose = Pose(rot_z(math.pi / 2), np.array([0.0, 0.0, 1.0]))
        got = twist_power(pose, 0.5)
        expected = expm(0.5 * logm(pose_matrix(pose)))
        np.testing.assert_allclose(pose_matrix(got), expected.real, atol=1e-9)
        np.testing.assert_allclose(got.R, rot_z(math.pi / 4), atol=1e-9)
        np.testing.assert_allclose(got.t, [0, 0, 0.5], atol=1e-9)

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.9])
    def test_random_pose_against_matrix_log_oracle(self, eta):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_pose(rng)
            got = pose_matrix(twist_power(p, eta))
            expected = expm(eta * logm(pose_matrix(p))).real
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_semigroup_half_half(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_pose(rng)
            half = twist_power(p, 0.5)
            full = pose_compose(half, half)
            np.testing.assert_allclose(full.R, p.R, atol=1e-8)
            np.testing.assert_allclose(full.t, p.t, atol=1e-8)

    def test_angle_pi_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            twist_power(Pose(rot_z(math.pi), np.zeros(3)), 0.5)

    def test_transform_points_many_matches_per_point(self):
        """The one-scan deskew maps point i by T**eta_i, checked point
        by point against the matrix exponential of eta_i log T."""
        rng = np.random.default_rng(10)
        p = random_pose(rng)
        start = random_pose(rng)
        stamps = np.sort(rng.integers(0, 100_000_000, size=40))
        pts = rng.normal(scale=5.0, size=(40, 3))
        scan = LidarScan("lidar/F_L", 0, 100_000_000, stamps, pts)
        got = deskew_one(scan, start, pose_compose(start, p))
        log_p = logm(pose_matrix(p))
        for i, s in enumerate(stamps):
            T = expm(s / 100_000_000 * log_p).real
            expected = T[:3, :3] @ pts[i] + T[:3, 3]
            np.testing.assert_allclose(got[i], expected, atol=1e-9)

    def test_many_matches_matrix_exponential(self):
        """Each row of se3_exp_many is expm of the 4x4 twist matrix,
        from zero through the small-angle series to near a half-turn."""
        rng = np.random.default_rng(15)
        axes = rng.normal(size=(30, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate([[0.0, 1e-9, 1e-7, 1e-5],
                                 rng.uniform(0.0, 3.1, size=26)])
        xi = np.concatenate(
            [angles[:, None] * axes, rng.normal(scale=3.0, size=(30, 3))], axis=1
        )
        R, t = se3_exp_many(xi)
        for k in range(len(xi)):
            A = np.zeros((4, 4))
            A[:3, :3] = skew(xi[k, :3])
            A[:3, 3] = xi[k, 3:]
            T = expm(A)
            np.testing.assert_allclose(R[k], T[:3, :3], rtol=0, atol=1e-12)
            np.testing.assert_allclose(t[k], T[:3, 3], rtol=0, atol=1e-11)
            single = se3_exp(xi[k])
            np.testing.assert_array_equal(single.R, R[k])
            np.testing.assert_array_equal(single.t, t[k])


def assert_exact(got, want):
    """got equals the exact reference within 2e-15 of max(1, max |entry|)."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=2e-15 * max(1.0, float(np.abs(want).max())))


class TestSo3Series:
    """The SO(3) and SE(3) series against each other, and against their
    exact references: the defining power series summed in decimal
    (oracles.exact_so3_maps and oracles.exact_se3_left_jacobian_inv)."""

    # zero, each former small-angle threshold and the kernel's switch from
    # both sides, and a log-spaced sweep to near a half-turn
    ANGLES = ([0.0, 1e-9]
              + [t * f for t in (1e-8, 1e-6, 1e-4, _SERIES_SWITCH)
                 for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
              + [0.3, 3.0] + np.geomspace(1e-7, math.pi - 1e-3, 12).tolist())

    @pytest.mark.parametrize("angle", ANGLES)
    def test_bit_identical_to_separate_terms(self, angle):
        """Each map of so3_series_many has the bits of the function that
        gives it alone: one kernel call gives every coefficient."""
        rng = np.random.default_rng(15)
        axes = rng.normal(size=(20, 3))
        phi = angle * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        Exp, Jl, Jr, _ = so3_series_many(phi)
        np.testing.assert_array_equal(Exp, so3_exp_many(phi))
        np.testing.assert_array_equal(Jl, so3_left_jacobian_many(phi))
        np.testing.assert_array_equal(Jr, so3_left_jacobian_many(-phi))
        for p, exp in zip(phi, Exp):
            np.testing.assert_array_equal(so3_exp(p), exp)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_batched_series_matches_single_vector(self, angle):
        """so3_series_many (Exp, J_l, J_r, C) and so3_left_jacobian_inv_many
        against the exact single-vector reference, on 20 axes."""
        rng = np.random.default_rng(15)
        axes = rng.normal(size=(20, 3))
        phi = angle * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        got = (*so3_series_many(phi), so3_left_jacobian_inv_many(phi))
        for k, p in enumerate(phi):
            for g, w in zip(got, exact_so3_maps(p)):
                assert_exact(g[k], w)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_se3_left_jacobian_inv_is_exact(self, angle):
        """The SE(3) J_l^-1 on 6 axes with |rho| from 0.1 to 10 m."""
        rng = np.random.default_rng(16)
        axes, rho = rng.normal(size=(2, 6, 3))
        phi = angle * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        rho *= np.array([0.1, 0.3, 1.0, 3.0, 10.0, 10.0])[:, None] \
            / np.linalg.norm(rho, axis=1, keepdims=True)
        xi = np.concatenate([phi, rho], axis=1)
        for x, got in zip(xi, se3_left_jacobian_inv_many(xi)):
            assert_exact(got, exact_se3_left_jacobian_inv(x))

    @pytest.mark.parametrize("angle", [1e-6, 5e-5, 9.9e-5, 1.5e-4])
    def test_se3_q_block_signs_at_small_angles(self, angle):
        """Near and below 1e-4 rad, where the coefficients 1/24 and 1/120
        of the second-order block Q's third- and fourth-order terms
        cancel in their closed forms: with |rho| = 10 m a flipped sign of
        either is off by about theta^2 |rho| / 4."""
        rng = np.random.default_rng(17)
        for axis, rho in rng.normal(size=(10, 2, 3)):
            xi = np.concatenate([angle * axis / np.linalg.norm(axis),
                                 10.0 * rho / np.linalg.norm(rho)])
            assert_exact(se3_left_jacobian_inv(xi), exact_se3_left_jacobian_inv(xi))

    def test_se3_exp_many_shares_the_so3_terms(self):
        """The shared (theta, K, K @ K) give the same bits as the two
        batched SO(3) series they stand for."""
        rng = np.random.default_rng(16)
        xi = rng.normal(size=(50, 6)) * np.logspace(-10, 0.5, 50)[:, None]
        R, t = se3_exp_many(xi)
        np.testing.assert_array_equal(R, so3_exp_many(xi[:, :3]))
        np.testing.assert_array_equal(
            t, matvec_many(so3_left_jacobian_many(xi[:, :3]), xi[:, 3:]))


class TestSo3Log:
    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_round_trip_near_pi(self, gap):
        """Log(Exp(phi)) = phi for |phi| = pi - gap, within 1e-12 rad
        (a few thousand rounding units of pi) on 200 random axes."""
        rng = np.random.default_rng(13)
        axes = rng.normal(size=(200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        phis = (math.pi - gap) * axes
        worst = max(
            float(np.max(np.abs(so3_log(so3_exp(phi)) - phi))) for phi in phis
        )
        assert worst < 1e-12

    def test_batched_matches_single(self):
        """Each row of so3_log_many is so3_log of that rotation, over
        angles from zero to near pi, both sides of the quarter turn."""
        rng = np.random.default_rng(14)
        axes = rng.normal(size=(50, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        phis = rng.uniform(0.0, math.pi - 1e-3, size=(50, 1)) * axes
        phis[0] = 0.0
        R = so3_exp_many(phis)
        for phi, Rk in zip(phis, R):
            np.testing.assert_allclose(Rk, so3_exp(phi), rtol=0, atol=1e-15)
        got = so3_log_many(R)
        for k in range(len(R)):
            np.testing.assert_array_equal(got[k], so3_log(R[k]))
        np.testing.assert_allclose(got, phis, rtol=0, atol=1e-12)


class TestSe3LogExp:
    def test_identity(self):
        np.testing.assert_allclose(se3_log(Pose.identity()), np.zeros(6))
        p = se3_exp(np.zeros(6))
        np.testing.assert_allclose(p.R, np.eye(3))
        np.testing.assert_allclose(p.t, 0.0)

    def test_small_rotation_ordering(self):
        theta = 1e-4
        xi = se3_log(Pose(rot_z(theta), np.zeros(3)))
        np.testing.assert_allclose(xi, [0, 0, theta, 0, 0, 0], atol=1e-12)

    def test_round_trip_random_tangents(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            phi = rng.normal(size=3)
            n = np.linalg.norm(phi)
            if n > 0:
                phi *= rng.uniform(0.0, 2.99) / n
            xi = np.concatenate([phi, rng.normal(scale=5.0, size=3)])
            back = se3_log(se3_exp(xi))
            worst = max(worst, float(np.max(np.abs(back - xi))))
        assert worst < 1e-9

    def test_log_near_pi_raises(self):
        with pytest.raises(DegenerateInputError):
            se3_log(Pose(rot_z(math.pi - 1e-9), np.zeros(3)))

    def test_left_jacobian_inv_against_finite_differences(self):
        # d/d eps Log(Exp(eps) X) at eps=0 equals Jl^-1(Log X)
        rng = np.random.default_rng(12)
        for _ in range(20):
            xi = rng.normal(scale=0.8, size=6)
            X = se3_exp(xi)
            Jinv = se3_left_jacobian_inv(se3_log(X))
            num = np.zeros((6, 6))
            h = 1e-6
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                plus = se3_log(pose_compose(se3_exp(e), X))
                minus = se3_log(pose_compose(se3_exp(-e), X))
                num[:, k] = (plus - minus) / (2.0 * h)
            np.testing.assert_allclose(Jinv, num, atol=1e-5)


class TestQuatFromRotmat:
    @staticmethod
    def _rotations():
        """Random rotations, and rotations within 1e-12..0.3 rad of 180°
        about each axis and random axes, where the trace is <= 0 and
        each diagonal branch is taken."""
        rng = np.random.default_rng(21)
        n = 6000
        axes = np.vstack([np.repeat(np.eye(3), 500, axis=0), rng.normal(size=(n, 3))])
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        near_pi = np.pi - 10.0 ** rng.uniform(-12, -0.5, len(axes))
        uniform = rng.normal(size=(n, 3))
        uniform *= rng.uniform(0, np.pi, (n, 1)) / np.linalg.norm(uniform, axis=1, keepdims=True)
        flips = [np.diag(d) for d in ([1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1])]
        return np.concatenate([so3_exp_many(axes * near_pi[:, None]),
                               so3_exp_many(uniform), [np.eye(3), *flips]])

    def test_bitwise_equal_to_the_one_matrix_oracle(self):
        R = self._rotations()
        assert len(R) >= 10_000
        got = quat_from_rotmat_many(R)
        expected = np.array([quat_from_rotmat(r) for r in R])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        # every branch ran: the trace and each diagonal entry was largest
        d = np.einsum("nii->ni", R)
        largest = np.where(d.sum(axis=1) > 0, 3, d.argmax(axis=1))
        assert set(largest.tolist()) == {0, 1, 2, 3}

    def test_round_trip_and_sign(self):
        R = self._rotations()
        q = quat_from_rotmat_many(R)
        assert (q[:, 0] >= 0).all()
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-15)
        back = quat_to_rotmat_many(q)
        assert np.array_equal(back, [quat_to_rotmat(row) for row in q])
        np.testing.assert_allclose(back, R, atol=1e-12)
        assert quat_from_rotmat_many(np.zeros((0, 3, 3))).shape == (0, 4)
