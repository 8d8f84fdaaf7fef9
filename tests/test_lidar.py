import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.spatial import cKDTree

from mlio.geometry import (
    Pose,
    matvec_many,
    pose_compose,
    pose_inverse,
    se3_exp,
    se3_exp_many,
    se3_log,
    so3_exp,
    so3_log,
)
from mlio.lidar import (
    IcpConfig,
    LidarScan,
    OdomEstimate,
    _apply_delta,
    _Hoods,
    deskew,
    icp_register,
    map_update,
    voxel_downsample,
)
from mlio.submap import _FIT_CHUNK, LocalSubmap, _smallest_eigenpairs, voxel_keys
from mlio.sim import NoiseSpec, corridor_scenario, simulate
from oracles import (
    ArraySubmap,
    brute_knn,
    deskew_one,
    icp_register_requery,
    pose_matrix,
    residual_between,
    voxel_downsample_rows,
)
from submap_oracle import DictSubmap, fit_planes


def twist_power(rel: Pose, eta: float) -> Pose:
    """rel**eta by the matrix exponential of eta log(rel), independent of
    the se3_exp kernel that deskew uses."""
    T = expm(eta * logm(pose_matrix(rel))).real
    return Pose(T[:3, :3], T[:3, 3])


class MissingCalibrationError(KeyError):
    pass


def fuse_to_base(scans, calib: dict) -> np.ndarray:
    """Union of the scans in the base frame; calib maps sensor -> base pose."""
    clouds = []
    for scan in scans:
        if scan.sensor_id not in calib:
            raise MissingCalibrationError(
                f"no extrinsic calibration for sensor {scan.sensor_id!r}"
            )
        clouds.append(calib[scan.sensor_id].apply(scan.points))
    return np.concatenate(clouds, axis=0)


def unbounded_knn(submap, queries, k):
    """k-NN over a KD-tree built as the submap builds it (same ties),
    searched without a distance bound: (distances, coordinates), as
    `LocalSubmap.knn` reports them."""
    pts = submap._points
    d, idx = cKDTree(pts, balanced_tree=False).query(np.atleast_2d(queries), k=k)
    idx = idx.reshape(len(queries), -1)
    return d.reshape(idx.shape), np.concatenate([pts, np.full((1, 3), np.inf)])[idx]


def grid_on_plane(origin, u, v, nu, nv, su, sv):
    origin, u, v = (np.asarray(x, dtype=float) for x in (origin, u, v))
    a = np.linspace(0.0, su, nu)
    b = np.linspace(0.0, sv, nv)
    A, B = np.meshgrid(a, b)
    return origin + A.reshape(-1, 1) * u + B.reshape(-1, 1) * v


def structured_scene(step=35):
    """Ground plane plus walls and a box corner: well-constrained for ICP."""
    clouds = [
        grid_on_plane([-10, -10, 0], [1, 0, 0], [0, 1, 0], step, step, 20, 20),
        grid_on_plane([-10, 8, 0], [1, 0, 0], [0, 0, 1], step, step // 2, 20, 4),
        grid_on_plane([-10, -10, 0], [0, 1, 0], [0, 0, 1], step, step // 2, 18, 4),
        grid_on_plane([4, -2, 0], [0, 1, 0], [0, 0, 1], step // 2, step // 3, 3, 2),
        grid_on_plane([4, -2, 0], [1, 0, 0], [0, 0, 1], step // 2, step // 3, 3, 2),
    ]
    return np.concatenate(clouds, axis=0)


class TestLocalSubmap:
    def test_insert_dedup(self):
        m = LocalSubmap(voxel_resolution=0.05, extent=150.0)
        pts = np.random.default_rng(0).uniform(-1, 1, size=(500, 3))
        m.insert(pts)
        n = len(m)
        m.insert(pts)
        assert len(m) == n

    def test_crop_box(self):
        m = LocalSubmap(voxel_resolution=0.05, extent=10.0)
        m.insert([[0, 0, 0], [20, 0, 0], [4.0, 4.0, 4.0]])
        removed = m.crop_to_box([0, 0, 0])
        assert removed == 1
        assert len(m) == 2

    def test_knn_matches_brute_force_after_churn(self):
        rng = np.random.default_rng(1)
        m = LocalSubmap(voxel_resolution=0.05, extent=6.0)
        for round_ in range(5):
            m.insert(rng.uniform(-3, 3, size=(300, 3)))
            m.crop_to_box(rng.uniform(-1, 1, size=3))
            queries = rng.uniform(-3, 3, size=(20, 3))
            d, _ = m.knn(queries, k=3)
            pts = m._points
            for qi, q in enumerate(queries):
                brute = np.sort(np.linalg.norm(pts - q, axis=1))[:3]
                np.testing.assert_allclose(np.sort(d[qi]), brute, atol=1e-12)

    def test_bounded_knn_is_unbounded_within_the_bound(self):
        """Rows with a neighbor at most max_dist away equal the unbounded
        query's; the others have distance inf and coordinates inf. A
        neighbor exactly at max_dist is kept. Without max_dist the query
        is unbounded."""
        rng = np.random.default_rng(17)
        m = LocalSubmap(voxel_resolution=0.05, extent=20.0)
        m.insert(rng.uniform(-3, 3, size=(400, 3)))
        queries = rng.uniform(-5, 5, size=(300, 3))
        d_all, xyz_all = unbounded_knn(m, queries, k=3)
        for got, want in zip(m.knn(queries, k=3), (d_all, xyz_all)):
            np.testing.assert_array_equal(got, want)  # unbounded by default
        r = d_all[30, 1]  # query 30's second neighbor lies exactly at r
        for k in (1, 3):
            d, xyz = m.knn(queries, k=k, max_dist=r)
            within = d_all[:, :k] <= r
            assert within[30].sum() == min(k, 2) and 0 < within.sum() < within.size
            np.testing.assert_array_equal(d[within], d_all[:, :k][within])
            np.testing.assert_array_equal(xyz[within], xyz_all[:, :k][within])
            assert np.all(np.isinf(d[~within])) and np.all(np.isinf(xyz[~within]))

    def test_bounded_knn_with_more_neighbors_than_points(self):
        """k above the map size: the missing neighbors, like those beyond
        the bound, have distance inf and coordinates inf; a point exactly
        at max_dist is still returned."""
        m = LocalSubmap(voxel_resolution=0.05, extent=150.0)
        pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 3.0, 0.0]]
        m.insert(pts)
        d, xyz = m.knn([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]], k=5, max_dist=1.0)
        assert d.shape == (2, 5) and xyz.shape == (2, 5, 3)
        np.testing.assert_array_equal(d[0], [0.0, 1.0] + [np.inf] * 3)
        np.testing.assert_array_equal(xyz[0], pts[:2] + [[np.inf] * 3] * 3)
        assert np.all(np.isinf(d[1])) and np.all(np.isinf(xyz[1]))
        d, xyz = m.knn([[0.0, 0.0, 0.0]], k=5)  # unbounded
        np.testing.assert_array_equal(d[0], [0.0, 1.0, 3.0, np.inf, np.inf])
        np.testing.assert_array_equal(xyz[0], pts + [[np.inf] * 3] * 2)

    def test_memory_bound(self):
        m = LocalSubmap(voxel_resolution=0.5, extent=4.0)
        rng = np.random.default_rng(2)
        m.insert(rng.uniform(-2, 2, size=(20000, 3)))
        m.crop_to_box([0, 0, 0])
        assert len(m) <= int((m.extent / m.voxel_resolution + 1) ** 3)

    @staticmethod
    def _churn_batch(rng, m, offset):
        """Points on a floor, on a wall and in free space around `offset`,
        plus copies of stored points and second points in voxels the
        batch already hits, shifted within their voxel."""
        n = int(rng.integers(50, 400))
        floor = np.c_[rng.uniform(-3, 3, size=(n, 2)), np.full(n, 0.02)]
        wall = np.c_[np.full(n // 2, 1.51), rng.uniform(-3, 3, size=(n // 2, 2))]
        free = rng.uniform(-3, 3, size=(n // 4, 3))
        batch = np.concatenate([floor, wall, free]) + offset
        twins = batch[rng.integers(0, len(batch), size=n // 3)]
        twins = (np.floor(twins / m.voxel_resolution)
                 + rng.uniform(0, 1, size=twins.shape)) * m.voxel_resolution
        stored = m._points[rng.integers(0, len(m), size=n // 5)] if len(m) else twins[:0]
        batch = np.concatenate([batch, twins, stored])
        return batch[rng.permutation(len(batch))]

    def _churn_against_oracle(self, rng, m, ref, offset, rounds):
        """Insert, fit planes and crop around `offset` in both maps,
        comparing every result. Returns the number of valid fits."""

        def same_planes(k):
            queries = m._points[rng.integers(0, len(m), size=300)]  # repeats too
            hoods = m.knn(queries, k=k)[1]
            n, c, ok = m.plane_normals(hoods)
            n_ref, c_ref, ok_ref = ref.plane_normals(hoods)
            np.testing.assert_array_equal(ok, ok_ref)
            sign = np.sign(np.einsum("ij,ij->i", n, n_ref))
            np.testing.assert_allclose(n * sign[:, None], n_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c, c_ref, rtol=1e-15, atol=0)
            return ok

        valid = 0
        for _ in range(rounds):
            batch = self._churn_batch(rng, m, offset)
            assert m.insert(batch) == ref.insert(batch)
            np.testing.assert_array_equal(m._points, ref.points())
            valid += same_planes(k=5).sum()
            center = offset + rng.uniform(-1.5, 1.5, size=3)
            assert m.crop_to_box(center) == ref.crop_to_box(center)
            assert len(m) == len(ref)
            np.testing.assert_array_equal(m._points, ref.points())
            valid += same_planes(k=7).sum()
        return valid

    def test_matches_dict_oracle_under_churn(self):
        rng = np.random.default_rng(11)
        m = LocalSubmap(voxel_resolution=0.1, extent=4.0)
        ref = DictSubmap(voxel_resolution=0.1, extent=4.0)
        valid = self._churn_against_oracle(rng, m, ref, np.zeros(3), rounds=12)
        assert 0 < valid < 12 * 600  # both planar and non-planar fits seen

    def test_matches_dict_oracle_far_from_origin(self):
        """Churn at UTM-sized coordinates, then a jump further than the
        key range reaches (2**20 voxels of 0.1 m, about 105 km), which
        empties the map, and churn again there."""
        rng = np.random.default_rng(12)
        m = LocalSubmap(voxel_resolution=0.1, extent=4.0)
        ref = DictSubmap(voxel_resolution=0.1, extent=4.0)
        utm = np.array([5e5, 5e6, 0.0])
        valid = self._churn_against_oracle(rng, m, ref, utm, rounds=6)
        far = utm + [3e5, -2e5, 10.0]
        assert m.crop_to_box(far) == ref.crop_to_box(far) > 0
        assert len(m) == 0
        valid += self._churn_against_oracle(rng, m, ref, far, rounds=6)
        assert 0 < valid < 12 * 600

    def test_first_point_per_voxel_wins(self):
        """The first point in a voxel stays; the points are stored in the
        order of their voxels."""
        m = LocalSubmap(voxel_resolution=0.1, extent=150.0)
        assert m.insert([[0.01, 0, 0], [0.5, 0, 0], [0.02, 0, 0]]) == 2
        assert m.insert([[0.03, 0, 0], [0.31, 0, 0]]) == 1
        np.testing.assert_array_equal(
            m._points, [[0.01, 0, 0], [0.31, 0, 0], [0.5, 0, 0]]
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_sorted_keys_match_full_sort_oracle(self, seed):
        """Random inserts (repeats and second points per voxel included),
        origin moves that remove nothing and crops that remove points:
        points and keys equal, bit for bit, those of the map that tests
        membership with `np.isin`, appends, and sorts its points and keys
        by key after each change (`oracles.ArraySubmap`)."""
        rng = np.random.default_rng(60 + seed)
        m = LocalSubmap(voxel_resolution=0.1, extent=7.0)
        ref = ArraySubmap(voxel_resolution=0.1, extent=7.0)
        offset = np.array([5e5, 5e6, 0.0]) * seed  # UTM-sized too
        removals = []
        for _ in range(15):
            batch = self._churn_batch(rng, m, offset)
            assert m.insert(batch) == ref.insert(batch)
            # the middle of the points' bounds keeps every point when they
            # span less than the box
            middle = (m._points.min(axis=0) + m._points.max(axis=0)) / 2.0
            for center in (middle, offset + rng.uniform(-2.0, 2.0, size=3)):
                removals.append(m.crop_to_box(center))
                assert removals[-1] == ref.crop_to_box(center)
                for got, want in ((m._points, ref._points), (m._keys, ref._keys)):
                    np.testing.assert_array_equal(got, want)
            offset = center
        # the origin moved on every crop; some removed points, some did not
        assert 0 < removals.count(0) < len(removals)

    @pytest.mark.parametrize("seed", range(4))
    def test_keys_strictly_increase_after_every_change(self, seed):
        """After every insert, origin move and crop, and after a jump
        beyond the key range that empties the map, the key array is
        strictly increasing, one key per stored point, and each key is
        that point's voxel key from the map's current origin."""
        rng = np.random.default_rng(80 + seed)
        m = LocalSubmap(voxel_resolution=float(rng.choice([0.05, 0.1, 0.3])),
                        extent=float(rng.uniform(3.0, 8.0)))
        offset = np.array([5e5, 5e6, 0.0]) * (seed % 2)  # UTM-sized too
        sizes = []

        def check():
            assert len(m._keys) == len(m._points) == len(m)
            assert np.all(np.diff(m._keys) > 0)
            np.testing.assert_array_equal(
                m._keys, voxel_keys(np.floor(m._points / m.voxel_resolution), m._origin))
            sizes.append(len(m))

        for step in range(12):
            m.insert(self._churn_batch(rng, m, offset))
            check()
            middle = (m._points.min(axis=0) + m._points.max(axis=0)) / 2.0
            m.crop_to_box(middle)  # an origin move that may remove nothing
            check()
            offset = offset + rng.uniform(-1.5, 1.5, size=3)
            m.crop_to_box(offset)
            check()
            if step == 6:
                offset = offset + [3e5, -2e5, 10.0]
                m.crop_to_box(offset)
                check()
                assert len(m) == 0
        assert min(sizes) == 0 and max(sizes) > 100

    def test_missing_neighbours_are_inf_coordinates(self):
        """Against a brute-force scan: each query's neighbours within the
        bound come first with their coordinates; every other column,
        beyond the bound or beyond the map's size (k > len(map)), has
        distance inf and all three coordinates inf."""
        rng = np.random.default_rng(19)
        m = LocalSubmap(voxel_resolution=0.05, extent=20.0)
        m.insert(rng.uniform(-1, 1, size=(6, 3)))
        queries = rng.uniform(-2, 2, size=(200, 3))
        for k, bound in ((4, 1.0), (9, 1.5), (9, np.inf)):
            d, xyz = m.knn(queries, k=k, max_dist=bound)
            d_ref, idx = brute_knn(m._points, queries, k)
            found = np.isfinite(d_ref) & (d_ref <= bound)
            assert xyz.shape == (len(queries), k, 3)
            np.testing.assert_array_equal(np.isinf(d), ~found)
            np.testing.assert_array_equal(np.isinf(xyz), np.repeat(~found[..., None], 3, axis=2))
            np.testing.assert_allclose(d[found], d_ref[found], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(xyz[found], m._points[idx[found]])
            assert found.any() and not found[:, len(m):].any()  # beyond the map's size
            assert np.isinf(bound) or not found[:, :len(m)].all()  # beyond the bound

    @pytest.mark.parametrize("bad", [[2e5, 0, 0], [0, -2e5, 0], [0, 0, np.nan]])
    def test_unpackable_key_raises(self, bad):
        """Keys count voxels from the map's origin voxel (the first point,
        until a crop moves it to the box center); points more than 2**20
        voxels from it, or NaN, cannot be packed and change nothing."""
        utm = np.array([5e5, 5e6, 0.0])
        m = LocalSubmap(voxel_resolution=0.1, extent=150.0)
        m.insert([utm])
        with pytest.raises(ValueError):
            m.insert([utm + 1.0, utm + bad])
        assert len(m) == 1

    def test_unpackable_box_raises(self):
        with pytest.raises(ValueError):
            LocalSubmap(voxel_resolution=1e-4, extent=150.0)  # 1.5e6 voxels
        m = LocalSubmap(voxel_resolution=0.1, extent=150.0)
        m.insert([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            m.crop_to_box([0.0, np.nan, 0.0])


def _hoods(kind, rng, n=2000, k=7):
    """n neighborhoods of k points: `random` Gaussian; `disk` on thin
    planar disks in random planes, whose two large eigenvalues nearly
    coincide; `collinear` along thin lines, whose two least ones do;
    `strip` on thin strips 15-30% as wide as long, whose two least ones
    are apart, some by little more than the fallback's 1e-3 of the
    largest; `utm` small planar patches half a million metres out;
    `point` k copies of one point (zero scatter)."""
    turn = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    if kind == "random":
        return rng.normal(size=(n, k, 3))
    if kind == "point":
        return np.broadcast_to(rng.normal(size=(n, 1, 3)), (n, k, 3)).copy()
    if kind == "disk":
        # k points evenly round a circle scatter alike in every in-plane
        # direction; jitter of 1e-9 to 1e-2 rad splits the two
        jitter = rng.normal(size=(n, k)) * np.logspace(-9, -2, n)[:, None]
        ang = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1)) \
            + 2.0 * np.pi * np.arange(k) / k + jitter
        flat = np.stack([np.cos(ang), np.sin(ang),
                         rng.normal(scale=1e-3, size=(n, k))], axis=2)
        return flat @ turn
    if kind == "strip":
        width = rng.uniform(0.15, 0.3, size=(n, 1))
        strip = np.stack([rng.uniform(-1.0, 1.0, size=(n, k)),
                          width * rng.uniform(-1.0, 1.0, size=(n, k)),
                          rng.normal(scale=1e-4, size=(n, k))], axis=2)
        return strip @ turn
    if kind == "collinear":
        line = rng.normal(scale=1e-4, size=(n, k, 3))
        line[..., 0] = rng.normal(size=(n, k))
        return line @ turn
    patch = np.stack([rng.uniform(-0.1, 0.1, size=(n, k)),
                      rng.uniform(-0.1, 0.1, size=(n, k)),
                      rng.normal(scale=1e-4, size=(n, k))], axis=2)
    return patch @ turn + [5e5, 5e6, 30.0]


class TestClosedFormPlaneFit:
    """`_smallest_eigenpairs` against `np.linalg.eigh` on the same
    centred neighborhoods: the plane normal up to sign within 1e-12 and
    the same validity under `plane_normals`' thresholds."""

    @staticmethod
    def _planar(vals):
        return ((vals[:, 2] > 0.0) & (vals[:, 0] <= 1e-3 * vals[:, 2])
                & (vals[:, 1] >= 1e-2 * vals[:, 2]))

    @pytest.mark.parametrize("kind", ["random", "disk", "strip", "collinear", "utm",
                                      "point"])
    def test_matches_eigh(self, kind):
        hood = _hoods(kind, np.random.default_rng(40))
        local = hood - hood.mean(axis=1, keepdims=True)
        vals, normals = _smallest_eigenpairs(local.T)  # axis first
        vals_ref, vecs_ref = np.linalg.eigh(np.swapaxes(local, 1, 2) @ local)
        ref = vecs_ref[:, :, 0]
        sign = np.sign(np.einsum("ij,ij->i", normals, ref))
        np.testing.assert_allclose(normals * sign[:, None], ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(self._planar(vals), self._planar(vals_ref))
        # which path the rows take: the closed form needs the two least
        # eigenvalues apart, by more than 1e-3 of the largest
        apart = vals_ref[:, 1] - vals_ref[:, 0] > 1e-3 * vals_ref[:, 2]
        closed = {"random": apart.mean() > 0.9, "disk": apart.all(),
                  "strip": apart.mean() > 0.99,
                  "utm": apart.all(), "collinear": not apart.any(),
                  "point": not apart.any()}
        assert closed[kind]
        if kind in ("disk", "utm"):
            assert self._planar(vals).mean() > 0.9
        if kind == "disk":  # most disks' two large eigenvalues nearly meet
            spread = (vals_ref[:, 2] - vals_ref[:, 1]) / vals_ref[:, 2]
            assert np.median(spread) < 1e-3

    @pytest.mark.parametrize("n", [1, 2])
    def test_map_of_fewer_than_three_points(self, n):
        """Hoods over fewer distinct points than a plane needs: every fit
        is invalid, as with the per-hood oracle, and no normal is NaN."""
        pts = np.random.default_rng(41).uniform(-1, 1, size=(n, 3))
        m = LocalSubmap(voxel_resolution=0.01, extent=150.0)
        m.insert(pts)
        hoods = pts[np.random.default_rng(42).integers(0, n, size=(50, 5))]
        normals, centroids, ok = m.plane_normals(hoods)
        normals_ref, centroids_ref, ok_ref = fit_planes(hoods)
        assert not ok.any() and not ok_ref.any()
        assert np.all(np.isfinite(normals))
        sign = np.sign(np.einsum("ij,ij->i", normals, normals_ref))
        np.testing.assert_allclose(normals * sign[:, None], normals_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(centroids, centroids_ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("k", [5, 7])
    def test_plane_normals_match_per_hood_eigh(self, k):
        """`plane_normals` over more hoods than one fit batch holds, on a
        floor, a wall, a corner and free space, against one
        `np.linalg.eigh` per hood: normals up to sign, centroids and
        validity."""
        rng = np.random.default_rng(43)
        m = LocalSubmap(voxel_resolution=0.02, extent=150.0)
        scene = structured_scene()
        m.insert(scene + rng.normal(scale=1e-3, size=scene.shape))
        m.insert(rng.uniform(-10, 10, size=(2000, 3)))
        queries = m._points[rng.integers(0, len(m), size=2 * _FIT_CHUNK + 17)]
        hoods = m.knn(queries, k=k)[1]
        normals, centroids, ok = m.plane_normals(hoods)
        normals_ref, centroids_ref, ok_ref = fit_planes(hoods)
        np.testing.assert_array_equal(ok, ok_ref)
        assert 0.1 < ok.mean() < 0.9  # planar and non-planar hoods
        sign = np.sign(np.einsum("ij,ij->i", normals, normals_ref))
        np.testing.assert_allclose(normals * sign[:, None], normals_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(centroids, centroids_ref, rtol=1e-15, atol=0)


class TestLidarScan:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises_naming_the_sensor(self, bad):
        pts = np.zeros((3, 3))
        pts[1, 2] = bad
        with pytest.raises(ValueError, match="lidar/R_L"):
            LidarScan("lidar/R_L", 0, 10, [0, 5, 10], pts)


class TestDeskew:
    def test_no_motion_unchanged(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 3))
        stamps = np.linspace(0, 100_000_000, 50).astype(np.int64)
        scan = LidarScan("lidar/F_L", 0, 100_000_000, stamps, pts)
        pose = Pose(so3_exp([0.1, 0.2, 0.3]), [1, 2, 3])
        out = deskew([scan], [pose], [pose])
        np.testing.assert_allclose(out, pts, atol=1e-12)

    def test_forward_motion_midpoint(self):
        # sensor advances 1 m in x during the scan; a point seen at the
        # sensor origin at mid-scan lies 0.5 m ahead of the start pose
        scan = LidarScan(
            "lidar/F_L", 0, 100_000_000, [50_000_000], [[0.0, 0.0, 0.0]]
        )
        out = deskew([scan], [Pose()], [Pose(np.eye(3), [1.0, 0, 0])])
        np.testing.assert_allclose(out, [[0.5, 0, 0]], atol=1e-12)

    def test_shared_stamps_match_one_exp_per_point(self):
        """One exponential per distinct stamp, as in a scan whose points
        come in azimuth steps, gives what one per point gives."""
        rng = np.random.default_rng(8)
        stamps = np.repeat(np.sort(rng.integers(0, 100_000_000, size=60)), 11)
        pts = rng.normal(scale=5.0, size=(len(stamps), 3))
        scan = LidarScan("lidar/F_L", 0, 100_000_000, stamps, pts)
        start = Pose(so3_exp([0.1, -0.2, 0.3]), [1.0, 2.0, 0.5])
        end = pose_compose(start, se3_exp([0.05, 0.02, 0.3, 1.5, 0.2, 0.0]))
        xi = se3_log(pose_compose(pose_inverse(start), end))
        R, t = se3_exp_many((stamps / 100_000_000)[:, None] * xi)
        want = matvec_many(R, pts) + t
        assert deskew([scan], [start], [end]).tobytes() == want.tobytes()

    def test_distort_then_deskew_round_trip(self):
        rng = np.random.default_rng(4)
        world_pts = rng.uniform(-5, 5, size=(200, 3))
        stamps = np.sort(rng.integers(0, 100_000_000, size=200)).astype(np.int64)
        pose_start = Pose(so3_exp(rng.normal(scale=0.3, size=3)), rng.normal(size=3))
        twist = rng.normal(scale=0.4, size=6)
        pose_end = pose_compose(pose_start, se3_exp(twist))
        rel = pose_compose(pose_inverse(pose_start), pose_end)
        # distort: express each world point in the instantaneous sensor frame
        raw = np.empty_like(world_pts)
        for i, (s, p) in enumerate(zip(stamps, world_pts)):
            eta = s / 100_000_000
            pose_t = pose_compose(pose_start, twist_power(rel, eta))
            raw[i] = pose_inverse(pose_t).apply(p)
        scan = LidarScan("lidar/F_L", 0, 100_000_000, stamps, raw)
        out = deskew_one(scan, pose_start, pose_end)
        recovered = pose_start.apply(out)
        np.testing.assert_allclose(recovered, world_pts, atol=1e-9)

    def test_plane_flattening_under_constant_twist(self):
        # points on z=0 observed from a moving sensor must return to the
        # plane after deskew with the true poses
        rng = np.random.default_rng(5)
        world_pts = np.column_stack(
            [rng.uniform(-10, 10, size=300), rng.uniform(-10, 10, size=300),
             np.zeros(300)]
        )
        stamps = np.sort(rng.integers(0, 100_000_000, size=300)).astype(np.int64)
        pose_start = Pose(np.eye(3), [0, 0, 1.5])
        pose_end = pose_compose(pose_start, se3_exp([0, 0, 0.2, 1.0, 0.3, 0.0]))
        rel = pose_compose(pose_inverse(pose_start), pose_end)
        raw = np.empty_like(world_pts)
        for i, (s, p) in enumerate(zip(stamps, world_pts)):
            pose_t = pose_compose(pose_start, twist_power(rel, s / 1e8))
            raw[i] = pose_inverse(pose_t).apply(p)
        out = deskew_one(
            LidarScan("lidar/F_L", 0, 100_000_000, stamps, raw),
            pose_start, pose_end,
        )
        flattened = pose_start.apply(out)
        assert np.max(np.abs(flattened[:, 2])) < 1e-9


class TestBatchedDeskew:
    """`deskew` over all of a keyframe's scans at once gives, bit for
    bit, each scan deskewed on its own (`deskew_one`)."""

    @staticmethod
    def one_at_a_time(scans, starts, ends):
        return np.concatenate([deskew_one(*args) for args in zip(scans, starts, ends)])

    @staticmethod
    def random_motions(rng, n):
        starts = [Pose(so3_exp(rng.normal(scale=0.5, size=3)), rng.normal(size=3))
                  for _ in range(n)]
        ends = [pose_compose(s, se3_exp(rng.normal(scale=0.2, size=6))) for s in starts]
        return starts, ends

    @pytest.fixture(scope="class")
    def corridor_scans(self):
        sim = simulate(corridor_scenario(length=6.0, seed=5,
                                         noise=NoiseSpec(lidar_sigma=0.01)))
        return sim.lidar

    def test_zero_span_scan(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(scale=5.0, size=(30, 3))
        pts[0] = [-0.0, 0.0, -0.0]
        still = LidarScan("lidar/F_R", 7, 7, np.full(30, 7), pts)
        moving = LidarScan("lidar/F_L", 0, 100_000_000,
                           np.sort(rng.integers(0, 100_000_000, size=40)),
                           rng.normal(scale=5.0, size=(40, 3)))
        starts, ends = self.random_motions(rng, 3)
        scans = [moving, still, moving]
        got = deskew(scans, starts, ends)
        assert got.tobytes() == self.one_at_a_time(scans, starts, ends).tobytes()
        assert got[40:70].tobytes() == pts.tobytes()
        assert deskew([still], starts[:1], ends[:1]).tobytes() == pts.tobytes()

    def test_lidars_sharing_stamps(self, corridor_scans):
        """The first scans of the four lidars, which scan in step and so
        share their stamps, at epoch-scale stamps."""
        shift = 1700000000123456789
        scans = [replace(s[0], scan_start=s[0].scan_start + shift,
                         scan_end=s[0].scan_end + shift, stamps=s[0].stamps + shift)
                 for s in corridor_scans.values()]
        assert len(scans) == 4
        assert len({(s.scan_start, s.scan_end) for s in scans}) == 1
        starts, ends = self.random_motions(np.random.default_rng(12), 4)
        got = deskew(scans, starts, ends)
        assert got.tobytes() == self.one_at_a_time(scans, starts, ends).tobytes()

    def test_keyframe_of_one_scan(self, corridor_scans):
        scan = corridor_scans["lidar/R_L"][3]
        starts, ends = self.random_motions(np.random.default_rng(13), 1)
        assert deskew([scan], starts, ends).tobytes() == deskew_one(
            scan, starts[0], ends[0]).tobytes()

    def test_every_scan_of_a_corridor(self, corridor_scans):
        scans = [s for group in corridor_scans.values() for s in group]
        assert len(scans) > 40
        starts, ends = self.random_motions(np.random.default_rng(14), len(scans))
        got = deskew(scans, starts, ends)
        assert got.tobytes() == self.one_at_a_time(scans, starts, ends).tobytes()

    def test_no_scans(self):
        assert deskew([], [], []).shape == (0, 3)

    def test_keys_that_overflow_int64_raise(self):
        """Two scans 2**62 ns long have (scan, stamp offset) keys past
        the int64 range; the call refuses them instead of wrapping."""
        scan = LidarScan("lidar/F_L", 0, 2**62, [0, 2**62], [[1.0, 0, 0], [0, 1.0, 0]])
        starts, ends = self.random_motions(np.random.default_rng(15), 2)
        assert deskew([scan], starts[:1], ends[:1]).shape == (2, 3)
        with pytest.raises(ValueError, match="int64"):
            deskew([scan, scan], starts, ends)


class TestFuseToBase:
    def test_identity_single(self):
        scan = LidarScan("lidar/F_L", 0, 1, [0], [[1.0, 2.0, 3.0]])
        out = fuse_to_base([scan], {"lidar/F_L": Pose()})
        np.testing.assert_allclose(out, [[1, 2, 3]])

    def test_two_mounts_same_wall_coplanar(self):
        rng = np.random.default_rng(6)
        wall = np.column_stack(
            [np.full(100, 5.0), rng.uniform(-3, 3, 100), rng.uniform(0, 2, 100)]
        )
        mounts = {
            "lidar/F_L": Pose(so3_exp([0, 0, 0.4]), [1.0, 0.5, 0.2]),
            "lidar/F_R": Pose(so3_exp([0, 0, -0.4]), [1.0, -0.5, 0.2]),
        }
        scans = []
        for sid, T in mounts.items():
            local = pose_inverse(T).apply(wall)
            scans.append(LidarScan(sid, 0, 1, np.zeros(100, dtype=np.int64), local))
        fused = fuse_to_base(scans, mounts)
        assert len(fused) == 200
        np.testing.assert_allclose(fused[:, 0], 5.0, atol=1e-9)

    def test_dropped_sensor_ok_missing_calib_raises(self):
        scan = LidarScan("lidar/R_R", 0, 1, [0], [[0.0, 0, 0]])
        out = fuse_to_base([scan], {"lidar/R_R": Pose(), "lidar/F_L": Pose()})
        assert len(out) == 1
        with pytest.raises(MissingCalibrationError, match="lidar/R_R"):
            fuse_to_base([scan], {"lidar/F_L": Pose()})


class TestVoxelDownsample:
    def test_close_points_merged_to_midpoint(self):
        out = voxel_downsample([[0.01, 0.01, 0.01], [0.02, 0.01, 0.01]], 0.05)
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out[0], [0.015, 0.01, 0.01])

    def test_grid_spacing_preserved(self):
        xs = np.arange(0, 1.0, 0.1)
        pts = np.array([[x, 0.025, 0.025] for x in xs])
        assert len(voxel_downsample(pts, 0.05)) == len(pts)

    def test_pigeonhole_bound(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(100_000, 3))
        assert len(voxel_downsample(pts, 0.05)) <= 21**3

    @pytest.mark.parametrize("offset", [[0.0, 0.0, 0.0], [5e5, 5e6, 0.0]])
    def test_matches_row_unique_oracle(self, offset):
        """Same centroids, same order, same bits as grouping by the
        (n, 3) voxel rows; negative coordinates and UTM scale included."""
        rng = np.random.default_rng(18)
        for res in (0.05, 0.3):
            pts = rng.uniform(-4, 4, size=(5000, 3)) + offset
            pts = np.concatenate([pts, pts[:500] + 1e-3])  # shared voxels
            assert np.array_equal(voxel_downsample(pts, res),
                                  voxel_downsample_rows(pts, res))

    def test_cloud_too_wide_for_one_key_raises(self):
        # 105 km at 0.05 m is more than 2**21 voxels along x
        with pytest.raises(ValueError, match="int64"):
            voxel_downsample([[0.0, 0.0, 0.0], [105e3, 0.0, 0.0]], 0.05)
        assert len(voxel_downsample([[0.0, 0.0, 0.0], [104e3, 0.0, 0.0]], 0.05)) == 2

    def test_non_finite_point_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            voxel_downsample([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]], 0.05)


class TestIcpRegister:
    def make_map(self):
        m = LocalSubmap(voxel_resolution=0.05, extent=100.0)
        m.insert(structured_scene())
        return m

    def test_self_registration(self):
        m = self.make_map()
        rng = np.random.default_rng(8)
        cloud = m._points[rng.choice(len(m), size=1500, replace=False)]
        est = icp_register(cloud, m, Pose())
        assert est.converged and not est.degenerate
        assert np.linalg.norm(est.pose.t) < 1e-6
        assert est.fitness < 1e-10

    def test_recovers_injected_transform(self):
        m = self.make_map()
        rng = np.random.default_rng(9)
        cloud = m._points[rng.choice(len(m), size=2000, replace=False)]
        true = Pose(so3_exp([0, 0, math.radians(2.0)]), [0.3, 0.1, 0.0])
        # cloud expressed in a frame offset by `true`: registration should
        # find `true` starting from identity
        local = pose_inverse(true).apply(cloud)
        est = icp_register(local, m, Pose())
        err_t = np.linalg.norm(est.pose.t - true.t)
        err_r = np.linalg.norm(so3_log(est.pose.R.T @ true.R))
        assert err_t < 1e-2
        assert math.degrees(err_r) < 0.1

    def test_single_plane_degenerate(self):
        m = LocalSubmap(voxel_resolution=0.05, extent=100.0)
        m.insert(grid_on_plane([-10, -10, 0], [1, 0, 0], [0, 1, 0], 60, 60, 20, 20))
        rng = np.random.default_rng(10)
        cloud = m._points[rng.choice(len(m), size=500, replace=False)]
        est = icp_register(cloud, m, Pose())
        assert est.degenerate

    def test_insufficient_overlap_returns_prior(self):
        m = self.make_map()
        cloud = np.random.default_rng(11).uniform(500, 510, size=(200, 3))
        prior = Pose(np.eye(3), [1.0, 2.0, 3.0])
        est = icp_register(cloud, m, prior)
        assert est.insufficient_overlap and not est.converged
        np.testing.assert_allclose(est.pose.t, prior.t)


class UnboundedSubmap(LocalSubmap):
    """A submap whose k-NN ignores max_dist: every query searches the
    whole KD-tree, as icp_register's queries did before the bound."""

    def knn(self, queries, k=1, max_dist=None):
        return unbounded_knn(self, queries, k)


class TestIcpBoundedSearch:
    @pytest.mark.parametrize("seed", [19, 20])
    def test_same_result_as_unbounded_search(self, seed):
        """Points far beyond the coarse gate (free space, another room)
        and an offset prior: the gate-bounded search gives the same
        pose bits, iterations and flags."""
        rng = np.random.default_rng(seed)
        scene = structured_scene()
        bounded = LocalSubmap(voxel_resolution=0.05, extent=100.0)
        unbounded = UnboundedSubmap(voxel_resolution=0.05, extent=100.0)
        for m in (bounded, unbounded):
            m.insert(scene)
        cloud = scene[rng.choice(len(scene), size=2000, replace=False)]
        cloud = np.concatenate([cloud, rng.uniform(-30, 30, size=(500, 3)),
                                rng.uniform(20, 25, size=(300, 3))])
        true = Pose(so3_exp([0, 0, math.radians(3.0)]), [0.4, -0.2, 0.05])
        local = pose_inverse(true).apply(cloud)
        a = icp_register(local, bounded, Pose())
        b = icp_register(local, unbounded, Pose())
        assert a.iterations == b.iterations > 3 and a.converged
        np.testing.assert_array_equal(a.pose.R, b.pose.R)
        np.testing.assert_array_equal(a.pose.t, b.pose.t)
        assert a.fitness == b.fitness
        assert (a.degenerate, a.insufficient_overlap, a.converged) == (
            b.degenerate, b.insufficient_overlap, b.converged)


class CountingSubmap(LocalSubmap):
    """A submap that counts the points its k-NN queries ask about."""

    queries = 0

    def knn(self, queries, k=1, max_dist=np.inf):
        self.queries += len(queries)
        return super().knn(queries, k=k, max_dist=max_dist)


class CountingUnboundedSubmap(CountingSubmap, UnboundedSubmap):
    pass


class TestKnnCandidates:
    """The kept hoods (`lidar._Hoods`) against brute-force k-NN, over
    ICP's 2.0 -> 1.0 -> 0.5 gate schedule and random point motions: the
    nearest distance within the gate is a fresh query's, each hood holds
    the brute-force nearest map points of where its point was last
    queried, and its plane is the per-hood `eigh` fit."""

    GATES = (2.0, 1.0, 0.5, 0.5, 0.5, 0.5)
    K = 5

    def check_hoods(self, m, hoods):
        pts = m._points
        d, idx = brute_knn(pts, hoods.origin, self.K)
        xyz = hoods.xyz.transpose(2, 1, 0)  # (n, k, 3)
        found = np.isfinite(xyz[:, :, 0])
        # the hood's first points are the brute-force k-NN, and every map
        # point below the bound is among them
        assert np.all(found[:, :-1] >= found[:, 1:])
        np.testing.assert_array_equal(xyz[found], pts[idx[found]])
        assert np.all(found.sum(axis=1) >= (d <= hoods.bound[:, None]).sum(axis=1))
        full = found.all(axis=1) & (d[:, -1] <= hoods.bound + 1e-12)
        normals, centroids, planar = fit_planes(xyz[full])
        np.testing.assert_array_equal(hoods.planar[full], planar)
        assert not hoods.planar[~full].any()
        rows = np.flatnonzero(full)[planar]
        sign = np.sign(np.einsum("ij,ij->i", hoods.normal[rows], normals[planar]))
        np.testing.assert_allclose(hoods.normal[rows] * sign[:, None], normals[planar],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(hoods.centroid[rows], centroids[planar],
                                   rtol=1e-15, atol=1e-15)

    def check_schedule(self, rng, m, queries, scales):
        hoods = _Hoods(m, len(queries), self.K)
        requeried = []
        for gate, scale in zip(self.GATES, scales):
            moving = rng.random(len(queries)) < 0.7
            queries = queries + moving[:, None] * rng.normal(
                scale=scale, size=queries.shape)
            before = m.queries
            dist = hoods.nearest(queries, gate)
            requeried.append(m.queries - before)
            want_d = brute_knn(m._points, queries, 1)[0][:, 0]
            within = want_d <= gate
            np.testing.assert_array_equal(dist <= gate, within)
            np.testing.assert_allclose(dist[within], want_d[within],
                                       rtol=0, atol=1e-12)
            self.check_hoods(m, hoods)
        return requeried, within, hoods

    @pytest.mark.parametrize("seed", range(6))
    def test_nearest_matches_brute_force(self, seed):
        """Small motions keep most hoods, large ones force queries;
        points outside the map's box have no neighbor within the gate.
        Points on a noisy floor get planes."""
        rng = np.random.default_rng(100 + seed)
        m = CountingSubmap(voxel_resolution=0.01, extent=100.0)
        m.insert(np.concatenate([rng.uniform(-3, 3, size=(2000, 3)),
                                 rng.uniform(-3, 3, size=(2000, 3)) * [1, 1, 1e-4]]))
        queries = rng.uniform(-6, 6, size=(400, 3)) * [1, 1, 0.5]
        requeried, within, hoods = self.check_schedule(
            rng, m, queries, scales=(0.0, 0.5, 0.02, 0.005, 1.0, 0.0))
        assert requeried[0] == 400  # the first call queries every point
        assert requeried[1] > 100 and requeried[4] > 100  # large motions
        assert requeried[2] + requeried[3] < 80  # small ones
        assert 0 < within.sum() < 400 and hoods.planar.any()

    def test_map_with_fewer_points_than_candidates(self):
        """k-NN returns coordinates inf and distance inf for the missing
        hood points; they are never anyone's nearest, and no hood is a
        plane."""
        rng = np.random.default_rng(7)
        m = CountingSubmap(voxel_resolution=0.01, extent=100.0)
        m.insert(rng.uniform(-1, 1, size=(self.K - 1, 3)))
        queries = rng.uniform(-2, 2, size=(200, 3))
        requeried, within, hoods = self.check_schedule(
            rng, m, queries, scales=(0.0, 0.2, 0.01, 0.001, 0.3, 0.0))
        assert requeried[0] == 200 and 0 < within.sum() < 200
        assert not hoods.planar.any()

    def test_knn_that_ignores_the_bound(self):
        """A k-NN that ignores max_dist returns neighbors beyond the gate;
        they bound the others as well, are never within the gate, and a
        hood that reaches beyond its gate is no plane."""
        rng = np.random.default_rng(8)
        m = CountingUnboundedSubmap(voxel_resolution=0.01, extent=100.0)
        m.insert(rng.uniform(-3, 3, size=(300, 3)))
        self.check_schedule(rng, m, rng.uniform(-6, 6, size=(300, 3)),
                            scales=(0.0, 0.3, 0.01, 0.002, 0.2, 0.0))


class TestIcpKeptCandidates:
    """icp_register keeps each point's hood and plane across iterations;
    it must give the bits of the loop that queries every point afresh on
    every iteration and applies the same keep rule
    (`oracles.icp_register_requery`)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_result_as_requery_loop(self, seed):
        """Structured scenes, priors up to about 0.4 m and 3 degrees off,
        free-space points and points beyond the coarse gate."""
        rng = np.random.default_rng(40 + seed)
        scene = structured_scene(step=int(rng.integers(30, 45)))
        scene = scene + rng.normal(scale=0.01, size=scene.shape)
        kept = CountingSubmap(voxel_resolution=0.05, extent=100.0)
        kept.insert(scene)
        cloud = scene[rng.choice(len(scene), size=1500, replace=False)]
        cloud = np.concatenate([cloud, rng.uniform(-30, 30, size=(500, 3)),
                                rng.uniform(20, 25, size=(300, 3))])
        yaw, roll = rng.uniform(-3, 3, size=2)
        true = Pose(so3_exp(np.radians([roll, 0.3 * roll, yaw])),
                    rng.uniform(-0.4, 0.4, size=3) * [1, 1, 0.25])
        local = pose_inverse(true).apply(cloud)
        config = IcpConfig(max_iterations=int(rng.integers(8, 31)))
        a = icp_register(local, kept, Pose(), config)
        b = icp_register_requery(local, kept, Pose(), config)
        assert a.iterations == b.iterations >= 3  # the gate's schedule at least
        np.testing.assert_array_equal(a.pose.R, b.pose.R)
        np.testing.assert_array_equal(a.pose.t, b.pose.t)
        np.testing.assert_array_equal(a.weak, b.weak)
        assert a.fitness == b.fitness
        assert (a.degenerate, a.insufficient_overlap, a.converged) == (
            b.degenerate, b.insufficient_overlap, b.converged)
        # the hoods are kept, not queried again
        assert kept.queries < 0.5 * len(local) * a.iterations


def grid_box(lo, hi, step):
    """Points on the faces of the axis-aligned box [lo, hi], `step` apart."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    faces = []
    for axis in range(3):
        u, v = [a for a in range(3) if a != axis]
        n = np.maximum(np.round((hi - lo) / step).astype(int) + 1, 2)
        for level in (lo[axis], hi[axis]):
            e_u, e_v = np.eye(3)[u], np.eye(3)[v]
            origin = lo.copy()
            origin[axis] = level
            faces.append(grid_on_plane(origin, e_u, e_v, n[u], n[v],
                                       hi[u] - lo[u], hi[v] - lo[v]))
    return np.concatenate(faces)


def corridor_scene(step=0.1):
    """Two walls and a floor, 30 m along x: nothing fixes x."""
    return np.concatenate([
        grid_on_plane([-15, -1.5, 0], [1, 0, 0], [0, 0, 1], 301, 26, 30, 2.5),
        grid_on_plane([-15, 1.5, 0], [1, 0, 0], [0, 0, 1], 301, 26, 30, 2.5),
        grid_on_plane([-15, -1.5, 0], [1, 0, 0], [0, 1, 0], 301, 31, 30, 3),
    ])


def register_in(scene, true: Pose, prior: Pose, rng):
    """ICP of a noisy subset of `scene`, seen from `true`, from `prior`."""
    m = LocalSubmap(voxel_resolution=0.05, extent=100.0)
    m.insert(scene)
    cloud = scene[rng.choice(len(scene), size=3000, replace=False)]
    cloud = cloud + rng.normal(scale=0.002, size=cloud.shape)
    return icp_register(pose_inverse(true).apply(cloud), m, prior)


class TestIcpWeakDirections:
    """Steps are solved only where the scene constrains the pose; the
    rest are weak directions, and the estimate's covariance adds
    lidar.WEAK_VARIANCE along each."""

    def test_corridor_keeps_the_prior_along_track(self):
        rng = np.random.default_rng(70)
        true = Pose(so3_exp([0.0, 0.0, 0.02]), [1.0, 0.1, 0.0])
        prior = Pose(so3_exp([0.0, 0.0, 0.04]), [1.3, 0.2, 0.05])
        est = register_in(corridor_scene(), true, prior, rng)
        assert est.converged and est.degenerate and len(est.weak) == 1
        np.testing.assert_allclose(np.abs(est.weak[0]), [0, 0, 0, 1, 0, 0],
                                   rtol=0, atol=1e-3)
        # along track the pose stays the prior's: no step is taken there,
        # and a yaw step about the current position does not move it
        assert abs(est.pose.t[0] - prior.t[0]) < 2e-4
        assert abs(est.pose.t[0] - prior.t[0]) < 1e-5
        np.testing.assert_allclose(est.pose.t[1:], true.t[1:], rtol=0, atol=2e-3)
        assert np.linalg.norm(so3_log(est.pose.R.T @ true.R)) < math.radians(0.05)

    def test_closed_room_has_no_weak_direction(self):
        rng = np.random.default_rng(71)
        true = Pose(so3_exp([0.01, -0.02, 0.3]), [0.5, -0.3, 1.0])
        prior = Pose(so3_exp([0.0, 0.0, 0.32]), [0.7, -0.1, 1.05])
        est = register_in(grid_box([-4, -3, 0], [5, 3, 3], 0.1), true, prior, rng)
        assert est.converged and not est.degenerate and est.weak.shape == (0, 6)
        np.testing.assert_allclose(est.pose.t, true.t, rtol=0, atol=2e-3)
        assert np.linalg.norm(so3_log(est.pose.R.T @ true.R)) < math.radians(0.05)

    @pytest.mark.parametrize("case", ["corridor", "tilted"])
    def test_weak_step_moves_the_between_residual_only_where_inflated(self, case):
        """Moving the ICP pose along a weak direction by eps changes the
        between residual only in the span of the covariance's weak
        part, to first order, while a constrained direction leaves it.
        The corridor's weak direction is ICP's; the tilted one mixes
        rotation and translation, on a pose far from the origin."""
        rng = np.random.default_rng(72)
        turn = Pose(so3_exp([0.0, 0.0, 0.5]), [100.0, 50.0, 2.0])
        if case == "corridor":
            scene = turn.apply(corridor_scene())
            true = pose_compose(turn, Pose(so3_exp([0, 0, 0.02]), [1.0, 0.1, 0.0]))
            prior = pose_compose(turn, Pose(so3_exp([0, 0, 0.04]), [1.3, 0.2, 0.05]))
            est = register_in(scene, true, prior, rng)
        else:
            u = rng.normal(size=6)
            est = OdomEstimate(Pose(so3_exp([0.3, -0.2, 1.1]), [5.0, -7.0, 1.0]),
                               fitness=0.0, iterations=1,
                               weak=(u / np.linalg.norm(u))[None])
        assert len(est.weak) == 1
        inflated = est.covariance - replace(est, weak=np.empty((0, 6))).covariance
        vals, vecs = np.linalg.eigh(inflated)
        assert np.all(np.abs(vals[:-1]) < 1e-9 * vals[-1])  # one direction
        span = vecs[:, -1:]
        T_i = Pose(so3_exp([0.1, 0.2, -0.3]), [3.0, 1.0, -2.0])
        eps = 1e-5
        for direction, inside in ((est.weak[0], True), (np.eye(6)[5], False)):
            moved = _apply_delta(est.pose, eps * direction)
            # the states agree with the unmoved z, so its residual is 0
            r = residual_between(T_i, est.pose, pose_compose(pose_inverse(T_i), moved))
            off = np.linalg.norm(r - span @ (span.T @ r))
            if inside:
                assert np.linalg.norm(r) > 0.1 * eps and off < 1e-3 * eps
            else:
                assert off > 0.1 * eps


class TestMapUpdate:
    def test_double_insert_no_growth(self):
        m = LocalSubmap(voxel_resolution=0.05, extent=100.0)
        cloud = np.random.default_rng(12).uniform(-2, 2, size=(1000, 3))
        map_update(m, cloud, Pose())
        n = len(m)
        map_update(m, cloud, Pose())
        assert len(m) == n

    def test_drive_forward_box_invariant(self):
        m = LocalSubmap(voxel_resolution=0.1, extent=10.0)
        m.insert(np.random.default_rng(13).uniform(-5, 5, size=(2000, 3)))
        far_pose = Pose(np.eye(3), [20.0, 0, 0])
        map_update(m, np.empty((0, 3)), far_pose)
        pts = m._points
        assert np.all(np.linalg.norm(pts - far_pose.t, axis=1) <= 5.0 * math.sqrt(3) + 1e-9)
