"""Incremental voxel-deduplicated local map with k-NN queries.

A bounded spatial index: inserts keep one point per voxel, points far
from the current pose are dropped, and k-NN queries are exact. Only
this module knows voxel keys and map indices. `voxel_keys` packs a
voxel's offsets to an origin voxel into one int64 in lexicographic order
(`lidar.voxel_downsample` shares it). The map is two flat arrays in key
order, the (N, 3) points and their keys from an origin voxel that
follows the box, so insert and crop are array operations, world
coordinates of any size (UTM too) pack, and an insert's membership test
is a binary search of the keys. `knn` answers with neighbour
coordinates (m, k, 3), inf for a missing neighbour, optionally within a
maximum distance at which the tree stops searching; `plane_normals`
fits such hoods in chunks of `_FIT_CHUNK`, each 3x3 scatter in closed
form, with `np.linalg.eigh` only for the rows where that is
ill-conditioned.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

_KEY_BITS = 21  # per axis: voxel offsets from the origin in [-2**20, 2**20)
_KEY_HALF = 1 << (_KEY_BITS - 1)
_FIT_CHUNK = 4096  # hoods per plane-fit batch, which bounds its temporaries


def voxel_keys(voxels, origin) -> np.ndarray:
    """One int64 per row of integer-valued voxel coordinates (n, 3), from
    its offsets to the voxel `origin`, each in [-2**20, 2**20), packed x
    first: keys order as their voxels do. Other offsets raise ValueError."""
    idx = voxels - origin
    if not np.all((idx >= -_KEY_HALF) & (idx < _KEY_HALF)):  # also false for NaN
        raise ValueError("voxel not finite or 2**20 or more voxels from the key "
                         "origin on an axis: its key does not fit one int64")
    idx = idx.astype(np.int64) + _KEY_HALF
    return (idx[:, 0] << 2 * _KEY_BITS) | (idx[:, 1] << _KEY_BITS) | idx[:, 2]


class LocalSubmap:
    def __init__(self, voxel_resolution: float, extent: float):
        if voxel_resolution <= 0:
            raise ValueError("voxel_resolution must be positive")
        self.voxel_resolution = float(voxel_resolution)
        self.extent = float(extent)  # side length of the sliding box
        if self.extent / self.voxel_resolution >= _KEY_HALF:
            raise ValueError("extent spans too many voxels to pack")
        self._points = np.empty((0, 3))  # in key order
        self._keys = np.empty(0, dtype=np.int64)  # ascending
        self._origin = np.zeros(3)  # voxel the keys count from
        self._tree = None

    def __len__(self) -> int:
        return len(self._points)

    def _move_origin(self, point):
        """Count keys from the voxel of `point`. Packing is linear, and all
        stored points lie in the box around it, so their keys shift alike
        and stay sorted."""
        voxel = np.floor(np.asarray(point, dtype=float) / self.voxel_resolution)
        if not np.all(np.isfinite(voxel)):
            raise ValueError("map origin must be finite")
        if len(self._keys):
            dx, dy, dz = (int(d) for d in voxel - self._origin)
            shift = (dx << 2 * _KEY_BITS) + (dy << _KEY_BITS) + dz
            self._keys -= shift
        self._origin = voxel

    def insert(self, points) -> int:
        """Insert points, one per voxel (first wins). Returns inserted count."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not len(self._points) and len(points):
            self._move_origin(points[0])
        voxels = np.floor(points / self.voxel_resolution)
        keys, first = np.unique(voxel_keys(voxels, self._origin), return_index=True)
        at = np.searchsorted(self._keys, keys)
        fresh = np.append(self._keys, -1)[at] != keys  # no key is negative
        if fresh.any():
            at = at[fresh]
            self._points = np.insert(self._points, at, points[first[fresh]], axis=0)
            self._keys = np.insert(self._keys, at, keys[fresh])
            self._tree = None
        return int(np.count_nonzero(fresh))

    def crop_to_box(self, center) -> int:
        """Remove points outside the sliding box centered at `center`."""
        center = np.asarray(center, dtype=float)
        half = self.extent / 2.0
        inside = np.ones(len(self._points), dtype=bool)
        for axis in range(3):  # 1-D passes: no (N, 3) temporaries
            inside &= np.abs(self._points[:, axis] - center[axis]) <= half
        kept = np.flatnonzero(inside)
        removed = len(self._points) - len(kept)
        if removed:
            self._points = np.take(self._points, kept, axis=0)
            self._keys = np.take(self._keys, kept)
            self._tree = None
        self._move_origin(center)
        return removed

    def _ensure_tree(self):
        if self._tree is None and len(self._points):
            # sliding-midpoint splits build and query faster than medians,
            # and leaving node boxes unshrunk builds faster still (the
            # tree is rebuilt after every insert); distances stay exact,
            # ties between equally near points may not
            self._tree = cKDTree(self._points, balanced_tree=False,
                                 compact_nodes=False)
        return self._tree

    def knn(self, queries, k: int = 1, max_dist: float = np.inf):
        """Exact k nearest stored points at most `max_dist` away, nearest
        first. Returns (distances (m, k), neighbour coordinates (m, k, 3))
        for the m queries. A point exactly `max_dist` away is returned;
        a neighbour not found within the bound, or missing because
        k > len(self), has distance inf and coordinates inf. ICP's kept
        hoods rely on all three."""
        tree = self._ensure_tree()
        if tree is None:
            raise ValueError("submap is empty")
        queries = np.atleast_2d(queries)
        # the tree's bound is exclusive and stops its search early; one
        # unit of rounding above max_dist keeps every distance equal to it
        d, idx = tree.query(queries, k=k,
                            distance_upper_bound=np.nextafter(max_dist, np.inf))
        idx = idx.reshape(len(queries), -1)
        xyz = np.take(self._points, idx, axis=0, mode="clip")
        xyz[idx == len(self._points)] = np.inf  # the tree's index of a miss
        return d.reshape(idx.shape), xyz

    def plane_normals(self, hoods):
        """Planes fitted to hoods of points, one row of k coordinates
        (m, k, 3) each, as `knn` reports them: (normals (m, 3), centroids
        (m, 3), valid (m,)).

        A fit is valid only when the hood is genuinely planar: thin along
        the normal and spread in both in-plane directions (nearly
        collinear hoods give arbitrary normals). The hoods are fit in
        batches of `_FIT_CHUNK` (`_smallest_eigenpairs`)."""
        m = len(hoods)
        normals, centroids = np.empty((m, 3)), np.empty((m, 3))
        valid = np.empty(m, dtype=bool)
        for lo in range(0, m, _FIT_CHUNK):
            rows = slice(lo, lo + _FIT_CHUNK)
            # axis first and contiguous: the sums over k run in order
            hood = np.ascontiguousarray(hoods[rows].T)  # (3, k, rows)
            centroid = hood.mean(axis=1)
            vals, normals[rows] = _smallest_eigenpairs(hood - centroid[:, None])
            centroids[rows] = centroid.T
            valid[rows] = ((vals[:, 2] > 0.0)
                           & (vals[:, 0] <= 1e-3 * vals[:, 2])
                           & (vals[:, 1] >= 1e-2 * vals[:, 2]))
        return normals, centroids, valid


def _det3(d0, d1, d2, e01, e02, e12):
    """Determinants of symmetric 3x3 matrices given by their diagonals
    d and off-diagonals e."""
    return (d0 * (d1 * d2 - e12 * e12) - e01 * (e01 * d2 - e12 * e02)
            + e02 * (e01 * e12 - d1 * e02))


def _cubic_eigenvalues(xx, yy, zz, xy, xz, yz):
    """Eigenvalues, ascending (n, 3), of symmetric 3x3 matrices from the
    trigonometric solution of their characteristic cubic."""
    q = (xx + yy + zz) / 3.0
    p = np.sqrt(((xx - q) ** 2 + (yy - q) ** 2 + (zz - q) ** 2
                 + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0)
    ps = np.where(p > 0.0, p, 1.0)  # p = 0: A = q I, every angle will do
    r = 0.5 * _det3((xx - q) / ps, (yy - q) / ps, (zz - q) / ps, xy / ps, xz / ps, yz / ps)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.stack([lo, 3.0 * q - hi - lo, hi], axis=1)


def _smallest_eigenpairs(local):
    """Eigenvalues, ascending (n, 3), and the unit eigenvector of the
    least one (n, 3), of the scatter matrices of n centred neighborhoods
    of k points, given axis first as `local` (3, k, n).

    Closed form (Smith, CACM 1961): the eigenvalues come from the
    trigonometric solution of the characteristic cubic, the least one
    then takes two Newton steps on det(A - lambda I), and the
    eigenvector is the largest of the three row cross products of A -
    lambda_0 I. Where the two least eigenvalues are not clearly apart,
    lambda_1 - lambda_0 <= 1e-3 lambda_2 (zero scatter too), the vector
    is ill-conditioned for that and the row goes to `np.linalg.eigh`."""
    x, y, z = local
    moments = ((x * x).sum(0), (y * y).sum(0), (z * z).sum(0),
               (x * y).sum(0), (x * z).sum(0), (y * z).sum(0))
    vals = _cubic_eigenvalues(*moments)
    vecs = np.empty((len(vals), 3))

    ok = vals[:, 1] - vals[:, 0] > 1e-3 * vals[:, 2]
    xx, yy, zz, xy, xz, yz = (v[ok] for v in moments)
    lam = vals[ok, 0]
    for _ in range(2):
        d0, d1, d2 = xx - lam, yy - lam, zz - lam
        minors = (d1 * d2 - yz * yz) + (d0 * d2 - xz * xz) + (d0 * d1 - xy * xy)
        lam = lam + _det3(d0, d1, d2, xy, xz, yz) / minors
    vals[ok, 0] = lam
    d0, d1, d2 = xx - lam, yy - lam, zz - lam
    cross = np.empty((3, 3, len(lam)))  # rows 0 x 1, 0 x 2, 1 x 2 of A - lambda_0 I
    cross[0] = xy * yz - xz * d1, xz * xy - d0 * yz, d0 * d1 - xy * xy
    cross[1] = xy * d2 - xz * yz, xz * xz - d0 * d2, d0 * yz - xy * xz
    cross[2] = d1 * d2 - yz * yz, yz * xz - xy * d2, xy * yz - d1 * xz
    norm2 = np.einsum("ijn,ijn->in", cross, cross)
    best = norm2.argmax(0)
    cols = np.arange(len(best))
    vecs[ok] = cross[best, :, cols] / np.sqrt(norm2[best, cols])[:, None]

    rest = ~ok
    if rest.any():
        near = local[:, :, rest].T  # (n, k, 3)
        vals[rest], v = np.linalg.eigh(np.swapaxes(near, 1, 2) @ near)
        vecs[rest] = v[:, :, 0]
    return vals, vecs
