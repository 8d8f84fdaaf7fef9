"""Incremental voxel-deduplicated local map with k-NN queries.

A bounded spatial index: inserts keep one point per voxel, points far
from the current pose are dropped, and k-NN queries are exact. The map
is two flat arrays in insertion order, the (N, 3) points and their voxel
keys packed into one int64 each relative to an origin voxel that follows
the box, so insert and crop are array operations, world coordinates of
any size (UTM too) pack, and the KD-tree sees the points in the order
they arrived. A k-NN query can be bounded by a maximum distance, at
which the tree stops searching. Plane normals are fit lazily, in one
batch per call, and cached until the map or the neighbor count changes.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

_KEY_BITS = 21  # per axis: voxel offsets from the origin in [-2**20, 2**20)
_KEY_HALF = 1 << (_KEY_BITS - 1)


class LocalSubmap:
    def __init__(self, voxel_resolution: float = 0.05, extent: float = 150.0):
        if voxel_resolution <= 0:
            raise ValueError("voxel_resolution must be positive")
        self.voxel_resolution = float(voxel_resolution)
        self.extent = float(extent)  # side length of the sliding box
        if self.extent / self.voxel_resolution >= _KEY_HALF:
            raise ValueError("extent spans too many voxels to pack")
        self._points = np.empty((0, 3))
        self._keys = np.empty(0, dtype=np.int64)
        self._origin = np.zeros(3)  # voxel the keys count from
        self._fit_k = None  # neighbor count of the cached normal fits
        self._dirty()

    def __len__(self) -> int:
        return len(self._points)

    def _pack(self, points) -> np.ndarray:
        """One int64 per point from its voxel offsets to the origin."""
        idx = np.floor(points / self.voxel_resolution) - self._origin
        if not np.all((idx >= -_KEY_HALF) & (idx < _KEY_HALF)):
            raise ValueError("point outside the packable voxel range")
        idx = idx.astype(np.int64) + _KEY_HALF
        return (idx[:, 0] << 2 * _KEY_BITS) | (idx[:, 1] << _KEY_BITS) | idx[:, 2]

    def _move_origin(self, point):
        """Count keys from the voxel of `point`. Packing is linear, and all
        stored points lie in the box around it, so their keys shift alike."""
        voxel = np.floor(np.asarray(point, dtype=float) / self.voxel_resolution)
        if not np.all(np.isfinite(voxel)):
            raise ValueError("map origin must be finite")
        if len(self._keys):
            dx, dy, dz = (int(d) for d in voxel - self._origin)
            self._keys -= (dx << 2 * _KEY_BITS) + (dy << _KEY_BITS) + dz
        self._origin = voxel

    def insert(self, points) -> int:
        """Insert points, one per voxel (first wins). Returns inserted count."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not len(self._points) and len(points):
            self._move_origin(points[0])
        packed = self._pack(points)
        keys, first = np.unique(packed, return_index=True)
        new = np.sort(first[~np.isin(keys, self._keys, assume_unique=True)])
        if len(new):
            self._points = np.concatenate([self._points, points[new]])
            self._keys = np.concatenate([self._keys, packed[new]])
            self._dirty()
        return len(new)

    def crop_to_box(self, center) -> int:
        """Remove points outside the sliding box centered at `center`."""
        center = np.asarray(center, dtype=float)
        out = np.abs(self._points - center) > self.extent / 2.0
        doomed = out[:, 0] | out[:, 1] | out[:, 2]
        removed = int(doomed.sum())
        if removed:
            self._points = self._points[~doomed]
            self._keys = self._keys[~doomed]
            self._dirty()
        self._move_origin(center)
        return removed

    def _dirty(self):
        self._tree = None
        n = len(self._points)
        self._normals = np.empty((n, 3))
        self._valid = np.empty(n, dtype=bool)
        self._computed = np.zeros(n, dtype=bool)

    def points(self) -> np.ndarray:
        return self._points

    def _ensure_tree(self):
        if self._tree is None and len(self._points):
            # sliding-midpoint splits build and query faster than medians;
            # distances stay exact, ties between equally near points may not
            self._tree = cKDTree(self._points, balanced_tree=False)
        return self._tree

    def knn(self, queries, k: int = 1, max_dist: float = np.inf):
        """Exact k nearest stored points at most `max_dist` away. Returns
        (distances, indices), each (len(queries), k). A point exactly
        `max_dist` away is returned; a neighbor not found within the
        bound, or missing because k > len(self), has distance inf and
        index len(self). ICP's kept candidates rely on all three."""
        tree = self._ensure_tree()
        if tree is None:
            raise ValueError("submap is empty")
        queries = np.atleast_2d(queries)
        # the tree's bound is exclusive and stops its search early; one
        # unit of rounding above max_dist keeps every distance equal to it
        d, idx = tree.query(queries, k=k,
                            distance_upper_bound=np.nextafter(max_dist, np.inf))
        return d.reshape(len(queries), -1), idx.reshape(len(queries), -1)

    def plane_normals(self, indices, k: int = 5):
        """(normals, valid) at the given stored-point indices.

        A fit is valid only when the neighborhood is genuinely planar:
        thin along the normal and spread in both in-plane directions
        (nearly collinear neighborhoods give arbitrary normals). Each
        point is fit to its k nearest stored neighbors, in one batched
        eigendecomposition per call; fits are cached for the last k."""
        indices = np.asarray(indices, dtype=np.int64)
        if k != self._fit_k:
            self._computed[:] = False
            self._fit_k = k
        todo = np.unique(indices[~self._computed[indices]])
        if len(todo):
            pts = self._points
            kk = min(k, len(pts))
            _, nbr = self._ensure_tree().query(pts[todo], k=kk)
            hood = pts[nbr.reshape(len(todo), kk)]
            local = hood - hood.mean(axis=1, keepdims=True)
            vals, vecs = np.linalg.eigh(np.swapaxes(local, 1, 2) @ local)
            self._normals[todo] = vecs[:, :, 0]
            self._valid[todo] = (
                (vals[:, 2] > 0.0)
                & (vals[:, 0] <= 1e-3 * vals[:, 2])
                & (vals[:, 1] >= 1e-2 * vals[:, 2])
            )
            self._computed[todo] = True
        return self._normals[indices], self._valid[indices]
