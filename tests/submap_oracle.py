"""Reference voxel map for the array-backed `mlio.submap.LocalSubmap`.

One dict entry per voxel in insertion order, a Python loop per point on
insert and crop, and one `eigh` per point for plane normals: slow, but
each rule is spelled out once, so the array-backed map can be checked
against it element by element.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


class DictSubmap:
    def __init__(self, voxel_resolution: float = 0.05, extent: float = 150.0):
        self.voxel_resolution = float(voxel_resolution)
        self.extent = float(extent)
        self._voxels: dict = {}
        self._tree = None
        self._points = None
        self._normals_cache: dict = {}  # index -> fit to _normals_k neighbors
        self._normals_k = None

    def __len__(self) -> int:
        return len(self._voxels)

    def _keys(self, points) -> np.ndarray:
        return np.floor(np.asarray(points) / self.voxel_resolution).astype(np.int64)

    def insert(self, points) -> int:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        added = 0
        voxels = self._voxels
        for key, p in zip(map(tuple, self._keys(points)), points):
            if key not in voxels:
                voxels[key] = p
                added += 1
        if added:
            self._dirty()
        return added

    def crop_to_box(self, center) -> int:
        center = np.asarray(center, dtype=float)
        half = self.extent / 2.0
        doomed = [
            k for k, p in self._voxels.items() if np.max(np.abs(p - center)) > half
        ]
        for k in doomed:
            del self._voxels[k]
        if doomed:
            self._dirty()
        return len(doomed)

    def _dirty(self):
        self._tree = None
        self._points = None
        self._normals_cache.clear()

    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = (
                np.stack(list(self._voxels.values()))
                if self._voxels
                else np.empty((0, 3))
            )
        return self._points

    def plane_normals(self, indices, k: int = 5):
        pts = self.points()
        if k != self._normals_k:
            self._normals_cache.clear()
            self._normals_k = k
        if self._tree is None:
            self._tree = cKDTree(pts)
        out = np.empty((len(indices), 3))
        ok = np.empty(len(indices), dtype=bool)
        todo = [i for i, idx in enumerate(indices) if idx not in self._normals_cache]
        if todo:
            uniq = sorted({int(indices[i]) for i in todo})
            kk = min(k, len(pts))
            _, nbr = self._tree.query(pts[uniq], k=kk)
            nbr = np.atleast_2d(nbr)
            for u, row in zip(uniq, nbr):
                local = pts[row] - pts[row].mean(axis=0)
                cov = local.T @ local
                vals, vecs = np.linalg.eigh(cov)
                valid = bool(
                    vals[2] > 0.0
                    and vals[0] <= 1e-3 * vals[2]
                    and vals[1] >= 1e-2 * vals[2]
                )
                self._normals_cache[u] = (vecs[:, 0], valid)
        for i, idx in enumerate(indices):
            out[i], ok[i] = self._normals_cache[int(idx)]
        return out, ok
