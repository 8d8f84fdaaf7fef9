"""Reference voxel map for the array-backed `mlio.submap.LocalSubmap`,
and the per-hood plane fit (`fit_planes`) that it uses.

One dict entry per voxel, a Python loop per point on insert and crop,
the points listed in the lexicographic order of their voxels' integer
coordinates (the order of `LocalSubmap`'s keys), and one `eigh` per
hood of point coordinates for plane fits: slow, but each rule is
spelled out once, so the array-backed map can be checked against it
element by element.
"""

from __future__ import annotations

import numpy as np


class DictSubmap:
    def __init__(self, voxel_resolution: float, extent: float):
        self.voxel_resolution = float(voxel_resolution)
        self.extent = float(extent)
        self._voxels: dict = {}
        self._points = None

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
            self._points = None
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
            self._points = None
        return len(doomed)

    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = (
                np.stack([p for _, p in sorted(self._voxels.items())])
                if self._voxels
                else np.empty((0, 3))
            )
        return self._points

    def plane_normals(self, hoods):
        return fit_planes(hoods)


def fit_planes(hoods):
    """(normals, centroids, valid) of the hoods of point coordinates
    (m, k, 3), one `eigh` of each hood's scatter at a time."""
    hoods = np.asarray(hoods, dtype=float)
    normals, centroids = np.empty((len(hoods), 3)), np.empty((len(hoods), 3))
    valid = np.empty(len(hoods), dtype=bool)
    for i, hood in enumerate(hoods):
        centroids[i] = hood.mean(axis=0)
        local = hood - centroids[i]
        vals, vecs = np.linalg.eigh(local.T @ local)
        normals[i] = vecs[:, 0]
        valid[i] = (vals[2] > 0.0 and vals[0] <= 1e-3 * vals[2]
                    and vals[1] >= 1e-2 * vals[2])
    return normals, centroids, valid
