"""Deskewing and point-to-plane ICP against a local submap.

Registers a structured indoor scene from a perturbed prior, then shows
the weak directions that a featureless single-plane scene leaves: ICP
takes no step along them, and the pose keeps the prior's there. Both
maps have the voxel and extent of `PipelineConfig`, as `mlio run` does.
"""

import math

import numpy as np

from mlio.geometry import Pose, pose_inverse, so3_exp, so3_log
from mlio.lidar import icp_register
from mlio.pipeline import PipelineConfig
from mlio.submap import LocalSubmap


def scene(step, offset=0.0):
    pts = []
    g = np.arange(-10.0 + offset, 10.0, step)
    gx, gy = np.meshgrid(g, g)
    pts.append(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
    h = np.arange(offset, 4.0, step)
    wx, wz = np.meshgrid(g, h)
    pts.append(np.column_stack([wx.ravel(), np.full(wx.size, 10.0), wz.ravel()]))
    pts.append(np.column_stack([np.full(wx.size, 10.0), wx.ravel(), wz.ravel()]))
    return np.concatenate(pts, axis=0)


def main():
    config = PipelineConfig()
    submap = LocalSubmap(config.voxel_resolution, config.map_extent)
    submap.insert(scene(step=0.15))
    print(f"submap: {len(submap)} points")

    true_pose = Pose(so3_exp([0.0, 0.0, 0.2]), np.array([1.0, -1.0, 1.2]))
    cloud = pose_inverse(true_pose).apply(scene(step=0.17, offset=0.06))

    prior = Pose(so3_exp([0.0, 0.0, math.radians(4.0)]) @ true_pose.R,
                 true_pose.t + [0.4, -0.2, 0.1])
    est = icp_register(cloud, submap, prior)
    err_t = np.linalg.norm(est.pose.t - true_pose.t)
    err_r = math.degrees(np.linalg.norm(so3_log(est.pose.R.T @ true_pose.R)))
    print(f"ICP: {est.iterations} iterations, fitness {est.fitness:.2e}")
    print(f"     recovered pose error: {err_t * 1000:.2f} mm / {err_r:.4f} deg")
    print(f"     degenerate: {est.degenerate}")

    # a single plane leaves in-plane motion unconstrained
    flat = LocalSubmap(config.voxel_resolution, config.map_extent)
    g = np.arange(-8.0, 8.0, 0.15)
    gx, gy = np.meshgrid(g, g)
    flat.insert(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
    est = icp_register(np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)]),
                       flat, Pose.identity())
    print(f"single plane: degenerate flag = {est.degenerate}, "
          f"{len(est.weak)} weak directions (dphi, dt):")
    for row in est.weak:
        print("     " + " ".join(f"{x:+.3f}" for x in row))


if __name__ == "__main__":
    main()
