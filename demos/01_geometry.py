"""SE(3) basics and constant-twist interpolation.

Shows the Lie-group helpers the rest of the package is built on: poses,
exp/log round trips, and the constant-twist interpolation
se3_exp(eta * se3_log(rel)) (the kernel used for scan deskewing and for
the simulator's scans).
"""

import numpy as np

from mlio.geometry import (
    Pose,
    pose_compose,
    pose_inverse,
    se3_exp,
    se3_log,
    so3_exp,
)


def main():
    xi = np.array([0.1, -0.2, 0.3, 1.0, 0.5, -0.2])  # (rot, trans) tangent
    T = se3_exp(xi)
    print("exp/log round trip error:", np.linalg.norm(se3_log(T) - xi))

    a = Pose(so3_exp([0.0, 0.0, 0.7]), np.array([1.0, 2.0, 0.0]))
    b = pose_compose(a, T)
    rel = pose_compose(pose_inverse(a), b)
    print("recovered relative motion:", np.round(se3_log(rel), 6))

    # exp(eta * log(rel)) sweeps the constant-twist path a -> b
    xi_rel = se3_log(rel)
    print("\nconstant-twist interpolation between a and b:")
    for eta in [0.0, 0.25, 0.5, 1.0]:
        p = pose_compose(a, se3_exp(eta * xi_rel))
        print(f"  eta={eta:4.2f}  t={np.round(p.t, 4)}")


if __name__ == "__main__":
    main()
