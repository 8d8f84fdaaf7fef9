"""IMU preintegration between keyframes.

Folds one second of 100 Hz samples into a relative-motion
pseudo-measurement, checks it against brute-force fine integration, and
shows the first-order bias correction in action.
"""

import numpy as np

from mlio.geometry import NavState, so3_log
from mlio.preintegration import empty_delta, integrate, predict

DT = 0.01


def main():
    rng = np.random.default_rng(1)
    W = rng.uniform(-0.8, 0.8, (100, 3))
    A = rng.uniform(-4.0, 4.0, (100, 3))

    delta = empty_delta()
    for w, a in zip(W, A):
        delta = integrate(delta, a, w, DT)
    print(f"preintegrated over {delta.dt:.2f}s: |dp|={np.linalg.norm(delta.dp):.3f} m")

    # the same measurements at 10x finer substeps should agree closely
    fine = empty_delta()
    for w, a in zip(W, A):
        for _ in range(10):
            fine = integrate(fine, a, w, DT / 10)
    print("coarse-vs-fine:",
          f"rot {np.linalg.norm(so3_log(delta.dR.T @ fine.dR)):.2e} rad,",
          f"pos {np.linalg.norm(delta.dp - fine.dp):.2e} m")

    # first-order bias correction vs re-integration with biased samples
    b_g = np.array([0.002, -0.001, 0.003])
    rebased = empty_delta()
    for w, a in zip(W, A):
        rebased = integrate(rebased, a, w - b_g, DT)
    dR_corr, _, _ = delta.corrected(np.zeros(3), b_g)
    print("bias correction residual:",
          f"{np.linalg.norm(so3_log(dR_corr.T @ rebased.dR)):.2e} rad")

    # forward prediction includes gravity
    x0 = NavState()
    x1 = predict(x0, delta)
    print("predicted end state: p =", np.round(x1.pose.t, 3), " v =", np.round(x1.v, 3))


if __name__ == "__main__":
    main()
