"""IMU preintegration between keyframes.

Folds one second of 100 Hz samples, as one block, into a relative-motion
pseudo-measurement, checks it against brute-force fine integration, and
shows the first-order bias correction in action.
"""

import numpy as np

from mlio.geometry import NavState, so3_log
from mlio.preintegration import PreintegratedDelta, integrate, predict

DT = 0.01


def main():
    rng = np.random.default_rng(1)
    W = rng.uniform(-0.8, 0.8, (100, 3))
    A = rng.uniform(-4.0, 4.0, (100, 3))

    # the delta at every sample boundary; the last row spans the second
    block = integrate(PreintegratedDelta(), A, W, np.full(100, DT))
    delta = block.take(-1)
    print(f"preintegrated over {delta.dt:.2f}s: |dp|={np.linalg.norm(delta.dp):.3f} m")

    # the same measurements at 10x finer substeps should agree closely
    fine = integrate(PreintegratedDelta(), np.repeat(A, 10, axis=0),
                     np.repeat(W, 10, axis=0), np.full(1000, DT / 10)).take(-1)
    print("coarse-vs-fine:",
          f"rot {np.linalg.norm(so3_log(delta.dR.T @ fine.dR)):.2e} rad,",
          f"pos {np.linalg.norm(delta.dp - fine.dp):.2e} m")

    # first-order bias correction vs re-integration with biased samples
    b_g = np.array([0.002, -0.001, 0.003])
    rebased = integrate(PreintegratedDelta(), A, W - b_g, np.full(100, DT)).take(-1)
    # predict() corrects the delta at the state's biases; from the
    # identity pose the predicted attitude is the corrected dR
    dR_corr = predict(NavState(b_g=b_g), block)[-1].pose.R
    print("bias correction residual:",
          f"{np.linalg.norm(so3_log(dR_corr.T @ rebased.dR)):.2e} rad")

    # forward prediction includes gravity
    x0 = NavState()
    x1 = predict(x0, block)[-1]
    print("predicted end state: p =", np.round(x1.pose.t, 3), " v =", np.round(x1.v, 3))


if __name__ == "__main__":
    main()
