"""Fusing an IMU array into one virtual inertial sensor.

Builds a four-IMU rig with heterogeneous accelerometer noise and motion
that excites the lever arms, then compares maximum-likelihood fusion
against plain averaging. The MLE weighs channels by their noise and
models the centrifugal and Euler lever-arm terms, so it also produces an
angular-acceleration estimate.
"""

import numpy as np

from mlio.mimu import BatchFuser, ImuChannelCalib, MimuArray

LEVERS = np.array(
    [[0.5, 0.3, 0.1], [-0.4, 0.5, -0.1], [-0.5, -0.4, 0.2], [0.4, -0.5, -0.2]]
)


def main():
    rng = np.random.default_rng(0)
    sig_acc = [0.01, 0.02, 0.04, 0.05]  # heterogeneous channel quality
    channels = tuple(
        ImuChannelCalib(
            R=np.eye(3), t=t,
            acc_noise_var=np.full(3, s**2), gyro_noise_var=np.full(3, 0.003**2),
        )
        for t, s in zip(LEVERS, sig_acc)
    )
    arr = MimuArray(channels)

    t = np.arange(0.0, 30.0, 0.01)
    w = 0.4 * np.column_stack(
        [np.sin(0.7 * t), np.sin(1.1 * t + 1.0), np.sin(1.3 * t + 2.0)]
    )
    w_dot = 0.4 * np.column_stack(
        [0.7 * np.cos(0.7 * t), 1.1 * np.cos(1.1 * t + 1.0),
         1.3 * np.cos(1.3 * t + 2.0)]
    )
    f = np.column_stack(
        [2.0 * np.sin(0.5 * t), 2.0 * np.cos(0.8 * t), 9.81 + 0.5 * np.sin(1.7 * t)]
    )

    Yf = np.empty((t.size, 12))
    Yw = np.empty((t.size, 12))
    for k, c in enumerate(arr.channels):
        lever = np.cross(w, np.cross(w, np.broadcast_to(c.t, w.shape)))
        lever += np.cross(w_dot, np.broadcast_to(c.t, w.shape))
        Yf[:, 3 * k:3 * k + 3] = f + lever + rng.normal(0, sig_acc[k], w.shape)
        Yw[:, 3 * k:3 * k + 3] = w + rng.normal(0, 0.003, w.shape)

    fuser = BatchFuser(arr)
    F, W, Wdot = fuser.fuse(Yf, Yw)
    # averaging baseline: the channel means, each specific force less its
    # centrifugal lever-arm term
    Yf3, Yw3 = Yf.reshape(-1, 4, 3), Yw.reshape(-1, 4, 3)
    Fa = (Yf3 - np.cross(Yw3, np.cross(Yw3, LEVERS))).mean(axis=1)
    Wa = Yw3.mean(axis=1)

    rmse = lambda x, ref: float(np.sqrt(np.mean((x - ref) ** 2)))
    print(f"angular acceleration observable: {fuser.w_dot_observable}")
    print(f"accel RMSE   MLE {rmse(F, f):.5f}  average {rmse(Fa, f):.5f}")
    print(f"gyro  RMSE   MLE {rmse(W, w):.6f}  average {rmse(Wa, w):.6f}")
    print(f"wdot  RMSE   MLE {rmse(Wdot, w_dot):.5f}  (average has no estimate)")


if __name__ == "__main__":
    main()
