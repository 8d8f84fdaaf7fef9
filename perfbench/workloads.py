"""Seeded workloads of the replay benchmark and their set-up.

A workload is a list of simulated datasets: the run's seed fixes every
dataset's seed, so the same seed gives the same inputs. Set-up
(``sim.simulate`` + ``dataset.write_dataset``) runs in a child process
(this file run as a script) so that its memory does not count towards
the replay's peak RSS; the child also times the reference kernel around
each set-up.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from mlio import dataset as mlio_dataset
from mlio import sim
from mlio.preintegration import GRAVITY
from reference import Bracket, Reference

# Sensor noise of every workload. IMU noise matches the variances the
# default rig declares (1e-4 m^2/s^4, 1e-6 rad^2/s^2); GNSS noise is the
# 0.5 m the acceptance suite uses.
NOISE = sim.NoiseSpec(
    accel_sigma=0.01, gyro_sigma=0.001, lidar_sigma=0.01, gnss_sigma=0.5
)

# IMU subsets that drop out in turn on the fused-IMU workload.
IMU_DROPOUT_CYCLE = (
    ("imu/F_L",),
    ("imu/F_R", "imu/R_R"),
    ("imu/R_L",),
    ("imu/F_L", "imu/R_R"),
)


# sanity ceilings of the fused-IMU check, about 5x the fused noise
MAX_RMSE_ACC = 0.05  # m/s^2
MAX_RMSE_GYRO = 0.005  # rad/s


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "estimator" (mlio run) or "fuse" (mlio fuse-imu)
    mask: str  # sensor mask in L<n>I<n>G<n> notation
    datasets: int  # distinct seeded datasets per run
    params: dict  # scenario size
    rpe_distance: float = 10.0  # m
    max_error: float = 0.0  # m, RPE and APE sanity ceiling (estimator)

    def dataset_seed(self, seed: int, index: int) -> int:
        return seed * 1000 + index

    def scenario(self, seed: int) -> sim.Scenario:
        return BUILDERS[self.name](seed, **self.params)


def corridor(seed: int, length: float) -> sim.Scenario:
    return sim.corridor_scenario(length=length, seed=seed, noise=NOISE)


def loop_dropout(seed: int, side: float, laps: float = 1.0) -> sim.Scenario:
    """Shrunken urban loop; the F_L and R_R IMU+lidar pairs drop out
    from 35% to 55% of the run (the acceptance suite's pairs)."""
    base = _laps(sim.loop_scenario(side=side, seed=seed, noise=NOISE), laps)
    d = base.duration
    drops = tuple(
        sim.Dropout(sensor_id=sid, start=0.35 * d, end=0.55 * d)
        for sid in ("imu/F_L", "lidar/F_L", "imu/R_R", "lidar/R_R")
    )
    return dataclasses.replace(base, dropouts=drops)


def imu_loop(seed: int, laps: float, period: float = 12.0,
             outage: float = 3.0) -> sim.Scenario:
    """IMU-only urban loop driven for `laps` laps; every `period` s one
    or two IMUs drop out for `outage` s, cycling through subsets."""
    base = _laps(sim.loop_scenario(seed=seed, noise=NOISE), laps)
    base = dataclasses.replace(base, lidars={})
    drops = []
    starts = np.arange(period, base.duration - outage - 1.0, period)
    for k, start in enumerate(starts):
        for sid in IMU_DROPOUT_CYCLE[k % len(IMU_DROPOUT_CYCLE)]:
            drops.append(sim.Dropout(sensor_id=sid, start=float(start),
                                     end=float(start + outage)))
    return dataclasses.replace(base, dropouts=tuple(drops))


def _laps(scenario: sim.Scenario, laps: float) -> sim.Scenario:
    """The loop's static start followed by `laps` laps, a fraction of a
    lap rounded up to whole segments (each lap is four straight/turn
    pairs)."""
    lap = scenario.segments[1:]
    whole = int(laps)
    part = math.ceil(len(lap) * (laps - whole))
    segs = scenario.segments[:1] + lap * whole + lap[:part]
    return dataclasses.replace(scenario, segments=segs)


BUILDERS = {
    "corridor-L4I4G1": corridor,
    "loop-dropout-L4I4": loop_dropout,
    "fuse-imu-I4": imu_loop,
}

# Sizes are chosen so one pass over a run's datasets takes 15-30 s on a
# 2-core x86 VM with one BLAS thread. The loop is one lap, so its
# 22 keyframes overflow the 20-keyframe window and marginalization runs.
# The corridor's ceiling only catches a blow-up: its RPE reaches 11 m at
# some seeds today.
WORKLOADS = {w.name: w for w in (
    Workload("corridor-L4I4G1", "estimator", "L4I4G1", datasets=4,
             params={"length": 15.0}, max_error=50.0),
    Workload("loop-dropout-L4I4", "estimator", "L4I4", datasets=1,
             params={"side": 24.0}, max_error=2.0),
    Workload("fuse-imu-I4", "fuse", "I4", datasets=1, params={"laps": 1.5}),
)}

# seconds-long variants for the self-test
TINY = {
    name: dataclasses.replace(w, datasets=1, rpe_distance=2.0, params=params)
    for (name, w), params in zip(WORKLOADS.items(), (
        {"length": 6.0}, {"side": 24.0, "laps": 0.25}, {"laps": 0.25},
    ))
}


def set_up(workload: Workload, seed: int, out_dir: str) -> dict:
    """Simulate one dataset and write it to `out_dir`, together with the
    IMU truth the fused stream is checked against (``truth.npz``).

    Runs in the set-up worker; returns the two timed phases in seconds
    and the seconds of sensor data."""
    scenario = workload.scenario(seed)
    t0 = time.perf_counter()
    data = sim.simulate(scenario)
    t1 = time.perf_counter()
    mlio_dataset.write_dataset(out_dir, data)
    t2 = time.perf_counter()
    gt = data.gt
    R = np.stack([p.R for p in gt.poses])
    # base-frame specific force f = R^T (a - g); angular rate as given
    f = np.einsum("nji,nj->ni", R, gt.a_world - np.asarray(GRAVITY))
    np.savez(f"{out_dir}/truth.npz", stamps=gt.stamps, f=f, w=gt.w_body)
    return {
        "simulate_s": t1 - t0,
        "write_s": t2 - t1,
        "data_s": scenario.duration,
    }


def set_up_all(workload: Workload, tasks, ref_share) -> list:
    """Run every (seed, out_dir) task in turn, each between two blocks
    of the reference kernel (`ref_share` of its time, at least one
    kernel run). Each timing also holds the set-up time in reference
    runs, "setup_ref"."""
    bracket = Bracket(Reference(), ref_share, first_s=1.0)
    timings = []
    for seed, out_dir in tasks:
        t = set_up(workload, seed, out_dir)
        t["setup_ref"] = bracket.close(t["simulate_s"] + t["write_s"])
        timings.append(t)
    return timings


def main(argv) -> int:
    """Set-up worker, started by run.py with one JSON argument:
    {"workload", "size" ("full" or "tiny"), "tasks", "ref_share",
    "out"}. Writes the timings to "out" as JSON; mlio must be importable
    (run.py puts its sources on PYTHONPATH)."""
    job = json.loads(argv[1])
    table = TINY if job["size"] == "tiny" else WORKLOADS
    timings = set_up_all(table[job["workload"]], job["tasks"],
                         job["ref_share"])
    with open(job["out"], "w") as fh:
        json.dump(timings, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
