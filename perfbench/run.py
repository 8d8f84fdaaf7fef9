#!/usr/bin/env python3
"""Replay benchmark of mlio.

Run from the repository root:

    python3 perfbench/run.py --workload corridor-L4I4G1 --seed 1 \\
        --seconds 20 --trace 0

Set-up simulates the workload's datasets from the seed and writes them
to disk. The run then replays them through the public API, as
``mlio run`` and ``mlio fuse-imu`` do, one replay at a time in this
process: every dataset once, then round-robin while the next replay is
expected to end within ``--seconds``. Each replay's outputs are checked.
Around every replay and every set-up, and between the keyframes of an
estimator replay, a fixed reference kernel is timed (reference.py);
``rtf_ref`` and ``setup_s`` divide their wall times by it, which takes
out the machine's drift. The command prints every
metric with its unit, the environment, and as its last line one JSON
object: the end-to-end metrics with ``--trace 0``; with ``--trace 1``,
the per-layer metrics of one traced pass. Records and spans go to ``.perfbench/records/``. See
perfbench/README.md.
"""

import os

# pin every BLAS/OpenMP pool before numpy is first imported
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUPS = 3  # set-ups per run at least; setup_s is their median
REF_SHARE = 0.2  # reference-kernel time per second of replay
SETUP_REF_SHARE = 0.5  # the same, per second of set-up

TruthSample = namedtuple("TruthSample", "stamp f w")


class CheckFailed(Exception):
    pass


def metric_units(kind) -> dict:
    """Names and units of the "end_to_end" or "per_layer" metrics, as
    BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# replay: the timed path
# ---------------------------------------------------------------------------


def replay_estimator(wl, ds_dir, out_dir, span):
    """``mlio run``: load, run the pipeline, write est.tum and friends."""
    from mlio import dataset, pipeline

    ds = dataset.load_dataset(ds_dir)
    result = pipeline.run_pipeline(ds, pipeline.parse_sensor_mask(wl.mask))
    pipeline.write_run_outputs(out_dir, result)
    return ds, result.counters, result.fused, result


def replay_fuse(wl, ds_dir, out_dir, span):
    """``mlio fuse-imu``: load, synchronize, fuse, write the fused CSV."""
    from mlio import dataset, pipeline
    from mlio.sync import SyncConfig

    ds = dataset.load_dataset(ds_dir)
    ds = dataclasses.replace(ds, lidar={})
    mask = pipeline.SensorMask(n_lidar=1, n_imu=int(wl.mask[1:]))
    counters = pipeline.RunCounters()
    groups, _ = pipeline.replay_sync(ds, mask, SyncConfig(), counters)
    imus = {p: ds.scenario.imus[p] for p in mask.imu_positions}
    fused = pipeline.fuse_imu_groups(groups, imus, counters)
    # the CSV `mlio fuse-imu` writes; the CLI has no public writer for it
    with span("pipeline.write"):
        with open(os.path.join(out_dir, "fused_imu.csv"), "w") as fh:
            fh.write("t_ns,fx,fy,fz,wx,wy,wz,wdx,wdy,wdz\n")
            for s in fused:
                vals = ",".join(f"{v:.9e}" for v in (*s.f, *s.w, *s.w_dot))
                fh.write(f"{s.stamp},{vals}\n")
    return ds, counters, fused, None


def digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks (outside the timed path)
# ---------------------------------------------------------------------------


def check(wl, ds, counters, fused, result, truth) -> dict:
    """Accuracy of one replay; raises CheckFailed on a wrong output."""
    import numpy as np
    from mlio import evaluation
    from mlio.pipeline import PipelineConfig
    from workloads import MAX_RMSE_ACC, MAX_RMSE_GYRO

    problems = []
    if not (len(fused) == counters.fused_samples == counters.imu_groups):
        problems.append(
            f"{len(fused)} fused samples for {counters.imu_groups} IMU groups"
        )
    acc, gyro = evaluation.imu_rmse(truth, fused)
    out = {"imu_rmse_acc": acc, "imu_rmse_gyro": gyro}
    if not acc <= MAX_RMSE_ACC:
        problems.append(f"imu_rmse_acc {acc:.4g} > {MAX_RMSE_ACC}")
    if not gyro <= MAX_RMSE_GYRO:
        problems.append(f"imu_rmse_gyro {gyro:.4g} > {MAX_RMSE_GYRO}")
    if result is not None:
        interval = round(PipelineConfig().keyframe_interval_s * 1e9)
        expected = int((ds.gt_stamps[-1] - ds.gt_stamps[0]) // interval)
        if counters.keyframes != expected or len(result.poses) != expected + 1:
            problems.append(
                f"{counters.keyframes} keyframes, {len(result.poses)} poses; "
                f"expected {expected} keyframes"
            )
        if not all(np.isfinite(p.R).all() and np.isfinite(p.t).all()
                   for p in result.poses):
            problems.append("non-finite pose")
        else:
            gt = evaluation.Trajectory(ds.gt_stamps, ds.gt_poses)
            est = evaluation.Trajectory(np.array(result.stamps), result.poses)
            out["rpe_m"] = evaluation.rpe(gt, est, wl.rpe_distance)[0]
            out["ape_m"] = evaluation.ape(gt, est)
            for key in ("rpe_m", "ape_m"):
                if not out[key] <= wl.max_error:
                    problems.append(f"{key} {out[key]:.4g} > {wl.max_error}")
    if problems:
        raise CheckFailed("; ".join(problems))
    return out


def load_truth(ds_dir) -> list:
    import numpy as np

    with np.load(os.path.join(ds_dir, "truth.npz")) as z:
        return [TruthSample(int(t), f, w)
                for t, f, w in zip(z["stamps"], z["f"], z["w"])]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def set_up_all(wl, size, seed, work) -> tuple:
    """Simulate and write every dataset in one worker process; dataset 0
    is set up again until SETUPS set-ups have been timed. Each set-up
    is also timed in reference-kernel runs. The worker is a plain child
    process (workloads.py), waited for on every path out of here."""
    dirs = [work / f"data{k}" for k in range(wl.datasets)]
    tasks = [(wl.dataset_seed(seed, i % wl.datasets),
              str(dirs[i % wl.datasets]))
             for i in range(max(SETUPS, wl.datasets))]
    work.mkdir(parents=True, exist_ok=True)
    out = work / "setup.json"
    job = {"workload": wl.name, "size": size, "tasks": tasks,
           "ref_share": SETUP_REF_SHARE, "out": str(out)}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # run() kills and waits for the worker if this process is interrupted
    done = subprocess.run([sys.executable, str(HERE / "workloads.py"),
                           json.dumps(job)], cwd=ROOT, env=env)
    if done.returncode != 0 or not out.is_file():
        raise RuntimeError(f"set-up failed (worker exit {done.returncode})")
    with open(out) as fh:
        return dirs, json.load(fh)


class Pass:
    """Replays, checks and failures of one run."""

    def __init__(self, wl, dirs, data_s, work, ref_share):
        from reference import Bracket, Reference

        self.wl, self.dirs, self.data_s = wl, dirs, data_s
        self.ref_share = ref_share
        self.out_dirs = [work / f"out{k}" for k in range(len(dirs))]
        for d in self.out_dirs:
            d.mkdir(parents=True, exist_ok=True)
        self.first = [None] * len(dirs)  # output digest of the first replay
        self.accuracy = [None] * len(dirs)
        self.counters = [None] * len(dirs)
        self.walls = [[] for _ in dirs]  # untraced replays, s
        self.in_ref = [[] for _ in dirs]  # the same, in reference times
        # one kernel run before the first replay; the rest sample inside
        self.bracket = Bracket(Reference(), ref_share, 0.0)
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0

    def replay(self, k, span=nullcontext, root=nullcontext, traced=False):
        """One timed replay of dataset k, then its output checks; a failure
        is counted and reported, and the run goes on. The reference
        kernel runs for `ref_share` of the replay's wall time, at least
        once: between keyframes while the replay runs, with the clock
        paused, and the rest after it (see reference.Bracket)."""
        replay = replay_estimator if self.wl.kind == "estimator" else replay_fuse
        self.attempted += 1
        try:
            self.bracket.open()
            t0 = time.perf_counter()
            with root(), self.sampling():
                outputs = replay(self.wl, str(self.dirs[k]),
                                 str(self.out_dirs[k]), span)
            wall = time.perf_counter() - t0 - self.bracket.paused
            in_ref = self.bracket.close(wall)
            t1 = time.perf_counter()
            got = digest(self.out_dirs[k])
            if self.first[k] is None:
                truth = load_truth(str(self.dirs[k]))
                self.accuracy[k] = check(self.wl, *outputs, truth)
                self.first[k] = got
                self.counters[k] = outputs[1]
            elif got != self.first[k]:
                raise CheckFailed("outputs differ from the dataset's first replay")
            self.check_s += time.perf_counter() - t1
            if not traced:
                self.walls[k].append(wall)
                self.in_ref[k].append(in_ref)
            return wall
        except Exception:  # a failed replay is counted, not fatal
            self.failed += 1
            print(f"replay of dataset {k} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    @contextmanager
    def sampling(self):
        """Lets the reference kernel sample the machine's speed after each
        `FactorGraph.optimize`, which an estimator replay calls once per
        keyframe: a long replay then shares the speed it is divided by
        with the kernel runs. A fused-IMU replay, a second or two long,
        never calls it."""
        from mlio.graph import FactorGraph

        optimize = FactorGraph.optimize
        bracket = self.bracket

        @functools.wraps(optimize)
        def sampled(*args, **kwargs):
            result = optimize(*args, **kwargs)
            bracket.sample()
            return result

        FactorGraph.optimize = sampled
        try:
            yield
        finally:
            FactorGraph.optimize = optimize

    def rtf(self) -> float:
        """Σ over datasets of the median untraced replay wall time, per
        second of sensor data."""
        return self._per_data_s(self.walls)

    def rtf_ref(self) -> float:
        """The same, with each replay's wall time divided by the mean
        time of the reference runs just before and after it."""
        return self._per_data_s(self.in_ref)

    def _per_data_s(self, per_dataset) -> float:
        done = [k for k, v in enumerate(per_dataset) if v]
        return (sum(statistics.median(per_dataset[k]) for k in done)
                / sum(self.data_s[k] for k in done))

    def pooled(self, key) -> float:
        vals = [a[key] for a in self.accuracy if a and key in a]
        return math.sqrt(sum(v * v for v in vals) / len(vals)) if vals else 0.0


def run_untraced(p: Pass, t_start, seconds) -> dict:
    """Replays round-robin after the first pass while the next replay,
    at its dataset's median so far, and the reference kernel after it
    still end within `seconds` of `t_start`."""
    n = len(p.dirs)
    while True:
        k = n % len(p.dirs)
        expect = statistics.median(p.walls[k]) if p.walls[k] else 0.0
        if (time.perf_counter() - t_start + (1 + p.ref_share) * expect
                > seconds):
            break
        p.replay(k)
        n += 1
    return {
        "rtf_ref": p.rtf_ref(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "imu_rmse_acc": p.pooled("imu_rmse_acc"),
        "imu_rmse_gyro": p.pooled("imu_rmse_gyro"),
    }


def run_traced(p: Pass, timings, spans_path) -> dict:
    """One traced pass after the untraced first pass, over the same
    datasets; its outputs must match the first pass's."""
    from tracer import Tracer, span_cost

    tracer = Tracer()
    with tracer.installed():
        for k in range(len(p.dirs)):
            p.replay(k, span=tracer.span, root=tracer.replay, traced=True)
    tracer.write_spans(spans_path)
    m = tracer.summary()
    c = tracer.counts
    done = [x for x in p.counters if x is not None]

    def total(attr):
        return sum(getattr(x, attr) for x in done)

    syncs = tracer.synchronizers
    m.update({
        "dataset.write_s": statistics.median(t["write_s"] for t in timings),
        "sim.simulate_s": statistics.median(t["simulate_s"] for t in timings),
        "sync.imu_groups": total("imu_groups"),
        "sync.lidar_groups": total("lidar_groups"),
        "sync.late": sum(s.counters.late for s in syncs),
        "sync.evictions": sum(s.counters.evictions for s in syncs),
        "sync.capacity_drops": sum(s.counters.capacity_drops for s in syncs),
        "mimu.fused_samples": total("fused_samples"),
        "mimu.subsets": c["mimu.subsets"],
        "preintegration.integrate_calls": c["preintegration.integrate_calls"],
        "lidar.icp_calls": c["lidar.icp_calls"],
        "lidar.icp_iterations": c["lidar.icp_iterations"],
        "lidar.icp_degenerate": total("icp_degenerate"),
        "lidar.icp_insufficient": total("icp_insufficient"),
        "lidar.icp_converged_ratio": (
            c["lidar.icp_converged"] / c["lidar.icp_calls"]
            if c["lidar.icp_calls"] else 0.0
        ),
        "submap.knn_queries": c["submap.knn_queries"],
        "submap.normals_requested": c["submap.normals_requested"],
        "submap.points_final": sum(tracer.map_sizes.values()),
        "graph.lm_iterations": c["graph.lm_iterations"],
        "graph.marginalizations": c["graph.marginalizations"],
        "graph.gnss_added": total("gnss_added"),
        "graph.gnss_rejected": total("gnss_rejected"),
        "pipeline.keyframes": total("keyframes"),
        "evaluation.s": p.check_s,
        "evaluation.rpe_m": p.pooled("rpe_m"),
        "evaluation.ape_m": p.pooled("ape_m"),
        "trace.rtf": m["trace.wall_s"] / sum(p.data_s),
        "bench.rtf": p.rtf(),
        "bench.ref_s": statistics.median(p.bracket.samples),
        # the wrappers' share of the traced wall time: spans times the
        # measured cost of wrapping one call
        "trace.overhead": (len(tracer.spans) * span_cost() / m["trace.wall_s"]
                           if m["trace.wall_s"] else 0.0),
    })
    return m


def environment(args, wl, data_s) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "dataset_seeds": [wl.dataset_seed(args.seed, k)
                          for k in range(wl.datasets)],
        "sensor_s": sum(data_s),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long variants for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind as on an exception, so the set-up worker is
    # killed and waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "mlio" / "__init__.py").is_file():
        print(f"error: no mlio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mlio

    if Path(mlio.__file__).resolve().parent != SRC / "mlio":
        print(f"error: mlio imported from {mlio.__file__}", file=sys.stderr)
        return 2
    from reference import NOMINAL_S
    from workloads import TINY, WORKLOADS

    wl = (TINY if args.size == "tiny" else WORKLOADS).get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    try:
        dirs, timings = set_up_all(wl, args.size, args.seed, work)
        data_s = [t["data_s"] for t in timings[:wl.datasets]]
        # a traced run reports no reference-scaled figure, so it runs the
        # kernel only once per replay, for bench.ref_s
        p = Pass(wl, dirs, data_s, work, 0.0 if args.trace else REF_SHARE)
        t_start = time.perf_counter()
        for k in range(wl.datasets):
            p.replay(k)
        if p.failed == p.attempted:
            print("error: every replay failed", file=sys.stderr)
            return 1
        if args.trace:
            metrics = run_traced(p, timings, records / f"{tag}.spans.jsonl")
            units = metric_units("per_layer")
        else:
            metrics = run_untraced(p, t_start, args.seconds)
            # set-up time in seconds of the nominal machine
            metrics["setup_s"] = NOMINAL_S * statistics.median(
                t["setup_ref"] for t in timings
            )
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args, wl, data_s)
    # printed figures that are not bounded metrics (see README.md): the
    # wall-clock real-time factor and trajectory error spread too widely
    # across runs, and the failure share is the result's failed/attempted
    extra = {"rtf": (p.rtf(), "s/s"),
             "fail_frac": (p.failed / p.attempted, "1")}
    if wl.kind == "estimator":
        extra["rpe_m"] = (p.pooled("rpe_m"), "m")
        extra["ape_m"] = (p.pooled("ape_m"), "m")
    print(f"env {json.dumps(env)}")
    for name in sorted(units):
        print(f"{name:<34} {metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name:<34} {value:.6g} {unit}")
    result = {
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    with open(records / f"{tag}.json", "w") as fh:
        json.dump({
            "env": env, "result": result, "replays_s": p.walls,
            "replays_in_ref": p.in_ref, "reference_s": p.bracket.samples,
            "setups": timings,
            "accuracy": p.accuracy,
            "counters": [c and dataclasses.asdict(c) for c in p.counters],
        }, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
