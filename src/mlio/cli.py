"""Command-line entry point.

Subcommands wire the simulator, the estimation pipeline and the metric
suite into batch runs with reproducible outputs:

    mlio simulate --scenario urban-loop --out data/
    mlio run --dataset data/ --sensors L4I4G1 --out runs/a
    mlio eval --dataset data/ --est runs/a/est.tum --rpe-distance 10
    mlio allan --input data/imu_F_L.csv --axis fz
    mlio fuse-imu --dataset data/ --sensors I4 --out fused.csv

Exit codes: 0 success, 1 usage error, 2 data error, 3 estimator failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np
import yaml

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ESTIMATOR = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so usage errors
    map onto this tool's exit-code contract."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlio", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--scenario", default="urban-loop",
                   help="builtin scenario name or scenario YAML path")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")

    p = sub.add_parser("run", help="run the estimation pipeline")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--sensors", default="L4I4",
                   help="sensor mask, e.g. L4I4G1")
    p.add_argument("--config", default=None,
                   help="YAML file with pipeline parameter overrides")

    p = sub.add_parser("eval", help="trajectory metrics against ground truth")
    p.add_argument("--dataset", default=None,
                   help="dataset directory providing gt.tum")
    p.add_argument("--gt", default=None, help="ground-truth TUM file")
    p.add_argument("--est", nargs="+", required=True,
                   help="one or more estimated TUM files")
    p.add_argument("--rpe-distance", type=float, default=10.0,
                   help="RPE evaluation distance in meters")
    p.add_argument("--out", default=None,
                   help="directory for report and per-pair CSV files")

    p = sub.add_parser("allan", help="Allan deviation of an IMU log")
    p.add_argument("--input", required=True, help="imu CSV (t_ns + 6 axes)")
    p.add_argument("--axis", default="all",
                   choices=["fx", "fy", "fz", "wx", "wy", "wz", "all"])
    p.add_argument("--out", default=None, help="directory for (tau, adev) CSVs")

    p = sub.add_parser("fuse-imu", help="standalone MIMU fusion on a dataset")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--sensors", default="I4",
                   help="IMU count as I<n> (or a full L.I. mask)")
    p.add_argument("--out", required=True, help="fused-stream CSV path")

    return parser


# ---------------------------------------------------------------------------
# config overrides
# ---------------------------------------------------------------------------


def _apply_overrides(obj, doc: dict):
    """Rebuild a (possibly frozen) dataclass with leaf overrides from a
    nested mapping. An unknown key, and a value that does not fit its
    field, are errors that name the key: a section given a value, a
    value given a mapping, list or boolean, a fraction for an int field,
    or a value the field's type cannot take."""
    kwargs = {}
    for key, value in doc.items():
        if not any(f.name == key for f in dataclasses.fields(obj)):
            raise KeyError(f"unknown config key {key!r} for {type(obj).__name__}")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current) and isinstance(value, dict):
            kwargs[key] = _apply_overrides(current, value)
            continue
        try:
            if dataclasses.is_dataclass(current) or isinstance(value, (dict, list, bool)) or (
                    type(current) is int and value != int(value)):
                raise ValueError
            kwargs[key] = type(current)(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"config key {key!r} does not take {value!r}") from None
    return dataclasses.replace(obj, **kwargs)


def load_pipeline_config(path):
    from .pipeline import PipelineConfig
    from .sim import YAML_LOADER

    config = PipelineConfig()
    if path is None:
        return config
    with open(path) as fh:
        doc = yaml.load(fh, Loader=YAML_LOADER) or {}
    return _apply_overrides(config, doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .dataset import write_dataset
    from .sim import BUILTIN_SCENARIOS, load_scenario, simulate

    if args.scenario in BUILTIN_SCENARIOS:
        scenario = BUILTIN_SCENARIOS[args.scenario]()
    elif os.path.exists(args.scenario):
        scenario = load_scenario(args.scenario)
    else:
        raise FileNotFoundError(
            f"scenario {args.scenario!r} is neither a builtin "
            f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor a file"
        )
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    data = simulate(scenario)
    write_dataset(args.out, data)
    print(f"dataset written to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .dataset import load_dataset
    from .pipeline import parse_sensor_mask, run_pipeline, write_run_outputs

    mask = parse_sensor_mask(args.sensors)
    config = load_pipeline_config(args.config)
    dataset = load_dataset(args.dataset)
    result = run_pipeline(dataset, mask, config)
    write_run_outputs(args.out, result)
    print(f"{mask}: {result.counters.keyframes} keyframes -> {args.out}/est.tum")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evaluation import (
        Trajectory,
        evaluate,
        write_pair_csv,
        write_report,
    )

    if (args.dataset is None) == (args.gt is None):
        raise UsageError("eval needs exactly one of --dataset or --gt")
    if not 0 < args.rpe_distance < np.inf:
        raise UsageError(f"--rpe-distance {args.rpe_distance} is not a positive finite length")
    # a run's label, its directory name, names its row and output files
    labels = [os.path.basename(os.path.dirname(os.path.abspath(p))) or p for p in args.est]
    for label in labels:
        if labels.count(label) > 1:
            raise UsageError(f"two --est files share the directory name {label!r}")
    gt = Trajectory.from_tum(args.gt or os.path.join(args.dataset, "gt.tum"))
    rows = []
    for label, est_path in zip(labels, args.est):
        est = Trajectory.from_tum(est_path)
        rows.append((label, est, evaluate(gt, est, distance=args.rpe_distance)))
    header = (
        f"{'run':<16} {'RPE trans [m]':>14} {'RPE rot [deg]':>14} "
        f"{'APE':>10} {'pairs':>6}"
    )
    print(header)
    print("-" * len(header))
    for label, _, r in rows:
        print(
            f"{label:<16} {r.rpe_trans:>14.4f} {r.rpe_rot:>14.4f} "
            f"{r.ape:>10.4f} {r.pairs_evaluated:>6d}"
        )
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        for label, est, r in rows:
            write_report(
                os.path.join(args.out, f"report_{label}.txt"), r,
                distance=args.rpe_distance,
            )
            write_pair_csv(
                os.path.join(args.out, f"rpe_pairs_{label}.csv"),
                gt, est, distance=args.rpe_distance,
            )
    return EXIT_OK


AXIS_COLUMNS = {"fx": 1, "fy": 2, "fz": 3, "wx": 4, "wy": 5, "wz": 6}


def cmd_allan(args) -> int:
    from .allan import allan_variance

    rows = np.loadtxt(args.input, delimiter=",").reshape(-1, 7)
    if len(rows) < 3:
        raise ValueError(f"{args.input}: not enough samples")
    dt_ns = np.diff(rows[:, 0])
    rate_hz = 1e9 / float(np.median(dt_ns))
    axes = list(AXIS_COLUMNS) if args.axis == "all" else [args.axis]
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    print(f"{args.input}: rate {rate_hz:.1f} Hz")
    for axis in axes:
        res = allan_variance(rows[:, AXIS_COLUMNS[axis]], rate_hz)
        print(
            f"  {axis}: white-noise density N = {res.white_noise_density:.6e}"
            f" /sqrt(Hz), bias instability B = {res.bias_instability:.6e}"
        )
        if args.out is not None:
            np.savetxt(
                os.path.join(args.out, f"allan_{axis}.csv"),
                np.column_stack([res.tau, res.adev]),
                delimiter=",",
                header="tau_s,adev",
                comments="",
            )
    return EXIT_OK


def cmd_fuse_imu(args) -> int:
    import re

    from .dataset import load_dataset
    from .pipeline import (
        RunCounters,
        SensorMask,
        fuse_imu_groups,
        replay_sync,
        write_fused_imu,
    )
    from .sync import SyncConfig

    m = re.fullmatch(r"(?:L\dI(\d)(?:G\d)?|I(\d))", args.sensors.strip())
    if not m:
        raise UsageError(f"malformed --sensors {args.sensors!r} (expected e.g. I4)")
    n_imu = int(m.group(1) or m.group(2))
    mask = SensorMask(n_lidar=1, n_imu=n_imu)
    dataset = load_dataset(args.dataset)
    dataset = dataclasses.replace(dataset, lidar={})
    counters = RunCounters()
    imu_groups, _ = replay_sync(dataset, mask, SyncConfig(), counters)
    imus = {p: dataset.scenario.imus[p] for p in mask.imu_positions}
    fused = fuse_imu_groups(imu_groups, imus, counters)
    if not fused:
        raise ValueError("no fused samples produced (empty or unsynchronized IMU data)")
    write_fused_imu(args.out, fused)
    print(f"{len(fused)} fused samples from {counters.imu_groups} groups -> {args.out}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "run": cmd_run,
    "eval": cmd_eval,
    "allan": cmd_allan,
    "fuse-imu": cmd_fuse_imu,
}


def main(argv=None) -> int:
    from .allan import InsufficientDataError
    from .evaluation import AssociationError
    from .pipeline import EstimatorDivergence

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except EstimatorDivergence as e:
        print(f"estimator failure: {e}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except (
        FileNotFoundError,
        KeyError,
        ValueError,
        OSError,
        AssociationError,
        InsufficientDataError,
    ) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
