#!/usr/bin/env python3
"""Fast self-test of the replay benchmark (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

Runs the tiny variant of every workload untraced and traced, and checks
that every metric BENCHMARK.json names is emitted with its unit, that
the traced layers' self times add up to the traced wall time, and that
the benchmark fails without a result when the sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_result(result, spec_metrics, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{label}: not correct ({result.get('failed')} failed)")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want.get(name):
            problems.append(f"{label}: {name} unit {m.get('unit')!r}")
        if not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} value {m.get('value')!r}")
    return problems


def check_split(metrics, label):
    """Layer self times (including the benchmark's glue) partition the
    traced wall time; the named layers explain at least 90% of it."""
    wall = metrics["trace.wall_s"]["value"]
    split = sum(m["value"] for n, m in metrics.items()
                if n.startswith("split."))
    problems = []
    if not math.isclose(split, wall, rel_tol=1e-6, abs_tol=1e-9):
        problems.append(f"{label}: layer self times {split} != wall {wall}")
    if metrics["trace.coverage"]["value"] < 0.9:
        problems.append(f"{label}: coverage {metrics['trace.coverage']}")
    return problems


def check_bare():
    """Without src/ the benchmark must exit non-zero and print no result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "fuse-imu-I4", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            label = f"{wl['name']} trace {trace}"
            proc = run(["--workload", wl["name"], "--seed", "7",
                        "--seconds", "1", "--trace", str(trace),
                        "--size", "tiny"])
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = last_json(proc.stdout)
            metrics = spec["per_layer"] if trace else spec["end_to_end"]
            problems += check_result(result, metrics, label)
            if trace and "trace.wall_s" in result["metrics"]:
                problems += check_split(result["metrics"], label)
            print(f"{label}: {len(result['metrics'])} metrics", flush=True)
    problems += check_bare()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
