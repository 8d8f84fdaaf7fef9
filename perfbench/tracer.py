"""Spans and exact counts around mlio's public entry points.

The tracer wraps module functions and class methods for the length of a
traced pass and restores them afterwards; mlio itself is not changed.
Each span is (name, start, end, parent, run); spans of one replay share
a run id. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# layers whose self time counts as explained replay time; the span
# prefix names the layer, and "bench" is the benchmark's own glue
LAYERS = (
    "dataset", "sync", "mimu", "preintegration", "lidar", "submap", "graph",
    "pipeline",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.counts = Counter()
        self.map_sizes = {}  # run id -> len(submap) after its last update
        self.synchronizers = []
        self._stack = []
        self._run = 0

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def replay(self):
        """Root span of one replay; starts a new run id."""
        self._run += 1
        with self.span("bench.replay"):
            yield

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self._run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, on_return):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap mlio's entry points while the block runs."""
        from mlio import dataset, graph, lidar, mimu, pipeline, submap

        tracer = self

        class RecordedSynchronizer(pipeline.Synchronizer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.synchronizers.append(self)

        Map, Graph = submap.LocalSubmap, graph.FactorGraph
        table = [
            (dataset, "load_dataset", "dataset.load", None),
            (pipeline, "replay_sync", "sync.replay", None),
            (pipeline, "fuse_imu_groups", "mimu.fuse", None),
            (mimu.BatchFuser, "fuse", "mimu.batch", _tally("mimu.subsets")),
            (pipeline, "integrate", "preintegration.integrate",
             _tally("preintegration.integrate_calls")),
            (pipeline, "predict", "preintegration.predict", None),
            (pipeline, "deskew", "lidar.deskew", None),
            (pipeline, "voxel_downsample", "lidar.voxel", None),
            (lidar, "icp_register", "lidar.icp", _icp),
            (lidar, "map_update", "lidar.map_update", _map_size),
            (Map, "insert", "submap.insert", None),
            (Map, "crop_to_box", "submap.crop", None),
            (Map, "knn", "submap.knn", _knn),
            (Map, "plane_normals", "submap.normals", _normals),
            (Graph, "optimize", "graph.optimize", _optimize),
            (Graph, "marginalize_oldest", "graph.marginalize",
             _tally("graph.marginalizations")),
            (Graph, "maybe_add_gnss", "graph.gnss_gate", None),
            (pipeline, "graph_position_covariance", "graph.gnss_cov", None),
            (pipeline, "run_pipeline", "pipeline.run", None),
            (pipeline, "write_run_outputs", "pipeline.write", None),
        ]
        saved = [(pipeline, "Synchronizer", pipeline.Synchronizer)]
        pipeline.Synchronizer = RecordedSynchronizer
        try:
            for owner, attr, name, on_return in table:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, on_return))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # ------------------------------------------------------------------
    # derived figures

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c
                in zip(self.spans, child)]

    def summary(self) -> dict:
        """Span-derived per-layer times (s) and keyframe latencies."""
        total = defaultdict(float)
        own = defaultdict(float)
        split = defaultdict(float)
        optimize_ends = defaultdict(list)
        for (name, start, end, _, run), s in zip(self.spans, self.self_times()):
            total[name] += end - start
            own[name] += s
            split[name.split(".", 1)[0]] += s
            if name == "graph.optimize":
                optimize_ends[run].append(end)
        gaps = [b - a for ends in optimize_ends.values()
                for a, b in zip(ends, ends[1:])]
        p50, p90 = np.percentile(gaps, [50, 90]) if gaps else (0.0, 0.0)
        wall = total["bench.replay"]
        out = {
            "dataset.load_s": total["dataset.load"],
            "sync.replay_s": total["sync.replay"],
            "mimu.fuse_s": total["mimu.fuse"],
            "preintegration.integrate_s": total["preintegration.integrate"],
            "preintegration.predict_s": total["preintegration.predict"],
            "lidar.deskew_s": total["lidar.deskew"],
            "lidar.voxel_s": total["lidar.voxel"],
            "lidar.icp_self_s": own["lidar.icp"],
            "submap.crop_s": total["submap.crop"],
            "submap.insert_s": total["submap.insert"],
            "submap.knn_s": total["submap.knn"],
            "submap.normals_s": total["submap.normals"],
            "graph.optimize_s": total["graph.optimize"],
            "graph.marginalize_s": total["graph.marginalize"],
            "graph.gnss_cov_s": total["graph.gnss_cov"],
            "pipeline.self_s": own["pipeline.run"],
            "pipeline.keyframe_s.p50": float(p50),
            "pipeline.keyframe_s.p90": float(p90),
            "pipeline.write_s": total["pipeline.write"],
            "trace.wall_s": wall,
        }
        for layer in LAYERS + ("bench",):
            out[f"split.{layer}_s"] = split[layer]
        out["trace.coverage"] = (
            sum(split[layer] for layer in LAYERS) / wall if wall else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent, "run": run,
                }) + "\n")


def span_cost(calls: int = 20000, blocks: int = 5) -> float:
    """Seconds that wrapping adds to one call: `calls` calls of a wrapped
    no-op against as many bare ones, the least of `blocks` tries (noise
    only adds)."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe._wrap("probe", noop, None)
    best = math.inf
    for _ in range(blocks):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def _tally(key):
    def on_return(tracer, args, result):
        tracer.counts[key] += 1

    return on_return


def _icp(tracer, args, est):
    tracer.counts["lidar.icp_calls"] += 1
    tracer.counts["lidar.icp_iterations"] += est.iterations
    tracer.counts["lidar.icp_converged"] += int(est.converged)


def _map_size(tracer, args, result):
    tracer.map_sizes[tracer._run] = len(args[0])


def _knn(tracer, args, result):
    tracer.counts["submap.knn_queries"] += len(result[0])


def _normals(tracer, args, result):
    tracer.counts["submap.normals_requested"] += len(args[1])


def _optimize(tracer, args, report):
    tracer.counts["graph.lm_iterations"] += report.iterations
