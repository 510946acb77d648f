"""Spans and counters recorded from outside the library.

``install`` replaces each public function named in ``SPANS`` and
``COUNTERS`` with a wrapper, at the place where its caller looks the name
up: ``graph.py`` imports ``pose_distance`` by name, so the wrapper goes on
``motiongraph.graph.pose_distance``; ``cli.py`` calls ``graph.build_graph``
through the module, so the wrapper goes on ``motiongraph.graph``. Nothing
under ``src/`` changes.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out when the run ends. The layer of a span is the part of its name
before the first dot. ``layer_metrics`` turns spans and counters into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

PRELUDE = -1  # op index of one-off work in the timed process, before the first operation


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.op = PRELUDE
        self.recording = False
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def counter(self) -> Counter:
        counts = self.counts.get(self.op)
        if counts is None:
            counts = self.counts[self.op] = Counter()
        return counts

    def count(self, name: str, n: float = 1) -> None:
        if self.recording:
            self.counter()[name] += n

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def add_child_process(self, doc: dict) -> None:
        """Merge spans and counts written by a traced child process under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for name, start, end, par, _ in doc["spans"]:
            self.spans.append([name, start, end, parent if par is None else par + offset, self.op])
        self.counter().update(doc["counts"])

    def dump(self) -> dict:
        """Spans and counts of a process that ran no operations (a traced CLI child)."""
        return {"spans": self.spans, "counts": dict(self.counts.get(PRELUDE, {}))}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _observe_build(tracer, args, kwargs, result):
    synthetic = sum(1 for e in result.edges if e.kind == "synthetic")
    tracer.count("graph.synthetic_edges", synthetic)
    tracer.count("graph.kept_pairs", synthetic // 2)


def _observe_save_graph(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("graph.file_bytes", os.path.getsize(path))


def _observe_rasterize(tracer, args, kwargs, result):
    tracer.count("silhouette.frames", result.shape[0])


def _observe_expand(tracer, args, kwargs, result):
    from motiongraph.search import BeamConfig

    config = args[4] if len(args) > 4 else kwargs.get("config", BeamConfig())
    tracer.count("search.expanded", len(result))
    tracer.count("search.kept", min(len(result), config.beam_width))
    tracer.count("search.segments")


def _observe_assemble(tracer, args, kwargs, result):
    from motiongraph.assembly import TransitionEntry

    tracer.count("assembly.assembled")
    tracer.count(
        "assembly.blend_schedules",
        sum(1 for e in result.entries if isinstance(e, TransitionEntry)),
    )


def _observe_segments(tracer, args, kwargs, result):
    tracer.count("audio.segments", result.segment_count)


#: (module where the caller looks the name up, attribute, span name, observer)
SPANS = (
    ("motiongraph.pose", "load_pose_track", "pose.load_pose_track", None),
    ("motiongraph.pose", "compute_joint_states", "pose.compute_joint_states", None),
    ("motiongraph.pose", "forward_kinematics", "pose.forward_kinematics", None),
    ("motiongraph.assembly", "forward_kinematics", "pose.forward_kinematics", None),
    ("motiongraph.audio", "read_wav", "audio.read_wav", None),
    ("motiongraph.audio", "load_transcript", "audio.load_transcript", None),
    ("motiongraph.audio", "analyze_audio", "audio.analyze_audio", None),
    ("motiongraph.audio", "segment_target", "audio.segment_target", _observe_segments),
    ("motiongraph.audio", "save_features", "audio.save_features", None),
    ("motiongraph.audio", "load_features", "audio.load_features", None),
    ("motiongraph.audio", "save_segments", "audio.save_segments", None),
    ("motiongraph.audio", "load_segments", "audio.load_segments", None),
    ("motiongraph.silhouette", "rasterize_sequence", "silhouette.rasterize_sequence", _observe_rasterize),
    ("motiongraph.silhouette", "rasterize_silhouette", "silhouette.rasterize_silhouette", None),
    ("motiongraph.assembly", "rasterize_silhouette", "silhouette.rasterize_silhouette", None),
    ("motiongraph.kernels", "rasterize_capsules", "kernels.rasterize_capsules", None),
    ("motiongraph.kernels", "pack_masks", "kernels.pack_masks", None),
    ("motiongraph.kernels", "pair_intersections", "kernels.pair_intersections", None),
    ("motiongraph.kernels", "walk_distances", "kernels.walk_distances", None),
    ("motiongraph.graph", "compute_thresholds", "graph.compute_thresholds", None),
    ("motiongraph.graph", "build_graph", "graph.build_graph", _observe_build),
    ("motiongraph.graph", "save_graph_file", "graph.save_graph_file", _observe_save_graph),
    ("motiongraph.graph", "load_graph_file", "graph.load_graph_file", None),
    ("motiongraph.search", "beam_search", "search.beam_search", None),
    ("motiongraph.search", "expand_segment", "search.expand_segment", _observe_expand),
    ("motiongraph.search", "save_search_result", "search.save_search_result", None),
    ("motiongraph.search", "load_search_result", "search.load_search_result", None),
    ("motiongraph.assembly", "assemble_edl", "assembly.assemble_edl", _observe_assemble),
    ("motiongraph.assembly", "render_preview", "assembly.render_preview", None),
    ("motiongraph.assembly", "save_edl", "assembly.save_edl", None),
    ("motiongraph.assembly", "load_edl", "assembly.load_edl", None),
)

#: A hot per-pair function: counted, not timed (a span would cost more than
#: the call). Its time stays in the calling span's self time.
COUNTERS = (("motiongraph.graph", "pose_distance", "pose.distance_calls"),)


def _span_wrapper(tracer, fn, name, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if observe is not None:
            with tracer.span("trace.observe"):
                observe(tracer, args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.recording:
            counts = tracer.counter()
            counts[name] += 1
            counts[name + "@" + tracer.current()] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer):
    """Wrap every entry of SPANS and COUNTERS; returns a function that undoes it."""
    saved = []
    for module_name, attr, name, observe in SPANS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, _span_wrapper(tracer, fn, name, observe))
    for module_name, attr, name in COUNTERS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, _count_wrapper(tracer, fn, name))

    def uninstall():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return uninstall


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("pose", "audio", "silhouette", "kernels", "graph", "search", "assembly", "cli", "bench", "trace")


def _durations(spans):
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent, _), d in zip(spans, dur):
        if parent is not None:
            child[parent] += d
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans, counts, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Times and counts are per operation: the in-operation total divided by
    ``n_ops``, plus any one-off prelude total (the graph and pose load of
    the ``synth`` timed process). Ratios are ratios of totals.
    """
    dur, self_time = _durations(spans)

    def per_op(values_by_op):
        values_by_op = list(values_by_op)
        in_ops = sum(v for op, v in values_by_op if op != PRELUDE)
        prelude = sum(v for op, v in values_by_op if op == PRELUDE)
        return in_ops / n_ops + prelude

    def has_ancestor(i, names):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def inclusive(*names):
        """Time inside the outermost span of any of ``names``."""
        return per_op(
            (s[4], dur[i])
            for i, s in enumerate(spans)
            if s[0] in names and not has_ancestor(i, names)
        )

    def self_of(*names):
        return per_op((s[4], self_time[i]) for i, s in enumerate(spans) if s[0] in names)

    def calls(name, in_ops_only=False):
        return per_op((s[4], 1) for s in spans if s[0] == name and not (in_ops_only and s[4] == PRELUDE))

    def count(name):
        return per_op((op, c.get(name, 0)) for op, c in counts.items())

    def total(name):
        return sum(c.get(name, 0) for c in counts.values())

    def ratio(num, den):
        return num / den if den else 0.0

    raster_s = inclusive("silhouette.rasterize_sequence")
    m = {
        "pose.load_s": (inclusive("pose.load_pose_track"), "s"),
        "pose.fk_s": (inclusive("pose.compute_joint_states", "pose.forward_kinematics"), "s"),
        "pose.distance_calls": (count("pose.distance_calls"), "count"),
        "silhouette.rasterize_s": (raster_s, "s"),
        "silhouette.frames_per_s": (ratio(count("silhouette.frames"), raster_s), "frames/s"),
        "kernels.raster_s": (inclusive("kernels.rasterize_capsules"), "s"),
        "kernels.raster_calls": (calls("kernels.rasterize_capsules"), "count"),
        "kernels.pair_intersections_s": (inclusive("kernels.pair_intersections"), "s"),
        "graph.thresholds_s": (inclusive("graph.compute_thresholds"), "s"),
        "graph.build_self_s": (self_of("graph.build_graph"), "s"),
        "graph.save_s": (inclusive("graph.save_graph_file"), "s"),
        "graph.file_mb": (count("graph.file_bytes") / 2**20, "MB"),
        "graph.synthetic_edges": (count("graph.synthetic_edges"), "count"),
        "graph.edge_yield": (
            ratio(total("graph.kept_pairs"), total("pose.distance_calls@graph.build_graph")),
            "ratio",
        ),
        "graph.load_s": (inclusive("graph.load_graph_file"), "s"),
        "kernels.walk_dp_s": (inclusive("kernels.walk_distances"), "s"),
        "kernels.walk_dp_calls": (calls("kernels.walk_distances"), "count"),
        "search.search_s": (inclusive("search.beam_search"), "s"),
        "search.self_s": (self_of("search.beam_search", "search.expand_segment"), "s"),
        "search.expanded": (count("search.expanded"), "count"),
        "search.survivor_ratio": (ratio(total("search.kept"), total("search.expanded")), "ratio"),
        "search.segments": (count("search.segments"), "count"),
        "assembly.attempts": (calls("assembly.assemble_edl"), "count"),
        "assembly.assemblable_ratio": (
            ratio(total("assembly.assembled"), sum(1 for s in spans if s[0] == "assembly.assemble_edl")),
            "ratio",
        ),
        "assembly.blend_schedules": (count("assembly.blend_schedules"), "count"),
        "assembly.assemble_s": (inclusive("assembly.assemble_edl"), "s"),
        "assembly.render_s": (inclusive("assembly.render_preview", "assembly.render_frames"), "s"),
        "assembly.save_edl_s": (inclusive("assembly.save_edl"), "s"),
        "cli.graph_loads": (
            per_op(
                (s[4], 1)
                for i, s in enumerate(spans)
                if s[0] == "graph.load_graph_file" and has_ancestor(i, ("cli.main",))
            ),
            "count",
        ),
        "cli.self_s": (self_of("cli.main"), "s"),
        "audio.analyze_s": (inclusive("audio.analyze_audio"), "s"),
        "audio.segments": (count("audio.segments"), "count"),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (
            per_op((s[4], self_time[i]) for i, s in enumerate(spans) if s[0].split(".", 1)[0] == layer),
            "s",
        )
    return m
