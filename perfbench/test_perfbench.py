"""The benchmark's own tests.

    python3 -m pytest perfbench      # from the repository root; about two minutes

They are not part of the library's suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402

#: Counts that depend only on the inputs, so two traced runs of one seed must agree exactly.
EXACT_COUNTS = (
    "pose.distance_calls",
    "kernels.walk_dp_calls",
    "search.expanded",
    "graph.synthetic_edges",
    "assembly.attempts",
    "assembly.blend_schedules",
)


def _run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def test_self_time_subtracts_children_and_prelude_is_added_once():
    spans = [
        ["bench.op", 0.0, 10.0, None, 0],
        ["search.beam_search", 1.0, 9.0, 0, 0],
        ["kernels.walk_distances", 2.0, 5.0, 1, 0],
        ["bench.op", 10.0, 14.0, None, 1],
        ["search.beam_search", 10.0, 14.0, 3, 1],
        ["graph.load_graph_file", -2.0, -1.0, None, tracing.PRELUDE],
    ]
    m = tracing.layer_metrics(spans, {0: {"search.expanded": 7}, 1: {"search.expanded": 3}}, n_ops=2)
    assert m["search.search_s"] == (6.0, "s")  # (8 + 4) / 2
    assert m["search.self_s"] == (4.5, "s")  # (8 - 3 + 4) / 2
    assert m["kernels.walk_dp_calls"] == (0.5, "count")
    assert m["self.bench_s"] == (1.0, "s")  # (10 - 8 + 4 - 4) / 2
    assert m["graph.load_s"] == (1.0, "s")  # prelude, once
    assert m["search.expanded"] == (5.0, "count")


def test_graph_digest_ignores_edge_order():
    from motiongraph.graph import GraphEdge, GraphNode, Thresholds, VideoMotionGraph

    nodes = [GraphNode(i, False, "") for i in range(4)]
    edges = [GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(3)]
    edges += [GraphEdge(0, 2, "synthetic", 0.1, 0.2), GraphEdge(2, 0, "synthetic", 0.1, 0.2)]
    a = VideoMotionGraph(nodes, edges, Thresholds(1.0, 1.0, 4))
    b = VideoMotionGraph(nodes, list(reversed(edges)), Thresholds(1.0, 1.0, 4))
    assert checks.graph_digest(a) == checks.graph_digest(b)
    c = VideoMotionGraph(nodes, edges[:-1] + [GraphEdge(2, 0, "synthetic", 0.1, 0.25)], Thresholds(1.0, 1.0, 4))
    assert checks.graph_digest(a) != checks.graph_digest(c)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", "synth", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_counts_and_digests_repeat_across_traced_runs():
    """cli_run covers every layer: build, search, assembly and the CLI itself."""
    (BENCH_DIR / "_work" / "digests" / "cli_run-s3.json").unlink(missing_ok=True)
    reports = []
    for _ in range(2):
        proc = _run("--workload", "cli_run", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = reports
    assert first["correct"] and second["correct"]  # the second run re-checks the first's digests
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["pose.distance_calls"]["value"] > 0
    assert first["metrics"]["search.expanded"]["value"] > 0
