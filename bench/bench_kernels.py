#!/usr/bin/env python3
"""Time the hot kernels on representative workloads.

Prints the best-of-3 wall time of each kernel. The reference entries run
the bundled fixture's 2000-frame puppet reference through the rasterizer
and the graph build's exact d_feat filter, over the pairs its pre-gate
passes at the calibrated threshold. The walk entries time a
search-like load: the edge layout a search builds once, then one 45-step
relaxation over (blend state, node) at k=4, seeded at 20 start nodes, on a
2000-node graph with the bundled fixture's edge density, accepting the
lengths a 41-frame segment's duration window accepts (37..45), and the
traceback's replay of its 45 step tables. The gating entry times the graph build's d_feat
pre-gate over all frame pairs of a 4000-frame puppet reference, and also
prints the traced peak memory (tracemalloc) of one gating call. The graph
file entries save and load a 2000-node graph with the walk entries' edges,
and print the traced peak of one save plus one load; the file-writer
entries time and trace one chunked write of that graph to a file. The
FK entry computes the joint states of the fixture's 2000 reference
frames. The onset entries run onset detection on 2000 frames of 48 kHz clicks. The
search entries run one default search (20 starts, k=4) for a 300-frame
click target on the graph-file entries' edges, the nodes flagged as onsets
at the bundled fixture's reference clicks; its forward pass (one relaxation
per segment) and its traceback (replay and walk recovery) are also timed
apart. The render entry runs the README's quick start (`motiongraph run
--seed 7` on the bundled fixture) once, untimed, and times
`render_frames` over its 449-frame EDL, the images the preview writes.

    python bench/bench_kernels.py                          # print a table
    python bench/bench_kernels.py --out BENCH_kernels.json  # also write JSON

The JSON file holds every result with its unit, the git commit of the
working tree (and whether it had uncommitted changes), and the Python,
numpy, platform and CPU count it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np


def _time(fn, repeats=3):
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_benchmarks():
    from motiongraph import audio, fixtures, graph, kernels, search
    from motiongraph.pose import compute_joint_states, pair_distances, pose_distance, state_rows
    from motiongraph.silhouette import default_camera, rasterize_sequence

    results = {}
    rng = np.random.default_rng(7)

    # Rasterization: 200 puppet frames at 256x256.
    skeleton = fixtures.puppet_skeleton()
    sequence = fixtures.puppet_sequence(200)
    states = compute_joint_states(skeleton, sequence)
    camera = default_camera()
    positions = [s.positions for s in states]
    results["rasterize_200f_256px"] = (
        _time(lambda: rasterize_sequence(skeleton, positions, camera)), "s"
    )

    # The fixture reference: 2000 frames rasterized, then the exact d_feat
    # of every pair the pre-gate passes at the calibrated threshold.
    ref_sequence = fixtures.puppet_sequence(2000)
    results["fk_2000f"] = (_time(lambda: compute_joint_states(skeleton, ref_sequence)), "s")
    ref_states = compute_joint_states(skeleton, ref_sequence)
    ref_positions = [s.positions for s in ref_states]
    results["rasterize_sequence_2000f"] = (
        _time(lambda: rasterize_sequence(skeleton, ref_positions, camera)), "s"
    )
    ref_masks = rasterize_sequence(skeleton, ref_positions, camera)
    tau_feat = graph.compute_thresholds(ref_states, ref_masks).tau_feat
    mm, nn = graph._gate_pairs(ref_states, 1.0, tau_feat, graph.DEFAULT_MIN_JUMP)
    results["exact_dfeat_filter"] = (
        _time(lambda: pair_distances(*state_rows(ref_states), mm, nn)), "s"
    )

    # The preview: every image of the quick start's EDL (seed 7), rendered
    # in memory.
    from motiongraph import assembly, cli, pose

    with tempfile.TemporaryDirectory() as tmp:
        inputs = fixtures.make_fixture(Path(tmp) / "in")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([
                "run", "--poses", str(inputs["poses"]), "--ref-wav", str(inputs["ref_wav"]),
                "--ref-transcript", str(inputs["ref_transcript"]),
                "--wav", str(inputs["target_wav"]),
                "--transcript", str(inputs["target_transcript"]),
                "--seed", "7", "--out-dir", str(out),
            ])
        edl = assembly.load_edl(out / "edl.json")
        track_skeleton, track = pose.load_pose_track(inputs["poses"])
    assert edl.total_frames == 449, edl.total_frames
    results["render_frames_449f"] = (
        _time(lambda: sum(1 for _ in assembly.render_frames(edl, track_skeleton, track.frames))),
        "s",
    )

    # Pairwise mask intersections: 20k random pairs of packed 256x256 masks.
    packed = rasterize_sequence(skeleton, positions, camera)
    pairs = rng.integers(0, packed.shape[0], size=(20000, 2))
    results["popcount_20k_pairs"] = (_time(lambda: kernels.pair_intersections(packed, pairs)), "s")

    # Pair gating: every pair of a 4000-frame reference against the mean
    # offset-4 pose distance, the threshold compute_thresholds calibrates.
    long_states = compute_joint_states(skeleton, fixtures.puppet_sequence(4000))
    offset = graph.DEFAULT_OFFSET_L
    tau = float(np.mean([
        pose_distance(a, b) for a, b in zip(long_states, long_states[offset:])
    ]))

    def gate():
        return graph._gate_pairs(long_states, 1.0, tau, graph.DEFAULT_MIN_JUMP)

    results["gate_4000f"] = (_time(gate), "s")
    results["gate_4000f_traced_peak"] = (_traced_peak_mb(gate), "MB")

    # Walk-cost relaxation: 2000 nodes, ~150k edges (the 2000-frame fixture
    # graph has 154k), 45 steps from 20 starts, as one search segment sees them.
    n = 2000
    nat_src = np.arange(n - 1)
    syn_src = rng.integers(0, n, size=150000)
    syn_dst = rng.integers(0, n, size=150000)
    keep = syn_dst != syn_src
    src = np.concatenate([nat_src, syn_src[keep]])
    dst = np.concatenate([nat_src + 1, syn_dst[keep]])
    cost = np.concatenate([np.zeros(n - 1), rng.uniform(0.01, 0.5, size=keep.sum())])
    synthetic = np.arange(src.size) >= n - 1
    allowed = np.ones(n, dtype=bool)
    allowed[rng.integers(0, n, size=60)] = False
    results["walk_layout_150k_edges"] = (
        _time(lambda: kernels.edge_layout(src, dst, cost, synthetic, n)), "s"
    )
    layout = kernels.edge_layout(src, dst, cost, synthetic, n)
    states = kernels.BlendStates(search.DEFAULT_BLEND_K)
    seed = np.full((states.size, n), np.inf)
    seed[states.anchor, rng.choice(n, size=20, replace=False)] = 0.0

    length_costs = {n: abs(1.0 - n / 41) for n in range(37, 46)}

    def dp():
        return kernels.walk_distances(layout, seed, allowed, length_costs, states)

    results["walk_dp_20starts_45steps"] = (_time(dp), "s")
    _, cuts = dp()
    results["walk_replay_45steps"] = (
        _time(lambda: kernels.replay_walk(layout, seed, allowed, states, cuts)), "s"
    )

    # Graph file: the same 2000 nodes and edges, less repeated pairs and
    # jumps shorter than min_jump, stored with random distances.
    pairs = np.unique(np.stack([src[n - 1:], dst[n - 1:]], axis=1), axis=0)
    pairs = pairs[np.abs(pairs[:, 0] - pairs[:, 1]) >= graph.DEFAULT_MIN_JUMP]
    edges = [graph.GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(n - 1)]
    edges += [
        graph.GraphEdge(m, k, "synthetic", *rng.uniform(0.0, 0.1, size=2).tolist())
        for m, k in pairs.tolist()
    ]
    nodes = [graph.GraphNode(i, False, "") for i in range(n)]
    motion_graph = graph.VideoMotionGraph(nodes, edges, graph.Thresholds(0.1, 0.1, 4))
    blob = graph.save_graph(motion_graph)
    results["graph_save_2000f"] = (_time(lambda: graph.save_graph(motion_graph)), "s")
    results["graph_load_2000f"] = (_time(lambda: graph.load_graph(blob)), "s")
    results["graph_file_2000f"] = (len(blob) / 2**20, "MB")
    results["graph_save_load_traced_peak"] = (
        _traced_peak_mb(lambda: graph.load_graph(graph.save_graph(motion_graph))), "MB"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        results["graph_save_file_2000f"] = (
            _time(lambda: graph.save_graph_file(motion_graph, path)), "s"
        )
        results["graph_save_file_traced_peak"] = (
            _traced_peak_mb(lambda: graph.save_graph_file(motion_graph, path)), "MB"
        )

    # Onset detection: 2000 video frames of 48 kHz audio, the reference clicks.
    onsets = fixtures.click_frames(n, fixtures.REFERENCE_GAPS)
    rate = fixtures.FIXTURE_SAMPLE_RATE
    clicks = fixtures.click_signal(n, onsets, sample_rate=rate)
    fps = fixtures.FIXTURE_FPS
    results["onsets_2000f"] = (_time(lambda: audio.detect_onsets(clicks, rate, fps)), "s")
    results["onsets_2000f_traced_peak"] = (
        _traced_peak_mb(lambda: audio.detect_onsets(clicks, rate, fps)), "MB"
    )

    # Search: one 300-frame click target (its onsets as segment endpoints)
    # on the graph-file entries' edges, its nodes flagged at the reference
    # clicks, seed 0, default beam.
    onset_set = set(onsets)
    flagged = graph.VideoMotionGraph(
        [graph.GraphNode(i, i in onset_set, "") for i in range(n)], edges,
        graph.Thresholds(0.1, 0.1, 4),
    )
    target_clicks = fixtures.click_frames(300, fixtures.TARGET_GAPS, first=40)
    track = audio.analyze_audio(
        fixtures.click_signal(300, target_clicks, sample_rate=rate), rate, fps
    )
    segments = audio.segment_target(track)

    config = search.BeamConfig()

    def search_once():
        return search.beam_search(flagged, segments, config, seed=0)

    def forward():
        state = search._SearchState(flagged, config)
        starts = search._starts(flagged, config, 0, None)
        return state, search._forward(flagged, segments, config, state, starts)

    state, tables = forward()
    cuts = list(state.cuts)

    def trace_back():
        # The traceback consumes the tables and cuts it is given: hand it copies.
        state.cuts = list(cuts)
        search._trace_back(state, list(tables), segments.durations, config)

    results["search_300f"] = (_time(search_once), "s")
    results["search_300f_forward"] = (_time(forward), "s")
    results["search_300f_traceback"] = (_time(trace_back), "s")
    results["search_traced_peak"] = (_traced_peak_mb(search_once), "MB")
    return results


def _environment():
    def git(*args):
        try:
            return subprocess.run(["git", *args], capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    return {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Time the hot kernels.")
    parser.add_argument("--out", type=Path, default=None, help="also write the results as JSON")
    args = parser.parse_args(argv)
    results = run_benchmarks()
    width = max(len(name) for name in results)
    for name, (value, unit) in results.items():
        print(f"{name:<{width}}  {value:>9.4f} {unit}")
    if args.out is not None:
        doc = {
            "environment": _environment(),
            "results": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in results.items()},
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
