#!/usr/bin/env python3
"""Time the hot kernels on representative workloads.

Prints the best-of-3 wall time of each kernel. The reference entries run
the bundled fixture's 2000-frame puppet reference through the rasterizer
and the graph build's exact d_feat filter, over the pairs its pre-gate
passes at the calibrated threshold. The walk entries time a
search-like load: the edge layout a search builds once from the graph's
transitions (one stable sort of both edges of each), then one 45-step
relaxation over (blend state, node) at k=4, seeded at 20 start nodes, on a
2000-node graph with the bundled fixture's edge density (distinct random
transitions (m, n), as a graph holds them), accepting the
lengths a 41-frame segment's duration window accepts (37..45), and the
traceback's replay of its 45 step tables. The gating entries time the graph build's d_feat
pre-gate over all frame pairs of a 4000-frame puppet reference, and also
print the traced peak memory (tracemalloc) of one gating call. The
2000-frame gating entries time it on the fixture's reference: warm, and
cold, as the first call in each of 5 fresh processes that first parse the
pose track, then run FK, the rasterizer and the threshold calibration as
`motiongraph run` does (median and max printed). The graph
file entries save and load the walk entries' 2000-node graph, and print
the file size (MiB) and the traced peak of one save plus one load; the
file-writer entries time and trace one write of that graph to a file. A
graph file is a JSON header line, then each column's raw bytes (32 per
transition, which is two edges). The 10k-node graph-file entries write a
graph of 10,000 nodes and about 2.57M edges (random transitions, random
distances) to a file and load it back, and print the file size (MiB) and
the traced peak of one write and of one load. The
FK entry computes the joint states of the fixture's 2000 reference
frames. The onset entries run onset detection on 2000 frames of 48 kHz clicks. The
search entries run one default search (20 starts, k=4) for a 300-frame
click target on the graph-file entries' edges, the nodes flagged as onsets
at the bundled fixture's reference clicks; its forward pass (one relaxation
per segment) and its traceback (replay and walk recovery) are also timed
apart, and the traced peak of the traceback alone is printed beside the
search's. The render entry runs the README's quick start (`motiongraph run
--seed 7` on the bundled fixture) once, untimed, and times
`render_frames` over its 449-frame EDL, the images the preview writes. On
that run's files the assembly entries time `assemble_edl` of its best path
into that EDL and `load_edl` of it, and `load_search_result` of its 20 paths,
each value checked by its type as it is built. The
edges-view entries time and trace one read of `graph.edges` (154,527
`GraphEdge` records) on that run's graph. The
pose-track entry times `load_pose_track` on that fixture's 2000-frame
reference, where every frame's arrays go through `errors.reals`.

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
import multiprocessing
import os
import platform
import statistics
import subprocess
import tempfile
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
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


#: Fresh processes that each time one cold gating call.
COLD_GATE_PROCESSES = 5


def _cold_gate_s(poses) -> float:
    """The wall time of the first ``_gate_pairs`` call in this process, after
    what ``motiongraph run`` does before it: parse the pose track, then FK,
    rasterize and calibrate the thresholds."""
    from motiongraph import graph, pose
    from motiongraph.silhouette import default_camera, rasterize_sequence

    skeleton, sequence = pose.load_pose_track(poses)
    states = pose.compute_joint_states(skeleton, sequence)
    masks = rasterize_sequence(skeleton, (s.positions for s in states), default_camera())
    tau_feat = graph.compute_thresholds(states, masks).tau_feat
    t0 = time.perf_counter()
    graph._gate_pairs(states, 1.0, tau_feat, graph.DEFAULT_MIN_JUMP)
    return time.perf_counter() - t0


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
    results["gate_2000f"] = (
        _time(lambda: graph._gate_pairs(ref_states, 1.0, tau_feat, graph.DEFAULT_MIN_JUMP)), "s"
    )
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
        # The assemble stage's own work on the run's files: rank 0 of its 20
        # paths assembled into the 449-frame EDL, and the reads of the EDL
        # and of the search result.
        result = search.load_search_result(out / "path.json")
        fixture_graph = graph.load_graph_file(out / "graph.json")
        segments = audio.load_segments(out / "target_segments.json")
        target = audio.load_features(out / "target_features.json")
        assert len(result.paths) == 20, len(result.paths)
        results["assemble_edl_449f"] = (_time(lambda: assembly.assemble_edl(
            result.paths[0], fixture_graph, segments, track.frames, k=result.config.blend_k,
            provenance=edl.provenance, speech_track=target)), "s")
        results["load_edl_449f"] = (_time(lambda: assembly.load_edl(out / "edl.json")), "s")
        results["load_search_result_20p"] = (
            _time(lambda: search.load_search_result(out / "path.json")), "s"
        )
        results["pose_track_load_2000_frames"] = (
            _time(lambda: pose.load_pose_track(inputs["poses"])), "s"
        )
        results["graph_edges_view_2000f"] = (_time(lambda: fixture_graph.edges), "s")
        results["graph_edges_view_traced_peak"] = (
            _traced_peak_mb(lambda: fixture_graph.edges), "MB"
        )
        cold = []
        for _ in range(COLD_GATE_PROCESSES):
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
                cold.append(pool.submit(_cold_gate_s, inputs["poses"]).result())
        results["gate_2000f_cold_median"] = (statistics.median(cold), "s")
        results["gate_2000f_cold_max"] = (max(cold), "s")
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
    # Distinct random transitions (m, n), n - m >= min_jump, with random
    # distances, each two synthetic edges, as a graph holds them.
    n = 2000
    ends = np.sort(rng.integers(0, n, size=(75000, 2)), axis=1)
    pairs = np.unique(ends[ends[:, 1] - ends[:, 0] >= graph.DEFAULT_MIN_JUMP], axis=0)
    distances = rng.uniform(0.0, 0.1, size=(2, len(pairs)))
    pair_m, pair_n = pairs.T.copy()  # rising (m, n), as a graph holds them

    def pair_graph(onset):
        return graph.VideoMotionGraph(
            onset, [""] * n, pair_m, pair_n, *distances,
            graph.Thresholds(0.1, 0.1, 4), 30.0, graph.DEFAULT_MIN_JUMP, 1.0,
        )

    motion_graph = pair_graph(np.zeros(n, dtype=bool))
    cost = motion_graph.d_feat + motion_graph.d_img
    allowed = np.ones(n, dtype=bool)
    allowed[rng.integers(0, n, size=60)] = False
    # The layout holds both synthetic edges of each pair; the natural chain costs 0.
    results["walk_layout_150k_edges"] = (
        _time(lambda: kernels.edge_layout(pair_m, pair_n, cost, n)), "s"
    )
    layout = kernels.edge_layout(pair_m, pair_n, cost, n)
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

    # Graph file: the same graph.
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

    # Graph file at 10k nodes: the natural chain plus about 1.3M distinct random
    # transitions (m, n), n - m >= min_jump, each two edges, built from the pairs.
    big_n, big_rng = 10000, np.random.default_rng(10)
    keys = np.unique(big_rng.integers(0, big_n * big_n, size=2_600_000))
    jump_m, jump_n = keys // big_n, keys % big_n
    keep = jump_n - jump_m >= graph.DEFAULT_MIN_JUMP
    big_graph = graph.VideoMotionGraph(
        np.zeros(big_n, dtype=bool), [""] * big_n, jump_m[keep], jump_n[keep],
        *big_rng.uniform(0.0, 0.1, size=(2, int(keep.sum()))),
        graph.Thresholds(0.1, 0.1, 4), 30.0, graph.DEFAULT_MIN_JUMP, 1.0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        results["graph_save_file_10k_nodes"] = (
            _time(lambda: graph.save_graph_file(big_graph, path)), "s"
        )
        results["graph_load_file_10k_nodes"] = (
            _time(lambda: graph.load_graph_file(path)), "s"
        )
        results["graph_file_10k_nodes"] = (path.stat().st_size / 2**20, "MB")
        results["graph_save_file_10k_traced_peak"] = (
            _traced_peak_mb(lambda: graph.save_graph_file(big_graph, path)), "MB"
        )
        results["graph_load_file_10k_traced_peak"] = (
            _traced_peak_mb(lambda: graph.load_graph_file(path)), "MB"
        )
    del big_graph

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
    flagged = pair_graph(np.isin(np.arange(n), onsets))
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
    results["search_traceback_traced_peak"] = (_traced_peak_mb(trace_back), "MB")
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
