"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
even on success. Criteria 1 and 8 stash their emitted paths for the cost
soundness audit in criterion 9, so this module is meant to run in file order
(pytest's default).
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from motiongraph import cli
from motiongraph.audio import detect_onsets
from motiongraph.errors import SegmentUnreachableError
from motiongraph.fixtures import (
    FIXTURE_SAMPLE_RATE,
    make_fixture,
    puppet_sequence,
    puppet_skeleton,
)
from motiongraph.graph import build_graph, compute_thresholds, load_graph_file
from motiongraph.pose import (
    Joint,
    Skeleton,
    compute_joint_states,
    pose_distance,
)
from motiongraph.audio import EndpointFeature
from motiongraph.search import (
    BeamConfig,
    _SearchState,
    beam_search,
    duration_bounds,
    expand_segment,
    in_duration_window,
    load_search_result,
    recompute_costs,
)
from motiongraph.silhouette import (
    default_camera,
    image_distance,
    rasterize_sequence,
    rasterize_silhouette,
)
from motiongraph.assembly import make_blend_schedule

from oracles import assemblable, enumerate_paths, optimum
from test_search import random_toy, toy_graph

#: Cross-criterion artifacts (criterion 9 audits paths from 1 and 8).
STASH = {"oracle_runs": [], "e2e": None}


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number} PASS: {title}")

        return run

    return wrap


@criterion(1, "search equals the brute-force assemblable optimum on 400 random graphs in <5s")
def test_criterion_1_search_oracle_equivalence():
    # Toys of at most 20 nodes: the default width starts from every node.
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    feasible = infeasible = 0
    for graphs in range(1, 401):
        graph, segments = random_toy(rng, max_nodes=20)
        config = BeamConfig(blend_k=int(rng.integers(1, 3)))
        paths = enumerate_paths(graph, segments, config, starts=range(len(graph)))
        paths = assemblable(paths, graph, segments, config.blend_k)
        if not paths:
            with pytest.raises(SegmentUnreachableError):
                beam_search(graph, segments, config, seed=0)
            infeasible += 1
            continue
        result = beam_search(graph, segments, config, seed=0)
        assert result.best.total_cost() == optimum(paths), f"graph #{graphs} mismatch"
        kept = assemblable(result.paths, graph, segments, config.blend_k)
        assert len(kept) == len(result.paths), f"graph #{graphs}: a path does not assemble"
        STASH["oracle_runs"].append((graph, segments, result))
        feasible += 1
    assert feasible >= 100 and infeasible >= 100, (feasible, infeasible)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


@criterion(2, "thresholds match the external l=4 mean and the edge set survives a full recheck")
def test_criterion_2_threshold_reproduction():
    skeleton = puppet_skeleton()
    sequence = puppet_sequence(200)
    states = compute_joint_states(skeleton, sequence)
    camera = default_camera()
    masks = rasterize_sequence(skeleton, (s.positions for s in states), camera)
    thresholds = compute_thresholds(states, masks, offset_l=4)

    # Reference masks, drawn one frame at a time: never unpacked from ``masks``.
    refs = [rasterize_silhouette(skeleton, s.positions, camera) for s in states]

    n = len(states)
    feat_sum = 0.0
    img_sum = 0.0
    for m in range(n - 4):
        feat_sum += pose_distance(states[m], states[m + 4])
        img_sum += image_distance(refs[m], refs[m + 4])
    assert abs(thresholds.tau_feat - feat_sum / (n - 4)) <= 1e-9
    assert abs(thresholds.tau_img - img_sum / (n - 4)) <= 1e-9

    graph = build_graph(states, masks, [(False, "")] * n, thresholds)
    got = {(e.src, e.dst) for e in graph.edges if e.kind == "synthetic"}
    expected = set()
    for m in range(n):
        for k in range(n):
            if abs(m - k) < 2:
                continue
            if pose_distance(states[m], states[k]) > thresholds.tau_feat:
                continue
            if image_distance(refs[m], refs[k]) > thresholds.tau_img:
                continue
            expected.add((m, k))
    assert got == expected


@criterion(3, "image_distance equals exhaustive pixel counting on 1000 random 64x64 pairs")
def test_criterion_3_iou_correctness():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = rng.random((64, 64)) < rng.uniform(0.0, 0.9)
        b = rng.random((64, 64)) < rng.uniform(0.0, 0.9)
        inter = int(np.logical_and(a, b).sum())
        union = int(np.logical_or(a, b).sum())
        expected = 0.0 if union == 0 else 1.0 - inter / union
        d = image_distance(a, b)
        assert d == expected
        assert 0.0 <= d <= 1.0
        assert d == image_distance(b, a)
        if union:
            assert image_distance(a, a) == 0.0


@criterion(4, "projected sphere-capsule area within 2% of the analytic disk over 20 combos")
def test_criterion_4_rasterizer_sanity():
    camera = default_camera((256, 256), focal_length=300.0)
    combos = [
        (r, z)
        for r in (0.10, 0.15, 0.20, 0.25, 0.30)
        for z in (1.5, 2.0, 2.5, 3.0)
    ]
    assert len(combos) == 20
    for radius, depth in combos:
        skeleton = Skeleton(
            (
                Joint("root", None, (0.0, 0.0, 0.0), radius),
                Joint("ball", 0, (0.0, 0.0, 0.0), radius),
            )
        )
        positions = np.array([[0.0, 0.0, depth], [0.0, 0.0, depth]])
        mask = rasterize_silhouette(skeleton, positions, camera)
        analytic = math.pi * (camera.focal_length * radius / depth) ** 2
        assert abs(np.count_nonzero(mask) - analytic) <= 0.02 * analytic, (radius, depth)


@criterion(5, "blend schedules: exact alpha grid, bit-exact endpoints, 8 created frames at k=4")
def test_criterion_5_blend_schedule_contract():
    poses = puppet_sequence(900).frames
    for k in (1, 2, 4, 8):
        sched = make_blend_schedule(poses, 420, 111, k)
        assert sched.alphas == tuple(i / (2 * k) for i in range(2 * k + 1))
        first, last = sched.steps[0], sched.steps[-1]
        assert first.pose is poses[420 - k]
        assert last.pose is poses[111 + k]
        interior = [s for s in sched.steps if s.alpha > 0.0]
        assert len(interior) == 2 * k
        if k == 4:
            assert len(interior) == 8


@criterion(6, "duration window never leaks and boundary lengths follow the ratio rule")
def test_criterion_6_duration_window():
    for target in (10, 100, 333):
        lo, hi = duration_bounds(target, 0.9, 1.1)
        assert lo / target >= 0.9 and (lo - 1) / target < 0.9
        assert hi / target <= 1.1 and (hi + 1) / target > 1.1
        # the documented rule: acceptance on the ratio; floor(0.9L) is
        # accepted iff its ratio clears 0.9 (true for L=10, false for L=333)
        floor_len = math.floor(0.9 * target)
        assert in_duration_window(floor_len, target, (0.9, 1.1)) == (
            floor_len / target >= 0.9
        )
        ceil_len = math.ceil(0.9 * target)
        assert in_duration_window(ceil_len, target, (0.9, 1.1))

        # On a chain from node 0, a walk of length l ends at node l.
        graph = toy_graph(2 * target + 20)
        state = _SearchState(graph, BeamConfig())
        table = expand_segment(graph, state.seed([0]), EndpointFeature("end"), target,
                               BeamConfig(), _state=state)
        lengths = set(np.flatnonzero(np.isfinite(table.min(axis=0))).tolist())
        assert all(0.9 <= l / target <= 1.1 for l in lengths)
        assert lo in lengths and hi in lengths
        assert (lo - 1) not in lengths and (hi + 1) not in lengths


@criterion(7, "onset detector recovers metronomes exactly, stays silent on silence, scale-invariant")
def test_criterion_7_onset_detector():
    fps = 30.0
    sr = FIXTURE_SAMPLE_RATE
    burst = 0.9 * np.hanning(96) * np.where(np.arange(96) % 2 == 0, 1.0, -1.0)

    silence = detect_onsets(np.zeros(sr * 5), sr, fps)
    assert not silence.any()

    for rate in (1, 2, 4):
        duration = 5.0
        times = np.arange(0.5, duration - 0.3, 1.0 / rate)
        samples = np.zeros(int(duration * sr))
        for t in times:
            at = int(round(t * sr))
            samples[at : at + burst.size] += burst
        flags = detect_onsets(samples, sr, fps)
        hits = np.flatnonzero(flags)
        assert len(hits) == len(times), f"{rate}/s: {len(hits)} vs {len(times)}"
        for t in times:
            assert np.min(np.abs(hits - t * fps)) <= 1.0 + 1e-9, f"{rate}/s at {t}s"
        for c in (0.1, 10.0):
            scaled = detect_onsets(samples * c, sr, fps)
            assert np.array_equal(scaled, flags)


@criterion(8, "end-to-end run with --seed 7 is byte-identical and finishes within 60s")
def test_criterion_8_end_to_end_determinism(tmp_path_factory):
    fixture_dir = tmp_path_factory.mktemp("acceptance_fixture")
    files = make_fixture(fixture_dir, reference_frames=2000, target_frames=450)

    def run(out_dir):
        rc = cli.main(
            [
                "run",
                "--poses", str(files["poses"]),
                "--ref-wav", str(files["ref_wav"]),
                "--ref-transcript", str(files["ref_transcript"]),
                "--wav", str(files["target_wav"]),
                "--transcript", str(files["target_transcript"]),
                "--seed", "7",
                "--out-dir", str(out_dir),
            ]
        )
        assert rc == 0

    out_a = tmp_path_factory.mktemp("acceptance_run_a")
    start = time.perf_counter()
    run(out_a)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    out_b = tmp_path_factory.mktemp("acceptance_run_b")
    run(out_b)
    for name in ("graph.json", "path.json", "edl.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    STASH["e2e"] = out_a


@criterion(9, "recomputed path costs equal the reported costs bitwise (criteria 1 and 8 paths)")
def test_criterion_9_cost_soundness():
    audited = 0
    for graph, segments, result in STASH["oracle_runs"]:
        for path in result.paths:
            t, d = recompute_costs(graph, path, segments.durations)
            assert (t, d) == (path.transition_cost, path.duration_cost)
            audited += 1
    assert audited > 0, "criterion 1 must run first"

    e2e = STASH["e2e"]
    assert e2e is not None, "criterion 8 must run first"
    graph = load_graph_file(e2e / "graph.json")
    from motiongraph.audio import load_segments

    segments = load_segments(e2e / "target_segments.json")
    result = load_search_result(e2e / "path.json")
    for path in result.paths:
        t, d = recompute_costs(graph, path, segments.durations)
        assert (t, d) == (path.transition_cost, path.duration_cost)

    edl = json.loads((e2e / "edl.json").read_text())
    chosen = result.paths[edl["provenance"]["path_rank"]]
    assert recompute_costs(graph, chosen, segments.durations) == (
        chosen.transition_cost, chosen.duration_cost
    )
