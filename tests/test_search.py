import math

import numpy as np
import pytest

from motiongraph.audio import EndpointFeature, SegmentList
from motiongraph.errors import SegmentUnreachableError, ValidationError
from motiongraph.graph import GraphEdge, GraphNode, Thresholds, VideoMotionGraph
from motiongraph.search import (
    BeamConfig,
    PathCandidate,
    beam_search,
    duration_bounds,
    expand_segment,
    in_duration_window,
    recompute_costs,
    resample_segment,
)

from oracles import enumerate_paths, optimum


def toy_graph(n, synthetic=(), onsets=(), keywords=None):
    """Natural chain of n nodes plus synthetic edges (src, dst, d_feat, d_img)."""
    keywords = keywords or {}
    nodes = [GraphNode(i, i in onsets, keywords.get(i, "")) for i in range(n)]
    edges = [GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(n - 1)]
    for src, dst, d_feat, d_img in synthetic:
        edges.append(GraphEdge(src, dst, "synthetic", d_feat, d_img))
    return VideoMotionGraph(nodes, edges, Thresholds(1.0, 1.0, 4))


def segment_list(n_frames, marks):
    """marks: list of (endpoint, EndpointFeature) for interior endpoints."""
    endpoints = [1] + [m for m, _ in marks] + [n_frames]
    features = (
        [EndpointFeature("end")]
        + [f for _, f in marks]
        + [EndpointFeature("end")]
    )
    return SegmentList(n_frames=n_frames, endpoints=tuple(endpoints), features=tuple(features))


def random_toy(rng, max_nodes=15):
    n = int(rng.integers(6, max_nodes + 1))
    onsets = set(int(i) for i in rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
    keywords = {}
    if rng.random() < 0.5:
        keywords[int(rng.integers(0, n))] = "hello"
    synthetic = []
    tries = int(rng.integers(3, 9))
    seen = set()
    for _ in range(tries):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if abs(a - b) < 2 or (a, b) in seen:
            continue
        seen.add((a, b))
        synthetic.append((a, b, float(rng.uniform(0.01, 0.4)), float(rng.uniform(0.01, 0.4))))
    graph = toy_graph(n, synthetic, onsets, keywords)

    n_segments = int(rng.integers(1, 4))
    lengths = [int(rng.integers(2, 7)) for _ in range(n_segments)]
    marks = []
    pos = 1
    for length in lengths[:-1]:
        pos += length
        if rng.random() < 0.5 and keywords:
            marks.append((pos, EndpointFeature("keyword", "hello")))
        else:
            marks.append((pos, EndpointFeature("onset")))
    n_frames = pos + lengths[-1]
    segments = segment_list(n_frames, marks)
    return graph, segments


class TestDurationWindow:
    def test_documented_boundaries(self):
        lo, hi = duration_bounds(100, 0.9, 1.1)
        assert (lo, hi) == (90, 110)
        assert not in_duration_window(89, 100, (0.9, 1.1))
        assert in_duration_window(90, 100, (0.9, 1.1))

    @pytest.mark.parametrize(
        "low, high, target",
        [pytest.param(0.9, 1.1, t, id=str(t)) for t in (10, 100, 333)]
        + [
            pytest.param(low, high, t, id=f"{low}-{high}-{t}")
            for low, high in ((1.0, 1.0), (0.5, 2.0), (0.97, 1.03), (0.9, 1.1))
            for t in (1, 2, 3, 7)
        ],
    )
    def test_ratio_rule(self, low, high, target):
        lo, hi = duration_bounds(target, low, high)
        assert lo / target >= low
        assert (lo - 1) / target < low
        assert hi / target <= high
        assert (hi + 1) / target > high
        # Every window holds 1, so the target length itself is always accepted.
        assert lo <= target <= hi

    def test_exact_boundary_ratios_accepted(self):
        # 9/10 == 0.9 exactly; floor/ceil of 0.9*10 in floats would misfire.
        assert in_duration_window(9, 10, (0.9, 1.1))
        assert in_duration_window(11, 10, (0.9, 1.1))
        assert duration_bounds(10, 0.9, 1.1) == (9, 11)


class TestExpandSegment:
    def test_natural_chain_end_feature(self):
        graph = toy_graph(30)
        start = PathCandidate((0,), 0.0, 0.0, (0,))
        out = expand_segment(graph, [start], EndpointFeature("end"), 10, BeamConfig(beam_width=1))
        best = min(out, key=lambda c: c.total_cost())
        assert best.transition_cost == 0.0
        assert best.duration_cost == 0.0
        assert best.durations == (10,)
        assert best.node_sequence == tuple(range(11))

    def test_duration_cost_increment(self):
        graph = toy_graph(120)
        start = PathCandidate((0,), 0.0, 0.0, (0,))
        out = expand_segment(graph, [start], EndpointFeature("end"), 100, BeamConfig())
        by_len = {c.durations[0]: c for c in out}
        assert by_len[95].duration_cost == abs(1.0 - 95 / 100)
        assert by_len[100].duration_cost == 0.0
        assert 89 not in by_len
        assert 90 in by_len and 110 in by_len and 111 not in by_len

    def test_onset_terminal_matching(self):
        graph = toy_graph(20, onsets={10})
        start = PathCandidate((0,), 0.0, 0.0, (0,))
        out = expand_segment(graph, [start], EndpointFeature("onset"), 10, BeamConfig())
        assert {c.node_sequence[-1] for c in out} == {10}

    def test_onset_nodes_blocked_mid_segment(self):
        # Onset at node 5 blocks the only walk to the terminal at node 10.
        graph = toy_graph(20, onsets={5, 10})
        start = PathCandidate((0,), 0.0, 0.0, (0,))
        with pytest.raises(SegmentUnreachableError):
            expand_segment(graph, [start], EndpointFeature("onset"), 10,
                           BeamConfig(duration_window=(1.0, 1.0)))
        out = expand_segment(
            graph,
            [start],
            EndpointFeature("onset"),
            10,
            BeamConfig(duration_window=(1.0, 1.0), avoid_onsets_mid_segment=False),
        )
        assert len(out) == 1

    def test_start_node_exempt_from_onset_rule(self):
        graph = toy_graph(20, onsets={0, 10})
        start = PathCandidate((0,), 0.0, 0.0, (0,))
        out = expand_segment(graph, [start], EndpointFeature("onset"), 10,
                             BeamConfig(duration_window=(1.0, 1.0)))
        assert out[0].node_sequence == tuple(range(11))

    def test_unreachable_names_segment(self):
        graph = toy_graph(20)
        start = PathCandidate((0,), 0.0, 0.0, (0,))
        with pytest.raises(SegmentUnreachableError) as err:
            expand_segment(
                graph, [start], EndpointFeature("keyword", "two"), 5, BeamConfig(), segment_index=3
            )
        assert err.value.segment == 3

    def test_keep_limit_is_prefix_of_sorted_unlimited(self):
        def beam_key(c):
            return (c.total_cost(), c.node_sequence[-1], c.node_sequence)

        graph = toy_graph(
            40, synthetic=[(3, 20, 0.05, 0.05), (21, 5, 0.05, 0.05), (12, 30, 0.1, 0.0)]
        )
        candidates = [
            PathCandidate((7, 0), 0.2, 0.0, (0, 1)),
            PathCandidate((12, 10), 0.2, 0.0, (0, 1)),
            PathCandidate((3, 0), 0.2, 0.0, (0, 1)),
            # same node sequence and total as the first, different split
            PathCandidate((7, 0), 0.1, 0.1, (0, 1)),
            PathCandidate((25, 26), 0.0, 0.15, (0, 1)),
        ]
        feature = EndpointFeature("end")
        full = expand_segment(graph, candidates, feature, 10, BeamConfig())
        ranked = sorted(full, key=beam_key)
        keys = [beam_key(c) for c in ranked]
        # the toy must put ties on every part of the key at some cut
        assert any(a[:2] == b[:2] and a[2] != b[2] for a, b in zip(keys, keys[1:]))
        assert any(a[0] == b[0] and a[1] != b[1] for a, b in zip(keys, keys[1:]))
        assert any(a == b and x != y for a, b, x, y in zip(keys, keys[1:], ranked, ranked[1:]))
        for keep in range(1, len(full) + 2):
            limited = expand_segment(graph, candidates, feature, 10, BeamConfig(), keep=keep)
            assert limited == ranked[:keep], keep

    def test_keep_is_prefix_of_sorted_unlimited_on_random_toys(self):
        # Binary-fraction costs sum exactly, so totals tie across starts,
        # lengths and candidates; several candidates share each start.
        def beam_key(c):
            return (c.total_cost(), c.node_sequence[-1], c.node_sequence)

        rng = np.random.default_rng(2024)
        grid = [0.0, 0.0625, 0.125, 0.25]
        tied_cuts = 0
        for _ in range(40):
            n = int(rng.integers(8, 16))
            synthetic = {}
            for _ in range(int(rng.integers(3, 12))):
                a, b = (int(v) for v in rng.integers(0, n, size=2))
                if abs(a - b) >= 2:
                    synthetic[a, b] = (float(rng.choice(grid)), float(rng.choice(grid)))
            onsets = set(int(i) for i in rng.choice(n, size=3, replace=False))
            graph = toy_graph(n, [(*k, *v) for k, v in synthetic.items()], onsets)
            candidates = [
                PathCandidate((i, int(start)), float(rng.choice(grid)), float(rng.choice(grid)),
                              (0, 1))
                for start in rng.choice(n, size=3, replace=False)
                for i in range(int(rng.integers(1, 5)))
            ]
            feature = EndpointFeature(str(rng.choice(["end", "onset"])))
            length = int(rng.integers(2, 7))
            try:
                full = expand_segment(graph, candidates, feature, length, BeamConfig())
            except SegmentUnreachableError:
                continue
            ranked = sorted(full, key=beam_key)
            keys = [beam_key(c)[:2] for c in ranked]
            tied_cuts += sum(a == b for a, b in zip(keys, keys[1:]))
            for keep in range(1, len(full) + 2):
                limited = expand_segment(graph, candidates, feature, length, BeamConfig(),
                                         keep=keep)
                assert limited == ranked[:keep], keep
        assert tied_cuts > 0

    def test_unlimited_expansion_is_in_beam_order(self):
        def beam_key(c):
            return (c.total_cost(), c.node_sequence[-1], c.node_sequence)

        # Generated by start node, then length: start 2 before start 5, and
        # length 9 before 10. The cheaper start is 5 and the exact length 10.
        graph = toy_graph(30, synthetic=[(4, 20, 0.125, 0.0)])
        candidates = [
            PathCandidate((9, 2), 0.5, 0.0, (0, 1)),
            PathCandidate((9, 5), 0.0, 0.0, (0, 1)),
        ]
        feature = EndpointFeature("end")
        full = expand_segment(graph, candidates, feature, 10, BeamConfig())
        assert full == sorted(full, key=beam_key)
        assert [(c.node_sequence[1], c.durations[-1]) for c in full[:4]] == [
            (5, 10), (5, 9), (5, 11), (2, 10)
        ]
        for keep in range(len(full), len(full) + 3):
            assert expand_segment(graph, candidates, feature, 10, BeamConfig(), keep=keep) == full

    def test_synthetic_edge_cost_accumulates(self):
        graph = toy_graph(12, synthetic=[(3, 8, 0.25, 0.25)])
        start = PathCandidate((0,), 0.0, 0.0, (0,))
        out = expand_segment(
            graph, [start], EndpointFeature("end"), 7,
            BeamConfig(duration_window=(1.0, 1.0)),
        )
        costs = {c.node_sequence[-1]: c.transition_cost for c in out}
        assert costs[7] == 0.0  # natural walk 0..7
        # 0..3 naturally, jump 3->8 paying d_feat+d_img, then 8..11: 7 steps
        assert costs[11] == 0.25 + 0.25


class TestBeamSearch:
    def test_default_beam_width_is_20(self):
        assert BeamConfig().beam_width == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_weight": math.nan},
            {"duration_weight": math.inf},
            {"duration_weight": -1.0},
            {"duration_window": (0.9, math.inf)},
            {"duration_window": (math.nan, 1.1)},
        ],
    )
    def test_non_finite_weights_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            BeamConfig(**kwargs)

    def test_no_dedup_option(self):
        with pytest.raises(TypeError):
            BeamConfig(dedup=True)

    def test_matches_exhaustive_oracle_on_random_toys(self):
        rng = np.random.default_rng(1234)
        feasible_checked = 0
        infeasible_checked = 0
        while feasible_checked < 25 or infeasible_checked < 3:
            graph, segments = random_toy(rng)
            config = BeamConfig(beam_width=len(graph))
            paths, stage_counts = enumerate_paths(
                graph, segments, config, starts=range(len(graph))
            )
            if not paths:
                infeasible_checked += 1
                with pytest.raises(SegmentUnreachableError):
                    beam_search(graph, segments, config, seed=0)
                continue
            width = max(max(stage_counts), len(graph))
            result = beam_search(
                graph, segments, BeamConfig(beam_width=width), seed=0
            )
            feasible_checked += 1
            assert result.best.total_cost() == optimum(paths)

    def test_seed_determinism(self):
        graph = toy_graph(14, synthetic=[(2, 9, 0.1, 0.1), (9, 3, 0.2, 0.1)], onsets={6, 11})
        segments = segment_list(13, [(7, EndpointFeature("onset"))])
        a = beam_search(graph, segments, BeamConfig(beam_width=4), seed=99)
        b = beam_search(graph, segments, BeamConfig(beam_width=4), seed=99)
        assert a == b

    def test_pinned_start(self):
        graph = toy_graph(20, onsets={10})
        segments = segment_list(12, [(11, EndpointFeature("onset"))])
        result = beam_search(graph, segments, BeamConfig(), seed=0, start_frame=0)
        assert all(p.node_sequence[0] == 0 for p in result.paths)

    def test_missing_keyword_unreachable(self):
        graph = toy_graph(15, onsets={7})
        segments = segment_list(12, [(6, EndpointFeature("keyword", "absent"))])
        with pytest.raises(SegmentUnreachableError) as err:
            beam_search(graph, segments, BeamConfig(), seed=0)
        assert err.value.segment == 0

    def test_cost_soundness_recompute(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            graph, segments = random_toy(rng)
            config = BeamConfig(beam_width=8)
            try:
                result = beam_search(graph, segments, config, seed=3)
            except SegmentUnreachableError:
                continue
            for path in result.paths:
                t, d = recompute_costs(graph, path, segments.durations)
                assert t == pytest.approx(path.transition_cost, abs=1e-9)
                assert d == pytest.approx(path.duration_cost, abs=1e-9)

    def test_paths_are_valid_walks(self):
        graph = toy_graph(14, synthetic=[(2, 9, 0.1, 0.1), (10, 4, 0.05, 0.1)], onsets={8})
        segments = segment_list(13, [(8, EndpointFeature("onset"))])
        result = beam_search(graph, segments, BeamConfig(), seed=1)
        index = graph.edge_index()
        for p in result.paths:
            for a, b in zip(p.node_sequence, p.node_sequence[1:]):
                assert (a, b) in index

    def test_natural_edge_never_beats_synthetic_detour(self):
        # A synthetic detour of equal length adds strictly positive cost, so
        # the optimum found by the oracle-checked beam keeps natural edges.
        graph = toy_graph(12, synthetic=[(3, 5, 0.2, 0.1), (4, 2, 0.1, 0.1)])
        segments = segment_list(9, [])
        config = BeamConfig(beam_width=len(graph))
        paths, stage_counts = enumerate_paths(graph, segments, config, starts=range(12))
        result = beam_search(graph, segments, BeamConfig(beam_width=max(stage_counts)), seed=0)
        assert result.best.total_cost() == optimum(paths)
        assert result.best.transition_cost == 0.0

    def test_sorted_by_total_cost(self):
        graph = toy_graph(14, synthetic=[(2, 9, 0.3, 0.1), (9, 2, 0.1, 0.1)])
        segments = segment_list(10, [])
        result = beam_search(graph, segments, BeamConfig(beam_width=10), seed=0)
        costs = [p.total_cost() for p in result.paths]
        assert costs == sorted(costs)


class TestResample:
    def test_identity(self):
        run = list(range(100, 110))
        out = resample_segment(run, 10)
        assert out.speed_factor == 1.0
        assert [e.source_frame for e in out.entries] == run
        assert [e.position for e in out.entries] == list(range(10))

    def test_speed_up_110_to_100(self):
        run = list(range(110))
        out = resample_segment(run, 100)
        assert out.speed_factor == pytest.approx(1.1)
        assert len(out.entries) == 100
        assert out.entries[0].source_frame == run[0]
        assert out.entries[-1].source_frame == run[109]
        # positions follow i*(L'-1)/(L_s-1)
        for i, e in enumerate(out.entries):
            assert e.position == i * 109 / 99
            assert e.source_frame == run[math.floor(e.position + 0.5)]

    def test_slow_down_repeats_monotonically(self):
        run = list(range(90))
        out = resample_segment(run, 100)
        assert out.speed_factor == pytest.approx(0.9)
        sources = [e.source_frame for e in out.entries]
        assert len(sources) == 100
        assert sources == sorted(sources)
        assert len(set(sources)) < len(sources)  # some frames repeat

    def test_single_entry_emits_terminal(self):
        out = resample_segment([7, 8, 9], 1)
        assert [e.source_frame for e in out.entries] == [9]
