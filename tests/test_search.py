import json
import math
import weakref

import numpy as np
import pytest

from motiongraph.audio import EndpointFeature, SegmentList
from motiongraph.errors import (
    GraphParseError,
    SegmentUnreachableError,
    StructuralError,
    ValidationError,
)
from motiongraph.graph import GraphEdge, GraphNode, Thresholds, VideoMotionGraph
from motiongraph.search import (
    BeamConfig,
    PathCandidate,
    _SearchState,
    beam_search,
    duration_bounds,
    expand_segment,
    load_search_result,
    recompute_costs,
    resample_segment,
    save_search_result,
)

from oracles import assemblable, enumerate_paths, in_duration_window, optimum


def toy_graph(n, synthetic=(), onsets=(), keywords=None):
    """Natural chain of n nodes plus transitions (a, b, d_feat, d_img), given in
    any order, each stored as the synthetic edges a -> b and b -> a in the
    graph's (src, dst) order."""
    keywords = keywords or {}
    nodes = [GraphNode(i, i in onsets, keywords.get(i, "")) for i in range(n)]
    edges = [GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(n - 1)]
    both = [(s, d, *costs) for a, b, *costs in synthetic for s, d in ((a, b), (b, a))]
    for src, dst, d_feat, d_img in sorted(both):
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
    # Two to four transitions (a, b), each added in both directions: few, since
    # back jumps multiply the walks the brute-force oracle enumerates.
    synthetic = {}
    for _ in range(int(rng.integers(2, 5))):
        a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
        if b - a >= 2 and (a, b) not in synthetic:
            synthetic[a, b] = (float(rng.uniform(0.01, 0.4)), float(rng.uniform(0.01, 0.4)))
    synthetic = [(a, b, *costs) for (a, b), costs in synthetic.items()]
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


class TestOutputBudget:
    """Every rank the search returns plays in the windows where the README
    promises it: a high end of at most 1 + 1/(2k+2). With a wider window a rank
    may not play, a known defect: the search does not encode the output budget."""

    @staticmethod
    def ranks_that_fail(seed, config):
        graph, segments = random_toy(np.random.default_rng(seed))
        result = beam_search(graph, segments, config, seed=0)
        playable = assemblable(result.paths, graph, segments, config.blend_k)
        return [p for p in result.paths if p not in playable]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_rank_assembles_within_the_bound(self, k):
        config = BeamConfig(duration_window=(0.9, 1 + 1 / (2 * k + 2)), blend_k=k)
        feasible = 0
        for seed in range(150):
            try:
                assert self.ranks_that_fail(seed, config) == [], seed
            except SegmentUnreachableError:
                continue
            feasible += 1
        assert feasible >= 50

    @pytest.mark.xfail(strict=True, reason="the search does not encode the output "
                       "budget, so a wide window can return an unplayable rank")
    @pytest.mark.parametrize("seed", [29, 54, 72])
    def test_wide_window_counterexample(self, seed):
        assert self.ranks_that_fail(seed, BeamConfig(duration_window=(0.5, 2.0), blend_k=2)) == []


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


def start_table(graph, start, config=BeamConfig()):
    """F_{-1} of a search from the single node ``start``."""
    return _SearchState(graph, config).seed([start])


def ends(table):
    """Cheapest cost per end node, over all blend states."""
    return table.min(axis=0)


class TestExpandSegment:
    def test_natural_chain_end_feature(self):
        graph = toy_graph(30)
        config = BeamConfig(beam_width=1)
        out = ends(expand_segment(graph, start_table(graph, 0), EndpointFeature("end"), 10,
                                  config))
        assert out[10] == 0.0
        assert np.flatnonzero(np.isfinite(out)).tolist() == [9, 10, 11]
        best = beam_search(graph, segment_list(11, []), config, start_frame=0).best
        assert best.transition_cost == 0.0
        assert best.duration_cost == 0.0
        assert best.durations == (10,)
        assert best.node_sequence == tuple(range(11))

    def test_duration_cost_increment(self):
        graph = toy_graph(120)
        out = ends(expand_segment(graph, start_table(graph, 0), EndpointFeature("end"), 100,
                                  BeamConfig()))
        # On a chain from node 0, a walk of length l ends at node l.
        assert out[95] == abs(1.0 - 95 / 100)
        assert out[100] == 0.0
        assert np.isinf(out[89])
        assert np.isfinite(out[90]) and np.isfinite(out[110]) and np.isinf(out[111])

    def test_onset_terminal_matching(self):
        graph = toy_graph(20, onsets={10})
        out = ends(expand_segment(graph, start_table(graph, 0), EndpointFeature("onset"), 10,
                                  BeamConfig()))
        assert np.flatnonzero(np.isfinite(out)).tolist() == [10]

    def test_onset_nodes_blocked_mid_segment(self):
        # Onset at node 5 blocks the only walk to the terminal at node 10.
        graph = toy_graph(20, onsets={5, 10})
        with pytest.raises(SegmentUnreachableError):
            expand_segment(graph, start_table(graph, 0), EndpointFeature("onset"), 10,
                           BeamConfig(duration_window=(1.0, 1.0)))
        config = BeamConfig(duration_window=(1.0, 1.0), avoid_onsets_mid_segment=False)
        out = expand_segment(graph, start_table(graph, 0, config), EndpointFeature("onset"), 10,
                             config)
        assert np.flatnonzero(np.isfinite(ends(out))).tolist() == [10]

    def test_start_node_exempt_from_onset_rule(self):
        graph = toy_graph(20, onsets={0, 10})
        config = BeamConfig(duration_window=(1.0, 1.0))
        out = expand_segment(graph, start_table(graph, 0), EndpointFeature("onset"), 10, config)
        assert np.flatnonzero(np.isfinite(ends(out))).tolist() == [10]
        result = beam_search(graph, segment_list(11, []), config, start_frame=0)
        assert result.best.node_sequence == tuple(range(11))

    def test_unreachable_names_segment(self):
        graph = toy_graph(20)
        with pytest.raises(SegmentUnreachableError) as err:
            expand_segment(
                graph, start_table(graph, 0), EndpointFeature("keyword", "two"), 5, BeamConfig(),
                segment_index=3,
            )
        assert err.value.segment == 3

    @pytest.mark.parametrize("length", [0, 2.5, True, "10"])
    def test_target_length_must_be_an_integer_at_least_1(self, length):
        graph = toy_graph(20)
        with pytest.raises(ValidationError, match="target_length must be an integer >= 1"):
            expand_segment(graph, start_table(graph, 0), EndpointFeature("end"), length)

    def test_synthetic_edge_cost_accumulates(self):
        graph = toy_graph(12, synthetic=[(3, 8, 0.25, 0.25)])
        config = BeamConfig(duration_window=(1.0, 1.0), blend_k=1)
        out = ends(expand_segment(graph, start_table(graph, 0, config), EndpointFeature("end"), 7,
                                  config))
        assert out[7] == 0.0  # natural walk 0..7
        # 0..3 naturally, jump 3->8 paying d_feat+d_img, then 8..11: 7 steps
        assert out[11] == 0.25 + 0.25
        # At k=4 the run 1..3 before the jump is too short for its blend window.
        config = BeamConfig(duration_window=(1.0, 1.0))
        out = ends(expand_segment(graph, start_table(graph, 0), EndpointFeature("end"), 7, config))
        assert np.flatnonzero(np.isfinite(out)).tolist() == [7]


def assemblable_optimum(graph, segments, config):
    """Brute-force optimum over every start, of the paths assemble_edl accepts;
    None when there is none."""
    paths = enumerate_paths(graph, segments, config, starts=range(len(graph)))
    kept = assemblable(paths, graph, segments, config.blend_k)
    return optimum(kept, config.duration_weight) if kept else None


class TestBeamSearch:
    def test_default_beam_width_is_20(self):
        assert BeamConfig().beam_width == 20
        assert BeamConfig().blend_k == 4

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

    @pytest.mark.parametrize("name", ["beam_width", "blend_k"])
    @pytest.mark.parametrize("value", [2.5, True, 0, -3, "4"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be an integer >= 1"):
            BeamConfig(**{name: value})

    @pytest.mark.parametrize(
        "kwargs, rule",
        [
            ({"duration_weight": "1"}, "duration_weight must be a finite number"),
            ({"duration_weight": None}, "duration_weight must be a finite number"),
            ({"duration_weight": True}, "duration_weight must be a finite number"),
            ({"duration_window": (0.9, "1.1")}, "duration window must satisfy"),
            ({"duration_window": ("0.9", 1.1)}, "duration window must satisfy"),
            ({"duration_window": (None, 1.1)}, "duration window must satisfy"),
            ({"duration_window": (0.9, [1.1])}, "duration window must satisfy"),
        ],
    )
    def test_non_numbers_rejected(self, kwargs, rule):
        with pytest.raises(ValidationError, match=rule):
            BeamConfig(**kwargs)

    def test_numpy_floats_accepted(self):
        config = BeamConfig(duration_window=(np.float32(0.5), np.float64(1.5)),
                            duration_weight=np.float64(0.25))
        assert config.duration_weight == 0.25

    @pytest.mark.parametrize("window", [(0.9, 1.0, 1.1), (1.0,), 0.9, None])
    def test_duration_window_must_be_a_pair(self, window):
        with pytest.raises(ValidationError, match="duration window must satisfy"):
            BeamConfig(duration_window=window)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
    def test_seed_must_be_an_integer_at_least_0(self, seed):
        graph = toy_graph(12)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            beam_search(graph, segment_list(6, []), BeamConfig(beam_width=2, blend_k=1), seed=seed)

    @pytest.mark.parametrize("start_frame", [-1, True, 2.5, 2.0, "3"])
    def test_start_frame_must_be_an_integer_at_least_0(self, start_frame):
        graph = toy_graph(12)
        with pytest.raises(ValidationError, match="start_frame must be an integer >= 0"):
            beam_search(graph, segment_list(6, []), BeamConfig(blend_k=1), start_frame=start_frame)

    def test_numpy_integers_are_stored_as_ints_and_written(self, tmp_path):
        graph = toy_graph(14, synthetic=[(2, 9, 0.1, 0.1), (9, 3, 0.2, 0.1)], onsets={6, 11})
        segments = segment_list(13, [(7, EndpointFeature("onset"))])
        config = BeamConfig(beam_width=np.int64(4), blend_k=np.int32(1))
        result = beam_search(graph, segments, config, seed=np.uint8(99))
        save_search_result(tmp_path / "p.json", result)
        back = load_search_result(tmp_path / "p.json")
        for loaded in (result, back):
            values = (loaded.seed, loaded.config.beam_width, loaded.config.blend_k)
            assert values == (99, 4, 1)
            assert {type(v) for v in values} == {int}
        assert back == result

    @pytest.mark.parametrize("field", ["nodes", "boundaries"])
    @pytest.mark.parametrize("value", [0.5, True, "1", -1])
    def test_file_integers_are_refused_not_truncated(self, tmp_path, field, value):
        graph = toy_graph(14, synthetic=[(2, 9, 0.1, 0.1), (9, 3, 0.2, 0.1)], onsets={6, 11})
        result = beam_search(graph, segment_list(13, [(7, EndpointFeature("onset"))]),
                             BeamConfig(beam_width=4, blend_k=1), seed=0)
        save_search_result(tmp_path / "p.json", result)
        doc = json.loads((tmp_path / "p.json").read_text())
        entries = doc["paths"][0][field]
        entries[1] = entries[1] + value if isinstance(value, float) else value
        (tmp_path / "p.json").write_text(json.dumps(doc))
        name = {"nodes": "node", "boundaries": "boundary"}[field]
        with pytest.raises(GraphParseError, match=f"{name} must be an integer >= 0"):
            load_search_result(tmp_path / "p.json")

    def test_no_dedup_option(self):
        with pytest.raises(TypeError):
            BeamConfig(dedup=True)

    def test_matches_exhaustive_oracle_on_random_toys(self):
        # The default width starts from every node of these toys (<= 20).
        rng = np.random.default_rng(1234)
        feasible_checked = 0
        infeasible_checked = 0
        while feasible_checked < 25 or infeasible_checked < 3:
            graph, segments = random_toy(rng, max_nodes=20)
            config = BeamConfig(blend_k=int(rng.integers(1, 3)))
            expected = assemblable_optimum(graph, segments, config)
            if expected is None:
                infeasible_checked += 1
                with pytest.raises(SegmentUnreachableError):
                    beam_search(graph, segments, config, seed=0)
                continue
            result = beam_search(graph, segments, config, seed=0)
            feasible_checked += 1
            assert result.best.total_cost() == expected
            assert len(assemblable(result.paths, graph, segments, config.blend_k)) == len(
                result.paths
            )

    def test_seed_determinism(self):
        graph = toy_graph(14, synthetic=[(2, 9, 0.1, 0.1), (9, 3, 0.2, 0.1)], onsets={6, 11})
        segments = segment_list(13, [(7, EndpointFeature("onset"))])
        config = BeamConfig(beam_width=4, blend_k=1)
        a = beam_search(graph, segments, config, seed=99)
        b = beam_search(graph, segments, config, seed=99)
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
                assert (t, d) == (path.transition_cost, path.duration_cost)

    def test_recompute_refuses_a_step_that_is_not_an_edge(self):
        graph = toy_graph(10)
        path = PathCandidate((0, 1, 5, 6), 0.0, 0.0, (0, 3))
        with pytest.raises(ValidationError, match=r"path step \(1, 5\) is not a graph edge"):
            recompute_costs(graph, path, (3,))

    def test_paths_are_valid_walks(self):
        graph = toy_graph(14, synthetic=[(2, 9, 0.1, 0.1), (10, 4, 0.05, 0.1)], onsets={8})
        segments = segment_list(13, [(8, EndpointFeature("onset"))])
        result = beam_search(graph, segments, BeamConfig(), seed=1)
        edges = {(e.src, e.dst) for e in graph.edges}
        for p in result.paths:
            assert set(zip(p.node_sequence, p.node_sequence[1:])) <= edges

    def test_natural_edge_never_beats_synthetic_detour(self):
        # A synthetic detour of equal length adds strictly positive cost, so
        # the optimum found by the oracle-checked search keeps natural edges.
        graph = toy_graph(12, synthetic=[(3, 5, 0.2, 0.1), (4, 2, 0.1, 0.1)])
        segments = segment_list(9, [])
        config = BeamConfig()  # 20 starts: every node of the toy
        paths = enumerate_paths(graph, segments, config, starts=range(12))
        result = beam_search(graph, segments, config, seed=0)
        assert result.best.total_cost() == optimum(paths)
        assert result.best.transition_cost == 0.0

    def test_one_relaxation_per_segment(self, monkeypatch):
        # The traceback replays each segment from its recorded cut minima
        # instead of relaxing the synthetic edges a second time.
        from motiongraph import kernels

        calls = []
        relax = kernels.walk_distances
        monkeypatch.setattr(kernels, "walk_distances", lambda *a: calls.append(1) or relax(*a))
        graph = toy_graph(30, synthetic=[(9, 3, 0.1, 0.1), (20, 12, 0.2, 0.1)], onsets={7, 16})
        segments = segment_list(25, [(8, EndpointFeature("onset")), (17, EndpointFeature("onset"))])
        result = beam_search(graph, segments, BeamConfig(blend_k=1), seed=0)
        assert result.paths
        assert len(calls) == segments.segment_count == 3

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_traceback_chunks_do_not_change_the_paths(self, monkeypatch, chunk):
        # Long segments, so that the traceback replays them in several
        # chunks from allowed-masked checkpoints (one per step at chunk=1).
        from motiongraph import search

        rng = np.random.default_rng(chunk)
        n = 90
        onsets = set(range(9, n, 13))
        synthetic = set()
        while len(synthetic) < 60:
            a, b = (int(x) for x in rng.integers(0, n, size=2))
            if abs(a - b) >= 4:
                synthetic.add((min(a, b), max(a, b)))
        graph = toy_graph(n, [(a, b, *rng.choice([0.125, 0.25, 0.5], size=2)) for a, b in synthetic],
                          onsets)
        segments = segment_list(50, [(17, EndpointFeature("onset")), (33, EndpointFeature("onset"))])
        config = BeamConfig(blend_k=1, beam_width=30)
        whole = beam_search(graph, segments, config, seed=0)
        assert whole.paths
        monkeypatch.setattr(search, "REPLAY_CHUNK", chunk)
        assert beam_search(graph, segments, config, seed=0) == whole

    def test_traceback_keeps_one_replayed_chunk_alive(self, monkeypatch):
        # Short chunks, so that each segment replays several checkpoint
        # chunks and several traceback chunks.
        from motiongraph import kernels, search

        replay, returned, alive = kernels.replay_walk, [], []

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in returned))
            table = replay(*args)
            returned.append(weakref.ref(table))
            return table

        monkeypatch.setattr(kernels, "replay_walk", tracked)
        monkeypatch.setattr(search, "REPLAY_CHUNK", 3)
        graph = toy_graph(30, synthetic=[(9, 3, 0.1, 0.1), (20, 12, 0.2, 0.1)], onsets={7, 16})
        segments = segment_list(25, [(8, EndpointFeature("onset")), (17, EndpointFeature("onset"))])
        assert beam_search(graph, segments, BeamConfig(blend_k=1), seed=0).paths
        assert len(alive) > 2 * segments.segment_count
        assert alive == [0] * len(alive)

    def test_traceback_rejects_cut_rows_the_forward_pass_did_not_record(self):
        from motiongraph import search

        graph = toy_graph(30, synthetic=[(9, 3, 0.1, 0.1), (20, 12, 0.2, 0.1)], onsets={7, 16})
        segments = segment_list(25, [(8, EndpointFeature("onset")), (17, EndpointFeature("onset"))])
        config = BeamConfig(blend_k=1)

        def forward():
            state = search._SearchState(graph, config)
            starts = search._starts(graph, config, 0, None)
            return state, search._forward(graph, segments, config, state, starts)

        state, tables = forward()
        assert search._trace_back(state, tables, segments.durations, config)
        assert state.cuts == []  # each segment's rows are freed once it is traced
        state, tables = forward()
        for step in state.cuts[-1]:
            for q in step:
                step[q] = step[q] - 100.0
        with pytest.raises(StructuralError):
            search._trace_back(state, tables, segments.durations, config)

    def test_sorted_by_total_cost(self):
        graph = toy_graph(14, synthetic=[(2, 9, 0.3, 0.1), (4, 11, 0.1, 0.1)])
        segments = segment_list(10, [])
        result = beam_search(graph, segments, BeamConfig(beam_width=10), seed=0)
        costs = [p.total_cost() for p in result.paths]
        assert costs == sorted(costs)


class TestPathCandidate:
    @pytest.mark.parametrize(
        "bounds", [(), (0,), (1, 5), (0, 4), (0, 6), (0, 3, 2, 5), (0, 3, 3, 5), (0, 0, 5)]
    )
    def test_boundaries_rise_strictly_from_0_to_the_last_node(self, bounds):
        with pytest.raises(ValidationError, match="segment boundaries must rise strictly"):
            PathCandidate(tuple(range(6)), 0.0, 0.0, bounds)

    def test_rising_boundaries_accepted(self):
        assert PathCandidate(tuple(range(6)), 0.0, 0.0, (0, 2, 5)).durations == (2, 3)


class TestResample:
    def test_identity(self):
        run = list(range(100, 110))
        out = resample_segment(run, 10)
        assert [e.source_frame for e in out] == run
        assert [e.position for e in out] == list(range(10))

    def test_speed_up_110_to_100(self):
        run = list(range(110))
        out = resample_segment(run, 100)
        assert len(out) == 100
        assert out[0].source_frame == run[0]
        assert out[-1].source_frame == run[109]
        # positions follow i*(L'-1)/(L_s-1)
        for i, e in enumerate(out):
            assert e.position == i * 109 / 99
            assert e.source_frame == run[math.floor(e.position + 0.5)]

    def test_slow_down_repeats_monotonically(self):
        run = list(range(90))
        out = resample_segment(run, 100)
        sources = [e.source_frame for e in out]
        assert len(sources) == 100
        assert sources == sorted(sources)
        assert len(set(sources)) < len(sources)  # some frames repeat

    def test_single_entry_emits_terminal(self):
        out = resample_segment([7, 8, 9], 1)
        assert [e.source_frame for e in out] == [9]

    @pytest.mark.parametrize("length", [0, 2.5, True, "10"])
    def test_target_length_must_be_an_integer_at_least_1(self, length):
        with pytest.raises(ValidationError, match="target_length must be an integer >= 1"):
            resample_segment([7, 8, 9], length)
