import json
import math
import tracemalloc

import numpy as np
import pytest

from motiongraph import graph as graph_mod, kernels
from motiongraph.audio import EndpointFeature, SegmentList
from motiongraph.errors import GraphParseError, StructuralError, ValidationError
from motiongraph.graph import (
    GraphEdge,
    GraphNode,
    Thresholds,
    VideoMotionGraph,
    build_graph,
    compute_thresholds,
    load_graph,
    load_graph_file,
    save_graph,
    save_graph_file,
)
from motiongraph.pose import JointState, compute_joint_states, pose_distance
from motiongraph.search import BeamConfig, beam_search
from motiongraph.silhouette import (
    default_camera,
    image_distance,
    rasterize_sequence,
    rasterize_silhouette,
)

from conftest import make_sequence
from oracles import edge_dict, first_graph_violation, full_matrix_gate

SMOOTH_CAMERA = default_camera((64, 64), focal_length=60.0)


# Graph headers that no graph may carry, with the rule each one breaks.
BAD_HEADERS = [
    pytest.param({"fps": math.nan}, "fps must be a finite number > 0", id="fps-nan"),
    pytest.param({"fps": 0.0}, "fps must be a finite number > 0", id="fps-zero"),
    pytest.param({"fps": -5.0}, "fps must be a finite number > 0", id="fps-negative"),
    pytest.param({"fps": math.inf}, "fps must be a finite number > 0", id="fps-inf"),
    pytest.param({"min_jump": -3}, "min_jump must be an integer >= 2", id="min-jump-negative"),
    pytest.param({"min_jump": 1}, "min_jump must be an integer >= 2", id="min-jump-1"),
    pytest.param({"min_jump": 2.5}, "min_jump must be an integer >= 2", id="min-jump-fraction"),
]


def swing_pose_fn(amplitude=0.6, period=24.0):
    def fn(t):
        rot = np.zeros((4, 3))
        rot[0, 2] = amplitude * math.sin(2 * math.pi * t / period)
        rot[1, 1] = 0.5 * amplitude * math.sin(2 * math.pi * t / period + 0.8)
        return (0.0, 0.0, 3.0), rot

    return fn


@pytest.fixture
def smooth_setup(chain_skeleton):
    seq = make_sequence(chain_skeleton, swing_pose_fn(), 40)
    states = compute_joint_states(chain_skeleton, seq)
    masks = rasterize_sequence(chain_skeleton, (s.positions for s in states), SMOOTH_CAMERA)
    return states, masks


@pytest.fixture
def smooth_refs(chain_skeleton, smooth_setup):
    """Reference masks of smooth_setup's frames, one rasterize_silhouette each."""
    states, _ = smooth_setup
    return [rasterize_silhouette(chain_skeleton, s.positions, SMOOTH_CAMERA) for s in states]


def random_states(rng, n, joints=4):
    return [
        JointState(rng.normal(size=(joints, 3)), rng.normal(size=(joints, 3)))
        for _ in range(n)
    ]


def no_feature(n):
    return [(False, "")] * n


class TestThresholds:
    def test_mean_of_offset_pairs(self, smooth_setup, smooth_refs):
        states, masks = smooth_setup
        thr = compute_thresholds(states, masks, offset_l=4)
        n = len(states)
        feat = [
            pose_distance(states[m], states[m + 4]) for m in range(n - 4)
        ]
        img = [image_distance(smooth_refs[m], smooth_refs[m + 4]) for m in range(n - 4)]
        assert thr.tau_feat == pytest.approx(sum(feat) / len(feat), abs=1e-12)
        assert thr.tau_img == pytest.approx(sum(img) / len(img), abs=1e-12)
        assert thr.offset_l == 4

    def test_constant_sequence_zero_thresholds(self, chain_skeleton):
        seq = make_sequence(chain_skeleton, lambda t: ((0, 0, 3.0), None), 12)
        states = compute_joint_states(chain_skeleton, seq)
        camera = default_camera((32, 32), focal_length=30.0)
        masks = rasterize_sequence(chain_skeleton, (s.positions for s in states), camera)
        thr = compute_thresholds(states, masks, offset_l=4)
        assert thr.tau_feat == 0.0
        assert thr.tau_img == 0.0

    def test_default_offset_is_four(self):
        import inspect

        from motiongraph.graph import DEFAULT_OFFSET_L

        assert DEFAULT_OFFSET_L == 4
        sig = inspect.signature(compute_thresholds)
        assert sig.parameters["offset_l"].default == 4

    def test_offset_monotonicity_on_smooth_motion(self, chain_skeleton):
        # Slowly-varying motion: pair distances grow with temporal separation
        # over the tested l range, so thresholds must too.
        seq = make_sequence(chain_skeleton, swing_pose_fn(amplitude=0.5, period=200.0), 40)
        states = compute_joint_states(chain_skeleton, seq)
        camera = default_camera((64, 64), focal_length=60.0)
        masks = rasterize_sequence(chain_skeleton, (s.positions for s in states), camera)
        previous = compute_thresholds(states, masks, offset_l=1)
        for l in range(2, 7):
            current = compute_thresholds(states, masks, offset_l=l)
            assert current.tau_feat >= previous.tau_feat - 1e-12
            assert current.tau_img >= previous.tau_img - 1e-12
            previous = current

    def test_too_short_sequence(self, smooth_setup):
        states, masks = smooth_setup
        with pytest.raises(ValidationError):
            compute_thresholds(states[:4], masks[:4], offset_l=4)

    @pytest.mark.parametrize("velocity_weight", [math.nan, math.inf, -1.0])
    def test_bad_velocity_weight_rejected(self, smooth_setup, velocity_weight):
        states, masks = smooth_setup
        with pytest.raises(ValidationError, match="velocity_weight must be a finite number"):
            compute_thresholds(states, masks, velocity_weight=velocity_weight)
        with pytest.raises(ValidationError, match="velocity_weight must be a finite number"):
            build_graph(states, masks, no_feature(len(states)), Thresholds(0.1, 0.1, 4),
                        velocity_weight=velocity_weight)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValidationError):
            Thresholds(math.nan, 0.1, 4)
        with pytest.raises(ValidationError):
            Thresholds(0.1, math.nan, 4)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            Thresholds(tau_feat=-0.1, tau_img=0.0, offset_l=4)

    @pytest.mark.parametrize("offset_l", [4.9, 4.0, True, "4", 0, np.float64(4.0)])
    def test_offset_must_be_an_integer_at_least_1(self, offset_l):
        # A fractional offset is refused, not truncated.
        with pytest.raises(ValidationError, match="offset_l must be an integer >= 1"):
            Thresholds(0.1, 0.1, offset_l)

    def test_numpy_integer_offset_accepted(self):
        thresholds = Thresholds(0.1, 0.1, np.int64(4))
        assert thresholds.offset_l == 4
        assert type(thresholds.offset_l) is int  # so the graph writer can encode it
        graph = VideoMotionGraph([GraphNode(0, False, "")], [], thresholds)
        assert load_graph(save_graph(graph)).thresholds == thresholds


class TestBuildGraph:
    def test_zero_thresholds_only_natural_chain(self, smooth_setup):
        states, masks = smooth_setup
        g = build_graph(states, masks, no_feature(len(states)), Thresholds(0.0, 0.0, 4))
        assert len(g.edges) == len(states) - 1
        assert all(e.kind == "natural" for e in g.edges)

    def test_open_gate_full_count(self, smooth_setup):
        states, masks = smooth_setup
        states, masks = states[:10], masks[:10]
        g = build_graph(states, masks, no_feature(10), Thresholds(np.inf, 1.0, 4))
        n = 10
        synthetic = [e for e in g.edges if e.kind == "synthetic"]
        # All ordered pairs minus self and |m-n|=1 pairs: N^2 - 3N + 2.
        assert len(synthetic) == n * n - 3 * n + 2
        natural = [e for e in g.edges if e.kind == "natural"]
        assert len(natural) == n - 1

    def test_edges_satisfy_both_gates(self, smooth_setup, smooth_refs):
        states, masks = smooth_setup
        thr = compute_thresholds(states, masks, offset_l=4)
        g = build_graph(states, masks, no_feature(len(states)), thr)
        for e in g.edges:
            if e.kind == "natural":
                assert e.d_feat == 0.0 and e.d_img == 0.0
                continue
            assert e.d_feat <= thr.tau_feat
            assert e.d_img <= thr.tau_img
            assert abs(e.src - e.dst) >= 2
            # Stored distances match the pair operations bit-for-bit.
            assert e.d_feat == pose_distance(states[e.src], states[e.dst])
            assert e.d_img == image_distance(smooth_refs[e.src], smooth_refs[e.dst])

    def test_full_pair_recheck(self, smooth_setup, smooth_refs):
        states, masks = smooth_setup
        thr = compute_thresholds(states, masks, offset_l=4)
        g = build_graph(states, masks, no_feature(len(states)), thr)
        got = {(e.src, e.dst) for e in g.edges if e.kind == "synthetic"}
        expected = set()
        n = len(states)
        for m in range(n):
            for k in range(n):
                if abs(m - k) < 2:
                    continue
                if pose_distance(states[m], states[k]) > thr.tau_feat:
                    continue
                if image_distance(smooth_refs[m], smooth_refs[k]) > thr.tau_img:
                    continue
                expected.add((m, k))
        assert got == expected

    def test_monotone_in_thresholds(self, smooth_setup):
        states, masks = smooth_setup
        thr = compute_thresholds(states, masks, offset_l=4)
        small = build_graph(states, masks, no_feature(len(states)), thr)
        bigger = build_graph(
            states,
            masks,
            no_feature(len(states)),
            Thresholds(thr.tau_feat * 1.5, min(1.0, thr.tau_img * 1.5), 4),
        )
        edges_small = {(e.src, e.dst) for e in small.edges}
        edges_big = {(e.src, e.dst) for e in bigger.edges}
        assert edges_small <= edges_big

    def test_min_jump_respected(self, smooth_setup):
        states, masks = smooth_setup
        g = build_graph(
            states, masks, no_feature(len(states)), Thresholds(np.inf, 1.0, 4), min_jump=8
        )
        assert all(abs(e.src - e.dst) >= 8 for e in g.edges if e.kind == "synthetic")

    @pytest.mark.parametrize("header, reason", BAD_HEADERS)
    def test_bad_header_rejected_before_building(self, smooth_setup, header, reason):
        states, masks = smooth_setup
        with pytest.raises(ValidationError, match=reason):
            build_graph(states, masks, no_feature(len(states)), Thresholds(0.1, 0.1, 4), **header)

    def test_features_attached_to_nodes(self, smooth_setup):
        states, masks = smooth_setup
        features = no_feature(len(states))
        features[5] = (True, "")
        features[9] = (False, "hello")
        g = build_graph(states, masks, features, Thresholds(0.0, 0.0, 4))
        assert g.nodes[5].onset and g.nodes[5].keyword == ""
        assert not g.nodes[9].onset and g.nodes[9].keyword == "hello"

    def test_length_mismatch(self, smooth_setup):
        states, masks = smooth_setup
        with pytest.raises(StructuralError):
            build_graph(states, masks[:-1], no_feature(len(states)), Thresholds(0, 0, 4))
        with pytest.raises(StructuralError):
            build_graph(states, masks, no_feature(len(states) - 2), Thresholds(0, 0, 4))

    def test_unpacked_masks_rejected(self, smooth_setup, smooth_refs):
        states, masks = smooth_setup
        stack = np.stack(smooth_refs)  # (N, H, W) bool
        thr = Thresholds(0.0, 0.0, 4)
        for bad in (stack, masks.view(np.uint8), masks[:, 0], masks.tolist()):
            with pytest.raises(StructuralError, match="packed"):
                compute_thresholds(states, bad, offset_l=4)
            with pytest.raises(StructuralError, match="packed"):
                build_graph(states, bad, no_feature(len(states)), thr)

    def test_determinism(self, smooth_setup):
        states, masks = smooth_setup
        thr = compute_thresholds(states, masks, offset_l=4)
        a = build_graph(states, masks, no_feature(len(states)), thr)
        b = build_graph(states, masks, no_feature(len(states)), thr)
        assert a.edges == b.edges

    def test_build_save_load_search_read_columns_only(self, monkeypatch, smooth_setup):
        def refuse(graph):
            raise AssertionError("a GraphNode/GraphEdge view was built")

        monkeypatch.setattr(VideoMotionGraph, "nodes", property(refuse))
        monkeypatch.setattr(VideoMotionGraph, "edges", property(refuse))
        states, masks = smooth_setup
        thr = compute_thresholds(states, masks, offset_l=4)
        built = build_graph(states, masks, no_feature(len(states)), thr)
        loaded = load_graph(save_graph(built))
        assert loaded.synthetic.any()
        end = EndpointFeature("end")
        segments = SegmentList(n_frames=21, endpoints=(1, 11, 21), features=(end, end, end))
        assert beam_search(loaded, segments, BeamConfig(), seed=0).paths

    def test_columns_are_read_only(self, smooth_setup):
        states, masks = smooth_setup
        g = build_graph(states, masks, no_feature(len(states)), Thresholds(0.0, 0.0, 4))
        for column in (g.onset, g.keyword, g.src, g.dst, g.synthetic, g.d_feat, g.d_img):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]


class TestPairGating:
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("min_jump, velocity_weight", [(2, 1.0), (5, 0.5)])
    def test_tiled_gate_equals_full_matrix(self, monkeypatch, block, min_jump, velocity_weight):
        rng = np.random.default_rng(block)
        states = random_states(rng, 50)
        tau = float(np.median([pose_distance(states[0], s, velocity_weight) for s in states[1:]]))
        monkeypatch.setattr(graph_mod, "GATE_BLOCK", block)
        counts = []
        for tau_feat in (0.0, tau, np.inf):
            mm, nn = graph_mod._gate_pairs(states, velocity_weight, tau_feat, min_jump)
            ref_mm, ref_nn = full_matrix_gate(states, velocity_weight, tau_feat, min_jump)
            assert np.array_equal(mm, ref_mm) and np.array_equal(nn, ref_nn)
            counts.append(len(mm))
        # The median gate keeps some pairs and drops others.
        assert counts[0] < counts[1] < counts[2]

    def test_build_peak_memory_below_one_pair_matrix(self):
        # One N x N float64 matrix at N = 3000 is 72 MB; the tiled gate keeps a
        # few GATE_BLOCK x N blocks.
        n = 3000
        states = random_states(np.random.default_rng(0), n)
        masks = kernels.pack_masks(np.zeros((n, 1, 1), dtype=bool))
        tracemalloc.start()
        try:
            build_graph(states, masks, no_feature(n), Thresholds(0.0, 0.0, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, f"build_graph peaked at {peak / 1e6:.1f} MB"


# Each breaks exactly one edge rule (endpoint range, kind, finite distance,
# min_jump = 2) when added to a 3- or 4-frame natural chain.
BAD_EDGES = [
    pytest.param(GraphEdge(0, 7, "synthetic", 0.0, 0.0), "outside frames", id="dst-past-end"),
    pytest.param(GraphEdge(-1, 2, "synthetic", 0.0, 0.0), "outside frames", id="negative-src"),
    pytest.param(GraphEdge(2, 0, "bogus", 0.0, 0.0), "unknown kind", id="bogus-kind"),
    pytest.param(GraphEdge(2, 0, "synthetic", math.nan, 0.0), "non-finite", id="nan-distance"),
    pytest.param(GraphEdge(2, 1, "synthetic", 0.0, 0.0), "min_jump", id="short-jump"),
]


class TestGraphInvariants:
    def _nodes(self, n):
        return [GraphNode(i, False, "") for i in range(n)]

    def _chain(self, n):
        return [GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(n - 1)]

    def test_missing_natural_edge_rejected(self):
        edges = self._chain(4)[:-1]
        with pytest.raises(ValidationError):
            VideoMotionGraph(self._nodes(4), edges, Thresholds(0, 0, 4))

    def test_self_edge_rejected(self):
        edges = self._chain(3) + [GraphEdge(1, 1, "synthetic", 0.0, 0.0)]
        with pytest.raises(ValidationError):
            VideoMotionGraph(self._nodes(3), edges, Thresholds(0, 0, 4))

    def test_duplicate_edge_rejected(self):
        edges = self._chain(4) + [
            GraphEdge(0, 2, "synthetic", 0.0, 0.0),
            GraphEdge(0, 2, "synthetic", 0.0, 0.0),
        ]
        with pytest.raises(ValidationError):
            VideoMotionGraph(self._nodes(4), edges, Thresholds(0, 0, 4))

    @pytest.mark.parametrize("bad, reason", BAD_EDGES)
    def test_bad_edge_rejected(self, bad, reason):
        with pytest.raises(ValidationError, match=reason):
            VideoMotionGraph(self._nodes(4), self._chain(4) + [bad], Thresholds(0, 0, 4))

    def test_messages_match_the_edge_loop(self):
        # Random small graphs, most with a defect: a missing chain link, a
        # swapped frame index, or random extra edges.
        rng = np.random.default_rng(11)
        distances = [0.0, 0.25, 0.5, math.nan, math.inf]
        raised = 0
        for _ in range(600):
            n = int(rng.integers(0, 7))
            min_jump = int(rng.integers(2, 4))
            nodes = self._nodes(n)
            if n > 1 and rng.random() < 0.1:
                nodes[0], nodes[1] = GraphNode(1, False, ""), GraphNode(0, False, "")
            edges = [e for e in self._chain(n) if rng.random() > 0.05]
            for _ in range(int(rng.integers(0, 6))):
                edges.append(GraphEdge(
                    int(rng.integers(-1, n + 1)), int(rng.integers(-1, n + 1)),
                    str(rng.choice(["natural", "synthetic", "synthetic", "bogus"])),
                    float(rng.choice(distances, p=[0.6, 0.2, 0.1, 0.05, 0.05])),
                    float(rng.choice(distances, p=[0.6, 0.2, 0.1, 0.05, 0.05])),
                ))
            edges = [edges[i] for i in rng.permutation(len(edges))]
            expected = first_graph_violation(nodes, edges, min_jump)
            if expected is None:
                VideoMotionGraph(nodes, edges, Thresholds(0, 0, 4), min_jump=min_jump)
                continue
            with pytest.raises(ValidationError) as err:
                VideoMotionGraph(nodes, edges, Thresholds(0, 0, 4), min_jump=min_jump)
            assert str(err.value) == expected
            raised += 1
        assert 300 < raised < 600

    @pytest.mark.parametrize("header, reason", BAD_HEADERS)
    def test_bad_header_rejected(self, header, reason):
        with pytest.raises(ValidationError, match=reason):
            VideoMotionGraph(self._nodes(4), self._chain(4), Thresholds(0, 0, 4), **header)

    def test_integer_min_jump_kept_as_int(self):
        graph = VideoMotionGraph(self._nodes(4), self._chain(4), Thresholds(0, 0, 4),
                                 min_jump=np.int64(3))
        assert graph.min_jump == 3 and type(graph.min_jump) is int

    def test_first_offending_edge_is_named(self):
        bogus = GraphEdge(2, 0, "bogus", 0.0, 0.0)
        outside = GraphEdge(0, 7, "synthetic", 0.0, 0.0)
        with pytest.raises(ValidationError, match=r"edge \(2, 0\) has unknown kind 'bogus'"):
            VideoMotionGraph(self._nodes(4), self._chain(4) + [bogus, outside], Thresholds(0, 0, 4))
        with pytest.raises(ValidationError, match=r"edge \(0, 7\) has an endpoint outside"):
            VideoMotionGraph(self._nodes(4), self._chain(4) + [outside, bogus], Thresholds(0, 0, 4))
        # The second of two equal pairs is the duplicate.
        with pytest.raises(ValidationError, match=r"duplicate edge \(3, 1\)"):
            VideoMotionGraph(
                self._nodes(4),
                [GraphEdge(3, 1, "synthetic", 0.0, 0.0)] + self._chain(4)
                + [GraphEdge(3, 1, "synthetic", 0.5, 0.5), bogus],
                Thresholds(0, 0, 4),
            )


def shuffled_graph(rng, n, n_synthetic):
    """A chain of ``n`` frames plus up to ``n_synthetic`` random synthetic
    edges, some of them in both directions, all in a shuffled order."""
    pairs = set()
    for _ in range(n_synthetic):
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if abs(a - b) >= 2:
            pairs.add((a, b))
            if rng.random() < 0.5:
                pairs.add((b, a))
    edges = [GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(n - 1)]
    edges += [GraphEdge(a, b, "synthetic", *rng.uniform(0.0, 1.0, size=2).tolist())
              for a, b in sorted(pairs)]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    return VideoMotionGraph([GraphNode(i, False, "") for i in range(n)], edges,
                            Thresholds(1.0, 1.0, 4))


class TestEdgeRows:
    def check(self, graph, src, dst):
        index = edge_dict(graph)
        got = graph.edge_rows(src, dst)
        assert got.tolist() == [index.get((a, b), -1) for a, b in zip(src, dst)]
        return got

    def test_matches_the_edge_records_on_random_graphs(self):
        rng = np.random.default_rng(8)
        unsorted = 0
        for _ in range(40):
            n = int(rng.integers(2, 40))
            graph = shuffled_graph(rng, n, int(rng.integers(0, 3 * n)))
            edges = graph.edges
            unsorted += [(e.src, e.dst) for e in edges] != sorted((e.src, e.dst) for e in edges)
            # Every edge, its reverse, and random pairs, endpoints outside
            # the graph included.
            src = [e.src for e in edges] + [e.dst for e in edges]
            dst = [e.dst for e in edges] + [e.src for e in edges]
            extra = rng.integers(-2, n + 2, size=(2, 50)).tolist()
            got = self.check(graph, src + extra[0], dst + extra[1])
            assert got[: len(edges)].tolist() == list(range(len(edges)))
            assert (got[len(edges):] == -1).any()
        assert unsorted > 30

    def test_graph_without_synthetic_edges(self):
        graph = shuffled_graph(np.random.default_rng(1), 12, 0)
        assert not graph.synthetic.any()
        self.check(graph, list(range(12)) + [3, 5, 11], list(range(1, 13)) + [2, 7, 0])
        row = self.check(graph, [0], [1])[0]
        assert (graph.src[row], graph.dst[row]) == (0, 1)

    def test_single_frame_graph_has_no_edges(self):
        graph = VideoMotionGraph([GraphNode(0, False, "")], [], Thresholds(1.0, 1.0, 4))
        assert graph.edge_rows([0, 0, 1], [0, 1, 0]).tolist() == [-1, -1, -1]
        assert graph.edge_rows([], []).shape == (0,)

    def test_node_ids_beyond_int64_are_absent(self):
        graph = shuffled_graph(np.random.default_rng(2), 6, 4)
        got = graph.edge_rows([0, 2**70, 1], [1, 2, -(2**70)]).tolist()
        assert got == [edge_dict(graph)[0, 1], -1, -1]

    def test_loaded_graph_in_unsorted_file_order(self):
        graph = shuffled_graph(np.random.default_rng(5), 30, 60)
        loaded = load_graph(save_graph(graph))
        keys = loaded.src * len(loaded) + loaded.dst
        assert (np.diff(keys) < 0).any()  # the file's edge order is not sorted
        pairs = np.random.default_rng(6).integers(0, 30, size=(2, 300)).tolist()
        self.check(loaded, [e.src for e in loaded.edges] + pairs[0],
                   [e.dst for e in loaded.edges] + pairs[1])


class TestSerialization:
    def _toy_graph(self):
        nodes = [GraphNode(0, True, ""), GraphNode(1, False, ""), GraphNode(2, False, "hi")]
        edges = [
            GraphEdge(0, 1, "natural", 0.0, 0.0),
            GraphEdge(1, 2, "natural", 0.0, 0.0),
            GraphEdge(0, 2, "synthetic", 0.123456789012345678, 0.5),
        ]
        return VideoMotionGraph(nodes, edges, Thresholds(0.2, 0.6, 4), fps=25.0)

    def test_roundtrip_field_equality(self):
        g = self._toy_graph()
        g2 = load_graph(save_graph(g))
        assert g2.nodes == g.nodes
        assert g2.edges == g.edges
        assert g2.thresholds == g.thresholds
        assert g2.fps == g.fps and g2.min_jump == g.min_jump

    def test_truncated_stream_is_parse_error(self):
        blob = save_graph(self._toy_graph())
        with pytest.raises(GraphParseError) as err:
            load_graph(blob[: len(blob) // 2])
        assert err.value.offset >= 0

    def test_garbage_is_parse_error(self):
        with pytest.raises(GraphParseError):
            load_graph(b"\xff\xfe not json")
        with pytest.raises(GraphParseError):
            load_graph(b'{"format": "something-else"}')
        # A motion-graph/1 document held one object per node and per edge.
        format_1 = {
            "format": "motion-graph/1", "fps": 25.0, "min_jump": 2, "velocity_weight": 1.0,
            "thresholds": {"tau_feat": 0.2, "tau_img": 0.6, "offset_l": 4},
            "nodes": [{"frame": 0, "onset": False, "keyword": ""},
                      {"frame": 1, "onset": False, "keyword": ""}],
            "edges": [{"src": 0, "dst": 1, "kind": "natural", "d_feat": 0.0, "d_img": 0.0}],
        }
        with pytest.raises(GraphParseError, match="'motion-graph/1', expected 'motion-graph/2'"):
            load_graph(json.dumps(format_1).encode())

    def test_file_holds_one_array_per_column(self):
        doc = json.loads(save_graph(self._toy_graph()))
        assert doc == {
            "format": "motion-graph/2", "fps": 25.0, "min_jump": 2, "velocity_weight": 1.0,
            "thresholds": {"tau_feat": 0.2, "tau_img": 0.6, "offset_l": 4},
            "onset": [True, False, False], "keyword": ["", "", "hi"],
            "src": [0, 1, 0], "dst": [1, 2, 2], "synthetic": [False, False, True],
            "d_feat": [0.0, 0.0, 0.123456789012345678], "d_img": [0.0, 0.0, 0.5],
        }

    @pytest.mark.parametrize("bad, reason", BAD_EDGES)
    def test_bad_edge_is_parse_error(self, bad, reason):
        doc = json.loads(save_graph(self._toy_graph()))
        for name in ("src", "dst", "d_feat", "d_img"):
            doc[name].append(getattr(bad, name))
        # A file holds a kind as a flag: an unknown kind is not a boolean.
        doc["synthetic"].append({"natural": False, "synthetic": True}.get(bad.kind, bad.kind))
        if bad.kind == "bogus":
            reason = "synthetic entries must be true or false"
        with pytest.raises(GraphParseError, match=reason):
            load_graph(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc["src"].pop(), id="short-src"),
            pytest.param(lambda doc: doc["synthetic"].append(True), id="long-synthetic"),
            # numpy would broadcast a length-1 column against the others.
            pytest.param(lambda doc: doc.update(d_feat=[0.0]), id="length-1-d-feat"),
            pytest.param(lambda doc: doc.update(d_img=[]), id="empty-d-img"),
            pytest.param(lambda doc: doc["keyword"].append("hi"), id="long-keyword"),
            pytest.param(lambda doc: doc.update(onset=[True]), id="length-1-onset"),
        ],
    )
    def test_columns_of_unequal_length_are_parse_error(self, edit):
        doc = json.loads(save_graph(self._toy_graph()))
        edit(doc)
        with pytest.raises(GraphParseError, match="columns differ in length"):
            load_graph(json.dumps(doc).encode())

    @pytest.mark.parametrize("column", ["synthetic", "onset"])
    @pytest.mark.parametrize("value", [1, 0, 1.0, "true", None, [True]])
    def test_flag_that_is_not_a_json_boolean_is_parse_error(self, column, value):
        doc = json.loads(save_graph(self._toy_graph()))
        doc[column][-1] = value
        with pytest.raises(GraphParseError, match=f"{column} entries must be true or false"):
            load_graph(json.dumps(doc).encode())

    @pytest.mark.parametrize("value", [0, True, "true", {"true": True}])
    def test_flags_column_that_is_not_a_list_is_parse_error(self, value):
        doc = json.loads(save_graph(self._toy_graph()))
        doc["synthetic"] = value
        with pytest.raises(GraphParseError):
            load_graph(json.dumps(doc).encode())

    def test_random_graph_roundtrip(self, smooth_setup):
        rng = np.random.default_rng(10)
        n = 1000
        nodes = [
            GraphNode(i, bool(rng.random() < 0.1), rng.choice(["", "", "hello", "two"]))
            for i in range(n)
        ]
        edges = [GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(n - 1)]
        seen = set()
        while len(seen) < 3000:
            m, k = rng.integers(0, n, size=2)
            if abs(int(m) - int(k)) < 2 or (int(m), int(k)) in seen:
                continue
            seen.add((int(m), int(k)))
            edges.append(
                GraphEdge(int(m), int(k), "synthetic", float(rng.random()), float(rng.random()))
            )
        g = VideoMotionGraph(nodes, edges, Thresholds(1.0, 1.0, 4))
        g2 = load_graph(save_graph(g))
        assert len(g2.edges) == len(g.edges)
        assert {(e.src, e.dst): (e.d_feat, e.d_img) for e in g2.edges} == {
            (e.src, e.dst): (e.d_feat, e.d_img) for e in g.edges
        }

    def test_bytes_stable(self):
        g = self._toy_graph()
        assert save_graph(g) == save_graph(load_graph(save_graph(g)))

    @pytest.mark.parametrize("chunk", [1, 2, 7, graph_mod.SAVE_CHUNK_EDGES])
    def test_file_writer_writes_save_graph_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(graph_mod, "SAVE_CHUNK_EDGES", chunk)
        one_node = VideoMotionGraph([GraphNode(0, True, "hello")], [], Thresholds(0.0, 0.0, 4))
        for g in (self._toy_graph(), random_graph(np.random.default_rng(chunk), 50, 300),
                  one_node):
            save_graph_file(g, tmp_path / "g.json")
            blob = (tmp_path / "g.json").read_bytes()
            assert blob == save_graph(g)
            assert blob == json.dumps(json.loads(blob), sort_keys=True).encode()
            assert load_graph_file(tmp_path / "g.json").edges == g.edges

    def test_file_writer_peak_memory_bounded_by_the_chunk(self, tmp_path):
        # save_graph holds the whole document's text. The file writer holds
        # one chunk of one column at a time.
        g = random_graph(np.random.default_rng(3), 2000, 60000)
        tracemalloc.start()
        try:
            save_graph_file(g, tmp_path / "g.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"save_graph_file peaked at {peak / 1e6:.1f} MB"

    def test_failed_file_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_mod, "SAVE_CHUNK_EDGES", 2)
        g = self._toy_graph()
        save_graph_file(g, tmp_path / "g.json")
        before = (tmp_path / "g.json").read_bytes()

        def interrupted(graph):
            chunks = real_chunks(graph)
            yield next(chunks)
            yield next(chunks)
            raise KeyboardInterrupt

        real_chunks = graph_mod._graph_chunks
        monkeypatch.setattr(graph_mod, "_graph_chunks", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_graph_file(random_graph(np.random.default_rng(5), 50, 300), tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]

    def test_file_reader_decodes_as_load_graph_does(self, tmp_path):
        # load_graph_file maps the file; an empty file cannot be mapped and is read.
        blob = save_graph(self._toy_graph())
        path = tmp_path / "g.json"
        path.write_bytes(blob)
        g = load_graph_file(path)
        assert (g.nodes, g.edges, g.thresholds) == (lambda h: (h.nodes, h.edges, h.thresholds))(
            load_graph(blob))
        for bad in (b"", blob[: len(blob) // 2], b'{"format": "motion-graph/2", "x": "\xff"}'):
            path.write_bytes(bad)
            with pytest.raises(GraphParseError) as from_bytes:
                load_graph(bad)
            with pytest.raises(GraphParseError) as from_file:
                load_graph_file(path)
            assert (str(from_file.value), from_file.value.offset) == (
                str(from_bytes.value), from_bytes.value.offset)

    def test_non_finite_thresholds_stay_out_of_files(self, tmp_path):
        g = self._toy_graph()
        open_gate = VideoMotionGraph(g.nodes, g.edges, Thresholds(math.inf, 0.6, 4))
        with pytest.raises(ValidationError, match="thresholds must be finite"):
            save_graph(open_gate)
        with pytest.raises(ValidationError, match="thresholds must be finite"):
            save_graph_file(open_gate, tmp_path / "g.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc["thresholds"].update(tau_feat=math.nan), id="nan-tau"),
            pytest.param(lambda doc: doc["thresholds"].update(tau_img=math.inf), id="inf-tau"),
            pytest.param(lambda doc: doc.update(velocity_weight=math.nan), id="nan-weight"),
            pytest.param(lambda doc: doc.update(velocity_weight=-1.0), id="negative-weight"),
            pytest.param(lambda doc: doc.update(fps=math.nan), id="nan-fps"),
            pytest.param(lambda doc: doc.update(fps=0.0), id="zero-fps"),
            pytest.param(lambda doc: doc.update(fps=-5.0), id="negative-fps"),
            pytest.param(lambda doc: doc.update(fps=math.inf), id="inf-fps"),
            pytest.param(lambda doc: doc.update(min_jump=-3), id="negative-min-jump"),
            pytest.param(lambda doc: doc.update(min_jump=1), id="min-jump-1"),
            pytest.param(lambda doc: doc.update(min_jump=2.5), id="fractional-min-jump"),
            pytest.param(lambda doc: doc.update(min_jump="3"), id="text-min-jump"),
            pytest.param(lambda doc: doc.update(min_jump=True), id="boolean-min-jump"),
            pytest.param(lambda doc: doc["thresholds"].update(offset_l=4.9),
                         id="fractional-offset-l"),
            pytest.param(lambda doc: doc["thresholds"].update(offset_l=True),
                         id="boolean-offset-l"),
        ],
    )
    def test_bad_header_is_parse_error(self, edit):
        doc = json.loads(save_graph(self._toy_graph()))
        edit(doc)
        with pytest.raises(GraphParseError):
            load_graph(json.dumps(doc).encode())


def random_graph(rng, n, n_synthetic):
    """A graph of n featureless nodes: the natural chain plus n_synthetic
    distinct random jumps with random distances."""
    if n_synthetic > (n - 1) * (n - 2):
        raise ValueError(f"a {n}-frame graph has only {(n - 1) * (n - 2)} distinct jumps, "
                         f"not {n_synthetic}")
    pairs = set()
    while len(pairs) < n_synthetic:
        m, k = (int(v) for v in rng.integers(0, n, size=2))
        if abs(m - k) >= 2:
            pairs.add((m, k))
    nodes = [GraphNode(i, False, "") for i in range(n)]
    edges = [GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(n - 1)]
    edges += [GraphEdge(m, k, "synthetic", *rng.uniform(0.0, 0.1, size=2).tolist())
              for m, k in sorted(pairs)]
    return VideoMotionGraph(nodes, edges, Thresholds(0.1, 0.1, 4))


def test_random_graph_refuses_more_jumps_than_the_graph_has():
    rng = np.random.default_rng(0)
    assert int(random_graph(rng, 4, 6).synthetic.sum()) == 6
    with pytest.raises(ValueError, match="only 2 distinct jumps"):
        random_graph(rng, 3, 3)
