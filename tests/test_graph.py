import base64
import io
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from motiongraph import fixtures, graph as graph_mod, kernels
from motiongraph.audio import AudioFeatureTrack, EndpointFeature, SegmentList
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
from motiongraph.pose import (
    JointState,
    compute_joint_states,
    pair_distances,
    pose_distance,
    state_rows,
)
from motiongraph.search import BeamConfig, beam_search
from motiongraph.silhouette import (
    default_camera,
    rasterize_sequence,
    rasterize_silhouette,
)

from conftest import make_sequence
from oracles import (
    first_pair_violation,
    full_matrix_gate,
    image_distance,
    pair_rows,
    per_row_pair_distances,
)

SMOOTH_CAMERA = default_camera((64, 64), focal_length=60.0)


# Graph headers that no graph may carry, with the rule each one breaks.
BAD_HEADERS = [
    pytest.param({"fps": math.nan}, "fps must be a finite number > 0", id="fps-nan"),
    pytest.param({"fps": 0.0}, "fps must be a finite number > 0", id="fps-zero"),
    pytest.param({"fps": -5.0}, "fps must be a finite number > 0", id="fps-negative"),
    pytest.param({"fps": math.inf}, "fps must be a finite number > 0", id="fps-inf"),
    pytest.param({"fps": True}, "fps must be a finite number > 0", id="fps-boolean"),
    pytest.param({"velocity_weight": "1"}, "velocity_weight must be a finite number >= 0",
                 id="velocity-weight-text"),
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

    def test_threshold_that_is_not_a_number_rejected(self):
        with pytest.raises(ValidationError, match="tau_feat must be a finite number >= 0"):
            Thresholds("0.1", 0.5, 4)

    def test_open_gate_threshold_is_kept_as_a_float(self):
        # A tau is finite: no infinite open gate, and no int beyond the float range.
        for tau in (math.inf, np.inf, 10**400):
            with pytest.raises(ValidationError, match="tau_feat must be a finite number >= 0"):
                Thresholds(tau, 0.5, 4)
        assert type(Thresholds(np.float64(0.5), 0, 4).tau_img) is float

    @pytest.mark.parametrize("offset_l", [4.9, 4.0, True, "4", 0, np.float64(4.0)])
    def test_offset_must_be_an_integer_at_least_1(self, offset_l):
        # A fractional offset is refused, not truncated.
        with pytest.raises(ValidationError, match="offset_l must be an integer >= 1"):
            Thresholds(0.1, 0.1, offset_l)

    @pytest.mark.parametrize("offset_l", [2.5, "4", True, 0])
    def test_compute_offset_must_be_an_integer_at_least_1(self, smooth_setup, offset_l):
        states, masks = smooth_setup
        with pytest.raises(ValidationError, match="offset_l must be an integer >= 1"):
            compute_thresholds(states, masks, offset_l=offset_l)

    def test_compute_accepts_a_numpy_integer_offset(self, smooth_setup):
        states, masks = smooth_setup
        thresholds = compute_thresholds(states, masks, offset_l=np.int64(4))
        assert thresholds == compute_thresholds(states, masks, offset_l=4)
        assert type(thresholds.offset_l) is int

    def test_numpy_integer_offset_accepted(self):
        thresholds = Thresholds(0.1, 0.1, np.int64(4))
        assert thresholds.offset_l == 4
        assert type(thresholds.offset_l) is int  # so the graph writer can encode it
        graph = column_graph(1, thresholds=thresholds)
        assert load_graph(save_graph(graph)).thresholds == thresholds


class TestBuildGraph:
    @pytest.mark.parametrize("word, message", [
        pytest.param("hi\0", r"keyword 'hi\\x00' would be stored as 'hi'", id="ending-in-nul"),
        pytest.param(None, "keyword None would be stored as 'None'", id="not-a-string"),
    ])
    def test_keyword_the_graph_cannot_hold_rejected(self, smooth_setup, word, message):
        states, masks = smooth_setup
        features = no_feature(len(states))
        features[3] = (False, word)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build_graph(states, masks, features, Thresholds(0.0, 0.0, 4))

    @pytest.mark.parametrize("onset, dtype", [
        pytest.param(onset, dtype, id=str(onset)) for onset, dtype in
        [("no", "<U5"), (2, "int64"), (None, "object"), (np.float64(0.5), "float64"),
         (0, "int64")]])
    def test_onset_flag_that_is_not_a_bool_rejected(self, smooth_setup, onset, dtype):
        # build_graph's rule: a flag is refused, never converted.
        states, masks = smooth_setup
        features = no_feature(len(states))
        features[3] = (onset, "")
        message = f"^onset must be a 1-D column of bools, got dtype {dtype}$"
        with pytest.raises(ValidationError, match=message):
            build_graph(states, masks, features, Thresholds(0.0, 0.0, 4))
        features[3] = (np.True_, "")
        assert build_graph(states, masks, features, Thresholds(0.0, 0.0, 4)).onset[3]

    @pytest.mark.parametrize("flags, dtype", [
        pytest.param(lambda n: [True, 1] * (n // 2), "int64", id="integer-among-bools"),
        pytest.param(lambda n: ["no"] * n, "<U2", id="text"),
        pytest.param(lambda n: np.linspace(0.0, 1.0, n), "float64", id="float-array"),
    ])
    def test_bad_onset_flags_get_one_message_everywhere(self, smooth_setup, flags, dtype):
        # The track, the graph build and the graph check onsets by the one column rule.
        states, masks = smooth_setup
        onset, n = flags(len(states)), len(states)
        message = f"^onset must be a 1-D column of bools, got dtype {dtype}$"
        with pytest.raises(ValidationError, match=message):
            AudioFeatureTrack(30.0, onset, ("",) * n)
        with pytest.raises(ValidationError, match=message):
            build_graph(states, masks, [(on, "") for on in onset], Thresholds(0.0, 0.0, 4))
        with pytest.raises(ValidationError, match=message):
            VideoMotionGraph(onset, [""] * n, [], [], [], [], Thresholds(0.0, 0.0, 4))

    def test_zero_thresholds_only_natural_chain(self, smooth_setup):
        states, masks = smooth_setup
        g = build_graph(states, masks, no_feature(len(states)), Thresholds(0.0, 0.0, 4))
        assert len(g.edges) == len(states) - 1
        assert all(e.kind == "natural" for e in g.edges)

    def test_open_gate_full_count(self, smooth_setup):
        states, masks = smooth_setup
        states, masks = states[:10], masks[:10]
        g = build_graph(states, masks, no_feature(10), Thresholds(1e9, 1.0, 4))
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
            states, masks, no_feature(len(states)), Thresholds(1e9, 1.0, 4), min_jump=8
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

    def test_joint_count_mismatch_names_the_state(self, smooth_setup):
        states, masks = smooth_setup
        states = list(states)
        states[5] = JointState(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(StructuralError, match="joint state 5"):
            build_graph(states, masks, no_feature(len(states)), Thresholds(0.1, 0.1, 4))
        with pytest.raises(StructuralError):
            compute_thresholds(states, masks)

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
        assert loaded.m.size > 0
        end = EndpointFeature("end")
        segments = SegmentList(n_frames=21, endpoints=(1, 11, 21), features=(end, end, end))
        assert beam_search(loaded, segments, BeamConfig(), seed=0).paths

    def test_columns_are_read_only(self, smooth_setup):
        states, masks = smooth_setup
        # Thresholds that keep some pairs, so every column has a row to write.
        g = build_graph(states, masks, no_feature(len(states)), Thresholds(0.5, 0.5, 4))
        assert g.m.size > 1
        for column in (g.onset, g.keyword, g.m, g.n, g.d_feat, g.d_img):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    def test_edges_view_is_rebuilt_on_each_read_and_not_kept(self, smooth_setup):
        states, masks = smooth_setup
        g = build_graph(states, masks, no_feature(len(states)), Thresholds(0.5, 0.5, 4))
        first, second = g.edges, g.edges
        assert first == second and first is not second
        assert "edges" not in vars(g)
        assert g.nodes is g.nodes  # N small records, kept

    def test_records_have_no_instance_dict(self):
        for record in (GraphNode(0, False, ""), GraphEdge(0, 1, "natural", 0.0, 0.0)):
            assert not hasattr(record, "__dict__")


class TestPairGating:
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("min_jump, velocity_weight", [(2, 1.0), (5, 0.5)])
    def test_tiled_gate_equals_full_matrix(self, monkeypatch, block, min_jump, velocity_weight):
        rng = np.random.default_rng(block)
        states = random_states(rng, 50)
        tau = float(np.median([pose_distance(states[0], s, velocity_weight) for s in states[1:]]))
        # Blocks of 1, 7 and 64 rows of the 50: the budget in entries, one short
        # of the next row.
        monkeypatch.setattr(graph_mod, "GATE_CELLS", block * 50 + 49)
        counts = []
        for tau_feat in (0.0, tau, np.inf):
            mm, nn = graph_mod._gate_pairs(*state_rows(states), velocity_weight, tau_feat,
                                           min_jump)
            ref_mm, ref_nn = full_matrix_gate(states, velocity_weight, tau_feat, min_jump)
            assert np.array_equal(mm, ref_mm) and np.array_equal(nn, ref_nn)
            counts.append(len(mm))
        # The median gate keeps some pairs and drops others.
        assert counts[0] < counts[1] < counts[2]

    def test_exact_filter_bit_equal_to_the_per_row_loop(self):
        # The demo fixture's 2000 reference frames and the pairs its pre-gate
        # passes at compute_thresholds' tau_feat (the same sequential sum).
        states = compute_joint_states(fixtures.puppet_skeleton(), fixtures.puppet_sequence(2000))
        offset = graph_mod.DEFAULT_OFFSET_L
        tau = sum(pose_distance(a, b) for a, b in zip(states, states[offset:]))
        tau /= len(states) - offset
        rows = state_rows(states)
        mm, nn = graph_mod._gate_pairs(*rows, 1.0, tau, graph_mod.DEFAULT_MIN_JUMP)
        assert len(mm) == 114042
        for velocity_weight in (1.0, 0.37):
            got = pair_distances(*rows, mm, nn, velocity_weight)
            want = per_row_pair_distances(*rows, mm, nn, velocity_weight)
            assert got.tobytes() == want.tobytes()

    def test_build_peak_memory_below_one_pair_matrix(self):
        # One N x N float64 matrix at N = 3000 is 72 MB; the tiled gate keeps a
        # few blocks of GATE_CELLS entries.
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


# Each breaks exactly one pair rule (endpoint range, finite distance, min_jump = 2)
# as the one transition of a 4-frame graph.
BAD_EDGES = [
    pytest.param((0, 7, 0.0, 0.0), "outside frames", id="dst-past-end"),
    pytest.param((-1, 2, 0.0, 0.0), "outside frames", id="negative-src"),
    pytest.param((0, 2, math.nan, 0.0), "non-finite", id="nan-distance"),
    pytest.param((1, 2, 0.0, 0.0), "min_jump", id="short-jump"),
]


# Each replaces node 1's value in a node column, or the transition (0, 2)'s value in a
# pair column, with a value of another type, or one its column would change, which is
# refused, never converted.
BAD_RECORD_FIELDS = [
    pytest.param("onset", 2, "onset must be a 1-D column of bools, got dtype int64",
                 id="integer-onset"),
    pytest.param("onset", "no", "onset must be a 1-D column of bools, got dtype <U5",
                 id="text-onset"),
    pytest.param("keyword", 5, "keyword 5 would be stored as '5'", id="integer-keyword"),
    # A str column drops trailing NULs, so such a word is refused, not cut.
    pytest.param("keyword", "hi\0", "keyword 'hi\\x00' would be stored as 'hi'",
                 id="keyword-ending-in-nul"),
    pytest.param("m", True, "m must be a 1-D column of integers within int64, got dtype bool",
                 id="boolean-src"),
    pytest.param("n", 2.7, "n must be a 1-D column of integers within int64, got dtype float64",
                 id="fractional-dst"),
    pytest.param("n", 2**70, "n must be a 1-D column of integers within int64, got dtype object",
                 id="dst-beyond-int64"),
    pytest.param("d_feat", "0.1", "d_feat must be a 1-D column of real numbers, got dtype <U3",
                 id="text-d-feat"),
    pytest.param("d_feat", True, "d_feat must be a 1-D column of real numbers, got dtype bool",
                 id="boolean-d-feat"),
    pytest.param("d_img", None, "d_img must be a 1-D column of real numbers, got dtype object",
                 id="null-d-img"),
]


#: The columns of a 4-frame graph with the transitions (0, 2) and (1, 3).
GOOD_COLUMNS = dict(onset=[False] * 4, keyword=[""] * 4, m=[0, 1], n=[2, 3],
                    d_feat=[0.5, 0.25], d_img=[0.5, 0.25])
OUT_OF_ORDER = "is out of order: pairs rise strictly by (m, n), each with m < n"

# Each edits GOOD_COLUMNS into a graph that a column rule or a pair rule refuses,
# with the whole message, which names the first offending column or pair.
BAD_COLUMNS = [
    pytest.param({"onset": [[False] * 4]}, ValidationError,
                 "onset must be a 1-D column of bools, got shape (1, 4)", id="2-d-onset"),
    pytest.param({"onset": np.zeros(4, dtype=np.uint8)}, ValidationError,
                 "onset must be a 1-D column of bools, got dtype uint8", id="byte-onset"),
    pytest.param({"keyword": [[""]] * 4}, ValidationError,
                 "keyword must be a 1-D column of strings, got shape (4, 1)", id="2-d-keyword"),
    pytest.param({"keyword": [""] * 3}, StructuralError, "keyword holds 3 values for 4 nodes",
                 id="keyword-count"),
    pytest.param({"m": 0}, ValidationError,
                 "m must be a 1-D column of integers within int64, got shape ()", id="scalar-m"),
    pytest.param({"m": [0.0, 1.0]}, ValidationError,
                 "m must be a 1-D column of integers within int64, got dtype float64",
                 id="float-m"),
    pytest.param({"n": np.array([2, 3], dtype=np.uint64)}, ValidationError,
                 "n must be a 1-D column of integers within int64, got dtype uint64",
                 id="uint64-n"),
    pytest.param({"d_feat": [0.5 + 0j, 0.25]}, ValidationError,
                 "d_feat must be a 1-D column of real numbers, got dtype complex128",
                 id="complex-d-feat"),
    pytest.param({"d_img": np.zeros((2, 1))}, ValidationError,
                 "d_img must be a 1-D column of real numbers, got shape (2, 1)", id="2-d-d-img"),
    # np.asarray reads a bool among numbers as 0 or 1, so a list's own entries are looked at.
    pytest.param({"m": [0, True]}, ValidationError,
                 "m must be a 1-D column of integers within int64, got a boolean entry",
                 id="bool-in-m"),
    pytest.param({"n": [True, 3]}, ValidationError,
                 "n must be a 1-D column of integers within int64, got a boolean entry",
                 id="bool-in-n"),
    pytest.param({"d_feat": [0.5, True]}, ValidationError,
                 "d_feat must be a 1-D column of real numbers, got a boolean entry",
                 id="bool-in-d-feat"),
    pytest.param({"d_img": [0.5, np.True_]}, ValidationError,
                 "d_img must be a 1-D column of real numbers, got a boolean entry",
                 id="numpy-bool-in-d-img"),
    pytest.param({"n": [2]}, StructuralError, "n holds 1 values for 2 pairs", id="short-n"),
    pytest.param({"d_feat": [0.5, 0.25, 0.0]}, StructuralError,
                 "d_feat holds 3 values for 2 pairs", id="long-d-feat"),
    pytest.param({"d_img": []}, StructuralError, "d_img holds 0 values for 2 pairs",
                 id="empty-d-img"),
    # The column rules come before the pair rules.
    pytest.param({"m": [1, 0], "d_img": [True, False]}, ValidationError,
                 "d_img must be a 1-D column of real numbers, got dtype bool",
                 id="column-before-pair"),
    pytest.param({"m": [0, 0], "n": [2, 2]}, ValidationError, f"pair (0, 2) {OUT_OF_ORDER}",
                 id="duplicate-pair"),
    pytest.param({"m": [1, 0], "n": [3, 2]}, ValidationError, f"pair (0, 2) {OUT_OF_ORDER}",
                 id="falling-pairs"),
    pytest.param({"m": [2, 1], "n": [0, 3]}, ValidationError, f"pair (2, 0) {OUT_OF_ORDER}",
                 id="m-above-n"),
    pytest.param({"m": [0, 1], "n": [2, 1]}, ValidationError, f"pair (1, 1) {OUT_OF_ORDER}",
                 id="self-pair"),
    pytest.param({"n": [2, 4]}, ValidationError,
                 "edge (1, 4) has an endpoint outside frames 0..3", id="n-past-the-end"),
    pytest.param({"m": [-1, 1]}, ValidationError,
                 "edge (-1, 2) has an endpoint outside frames 0..3", id="negative-m"),
    pytest.param({"d_img": [0.5, math.inf]}, ValidationError,
                 "edge (1, 3) has a non-finite distance", id="infinite-d-img"),
    pytest.param({"d_feat": [math.nan, 0.25], "n": [2, 9]}, ValidationError,
                 "edge (0, 2) has a non-finite distance", id="first-of-two-bad-pairs"),
    pytest.param({"m": [0, 2], "n": [2, 3]}, ValidationError,
                 "synthetic edge (2, 3) jumps less than min_jump", id="short-jump"),
]


class TestGraphInvariants:
    """A graph's columns, and each node's and each transition's record across them."""

    @pytest.mark.parametrize("edit, error, message", BAD_COLUMNS)
    def test_constructor_refuses_bad_columns_and_pairs(self, edit, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            VideoMotionGraph(**(GOOD_COLUMNS | edit), thresholds=Thresholds(1, 1, 4))
        graph = VideoMotionGraph(**GOOD_COLUMNS, thresholds=Thresholds(1, 1, 4))
        assert (graph.m.tolist(), graph.n.tolist()) == ([0, 1], [2, 3])

    def test_min_jump_is_the_graphs(self):
        with pytest.raises(ValidationError, match=r"^synthetic edge \(0, 2\) jumps less than "):
            VideoMotionGraph(**GOOD_COLUMNS, thresholds=Thresholds(1, 1, 4), min_jump=3)

    @pytest.mark.parametrize("d_feat, d_img", [(0.25, 0.0), (0.0, 5e-324), (-0.5, 0.5)])
    def test_costed_natural_edge_rejected(self, d_feat, d_img):
        # The search plays a natural edge at cost 0, so a transition between
        # consecutive frames, which would give it a cost, is refused.
        with pytest.raises(ValidationError,
                           match=r"^synthetic edge \(1, 2\) jumps less than min_jump$"):
            column_graph(4, [(1, 2, d_feat, d_img)])
        assert column_graph(4).edge_costs([1], [2]).tolist() == [0.0]

    def test_self_edge_rejected(self):
        with pytest.raises(ValidationError, match=rf"^pair \(1, 1\) {re.escape(OUT_OF_ORDER)}$"):
            column_graph(3, [(1, 1, 0.0, 0.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match=rf"^pair \(0, 2\) {re.escape(OUT_OF_ORDER)}$"):
            column_graph(4, [(0, 2, 0.0, 0.0), (0, 2, 0.0, 0.0)])

    @pytest.mark.parametrize("bad, reason", BAD_EDGES)
    def test_bad_edge_rejected(self, bad, reason):
        with pytest.raises(ValidationError, match=reason):
            column_graph(4, [bad])

    def test_messages_match_the_edge_loop(self):
        # Random small graphs, most with a defect: random extra transitions, some with
        # an endpoint outside the graph or a non-finite distance, half of them shuffled.
        rng = np.random.default_rng(11)
        distances = [0.0, 0.25, 0.5, math.nan, math.inf]
        raised, rules = 0, set()
        for _ in range(600):
            size = int(rng.integers(0, 7))
            min_jump = int(rng.integers(2, 4))
            pairs = {(a, b) for a in range(size) for b in range(a + min_jump, size)
                     if rng.random() < 0.3}
            pairs |= {(int(rng.integers(-1, size + 1)), int(rng.integers(-1, size + 1)))
                      for _ in range(int(rng.integers(0, 3)))}
            pairs = [(a, b, *(float(rng.choice(distances, p=[0.6, 0.2, 0.16, 0.02, 0.02]))
                              for _ in range(2))) for a, b in sorted(pairs)]
            if rng.random() < 0.5:
                pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            expected = first_pair_violation(size, pairs, min_jump)
            if expected is None:
                column_graph(size, pairs, min_jump=min_jump)
                continue
            with pytest.raises(ValidationError) as err:
                column_graph(size, pairs, min_jump=min_jump)
            assert str(err.value) == expected
            raised += 1
            rules.add(expected.split(") ", 1)[1][:16])  # the rule, after the pair
        assert 200 < raised < 550 and len(rules) == 4

    def test_keyword_with_a_nul_inside_is_kept(self):
        graph = column_graph(2, keyword=["h\0i", ""])
        assert graph.keyword.tolist() == ["h\0i", ""]

    @pytest.mark.parametrize("column, value, message", BAD_RECORD_FIELDS)
    def test_record_field_of_another_type_rejected(self, column, value, message):
        columns = dict(onset=[False] * 4, keyword=[""] * 4, m=[0], n=[2], d_feat=[0.5],
                       d_img=[0.5])
        columns[column][1 if column in ("onset", "keyword") else 0] = value
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            VideoMotionGraph(**columns, thresholds=Thresholds(1.0, 1.0, 4))

    def test_numpy_record_values_are_stored_as_given(self):
        # Numpy scalars and arrays of narrower dtypes are held in the graph's dtypes.
        graph = VideoMotionGraph(
            [np.bool_(i == 1) for i in range(4)], np.array(["hi"] * 4), np.array([0], np.int32),
            np.array([2], np.uint8), np.array([0.5], np.float32), [np.int64(1)],
            Thresholds(1.0, 1.0, 4))
        assert graph.nodes == tuple(GraphNode(i, i == 1, "hi") for i in range(4))
        assert graph.edges[-2:] == (GraphEdge(0, 2, "synthetic", 0.5, 1.0),
                                    GraphEdge(2, 0, "synthetic", 0.5, 1.0))
        assert [c.dtype for c in (graph.onset, graph.m, graph.n, graph.d_feat, graph.d_img)] == [
            np.dtype(bool), np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64),
            np.dtype(np.float64)]

    def test_columns_of_the_graphs_dtypes_are_held_and_made_read_only(self):
        m, n = np.array([0, 1]), np.array([2, 3])
        graph = VideoMotionGraph(np.zeros(4, dtype=bool), [""] * 4, m, n, np.full(2, 0.5),
                                 np.full(2, 0.5), Thresholds(1.0, 1.0, 4))
        assert graph.m is m and graph.n is n
        with pytest.raises(ValueError, match="read-only"):
            m[0] = 1

    @pytest.mark.parametrize("header, reason", BAD_HEADERS)
    def test_bad_header_rejected(self, header, reason):
        with pytest.raises(ValidationError, match=reason):
            column_graph(4, **header)

    def test_integer_min_jump_kept_as_int(self):
        graph = column_graph(4, min_jump=np.int64(3))
        assert graph.min_jump == 3 and type(graph.min_jump) is int

    def test_numpy_header_reals_kept_as_floats(self):
        graph = column_graph(4, fps=np.float32(25.0), velocity_weight=np.int64(2))
        assert (graph.fps, graph.velocity_weight) == (25.0, 2.0)
        assert type(graph.fps) is float and type(graph.velocity_weight) is float

    def test_first_offending_edge_is_named(self):
        outside, short = (0, 7, 0.0, 0.0), (1, 2, 0.0, 0.0)
        with pytest.raises(ValidationError, match=r"edge \(0, 7\) has an endpoint outside"):
            column_graph(4, [outside, short])
        with pytest.raises(ValidationError, match=r"synthetic edge \(1, 2\) jumps less than"):
            column_graph(4, [short, (1, 7, 0.0, 0.0)])
        # The second of two equal pairs is the duplicate.
        with pytest.raises(ValidationError, match=r"pair \(1, 3\) is out of order"):
            column_graph(4, [(1, 3, 0.0, 0.0), (1, 3, 0.5, 0.5), short])

    @pytest.mark.parametrize("order, first", [
        pytest.param([0, 2, 1], (0, 3), id="swapped-synthetic-rows"),
        pytest.param([1, 0, 2], (0, 2), id="falling-n"),
        pytest.param([2, 0, 1], (0, 2), id="last-row-first"),
    ])
    def test_record_list_out_of_order_is_refused(self, order, first):
        # The transitions (0, 2), (0, 3) and (1, 3) of a 4-frame graph, in another order.
        pairs = [(0, 2, 0.5, 0.5), (0, 3, 0.5, 0.5), (1, 3, 0.5, 0.5)]
        with pytest.raises(ValidationError,
                           match=rf"^pair \({first[0]}, {first[1]}\) is out of order: "):
            column_graph(4, [pairs[i] for i in order], Thresholds(1, 1, 4))


class TestEdgeRows:
    """Edges found by their endpoints: ``edge_costs`` against the ``edges`` records."""

    def check(self, graph, src, dst):
        cost = {(e.src, e.dst): e.d_feat + e.d_img for e in graph.edges}
        got = graph.edge_costs(src, dst)
        want = np.array([cost.get((a, b), math.nan) for a, b in zip(src, dst)], dtype=np.float64)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        return got

    def test_matches_the_edge_records_on_random_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            n_pairs = min(int(rng.integers(0, 3 * n // 2)), (n - 1) * (n - 2) // 2)
            graph = random_graph(rng, n, n_pairs)
            edges = graph.edges
            # Every edge, its reverse, and random pairs, endpoints outside
            # the graph included.
            src = [e.src for e in edges] + [e.dst for e in edges]
            dst = [e.dst for e in edges] + [e.src for e in edges]
            extra = rng.integers(-2, n + 2, size=(2, 50)).tolist()
            got = self.check(graph, src + extra[0], dst + extra[1])
            assert not np.isnan(got[: len(edges)]).any()
            assert np.isnan(got[len(edges):]).any()

    def test_graph_without_synthetic_edges(self):
        graph = random_graph(np.random.default_rng(1), 12, 0)
        assert graph.m.size == 0
        self.check(graph, list(range(12)) + [3, 5, 11], list(range(1, 13)) + [2, 7, 0])
        assert self.check(graph, [0], [1]).tolist() == [0.0]

    def test_edges_are_the_row_expansion_of_the_pairs(self):
        # Random transitions of graphs of 0, 1, 2, 3 nodes and more, none among them at
        # times, at distances that include -0.0, a subnormal and ties.
        rng = np.random.default_rng(15)
        values = [-0.0, 0.0, 5e-324, 0.1, 1 / 3]
        for size in [0, 1, 2, 3, *rng.integers(4, 30, size=60).tolist()]:
            ends = np.array([(a, b) for a in range(size) for b in range(a + 2, size)],
                            dtype=np.int64).reshape(-1, 2)
            m, n = ends[rng.random(len(ends)) < rng.choice([0.0, rng.random()])].T
            d_feat, d_img = rng.choice(values, size=(2, m.size))
            graph = VideoMotionGraph(np.zeros(size, dtype=bool), [""] * size, m, n, d_feat, d_img,
                                     Thresholds(1.0, 1.0, 4))
            src, dst, synthetic, f, i = pair_rows(size, m, n, d_feat, d_img)
            kinds = np.where(synthetic, "synthetic", "natural").tolist()
            want = list(zip(src.tolist(), dst.tolist(), kinds, map(float.hex, f.tolist()),
                            map(float.hex, i.tolist())))
            assert [(e.src, e.dst, e.kind, e.d_feat.hex(), e.d_img.hex())
                    for e in graph.edges] == want
            assert all(type(v) is int for e in graph.edges for v in (e.src, e.dst))

    def test_single_frame_graph_has_no_edges(self):
        graph = column_graph(1)
        assert np.isnan(graph.edge_costs([0, 0, 1], [0, 1, 0])).all()
        assert graph.edge_costs([], []).shape == (0,)

    def test_node_ids_beyond_int64_are_absent(self):
        graph = random_graph(np.random.default_rng(2), 6, 2)
        got = graph.edge_costs([0, 2**70, 1], [1, 2, -(2**70)])
        assert got[0] == 0.0 and np.isnan(got[1:]).all()

    @pytest.mark.parametrize("src, dst, name", [
        pytest.param([0.0001], [2], "src", id="fraction-read-as-node-0"),
        pytest.param([0.0001], [1.0001], "src", id="fractions-read-as-a-natural-step"),
        pytest.param([True], [2], "src", id="bool-read-as-node-1"),
        pytest.param([0], np.array([2.0]), "dst", id="float-array"),
        pytest.param([2**70, 1.5], [2, 3], "src", id="fraction-among-big-ints"),
        pytest.param([0, 1], [True, 3], "dst", id="bool-among-ints"),
    ])
    def test_bool_and_fractional_ids_are_refused_not_truncated(self, src, dst, name):
        graph = column_graph(4, [(0, 2, 0.25, 0.5)], Thresholds(1, 1, 4))
        with pytest.raises(ValidationError, match=rf"^{name} node ids must be integers, got "):
            graph.edge_costs(src, dst)

    def test_integer_ids_of_any_integer_type_are_looked_up(self):
        graph = column_graph(4, [(0, 2, 0.25, 0.5)], Thresholds(1, 1, 4))
        for src in ([2, 0], np.array([2, 0], dtype=np.uint8), [np.int32(2), 0]):
            assert graph.edge_costs(src, [0, 1]).tolist() == [0.75, 0.0]
        got = graph.edge_costs(np.array([2, 2**70], dtype=object), [0, 3])
        assert got[0] == 0.75 and np.isnan(got[1])

    def test_file_with_swapped_synthetic_rows_is_refused(self):
        doc = decoded(save_graph(random_graph(np.random.default_rng(5), 30, 30)))
        a, b = 10, 20  # two of the file's pairs
        for name in ("m", "n", "d_feat", "d_img"):
            doc[name][a], doc[name][b] = doc[name][b], doc[name][a]
        # Pair a now holds the larger key, so the pair after it is the first
        # whose key does not rise.
        first = doc["m"][a + 1], doc["n"][a + 1]
        with pytest.raises(GraphParseError, match=rf"pair \({first[0]}, {first[1]}\) is out of "
                           r"order: pairs rise strictly by \(m, n\), each with m < n$"):
            load_graph(encoded(doc))

    @pytest.mark.parametrize("pair", [(2, 0), (1, 1)])
    def test_file_pair_with_m_not_below_n_is_refused(self, pair):
        # A lone pair (2, 0) would expand into rows in the canonical order:
        # the pair rule refuses it, never swaps it.
        doc = decoded(save_graph(random_graph(np.random.default_rng(6), 5, 0)))
        doc.update(pairs=1, m=[pair[0]], n=[pair[1]], d_feat=[0.5], d_img=[0.5])
        with pytest.raises(GraphParseError,
                           match=rf"pair \({pair[0]}, {pair[1]}\) is out of order"):
            load_graph(encoded(doc))


#: The refusal of a graph file whose first HEADER_PIECE bytes hold neither a
#: newline nor the motion-graph/5 format member.
NO_HEADER_LINE = (r"^graph document has no motion-graph/5 header line in its first \d+ bytes; "
                  "older layouts were one JSON document with no newline$")


class TestSerialization:
    def _toy_graph(self):
        return column_graph(4, [(0, 2, 0.123456789012345678, 0.5), (1, 3, 0.25, 0.75)],
                            Thresholds(0.2, 0.6, 4), onset=[True, False, False, False],
                            keyword=["", "", "hi", ""], fps=25.0)

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
            load_graph(blob[: blob.index(b"\n") // 2])
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
        with pytest.raises(GraphParseError, match="'motion-graph/1', expected 'motion-graph/5'"):
            load_graph(json.dumps(format_1).encode())

    def test_format_2_document_names_both_formats(self):
        # A motion-graph/2 document held each column as a JSON array.
        format_2 = {
            "format": "motion-graph/2", "fps": 25.0, "min_jump": 2, "velocity_weight": 1.0,
            "thresholds": {"tau_feat": 0.2, "tau_img": 0.6, "offset_l": 4},
            "onset": [True, False], "keyword": ["", ""], "src": [0], "dst": [1],
            "synthetic": [False], "d_feat": [0.0], "d_img": [0.0],
        }
        with pytest.raises(GraphParseError, match="'motion-graph/2', expected 'motion-graph/5'"):
            load_graph(json.dumps(format_2, sort_keys=True).encode())

    def test_format_4_file_names_both_formats(self, tmp_path):
        # A motion-graph/4 file was a header line with an edge count, then the
        # columns onset, src, dst, synthetic, d_feat and d_img of every edge.
        g = self._toy_graph()
        edges = g.edges
        header = {"edges": len(edges), "format": "motion-graph/4", "fps": 25.0,
                  "keyword": g.keyword.tolist(), "min_jump": 2, "velocity_weight": 1.0,
                  "thresholds": {"offset_l": 4, "tau_feat": 0.2, "tau_img": 0.6}}
        columns = [np.array([getattr(e, name) for e in edges], dtype=dtype) for name, dtype in
                   (("src", np.int64), ("dst", np.int64), ("d_feat", float), ("d_img", float))]
        synthetic = np.array([e.kind == "synthetic" for e in edges])
        data = b"".join([json.dumps(header, sort_keys=True, separators=(",", ":")).encode(),
                         b"\n", g.onset.tobytes(), columns[0].tobytes(), columns[1].tobytes(),
                         synthetic.tobytes(), columns[2].tobytes(), columns[3].tobytes()])
        (tmp_path / "g.json").write_bytes(data)
        for read in (lambda: load_graph(data), lambda: load_graph_file(tmp_path / "g.json")):
            with pytest.raises(GraphParseError, match="^graph document has format "
                               "'motion-graph/4', expected 'motion-graph/5'$"):
                read()

    def test_format_3_file_names_both_formats(self, tmp_path):
        # A motion-graph/3 file was one JSON document with no newline, each
        # column but keyword the base64 text of its little-endian bytes.
        doc = decoded(save_graph(self._toy_graph()))
        del doc["pairs"]
        for name, dtype in graph_mod.FILE_COLUMNS.items():
            doc[name] = base64.b64encode(np.asarray(doc[name], dtype).tobytes()).decode()
        doc["format"] = "motion-graph/3"
        (tmp_path / "g.json").write_text(json.dumps(doc, sort_keys=True))
        for read in (lambda: load_graph((tmp_path / "g.json").read_bytes()),
                     lambda: load_graph_file(tmp_path / "g.json")):
            with pytest.raises(GraphParseError,
                               match="'motion-graph/3', expected 'motion-graph/5'"):
                read()

    def test_format_3_file_is_refused_in_bounded_memory(self, tmp_path):
        # The same document with 1.2M edges: a 52 MB line with no newline,
        # its format member after three columns. The refusal reads one piece.
        doc = decoded(save_graph(self._toy_graph()))
        del doc["pairs"]
        for name, dtype in graph_mod.FILE_COLUMNS.items():
            column = np.resize(np.asarray(doc[name], dtype), 1_200_000)
            doc[name] = base64.b64encode(column.tobytes()).decode()
        doc["format"] = "motion-graph/3"
        data = json.dumps(doc, sort_keys=True).encode()
        del doc
        assert len(data) >= 50_000_000 and b"\n" not in data
        (tmp_path / "g.json").write_bytes(data)
        for read in (lambda: load_graph(data), lambda: load_graph_file(tmp_path / "g.json")):
            tracemalloc.start()
            try:
                with pytest.raises(GraphParseError, match=NO_HEADER_LINE):
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000

    def test_header_longer_than_a_piece_round_trips(self, tmp_path, monkeypatch):
        # About 22k nodes' keywords make a header line longer than a real piece.
        monkeypatch.setattr(graph_mod, "HEADER_PIECE", 256)
        pairs = random_graph(np.random.default_rng(12), 300, 200)
        g = VideoMotionGraph([i % 7 == 0 for i in range(300)],
                             [("", "hello", "two")[i % 3] for i in range(300)], pairs.m, pairs.n,
                             pairs.d_feat, pairs.d_img, Thresholds(0.1, 0.1, 4))
        blob = save_graph(g)
        assert blob.index(b"\n") > 4 * graph_mod.HEADER_PIECE
        save_graph_file(g, tmp_path / "g.json")
        for loaded in (load_graph(blob), load_graph_file(tmp_path / "g.json")):
            assert save_graph(loaded) == blob
            assert (loaded.nodes, loaded.edges) == (g.nodes, g.edges)

    def test_older_document_longer_than_a_piece_is_refused_after_one_piece(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "HEADER_PIECE", 256)
        doc = decoded(save_graph(random_graph(np.random.default_rng(13), 40, 30)))
        del doc["pairs"]
        doc["format"] = "motion-graph/2"
        data = json.dumps(doc, sort_keys=True).encode()
        assert len(data) > 4 * graph_mod.HEADER_PIECE and b"\n" not in data
        stream = io.BytesIO(data)
        with pytest.raises(GraphParseError, match=NO_HEADER_LINE):
            graph_mod._read_graph(stream, len(data))
        assert stream.tell() == graph_mod.HEADER_PIECE
        with pytest.raises(GraphParseError, match=NO_HEADER_LINE):
            load_graph(data)

    def test_file_holds_one_array_per_column(self):
        blob = save_graph(self._toy_graph())
        # A compact sorted-key JSON header line, then each column's
        # little-endian bytes: onset, then the pairs (0, 2) and (1, 3) as m, n,
        # d_feat and d_img.
        assert blob == (
            b'{"format":"motion-graph/5","fps":25.0,"keyword":["","","hi",""],"min_jump":2,'
            b'"pairs":2,"thresholds":{"offset_l":4,"tau_feat":0.2,"tau_img":0.6},'
            b'"velocity_weight":1.0}\n'
            + bytes([1, 0, 0, 0]) + struct.pack("<2q", 0, 1) + struct.pack("<2q", 2, 3)
            + struct.pack("<2d", 0.123456789012345678, 0.25) + struct.pack("<2d", 0.5, 0.75)
        )
        assert (decoded(blob)["m"], decoded(blob)["n"]) == ([0, 1], [2, 3])
        assert encoded(decoded(blob)) == blob

    def test_roundtrip_is_bit_exact(self):
        g = random_graph(np.random.default_rng(4), 20, 12)
        edge_values = np.array([-0.0, 5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
                                np.finfo(np.float64).max, -np.finfo(np.float64).max, 1 / 3,
                                0.1, 1e-300, 7.0, -1.0, np.nextafter(1.0, 2.0)])
        doc = decoded(save_graph(g))
        doc["d_feat"], doc["d_img"] = edge_values.tolist(), edge_values[::-1].tolist()
        original = load_graph(encoded(doc))
        loaded = load_graph(save_graph(original))
        for name in ("d_feat", "d_img"):
            assert np.array_equal(getattr(loaded, name).view(np.int64),
                                  getattr(original, name).view(np.int64))
        # Pair i holds its values, and so do both of its edges.
        assert (loaded.d_feat.view(np.int64) == edge_values.view(np.int64)).all()
        edges = loaded.edges[19:]
        pair = [min(e.src, e.dst) * 20 + max(e.src, e.dst) for e in edges]
        index = np.searchsorted(np.array(doc["m"]) * 20 + np.array(doc["n"]), pair)
        got = np.array([e.d_feat for e in edges])
        assert (got.view(np.int64) == edge_values[index].view(np.int64)).all()
        for name in ("onset", "keyword", "m", "n"):
            assert np.array_equal(getattr(loaded, name), getattr(original, name))
            assert getattr(loaded, name).dtype == getattr(original, name).dtype

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(lambda doc: doc.update(n=struct.pack("<2q", *doc["n"])[:-4]),
                         "need a newline-ended header line and 68 column bytes, got 64",
                         id="partial-value"),
            pytest.param(lambda doc: doc.pop("d_img"), "68 column bytes, got 52",
                         id="missing-column"),
            pytest.param(lambda doc: doc.update(kind="AAAB"), r"unknown fields \['kind'\]",
                         id="extra-column"),
            pytest.param(lambda doc: doc.update(keyword=[1, None, 2.5]),
                         "keyword 1 would be stored as '1'$", id="keywords-not-strings"),
            pytest.param(lambda doc: doc.update(keyword="hi"),
                         r"keyword must be a 1-D column of strings, got shape \(\)$",
                         id="keywords-not-a-list"),
            pytest.param(lambda doc: doc.update(keyword=["", "", "hi\0", ""]),
                         r"keyword 'hi\\x00' would be stored as 'hi'$", id="keyword-ending-in-nul"),
            pytest.param(lambda doc: doc["thresholds"].update(junk=1),
                         "unexpected keyword argument 'junk'", id="unknown-threshold"),
        ],
    )
    def test_bad_column_text_is_parse_error(self, edit, reason):
        doc = decoded(save_graph(self._toy_graph()))
        edit(doc)
        with pytest.raises(GraphParseError, match=reason):
            load_graph(encoded(doc))

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(lambda blob: blob[:-1], "68 column bytes, got 67",
                         id="truncated-column"),
            pytest.param(lambda blob: blob + b"\0", "68 column bytes, got 69",
                         id="trailing-byte"),
            pytest.param(lambda blob: blob[: blob.index(b"\n")], "got 0 after it",
                         id="no-newline"),
            pytest.param(lambda blob: b"", "not valid JSON", id="empty-file"),
            pytest.param(lambda blob: with_header(blob, pairs=3), "100 column bytes, got 68",
                         id="one-edge-more"),
            pytest.param(lambda blob: with_header(blob, pairs=1), "36 column bytes, got 68",
                         id="one-edge-fewer"),
            # A header that claims a terabyte of columns allocates none of them.
            pytest.param(lambda blob: with_header(blob, pairs=10**12),
                         "32000000000004 column bytes", id="huge-edge-count"),
            pytest.param(lambda blob: with_header(blob, pairs=-1),
                         "pairs must be an integer >= 0", id="negative-edges"),
            pytest.param(lambda blob: with_header(blob, pairs=1.0),
                         "pairs must be an integer >= 0", id="fractional-edges"),
            pytest.param(lambda blob: with_header(blob, pairs=True),
                         "pairs must be an integer >= 0", id="boolean-edges"),
        ],
    )
    def test_header_counts_that_miss_the_file_size_are_parse_error(self, edit, reason):
        bad = edit(save_graph(self._toy_graph()))
        with pytest.raises(GraphParseError, match=reason):
            load_graph(bad)

    def test_empty_graph_header_without_newline_is_parse_error(self):
        # No column bytes follow a header of 0 nodes and 0 edges: only the
        # missing newline is wrong.
        blob = save_graph(column_graph(0))
        assert len(load_graph(blob)) == 0
        with pytest.raises(GraphParseError, match="newline-ended header line and 0 column bytes"):
            load_graph(blob[:-1])

    @pytest.mark.parametrize("column", ["onset"])
    @pytest.mark.parametrize("byte", [2, 255])
    def test_flag_byte_that_is_not_0_or_1_is_parse_error(self, column, byte):
        doc = decoded(save_graph(self._toy_graph()))
        doc[column][-1] = byte
        with pytest.raises(GraphParseError, match=f"{column} bytes must be 0 or 1"):
            load_graph(encoded(doc))

    @pytest.mark.parametrize("i, bad, reason", [
        pytest.param(1, (1, 7, 0.5, 0.5), r"edge \(1, 7\) has an endpoint outside frames 0..3",
                     id="dst-past-end"),
        pytest.param(0, (-1, 2, 0.5, 0.5), r"edge \(-1, 2\) has an endpoint outside frames 0..3",
                     id="negative-src"),
        pytest.param(0, (0, 2, math.nan, 0.5), r"edge \(0, 2\) has a non-finite distance",
                     id="nan-distance"),
        pytest.param(0, (0, 1, 0.5, 0.5), r"synthetic edge \(0, 1\) jumps less than min_jump",
                     id="short-jump"),
    ])
    def test_bad_edge_is_parse_error(self, i, bad, reason):
        # The toy's pair i replaced, in order: the rows it expands into break an edge rule.
        doc = decoded(save_graph(self._toy_graph()))
        for name, value in zip(("m", "n", "d_feat", "d_img"), bad):
            doc[name][i] = value
        with pytest.raises(GraphParseError, match=reason):
            load_graph(encoded(doc))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc["m"].pop(), id="short-m"),
            pytest.param(lambda doc: doc["n"].append(1), id="long-n"),
            pytest.param(lambda doc: doc.update(d_feat=[0.0]), id="length-1-d-feat"),
            pytest.param(lambda doc: doc.update(d_img=[]), id="empty-d-img"),
            pytest.param(lambda doc: doc["keyword"].append("hi"), id="long-keyword"),
            pytest.param(lambda doc: doc.update(onset=[True]), id="length-1-onset"),
        ],
    )
    def test_columns_of_unequal_length_are_parse_error(self, edit):
        # The header's node and edge counts fix every column's length, so a
        # column of another length leaves the file's size wrong.
        doc = decoded(save_graph(self._toy_graph()))
        edit(doc)
        with pytest.raises(GraphParseError, match="newline-ended header line and"):
            load_graph(encoded(doc))

    @pytest.mark.parametrize("column", ["synthetic", "onset"])
    @pytest.mark.parametrize("value", [1, 0, 1.0, "true", None, [True]])
    def test_flag_that_is_not_a_json_boolean_is_parse_error(self, column, value):
        # A flag is a byte after the header line, so a flags list in the
        # header, as the motion-graph/2 layout held it, is refused, with a
        # non-boolean entry or not. A file holds no synthetic flags at all.
        for flags in ([False, False, False, value], [False, False, False, True]):
            with pytest.raises(GraphParseError, match=rf"unknown fields \['{column}'\]"):
                load_graph(with_header(save_graph(self._toy_graph()), **{column: flags}))

    @pytest.mark.parametrize("value", [0, True, "true", {"true": True}])
    def test_flags_column_that_is_not_a_list_is_parse_error(self, value):
        with pytest.raises(GraphParseError):
            load_graph(with_header(save_graph(self._toy_graph()), synthetic=value))

    def test_random_graph_roundtrip(self, smooth_setup):
        rng = np.random.default_rng(10)
        n = 1000
        onset = [bool(rng.random() < 0.1) for _ in range(n)]
        keyword = [str(rng.choice(["", "", "hello", "two"])) for _ in range(n)]
        pairs = {}
        while len(pairs) < 1500:
            m, k = sorted(int(v) for v in rng.integers(0, n, size=2))
            if k - m >= 2 and (m, k) not in pairs:
                pairs[m, k] = float(rng.random()), float(rng.random())
        g = column_graph(n, [(m, k, *pairs[m, k]) for m, k in sorted(pairs)],
                         Thresholds(1.0, 1.0, 4), onset=onset, keyword=keyword)
        g2 = load_graph(save_graph(g))
        assert len(g2.edges) == len(g.edges)
        assert {(e.src, e.dst): (e.d_feat, e.d_img) for e in g2.edges} == {
            (e.src, e.dst): (e.d_feat, e.d_img) for e in g.edges
        }

    def test_bytes_stable(self):
        g = self._toy_graph()
        assert save_graph(g) == save_graph(load_graph(save_graph(g)))

    @pytest.mark.parametrize("seed", [1, 2, 7, 4096])
    def test_file_writer_writes_save_graph_bytes(self, tmp_path, seed):
        one_node = column_graph(1, onset=[True], keyword=["hello"])
        for g in (self._toy_graph(), random_graph(np.random.default_rng(seed), 50, 150),
                  one_node):
            save_graph_file(g, tmp_path / "g.json")
            blob = (tmp_path / "g.json").read_bytes()
            assert blob == save_graph(g)
            assert blob == encoded(decoded(blob))
            assert load_graph_file(tmp_path / "g.json").edges == g.edges

    def test_file_writer_peak_memory_bounded_by_the_chunk(self, tmp_path):
        # save_graph holds the whole file's bytes. The file writer holds the
        # header line and at most one column's bytes at a time.
        g = random_graph(np.random.default_rng(3), 2000, 30000)
        tracemalloc.start()
        try:
            save_graph_file(g, tmp_path / "g.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"save_graph_file peaked at {peak / 1e6:.1f} MB"

    def test_failed_file_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
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
            save_graph_file(random_graph(np.random.default_rng(5), 50, 150), tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]

    def test_file_reader_decodes_as_load_graph_does(self, tmp_path):
        # load_graph reads the bytes through a stream and load_graph_file the
        # open file: both checks and messages are the same.
        blob = save_graph(self._toy_graph())
        path = tmp_path / "g.json"
        path.write_bytes(blob)
        g = load_graph_file(path)
        assert (g.nodes, g.edges, g.thresholds) == (lambda h: (h.nodes, h.edges, h.thresholds))(
            load_graph(blob))
        for bad in (b"", blob[: len(blob) // 2], blob + b"\0", blob[: blob.index(b"\n")],
                    with_header(blob, pairs=3), b'{"format": "motion-graph/5", "x": "\xff"}\n'):
            path.write_bytes(bad)
            with pytest.raises(GraphParseError) as from_bytes:
                load_graph(bad)
            with pytest.raises(GraphParseError) as from_file:
                load_graph_file(path)
            assert (str(from_file.value), from_file.value.offset) == (
                str(from_bytes.value), from_bytes.value.offset)

    def test_file_cut_short_while_read_is_parse_error(self):
        # The size is taken before the columns are read: a file that shrinks
        # in between must not leave unread memory in a column.
        blob = save_graph(self._toy_graph())
        with pytest.raises(GraphParseError, match="ended while it was read"):
            graph_mod._read_graph(io.BytesIO(blob[:-1]), len(blob))

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
            pytest.param(lambda doc: doc["thresholds"].update(tau_img="0.6"), id="text-tau"),
            pytest.param(lambda doc: doc.update(fps=True), id="boolean-fps"),
            pytest.param(lambda doc: doc.update(velocity_weight="1"), id="text-weight"),
        ],
    )
    def test_bad_header_is_parse_error(self, edit):
        doc = decoded(save_graph(self._toy_graph()))
        edit(doc)
        with pytest.raises(GraphParseError):
            load_graph(encoded(doc))


def decoded(blob):
    """A graph file's header fields, and each column after its header line as
    a list, a flag as its byte. The lengths are the header's counts."""
    line, body = blob.split(b"\n", 1)
    doc, offset = json.loads(line), 0
    for name, dtype in graph_mod.FILE_COLUMNS.items():
        count = len(doc["keyword"]) if name == "onset" else doc["pairs"]
        doc[name] = np.frombuffer(body, flag_bytes(dtype), count, offset).tolist()
        offset += count * dtype.itemsize
    return doc


def encoded(doc):
    """The file bytes of a document that ``decoded`` gave, edited or not: its
    other fields as the header line, then the columns it holds, a column
    given as ``bytes`` written as they are."""
    columns = graph_mod.FILE_COLUMNS
    header = {key: value for key, value in doc.items() if key not in columns}
    return b"".join(
        [json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"]
        + [doc[name] if isinstance(doc[name], bytes)
           else np.asarray(doc[name], flag_bytes(dtype)).tobytes()
           for name, dtype in columns.items() if name in doc])


def flag_bytes(dtype):
    """A file column's dtype, with a flag as its byte: 2 is not a bool."""
    return np.dtype("u1") if dtype == bool else dtype


def with_header(blob, **fields):
    """A graph file's bytes with ``fields`` set in its header line, the bytes
    after it unchanged."""
    line, body = blob.split(b"\n", 1)
    return json.dumps({**json.loads(line), **fields}).encode() + b"\n" + body


def random_graph(rng, n, n_pairs):
    """A graph of n featureless nodes: the natural chain plus n_pairs distinct
    random transitions (m, n), n - m >= 2, each as its two synthetic edges at
    one pair of random distances."""
    if n_pairs > (n - 1) * (n - 2) // 2:
        raise ValueError(f"a {n}-frame graph has only {(n - 1) * (n - 2) // 2} distinct "
                         f"transitions, not {n_pairs}")
    pairs = {}
    while len(pairs) < n_pairs:
        m, k = sorted(int(v) for v in rng.integers(0, n, size=2))
        if k - m >= 2 and (m, k) not in pairs:
            pairs[m, k] = rng.uniform(0.0, 0.1, size=2).tolist()
    return column_graph(n, [(m, k, *pairs[m, k]) for m, k in sorted(pairs)],
                        Thresholds(0.1, 0.1, 4))


def column_graph(size, pairs=(), thresholds=Thresholds(0.0, 0.0, 4), onset=None, keyword=None,
                 **header):
    """A graph of ``size`` nodes, featureless unless ``onset`` or ``keyword`` is given, and
    the transitions ``pairs`` (m, n, d_feat, d_img) in the order given."""
    m, n, d_feat, d_img = map(list, zip(*pairs)) if pairs else ([], [], [], [])
    return VideoMotionGraph(onset or [False] * size, keyword or [""] * size, m, n, d_feat, d_img,
                            thresholds, **header)


def test_random_graph_refuses_more_jumps_than_the_graph_has():
    rng = np.random.default_rng(0)
    assert random_graph(rng, 4, 3).m.size == 3
    with pytest.raises(ValueError, match="only 1 distinct transitions"):
        random_graph(rng, 3, 2)
