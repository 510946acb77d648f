import json
import re

import numpy as np
import pytest

from motiongraph import assembly
from motiongraph.assembly import (
    BlendSchedule,
    RunEntry,
    TransitionEntry,
    assemble_edl,
    load_edl,
    make_blend_schedule,
    render_frames,
    render_preview,
    save_edl,
)
from motiongraph.audio import AudioFeatureTrack
from motiongraph.errors import AssemblyError, GraphParseError, StructuralError, ValidationError
from motiongraph.pose import batch_forward_kinematics, forward_kinematics, interpolate_pose
from motiongraph.search import PathCandidate, resample_segment
from motiongraph.silhouette import RASTER_CHUNK, default_camera, rasterize_silhouette

from conftest import make_sequence
from oracles import per_frame_forward_kinematics, per_frame_silhouette
from test_search import segment_list, toy_graph


@pytest.fixture
def wavy_poses(chain_skeleton):
    import math

    def fn(t):
        rot = np.zeros((4, 3))
        rot[0, 2] = 0.4 * math.sin(2 * math.pi * t / 40)
        rot[1, 1] = 0.3 * math.sin(2 * math.pi * t / 28 + 0.3)
        return (0.0, 0.0, 3.0), rot

    return make_sequence(chain_skeleton, fn, 600).frames


class TestBlendSchedule:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_alpha_grid_exact(self, wavy_poses, k):
        sched = make_blend_schedule(wavy_poses, 100, 400, k)
        assert len(sched) == 2 * k + 1
        alphas = [s.alpha for s in sched.steps]
        assert alphas == [i / (2 * k) for i in range(2 * k + 1)]
        diffs = {round(b - a, 15) for a, b in zip(alphas, alphas[1:])}
        assert all(d > 0 for d in diffs)

    def test_documented_k2_example(self, wavy_poses):
        sched = make_blend_schedule(wavy_poses, 100, 400, 2)
        assert [s.alpha for s in sched.steps] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert sched.src_window == (98, 100)
        assert sched.dst_window == (400, 402)
        assert [s.src_frame for s in sched.steps] == [98, 99, 100, 100, 100]
        assert [s.dst_frame for s in sched.steps] == [400, 400, 400, 401, 402]

    def test_endpoints_bit_exact(self, wavy_poses):
        sched = make_blend_schedule(wavy_poses, 100, 400, 4)
        first, last = sched.steps[0], sched.steps[-1]
        assert first.pose is wavy_poses[96]
        assert last.pose is wavy_poses[404]
        assert np.array_equal(first.pose.joint_rotations, wavy_poses[96].joint_rotations)

    def test_k4_creates_eight_frames(self, wavy_poses):
        sched = make_blend_schedule(wavy_poses, 100, 400, 4)
        created = [s for s in sched.steps if s.alpha > 0.0]
        assert len(created) == 8

    def test_midpoint_pairs_cut_frames(self, wavy_poses):
        sched = make_blend_schedule(wavy_poses, 100, 400, 4)
        mid = sched.steps[4]
        assert mid.alpha == 0.5
        assert (mid.src_frame, mid.dst_frame) == (100, 400)

    def test_window_outside_reference_rejected(self, wavy_poses):
        with pytest.raises(AssemblyError):
            make_blend_schedule(wavy_poses, 2, 400, 4)
        with pytest.raises(AssemblyError):
            make_blend_schedule(wavy_poses, 100, len(wavy_poses) - 2, 4)

    @pytest.mark.parametrize("k", [True, 2.5, 0, "4"])
    def test_k_must_be_an_integer_at_least_1(self, wavy_poses, k):
        with pytest.raises(ValidationError, match="blend neighborhood k must be an integer >= 1"):
            make_blend_schedule(wavy_poses, 100, 400, k)

    def test_unequal_windows_named_in_a_short_message(self, wavy_poses):
        steps = make_blend_schedule(wavy_poses, 100, 400, 4).steps
        with pytest.raises(ValidationError) as err:
            BlendSchedule(src_window=(5, 10), dst_window=(20, 24), steps=steps)
        message = str(err.value)
        assert message == ("blend windows must both span k>=1 frames, got "
                           "src_window=(5, 10), dst_window=(20, 24)")
        assert len(message.encode()) < 200


class TestAssembleEdl:
    def _segments(self, n_frames, marks=()):
        return segment_list(n_frames, list(marks))

    def test_pure_natural_single_run(self, wavy_poses):
        graph = toy_graph(60)
        path = PathCandidate(tuple(range(0, 31)), 0.0, 0.0, (0, 30))
        segments = self._segments(31)
        edl = assemble_edl(path, graph, segments, wavy_poses, k=4)
        assert edl.total_frames == 30
        assert len(edl.entries) == 1
        entry = edl.entries[0]
        assert isinstance(entry, RunEntry)
        assert entry.speed_factor == 1.0
        assert (entry.source_start, entry.source_end) == (1, 30)

    def test_transition_replaces_windows(self, wavy_poses):
        graph = toy_graph(200, synthetic=[(60, 120, 0.1, 0.1)])
        nodes = tuple(range(40, 61)) + tuple(range(120, 140))
        # 40 edges: 20 natural, 1 synthetic, 19 natural
        path = PathCandidate(nodes, 0.2, 0.0, (0, len(nodes) - 1))
        segments = self._segments(41)
        edl = assemble_edl(path, graph, segments, wavy_poses, k=4)
        kinds = [type(e).__name__ for e in edl.entries]
        assert kinds == ["RunEntry", "TransitionEntry", "RunEntry"]
        run_a, trans, run_b = edl.entries
        assert run_a.source_end == 55  # 56..60 replaced by the blend window
        assert trans.schedule.src_window == (56, 60)
        assert trans.schedule.dst_window == (120, 124)
        assert run_b.source_start == 125
        assert edl.total_frames == 40
        assert sum(len(e) for e in edl.entries) == 40

    def test_frame_accounting_with_speed_change(self, wavy_poses):
        graph = toy_graph(300, synthetic=[(80, 200, 0.1, 0.1)])
        nodes = tuple(range(50, 81)) + tuple(range(200, 215))
        path = PathCandidate(nodes, 0.2, 0.0, (0, len(nodes) - 1))
        # 45 path edges resampled into 42 output frames
        segments = self._segments(43)
        edl = assemble_edl(path, graph, segments, wavy_poses, k=2)
        assert edl.total_frames == 42
        assert sum(len(e) for e in edl.entries) == 42
        runs = [e for e in edl.entries if isinstance(e, RunEntry)]
        assert all(r.speed_factor != 0 for r in runs)

    @pytest.mark.parametrize(
        "run_frames, out_frames, speed", [(10, 10, 1.0), (110, 100, 1.1), (90, 100, 0.9)]
    )
    def test_speed_factor_is_source_frames_per_output_frame(
        self, wavy_poses, run_frames, out_frames, speed
    ):
        # One natural run played as is, sped up and slowed down.
        graph = toy_graph(200)
        path = PathCandidate(tuple(range(run_frames + 1)), 0.0, 0.0, (0, run_frames))
        edl = assemble_edl(path, graph, self._segments(out_frames + 1), wavy_poses, k=4)
        (entry,) = edl.entries
        assert entry.speed_factor == pytest.approx(speed)
        assert entry.speed_factor == run_frames / out_frames
        assert entry.frames == resample_segment(range(1, run_frames + 1), out_frames)

    def test_run_too_short_rejected(self, wavy_poses):
        graph = toy_graph(300, synthetic=[(80, 200, 0.1, 0.1), (202, 100, 0.1, 0.1)])
        nodes = tuple(range(70, 81)) + (200, 201, 202) + tuple(range(100, 120))
        path = PathCandidate(nodes, 0.4, 0.0, (0, len(nodes) - 1))
        segments = self._segments(len(nodes))
        with pytest.raises(AssemblyError) as err:
            assemble_edl(path, graph, segments, wavy_poses, k=4)
        assert "202" in str(err.value) or "200" in str(err.value)

    @pytest.mark.parametrize("k", [True, 2.5, 0, "4"])
    def test_k_must_be_an_integer_at_least_1(self, wavy_poses, k):
        path = PathCandidate(tuple(range(0, 31)), 0.0, 0.0, (0, 30))
        with pytest.raises(ValidationError, match="blend neighborhood k must be an integer >= 1"):
            assemble_edl(path, toy_graph(60), self._segments(31), wavy_poses, k=k)

    def test_step_that_is_not_an_edge_rejected(self, wavy_poses):
        path = PathCandidate((0, 1, 40, 41), 0.0, 0.0, (0, 3))
        with pytest.raises(AssemblyError, match=r"path step \(1, 40\) is not a graph edge"):
            assemble_edl(path, toy_graph(60), self._segments(4), wavy_poses, k=1)

    def test_fewer_pose_frames_than_graph_nodes_rejected(self, wavy_poses):
        # The path plays frames 1..30 only, but every node must have its pose.
        path = PathCandidate(tuple(range(0, 31)), 0.0, 0.0, (0, 30))
        with pytest.raises(StructuralError, match="^59 pose frames for 60 graph nodes$"):
            assemble_edl(path, toy_graph(60), self._segments(31), wavy_poses[:59], k=4)
        assert assemble_edl(path, toy_graph(60), self._segments(31), wavy_poses[:60], k=4)

    def test_path_with_another_segment_count_rejected(self, wavy_poses):
        # A 7-segment walk against a 1-segment target is refused before anything
        # is built, as recompute_costs refuses it; as one segment it plays.
        path = PathCandidate(tuple(range(201)), 0.0, 0.0, (0, 30, 60, 90, 120, 150, 180, 200))
        with pytest.raises(StructuralError, match="^7 matched segments vs 1 targets$"):
            assemble_edl(path, toy_graph(300), self._segments(241), wavy_poses, k=4)
        whole = PathCandidate(path.node_sequence, 0.0, 0.0, (0, 200))
        edl = assemble_edl(whole, toy_graph(300), self._segments(241), wavy_poses, k=4)
        assert edl.total_frames == 240

    def test_synthetic_anchor_edge_is_hard_cut(self, wavy_poses):
        graph = toy_graph(300, synthetic=[(10, 150, 0.1, 0.1)])
        nodes = (10,) + tuple(range(150, 180))
        path = PathCandidate(nodes, 0.2, 0.0, (0, len(nodes) - 1))
        segments = self._segments(31)
        edl = assemble_edl(path, graph, segments, wavy_poses, k=4)
        assert len(edl.entries) == 1
        assert isinstance(edl.entries[0], RunEntry)
        assert edl.start_frame == 10

    def test_speech_marks(self, wavy_poses):
        graph = toy_graph(100)
        path = PathCandidate(tuple(range(0, 21)), 0.0, 0.0, (0, 20))
        n_frames = 21
        labels = [""] * n_frames
        labels[5] = labels[6] = "hello"
        track = AudioFeatureTrack(30.0, np.zeros(n_frames, dtype=bool), tuple(labels))
        segments = self._segments(n_frames)
        edl = assemble_edl(path, graph, segments, wavy_poses, k=4, speech_track=track)
        # slot j plays 1-based target frame j+2; track indices 5,6 are frames
        # 6,7, so they land on output slots 4 and 5
        assert edl.speech_frames == (4, 5)

    def test_provenance_carried(self, wavy_poses):
        graph = toy_graph(60)
        path = PathCandidate(tuple(range(0, 11)), 0.0, 0.0, (0, 10))
        edl = assemble_edl(
            path, graph, self._segments(11), wavy_poses, k=2, provenance={"seed": 7}
        )
        assert edl.provenance == {"seed": 7}


class TestEdlFile:
    def _edl(self, wavy_poses):
        graph = toy_graph(200, synthetic=[(60, 120, 0.125, 0.25)])
        nodes = tuple(range(40, 61)) + tuple(range(120, 140))
        path = PathCandidate(nodes, 0.375, 0.0, (0, len(nodes) - 1))
        return assemble_edl(path, graph, segment_list(41, []), wavy_poses, k=4,
                            provenance={"graph_sha256": "ab", "search_seed": 7})

    def test_roundtrip_bytes_stable(self, tmp_path, wavy_poses):
        edl = self._edl(wavy_poses)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_edl(p1, edl)
        save_edl(p2, load_edl(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_k_is_stored_as_an_int_and_written(self, tmp_path, wavy_poses):
        graph = toy_graph(200, synthetic=[(60, 120, 0.125, 0.25)])
        nodes = tuple(range(40, 61)) + tuple(range(120, 140))
        path = PathCandidate(nodes, 0.375, 0.0, (0, len(nodes) - 1))
        edl = assemble_edl(path, graph, segment_list(41, []), wavy_poses, k=np.int64(4))
        save_edl(tmp_path / "e.json", edl)
        for loaded in (edl, load_edl(tmp_path / "e.json")):
            assert loaded.blend_k == 4 and type(loaded.blend_k) is int

    @pytest.mark.parametrize(
        "edit, name",
        [
            pytest.param(lambda doc: doc.update(blend_k=True), "blend_k must be an integer >= 1",
                         id="boolean-blend-k"),
            pytest.param(lambda doc: doc.update(blend_k=2.5), "blend_k must be an integer >= 1",
                         id="fractional-blend-k"),
            pytest.param(lambda doc: doc.update(blend_k=0), "blend_k must be an integer >= 1",
                         id="zero-blend-k"),
            pytest.param(lambda doc: doc.update(start_frame=3.7),
                         "start_frame must be an integer >= 0", id="fractional-start-frame"),
            pytest.param(lambda doc: doc.update(start_frame=-1),
                         "start_frame must be an integer >= 0", id="negative-start-frame"),
            pytest.param(lambda doc: doc.update(total_frames=40.0),
                         "total_frames must be an integer >= 0", id="float-total-frames"),
            pytest.param(lambda doc: doc.update(speech_frames=[0.5]),
                         "speech frame must be an integer", id="fractional-speech-frame"),
            pytest.param(lambda doc: run_of(doc).update(source_start=1.5),
                         "source_start must be an integer", id="fractional-source-start"),
            pytest.param(lambda doc: run_of(doc).update(source_end=True),
                         "source_end must be an integer", id="boolean-source-end"),
            pytest.param(lambda doc: run_of(doc)["frames"][0].update(source="40"),
                         "frame source must be an integer", id="text-frame-source"),
            pytest.param(lambda doc: step_of(doc).update(src=60.5),
                         "blend step src must be an integer", id="fractional-step-src"),
            pytest.param(lambda doc: step_of(doc).update(dst=False),
                         "blend step dst must be an integer", id="boolean-step-dst"),
            pytest.param(lambda doc: transition_of(doc).update(src_window=[56.5, 60.5]),
                         "src_window must be an integer", id="fractional-src-window"),
            pytest.param(lambda doc: transition_of(doc).update(dst_window=[True, 124]),
                         "dst_window must be an integer", id="boolean-dst-window"),
        ],
    )
    def test_file_integers_are_refused_not_truncated(self, tmp_path, wavy_poses, edit, name):
        save_edl(tmp_path / "e.json", self._edl(wavy_poses))
        doc = json.loads((tmp_path / "e.json").read_text())
        edit(doc)
        (tmp_path / "e.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match=name):
            load_edl(tmp_path / "e.json")

    @pytest.mark.parametrize(
        "edit, name",
        [
            pytest.param(lambda doc: doc.update(fps="30"), "fps must be a finite number > 0",
                         id="text-fps"),
            pytest.param(lambda doc: run_of(doc).update(speed_factor="1"),
                         "speed_factor must be finite", id="text-speed-factor"),
            pytest.param(lambda doc: run_of(doc)["frames"][0].update(position=None),
                         "frame position must be finite", id="null-position"),
            pytest.param(lambda doc: step_of(doc).update(alpha=False),
                         "blend step alpha must be finite", id="boolean-alpha"),
        ],
    )
    def test_file_reals_are_refused_not_converted(self, tmp_path, wavy_poses, edit, name):
        save_edl(tmp_path / "e.json", self._edl(wavy_poses))
        doc = json.loads((tmp_path / "e.json").read_text())
        edit(doc)
        (tmp_path / "e.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match=name):
            load_edl(tmp_path / "e.json")

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda doc: step_of(doc).update(rotations=[[0.0, True, 0.0]] * 4),
                         "joint_rotations must be a finite real array of shape (None, 3), "
                         "got a boolean entry", id="boolean-rotations"),
            pytest.param(lambda doc: step_of(doc).update(root=["0", "0", "3"]),
                         "root_translation must be a finite real array of shape (3,), "
                         "got dtype <U1", id="text-root"),
            pytest.param(lambda doc: doc.update(provenance=[["path_rank", 0]]),
                         "provenance must be a dict, got list", id="list-provenance"),
            pytest.param(lambda doc: transition_of(doc).update(type="bogus"),
                         "unknown EDL entry type 'bogus'", id="unknown-entry-type"),
            pytest.param(lambda doc: doc.update(speech_frames=[9, 3, 3]),
                         "speech frames must be strictly rising output slots below "
                         "total_frames=40, got (9, 3, 3)", id="falling-speech-frames"),
            pytest.param(lambda doc: doc.update(speech_frames=[2, 3, 3]),
                         "speech frames must be strictly rising", id="repeated-speech-frame"),
            pytest.param(lambda doc: doc.update(speech_frames=[0, doc["total_frames"]]),
                         "speech frames must be strictly rising output slots below "
                         "total_frames=40, got (0, 40)", id="speech-frame-past-the-output"),
        ],
    )
    def test_file_poses_and_provenance_are_refused_not_converted(self, tmp_path, wavy_poses,
                                                                  edit, message):
        save_edl(tmp_path / "e.json", self._edl(wavy_poses))
        doc = json.loads((tmp_path / "e.json").read_text())
        edit(doc)
        (tmp_path / "e.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match=re.escape(message)):
            load_edl(tmp_path / "e.json")

    def test_roundtrip_preserves_poses(self, tmp_path, wavy_poses):
        edl = self._edl(wavy_poses)
        save_edl(tmp_path / "e.json", edl)
        back = load_edl(tmp_path / "e.json")
        trans = [e for e in back.entries if isinstance(e, TransitionEntry)][0]
        orig = [e for e in edl.entries if isinstance(e, TransitionEntry)][0]
        for a, b in zip(orig.schedule.steps, trans.schedule.steps):
            assert a.alpha == b.alpha
            assert a.pose.frame_index == b.pose.frame_index
            assert np.array_equal(a.pose.joint_rotations, b.pose.joint_rotations)
        # interpolate_pose(a, b, 1.0) is b: the last step's pose is frame dst.
        assert [s.pose.frame_index for s in trans.schedule.steps] == [56, 57, 58, 59] + [60] * 4 + [124]


def run_of(doc):
    return next(e for e in doc["entries"] if e["type"] == "run")


def transition_of(doc):
    return next(e for e in doc["entries"] if e["type"] == "transition")


def step_of(doc):
    return transition_of(doc)["steps"][0]


class TestPreview:
    def test_single_run_matches_direct_render(self, chain_skeleton, wavy_poses):
        graph = toy_graph(60)
        path = PathCandidate(tuple(range(5, 16)), 0.0, 0.0, (0, 10))
        edl = assemble_edl(path, graph, segment_list(11, []), wavy_poses, k=2)
        cam = default_camera((64, 64), focal_length=60.0)
        frames = list(render_frames(edl, chain_skeleton, wavy_poses, camera=cam))
        assert len(frames) == 10
        for i, img in enumerate(frames):
            pose = wavy_poses[6 + i]
            mask = rasterize_silhouette(chain_skeleton, forward_kinematics(chain_skeleton, pose), cam)
            assert np.array_equal(img, mask.astype(np.uint8) * 255)

    def test_same_images_as_per_frame_kinematics(self, chain_skeleton, wavy_poses, monkeypatch):
        # Two cuts, so the EDL holds runs and blend schedules.
        graph = toy_graph(300, synthetic=[(60, 120, 0.1, 0.1), (150, 220, 0.1, 0.1)])
        nodes = tuple(range(40, 61)) + tuple(range(120, 151)) + tuple(range(220, 240))
        path = PathCandidate(nodes, 0.3, 0.0, (0, len(nodes) - 1))
        edl = assemble_edl(path, graph, segment_list(len(nodes), []), wavy_poses, k=4)
        assert sum(isinstance(e, TransitionEntry) for e in edl.entries) == 2
        cam = default_camera((64, 64), focal_length=60.0)
        fk_calls = []

        def batch_fk(skeleton, frames):
            fk_calls.append(len(frames))
            return batch_forward_kinematics(skeleton, frames)

        monkeypatch.setattr(assembly, "batch_forward_kinematics", batch_fk)
        frames = list(render_frames(edl, chain_skeleton, wavy_poses, camera=cam))
        # One forward-kinematics pass over every output pose.
        assert fk_calls == [edl.total_frames]
        poses = []
        for entry in edl.entries:
            if isinstance(entry, RunEntry):
                poses += [wavy_poses[pb.source_frame] for pb in entry.frames]
            else:
                poses += [step.pose for step in entry.schedule.steps]
        assert len(frames) == len(poses) == edl.total_frames
        # The frames are rasterized in chunks that straddle the entries.
        assert edl.total_frames > 2 * RASTER_CHUNK
        for img, pose in zip(frames, poses):
            positions = per_frame_forward_kinematics(chain_skeleton, pose)
            mask = rasterize_silhouette(chain_skeleton, positions, cam)
            assert np.array_equal(img, mask.astype(np.uint8) * 255)
            assert np.array_equal(img > 0, per_frame_silhouette(chain_skeleton, positions, cam))

    def test_missing_source_frame_raises_before_any_image(self, chain_skeleton, wavy_poses,
                                                          tmp_path):
        # The last run plays source frames from 220 on; the first runs and the
        # transitions render from frames that exist.
        graph = toy_graph(300, synthetic=[(60, 120, 0.1, 0.1), (150, 220, 0.1, 0.1)])
        nodes = tuple(range(40, 61)) + tuple(range(120, 151)) + tuple(range(220, 240))
        path = PathCandidate(nodes, 0.3, 0.0, (0, len(nodes) - 1))
        edl = assemble_edl(path, graph, segment_list(len(nodes), []), wavy_poses, k=4)
        last_run = [e for e in edl.entries if isinstance(e, RunEntry)][-1]
        missing = min(pb.source_frame for pb in last_run.frames)
        cam = default_camera((32, 32), focal_length=30.0)
        images = render_frames(edl, chain_skeleton, wavy_poses[:missing], camera=cam)
        with pytest.raises(AssemblyError, match=f"missing source frame {missing}"):
            next(images)
        with pytest.raises(AssemblyError):
            render_preview(edl, chain_skeleton, wavy_poses[:missing],
                           output_dir=tmp_path / "frames", camera=cam)
        assert not list((tmp_path / "frames").glob("*.pgm"))

    def test_transition_endpoint_continuity(self, chain_skeleton, wavy_poses):
        graph = toy_graph(200, synthetic=[(60, 120, 0.1, 0.1)])
        nodes = tuple(range(40, 61)) + tuple(range(120, 140))
        path = PathCandidate(nodes, 0.2, 0.0, (0, len(nodes) - 1))
        edl = assemble_edl(path, graph, segment_list(41, []), wavy_poses, k=4)
        cam = default_camera((64, 64), focal_length=60.0)
        frames = list(render_frames(edl, chain_skeleton, wavy_poses, camera=cam))
        trans_start = len(edl.entries[0].frames)
        # alpha=0 frame renders source frame 56 exactly
        mask56 = rasterize_silhouette(
            chain_skeleton, forward_kinematics(chain_skeleton, wavy_poses[56]), cam
        )
        assert np.array_equal(frames[trans_start], mask56.astype(np.uint8) * 255)

    def test_alpha_half_matches_external_interpolation(self, chain_skeleton, wavy_poses):
        sched = make_blend_schedule(wavy_poses, 100, 400, 2)
        mid_pose = sched.steps[2].pose
        cam = default_camera((64, 64), focal_length=60.0)
        # External oracle: average theta directly, run FK, rasterize.
        avg = interpolate_pose(wavy_poses[100], wavy_poses[400], 0.5)
        assert np.allclose(
            mid_pose.joint_rotations,
            0.5 * wavy_poses[100].joint_rotations + 0.5 * wavy_poses[400].joint_rotations,
        )
        img_a = rasterize_silhouette(chain_skeleton, forward_kinematics(chain_skeleton, mid_pose), cam)
        img_b = rasterize_silhouette(chain_skeleton, forward_kinematics(chain_skeleton, avg), cam)
        assert np.array_equal(img_a, img_b)

    def test_preview_writes_numbered_pgms(self, tmp_path, chain_skeleton, wavy_poses):
        graph = toy_graph(60)
        path = PathCandidate(tuple(range(0, 6)), 0.0, 0.0, (0, 5))
        edl = assemble_edl(path, graph, segment_list(6, []), wavy_poses, k=2)
        written = render_preview(edl, chain_skeleton, wavy_poses, output_dir=tmp_path / "frames",
                                 camera=default_camera((32, 32), 30.0))
        assert [p.name for p in written] == [f"frame_{i:06d}.pgm" for i in range(5)]
        for p in written:
            assert p.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_preview_deletes_the_stale_frames_of_a_longer_one(self, tmp_path, chain_skeleton,
                                                              wavy_poses):
        camera = default_camera((32, 32), 30.0)
        longer = assemble_edl(PathCandidate(tuple(range(0, 9)), 0.0, 0.0, (0, 8)), toy_graph(60),
                              segment_list(9, []), wavy_poses, k=2)
        shorter = assemble_edl(PathCandidate(tuple(range(0, 4)), 0.0, 0.0, (0, 3)),
                               toy_graph(60), segment_list(4, []), wavy_poses, k=2)
        out = tmp_path / "frames"
        render_preview(longer, chain_skeleton, wavy_poses, out, camera)
        keep = ["frame_1.pgm", "frame_000009.txt", "frames_000009.pgm", "mask_000009.pgm",
                "notes.txt"]
        for name in keep:
            (out / name).write_text("bystander")
        (out / "frame_000100.pgm").mkdir()
        written = render_preview(shorter, chain_skeleton, wavy_poses, out, camera)
        names = [f"frame_{i:06d}.pgm" for i in range(3)]
        assert [p.name for p in written] == names
        assert sorted(p.name for p in out.iterdir()) == sorted(names + keep + ["frame_000100.pgm"])
        assert all((out / name).read_text() == "bystander" for name in keep)

    def test_no_stroke_radius_override(self, chain_skeleton, wavy_poses):
        # The preview draws the skeleton's own capsule radii.
        edl = assemble_edl(PathCandidate(tuple(range(0, 6)), 0.0, 0.0, (0, 5)), toy_graph(60),
                           segment_list(6, []), wavy_poses, k=2)
        with pytest.raises(TypeError):
            render_frames(edl, chain_skeleton, wavy_poses, stroke_radius=0.05)

    def test_preview_determinism(self, tmp_path, chain_skeleton, wavy_poses):
        graph = toy_graph(200, synthetic=[(60, 120, 0.1, 0.1)])
        nodes = tuple(range(40, 61)) + tuple(range(120, 140))
        path = PathCandidate(nodes, 0.2, 0.0, (0, len(nodes) - 1))
        edl = assemble_edl(path, graph, segment_list(41, []), wavy_poses, k=4)
        a = render_preview(edl, chain_skeleton, wavy_poses, output_dir=tmp_path / "a",
                           camera=default_camera((48, 48), 45.0))
        b = render_preview(edl, chain_skeleton, wavy_poses, output_dir=tmp_path / "b",
                           camera=default_camera((48, 48), 45.0))
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()
