"""Search output pinned byte-for-byte.

The digests are sha256 sums of ``save_search_result`` files for searches on a
600-frame ``make_fixture`` reference against its default 450-frame target
(17 segments). They were recorded with the original search engine (per-call
edge grouping, parent tables, every extension built before pruning), so any
rewrite of the search must reproduce its ranking, tie-breaks and float
accumulation exactly.

``GRAPH_SHA256`` pins the ``save_graph`` bytes of the same reference graph,
recorded when the graph was still held as a list of edge objects.
"""

import hashlib

import pytest

from motiongraph import audio, fixtures, graph as graph_mod, kernels, pose, search, silhouette

FPS = 30.0

GOLDEN = {
    "seed0": ({"seed": 0}, "dc706ad9e04e740333996a161e4230ead9ef98ab68ca581dd327d614efe894d9"),
    "seed1": ({"seed": 1}, "70aaa02376e40da4b352470d654951f5633d423f7e4291e8d44eb7e413e596cc"),
    "seed2": ({"seed": 2}, "d8c4ac30e73022a7c9086da055bc7ab62b72d1dee62ef278b44f735fc065a22e"),
    "seed5": ({"seed": 5}, "aba9f846a82f17dcd5dab3c5a8a12f1d8fd07e2e84b9b87adc82922464949fb0"),
    "start100": (
        {"seed": 0, "start_frame": 100},
        "f7aeac363dd1b203286f656cb9deaefedef2b8417749f29fc03d760a1e135ac2",
    ),
    "narrow_weighted": (
        {"seed": 3, "config": search.BeamConfig(beam_width=7, duration_weight=0.5)},
        "23eb83978cc692b532ae3f936d2286a46cd6220896bf8220fe3146e8b7838cc9",
    ),
    "onsets_allowed": (
        {"seed": 4, "config": search.BeamConfig(avoid_onsets_mid_segment=False)},
        "4816eaa3c142cfc66a227cbcccf706b84fb21bb8fab1253e50e5e1441598efbe",
    ),
}

GRAPH_SHA256 = "ff93d8c8e8fe3429ef5a8077772ebbcfe54122c77cb0057a0da8c31c0f23a59d"


def _features(wav, transcript):
    samples, rate = audio.read_wav(wav)
    return audio.analyze_audio(
        samples, rate, FPS, audio.load_transcript(transcript), audio.default_dictionary()
    )


@pytest.fixture(scope="module")
def graph_and_segments(tmp_path_factory):
    files = fixtures.make_fixture(
        tmp_path_factory.mktemp("golden_fixture"), reference_frames=600, target_frames=450
    )
    reference = _features(files["ref_wav"], files["ref_transcript"])
    skeleton, sequence = pose.load_pose_track(files["poses"])
    states = pose.compute_joint_states(skeleton, sequence)
    masks = silhouette.rasterize_sequence(
        skeleton, (s.positions for s in states), silhouette.default_camera()
    )
    thresholds = graph_mod.compute_thresholds(states, masks)
    built = graph_mod.build_graph(states, masks, reference.records(), thresholds, fps=sequence.fps)
    segments = audio.segment_target(_features(files["target_wav"], files["target_transcript"]))
    assert segments.segment_count == 17
    return built, segments


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_search_result_digest(name, graph_and_segments, tmp_path):
    built, segments = graph_and_segments
    kwargs, expected = GOLDEN[name]
    kwargs = dict(kwargs)
    config = kwargs.pop("config", search.BeamConfig())
    result = search.beam_search(built, segments, config, **kwargs)
    out = tmp_path / "path.json"
    search.save_search_result(out, result)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_graph_file_digest(graph_and_segments):
    built, _ = graph_and_segments
    assert hashlib.sha256(graph_mod.save_graph(built)).hexdigest() == GRAPH_SHA256


#: walk_distances calls per GOLDEN search, counted at the commit before
#: searches began releasing the tables of nodes that start no later segment.
WALK_DP_CALLS = {"seed0": 47, "seed1": 49, "seed2": 46, "seed5": 46, "start100": 19,
                 "narrow_weighted": 20, "onsets_allowed": 48}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_released_tables_are_never_recomputed(name, graph_and_segments, monkeypatch):
    built, segments = graph_and_segments
    kwargs = dict(GOLDEN[name][0])
    config = kwargs.pop("config", search.BeamConfig())
    fresh = []
    calls = 0
    walk_distances = kernels.walk_distances

    def counted(layout, start, allowed, n_steps, dist=None):
        nonlocal calls
        calls += 1
        if dist is None:
            fresh.append(start)
        return walk_distances(layout, start, allowed, n_steps, dist)

    monkeypatch.setattr(kernels, "walk_distances", counted)
    search.beam_search(built, segments, config, **kwargs)
    assert calls == WALK_DP_CALLS[name]
    assert len(fresh) == len(set(fresh)), "a released table was computed again"
