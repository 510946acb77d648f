"""Search output pinned byte-for-byte.

The digests are sha256 sums of ``save_search_result`` files for searches on a
600-frame ``make_fixture`` reference against its default 450-frame target
(17 segments). They were recorded with the exact segment-by-segment search
over (blend state, node), so any rewrite of the search must reproduce its
optimum, its choice of final nodes, its tie-breaks (smallest length, then
smallest predecessor node, then smallest state) and its per-segment cost
sums exactly.

``GRAPH_SHA256`` pins the ``save_graph`` bytes of the same reference graph in
the ``motion-graph/5`` layout (a JSON header line, then raw column bytes).
``GRAPH_VALUES_SHA256`` pins its values independently of any file format: the
sha256 over its edges sorted by (src, dst), one
``"src dst kind d_feat.hex() d_img.hex()"`` line each. It was recorded from
the ``motion-graph/1`` writer's graph, so the same digest now shows that each
change of layout left every edge value as it was.
"""

import hashlib

import pytest

from motiongraph import audio, fixtures, graph as graph_mod, pose, search, silhouette

FPS = 30.0

GOLDEN = {
    "seed0": ({"seed": 0}, "387908cf2bf65c24c25a5abaf0f6a151b170543051f6725705f5a5f90fe75853"),
    "seed1": ({"seed": 1}, "91de667b189bf6faf6d0fecb6d511ffd96fe9e072c5c7ad4a7e71fee0a52257c"),
    "seed2": ({"seed": 2}, "260b8f7fd447422d28414a9ecf17c67367a984f6946fcfc5f56705d83adaf76e"),
    "seed5": ({"seed": 5}, "1d7785a35cc5d54d940400bc5f98019479833b34715268e79162defafe203f34"),
    "start100": (
        {"seed": 0, "start_frame": 100},
        "f38918d9bb0fbc56b60c7580ae88fbb5a627913b7f293e454f08f25d7d654503",
    ),
    "narrow_weighted": (
        {"seed": 3, "config": search.BeamConfig(beam_width=7, duration_weight=0.5)},
        "cfc36ad23dc371d4b5e13731fbf273f5ab61a18834b8a94c21e93c7b24a565ca",
    ),
    "onsets_allowed": (
        {"seed": 4, "config": search.BeamConfig(avoid_onsets_mid_segment=False)},
        "1f85c26134c9876196d14584562ec38743d86ce5d4561adbfae1508ee21ea98c",
    ),
    "blend_k2": (
        {"seed": 6, "config": search.BeamConfig(blend_k=2)},
        "433a535e2ba160e0753afa383f19fcbb06d2dc39df7c0e0db9444380947e9616",
    ),
}

GRAPH_SHA256 = "eb5f6efb2b3947000949abd4ef752dba105f3f8ad8c7399c709f3065d28ffb0a"
GRAPH_VALUES_SHA256 = "30b396ceea47d4cfccfb9a3a9b3c44379f97fd5230ab3a3c00328a84fa02de27"


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


def test_graph_values_digest(graph_and_segments):
    built, _ = graph_and_segments
    loaded = graph_mod.load_graph(graph_mod.save_graph(built))
    for graph in (built, loaded):
        h = hashlib.sha256()
        for e in sorted(graph.edges, key=lambda e: (e.src, e.dst)):
            h.update(f"{e.src} {e.dst} {e.kind} {e.d_feat.hex()} {e.d_img.hex()}\n".encode())
        assert h.hexdigest() == GRAPH_VALUES_SHA256
