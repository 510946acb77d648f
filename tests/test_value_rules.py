"""Each value type checks its own fields when built, so that whatever the library
builds, its file readers read back; and engine files are strict JSON."""

import math

import numpy as np
import pytest

from motiongraph.assembly import (BlendSchedule, BlendStep, EditDecisionList, RunEntry,
                                  TransitionEntry, load_edl, save_edl)
from motiongraph.audio import EndpointFeature, SegmentList, TranscriptWord
from motiongraph.errors import GraphParseError, ValidationError
from motiongraph.pose import PoseFrame
from motiongraph.search import BeamConfig, PathCandidate, PlaybackEntry, SearchResult

FRAMES = (PlaybackEntry(3, 0.0), PlaybackEntry(4, 1.0))
RUN = RunEntry(3, 4, 1.0, FRAMES)


def edl(**fields):
    return EditDecisionList(**dict(fps=30.0, total_frames=2, start_frame=2, blend_k=4,
                                   entries=[RUN]) | fields)


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: RunEntry(3, 4, math.nan, FRAMES), "speed_factor",
                     id="edl-nan-speed-factor"),
        pytest.param(lambda: PlaybackEntry(3, math.inf), "frame position",
                     id="edl-infinite-position"),
        pytest.param(lambda: PlaybackEntry(1.5, 0.0), "frame source", id="edl-fractional-frame"),
        pytest.param(lambda: PlaybackEntry(True, 0.0), "frame source", id="edl-boolean-frame"),
        pytest.param(lambda: RunEntry(-1, 4, 1.0, FRAMES), "source_start",
                     id="edl-negative-source-start"),
        pytest.param(lambda: edl(fps=math.nan), "fps", id="edl-nan-fps"),
        pytest.param(lambda: edl(blend_k=0), "blend_k", id="edl-zero-blend-k"),
        pytest.param(lambda: PathCandidate((0, 1, 2), math.nan, 0.0, (0, 2)), "transition_cost",
                     id="search-nan-cost"),
        pytest.param(lambda: PathCandidate((0, 0.5, 2), 0.0, 0.0, (0, 2)), "node",
                     id="search-fractional-node"),
        pytest.param(lambda: SearchResult((), -3, BeamConfig()), "seed",
                     id="search-negative-seed"),
        pytest.param(lambda: SegmentList(5, (1.0, 3.0, 5.0), (EndpointFeature("end"),) * 3),
                     "endpoint", id="segments-float-endpoints"),
        pytest.param(lambda: TranscriptWord("hello", True, 1.0), "start_time",
                     id="transcript-boolean-time"),
    ],
)
def test_a_value_its_reader_refuses_is_refused_when_built(build, field):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        build()


def test_numpy_numbers_are_stored_as_python_numbers_and_written(tmp_path):
    pose = PoseFrame(0, np.zeros(3), np.zeros((2, 3)))
    steps = tuple(BlendStep(np.float64(t / 2), np.int64(2 + min(t, 1)),
                            np.int32(9 + max(t - 1, 0)), pose) for t in range(3))
    schedule = BlendSchedule((np.int64(2), np.int64(3)), (np.uint8(9), np.int16(10)), steps)
    frames = (PlaybackEntry(np.int64(3), np.float32(0.0)), PlaybackEntry(np.uint32(4), 1.0))
    run = RunEntry(np.int64(3), np.int64(4), np.float64(1.0), frames)
    built = edl(fps=np.float64(30.0), total_frames=np.int64(5), start_frame=np.int64(2),
                blend_k=np.int8(1), entries=[run, TransitionEntry(schedule)],
                speech_frames=(np.int64(0),))
    save_edl(tmp_path / "e.json", built)
    for loaded in (built, load_edl(tmp_path / "e.json")):
        (run, transition) = loaded.entries
        values = [loaded.fps, loaded.total_frames, loaded.start_frame, loaded.blend_k,
                  *loaded.speech_frames, run.source_start, run.source_end, run.speed_factor,
                  *(v for f in run.frames for v in (f.source_frame, f.position)),
                  *transition.schedule.src_window, *transition.schedule.dst_window,
                  *(v for s in transition.schedule.steps for v in (s.alpha, s.src_frame,
                                                                    s.dst_frame))]
        assert {type(v) for v in values} == {int, float}


@pytest.mark.parametrize("provenance", [{"note": math.nan}, {"big": math.inf},
                                        {"rank": np.int64(0)}, {1: "a", "b": 2}])
def test_provenance_that_is_not_strict_json_is_refused_when_built(provenance):
    with pytest.raises(ValidationError, match="provenance must be strict JSON"):
        edl(provenance=provenance)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_edl_file_with_a_non_json_number_is_a_parse_error(tmp_path, token):
    path = tmp_path / f"{token}.json"
    save_edl(path, edl(provenance={"note": 0.5}))
    path.write_text(path.read_text().replace('"note": 0.5', f'"note": {token}'))
    with pytest.raises(GraphParseError) as err:
        load_edl(path)
    assert type(err.value) is GraphParseError
    assert str(err.value) == f"EDL {path} is not valid JSON: {token} is not a JSON number"
