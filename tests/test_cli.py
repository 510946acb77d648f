import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motiongraph
from motiongraph import cli
from motiongraph.assembly import TransitionEntry, assemble_edl, load_edl
from motiongraph.audio import load_features, load_segments
from motiongraph.errors import GraphParseError
from motiongraph.fixtures import make_fixture
from motiongraph.graph import load_graph_file
from motiongraph.pose import load_pose_track
from motiongraph.search import BeamConfig, beam_search, load_search_result
from motiongraph.silhouette import default_camera, save_camera

REF_FRAMES = 800
TGT_FRAMES = 280
SEED = 0

#: sha256 over the bytes of every PGM that ``build-graph --dump-masks`` writes
#: for the REF_FRAMES fixture, in file-name order. It pins the masks' pixels
#: through the packed rows and their unpacking.
MASK_DUMP_SHA256 = "6e182d1f2b5228a5e5ce64ab6a8daf4d214d62dd080afb35f96a466bcb5c13ce"
#: sha256 over the bytes of every PGM that ``preview`` writes for the
#: pipeline's EDL, in file-name order: the PGM writer and the rendered pixels.
PREVIEW_SHA256 = "0cb7424e5bbe339ed88f95f24dcd4828bcf28b45a65a4ca85d9ce9127ae1d848"
#: sha256 of the pipeline's ``edl.json``: entries, speed factors, blend poses
#: and the graph file's hash.
EDL_SHA256 = "fc066a3b00b56807b50ccf5d533d6d5f5c2b3ad70e5db3d1abf2b6ae5291a742"


@pytest.fixture(scope="session")
def fixture_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    return make_fixture(out, reference_frames=REF_FRAMES, target_frames=TGT_FRAMES)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory, fixture_files):
    """One full CLI run; most tests read its artifacts."""
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(
        [
            "run",
            "--poses", str(fixture_files["poses"]),
            "--ref-wav", str(fixture_files["ref_wav"]),
            "--ref-transcript", str(fixture_files["ref_transcript"]),
            "--wav", str(fixture_files["target_wav"]),
            "--transcript", str(fixture_files["target_transcript"]),
            "--seed", str(SEED),
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out


class TestRunPipeline:
    def test_artifacts_exist(self, pipeline):
        for name in (
            "reference_features.json",
            "reference_segments.json",
            "target_features.json",
            "target_segments.json",
            "graph.json",
            "path.json",
            "edl.json",
        ):
            assert (pipeline / name).is_file(), name

    def test_graph_contents(self, pipeline):
        graph = load_graph_file(pipeline / "graph.json")
        assert len(graph) == REF_FRAMES
        assert graph.thresholds.offset_l == 4
        assert any(e.kind == "synthetic" for e in graph.edges)
        assert any(node.keyword == "hello" for node in graph.nodes)

    def test_path_matches_segments(self, pipeline):
        result = load_search_result(pipeline / "path.json")
        segments = load_segments(pipeline / "target_segments.json")
        assert result.seed == SEED
        best = result.best
        assert len(best.durations) == segments.segment_count
        for achieved, target in zip(best.durations, segments.durations):
            assert 0.9 <= achieved / target <= 1.1

    def test_edl_accounting_and_provenance(self, pipeline):
        edl = load_edl(pipeline / "edl.json")
        segments = load_segments(pipeline / "target_segments.json")
        assert edl.total_frames == sum(segments.durations)
        assert sum(len(e) for e in edl.entries) == edl.total_frames
        assert edl.provenance["search_seed"] == SEED
        assert len(edl.provenance["graph_sha256"]) == 64
        assert edl.speech_frames  # the hello span marks output slots

    def test_provenance_hashes_the_written_graph_file(self, pipeline):
        edl = load_edl(pipeline / "edl.json")
        graph_bytes = (pipeline / "graph.json").read_bytes()
        assert len(graph_bytes) > 1 << 20  # assemble hashes it in more than one block
        assert edl.provenance["graph_sha256"] == hashlib.sha256(graph_bytes).hexdigest()

    def test_edl_bytes_are_pinned(self, pipeline):
        assert hashlib.sha256((pipeline / "edl.json").read_bytes()).hexdigest() == EDL_SHA256

    def test_byte_identical_rerun(self, tmp_path, fixture_files, pipeline):
        out2 = tmp_path / "rerun"
        rc = cli.main(
            [
                "run",
                "--poses", str(fixture_files["poses"]),
                "--ref-wav", str(fixture_files["ref_wav"]),
                "--ref-transcript", str(fixture_files["ref_transcript"]),
                "--wav", str(fixture_files["target_wav"]),
                "--transcript", str(fixture_files["target_transcript"]),
                "--seed", str(SEED),
                "--out-dir", str(out2),
            ]
        )
        assert rc == 0
        for name in ("graph.json", "path.json", "edl.json"):
            assert (out2 / name).read_bytes() == (pipeline / name).read_bytes(), name


def _run_args(fixture_files, out_dir, *extra):
    return [
        "run",
        "--poses", str(fixture_files["poses"]),
        "--ref-wav", str(fixture_files["ref_wav"]),
        "--ref-transcript", str(fixture_files["ref_transcript"]),
        "--wav", str(fixture_files["target_wav"]),
        "--transcript", str(fixture_files["target_transcript"]),
        "--seed", str(SEED),
        *extra,
        "--out-dir", str(out_dir),
    ]


class TestRunInMemory:
    """``run`` hands the pose track and the graph between stages in memory;
    its files must be the bytes the stand-alone subcommands write."""

    def test_same_bytes_as_the_subcommands_one_by_one(self, tmp_path, fixture_files):
        f = fixture_files
        run, staged = tmp_path / "run", tmp_path / "staged"
        assert cli.main(_run_args(f, run, "--preview")) == 0

        staged.mkdir()
        fps = load_pose_track(f["poses"])[1].fps
        for role, wav, transcript in (("reference", f["ref_wav"], f["ref_transcript"]),
                                      ("target", f["target_wav"], f["target_transcript"])):
            assert cli.main(["analyze-audio", "--wav", str(wav), "--transcript", str(transcript),
                             "--fps", repr(fps),
                             "--features-out", str(staged / f"{role}_features.json"),
                             "--segments-out", str(staged / f"{role}_segments.json")]) == 0
        assert cli.main(["build-graph", "--poses", str(f["poses"]),
                         "--features", str(staged / "reference_features.json"),
                         "--out", str(staged / "graph.json")]) == 0
        assert cli.main(["search", "--graph", str(staged / "graph.json"),
                         "--segments", str(staged / "target_segments.json"),
                         "--seed", str(SEED), "--out", str(staged / "path.json")]) == 0
        assert cli.main(["assemble", "--graph", str(staged / "graph.json"),
                         "--poses", str(f["poses"]),
                         "--segments", str(staged / "target_segments.json"),
                         "--path", str(staged / "path.json"),
                         "--target-features", str(staged / "target_features.json"),
                         "--out", str(staged / "edl.json")]) == 0
        assert cli.main(["preview", "--edl", str(staged / "edl.json"), "--poses", str(f["poses"]),
                         "--out-dir", str(staged / "preview")]) == 0

        def files(root):
            return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

        names = files(run)
        assert names == files(staged)
        frames = [n for n in names if n.startswith("preview")]
        assert len(frames) == load_edl(run / "edl.json").total_frames > 0
        for name in names:
            assert (run / name).read_bytes() == (staged / name).read_bytes(), name

    def test_parses_the_pose_track_once_and_never_reads_the_graph(
        self, tmp_path, fixture_files, monkeypatch
    ):
        calls = {"load_pose_track": 0, "load_graph_file": 0}
        # Patched where cli looks them up: the pose and graph modules.
        for module, name in ((cli.pose, "load_pose_track"), (cli.graph_mod, "load_graph_file")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert cli.main(_run_args(fixture_files, tmp_path / "run", "--preview")) == 0
        assert calls == {"load_pose_track": 1, "load_graph_file": 0}

    def test_later_stage_failure_names_the_stage(self, tmp_path, fixture_files):
        out = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(motiongraph.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "motiongraph.cli",
             *_run_args(fixture_files, out, "--start-frame", str(REF_FRAMES + 5))],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines()[-1] == (
            f"error in search: start_frame {REF_FRAMES + 5} outside 0..{REF_FRAMES - 1}"
        )
        assert "Traceback" not in proc.stderr
        # The stages before the search wrote their files; none after it ran.
        assert (out / "graph.json").is_file() and not (out / "path.json").exists()


class TestEveryRankAssembles:
    def test_seeds_0_to_9(self, fixture_files, pipeline):
        graph = load_graph_file(pipeline / "graph.json")
        segments = load_segments(pipeline / "target_segments.json")
        _, sequence = load_pose_track(fixture_files["poses"])
        blended = 0
        for seed in range(10):
            result = beam_search(graph, segments, BeamConfig(), seed=seed)
            assert len(result.paths) == BeamConfig().beam_width
            for rank, path in enumerate(result.paths):
                edl = assemble_edl(path, graph, segments, sequence.frames)
                if rank == 0:
                    blended += any(isinstance(e, TransitionEntry) for e in edl.entries)
        assert blended >= 1


class TestStages:
    def test_analyze_audio_standalone(self, tmp_path, fixture_files):
        rc = cli.main(
            [
                "analyze-audio",
                "--wav", str(fixture_files["target_wav"]),
                "--transcript", str(fixture_files["target_transcript"]),
                "--features-out", str(tmp_path / "f.json"),
                "--segments-out", str(tmp_path / "s.json"),
            ]
        )
        assert rc == 0
        track = load_features(tmp_path / "f.json")
        assert len(track) == TGT_FRAMES
        assert track.onsets.any()
        assert "hello" in track.keywords
        segments = load_segments(tmp_path / "s.json")
        assert sum(segments.durations) == TGT_FRAMES - 1

    def test_far_word_end_labels_up_to_the_last_frame(self, tmp_path, fixture_files):
        transcript = tmp_path / "t.json"
        transcript.write_text('[{"word": "hello", "start_time": 1.0, "end_time": 1e308}]')
        rc = cli.main(
            [
                "analyze-audio",
                "--wav", str(fixture_files["target_wav"]),
                "--transcript", str(transcript),
                "--features-out", str(tmp_path / "f.json"),
                "--segments-out", str(tmp_path / "s.json"),
            ]
        )
        assert rc == 0
        keywords = load_features(tmp_path / "f.json").keywords
        assert keywords == ("",) * 30 + ("hello",) * (len(keywords) - 30)

    def test_search_standalone_respects_flags(self, tmp_path, pipeline):
        rc = cli.main(
            [
                "search",
                "--graph", str(pipeline / "graph.json"),
                "--segments", str(pipeline / "target_segments.json"),
                "--out", str(tmp_path / "p.json"),
                "--seed", "3",
                "--beam-width", "5",
            ]
        )
        assert rc == 0
        result = load_search_result(tmp_path / "p.json")
        assert len(result.paths) <= 5
        assert result.config.beam_width == 5
        assert result.config.avoid_onsets_mid_segment
        assert result.config.blend_k == 4

    def test_search_result_records_onsets_and_blend_k(self, tmp_path, fixture_files, pipeline):
        rc = cli.main(
            [
                "search",
                "--graph", str(pipeline / "graph.json"),
                "--segments", str(pipeline / "target_segments.json"),
                "--out", str(tmp_path / "p.json"),
                "--allow-onsets-mid-segment",
                "--blend-k", "2",
            ]
        )
        assert rc == 0
        result = load_search_result(tmp_path / "p.json")
        assert not result.config.avoid_onsets_mid_segment
        assert result.config.blend_k == 2
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["format"] == "search-result/2"
        assert (doc["avoid_onsets_mid_segment"], doc["blend_k"]) == (False, 2)
        rc = cli.main(
            [
                "assemble",
                "--graph", str(pipeline / "graph.json"),
                "--poses", str(fixture_files["poses"]),
                "--segments", str(pipeline / "target_segments.json"),
                "--path", str(tmp_path / "p.json"),
                "--out", str(tmp_path / "edl.json"),
            ]
        )
        assert rc == 0
        assert load_edl(tmp_path / "edl.json").blend_k == 2

    def test_search_result_1_is_rejected(self, tmp_path, pipeline):
        doc = json.loads((pipeline / "path.json").read_text())
        doc["format"] = "search-result/1"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match="expected 'search-result/2'"):
            load_search_result(old)

    def test_assemble_standalone(self, tmp_path, fixture_files, pipeline):
        rc = cli.main(
            [
                "assemble",
                "--graph", str(pipeline / "graph.json"),
                "--poses", str(fixture_files["poses"]),
                "--segments", str(pipeline / "target_segments.json"),
                "--path", str(pipeline / "path.json"),
                "--target-features", str(pipeline / "target_features.json"),
                "--out", str(tmp_path / "edl.json"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "edl.json").read_bytes() == (pipeline / "edl.json").read_bytes()

    def test_preview_writes_frames(self, tmp_path, fixture_files, pipeline):
        rc = cli.main(
            [
                "preview",
                "--edl", str(pipeline / "edl.json"),
                "--poses", str(fixture_files["poses"]),
                "--out-dir", str(tmp_path / "frames"),
            ]
        )
        assert rc == 0
        edl = load_edl(pipeline / "edl.json")
        frames = sorted((tmp_path / "frames").glob("frame_*.pgm"))
        assert len(frames) == edl.total_frames
        assert frames[0].read_bytes().startswith(b"P5\n256 256\n255\n")
        digest = hashlib.sha256()
        for frame in frames:
            digest.update(frame.read_bytes())
        assert digest.hexdigest() == PREVIEW_SHA256

    def test_build_graph_mask_dump(self, tmp_path, fixture_files, pipeline):
        rc = cli.main(
            [
                "build-graph",
                "--poses", str(fixture_files["poses"]),
                "--features", str(pipeline / "reference_features.json"),
                "--out", str(tmp_path / "g.json"),
                "--dump-masks", str(tmp_path / "masks"),
            ]
        )
        assert rc == 0
        masks = sorted((tmp_path / "masks").glob("mask_*.pgm"))
        assert len(masks) == REF_FRAMES
        digest = hashlib.sha256()
        for mask in masks:
            digest.update(mask.read_bytes())
        assert digest.hexdigest() == MASK_DUMP_SHA256
        assert (tmp_path / "g.json").read_bytes() == (pipeline / "graph.json").read_bytes()


class TestDefaults:
    def test_documented_flag_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["search", "--graph", "g", "--segments", "s", "--out", "o"]
        )
        assert args.beam_width == 20
        assert tuple(args.duration_window) == (0.9, 1.1)
        assert args.seed == 0
        assert args.blend_k == 4
        args = parser.parse_args(
            ["build-graph", "--poses", "p", "--features", "f", "--out", "o"]
        )
        assert args.threshold_offset == 4
        assert args.min_jump == 2
        assert args.velocity_weight == 1.0
        args = parser.parse_args(
            ["assemble", "--graph", "g", "--poses", "p", "--segments", "s",
             "--path", "x", "--out", "o"]
        )
        assert args.path_index == 0
        assert not hasattr(args, "blend_k")  # assemble reads k from the search result
        args = parser.parse_args(
            ["run", "--poses", "p", "--ref-wav", "r", "--wav", "w", "--out-dir", "o"]
        )
        assert args.beam_width == 20
        assert tuple(args.duration_window) == (0.9, 1.1)
        assert args.seed == 0
        assert args.threshold_offset == 4
        assert args.min_jump == 2
        assert args.velocity_weight == 1.0
        assert args.blend_k == 4


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["search", "--nonsense"])
        assert err.value.code == 2

    def test_missing_input_file_exits_2_without_writes(self, tmp_path):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["search", "--graph", str(tmp_path / "absent.json"),
                 "--segments", str(tmp_path / "absent2.json"), "--out", str(out)]
            )
        assert err.value.code == 2
        assert not out.exists()

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_run_has_no_fps_flag(self, tmp_path, capsys, fixture_files):
        # run analyzes both audio files at the pose track's frame rate.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main(
                [
                    "run",
                    "--poses", str(fixture_files["poses"]),
                    "--ref-wav", str(fixture_files["ref_wav"]),
                    "--wav", str(fixture_files["target_wav"]),
                    "--fps", "25",
                    "--out-dir", str(out),
                ]
            )
        assert err.value.code == 2
        assert "unrecognized arguments: --fps 25" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("search", ["--dedup"]), ("run", ["--dedup"]), ("preview", ["--stroke-radius", "0.05"]),
         ("assemble", ["--blend-k", "2"])],
    )
    def test_removed_flags_exit_2(self, tmp_path, capsys, input_files, command, flag):
        inputs = {
            "search": ["--graph", "graph", "--segments", "segments", "--out", "@p.json"],
            "assemble": ["--graph", "graph", "--poses", "poses", "--segments", "segments",
                         "--path", "path", "--out", "@edl.json"],
            "run": ["--poses", "poses", "--ref-wav", "ref_wav", "--wav", "target_wav",
                    "--out-dir", "@out"],
            "preview": ["--edl", "edl", "--poses", "poses", "--out-dir", "@frames"],
        }[command]
        argv = [command]
        for key, value in zip(inputs[::2], inputs[1::2]):
            argv += [key, str(tmp_path / value[1:]) if value[0] == "@" else str(input_files[value])]
        with pytest.raises(SystemExit) as err:
            cli.main(argv + flag)
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "edit, found",
        [
            pytest.param({"fps": 25.0}, f"{REF_FRAMES} frames at 25 fps", id="other-fps"),
            pytest.param({"n_frames": REF_FRAMES + 10}, f"{REF_FRAMES + 10} frames at 30 fps",
                         id="other-length"),
        ],
    )
    def test_features_unlike_the_pose_track_are_stage_failure(
        self, tmp_path, pipeline, fixture_files, edit, found
    ):
        doc = json.loads((pipeline / "reference_features.json").read_text())
        doc.update(edit)
        features = tmp_path / "features.json"
        features.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["build-graph", "--poses", str(fixture_files["poses"]),
                 "--features", str(features), "--out", str(tmp_path / "g.json")]
            )
        assert str(err.value.code).startswith("error in build-graph: feature file")
        assert f"covers {found}, but the pose track has {REF_FRAMES} frames at 30 fps" in str(
            err.value.code
        )
        assert not (tmp_path / "g.json").exists()

    def test_infeasible_search_is_stage_failure(self, tmp_path, pipeline):
        # Segments demanding a keyword absent from every node.
        segments = json.loads((pipeline / "target_segments.json").read_text())
        segments["features"][1] = {"kind": "keyword", "word": "screaming"}
        bad = tmp_path / "bad_segments.json"
        bad.write_text(json.dumps(segments))
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["search", "--graph", str(pipeline / "graph.json"),
                 "--segments", str(bad), "--out", str(tmp_path / "p.json")]
            )
        assert "search" in str(err.value)

    def _assemble(self, tmp_path, pipeline, fixture_files, rank):
        return cli.main(
            [
                "assemble",
                "--graph", str(pipeline / "graph.json"),
                "--poses", str(fixture_files["poses"]),
                "--segments", str(pipeline / "target_segments.json"),
                "--path", str(pipeline / "path.json"),
                "--path-index", rank,
                "--out", str(tmp_path / "edl.json"),
            ]
        )

    def test_negative_path_index_exits_2(self, tmp_path, capsys, pipeline, fixture_files):
        with pytest.raises(SystemExit) as err:
            self._assemble(tmp_path, pipeline, fixture_files, "-1")
        assert err.value.code == 2
        assert "argument --path-index: a path rank is >= 0" in capsys.readouterr().err
        assert not (tmp_path / "edl.json").exists()

    def test_path_index_past_the_paths_is_stage_failure(self, tmp_path, pipeline, fixture_files):
        with pytest.raises(SystemExit) as err:
            self._assemble(tmp_path, pipeline, fixture_files, "99")
        assert str(err.value.code).startswith("error in assemble: --path-index 99 is out of range")
        assert not (tmp_path / "edl.json").exists()


#: Parameter values that must fail their stage (exit 1): subcommand, its
#: input files by key, the bad flag and value, and the diagnostic it gives.
BAD_PARAMETERS = {
    "fps-nan": ("analyze-audio", ["--wav", "target_wav"], ["--fps", "nan"],
                "fps must be a finite number > 0, got nan"),
    "fps-inf": ("analyze-audio", ["--wav", "target_wav"], ["--fps", "inf"],
                "fps must be a finite number > 0, got inf"),
    "fps-negative": ("analyze-audio", ["--wav", "target_wav"], ["--fps", "-30"],
                     "fps must be a finite number > 0, got -30.0"),
    "onset-delta-nan": ("analyze-audio", ["--wav", "target_wav"], ["--onset-delta", "nan"],
                        "onset threshold delta must be finite, got nan"),
    "duration-weight-nan": ("search", ["--graph", "graph", "--segments", "segments"],
                            ["--duration-weight", "nan"],
                            "duration_weight must be a finite number >= 0, got nan"),
    "duration-weight-inf": ("search", ["--graph", "graph", "--segments", "segments"],
                            ["--duration-weight", "inf"],
                            "duration_weight must be a finite number >= 0, got inf"),
    "duration-window-inf": ("search", ["--graph", "graph", "--segments", "segments"],
                            ["--duration-window", "0.9,inf"],
                            "duration window must satisfy 0 < low <= 1 <= high < inf"),
    "velocity-weight-nan": ("build-graph", ["--poses", "poses", "--features", "ref_features"],
                            ["--velocity-weight", "nan"],
                            "velocity_weight must be a finite number >= 0, got nan"),
    "velocity-weight-negative": ("build-graph",
                                 ["--poses", "poses", "--features", "ref_features"],
                                 ["--velocity-weight", "-1"],
                                 "velocity_weight must be a finite number >= 0, got -1.0"),
}

OUTPUTS = {
    "analyze-audio": ["--features-out", "f.json", "--segments-out", "s.json"],
    "search": ["--out", "p.json"],
    "build-graph": ["--out", "g.json"],
}


class TestBadParameters:
    @pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
    def test_stage_failure_without_writes(self, tmp_path, input_files, case):
        command, inputs, flag, message = BAD_PARAMETERS[case]
        argv = [command]
        for key, value in zip(inputs[::2], inputs[1::2]):
            argv += [key, str(input_files[value])]
        outputs = OUTPUTS[command]
        for key, name in zip(outputs[::2], outputs[1::2]):
            argv += [key, str(tmp_path / name)]
        with pytest.raises(SystemExit) as err:
            cli.main(argv + flag)
        assert str(err.value.code).startswith(f"error in {command}: {message}")
        assert list(tmp_path.iterdir()) == []


class TestSearchParametersFirst:
    """A bad search parameter is reported before any input is read."""

    def test_search_reports_the_parameter_not_a_broken_graph(self, tmp_path, input_files):
        graph = tmp_path / "graph.json"
        graph.write_bytes(input_files["graph"].read_bytes()[:100])
        with pytest.raises(SystemExit) as err:
            cli.main(["search", "--graph", str(graph), "--segments", str(input_files["segments"]),
                      "--out", str(tmp_path / "p.json"), "--duration-weight", "nan"])
        assert str(err.value.code) == (
            "error in search: duration_weight must be a finite number >= 0, got nan"
        )
        assert not (tmp_path / "p.json").exists()

    def test_run_writes_nothing(self, tmp_path, fixture_files):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main(
                [
                    "run",
                    "--poses", str(fixture_files["poses"]),
                    "--ref-wav", str(fixture_files["ref_wav"]),
                    "--wav", str(fixture_files["target_wav"]),
                    "--duration-weight", "nan",
                    "--out-dir", str(out),
                ]
            )
        assert str(err.value.code) == (
            "error in search: duration_weight must be a finite number >= 0, got nan"
        )
        assert not out.exists()


def _truncated(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _edited(edit):
    """Mutation of a JSON file: decode, apply ``edit`` to the document, encode."""

    def mutate(data: bytes) -> bytes:
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()

    return mutate


def _drop(key):
    return _edited(lambda doc: doc.pop(key))


def _set(key, value):
    return _edited(lambda doc: doc.update({key: value}))


AUDIO_OUT = ["--features-out", "@f", "--segments-out", "@s"]

# Input kind -> (a well-formed file of that kind, the flag that passes it,
# the subcommand that reads it, that subcommand's other arguments). Other
# arguments name well-formed files by key, or outputs with a leading "@".
READERS = {
    "pose-track": ("poses", "--poses", "build-graph",
                   ["--features", "ref_features", "--out", "@g"]),
    "camera": ("camera", "--camera", "build-graph",
               ["--poses", "poses", "--features", "ref_features", "--out", "@g"]),
    "dictionary": ("dictionary", "--dictionary", "analyze-audio",
                   ["--wav", "target_wav", *AUDIO_OUT]),
    "transcript": ("target_transcript", "--transcript", "analyze-audio",
                   ["--wav", "target_wav", *AUDIO_OUT]),
    "wav": ("target_wav", "--wav", "analyze-audio", AUDIO_OUT),
    "features": ("ref_features", "--features", "build-graph",
                 ["--poses", "poses", "--out", "@g"]),
    "segments": ("segments", "--segments", "search", ["--graph", "graph", "--out", "@p"]),
    "graph": ("graph", "--graph", "search", ["--segments", "segments", "--out", "@p"]),
    "search-result": ("path", "--path", "assemble",
                      ["--graph", "graph", "--poses", "poses", "--segments", "segments",
                       "--out", "@e"]),
    "edl": ("edl", "--edl", "preview", ["--poses", "poses", "--out-dir", "@frames"]),
}

MALFORMED = {
    "pose-track": {"broken-json": _truncated, "missing-field": _drop("frames"),
                   "wrong-format": _set("format", "pose-track/9"),
                   "fractional-parent": _edited(
                       lambda doc: doc["skeleton"]["joints"][2].update(parent=0.5)),
                   "infinite-radius": _edited(
                       lambda doc: doc["skeleton"]["joints"][1].update(radius=float("inf")))},
    "camera": {"broken-json": _truncated, "missing-field": _drop("focal_length"),
               "wrong-format": _set("format", "camera/9"),
               "3d-principal-point": _set("principal_point", [128.0, 128.0, 1.0]),
               "infinite-focal-length": _set("focal_length", float("inf")),
               "nan-principal-point": _set("principal_point", [float("nan"), 128.0]),
               "nan-translation": _set("translation", [0.0, float("nan"), 0.0]),
               "fractional-image-size": _set("image_size", [256.9, 100.7])},
    "dictionary": {"broken-json": _truncated,
                   "list-not-map": lambda data: b'["hello"]'},
    "transcript": {"broken-json": _truncated,
                   "missing-field": _edited(lambda doc: doc[0].pop("end_time")),
                   "infinite-end-time": _edited(lambda doc: doc[0].update(end_time=float("inf")))},
    "wav": {"not-riff": lambda data: b"plain text, not a RIFF file",
            "truncated-header": lambda data: data[:20]},
    "features": {"broken-json": _truncated, "missing-field": _drop("n_frames"),
                 "wrong-format": _set("format", "audio-features/9"),
                 "negative-onset": _set("onsets", [-1]),
                 "negative-keyword-start": _set("keywords", [[-3, 2, "hello"]]),
                 "reversed-keyword-run": _set("keywords", [[5, 2, "hello"]])},
    "segments": {"broken-json": _truncated, "missing-field": _drop("endpoints"),
                 "wrong-format": _set("format", "segments/9"),
                 "infinite-count": _set("n_frames", float("inf"))},
    "graph": {"broken-json": _truncated, "missing-field": _drop("src"),
              "wrong-format": _set("format", "motion-graph/9"),
              "format-1": _set("format", "motion-graph/1"),
              "nan-fps": _set("fps", float("nan")),
              "negative-min-jump": _set("min_jump", -3),
              "fractional-offset-l": _edited(lambda doc: doc["thresholds"].update(offset_l=4.9))},
    "search-result": {"broken-json": _truncated, "missing-field": _drop("paths"),
                      "wrong-format": _set("format", "search-result/9"),
                      "format-1": _set("format", "search-result/1"),
                      "onsets-not-bool": _set("avoid_onsets_mid_segment", "no")},
    "edl": {"broken-json": _truncated, "missing-field": _drop("entries"),
            "wrong-format": _set("format", "edl/9")},
}


@pytest.fixture(scope="session")
def input_files(tmp_path_factory, fixture_files, pipeline):
    """A well-formed file of every input kind."""
    out = tmp_path_factory.mktemp("inputs")
    save_camera(out / "camera.json", default_camera())
    (out / "dictionary.json").write_text(json.dumps({"greeting": ["hello"]}))
    return dict(
        fixture_files,
        camera=out / "camera.json",
        dictionary=out / "dictionary.json",
        ref_features=pipeline / "reference_features.json",
        segments=pipeline / "target_segments.json",
        graph=pipeline / "graph.json",
        path=pipeline / "path.json",
        edl=pipeline / "edl.json",
    )


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "kind, mutate",
        [
            pytest.param(kind, mutate, id=f"{kind}-{case}")
            for kind, cases in MALFORMED.items()
            for case, mutate in cases.items()
        ],
    )
    def test_exits_1_with_stage_diagnostic(self, tmp_path, capsys, input_files, kind, mutate):
        source, flag, command, rest = READERS[kind]
        bad = tmp_path / f"bad-{input_files[source].name}"
        bad.write_bytes(mutate(input_files[source].read_bytes()))
        argv = [command, flag, str(bad)]
        for arg in rest:
            if arg.startswith("@"):
                arg = str(tmp_path / arg[1:])
            elif not arg.startswith("--"):
                arg = str(input_files[arg])
            argv.append(arg)
        # Any exception but SystemExit escaping main() would be a traceback.
        # For SystemExit("...") the interpreter prints the text to stderr
        # and exits 1.
        try:
            status = cli.main(argv)
            message = capsys.readouterr().err
        except SystemExit as exc:
            status, message = (1, exc.code) if isinstance(exc.code, str) else (exc.code, "")
        assert status == 1
        assert message.startswith(f"error in {command}: ")
        assert "Traceback" not in message
