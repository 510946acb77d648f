import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motiongraph
from motiongraph import cli
from motiongraph.assembly import TransitionEntry, assemble_edl, load_edl
from motiongraph.audio import (AudioFeatureTrack, EndpointFeature, SegmentList, load_features,
                               load_segments, save_features, save_segments, write_wav)
from motiongraph.errors import GraphParseError
from motiongraph.fixtures import FIXTURE_FPS, make_fixture, puppet_sequence, puppet_skeleton
from motiongraph.graph import load_graph_file
from motiongraph.pose import load_pose_track, save_pose_track
from motiongraph.search import BeamConfig, beam_search, load_search_result
from motiongraph.silhouette import default_camera, save_camera

from test_graph import decoded, encoded

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
EDL_SHA256 = "9b0d5aedf89cd5aa62be76444c95e14cb638bb0c053f63a5385a011f5f090737"
#: sha256 of the same EDL document without ``provenance.graph_sha256``,
#: re-encoded with sorted keys: everything but the graph file's hash. It was
#: recorded from the ``motion-graph/2`` writer's run, so the same digest shows
#: that the graph file's layout changed nothing else in the EDL.
EDL_WITHOUT_GRAPH_HASH_SHA256 = "124db397fb67d872c4be5702deb3fa7758368110c6d7f78c15330dc3ac7bbae1"


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

    def test_graph_file_is_the_header_line_and_32_bytes_per_pair(self, pipeline):
        # Each transition is stored once: N onset bytes, then 32 bytes per pair.
        blob = (pipeline / "graph.json").read_bytes()
        line = blob[: blob.index(b"\n") + 1]
        header = json.loads(line)
        assert len(blob) == len(line) + REF_FRAMES + 32 * header["pairs"]
        graph = load_graph_file(pipeline / "graph.json")
        # The loaded graph holds one row per pair, each two synthetic edges.
        assert graph.m.size == graph.n.size == graph.d_feat.size == header["pairs"]
        assert 2 * header["pairs"] == sum(e.kind == "synthetic" for e in graph.edges)

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

    def test_provenance_hashes_the_written_graph_file(self, tmp_path, monkeypatch,
                                                      fixture_files, pipeline):
        edl = load_edl(pipeline / "edl.json")
        graph_bytes = (pipeline / "graph.json").read_bytes()
        assert edl.provenance["graph_sha256"] == hashlib.sha256(graph_bytes).hexdigest()
        # Blocks small enough that assemble hashes the file in more than one.
        monkeypatch.setattr(cli, "HASH_BLOCK", 1 << 16)
        assert len(graph_bytes) > cli.HASH_BLOCK
        assert cli.main(["assemble", "--graph", str(pipeline / "graph.json"),
                         "--poses", str(fixture_files["poses"]),
                         "--segments", str(pipeline / "target_segments.json"),
                         "--path", str(pipeline / "path.json"),
                         "--out", str(tmp_path / "edl.json")]) == 0
        assert load_edl(tmp_path / "edl.json").provenance == edl.provenance

    def test_edl_bytes_are_pinned(self, pipeline):
        assert hashlib.sha256((pipeline / "edl.json").read_bytes()).hexdigest() == EDL_SHA256

    def test_edl_without_the_graph_hash_is_pinned(self, pipeline):
        doc = json.loads((pipeline / "edl.json").read_bytes())
        del doc["provenance"]["graph_sha256"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == EDL_WITHOUT_GRAPH_HASH_SHA256

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

    def test_mask_dump_deletes_stale_masks_only(self, tmp_path, fixture_files, pipeline):
        masks = tmp_path / "masks"
        masks.mkdir()
        stale = [f"mask_{i:06d}.pgm" for i in (REF_FRAMES, REF_FRAMES + 7)]
        keep = ["frame_000000.pgm", f"mask_{REF_FRAMES}.txt", "readme.txt"]
        for name in stale + keep:
            (masks / name).write_text("earlier")
        rc = cli.main(
            [
                "build-graph",
                "--poses", str(fixture_files["poses"]),
                "--features", str(pipeline / "reference_features.json"),
                "--out", str(tmp_path / "g.json"),
                "--dump-masks", str(masks),
            ]
        )
        assert rc == 0
        names = {p.name for p in masks.iterdir()}
        assert names == {f"mask_{i:06d}.pgm" for i in range(REF_FRAMES)} | set(keep)
        assert all((masks / name).read_text() == "earlier" for name in keep)


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
        "command, flag",
        [("build-graph", "--out"), ("search", "--out"), ("assemble", "--out"),
         ("analyze-audio", "--features-out"), ("analyze-audio", "--segments-out")],
    )
    def test_output_in_a_missing_directory_exits_2_without_writes(
        self, tmp_path, capsys, input_files, command, flag
    ):
        inputs = {
            "build-graph": ["--poses", "poses", "--features", "ref_features", "--out", "@g.json"],
            "search": ["--graph", "graph", "--segments", "segments", "--out", "@p.json"],
            "assemble": ["--graph", "graph", "--poses", "poses", "--segments", "segments",
                         "--path", "path", "--out", "@edl.json"],
            "analyze-audio": ["--wav", "target_wav", "--features-out", "@f.json",
                              "--segments-out", "@s.json"],
        }[command]
        argv = [command]
        for key, value in zip(inputs[::2], inputs[1::2]):
            if key == flag:
                value = str(tmp_path / "missing" / value[1:])
            elif value[0] == "@":
                value = str(tmp_path / value[1:])
            else:
                value = str(input_files[value])
            argv += [key, value]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        missing = tmp_path / "missing"
        assert f"output directory not found: {missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag",
        [("build-graph", "--out"), ("search", "--out"), ("assemble", "--out"),
         ("analyze-audio", "--features-out"), ("analyze-audio", "--segments-out"),
         ("build-graph", "--dump-masks"), ("preview", "--out-dir"), ("run", "--out-dir")],
    )
    def test_output_of_the_wrong_kind_exits_2_without_writes(
        self, tmp_path, capsys, input_files, command, flag
    ):
        # An output file that is a directory, or an output directory that is a file.
        inputs = {
            "build-graph": ["--poses", "poses", "--features", "ref_features", "--out", "@g.json",
                            "--dump-masks", "@masks"],
            "search": ["--graph", "graph", "--segments", "segments", "--out", "@p.json"],
            "assemble": ["--graph", "graph", "--poses", "poses", "--segments", "segments",
                         "--path", "path", "--out", "@edl.json"],
            "analyze-audio": ["--wav", "target_wav", "--features-out", "@f.json",
                              "--segments-out", "@s.json"],
            "preview": ["--edl", "edl", "--poses", "poses", "--out-dir", "@frames"],
            "run": ["--poses", "poses", "--ref-wav", "ref_wav", "--wav", "target_wav",
                    "--out-dir", "@out"],
        }[command]
        taken = tmp_path / "taken"
        if flag in ("--dump-masks", "--out-dir"):
            taken.write_bytes(b"")
            reason = f"output directory is not a directory: {taken}"
        else:
            taken.mkdir()
            reason = f"output file is a directory: {taken}"
        argv = [command]
        for key, value in zip(inputs[::2], inputs[1::2]):
            if key == flag:
                value = str(taken)
            elif value[0] == "@":
                value = str(tmp_path / value[1:])
            else:
                value = str(input_files[value])
            argv += [key, value]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert reason in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]
        assert (list(taken.iterdir()) == []) if taken.is_dir() else (taken.read_bytes() == b"")

    @pytest.mark.parametrize(
        "edit, found",
        [
            pytest.param(lambda doc: doc.update(frames=doc["frames"][:600]),
                         "600 frames at 30 fps", id="short-track"),
            pytest.param(lambda doc: doc.update(fps=25.0), f"{REF_FRAMES} frames at 25 fps",
                         id="other-fps"),
        ],
    )
    def test_pose_track_unlike_the_graph_is_stage_failure(
        self, tmp_path, pipeline, fixture_files, edit, found
    ):
        doc = json.loads(fixture_files["poses"].read_text())
        edit(doc)
        poses = tmp_path / "poses.json"
        poses.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["assemble", "--graph", str(pipeline / "graph.json"), "--poses", str(poses),
                 "--segments", str(pipeline / "target_segments.json"),
                 "--path", str(pipeline / "path.json"), "--out", str(tmp_path / "edl.json")]
            )
        assert err.value.code == (f"error in assemble: pose track {poses} covers {found}, "
                                  f"but the graph has {REF_FRAMES} frames at 30 fps")
        assert not (tmp_path / "edl.json").exists()

    def test_target_with_another_segment_count_is_stage_failure(self, tmp_path, pipeline,
                                                                fixture_files):
        # The run's paths have one segment per target segment; one segment of
        # the same length is refused before anything is assembled.
        segments = load_segments(pipeline / "target_segments.json")
        paths = len(load_search_result(pipeline / "path.json").best.durations)
        assert segments.segment_count == paths > 1
        one = tmp_path / "one_segment.json"
        end = EndpointFeature("end")
        save_segments(one, SegmentList(segments.n_frames, (1, segments.n_frames), (end, end)))
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["assemble", "--graph", str(pipeline / "graph.json"),
                 "--poses", str(fixture_files["poses"]), "--segments", str(one),
                 "--path", str(pipeline / "path.json"), "--out", str(tmp_path / "edl.json")]
            )
        assert err.value.code == f"error in assemble: {paths} matched segments vs 1 targets"
        assert sorted(tmp_path.iterdir()) == [one]

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

    def test_path_index_past_the_paths_is_stage_failure(self, tmp_path, monkeypatch, pipeline,
                                                        fixture_files):
        # The index is checked before the graph and the pose track are read.
        def unread(*args):
            raise AssertionError("an input past the search result was read")

        monkeypatch.setattr(cli.graph_mod, "load_graph_file", unread)
        monkeypatch.setattr(cli.pose, "load_pose_track", unread)
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
    "seed-negative": ("search", ["--graph", "graph", "--segments", "segments"],
                      ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    "start-frame-negative": ("search", ["--graph", "graph", "--segments", "segments"],
                             ["--start-frame", "-5"],
                             "start_frame must be an integer >= 0, got -5"),
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


def _one_frame_wav(tmp_path):
    """A WAV of 1600 samples at 48 kHz: one video frame at 30 fps, too few to segment."""
    write_wav(tmp_path / "short.wav", np.zeros(1600), 48000)
    return tmp_path / "short.wav"


def _failing_analyze_audio(tmp_path, fixture_files):
    out = tmp_path / "out"
    return (["analyze-audio", "--wav", str(_one_frame_wav(tmp_path)),
             "--features-out", str(out / "f.json"), "--segments-out", str(out / "s.json")],
            "analyze-audio", [out / "f.json", out / "s.json"])


def _failing_run_target(tmp_path, fixture_files):
    out = tmp_path / "out"
    argv = _run_args(fixture_files, out)
    argv[argv.index("--wav") + 1] = str(_one_frame_wav(tmp_path))
    return argv, "analyze-audio", [out / "target_features.json", out / "target_segments.json"]


def _failing_mask_dump(tmp_path, fixture_files):
    # 3 frames are too few for the default threshold offset l = 4.
    save_pose_track(tmp_path / "poses.json", puppet_skeleton(), puppet_sequence(3))
    save_features(tmp_path / "features.json",
                  AudioFeatureTrack(FIXTURE_FPS, [False] * 3, ("",) * 3))
    out = tmp_path / "out"
    return (["build-graph", "--poses", str(tmp_path / "poses.json"),
             "--features", str(tmp_path / "features.json"), "--out", str(out / "g.json"),
             "--dump-masks", str(out / "masks")],
            "build-graph", [out / "g.json", out / "masks"])


class TestFailingStageWritesNothing:
    @pytest.mark.parametrize("case", [
        pytest.param(_failing_analyze_audio, id="analyze-audio-one-frame"),
        pytest.param(_failing_run_target, id="run-target-one-frame"),
        pytest.param(_failing_mask_dump, id="build-graph-dump-masks-three-frames"),
    ])
    def test_no_output_path_is_left(self, tmp_path, fixture_files, case):
        argv, stage, outputs = case(tmp_path, fixture_files)
        (tmp_path / "out").mkdir()
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert str(err.value.code).startswith(f"error in {stage}: ")
        assert [p for p in outputs if p.exists()] == []


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

    @pytest.mark.parametrize("flag, value, name", [("--seed", "-3", "seed"),
                                                   ("--start-frame", "-5", "start_frame")])
    def test_run_refuses_a_negative_seed_or_start_frame_first(self, tmp_path, fixture_files,
                                                              flag, value, name):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main(_run_args(fixture_files, out, flag, value))
        assert str(err.value.code) == (
            f"error in search: {name} must be an integer >= 0, got {value}"
        )
        assert not out.exists()


def _truncated(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _edited(edit, decode=json.loads, encode=lambda doc: json.dumps(doc).encode()):
    """Mutation of a JSON file: decode, apply ``edit`` to the document, encode."""

    def mutate(data: bytes) -> bytes:
        doc = decode(data)
        edit(doc)
        return encode(doc)

    return mutate


def _graph_edited(edit):
    """Mutation of a graph file's header fields and columns (``test_graph``'s codec)."""
    return _edited(edit, decoded, encoded)


def _drop(key):
    return _edited(lambda doc: doc.pop(key))


def _set(key, value):
    return _edited(lambda doc: doc.update({key: value}))


def _swap_boundaries(doc):
    bounds = doc["paths"][0]["boundaries"]
    bounds[1], bounds[2] = bounds[2], bounds[1]


def _boundary_past_the_path(doc):
    path = doc["paths"][0]
    path["boundaries"][-1] = len(path["nodes"]) + 5


def _fractional_node(doc):
    doc["paths"][0]["nodes"][1] += 0.5


def _fractional_endpoint(doc):
    doc["endpoints"][1] += 0.9


def _keywords_not_strings(doc):
    doc["keyword"][:3] = [1, None, 2.5]


def _boolean_rotations(doc):
    frame = doc["frames"][0]
    frame["rotations"] = [[True, False, True]] * len(frame["rotations"])


def _boolean_step_rotations(entry):
    step = entry["steps"][0]
    step["rotations"] = [[True, False, True]] * len(step["rotations"])


def _entry(kind, edit):
    """Mutation of an EDL: ``edit`` applied to its first entry of type ``kind``."""
    return _edited(lambda doc: edit(next(e for e in doc["entries"] if e["type"] == kind)))


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
                       lambda doc: doc["skeleton"]["joints"][1].update(radius=float("inf"))),
                   "boolean-fps": _set("fps", True), "text-fps": _set("fps", "30"),
                   "text-root": _edited(
                       lambda doc: doc["frames"][0].update(root=["0", "0", "2.5"])),
                   "boolean-rotations": _edited(_boolean_rotations),
                   "number-joint-name": _edited(
                       lambda doc: doc["skeleton"]["joints"][1].update(name=7))},
    "camera": {"broken-json": _truncated, "missing-field": _drop("focal_length"),
               "wrong-format": _set("format", "camera/9"),
               "3d-principal-point": _set("principal_point", [128.0, 128.0, 1.0]),
               "infinite-focal-length": _set("focal_length", float("inf")),
               "nan-principal-point": _set("principal_point", [float("nan"), 128.0]),
               "nan-translation": _set("translation", [0.0, float("nan"), 0.0]),
               "fractional-image-size": _set("image_size", [256.9, 100.7]),
               "3-entry-image-size": _set("image_size", [256, 256, 3]),
               "boolean-principal-point": _set("principal_point", [True, 128.0]),
               "text-translation": _set("translation", ["0", "0", "0"])},
    "dictionary": {"broken-json": _truncated,
                   "list-not-map": lambda data: b'["hello"]',
                   "string-category": lambda data: b'{"greeting": "hi"}'},
    "transcript": {"broken-json": _truncated,
                   "missing-field": _edited(lambda doc: doc[0].pop("end_time")),
                   "infinite-end-time": _edited(lambda doc: doc[0].update(end_time=float("inf"))),
                   "text-start-time": _edited(lambda doc: doc[0].update(start_time="0.5")),
                   "number-word": _edited(lambda doc: doc[0].update(word=5))},
    "wav": {"not-riff": lambda data: b"plain text, not a RIFF file",
            "truncated-header": lambda data: data[:20]},
    "features": {"broken-json": _truncated, "missing-field": _drop("n_frames"),
                 "wrong-format": _set("format", "audio-features/9"),
                 "negative-onset": _set("onsets", [-1]),
                 "negative-keyword-start": _set("keywords", [[-3, 2, "hello"]]),
                 "reversed-keyword-run": _set("keywords", [[5, 2, "hello"]]),
                 "fractional-count": _edited(
                     lambda doc: doc.update(n_frames=doc["n_frames"] + 0.9)),
                 "number-keyword": _set("keywords", [[0, 2, 7]])},
    "segments": {"broken-json": _truncated, "missing-field": _drop("endpoints"),
                 "wrong-format": _set("format", "segments/9"),
                 "infinite-count": _set("n_frames", float("inf")),
                 "fractional-endpoint": _edited(_fractional_endpoint),
                 "unknown-kind": _edited(lambda doc: doc["features"][0].update(kind="bogus"))},
    "graph": {"broken-json": lambda data: data[: data.index(b"\n") // 2],
              "missing-field": _graph_edited(lambda doc: doc.pop("pairs")),
              "wrong-format": _graph_edited(lambda doc: doc.update(format="motion-graph/9")),
              "format-1": _graph_edited(lambda doc: doc.update(format="motion-graph/1")),
              "format-2": _graph_edited(lambda doc: doc.update(format="motion-graph/2")),
              "nan-fps": _graph_edited(lambda doc: doc.update(fps=float("nan"))),
              "negative-min-jump": _graph_edited(lambda doc: doc.update(min_jump=-3)),
              "fractional-offset-l": _graph_edited(
                  lambda doc: doc["thresholds"].update(offset_l=4.9)),
              "keywords-not-strings": _graph_edited(_keywords_not_strings),
              "truncated-column": _truncated,
              "trailing-byte": lambda data: data + b"\0",
              "flag-byte-2": _graph_edited(lambda doc: doc["onset"].__setitem__(-1, 2))},
    "search-result": {"broken-json": _truncated, "missing-field": _drop("paths"),
                      "wrong-format": _set("format", "search-result/9"),
                      "format-1": _set("format", "search-result/1"),
                      "onsets-not-bool": _set("avoid_onsets_mid_segment", "no"),
                      "fractional-seed": _set("seed", 1.5),
                      "swapped-boundaries": _edited(_swap_boundaries),
                      "boundary-past-the-path": _edited(_boundary_past_the_path),
                      "fractional-node": _edited(_fractional_node),
                      "nan-cost": _edited(
                          lambda doc: doc["paths"][0].update(transition_cost=float("nan")))},
    "edl": {"broken-json": _truncated, "missing-field": _drop("entries"),
            "wrong-format": _set("format", "edl/9"),
            "boolean-blend-k": _set("blend_k", True),
            "text-speed-factor": _entry("run", lambda e: e.update(speed_factor="1")),
            "fractional-window": _entry(
                "transition", lambda e: e.update(src_window=[w + 0.5 for w in e["src_window"]])),
            "boolean-step-rotations": _entry("transition", _boolean_step_rotations),
            "list-provenance": _set("provenance", [["path_rank", 0]])},
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

    @pytest.mark.parametrize("command", ["search", "assemble"])
    def test_motion_graph_2_file_names_both_formats(self, tmp_path, capsys, input_files,
                                                    command):
        # The pipeline's graph in the motion-graph/2 layout: one JSON document,
        # each column of every edge a JSON array, flags as booleans.
        doc = decoded(input_files["graph"].read_bytes())
        graph = load_graph_file(input_files["graph"])
        for name in ("pairs", "m", "n"):
            del doc[name]
        edges = graph.edges
        doc.update(format="motion-graph/2", onset=graph.onset.tolist(),
                   src=[e.src for e in edges], dst=[e.dst for e in edges],
                   synthetic=[e.kind == "synthetic" for e in edges],
                   d_feat=[e.d_feat for e in edges], d_img=[e.d_img for e in edges])
        old = tmp_path / "graph_2.json"
        old.write_text(json.dumps(doc, sort_keys=True))
        files = {name: str(input_files[name]) for name in ("segments", "poses", "path")}
        argv = {"search": ["search", "--graph", str(old), "--segments", files["segments"],
                           "--out", str(tmp_path / "p.json")],
                "assemble": ["assemble", "--graph", str(old), "--poses", files["poses"],
                             "--segments", files["segments"], "--path", files["path"],
                             "--out", str(tmp_path / "e.json")]}[command]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == (f"error in {command}: graph document has no motion-graph/5 "
                                  "header line in its first 65536 bytes; older layouts were one "
                                  "JSON document with no newline")
        assert list(tmp_path.iterdir()) == [old]
