"""Command-line pipeline: reference performance in, edit decision list out.

Stages communicate via files, so each subcommand can run in isolation:

    build-graph    pose track + reference features -> graph file
    analyze-audio  WAV + transcript -> feature + segment files
    search         graph + segments -> path file (seeded)
    assemble       path -> EDL file
    preview        EDL -> numbered PGM frames
    run            all of the above end-to-end; it still writes every file,
                   but hands the parsed pose track and the built graph
                   from stage to stage in memory

Usage problems (unknown flags, missing input files) exit with code 2 before
anything is written; pipeline failures exit 1 with a diagnostic naming the
stage.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import assembly, audio, graph as graph_mod, pose, search, silhouette
from .errors import MotionGraphError, ValidationError

STATUS_FAILURE = 1


@contextlib.contextmanager
def _stage(name: str):
    """Context that converts engine errors into stage-named diagnostics."""
    try:
        yield
    except MotionGraphError as exc:
        raise SystemExit(f"error in {name}: {exc}") from exc


def _require_files(parser: argparse.ArgumentParser, *paths) -> None:
    for p in paths:
        if p is not None and not Path(p).is_file():
            parser.error(f"input file not found: {p}")


def _parse_window(text: str) -> tuple[float, float]:
    try:
        low, high = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated numbers, got {text!r}"
        )
    return low, high


def _path_rank(text: str) -> int:
    rank = int(text)
    if rank < 0:
        raise argparse.ArgumentTypeError(f"a path rank is >= 0, got {rank}")
    return rank


def _load_camera_arg(path: str | None) -> silhouette.CameraModel:
    if path is None:
        return silhouette.default_camera()
    return silhouette.load_camera(path)


def _add_camera_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--camera", default=None, help="camera JSON (default: built-in camera)")


def _add_audio_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dictionary", default=None,
                     help="keyword dictionary JSON (default: built-in)")
    sub.add_argument("--onset-delta", type=float, default=audio.OnsetConfig().threshold_delta,
                     help="an onset's flux must exceed (1 + delta) x the local median")


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threshold-offset", type=int, default=graph_mod.DEFAULT_OFFSET_L,
                     help="frame offset l for threshold calibration (default 4)")
    sub.add_argument("--min-jump", type=int, default=graph_mod.DEFAULT_MIN_JUMP,
                     help="minimum |m-n| for synthetic transitions (default 2)")
    sub.add_argument("--velocity-weight", type=float, default=1.0,
                     help="weight of the velocity term in d_feat (default 1.0)")
    sub.add_argument("--dump-masks", default=None, metavar="DIR",
                     help="also write per-frame silhouette PGMs")


def _add_search_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="random seed for start nodes")
    sub.add_argument(
        "--beam-width", type=int, default=search.DEFAULT_BEAM_WIDTH,
        help="number of random start nodes and of returned paths",
    )
    sub.add_argument(
        "--duration-window", type=_parse_window, default=search.DEFAULT_DURATION_WINDOW,
        metavar="LOW,HIGH", help="accepted L'/L ratio band (default 0.9,1.1)",
    )
    sub.add_argument("--duration-weight", type=float, default=1.0)
    sub.add_argument(
        "--start-frame", type=int, default=None,
        help="pin all starts to one reference frame instead of sampling",
    )
    sub.add_argument(
        "--allow-onsets-mid-segment", action="store_true",
        help="let walks pass through onset-activated nodes",
    )
    sub.add_argument("--blend-k", type=int, default=search.DEFAULT_BLEND_K,
                     help="blend neighborhood size k the paths must host (default 4)")


def _beam_config(args) -> search.BeamConfig:
    return search.BeamConfig(
        beam_width=args.beam_width,
        duration_window=tuple(args.duration_window),
        duration_weight=args.duration_weight,
        avoid_onsets_mid_segment=not args.allow_onsets_mid_segment,
        blend_k=args.blend_k,
    )


def _cmd_build_graph(parser, args, track=None) -> graph_mod.VideoMotionGraph:
    """Build the graph of the pose track, or of ``track`` when ``run`` passes
    the one it parsed, and write it to ``args.out``."""
    _require_files(parser, args.poses, args.features, args.camera)
    with _stage("build-graph"):
        skeleton, sequence = track or pose.load_pose_track(args.poses)
        features = audio.load_features(args.features)
        if (len(features), features.fps) != (len(sequence), sequence.fps):
            raise ValidationError(
                f"feature file {args.features} covers {len(features)} frames at "
                f"{features.fps:g} fps, but the pose track has {len(sequence)} frames "
                f"at {sequence.fps:g} fps"
            )
        camera = _load_camera_arg(args.camera)
        states = pose.compute_joint_states(skeleton, sequence)
        masks = silhouette.rasterize_sequence(
            skeleton, (s.positions for s in states), camera
        )
        if args.dump_masks:
            dump = Path(args.dump_masks)
            dump.mkdir(parents=True, exist_ok=True)
            w, h = camera.image_size
            for i, row in enumerate(masks):
                mask = silhouette.unpack_mask(row, w, h)
                silhouette.write_pgm(mask.view(np.uint8) * 255, dump / f"mask_{i:06d}.pgm")
        thresholds = graph_mod.compute_thresholds(
            states, masks, offset_l=args.threshold_offset, velocity_weight=args.velocity_weight
        )
        built = graph_mod.build_graph(
            states, masks, features.records(), thresholds,
            min_jump=args.min_jump, velocity_weight=args.velocity_weight, fps=sequence.fps,
        )
        graph_mod.save_graph_file(built, args.out)
    print(
        f"graph: {len(built)} nodes, {built.src.size} edges "
        f"({int(built.synthetic.sum())} synthetic), "
        f"tau_feat={built.thresholds.tau_feat:.6g}, tau_img={built.thresholds.tau_img:.6g} "
        f"-> {args.out}"
    )
    return built


def _cmd_analyze_audio(parser, args) -> None:
    _require_files(parser, args.wav, args.transcript, args.dictionary)
    with _stage("analyze-audio"):
        samples, rate = audio.read_wav(args.wav)
        transcript = audio.load_transcript(args.transcript) if args.transcript else []
        dictionary = audio.load_dictionary(args.dictionary) if args.dictionary else None
        config = audio.OnsetConfig(threshold_delta=args.onset_delta)
        track = audio.analyze_audio(
            samples, rate, args.fps, transcript, dictionary, config
        )
        audio.save_features(args.features_out, track)
        segments = audio.segment_target(track)
        audio.save_segments(args.segments_out, segments)
    print(
        f"features: {len(track)} frames, {int(track.onsets.sum())} onsets, "
        f"{segments.segment_count} segments -> {args.features_out}, {args.segments_out}"
    )


def _cmd_search(parser, args, built=None) -> None:
    """Search the graph file, or ``built`` when ``run`` passes the graph it
    built, for the segments in ``args.segments``; write ``args.out``."""
    _require_files(parser, args.graph, args.segments)
    with _stage("search"):
        config = _beam_config(args)  # a bad search parameter fails before the graph is read
        if built is None:
            built = graph_mod.load_graph_file(args.graph)
        segments = audio.load_segments(args.segments)
        result = search.beam_search(
            built, segments, config, seed=args.seed, start_frame=args.start_frame
        )
        search.save_search_result(args.out, result)
    best = result.best
    print(
        f"search: {len(result.paths)} paths, best cost "
        f"{best.total_cost(args.duration_weight):.6g} "
        f"({len(best.node_sequence)} nodes) -> {args.out}"
    )


def _cmd_assemble(parser, args, built=None, sequence=None) -> None:
    """Assemble path ``args.path_index`` of ``args.path`` on the graph file and the
    pose track, or on ``built`` and ``sequence`` when ``run`` passes them; write ``args.out``."""
    _require_files(parser, args.graph, args.poses, args.segments, args.path, args.target_features)
    with _stage("assemble"):
        if built is None:
            built = graph_mod.load_graph_file(args.graph)
        if sequence is None:
            _, sequence = pose.load_pose_track(args.poses)
        segments = audio.load_segments(args.segments)
        result = search.load_search_result(args.path)
        speech = (
            audio.load_features(args.target_features) if args.target_features else None
        )
        digest = hashlib.sha256()
        with open(args.graph, "rb") as graph_file:
            for block in iter(lambda: graph_file.read(1 << 20), b""):  # 1 MiB at a time
                digest.update(block)
        provenance = {
            "graph_sha256": digest.hexdigest(),
            "search_seed": result.seed,
        }
        rank = args.path_index
        if rank >= len(result.paths):
            raise ValidationError(
                f"--path-index {rank} is out of range: {args.path} "
                f"holds {len(result.paths)} paths"
            )
        edl = assembly.assemble_edl(
            result.paths[rank], built, segments, sequence.frames, k=result.config.blend_k,
            provenance=dict(provenance, path_rank=rank), speech_track=speech,
        )
        assembly.save_edl(args.out, edl)
    n_trans = sum(1 for e in edl.entries if isinstance(e, assembly.TransitionEntry))
    print(
        f"edl: {edl.total_frames} output frames, {n_trans} transitions, "
        f"k={edl.blend_k} -> {args.out}"
    )


def _cmd_preview(parser, args, track=None) -> None:
    """Render ``args.edl`` over the pose track, or over ``track`` when ``run``
    passes the one it parsed, into ``args.out_dir``."""
    _require_files(parser, args.edl, args.poses, args.camera)
    with _stage("preview"):
        skeleton, sequence = track or pose.load_pose_track(args.poses)
        edl = assembly.load_edl(args.edl)
        written = assembly.render_preview(
            edl, skeleton, sequence.frames, args.out_dir, _load_camera_arg(args.camera)
        )
    print(f"preview: {len(written)} frames -> {args.out_dir}")


def _cmd_run(parser, args) -> None:
    """Every stage in turn, writing each stage's files. The pose track is
    parsed once and the graph is built once; both pass to the later stages
    in memory, and every other input is read back from the file written."""
    _require_files(
        parser, args.poses, args.ref_wav, args.ref_transcript, args.wav,
        args.transcript, args.camera, args.dictionary,
    )
    # A bad search parameter fails before any input is read or output written.
    with _stage("search"):
        _beam_config(args)
    # Both audio files are analyzed at the pose track's frame rate.
    track = pose.load_pose_track(args.poses)
    _, sequence = track
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ns = argparse.Namespace(**vars(args), fps=sequence.fps)
    for role, wav, transcript in (("reference", args.ref_wav, args.ref_transcript),
                                  ("target", args.wav, args.transcript)):
        ns.wav, ns.transcript = wav, transcript
        ns.features_out = out / f"{role}_features.json"
        ns.segments_out = out / f"{role}_segments.json"
        _cmd_analyze_audio(parser, ns)

    ns.features = out / "reference_features.json"
    ns.out = out / "graph.json"
    built = _cmd_build_graph(parser, ns, track)

    ns.graph = out / "graph.json"
    ns.segments = out / "target_segments.json"
    ns.out = out / "path.json"
    _cmd_search(parser, ns, built)

    ns.path = out / "path.json"
    ns.target_features = out / "target_features.json"
    ns.path_index = 0
    ns.out = out / "edl.json"
    _cmd_assemble(parser, ns, built, sequence)

    if args.preview:
        ns.edl = out / "edl.json"
        ns.out_dir = out / "preview"
        _cmd_preview(parser, ns, track)
    print(f"run: artifacts in {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motiongraph",
        description="Build a video motion graph from a reference performance and "
        "search it for playback paths matching a target audio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="pose track + features -> graph file")
    p.add_argument("--poses", required=True, help="pose track JSON")
    p.add_argument("--features", required=True, help="reference audio features JSON")
    _add_camera_flag(p)
    p.add_argument("--out", required=True, help="output graph file")
    _add_graph_flags(p)
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("analyze-audio", help="WAV + transcript -> feature/segment files")
    p.add_argument("--wav", required=True, help="16-bit PCM WAV (mono or stereo)")
    p.add_argument("--transcript", default=None, help="word-timing JSON")
    p.add_argument("--fps", type=float, default=30.0, help="video frame rate (default 30)")
    _add_audio_flags(p)
    p.add_argument("--features-out", required=True)
    p.add_argument("--segments-out", required=True)
    p.set_defaults(func=_cmd_analyze_audio)

    p = sub.add_parser("search", help="graph + segments -> path file")
    p.add_argument("--graph", required=True)
    p.add_argument("--segments", required=True)
    p.add_argument("--out", required=True)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("assemble", help="path -> EDL file")
    p.add_argument("--graph", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--segments", required=True)
    p.add_argument("--path", required=True, help="search-result file")
    p.add_argument("--target-features", default=None,
                   help="target feature file, for speech marks in the EDL")
    p.add_argument("--path-index", type=_path_rank, default=0,
                   help="assemble this path rank (default 0, the best)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("preview", help="EDL -> numbered PGM frames")
    p.add_argument("--edl", required=True)
    p.add_argument("--poses", required=True)
    _add_camera_flag(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_preview)

    p = sub.add_parser("run", help="end-to-end pipeline")
    p.add_argument("--poses", required=True, help="pose track JSON")
    p.add_argument("--ref-wav", required=True, help="reference audio WAV")
    p.add_argument("--ref-transcript", default=None, help="reference transcript JSON")
    p.add_argument("--wav", required=True, help="target audio WAV")
    p.add_argument("--transcript", default=None, help="target transcript JSON")
    _add_camera_flag(p)
    _add_audio_flags(p)
    _add_graph_flags(p)
    _add_search_flags(p)
    p.add_argument("--preview", action="store_true", help="also render the PGM preview")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(parser, args)
    except MotionGraphError as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return STATUS_FAILURE
    return 0


if __name__ == "__main__":
    sys.exit(main())
