"""Workloads of the pipeline benchmark, run in the benchmark's worker processes.

    python3 perfbench/workloads.py setup   --workload W --seed N --dir D --digests J --repeats R --out F
    python3 perfbench/workloads.py measure --workload W --seed N --dir D --digests J --seconds T \
        --trace 0|1 --spans S --out F

``run.py`` starts these with ``PYTHONPATH`` pointing at the checkout's
``src/``. ``setup`` generates the inputs from the seed ``R`` times and
times each repeat; the last repeat's files become ``D/inputs``.
``measure`` loads what the workload shares across operations, then runs
operations one at a time (a closed loop with one client) and checks every
output after its timer stops.

An operation is one reference build on ``build_long``, one target on
``synth`` and one ``motiongraph run --preview`` process on ``cli_run``.
Operations come in rounds; a run plays whole rounds until the summed
operation time reaches ``--seconds``. A traced run plays a fixed number of
operations with spans recorded, then the same operations again untraced,
so its counts repeat exactly and its tracing overhead is measured on the
same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import tracing

from motiongraph import assembly, audio, fixtures, graph as graph_mod, pose, search, silhouette
from motiongraph.errors import MotionGraphError

BENCH_DIR = Path(__file__).resolve().parent
FPS = fixtures.FIXTURE_FPS
SEARCH_SEEDS = 10_000  # search seeds are drawn uniformly from range(SEARCH_SEEDS)
CLI_TIMEOUT_S = 170


def environment() -> dict:
    import motiongraph

    return {
        "backend": motiongraph.BACKEND,
        "have_numba": motiongraph.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the environment setting."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def write_target(d: Path, length: int) -> None:
    """Target WAV and transcript of ``length`` frames, as ``fixtures.make_fixture`` writes them."""
    clicks = fixtures.click_frames(length, fixtures.TARGET_GAPS, first=40)
    audio.write_wav(
        d / f"target_{length}.wav", fixtures.click_signal(length, clicks), fixtures.FIXTURE_SAMPLE_RATE
    )
    words = [
        audio.TranscriptWord(w, f / FPS, (f + fixtures.WORD_FRAMES) / FPS)
        for w, f in fixtures.TARGET_WORDS
        if f + fixtures.WORD_FRAMES < length
    ]
    audio.save_transcript(d / f"target_{length}_transcript.json", words)


def build_reference(d: Path, out: Path | None = None, trace_memory: bool = False):
    """Reference WAV + transcript + pose track -> graph, the path of ``motiongraph build-graph``.

    With ``trace_memory`` the ``build_graph`` call runs under tracemalloc and
    the traced peak in MB is returned with the graph.
    """
    samples, rate = audio.read_wav(d / "reference.wav")
    transcript = audio.load_transcript(d / "reference_transcript.json")
    features = audio.analyze_audio(samples, rate, FPS, transcript, audio.default_dictionary())
    skeleton, sequence = pose.load_pose_track(d / "puppet_poses.json")
    states = pose.compute_joint_states(skeleton, sequence)
    masks = silhouette.rasterize_sequence(
        skeleton, (s.positions for s in states), silhouette.default_camera()
    )
    thresholds = graph_mod.compute_thresholds(states, masks)
    if trace_memory:
        tracemalloc.start()
    built = graph_mod.build_graph(states, masks, features.records(), thresholds, fps=sequence.fps)
    peak_mb = None
    if trace_memory:
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if out is not None:
        graph_mod.save_graph_file(built, out)
    return built, peak_mb


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    trace_ops = 1  # operations a traced run plays, a fixed prefix of the seed's sequence

    def prelude(self, d, tracer, store):
        """One-off work of the timed process before its first operation."""
        return None, []


class BuildLong(Workload):
    """One 4000-frame reference build per operation: the write path of the graph."""

    name = "build_long"
    frames = 4000

    def setup(self, d: Path, seed: int):
        fixtures.make_fixture(d, reference_frames=self.frames, target_frames=150)
        # The seed picks where in the puppet's slow 777-frame drift the reference starts.
        offset = int(np.random.default_rng(seed).integers(0, 777))
        longer = fixtures.puppet_sequence(self.frames + offset)
        frames = [
            pose.PoseFrame(i, f.root_translation, f.joint_rotations)
            for i, f in enumerate(longer.frames[offset:])
        ]
        pose.save_pose_track(
            d / "puppet_poses.json", fixtures.puppet_skeleton(), pose.MotionSequence(longer.fps, frames)
        )
        return lambda store: ([], {"phase_offset": offset})

    def rounds(self, seed: int):
        while True:
            yield [{}]

    def run(self, spec, d, state, tracer):
        built, _ = build_reference(d, d / "graph_out.json")
        return "ok", {"graph": built}

    def check(self, spec, outputs, d, state, store, key):
        out = d / "graph_out.json"
        digest = checks.graph_digest(outputs["graph"])
        problems = store.check("graph", digest)
        if not out.is_file() or out.stat().st_size == 0:
            problems.append("graph file was not written")
        out.unlink(missing_ok=True)
        return problems, {"graph": digest}


class Synth(Workload):
    """Many targets against one 2000-frame graph: the read path (search, assembly, render)."""

    name = "synth"
    frames = 2000
    lengths = (150, 300, 450)
    trace_ops = 3  # one target of each length

    def setup(self, d: Path, seed: int):
        fixtures.make_fixture(d, reference_frames=self.frames, target_frames=450)
        for length in self.lengths:
            write_target(d, length)
        built, _ = build_reference(d, d / "graph.json")
        loaded = graph_mod.load_graph_file(d / "graph.json")

        def finish(store):
            digest = checks.graph_digest(built)
            problems = store.check("graph", digest)
            if loaded.edges != built.edges or loaded.nodes != built.nodes:
                problems.append("graph changed in a save_graph_file/load_graph_file round trip")
            return problems, {"graph": digest}

        return finish

    def prelude(self, d, tracer, store):
        built = graph_mod.load_graph_file(d / "graph.json")
        skeleton, sequence = pose.load_pose_track(d / "puppet_poses.json")
        if tracer is not None:
            tracer.count("graph.synthetic_edges", sum(1 for e in built.edges if e.kind == "synthetic"))
            tracer.count("graph.file_bytes", (d / "graph.json").stat().st_size)
        return (built, skeleton, sequence), store.check("graph", checks.graph_digest(built))

    def rounds(self, seed: int):
        # Each length twice per round, each time in a seeded order. With one
        # target per length, the round's median flips between the 300- and
        # 450-frame populations from seed to seed.
        rng = np.random.default_rng(seed)
        while True:
            specs = []
            for _ in range(2):
                lengths = rng.permutation(self.lengths)
                seeds = rng.integers(0, SEARCH_SEEDS, size=len(lengths))
                specs += [{"length": int(n), "search_seed": int(s)} for n, s in zip(lengths, seeds)]
            yield specs

    def run(self, spec, d, state, tracer):
        built, skeleton, sequence = state
        n = spec["length"]
        samples, rate = audio.read_wav(d / f"target_{n}.wav")
        transcript = audio.load_transcript(d / f"target_{n}_transcript.json")
        track = audio.analyze_audio(samples, rate, FPS, transcript, audio.default_dictionary())
        segments = audio.segment_target(track)
        outputs = {"segments": segments, "result": None, "edl": None, "frames": 0}
        try:
            result = search.beam_search(built, segments, search.BeamConfig(), seed=spec["search_seed"])
        except MotionGraphError as exc:
            return f"search failed: {exc}", outputs
        outputs["result"] = result
        edl = first_assemblable(result, built, segments, sequence.frames, track)
        if edl is None:
            return "no searched path can host the blend windows", outputs
        outputs["edl"] = edl
        with tracer.span("assembly.render_frames") if tracer else contextlib.nullcontext():
            for _ in assembly.render_frames(edl, skeleton, sequence.frames):
                outputs["frames"] += 1
        return "ok", outputs

    def check(self, spec, outputs, d, state, store, key):
        built = state[0]
        problems, digests = [], {}
        result, edl = outputs["result"], outputs["edl"]
        if result is not None:
            problems += checks.cost_problems(result, built, outputs["segments"])
            digests["path"] = checks.path_digest(result.best)
        if edl is not None:
            digests["edl"] = checks.edl_digest(edl)
            problems += checks.edl_roundtrip_problems(edl, d)
            if outputs["frames"] != edl.total_frames:
                problems.append(f"rendered {outputs['frames']} frames for a {edl.total_frames}-frame EDL")
        for name, digest in digests.items():
            problems += store.check(f"{key}.{name}", digest)
        return problems, digests


def first_assemblable(result, built, segments, frames, track):
    """The CLI's fallback: assemble the best-ranked path that can host the blend windows."""
    for rank, candidate in enumerate(result.paths):
        try:
            return assembly.assemble_edl(
                candidate,
                built,
                segments,
                frames,
                provenance={"search_seed": result.seed, "path_rank": rank},
                speech_track=track,
            )
        except MotionGraphError:
            continue
    return None


class CliRun(Workload):
    """One ``motiongraph run --preview`` process per operation on the default fixture."""

    name = "cli_run"

    def setup(self, d: Path, seed: int):
        fixtures.make_fixture(d)
        return lambda store: ([], {})

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield [{"search_seed": int(rng.integers(0, SEARCH_SEEDS))}]

    def run(self, spec, d, state, tracer):
        out = d / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        args = [
            "run",
            "--poses", str(d / "puppet_poses.json"),
            "--ref-wav", str(d / "reference.wav"),
            "--ref-transcript", str(d / "reference_transcript.json"),
            "--wav", str(d / "target.wav"),
            "--transcript", str(d / "target_transcript.json"),
            "--seed", str(spec["search_seed"]),
            "--preview",
            "--out-dir", str(out / "run"),
        ]
        trace_file = out / "trace.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "motiongraph.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_file), *args]
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se)
            try:
                rc = proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if tracer is not None:
            tracer.add_child_process(json.loads(trace_file.read_text()))
        err = (out / "stderr.txt").read_text(errors="replace")
        if rc == 0:
            return "ok", {"rc": rc, "stderr": err}
        last = err.strip().splitlines()[-1] if err.strip() else f"exit code {rc}"
        return last, {"rc": rc, "stderr": err}

    def check(self, spec, outputs, d, state, store, key):
        out = d / "op"
        run_dir = out / "run"
        problems, digests = [], {}
        crashed = outputs["rc"] != 0 and (
            outputs["rc"] != 1 or "Traceback" in outputs["stderr"] or "error in " not in outputs["stderr"]
        )
        if crashed:
            problems.append(f"CLI exited {outputs['rc']} without a stage diagnostic")
        if (run_dir / "graph.json").is_file():
            built = graph_mod.load_graph_file(run_dir / "graph.json")
            digests["graph"] = checks.graph_digest(built)
            problems += store.check("graph", digests["graph"])
            if (run_dir / "path.json").is_file():
                result = search.load_search_result(run_dir / "path.json")
                segments = audio.load_segments(run_dir / "target_segments.json")
                problems += checks.cost_problems(result, built, segments)
                digests["path"] = checks.path_digest(result.best)
        elif not crashed:
            problems.append("CLI wrote no graph file")
        if (run_dir / "edl.json").is_file():
            edl = assembly.load_edl(run_dir / "edl.json")
            digests["edl"] = checks.edl_digest(edl)
            problems += checks.edl_roundtrip_problems(edl, out)
            n_frames = len(list((run_dir / "preview").glob("frame_*.pgm")))
            if n_frames != edl.total_frames:
                problems.append(f"preview has {n_frames} frames for a {edl.total_frames}-frame EDL")
        elif outputs["rc"] == 0:
            problems.append("CLI exited 0 without an EDL")
        for name, digest in digests.items():
            if name != "graph":
                problems += store.check(f"{key}.{name}", digest)
        shutil.rmtree(out)
        return problems, digests


WORKLOADS = {w.name: w for w in (BuildLong(), Synth(), CliRun())}


# ---------------------------------------------------------------------------
# worker entry points
# ---------------------------------------------------------------------------


def do_setup(wl, seed: int, d: Path, repeats: int, store) -> dict:
    """Set up ``repeats`` times; the last set-up's files and outputs are kept and checked."""
    times = []
    for r in range(repeats):
        shutil.rmtree(d / "inputs", ignore_errors=True)
        (d / "inputs").mkdir(parents=True)
        t0 = time.perf_counter()
        finish = wl.setup(d / "inputs", seed)
        times.append(time.perf_counter() - t0)
    problems, info = finish(store)
    return {"setup_s": times, "problems": problems, "info": info, "env": environment()}


def do_measure(wl, seed: int, d: Path, seconds: float, trace: bool, store, spans_out: Path) -> dict:
    inputs = d / "inputs"
    tracer = tracing.Tracer() if trace else None
    uninstall = tracing.install(tracer) if trace else None
    if tracer:
        tracer.recording = True
    state, prelude_problems = wl.prelude(inputs, tracer, store)
    if tracer:
        tracer.recording = False

    def op(index, spec, traced):
        span = None
        if traced:
            tracer.op, tracer.recording = index, True
            span = tracer.begin("bench.op")
        t0 = time.perf_counter()
        outcome, outputs = wl.run(spec, inputs, state, tracer if traced else None)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end(span)
            tracer.recording = False
            elapsed = tracer.spans[span][2] - tracer.spans[span][1]
        problems, digests = wl.check(spec, outputs, inputs, state, store, f"op{index}")
        return {
            "index": index,
            "spec": spec,
            "seconds": elapsed,
            "outcome": outcome,
            "ok": outcome == "ok" and not problems,
            "problems": problems,
            "digests": digests,
        }

    rounds = wl.rounds(seed)
    result = {"prelude_problems": prelude_problems}
    if not trace:
        ops, busy = [], 0.0
        while busy < seconds:
            for spec in next(rounds):
                ops.append(op(len(ops), spec, False))
                busy += ops[-1]["seconds"]
        usage = resource.RUSAGE_CHILDREN if wl.name == "cli_run" else resource.RUSAGE_SELF
        result.update(ops=ops, peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024)
        return result

    specs = []
    while len(specs) < wl.trace_ops:
        specs += next(rounds)
    specs = specs[: wl.trace_ops]
    ops = [op(i, spec, True) for i, spec in enumerate(specs)]
    uninstall()
    replay = [op(i, spec, False) for i, spec in enumerate(specs)]
    build_peak_mb = build_reference(inputs, trace_memory=True)[1]
    tracer.write(spans_out)

    layers = tracing.layer_metrics(tracer.spans, tracer.counts, len(ops))
    traced_p50 = statistics.median(o["seconds"] for o in ops)
    untraced_p50 = statistics.median(o["seconds"] for o in replay)
    layers["graph.build_peak_mb"] = (build_peak_mb, "MB")
    layers["ok_ratio"] = (sum(o["ok"] for o in ops) / len(ops), "ratio")
    layers["trace.ops"] = (len(ops), "count")
    layers["trace.op_p50_s"] = (traced_p50, "s")
    layers["trace.untraced_op_p50_s"] = (untraced_p50, "s")
    layers["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    result.update(ops=ops, replay=replay, layers=layers)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--digests", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    store = checks.DigestStore(args.digests)
    if args.mode == "setup":
        doc = do_setup(wl, args.seed, args.dir, args.repeats, store)
    else:
        doc = do_measure(wl, args.seed, args.dir, args.seconds, bool(args.trace), store, args.spans)
    store.save()
    args.out.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
