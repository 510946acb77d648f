"""Turn a searched path into an edit decision list and a skeleton preview.

The EDL is the hand-off boundary to any external renderer: an ordered list
of source-frame runs (with speed factors) and blend schedules at synthetic
transitions, carrying source indices, blend weights, and the interpolated
poses so downstream tools need no re-derivation.

Timeline contract: the path's first node is the start anchor and emits no
output; every following node is one output frame before speed adjustment.
A transition at a synthetic cut (m -> n) replaces the k+1 trailing played
frames [m-k, m] of the incoming run and the k+1 leading frames [n, n+k] of
the outgoing run with 2k+1 blended steps (weights 0, 1/(2k), ..., 1). The
first step bit-reproduces frame m-k and is the continuity anchor; the 2k
steps after it are the frames the transition creates. The remaining output
budget (sum of target segment lengths minus transition slots) is split
across the trimmed run cores by largest remainder, each resampled uniformly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio import AudioFeatureTrack, SegmentList
from .errors import (AssemblyError, StructuralError, ValidationError, integer, integers,
                     read_document, real)
from .graph import VideoMotionGraph
# ``forward_kinematics`` stays importable from here: perfbench/tracing.py wraps it.
from .pose import (  # noqa: F401
    PoseFrame,
    Skeleton,
    batch_forward_kinematics,
    forward_kinematics,
    interpolate_pose,
)
from .search import (DEFAULT_BLEND_K, PathCandidate, PlaybackEntry, _check_segment_count,
                     resample_segment)
# ``rasterize_silhouette`` stays importable from here: perfbench/tracing.py wraps it.
from .silhouette import (  # noqa: F401
    CameraModel,
    default_camera,
    rasterize_chunks,
    rasterize_silhouette,
    write_pgm_frames,
)


EDL_FORMAT = "edl/1"


@dataclass(frozen=True)
class BlendStep:
    alpha: float
    src_frame: int  # i in [m-k, m]
    dst_frame: int  # j in [n, n+k]
    pose: PoseFrame  # (1-alpha)*theta_i + alpha*theta_j

    def __post_init__(self):
        object.__setattr__(self, "alpha", real("blend step alpha", self.alpha))
        object.__setattr__(self, "src_frame", integer("blend step src", self.src_frame, 0))
        object.__setattr__(self, "dst_frame", integer("blend step dst", self.dst_frame, 0))


@dataclass(frozen=True)
class BlendSchedule:
    """2k+1 blended steps bridging the windows [m-k, m] and [n, n+k]."""

    src_window: tuple[int, int]  # (m-k, m)
    dst_window: tuple[int, int]  # (n, n+k)
    steps: tuple[BlendStep, ...]

    def __post_init__(self):
        for name in ("src_window", "dst_window"):
            object.__setattr__(self, name, integers(name, getattr(self, name), 0))
        k = self.src_window[1] - self.src_window[0]
        if k < 1 or self.dst_window[1] - self.dst_window[0] != k:
            raise ValidationError("blend windows must both span k>=1 frames, got "
                                  f"src_window={self.src_window}, dst_window={self.dst_window}")
        if len(self.steps) != 2 * k + 1:
            raise StructuralError(f"expected {2 * k + 1} steps, got {len(self.steps)}")
        for i, step in enumerate(self.steps):
            if step.alpha != i / (2 * k):
                raise ValidationError(
                    f"step {i} alpha {step.alpha} != {i / (2 * k)} on the uniform grid"
                )

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class RunEntry:
    source_start: int  # inclusive reference frame span
    source_end: int
    speed_factor: float  # source frames per output frame
    frames: tuple[PlaybackEntry, ...]

    def __post_init__(self):
        for name in ("source_start", "source_end"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 0))
        object.__setattr__(self, "speed_factor", real("speed_factor", self.speed_factor))

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class TransitionEntry:
    schedule: BlendSchedule

    def __len__(self) -> int:
        return len(self.schedule)


@dataclass
class EditDecisionList:
    fps: float
    total_frames: int
    start_frame: int  # path anchor; emits no output
    blend_k: int
    entries: list  # RunEntry | TransitionEntry, in playback order
    provenance: dict = field(default_factory=dict)
    speech_frames: tuple[int, ...] = ()  # output slots where the target speaks

    def __post_init__(self):
        self.fps = real("fps", self.fps, 0, above=True)
        self.total_frames = integer("total_frames", self.total_frames, 0)
        self.start_frame = integer("start_frame", self.start_frame, 0)
        self.blend_k = integer("blend_k", self.blend_k, 1)
        self.speech_frames = slots = integers("speech frame", self.speech_frames, 0)
        if slots and not (slots[-1] < self.total_frames and list(slots) == sorted(set(slots))):
            raise ValidationError("speech frames must be strictly rising output slots below "
                                  f"total_frames={self.total_frames}, got {slots}")
        if not isinstance(self.provenance, dict):
            raise ValidationError(
                f"provenance must be a dict, got {type(self.provenance).__name__}")
        try:  # as ``save_edl`` writes it: strict JSON
            json.dumps(self.provenance, allow_nan=False, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"provenance must be strict JSON: {exc}") from exc
        emitted = sum(len(e) for e in self.entries)
        if emitted != self.total_frames:
            raise StructuralError(
                f"entries emit {emitted} frames but total_frames={self.total_frames}"
            )


def _split_runs(output_nodes):
    """Maximal natural stretches + the synthetic cuts between them: a step
    a -> b is natural iff b == a + 1 (a synthetic edge jumps min_jump >= 2)."""
    runs = [[output_nodes[0]]]
    cuts = []
    for a, b in zip(output_nodes, output_nodes[1:]):
        if b != a + 1:
            cuts.append((a, b))
            runs.append([b])
        else:
            runs[-1].append(b)
    return runs, cuts


def _apportion(budget: int, weights: list[int]) -> list[int]:
    """Largest-remainder split of ``budget`` slots, >=1 per positive weight."""
    total = sum(weights)
    shares = [budget * w / total for w in weights]
    out = [math.floor(s) for s in shares]
    remainders = sorted(
        range(len(weights)), key=lambda i: (-(shares[i] - out[i]), i)
    )
    short = budget - sum(out)
    for i in remainders[:short]:
        out[i] += 1
    donors = sorted(range(len(out)), key=lambda i: -out[i])
    for i in range(len(out)):
        if weights[i] > 0 and out[i] == 0:
            for d in donors:
                if out[d] > 1:
                    out[d] -= 1
                    out[i] = 1
                    break
    return out


def make_blend_schedule(
    poses: Sequence[PoseFrame], m: int, n: int, k: int
) -> BlendSchedule:
    """Blend steps for a synthetic cut m -> n.

    Step t pairs source frames i = min(m-k+t, m) and j = n + max(0, t-k)
    with weight t/(2k): the blend walks the incoming window to the cut, then
    the outgoing window away from it, hitting (m, n) at weight 1/2.
    """
    k = integer("blend neighborhood k", k, 1)
    if m - k < 0 or n + k >= len(poses):
        raise AssemblyError(
            f"transition ({m}, {n}): blend windows [{m - k}, {m}] and [{n}, {n + k}] "
            f"leave the reference range 0..{len(poses) - 1}"
        )
    steps = []
    for t in range(2 * k + 1):
        alpha = t / (2 * k)
        i = min(m - k + t, m)
        j = n + max(0, t - k)
        steps.append(
            BlendStep(
                alpha=alpha,
                src_frame=i,
                dst_frame=j,
                pose=interpolate_pose(poses[i], poses[j], alpha),
            )
        )
    return BlendSchedule(src_window=(m - k, m), dst_window=(n, n + k), steps=tuple(steps))


def assemble_edl(
    path: PathCandidate,
    graph: VideoMotionGraph,
    segments: SegmentList,
    poses: Sequence[PoseFrame],
    k: int = DEFAULT_BLEND_K,
    provenance: dict | None = None,
    speech_track: AudioFeatureTrack | None = None,
) -> EditDecisionList:
    """Build the playback plan for one searched path.

    Raises StructuralError when ``poses`` has fewer frames than the graph has
    nodes or the path's segments are not one per target segment, AssemblyError
    when a run bordering a synthetic transition is too short to host its blend
    window or the output budget cannot cover the transitions.
    """
    k = integer("blend neighborhood k", k, 1)
    if len(poses) < len(graph):
        raise StructuralError(f"{len(poses)} pose frames for {len(graph)} graph nodes")
    _check_segment_count(path, segments.durations)
    nodes = list(path.node_sequence)
    missing = np.isnan(graph.edge_costs(nodes[:-1], nodes[1:]))
    if missing.any():
        i = int(np.argmax(missing))
        raise AssemblyError(f"path step ({nodes[i]}, {nodes[i + 1]}) is not a graph edge")
    # A synthetic anchor edge is a cut before the first visible frame: there
    # is nothing played to blend with, so it is a hard cut without a schedule.
    runs, cuts = _split_runs(nodes[1:])

    total = sum(segments.durations)
    slots_per_transition = 2 * k + 1
    budget = total - len(cuts) * slots_per_transition
    if budget < 0:
        raise AssemblyError(
            f"{len(cuts)} transitions x {slots_per_transition} slots exceed the "
            f"{total}-frame output budget"
        )

    schedules = []
    for m, n in cuts:
        schedules.append(make_blend_schedule(poses, m, n, k))

    # Trim the blend windows off the adjacent runs.
    cores = []
    for r, run in enumerate(runs):
        head = k + 1 if r > 0 else 0  # frames [n, n+k] consumed by the cut into r
        tail = k + 1 if r < len(runs) - 1 else 0  # frames [m-k, m] consumed by the next cut
        if len(run) < head + tail:
            m, n = cuts[r - 1] if head and len(run) < head else cuts[r]
            raise AssemblyError(
                f"run of {len(run)} frames at source {run[0]} is too short for the "
                f"blend window of transition ({m}, {n}) with k={k}"
            )
        cores.append(run[head : len(run) - tail])

    weights = [len(c) for c in cores]
    nonempty = sum(1 for w in weights if w > 0)
    if budget < nonempty:
        raise AssemblyError(
            f"output budget {budget} cannot give each of {nonempty} runs a frame"
        )
    if sum(weights) == 0 and budget > 0:
        raise AssemblyError("all run material consumed by blend windows")
    alloc = _apportion(budget, weights) if budget > 0 and sum(weights) > 0 else [0] * len(cores)

    entries: list = []
    for r, core in enumerate(cores):
        if r > 0:
            entries.append(TransitionEntry(schedule=schedules[r - 1]))
        if not core or alloc[r] == 0:
            continue
        entries.append(
            RunEntry(
                source_start=core[0],
                source_end=core[-1],
                speed_factor=len(core) / alloc[r],
                frames=resample_segment(core, alloc[r]),
            )
        )

    speech: tuple[int, ...] = ()
    if speech_track is not None:
        if len(speech_track) != segments.n_frames:
            raise StructuralError(
                f"speech track has {len(speech_track)} frames, segments expect "
                f"{segments.n_frames}"
            )
        # Output slot j plays target frame j+2 (1-based); slot 0 follows the
        # anchor at a_0 = 1.
        speech = tuple(
            j for j in range(total) if speech_track.keywords[j + 1] != ""
        )

    return EditDecisionList(
        fps=graph.fps,
        total_frames=total,
        start_frame=path.node_sequence[0],
        blend_k=k,
        entries=entries,
        provenance=dict(provenance or {}),
        speech_frames=speech,
    )


# ---------------------------------------------------------------------------
# preview rendering
# ---------------------------------------------------------------------------


def render_frames(
    edl: EditDecisionList,
    skeleton: Skeleton,
    poses: Sequence[PoseFrame],
    camera: CameraModel | None = None,
):
    """Yield one uint8 (H, W) image per output frame (body=255, bg=0).

    Run frames draw the nearest source pose; transition frames draw the
    stored interpolated pose. Every run's source frames are checked before
    the first image is yielded. Forward kinematics runs once over all output
    poses, and the frames are rasterized ``silhouette.RASTER_CHUNK`` at a time
    through ``camera`` (default ``default_camera()``). Deterministic.
    """
    camera = camera or default_camera()
    frames = []
    for entry in edl.entries:
        if isinstance(entry, RunEntry):
            for pb in entry.frames:
                if not 0 <= pb.source_frame < len(poses):
                    raise AssemblyError(f"missing source frame {pb.source_frame}")
                frames.append(poses[pb.source_frame])
        else:
            frames.extend(step.pose for step in entry.schedule.steps)
    for masks in rasterize_chunks(skeleton, batch_forward_kinematics(skeleton, frames), camera):
        yield from masks.view(np.uint8) * 255


def render_preview(
    edl: EditDecisionList,
    skeleton: Skeleton,
    poses: Sequence[PoseFrame],
    output_dir: str | Path = "preview",
    camera: CameraModel | None = None,
) -> list[Path]:
    """Write ``render_frames``' images as numbered PGM frames under ``output_dir``, deleting
    the numbered frames of an earlier, longer preview there (``write_pgm_frames``)."""
    return write_pgm_frames(render_frames(edl, skeleton, poses, camera), output_dir, "frame")


# ---------------------------------------------------------------------------
# EDL file
# ---------------------------------------------------------------------------


def save_edl(path: str | Path, edl: EditDecisionList) -> None:
    entries = []
    for entry in edl.entries:
        if isinstance(entry, RunEntry):
            entries.append(
                {
                    "type": "run",
                    "source_start": entry.source_start,
                    "source_end": entry.source_end,
                    "speed_factor": entry.speed_factor,
                    "frames": [
                        {"source": pb.source_frame, "position": pb.position}
                        for pb in entry.frames
                    ],
                }
            )
        else:
            sched = entry.schedule
            entries.append(
                {
                    "type": "transition",
                    "src_window": list(sched.src_window),
                    "dst_window": list(sched.dst_window),
                    "steps": [
                        {
                            "alpha": s.alpha,
                            "src": s.src_frame,
                            "dst": s.dst_frame,
                            "root": s.pose.root_translation.tolist(),
                            "rotations": s.pose.joint_rotations.tolist(),
                        }
                        for s in sched.steps
                    ],
                }
            )
    doc = {
        "format": EDL_FORMAT,
        "fps": edl.fps,
        "total_frames": edl.total_frames,
        "start_frame": edl.start_frame,
        "blend_k": edl.blend_k,
        "provenance": edl.provenance,
        "speech_frames": list(edl.speech_frames),
        "entries": entries,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_edl(path: str | Path) -> EditDecisionList:
    def step(s):
        # Both frames are checked under the step's names before the pose takes
        # one as its index: ``interpolate_pose(a, b, 1.0)`` is b, else a's index.
        src, dst = integer("blend step src", s["src"], 0), integer("blend step dst", s["dst"], 0)
        frame = dst if s["alpha"] == 1 else src
        return BlendStep(s["alpha"], src, dst, PoseFrame(frame, s["root"], s["rotations"]))

    def build(doc):
        entries: list = []
        for e in doc["entries"]:
            if e["type"] == "run":
                frames = tuple(PlaybackEntry(f["source"], f["position"]) for f in e["frames"])
                entries.append(RunEntry(e["source_start"], e["source_end"], e["speed_factor"],
                                        frames))
            elif e["type"] == "transition":
                entries.append(TransitionEntry(BlendSchedule(
                    e["src_window"], e["dst_window"], tuple(map(step, e["steps"])))))
            else:
                raise ValidationError(f"unknown EDL entry type {e['type']!r}")
        return EditDecisionList(
            fps=doc["fps"],
            total_frames=doc["total_frames"],
            start_frame=doc["start_frame"],
            blend_k=doc["blend_k"],
            entries=entries,
            provenance=doc["provenance"],
            speech_frames=doc["speech_frames"],
        )

    return read_document(Path(path).read_bytes(), f"EDL {path}", EDL_FORMAT, build)
