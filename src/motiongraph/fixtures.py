"""Deterministic synthetic fixtures: a gesturing puppet and click-track audio.

The puppet is a 15-joint humanoid whose arm/torso motion is a sum of
sinusoids sharing a 120-frame base period plus a slow incommensurate drift,
so poses nearly (but never exactly) recur: the recurrences become synthetic
graph transitions with small positive costs. The audio fixtures are silent
except for short broadband clicks at chosen frames, and keyword timing comes
from transcript files, so every feature frame is known by construction.

``python -m motiongraph.fixtures OUTDIR`` writes the full demo input set.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .audio import TranscriptWord, save_transcript, write_wav
from .pose import Joint, MotionSequence, PoseFrame, Skeleton, save_pose_track

FIXTURE_FPS = 30.0
FIXTURE_SAMPLE_RATE = 48000

#: Click gap cycles. The target cycle is the reference cycle rotated to start
#: where a silent lead-in can land (just after a 42-frame gap opens), so a
#: fully natural zero-cost playback path exists and searched paths stay
#: phase-aligned with the reference click schedule.
REFERENCE_GAPS = (24, 30, 36, 30, 42, 30, 24, 36)
TARGET_GAPS = (30, 24, 36, 24, 30, 36, 30, 42)

#: (word, start frame) utterances, 12 frames (0.4 s) each. Every word starts
#: 15 frames after a click that is followed by a 30-frame gap, in both roles,
#: so a keyword segment plays as click node + 15 natural steps onto the span
#: start + 15 more onto the next click. The two target keywords sit exactly
#: where the natural phase-aligned ride reaches them; reference spans recur
#: once per 504 frames so longer references offer several landings.
REFERENCE_WORDS = (
    ("hello", 387),
    ("one", 459),
    ("two", 573),
    ("here", 711),
    ("hello", 891),
    ("move", 963),
    ("two", 1077),
    ("hello", 1395),
    ("two", 1581),
)
TARGET_WORDS = (("hello", 235), ("two", 421))
WORD_FRAMES = 12


def puppet_skeleton() -> Skeleton:
    j = Joint
    return Skeleton(
        (
            j("pelvis", None, (0.0, 0.0, 0.0), 0.10),
            j("spine", 0, (0.0, 0.20, 0.0), 0.10),
            j("chest", 1, (0.0, 0.20, 0.0), 0.11),
            j("neck", 2, (0.0, 0.15, 0.0), 0.05),
            j("head", 3, (0.0, 0.12, 0.0), 0.09),
            j("l_shoulder", 2, (0.20, 0.05, 0.0), 0.05),
            j("l_elbow", 5, (0.26, 0.0, 0.0), 0.045),
            j("l_wrist", 6, (0.24, 0.0, 0.0), 0.04),
            j("r_shoulder", 2, (-0.20, 0.05, 0.0), 0.05),
            j("r_elbow", 8, (-0.26, 0.0, 0.0), 0.045),
            j("r_wrist", 9, (-0.24, 0.0, 0.0), 0.04),
            j("l_hip", 0, (0.10, -0.05, 0.0), 0.06),
            j("l_knee", 11, (0.0, -0.40, 0.0), 0.055),
            j("r_hip", 0, (-0.10, -0.05, 0.0), 0.06),
            j("r_knee", 13, (0.0, -0.40, 0.0), 0.055),
        )
    )


# Per-joint oscillators: (joint, axis, base, amplitude, period, phase).
# Periods divide 120, so the gesture loop repeats every 120 frames.
_OSCILLATORS = (
    (1, 2, 0.0, 0.06, 120.0, 0.0),
    (2, 2, 0.0, 0.04, 120.0, 0.7),
    (3, 0, 0.0, 0.08, 60.0, 1.1),
    (5, 2, -1.05, 0.45, 120.0, 0.0),
    (5, 0, 0.0, 0.30, 60.0, 0.5),
    (6, 1, 0.55, 0.40, 40.0, 1.2),
    (7, 2, 0.15, 0.20, 60.0, 2.0),
    (8, 2, 1.05, -0.45, 120.0, 0.9),
    (8, 0, 0.0, 0.26, 60.0, 2.1),
    (9, 1, -0.55, -0.38, 40.0, 0.4),
    (10, 2, -0.15, 0.20, 60.0, 1.5),
    (11, 0, 0.0, 0.05, 120.0, 0.3),
    (13, 0, 0.0, 0.05, 120.0, 2.4),
)

#: Slow drift that keeps repeats inexact (period incommensurate with 120).
_DRIFT_PERIOD = 777.0
_DRIFT_AMPLITUDE = 0.02


def puppet_sequence(n_frames: int, fps: float = FIXTURE_FPS) -> MotionSequence:
    """Standing puppet at z=2.5 m gesturing in front of the default camera."""
    frames = []
    n_joints = len(puppet_skeleton())
    for t in range(n_frames):
        rotations = np.zeros((n_joints, 3))
        for joint, axis, base, amp, period, phase in _OSCILLATORS:
            rotations[joint, axis] = base + amp * math.sin(
                2.0 * math.pi * t / period + phase
            )
            rotations[joint, axis] += _DRIFT_AMPLITUDE * math.sin(
                2.0 * math.pi * t / _DRIFT_PERIOD + 0.3 * joint
            )
        frames.append(
            PoseFrame(
                frame_index=t,
                root_translation=np.array([0.0, 0.0, 2.5]),
                joint_rotations=rotations,
            )
        )
    return MotionSequence(fps=fps, frames=frames)


def click_frames(n_frames: int, gaps, first: int = 30) -> list[int]:
    """Click positions: ``first``, then cycling through ``gaps``."""
    frames = []
    t = first
    i = 0
    while t < n_frames - 12:
        frames.append(t)
        t += gaps[i % len(gaps)]
        i += 1
    return frames

def click_signal(
    n_frames: int, clicks, fps: float = FIXTURE_FPS, sample_rate: int = FIXTURE_SAMPLE_RATE
) -> np.ndarray:
    """Digital silence plus a 2 ms alternating-sign burst at each click frame."""
    samples = np.zeros(int(round(n_frames / fps * sample_rate)))
    burst = 0.9 * np.hanning(96) * np.where(np.arange(96) % 2 == 0, 1.0, -1.0)
    for frame in clicks:
        at = int(round(frame / fps * sample_rate))
        if at + burst.size <= samples.size:
            samples[at : at + burst.size] += burst
    return samples


def _word_list(words, fps: float) -> list[TranscriptWord]:
    out = []
    for word, start_frame in words:
        out.append(
            TranscriptWord(
                word=word,
                start_time=start_frame / fps,
                end_time=(start_frame + WORD_FRAMES) / fps,
            )
        )
    return out


def make_fixture(
    out_dir: str | Path,
    reference_frames: int = 2000,
    target_frames: int = 450,
    fps: float = FIXTURE_FPS,
    sample_rate: int = FIXTURE_SAMPLE_RATE,
) -> dict[str, Path]:
    """Write the complete demo input set; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "poses": out / "puppet_poses.json",
        "ref_wav": out / "reference.wav",
        "ref_transcript": out / "reference_transcript.json",
        "target_wav": out / "target.wav",
        "target_transcript": out / "target_transcript.json",
    }

    skeleton = puppet_skeleton()
    sequence = puppet_sequence(reference_frames, fps)
    save_pose_track(paths["poses"], skeleton, sequence)

    ref_clicks = click_frames(reference_frames, REFERENCE_GAPS)
    write_wav(paths["ref_wav"], click_signal(reference_frames, ref_clicks, fps, sample_rate), sample_rate)
    ref_words = [(w, f) for w, f in REFERENCE_WORDS if f + WORD_FRAMES < reference_frames]
    save_transcript(paths["ref_transcript"], _word_list(ref_words, fps))

    tgt_clicks = click_frames(target_frames, TARGET_GAPS, first=40)
    write_wav(paths["target_wav"], click_signal(target_frames, tgt_clicks, fps, sample_rate), sample_rate)
    tgt_words = [(w, f) for w, f in TARGET_WORDS if f + WORD_FRAMES < target_frames]
    save_transcript(paths["target_transcript"], _word_list(tgt_words, fps))
    return paths


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "fixture"
    files = make_fixture(target)
    for name, path in files.items():
        print(f"{name}: {path}")
