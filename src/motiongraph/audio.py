"""Audio analysis: onset detection, keyword labeling, target segmentation.

The engine consumes two per-frame features, both indexed at the video frame
rate: a binary onset flag (rhythmic-gesture anchor) and a keyword label
(referential-gesture anchor, a word from a fixed dictionary). The target
audio is split into segments whose endpoints are the feature frames; the
search later matches each segment endpoint to a graph node carrying the
same feature.

Frame indexing convention: tracks are 0-based arrays internally, while
segment endpoints are 1-based frame numbers (a_0 = 1, a_{S+1} = N_t), so a
track index i corresponds to frame number i + 1.
"""

from __future__ import annotations

import json
import logging
import math
import wave
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GraphParseError, StructuralError, ValidationError, read_document

log = logging.getLogger(__name__)

FEATURES_FORMAT = "audio-features/1"
SEGMENTS_FORMAT = "segments/1"


# ---------------------------------------------------------------------------
# WAV input (16-bit PCM; stereo is downmixed by averaging)
# ---------------------------------------------------------------------------


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Load a 16-bit PCM WAV as mono float64 samples in [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getsampwidth() != 2:
                raise ValidationError(
                    f"{path}: expected 16-bit PCM, got sample width {wav.getsampwidth()} bytes"
                )
            rate = wav.getframerate()
            channels = wav.getnchannels()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:
        reason = str(exc) or "file ends early"
        raise GraphParseError(f"WAV file {path} is malformed: {reason}") from exc
    if len(raw) % (2 * channels):
        raise GraphParseError(f"WAV file {path} is malformed: data ends inside a sample frame")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels > 1:
        data = data.reshape(-1, channels).mean(axis=1)
    return data, rate


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples as 16-bit PCM (fixture/debug helper)."""
    pcm = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(sample_rate))
        wav.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# onset detection (spectral flux + adaptive peak picking)
# ---------------------------------------------------------------------------


#: STFT window length in samples.
ONSET_WINDOW_SIZE = 2048
#: Half-width in seconds of the median window an onset's flux is compared to.
ONSET_SMOOTH_HALFWIDTH_S = 0.5
#: Video frames transformed at a time. Each STFT temporary holds at most
#: ONSET_BLOCK x ONSET_WINDOW_SIZE values, however long the audio is.
ONSET_BLOCK = 128


@dataclass(frozen=True)
class OnsetConfig:
    """Spectral-flux detector parameters.

    One STFT frame of ONSET_WINDOW_SIZE samples is evaluated per video frame
    (hop = sample_rate / fps, window centered on the frame time), so the flux
    curve is already in video frame indexing. A frame is an onset iff its
    flux is a local maximum and exceeds (1 + delta) times the median flux
    within +-ONSET_SMOOTH_HALFWIDTH_S. The median threshold is relative, so
    peak positions are invariant to amplitude scaling, and it stays robust
    when several onsets share one window. delta's default was tuned on the
    synthetic metronome fixtures.
    """

    threshold_delta: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.threshold_delta):
            raise ValidationError(
                f"onset threshold delta must be finite, got {self.threshold_delta}"
            )


def onset_flux(samples: np.ndarray, sample_rate: int, fps: float) -> np.ndarray:
    """Spectral flux per video frame: the summed rise of each STFT magnitude
    bin since the previous frame (0 at frame 0).

    Frames are transformed ONSET_BLOCK at a time, the last magnitude row of
    one block carried into the next, so every value equals the one computed
    from the whole N x ONSET_WINDOW_SIZE frame matrix at once. A window is
    centred on its frame's first sample and zero-filled past either end of
    the audio; each block copies only the samples its windows cover.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValidationError("cannot detect onsets in empty audio")
    if sample_rate < 8000:
        raise ValidationError(f"sample_rate must be >= 8000 Hz, got {sample_rate}")
    if not (math.isfinite(fps) and fps > 0):
        raise ValidationError(f"fps must be a finite number > 0, got {fps}")
    n_frames = int(round(samples.size / sample_rate * fps))
    if n_frames < 1:
        raise ValidationError("audio shorter than one video frame")

    win = ONSET_WINDOW_SIZE
    half = win // 2
    taper = np.hanning(win)
    starts = np.round(np.arange(n_frames) * sample_rate / fps).astype(np.int64) - half
    flux = np.zeros(n_frames)
    last = np.zeros((0, win // 2 + 1))
    for lo in range(0, n_frames, ONSET_BLOCK):
        block = starts[lo : lo + ONSET_BLOCK]
        first, stop = block[0], block[-1] + win
        span = np.zeros(stop - first)
        a, b = max(first, 0), min(stop, samples.size)
        span[a - first : b - first] = samples[a:b]
        frames = np.stack([span[s - first : s - first + win] for s in block])
        mags = np.concatenate([last, np.abs(np.fft.rfft(frames * taper, axis=1))])
        # Row i of rise is frame lo + i + 1 - len(last).
        rise = np.maximum(mags[1:] - mags[:-1], 0.0).sum(axis=1)
        flux[lo + 1 - len(last) : lo + len(frames)] = rise
        last = mags[-1:]
    return flux


def detect_onsets(
    samples: np.ndarray,
    sample_rate: int,
    fps: float,
    config: OnsetConfig = OnsetConfig(),
) -> np.ndarray:
    """(N,) bool flags marking the video frames that contain an audio onset.

    Digital silence yields zero flux everywhere and therefore no onsets.
    """
    flux = onset_flux(samples, sample_rate, fps)
    n_frames = flux.size
    w = max(1, int(round(ONSET_SMOOTH_HALFWIDTH_S * fps)))
    flags = np.zeros(n_frames, dtype=bool)
    for t in range(n_frames):
        v = flux[t]
        if v <= 0.0:
            continue
        if t > 0 and not v > flux[t - 1]:
            continue
        if t < n_frames - 1 and not v >= flux[t + 1]:
            continue
        window = flux[max(0, t - w) : t + w + 1]
        if v > (1.0 + config.threshold_delta) * float(np.median(window)):
            flags[t] = True
    return flags


# ---------------------------------------------------------------------------
# keyword features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptWord:
    word: str
    start_time: float  # seconds
    end_time: float

    def __post_init__(self):
        if not (math.isfinite(self.start_time) and math.isfinite(self.end_time)):
            raise ValidationError(
                f"word {self.word!r}: times must be finite, got "
                f"[{self.start_time}, {self.end_time}]"
            )
        if not 0.0 <= self.start_time < self.end_time:
            raise ValidationError(
                f"word {self.word!r}: need 0 <= start < end, got "
                f"[{self.start_time}, {self.end_time}]"
            )


@dataclass(frozen=True)
class KeywordDictionary:
    """Category -> word lists; matching uses the words, categories only
    organize the curation."""

    categories: dict[str, tuple[str, ...]]

    def __post_init__(self):
        seen: set[str] = set()
        for cat, words in self.categories.items():
            for w in words:
                if w != w.lower():
                    raise ValidationError(f"dictionary word {w!r} ({cat}) must be lowercase")
                if w in seen:
                    raise ValidationError(f"dictionary word {w!r} appears twice")
                seen.add(w)

    @property
    def words(self) -> frozenset[str]:
        return frozenset(w for ws in self.categories.values() for w in ws)

    def category_of(self, word: str) -> str | None:
        for cat, words in self.categories.items():
            if word in words:
                return cat
        return None


def default_dictionary() -> KeywordDictionary:
    """The dictionary of common referential-gesture keywords shipped with
    the package."""
    return load_dictionary(resources.files("motiongraph").joinpath("data/keywords.json"))


def load_dictionary(path: str | Path) -> KeywordDictionary:
    def build(doc):
        return KeywordDictionary({cat: tuple(words) for cat, words in doc.items()})

    return read_document(Path(path).read_bytes(), f"keyword dictionary {path}", None, build)


def match_keywords(
    words: Sequence[TranscriptWord],
    dictionary: KeywordDictionary,
    fps: float,
    total_frames: int,
) -> list[str]:
    """Per-frame keyword labels from word-aligned transcripts.

    A dictionary word spanning [start, end) seconds labels frames
    [round(start*fps), round(end*fps)), each bound first clamped to
    ``total_frames`` so a far-off time stays finite. Overlaps resolve to the
    earlier start time (logged); non-dictionary words contribute nothing.
    """
    vocabulary = dictionary.words
    labels = [""] * total_frames
    for tw in sorted(words, key=lambda w: (w.start_time, w.end_time, w.word)):
        word = tw.word.strip().lower()
        if word not in vocabulary:
            continue
        lo = int(round(min(tw.start_time * fps, total_frames)))
        hi = int(round(min(tw.end_time * fps, total_frames)))
        for i in range(max(lo, 0), min(hi, total_frames)):
            if labels[i]:
                log.warning(
                    "keyword %r overlaps %r at frame %d; earlier word wins",
                    word,
                    labels[i],
                    i,
                )
                continue
            labels[i] = word
    return labels


# ---------------------------------------------------------------------------
# combined feature track + target segmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AudioFeatureTrack:
    fps: float
    onsets: np.ndarray  # (N,) bool
    keywords: tuple[str, ...]  # (N,) labels, "" = none

    def __post_init__(self):
        object.__setattr__(self, "onsets", np.asarray(self.onsets, dtype=bool))
        if len(self.onsets) != len(self.keywords):
            raise StructuralError(
                f"{len(self.onsets)} onset flags vs {len(self.keywords)} keyword labels"
            )

    def __len__(self) -> int:
        return len(self.keywords)

    def records(self) -> list[tuple[bool, str]]:
        """Per-frame (onset, keyword) pairs, e.g. for graph building."""
        return [(bool(o), k) for o, k in zip(self.onsets, self.keywords)]


def analyze_audio(
    samples: np.ndarray,
    sample_rate: int,
    fps: float,
    transcript: Sequence[TranscriptWord] = (),
    dictionary: KeywordDictionary | None = None,
    onset_config: OnsetConfig = OnsetConfig(),
) -> AudioFeatureTrack:
    """Full feature extraction: onsets + keyword labels on one track."""
    onsets = detect_onsets(samples, sample_rate, fps, onset_config)
    dictionary = dictionary or default_dictionary()
    labels = match_keywords(transcript, dictionary, fps, len(onsets))
    return AudioFeatureTrack(fps=fps, onsets=onsets, keywords=tuple(labels))


@dataclass(frozen=True)
class EndpointFeature:
    kind: str  # "onset" | "keyword" | "end"
    word: str = ""


@dataclass(frozen=True)
class SegmentList:
    """Target-audio segmentation a_0=1 < a_1 < ... < a_{S+1}=N_t.

    ``features[s]`` is the feature a path must match when it reaches
    endpoint a_s; the final endpoint is always unconstrained ("end").
    Durations are L_s = a_{s+1} - a_s and sum to N_t - 1.
    """

    n_frames: int
    endpoints: tuple[int, ...]
    features: tuple[EndpointFeature, ...]

    def __post_init__(self):
        if len(self.endpoints) < 2:
            raise ValidationError("segment list needs at least endpoints a_0 and a_{S+1}")
        if self.endpoints[0] != 1 or self.endpoints[-1] != self.n_frames:
            raise ValidationError(
                f"endpoints must start at 1 and end at N_t={self.n_frames}, "
                f"got {self.endpoints[0]}..{self.endpoints[-1]}"
            )
        if any(b <= a for a, b in zip(self.endpoints, self.endpoints[1:])):
            raise ValidationError("endpoints must be strictly increasing")
        if len(self.features) != len(self.endpoints):
            raise StructuralError("one feature per endpoint required")

    @property
    def durations(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.endpoints, self.endpoints[1:]))

    @property
    def segment_count(self) -> int:
        return len(self.endpoints) - 1


def segment_target(track: AudioFeatureTrack) -> SegmentList:
    """Split the target at feature frames.

    Interior endpoints are the frames where an onset fires or a keyword span
    begins (a span start is a frame whose label differs from its
    predecessor's). The extremes a_0 = 1 and a_{S+1} = N_t are always
    included; duplicates collapse.
    """
    n = len(track)
    if n == 0:
        raise ValidationError("cannot segment an empty feature track")
    if n < 2:
        raise ValidationError("need at least 2 frames to form a segment")
    feature_frames: set[int] = set()
    for i in range(n):
        if track.onsets[i]:
            feature_frames.add(i + 1)
        kw = track.keywords[i]
        if kw and (i == 0 or track.keywords[i - 1] != kw):
            feature_frames.add(i + 1)
    endpoints = [1] + sorted(f for f in feature_frames if 1 < f < n) + [n]

    features = []
    for idx, a in enumerate(endpoints):
        if idx == len(endpoints) - 1:
            features.append(EndpointFeature("end"))
        elif track.keywords[a - 1]:
            features.append(EndpointFeature("keyword", track.keywords[a - 1]))
        elif track.onsets[a - 1]:
            features.append(EndpointFeature("onset"))
        else:
            features.append(EndpointFeature("end"))
    return SegmentList(n_frames=n, endpoints=tuple(endpoints), features=tuple(features))


# ---------------------------------------------------------------------------
# structured-text files
# ---------------------------------------------------------------------------


def load_transcript(path: str | Path) -> list[TranscriptWord]:
    """Transcript file: JSON list of {word, start_time, end_time}."""

    def build(doc):
        return [
            TranscriptWord(str(w["word"]), float(w["start_time"]), float(w["end_time"]))
            for w in doc
        ]

    return read_document(Path(path).read_bytes(), f"transcript {path}", None, build)


def save_transcript(path: str | Path, words: Sequence[TranscriptWord]) -> None:
    doc = [
        {"word": w.word, "start_time": w.start_time, "end_time": w.end_time} for w in words
    ]
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


def save_features(path: str | Path, track: AudioFeatureTrack) -> None:
    runs: list[list] = []
    start = None
    for i, kw in enumerate(list(track.keywords) + [""]):
        if start is not None and (i == len(track) or kw != track.keywords[start]):
            runs.append([start, i, track.keywords[start]])
            start = None
        if start is None and i < len(track) and kw:
            start = i
    doc = {
        "format": FEATURES_FORMAT,
        "fps": track.fps,
        "n_frames": len(track),
        "onsets": np.flatnonzero(track.onsets).tolist(),
        "keywords": runs,
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_features(path: str | Path) -> AudioFeatureTrack:
    def build(doc):
        n = int(doc["n_frames"])
        onsets = np.zeros(n, dtype=bool)
        frames = np.asarray(doc["onsets"], dtype=np.int64)
        if frames.size and frames.min() < 0:
            raise ValidationError(f"onset frame {frames.min()} is negative")
        onsets[frames] = True
        labels = [""] * n
        for start, end, word in doc["keywords"]:
            start, end = int(start), int(end)
            if not 0 <= start <= end <= n:
                raise ValidationError(f"keyword run [{start}, {end}) is not within frames 0..{n}")
            labels[start:end] = [str(word)] * (end - start)
        return AudioFeatureTrack(fps=float(doc["fps"]), onsets=onsets, keywords=tuple(labels))

    return read_document(Path(path).read_bytes(), f"feature file {path}", FEATURES_FORMAT, build)


def save_segments(path: str | Path, segments: SegmentList) -> None:
    doc = {
        "format": SEGMENTS_FORMAT,
        "n_frames": segments.n_frames,
        "endpoints": list(segments.endpoints),
        "features": [{"kind": f.kind, "word": f.word} for f in segments.features],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_segments(path: str | Path) -> SegmentList:
    def build(doc):
        return SegmentList(
            n_frames=int(doc["n_frames"]),
            endpoints=tuple(int(a) for a in doc["endpoints"]),
            features=tuple(
                EndpointFeature(kind=str(f["kind"]), word=str(f["word"]))
                for f in doc["features"]
            ),
        )

    return read_document(Path(path).read_bytes(), f"segment file {path}", SEGMENTS_FORMAT, build)
