import math
import tracemalloc

import numpy as np
import pytest

from motiongraph import audio
from motiongraph.audio import (
    AudioFeatureTrack,
    OnsetConfig,
    KeywordDictionary,
    TranscriptWord,
    analyze_audio,
    default_dictionary,
    detect_onsets,
    load_features,
    load_segments,
    load_transcript,
    match_keywords,
    onset_flux,
    read_wav,
    save_features,
    save_segments,
    save_transcript,
    segment_target,
    write_wav,
)
from motiongraph.errors import ValidationError
from motiongraph.fixtures import FIXTURE_SAMPLE_RATE, click_signal

from oracles import full_stft_flux

FPS = 30.0
SR = FIXTURE_SAMPLE_RATE


class TestOnsetDetection:
    def test_silence_has_no_onsets(self):
        flags = detect_onsets(np.zeros(SR * 3), SR, FPS)
        assert len(flags) == 90
        assert not flags.any()

    def test_single_click_at_one_second(self):
        sig = click_signal(90, [30], FPS, SR)
        flags = detect_onsets(sig, SR, FPS)
        hits = np.flatnonzero(flags)
        assert len(hits) == 1
        assert abs(hits[0] - 30) <= 1

    def test_metronome_two_per_second(self):
        clicks = list(range(15, 150, 15))  # 2 clicks/s for 5 s at 30 fps
        sig = click_signal(150, clicks, FPS, SR)
        flags = detect_onsets(sig, SR, FPS)
        hits = np.flatnonzero(flags)
        assert len(hits) == len(clicks)
        spacing = np.diff(hits)
        assert np.all(np.abs(spacing - 15) <= 1)

    def test_amplitude_scale_invariance(self):
        sig = click_signal(120, [20, 50, 95], FPS, SR)
        base = detect_onsets(sig, SR, FPS)
        for c in (0.1, 10.0):
            scaled = detect_onsets(sig * c, SR, FPS)
            assert np.array_equal(scaled, base)

    def test_track_length_rounding(self):
        samples = np.zeros(int(SR * 1.51))
        flags = detect_onsets(samples, SR, FPS)
        assert len(flags) == round(1.51 * FPS)

    def test_empty_audio_rejected(self):
        with pytest.raises(ValidationError):
            detect_onsets(np.zeros(0), SR, FPS)

    def test_low_sample_rate_rejected(self):
        with pytest.raises(ValidationError):
            detect_onsets(np.zeros(8000), 4000, FPS)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -30.0, 0.0])
    def test_bad_fps_rejected(self, fps):
        with pytest.raises(ValidationError, match="fps must be a finite number > 0"):
            detect_onsets(np.zeros(SR), SR, fps)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValidationError, match="threshold delta must be finite"):
            OnsetConfig(threshold_delta=delta)

    def test_at_most_one_activation_per_frame(self):
        sig = click_signal(60, [10, 11, 40], FPS, SR)
        flags = detect_onsets(sig, SR, FPS)
        assert flags.dtype == bool  # flags, not counts


class TestBlockwiseFlux:
    @pytest.mark.parametrize("block", [1, 7, audio.ONSET_BLOCK])
    @pytest.mark.parametrize(
        "rate, fps, n_frames",
        [(8000, 30.0, 1), (44100, 29.97, 301), (48000, 24.0, 257), (22050, 25.0, 333)],
    )
    def test_equals_full_matrix(self, monkeypatch, block, rate, fps, n_frames):
        rng = np.random.default_rng(n_frames)
        samples = rng.standard_normal(int(round(n_frames / fps * rate)))
        samples[rng.random(samples.size) < 0.5] = 0.0
        samples[0] = samples[-1] = 1.0  # the zero fill meets real samples at both ends
        monkeypatch.setattr(audio, "ONSET_BLOCK", block)
        flux = onset_flux(samples, rate, fps)
        assert flux.tobytes() == full_stft_flux(samples, rate, fps).tobytes()

    def test_peak_memory_bounded_by_the_block(self):
        # 2000 frames of 48 kHz audio: the whole frame matrix and its spectrum
        # traced 118 MB, and a zero-padded copy of the signal alone is 26 MB.
        # The blockwise transform holds one block's temporaries (about 9 MB).
        samples = click_signal(2000, range(30, 2000, 20), FPS, 48000)
        tracemalloc.start()
        try:
            detect_onsets(samples, 48000, FPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"detect_onsets peaked at {peak / 1e6:.1f} MB"


class TestKeywordDictionary:
    def test_contents_from_packaged_table(self):
        d = default_dictionary()
        assert "hey" in d.categories["greeting"]
        assert d.categories["greeting"] == ("hey", "hi", "hello")
        assert "called" in d.categories["others"]
        assert d.category_of("walk") == "action"
        assert d.category_of("more") == "relative"
        assert d.category_of("missing") is None

    def test_word_uniqueness_enforced(self):
        with pytest.raises(ValidationError):
            KeywordDictionary({"a": ("hi",), "b": ("hi",)})

    def test_lowercase_enforced(self):
        with pytest.raises(ValidationError):
            KeywordDictionary({"a": ("Hi",)})


class TestMatchKeywords:
    def test_hello_frame_range(self):
        labels = match_keywords(
            [TranscriptWord("hello", 0.5, 0.9)], default_dictionary(), FPS, 60
        )
        assert labels[14] == ""
        assert all(labels[i] == "hello" for i in range(15, 27))
        assert labels[27] == ""

    def test_non_dictionary_words_ignored(self):
        labels = match_keywords(
            [TranscriptWord("xylophone", 0.1, 0.5), TranscriptWord("the", 0.6, 0.8)],
            default_dictionary(),
            FPS,
            40,
        )
        assert all(l == "" for l in labels)

    def test_overlap_earlier_start_wins(self):
        labels = match_keywords(
            [TranscriptWord("two", 0.4, 0.8), TranscriptWord("hello", 0.2, 0.6)],
            default_dictionary(),
            FPS,
            40,
        )
        # hello spans frames 6..17, two would span 12..23 but loses 12..17.
        assert labels[12] == "hello"
        assert labels[17] == "hello"
        assert labels[18] == "two"

    def test_order_independent(self):
        words = [
            TranscriptWord("two", 0.4, 0.8),
            TranscriptWord("hello", 0.2, 0.6),
            TranscriptWord("move", 1.0, 1.2),
        ]
        a = match_keywords(words, default_dictionary(), FPS, 60)
        b = match_keywords(words[::-1], default_dictionary(), FPS, 60)
        assert a == b

    def test_uppercase_transcript_normalized(self):
        labels = match_keywords(
            [TranscriptWord("HeLLo", 0.0, 0.2)], default_dictionary(), FPS, 10
        )
        assert labels[0] == "hello"

    def test_bad_times_rejected(self):
        with pytest.raises(ValidationError):
            TranscriptWord("hello", 0.9, 0.5)

    @pytest.mark.parametrize(
        "start, end",
        [(0.0, math.inf), (math.nan, 1.0), (0.5, math.nan), (math.inf, math.inf),
         (-math.inf, 1.0)],
    )
    def test_non_finite_times_rejected(self, start, end):
        with pytest.raises(ValidationError, match="times must be finite"):
            TranscriptWord("hello", start, end)

    def test_far_times_label_up_to_the_last_frame(self):
        # 1e308 * fps overflows to inf: each bound is clamped before rounding.
        words = [TranscriptWord("hello", 1.0, 1e308)]
        assert match_keywords(words, default_dictionary(), FPS, 60) == [""] * 30 + ["hello"] * 30
        words = [TranscriptWord("hello", 1e308 / 2, 1e308)]
        assert match_keywords(words, default_dictionary(), FPS, 60) == [""] * 60

    def test_in_range_words_keep_the_unclamped_labels(self):
        rng = np.random.default_rng(3)
        dictionary = default_dictionary()
        for _ in range(200):
            n = int(rng.integers(1, 80))
            words = []
            for _ in range(int(rng.integers(0, 5))):
                start = float(rng.uniform(0.0, 2 * n / FPS))
                end = start + float(rng.uniform(0.01, n / FPS))
                word = str(rng.choice(["hello", "two", "move", "the"]))
                words.append(TranscriptWord(word, start, end))
            # The rule without clamping: round(time * fps), cut to 0..n.
            expected = [""] * n
            for w in sorted(words, key=lambda w: (w.start_time, w.end_time, w.word)):
                if w.word in dictionary.words:
                    lo, hi = round(w.start_time * FPS), round(w.end_time * FPS)
                    for i in range(max(lo, 0), min(hi, n)):
                        expected[i] = expected[i] or w.word
            assert match_keywords(words, dictionary, FPS, n) == expected


class TestSegmentTarget:
    def _track(self, n, onsets=(), keywords=()):
        flags = np.zeros(n, dtype=bool)
        for i in onsets:
            flags[i] = True
        labels = [""] * n
        for start, end, word in keywords:
            for i in range(start, end):
                labels[i] = word
        return AudioFeatureTrack(FPS, flags, tuple(labels))

    def test_no_features_single_segment(self):
        segs = segment_target(self._track(300))
        assert segs.endpoints == (1, 300)
        assert segs.durations == (299,)
        assert segs.features[-1].kind == "end"

    def test_onsets_as_documented(self):
        # 1-based onset frames 50 and 120 live at 0-based indices 49 and 119.
        segs = segment_target(self._track(200, onsets=(49, 119)))
        assert segs.endpoints == (1, 50, 120, 200)
        assert segs.durations == (49, 70, 80)

    def test_keyword_and_onset_collapse(self):
        segs = segment_target(
            self._track(100, onsets=(49,), keywords=((49, 55, "hello"),))
        )
        assert segs.endpoints == (1, 50, 100)
        assert segs.features[1].kind == "keyword"
        assert segs.features[1].word == "hello"

    def test_keyword_span_uses_first_frame_only(self):
        segs = segment_target(self._track(100, keywords=((30, 42, "two"),)))
        assert segs.endpoints == (1, 31, 100)

    def test_adjacent_distinct_keywords_both_split(self):
        segs = segment_target(
            self._track(100, keywords=((30, 36, "one"), (36, 42, "two")))
        )
        assert segs.endpoints == (1, 31, 37, 100)
        assert [f.word for f in segs.features] == ["", "one", "two", ""]

    def test_durations_sum_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(10, 400))
            onsets = rng.choice(n, size=min(n // 3, 10), replace=False)
            segs = segment_target(self._track(n, onsets=onsets))
            assert sum(segs.durations) == n - 1

    def test_boundary_onsets_collapse_with_extremes(self):
        segs = segment_target(self._track(50, onsets=(0, 49)))
        assert segs.endpoints == (1, 50)

    def test_final_endpoint_unconstrained_even_with_feature(self):
        segs = segment_target(self._track(50, onsets=(20, 49)))
        assert segs.endpoints == (1, 21, 50)
        assert segs.features[-1].kind == "end"

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            segment_target(self._track(1))


class TestWavIO:
    def test_roundtrip_mono(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.5, 0.5, size=SR // 2)
        write_wav(tmp_path / "t.wav", samples, SR)
        back, rate = read_wav(tmp_path / "t.wav")
        assert rate == SR
        assert len(back) == len(samples)
        assert np.allclose(back, samples, atol=1.0 / 32768)

    def test_stereo_downmix(self, tmp_path):
        import wave

        left = np.full(1000, 0.5)
        right = np.full(1000, -0.5)
        inter = np.empty(2000)
        inter[0::2] = left
        inter[1::2] = right
        pcm = (inter * 32767).astype("<i2")
        with wave.open(str(tmp_path / "s.wav"), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(SR)
            f.writeframes(pcm.tobytes())
        samples, rate = read_wav(tmp_path / "s.wav")
        assert len(samples) == 1000
        assert np.allclose(samples, 0.0, atol=1.0 / 32768)

    def test_non_16bit_rejected(self, tmp_path):
        import wave

        with wave.open(str(tmp_path / "b.wav"), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(SR)
            f.writeframes(b"\x00" * 100)
        with pytest.raises(ValidationError):
            read_wav(tmp_path / "b.wav")


class TestFeatureFiles:
    def test_feature_roundtrip(self, tmp_path):
        n = 120
        flags = np.zeros(n, dtype=bool)
        flags[[4, 77]] = True
        labels = [""] * n
        for i in range(30, 42):
            labels[i] = "hello"
        for i in range(42, 50):
            labels[i] = "two"
        track = AudioFeatureTrack(FPS, flags, tuple(labels))
        save_features(tmp_path / "f.json", track)
        back = load_features(tmp_path / "f.json")
        assert np.array_equal(back.onsets, track.onsets)
        assert back.keywords == track.keywords
        assert back.fps == FPS

    def test_segments_roundtrip(self, tmp_path):
        flags = np.zeros(90, dtype=bool)
        flags[44] = True
        track = AudioFeatureTrack(FPS, flags, tuple([""] * 90))
        segs = segment_target(track)
        save_segments(tmp_path / "s.json", segs)
        back = load_segments(tmp_path / "s.json")
        assert back == segs

    def test_transcript_roundtrip(self, tmp_path):
        words = [TranscriptWord("hello", 0.5, 0.9), TranscriptWord("two", 1.0, 1.4)]
        save_transcript(tmp_path / "t.json", words)
        assert load_transcript(tmp_path / "t.json") == words

    def test_analyze_audio_combined(self):
        sig = click_signal(120, [20, 80], FPS, SR)
        track = analyze_audio(
            sig, SR, FPS, [TranscriptWord("hello", 1.5, 1.9)], default_dictionary()
        )
        assert track.onsets[20] and track.onsets[80]
        assert track.keywords[45] == "hello"
        records = track.records()
        assert records[20] == (True, "")
        assert records[45] == (False, "hello")
