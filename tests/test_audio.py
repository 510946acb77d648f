import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from motiongraph import audio
from motiongraph.audio import (
    AudioFeatureTrack,
    EndpointFeature,
    KeywordDictionary,
    SegmentList,
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
from motiongraph.errors import GraphParseError, ValidationError
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

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -30.0, 0.0, "30", True, None])
    def test_bad_fps_rejected(self, fps):
        with pytest.raises(ValidationError, match="fps must be a finite number > 0"):
            detect_onsets(np.zeros(SR), SR, fps)
        with pytest.raises(ValidationError, match="fps must be a finite number > 0"):
            onset_flux(np.zeros(SR), SR, fps)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValidationError, match="threshold delta must be finite"):
            detect_onsets(np.zeros(SR), SR, FPS, delta)

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
        assert [c for c, words in d.categories.items() if "walk" in words] == ["action"]
        assert [c for c, words in d.categories.items() if "more" in words] == ["relative"]
        assert "missing" not in d.words

    def test_word_uniqueness_enforced(self):
        with pytest.raises(ValidationError):
            KeywordDictionary({"a": ("hi",), "b": ("hi",)})

    def test_lowercase_enforced(self):
        with pytest.raises(ValidationError):
            KeywordDictionary({"a": ("Hi",)})


    @pytest.mark.parametrize(
        "categories, message",
        [pytest.param({"greeting": "hi"},
                      "dictionary category 'greeting' must be a list of strings, got 'hi'",
                      id="string-category"),
         pytest.param({"greeting": None},
                      "dictionary category 'greeting' must be a list of strings, got None",
                      id="null-category"),
         pytest.param({"greeting": ["hi", 5]},
                      "dictionary word (greeting) must be a string, got 5", id="number-word")],
    )
    def test_words_are_a_list_of_strings(self, tmp_path, categories, message):
        with pytest.raises(ValidationError) as err:
            KeywordDictionary(categories)
        assert str(err.value) == message
        (tmp_path / "d.json").write_text(json.dumps(categories))
        with pytest.raises(GraphParseError, match=re.escape(message)):
            audio.load_dictionary(tmp_path / "d.json")


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
        "start, end, field",
        [pytest.param(0.0, math.inf, "end_time", id="0.0-inf"),
         pytest.param(math.nan, 1.0, "start_time", id="nan-1.0"),
         pytest.param(0.5, math.nan, "end_time", id="0.5-nan"),
         pytest.param(math.inf, math.inf, "start_time", id="inf-inf"),
         pytest.param(-math.inf, 1.0, "start_time", id="-inf-1.0"),
         pytest.param("0.5", 1.0, "start_time", id="text-start")],
    )
    def test_non_finite_times_rejected(self, start, end, field):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
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


class TestEndpointFeature:
    @pytest.mark.parametrize("kind", ["bogus", "", None])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValidationError, match="kind must be onset, keyword or end"):
            EndpointFeature(kind)

    @pytest.mark.parametrize("kind, word", [("keyword", ""), ("keyword", None), ("onset", "hi"),
                                            ("end", "hi"), ("keyword", 7)])
    def test_word_only_on_a_keyword_feature(self, kind, word):
        with pytest.raises(ValidationError, match=f"a '{kind}' feature's word must be"):
            EndpointFeature(kind, word)


class TestSegmentList:
    def test_final_feature_must_be_end(self):
        with pytest.raises(ValidationError,
                           match=r"^the final endpoint's feature must be 'end', got 'onset'$"):
            SegmentList(9, (1, 5, 9), (EndpointFeature("end"), EndpointFeature("end"),
                                       EndpointFeature("onset")))

    @pytest.mark.parametrize("feature", ["end", {"kind": "end", "word": ""}, None])
    def test_features_must_be_endpoint_features(self, feature):
        with pytest.raises(ValidationError, match=r"^a feature must be an EndpointFeature, got "):
            SegmentList(9, (1, 5, 9), (EndpointFeature("end"), feature, EndpointFeature("end")))


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

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(lambda doc: doc.update(n_frames=5.9), "n_frames must be an integer",
                         id="fractional-count"),
            pytest.param(lambda doc: doc.update(onsets=[1.5]), "onset frame must be an integer",
                         id="fractional-onset"),
            pytest.param(lambda doc: doc.update(onsets=[True]), "onset frame must be an integer",
                         id="boolean-onset"),
            pytest.param(lambda doc: doc.update(keywords=[[0.2, 2.7, "hello"]]),
                         "keyword run start must be an integer", id="fractional-run"),
            pytest.param(lambda doc: doc.update(fps="30"), "fps must be a finite number > 0",
                         id="text-fps"),
        ],
    )
    def test_feature_file_values_are_refused_not_converted(self, tmp_path, edit, reason):
        save_features(tmp_path / "f.json", AudioFeatureTrack(FPS, np.zeros(6, dtype=bool), ("",) * 6))
        doc = json.loads((tmp_path / "f.json").read_text())
        edit(doc)
        (tmp_path / "f.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match=reason):
            load_features(tmp_path / "f.json")

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(lambda doc: doc["endpoints"].__setitem__(1, 4.9),
                         "endpoint must be an integer", id="fractional-endpoint"),
            pytest.param(lambda doc: doc.update(n_frames=9.0), "n_frames must be an integer",
                         id="float-count"),
            pytest.param(lambda doc: doc["features"][0].update(kind="bogus"),
                         "kind must be onset, keyword or end", id="unknown-kind"),
            pytest.param(lambda doc: doc["features"][0].update(word=7),
                         "feature's word must be", id="numeric-word"),
        ],
    )
    def test_segment_file_values_are_refused_not_converted(self, tmp_path, edit, reason):
        flags = np.zeros(9, dtype=bool)
        flags[4] = True
        save_segments(tmp_path / "s.json", segment_target(AudioFeatureTrack(FPS, flags, ("",) * 9)))
        doc = json.loads((tmp_path / "s.json").read_text())
        edit(doc)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match=reason):
            load_segments(tmp_path / "s.json")

    @pytest.mark.parametrize("edit, reason", [
        pytest.param(lambda doc: doc["features"][-1].update(kind="onset"),
                     "final endpoint's feature must be 'end', got 'onset'", id="final-onset"),
        pytest.param(lambda doc: doc["features"].__setitem__(1, "end"), "malformed",
                     id="feature-not-an-object"),
    ])
    def test_segment_file_features_are_checked(self, tmp_path, edit, reason):
        flags = np.zeros(9, dtype=bool)
        flags[4] = True
        save_segments(tmp_path / "s.json", segment_target(AudioFeatureTrack(FPS, flags, ("",) * 9)))
        doc = json.loads((tmp_path / "s.json").read_text())
        edit(doc)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match=reason):
            load_segments(tmp_path / "s.json")

    @pytest.mark.parametrize("field", ["start_time", "end_time"])
    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_transcript_times_are_refused_not_converted(self, tmp_path, field, value):
        (tmp_path / "t.json").write_text(json.dumps(
            [dict({"word": "hello", "start_time": 0.5, "end_time": 0.9}, **{field: value})]))
        with pytest.raises(GraphParseError, match=f"{field} must be finite"):
            load_transcript(tmp_path / "t.json")

    def test_words_are_refused_not_converted(self, tmp_path):
        with pytest.raises(ValidationError, match="transcript word must be a string, got 5"):
            TranscriptWord(5, 0.0, 0.5)
        with pytest.raises(ValidationError, match="keyword label must be a string, got 7"):
            AudioFeatureTrack(FPS, np.zeros(2, dtype=bool), ("", 7))
        (tmp_path / "t.json").write_text(
            json.dumps([{"word": 5, "start_time": 0.5, "end_time": 0.9}]))
        with pytest.raises(GraphParseError, match="transcript word must be a string, got 5"):
            load_transcript(tmp_path / "t.json")
        save_features(tmp_path / "f.json", AudioFeatureTrack(FPS, np.zeros(6, dtype=bool), ("",) * 6))
        doc = json.loads((tmp_path / "f.json").read_text())
        doc["keywords"] = [[0, 2, 7]]
        (tmp_path / "f.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match="keyword label must be a string, got 7"):
            load_features(tmp_path / "f.json")

    @pytest.mark.parametrize(
        "onsets, problem",
        [
            pytest.param([0.5, 2.0, 0.0], "dtype float64", id="number-list"),
            pytest.param(["no", "yes", ""], "dtype <U3", id="text-list"),
            pytest.param([True, 1, False], "dtype int64", id="integer-entry"),
            pytest.param(np.array([0.0, 1.0, 0.0]), "dtype float64", id="float-array"),
            pytest.param(np.ones((1, 3), dtype=bool), "shape (1, 3)", id="2d-array"),
            pytest.param("yes", "shape ()", id="string"),
            pytest.param(None, "shape ()", id="none"),
        ],
    )
    def test_onsets_are_refused_not_converted(self, onsets, problem):
        with pytest.raises(ValidationError) as err:
            AudioFeatureTrack(FPS, onsets, ("",) * 3)
        assert str(err.value) == f"onset must be a 1-D column of bools, got {problem}"

    def test_onsets_taken_as_bools(self):
        for onsets in ([True, False], (np.bool_(False), np.bool_(True)), np.array([True, False])):
            track = AudioFeatureTrack(FPS, onsets, ("", ""))
            assert track.onsets.dtype == bool and track.onsets.tolist() == list(map(bool, onsets))

    @pytest.mark.parametrize("fps", [math.nan, math.inf, -5.0, 0.0, "30", True, None])
    def test_bad_fps_refused(self, fps):
        with pytest.raises(ValidationError, match="fps must be a finite number > 0"):
            AudioFeatureTrack(fps, np.zeros(2, dtype=bool), ("", ""))

    @pytest.mark.parametrize("fps", [-5.0, 0.0])
    def test_file_fps_must_be_positive(self, tmp_path, fps):
        save_features(tmp_path / "f.json", AudioFeatureTrack(FPS, np.zeros(6, dtype=bool), ("",) * 6))
        doc = json.loads((tmp_path / "f.json").read_text())
        doc["fps"] = fps
        (tmp_path / "f.json").write_text(json.dumps(doc))
        with pytest.raises(GraphParseError, match="fps must be a finite number > 0"):
            load_features(tmp_path / "f.json")

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
