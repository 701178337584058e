import math
import re

import numpy as np
import pytest

from melscribe.core import (
    CHORD_TONES,
    MIDI_MAX,
    MIDI_MIN,
    PITCH_VOCAB_SIZE,
    TICKS_PER_BEAT,
    ChordSpan,
    ChordSymbol,
    KeySignature,
    Melody,
    Meter,
    PerfNote,
    Pitch,
    PitchClass,
    ScoreNote,
    Segment,
    canonical_octave_shift,
)
from melscribe.errors import InputError, OrderingError, RangeError

from helpers import octave_shift, perf, score


def test_pitch_constants():
    assert (MIDI_MIN, MIDI_MAX, PITCH_VOCAB_SIZE) == (21, 108, 88)
    assert TICKS_PER_BEAT == 4


def test_pitch_validation():
    Pitch(21)
    Pitch(108)
    for bad in (20, 109, -1):
        with pytest.raises(RangeError):
            Pitch(bad)
    with pytest.raises(RangeError):
        Pitch(60.0)


def test_pitch_class_validation():
    PitchClass(0)
    PitchClass(11)
    for bad in (-1, 12, 1.5):
        with pytest.raises(RangeError):
            PitchClass(bad)
    for bad in (True, np.int64(3)):
        with pytest.raises(RangeError, match="must be an integer"):
            PitchClass(bad)


def test_score_note():
    n = ScoreNote(4, 3, Pitch(60))
    assert n.end_ticks == 7
    with pytest.raises(RangeError):
        ScoreNote(-1, 1, Pitch(60))
    with pytest.raises(RangeError):
        ScoreNote(0, 0, Pitch(60))
    for onset, duration in ((0.5, 1.25), (True, 1), (0, 2.0), (0, True)):
        with pytest.raises(RangeError, match="integer"):
            ScoreNote(onset, duration, Pitch(60))


def test_perf_note():
    PerfNote(0.0, 0.1, Pitch(60))
    with pytest.raises(OrderingError):
        PerfNote(0.5, 0.5, Pitch(60))
    with pytest.raises(RangeError):
        PerfNote(float("nan"), 1.0, Pitch(60))
    with pytest.raises(RangeError):
        PerfNote(0.0, float("inf"), Pitch(60))


def test_melody_score_form_rules():
    m = score([(0, 2, 60), (2, 2, 62), (4, 4, 64)])
    assert m.is_score is True
    assert len(m) == 3
    assert m.midis.tolist() == [60, 62, 64]
    with pytest.raises(OrderingError):
        score([(0, 2, 60), (0, 2, 62)])
    # overlap: first note ends past the second onset
    with pytest.raises(OrderingError):
        score([(0, 3, 60), (2, 2, 62)])
    # touching is fine
    score([(0, 2, 60), (2, 2, 62)])


def test_melody_perf_form_rules():
    m = perf([(0.0, 60), (0.5, 62)])
    assert m.is_score is False
    with pytest.raises(OrderingError):
        perf([(0.5, 60), (0.5, 62)])


def test_melody_empty_and_mixed():
    assert Melody(()).is_score is None
    assert len(Melody(())) == 0
    with pytest.raises(InputError):
        Melody((ScoreNote(0, 1, Pitch(60)), PerfNote(1.0, 2.0, Pitch(62))))


def test_chord_symbol():
    assert ChordSymbol(PitchClass(0), "maj").tone_pcs == (0, 4, 7)
    assert ChordSymbol(PitchClass(9), "min7").tone_pcs == (9, 0, 4, 7)
    assert ChordSymbol(PitchClass(7), "dom7").tone_pcs == (7, 11, 2, 5)
    with pytest.raises(InputError):
        ChordSymbol(PitchClass(0), "sus4")


def test_chord_tone_tables():
    assert CHORD_TONES["dim"] == (0, 3, 6)
    assert CHORD_TONES["aug"] == (0, 4, 8)
    assert CHORD_TONES["hdim7"] == (0, 3, 6, 10)
    for quality, tones in CHORD_TONES.items():
        assert tones[0] == 0 and len(tones) in (3, 4)


def test_chord_span():
    s = ChordSpan(4, 8, ChordSymbol(PitchClass(2), "min"))
    assert s.end_ticks == 12
    with pytest.raises(RangeError):
        ChordSpan(-1, 4, ChordSymbol(PitchClass(0), "maj"))
    with pytest.raises(RangeError):
        ChordSpan(0, 0, ChordSymbol(PitchClass(0), "maj"))


@pytest.mark.parametrize("make, word", [
    (lambda onset, duration: ScoreNote(onset, duration, Pitch(60)), "note"),
    (lambda onset, duration: ChordSpan(onset, duration, ChordSymbol(PitchClass(0), "maj")),
     "chord"),
    (lambda onset, duration: Melody([ScoreNote(onset, duration, Pitch(60))]), "note"),
], ids=["note", "chord", "melody"])
@pytest.mark.parametrize("onset, duration, message", [
    (1.5, 2, "ticks must be integers, got 1.5"),
    (0, 2.0, "ticks must be integers, got 2.0"),
    (True, 2, "ticks must be integers, got True"),
    (0, False, "ticks must be integers, got False"),
    (-1, 2, "onset -1 is negative"),
    (0, 0, "duration 0 is below one tick"),
    (2**62, 2**62, "ends past tick 9223372036854775807"),
], ids=["float-onset", "float-duration", "bool-onset", "bool-duration", "negative-onset",
        "zero-duration", "end-past-int64"])
def test_tick_spans_share_one_rule(make, word, onset, duration, message):
    with pytest.raises(RangeError, match=re.escape(message)) as raised:
        make(onset, duration)
    assert re.search(rf"\b{word}\b", str(raised.value))


def test_key_signature():
    assert KeySignature(PitchClass(0), "major").scale_pcs == (0, 2, 4, 5, 7, 9, 11)
    assert KeySignature(PitchClass(9), "minor").scale_pcs == (9, 11, 0, 2, 4, 5, 7)
    assert KeySignature(PitchClass(6), "minor").scale_pcs == (6, 8, 9, 11, 1, 2, 4)
    with pytest.raises(InputError):
        KeySignature(PitchClass(0), "dorian")


def test_meter():
    m = Meter(4, 4)
    assert m.ticks_per_bar == 16
    assert Meter(3, 4).ticks_per_bar == 12
    with pytest.raises(RangeError):
        Meter(0, 4)
    with pytest.raises(RangeError):
        Meter(4, 3)
    with pytest.warns(UserWarning):
        Meter(6, 8)
    Meter(4, 16)
    Meter(2, 1)
    for beats, unit in ((4.5, 4), (True, 4), (4, 4.0)):
        with pytest.raises(RangeError, match="must be an integer"):
            Meter(beats, unit)


def test_compound_meter_warning_names_the_caller():
    with pytest.warns(UserWarning, match="looks compound") as record:
        Meter(6, 8)
    assert len(record) == 1 and record[0].filename == __file__


def _segment(melody=None, chords=(), split=None, seg_id="x"):
    return Segment(
        id=seg_id,
        audio_ref="a",
        split=split,
        user_start_s=0.0,
        user_end_s=10.0,
        meter=Meter(4, 4),
        key=KeySignature(PitchClass(0), "major"),
        melody=melody if melody is not None else Melody(()),
        chords=chords,
    )


def test_segment_validation():
    _segment(split="train")
    for seg_id in ("s000", "seg-a", "take.2"):
        assert _segment(seg_id=seg_id).id == seg_id
    for seg_id in ("", "../escaped", "a/b", "a\\b", ".hidden", "."):
        with pytest.raises(InputError, match="not a plain file name"):
            _segment(seg_id=seg_id)
    with pytest.raises(InputError):
        _segment(split="validation")
    with pytest.raises(InputError):
        _segment(melody=perf([(0.0, 60)]))
    with pytest.raises(OrderingError):
        Segment(
            id="x", audio_ref="a", split=None, user_start_s=5.0, user_end_s=5.0,
            meter=Meter(4, 4), key=KeySignature(PitchClass(0), "major"),
            melody=Melody(()), chords=(),
        )
    with pytest.raises(OrderingError):
        _segment(chords=(
            ChordSpan(4, 4, ChordSymbol(PitchClass(0), "maj")),
            ChordSpan(4, 4, ChordSymbol(PitchClass(5), "maj")),
        ))


def test_melody_columns():
    sm = score([(0, 2, 60), (2, 3, 67)])
    pm = perf([(0.0, 60), (1.0, 67)])
    assert sm.ends.tolist() == [2, 5]
    assert pm.ends.tolist() == [0.01, 1.01]
    for m, time_dtype in ((sm, np.int64), (pm, np.float64)):
        assert (m.onsets.dtype, m.ends.dtype, m.midis.dtype) == (time_dtype, time_dtype, np.int64)
        for column in (m.onsets, m.ends, m.midis):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(AttributeError):
            m.midis = np.array([21, 22])
        assert Melody(list(m)) == m
        shifted = octave_shift(m, 1)
        assert shifted.onsets is m.onsets and shifted.ends is m.ends
        assert shifted != m
        assert octave_shift(shifted, -1) == m
        with pytest.raises(RangeError, match="note 1"):
            octave_shift(m, 4)
    assert sm != pm
    assert score([(0, 2, 60), (2, 4, 67)]) != sm
    assert Melody(()) == Melody(())


def test_octave_shift():
    m = score([(0, 2, 60), (2, 2, 67)])
    up = octave_shift(m, 1)
    assert up.midis.tolist() == [72, 79]
    assert [n.onset_ticks for n in up] == [0, 2]
    pm = perf([(0.0, 60), (1.0, 67)])
    down = octave_shift(pm, -2)
    assert down.midis.tolist() == [36, 43]
    assert down.onsets[0] == 0.0
    with pytest.raises(RangeError, match="note 1"):
        octave_shift(score([(0, 2, 60), (2, 2, 104)]), 1)


def test_canonical_octave_shift_known_values():
    assert canonical_octave_shift([]) == 0
    assert canonical_octave_shift([60]) == 0
    assert canonical_octave_shift([84]) == -2
    assert canonical_octave_shift([36]) == 2
    # exact half-octave tie goes to the lower octave
    assert canonical_octave_shift([66]) == -1
    assert canonical_octave_shift([54]) == 0
    assert canonical_octave_shift([65]) == 0
    assert canonical_octave_shift([67]) == -1


def test_canonical_octave_shift_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(300):
        midis = rng.integers(21, 109, size=int(rng.integers(1, 9))).tolist()
        got = canonical_octave_shift(midis)
        mean = sum(midis) / len(midis)
        # smallest distance to 60; ties break toward the lower shift
        best = min(range(-8, 9), key=lambda s: (abs(mean + 12 * s - 60), s))
        assert got == best, (midis, got, best)


def test_shift_then_canonicalize_is_stable():
    rng = np.random.default_rng(7)
    for _ in range(100):
        midis = rng.integers(50, 70, size=5).tolist()
        s = canonical_octave_shift(midis)
        centered = [m + 12 * s for m in midis]
        assert canonical_octave_shift(centered) == 0
