import numpy as np
import pytest

from melscribe.align import AlignmentMap, align
from melscribe.core import ChordSymbol, Pitch, PitchClass
from melscribe.errors import RangeError, ShapeError
from melscribe.labeler.decode import class_probabilities, decode, decode_chords, onset_classes
from melscribe.labeler.labels import (
    CHORD_VOCAB,
    DenseLabelSequence,
    chord_to_class,
    class_to_midi,
    densify_melody,
    midi_to_class,
)

from helpers import one_hot_logits


def flat_map(num_beats, seconds_per_beat=0.5):
    times = [i * seconds_per_beat for i in range(num_beats + 1)]
    return AlignmentMap(times)


def test_class_probabilities_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=4.0, size=(10, 89)).astype(np.float32)
    probs = class_probabilities(logits)
    assert probs.dtype == np.float64
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0
    with pytest.raises(ShapeError):
        class_probabilities(np.zeros(10))


def test_tau_bounds():
    logits = np.zeros((4, 89), dtype=np.float32)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(RangeError):
            onset_classes(logits, bad)
    onset_classes(logits, 0.5)


def test_onset_classes_thresholding():
    # an onset fires where the silence probability drops below tau
    logits = np.full((3, 89), -20.0, dtype=np.float64)
    logits[0, 40] = 0.0      # prob ~1 for class 40
    logits[1, 0] = 0.0       # silence
    logits[2, 0] = 0.0
    logits[2, 33] = 0.0      # ~50/50 silence vs class 33
    ticks, classes = onset_classes(logits, 0.6)
    assert ticks.tolist() == [0, 2]
    assert classes.tolist() == [40, 33]
    ticks, classes = onset_classes(logits, 0.4)
    assert ticks.tolist() == [0]
    assert classes.tolist() == [40]


def test_onset_classes_pick_argmax_over_pitched():
    logits = np.full((1, 89), -20.0, dtype=np.float64)
    logits[0, 10] = 1.0
    logits[0, 60] = 2.0  # larger pitched logit wins even with silence mass
    logits[0, 0] = 1.5
    ticks, classes = onset_classes(logits, 0.5)
    assert ticks.tolist() == [0]
    assert classes.tolist() == [60]


def test_decode_shape_errors():
    amap = flat_map(4)
    with pytest.raises(ShapeError):
        decode(np.zeros((15, 89)), 0.5, amap)  # not 4 * num_beats
    with pytest.raises(ShapeError):
        decode(np.zeros((16, 97)), 0.5, amap)  # chord-sized class axis


def test_decode_one_hot_round_trip_and_legato():
    notes = [(0.0, 60), (1.0, 64), (2.25, 67), (3.5, 55)]
    from melscribe.core import Melody, ScoreNote

    melody = Melody(
        [ScoreNote(int(b * 4), 1, Pitch(m)) for b, m in notes[:-1]]
        + [ScoreNote(14, 2, Pitch(55))]
    )
    labels = densify_melody(melody, num_beats=4)
    logits = one_hot_logits(labels)
    amap = flat_map(4)
    out = decode(logits, 0.5, amap)
    assert out.is_score is False
    assert len(out) == 4
    assert [n.pitch.midi for n in out] == [60, 64, 67, 55]
    onsets = [n.onset_s for n in out]
    assert onsets == [align(amap, b) for b, _ in notes]
    # legato: each note ends where the next begins; last runs to segment end
    for cur, nxt in zip(out, list(out)[1:]):
        assert cur.offset_s == nxt.onset_s
    assert list(out)[-1].offset_s == align(amap, 4)


def test_decode_empty_grid_gives_empty_melody():
    logits = one_hot_logits(DenseLabelSequence(np.zeros(16, dtype=np.int64)))
    out = decode(logits, 0.5, flat_map(4))
    assert len(out) == 0


def test_decode_chords_round_trip():
    classes = np.zeros(16, dtype=np.int64)
    c_maj = chord_to_class(ChordSymbol(PitchClass(0), "maj"))
    g_dom7 = chord_to_class(ChordSymbol(PitchClass(7), "dom7"))
    classes[0] = c_maj
    classes[8] = g_dom7
    labels = DenseLabelSequence(classes, CHORD_VOCAB)
    events = decode_chords(one_hot_logits(labels), 0.5)
    assert len(events) == 2
    (t0, sym0), (t1, sym1) = events
    assert (t0, sym0.root.pc, sym0.quality) == (0, 0, "maj")
    assert (t1, sym1.root.pc, sym1.quality) == (8, 7, "dom7")
    with pytest.raises(ShapeError):
        decode_chords(np.zeros((8, 89)), 0.5)


def test_class_pitch_consistency_through_decode():
    # decoding a single labeled tick recovers the same pitch the class encodes
    for midi in (21, 60, 108):
        classes = np.zeros(4, dtype=np.int64)
        classes[0] = midi_to_class(midi)
        logits = one_hot_logits(DenseLabelSequence(classes))
        out = decode(logits, 0.5, flat_map(1))
        assert [n.pitch.midi for n in out] == [midi]
        assert class_to_midi(classes[0]) == midi
