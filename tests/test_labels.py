import warnings

import numpy as np
import pytest

from melscribe.core import ChordSpan, ChordSymbol, Pitch, PitchClass
from melscribe.errors import InputError, RangeError
from melscribe.labeler.labels import (
    CHORD_VOCAB,
    DenseLabelSequence,
    MELODY_VOCAB,
    chord_to_class,
    class_to_chord,
    class_to_midi,
    densify,
    densify_chords,
    densify_melody,
    midi_to_class,
    vocab_by_name,
)

from helpers import densify_per_note, one_hot_logits, score


def test_vocabularies():
    assert MELODY_VOCAB.n_classes == 89
    assert MELODY_VOCAB.octave_shiftable
    assert CHORD_VOCAB.n_classes == 97
    assert not CHORD_VOCAB.octave_shiftable
    assert vocab_by_name("melody") is MELODY_VOCAB
    assert vocab_by_name("chords") is CHORD_VOCAB
    with pytest.raises(InputError):
        vocab_by_name("drums")


def test_pitch_class_round_trip():
    midis = np.arange(21, 109)
    classes = midi_to_class(midis)
    assert classes.tolist() == list(range(1, 89))
    assert np.array_equal(class_to_midi(classes), midis)


def test_chord_class_round_trip():
    seen = set()
    for root in range(12):
        for quality in ("maj", "min", "dim", "aug", "dom7", "maj7", "min7", "hdim7"):
            chord = ChordSymbol(PitchClass(root), quality)
            cls = chord_to_class(chord)
            assert 1 <= cls <= 96
            seen.add(cls)
            back = class_to_chord(cls)
            assert (back.root.pc, back.quality) == (root, quality)
    assert len(seen) == 96
    for bad in (0, 97):
        with pytest.raises(RangeError):
            class_to_chord(bad)


def test_dense_label_sequence_validation():
    labels = DenseLabelSequence(np.array([0, 5, 0, 0]), MELODY_VOCAB)
    assert labels.num_ticks == 4 and labels.num_beats == 1
    assert labels.onset_events() == [(1, 5)]
    with pytest.raises(InputError):
        DenseLabelSequence(np.array([0, 1, 2]), MELODY_VOCAB)
    with pytest.raises(InputError):
        DenseLabelSequence(np.zeros(0, dtype=int), MELODY_VOCAB)
    with pytest.raises(RangeError):
        DenseLabelSequence(np.array([0, 0, 0, 89]), MELODY_VOCAB)
    with pytest.raises(RangeError):
        DenseLabelSequence(np.array([0, 0, 0, -1]), MELODY_VOCAB)
    DenseLabelSequence(np.array([0, 0, 0, 96]), CHORD_VOCAB)


def one(beats, midi=60):
    return np.array([beats]), np.array([midi])


def test_densify_rounding_rules():
    # exact grid point
    assert densify(*one(2.0), 4).onset_events() == [(8, 40)]
    # 2.13 beats -> 8.52 ticks -> tick 9
    assert densify(*one(2.13), 4).onset_events() == [(9, 40)]
    # exact half ties round down: 2.125 beats -> 8.5 ticks -> tick 8
    assert densify(*one(2.125), 4).onset_events() == [(8, 40)]
    # top-edge rounding clamps onto the final tick
    assert densify(*one(3.99), 4).onset_events() == [(15, 40)]
    # empty input
    assert densify([], [], 2).onset_events() == []
    assert densify([], [], 2).num_ticks == 8


def test_densify_range_checks():
    with pytest.raises(RangeError, match=r"^onset 4\.0 outside \[0, 4\) beats$"):
        densify(*one(4.0), 4)
    with pytest.raises(RangeError, match=r"^onset -0\.01 outside"):
        densify(*one(-0.01), 4)
    # the first bad onset in input order is named
    with pytest.raises(RangeError, match=r"^onset nan outside"):
        densify(np.array([1.0, np.nan, -1.0]), np.array([60, 60, 60]), 4)
    with pytest.raises(InputError):
        densify([], [], 0)
    for midi in (20, 109):
        with pytest.raises(RangeError, match=f"pitch {midi} outside"):
            densify(*one(1.0, midi), 4)
    with pytest.raises(RangeError, match="integer"):
        densify(np.array([1.0]), np.array([60.0]), 4)
    with pytest.raises(InputError):
        densify(np.array([1.0, 2.0]), np.array([60]), 4)


def test_densify_collision_keeps_nearest():
    # 1.05 beats (4.2 ticks) and 0.95 beats (3.8 ticks) both hit tick 4;
    # each sits 0.2 ticks away, so the earlier note wins the tie
    with pytest.warns(UserWarning, match="collision"):
        labels = densify(np.array([0.95, 1.05]), np.array([60, 72]), 2)
    assert labels.onset_events() == [(4, 40)]
    # a clearly nearer later note displaces the earlier one
    # (0.9 beats -> 3.6 ticks and 1.05 beats -> 4.2 ticks both round to 4)
    with pytest.warns(UserWarning, match="collision"):
        labels = densify(np.array([0.9, 1.05]), np.array([60, 72]), 2)
    assert labels.onset_events() == [(4, 52)]


def _densify_outcome(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        classes = fn(*args).classes
    return classes, [str(w.message) for w in caught]


def test_densify_matches_per_note_reference():
    rng = np.random.default_rng(13)
    cases = [(np.zeros(0), np.zeros(0, dtype=np.int64), 3)]
    for trial in range(600):
        num_beats = int(rng.integers(1, 9))
        n = int(rng.integers(0, 5 * num_beats))
        kind = trial % 3
        if kind == 0:  # dense random onsets: many collisions
            beats = rng.uniform(0, num_beats, size=n)
        elif kind == 1:  # pairs at equal distance either side of a tick
            centre = rng.integers(1, 4 * num_beats, size=n) / 4
            off = rng.choice([0.05, 0.1, 0.125], size=n) * rng.choice([-1, 1], size=n)
            beats = np.clip(centre + off, 0, np.nextafter(num_beats, 0))
        else:  # grid points, exact halves and the clamped top edge
            beats = rng.integers(0, 8 * num_beats, size=n) / 8
            beats[rng.random(n) < 0.2] = np.nextafter(num_beats, 0)
        midis = rng.integers(21, 109, size=n)
        cases.append((beats, midis, num_beats))
    for beats, midis, num_beats in cases:
        pairs = list(zip(beats.tolist(), map(Pitch, midis.tolist())))
        want, want_warned = _densify_outcome(densify_per_note, pairs, num_beats)
        got, got_warned = _densify_outcome(densify, beats, midis, num_beats)
        assert np.array_equal(got, want), (beats, midis)
        assert got_warned == want_warned


def test_densify_melody_on_grid():
    melody = score([(0, 2, 60), (2, 2, 64), (4, 4, 67)])
    labels = densify_melody(melody, 2)
    assert labels.onset_events() == [(0, 40), (2, 44), (4, 47)]
    from helpers import perf

    with pytest.raises(InputError):
        densify_melody(perf([(0.0, 60)]), 2)


def test_densify_chords():
    spans = (
        ChordSpan(0, 8, ChordSymbol(PitchClass(0), "maj")),
        ChordSpan(8, 8, ChordSymbol(PitchClass(7), "dom7")),
    )
    labels = densify_chords(spans, 4)
    assert labels.vocab is CHORD_VOCAB
    assert labels.onset_events() == [
        (0, chord_to_class(spans[0].chord)),
        (8, chord_to_class(spans[1].chord)),
    ]
    with pytest.raises(RangeError):
        densify_chords((ChordSpan(16, 4, spans[0].chord),), 4)


def test_one_hot_logits_decode_to_their_labels():
    rng = np.random.default_rng(9)
    classes = np.zeros(16, dtype=np.int64)
    classes[[1, 6, 11]] = rng.integers(1, 89, size=3)
    labels = DenseLabelSequence(classes, MELODY_VOCAB)
    logits = one_hot_logits(labels)
    assert logits.shape == (16, 89)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.all(probs[np.arange(16), classes] > 0.999)
