"""Dense per-sixteenth label sequences.

Class 0 always means "no onset here".  The melody vocabulary maps the
88 piano pitches to classes 1..88 (midi - 20); the chord vocabulary
maps (root, quality) to classes 1..96.  Only the melody vocabulary is
octave-shiftable: shifting a melody label by one octave moves its class
index by 12.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import (
    CHORD_QUALITIES,
    MIDI_MIN,
    PITCH_VOCAB_SIZE,
    TICKS_PER_BEAT,
    ChordSpan,
    ChordSymbol,
    Melody,
    PitchClass,
    check_midis,
)
from ..errors import InputError, RangeError


@dataclass(frozen=True)
class LabelVocab:
    name: str
    n_classes: int
    octave_shiftable: bool


MELODY_VOCAB = LabelVocab("melody", 1 + PITCH_VOCAB_SIZE, True)
CHORD_VOCAB = LabelVocab("chords", 1 + 12 * len(CHORD_QUALITIES), False)

_VOCABS = {v.name: v for v in (MELODY_VOCAB, CHORD_VOCAB)}


def vocab_by_name(name: str) -> LabelVocab:
    if name not in _VOCABS:
        raise InputError(f"unknown vocabulary {name!r}")
    return _VOCABS[name]


def class_to_midi(classes: np.ndarray) -> np.ndarray:
    """MIDI numbers of non-silent melody classes; ``midi_to_class`` inverts it."""
    return np.asarray(classes, dtype=np.int64) + (MIDI_MIN - 1)


def midi_to_class(midis: np.ndarray) -> np.ndarray:
    return np.asarray(midis, dtype=np.int64) - (MIDI_MIN - 1)


def chord_to_class(chord: ChordSymbol) -> int:
    return 1 + chord.root.pc * len(CHORD_QUALITIES) + CHORD_QUALITIES.index(chord.quality)


def class_to_chord(index: int) -> ChordSymbol:
    if not 1 <= index < CHORD_VOCAB.n_classes:
        raise RangeError(f"chord class {index} outside 1..{CHORD_VOCAB.n_classes - 1}")
    root, quality = divmod(index - 1, len(CHORD_QUALITIES))
    return ChordSymbol(PitchClass(root), CHORD_QUALITIES[quality])


@dataclass(frozen=True, eq=False)
class DenseLabelSequence:
    """One class index per sixteenth note; length is a multiple of 4."""

    classes: np.ndarray
    vocab: LabelVocab = MELODY_VOCAB

    def __post_init__(self) -> None:
        classes = np.asarray(self.classes, dtype=np.int64)
        object.__setattr__(self, "classes", classes)
        if classes.ndim != 1 or len(classes) == 0 or len(classes) % TICKS_PER_BEAT:
            raise InputError(
                f"label length {classes.shape} must be a positive multiple of "
                f"{TICKS_PER_BEAT}"
            )
        if classes.min() < 0 or classes.max() >= self.vocab.n_classes:
            raise RangeError(
                f"label classes outside 0..{self.vocab.n_classes - 1}"
            )

    @property
    def num_ticks(self) -> int:
        return len(self.classes)

    @property
    def num_beats(self) -> int:
        return len(self.classes) // TICKS_PER_BEAT

    def onset_events(self) -> list[tuple[int, int]]:
        """(tick, class) pairs for every onset tick."""
        ticks = np.flatnonzero(self.classes)
        return [(int(t), int(self.classes[t])) for t in ticks]


def densify(
    onset_beats: np.ndarray, midis: np.ndarray, num_beats: int
) -> DenseLabelSequence:
    """Quantize parallel onset (in beats) and MIDI arrays onto the sixteenth grid.

    Ticks are round(4 * onset) with exact halves rounded down.  Onsets
    must lie in [0, num_beats); a rounding result of 4B clamps to the
    final tick.  When two notes land on one tick, the one whose onset is
    nearer the tick center wins (ties keep the earlier note) and each
    dropped note counts toward a single summary warning.
    """
    if num_beats < 1:
        raise InputError(f"num_beats {num_beats} below 1")
    beats = np.asarray(onset_beats, dtype=np.float64)
    midis = np.asarray(midis)
    if beats.ndim != 1 or beats.shape != midis.shape:
        raise InputError("onsets and pitches must be 1-D arrays of one length")
    bad = np.flatnonzero(~((beats >= 0) & (beats < num_beats)))
    if len(bad):
        raise RangeError(f"onset {onset_beats[bad[0]]} outside [0, {num_beats}) beats")
    check_midis(midis)
    n_ticks = num_beats * TICKS_PER_BEAT
    scaled = beats * TICKS_PER_BEAT
    # rounding can reach 4B at the very edge
    ticks = np.minimum(np.ceil(scaled - 0.5), n_ticks - 1).astype(np.int64)
    # by tick, then distance from its center; lexsort is stable, so ties keep
    # input order and the first note of each tick is the one that stays
    order = np.lexsort((np.abs(scaled - ticks), ticks))
    ticks = ticks[order]
    first = np.flatnonzero(np.diff(ticks, prepend=-1))
    classes = np.zeros(n_ticks, dtype=np.int64)
    classes[ticks[first]] = midi_to_class(midis[order[first]])
    collisions = len(ticks) - len(first)
    if collisions:
        warnings.warn(
            f"{collisions} note(s) lost to sixteenth-note collisions", stacklevel=2
        )
    return DenseLabelSequence(classes, MELODY_VOCAB)


def densify_melody(melody: Melody, num_beats: int) -> DenseLabelSequence:
    """Dense labels for a score-form melody already on the tick grid."""
    if melody.is_score is False:
        raise InputError("densify_melody expects a score-form melody")
    return densify(melody.onsets / TICKS_PER_BEAT, melody.midis, num_beats)


def densify_chords(chords: Sequence[ChordSpan], num_beats: int) -> DenseLabelSequence:
    """Dense chord labels from chord spans (already tick-aligned)."""
    if num_beats < 1:
        raise InputError(f"num_beats {num_beats} below 1")
    n_ticks = num_beats * TICKS_PER_BEAT
    classes = np.zeros(n_ticks, dtype=np.int64)
    for span in chords:
        if span.onset_ticks >= n_ticks:
            raise RangeError(
                f"chord onset tick {span.onset_ticks} outside 0..{n_ticks - 1}"
            )
        classes[span.onset_ticks] = chord_to_class(span.chord)
    return DenseLabelSequence(classes, CHORD_VOCAB)
