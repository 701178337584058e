"""Shared domain types for beat-synchronous melody transcription.

Design notes:

- Every type is a frozen dataclass and every operation returns new
  values; nothing here mutates in place.  A Melody holds its notes as
  read-only onset, end and pitch columns rather than as note objects.
- Invariants are enforced at construction time, so a value that exists
  is a valid value; a note or chord span checks its own int64 end.
- Symbolic time is measured in ticks: sixteenth notes of the notated
  beat, four per beat, regardless of meter.  Compound meters are not
  given a special tick rule; ingestion flags them instead.
- Performance time is seconds from the start of the source recording.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, OrderingError, RangeError

MIDI_MIN = 21
MIDI_MAX = 108
PITCH_VOCAB_SIZE = MIDI_MAX - MIDI_MIN + 1
TICKS_PER_BEAT = 4

MODES = ("major", "minor")

CHORD_QUALITIES = ("maj", "min", "dim", "aug", "dom7", "maj7", "min7", "hdim7")

#: Semitone offsets of each chord quality's tones above the root.
CHORD_TONES = {
    "maj": (0, 4, 7),
    "min": (0, 3, 7),
    "dim": (0, 3, 6),
    "aug": (0, 4, 8),
    "dom7": (0, 4, 7, 10),
    "maj7": (0, 4, 7, 11),
    "min7": (0, 3, 7, 10),
    "hdim7": (0, 3, 6, 10),
}

#: Semitone offset of each scale degree (1..7) above the tonic.
SCALE_OFFSETS = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "minor": (0, 2, 3, 5, 7, 8, 10),
}


@dataclass(frozen=True)
class Pitch:
    """Equal-tempered piano pitch, A0 (21) through C8 (108)."""

    midi: int

    def __post_init__(self) -> None:
        if type(self.midi) is not int:  # refuses floats, bools and numpy integers
            raise RangeError(f"pitch must be an integer MIDI number, got {self.midi!r}")
        if not MIDI_MIN <= self.midi <= MIDI_MAX:
            raise RangeError(
                f"pitch {self.midi} outside playable range {MIDI_MIN}..{MIDI_MAX}"
            )


@dataclass(frozen=True)
class PitchClass:
    """Pitch class 0..11, C = 0."""

    pc: int

    def __post_init__(self) -> None:
        if type(self.pc) is not int:  # refuses floats, bools and numpy integers
            raise RangeError(f"pitch class must be an integer, got {self.pc!r}")
        if not 0 <= self.pc <= 11:
            raise RangeError(f"pitch class {self.pc!r} outside 0..11")


#: Last tick an int64 tick column holds; a note or chord may end there at most.
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class _TickSpan:
    """The tick rule ScoreNote and ChordSpan share; errors name the subclass's ``_WORD``."""

    onset_ticks: int
    duration_ticks: int

    def __post_init__(self) -> None:
        onset, duration = self.onset_ticks, self.duration_ticks
        for ticks in (onset, duration):
            if type(ticks) is not int:  # refuses floats and bools
                raise RangeError(f"{self._WORD} ticks must be integers, got {ticks!r}")
        if onset < 0:
            raise RangeError(f"{self._WORD} onset {onset} is negative")
        if duration < 1:
            raise RangeError(f"{self._WORD} duration {duration} is below one tick")
        if onset + duration > INT64_MAX:
            raise RangeError(f"ends past tick {INT64_MAX} ({self._WORD} onset {onset})")

    @property
    def end_ticks(self) -> int:
        return self.onset_ticks + self.duration_ticks


@dataclass(frozen=True)
class ScoreNote(_TickSpan):
    """A note in symbolic (tick) time."""

    _WORD = "note"
    pitch: Pitch


@dataclass(frozen=True)
class PerfNote:
    """A note in performance (seconds) time."""

    onset_s: float
    offset_s: float
    pitch: Pitch

    def __post_init__(self) -> None:
        if not math.isfinite(self.onset_s) or not math.isfinite(self.offset_s):
            raise RangeError("note times must be finite")
        if self.offset_s <= self.onset_s:
            raise OrderingError(
                f"note offset {self.offset_s} not after onset {self.onset_s}"
            )


@dataclass(frozen=True, init=False, eq=False)
class Melody:
    """A monophonic note sequence, held as read-only columns.

    Note i spans [onsets[i], ends[i]) at pitch midis[i].  Score form
    (``is_score`` True) holds int64 ticks, perf form (False) float64
    seconds; ``midis`` is int64, and ``is_score`` is None when empty.
    Onsets strictly increase, and in score form no note overlaps the next.
    ``Melody(notes)`` takes all ScoreNotes or all PerfNotes; iterating
    builds them back from the columns.
    """

    onsets: np.ndarray
    ends: np.ndarray
    midis: np.ndarray
    is_score: bool | None

    # Melody(notes) is built in __new__, so that _of_columns can make a
    # melody from columns already checked without running these checks.
    def __new__(cls, notes: Iterable = ()) -> Melody:
        notes = tuple(notes)
        kinds = {type(n) for n in notes}
        if kinds == {ScoreNote}:
            onsets = np.array([n.onset_ticks for n in notes], dtype=np.int64)
            ends = np.array([n.end_ticks for n in notes], dtype=np.int64)
        elif kinds <= {PerfNote}:
            onsets = np.array([n.onset_s for n in notes], dtype=np.float64)
            ends = np.array([n.offset_s for n in notes], dtype=np.float64)
        else:
            raise InputError("melody must be homogeneously score or perf notes")
        is_score = kinds == {ScoreNote}
        # Each note has checked itself; only the order between notes is left.
        # A score onset that fails to increase also overlaps its successor,
        # because every duration is at least one tick.
        bad = np.flatnonzero(
            ends[:-1] > onsets[1:] if is_score else onsets[:-1] >= onsets[1:]
        )
        if len(bad):
            i = bad[0]
            if onsets[i] >= onsets[i + 1]:
                raise OrderingError(
                    f"melody onsets not strictly increasing at note {i + 1}"
                )
            raise OrderingError(
                f"note {i} (ends tick {ends[i]}) overlaps "
                f"note {i + 1} (onset tick {onsets[i + 1]})"
            )
        midis = np.array([n.pitch.midi for n in notes], dtype=np.int64)
        return cls._of_columns(onsets, ends, midis, is_score)

    @classmethod
    def _of_columns(cls, onsets, ends, midis, is_score: bool | None) -> Melody:
        """A melody of sorted columns that already hold every invariant."""
        melody = super().__new__(cls)
        for name, column in (("onsets", onsets), ("ends", ends), ("midis", midis)):
            column.flags.writeable = False
            object.__setattr__(melody, name, column)
        object.__setattr__(melody, "is_score", is_score if len(midis) else None)
        return melody

    def __len__(self) -> int:
        return len(self.midis)

    def __iter__(self) -> Iterator:
        pitches = (_PITCHES[m - MIDI_MIN] for m in self.midis.tolist())
        times = (self.onsets.tolist(), self.ends.tolist())
        if self.is_score:
            return map(lambda on, end, p: ScoreNote(on, end - on, p), *times, pitches)
        return map(PerfNote, *times, pitches)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Melody):
            return NotImplemented
        return self.is_score == other.is_score and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("onsets", "ends", "midis")
        )


#: One shared instance per playable pitch; Pitch is immutable.
_PITCHES = tuple(Pitch(m) for m in range(MIDI_MIN, MIDI_MAX + 1))


def all_finite(a: np.ndarray) -> bool:
    """Whether every value of the non-empty array ``a`` is finite.

    NaN propagates through min and max, and an infinity is an extreme, so
    two reductions decide it without a temporary of ``a``'s shape.
    """
    return math.isfinite(a.min()) and math.isfinite(a.max())


def check_midis(midis: np.ndarray) -> None:
    """Refuse ``midis`` unless every entry is an integer MIDI number in the
    playable range; errors name the first offending index."""
    if len(midis) and midis.dtype.kind not in "iu":
        raise RangeError(f"pitches must be integer MIDI numbers, got {midis.dtype}")
    bad = np.flatnonzero((midis < MIDI_MIN) | (midis > MIDI_MAX))
    if len(bad):
        raise RangeError(
            f"note {bad[0]}: pitch {midis[bad[0]]} outside playable range "
            f"{MIDI_MIN}..{MIDI_MAX}"
        )


def perf_melody(onsets, offsets, midis) -> Melody:
    """A performance melody from parallel arrays of notes in any order.

    Checks over whole arrays what PerfNote, Pitch and Melody(notes)
    check: finite times, each offset after its onset, integer pitches in
    range, no two onsets equal.  Errors name the first
    offending index of the input.  The notes come back sorted by onset
    (stably).
    """
    onsets = np.asarray(onsets, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    midis = np.asarray(midis)
    if onsets.ndim != 1 or not onsets.shape == offsets.shape == midis.shape:
        raise InputError("onsets, offsets and pitches must be 1-D arrays of one length")
    bad = np.flatnonzero(~(np.isfinite(onsets) & np.isfinite(offsets)))
    if len(bad):
        raise RangeError(f"note {bad[0]}: note times must be finite")
    bad = np.flatnonzero(offsets <= onsets)
    if len(bad):
        i = bad[0]
        raise OrderingError(
            f"note {i}: note offset {offsets[i].item()} not after onset {onsets[i].item()}"
        )
    check_midis(midis)
    order = np.argsort(onsets, kind="stable")
    onsets, offsets, midis = onsets[order], offsets[order], midis[order]
    tie = np.flatnonzero(np.diff(onsets) <= 0)
    if len(tie):
        k = tie[0]
        raise OrderingError(
            f"notes {order[k]} and {order[k + 1]} share onset {onsets[k].item()}"
        )
    return Melody._of_columns(onsets, offsets, midis.astype(np.int64, copy=False), False)


@dataclass(frozen=True)
class ChordSymbol:
    """A root pitch class plus one of eight qualities."""

    root: PitchClass
    quality: str

    def __post_init__(self) -> None:
        if self.quality not in CHORD_QUALITIES:
            raise InputError(
                f"chord quality {self.quality!r} not one of {CHORD_QUALITIES}"
            )

    @property
    def tone_pcs(self) -> tuple[int, ...]:
        return tuple((self.root.pc + t) % 12 for t in CHORD_TONES[self.quality])


@dataclass(frozen=True)
class ChordSpan(_TickSpan):
    """A chord with its symbolic onset and duration."""

    _WORD = "chord"
    chord: ChordSymbol


@dataclass(frozen=True)
class KeySignature:
    tonic: PitchClass
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InputError(f"mode {self.mode!r} not one of {MODES}")

    @property
    def scale_pcs(self) -> tuple[int, ...]:
        return tuple((self.tonic.pc + o) % 12 for o in SCALE_OFFSETS[self.mode])


@dataclass(frozen=True)
class Meter:
    beats_per_bar: int
    beat_unit: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int:  # refuses floats, bools and numpy integers
                raise RangeError(f"{name} must be an integer, got {value!r}")
        if self.beats_per_bar < 1:
            raise RangeError(f"beats_per_bar {self.beats_per_bar} below 1")
        if self.beat_unit not in (1, 2, 4, 8, 16):
            raise RangeError(f"beat_unit {self.beat_unit} not a power of two up to 16")
        if self.beats_per_bar % 3 == 0 and self.beats_per_bar > 3:
            warnings.warn(
                f"meter {self.beats_per_bar}/{self.beat_unit} looks compound; "
                "ticks remain sixteenths of the notated beat",
                stacklevel=3,  # past the dataclass's generated __init__, to its caller
            )

    @property
    def ticks_per_bar(self) -> int:
        return self.beats_per_bar * TICKS_PER_BEAT


@dataclass(frozen=True)
class Segment:
    """An annotated slice of a recording, in tick time.

    ``id`` names the segment's files, so it must be a plain file stem
    (see ``check_segment_id``).  ``split`` is None until a dataset split
    assigns one of "train" / "valid" / "test".
    """

    id: str
    audio_ref: str
    split: str | None
    user_start_s: float
    user_end_s: float
    meter: Meter
    key: KeySignature
    melody: Melody
    chords: tuple[ChordSpan, ...]

    def __post_init__(self) -> None:
        check_segment_id(self.id)
        if self.split not in (None, "train", "valid", "test"):
            raise InputError(f"split {self.split!r} invalid")
        if not (math.isfinite(self.user_start_s) and math.isfinite(self.user_end_s)):
            raise RangeError("segment boundaries must be finite")
        if self.user_end_s <= self.user_start_s:
            raise OrderingError(
                f"segment end {self.user_end_s} not after start {self.user_start_s}"
            )
        if self.melody.is_score is False:
            raise InputError("segment melody must be in score (tick) form")
        object.__setattr__(self, "chords", tuple(self.chords))
        for i in range(len(self.chords) - 1):
            if self.chords[i].onset_ticks >= self.chords[i + 1].onset_ticks:
                raise OrderingError(f"chord onsets not strictly increasing at {i + 1}")


def check_segment_id(seg_id: str) -> str:
    """``seg_id``, refused unless it is a plain file stem: not empty, no
    ``/`` or ``\\``, no leading ``.``."""
    if not seg_id or seg_id.startswith(".") or "/" in seg_id or "\\" in seg_id:
        raise InputError(
            f"segment id {seg_id!r} is not a plain file name "
            "(empty, contains / or \\, or starts with .)"
        )
    return seg_id


def octave_shift_range(lowest, highest):
    """The least and the greatest whole-octave shift keeping pitches from
    ``lowest`` to ``highest`` in range; works elementwise on arrays."""
    return -((lowest - MIDI_MIN) // 12), (MIDI_MAX - highest) // 12


def octave_shifts(midis: np.ndarray) -> list[int]:
    """Whole-octave shifts keeping every pitch in range, in the order 0, -1, 1, -2, ..."""
    if midis.size == 0:
        return [0]
    lo, hi = octave_shift_range(int(midis.min()), int(midis.max()))
    return sorted(range(lo, hi + 1), key=lambda s: (abs(s), s))


def canonical_octave_shift(midis: Sequence[int]) -> int:
    """Whole-octave shift placing the mean MIDI pitch closest to 60.

    Ties between two equally close octaves break toward the lower one.
    Exact (Fraction) arithmetic keeps the tie-break deterministic.
    """
    if not midis:
        return 0
    mean = Fraction(sum(midis), len(midis))
    # ceil((60 - mean)/12 - 1/2), exactly.
    return math.ceil((Fraction(60) - mean) / 12 - Fraction(1, 2))
