"""Lead sheets: key estimation, assembly, LilyPond and MIDI emission.

A lead sheet is a score-form melody plus chord changes on the sixteenth
grid, with a key, meter, and tempo.  ``assemble`` builds one from a
transcript in seconds and a beat alignment: the sheet starts on the
alignment's first beat, a downbeat, so it has no pickup.  Emission is
deterministic text or bytes: the same sheet always renders identically.
Chord changes, as ``transcribe`` writes them for a chord labeler, are
read and written by ``load_chord_changes`` and ``save_chord_changes``.

Melody durations are emitted legato: each note sounds until the next
onset and the final note keeps its stored duration.  Every LilyPond bar
is whole: notes are split at barlines and tied, chord symbols restate
instead of tying, and rests fill the gaps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .align import AlignmentMap, align, beat_position
from .core import (
    CHORD_TONES,
    ChordSpan,
    ChordSymbol,
    KeySignature,
    Melody,
    Meter,
    PitchClass,
    TICKS_PER_BEAT,
)
from .errors import InputError, RangeError, ShapeError
from .jsonio import at, fields, reading, write_json
from .labeler.labels import class_to_midi, densify
from . import smf

# Krumhansl-Kessler tonal hierarchy profiles, C-based.
KS_MAJOR = np.array(
    [6.35, 2.23, 3.48, 2.33, 4.38, 4.09, 2.52, 5.19, 2.39, 3.66, 2.29, 2.88]
)
KS_MINOR = np.array(
    [6.33, 2.68, 3.52, 5.38, 2.60, 3.53, 2.54, 4.75, 3.98, 2.69, 3.34, 3.17]
)

_LETTERS = ("c", "d", "e", "f", "g", "a", "b")
_LETTER_PCS = (0, 2, 4, 5, 7, 9, 11)

_CHORD_SUFFIX = {
    "maj": "",
    "min": ":m",
    "dim": ":dim",
    "aug": ":aug",
    "dom7": ":7",
    "maj7": ":maj7",
    "min7": ":m7",
    "hdim7": ":m7.5-",
}

#: Kind of each key of the chord changes file and of its entries.
_CHANGES_FIELDS = {"changes": list}
_CHANGE_FIELDS = {"tick": int, "root": int, "quality": str}

CHORD_CHANNEL_BASE_MIDI = 48
MELODY_VELOCITY = 90
CHORD_VELOCITY = 60


def pitch_class_histogram(
    melody: Melody, chords: Sequence[ChordSpan] = ()
) -> np.ndarray:
    """Duration-weighted pitch-class counts; chords weight each tone."""
    hist = np.bincount(
        melody.midis % 12, weights=melody.ends - melody.onsets, minlength=12
    )
    for span in chords:
        for pc in span.chord.tone_pcs:
            hist[pc] += float(span.duration_ticks)
    return hist


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float((ac * ac).sum()) * float((bc * bc).sum()))
    if denom == 0.0:
        return 0.0
    return float((ac * bc).sum()) / denom


def key_scores(hist: np.ndarray) -> dict[tuple[int, str], float]:
    """Correlation of the histogram with all 24 key profiles.

    The histogram is rotated into the candidate tonic's frame before
    correlating, so transposing the input permutes the scores exactly.
    """
    scores = {}
    for tonic in range(12):
        rel = np.roll(hist, -tonic)
        scores[(tonic, "major")] = _pearson(rel, KS_MAJOR)
        scores[(tonic, "minor")] = _pearson(rel, KS_MINOR)
    return scores


def estimate_key(melody: Melody, chords: Sequence[ChordSpan] = ()) -> KeySignature:
    """Best-correlated key; ties prefer the lower tonic, then major."""
    if len(melody) == 0 and not chords:
        raise InputError("cannot estimate a key from empty input")
    scores = key_scores(pitch_class_histogram(melody, chords))
    tonic, mode = max(scores, key=scores.get)  # scores run by tonic, major first
    return KeySignature(PitchClass(tonic), mode)


def key_fifths(key: KeySignature) -> int:
    """Signature as a count of sharps (positive) or flats, in -5..6."""
    rel = key.tonic.pc if key.mode == "major" else (key.tonic.pc + 3) % 12
    fifths = (7 * rel) % 12
    return fifths - 12 if fifths > 6 else fifths


@dataclass(frozen=True)
class LeadSheet:
    """A score-form melody and chord changes over ``total_ticks``.

    A ``key`` of None is estimated from the melody and chords once they
    have been checked.
    """

    key: KeySignature | None
    meter: Meter
    tempo_bpm: float
    melody: Melody
    chords: tuple[tuple[int, ChordSymbol], ...]
    total_ticks: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.tempo_bpm) or self.tempo_bpm <= 0:
            raise RangeError(f"tempo {self.tempo_bpm} must be positive and finite")
        if self.melody.is_score is False:
            raise InputError("lead sheet melody must be in score (tick) form")
        if type(self.total_ticks) is not int:  # refuses floats, bools and numpy integers
            raise RangeError(f"total_ticks must be an integer, got {self.total_ticks!r}")
        if self.total_ticks < 1:
            raise RangeError(f"total_ticks {self.total_ticks} below 1")
        over = np.flatnonzero(self.melody.ends > self.total_ticks)
        if len(over):
            raise RangeError(
                f"note ending at tick {self.melody.ends[over[0]]} exceeds "
                f"total_ticks {self.total_ticks}"
            )
        object.__setattr__(self, "chords", tuple(self.chords))
        prev = -1
        for tick, chord in self.chords:
            if type(tick) is not int:  # refuses floats, bools and numpy integers
                raise InputError(f"chord onset {tick!r} must be an integer tick")
            if not isinstance(chord, ChordSymbol):
                raise InputError(f"chord entry {chord!r} is not a ChordSymbol")
            if not 0 <= tick < self.total_ticks:
                raise RangeError(f"chord onset {tick} outside 0..{self.total_ticks - 1}")
            if tick <= prev:
                raise RangeError(f"chord onsets not strictly increasing at tick {tick}")
            prev = tick
        if self.key is None:
            object.__setattr__(self, "key", estimate_key(self.melody, self.chord_spans()))

    def chord_spans(self) -> list[ChordSpan]:
        """Each chord lasts until the next change, the last one until ``total_ticks``."""
        ends = [tick for tick, _ in self.chords[1:]] + [self.total_ticks]
        return [ChordSpan(t, end - t, chord) for (t, chord), end in zip(self.chords, ends)]


def assemble(
    melody: Melody,
    chords: Sequence[tuple[int, ChordSymbol]],
    amap: AlignmentMap,
    meter: Meter,
    key: KeySignature | None = None,
) -> LeadSheet:
    """Quantize a performance-form transcript onto the alignment's grid.

    Onsets in seconds snap to the nearest sixteenth with the usual
    collision rules; notes outside the aligned span are dropped with a
    warning.  Tick 0 is the alignment's first beat.  A score-form melody
    is refused: build its ``LeadSheet`` directly.  Chord ticks pass to
    the ``LeadSheet`` as given (a numpy integer becomes an ``int``), so
    both refuse the same ticks.  When no key is given, the ``LeadSheet``
    estimates one from the assembled content.
    """
    if melody.is_score:
        raise InputError("assemble takes a performance-form (seconds) melody")
    total = amap.num_beats * TICKS_PER_BEAT
    span = align(amap, amap.num_beats) - align(amap, 0)
    tempo_bpm = 60.0 * amap.num_beats / span

    times = amap.beat_to_time_s
    inside = (melody.onsets >= times[0]) & (melody.onsets <= times[-1])
    beats = beat_position(amap, melody.onsets[inside])
    kept = beats < amap.num_beats
    dropped = len(melody) - int(kept.sum())
    if dropped:
        warnings.warn(f"dropped {dropped} notes outside the aligned span", stacklevel=2)
    classes = densify(beats[kept], melody.midis[inside][kept], amap.num_beats).classes
    ticks = np.flatnonzero(classes)
    score_melody = Melody._of_columns(
        ticks, np.append(ticks, total)[1:], class_to_midi(classes[ticks]), True
    )
    return LeadSheet(
        key=key,
        meter=meter,
        tempo_bpm=tempo_bpm,
        melody=score_melody,
        chords=tuple((t.item() if isinstance(t, np.integer) else t, c) for t, c in chords),
        total_ticks=total,
    )


def save_chord_changes(path, changes: Sequence[tuple[int, ChordSymbol]]) -> None:
    """Write (tick, chord) changes as ``{"changes": [{tick, root, quality}, ...]}``."""
    entries = [dict(zip(_CHANGE_FIELDS, (t, c.root.pc, c.quality))) for t, c in changes]
    write_json(path, dict(zip(_CHANGES_FIELDS, [entries])))


def load_chord_changes(path) -> list[tuple[int, ChordSymbol]]:
    """Read a chord changes file; ``LeadSheet`` checks the ticks against the sheet."""
    with reading(path) as obj:
        (entries,) = fields(obj, _CHANGES_FIELDS, "$")
        changes = []
        for i, entry in enumerate(entries):
            where = f"$.changes[{i}]"
            tick, root, quality = fields(entry, _CHANGE_FIELDS, where)
            with at(f"{where}.root"):
                root = PitchClass(root)
            with at(f"{where}.quality"):
                changes.append((tick, ChordSymbol(root, quality)))
        return changes


def _scale_spellings(key: KeySignature) -> dict[int, tuple[int, int]]:
    fifths = key_fifths(key)
    major_letter = (4 * fifths) % 7
    letter = major_letter if key.mode == "major" else (major_letter + 5) % 7
    out: dict[int, tuple[int, int]] = {}
    for k, pc in enumerate(key.scale_pcs):
        li = (letter + k) % 7
        alter = (pc - _LETTER_PCS[li]) % 12
        out[pc] = (li, alter - 12 if alter > 6 else alter)
    return out


def _spell_pc(pc: int, spellings: dict, fifths: int) -> tuple[int, int]:
    if pc in spellings:
        return spellings[pc]
    if pc in _LETTER_PCS:
        return _LETTER_PCS.index(pc), 0
    if fifths >= 0:
        return _LETTER_PCS.index((pc - 1) % 12), 1
    return _LETTER_PCS.index((pc + 1) % 12), -1


def _pc_name(pc: int, spellings: dict, fifths: int) -> str:
    li, alter = _spell_pc(pc, spellings, fifths)
    return _LETTERS[li] + ("is" * alter if alter > 0 else "es" * -alter)


def _note_name(midi: int, spellings: dict, fifths: int) -> str:
    _, alter = _spell_pc(midi % 12, spellings, fifths)
    octave = (midi - alter) // 12 - 1
    return _pc_name(midi % 12, spellings, fifths) + (
        "'" * (octave - 3) if octave >= 3 else "," * (3 - octave))


def _duration_candidates(unit: int) -> list[tuple[int, str]]:
    whole = 4 * unit
    cands = set()
    for n in (1, 2, 4, 8, 16, 32, 64):
        if whole % n == 0:
            v = whole // n
            cands.add((v, str(n)))
            if v % 2 == 0:
                cands.add((v * 3 // 2, str(n) + "."))
    return sorted(cands, key=lambda p: (-p[0], len(p[1])))


def _decompose(ticks: int, cands: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """Greedy (ticks, token) pieces, longest first, summing to ``ticks``."""
    pieces = []
    while ticks > 0:
        piece = next(c for c in cands if c[0] <= ticks)
        pieces.append(piece)
        ticks -= piece[0]
    return pieces


def _effective_notes(sheet: LeadSheet) -> list[tuple[int, int, int]]:
    """(onset, duration, midi) with legato durations, last note as stored."""
    melody = sheet.melody
    legato_ends = np.concatenate([melody.onsets[1:], melody.ends[-1:]])
    durations = legato_ends - melody.onsets
    return list(zip(melody.onsets.tolist(), durations.tolist(), melody.midis.tolist()))


def _voice(events, total_ticks: int, bar_len: int, cands) -> str:
    """One voice from sorted (onset, duration, head, tail, tied) events.

    Rests fill every gap up to ``total_ticks``.  Each duration splits at
    barlines into tokens ``head + duration + tail``; a ``|`` goes before
    each piece that starts on a barline after tick 0, so every bar is
    whole.  Every token of a tied event but its last carries ``~``.
    """
    filled = []
    cursor = 0
    # an empty event at total_ticks makes the tail after the last event a rest
    for event in [*events, (total_ticks, 0, "", "", False)]:
        if event[0] > cursor:
            filled.append((cursor, event[0] - cursor, "r", "", False))
        filled.append(event)
        cursor = event[0] + event[1]
    tokens = []
    for start, length, head, tail, tied in filled:
        t, end = start, start + length
        while t < end:
            if t % bar_len == 0 and t > 0:
                tokens.append("|")
            chunk = min(end, (t // bar_len + 1) * bar_len) - t
            for ticks, token in _decompose(chunk, cands):
                t += ticks
                tokens.append(head + token + tail + ("~" if tied and t < end else ""))
    return " ".join(tokens)


def emit_lilypond(sheet: LeadSheet) -> str:
    """Deterministic LilyPond source for the sheet."""
    fifths = key_fifths(sheet.key)
    spellings = _scale_spellings(sheet.key)
    cands = _duration_candidates(sheet.meter.beat_unit)
    bar_len = sheet.meter.ticks_per_bar
    lines = ['\\version "2.24.2"', "\\score {", "  <<"]
    if sheet.chords:
        chords = [
            (span.onset_ticks, span.duration_ticks,
             _pc_name(span.chord.root.pc, spellings, fifths),
             _CHORD_SUFFIX[span.chord.quality], False)
            for span in sheet.chord_spans()
        ]
        lines.append("    \\new ChordNames \\chordmode {")
        lines.append("      \\set chordChanges = ##t")
        lines.append("      " + _voice(chords, sheet.total_ticks, bar_len, cands))
        lines.append("    }")
    notes = [
        (onset, dur, _note_name(midi, spellings, fifths), "", True)
        for onset, dur, midi in _effective_notes(sheet)
    ]
    tonic_name = _pc_name(sheet.key.tonic.pc, spellings, fifths)
    lines.append("    \\new Staff {")
    lines.append(f"      \\key {tonic_name} \\{sheet.key.mode}")
    lines.append(f"      \\time {sheet.meter.beats_per_bar}/{sheet.meter.beat_unit}")
    lines.append(f"      \\tempo {sheet.meter.beat_unit} = {round(sheet.tempo_bpm)}")
    lines.append("      " + _voice(notes, sheet.total_ticks, bar_len, cands))
    lines.append("    }")
    lines += ["  >>", "  \\layout { }", "}"]
    return "\n".join(lines) + "\n"


def emit_midi(sheet: LeadSheet, amap: AlignmentMap) -> bytes:
    """Format-0 MIDI bytes; the alignment supplies the per-beat tempo map."""
    if amap.num_beats * TICKS_PER_BEAT != sheet.total_ticks:
        raise ShapeError(
            f"alignment covers {amap.num_beats} beats, sheet has {sheet.total_ticks} ticks"
        )
    scale = smf.MIDI_TICKS_PER_SIXTEENTH
    messages = [
        smf.time_signature_message(0, sheet.meter.beats_per_bar, sheet.meter.beat_unit),
        smf.key_signature_message(0, key_fifths(sheet.key), sheet.key.mode == "minor"),
    ]
    times = amap.beat_to_time_s
    for b in range(amap.num_beats):
        messages.append(smf.tempo_message(b * TICKS_PER_BEAT * scale, times[b + 1] - times[b]))
    for onset, dur, midi in _effective_notes(sheet):
        messages += smf.note_messages(
            onset * scale, (onset + dur) * scale, 0, midi, MELODY_VELOCITY
        )
    for span in sheet.chord_spans():
        for interval in CHORD_TONES[span.chord.quality]:
            messages += smf.note_messages(
                span.onset_ticks * scale,
                span.end_ticks * scale,
                1,
                CHORD_CHANNEL_BASE_MIDI + span.chord.root.pc + interval,
                CHORD_VELOCITY,
            )
    return smf.single_track_file(messages, sheet.total_ticks * scale)
