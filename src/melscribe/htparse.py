"""Functional (scale-degree) annotation parsing and dataset plumbing.

Input is the functional interchange format, one JSON document per
segment::

    {
      "id": "...",                     # unique segment id
      "artist": "...",                 # used for stratified splitting
      "audio_ref": "...",              # opaque pointer to the recording
      "start_s": 12.3, "end_s": 45.6,  # rough segment bounds, seconds
      "meter": {"beats_per_bar": 4, "beat_unit": 4},
      "key": {"tonic_pc": 0, "mode": "major"},
      "key_changes": [],               # optional; non-empty -> rejected
      "meter_changes": [],             # optional; non-empty -> rejected
      "melody": [
        {"scale_degree": 1, "accidental": 0, "rel_octave": 0,
         "onset_beats": {"num": 0, "den": 1},
         "duration_beats": {"num": 1, "den": 1}},
        ...
      ],
      "chords": [
        {"degree": 5, "accidental": 0, "kind": "triad",   # or "seventh"
         "borrowed_mode": null,                           # or "major"/"minor"
         "onset_beats": {...}, "duration_beats": {...}},
        ...
      ]
    }

Onset denominators must divide 4 (sixteenth-note resolution).  Chord
constructs beyond the above (inversions, suspensions, applied chords)
are parsed and rejected explicitly.  Minor keys use the natural minor
scale throughout.

``load_functional`` reads one such file into an absolute Segment;
``save_segment`` and ``load_segment`` write and read the absolute
on-disk format: the same JSON shape with melody entries {onset_ticks,
duration_ticks, midi} and chord entries {onset_ticks, duration_ticks,
root_pc, quality}.  Both readers build the Segment in one function,
``_segment``, so they report a document's faults in one order: root
keys and kinds (and ``$.split``), ``$.id``, ``$.meter``, ``$.key``, the
melody entries' kinds, values and order, the chord entries, then ``$``.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from .core import (
    MODES,
    SCALE_OFFSETS,
    TICKS_PER_BEAT,
    ChordSpan,
    ChordSymbol,
    KeySignature,
    Melody,
    Meter,
    Pitch,
    PitchClass,
    ScoreNote,
    Segment,
    canonical_octave_shift,
    check_segment_id,
)
from .errors import ParseError, RangeError
from .jsonio import at, field, fields, reading, write_json

SPLITS = ("train", "valid", "test")
SPLIT_RATIOS = (8, 1, 1)

#: Diatonic triad quality per scale degree (1..7).
TRIAD_QUALITY = {
    "major": ("maj", "min", "min", "maj", "maj", "min", "dim"),
    "minor": ("min", "dim", "maj", "min", "min", "maj", "maj"),
}

#: Diatonic seventh-chord quality per scale degree (1..7).
SEVENTH_QUALITY = {
    "major": ("maj7", "min7", "min7", "maj7", "dom7", "min7", "hdim7"),
    "minor": ("min7", "hdim7", "maj7", "min7", "min7", "maj7", "dom7"),
}

_CHORD_REJECT_FIELDS = ("inversion", "suspension", "secondary_degree", "pedal")

#: Kind of each key of the functional document and of its melody and chord
#: entries, whose onset and duration are {num, den} beat fractions.
_FUNCTIONAL_FIELDS = {"id": str, "audio_ref": str, "start_s": float, "end_s": float,
                      "meter": dict, "key": dict, "melody": list, "chords": list}
_SPAN_FIELDS = {"onset_beats": dict, "duration_beats": dict}
_DEGREE_FIELDS = {"scale_degree": int, "accidental": int, "rel_octave": int, **_SPAN_FIELDS}
_ROMAN_FIELDS = {"degree": int, "accidental": int, "kind": str, **_SPAN_FIELDS}
_FRACTION_FIELDS = {"num": int, "den": int}
#: Kind of each key of the meter and key objects both forms share.
_METER_FIELDS = {"beats_per_bar": int, "beat_unit": int}
_KEY_FIELDS = {"tonic_pc": int, "mode": str}
#: Kind of each key of the absolute segment form and of its melody and chord
#: entries; ``split`` is null or one of SPLITS, checked by ``load_segment``.
_SEGMENT_FIELDS = {"id": str, "audio_ref": str, "split": object, "user_start_s": float,
                   "user_end_s": float, "meter": dict, "key": dict, "melody": list,
                   "chords": list}
_NOTE_FIELDS = {"onset_ticks": int, "duration_ticks": int, "midi": int}
_CHORD_FIELDS = {"onset_ticks": int, "duration_ticks": int, "root_pc": int, "quality": str}


def degree_to_pitch_midi(
    key: KeySignature, degree: int, accidental: int, rel_octave: int
) -> int:
    """Raw MIDI for a scale degree, before melody-level canonicalization.

    midi = 60 + tonic + offset(mode, degree) + accidental + 12 * rel_octave
    """
    if not 1 <= degree <= 7:
        raise RangeError(f"scale degree {degree} outside 1..7")
    if abs(accidental) > 2:
        raise RangeError(f"accidental {accidental} outside -2..2")
    offset = SCALE_OFFSETS[key.mode][degree - 1]
    return 60 + key.tonic.pc + offset + accidental + 12 * rel_octave


def roman_to_chord(
    key: KeySignature,
    degree: int,
    accidental: int = 0,
    kind: str = "triad",
    borrowed_mode: str | None = None,
) -> ChordSymbol:
    """Resolve a Roman-numeral chord to an absolute symbol.

    The root takes the degree's offset in the effective mode plus the
    accidental; the quality comes from the effective mode's diatonic
    table for that degree (the accidental moves the root only).
    """
    if not 1 <= degree <= 7:
        raise RangeError(f"chord degree {degree} outside 1..7")
    if kind not in ("triad", "seventh"):
        raise RangeError(f"chord kind {kind!r} not 'triad' or 'seventh'")
    mode = borrowed_mode if borrowed_mode is not None else key.mode
    if mode not in MODES:
        raise RangeError(f"borrowed mode {mode!r} not one of {MODES}")
    root = (key.tonic.pc + SCALE_OFFSETS[mode][degree - 1] + accidental) % 12
    table = TRIAD_QUALITY if kind == "triad" else SEVENTH_QUALITY
    return ChordSymbol(PitchClass(root), table[mode][degree - 1])


def _parse_ticks(obj, path: str) -> int:
    """A {num, den} beat fraction as whole ticks; den must divide TICKS_PER_BEAT."""
    num, den = fields(obj, _FRACTION_FIELDS, path)
    if den < 1:
        raise ParseError(f"denominator {den} must be positive", path)
    if TICKS_PER_BEAT % den:
        raise ParseError(
            f"denominator {den} does not divide {TICKS_PER_BEAT} "
            "(finer than sixteenth-note resolution)",
            path,
        )
    return num * (TICKS_PER_BEAT // den)


def _parse_span(onset: dict, duration: dict, path: str) -> tuple[int, int]:
    """Onset and duration ticks of a melody or chord entry at ``path``."""
    return (_parse_ticks(onset, f"{path}.onset_beats"),
            _parse_ticks(duration, f"{path}.duration_beats"))


def _parse_meter(obj, path: str) -> Meter:
    values = fields(obj, _METER_FIELDS, path)
    with at(path):
        return Meter(*values)


def _parse_key(obj, path: str) -> KeySignature:
    tonic_pc, mode = fields(obj, _KEY_FIELDS, path)
    with at(f"{path}.tonic_pc"):
        tonic = PitchClass(tonic_pc)
    with at(f"{path}.mode"):
        return KeySignature(tonic, mode)


def load_functional(path) -> tuple[Segment, str | None]:
    """Read one functional JSON file as (absolute Segment, artist or None).

    Melody degrees become MIDI pitches, then the whole melody is shifted
    by whole octaves so its mean pitch sits closest to 60 (ties toward
    the lower octave).  Key or meter changes reject the segment with a
    counted warning.  Errors name the file and the JSON path.
    """
    with reading(path) as obj:
        seg_id, audio_ref, start_s, end_s, meter, key, melody, chords = fields(
            obj, _FUNCTIONAL_FIELDS, "$", optional=("artist", "key_changes", "meter_changes")
        )
        with at("$.id"):
            seg_id = check_segment_id(seg_id)
        for name in ("key_changes", "meter_changes"):
            if name in obj and field(obj, name, list, "$"):
                warnings.warn(f"segment {seg_id!r} rejected: {name} present")
                raise ParseError(
                    f"segments with {name.replace('_', ' ')} are not supported",
                    f"$.{name}",
                )
        meter, key = _parse_meter(meter, "$.meter"), _parse_key(key, "$.key")
        rows = []
        for i, entry in enumerate(melody):
            where = f"$.melody[{i}]"
            degree, accidental, rel_octave, onset, duration = fields(entry, _DEGREE_FIELDS, where)
            with at(where):
                rows.append((*_parse_span(onset, duration, where),
                             degree_to_pitch_midi(key, degree, accidental, rel_octave)))
        shift = 12 * canonical_octave_shift([midi for _, _, midi in rows])
        rows = [(onset, duration, midi + shift) for onset, duration, midi in rows]
        segment = _segment(seg_id, audio_ref, None, start_s, end_s, meter, key, rows, chords,
                           lambda entry, where: _roman_span(key, entry, where))
        artist = field(obj, "artist", str, "$") if obj.get("artist") is not None else None
        return segment, artist


def _roman_span(key: KeySignature, entry, where: str) -> tuple[int, int, ChordSymbol]:
    """Onset ticks, duration ticks and chord of a functional chord entry at ``where``."""
    degree, accidental, kind, onset, duration = fields(
        entry, _ROMAN_FIELDS, where, optional=("borrowed_mode", *_CHORD_REJECT_FIELDS)
    )
    for rejected in _CHORD_REJECT_FIELDS:
        if entry.get(rejected) not in (None, 0):
            raise ParseError(
                f"chord construct {rejected!r} is not supported", f"{where}.{rejected}"
            )
    return (*_parse_span(onset, duration, where),
            roman_to_chord(key, degree, accidental, kind, entry.get("borrowed_mode")))


def _segment(seg_id, audio_ref, split, start_s, end_s, meter, key, rows, chords, read_chord):
    """The Segment of a read document, from its melody as (onset_ticks,
    duration_ticks, midi) rows and its ``chords`` entries, each read by
    ``read_chord(entry, where)`` as (onset_ticks, duration_ticks, ChordSymbol)."""
    notes = []
    for i, (onset_ticks, duration_ticks, midi) in enumerate(rows):
        with at(f"$.melody[{i}]"):
            notes.append(ScoreNote(onset_ticks, duration_ticks, Pitch(midi)))
    with at("$.melody"):
        melody = Melody(tuple(notes))
    spans = []
    for i, entry in enumerate(chords):
        with at(where := f"$.chords[{i}]"):
            spans.append(ChordSpan(*read_chord(entry, where)))
    with at("$"):
        return Segment(
            id=seg_id,
            audio_ref=audio_ref,
            split=split,
            user_start_s=start_s,
            user_end_s=end_s,
            meter=meter,
            key=key,
            melody=melody,
            chords=tuple(spans),
        )


def save_segment(path, segment: Segment) -> None:
    """Write a segment in its absolute interchange form."""
    meter, key, melody = segment.meter, segment.key, segment.melody
    write_json(path, dict(zip(_SEGMENT_FIELDS, (
        segment.id,
        segment.audio_ref,
        segment.split,
        segment.user_start_s,
        segment.user_end_s,
        dict(zip(_METER_FIELDS, (meter.beats_per_bar, meter.beat_unit))),
        dict(zip(_KEY_FIELDS, (key.tonic.pc, key.mode))),
        [
            dict(zip(_NOTE_FIELDS, note)) for note in zip(
                melody.onsets.tolist(), (melody.ends - melody.onsets).tolist(),
                melody.midis.tolist())
        ],
        [
            dict(zip(_CHORD_FIELDS, (c.onset_ticks, c.duration_ticks, c.chord.root.pc,
                                     c.chord.quality)))
            for c in segment.chords
        ],
    ))))


def load_segment(path) -> Segment:
    """Read a segment from its absolute interchange form."""
    with reading(path) as obj:
        seg_id, audio_ref, split, start_s, end_s, meter, key, melody, chords = fields(
            obj, _SEGMENT_FIELDS, "$"
        )
        if split is not None and split not in SPLITS:
            raise ParseError(f"split {split!r} invalid", "$.split")
        with at("$.id"):
            seg_id = check_segment_id(seg_id)
        meter, key = _parse_meter(meter, "$.meter"), _parse_key(key, "$.key")
        rows = [fields(entry, _NOTE_FIELDS, f"$.melody[{i}]") for i, entry in enumerate(melody)]
        return _segment(seg_id, audio_ref, split, start_s, end_s, meter, key, rows, chords,
                        _absolute_span)


def _absolute_span(entry, where: str) -> tuple[int, int, ChordSymbol]:
    """Onset ticks, duration ticks and chord of an absolute chord entry at ``where``."""
    onset_ticks, duration_ticks, root_pc, quality = fields(entry, _CHORD_FIELDS, where)
    return onset_ticks, duration_ticks, ChordSymbol(PitchClass(root_pc), quality)


def stratified_split(
    segment_ids: Sequence[str], artist_of: Mapping[str, str], seed: int
) -> dict[str, str]:
    """Assign segments to train/valid/test, never splitting an artist.

    Artists are ordered largest-first (the seed shuffles equal-sized
    artists) and each goes to the currently most underfull split,
    measured against the 8:1:1 targets.  Raises KeyError for a segment
    with no artist mapping.
    """
    by_artist: dict[str, list[str]] = {}
    for seg_id in segment_ids:
        by_artist.setdefault(artist_of[seg_id], []).append(seg_id)

    artists = sorted(by_artist)
    rng = np.random.default_rng(seed)
    rng.shuffle(artists)
    artists.sort(key=lambda a: -len(by_artist[a]))  # stable: ties keep shuffle order

    totals = {s: 0 for s in SPLITS}
    assignment: dict[str, str] = {}
    for artist in artists:
        # Most underfull split relative to its target share; ties take
        # the earlier split in (train, valid, test) order.
        split = min(SPLITS, key=lambda s: (totals[s] / SPLIT_RATIOS[SPLITS.index(s)]))
        for seg_id in by_artist[artist]:
            assignment[seg_id] = split
        totals[split] += len(by_artist[artist])
    return assignment
