import math
import re
import struct
import warnings

import numpy as np
import pytest

from helpers import perf, read_smf, score
from melscribe.align import AlignmentMap, align, beat_position
from melscribe.core import (
    CHORD_QUALITIES,
    ChordSpan,
    ChordSymbol,
    KeySignature,
    Melody,
    Meter,
    PerfNote,
    PitchClass,
    SCALE_OFFSETS,
    Pitch,
    ScoreNote,
)
from melscribe.errors import InputError, RangeError, ShapeError
from melscribe.leadsheet import (
    CHORD_CHANNEL_BASE_MIDI,
    CHORD_VELOCITY,
    LeadSheet,
    MELODY_VELOCITY,
    assemble,
    emit_lilypond,
    emit_midi,
    estimate_key,
    key_fifths,
    key_scores,
    pitch_class_histogram,
)

C_MAJOR = KeySignature(PitchClass(0), "major")
FOUR_FOUR = Meter(4, 4)


def sheet(melody, chords=(), key=C_MAJOR, meter=FOUR_FOUR, tempo=120.0, total=None):
    if total is None:
        total = max(n.end_ticks for n in melody)
    return LeadSheet(key, meter, tempo, melody, tuple(chords), total)


def scale_melody(tonic, mode, base=48):
    offs = list(SCALE_OFFSETS[mode]) + [12]
    notes = [ScoreNote(i * 2, 2, Pitch(base + tonic + off)) for i, off in enumerate(offs)]
    return Melody(tuple(notes))


def test_histogram_weights_score_durations():
    hist = pitch_class_histogram(score([(0, 4, 60), (4, 2, 67), (6, 1, 72)]))
    assert hist[0] == 5.0  # two C notes: 4 + 1 ticks
    assert hist[7] == 2.0
    assert hist.sum() == 7.0


def test_histogram_weights_perf_seconds():
    mel = Melody((
        PerfNote(0.0, 1.5, Pitch(60)),
        PerfNote(2.0, 2.25, Pitch(64)),
    ))
    hist = pitch_class_histogram(mel)
    assert hist[0] == 1.5
    assert hist[4] == 0.25


def test_histogram_counts_chord_tones():
    span = ChordSpan(0, 8, ChordSymbol(PitchClass(0), "maj"))
    hist = pitch_class_histogram(Melody(()), [span])
    assert hist[0] == 8.0 and hist[4] == 8.0 and hist[7] == 8.0
    assert hist.sum() == 24.0


def test_key_scores_flat_histogram_is_all_zero():
    scores = key_scores(np.ones(12))
    assert all(v == 0.0 for v in scores.values())


def test_key_scores_transposition_permutes():
    rng = np.random.default_rng(0)
    hist = rng.uniform(0.0, 5.0, size=12)
    base = key_scores(hist)
    moved = key_scores(np.roll(hist, 3))
    for tonic in range(12):
        for mode in ("major", "minor"):
            assert moved[((tonic + 3) % 12, mode)] == pytest.approx(
                base[(tonic, mode)], abs=1e-12
            )


def test_estimate_key_on_scales():
    assert estimate_key(scale_melody(0, "major")) == C_MAJOR
    assert estimate_key(scale_melody(6, "major")) == KeySignature(PitchClass(6), "major")
    assert estimate_key(scale_melody(9, "minor")) == KeySignature(PitchClass(9), "minor")


def test_estimate_key_transposition_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(6, 14))
        notes = [
            ScoreNote(2 * i, int(rng.integers(1, 3)), Pitch(int(rng.integers(50, 70))))
            for i in range(n)
        ]
        mel = Melody(tuple(notes))
        base = estimate_key(mel)
        k = int(rng.integers(1, 12))
        moved = Melody(tuple(
            ScoreNote(s.onset_ticks, s.duration_ticks, Pitch(s.pitch.midi + k))
            for s in notes
        ))
        got = estimate_key(moved)
        assert got.mode == base.mode
        assert got.tonic.pc == (base.tonic.pc + k) % 12


def test_estimate_key_from_chords_alone():
    spans = [ChordSpan(0, 16, ChordSymbol(PitchClass(0), "maj")),
             ChordSpan(16, 8, ChordSymbol(PitchClass(5), "maj")),
             ChordSpan(24, 8, ChordSymbol(PitchClass(7), "dom7"))]
    key = estimate_key(Melody(()), spans)
    assert key == C_MAJOR


def test_estimate_key_empty_input():
    with pytest.raises(InputError):
        estimate_key(Melody(()))


def test_key_fifths_table():
    majors = {0: 0, 7: 1, 5: -1, 11: 5, 6: 6, 1: -5}
    for pc, fifths in majors.items():
        assert key_fifths(KeySignature(PitchClass(pc), "major")) == fifths
    minors = {9: 0, 4: 1, 2: -1, 10: -5, 3: 6}
    for pc, fifths in minors.items():
        assert key_fifths(KeySignature(PitchClass(pc), "minor")) == fifths


def test_leadsheet_validation():
    mel = score([(0, 4, 60)])
    for bad_tempo in (0.0, -10.0, float("inf"), float("nan")):
        with pytest.raises(RangeError):
            sheet(mel, tempo=bad_tempo)
    with pytest.raises(InputError, match="score"):
        sheet(perf([(0.0, 60)]), total=4)
    with pytest.raises(RangeError):
        sheet(mel, total=0)
    with pytest.raises(RangeError, match="exceeds"):
        sheet(mel, total=3)
    c = ChordSymbol(PitchClass(0), "maj")
    with pytest.raises(InputError, match="integer tick"):
        sheet(mel, chords=[(True, c)])
    with pytest.raises(InputError, match="ChordSymbol"):
        sheet(mel, chords=[(0, "C")])
    with pytest.raises(RangeError, match="outside"):
        sheet(mel, chords=[(4, c)])  # total is 4: ticks run 0..3
    with pytest.raises(RangeError, match="increasing"):
        sheet(mel, chords=[(0, c), (0, c)], total=8)


def test_total_ticks_must_be_a_plain_int():
    c = ChordSymbol(PitchClass(0), "maj")
    for total in (np.int64(8), 8.0, True):
        message = f"total_ticks must be an integer, got {re.escape(repr(total))}"
        for chords in ((), [(0, c)]):
            for key in (None, C_MAJOR):
                with pytest.raises(RangeError, match=message):
                    sheet(Melody(()), chords=chords, key=key, total=total)
    with pytest.raises(RangeError, match="total_ticks 0 below 1"):
        sheet(Melody(()), total=0)
    assert sheet(Melody(()), chords=[(0, c)], key=None, total=8).total_ticks == 8


def test_chord_spans_extend_to_total():
    c = ChordSymbol(PitchClass(0), "maj")
    g = ChordSymbol(PitchClass(7), "dom7")
    sh = sheet(score([(0, 32, 60)]), chords=[(0, c), (16, g)], total=32)
    spans = sh.chord_spans()
    assert [(s.onset_ticks, s.duration_ticks) for s in spans] == [(0, 16), (16, 16)]
    assert spans[1].chord is g


def test_beat_position_inverts_align():
    rng = np.random.default_rng(2)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 0.8, size=12))])
    amap = AlignmentMap(times.tolist())
    for _ in range(200):
        b = float(rng.uniform(0, 12))
        assert beat_position(amap, align(amap, b)) == pytest.approx(b, abs=1e-9)
    assert beat_position(amap, times[0]) == 0.0
    assert beat_position(amap, float(times[-1])) == 12.0
    with pytest.raises(RangeError):
        beat_position(amap, times[0] - 0.01)
    with pytest.raises(RangeError):
        beat_position(amap, float(times[-1]) + 0.01)
    ts = np.concatenate([align(amap, rng.uniform(0, 12, size=50)), times[[0, -1]]])
    assert beat_position(amap, ts).tolist() == [beat_position(amap, float(t)) for t in ts]
    with pytest.raises(RangeError, match=r"time -0\.01 outside"):
        beat_position(amap, np.array([1.0, times[0] - 0.01, times[-1] + 1.0]))


def test_assemble_quantizes_performance():
    amap = AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0])
    mel = perf([(0.0, 60), (0.5, 64), (1.875, 67)])
    sh = assemble(mel, [], amap, FOUR_FOUR, key=C_MAJOR)
    assert sh.tempo_bpm == pytest.approx(120.0)
    assert sh.total_ticks == 16
    assert [(n.onset_ticks, n.duration_ticks, n.pitch.midi) for n in sh.melody] == [
        (0, 4, 60), (4, 11, 64), (15, 1, 67)
    ]
    assert sh.key == C_MAJOR


def test_assemble_collision_keeps_the_nearer_note():
    # 0.45 s (3.6 ticks) and 0.525 s (4.2 ticks) both round to tick 4;
    # the later note sits nearer its centre and wins
    amap = AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0])
    mel = perf([(0.0, 60), (0.45, 64), (0.525, 72)])
    with pytest.warns(UserWarning, match=r"^1 note\(s\) lost to sixteenth-note collisions$"):
        sh = assemble(mel, [], amap, FOUR_FOUR, key=C_MAJOR)
    assert [(n.onset_ticks, n.duration_ticks, n.pitch.midi) for n in sh.melody] == [
        (0, 4, 60), (4, 12, 72)
    ]


def test_assemble_drops_notes_outside_span():
    amap = AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0])
    mel = perf([(-0.25, 62), (0.0, 60), (2.0, 65), (2.5, 64)])
    with pytest.warns(UserWarning, match="dropped 3 notes"):
        sh = assemble(mel, [], amap, FOUR_FOUR, key=C_MAJOR)
    assert len(sh.melody) == 1


def test_assemble_estimates_key_when_missing():
    # a G major scale, one note every half beat (0.125 s at 0.25 s a beat)
    amap = AlignmentMap([0.25 * i for i in range(19)])
    offs = list(SCALE_OFFSETS["major"]) + [12]
    sh = assemble(perf([(0.125 * i, 67 + off) for i, off in enumerate(offs)]),
                  [], amap, FOUR_FOUR)
    assert [(n.onset_ticks, n.pitch.midi) for n in sh.melody] == [
        (2 * i, 67 + off) for i, off in enumerate(offs)
    ]
    assert sh.key == KeySignature(PitchClass(7), "major")
    # LeadSheet estimates the key itself when given none
    assert sheet(sh.melody, key=None, total=sh.total_ticks).key == sh.key


def test_assemble_checks_chord_ticks_before_estimating_the_key():
    amap = AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0])  # 4 beats: ticks 0..15
    c = ChordSymbol(PitchClass(0), "maj")
    g = ChordSymbol(PitchClass(7), "dom7")
    melody = perf([(0.0, 60), (1.0, 64)])
    for chords, message in (([(99, c)], "chord onset 99 outside 0..15"),
                            ([(8, c), (0, g)], "not strictly increasing at tick 0")):
        for key in (None, C_MAJOR):
            with pytest.raises(RangeError, match=message):
                assemble(melody, chords, amap, FOUR_FOUR, key)


def test_assemble_and_lead_sheet_refuse_the_same_chord_ticks():
    amap = AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0])
    c = ChordSymbol(PitchClass(0), "maj")
    melody = perf([(0.0, 60), (1.0, 64)])
    for tick in (2.7, 2.0, True, np.float64(2.0)):
        message = f"chord onset {re.escape(repr(tick))} must be an integer tick"
        with pytest.raises(InputError, match=message):
            assemble(melody, [(tick, c)], amap, FOUR_FOUR, C_MAJOR)
        with pytest.raises(InputError, match=message):
            sheet(Melody(()), chords=[(tick, c)], total=16)
    for tick in (np.int64(2), np.int32(2), np.uint8(2)):
        sh = assemble(melody, [(tick, c)], amap, FOUR_FOUR, C_MAJOR)
        assert sh.chords == ((2, c),) and type(sh.chords[0][0]) is int


def test_assemble_refuses_a_score_form_melody():
    amap = AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(InputError, match="performance-form"):
        assemble(score([(0, 16, 60)]), [], amap, FOUR_FOUR, key=C_MAJOR)
    # an empty transcript has no form and assembles to an empty melody
    sh = assemble(Melody(()), [], amap, FOUR_FOUR, key=C_MAJOR)
    assert sh.melody == Melody(()) and sh.total_ticks == 16


GOLDEN_LY = """\\version "2.24.2"
\\score {
  <<
    \\new ChordNames \\chordmode {
      \\set chordChanges = ##t
      c1 | g1:7
    }
    \\new Staff {
      \\key c \\major
      \\time 4/4
      \\tempo 4 = 120
      c'8 d'8 e'4 g'4. f'8 | c''1
    }
  >>
  \\layout { }
}
"""


def test_emit_lilypond_golden():
    mel = score([
        (0, 2, 60), (2, 2, 62), (4, 4, 64), (8, 6, 67), (14, 2, 65), (16, 16, 72)
    ])
    chords = [(0, ChordSymbol(PitchClass(0), "maj")),
              (16, ChordSymbol(PitchClass(7), "dom7"))]
    text = emit_lilypond(sheet(mel, chords=chords, total=32))
    assert text == GOLDEN_LY


def test_emit_lilypond_is_deterministic():
    mel = score([(0, 8, 60), (8, 8, 64)])
    sh = sheet(mel, total=16)
    assert emit_lilypond(sh) == emit_lilypond(sh)


def test_emit_lilypond_ties_across_barline():
    # one note from tick 14 through 18 splits at the bar into tied eighths
    mel = score([(14, 4, 64)])
    text = emit_lilypond(sheet(mel, total=32))
    assert "e'8~ | e'8" in text
    # leading and trailing rests fill the remainder
    assert text.count("r") >= 2


def test_emit_lilypond_rest_fill_and_gap():
    mel = score([(0, 2, 60), (8, 4, 64)])
    text = emit_lilypond(sheet(mel, total=16))
    staff = text.splitlines()[-5].strip()
    # emission is legato: the first note stretches to the next onset,
    # and a rest fills the tail of the bar
    assert staff == "c'2 e'4 r4"


def test_emit_lilypond_one_barline_per_bar():
    # the second note fills 7 ticks from the barline: two tokens, one barline
    mel = score([(0, 16, 60), (16, 7, 62), (23, 9, 64)])
    staff = emit_lilypond(sheet(mel, total=32)).splitlines()[-5].strip()
    assert staff == "c'1 | d'4.~ d'16 e'2~ e'16"


def _bar_ticks(voice: str, unit: int) -> list[float]:
    """Ticks in each bar of a voice; a tick is a sixteenth of the beat unit."""
    sums = []
    for bar in voice.split(" | "):
        total = 0.0
        for token in bar.split():
            n, dot = re.match(r"^[a-z]+[',]*(\d+)(\.?)", token).groups()
            total += 4 * unit / int(n) * (1.5 if dot else 1.0)
        sums.append(total)
    return sums


def test_emit_lilypond_bars_are_whole():
    rng = np.random.default_rng(14)
    for _ in range(300):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 6/x looks compound
            meter = Meter(int(rng.integers(2, 8)), int(rng.choice([2, 4, 8])))
        bar = meter.ticks_per_bar
        total = int(rng.integers(1, 6 * bar))
        notes, t = [], int(rng.integers(0, 2 * bar))
        while t < total:
            d = int(rng.integers(1, min(3 * bar, total - t) + 1))
            notes.append((t, d, int(rng.integers(40, 90))))
            t += d + int(rng.integers(0, bar) if rng.random() < 0.4 else 0)
        ticks = sorted(set(rng.integers(0, total, size=int(rng.integers(1, 6))).tolist()))
        chords = [(k, ChordSymbol(PitchClass(k % 12), CHORD_QUALITIES[k % 8]))
                  for k in ticks]
        lines = emit_lilypond(sheet(
            score(notes), chords=chords, meter=meter, total=total
        )).splitlines()
        for voice in (lines[5].strip(), lines[-5].strip()):  # chord names, staff
            sums = _bar_ticks(voice, meter.beat_unit)
            assert voice.count("|") == math.ceil(total / bar) - 1, voice
            assert sums[:-1] == [bar] * (len(sums) - 1), voice
            assert sum(sums) == total, voice


def test_emit_lilypond_spellings():
    g = KeySignature(PitchClass(7), "major")
    mel = score([(0, 4, 66)])  # F sharp
    assert "fis'4" in emit_lilypond(sheet(mel, key=g, total=4))
    f = KeySignature(PitchClass(5), "major")
    mel = score([(0, 4, 70)])  # B flat
    assert "bes'4" in emit_lilypond(sheet(mel, key=f, total=4))
    mel = score([(0, 4, 66)])  # chromatic in F major, spelled flat
    assert "ges'4" in emit_lilypond(sheet(mel, key=f, total=4))
    ees = KeySignature(PitchClass(3), "major")
    text = emit_lilypond(sheet(score([(0, 4, 63)]), key=ees, total=4))
    assert "\\key ees \\major" in text
    assert "ees'4" in text
    a_minor = KeySignature(PitchClass(9), "minor")
    assert "\\key a \\minor" in emit_lilypond(sheet(score([(0, 4, 57)]), key=a_minor, total=4))


def test_emit_lilypond_chord_suffixes():
    expected = {
        "maj": "c1",
        "min": "c1:m",
        "dim": "c1:dim",
        "aug": "c1:aug",
        "dom7": "c1:7",
        "maj7": "c1:maj7",
        "min7": "c1:m7",
        "hdim7": "c1:m7.5-",
    }
    assert set(expected) == set(CHORD_QUALITIES)
    for quality, token in expected.items():
        text = emit_lilypond(sheet(
            score([(0, 16, 60)]),
            chords=[(0, ChordSymbol(PitchClass(0), quality))],
            total=16,
        ))
        assert token in text, quality


def test_emit_lilypond_tempo_rounds():
    text = emit_lilypond(sheet(score([(0, 4, 60)]), tempo=119.6, total=4))
    assert "\\tempo 4 = 120" in text


def steady(total_ticks):
    """An alignment of half-second beats (120 bpm) covering ``total_ticks``."""
    return AlignmentMap(0.5 * np.arange(total_ticks // 4 + 1))


def test_emit_midi_constant_tempo():
    mel = score([(0, 4, 60), (4, 4, 64)])
    chords = [(0, ChordSymbol(PitchClass(0), "maj"))]
    data = emit_midi(sheet(mel, chords=chords, total=8), steady(8))
    division, events = read_smf(data)
    assert division == 480

    time_sigs = [(t, p) for t, kind, p in events if kind == "meta 58"]
    assert time_sigs == [(0, b"\x04\x02\x18\x08")]
    key_sigs = [(t, p) for t, kind, p in events if kind == "meta 59"]
    assert key_sigs == [(0, b"\x00\x00")]
    tempos = [(t, p) for t, kind, p in events if kind == "meta 51"]
    half_second = struct.pack(">I", 500000)[1:]
    assert tempos == [(0, half_second), (480, half_second)]

    ons = [(t, p[0], p[1]) for t, kind, p in events if kind == "90"]
    assert ons == [(0, 60, MELODY_VELOCITY), (480, 64, MELODY_VELOCITY)]
    offs = [(t, p[0], p[1]) for t, kind, p in events if kind == "80"]
    assert offs == [(480, 60, 64), (960, 64, 64)]

    chord_ons = [(t, p[0], p[1]) for t, kind, p in events if kind == "91"]
    base = CHORD_CHANNEL_BASE_MIDI
    assert chord_ons == [(0, base + i, CHORD_VELOCITY) for i in (0, 4, 7)]
    chord_offs = [(t, p[0]) for t, kind, p in events if kind == "81"]
    assert chord_offs == [(960, base + i) for i in (0, 4, 7)]

    eot = [t for t, kind, _ in events if kind == "meta 2f"]
    assert eot == [8 * 120]


def test_emit_midi_off_before_on_at_shared_tick():
    mel = score([(0, 4, 60), (4, 4, 64)])
    _, events = read_smf(emit_midi(sheet(mel, total=8), steady(8)))
    at_480 = [(kind, p[0]) for t, kind, p in events if t == 480 and kind in ("80", "90")]
    assert at_480 == [("80", 60), ("90", 64)]


def test_emit_midi_tempo_map_from_alignment():
    mel = score([(0, 4, 60), (4, 4, 62)])
    amap = AlignmentMap([0.0, 0.5, 1.25])
    data = emit_midi(sheet(mel, total=8, tempo=96.0), amap)
    _, events = read_smf(data)
    tempos = [(t, p) for t, kind, p in events if kind == "meta 51"]
    assert tempos == [
        (0, struct.pack(">I", 500000)[1:]),
        (480, struct.pack(">I", 750000)[1:]),
    ]


def test_emit_midi_rejects_mismatched_alignment():
    mel = score([(0, 4, 60)])
    with pytest.raises(ShapeError, match="beats"):
        emit_midi(sheet(mel, total=4), AlignmentMap([0.0, 0.5, 1.0]))


def test_emit_midi_bytes_are_stable():
    mel = score([(0, 4, 60), (4, 12, 67)])
    sh = sheet(mel, chords=[(0, ChordSymbol(PitchClass(0), "maj"))], total=16)
    assert emit_midi(sh, steady(16)) == emit_midi(sh, steady(16))
