import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from melscribe import htparse
from melscribe.core import KeySignature, PitchClass
from melscribe.errors import FormatError, MelscribeError, RangeError


def key(tonic=0, mode="major"):
    return KeySignature(PitchClass(tonic), mode)


def test_degree_to_pitch_midi():
    assert htparse.degree_to_pitch_midi(key(), 1, 0, 0) == 60
    assert htparse.degree_to_pitch_midi(key(), 5, 0, 0) == 67
    assert htparse.degree_to_pitch_midi(key(), 7, 0, 0) == 71
    assert htparse.degree_to_pitch_midi(key(), 1, 0, 1) == 72
    assert htparse.degree_to_pitch_midi(key(), 1, 1, 0) == 61
    assert htparse.degree_to_pitch_midi(key(2), 1, 0, 0) == 62
    assert htparse.degree_to_pitch_midi(key(0, "minor"), 3, 0, 0) == 63
    assert htparse.degree_to_pitch_midi(key(9, "minor"), 6, -1, -1) == 64
    for degree in (0, 8):
        with pytest.raises(RangeError):
            htparse.degree_to_pitch_midi(key(), degree, 0, 0)
    with pytest.raises(RangeError):
        htparse.degree_to_pitch_midi(key(), 1, 3, 0)


def test_roman_to_chord_major():
    cases = {
        (1, "triad"): (0, "maj"),
        (2, "triad"): (2, "min"),
        (4, "triad"): (5, "maj"),
        (5, "triad"): (7, "maj"),
        (7, "triad"): (11, "dim"),
        (1, "seventh"): (0, "maj7"),
        (2, "seventh"): (2, "min7"),
        (5, "seventh"): (7, "dom7"),
        (7, "seventh"): (11, "hdim7"),
    }
    for (degree, kind), (root, quality) in cases.items():
        chord = htparse.roman_to_chord(key(), degree, kind=kind)
        assert (chord.root.pc, chord.quality) == (root, quality)


def test_roman_to_chord_minor_and_borrowed():
    chord = htparse.roman_to_chord(key(0, "minor"), 3)
    assert (chord.root.pc, chord.quality) == (3, "maj")
    chord = htparse.roman_to_chord(key(0, "minor"), 7, kind="seventh")
    assert (chord.root.pc, chord.quality) == (10, "dom7")
    # borrowing iv into C major takes the minor table and offsets
    chord = htparse.roman_to_chord(key(), 4, borrowed_mode="minor")
    assert (chord.root.pc, chord.quality) == (5, "min")
    # accidental moves the root only
    chord = htparse.roman_to_chord(key(), 7, accidental=-1)
    assert (chord.root.pc, chord.quality) == (10, "dim")
    with pytest.raises(RangeError):
        htparse.roman_to_chord(key(), 1, kind="ninth")
    with pytest.raises(RangeError):
        htparse.roman_to_chord(key(), 1, borrowed_mode="lydian")


def beats(num, den=1):
    return {"num": num, "den": den}


def doc(**overrides):
    base = {
        "id": "seg-a",
        "artist": "someone",
        "audio_ref": "take-1",
        "start_s": 1.0,
        "end_s": 9.0,
        "meter": {"beats_per_bar": 4, "beat_unit": 4},
        "key": {"tonic_pc": 0, "mode": "major"},
        "key_changes": [],
        "meter_changes": [],
        "melody": [
            {"scale_degree": 1, "accidental": 0, "rel_octave": 0,
             "onset_beats": beats(0), "duration_beats": beats(1)},
            {"scale_degree": 5, "accidental": 0, "rel_octave": 0,
             "onset_beats": beats(3, 2), "duration_beats": beats(1, 2)},
        ],
        "chords": [
            {"degree": 1, "accidental": 0, "kind": "triad", "borrowed_mode": None,
             "onset_beats": beats(0), "duration_beats": beats(4)},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


@pytest.fixture
def load(tmp_path):
    """``load_functional`` over a document given as JSON text."""

    def load(text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return htparse.load_functional(path)

    return load


def test_parse_segment_happy_path(load):
    seg, _ = load(doc())
    assert seg.id == "seg-a"
    assert seg.split is None
    assert [(n.onset_ticks, n.duration_ticks) for n in seg.melody] == [(0, 4), (6, 2)]
    # mean of (60, 67) is 63.5, already nearest 60: no octave shift
    assert seg.melody.midis.tolist() == [60, 67]
    assert len(seg.chords) == 1
    assert seg.chords[0].chord.quality == "maj"
    assert seg.melody.ends.max() == 8 and seg.chords[0].end_ticks == 16


def test_parse_segment_canonicalizes_octave(load):
    high = doc(melody=[
        {"scale_degree": 1, "accidental": 0, "rel_octave": 2,
         "onset_beats": beats(0), "duration_beats": beats(1)},
    ])
    seg, _ = load(high)
    # raw midi 84 shifts down two octaves toward 60
    assert seg.melody.midis[0] == 60


def test_parse_segment_rejects_changes(load):
    with pytest.warns(UserWarning, match="rejected"):
        with pytest.raises(FormatError):
            load(doc(key_changes=[{"at": 4}]))
    with pytest.warns(UserWarning, match="rejected"):
        with pytest.raises(FormatError):
            load(doc(meter_changes=[{"at": 4}]))


def test_parse_segment_structural_errors(load):
    with pytest.raises(FormatError, match=r"\$"):
        load("[1, 2]")
    with pytest.raises(FormatError, match="invalid JSON"):
        load("{nope")
    with pytest.raises(FormatError, match="invalid JSON"):  # beyond Python's int parsing limit
        load('{"id": "x", "start_s": 1%s}' % ("0" * 5000))
    with pytest.raises(FormatError, match="does not fit a float64"):  # beyond float64
        load(doc(start_s=10**400))
    with pytest.raises(FormatError, match="unknown fields"):
        load(doc(extra_stuff=1))
    with pytest.raises(FormatError, match="missing field"):
        obj = json.loads(doc())
        del obj["meter"]
        load(json.dumps(obj))
    with pytest.raises(FormatError, match="must be an integer"):
        load(doc(key={"tonic_pc": "c", "mode": "major"}))
    with pytest.raises(FormatError, match=r"doc\.json: \$\.key\.tonic_pc: pitch class 12 "):
        load(doc(key={"tonic_pc": 12, "mode": "major"}))
    with pytest.raises(FormatError, match=r"doc\.json: \$\.key\.mode: mode 'dorian' "):
        load(doc(key={"tonic_pc": 0, "mode": "dorian"}))


def test_load_functional_artist(load):
    assert load(doc())[1] == "someone"
    assert load(doc(artist=None))[1] is None
    with pytest.raises(FormatError, match=r"doc\.json: \$\.artist: "):
        load(doc(artist=5))


def test_parse_segment_fraction_resolution(load):
    bad = doc(melody=[
        {"scale_degree": 1, "accidental": 0, "rel_octave": 0,
         "onset_beats": beats(1, 3), "duration_beats": beats(1)},
    ])
    with pytest.raises(FormatError, match="denominator 3"):
        load(bad)
    fine = doc(melody=[
        {"scale_degree": 1, "accidental": 0, "rel_octave": 0,
         "onset_beats": beats(1, 4), "duration_beats": beats(3, 4)},
    ])
    seg, _ = load(fine)
    assert (seg.melody.onsets[0], seg.melody.ends[0] - seg.melody.onsets[0]) == (1, 3)


def test_parse_segment_melody_errors(load):
    with pytest.raises(FormatError, match=r"doc\.json: \$\.melody\[0\]: note onset -4 is negative"):
        load(doc(melody=[
            {"scale_degree": 1, "accidental": 0, "rel_octave": 0,
             "onset_beats": beats(-1), "duration_beats": beats(1)},
        ]))
    with pytest.raises(FormatError, match=r"doc\.json: \$\.melody\[0\]: note duration 0 is below"):
        load(doc(melody=[
            {"scale_degree": 1, "accidental": 0, "rel_octave": 0,
             "onset_beats": beats(0), "duration_beats": beats(0)},
        ]))
    # raw pitches 120 and 0 average 60, so no octave shift brings both in range
    with pytest.raises(FormatError, match=r"doc\.json: \$\.melody\[0\]: pitch 120 outside"):
        load(doc(melody=[
            {"scale_degree": 1, "accidental": 0, "rel_octave": 5,
             "onset_beats": beats(0), "duration_beats": beats(1)},
            {"scale_degree": 1, "accidental": 0, "rel_octave": -5,
             "onset_beats": beats(1), "duration_beats": beats(1)},
        ]))
    overlapping = doc(melody=[
        {"scale_degree": 1, "accidental": 0, "rel_octave": 0,
         "onset_beats": beats(0), "duration_beats": beats(2)},
        {"scale_degree": 2, "accidental": 0, "rel_octave": 0,
         "onset_beats": beats(1), "duration_beats": beats(1)},
    ])
    with pytest.raises(FormatError, match=r"\$\.melody: note 0 .* overlaps"):
        load(overlapping)
    with pytest.raises(FormatError, match="scale degree"):
        load(doc(melody=[
            {"scale_degree": 8, "accidental": 0, "rel_octave": 0,
             "onset_beats": beats(0), "duration_beats": beats(1)},
        ]))


def test_parse_segment_chord_errors(load):
    rejected = doc(chords=[
        {"degree": 1, "accidental": 0, "kind": "triad", "borrowed_mode": None,
         "inversion": 1, "onset_beats": beats(0), "duration_beats": beats(4)},
    ])
    with pytest.raises(FormatError, match="inversion"):
        load(rejected)
    # an explicitly-zero rejected field parses fine
    zeroed = doc(chords=[
        {"degree": 1, "accidental": 0, "kind": "triad", "borrowed_mode": None,
         "inversion": 0, "onset_beats": beats(0), "duration_beats": beats(4)},
    ])
    load(zeroed)
    with pytest.raises(FormatError, match=r"doc\.json: \$\.chords\[0\]: borrowed mode 'phrygian'"):
        load(doc(chords=[
            {"degree": 1, "accidental": 0, "kind": "triad",
             "borrowed_mode": "phrygian", "onset_beats": beats(0),
             "duration_beats": beats(4)},
        ]))
    for onset, duration, message in ((-1, 4, "chord onset -4 is negative"),
                                     (0, 0, "chord duration 0 is below one tick")):
        with pytest.raises(FormatError, match=r"doc\.json: \$\.chords\[0\]: " + message):
            load(doc(chords=[
                {"degree": 1, "accidental": 0, "kind": "triad", "borrowed_mode": None,
                 "onset_beats": beats(onset), "duration_beats": beats(duration)},
            ]))
    with pytest.raises(FormatError, match="unknown fields"):
        load(doc(chords=[
            {"degree": 1, "accidental": 0, "kind": "triad", "borrowed_mode": None,
             "bass": 7, "onset_beats": beats(0), "duration_beats": beats(4)},
        ]))


def test_segment_json_round_trip(tmp_path, load):
    seg, _ = load(doc())
    path = tmp_path / "seg.segment.json"
    htparse.save_segment(path, seg)
    loaded = htparse.load_segment(path)
    assert loaded == seg
    tagged = replace(seg, split="valid")
    htparse.save_segment(path, tagged)
    assert htparse.load_segment(path) == tagged


def test_load_segment_errors(tmp_path, load):
    path = tmp_path / "seg.segment.json"
    htparse.save_segment(path, load(doc())[0])
    good = json.loads(path.read_text())
    first, second = good["melody"]
    for bad, where in (({"id": "x"}, "$"),
                       ({**good, "split": "holdout"}, "$.split"),
                       ({**good, "melody": [{"onset_ticks": 0}]}, "$.melody[0]"),
                       ({**good, "key": {"tonic_pc": 12, "mode": "major"}}, "$.key.tonic_pc"),
                       ({**good, "melody": [first, {**second, "duration_ticks": 0}]},
                        "$.melody[1]"),
                       ({**good, "melody": [{**first, "midi": 200}, second]}, "$.melody[0]"),
                       ({**good, "melody": [{**first, "duration_ticks": 8}, second]}, "$.melody"),
                       ({**good, "chords": [{**good["chords"][0], "quality": "xx"}]},
                        "$.chords[0]")):
        path.write_text(json.dumps(bad))
        with pytest.raises(FormatError, match=rf"seg\.segment\.json: {re.escape(where)}: "):
            htparse.load_segment(path)


def test_readers_refuse_an_id_that_is_not_a_file_name(tmp_path, load):
    path = tmp_path / "seg.segment.json"
    htparse.save_segment(path, load(doc())[0])
    good = json.loads(path.read_text())
    for seg_id in ("", "../escaped", "a/b", "a\\b", ".hidden"):
        message = rf": \$\.id: segment id {re.escape(repr(seg_id))} is not a plain file name"
        with pytest.raises(FormatError, match=r"doc\.json" + message):
            load(doc(id=seg_id))
        path.write_text(json.dumps({**good, "id": seg_id}))
        with pytest.raises(FormatError, match=r"seg\.segment\.json" + message):
            htparse.load_segment(path)


def test_both_readers_report_a_documents_faults_in_one_order(tmp_path, load):
    # a bad id comes before a note's value, in either form
    path = tmp_path / "seg.segment.json"
    htparse.save_segment(path, load(doc())[0])
    good = json.loads(path.read_text())
    path.write_text(json.dumps({**good, "id": "../x", "melody": [
        {**good["melody"][0], "duration_ticks": 0}, good["melody"][1]]}))
    functional = json.loads(doc(id="../x"))
    functional["melody"][0]["duration_beats"] = beats(0)
    message = r": \$\.id: segment id '\.\./x' is not a plain file name"
    with pytest.raises(FormatError, match=r"doc\.json" + message):
        load(json.dumps(functional))
    with pytest.raises(FormatError, match=r"seg\.segment\.json" + message):
        htparse.load_segment(path)


def test_ticks_past_int64_are_refused_naming_the_file(tmp_path, load):
    seg_path = tmp_path / "seg.segment.json"
    htparse.save_segment(seg_path, load(doc())[0])
    good = json.loads(seg_path.read_text())
    note, chord = good["melody"][0], good["chords"][0]
    for name, bad, message in (
        ("onset.segment.json", {"melody": [{**note, "onset_ticks": 2**63}]},
         r"\$\.melody\[0\]: ends past tick 9223372036854775807"),
        ("end.segment.json", {"melody": [{**note, "onset_ticks": 2**62, "duration_ticks": 2**62}]},
         r"\$\.melody\[0\]: ends past tick 9223372036854775807"),
        ("chord.segment.json", {"chords": [{**chord, "onset_ticks": 2**62,
                                            "duration_ticks": 2**62}]},
         r"\$\.chords\[0\]: ends past tick"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps({**good, **bad}))
        with pytest.raises(MelscribeError, match=re.escape(name) + ": " + message):
            htparse.load_segment(path)
    huge = doc(melody=[{"scale_degree": 1, "accidental": 0, "rel_octave": 0,
                        "onset_beats": beats(10**19), "duration_beats": beats(1)}])
    with pytest.raises(MelscribeError, match=r"doc\.json: \$\.melody\[0\]: ends past tick"):
        load(huge)
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "huge.json").write_text(huge)
    proc = subprocess.run(
        [sys.executable, "-m", "melscribe.cli", "dataset", "convert", str(tmp_path / "in"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "huge.json" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_stratified_split_groups_artists():
    rng = np.random.default_rng(0)
    artist_of = {}
    seg_ids = []
    for a in range(20):
        for k in range(int(rng.integers(2, 9))):
            sid = f"a{a:02d}-{k}"
            seg_ids.append(sid)
            artist_of[sid] = f"artist{a:02d}"
    assignment = htparse.stratified_split(seg_ids, artist_of, seed=1)
    assert set(assignment) == set(seg_ids)
    by_artist = {}
    for sid, split in assignment.items():
        by_artist.setdefault(artist_of[sid], set()).add(split)
    assert all(len(splits) == 1 for splits in by_artist.values())
    counts = {s: 0 for s in htparse.SPLITS}
    for split in assignment.values():
        counts[split] += 1
    total = len(seg_ids)
    assert 0.6 <= counts["train"] / total <= 0.95
    assert counts["valid"] > 0 and counts["test"] > 0


def test_stratified_split_determinism_and_errors():
    ids = [f"s{i}" for i in range(30)]
    artists = {sid: f"a{i % 7}" for i, sid in enumerate(ids)}
    a = htparse.stratified_split(ids, artists, seed=5)
    b = htparse.stratified_split(ids, artists, seed=5)
    assert a == b
    with pytest.raises(KeyError):
        htparse.stratified_split(["s0", "mystery"], {"s0": "a"}, seed=0)
