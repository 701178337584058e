"""The shared JSON type rules, and every reader that follows them."""

import copy
import json

import numpy as np
import pytest

from melscribe import htparse
from melscribe.align import AlignmentMap, BeatGrid
from melscribe.cli import _load_chord_changes
from melscribe.errors import FormatError, ParseError
from melscribe.evaluate import load_transcript
from melscribe.jsonio import check_keys, column, field, read_json, write_json


def test_field_kinds():
    obj = {"i": 3, "f": 2, "s": "x", "b": True, "l": [], "d": {}}
    assert field(obj, "i", int, "$") == 3
    assert field(obj, "f", float, "$") == 2.0 and type(field(obj, "f", float, "$")) is float
    assert field(obj, "s", str, "$") == "x"
    assert field(obj, "l", list, "$") == [] and field(obj, "d", dict, "$") == {}
    for key, kind in (("b", int), ("b", float), ("s", float), ("f", str), ("d", list)):
        with pytest.raises(ParseError) as raised:
            field(obj, key, kind, "$.x")
        assert raised.value.path == f"$.x.{key}"
    with pytest.raises(ParseError, match="missing field 'z'"):
        field(obj, "z", int, "$")
    with pytest.raises(ParseError, match="expected an object"):
        field([1], "i", int, "$")
    with pytest.raises(ParseError, match="does not fit a float64"):
        field({"f": 10**400}, "f", float, "$")


def test_check_keys():
    check_keys({"a": 1, "b": 2}, ("a",), "$", optional=("b",))
    check_keys({"a": 1}, ("a",), "$", optional=("b",))
    with pytest.raises(ParseError, match=r"unknown fields \['c'\]"):
        check_keys({"a": 1, "c": 2}, ("a",), "$", optional=("b",))
    with pytest.raises(ParseError, match="missing field 'a'"):
        check_keys({"b": 1}, ("a",), "$", optional=("b",))
    with pytest.raises(ParseError, match=r"\$\.m: expected an object, got list"):
        check_keys([], (), "$.m")


def test_column():
    times = column([0, 0.5, 2], float, "$.t")
    assert times.dtype == np.float64 and times.tolist() == [0.0, 0.5, 2.0]
    ints = column([1, -2], int, "$.i")
    assert ints.dtype == np.int64 and ints.tolist() == [1, -2]
    assert column([], int, "$.i").dtype == np.int64
    for values, kind, message in (
        ([0.0, True], float, "entry 1 must be a JSON number, got True"),
        ([0.0, "0.5"], float, "entry 1 must be a JSON number"),
        ([0.0, None], float, "entry 1 must be a JSON number"),
        ([1, 1.5], int, "entry 1 must be a JSON integer, got 1.5"),
        ([1, False], int, "entry 1 must be a JSON integer"),
        ([[1]], int, "entry 0 must be a JSON integer"),
        ([0.0, 1, 10**400], float, "entry 2 does not fit a float64"),
        ([1, -(10**30)], int, "entry 1 does not fit a int64"),
    ):
        with pytest.raises(ParseError, match=message) as raised:
            column(values, kind, "$.v")
        assert raised.value.path == "$.v"


def test_write_json_is_sorted_indented_with_newline(tmp_path):
    path = tmp_path / "o.json"
    write_json(path, {"b": [1], "a": {"d": 1, "c": 2}})
    assert path.read_text() == (
        '{\n  "a": {\n    "c": 2,\n    "d": 1\n  },\n  "b": [\n    1\n  ]\n}\n'
    )
    assert read_json(path) == {"a": {"c": 2, "d": 1}, "b": [1]}


def _beats(num, den=1):
    return {"num": num, "den": den}


FUNCTIONAL = {
    "id": "f", "artist": "a", "audio_ref": "f.wav", "start_s": 0.5, "end_s": 4.5,
    "meter": {"beats_per_bar": 4, "beat_unit": 4},
    "key": {"tonic_pc": 0, "mode": "major"},
    "melody": [{"scale_degree": 1, "accidental": 0, "rel_octave": 0,
                "onset_beats": _beats(0), "duration_beats": _beats(1)}],
    "chords": [{"degree": 1, "accidental": 0, "kind": "triad", "borrowed_mode": None,
                "onset_beats": _beats(0), "duration_beats": _beats(4)}],
}
SEGMENT = {
    "id": "s", "audio_ref": "s.wav", "split": "train",
    "user_start_s": 0.5, "user_end_s": 2.0,
    "meter": {"beats_per_bar": 4, "beat_unit": 4},
    "key": {"tonic_pc": 0, "mode": "major"},
    "melody": [{"onset_ticks": 0, "duration_ticks": 4, "midi": 60}],
    "chords": [{"onset_ticks": 0, "duration_ticks": 12, "root_pc": 0, "quality": "maj"}],
}

#: Per format: a good document, its reader, and the typed fields to spoil,
#: each as (location in the document, kind, JSON path the error must name).
FORMATS = {
    "transcript": (
        [{"onset_s": 0.5, "offset_s": 1.0, "midi": 60},
         {"onset_s": 1.0, "offset_s": 1.5, "midi": 62}],
        load_transcript,
        [((1, "onset_s"), float, "$[*].onset_s"), ((0, "offset_s"), float, "$[*].offset_s"),
         ((1, "midi"), int, "$[*].midi")],
    ),
    "alignment": (
        {"beat_to_time_s": [0.5, 1.0, 1.5]},
        AlignmentMap.load,
        [(("beat_to_time_s", 1), float, "$.beat_to_time_s")],
    ),
    "beat-grid": (
        {"beats_s": [0.5, 1.0, 1.5], "downbeats": [0]},
        lambda p: BeatGrid.from_json_dict(read_json(p)),
        [(("beats_s", 2), float, "$.beats_s"), (("downbeats", 0), int, "$.downbeats")],
    ),
    "chord-changes": (
        {"changes": [{"tick": 0, "root": 0, "quality": "maj"},
                     {"tick": 5, "root": 7, "quality": "dom7"}]},
        _load_chord_changes,
        [(("changes", 1, "tick"), int, "$.changes[1].tick"),
         (("changes", 0, "root"), int, "$.changes[0].root"),
         (("changes", 0, "quality"), str, "$.changes[0].quality")],
    ),
    "segment": (
        SEGMENT,
        htparse.load_segment,
        [(("id",), str, "$.id"), (("user_start_s",), float, "$.user_start_s"),
         (("meter", "beats_per_bar"), int, "$.meter.beats_per_bar"),
         (("key", "tonic_pc"), int, "$.key.tonic_pc"),
         (("melody", 0, "onset_ticks"), int, "$.melody[0].onset_ticks"),
         (("melody", 0, "midi"), int, "$.melody[0].midi"),
         (("chords", 0, "root_pc"), int, "$.chords[0].root_pc")],
    ),
    "functional": (
        FUNCTIONAL,
        lambda p: htparse.parse_segment(p.read_text()),
        [(("id",), str, "$.id"), (("start_s",), float, "$.start_s"),
         (("meter", "beat_unit"), int, "$.meter.beat_unit"),
         (("melody", 0, "scale_degree"), int, "$.melody[0].scale_degree"),
         (("melody", 0, "onset_beats", "num"), int, "$.melody[0].onset_beats.num"),
         (("chords", 0, "degree"), int, "$.chords[0].degree")],
    ),
}

#: Values that are not of each kind; 1.5 also spoils an integer field.
BAD = {float: [True, "0.5"], int: [True, "5", 1.5], str: [True, 5]}


@pytest.mark.parametrize("name", list(FORMATS))
def test_wrong_typed_fields_fail_closed(tmp_path, name):
    good, load, fields = FORMATS[name]
    path = tmp_path / "x.json"
    path.write_text(json.dumps(good))
    load(path)  # the undamaged document loads
    for location, kind, where in fields:
        for value in BAD[kind]:
            doc = copy.deepcopy(good)
            parent = doc
            for step in location[:-1]:
                parent = parent[step]
            parent[location[-1]] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(FormatError) as raised:
                load(path)
            assert where in str(raised.value), (location, value, raised.value)
