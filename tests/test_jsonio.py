"""The shared JSON type rules, and every reader that follows them."""

import copy
import json

import numpy as np
import pytest

from melscribe import htparse
from melscribe.align import AlignmentMap, BeatGrid
from melscribe.errors import FormatError, ParseError, RangeError
from melscribe.evaluate import load_transcript
from melscribe.jsonio import at, check_keys, column, field, fields, reading, write_json
from melscribe.leadsheet import load_chord_changes


def test_field_kinds():
    obj = {"i": 3, "f": 2, "s": "x", "b": True, "l": [], "d": {}}
    assert field(obj, "i", int, "$") == 3
    assert field(obj, "f", float, "$") == 2.0 and type(field(obj, "f", float, "$")) is float
    assert field(obj, "s", str, "$") == "x"
    assert field(obj, "l", list, "$") == [] and field(obj, "d", dict, "$") == {}
    for key, kind in (("b", int), ("b", float), ("s", float), ("f", str), ("d", list)):
        with pytest.raises(ParseError) as raised:
            field(obj, key, kind, "$.x")
        assert str(raised.value).startswith(f"$.x.{key}: ")
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


def test_fields_checks_keys_then_kinds_in_table_order():
    kinds = {"n": int, "s": str, "any": object}
    assert fields({"s": "x", "any": None, "n": 3}, kinds, "$") == [3, "x", None]
    assert fields({"n": 3, "s": "x", "any": [1], "opt": 1}, kinds, "$", ("opt",)) == [3, "x", [1]]
    for obj, message in (
        ({"n": True, "s": 5, "bad": 1}, r"\$: unknown fields \['bad'\]"),
        ({"n": True, "s": 5}, r"\$: missing field 'any'"),
        ({"n": True, "s": 5, "any": None}, r"\$\.n: field 'n' must be an integer"),
        ({"n": 3, "s": 5, "any": None}, r"\$\.s: field 's' must be str"),
    ):
        with pytest.raises(ParseError, match=message):
            fields(obj, kinds, "$", optional=("opt",))


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
        assert str(raised.value).startswith("$.v: ")


def test_write_json_is_sorted_indented_with_newline(tmp_path):
    path = tmp_path / "o.json"
    write_json(path, {"b": [1], "a": {"d": 1, "c": 2}})
    assert path.read_text() == (
        '{\n  "a": {\n    "c": 2,\n    "d": 1\n  },\n  "b": [\n    1\n  ]\n}\n'
    )
    with reading(path) as obj:
        assert obj == {"a": {"c": 2, "d": 1}, "b": [1]}
    write_json(path, [{"b": 1, "a": 2}], sort_keys=False)
    assert path.read_text() == '[\n  {\n    "b": 1,\n    "a": 2\n  }\n]\n'
    with pytest.raises(TypeError, match="float32"):
        write_json(path, {"a": [1, np.float32(2)]})
    assert path.read_text() == '[\n  {\n    "b": 1,\n    "a": 2\n  }\n]\n'


def test_reading_names_the_file_once(tmp_path):
    path = tmp_path / "o.json"
    for blob in (b"{nope", b"\xff\xfe{}", b"[" * 100000, b'{"a": 1%s}' % (b"0" * 5000)):
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="invalid JSON") as raised:
            with reading(path):
                pass
        assert str(raised.value).count(str(path)) == 1
    path.write_text('{"a": true}')
    with pytest.raises(FormatError) as raised:
        with reading(path) as obj:
            field(obj, "a", int, "$")
    assert str(raised.value) == f"{path}: $.a: field 'a' must be an integer"
    with pytest.raises(FormatError) as raised:
        with reading(path) as obj:
            with at("$.a"):
                raise RangeError("out of range")
    assert str(raised.value) == f"{path}: $.a: out of range"
    with pytest.raises(KeyError):  # a bug is not a format error
        with reading(path) as obj:
            obj["b"]


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

#: Per format: a good document, its reader, the typed fields to spoil,
#: each as (location in the document, kind, JSON path the error must name),
#: and domain errors, each as (location, value, JSON path the error must
#: name, text the error must hold).
FORMATS = {
    "transcript": (
        [{"onset_s": 0.5, "offset_s": 1.0, "midi": 60},
         {"onset_s": 1.0, "offset_s": 1.5, "midi": 62}],
        load_transcript,
        [((1, "onset_s"), float, "$[*].onset_s"), ((0, "offset_s"), float, "$[*].offset_s"),
         ((1, "midi"), int, "$[*].midi")],
        [((1, "onset_s"), 0.5, "$", "share onset"),
         ((0, "offset_s"), 0.25, "$", "not after onset"),
         ((1, "midi"), 200, "$", "outside playable range")],
    ),
    "alignment": (
        {"beat_to_time_s": [0.5, 1.0, 1.5]},
        AlignmentMap.load,
        [(("beat_to_time_s", 1), float, "$.beat_to_time_s")],
        [(("beat_to_time_s", 2), 0.75, "$.beat_to_time_s", "strictly increasing"),
         (("beat_to_time_s",), [0.5], "$.beat_to_time_s", "at least beats 0 and 1")],
    ),
    "beat-grid": (
        {"beats_s": [0.5, 1.0, 1.5], "downbeats": [0]},
        BeatGrid.load,
        [(("beats_s", 2), float, "$.beats_s"), (("downbeats", 0), int, "$.downbeats")],
        [(("downbeats",), [], "$", "no downbeats"),
         (("beats_s", 1), 0.25, "$", "strictly increasing"),
         (("downbeats", 0), 3, "$.downbeats", "outside the beat list")],
    ),
    "chord-changes": (
        {"changes": [{"tick": 0, "root": 0, "quality": "maj"},
                     {"tick": 5, "root": 7, "quality": "dom7"}]},
        load_chord_changes,
        [(("changes", 1, "tick"), int, "$.changes[1].tick"),
         (("changes", 0, "root"), int, "$.changes[0].root"),
         (("changes", 0, "quality"), str, "$.changes[0].quality")],
        [(("changes", 1, "quality"), "xx", "$.changes[1].quality", "chord quality 'xx'"),
         (("changes", 0, "root"), 12, "$.changes[0].root", "outside 0..11")],
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
        [(("melody",), [{"onset_ticks": 0, "duration_ticks": 4, "midi": 60},
                        {"onset_ticks": 2, "duration_ticks": 4, "midi": 62}],
          "$.melody", "overlaps"),
         (("melody", 0, "midi"), 130, "$.melody[0]", "outside"),
         (("chords", 0, "quality"), "xx", "$.chords[0]", "chord quality 'xx'"),
         (("split",), "holdout", "$.split", "invalid"),
         (("user_end_s",), 0.25, "$", "segment")],
    ),
    "functional": (
        FUNCTIONAL,
        htparse.load_functional,
        [(("id",), str, "$.id"), (("start_s",), float, "$.start_s"),
         (("meter", "beat_unit"), int, "$.meter.beat_unit"),
         (("melody", 0, "scale_degree"), int, "$.melody[0].scale_degree"),
         (("melody", 0, "onset_beats", "num"), int, "$.melody[0].onset_beats.num"),
         (("chords", 0, "degree"), int, "$.chords[0].degree")],
        [(("melody", 0, "scale_degree"), 8, "$.melody[0]", "scale degree 8"),
         (("chords", 0, "kind"), "ninth", "$.chords[0]", "chord kind"),
         (("meter", "beats_per_bar"), 0, "$.meter", "beats"),
         (("key", "mode"), "dorian", "$.key.mode", "dorian"),
         (("end_s",), 0.25, "$", "segment")],
    ),
}

#: Values that are not of each kind; 1.5 also spoils an integer field.
BAD = {float: [True, "0.5"], int: [True, "5", 1.5], str: [True, 5]}


def _spoiled(good, location, value):
    doc = copy.deepcopy(good)
    parent = doc
    for step in location[:-1]:
        parent = parent[step]
    parent[location[-1]] = value
    return doc


def _refused(load, path, doc, where, text=""):
    """The FormatError loading ``doc`` raises; it names the file once, ``where`` and ``text``."""
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as raised:
        load(path)
    message = str(raised.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, message
    assert f" {where}: " in message and text in message, (where, text, message)


@pytest.mark.parametrize("name", list(FORMATS))
def test_wrong_typed_fields_fail_closed(tmp_path, name):
    good, load, fields, _ = FORMATS[name]
    path = tmp_path / "x.json"
    path.write_text(json.dumps(good))
    load(path)  # the undamaged document loads
    for location, kind, where in fields:
        for value in BAD[kind]:
            _refused(load, path, _spoiled(good, location, value), where)


@pytest.mark.parametrize("name", list(FORMATS))
def test_domain_errors_name_the_file_and_path(tmp_path, name):
    good, load, _, errors = FORMATS[name]
    path = tmp_path / "x.json"
    for location, value, where, text in errors:
        _refused(load, path, _spoiled(good, location, value), where, text)
