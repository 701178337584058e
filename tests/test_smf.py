import pytest

from helpers import read_smf
from melscribe.errors import RangeError
from melscribe.smf import (
    MIDI_TICKS_PER_SIXTEENTH,
    META,
    NOTE_OFF,
    NOTE_ON,
    TPQ,
    TimedMessage,
    key_signature_message,
    note_messages,
    single_track_file,
    tempo_message,
    time_signature_message,
    variable_length,
)


def test_constants():
    assert TPQ == 480
    assert MIDI_TICKS_PER_SIXTEENTH == 120


def test_variable_length_known_values():
    cases = {
        0: "00",
        0x40: "40",
        0x7F: "7f",
        0x80: "8100",
        0x2000: "c000",
        0x3FFF: "ff7f",
        0x4000: "818000",
        0x1FFFFF: "ffff7f",
        0x200000: "81808000",
        0x0FFFFFFF: "ffffff7f",
    }
    for value, hexed in cases.items():
        assert variable_length(value).hex() == hexed, value


def test_variable_length_range():
    with pytest.raises(RangeError):
        variable_length(-1)
    with pytest.raises(RangeError):
        variable_length(1 << 28)


def test_timed_message_validation():
    TimedMessage(0, META, b"")
    with pytest.raises(RangeError):
        single_track_file([TimedMessage(-1, META, b"")], 0)


def test_tempo_message_payload():
    msg = tempo_message(96, 0.5)
    assert msg.tick == 96 and msg.kind == META
    assert msg.payload == b"\xff\x51\x03\x07\xa1\x20"
    # one-microsecond resolution, rounded
    assert tempo_message(0, 0.0000014).payload[-3:] == b"\x00\x00\x01"
    with pytest.raises(RangeError):
        tempo_message(0, 17.0)  # exceeds 24-bit microseconds
    with pytest.raises(RangeError):
        tempo_message(0, 0.0)


def test_time_signature_payload():
    assert time_signature_message(0, 4, 4).payload == b"\xff\x58\x04\x04\x02\x18\x08"
    assert time_signature_message(0, 6, 8).payload == b"\xff\x58\x04\x06\x03\x18\x08"
    assert time_signature_message(0, 2, 2).payload == b"\xff\x58\x04\x02\x01\x18\x08"
    with pytest.raises(RangeError):
        time_signature_message(0, 4, 3)
    with pytest.raises(RangeError):
        time_signature_message(0, 0, 4)
    with pytest.raises(RangeError):
        time_signature_message(0, 256, 4)


def test_key_signature_payload():
    assert key_signature_message(0, 2, False).payload == b"\xff\x59\x02\x02\x00"
    assert key_signature_message(0, -3, True).payload == b"\xff\x59\x02\xfd\x01"
    assert key_signature_message(0, 0, False).payload == b"\xff\x59\x02\x00\x00"
    with pytest.raises(RangeError):
        key_signature_message(0, 8, False)
    with pytest.raises(RangeError):
        key_signature_message(0, -8, False)


def test_note_messages_payloads():
    on, off = note_messages(0, 120, 1, 60, 90)
    assert (on.tick, on.kind, on.payload) == (0, NOTE_ON, b"\x91\x3c\x5a")
    assert (off.tick, off.kind, off.payload) == (120, NOTE_OFF, b"\x81\x3c\x40")


def test_note_messages_validation():
    with pytest.raises(RangeError, match="channel"):
        note_messages(0, 1, 16, 60, 90)
    with pytest.raises(RangeError, match="note number"):
        note_messages(0, 1, 0, 128, 90)
    with pytest.raises(RangeError, match="velocity"):
        note_messages(0, 1, 0, 60, 0)
    with pytest.raises(RangeError, match="not after"):
        note_messages(10, 10, 0, 60, 90)


def test_single_track_file_layout():
    messages = [
        time_signature_message(0, 4, 4),
        *note_messages(0, 480, 0, 60, 90),
    ]
    data = single_track_file(messages, 960)
    assert data[:4] == b"MThd"
    assert data[4:8] == (6).to_bytes(4, "big")
    assert data[8:10] == b"\x00\x00"   # format 0
    assert data[10:12] == b"\x00\x01"  # one track
    assert int.from_bytes(data[12:14], "big") == 480
    division, events = read_smf(data)
    assert division == 480
    assert events[-1] == (960, "meta 2f", b"")


def test_single_track_file_orders_same_tick_events():
    # insert out of order: note-on, then meta, then note-off, all at tick 240
    msgs = [
        TimedMessage(240, NOTE_ON, b"\x90\x40\x5a"),
        tempo_message(240, 0.5),
        TimedMessage(240, NOTE_OFF, b"\x80\x3c\x40"),
        TimedMessage(0, NOTE_ON, b"\x90\x3c\x5a"),
    ]
    _, events = read_smf(single_track_file(msgs, 480))
    kinds = [kind for t, kind, _ in events if t == 240]
    assert kinds == ["meta 51", "80", "90"]


def test_single_track_file_keeps_insertion_order_within_kind():
    msgs = [
        TimedMessage(0, NOTE_ON, b"\x90\x30\x50"),
        TimedMessage(0, NOTE_ON, b"\x90\x31\x50"),
        TimedMessage(0, NOTE_ON, b"\x90\x32\x50"),
    ]
    _, events = read_smf(single_track_file(msgs, 10))
    assert [p[0] for _, kind, p in events if kind == "90"] == [0x30, 0x31, 0x32]


def test_single_track_file_delta_encoding():
    msgs = [
        TimedMessage(0, NOTE_ON, b"\x90\x3c\x5a"),
        TimedMessage(200, NOTE_OFF, b"\x80\x3c\x40"),
    ]
    data = single_track_file(msgs, 500)
    track = data[22:]
    assert track.startswith(b"\x00\x90\x3c\x5a")
    rest = track[4:]
    assert rest.startswith(variable_length(200) + b"\x80\x3c\x40")
    tail = rest[len(variable_length(200)) + 3 :]
    assert tail == variable_length(300) + b"\xff\x2f\x00"


def test_single_track_file_rejects_past_end():
    msgs = [TimedMessage(600, NOTE_ON, b"\x90\x3c\x5a")]
    with pytest.raises(RangeError, match="past end"):
        single_track_file(msgs, 480)
    # an event exactly at the end is allowed
    single_track_file(msgs, 600)


def test_empty_file_is_just_end_of_track():
    _, events = read_smf(single_track_file([], 0))
    assert events == [(0, "meta 2f", b"")]
