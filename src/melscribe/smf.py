"""Minimal Standard MIDI File (format 0) writer.

Byte-deterministic single-track files, each event with its status byte
(no running status).  ``single_track_file`` alone checks and orders events:
ticks lie in 0..end, and simultaneous ones go meta < note-off < note-on,
then in insertion order.  480 MIDI ticks per beat, 120 per sixteenth.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import RangeError

TPQ = 480
MIDI_TICKS_PER_SIXTEENTH = TPQ // 4

META = 0
NOTE_OFF = 1
NOTE_ON = 2


class TimedMessage(NamedTuple):
    """One MIDI event: absolute tick, sort kind, raw status+data bytes."""

    tick: int
    kind: int
    payload: bytes


def variable_length(value: int) -> bytes:
    if value < 0 or value >= 1 << 28:
        raise RangeError(f"delta time {value} outside the 28-bit range")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def tempo_message(tick: int, seconds_per_beat: float) -> TimedMessage:
    us = round(seconds_per_beat * 1_000_000)
    if not 1 <= us <= 0xFFFFFF:
        raise RangeError(f"tempo {seconds_per_beat} s/beat outside the 24-bit range")
    return TimedMessage(tick, META, b"\xff\x51\x03" + us.to_bytes(3, "big"))


def time_signature_message(tick: int, numerator: int, unit: int) -> TimedMessage:
    if unit not in (1, 2, 4, 8, 16):
        raise RangeError(f"beat unit {unit} not a power of two up to 16")
    if not 1 <= numerator <= 255:
        raise RangeError(f"time signature numerator {numerator} outside 1..255")
    dd = unit.bit_length() - 1
    return TimedMessage(tick, META, bytes([0xFF, 0x58, 0x04, numerator, dd, 24, 8]))


def key_signature_message(tick: int, fifths: int, minor: bool) -> TimedMessage:
    if not -7 <= fifths <= 7:
        raise RangeError(f"key signature of {fifths} fifths outside -7..7")
    return TimedMessage(
        tick, META, bytes([0xFF, 0x59, 0x02, fifths & 0xFF, 1 if minor else 0])
    )


def note_messages(
    on_tick: int, off_tick: int, channel: int, midi: int, velocity: int
) -> list[TimedMessage]:
    if not 0 <= channel <= 15:
        raise RangeError(f"channel {channel} outside 0..15")
    if not 0 <= midi <= 127:
        raise RangeError(f"note number {midi} outside 0..127")
    if not 1 <= velocity <= 127:
        raise RangeError(f"velocity {velocity} outside 1..127")
    if off_tick <= on_tick:
        raise RangeError(f"note-off tick {off_tick} not after note-on {on_tick}")
    return [
        TimedMessage(on_tick, NOTE_ON, bytes([0x90 | channel, midi, velocity])),
        TimedMessage(off_tick, NOTE_OFF, bytes([0x80 | channel, midi, 64])),
    ]


def single_track_file(messages: list[TimedMessage], end_tick: int) -> bytes:
    """Assemble a format-0 SMF ending with end-of-track at ``end_tick``."""
    if any(m.tick > end_tick for m in messages):
        raise RangeError("event tick past end of track")
    data = bytearray()
    clock = 0
    for msg in sorted(messages, key=lambda m: (m.tick, m.kind)):  # stable: ties keep their order
        data += variable_length(msg.tick - clock)  # refuses a negative first tick
        data += msg.payload
        clock = msg.tick
    data += variable_length(end_tick - clock)
    data += b"\xff\x2f\x00"
    header = b"MThd" + (6).to_bytes(4, "big")
    header += (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + TPQ.to_bytes(2, "big")
    track = b"MTrk" + len(data).to_bytes(4, "big") + bytes(data)
    return header + track
