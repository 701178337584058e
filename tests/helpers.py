"""Shared test utilities: melody builders, a tiny SMF reader, synthetic data,
and the octave shift and one-hot logits the tests build inputs with."""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np

from melscribe.core import MIDI_MAX, MIDI_MIN, TICKS_PER_BEAT, Melody, PerfNote, Pitch, ScoreNote
from melscribe.errors import InputError, RangeError
from melscribe.features import beatwise_resample, logmel
from melscribe.labeler.labels import DenseLabelSequence, MELODY_VOCAB, densify_melody
from melscribe.labeler.train import TrainExample
from melscribe.synth import random_segment, render_audio


def perf(pairs) -> Melody:
    """Performance melody from (onset_s, midi) pairs; offsets are onset+10 ms."""
    return Melody(
        tuple(PerfNote(float(t), float(t) + 0.01, Pitch(int(m))) for t, m in pairs)
    )


def score(triples) -> Melody:
    """Score melody from (onset_ticks, duration_ticks, midi) triples."""
    return Melody(
        tuple(ScoreNote(int(o), int(d), Pitch(int(m))) for o, d, m in triples)
    )


def octave_shift(melody: Melody, sigma: int) -> Melody:
    """Shift every pitch by ``sigma`` octaves, leaving times untouched.

    Raises RangeError naming the first note the shift would push outside
    the pitch range.
    """
    midis = melody.midis + 12 * sigma
    bad = np.flatnonzero((midis < MIDI_MIN) | (midis > MIDI_MAX))
    if len(bad):
        i = bad[0]
        raise RangeError(
            f"octave shift {sigma:+d} moves note {i} "
            f"(midi {melody.midis[i]}) to {midis[i]}, outside "
            f"{MIDI_MIN}..{MIDI_MAX}"
        )
    return Melody._of_columns(melody.onsets, melody.ends, midis, melody.is_score)


def one_hot_logits(labels: DenseLabelSequence, scale: float = 40.0) -> np.ndarray:
    """Logits that decode back to exactly these labels at any sane threshold."""
    out = np.zeros((labels.num_ticks, labels.vocab.n_classes), dtype=np.float32)
    out[np.arange(labels.num_ticks), labels.classes] = scale
    return out


def random_perf(rng, n, midi_lo=40, midi_hi=80, spacing=(0.05, 0.4)) -> Melody:
    onsets = np.cumsum(rng.uniform(*spacing, size=n))
    midis = rng.integers(midi_lo, midi_hi, size=n)
    return perf(zip(onsets, midis))


def densify_per_note(onsets, num_beats: int) -> DenseLabelSequence:
    """Reference for ``densify``: one (onset_beats, Pitch) pair at a time."""
    if num_beats < 1:
        raise InputError(f"num_beats {num_beats} below 1")
    n_ticks = num_beats * TICKS_PER_BEAT
    classes = np.zeros(n_ticks, dtype=np.int64)
    distance = np.full(n_ticks, np.inf)
    collisions = 0
    for onset, pitch in onsets:
        b = float(onset)
        if not (0 <= b < num_beats) or not math.isfinite(b):
            raise RangeError(
                f"onset {onset} outside [0, {num_beats}) beats"
            )
        tick = math.ceil(b * TICKS_PER_BEAT - 0.5)
        if tick >= n_ticks:  # rounding can reach 4B at the very edge
            tick = n_ticks - 1
        d = abs(b * TICKS_PER_BEAT - tick)
        if classes[tick] == 0:
            classes[tick] = pitch.midi - 20
            distance[tick] = d
        else:
            collisions += 1
            if d < distance[tick]:
                classes[tick] = pitch.midi - 20
                distance[tick] = d
    if collisions:
        warnings.warn(
            f"{collisions} note(s) lost to sixteenth-note collisions", stacklevel=2
        )
    return DenseLabelSequence(classes, MELODY_VOCAB)


def synth_examples(
    n: int,
    seed: int,
    num_beats: int = 8,
    n_valid: int = 2,
    n_test: int = 0,
    bpm_range=(60.0, 180.0),
) -> list[TrainExample]:
    """Rendered sine segments through the real feature path, ready to train."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        seg = random_segment(rng, f"s{i:03d}", num_beats=num_beats, bpm_range=bpm_range)
        audio = render_audio(seg.melody, seg.amap)
        feats = beatwise_resample(logmel(audio, 16000), seg.amap)
        labels = densify_melody(seg.melody, seg.amap.num_beats)
        if i < n - n_valid - n_test:
            split = "train"
        elif i < n - n_test:
            split = "valid"
        else:
            split = "test"
        out.append(TrainExample(seg.seg_id, feats.frames, labels, seg.amap, split))
    return out


def read_smf(data: bytes):
    """Parse a format-0 SMF into (division, [(tick, status, payload_bytes)]).

    Meta events report status "meta XX"; channel events report the status
    byte in hex.  Running status is intentionally not supported: the
    writer always emits explicit status bytes.
    """
    assert data[:4] == b"MThd"
    hlen, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    assert hlen == 6 and fmt == 0 and ntrks == 1
    assert data[14:18] == b"MTrk"
    tlen = struct.unpack(">I", data[18:22])[0]
    track = data[22 : 22 + tlen]
    assert 22 + tlen == len(data)

    def vlq(i):
        v = 0
        while True:
            b = track[i]
            i += 1
            v = (v << 7) | (b & 0x7F)
            if not b & 0x80:
                return v, i

    events = []
    i = 0
    tick = 0
    while i < len(track):
        dt, i = vlq(i)
        tick += dt
        status = track[i]
        i += 1
        assert status & 0x80, "writer must emit explicit status bytes"
        if status == 0xFF:
            meta = track[i]
            i += 1
            ln, i = vlq(i)
            events.append((tick, f"meta {meta:02x}", track[i : i + ln]))
            i += ln
        else:
            events.append((tick, f"{status:02x}", track[i : i + 2]))
            i += 2
    return division, events
