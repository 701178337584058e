"""Synthetic sine-voice segments with known ground truth.

Generates diatonic random-walk melodies on constant-tempo grids and
renders them as decaying sine tones (plus a soft second partial) so the
full pipeline can be exercised end to end without recordings.  Each
pitch's tone is rendered once per ``render_audio`` call and every note
is cut from it, which gives the bytes of rendering each note on its own.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .align import AlignmentMap, align, constant_tempo_grid, refine_alignment
from .core import KeySignature, Melody, PitchClass, TICKS_PER_BEAT, whole_sample_rate
from .errors import InputError

ATTACK_S = 0.008
RELEASE_S = 0.025
DECAY_TIME_S = 0.7
PARTIAL_GAIN = 0.18
#: Silence rendered after the last aligned beat.
TAIL_S = 0.3

_BEAT_PATTERNS = ((0,), (0, 2), (0, 2), (0,), (2,), (0, 3), (0, 1, 2, 3))


@dataclass(frozen=True)
class SynthSegment:
    """A generated segment: ground-truth melody plus its tempo grid."""

    seg_id: str
    melody: Melody
    key: KeySignature
    amap: AlignmentMap
    bpm: float
    lead_in_s: float


def _scale_midis(key: KeySignature, lo: int = 52, hi: int = 84) -> list[int]:
    pcs = set(key.scale_pcs)
    return [m for m in range(lo, hi + 1) if m % 12 in pcs]


def random_melody(
    rng: np.random.Generator, key: KeySignature, num_beats: int
) -> Melody:
    """Diatonic random walk with legato durations on the sixteenth grid."""
    if num_beats < 1:
        raise InputError(f"num_beats {num_beats} below 1")
    onsets = []
    for beat in range(num_beats):
        pattern = _BEAT_PATTERNS[int(rng.integers(0, len(_BEAT_PATTERNS)))]
        onsets.extend(beat * TICKS_PER_BEAT + off for off in pattern)
    tones = _scale_midis(key)
    idx = len(tones) // 2 + int(rng.integers(-2, 3))
    midis = []
    for _ in onsets:
        idx = int(np.clip(idx + rng.integers(-3, 4), 0, len(tones) - 1))
        midis.append(tones[idx])
    # every beat pattern is non-empty, so each note ends at the next onset or the end
    onsets = np.array(onsets, dtype=np.int64)
    ends = np.append(onsets[1:], num_beats * TICKS_PER_BEAT)
    return Melody._of_columns(onsets, ends, np.array(midis, dtype=np.int64), True)


def random_segment(
    rng: np.random.Generator,
    seg_id: str,
    num_beats: int = 16,
    bpm_range: tuple[float, float] = (60.0, 180.0),
    lead_in_s: float = 0.5,
) -> SynthSegment:
    tonic = int(rng.integers(0, 12))
    mode = "major" if rng.random() < 0.5 else "minor"
    key = KeySignature(PitchClass(tonic), mode)
    bpm = float(rng.uniform(*bpm_range))
    grid = constant_tempo_grid(bpm, lead_in_s, num_beats + 1)
    amap = refine_alignment(grid, lead_in_s, num_beats)
    melody = random_melody(rng, key, num_beats)
    return SynthSegment(seg_id, melody, key, amap, bpm, lead_in_s)


def render_audio(melody: Melody, amap: AlignmentMap, sample_rate: int = 16000) -> np.ndarray:
    """Float32 mono samples covering the aligned span plus a tail.

    Each note is a sine with a second partial of gain ``PARTIAL_GAIN``
    (left out when it would reach Nyquist), under an exponential
    decay, a linear attack of ``ATTACK_S`` and a linear fade over its
    last ``RELEASE_S``; notes that overlap add, and a result peaking
    above 0.95 is scaled down to 0.95.

    Each pitch is rendered once per call: its tone, at the length of its
    longest note, and one decay-and-attack envelope at the length of the
    longest note of all.  Every sample of both is a function of its index
    k alone (k / rate, scalar products, ``sin``, ``exp``, the ramp), so a
    note of n samples is the first n samples of each, and the notes add
    in melody order with the products in the order of a note rendered on
    its own.  The tables live for the call only.

    A ``sample_rate`` that is not a positive whole number raises InputError.
    """
    sample_rate = whole_sample_rate(sample_rate)
    if melody.is_score is False:
        raise InputError("render expects a score-form melody")
    end_s = align(amap, amap.num_beats) + TAIL_S
    out = np.zeros(int(round(end_s * sample_rate)), dtype=np.float64)
    onsets = align(amap, melody.onsets / TICKS_PER_BEAT)
    ends = np.minimum(melody.ends, amap.num_beats * TICKS_PER_BEAT)
    offsets = align(amap, ends / TICKS_PER_BEAT)
    notes = []  # (midi, first sample, samples) of each note that sounds
    longest: dict[int, int] = {}  # samples of each pitch's longest note
    for midi, onset, offset in zip(melody.midis.tolist(), onsets.tolist(), offsets.tolist()):
        length = max(offset - onset - RELEASE_S, 0.04)
        i0 = int(round(onset * sample_rate))
        n = int(round(length * sample_rate))
        n = min(n, len(out) - i0)
        if n > 0:
            notes.append((midi, i0, n))
            longest[midi] = max(longest.get(midi, 0), n)
    t = np.arange(max(longest.values(), default=0)) / sample_rate
    env = np.exp(-t / DECAY_TIME_S)
    attack = int(ATTACK_S * sample_rate)
    if attack > 0:
        env *= np.minimum(np.arange(len(t)) / attack, 1.0)
    release = int(RELEASE_S * sample_rate)
    fade = np.linspace(1.0, 0.0, release)
    tones = {}
    for midi, n in longest.items():
        freq = 440.0 * 2.0 ** ((midi - 69) / 12)
        tone = np.sin(2 * np.pi * freq * t[:n])
        if 2 * freq < sample_rate / 2:
            tone += PARTIAL_GAIN * np.sin(4 * np.pi * freq * t[:n])
        tones[midi] = 0.4 * tone
    for midi, i0, n in notes:
        tone, note = tones[midi], out[i0 : i0 + n]
        held = n - release if 0 < release < n else n  # samples before the fade
        note[:held] += tone[:held] * env[:held]
        if held < n:
            note[held:] += tone[held:n] * (env[held:n] * fade)
    peak = np.abs(out).max()
    if peak > 0.95:
        out *= 0.95 / peak
    return out.astype(np.float32)


#: Samples ``write_wav`` converts and writes at a time (256 KB of PCM).
_WAV_PIECE = 2**17


def write_wav(path, samples: np.ndarray, sample_rate: int = 16000) -> None:
    """Write samples in [-1, 1] (clipped) as a 16-bit mono PCM WAV file.

    Each sample is clipped into float64, scaled by 32767 and truncated to
    int16.  That is done in pieces of ``_WAV_PIECE`` samples through two
    reused buffers, each piece written as it is converted, so no
    whole-length copy is made.  A ``sample_rate`` that is not a positive
    whole number raises InputError before the file is opened.
    """
    sample_rate = whole_sample_rate(sample_rate)
    samples = np.asarray(samples).reshape(-1)
    scaled = np.empty(_WAV_PIECE)
    pcm = np.empty(_WAV_PIECE, "<i2")
    with open(path, "wb") as fh, wave.open(fh, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(sample_rate)
        out.setnframes(len(samples))
        for a in range(0, len(samples), _WAV_PIECE):
            m = min(_WAV_PIECE, len(samples) - a)
            np.clip(samples[a : a + m], -1.0, 1.0, out=scaled[:m])
            scaled[:m] *= 32767.0
            pcm[:m] = scaled[:m]
            out.writeframesraw(pcm[:m])
