"""Checks on the program's outputs, computed apart from the program.

Each check returns a list of problems; an empty list means it passed.
Nothing here calls into ``melscribe``: pooling, band centres, softmax
thresholding, the SMF reader and the matcher (scipy's
``maximum_bipartite_matching``) are all written from the documented
definitions.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

TOL_S = 0.05
MIDI_MIN, MIDI_MAX = 21, 108
POOL_TOL = 1e-4
ONSET_TOL_S = 1e-9
#: The melody pitch of class c is MIDI c + 20; class 0 is "no onset".
CLASS_OFFSET = 20
#: Half the 2048-sample analysis window at 16 kHz, and the synth release.
HALF_WINDOW_S = 1024 / 16000
RELEASE_S = 0.025


def tick_times(beat_to_time_s: np.ndarray) -> np.ndarray:
    """Times of sixteenths 0..4B, linear between beat entries."""
    beats = np.arange(len(beat_to_time_s), dtype=np.float64)
    positions = np.arange(4 * (len(beat_to_time_s) - 1) + 1) / 4.0
    return np.interp(positions, beats, beat_to_time_s)


def pooled_reference(frames: np.ndarray, t0_s: float, rate_hz: float,
                     beat_to_time_s: np.ndarray) -> np.ndarray:
    """Per-sixteenth means of fixed-rate frames.

    Cell k spans from the midpoint before tick k to the midpoint after it
    (the first cell mirrors its right half); a frame on an interior
    boundary belongs to the lower cell, frames outside every cell are
    dropped, and an empty cell takes the frame nearest its tick.
    """
    tt = tick_times(beat_to_time_s)
    n_cells = len(tt) - 1
    bounds = np.empty(n_cells + 1)
    bounds[0] = tt[0] - 0.5 * (tt[1] - tt[0])
    bounds[1:] = 0.5 * (tt[:-1] + tt[1:])
    times = t0_s + np.arange(len(frames)) / rate_hz
    cell = np.searchsorted(bounds, times, side="left") - 1
    cell[times == bounds[0]] = 0
    inside = (cell >= 0) & (cell < n_cells)
    sums = np.zeros((n_cells, frames.shape[1]))
    np.add.at(sums, cell[inside], frames[inside].astype(np.float64))
    counts = np.bincount(cell[inside], minlength=n_cells)
    out = sums / np.maximum(counts, 1)[:, None]
    for k in np.flatnonzero(counts == 0):
        out[k] = frames[int(np.argmin(np.abs(times - tt[k])))]
    return out


def check_resampled(rows: np.ndarray, frames: np.ndarray, t0_s: float,
                    rate_hz: float, beat_to_time_s: np.ndarray) -> list[str]:
    expected = pooled_reference(frames, t0_s, rate_hz, beat_to_time_s)
    if rows.shape != expected.shape:
        return [f"resampled shape {rows.shape}, expected {expected.shape}"]
    err = np.abs(rows - expected)
    if err.max() > POOL_TOL:
        k = int(np.argmax(err.max(axis=1)))
        return [f"resampled row {k} of {len(rows)} off by {err[k].max():.3g}"]
    return []


def mel_band_centres_hz(n_mels: int = 229, fmin: float = 30.0,
                        fmax: float = 8000.0) -> np.ndarray:
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)  # noqa: E731
    points = np.linspace(mel(fmin), mel(fmax), n_mels + 2)
    return (700.0 * (10.0 ** (points / 2595.0) - 1.0))[1:-1]


def sustained_ticks(melody, beat_to_time_s: np.ndarray):
    """(tick, midi) for ticks whose cell, widened by half an analysis
    window, lies inside one note's sounding part (onset to release)."""
    tt = tick_times(beat_to_time_s)
    n_ticks = len(tt) - 1
    bounds = np.empty(n_ticks + 1)
    bounds[0] = tt[0] - 0.5 * (tt[1] - tt[0])
    bounds[1:] = 0.5 * (tt[:-1] + tt[1:])
    out = []
    for onset, duration, midi in melody:
        end = min(onset + duration, n_ticks)
        sounding_end = tt[end] - RELEASE_S
        for t in range(onset, end):
            if bounds[t] - HALF_WINDOW_S >= tt[onset] and \
                    bounds[t + 1] + HALF_WINDOW_S <= sounding_end:
                out.append((t, midi))
    return out


def check_loudest_band(rows: np.ndarray, melody, beat_to_time_s: np.ndarray) -> list[str]:
    """On every sustained tick the loudest band is the one nearest f0 or
    the one above it."""
    centres = mel_band_centres_hz(rows.shape[1])
    ticks = sustained_ticks(melody, beat_to_time_s)
    if not ticks:
        return ["no sustained ticks to check"]
    bad = []
    for t, midi in ticks:
        f0 = 440.0 * 2.0 ** ((midi - 69) / 12.0)
        nearest = int(np.argmin(np.abs(centres - f0)))
        if int(np.argmax(rows[t])) not in (nearest, nearest + 1):
            bad.append(t)
    if bad:
        return [f"loudest band misses f0 on {len(bad)} of {len(ticks)} sustained "
                f"ticks, first at tick {bad[0]}"]
    return []


def threshold_notes(logits: np.ndarray, tau: float,
                    beat_to_time_s: np.ndarray) -> list[tuple[int, int]]:
    """(tick, midi) where the silence probability is below tau."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    ticks = np.flatnonzero(probs[:, 0] < tau)
    classes = 1 + np.argmax(probs[ticks, 1:], axis=1)
    return [(int(t), int(c) + CLASS_OFFSET) for t, c in zip(ticks, classes)]


def check_transcript(entries: list[dict], expected: list[tuple[int, int]],
                     beat_to_time_s: np.ndarray) -> list[str]:
    """The transcript holds exactly the expected (tick, midi) notes, with
    onsets on the alignment and legato offsets ending at the last beat."""
    if len(entries) != len(expected):
        return [f"transcript has {len(entries)} notes, thresholding gives {len(expected)}"]
    tt = tick_times(beat_to_time_s)
    for i, (entry, (tick, midi)) in enumerate(zip(entries, expected)):
        offset = tt[expected[i + 1][0]] if i + 1 < len(expected) else tt[-1]
        if entry["midi"] != midi or abs(entry["onset_s"] - tt[tick]) > ONSET_TOL_S \
                or abs(entry["offset_s"] - offset) > ONSET_TOL_S:
            return [f"transcript note {i} is {entry}, expected midi {midi} "
                    f"from {tt[tick]:.6f} s to {offset:.6f} s"]
    return []


def _vlq(data: bytes, i: int) -> tuple[int, int]:
    value = 0
    while True:
        byte = data[i]
        i += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, i


def midi_note_ons(data: bytes, channel: int = 0) -> list[int]:
    """Note numbers of the note-ons on one channel of a format-0 SMF."""
    if data[:4] != b"MThd" or data[14:18] != b"MTrk":
        raise ValueError("not a single-track standard MIDI file")
    (length,) = struct.unpack(">I", data[18:22])
    track = data[22:22 + length]
    notes = []
    i = 0
    while i < len(track):
        _, i = _vlq(track, i)
        status = track[i]
        i += 1
        if status == 0xFF:
            i += 1
            size, i = _vlq(track, i)
            i += size
        elif status & 0xF0 in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            if status == 0x90 | channel and track[i + 1] > 0:
                notes.append(track[i])
            i += 2
        else:
            raise ValueError(f"unexpected status byte {status:#x}")
    return notes


def check_sheet(sheet_notes: list[tuple[int, int]], midi_bytes: bytes,
                expected: list[tuple[int, int]]) -> list[str]:
    """The lead sheet keeps every note in order; its MIDI has one
    note-on per note, with the note's pitch."""
    problems = []
    if sheet_notes != expected:
        problems.append(f"lead sheet holds {len(sheet_notes)} notes that differ "
                        f"from the {len(expected)} transcript notes")
    ons = midi_note_ons(midi_bytes)
    if ons != [m for _, m in expected]:
        problems.append(f"MIDI holds {len(ons)} melody note-ons for "
                        f"{len(expected)} transcript notes")
    return problems


def _match(est_on, ref_on, tol, est_mid=None, ref_mid=None) -> int:
    """Maximum matching between onsets within tol (and of equal pitch)."""
    if len(est_on) == 0 or len(ref_on) == 0:
        return 0
    lo = np.searchsorted(ref_on, est_on - tol, side="left")
    hi = np.searchsorted(ref_on, est_on + tol, side="right")
    rows = np.repeat(np.arange(len(est_on)), hi - lo)
    cols = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
    if est_mid is not None:
        keep = est_mid[rows] == ref_mid[cols]
        rows, cols = rows[keep], cols[keep]
    if len(rows) == 0:
        return 0
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(est_on), len(ref_on)))
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def _prf(tp: int, n_est: int, n_ref: int) -> tuple[float, float, float]:
    if n_est == 0 and n_ref == 0:
        return 1.0, 1.0, 1.0
    p = tp / n_est if n_est else 0.0
    r = tp / n_ref if n_ref else 0.0
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def reference_report(est: list[tuple[float, int]], ref: list[tuple[float, int]],
                     octave_invariant: bool, tol: float = TOL_S) -> dict:
    """The evaluate report by the documented definition.

    ``matched`` is the maximum onset matching; true positives the maximum
    matching of onset-compatible, pitch-equal pairs.  The octave-invariant
    form tries every whole-octave shift of the estimate that stays on the
    piano, in the order 0, -1, 1, -2, 2, ..., and keeps the first best.
    """
    e_on = np.array([t for t, _ in est], dtype=np.float64)
    e_mid = np.array([m for _, m in est], dtype=np.int64)
    r_on = np.array([t for t, _ in ref], dtype=np.float64)
    r_mid = np.array([m for _, m in ref], dtype=np.int64)
    sigmas = [0]
    if octave_invariant and len(e_mid):
        lo = -((int(e_mid.min()) - MIDI_MIN) // 12)
        hi = (MIDI_MAX - int(e_mid.max())) // 12
        sigmas = sorted(range(lo, hi + 1), key=lambda s: (abs(s), s))
    best_tp, best_sigma = -1, 0
    for sigma in sigmas:
        tp = _match(e_on, r_on, tol, e_mid + 12 * sigma, r_mid)
        if tp > best_tp:
            best_tp, best_sigma = tp, sigma
    p, r, f1 = _prf(best_tp, len(e_on), len(r_on))
    return {"precision": p, "recall": r, "f1": f1, "best_sigma": best_sigma,
            "matched": _match(e_on, r_on, tol)}


def check_report(report: dict, est, ref, octave_invariant: bool) -> list[str]:
    expected = reference_report(est, ref, octave_invariant)
    for key in ("matched", "best_sigma"):
        if report[key] != expected[key]:
            return [f"{key} {report[key]}, independent matcher gives {expected[key]}"]
    for key in ("precision", "recall", "f1"):
        if abs(report[key] - expected[key]) > 1e-12:
            return [f"{key} {report[key]}, independent matcher gives {expected[key]}"]
    return []


def check_converted(converted: list[tuple[int, int, int]],
                    generated: list[tuple[int, int, int]]) -> list[str]:
    """Same notes on the same ticks, pitches moved by one whole-octave shift."""
    if [n[:2] for n in converted] != [n[:2] for n in generated]:
        return ["converted melody has other onsets or durations than the generated one"]
    shifts = {c[2] - g[2] for c, g in zip(converted, generated)}
    if len(shifts) > 1 or any(s % 12 for s in shifts):
        return [f"converted pitches differ from the generated ones by {sorted(shifts)}"]
    return []
