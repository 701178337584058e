"""Note-wise onset F-measure, octave-invariant, with a brute-force oracle.

A transcription is scored on onsets and pitches only; offsets never
enter the metric.  Estimated and reference onsets form a bipartite
graph with an edge wherever |onset difference| <= tol_s.  The reported
``matched`` count is the maximum cardinality of that graph; true
positives are the maximum number of pairs that are both onset-matchable
and pitch-equal (itself a maximum matching, on the pitch-equal
subgraph), so the score never depends on which maximum matching a
solver happens to find.

precision = TP / |estimate|, recall = TP / |reference|; an empty side
scores 0, except that two empty melodies score P = R = F1 = 1.  The
octave-invariant variant maximizes TP over whole-octave shifts of the
estimate, reporting the best shift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import MIDI_MAX, MIDI_MIN, Melody, PerfNote, Pitch
from .errors import FormatError, InputError, OrderingError, RangeError
from .jsonio import read_json

DEFAULT_TOL_S = 0.05


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    best_sigma: int
    matched: int

    def to_json_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "best_sigma": self.best_sigma,
            "matched": self.matched,
        }


def _perf_arrays(melody: Melody) -> tuple[np.ndarray, np.ndarray]:
    if melody.is_score is True:
        raise InputError("evaluation expects melodies in performance (seconds) form")
    onsets = np.array([n.onset_s for n in melody], dtype=np.float64)
    midis = np.array([n.pitch.midi for n in melody], dtype=np.int64)
    return onsets, midis


def _onset_adjacency(
    est_onsets: np.ndarray, ref_onsets: np.ndarray, tol_s: float
) -> tuple[np.ndarray, np.ndarray]:
    lo = np.searchsorted(ref_onsets, est_onsets - tol_s, side="left")
    hi = np.searchsorted(ref_onsets, est_onsets + tol_s, side="right")
    indptr = np.zeros(len(est_onsets) + 1, dtype=np.int64)
    np.cumsum(hi - lo, out=indptr[1:])
    indices = np.concatenate(
        [np.arange(a, b, dtype=np.int64) for a, b in zip(lo, hi)]
    ) if len(est_onsets) else np.zeros(0, dtype=np.int64)
    return indptr, indices


def _equal_pitch_subgraph(
    indptr: np.ndarray,
    indices: np.ndarray,
    est_midis: np.ndarray,
    ref_midis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    n_est = len(indptr) - 1
    sub_indptr = np.zeros_like(indptr)
    if len(indices) == 0:
        return sub_indptr, indices
    owner = np.repeat(np.arange(n_est), np.diff(indptr))
    keep = est_midis[owner] == ref_midis[indices]
    sub_indices = indices[keep]
    counts = np.bincount(owner[keep], minlength=n_est)
    np.cumsum(counts, out=sub_indptr[1:])
    return sub_indptr, sub_indices


def _scores(tp: int, n_est: int, n_ref: int) -> tuple[float, float, float]:
    if n_est == 0 and n_ref == 0:
        return 1.0, 1.0, 1.0
    precision = tp / n_est if n_est else 0.0
    recall = tp / n_ref if n_ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def note_f1(estimate: Melody, reference: Melody, tol_s: float = DEFAULT_TOL_S) -> EvalReport:
    """Onset-matched note F1 at fixed octave (sigma = 0)."""
    if not (tol_s >= 0 and math.isfinite(tol_s)):
        raise InputError(f"tolerance {tol_s} must be finite and non-negative")
    e_on, e_mid = _perf_arrays(estimate)
    r_on, r_mid = _perf_arrays(reference)
    indptr, indices = _onset_adjacency(e_on, r_on, tol_s)
    matched = kernels.match_count(indptr, indices, len(e_on), len(r_on))
    eq_indptr, eq_indices = _equal_pitch_subgraph(indptr, indices, e_mid, r_mid)
    tp = kernels.match_count(eq_indptr, eq_indices, len(e_on), len(r_on))
    precision, recall, f1 = _scores(tp, len(e_on), len(r_on))
    return EvalReport(precision, recall, f1, 0, matched)


def _sigma_candidates(midis: np.ndarray) -> list[int]:
    """Feasible whole-octave shifts in a canonical order: 0, -1, 1, -2, ..."""
    if len(midis) == 0:
        return [0]
    lo = -((int(midis.min()) - MIDI_MIN) // 12)
    hi = (MIDI_MAX - int(midis.max())) // 12
    return sorted(range(lo, hi + 1), key=lambda s: (abs(s), s))


def octave_invariant_f1(
    estimate: Melody, reference: Melody, tol_s: float = DEFAULT_TOL_S
) -> EvalReport:
    """Note F1 maximized over whole-octave shifts of the estimate.

    Infeasible shifts (any pitch pushed off the piano) are skipped; ties
    prefer the smaller |sigma|, then the lower sigma.
    """
    if not (tol_s >= 0 and math.isfinite(tol_s)):
        raise InputError(f"tolerance {tol_s} must be finite and non-negative")
    e_on, e_mid = _perf_arrays(estimate)
    r_on, r_mid = _perf_arrays(reference)
    indptr, indices = _onset_adjacency(e_on, r_on, tol_s)
    matched = kernels.match_count(indptr, indices, len(e_on), len(r_on))
    best_tp = -1
    best_sigma = 0
    for sigma in _sigma_candidates(e_mid):
        eq_indptr, eq_indices = _equal_pitch_subgraph(
            indptr, indices, e_mid + 12 * sigma, r_mid
        )
        tp = kernels.match_count(eq_indptr, eq_indices, len(e_on), len(r_on))
        if tp > best_tp:
            best_tp = tp
            best_sigma = sigma
    precision, recall, f1 = _scores(best_tp, len(e_on), len(r_on))
    return EvalReport(precision, recall, f1, best_sigma, matched)


def oracle_note_f1(
    estimate: Melody, reference: Melody, tol_s: float = DEFAULT_TOL_S
) -> EvalReport:
    """Exhaustive-enumeration oracle for note_f1 (sigma = 0), n <= 8 a side.

    Recurses over every injective onset-matching, tracking the maximum
    cardinality and the maximum pitch-equal pair count independently.
    Kept deliberately free of matching theory so it can check the
    augmenting-path implementation.
    """
    e_on, e_mid = _perf_arrays(estimate)
    r_on, r_mid = _perf_arrays(reference)
    if len(e_on) > 8 or len(r_on) > 8:
        raise InputError("oracle is limited to 8 notes per side")
    compatible = [
        [j for j in range(len(r_on)) if abs(e_on[i] - r_on[j]) <= tol_s]
        for i in range(len(e_on))
    ]
    best = {"matched": 0, "tp": 0}

    def explore(i: int, used: int, card: int, tp: int) -> None:
        if card > best["matched"]:
            best["matched"] = card
        if tp > best["tp"]:
            best["tp"] = tp
        if i == len(e_on):
            return
        explore(i + 1, used, card, tp)
        for j in compatible[i]:
            if not used & (1 << j):
                explore(
                    i + 1,
                    used | (1 << j),
                    card + 1,
                    tp + (1 if e_mid[i] == r_mid[j] else 0),
                )

    explore(0, 0, 0, 0)
    precision, recall, f1 = _scores(best["tp"], len(e_on), len(r_on))
    return EvalReport(precision, recall, f1, 0, best["matched"])


def save_transcript(path, melody: Melody) -> None:
    """Write a performance melody as the JSON interchange list."""
    if melody.is_score is True:
        raise InputError("transcripts are in performance (seconds) form")
    entries = [
        {"onset_s": n.onset_s, "offset_s": n.offset_s, "midi": n.pitch.midi}
        for n in melody
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")


def load_transcript(path) -> Melody:
    """Read the JSON interchange list back into a performance melody."""
    entries = read_json(path)
    if not isinstance(entries, list):
        raise FormatError(f"{path}: transcript must be a JSON list")
    notes = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"onset_s", "offset_s", "midi"}:
            raise FormatError(
                f"{path}: entry {i} must have exactly onset_s, offset_s, midi"
            )
        try:
            notes.append(
                PerfNote(float(entry["onset_s"]), float(entry["offset_s"]), Pitch(entry["midi"]))
            )
        except (TypeError, ValueError, RangeError, OrderingError) as exc:
            raise FormatError(f"{path}: entry {i}: {exc}") from exc
    notes.sort(key=lambda n: n.onset_s)
    try:
        return Melody(tuple(notes))
    except OrderingError as exc:
        raise FormatError(f"{path}: {exc}") from exc
