"""Note-wise onset F-measure, octave-invariant.

A transcription is scored on onsets and pitches only; offsets never
enter the metric.  Estimated and reference onsets form a bipartite
graph with an edge wherever |onset difference| <= tol_s.  The reported
``matched`` count is the maximum cardinality of that graph; true
positives are the maximum number of pairs that are both onset-matchable
and pitch-equal (itself a maximum matching, on the pitch-equal
subgraph), so the score never depends on which maximum matching a
solver happens to find.  Both onset lists are sorted, so every
estimate's tolerance window over the references moves forward
monotonically, and ``kernels.match_count`` finds a maximum matching by
letting each estimate take the first unused reference in its window.

precision = TP / |estimate|, recall = TP / |reference|; an empty side
scores 0, except that two empty melodies score P = R = F1 = 1.  The
octave-invariant variant maximizes TP over whole-octave shifts of the
estimate, reporting the best shift.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .core import Melody, octave_shifts, perf_melody
from .errors import InputError, ParseError
from .jsonio import at, check_keys, column, reading, write_json

DEFAULT_TOL_S = 0.05


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    best_sigma: int
    matched: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _perf_arrays(melody: Melody) -> tuple[np.ndarray, np.ndarray]:
    if melody.is_score is True:
        raise InputError("evaluation expects melodies in performance (seconds) form")
    return melody.onsets, melody.midis


def _onset_adjacency(
    est_onsets: np.ndarray, ref_onsets: np.ndarray, tol_s: float
) -> tuple[np.ndarray, np.ndarray]:
    lo = np.searchsorted(ref_onsets, est_onsets - tol_s, side="left")
    hi = np.searchsorted(ref_onsets, est_onsets + tol_s, side="right")
    counts = hi - lo
    indptr = np.zeros(len(est_onsets) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # row u holds lo[u], lo[u] + 1, ..., hi[u] - 1
    indices = np.arange(indptr[-1], dtype=np.int64) + np.repeat(lo - indptr[:-1], counts)
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


def _best_shift_f1(
    estimate: Melody, reference: Melody, tol_s: float, octave_free: bool
) -> EvalReport:
    """Note F1 at the best of the feasible octave shifts, or at sigma = 0."""
    if not (tol_s >= 0 and math.isfinite(tol_s)):
        raise InputError(f"tolerance {tol_s} must be finite and non-negative")
    e_on, e_mid = _perf_arrays(estimate)
    r_on, r_mid = _perf_arrays(reference)
    indptr, indices = _onset_adjacency(e_on, r_on, tol_s)
    matched = kernels.match_count(indptr, indices, len(e_on), len(r_on))
    best_tp = -1
    best_sigma = 0
    for sigma in octave_shifts(e_mid) if octave_free else [0]:
        eq_indptr, eq_indices = _equal_pitch_subgraph(
            indptr, indices, e_mid + 12 * sigma, r_mid
        )
        tp = kernels.match_count(eq_indptr, eq_indices, len(e_on), len(r_on))
        if tp > best_tp:
            best_tp = tp
            best_sigma = sigma
    precision, recall, f1 = _scores(best_tp, len(e_on), len(r_on))
    return EvalReport(precision, recall, f1, best_sigma, matched)


def note_f1(estimate: Melody, reference: Melody, tol_s: float = DEFAULT_TOL_S) -> EvalReport:
    """Onset-matched note F1 at fixed octave (sigma = 0)."""
    return _best_shift_f1(estimate, reference, tol_s, octave_free=False)


def octave_invariant_f1(
    estimate: Melody, reference: Melody, tol_s: float = DEFAULT_TOL_S
) -> EvalReport:
    """Note F1 maximized over whole-octave shifts of the estimate.

    Infeasible shifts (any pitch pushed off the piano) are skipped; ties
    prefer the smaller |sigma|, then the lower sigma.
    """
    return _best_shift_f1(estimate, reference, tol_s, octave_free=True)


#: Kind of each transcript field: JSON numbers for times, a JSON integer for pitch.
_ENTRY_FIELDS = {"onset_s": float, "offset_s": float, "midi": int}


def save_transcript(path, melody: Melody) -> None:
    """Write a performance melody as the JSON interchange list."""
    if melody.is_score is True:
        raise InputError("transcripts are in performance (seconds) form")
    notes = zip(melody.onsets.tolist(), melody.ends.tolist(), melody.midis.tolist())
    entries = [dict(zip(_ENTRY_FIELDS, note)) for note in notes]
    write_json(path, entries, sort_keys=False)


def load_transcript(path) -> Melody:
    """Read the JSON interchange list back into a performance melody.

    Each entry must be an object of exactly onset_s, offset_s (JSON
    numbers) and midi (a JSON integer).  Values are checked as arrays,
    by ``jsonio.column`` and ``core.perf_melody``; errors name the file
    and the first bad entry.
    """
    with reading(path) as entries:
        if not isinstance(entries, list):
            raise ParseError("transcript must be a JSON list", "$")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or entry.keys() != _ENTRY_FIELDS.keys():
                check_keys(entry, _ENTRY_FIELDS, f"$[{i}]")
        with at("$"):
            return perf_melody(*(
                column([entry[key] for entry in entries], kind, f"$[*].{key}")
                for key, kind in _ENTRY_FIELDS.items()
            ))
