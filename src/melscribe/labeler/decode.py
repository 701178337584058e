"""Turn per-tick logits into notes or chord changes.

A tick carries an onset when the silence-class probability falls below
the threshold; the emitted class is the argmax over the non-silent
classes.  Note offsets are legato: each note ends where the next
begins, and the final note rings to the end of the aligned segment.
"""

from __future__ import annotations

import numpy as np

from ..align import AlignmentMap, align
from ..core import TICKS_PER_BEAT, ChordSymbol, Melody, perf_melody
from ..errors import RangeError, ShapeError
from .labels import CHORD_VOCAB, MELODY_VOCAB, class_to_chord, class_to_midi
from .loss import log_softmax


def class_probabilities(logits: np.ndarray) -> np.ndarray:
    """Softmax over classes, float64, one row per tick."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"expected (ticks, classes) logits, got shape {z.shape}")
    return np.exp(log_softmax(z))


def check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise RangeError(f"onset threshold must lie in (0, 1), got {tau}")
    return tau


def onset_classes(logits: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Ticks whose silence probability is below tau, with argmax classes."""
    [(ticks, classes)] = onset_sweep(logits, [tau])
    return ticks, classes


def onset_sweep(logits: np.ndarray, thresholds) -> list[tuple[np.ndarray, np.ndarray]]:
    """``onset_classes`` at each threshold, from one softmax."""
    taus = [check_tau(tau) for tau in thresholds]
    probs = class_probabilities(logits)
    if probs.shape[1] < 2:
        raise ShapeError("need at least one non-silent class")
    classes = 1 + np.argmax(probs[:, 1:], axis=1).astype(np.int64)
    onsets = [np.flatnonzero(probs[:, 0] < tau) for tau in taus]
    return [(ticks, classes[ticks]) for ticks in onsets]


def decode(logits: np.ndarray, tau: float, amap: AlignmentMap) -> Melody:
    """Performance-form melody from melody-vocabulary logits."""
    if len(logits) != TICKS_PER_BEAT * amap.num_beats:
        raise ShapeError(
            f"{len(logits)} ticks of logits for a {amap.num_beats}-beat alignment"
        )
    if logits.shape[1] != MELODY_VOCAB.n_classes:
        raise ShapeError(f"melody decode needs {MELODY_VOCAB.n_classes} classes")
    return onset_melody(amap, *onset_classes(logits, tau))


def onset_melody(amap: AlignmentMap, ticks: np.ndarray, classes: np.ndarray) -> Melody:
    """Legato notes for melody classes at onset ticks, in increasing order."""
    times = align(amap, np.asarray(ticks) / TICKS_PER_BEAT)
    ends = np.append(times, align(amap, amap.num_beats))[1:]
    return perf_melody(times, ends, class_to_midi(classes))


def decode_chords(logits: np.ndarray, tau: float) -> list[tuple[int, ChordSymbol]]:
    """Chord changes as (tick, symbol) pairs from chord-vocabulary logits."""
    if logits.ndim != 2 or logits.shape[1] != CHORD_VOCAB.n_classes:
        raise ShapeError(f"chord decode needs {CHORD_VOCAB.n_classes} classes")
    ticks, classes = onset_classes(logits, tau)
    return [(int(t), class_to_chord(int(c))) for t, c in zip(ticks, classes)]
