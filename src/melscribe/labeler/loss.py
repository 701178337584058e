"""Octave-tolerant cross-entropy over dense tick labels.

The loss is the minimum, over whole-octave shifts of the non-silent
target classes, of the mean cross-entropy across ticks.  Silence
(class 0) never shifts, and only shifts that keep every non-silent
class inside the vocabulary are considered.  The gradient flows
through the minimizing shift alone.
"""

from __future__ import annotations

import numpy as np

from ..core import octave_shift_range, octave_shifts
from ..errors import ShapeError
from .labels import LabelVocab, class_to_midi


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def feasible_shifts(classes: np.ndarray, vocab: LabelVocab) -> list[int]:
    """Octave shifts keeping all non-silent classes in range, nearest first."""
    if not vocab.octave_shiftable:
        return [0]
    return octave_shifts(class_to_midi(classes[classes > 0]))


def _loss_and_grad(
    logits: np.ndarray,
    classes: np.ndarray,
    vocab: LabelVocab,
    lengths: np.ndarray | None = None,
) -> tuple[float, int | np.ndarray, np.ndarray]:
    """Mean loss, shift and logit gradient of the consecutive sequences
    ``lengths`` splits the rows into (one when None), all shifts scored at
    once; each sequence's shift is the first of ``feasible_shifts`` order
    at its minimum, an int for one sequence and an array given ``lengths``."""
    if logits.ndim != 2 or logits.shape[1] != vocab.n_classes:
        raise ShapeError(
            f"logits shape {logits.shape} incompatible with {vocab.n_classes} classes"
        )
    if classes.shape != (logits.shape[0],):
        raise ShapeError(f"{classes.shape} labels against {logits.shape[0]} ticks")
    n = logits.shape[0]
    counts = np.array([n]) if lengths is None else np.asarray(lengths)
    if counts.sum() != n:
        raise ShapeError(f"sequence lengths sum to {counts.sum()}, not {n} ticks")
    starts = np.cumsum(counts) - counts
    logp = log_softmax(logits)
    rows = np.arange(n)

    # Each sequence's feasible shifts are the range [lo, hi], which holds 0.
    lo = hi = np.zeros(len(counts), dtype=np.int64)
    if vocab.octave_shiftable:
        top = np.maximum.reduceat(classes, starts)  # 0 for an all-silent sequence
        bottom = np.minimum.reduceat(np.where(classes > 0, classes, vocab.n_classes), starts)
        lo, hi = octave_shift_range(class_to_midi(bottom), class_to_midi(top))
        lo, hi = np.where(top > 0, lo, 0), np.where(top > 0, hi, 0)
    shifts = np.arange(lo.min(), hi.max() + 1)
    shifts = shifts[np.lexsort((shifts, np.abs(shifts)))]  # feasible_shifts order
    idx = np.where(classes > 0, classes + 12 * shifts[:, None], classes)
    picked = logp[rows, np.clip(idx, 0, vocab.n_classes - 1)]
    losses = -np.add.reduceat(picked, starts, axis=1, dtype=np.float64) / counts
    losses[(shifts[:, None] < lo) | (shifts[:, None] > hi)] = np.inf
    best = np.argmin(losses, axis=0)

    seq = np.repeat(np.arange(len(counts)), counts)
    dlogits = np.exp(logp)
    dlogits[rows, idx[best[seq], rows]] -= 1.0
    dlogits /= counts[seq, None].astype(dlogits.dtype)
    dlogits /= len(counts)
    loss = float(losses[best, np.arange(len(counts))].mean())
    sigma = shifts[best]
    return loss, int(sigma[0]) if lengths is None else sigma, dlogits
