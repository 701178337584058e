"""Octave-tolerant cross-entropy over dense tick labels.

The loss is the minimum, over whole-octave shifts of the non-silent
target classes, of the mean cross-entropy across ticks.  Silence
(class 0) never shifts, and only shifts that keep every non-silent
class inside the vocabulary are considered.  The gradient flows
through the minimizing shift alone.
"""

from __future__ import annotations

import numpy as np

from ..core import octave_shifts
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
    logits: np.ndarray, classes: np.ndarray, vocab: LabelVocab
) -> tuple[float, int, np.ndarray]:
    if logits.ndim != 2 or logits.shape[1] != vocab.n_classes:
        raise ShapeError(
            f"logits shape {logits.shape} incompatible with {vocab.n_classes} classes"
        )
    if classes.shape != (logits.shape[0],):
        raise ShapeError(f"{classes.shape} labels against {logits.shape[0]} ticks")
    n = logits.shape[0]
    logp = log_softmax(logits)
    rows = np.arange(n)
    nonzero = classes > 0

    best_loss = np.inf
    best_sigma = 0
    best_idx = None
    for sigma in feasible_shifts(classes, vocab):
        idx = np.where(nonzero, classes + 12 * sigma, classes)
        loss = float(-logp[rows, idx].mean())
        if loss < best_loss:
            best_loss = loss
            best_sigma = sigma
            best_idx = idx

    probs = np.exp(logp)
    dlogits = probs
    dlogits[rows, best_idx] -= 1.0
    dlogits /= n
    return best_loss, best_sigma, dlogits
