"""The two inner loops of batch workloads, in numpy and plain Python.

- segment-mean pooling of feature frames into sixteenth-note cells
- maximum-cardinality matching of note onsets within a tolerance window

Pooling accumulates in float64.
"""

from __future__ import annotations

import numpy as np


def pool_segments(frames: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 mean of ``frames[starts[t]:starts[t+1]]`` per cell, plus counts.

    Empty cells stay zero.  Frames before ``starts[0]`` and from
    ``starts[-1]`` on belong to no cell.
    """
    # Cells hold few distinct frame counts, so the cells of each count k
    # are pooled at once: their first rows in float64, plus rows 1..k-1 in
    # order, over k.  That is the order of operations of each cell's
    # ``.mean(axis=0, dtype=np.float64)``, so the means are the same.
    counts = np.diff(starts).astype(np.int64)
    out = np.zeros((len(counts), frames.shape[1]), dtype=np.float64)
    for k in np.unique(counts[counts > 0]):
        cells = np.flatnonzero(counts == k)
        rows = starts[cells]
        total = frames[rows].astype(np.float64)
        for i in range(1, k):
            total += frames[rows + i]
        total /= k
        out[cells] = total
    return out, counts


def match_count(indptr: np.ndarray, indices: np.ndarray, n_left: int, n_right: int) -> int:
    """Size of a maximum matching of an onset-window graph in CSR form.

    Left vertex ``u`` is adjacent to ``indices[indptr[u]:indptr[u+1]]``.
    Precondition: the rows are sorted windows that move forward
    monotonically, per pitch: the graph ``evaluate._onset_adjacency``
    builds from sorted onsets, or one of its equal-pitch subgraphs, a
    disjoint union of such graphs.  These graphs are convex (Glover
    1967), so letting each left vertex in turn take the first unused
    right vertex of its row is already a maximum matching.  On an
    arbitrary graph the same pass is only maximal.
    """
    used = bytearray(n_right)
    refs = indices.tolist()
    rows = np.flatnonzero(np.diff(indptr[: n_left + 1]))
    size = 0
    for e, end in zip(indptr[rows].tolist(), indptr[rows + 1].tolist()):
        while e < end:
            r = refs[e]
            if not used[r]:
                used[r] = 1
                size += 1
                break
            e += 1
    return size
