"""The two inner loops of batch workloads, in numpy and plain Python.

- segment-mean pooling of feature frames into sixteenth-note cells
- maximum-cardinality bipartite matching of note onsets

Pooling accumulates in float64.
"""

from __future__ import annotations

import numpy as np


def pool_segments(frames: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 mean of ``frames[starts[t]:starts[t+1]]`` per cell, plus counts.

    Empty cells stay zero.  Frames before ``starts[0]`` and from
    ``starts[-1]`` on belong to no cell.
    """
    # One slice per cell: np.add.reduceat would run the last cell on to the
    # end of the array, and index past it if that cell is empty and starts
    # at len(frames).
    n_cells = len(starts) - 1
    counts = np.diff(starts).astype(np.int64)
    out = np.zeros((n_cells, frames.shape[1]), dtype=np.float64)
    for t in np.flatnonzero(counts > 0):
        out[t] = frames[starts[t] : starts[t + 1]].mean(axis=0, dtype=np.float64)
    return out, counts


def match_count(indptr: np.ndarray, indices: np.ndarray, n_left: int, n_right: int) -> int:
    """Size of a maximum matching of a bipartite graph in CSR form.

    Left vertex ``u`` is adjacent to ``indices[indptr[u]:indptr[u+1]]``.
    Kuhn's algorithm with a breadth-first search for each augmenting path.
    """
    if n_left == 0 or n_right == 0 or len(indices) == 0:
        return 0
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    parent = [-1] * n_right
    stamp = [-1] * n_right
    size = 0
    for u0 in range(n_left):
        if indptr[u0] == indptr[u0 + 1]:
            continue
        queue = [u0]
        head = 0
        found = -1
        while head < len(queue) and found < 0:
            u = queue[head]
            head += 1
            for ei in range(indptr[u], indptr[u + 1]):
                r = int(indices[ei])
                if stamp[r] != u0:
                    stamp[r] = u0
                    parent[r] = u
                    if match_r[r] < 0:
                        found = r
                        break
                    queue.append(match_r[r])
        if found >= 0:
            r = found
            while r >= 0:
                u = parent[r]
                nxt = match_l[u]
                match_l[u] = r
                match_r[r] = u
                r = nxt
            size += 1
    return size
