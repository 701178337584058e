"""Kernel checks against scipy and a per-cell reference."""

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from melscribe import kernels
from melscribe.evaluate import _equal_pitch_subgraph, _onset_adjacency


def scipy_match_count(indptr, indices, n_left, n_right):
    graph = scipy.sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr),
        shape=(n_left, n_right),
    )
    matching = maximum_bipartite_matching(graph, perm_type="column")
    return int((matching >= 0).sum())


def random_notes(rng, n, grid):
    """Strictly increasing onsets and pitches, as a performance melody has.

    Onsets either sit on a 25 ms grid (so many onset gaps equal a tolerance,
    up to rounding) or fall anywhere in a span dense enough for windows to
    overlap.
    Pitches come from a few octave-related values, so equal-pitch
    subgraphs are neither empty nor the whole graph.
    """
    if grid:
        onsets = 0.025 * np.sort(rng.choice(3 * n + 1, size=n, replace=False))
    else:
        onsets = np.unique(rng.uniform(0.0, 0.04 * n + 0.01, size=n))
    midis = rng.choice([48, 55, 60, 60, 67, 72], size=len(onsets))
    return onsets, midis


def test_match_count_against_scipy():
    """On the graphs note F1 builds, the greedy pass finds a maximum matching."""
    rng = np.random.default_rng(0)
    for trial in range(3000):
        tol = (0.0, 0.025, 0.05)[trial % 3]
        grid = trial % 2 == 0
        e_on, e_mid = random_notes(rng, int(rng.integers(0, 25)), grid)
        r_on, r_mid = random_notes(rng, int(rng.integers(0, 25)), grid)
        indptr, indices = _onset_adjacency(e_on, r_on, tol)
        graphs = [(indptr, indices)] + [
            _equal_pitch_subgraph(indptr, indices, e_mid + 12 * sigma, r_mid)
            for sigma in (-1, 0, 1)
        ]
        for sub_indptr, sub_indices in graphs:
            got = kernels.match_count(sub_indptr, sub_indices, len(e_on), len(r_on))
            want = scipy_match_count(sub_indptr, sub_indices, len(e_on), len(r_on))
            assert got == want, (trial, tol, e_on.tolist(), r_on.tolist())


def test_match_count_edge_cases():
    empty = np.zeros(0, dtype=np.int64)
    assert kernels.match_count(np.zeros(1, dtype=np.int64), empty, 0, 5) == 0
    assert kernels.match_count(np.zeros(4, dtype=np.int64), empty, 3, 0) == 0
    # complete bipartite graph saturates the smaller side
    indptr = np.array([0, 3, 6], dtype=np.int64)
    indices = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    assert kernels.match_count(indptr, indices, 2, 3) == 2


def pooled_reference(frames, starts):
    """Cell t is the float64 mean of frames[starts[t]:starts[t+1]]; empty is zero."""
    out = np.zeros((len(starts) - 1, frames.shape[1]))
    for t, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
        if b > a:
            out[t] = frames[a:b].astype(np.float64).mean(axis=0)
    return out


def test_pool_segments_means():
    rng = np.random.default_rng(2)
    frames = rng.normal(size=(50, 4))
    starts = np.array([0, 10, 10, 25, 50], dtype=np.int64)
    out, counts = kernels.pool_segments(frames, starts)
    assert counts.tolist() == [10, 0, 15, 25]
    assert np.allclose(out[0], frames[:10].mean(axis=0))
    assert np.all(out[1] == 0.0)  # empty cell stays zero
    assert np.allclose(out[2], frames[10:25].mean(axis=0))
    assert np.allclose(out[3], frames[25:].mean(axis=0))

    # cells need not cover the whole array: frames before starts[0] and from
    # starts[-1] on belong to no cell, and empty cells may sit at len(frames)
    for starts in (
        [5, 10, 10, 25, 50],  # leading frames dropped
        [0, 10, 25, 40],  # trailing frames dropped
        [7, 20, 33],  # both ends dropped
        [0, 25, 50, 50, 50],  # empty cells at len(frames)
        [30, 49, 50, 50],  # last frame alone, then an empty cell at the end
    ):
        starts = np.array(starts, dtype=np.int64)
        out, counts = kernels.pool_segments(frames, starts)
        assert counts.tolist() == np.diff(starts).tolist()
        assert np.allclose(out, pooled_reference(frames, starts)), starts.tolist()


def test_pool_segments_backends_agree():
    """The vectorised pooling agrees with the per-cell float64 reference."""
    # float32 frames accumulate in float64: only summation-order round-off
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(400, 16)).astype(np.float32)
    cuts = np.sort(rng.choice(400, size=30, replace=False))
    for starts in (
        np.concatenate([[0], cuts, [400]]),
        cuts,  # frames outside [cuts[0], cuts[-1]) belong to no cell
        np.concatenate([cuts, [400, 400]]),  # empty last cell at len(frames)
    ):
        starts = starts.astype(np.int64)
        out, counts = kernels.pool_segments(frames, starts)
        assert np.array_equal(counts, np.diff(starts))
        assert np.max(np.abs(out - pooled_reference(frames, starts))) < 1e-12


def test_pool_segments_equals_each_cells_mean_bit_for_bit():
    """Cells grouped by frame count sum in the order of each cell's own mean."""
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(3000, 229)).astype(np.float32)
    for frames_per_cell in (1.0, 2.6, 4.4, 7.8, 31.3):
        starts = np.round(np.arange(5, 2990, frames_per_cell)).astype(np.int64)
        starts = np.sort(np.concatenate([starts, [2990, 3000, 3000]]))
        out, counts = kernels.pool_segments(frames, starts)
        want = np.zeros_like(out)
        for t, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
            if b > a:
                want[t] = frames[a:b].mean(axis=0, dtype=np.float64)
        assert np.array_equal(counts, np.diff(starts))
        assert np.array_equal(out, want), frames_per_cell
