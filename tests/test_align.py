import json
from fractions import Fraction

import numpy as np
import pytest

from melscribe.align import (
    AlignmentMap,
    BeatGrid,
    align,
    constant_tempo_grid,
    refine_alignment,
)
from melscribe.errors import (
    FormatError,
    InputError,
    OrderingError,
    RangeError,
)


def grid(times, downbeats):
    flags = np.zeros(len(times), dtype=bool)
    flags[list(downbeats)] = True
    return BeatGrid(np.asarray(times, dtype=float), flags)


def test_beat_grid_validation():
    grid([0.0, 0.5, 1.0], [0])
    with pytest.raises(InputError):
        BeatGrid(np.array([]), np.array([], dtype=bool))
    with pytest.raises(OrderingError):
        grid([0.0, 0.5, 0.5], [0])
    with pytest.raises(InputError):
        grid([0.0, 0.5], [])
    with pytest.raises(InputError):
        BeatGrid(np.array([0.0, 1.0]), np.array([True]))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match="beat times must be finite"):
            grid([0.0, bad], [0])


def test_beat_grid_load(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"beats_s": [0.0, 0.5, 1, 1.5], "downbeats": [0, 2]}))
    g = BeatGrid.load(path)
    assert g.beat_times_s.tolist() == [0.0, 0.5, 1.0, 1.5]
    assert g.downbeat_flags.tolist() == [True, False, True, False]
    for bad in ({"beats_s": [0.0]},
                {"beats_s": [0.0, 1.0], "downbeats": [2]},
                {"beats_s": [0.0, 1.0], "downbeats": [0.5]},
                {"beats_s": [0.0, 1.0], "downbeats": 0},
                {"beats_s": ["a", 1.0], "downbeats": [0]},
                {"beats_s": [0.0, 10**400], "downbeats": [0]},
                {"beats_s": 0.0, "downbeats": [0]},
                {"beats_s": [], "downbeats": []},
                {"beats_s": [0.0, 1.0], "downbeats": []}):
        path.write_text(json.dumps(bad))
        with pytest.raises(FormatError, match="grid.json: "):
            BeatGrid.load(path)


def test_alignment_map_validation():
    amap = AlignmentMap([1.0, 1.5, 2.0])
    assert amap.num_beats == 2
    with pytest.raises(InputError):
        AlignmentMap([1.0])
    with pytest.raises(OrderingError):
        AlignmentMap([1.0, 1.0])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match="alignment times must be finite"):
            AlignmentMap([0.0, bad])


def test_alignment_map_file_round_trip(tmp_path):
    amap = AlignmentMap([0.25, 0.75, 1.3, 1.9])
    path = tmp_path / "a.alignment.json"
    amap.save(path)
    loaded = AlignmentMap.load(path)
    assert np.array_equal(loaded.beat_to_time_s, amap.beat_to_time_s)
    path.write_text("{not json")
    with pytest.raises(FormatError):
        AlignmentMap.load(path)
    for bad in ({"beats": [0, 1]}, {"beat_to_time_s": ["a", 1]},
                {"beat_to_time_s": {"a": 1}}, {"beat_to_time_s": [0, -(10**400)]}):
        path.write_text(json.dumps(bad))
        with pytest.raises(FormatError):
            AlignmentMap.load(path)
    # an integer longer than Python parses is refused while reading the JSON
    path.write_text('{"beat_to_time_s": [0, 1%s]}' % ("0" * 5000))
    with pytest.raises(FormatError):
        AlignmentMap.load(path)


def test_refine_alignment_picks_nearest_downbeat():
    g = grid([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5], [0, 4])
    amap = refine_alignment(g, user_start_s=1.8, num_beats=3)
    assert np.allclose(amap.beat_to_time_s, [2.0, 2.5, 3.0, 3.5])
    amap = refine_alignment(g, user_start_s=0.3, num_beats=2)
    assert np.allclose(amap.beat_to_time_s, [0.0, 0.5, 1.0])


def test_refine_alignment_tie_prefers_earlier_downbeat():
    g = grid([0.0, 1.0, 2.0, 3.0], [0, 2])
    amap = refine_alignment(g, user_start_s=1.0, num_beats=2)
    assert amap.beat_to_time_s[0] == 0.0


def test_refine_alignment_tail_extrapolates():
    g = grid([1.0, 1.4, 1.9, 2.5], [0])
    amap = refine_alignment(g, 0.0, 4)
    # final entry extends by the last detected interval (2.5 - 1.9)
    assert amap.beat_to_time_s[-1] == pytest.approx(3.1)
    assert amap.num_beats == 4


def test_refine_alignment_insufficient_beats():
    g = grid([0.0, 0.5, 1.0], [0])
    with pytest.raises(InputError, match="need 4 beats after the downbeat at 0.000s, grid has 2"):
        refine_alignment(g, 0.0, 5)
    with pytest.raises(InputError):
        refine_alignment(g, 0.0, 0)


def test_refine_alignment_refuses_a_non_finite_start():
    g = grid([0.0, 0.5, 1.0, 1.5], [0, 2])
    for start in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match="must be finite"):
            refine_alignment(g, start, 2)


def test_refine_alignment_single_beat():
    g = grid([2.0, 2.5], [0])
    amap = refine_alignment(g, 2.0, 1)
    assert np.allclose(amap.beat_to_time_s, [2.0, 2.5])
    lone = grid([2.0], [0])
    with pytest.raises(InputError, match="one-beat segment needs one detected beat"):
        refine_alignment(lone, 2.0, 1)


def test_align_interpolates():
    amap = AlignmentMap([1.0, 1.5, 2.5])
    assert align(amap, 0) == 1.0
    assert align(amap, 1) == 1.5
    assert align(amap, 2) == 2.5
    assert align(amap, 0.5) == pytest.approx(1.25)
    assert align(amap, 1.25) == pytest.approx(1.75)
    assert align(amap, Fraction(3, 2)) == pytest.approx(2.0)
    for bad in (-0.1, 2.1, float("nan")):
        with pytest.raises(RangeError):
            align(amap, bad)
        with pytest.raises(RangeError, match=str(bad)):
            align(amap, np.array([0.5, bad, 1.0]))


def align_reference(times, b):
    """The scalar per-position formula, bit for bit what align must return."""
    i = int(b)
    if i == len(times) - 1:
        return float(times[i])
    return float(times[i] + (b - i) * (times[i + 1] - times[i]))


def test_align_monotone_over_random_grids():
    rng = np.random.default_rng(11)
    for _ in range(50):
        times = np.cumsum(rng.uniform(0.2, 0.8, size=int(rng.integers(2, 12))))
        amap = AlignmentMap(times)
        positions = np.sort(rng.uniform(0, amap.num_beats, size=20))
        mapped = [align(amap, b) for b in positions]
        ticks = np.arange(4 * amap.num_beats + 1) / 4
        for probe in (positions, ticks):
            want = [align_reference(times, float(b)) for b in probe]
            assert align(amap, probe).tolist() == want
            assert [align(amap, b) for b in probe] == want
        assert all(a <= b for a, b in zip(mapped, mapped[1:]))
        assert all(times[0] <= t <= times[-1] for t in mapped)


def test_constant_tempo_grid():
    g = constant_tempo_grid(120.0, 1.0, 9)
    assert np.allclose(g.beat_times_s, 1.0 + 0.5 * np.arange(9))
    assert np.array_equal(np.flatnonzero(g.downbeat_flags), [0, 4, 8])
    with pytest.raises(InputError):
        constant_tempo_grid(0.0, 0.0, 4)
    with pytest.raises(InputError):
        constant_tempo_grid(120.0, 0.0, 0)
