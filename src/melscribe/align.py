"""Beat-grid refinement and the piecewise-linear beat<->time mapping.

A detected beat grid (times plus downbeat flags, typically from an
external beat tracker) is refined against a segment's rough start time
into an alignment map: times for beats 0..B, with entry B extrapolated
so the final beat has a duration.  Fractional beat positions interpolate
linearly between entries (``align``); ``beat_position`` inverts that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import all_finite
from .errors import InputError, OrderingError, ParseError, RangeError
from .jsonio import at, column, fields, reading, write_json

#: Kind of each key of the beat grid file and of the alignment map file.
_GRID_FIELDS = {"beats_s": list, "downbeats": list}
_MAP_FIELDS = {"beat_to_time_s": list}


@dataclass(frozen=True, eq=False)
class BeatGrid:
    """Detected beat times (seconds) with downbeat flags."""

    beat_times_s: np.ndarray
    downbeat_flags: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.beat_times_s, dtype=np.float64)
        flags = np.asarray(self.downbeat_flags, dtype=bool)
        object.__setattr__(self, "beat_times_s", times)
        object.__setattr__(self, "downbeat_flags", flags)
        if times.ndim != 1 or flags.shape != times.shape:
            raise InputError("beat times and downbeat flags must be 1-D and equal length")
        if len(times) == 0:
            raise InputError("beat grid is empty")
        if not all_finite(times):
            raise InputError("beat times must be finite")
        if np.any(np.diff(times) <= 0):
            raise OrderingError("beat times must be strictly increasing")
        if not flags.any():
            raise InputError("beat grid has no downbeats")

    @classmethod
    def load(cls, path) -> "BeatGrid":
        """Read a ``{"beats_s": [...], "downbeats": [...]}`` grid file."""
        with reading(path) as obj:
            times, downbeats = fields(obj, _GRID_FIELDS, "$")
            times = column(times, float, "$.beats_s")
            downbeats = column(downbeats, int, "$.downbeats")
            outside = np.flatnonzero((downbeats < 0) | (downbeats >= len(times)))
            if len(outside):
                i = outside[0]
                raise ParseError(
                    f"entry {i} ({downbeats[i]}) is outside the beat list", "$.downbeats"
                )
            flags = np.zeros(len(times), dtype=bool)
            flags[downbeats] = True
            with at("$"):
                return cls(times, flags)


@dataclass(frozen=True, eq=False)
class AlignmentMap:
    """Times (seconds) for whole beats 0..B of a segment."""

    beat_to_time_s: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.beat_to_time_s, dtype=np.float64)
        object.__setattr__(self, "beat_to_time_s", times)
        if times.ndim != 1 or len(times) < 2:
            raise InputError("alignment map needs entries for at least beats 0 and 1")
        if not all_finite(times):
            raise InputError("alignment times must be finite")
        if np.any(np.diff(times) <= 0):
            raise OrderingError("alignment times must be strictly increasing")

    @property
    def num_beats(self) -> int:
        return len(self.beat_to_time_s) - 1

    def save(self, path) -> None:
        write_json(path, dict(zip(_MAP_FIELDS, [self.beat_to_time_s.tolist()])))

    @classmethod
    def load(cls, path) -> "AlignmentMap":
        with reading(path) as obj:
            (times,) = fields(obj, _MAP_FIELDS, "$")
            times = column(times, float, "$.beat_to_time_s")
            with at("$.beat_to_time_s"):
                return cls(times)


def refine_alignment(grid: BeatGrid, user_start_s: float, num_beats: int) -> AlignmentMap:
    """Anchor a segment of ``num_beats`` beats onto a detected grid.

    Beat 0 is the detected downbeat nearest ``user_start_s`` (ties break
    toward the earlier downbeat); beats 1..B-1 are the following
    detected beats; entry B extends the map by the last inter-beat
    interval so the final beat has a duration.
    """
    if num_beats < 1:
        raise InputError(f"num_beats {num_beats} below 1")
    if not math.isfinite(user_start_s):
        raise InputError(f"start time {user_start_s} must be finite")
    times = grid.beat_times_s
    down_idx = np.flatnonzero(grid.downbeat_flags)
    dist = np.abs(times[down_idx] - float(user_start_s))
    start = int(down_idx[int(np.argmin(dist))])

    remaining = len(times) - start - 1
    if remaining < num_beats - 1:
        raise InputError(
            f"need {num_beats - 1} beats after the downbeat at "
            f"{times[start]:.3f}s, grid has {remaining}"
        )
    mapped = times[start : start + num_beats].astype(np.float64).copy()
    if num_beats >= 2:
        tail = mapped[-1] + (mapped[-1] - mapped[-2])
    elif remaining >= 1:
        tail = times[start + 1]
    else:
        raise InputError(
            "a one-beat segment needs one detected beat after its downbeat "
            "to bound the beat's duration"
        )
    return AlignmentMap(np.concatenate([mapped, [tail]]))


def align(
    amap: AlignmentMap, beats: float | Fraction | np.ndarray
) -> float | np.ndarray:
    """Time of (possibly fractional) beat positions in [0, B].

    A scalar position (float, int or Fraction) gives a float; an array of
    positions gives an array of times of the same shape.
    """
    b = np.asarray(beats, dtype=np.float64)
    bad = ~((b >= 0) & (b <= amap.num_beats))  # NaN compares False
    if bad.any():
        first = beats if b.ndim == 0 else b[bad][0]
        raise RangeError(f"beat position {first} outside [0, {amap.num_beats}]")
    times = np.interp(b, np.arange(amap.num_beats + 1), amap.beat_to_time_s)
    return float(times) if b.ndim == 0 else times


def beat_position(amap: AlignmentMap, t: float | np.ndarray) -> float | np.ndarray:
    """Fractional beat position of a time, or of each of an array of times,
    inside the aligned span; inverts align."""
    times = amap.beat_to_time_s
    ts = np.asarray(t, dtype=np.float64)
    bad = ~((ts >= times[0]) & (ts <= times[-1]))  # NaN compares False
    if bad.any():
        first = t if ts.ndim == 0 else ts[bad][0]
        raise RangeError(
            f"time {first} outside the aligned span {times[0]}..{times[-1]}"
        )
    i = np.minimum(np.searchsorted(times, ts, side="right") - 1, amap.num_beats - 1)
    beats = i + (ts - times[i]) / (times[i + 1] - times[i])
    return float(beats) if beats.ndim == 0 else beats


def constant_tempo_grid(bpm: float, first_downbeat_s: float, count: int) -> BeatGrid:
    """A synthetic grid of ``count`` beats at fixed tempo, a downbeat every fourth beat."""
    if bpm <= 0 or not math.isfinite(bpm):
        raise InputError(f"bpm {bpm} must be positive and finite")
    if count < 1:
        raise InputError(f"count {count} below 1")
    period = 60.0 / float(bpm)
    times = first_downbeat_s + period * np.arange(count, dtype=np.float64)
    flags = np.arange(count) % 4 == 0
    return BeatGrid(times, flags)
