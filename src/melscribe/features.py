"""Audio features: log-mel extraction, SSFT files, beat-wise resampling.

Feature matrices are fixed-rate (frames x dim, float32) with a start
offset ``t0_s``; frame ``j`` is centered at ``t0_s + j / rate_hz``.
Beat-wise resampling averages the frames nearest each sixteenth note of
an alignment map, producing one row per tick (4 per beat).

The on-disk container is SSFT, a little-endian binary layout::

    magic   4 bytes  b"SSFT"
    version u32      1
    rate_hz f64      frames per second
    dim     u32      feature dimensionality
    n       u64      frame count
    t0_s    f64      center time of frame 0
    data    n * dim float32, row-major

Writers refuse non-finite values; readers validate the header and the
exact payload length.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import kernels
from .align import AlignmentMap, align
from .core import TICKS_PER_BEAT
from .errors import CoverageError, FormatError, InputError, ShapeError

SAMPLE_RATE = 16000
N_FFT = 2048
HOP = 512
N_MELS = 229
FMIN_HZ = 30.0
FMAX_HZ = 8000.0
LOG_OFFSET = 1e-6

SSFT_MAGIC = b"SSFT"
SSFT_VERSION = 1
_SSFT_HEADER = struct.Struct("<4sIdIQd")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Fixed-rate feature frames; frame j is centered at t0_s + j/rate_hz."""

    rate_hz: float
    frames: np.ndarray
    t0_s: float = 0.0

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ShapeError(f"frames must be (n>=1, dim>=1), got {frames.shape}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "rate_hz", float(self.rate_hz))
        object.__setattr__(self, "t0_s", float(self.t0_s))
        if not (self.rate_hz > 0 and math.isfinite(self.rate_hz)):
            raise InputError(f"rate_hz {self.rate_hz} must be positive and finite")
        if not math.isfinite(self.t0_s):
            raise InputError("t0_s must be finite")
        if not np.all(np.isfinite(frames)):
            raise InputError("feature frames contain non-finite values")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def frame_times_s(self) -> np.ndarray:
        return self.t0_s + np.arange(self.n_frames, dtype=np.float64) / self.rate_hz

    @property
    def span_s(self) -> tuple[float, float]:
        return (self.t0_s, self.t0_s + self.n_frames / self.rate_hz)


@dataclass(frozen=True, eq=False)
class ResampledFeatures:
    """One feature row per sixteenth note: shape (4B, dim)."""

    frames: np.ndarray

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames)
        if frames.ndim != 2 or frames.shape[1] < 1:
            raise ShapeError(f"frames must be 2-D, got {frames.shape}")
        if frames.shape[0] < TICKS_PER_BEAT or frames.shape[0] % TICKS_PER_BEAT:
            raise ShapeError(
                f"tick count {frames.shape[0]} not a positive multiple of "
                f"{TICKS_PER_BEAT}"
            )
        if not np.all(np.isfinite(frames)):
            raise InputError("resampled features contain non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def num_ticks(self) -> int:
        return self.frames.shape[0]

    @property
    def num_beats(self) -> int:
        return self.frames.shape[0] // TICKS_PER_BEAT

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def load_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file as mono float64 in [-1, 1] plus its sample rate."""
    import scipy.io.wavfile

    try:
        with warnings.catch_warnings():
            # scipy only warns when the payload is shorter than the header says
            warnings.filterwarnings("error", "Reached EOF prematurely")
            sr, data = scipy.io.wavfile.read(path)
    except OSError:
        raise
    except Exception as exc:  # scipy's parser fails on damaged headers in many ways
        raise FormatError(f"unreadable WAV file {path}: {exc}") from exc
    if data.size == 0:
        raise InputError(f"WAV file {path} holds no samples")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FormatError(f"unsupported WAV sample format {data.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return samples, int(sr)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_centers_hz() -> np.ndarray:
    """Center frequencies of the 229 mel bands."""
    pts = _mel_to_hz(np.linspace(_hz_to_mel(FMIN_HZ), _hz_to_mel(FMAX_HZ), N_MELS + 2))
    return pts[1:-1]


@cache
def _mel_filterbank() -> np.ndarray:
    pts = _mel_to_hz(np.linspace(_hz_to_mel(FMIN_HZ), _hz_to_mel(FMAX_HZ), N_MELS + 2))
    freqs = np.fft.rfftfreq(N_FFT, 1.0 / SAMPLE_RATE)
    lo = pts[:-2, None]
    center = pts[1:-1, None]
    hi = pts[2:, None]
    rising = (freqs[None, :] - lo) / (center - lo)
    falling = (hi - freqs[None, :]) / (hi - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


#: Frames transformed per step of ``logmel``.  Of 128 to 2048, 256 ran
#: fastest on 165 s of audio (2-core x86 VM, numpy 2.4 with OpenBLAS).
_LOGMEL_BLOCK = 256


def logmel(samples: np.ndarray, sample_rate_hz: int) -> FeatureMatrix:
    """Log-amplitude mel spectrogram at 31.25 Hz, 229 dims, t0 = 0.

    Audio is resampled to 16 kHz if needed, then analyzed with a
    centered Hann window of 2048 samples and hop 512.  Mel amplitudes
    map through log(a + 1e-6), so silence sits at log(1e-6).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InputError("samples must be a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise InputError("samples contain non-finite values")
    if sample_rate_hz <= 0:
        raise InputError(f"sample rate {sample_rate_hz} must be positive")
    if sample_rate_hz != SAMPLE_RATE:
        import scipy.signal

        g = math.gcd(int(sample_rate_hz), SAMPLE_RATE)
        x = scipy.signal.resample_poly(x, SAMPLE_RATE // g, int(sample_rate_hz) // g)
        if x.size == 0:
            raise InputError("audio too short to resample")

    n_frames = -(-len(x) // HOP)
    pad = N_FFT // 2
    tail = max(0, (n_frames - 1) * HOP + N_FFT - pad - len(x))
    xp = np.pad(x, (pad, tail))
    frames = np.lib.stride_tricks.sliding_window_view(xp, N_FFT)[::HOP]
    window = np.hanning(N_FFT)
    fb_t = _mel_filterbank().T
    out = np.empty((n_frames, N_MELS), dtype=np.float32)
    for start in range(0, n_frames, _LOGMEL_BLOCK):
        stop = min(start + _LOGMEL_BLOCK, n_frames)
        mag = np.abs(np.fft.rfft(frames[start:stop] * window, axis=1))
        out[start:stop] = np.log(mag @ fb_t + LOG_OFFSET).astype(np.float32)
    return FeatureMatrix(rate_hz=SAMPLE_RATE / HOP, frames=out, t0_s=0.0)


def _write_ssft(path, frames: np.ndarray, rate_hz: float, t0_s: float) -> None:
    with np.errstate(over="ignore"):  # a float32 overflow is refused just below
        frames = np.ascontiguousarray(frames, dtype=np.float32)
    if not np.all(np.isfinite(frames)):
        raise InputError("refusing to write non-finite features")
    n, dim = frames.shape
    header = _SSFT_HEADER.pack(SSFT_MAGIC, SSFT_VERSION, rate_hz, dim, n, t0_s)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.astype("<f4", copy=False).tobytes())


def read_ssft(path) -> FeatureMatrix | ResampledFeatures:
    """Read an SSFT file of either kind; a rate of 0 marks tick-indexed rows."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _SSFT_HEADER.size:
        raise FormatError(f"{path}: truncated SSFT header")
    magic, version, rate, dim, n, t0 = _SSFT_HEADER.unpack_from(blob)
    if magic != SSFT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != SSFT_VERSION:
        raise FormatError(f"{path}: unsupported SSFT version {version}")
    expected = _SSFT_HEADER.size + 4 * dim * n
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload is {len(blob) - _SSFT_HEADER.size} bytes, "
            f"header implies {expected - _SSFT_HEADER.size}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_SSFT_HEADER.size)
    frames = data.reshape(n, dim).copy()
    if not np.all(np.isfinite(frames)):
        raise FormatError(f"{path}: payload contains non-finite values")
    if rate == 0.0:
        return ResampledFeatures(frames)
    return FeatureMatrix(rate_hz=rate, frames=frames, t0_s=t0)


def save_features(path, feats: FeatureMatrix) -> None:
    _write_ssft(path, feats.frames, feats.rate_hz, feats.t0_s)


def load_features(path) -> FeatureMatrix:
    feats = read_ssft(path)
    if not isinstance(feats, FeatureMatrix):
        raise FormatError(f"{path} holds tick-indexed rows (rate 0); use load_resampled")
    return feats


def save_resampled(path, resampled: ResampledFeatures) -> None:
    """Write tick-indexed features in the same container, rate 0 as marker."""
    _write_ssft(path, resampled.frames, 0.0, 0.0)


def load_resampled(path) -> ResampledFeatures:
    feats = read_ssft(path)
    if not isinstance(feats, ResampledFeatures):
        raise FormatError(
            f"{path} holds fixed-rate frames ({feats.rate_hz} Hz); use load_features"
        )
    return feats


def _cell_boundaries(amap: AlignmentMap) -> tuple[np.ndarray, np.ndarray]:
    """Tick times plus the Voronoi boundaries of cells 0..4B-1.

    The grid conceptually extends half a cell beyond each end (mirroring
    the first spacing on the left, using align(B) on the right), so edge
    cells have finite width and frames beyond the segment are dropped
    rather than pooled into tick 0 or tick 4B-1.
    """
    n_beats = amap.num_beats
    n_ticks = n_beats * TICKS_PER_BEAT
    positions = np.arange(n_ticks + 1, dtype=np.float64) / TICKS_PER_BEAT
    tick_times = align(amap, positions)
    bounds = np.empty(n_ticks + 1, dtype=np.float64)
    bounds[1:] = 0.5 * (tick_times[:-1] + tick_times[1:])
    bounds[0] = tick_times[0] - 0.5 * (tick_times[1] - tick_times[0])
    return tick_times[:-1], bounds


def tick_frame_counts(feats: FeatureMatrix, amap: AlignmentMap) -> np.ndarray:
    """How many frames each sixteenth-note cell pools."""
    _, bounds = _cell_boundaries(amap)
    starts = _frame_starts(feats, bounds)
    return np.diff(starts).astype(np.int64)


def _frame_starts(feats: FeatureMatrix, bounds: np.ndarray) -> np.ndarray:
    times = feats.frame_times_s
    starts = np.empty(len(bounds), dtype=np.int64)
    # A frame exactly on an interior boundary ties toward the lower tick,
    # so interior cut points use side="right"; the outer edges are inclusive.
    starts[0] = np.searchsorted(times, bounds[0], side="left")
    starts[1:] = np.searchsorted(times, bounds[1:], side="right")
    return starts


def beatwise_resample(feats: FeatureMatrix, amap: AlignmentMap) -> ResampledFeatures:
    """Average feature frames into one row per sixteenth note.

    Every frame inside a cell's span contributes to that cell's mean
    (ties on a boundary go to the lower tick); a cell containing no
    frames takes the single nearest frame verbatim.  Raises
    CoverageError naming the first sixteenth outside the feature span.
    """
    tick_times, bounds = _cell_boundaries(amap)
    lo, hi = feats.span_s
    inside = (tick_times >= lo) & (tick_times <= hi)
    if not inside.all():
        i = int(np.argmin(inside))
        raise CoverageError(
            f"sixteenth {i} at {tick_times[i]:.4f}s lies outside feature span "
            f"[{lo:.4f}, {hi:.4f}]s"
        )
    starts = _frame_starts(feats, bounds)
    pooled, counts = kernels.pool_segments(feats.frames, starts)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        times = feats.frame_times_s
        for t in empty:
            j = int(np.argmin(np.abs(times - tick_times[t])))
            pooled[t] = feats.frames[j]
    return ResampledFeatures(pooled)
