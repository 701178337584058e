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
    t0_s    f64      center time of frame 0; 0 when rate_hz is 0
    data    n * dim float32, row-major

``write_ssft`` writes either kind and refuses non-finite values;
``read_ssft`` validates the header and the exact payload length, which it
takes from the file's size before it allocates, and the feature types it
builds refuse non-finite values.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from . import kernels
from .align import AlignmentMap, align
from .core import TICKS_PER_BEAT, all_finite
from .errors import FormatError, InputError, ShapeError, in_file

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

_RIFF_CHUNK = struct.Struct("<4sI")
#: Format tag, channels, sample rate, byte rate, frame bytes, bits per sample.
_WAV_FORMAT = struct.Struct("<HHIIHH")
#: Bytes 4-15 of every WAVE_FORMAT_EXTENSIBLE subformat GUID (RFC 2361);
#: bytes 0-3 hold the plain format tag.
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
#: (format tag, bytes per sample) -> stored dtype; 24-bit PCM is widened
#: to int32 before it is viewed.
_WAV_DTYPES = {
    (1, 1): "u1", (1, 2): "<i2", (1, 3): "<i4", (1, 4): "<i4",
    (3, 4): "<f4", (3, 8): "<f8",
}


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
        if not all_finite(frames):
            raise InputError("feature frames contain non-finite values")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

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
        if not all_finite(frames):
            raise InputError("resampled features contain non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def num_ticks(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def load_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file as mono samples in [-1, 1] plus its sample rate.

    Reads little-endian RIFF WAVE files: PCM of 8 (unsigned), 16, 24 or
    32 bits and IEEE float of 32 or 64 bits, plain or as
    WAVE_FORMAT_EXTENSIBLE, with any number of channels, which are
    averaged.  Chunks other than ``fmt `` and ``data`` are skipped.
    Anything else (RIFX, RF64, 64-bit PCM, compressed formats, truncated
    chunks, a partial frame, no samples) raises FormatError naming the
    file; OSError passes through.

    The samples come back in the narrowest dtype that holds them exactly:
    float32 for mono PCM of 8, 16 or 24 bits and mono float32 files, whose
    scaled values fit float32's 24-bit significand, and float64 for 32-bit
    PCM, float64 files and every file of more than one channel (the
    channel mean is taken in float64).  The chunk headers are walked with
    ``seek``, and the ``data`` chunk is read in pieces of about 256 KB
    through one reused buffer, each converted into its slice of the
    output, so the file is never held whole.
    """
    with open(path, "rb") as fh, in_file(path):
        return _wav_samples(fh)


#: Bytes of the ``data`` chunk ``load_wav`` reads and converts at a time.
_WAV_PIECE = 2**18


def _wav_samples(fh) -> tuple[np.ndarray, int]:
    length = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise FormatError("not a little-endian RIFF WAVE file")
    chunks: dict[bytes, tuple[int, int]] = {}
    pos = 12
    while pos < length:
        if pos + 8 > length:
            raise FormatError(f"truncated chunk header at byte {pos}")
        chunk_id, size = _RIFF_CHUNK.unpack(_read_at(fh, pos, 8))
        if pos + 8 + size > length:
            raise FormatError(
                f"chunk {chunk_id!r} holds {length - pos - 8} bytes, header says {size}"
            )
        chunks.setdefault(chunk_id, (pos + 8, size))
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    if b"fmt " not in chunks or b"data" not in chunks:
        raise FormatError("no 'fmt ' or no 'data' chunk")
    at, size = chunks[b"fmt "]
    if size < _WAV_FORMAT.size:
        raise FormatError(f"'fmt ' chunk of {size} bytes")
    fmt = _read_at(fh, at, min(size, 40))
    tag, channels, rate, _, frame_bytes, _ = _WAV_FORMAT.unpack_from(fmt)
    if tag == 0xFFFE and size >= 40 and fmt[28:40] == _SUBFORMAT_GUID_TAIL:
        tag = int.from_bytes(fmt[24:28], "little")
    width = frame_bytes // channels if channels else 0
    dtype = _WAV_DTYPES.get((tag, width))
    if dtype is None or width * channels != frame_bytes:
        raise FormatError(
            f"unsupported WAV format (tag {tag:#x}, {channels} channels, {frame_bytes}-byte frames)"
        )
    at, size = chunks[b"data"]
    if size % frame_bytes:
        raise FormatError(f"{size} data bytes are not whole {frame_bytes}-byte frames")
    if size == 0:
        raise FormatError("WAV file holds no samples")
    n = size // frame_bytes
    narrow = channels == 1 and (tag == 1 and width < 4 or tag == 3 and width == 4)
    samples = np.empty(n, np.float32 if narrow else np.float64)
    piece = min(max(1, _WAV_PIECE // frame_bytes), n)  # frames per piece
    raw = np.empty(piece * frame_bytes, np.uint8)
    if width == 3:  # left-justify into int32, so it scales by 2**31 as 32-bit PCM does
        wide = np.zeros((piece * channels, 4), np.uint8)
    # Every channel of a piece converts into float64 here, then is averaged.
    mixed = np.empty(piece * channels) if channels > 1 else None
    fh.seek(at)
    for f0 in range(0, n, piece):
        m = min(piece, n - f0)
        got = raw[: m * frame_bytes]
        if fh.readinto(got) != len(got):
            raise FormatError(_SHRANK)
        if width == 3:
            wide[: m * channels, 1:] = got.reshape(-1, 3)
            got = wide[: m * channels]
        view = got.view(dtype).reshape(-1)
        out = samples[f0 : f0 + m] if mixed is None else mixed[: m * channels]
        # The scales are powers of two, so one pass gives what dividing would.
        if tag == 1 and width == 1:
            np.subtract(view, 128.0, out=out, dtype=out.dtype)
            out *= 2.0 ** -7
        elif tag == 1:
            np.multiply(view, 2.0 ** -(8 * view.itemsize - 1), out=out, dtype=out.dtype)
        else:
            out[:] = view
        if mixed is not None:
            np.mean(out.reshape(m, channels), axis=1, out=samples[f0 : f0 + m])
    return samples, rate


_SHRANK = "the file shrank while it was read"


def _read_at(fh, pos: int, size: int) -> bytes:
    """``size`` bytes of ``fh`` from byte ``pos``, which the file's size covers."""
    fh.seek(pos)
    data = fh.read(size)
    if len(data) != size:
        raise FormatError(_SHRANK)
    return data


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_points() -> np.ndarray:
    """The N_MELS + 2 band edges in Hz, evenly spaced in mel."""
    return _mel_to_hz(np.linspace(_hz_to_mel(FMIN_HZ), _hz_to_mel(FMAX_HZ), N_MELS + 2))


@cache
def _mel_filterbank() -> np.ndarray:
    pts = _mel_points()
    freqs = np.fft.rfftfreq(N_FFT, 1.0 / SAMPLE_RATE)
    lo = pts[:-2, None]
    center = pts[1:-1, None]
    hi = pts[2:, None]
    rising = (freqs[None, :] - lo) / (center - lo)
    falling = (hi - freqs[None, :]) / (hi - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


#: Groups of consecutive mel bands in ``_mel_bands``.
_MEL_GROUPS = 16


@cache
def _mel_bands() -> tuple[tuple[int, int, int, int, np.ndarray], ...]:
    """``_mel_filterbank().T`` cut into ``_MEL_GROUPS`` banded blocks.

    Each group of consecutive bands keeps only the run of FFT bins where
    one of its bands is nonzero, as a contiguous (bins, bands) matrix.
    The 16 matrices hold 6.5 % of the 1025 x 229 entries; the 2029
    nonzeros are 0.9 %.  Returns ((first bin, end bin, first band, end
    band, weights), ...).
    """
    fb_t = _mel_filterbank().T
    groups = []
    for cols in np.array_split(np.arange(N_MELS), _MEL_GROUPS):
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        bins = np.flatnonzero(fb_t[:, c0:c1].any(axis=1))
        lo, hi = int(bins[0]), int(bins[-1]) + 1
        groups.append((lo, hi, c0, c1, np.ascontiguousarray(fb_t[lo:hi, c0:c1])))
    return tuple(groups)


#: Frames transformed per step of ``logmel``.  Of 128 to 2048, 256 ran
#: fastest on 165 s of audio (2-core x86 VM, numpy 2.4 with OpenBLAS).
#: With the banded mel product and reused buffers, blocks of 32 to 512
#: gave the same output and timings within the noise on 669 s of audio
#: (same VM, one BLAS thread).  It is 128, not 256, so that the buffers of
#: two spans (about 7 MB each) hold no more than one span's did at 256.
_LOGMEL_BLOCK = 128

#: Spans of frames ``logmel`` computes at once, each on its own thread.
#: Two on any machine: a fixed cap keeps its buffers fixed on a machine of
#: any size, the 2-core VM it was measured on has no use for more, and on
#: one CPU the second thread costs little.  Pinned to one CPU, 200 s of
#: 44.1 kHz audio took a median 112-119 ms in two spans and 110-116 ms in
#: one (three runs of 12 alternating calls, numpy 2.4, one BLAS thread).
_LOGMEL_SPANS = 2

#: The highest sample rate ``logmel`` takes, the highest standard one.
#: The resampling filter grows with the rate, so a corrupt header's rate,
#: such as 10**9 Hz, would otherwise ask for gigabytes.
MAX_SAMPLE_RATE = 384000

#: Output phases per band matrix, and blocks per chunk, in ``_resampled``.
#: Of 10, 20 and 40 phases and 64 to 1024 blocks, 20 and 256 ran fastest
#: on 224 s of 44.1 and of 48 kHz audio (2-core x86 VM, numpy 2.4 with
#: OpenBLAS on one thread).  At 44.1 kHz that is 8 matrices per block.
_RESAMPLE_GROUP = 20
_RESAMPLE_CHUNK = 256


#: Rate pairs whose ``_polyphase`` bands stay cached.  Bands take about
#: 320 bytes per unit of ``down`` (0.14 MB at 44.1 kHz, where down is
#: 441), so the worst case, two rates coprime with 16 kHz near
#: ``MAX_SAMPLE_RATE``, retains about 2 x 123 MB.
_POLYPHASE_CACHED = 2


@lru_cache(maxsize=_POLYPHASE_CACHED)
def _polyphase(rate_in: int, rate_out: int) -> tuple[int, int, list[tuple[int, int, np.ndarray]]]:
    """The banded phase matrices of ``scipy.signal.resample_poly``'s filter
    from ``rate_in`` to ``rate_out`` Hz, in lowest terms ``up / down``.

    The filter is the default one: ``firwin(2 * half + 1, 1 / max(up,
    down))`` with a Kaiser window (beta 5), half = 10 * max(up, down),
    scaled to unit DC gain and then by ``up``, and delayed so that output
    ``q`` of block ``b`` is a K-tap dot product with x[b * down + off_q],
    x[b * down + off_q - 1], ...  Each group of ``_RESAMPLE_GROUP``
    consecutive outputs is one banded matrix over the inputs they share.

    A block is ``reps`` periods of the filter: ``reps * up`` outputs from
    ``reps * down`` inputs, with ``reps`` the fewest for which every
    band fits in one block's input stride, so that the strided windows
    ``_resampled`` multiplies are BLAS operands without a copy.  Returns
    (outputs per block, inputs per block, [(input offset of the band's
    first row, first output, band)]).
    """
    g = math.gcd(rate_in, rate_out)
    up, down = rate_out // g, rate_in // g
    max_rate = max(up, down)
    half = 10 * max_rate
    f_c = 1.0 / max_rate
    m = np.arange(2 * half + 1) - half
    h = f_c * np.sinc(f_c * m) * np.kaiser(2 * half + 1, 5.0)
    h = h / h.sum() * up
    pre = down - half % down
    n_taps = -(-(len(h) + pre) // up)
    taps = np.zeros(n_taps * up)
    taps[pre : pre + len(h)] = h
    taps = taps.reshape(n_taps, up)  # taps[i, r] = h[i * up + r - pre]
    reps = -(-(_RESAMPLE_GROUP * down // up + n_taps + 1) // down)
    q = np.arange(reps * up)
    off, res = np.divmod((q + (half + pre) // down) * down, up)
    i = np.arange(n_taps)[:, None]
    groups = []
    for q0 in range(0, len(q), _RESAMPLE_GROUP):
        g = slice(q0, q0 + _RESAMPLE_GROUP)
        lo = off[q0] - (n_taps - 1)
        band = np.zeros((off[g][-1] - lo + 1, len(q[g])))
        band[off[g] - i - lo, q[g] - q0] = taps[i, res[g]]
        groups.append((int(lo), q0, band))
    return reps * up, reps * down, groups


def _resampled(x: np.ndarray, rate_in: int, rate_out: int, start: int = 0):
    """``x`` resampled as ``scipy.signal.resample_poly`` does by default,
    from output sample ``start`` on, as consecutive pieces of the output.

    Polyphase decomposition (Crochiere and Rabiner, *Multirate Digital
    Signal Processing*, 1983) as one GEMM per band of ``_polyphase``.
    Time runs in chunks of ``_RESAMPLE_CHUNK`` blocks, each copied into
    one reusable zero-padded buffer, and each chunk's outputs are one
    piece, a view of one reused buffer that holds until the next piece
    is asked for.  The first chunk is the one that holds output ``start``
    on the grid of chunks from output 0, so every output is computed as
    it is when ``start`` is 0.  At equal rates the one piece is
    ``x[start:]``.
    """
    if rate_in == rate_out:
        yield x[start:]
        return
    block_out, block_in, groups = _polyphase(rate_in, rate_out)
    n_out = -(-len(x) * rate_out // rate_in)
    n_blocks = -(-n_out // block_out)
    first = min(lo for lo, _, _ in groups)
    span = max(lo + len(band) for lo, _, band in groups) - first
    chunk = min(_RESAMPLE_CHUNK, n_blocks)
    y = np.empty((chunk, block_out))
    buf = np.empty((chunk - 1) * block_in + span)
    for b0 in range(start // (chunk * block_out) * chunk, n_blocks, chunk):
        nb = min(chunk, n_blocks - b0)
        s = b0 * block_in + first  # the input index of buf[0]
        a, e = max(s, 0), min(s + len(buf), len(x))
        buf[: a - s] = 0.0
        buf[a - s : e - s] = x[a:e]
        buf[max(e - s, 0) :] = 0.0
        for lo, q0, band in groups:
            windows = np.lib.stride_tricks.sliding_window_view(buf[lo - first :], len(band))
            np.matmul(windows[::block_in][:nb], band, out=y[:nb, q0 : q0 + band.shape[1]])
        yield y[:nb].reshape(-1)[max(start - b0 * block_out, 0) : n_out - b0 * block_out]


def logmel(samples: np.ndarray, sample_rate_hz: int) -> FeatureMatrix:
    """Log-amplitude mel spectrogram at 31.25 Hz, 229 dims, t0 = 0.

    Audio at a whole rate of at most ``MAX_SAMPLE_RATE`` is resampled
    to 16 kHz if needed, then analyzed with a centered Hann window of
    2048 samples and hop 512.  Mel amplitudes map through
    log(a + 1e-6), so silence sits at log(1e-6).

    The frames are cut into two contiguous spans on the grid of
    ``_LOGMEL_BLOCK`` frames, or one when they fill a single block; the
    calling thread computes the first and a ``ThreadPoolExecutor`` of one
    worker the second, whose error is raised again in the caller.  Every
    block sees the samples it would see in one span, so the frames do not
    depend on the number of spans.  The 16 kHz signal is never held
    whole: it streams from the resampler through one buffer of a block
    of frames' samples per span.  Float32 and float64 samples are used
    as given, with no whole-length copy or temporary; every value is
    widened to float64 exactly as it enters those buffers, so both give
    the same frames.  Beyond its input and output, each thread holds
    fixed block buffers of about 7 MB whatever the song's length.
    """
    x = np.asarray(samples)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if x.ndim != 1 or x.size == 0:
        raise InputError("samples must be a non-empty 1-D array")
    if not all_finite(x):
        raise InputError("samples contain non-finite values")
    rate = float(sample_rate_hz)
    if not (0 < rate <= MAX_SAMPLE_RATE and rate.is_integer()):  # also refuses nan and inf
        raise InputError(
            f"sample rate {sample_rate_hz} must be a positive whole number"
            f" of at most {MAX_SAMPLE_RATE} Hz"
        )
    rate = int(rate)
    # Built here, before any worker starts: two threads that both miss a
    # cache both build its entry, which near MAX_SAMPLE_RATE takes seconds.
    if rate != SAMPLE_RATE:
        _polyphase(rate, SAMPLE_RATE)
    _mel_bands()

    n_samples = -(-len(x) * SAMPLE_RATE // rate)  # at 16 kHz
    n_frames = -(-n_samples // HOP)
    block = min(_LOGMEL_BLOCK, n_frames)
    n_blocks = -(-n_frames // block)
    n_spans = min(_LOGMEL_SPANS, n_blocks)
    cuts = [n_blocks * i // n_spans * block for i in range(n_spans)] + [n_frames]
    out = np.empty((n_frames, N_MELS), dtype=np.float32)
    # Imported here, not with the module: it also loads logging.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_LOGMEL_SPANS - 1) as pool:
        spans = [pool.submit(_logmel_span, x, rate, *cuts[i : i + 2], block, out)
                 for i in range(1, n_spans)]
        _logmel_span(x, rate, cuts[0], cuts[1], block, out)
        for span in spans:
            span.result()
    return FeatureMatrix(rate_hz=SAMPLE_RATE / HOP, frames=out, t0_s=0.0)


def _logmel_span(x: np.ndarray, rate: int, f0: int, f1: int, block: int, out: np.ndarray) -> None:
    """Write ``logmel``'s frames ``f0`` to ``f1`` of samples ``x`` at
    ``rate`` Hz into ``out[f0:f1]``, ``block`` frames at a time.

    ``f0`` is a multiple of ``block``.  The buffers are the span's own.
    """
    # sig holds the stretch of the centered signal (N_FFT // 2 zeros, the
    # 16 kHz samples, then zeros as far as the last frame reads) of one block.
    sig = np.empty((block - 1) * HOP + N_FFT)
    zeros = np.zeros(N_FFT)
    lead = N_FFT // 2 - f0 * HOP  # the zeros before sample 0 that this span still reads
    stream = itertools.chain(
        [zeros[: max(lead, 0)]],
        _resampled(x, rate, SAMPLE_RATE, max(-lead, 0)),
        itertools.repeat(zeros),
    )
    piece, filled = np.empty(0), 0
    frames = np.lib.stride_tricks.sliding_window_view(sig, N_FFT)[::HOP]
    window = np.hanning(N_FFT)
    windowed = np.empty((block, N_FFT))
    spectrum = np.empty((block, N_FFT // 2 + 1), dtype=np.complex128)
    mag = np.empty((block, N_FFT // 2 + 1))
    mel = np.empty((block, N_MELS))
    for start in range(f0, f1, block):
        while filled < len(sig):
            if not len(piece):
                piece = next(stream)
            k = min(len(piece), len(sig) - filled)
            sig[filled : filled + k] = piece[:k]
            piece, filled = piece[k:], filled + k
        n = min(block, f1 - start)
        np.multiply(frames[:n], window, out=windowed[:n])
        np.fft.rfft(windowed[:n], axis=1, out=spectrum[:n])
        np.abs(spectrum[:n], out=mag[:n])
        for lo, hi, c0, c1, band in _mel_bands():
            np.matmul(mag[:n, lo:hi], band, out=mel[:n, c0:c1])
        mel[:n] += LOG_OFFSET
        np.log(mel[:n], out=mel[:n])
        out[start : start + n] = mel[:n]
        sig[: N_FFT - HOP] = sig[block * HOP :]  # the next block's frames overlap these
        filled = N_FFT - HOP


def write_ssft(path, feats: FeatureMatrix | ResampledFeatures) -> None:
    """Write features of either kind; tick-indexed rows store rate 0 and t0 0."""
    ticks = isinstance(feats, ResampledFeatures)
    rate_hz, t0_s = (0.0, 0.0) if ticks else (feats.rate_hz, feats.t0_s)
    with np.errstate(over="ignore"):  # a float32 overflow is refused just below
        frames = np.ascontiguousarray(feats.frames, dtype=np.float32)
    if not all_finite(frames):
        raise InputError("refusing to write non-finite features")
    n, dim = frames.shape
    header = _SSFT_HEADER.pack(SSFT_MAGIC, SSFT_VERSION, rate_hz, dim, n, t0_s)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.astype("<f4", copy=False))  # the contiguous buffer, not a copy


def read_ssft(path, kind=None) -> FeatureMatrix | ResampledFeatures:
    """Read an SSFT file of either kind; a rate of 0 marks tick-indexed rows.

    ``kind``, FeatureMatrix or ResampledFeatures, refuses a file of the
    other kind.  Every fault raises FormatError naming the file.
    """
    with open(path, "rb") as fh, in_file(path):
        head = fh.read(_SSFT_HEADER.size)
        if len(head) < _SSFT_HEADER.size:
            raise FormatError("truncated SSFT header")
        magic, version, rate, dim, n, t0 = _SSFT_HEADER.unpack(head)
        if magic != SSFT_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != SSFT_VERSION:
            raise FormatError(f"unsupported SSFT version {version}")
        if dim == 0:  # np.empty((n, 0)) would fail on a huge n before the features refuse it
            raise FormatError(f"header gives {n} rows of dim 0")
        if rate == 0.0 and t0 != 0.0:
            raise FormatError(f"tick-indexed rows (rate 0) start at t0 {t0}, not 0")
        payload = os.fstat(fh.fileno()).st_size - _SSFT_HEADER.size
        if payload != 4 * dim * n:
            raise FormatError(f"payload is {payload} bytes, header implies {4 * dim * n}")
        frames = np.empty((n, dim), dtype="<f4")
        if fh.readinto(frames.reshape(-1)) != payload:  # the file shrank while it was read
            raise FormatError("truncated SSFT payload")
        if rate == 0.0:
            feats = ResampledFeatures(frames)
        else:
            feats = FeatureMatrix(rate_hz=rate, frames=frames, t0_s=t0)
        if kind is not None and not isinstance(feats, kind):
            raise FormatError(
                "holds tick-indexed rows (rate 0), not fixed-rate frames" if rate == 0.0
                else f"holds fixed-rate frames ({rate} Hz), not tick-indexed rows"
            )
        return feats


# perfbench/workloads.py imports these four names; they go when perfbench
# calls write_ssft and read_ssft.
save_features = save_resampled = write_ssft
load_features = partial(read_ssft, kind=FeatureMatrix)
load_resampled = partial(read_ssft, kind=ResampledFeatures)


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
    InputError naming the first sixteenth outside the feature span.
    """
    tick_times, bounds = _cell_boundaries(amap)
    lo, hi = feats.span_s
    inside = (tick_times >= lo) & (tick_times <= hi)
    if not inside.all():
        i = int(np.argmin(inside))
        raise InputError(
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
