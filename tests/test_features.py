import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from melscribe import features, kernels, synth
from melscribe.align import AlignmentMap
from melscribe.cli import main
from melscribe.errors import FormatError, InputError, ShapeError
from melscribe.features import (
    FeatureMatrix,
    ResampledFeatures,
    beatwise_resample,
    load_wav,
    logmel,
    read_ssft,
    write_ssft,
)
from melscribe.synth import write_wav


def test_feature_matrix_validation():
    fm = FeatureMatrix(10.0, np.zeros((5, 3)), t0_s=1.0)
    assert fm.n_frames == 5 and fm.frames.shape[1] == 3
    assert np.allclose(fm.frame_times_s, 1.0 + np.arange(5) / 10.0)
    assert fm.span_s == (1.0, 1.5)
    with pytest.raises(ShapeError):
        FeatureMatrix(10.0, np.zeros(5))
    with pytest.raises(ShapeError):
        FeatureMatrix(10.0, np.zeros((0, 3)))
    with pytest.raises(InputError):
        FeatureMatrix(0.0, np.zeros((5, 3)))
    with pytest.raises(InputError):
        FeatureMatrix(10.0, np.full((2, 2), np.nan))


def test_resampled_features_validation():
    rf = ResampledFeatures(np.zeros((8, 3), dtype=np.float32))
    assert rf.num_ticks == 8 and rf.dim == 3
    with pytest.raises(ShapeError):
        ResampledFeatures(np.zeros((7, 3)))
    with pytest.raises(ShapeError):
        ResampledFeatures(np.zeros((0, 3)))
    with pytest.raises(InputError):
        ResampledFeatures(np.full((4, 2), np.inf))


def test_mel_band_centers():
    centers = features._mel_points()[1:-1]
    assert centers.shape == (229,)
    assert np.all(np.diff(centers) > 0)
    assert 30.0 < centers[0] < 100.0
    assert 7000.0 < centers[-1] < 8000.0


def test_logmel_shape_and_rate():
    samples = np.random.default_rng(0).normal(0, 0.1, size=16000)
    fm = logmel(samples, 16000)
    assert fm.rate_hz == 31.25
    assert fm.t0_s == 0.0
    assert fm.frames.shape[1] == 229
    assert fm.n_frames == -(-16000 // 512)
    assert fm.frames.dtype == np.float32


def test_logmel_peaks_at_tone_frequency():
    t = np.arange(32000) / 16000.0
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    fm = logmel(tone, 16000)
    centers = features._mel_points()[1:-1]
    # average away frame noise, then locate the hottest band
    peak_band = int(np.argmax(fm.frames.mean(axis=0)))
    assert abs(centers[peak_band] - 440.0) < 40.0


def test_logmel_silence_floor():
    fm = logmel(np.zeros(8000), 16000)
    assert np.allclose(fm.frames, np.log(1e-6), atol=1e-5)


def test_logmel_resamples_other_rates():
    rng = np.random.default_rng(1)
    one_second = rng.normal(0, 0.1, size=8000)
    fm = logmel(one_second, 8000)
    assert abs(fm.n_frames - 31.25) <= 1


def logmel_per_frame(samples, sample_rate_hz):
    """Reference front end: each frame sliced, windowed and transformed alone."""
    x = np.asarray(samples, dtype=np.float64)
    if sample_rate_hz != features.SAMPLE_RATE:
        import scipy.signal

        g = math.gcd(sample_rate_hz, features.SAMPLE_RATE)
        x = scipy.signal.resample_poly(
            x, features.SAMPLE_RATE // g, sample_rate_hz // g
        )
    hop, n_fft = features.HOP, features.N_FFT
    xp = np.pad(x, (n_fft // 2, n_fft))
    window = np.hanning(n_fft)
    fb = features._mel_filterbank()
    rows = []
    for j in range(-(-len(x) // hop)):
        mag = np.abs(np.fft.rfft(xp[j * hop : j * hop + n_fft] * window))
        rows.append(np.log(mag @ fb.T + features.LOG_OFFSET))
    return np.array(rows).astype(np.float32)


@pytest.mark.parametrize("extra_frames", [-1, 0, 1, None])
def test_logmel_matches_per_frame_reference(extra_frames):
    block = features._LOGMEL_BLOCK
    n_frames = 2 * block + 1 if extra_frames is None else block + extra_frames
    rng = np.random.default_rng(n_frames)
    samples = rng.normal(0, 0.1, size=n_frames * features.HOP - 100)
    fm = logmel(samples, 16000)
    assert fm.n_frames == n_frames
    assert np.array_equal(fm.frames, logmel_per_frame(samples, 16000))


def three_blocks(rate):
    """Samples at ``rate`` giving 2 * _LOGMEL_BLOCK + 1 frames, three blocks, at 16 kHz."""
    return -(-(2 * features._LOGMEL_BLOCK * features.HOP + 1) * rate // features.SAMPLE_RATE)


@pytest.mark.parametrize("rate, n", [
    *(pytest.param(rate, 3 * rate, id=str(rate)) for rate in (8000, 22050, 44100, 48000)),
    *(pytest.param(rate, three_blocks(rate), id=f"{rate}-three-blocks")
      for rate in (8000, 22050, 44100, 48000)),
])
def test_logmel_matches_per_frame_reference_after_resampling(rate, n):
    samples = np.random.default_rng(rate).normal(0, 0.1, size=n)
    fm = logmel(samples, rate)
    if n == three_blocks(rate):
        assert fm.n_frames == 2 * features._LOGMEL_BLOCK + 1
    assert np.array_equal(fm.frames, logmel_per_frame(samples, rate))


@pytest.mark.parametrize("rate", [16000, 44100])
def test_logmel_holds_fixed_buffers_whatever_the_length(rate):
    import tracemalloc

    logmel(np.zeros(rate), rate)  # builds the cached filterbank and resampling bands
    samples = np.random.default_rng(rate).normal(0, 0.1, size=180 * rate)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        frames = logmel(samples, rate).frames
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= frames.nbytes + 16 * 2**20, (peak, frames.nbytes)


@pytest.mark.parametrize("rate", [16000, 44100, 11025])
def test_logmel_spans_give_the_frames_of_one_span(rate):
    block = features._LOGMEL_BLOCK
    samples = np.random.default_rng(rate).normal(
        0, 0.1, size=(4 * block + 37) * features.HOP * rate // features.SAMPLE_RATE)
    want = logmel(samples, rate).frames
    n = len(want)
    assert n > 4 * block
    if rate != features.SAMPLE_RATE:  # the cut at one block starts inside a resampler chunk
        block_out = features._polyphase(rate, features.SAMPLE_RATE)[0]
        assert (block * features.HOP - features.N_FFT // 2) % (features._RESAMPLE_CHUNK * block_out)
    for cuts in ([0, n], [0, 2 * block, n], [0, 3 * block, n], [0, block, 3 * block, n],
                 [0, block, 2 * block, 4 * block, n]):
        got = np.full_like(want, np.nan)
        for f0, f1 in zip(cuts, cuts[1:]):
            features._logmel_span(samples, rate, f0, f1, block, got)
        assert np.array_equal(got, want), cuts


@pytest.mark.parametrize("rate", [16000, 44100, 11025])
def test_resampled_from_any_start_is_the_tail_of_the_whole_stream(rate):
    samples = np.random.default_rng(rate).normal(size=12 * rate + 7)

    def joined(start):
        # each piece is a view of a reused buffer, so it is copied before the next
        pieces = features._resampled(samples, rate, features.SAMPLE_RATE, start)
        return np.concatenate([piece.copy() for piece in pieces])

    whole = joined(0)
    if rate == features.SAMPLE_RATE:
        edge = len(whole) // 2
    else:  # the first chunk boundary
        edge = features._RESAMPLE_CHUNK * features._polyphase(rate, features.SAMPLE_RATE)[0]
    assert edge + 1 < len(whole) - 1
    for start in (0, 1, edge - 1, edge, edge + 1, len(whole) - 1):
        assert np.array_equal(joined(start), whole[start:]), start


class SpanFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_span_error_reaches_the_caller_and_no_thread_outlives_logmel(monkeypatch, failing):
    span = features._logmel_span

    def flaky(x, rate, f0, f1, block, out):
        if (f0 > 0) == (failing == "worker"):
            raise SpanFailed(f0)
        span(x, rate, f0, f1, block, out)

    monkeypatch.setattr(features, "_logmel_span", flaky)
    before = threading.active_count()
    with pytest.raises(SpanFailed):
        logmel(np.zeros(3 * features._LOGMEL_BLOCK * features.HOP), 16000)
    assert threading.active_count() == before


def test_logmel_called_from_many_threads_at_once_gives_each_its_frames(monkeypatch):
    inputs = [(np.random.default_rng(k).normal(0, 0.1, size=9 * rate), rate)  # three blocks
              for k, rate in enumerate([16000, 44100, 11025] * 2)]
    want = [logmel(x, rate).frames for x, rate in inputs]
    got = [None] * len(inputs)

    def run(k):
        got[k] = logmel(*inputs[k]).frames

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(k,)) for k in range(len(inputs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for k, frames in enumerate(want):
        assert np.array_equal(got[k], frames), k


def test_a_two_span_call_builds_the_resampling_bands_once(monkeypatch):
    span, cuts = features._logmel_span, []

    def recorded(x, rate, f0, f1, block, out):
        cuts.append((f0, f1))
        span(x, rate, f0, f1, block, out)

    monkeypatch.setattr(features, "_logmel_span", recorded)
    features._polyphase.cache_clear()
    rate = 37800
    logmel(np.zeros(3 * features._LOGMEL_BLOCK * features.HOP * rate // 16000), rate)
    assert len(cuts) == 2
    assert features._polyphase.cache_info().misses == 1


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and two usable CPUs",
)
def test_logmel_pinned_to_one_cpu_gives_the_frames_of_two_spans():
    code = """if True:
        import hashlib, os, sys
        import numpy as np
        from melscribe import features
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        x = np.random.default_rng(5).normal(0, 0.1, size=int(sys.argv[1]))
        print(hashlib.sha256(features.logmel(x, 44100).frames.tobytes()).hexdigest())
    """
    n = 5 * features._LOGMEL_BLOCK * features.HOP * 44100 // 16000
    proc = subprocess.run([sys.executable, "-c", code, str(n)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    samples = np.random.default_rng(5).normal(0, 0.1, size=n)
    frames = logmel(samples, 44100).frames  # in two spans, on this process's CPUs
    assert proc.stdout.strip() == hashlib.sha256(frames.tobytes()).hexdigest()


@pytest.mark.parametrize("rate", [16000, 44100])
def test_logmel_gives_float32_samples_the_frames_of_their_float64_values(rate):
    samples = np.random.default_rng(rate).normal(0, 0.1, size=three_blocks(rate))
    x32 = samples.astype(np.float32)
    assert np.array_equal(logmel(x32, rate).frames, logmel(x32.astype(np.float64), rate).frames)


def written(values):
    """write_ssft of features whose frames turned non-finite after they were checked."""
    feats = FeatureMatrix(31.25, np.zeros_like(values))
    feats.frames[:] = values
    write_ssft(os.devnull, feats)


@pytest.mark.parametrize("refuse", [
    pytest.param(lambda values: logmel(values.ravel().astype(np.float32), 16000), id="float32"),
    pytest.param(lambda values: logmel(values.ravel(), 16000), id="float64"),
    pytest.param(lambda values: FeatureMatrix(31.25, values), id="FeatureMatrix"),
    pytest.param(ResampledFeatures, id="ResampledFeatures"),
    pytest.param(written, id="write_ssft"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logmel_refuses_non_finite_samples(refuse, bad):
    """So does every other finiteness check: both feature types and write_ssft."""
    values = np.zeros((200, 5))
    values[100, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not read with a warning
        with pytest.raises(InputError, match="non-finite"):
            refuse(values)


def test_logmel_input_validation():
    with pytest.raises(InputError):
        logmel(np.zeros(0), 16000)
    with pytest.raises(InputError):
        logmel(np.zeros((10, 2)), 16000)
    with pytest.raises(InputError):
        logmel(np.full(100, np.nan), 16000)
    for rate in (44100.5, float("nan"), float("inf"), 0, -1, 384001, 10**9):
        with pytest.raises(InputError, match="positive whole number"):
            logmel(np.zeros(100), rate)
    assert logmel(np.zeros(100), features.MAX_SAMPLE_RATE).n_frames == 1


def test_mel_bands_hold_each_filterbank_weight_once():
    fb_t = features._mel_filterbank().T
    rebuilt = np.zeros_like(fb_t)
    held = np.zeros(fb_t.shape, dtype=int)
    for lo, hi, c0, c1, band in features._mel_bands():
        assert band.shape == (hi - lo, c1 - c0) and band.flags.c_contiguous
        rebuilt[lo:hi, c0:c1] = band
        held[lo:hi, c0:c1] += band != 0
    assert np.array_equal(rebuilt, fb_t)
    assert np.array_equal(held, fb_t != 0)  # every nonzero in exactly one band


def test_logmel_takes_a_whole_float_rate():
    samples = np.random.default_rng(5).normal(0, 0.1, size=44100)
    assert np.array_equal(logmel(samples, 44100.0).frames, logmel(samples, 44100).frames)


def test_load_wav_formats(tmp_path):
    rng = np.random.default_rng(2)
    samples = rng.uniform(-0.5, 0.5, size=1600)
    path = tmp_path / "a.wav"
    write_wav(path, samples, 16000)
    loaded, rate = load_wav(path)
    assert rate == 16000
    assert loaded.shape == (1600,)
    assert np.max(np.abs(loaded - samples)) < 1e-3
    import scipy.io.wavfile

    stereo = tmp_path / "st.wav"
    scipy.io.wavfile.write(stereo, 8000, np.stack([samples, -samples], axis=1))
    mono, rate = load_wav(stereo)
    assert rate == 8000
    assert np.max(np.abs(mono)) < 1e-6
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFnope")
    with pytest.raises(FormatError):
        load_wav(bad)


@pytest.mark.parametrize("rate", [8000, 11025, 22050, 32000, 44100, 48000, 44101])
def test_resample_matches_scipy_resample_poly(rate):
    import scipy.signal

    g = math.gcd(rate, features.SAMPLE_RATE)
    rng = np.random.default_rng(rate)
    for n in (1, 7, 441, 3 * rate + 13):
        x = rng.normal(size=n)
        want = scipy.signal.resample_poly(x, features.SAMPLE_RATE // g, rate // g)
        pieces = features._resampled(x, rate, features.SAMPLE_RATE)
        # each piece is a view of a reused buffer, so it is copied before the next
        got = np.concatenate([piece.copy() for piece in pieces])
        assert got.shape == want.shape, (n, got.shape, want.shape)
        assert np.max(np.abs(got - want)) <= 1e-12, n


def test_polyphase_cache_keeps_the_latest_rate_pairs_only():
    features._polyphase.cache_clear()
    for rate in (8000, 44100, 48000):
        next(features._resampled(np.ones(rate // 100), rate, features.SAMPLE_RATE))
    info = features._polyphase.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (3, 2, 2)
    next(features._resampled(np.ones(480), 48000, features.SAMPLE_RATE))
    assert features._polyphase.cache_info().hits == info.hits + 1


def scipy_samples(path):
    """load_wav's conversion of scipy.io.wavfile.read's array, before it read WAV itself."""
    import scipy.io.wavfile

    rate, data = scipy.io.wavfile.read(path)
    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        samples = data.astype(np.float64)
    return (samples.mean(axis=1) if samples.ndim == 2 else samples), rate


def riff(*chunks, magic=b"RIFF"):
    """A RIFF WAVE file of (id, body) chunks, odd bodies padded."""
    body = b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
        for cid, data in chunks
    )
    return magic + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_chunk(tag, channels, rate, width, extensible_tag=None):
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * channels * width,
                      channels * width, 8 * width)
    if extensible_tag is not None:  # cbSize, valid bits, channel mask, subformat GUID
        fmt += struct.pack("<HHI", 22, 8 * width, 0) + struct.pack("<I", extensible_tag)
        fmt += b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return fmt


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype", ["uint8", "int16", "int32", "float32", "float64"])
def test_load_wav_matches_scipy_reader(tmp_path, dtype, channels):
    import scipy.io.wavfile

    rng = np.random.default_rng(channels)
    if dtype.startswith("float"):
        data = rng.uniform(-1.0, 1.0, size=(999, channels)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=(999, channels), endpoint=True, dtype=dtype)
    path = tmp_path / "a.wav"
    scipy.io.wavfile.write(path, 22050, data[:, 0] if channels == 1 else data)
    samples, rate = load_wav(path)
    want, want_rate = scipy_samples(path)
    assert rate == want_rate == 22050
    assert samples.shape == (999,)
    assert np.array_equal(samples, want)


def test_load_wav_reads_24_bit_extensible_and_odd_chunks(tmp_path):
    rng = np.random.default_rng(3)
    ints = rng.integers(-(2**23), 2**23, size=(500, 2))
    pcm24 = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    pcm16 = rng.integers(-(2**15), 2**15, size=(300, 3)).astype("<i2").tobytes()
    files = {
        "pcm24.wav": riff((b"fmt ", fmt_chunk(1, 2, 44100, 3)), (b"data", pcm24)),
        "ext16.wav": riff((b"fmt ", fmt_chunk(0xFFFE, 3, 48000, 2, extensible_tag=1)),
                          (b"data", pcm16)),
        "list.wav": riff((b"fmt ", fmt_chunk(1, 3, 8000, 2)), (b"LIST", b"INFOx"),
                         (b"data", pcm16)),
    }
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
        samples, rate = load_wav(tmp_path / name)
        want, want_rate = scipy_samples(tmp_path / name)
        assert rate == want_rate, name
        assert np.array_equal(samples, want), name
    assert np.array_equal(load_wav(tmp_path / "pcm24.wav")[0], ints.mean(axis=1) / 2.0**23)


@pytest.mark.parametrize("blob", [
    riff((b"fmt ", fmt_chunk(1, 1, 8000, 2)), (b"data", b"\0\1" * 8), magic=b"RIFX"),
    b"RF64" + b"\xff" * 4 + b"WAVE" + b"ds64" + struct.pack("<IQQQI", 28, 0, 0, 0, 0),
    riff((b"fmt ", fmt_chunk(1, 1, 8000, 8)), (b"data", b"\0" * 16)),  # int64 PCM
    riff((b"fmt ", fmt_chunk(6, 1, 8000, 1)), (b"data", b"\0" * 16)),  # A-law
    riff((b"fmt ", fmt_chunk(1, 2, 8000, 2)), (b"data", b"\0" * 6)),  # 1.5 frames
    riff((b"fmt ", fmt_chunk(1, 1, 8000, 2))),  # no data chunk
    riff((b"data", b"\0" * 16)),  # no fmt chunk
    riff((b"fmt ", fmt_chunk(1, 1, 8000, 2)), (b"data", b"\0" * 16))[:-1],  # truncated
], ids=["rifx", "rf64", "int64", "alaw", "partial-frame", "no-data", "no-fmt", "truncated"])
def test_load_wav_refuses_with_the_file_named(tmp_path, blob):
    path = tmp_path / "x.wav"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_wav(path)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("fmt, narrow", [
    ("uint8", True), ("int16", True), ("int24", True), ("float32", True),
    ("int32", False), ("float64", False),
])
def test_load_wav_returns_the_narrowest_exact_dtype(tmp_path, fmt, narrow, channels):
    import scipy.io.wavfile

    rng = np.random.default_rng(channels)
    path = tmp_path / "a.wav"
    if fmt == "int24":
        ints = rng.integers(-(2**23), 2**23, size=(999, channels))
        pcm24 = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        path.write_bytes(riff((b"fmt ", fmt_chunk(1, channels, 22050, 3)), (b"data", pcm24)))
    elif fmt.startswith("float"):
        scipy.io.wavfile.write(path, 22050, rng.uniform(-1, 1, size=(999, channels)).astype(fmt))
    else:
        info = np.iinfo(fmt)
        data = rng.integers(info.min, info.max, size=(999, channels), endpoint=True, dtype=fmt)
        scipy.io.wavfile.write(path, 22050, data)
    samples, _ = load_wav(path)
    # mono 8-, 16- and 24-bit PCM and float32 fit float32 exactly; a channel mean does not
    assert samples.dtype == (np.float32 if narrow and channels == 1 else np.float64)
    assert np.array_equal(samples, scipy_samples(path)[0])


def test_load_wav_and_logmel_hold_float32_samples_plus_fixed_buffers(tmp_path):
    import tracemalloc

    rate, n = 44100, 180 * 44100
    logmel(np.zeros(rate), rate)  # builds the cached filterbank and resampling bands
    pcm = np.random.default_rng(7).integers(-3000, 3000, size=n, dtype="<i2")
    path = tmp_path / "song.wav"
    path.write_bytes(riff((b"fmt ", fmt_chunk(1, 1, rate, 2)), (b"data", pcm.tobytes())))
    del pcm
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        frames = logmel(*load_wav(path)).frames
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # 31.8 MB of float32 samples and 5.2 MB of frames; a whole-file read
    # next to float64 samples would add about 48 MB
    assert peak <= 4 * n + frames.nbytes + 16 * 2**20, (peak, frames.nbytes)


@pytest.mark.parametrize("n", [0, 1, 2, 199, 200, synth._WAV_PIECE, 2 * synth._WAV_PIECE + 7])
def test_write_wav_bytes_match_scipy_writer(tmp_path, n):
    """Against the whole-array conversion: widen, clip, scale, truncate."""
    import scipy.io.wavfile

    for dtype in (np.float32, np.float64):
        samples = np.random.default_rng(n).uniform(-1.2, 1.2, size=n).astype(dtype)
        write_wav(tmp_path / "a.wav", samples, 44100)
        clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
        scipy.io.wavfile.write(tmp_path / "b.wav", 44100, (clipped * 32767.0).astype("<i2"))
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes(), dtype


def test_write_wav_holds_fixed_buffers_whatever_the_length(tmp_path):
    import tracemalloc

    samples = np.random.default_rng(5).uniform(-1.2, 1.2, size=2**22).astype(np.float32)
    tracemalloc.start()
    try:
        write_wav(tmp_path / "a.wav", samples, 44100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a float64 piece and an int16 piece; a whole-length conversion
    # would hold 2**22 float64 samples, 32 MB
    assert peak <= 10 * synth._WAV_PIECE + 2**20, peak


def test_ssft_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    fm = FeatureMatrix(345.0, rng.normal(size=(40, 7)).astype(np.float32), t0_s=0.125)
    path = tmp_path / "x.ssft"
    write_ssft(path, fm)
    loaded = read_ssft(path, FeatureMatrix)
    assert loaded.rate_hz == fm.rate_hz
    assert loaded.t0_s == fm.t0_s
    assert loaded.frames.tobytes() == fm.frames.tobytes()

    rf = ResampledFeatures(rng.normal(size=(12, 7)).astype(np.float32))
    rpath = tmp_path / "r.ssft"
    write_ssft(rpath, rf)
    rback = read_ssft(rpath, ResampledFeatures)
    assert rback.frames.tobytes() == rf.frames.tobytes()


def test_ssft_round_trip_holds_the_frames_and_no_temporary(tmp_path):
    import tracemalloc

    fm = FeatureMatrix(31.25, np.random.default_rng(6946).normal(size=(6946, 229)).astype(np.float32))
    path = tmp_path / "song.ssft"
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        write_ssft(path, fm)
        back = read_ssft(path, FeatureMatrix)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert back.frames.tobytes() == fm.frames.tobytes()
    # a finiteness check through a bool array would add 1.5 MiB, once per side
    assert peak <= fm.frames.nbytes + 2**18, (peak, fm.frames.nbytes)


def test_ssft_writers_refuse_float32_overflow(tmp_path):
    # 1e39 is finite in float64 but overflows to inf in float32
    big = np.full((4, 2), 1e39)
    with pytest.raises(InputError, match="non-finite"):
        write_ssft(tmp_path / "x.ssft", FeatureMatrix(345.0, big))
    with pytest.raises(InputError, match="non-finite"):
        write_ssft(tmp_path / "r.ssft", ResampledFeatures(big))


def test_ssft_kind_mismatch(tmp_path):
    fm = FeatureMatrix(345.0, np.zeros((4, 2), dtype=np.float32))
    rf = ResampledFeatures(np.zeros((4, 2), dtype=np.float32))
    fixed = tmp_path / "fixed.ssft"
    ticks = tmp_path / "ticks.ssft"
    write_ssft(fixed, fm)
    write_ssft(ticks, rf)
    with pytest.raises(FormatError, match=r"ticks\.ssft: holds tick-indexed rows"):
        read_ssft(ticks, FeatureMatrix)
    with pytest.raises(FormatError, match=r"fixed\.ssft: holds fixed-rate frames"):
        read_ssft(fixed, ResampledFeatures)


def test_ssft_corruption(tmp_path):
    fm = FeatureMatrix(100.0, np.ones((3, 2), dtype=np.float32))
    path = tmp_path / "x.ssft"
    write_ssft(path, fm)
    blob = path.read_bytes()

    (tmp_path / "t.ssft").write_bytes(blob[:10])
    with pytest.raises(FormatError, match=r"t\.ssft: .*truncated"):
        read_ssft(tmp_path / "t.ssft", FeatureMatrix)

    (tmp_path / "m.ssft").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match=r"m\.ssft: .*magic"):
        read_ssft(tmp_path / "m.ssft", FeatureMatrix)

    (tmp_path / "v.ssft").write_bytes(blob[:4] + b"\x09\x00\x00\x00" + blob[8:])
    with pytest.raises(FormatError, match=r"v\.ssft: .*version"):
        read_ssft(tmp_path / "v.ssft", FeatureMatrix)

    (tmp_path / "p.ssft").write_bytes(blob + b"\x00\x00")
    with pytest.raises(FormatError, match=r"p\.ssft: .*payload"):
        read_ssft(tmp_path / "p.ssft", FeatureMatrix)

    for feats in (fm, ResampledFeatures(np.ones((4, 2), dtype=np.float32))):
        write_ssft(path, feats)
        payload = bytearray(path.read_bytes())
        payload[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        (tmp_path / "n.ssft").write_bytes(bytes(payload))
        with pytest.raises(FormatError, match=r"n\.ssft: [a-z ]+ contain non-finite values"):
            read_ssft(tmp_path / "n.ssft", type(feats))



def ssft_blob(rate, dim, n, t0):
    """An SSFT file whose payload has the length its header implies."""
    header = struct.pack("<4sIdIQd", b"SSFT", 1, rate, dim, n, t0)
    return header + np.zeros(n * dim, dtype="<f4").tobytes()


@pytest.mark.parametrize("blob", [
    ssft_blob(31.25, 0, 5, 0.0),
    ssft_blob(31.25, 3, 0, 0.0),
    ssft_blob(-31.25, 3, 2, 0.0),
    ssft_blob(31.25, 3, 2, math.nan),
    ssft_blob(0.0, 3, 3, 0.0),
    ssft_blob(31.25, 0, 2**63, 0.0),
    ssft_blob(0.0, 3, 4, 5.0),
    ssft_blob(0.0, 3, 4, math.nan),
    ssft_blob(0.0, 3, 4, math.inf),
], ids=["dim-0", "n-0", "negative-rate", "nan-t0", "3-tick-rows", "dim-0-huge-n",
        "tick-rows-t0-5", "tick-rows-nan-t0", "tick-rows-inf-t0"])
def test_ssft_header_faults_name_the_file(tmp_path, capsys, blob):
    path = tmp_path / "bad.ssft"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=re.escape(str(path)) + ": "):
        read_ssft(path)
    AlignmentMap([0.0, 0.5]).save(tmp_path / "a.json")
    code = main(["features", "resample", "--features", str(path),
                 "--alignment", str(tmp_path / "a.json"), "--out", str(tmp_path / "o.ssft")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "o.ssft").exists()


def test_read_ssft_refuses_a_file_that_shrinks_while_it_is_read(tmp_path, monkeypatch):
    path = tmp_path / "x.ssft"
    write_ssft(path, FeatureMatrix(31.25, np.ones((4, 3), dtype=np.float32)))
    path.write_bytes(path.read_bytes()[:-4])
    fstat = os.fstat  # reports the size the file had before it lost its last 4 bytes
    monkeypatch.setattr(features.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 4))
    with pytest.raises(FormatError, match=r"x\.ssft: truncated SSFT payload"):
        read_ssft(path, FeatureMatrix)


def constant_map(num_beats, seconds_per_beat=0.5, start=1.0):
    return AlignmentMap(start + seconds_per_beat * np.arange(num_beats + 1))


def features_covering(amap, rate, dim=3, margin=1.0, fill=None, seed=0):
    lo = amap.beat_to_time_s[0] - margin
    hi = amap.beat_to_time_s[-1] + margin
    n = int((hi - lo) * rate) + 1
    if fill is None:
        frames = np.random.default_rng(seed).normal(size=(n, dim)).astype(np.float32)
    else:
        frames = np.full((n, dim), fill, dtype=np.float32)
    return FeatureMatrix(rate, frames, t0_s=lo)


def cell_frame_counts(fm, amap):
    """Frames pooled per sixteenth-note cell, as beatwise_resample counts them."""
    starts = features._frame_starts(fm, features._cell_boundaries(amap)[1])
    return kernels.pool_segments(fm.frames, starts)[1]


def test_tick_frame_counts_uniform_case():
    amap = constant_map(8)  # 120 BPM: a sixteenth is 0.125 s
    fm = features_covering(amap, rate=80.0)  # exactly 10 frames per cell
    counts = cell_frame_counts(fm, amap)
    assert counts.shape == (32,)
    assert set(counts.tolist()) <= {9, 10, 11}
    assert counts.sum() <= fm.n_frames


def test_boundary_frame_ties_to_lower_tick():
    # beat length 0.4 s, one frame every 0.05 s starting exactly at beat 0:
    # the frame at each cell boundary (multiples of 0.1 s) belongs below.
    amap = AlignmentMap([0.0, 0.4, 0.8])
    fm = FeatureMatrix(20.0, np.ones((20, 1), dtype=np.float32), t0_s=0.0)
    counts = cell_frame_counts(fm, amap)
    assert counts.tolist() == [2, 2, 2, 2, 2, 2, 2, 2]


def test_beatwise_resample_means():
    amap = AlignmentMap([0.0, 0.4])
    frames = np.arange(8, dtype=np.float32).reshape(8, 1) + 1
    fm = FeatureMatrix(20.0, frames, t0_s=0.0)  # frames at 0.00, 0.05, ..., 0.35
    # cell boundaries: -0.05, 0.05, 0.15, 0.25, 0.35; boundary frames tie low
    out = beatwise_resample(fm, amap).frames
    assert out.shape == (4, 1)
    assert out[:, 0].tolist() == [1.5, 3.5, 5.5, 7.5]


def test_beatwise_resample_constant_input():
    amap = constant_map(4, seconds_per_beat=0.37)
    fm = features_covering(amap, rate=100.0, fill=2.5)
    out = beatwise_resample(fm, amap).frames
    assert np.max(np.abs(out - 2.5)) <= 1e-9


def test_beatwise_resample_fills_empty_cells():
    # 2 frames per second against 8 cells per second: most cells are empty
    amap = constant_map(2, seconds_per_beat=0.5)
    fm = features_covering(amap, rate=2.0, seed=4)
    out = beatwise_resample(fm, amap)
    assert out.num_ticks == 8
    # empty cells copy the nearest frame verbatim, so every output row is
    # bit-for-bit one of the source rows
    gaps = np.abs(
        out.frames[:, None, :] - fm.frames[None].astype(np.float64)
    ).max(axis=2).min(axis=1)
    assert np.max(gaps) == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_beatwise_resample_rows_are_the_float64_means_in_the_frames_dtype(dtype):
    # Two beats of 0.05 s cells against frames 0.125 s apart, then two of
    # 0.5 s cells: empty cells first, cells of three to five frames after.
    amap = AlignmentMap([1.0, 1.2, 1.4, 3.4, 5.4])
    fm = features_covering(amap, rate=8.0, dim=5, seed=39)
    fm = FeatureMatrix(fm.rate_hz, fm.frames.astype(dtype), fm.t0_s)
    tick_times, bounds = features._cell_boundaries(amap)
    means, counts = kernels.pool_segments(fm.frames, features._frame_starts(fm, bounds))
    assert (counts == 0).any() and (counts > 2).any()

    out = beatwise_resample(fm, amap).frames
    assert out.dtype == dtype
    full = counts > 0
    assert out[full].tobytes() == means[full].astype(dtype).tobytes()
    for t in np.flatnonzero(~full):
        j = np.argmin(np.abs(fm.frame_times_s - tick_times[t]))
        assert out[t].tobytes() == fm.frames[j].tobytes()


def test_beatwise_resample_empty_last_cell_after_all_frames():
    # frames at 0.0 s and 0.5 s; sixteenths at 0, 0.225, 0.45, 0.675 s.  The
    # last cell is empty and starts past the final frame, so it takes frame 1.
    fm = FeatureMatrix(2.0, np.arange(2.0)[:, None], t0_s=0.0)
    out = beatwise_resample(fm, AlignmentMap([0.0, 0.9])).frames
    assert out[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_beatwise_resample_coverage_error():
    amap = constant_map(4, seconds_per_beat=0.5, start=1.0)
    short = FeatureMatrix(
        100.0, np.zeros((150, 2), dtype=np.float32), t0_s=1.0
    )  # ends at 2.5 s, segment runs to 3.0 s
    with pytest.raises(InputError, match="sixteenth"):
        beatwise_resample(short, amap)
