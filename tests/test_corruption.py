"""Damaged input files fail closed.

Each file is truncated at every length through its header and a few
payload bytes, then at a stride through the payload, and given seeded
single-byte flips.  Loaders may accept a damaged file that still parses
(a flipped payload byte is just another value) but may raise nothing
except MelscribeError subclasses; the CLI turns those into exit code 1
without a traceback.
"""

import functools
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from melscribe import htparse
from melscribe.align import AlignmentMap, BeatGrid
from melscribe.core import Melody, Pitch, ScoreNote
from melscribe.errors import FormatError, MelscribeError
from melscribe.evaluate import load_transcript, save_transcript
from melscribe.features import (
    FeatureMatrix,
    ResampledFeatures,
    load_wav,
    read_ssft,
    write_ssft,
)
from melscribe.labeler.checkpoint import load_checkpoint, save_checkpoint
from melscribe.labeler.config import LabelerConfig
from melscribe.labeler.labels import densify_melody
from melscribe.labeler.model import init_params
from melscribe.labeler.train import reference_melody
from melscribe.leadsheet import load_chord_changes
from melscribe.synth import write_wav

SSFT_HEADER = 32
CFG = LabelerConfig(layers=1, model_dim=4, heads=1, ff_dim=4, input_dim=3)


def damaged(blob: bytes, head: int, seed: int, flips: int = 300):
    """Truncations through head + 8 bytes, a stride of them after, and byte flips."""
    cut = min(head + 8, len(blob))
    yield from (blob[:n] for n in range(cut))
    yield from (blob[:n] for n in range(cut, len(blob), max(1, (len(blob) - cut) // 16)))
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        data = bytearray(blob)
        data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        yield bytes(data)


def assert_fails_closed(load, path, variants):
    for data in variants:
        path.write_bytes(data)
        try:
            load(path)
        except MelscribeError as exc:  # the CLI prints it, so it must name the file
            assert str(path) in str(exc), f"{exc!r} does not name {path}"
        except Exception as exc:  # anything else would reach the user as a traceback
            pytest.fail(f"{exc!r} escaped loading {len(data)} bytes: {data[:80]!r}...")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    rng = np.random.default_rng(0)
    amap = AlignmentMap([0.5, 1.0, 1.5, 2.0])
    melody = Melody((ScoreNote(0, 4, Pitch(60)), ScoreNote(4, 6, Pitch(64)),
                     ScoreNote(10, 2, Pitch(67))))
    paths = {name: root / name for name in (
        "fixed.ssft", "ticks.ssft", "m.ckpt", "a.json", "t.json", "s.json", "g.json",
        "c.json", "f.json")}
    write_ssft(paths["fixed.ssft"], FeatureMatrix(31.25, rng.normal(size=(80, 3))))
    write_ssft(paths["ticks.ssft"], ResampledFeatures(rng.normal(size=(12, 3))))
    save_checkpoint(paths["m.ckpt"], CFG, init_params(CFG), 0.4, 10)
    amap.save(paths["a.json"])
    save_transcript(paths["t.json"], reference_melody(densify_melody(melody, 3), amap))
    paths["s.json"].write_text(json.dumps({
        "id": "s", "audio_ref": "s.wav", "split": "train",
        "user_start_s": 0.5, "user_end_s": 2.0,
        "meter": {"beats_per_bar": 4, "beat_unit": 4},
        "key": {"tonic_pc": 0, "mode": "major"},
        "melody": [{"onset_ticks": 0, "duration_ticks": 4, "midi": 60}],
        "chords": [{"onset_ticks": 0, "duration_ticks": 12, "root_pc": 0,
                    "quality": "maj"}],
    }))
    paths["g.json"].write_text(json.dumps(
        {"beats_s": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0], "downbeats": [0, 4]}))
    paths["c.json"].write_text(json.dumps({"changes": [
        {"tick": 0, "root": 0, "quality": "maj"}, {"tick": 8, "root": 7, "quality": "dom7"}]}))
    beat = {"num": 1, "den": 1}
    paths["f.json"].write_text(json.dumps({
        "id": "f", "artist": "a", "audio_ref": "f.wav", "start_s": 0.5, "end_s": 2.0,
        "meter": {"beats_per_bar": 4, "beat_unit": 4},
        "key": {"tonic_pc": 0, "mode": "major"}, "key_changes": [], "meter_changes": [],
        "melody": [{"scale_degree": 1, "accidental": 0, "rel_octave": 0,
                    "onset_beats": {"num": 0, "den": 1}, "duration_beats": beat}],
        "chords": [{"degree": 5, "accidental": 0, "kind": "seventh", "borrowed_mode": None,
                    "onset_beats": {"num": 1, "den": 2}, "duration_beats": beat}],
    }))
    htparse.load_segment(paths["s.json"])  # the undamaged files load
    BeatGrid.load(paths["g.json"])
    load_chord_changes(paths["c.json"])
    htparse.load_functional(paths["f.json"])
    return paths


@pytest.mark.parametrize("name, kind, seed", [
    ("fixed.ssft", FeatureMatrix, 1),
    ("fixed.ssft", ResampledFeatures, 2),
    ("ticks.ssft", ResampledFeatures, 3),
    ("ticks.ssft", FeatureMatrix, 4),
], ids=["fixed", "fixed-as-ticks", "ticks", "ticks-as-fixed"])
def test_ssft_loaders_fail_closed(files, tmp_path, name, kind, seed):
    blob = files[name].read_bytes()
    load = functools.partial(read_ssft, kind=kind)
    assert_fails_closed(load, tmp_path / "x.ssft", damaged(blob, SSFT_HEADER, seed))


def test_checkpoint_loader_fails_closed(files, tmp_path):
    blob = files["m.ckpt"].read_bytes()
    head = 12 + int.from_bytes(blob[8:12], "little")
    assert_fails_closed(load_checkpoint, tmp_path / "x.ckpt", damaged(blob, head, 5))


@pytest.mark.parametrize("name, load, seed", [
    ("a.json", AlignmentMap.load, 6),
    ("t.json", load_transcript, 7),
    ("s.json", htparse.load_segment, 8),
    ("g.json", BeatGrid.load, 9),
    ("c.json", load_chord_changes, 10),
    ("f.json", htparse.load_functional, 11),
], ids=["alignment", "transcript", "segment", "beat-grid", "chord-changes", "functional"])
def test_json_loaders_fail_closed(files, tmp_path, name, load, seed):
    blob = files[name].read_bytes()
    assert_fails_closed(load, tmp_path / "x.json", damaged(blob, len(blob), seed))


def test_wav_loader_fails_closed(tmp_path):
    path = tmp_path / "good.wav"
    write_wav(path, np.random.default_rng(12).uniform(-0.5, 0.5, size=200))
    load_wav(path)  # the undamaged file loads
    blob = path.read_bytes()
    for n in range(44, len(blob)):  # a payload shorter than the header says
        (tmp_path / "short.wav").write_bytes(blob[:n])
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "short.wav"))):
            load_wav(tmp_path / "short.wav")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # damage is refused, never read with a warning
        assert_fails_closed(load_wav, tmp_path / "x.wav", damaged(blob, 44, 12))


def test_cli_mel_exits_1_on_a_damaged_wav_and_2_on_an_unusable_path(tmp_path):
    (tmp_path / "x.wav").write_bytes(b"RIFF")
    write_wav(tmp_path / "half.wav", np.zeros(32000))  # 2 s, then cut in half
    blob = (tmp_path / "half.wav").read_bytes()
    (tmp_path / "half.wav").write_bytes(blob[: len(blob) // 2])
    (tmp_path / "dir.wav").mkdir()
    for name, code in (("x.wav", 1), ("half.wav", 1), ("dir.wav", 2), ("missing.wav", 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "melscribe.cli", "features", "mel",
             str(tmp_path / name), "--out", str(tmp_path / "x.ssft")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, (name, proc.stderr)
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert not (tmp_path / "x.ssft").exists()


def test_cli_mel_names_the_wav_whose_rate_or_samples_logmel_refuses(tmp_path):
    import scipy.io.wavfile

    write_wav(tmp_path / "fast.wav", np.zeros(1000), 10**9)
    scipy.io.wavfile.write(tmp_path / "nan.wav", 16000, np.full(1000, np.nan, np.float32))
    for name in ("fast.wav", "nan.wav"):
        proc = subprocess.run(
            [sys.executable, "-m", "melscribe.cli", "features", "mel",
             str(tmp_path / name), "--out", str(tmp_path / "x.ssft")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert str(tmp_path / name) in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert not (tmp_path / "x.ssft").exists()


def test_cli_exits_without_traceback_on_damaged_files(files, tmp_path):
    fixed = files["fixed.ssft"].read_bytes()
    ticks = files["ticks.ssft"].read_bytes()
    ckpt = files["m.ckpt"].read_bytes()
    (tmp_path / "fixed.ssft").write_bytes(fixed[: SSFT_HEADER + 5])
    (tmp_path / "ticks.ssft").write_bytes(ticks[:4] + b"\x02" + ticks[5:])  # version 2
    (tmp_path / "m.ckpt").write_bytes(ckpt[:-3])
    (tmp_path / "t.json").write_bytes(b"\xff\xfe" + files["t.json"].read_bytes())
    good = {name: str(files[name]) for name in files}
    commands = [
        ["features", "resample", "--features", str(tmp_path / "fixed.ssft"),
         "--alignment", good["a.json"], "--out", str(tmp_path / "out.ssft")],
        ["transcribe", "--checkpoint", good["m.ckpt"], "--features",
         str(tmp_path / "ticks.ssft"), "--alignment", good["a.json"],
         "--out", str(tmp_path / "est.json")],
        ["transcribe", "--checkpoint", str(tmp_path / "m.ckpt"), "--features",
         good["ticks.ssft"], "--alignment", good["a.json"],
         "--out", str(tmp_path / "est.json")],
        ["evaluate", "--estimate", str(tmp_path / "t.json"), "--reference", good["t.json"]],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "melscribe.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode in (1, 2), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
