import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from melscribe import htparse
from melscribe.align import AlignmentMap
from melscribe.cli import main
from melscribe.labeler.labels import densify_melody
from melscribe.labeler.train import reference_melody
from melscribe.synth import render_audio, write_wav


def beats(num, den=1):
    return {"num": num, "den": den}


def functional_doc(seg_id, artist, tonic=0, mode="major"):
    degrees = [1, 2, 3, 4, 5, 6, 7, 1]
    octaves = [0, 0, 0, 0, 0, 0, 0, 1]
    melody = [
        {
            "scale_degree": d,
            "accidental": 0,
            "rel_octave": o,
            "onset_beats": beats(i),
            "duration_beats": beats(1),
        }
        for i, (d, o) in enumerate(zip(degrees, octaves))
    ]
    chords = [
        {"degree": 1, "accidental": 0, "kind": "triad", "borrowed_mode": None,
         "onset_beats": beats(0), "duration_beats": beats(4)},
        {"degree": 5, "accidental": 0, "kind": "seventh", "borrowed_mode": None,
         "onset_beats": beats(4), "duration_beats": beats(4)},
    ]
    return json.dumps({
        "id": seg_id,
        "artist": artist,
        "audio_ref": f"{seg_id}-take",
        "start_s": 0.5,
        "end_s": 4.5,
        "meter": {"beats_per_bar": 4, "beat_unit": 4},
        "key": {"tonic_pc": tonic, "mode": mode},
        "key_changes": [],
        "meter_changes": [],
        "melody": melody,
        "chords": chords,
    })


def run(argv):
    """Invoke the CLI in-process, returning (exit_code, parsed_stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    text = buf.getvalue().strip()
    return code, json.loads(text) if text else None


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    raw = root / "raw"
    data = root / "data"
    raw.mkdir()
    specs = [("s00", "ann", 0), ("s01", "ann", 7), ("s02", "bob", 5), ("s03", "cly", 9)]
    for seg_id, artist, tonic in specs:
        (raw / f"{seg_id}.json").write_text(functional_doc(seg_id, artist, tonic))

    code, convert_out = run(["dataset", "convert", str(raw), "--out", str(data)])
    assert code == 0
    code, split_out = run([
        "dataset", "split", "--dir", str(data), "--artists", str(data / "artists.json"),
    ])
    assert code == 0

    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps(
        {"beats_s": [0.5 + 0.5 * i for i in range(12)], "downbeats": [0, 4, 8]}))
    refine_outs = {}
    for seg_id, _, _ in specs:
        code, out = run([
            "align", "refine", "--grid", str(grid_path), "--start", "0.5",
            "--beats", "8", "--out", str(data / f"{seg_id}.alignment.json"),
        ])
        assert code == 0
        refine_outs[seg_id] = out

    for seg_id, _, _ in specs:
        segment = htparse.load_segment(data / f"{seg_id}.segment.json")
        amap = AlignmentMap.load(data / f"{seg_id}.alignment.json")
        write_wav(raw / f"{seg_id}.wav", render_audio(segment.melody, amap))

    feat_dir = root / "feats"
    wavs = [str(raw / f"{seg_id}.wav") for seg_id, _, _ in specs]
    code, mel_out = run(["features", "mel", *wavs, "--out-dir", str(feat_dir)])
    assert code == 0
    for seg_id, _, _ in specs:
        code, _ = run([
            "features", "resample",
            "--features", str(feat_dir / f"{seg_id}.ssft"),
            "--alignment", str(data / f"{seg_id}.alignment.json"),
            "--out", str(data / f"{seg_id}.features.ssft"),
        ])
        assert code == 0

    ckpt = root / "model.ckpt"
    code, train_out = run([
        "train", "--data", str(data), "--out", str(ckpt),
        "--steps", "60", "--eval-every", "30", "--lr", "1e-3", "--batch-size", "4",
    ])
    assert code == 0

    segment = htparse.load_segment(data / "s00.segment.json")
    amap = AlignmentMap.load(data / "s00.alignment.json")
    ref_path = root / "s00.ref.json"
    from melscribe.evaluate import save_transcript

    save_transcript(ref_path, reference_melody(densify_melody(segment.melody, 8), amap))

    return {
        "root": root, "raw": raw, "data": data, "feats": feat_dir,
        "grid": grid_path, "ckpt": ckpt, "ref": ref_path,
        "convert": convert_out, "split": split_out,
        "refine": refine_outs, "mel": mel_out, "train": train_out,
    }


def test_convert_reports_counts(corpus):
    assert corpus["convert"]["converted"] == 4
    assert corpus["convert"]["rejected"] == 0
    artists = json.loads((corpus["data"] / "artists.json").read_text())
    assert artists == {"s00": "ann", "s01": "ann", "s02": "bob", "s03": "cly"}


def test_split_assigns_every_segment(corpus):
    out = corpus["split"]
    assert out["train"] + out["valid"] + out["test"] == 4
    assert out["train"] >= 1 and out["valid"] >= 1
    by_artist = {}
    for seg_path in sorted(corpus["data"].glob("*.segment.json")):
        seg = htparse.load_segment(seg_path)
        artists = json.loads((corpus["data"] / "artists.json").read_text())
        by_artist.setdefault(artists[seg.id], set()).add(seg.split)
    # no artist straddles two splits
    assert all(len(splits) == 1 for splits in by_artist.values())


def test_refine_reports_span(corpus):
    out = corpus["refine"]["s00"]
    assert out["beats"] == 8
    assert out["start_s"] == pytest.approx(0.5)
    assert out["end_s"] == pytest.approx(4.5)


def test_mel_reports_each_file(corpus):
    assert len(corpus["mel"]["files"]) == 4
    assert all(entry["frames"] > 0 for entry in corpus["mel"]["files"])
    assert all((corpus["feats"] / f"s{i:02d}.ssft").exists() for i in range(4))


def test_train_writes_checkpoint(corpus):
    assert corpus["ckpt"].exists()
    out = corpus["train"]
    assert out["steps_run"] <= 60
    assert 0.0 <= out["valid_f1"] <= 1.0
    assert out["best_step"] % 30 == 0


def test_transcribe_both_feature_kinds_match(corpus):
    root = corpus["root"]
    est_tick = root / "est_tick.json"
    est_rate = root / "est_rate.json"
    base = [
        "transcribe", "--checkpoint", str(corpus["ckpt"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
    ]
    code, out_a = run(base + ["--features", str(corpus["data"] / "s00.features.ssft"),
                             "--out", str(est_tick)])
    assert code == 0
    code, out_b = run(base + ["--features", str(corpus["feats"] / "s00.ssft"),
                             "--out", str(est_rate)])
    assert code == 0
    assert est_tick.read_text() == est_rate.read_text()
    assert out_a["notes"] == out_b["notes"]
    assert out_a["tau"] == corpus["train"]["tau"]


def test_transcribe_names_the_fault_in_a_damaged_tick_file(corpus, tmp_path):
    """A damaged tick-indexed SSFT is reported as such, not as the wrong kind."""
    blob = (corpus["data"] / "s00.features.ssft").read_bytes()
    cases = {
        "short.ssft": (blob[:-8], "header implies"),
        "nan.ssft": (blob[:-4] + np.array([np.nan], dtype="<f4").tobytes(), "non-finite"),
    }
    for name, (data, message) in cases.items():
        (tmp_path / name).write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "melscribe.cli", "transcribe",
             "--checkpoint", str(corpus["ckpt"]), "--features", str(tmp_path / name),
             "--alignment", str(corpus["data"] / "s00.alignment.json"),
             "--out", str(tmp_path / "est.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, (name, proc.stderr)
        assert proc.stderr.startswith("error:") and message in proc.stderr, proc.stderr
        assert "use load_resampled" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert not (tmp_path / "est.json").exists()


def test_chord_labeler_trains_and_feeds_the_lead_sheet(corpus, tmp_path):
    ckpt = tmp_path / "chords.ckpt"
    proc = subprocess.run(
        [sys.executable, "-m", "melscribe.cli", "train", "--data", str(corpus["data"]),
         "--out", str(ckpt), "--vocab", "chords", "--steps", "4", "--eval-every", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= json.loads(proc.stdout)["valid_f1"] <= 1.0
    assert ckpt.exists()
    changes = tmp_path / "changes.json"
    alignment = str(corpus["data"] / "s00.alignment.json")
    code, out = run([
        "transcribe", "--checkpoint", str(ckpt),
        "--features", str(corpus["data"] / "s00.features.ssft"),
        "--alignment", alignment, "--out", str(changes),
    ])
    assert code == 0
    assert out["chords"] == len(json.loads(changes.read_text())["changes"])
    code, out = run([
        "leadsheet", "--transcript", str(corpus["ref"]), "--alignment", alignment,
        "--chords", str(changes), "--lilypond", str(tmp_path / "sheet.ly"),
    ])
    assert code == 0
    assert (tmp_path / "sheet.ly").exists()


def test_transcribe_tau_override(corpus):
    out_path = corpus["root"] / "est_tau.json"
    code, out = run([
        "transcribe", "--checkpoint", str(corpus["ckpt"]),
        "--features", str(corpus["data"] / "s00.features.ssft"),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
        "--tau", "0.9", "--out", str(out_path),
    ])
    assert code == 0
    assert out["tau"] == 0.9


def test_transcribe_refuses_a_tau_outside_0_1_before_reading_a_file(tmp_path, capsys):
    out_path = tmp_path / "est.json"
    for tau in ("1.5", "nan"):
        with pytest.raises(SystemExit) as exc:
            main([
                "transcribe", "--checkpoint", str(tmp_path / "missing.ckpt"),
                "--features", str(tmp_path / "missing.ssft"),
                "--alignment", str(tmp_path / "missing.json"),
                "--tau", tau, "--out", str(out_path),
            ])
        assert exc.value.code == 2, tau
        assert "argument --tau: onset threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not out_path.exists()


def test_a_negative_seed_is_a_usage_error_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    for argv in (["train", "--data", missing, "--out", str(tmp_path / "m.ckpt")],
                 ["dataset", "split", "--dir", missing, "--artists", missing]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2, argv
        assert "argument --seed: seed must be non-negative, got -1" in capsys.readouterr().err


def test_train_refuses_its_settings_before_reading_the_data(tmp_path, capsys):
    out_path = tmp_path / "m.ckpt"
    for option, value, message in (
        ("--lr", "nan", "lr must be finite and >= 0, got nan"),
        ("--lr", "inf", "lr must be finite and >= 0, got inf"),
        ("--lr", "-0.001", "lr must be finite and >= 0, got -0.001"),
        ("--batch-size", "0", "batch_size must be >= 1 and max_steps >= 0"),
        ("--steps", "-1", "batch_size must be >= 1 and max_steps >= 0"),
    ):
        code = main(["train", "--data", str(tmp_path / "missing"), "--out", str(out_path),
                     option, value])
        assert code == 1, (option, value)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_path.exists()


def test_evaluate_self_is_perfect(corpus):
    ref = str(corpus["ref"])
    code, out = run(["evaluate", "--estimate", ref, "--reference", ref])
    assert code == 0
    assert out["f1"] == 1.0 and out["precision"] == 1.0 and out["recall"] == 1.0
    code, out = run([
        "evaluate", "--estimate", ref, "--reference", ref, "--octave-invariant",
    ])
    assert code == 0
    assert out["f1"] == 1.0 and out["best_sigma"] == 0


def test_evaluate_estimate_against_reference(corpus):
    est = corpus["root"] / "est_tick.json"
    if not est.exists():
        pytest.skip("transcription output not present")
    code, out = run([
        "evaluate", "--estimate", str(est), "--reference", str(corpus["ref"]),
        "--octave-invariant",
    ])
    assert code == 0
    assert 0.0 <= out["f1"] <= 1.0


def test_leadsheet_outputs(corpus):
    root = corpus["root"]
    chords_path = root / "chords.json"
    chords_path.write_text(json.dumps({
        "changes": [
            {"tick": 0, "root": 0, "quality": "maj"},
            {"tick": 16, "root": 7, "quality": "dom7"},
        ]
    }))
    ly = root / "sheet.ly"
    mid = root / "sheet.mid"
    code, out = run([
        "leadsheet", "--transcript", str(corpus["ref"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
        "--chords", str(chords_path),
        "--key", "0:major",
        "--lilypond", str(ly), "--midi", str(mid),
    ])
    assert code == 0
    assert out["key"] == {"tonic": 0, "mode": "major"}
    assert out["tempo_bpm"] == pytest.approx(120.0)
    assert out["notes"] == 8 and out["chords"] == 2
    text = ly.read_text()
    assert text.startswith('\\version')
    assert "\\key c \\major" in text
    assert mid.read_bytes()[:4] == b"MThd"


def test_leadsheet_auto_key(corpus):
    code, out = run([
        "leadsheet", "--transcript", str(corpus["ref"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
    ])
    assert code == 0
    # s00 is a C major scale
    assert out["key"] == {"tonic": 0, "mode": "major"}


def test_missing_input_exits_2(tmp_path):
    code, _ = run(["evaluate", "--estimate", str(tmp_path / "a.json"),
                   "--reference", str(tmp_path / "b.json")])
    assert code == 2


def test_missing_output_directory_exits_2_naming_the_path(corpus, tmp_path, capsys):
    ly = tmp_path / "nodir" / "out.ly"
    code, _ = run([
        "leadsheet", "--transcript", str(corpus["ref"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
        "--lilypond", str(ly),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ly) in err and "input" not in err, err


def test_unusable_input_paths_exit_2(corpus, tmp_path):
    commands = [
        ["evaluate", "--estimate", str(tmp_path), "--reference", str(corpus["ref"])],
        ["features", "resample", "--features", str(tmp_path),
         "--alignment", str(corpus["data"] / "s00.alignment.json"),
         "--out", str(tmp_path / "out.ssft")],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "melscribe.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert proc.stderr.startswith("error:"), proc.stderr


def test_an_existing_file_as_output_directory_exits_2(tmp_path):
    (tmp_path / "doc.json").write_text(functional_doc("f00", "ann"))
    write_wav(tmp_path / "x.wav", np.zeros(1600, dtype=np.float32), 16000)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    commands = [
        ["dataset", "convert", str(tmp_path / "doc.json"), "--out", str(taken)],
        ["features", "mel", str(tmp_path / "x.wav"), "--out-dir", str(taken)],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "melscribe.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: unusable path: "), proc.stderr
        assert str(taken) in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        assert taken.read_text() == "not a directory"


def test_huge_integer_in_transcript_exits_1(corpus, tmp_path):
    """A number no float holds, or too long for Python to parse, is a format error."""
    path = tmp_path / "huge.json"
    for digits in (400, 5000):
        path.write_text('[{"onset_s": 1%s, "offset_s": 1.0, "midi": 60}]' % ("0" * digits))
        proc = subprocess.run(
            [sys.executable, "-m", "melscribe.cli", "evaluate", "--estimate", str(path),
             "--reference", str(corpus["ref"])],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, (digits, proc.stderr)
        assert "Traceback" not in proc.stderr, (digits, proc.stderr)
        assert proc.stderr.startswith("error:"), proc.stderr


def test_mel_jobs_match_serial_bytes(corpus, tmp_path):
    wavs = [str(corpus["raw"] / "s00.wav"), str(corpus["raw"] / "s01.wav")]
    for jobs in ("1", "2"):
        code, _ = run(["features", "mel", *wavs, "--out-dir", str(tmp_path / jobs),
                       "--jobs", jobs])
        assert code == 0
    for stem in ("s00", "s01"):
        serial = (tmp_path / "1" / f"{stem}.ssft").read_bytes()
        assert (tmp_path / "2" / f"{stem}.ssft").read_bytes() == serial


def test_mel_jobs_below_one_are_a_usage_error(corpus, tmp_path, capsys):
    wav = str(corpus["raw"] / "s00.wav")
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["features", "mel", wav, "--out-dir", str(tmp_path / "out"), "--jobs", jobs])
        assert exc.value.code == 2, jobs
        assert f"argument --jobs: jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.ssft")) and not (tmp_path / "out").exists()


def test_import_loads_no_scipy_or_process_pool(tmp_path):
    heavy = ["scipy.signal", "scipy.io", "multiprocessing", "concurrent.futures",
             "concurrent.futures.process"]
    wavs = [str(tmp_path / f"{name}.wav") for name in ("a", "b")]
    for wav in wavs:
        write_wav(wav, np.zeros(1600, dtype=np.float32), 16000)
    argv = ["features", "mel", *wavs, "--out-dir", str(tmp_path / "out"), "--jobs", "2"]
    code = (
        "import sys, contextlib, melscribe.cli, melscribe.features\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        f"    assert melscribe.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
        "             or m == 'concurrent.futures.process'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a.ssft", "b.ssft"]


def test_mel_stops_at_the_first_bad_file_for_any_jobs(tmp_path, capsys):
    bad, good = tmp_path / "a_bad.wav", tmp_path / "b_good.wav"
    bad.write_bytes(b"RIFF")
    write_wav(str(good), np.zeros(1600, dtype=np.float32), 16000)
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"out{jobs}"
        code = main(["features", "mel", str(bad), str(good), "--out-dir", str(out_dir),
                     "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", jobs
        assert captured.err == f"error: {bad}: not a little-endian RIFF WAVE file\n", jobs
        assert not (out_dir / "b_good.ssft").exists(), jobs


def test_wav_codec_and_logmel_load_no_scipy(tmp_path):
    path = str(tmp_path / "a.wav")
    code = (
        "import sys, numpy as np\n"
        "from melscribe.features import load_wav, logmel\n"
        "from melscribe.synth import write_wav\n"
        f"write_wav({path!r}, 0.5 * np.sin(np.arange(44100) / 7.0), 44100)\n"
        f"assert logmel(*load_wav({path!r})).n_frames == 32\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_domain_errors_exit_1(corpus, tmp_path):
    code, _ = run([
        "leadsheet", "--transcript", str(corpus["ref"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
        "--key", "0:dorian",
    ])
    assert code == 1
    code, _ = run([
        "leadsheet", "--transcript", str(corpus["ref"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
        "--meter", "common-time",
    ])
    assert code == 1
    chords_path = tmp_path / "chords.json"
    for changes in ({"changes": 0}, {"changes": [{"tick": "x", "root": 0, "quality": "maj"}]}):
        chords_path.write_text(json.dumps(changes))
        code, _ = run([
            "leadsheet", "--transcript", str(corpus["ref"]),
            "--alignment", str(corpus["data"] / "s00.alignment.json"),
            "--chords", str(chords_path),
        ])
        assert code == 1, changes


def test_a_sheet_the_midi_writer_refuses_leaves_no_lilypond_file(corpus, tmp_path, capsys):
    ly, mid = tmp_path / "out.ly", tmp_path / "out.mid"
    code, _ = run([
        "leadsheet", "--transcript", str(corpus["ref"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
        "--meter", "301/4", "--lilypond", str(ly), "--midi", str(mid),
    ])
    assert code == 1
    assert "time signature numerator 301 outside 1..255" in capsys.readouterr().err
    assert not ly.exists() and not mid.exists()


def test_a_midi_path_that_cannot_be_written_leaves_no_lilypond_file(corpus, tmp_path, capsys):
    ly, mid = tmp_path / "out.ly", tmp_path / "nodir" / "out.mid"
    code, _ = run([
        "leadsheet", "--transcript", str(corpus["ref"]),
        "--alignment", str(corpus["data"] / "s00.alignment.json"),
        "--lilypond", str(ly), "--midi", str(mid),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: not found: ")
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data"])
    assert exc.value.code == 2
    for outs in ([], ["--out", "a.ssft", "--out-dir", "d"]):
        with pytest.raises(SystemExit) as exc:
            main(["features", "mel", "a.wav", *outs])
        assert exc.value.code == 2, outs
    # --out takes one input; refused before any file is opened or written
    wavs = [str(tmp_path / f"{name}.wav") for name in ("a", "b")]
    for wav in wavs:
        write_wav(wav, np.zeros(1600, dtype=np.float32), 16000)
    out = tmp_path / "x.ssft"
    with pytest.raises(SystemExit) as exc:
        main(["features", "mel", *wavs, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_mel_refuses_inputs_that_would_write_one_output(tmp_path, capsys):
    # a/x.wav and b/x.wav both map to out/x.ssft; refused before any file is read
    wavs = [tmp_path / side / "x.wav" for side in ("a", "b")]
    for wav in wavs:
        wav.parent.mkdir()
        write_wav(wav, np.zeros(1600, dtype=np.float32), 16000)
    out_dir = tmp_path / "out"
    for jobs in ("1", "2"):
        with pytest.raises(SystemExit) as exc:
            main(["features", "mel", *map(str, wavs), "--out-dir", str(out_dir),
                  "--jobs", jobs])
        assert exc.value.code == 2
        assert f"2 inputs would write {out_dir / 'x.ssft'}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_convert_skips_bad_documents(tmp_path, capsys):
    good = functional_doc("g00", "ann")
    bad = json.dumps({"id": "b00", "unexpected": True})
    (tmp_path / "good.json").write_text(good)
    (tmp_path / "bad.json").write_text(bad)
    out_dir = tmp_path / "out"
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe" + good.encode("utf-16-le"))
    (tmp_path / "numeric_artist.json").write_text(functional_doc("n00", 5))
    code, out = run(["dataset", "convert", str(tmp_path), "--out", str(out_dir)])
    assert code == 0
    assert out == {"converted": 1, "rejected": 3, "out": str(out_dir)}
    skipped = capsys.readouterr().err.splitlines()
    for name, where in (("bad", "$"), ("numeric_artist", "$.artist"), ("utf16", "invalid JSON")):
        path = str(tmp_path / f"{name}.json")
        line = next(line for line in skipped if path in line)
        assert line.startswith(f"skipped {path}: {where}") and line.count(path) == 1, line
    assert json.loads((out_dir / "artists.json").read_text()) == {"g00": "ann"}
    code, out = run([
        "dataset", "convert", str(tmp_path / "bad.json"), "--out", str(out_dir),
    ])
    assert code == 1
    assert out["converted"] == 0


def test_convert_keeps_segment_files_inside_out(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "escape.json").write_text(functional_doc("../escaped", "ann"))
    out_dir = tmp_path / "out"
    code, out = run(["dataset", "convert", str(raw), "--out", str(out_dir)])
    assert code == 1
    assert out == {"converted": 0, "rejected": 1, "out": str(out_dir)}
    assert not (tmp_path / "escaped.segment.json").exists()
    assert sorted(p.name for p in out_dir.iterdir()) == ["artists.json"]
    err = capsys.readouterr().err
    assert f"skipped {raw / 'escape.json'}: $.id: segment id '../escaped'" in err, err


def test_convert_skips_a_duplicate_id(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.json").write_text(functional_doc("same", "ann"))
    (raw / "b.json").write_text(functional_doc("same", "bob", tonic=2))
    (raw / "c.json").write_text(functional_doc("other", "cat"))
    out_dir = tmp_path / "out"
    code, out = run(["dataset", "convert", str(raw), "--out", str(out_dir)])
    assert code == 0
    assert out == {"converted": 2, "rejected": 1, "out": str(out_dir)}
    assert json.loads((out_dir / "artists.json").read_text()) == {"same": "ann", "other": "cat"}
    assert htparse.load_segment(out_dir / "same.segment.json").key.tonic.pc == 0
    err = capsys.readouterr().err
    assert f"skipped {raw / 'b.json'}: duplicate id 'same'" in err, err


def test_split_requires_artist_records(tmp_path):
    (tmp_path / "g00.json").write_text(functional_doc("g00", "ann"))
    out_dir = tmp_path / "out"
    code, _ = run(["dataset", "convert", str(tmp_path), "--out", str(out_dir)])
    assert code == 0
    for artists in ("{}", "{", '["ann"]', '{"g00": ["ann"]}'):
        (out_dir / "artists.json").write_text(artists)
        code, _ = run([
            "dataset", "split", "--dir", str(out_dir),
            "--artists", str(out_dir / "artists.json"),
        ])
        assert code == 1, artists


def test_split_names_a_segment_with_no_artist_and_writes_nothing(tmp_path, capsys):
    for seg_id in ("g00", "g01"):
        (tmp_path / f"{seg_id}.json").write_text(functional_doc(seg_id, "ann"))
    out_dir = tmp_path / "out"
    code, _ = run(["dataset", "convert", str(tmp_path), "--out", str(out_dir)])
    assert code == 0
    (out_dir / "artists.json").write_text('{"g00": "ann"}')
    segments = {p: p.read_bytes() for p in out_dir.glob("*.segment.json")}
    capsys.readouterr()
    code, out = run([
        "dataset", "split", "--dir", str(out_dir), "--artists", str(out_dir / "artists.json"),
    ])
    assert (code, out) == (1, None)
    assert capsys.readouterr().err == "error: no artist recorded for segment 'g01'\n"
    assert len(segments) == 2
    assert {p: p.read_bytes() for p in out_dir.glob("*.segment.json")} == segments


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "melscribe.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "melscribe" in proc.stdout
    assert "transcribe" in proc.stdout


def _wrong_typed_inputs(tmp_path):
    """Per command: its argv over one file with a wrong-typed field, the
    file and JSON path the error must name, and the output it must not write."""
    data = tmp_path / "data"
    data.mkdir()
    (tmp_path / "s.json").write_text(functional_doc("s", "a"))
    htparse.save_segment(data / "s.segment.json", htparse.load_functional(tmp_path / "s.json")[0])
    segment = json.loads((data / "s.segment.json").read_text())
    segment.update(id=5, split="train")
    (data / "s.segment.json").write_text(json.dumps(segment))
    (tmp_path / "grid.json").write_text(
        json.dumps({"beats_s": [0.5, 1.0, 1.5, 2.0], "downbeats": [True]}))
    AlignmentMap([0.5, 1.0, 1.5, 2.0]).save(tmp_path / "a.json")
    (tmp_path / "t.json").write_text(json.dumps([{"onset_s": 0.5, "offset_s": 1.0, "midi": 60}]))
    (tmp_path / "c.json").write_text(
        json.dumps({"changes": [{"tick": 5.7, "root": 0, "quality": "maj"}]}))
    return {
        "train": (["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                   "--steps", "1"], "s.segment.json: $.id", "m.ckpt"),
        "align-refine": (["align", "refine", "--grid", str(tmp_path / "grid.json"),
                          "--start", "0.5", "--beats", "2",
                          "--out", str(tmp_path / "out.json")],
                         "grid.json: $.downbeats", "out.json"),
        "leadsheet": (["leadsheet", "--transcript", str(tmp_path / "t.json"),
                       "--alignment", str(tmp_path / "a.json"),
                       "--chords", str(tmp_path / "c.json"),
                       "--lilypond", str(tmp_path / "out.ly")],
                      "c.json: $.changes[0].tick", "out.ly"),
    }


@pytest.mark.parametrize("command", ["train", "align-refine", "leadsheet"])
def test_wrong_typed_json_field_exits_1_naming_it(tmp_path, command):
    argv, where, output = _wrong_typed_inputs(tmp_path)[command]
    proc = subprocess.run([sys.executable, "-m", "melscribe.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith("error: ") and where in proc.stderr, proc.stderr
    assert proc.stderr.count(where.split(":")[0]) == 1, proc.stderr
    assert not (tmp_path / output).exists()
