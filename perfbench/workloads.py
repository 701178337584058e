"""The four workloads: set-up, one round of operations, and checks.

Constructing a workload is its set-up (timed, and repeated by the
harness): it makes the seeded inputs and warms up.  ``run_round`` runs
every operation of one round once and returns the work it did in the
unit ``items_per_s`` counts: audio seconds for transcribe and cli,
training steps for train, pairs for score.  Outputs of the first round
are kept for ``check``; later rounds must reproduce them exactly.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from melscribe.align import AlignmentMap
from melscribe.core import Meter
from melscribe.evaluate import load_transcript, note_f1, octave_invariant_f1, save_transcript
from melscribe.features import (
    beatwise_resample,
    load_features,
    load_resampled,
    load_wav,
    logmel,
    save_features,
    save_resampled,
)
from melscribe.labeler import (
    decode,
    forward_windowed,
    load_checkpoint,
    reference_melody,
    train,
)
from melscribe.leadsheet import assemble, emit_lilypond, emit_midi
from tracing import NullTracer

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "desk.ckpt"
TRANSCRIBE_SONGS = 4
CLI_SONGS = 2
TRAIN_STEPS = 1500
#: Lowest octave-invariant F1 a transcribed song may score against its
#: generated melody; see README.md for the spread this sits under.
SONG_F1_FLOOR = 0.25
#: Acceptance criterion 5.
HELDOUT_F1_FLOOR = 0.80


@dataclass
class Round:
    """What one round did: work in items, operations attempted and failed,
    the wall seconds the items took (``train()`` alone on train), and on
    score those seconds scaled to the reference interpreter speed."""

    items: float
    attempted: int
    failed: int
    wall_s: float
    scaled_s: float | None = None

    @property
    def rate(self) -> float:
        return self.items / (self.scaled_s if self.scaled_s is not None else self.wall_s)


#: Seconds ``calibration_s`` takes on the reference box (README.md).
CALIBRATION_REFERENCE_S = 0.004


def calibration_s() -> float:
    """Wall seconds of a fixed pure-Python job: dict, list and str work and
    a JSON round trip, the kind of work that bounds the score workload.

    On this kind of shared host the interpreter's speed drifts by up to a
    third within a minute while array-bound code moves much less; timing
    this job right before and after a score round measures the drift that
    round saw.  The job runs three times and the fastest counts, so that
    one preemption does not.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        for i in range(10000):
            table[i % 97] = [i, str(i)]
        json.loads(json.dumps([{"a": i, "b": i * 0.5} for i in range(700)]))
        times.append(time.perf_counter() - started)
    return min(times)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _render(seed: int, count: int, out_dir: Path, env: dict) -> list[dict]:
    out_dir.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed),
         "--count", str(count), "--out", str(out_dir)],
        check=True, env=env,
    )
    return inputs.load_songs(out_dir)


def _song_f1(entries: list[dict], song: dict) -> float:
    est = [(e["onset_s"], e["midi"]) for e in entries]
    return checks.reference_report(est, inputs.reference_notes(song), True)["f1"]


class Transcribe:
    """Songs from WAV to LilyPond and MIDI, files between stages as the CLI."""

    def __init__(self, seed: int, work: Path, env: dict) -> None:
        self.work = work
        self.songs = _render(seed, TRANSCRIBE_SONGS, work / "songs", env)
        for song in self.songs:
            AlignmentMap(song["beat_to_time_s"]).save(work / f"{song['id']}.alignment.json")
        self.kept: dict[str, dict] = {}
        self.transcripts: dict[str, str] = {}
        warm = next(s for s in self.songs if s["rate"] == inputs.RATES[1])
        self._song(warm, NullTracer())

    def _song(self, song: dict, tracer) -> dict:
        span = tracer.span
        stem = self.work / song["id"]
        with span("features.load_wav"):
            samples, rate = load_wav(self.work / "songs" / f"{song['id']}.wav")
        with span("features.logmel"):
            feats = logmel(samples, rate)
        with span("features.ssft_io"):
            save_features(f"{stem}.ssft", feats)
            feats = load_features(f"{stem}.ssft")
        amap = AlignmentMap.load(f"{stem}.alignment.json")
        with span("features.beatwise_resample"):
            resampled = beatwise_resample(feats, amap)
        with span("features.ssft_io"):
            save_resampled(f"{stem}.features.ssft", resampled)
            resampled = load_resampled(f"{stem}.features.ssft")
        with span("labeler.load_checkpoint"):
            cfg, params, tau, _ = load_checkpoint(CHECKPOINT)
        with span("labeler.forward_windowed"):
            logits = forward_windowed(cfg, params, resampled.frames)
        with span("labeler.decode"):
            melody = decode(logits, tau, amap)
        with span("evaluate.transcript_io"):
            save_transcript(f"{stem}.est.json", melody)
            melody = load_transcript(f"{stem}.est.json")
        with span("leadsheet.assemble"):
            sheet = assemble(melody, [], amap, Meter(4, 4), None)
        with span("leadsheet.emit"):
            Path(f"{stem}.ly").write_text(emit_lilypond(sheet), encoding="utf-8")
            Path(f"{stem}.mid").write_bytes(emit_midi(sheet, amap))
        return {"feats": feats, "rows": resampled.frames, "logits": logits, "tau": tau,
                "sheet": [(n.onset_ticks, n.pitch.midi) for n in sheet.melody]}

    def run_round(self, tracer, round_no: int) -> Round:
        started = time.perf_counter()
        failed = 0
        for song in self.songs:
            tracer.op = f"{song['id']}/{round_no}"
            try:
                with tracer.span("transcribe.song"):
                    out = self._song(song, tracer)
            except Exception as exc:  # a failed song is counted, the run goes on
                print(f"{song['id']}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            text = Path(self.work / f"{song['id']}.est.json").read_text(encoding="utf-8")
            if song["id"] not in self.kept:
                self.kept[song["id"]] = out
                self.transcripts[song["id"]] = text
            elif text != self.transcripts[song["id"]]:
                self.transcripts[song["id"]] = None  # rounds disagree
        return Round(sum(s["audio_s"] for s in self.songs), len(self.songs), failed,
                     time.perf_counter() - started)

    def check(self) -> tuple[list[str], list[float]]:
        problems, f1s = [], []
        for song in self.songs:
            sid = song["id"]
            if sid not in self.kept:
                continue
            out = self.kept[sid]
            bt = song["beat_to_time_s"]
            feats = out["feats"]
            found = checks.check_resampled(out["rows"], feats.frames, feats.t0_s,
                                           feats.rate_hz, bt)
            found += checks.check_loudest_band(out["rows"], song["melody"], bt)
            expected = checks.threshold_notes(out["logits"], out["tau"], bt)
            if self.transcripts[sid] is None:
                found.append("transcripts differ between rounds")
            else:
                entries = json.loads(self.transcripts[sid])
                found += checks.check_transcript(entries, expected, bt)
                f1 = _song_f1(entries, song)
                f1s.append(f1)
                if f1 < SONG_F1_FLOOR:
                    found.append(f"F1 {f1:.3f} below the floor {SONG_F1_FLOOR}")
            midi = Path(self.work / f"{sid}.mid").read_bytes()
            found += checks.check_sheet(out["sheet"], midi, expected)
            problems += [f"{sid}: {p}" for p in found]
        return problems, f1s


class Train:
    """The criterion-5 recipe for TRAIN_STEPS steps, then the held-out split."""

    def __init__(self, seed: int, work: Path, env: dict) -> None:
        self.examples = inputs.training_examples(seed)
        self.cfg = inputs.labeler_config(seed)
        self.settings = inputs.train_settings(seed, TRAIN_STEPS)
        self.test = [ex for ex in self.examples if ex.split == "test"]
        self.runs: list[dict] = []

    def run_round(self, tracer, round_no: int) -> Round:
        span = tracer.span
        tracer.op = f"train/{round_no}"
        started = time.perf_counter()
        with span("labeler.train"):
            result = train(self.cfg, self.examples, self.settings)
        train_s = time.perf_counter() - started
        scores, estimates = [], []
        for ex in self.test:
            with span("labeler.forward_windowed"):
                logits = forward_windowed(self.cfg, result.params, ex.features)
            with span("labeler.decode"):
                est = decode(logits, result.tau, ex.amap)
            ref = reference_melody(ex.labels, ex.amap)
            with span("evaluate.octave_invariant_f1"):
                scores.append(octave_invariant_f1(est, ref).f1)
            estimates.append([(n.onset_s, n.pitch.midi) for n in est])
        self.runs.append({"steps": result.steps_run, "tau": result.tau,
                          "scores": scores, "estimates": estimates})
        return Round(result.steps_run, 1, 0, train_s)

    def check(self) -> tuple[list[str], list[float]]:
        problems = []
        first = self.runs[0]
        for run in self.runs[1:]:
            if run["scores"] != first["scores"] or run["tau"] != first["tau"]:
                problems.append("two training runs from one seed disagree")
        for ex, est, score in zip(self.test, first["estimates"], first["scores"]):
            expected = checks.reference_report(est, inputs.example_reference(ex), True)["f1"]
            if abs(expected - score) > 1e-12:
                problems.append(f"{ex.seg_id}: F1 {score}, independent matcher {expected}")
        heldout = float(np.mean(first["scores"]))
        if heldout < HELDOUT_F1_FLOOR:
            problems.append(f"held-out F1 {heldout:.4f} below {HELDOUT_F1_FLOOR}")
        return problems, first["scores"]


class Score:
    """(estimate, reference) transcript pairs read from JSON and scored."""

    def __init__(self, seed: int, work: Path, env: dict) -> None:
        work.mkdir(parents=True)
        self.pairs = inputs.score_pairs(seed)
        self.paths = []
        for i, (est, ref) in enumerate(self.pairs):
            paths = (work / f"p{i:02d}.est.json", work / f"p{i:02d}.ref.json")
            _write_json(paths[0], est)
            _write_json(paths[1], ref)
            self.paths.append(paths)
        self.reports: list = [None] * len(self.pairs)
        self.stable = True
        self._pair(0, NullTracer())

    def _pair(self, i: int, tracer) -> tuple[dict, dict]:
        span = tracer.span
        est_path, ref_path = self.paths[i]
        with span("evaluate.transcript_io"):
            est = load_transcript(est_path)
            ref = load_transcript(ref_path)
        with span("evaluate.octave_invariant_f1"):
            invariant = octave_invariant_f1(est, ref)
        with span("evaluate.note_f1"):
            fixed = note_f1(est, ref)
        return invariant.to_json_dict(), fixed.to_json_dict()

    def run_round(self, tracer, round_no: int) -> Round:
        """Scores every pair once; ``scaled_s`` is the round's wall scaled to
        the reference interpreter speed by the calibration job around it."""
        before = calibration_s()
        started = time.perf_counter()
        failed = 0
        for i in range(len(self.pairs)):
            tracer.op = f"p{i:02d}/{round_no}"
            try:
                with tracer.span("score.pair"):
                    out = self._pair(i, tracer)
            except Exception as exc:
                print(f"pair {i}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            if self.reports[i] is None:
                self.reports[i] = out
            elif out != self.reports[i]:
                self.stable = False
        wall = time.perf_counter() - started
        slowness = (before + calibration_s()) / 2 / CALIBRATION_REFERENCE_S
        return Round(len(self.pairs), len(self.pairs), failed, wall, wall / slowness)

    def check(self) -> tuple[list[str], list[float]]:
        problems = [] if self.stable else ["reports differ between rounds"]
        f1s = []
        for i, ((est, ref), out) in enumerate(zip(self.pairs, self.reports)):
            if out is None:
                continue
            e = [(x["onset_s"], x["midi"]) for x in est]
            r = [(x["onset_s"], x["midi"]) for x in ref]
            found = checks.check_report(out[0], e, r, True)
            found += checks.check_report(out[1], e, r, False)
            problems += [f"pair {i}: {p}" for p in found]
            f1s.append(out[0]["f1"])
        return problems, f1s


class Cli:
    """The README walkthrough, one subprocess per command."""

    def __init__(self, seed: int, work: Path, env: dict) -> None:
        self.work = work
        self.env = env
        self.seed = seed
        self.songs = _render(seed, CLI_SONGS, work / "audio", env)
        for d in ("raw", "grids", "refs"):
            (work / d).mkdir()
        for i, song in enumerate(self.songs):
            sid = song["id"]
            _write_json(work / "raw" / f"{sid}.json", inputs.functional_doc(song, f"artist{i}"))
            _write_json(work / "grids" / f"{sid}.json", inputs.beat_grid(song))
            end_s = float(song["beat_to_time_s"][-1])
            _write_json(work / "refs" / f"{sid}.json",
                        inputs.transcript_entries(inputs.reference_notes(song), end_s))
        self.results: list[dict] = []
        self.peak_rss_mb = 0.0
        warm = self._command(["--help"], work / "warmup")
        if warm["code"] != 0:
            raise RuntimeError(f"melscribe --help exited {warm['code']}: {warm['stderr']}")
        self.peak_rss_mb = 0.0  # of the walkthrough's commands, not the warm-up

    def _command(self, argv: list[str], log_stem: Path) -> dict:
        """Run one CLI command, timed from outside, reaping it with wait4."""
        out_path, err_path = Path(f"{log_stem}.out"), Path(f"{log_stem}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "melscribe.cli", *argv],
                stdout=out, stderr=err, env=self.env,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return {"argv": argv, "code": proc.returncode, "wall_s": wall,
                "stdout": out_path.read_text(encoding="utf-8"),
                "stderr": err_path.read_text(encoding="utf-8")}

    def _plan(self, rd: Path) -> list[tuple[str, str, list[str]]]:
        """(command name, song id or "all", argv) in walkthrough order."""
        w = self.work
        data, feats, est, out = rd / "data", rd / "feats", rd / "est", rd / "out"
        plan = [
            ("dataset_convert", "all", ["dataset", "convert", str(w / "raw"), "--out", str(data)]),
            ("dataset_split", "all", ["dataset", "split", "--dir", str(data),
                                      "--artists", str(data / "artists.json"),
                                      "--seed", str(self.seed)]),
        ]
        for song in self.songs:
            sid = song["id"]
            plan.append(("align_refine", sid, [
                "align", "refine", "--grid", str(w / "grids" / f"{sid}.json"),
                "--start", str(inputs.LEAD_IN_S), "--beats", str(len(song["beat_to_time_s"]) - 1),
                "--out", str(data / f"{sid}.alignment.json")]))
        plan.append(("features_mel", "all", [
            "features", "mel", *[str(w / "audio" / f"{s['id']}.wav") for s in self.songs],
            "--out-dir", str(feats), "--jobs", str(min(2, os.cpu_count() or 1))]))
        for song in self.songs:
            sid = song["id"]
            align = str(data / f"{sid}.alignment.json")
            plan += [
                ("features_resample", sid, [
                    "features", "resample", "--features", str(feats / f"{sid}.ssft"),
                    "--alignment", align, "--out", str(data / f"{sid}.features.ssft")]),
                ("transcribe", sid, [
                    "transcribe", "--checkpoint", str(CHECKPOINT),
                    "--features", str(data / f"{sid}.features.ssft"),
                    "--alignment", align, "--out", str(est / f"{sid}.json")]),
                ("evaluate", sid, [
                    "evaluate", "--estimate", str(est / f"{sid}.json"),
                    "--reference", str(w / "refs" / f"{sid}.json"), "--octave-invariant"]),
                ("leadsheet", sid, [
                    "leadsheet", "--transcript", str(est / f"{sid}.json"),
                    "--alignment", align, "--lilypond", str(out / f"{sid}.ly"),
                    "--midi", str(out / f"{sid}.mid")]),
            ]
        return plan

    def run_round(self, tracer, round_no: int) -> Round:
        """Runs the walkthrough once; its seconds are the commands' walls."""
        rd = self.work / f"round{round_no}"
        for d in ("est", "out", "logs"):
            (rd / d).mkdir(parents=True)
        plan = self._plan(rd)
        failed = 0
        wall = 0.0
        for k, (name, sid, argv) in enumerate(plan):
            tracer.op = f"{sid}/{round_no}"
            with tracer.span(f"cli.{name}"):
                result = self._command(argv, rd / "logs" / f"{k:02d}-{name}")
            wall += result["wall_s"]
            result.update(name=name, song=sid, round=rd)
            self.results.append(result)
            failed += result["code"] != 0
        return Round(sum(s["audio_s"] for s in self.songs), len(plan), failed, wall)

    def check(self) -> tuple[list[str], list[float]]:
        problems, f1s = [], []
        by_song = {s["id"]: s for s in self.songs}
        for res in self.results:
            where = f"{res['round'].name} {res['name']} {res['song']}"
            if res["code"] != 0:
                problems.append(f"{where}: exit {res['code']}: {res['stderr'][-300:]}")
                continue
            lines = res["stdout"].splitlines()
            try:
                summary = json.loads(lines[0]) if len(lines) == 1 else None
            except json.JSONDecodeError:
                summary = None
            if not isinstance(summary, dict):
                problems.append(f"{where}: stdout is not one JSON object")
                continue
            song = by_song.get(res["song"])
            data = res["round"] / "data"
            if res["name"] == "dataset_convert":
                for s in self.songs:
                    seg = _read_json(data / f"{s['id']}.segment.json")
                    converted = [(n["onset_ticks"], n["duration_ticks"], n["midi"])
                                 for n in seg["melody"]]
                    problems += [f"{where} {s['id']}: {p}" for p in checks.check_converted(
                        converted, [tuple(n) for n in s["melody"]])]
            elif res["name"] == "evaluate":
                est = _read_json(res["round"] / "est" / f"{song['id']}.json")
                notes = [(e["onset_s"], e["midi"]) for e in est]
                found = checks.check_report(summary, notes, inputs.reference_notes(song), True)
                problems += [f"{where}: {p}" for p in found]
                f1s.append(summary["f1"])
            elif res["name"] == "leadsheet":
                est = _read_json(res["round"] / "est" / f"{song['id']}.json")
                midi = (res["round"] / "out" / f"{song['id']}.mid").read_bytes()
                ons = checks.midi_note_ons(midi)
                if ons != [e["midi"] for e in est]:
                    problems.append(f"{where}: MIDI holds {len(ons)} melody note-ons "
                                    f"for {len(est)} transcript notes")
        return problems, f1s

    def import_seconds(self) -> float:
        """Importing melscribe.cli in a fresh interpreter, less a bare start;
        the median of three of each."""
        def wall(code: str) -> float:
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=self.env)
            return time.perf_counter() - started

        bare = statistics.median(wall("pass") for _ in range(3))
        full = statistics.median(wall("import melscribe.cli") for _ in range(3))
        return full - bare


WORKLOADS = {"transcribe": Transcribe, "train": Train, "score": Score, "cli": Cli}
