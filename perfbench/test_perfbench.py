"""The benchmark's own test: each check rejects a known-wrong output, and
every workload runs to its end at a short length.

    python3 -m pytest -q perfbench/test_perfbench.py

The short runs take about three minutes, most of it the one training run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from melscribe import kernels  # noqa: E402
from melscribe.align import AlignmentMap  # noqa: E402
from melscribe.core import Melody, PerfNote, Pitch  # noqa: E402
from melscribe.evaluate import note_f1, octave_invariant_f1  # noqa: E402
from melscribe.features import beatwise_resample, logmel  # noqa: E402
from melscribe.labeler import decode  # noqa: E402
from melscribe.synth import random_segment, render_audio  # noqa: E402


def perf_melody(notes) -> Melody:
    return Melody(tuple(PerfNote(t, t + 0.01, Pitch(m)) for t, m in notes))


def _reduceat_pooling(frames, starts):
    """Pooling as it was before the fix: reduceat's last segment runs on to
    the end of the array, so frames past the last cell fold into it."""
    acc = np.array(frames, dtype=np.float64)
    counts = np.diff(starts).astype(np.int64)
    out = np.zeros((len(starts) - 1, frames.shape[1]))
    nonzero = counts > 0
    sums = np.add.reduceat(acc, starts[:-1], axis=0)
    out[nonzero] = sums[nonzero] / counts[nonzero, None]
    return out, counts


@pytest.fixture(scope="module")
def segment():
    rng = np.random.default_rng(7)
    seg = random_segment(rng, "t", num_beats=16, bpm_range=(100.0, 100.0))
    feats = logmel(render_audio(seg.melody, seg.amap, sample_rate=44100), 44100)
    return seg, feats


def test_pooling_check_passes_the_program_and_rejects_reduceat(segment, monkeypatch):
    seg, feats = segment
    bt = seg.amap.beat_to_time_s
    rows = beatwise_resample(feats, seg.amap).frames
    assert checks.check_resampled(rows, feats.frames, feats.t0_s, feats.rate_hz, bt) == []
    melody = [(n.onset_ticks, n.duration_ticks, n.pitch.midi) for n in seg.melody]
    assert checks.check_loudest_band(rows, melody, bt) == []

    monkeypatch.setattr(kernels, "pool_segments", _reduceat_pooling)
    wrong = beatwise_resample(feats, seg.amap).frames
    assert checks.check_resampled(wrong, feats.frames, feats.t0_s, feats.rate_hz, bt)


def test_transcript_check_rejects_a_one_tick_shift():
    rng = np.random.default_rng(8)
    amap = AlignmentMap(0.5 + 0.45 * np.arange(17))
    logits = rng.normal(size=(64, 89))
    logits[:, 0] += 2.0
    logits[::3, 0] -= 6.0
    entries = [{"onset_s": n.onset_s, "offset_s": n.offset_s, "midi": n.pitch.midi}
               for n in decode(logits, 0.5, amap)]
    expected = checks.threshold_notes(logits, 0.5, amap.beat_to_time_s)
    assert len(expected) > 10
    assert checks.check_transcript(entries, expected, amap.beat_to_time_s) == []

    tt = checks.tick_times(amap.beat_to_time_s)
    shifted = [dict(e, onset_s=float(tt[t + 1])) for e, (t, _) in zip(entries, expected)]
    assert checks.check_transcript(shifted, expected, amap.beat_to_time_s)


def _last_fit_matching(indptr, indices, n_left, n_right):
    """A maximal but not maximum matching: each estimate takes its last free
    reference."""
    used = set()
    for u in range(n_left):
        for r in reversed(indices[indptr[u]:indptr[u + 1]].tolist()):
            if r not in used:
                used.add(r)
                break
    return len(used)


def test_report_check_rejects_a_non_maximum_matching(monkeypatch):
    # estimate 0 reaches both references, estimate 1 only the second
    est = [(0.03, 60), (0.09, 60)]
    ref = [(0.00, 60), (0.05, 60)]
    pairs = [(est, ref)]
    for e, r in inputs.score_pairs(3)[2:6:3]:  # two dense pairs
        pairs.append(([(x["onset_s"], x["midi"]) for x in e],
                      [(x["onset_s"], x["midi"]) for x in r]))
    for e, r in pairs:
        report = octave_invariant_f1(perf_melody(e), perf_melody(r)).to_json_dict()
        assert checks.check_report(report, e, r, True) == []
        report = note_f1(perf_melody(e), perf_melody(r)).to_json_dict()
        assert checks.check_report(report, e, r, False) == []

    monkeypatch.setattr(kernels, "match_count", _last_fit_matching)
    for e, r in pairs:
        report = octave_invariant_f1(perf_melody(e), perf_melody(r)).to_json_dict()
        assert checks.check_report(report, e, r, True)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.NAMES)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload,trace", [
    ("transcribe", 0), ("transcribe", 1), ("train", 0), ("score", 0), ("score", 1),
    ("cli", 0),
])
def test_workload_runs_short(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "score", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
