"""Acceptance suite: one test per numbered criterion, printed pass lines.

Each test exercises its criterion at the stated tolerance and prints a
single ``[criterion N] name: PASS`` line on success (visible with -s;
pytest's own PASSED/FAILED report carries the same per-criterion verdict).
"""

import time

import numpy as np

from helpers import octave_shift, one_hot_logits, perf, synth_examples
from melscribe import kernels
from melscribe.align import AlignmentMap
from melscribe.core import (
    KeySignature,
    Melody,
    Meter,
    Pitch,
    PitchClass,
    SCALE_OFFSETS,
    ScoreNote,
)
from melscribe.evaluate import note_f1, octave_invariant_f1
from melscribe.features import (
    FeatureMatrix,
    _cell_boundaries,
    _frame_starts,
    beatwise_resample,
    logmel,
    read_ssft,
    write_ssft,
)
from melscribe.labeler.checkpoint import load_checkpoint, save_checkpoint
from melscribe.labeler.config import DESK_CONFIG
from melscribe.labeler.decode import decode, onset_classes
from melscribe.labeler.labels import MELODY_VOCAB, densify, densify_melody
from melscribe.labeler.loss import _loss_and_grad, feasible_shifts
from melscribe.labeler.model import forward_windowed, init_params
from melscribe.labeler.train import DEFAULT_THRESHOLDS, TrainSettings, reference_melody, train
from melscribe.leadsheet import LeadSheet, emit_lilypond, emit_midi, estimate_key
from melscribe.synth import random_segment
from oracles import gradient_check, oracle_note_f1


def _ok(n: int, name: str) -> None:
    print(f"[criterion {n}] {name}: PASS")


def _strictly_increasing(onsets):
    out = []
    prev = -1.0
    for t in onsets:
        t = max(t, prev + 1e-6)
        out.append(t)
        prev = t
    return out


def _random_pair(rng):
    n_ref = int(rng.integers(0, 9))
    ref_on = np.sort(rng.uniform(0.0, 10.0, size=n_ref))
    ref_mid = rng.integers(40, 76, size=n_ref)
    reference = perf(zip(_strictly_increasing(ref_on), ref_mid))
    est = []
    for t, m in zip(ref_on, ref_mid):
        if rng.random() < 0.75:
            jitter = float(rng.normal(0.0, 0.04))
            octave_error = 12 * int(rng.integers(-1, 2))
            est.append((min(max(t + jitter, 0.0), 10.0), int(m) + octave_error))
    for _ in range(int(rng.integers(0, 3))):
        est.append((float(rng.uniform(0.0, 10.0)), int(rng.integers(40, 76))))
    est = sorted(est)[:8]
    estimate = perf(zip(_strictly_increasing([t for t, _ in est]),
                        [m for _, m in est]))
    return estimate, reference


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    for trial in range(1000):
        estimate, reference = _random_pair(rng)
        fast = note_f1(estimate, reference)
        slow = oracle_note_f1(estimate, reference)
        assert (fast.precision, fast.recall, fast.f1, fast.matched) == (
            slow.precision, slow.recall, slow.f1, slow.matched
        ), trial
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"
    _ok(1, "metric-oracle equivalence, 1000 pairs")


def test_criterion_2_octave_invariance_suite():
    rng = np.random.default_rng(1002)
    for trial in range(200):
        # metric invariance under feasible shifts of the estimate
        n_est = int(rng.integers(1, 10))
        est_on = _strictly_increasing(np.sort(rng.uniform(0.0, 8.0, size=n_est)))
        est_mid = rng.integers(45, 70, size=n_est)
        estimate = perf(zip(est_on, est_mid))
        n_ref = int(rng.integers(1, 10))
        ref_on = _strictly_increasing(np.sort(rng.uniform(0.0, 8.0, size=n_ref)))
        reference = perf(zip(ref_on, rng.integers(45, 70, size=n_ref)))
        base = octave_invariant_f1(estimate, reference)
        smin = -((int(est_mid.min()) - 21) // 12)
        smax = (108 - int(est_mid.max())) // 12
        for sigma in range(smin, smax + 1):
            moved = octave_invariant_f1(octave_shift(estimate, sigma), reference)
            assert (moved.precision, moved.recall, moved.f1) == (
                base.precision, base.recall, base.f1
            ), (trial, sigma)

        # loss invariance under feasible shifts of the labels
        n = int(rng.integers(2, 10)) * 4
        logits = rng.normal(scale=2.0, size=(n, 89))
        classes = np.where(
            rng.random(n) < 0.4, 0, rng.integers(20, 70, size=n)
        ).astype(np.int64)
        base_loss, _, _ = _loss_and_grad(logits, classes, MELODY_VOCAB)
        for sigma in feasible_shifts(classes, MELODY_VOCAB):
            shifted = np.where(classes == 0, 0, classes + 12 * sigma)
            loss, _, _ = _loss_and_grad(logits, shifted, MELODY_VOCAB)
            assert loss == base_loss, (trial, sigma)
    _ok(2, "octave invariance of F1 and loss, 200 melodies")


def test_criterion_3_resampling_arithmetic():
    # 120 BPM: one beat each 0.5 s, one sixteenth each 0.125 s, at 345 Hz
    num_beats = 16
    amap = AlignmentMap([0.5 * b for b in range(num_beats + 1)])
    rate = 345.0
    t0 = -0.2
    n_frames = int(np.ceil((8.0 + 0.4) * rate))
    rng = np.random.default_rng(1003)
    fm = FeatureMatrix(rate, rng.normal(size=(n_frames, 5)).astype(np.float32), t0)
    _, counts = kernels.pool_segments(fm.frames, _frame_starts(fm, _cell_boundaries(amap)[1]))
    assert counts.shape == (4 * num_beats,)
    assert counts.min() >= 42 and counts.max() <= 44, set(counts.tolist())

    const = FeatureMatrix(rate, np.full((n_frames, 7), 3.7), t0)
    out = beatwise_resample(const, amap)
    deviation = float(np.max(np.abs(out.frames - 3.7)))
    assert deviation <= 1e-9, deviation
    _ok(3, "43 +/- 1 frames per sixteenth; constant preserved within 1e-9")


def test_criterion_4_gradient_check():
    started = time.perf_counter()
    worst = gradient_check(DESK_CONFIG, n_ticks=8, h=1e-3)
    elapsed = time.perf_counter() - started
    assert worst < 1e-3, worst
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f} s"
    _ok(4, f"desk-scale gradient check, max rel err {worst:.2e}")


def test_criterion_5_synthetic_end_to_end():
    started = time.perf_counter()
    examples = synth_examples(200, seed=0, num_beats=16, n_valid=20, n_test=20)
    settings = TrainSettings(
        batch_size=8, lr=1e-3, max_steps=4000, eval_every=250, patience=10, seed=0
    )
    result = train(DESK_CONFIG, examples, settings)

    test_ex = [ex for ex in examples if ex.split == "test"]
    assert len(test_ex) == 20
    scores = []
    for ex in test_ex:
        logits = forward_windowed(DESK_CONFIG, result.params, ex.features)
        est = decode(logits, result.tau, ex.amap)
        ref = reference_melody(ex.labels, ex.amap)
        scores.append(octave_invariant_f1(est, ref).f1)
    model_f1 = float(np.mean(scores))

    # prior-only baseline: one fixed logit row from train-split label counts
    counts = np.zeros(89)
    for ex in examples:
        if ex.split == "train":
            counts += np.bincount(ex.labels.classes, minlength=89)
    prior_logits = np.log(counts + 1.0)
    baseline_f1 = 0.0
    for tau in DEFAULT_THRESHOLDS:
        per_tau = []
        for ex in test_ex:
            tiled = np.tile(prior_logits, (len(ex.labels.classes), 1))
            est = decode(tiled, tau, ex.amap)
            ref = reference_melody(ex.labels, ex.amap)
            per_tau.append(octave_invariant_f1(est, ref).f1)
        baseline_f1 = max(baseline_f1, float(np.mean(per_tau)))

    elapsed = time.perf_counter() - started
    assert model_f1 >= 0.80, model_f1
    assert model_f1 >= 3.0 * baseline_f1, (model_f1, baseline_f1)
    assert elapsed < 1800.0, f"end-to-end run took {elapsed:.0f} s"
    _ok(5, f"synthetic end-to-end F1 {model_f1:.3f} vs baseline {baseline_f1:.3f}")


def test_criterion_6_round_trip_decode():
    rng = np.random.default_rng(1006)
    for trial in range(50):
        seg = random_segment(rng, f"rt{trial}", num_beats=int(rng.integers(4, 12)))
        num_beats = seg.amap.num_beats
        labels = densify_melody(seg.melody, num_beats)
        logits = one_hot_logits(labels)

        ticks, classes = onset_classes(logits, 0.5)
        expected = labels.onset_events()
        assert [(int(t), int(c)) for t, c in zip(ticks, classes)] == [
            (int(t), int(c)) for t, c in expected
        ], trial

        grid = AlignmentMap([0.25 * t for t in range(num_beats + 1)])
        est = decode(logits, 0.5, grid)
        ref = reference_melody(labels, grid)
        report = note_f1(est, ref)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0), trial
    _ok(6, "one-hot densify/decode round trip exact, 50 segments")


def test_criterion_7_key_estimation_sanity():
    for tonic in range(12):
        for mode in ("major", "minor"):
            offs = list(SCALE_OFFSETS[mode]) + [12]
            melody = Melody(tuple(
                ScoreNote(i * 2, 2, Pitch(48 + tonic + off))
                for i, off in enumerate(offs)
            ))
            got = estimate_key(melody)
            assert (got.tonic.pc, got.mode) == (tonic, mode)

    rng = np.random.default_rng(1007)
    for _ in range(30):
        n = int(rng.integers(6, 14))
        notes = [
            ScoreNote(2 * i, int(rng.integers(1, 3)), Pitch(int(rng.integers(50, 70))))
            for i in range(n)
        ]
        base = estimate_key(Melody(tuple(notes)))
        k = int(rng.integers(1, 12))
        moved = Melody(tuple(
            ScoreNote(s.onset_ticks, s.duration_ticks, Pitch(s.pitch.midi + k))
            for s in notes
        ))
        got = estimate_key(moved)
        assert got.mode == base.mode
        assert got.tonic.pc == (base.tonic.pc + k) % 12
    _ok(7, "24 scales classified; transposition equivariance exact")


def test_criterion_8_determinism_and_formats(tmp_path):
    # SSFT round trip is bit-exact
    rng = np.random.default_rng(1008)
    audio = rng.normal(scale=0.1, size=16000 * 2).astype(np.float64)
    feats = logmel(audio, 16000)
    write_ssft(tmp_path / "a.ssft", feats)
    back = read_ssft(tmp_path / "a.ssft", FeatureMatrix)
    assert np.array_equal(back.frames, feats.frames)
    assert (back.rate_hz, back.t0_s) == (feats.rate_hz, feats.t0_s)
    write_ssft(tmp_path / "b.ssft", feats)
    assert (tmp_path / "a.ssft").read_bytes() == (tmp_path / "b.ssft").read_bytes()

    # checkpoint round trip is bit-exact and byte-stable
    params = init_params(DESK_CONFIG)
    save_checkpoint(tmp_path / "a.ckpt", DESK_CONFIG, params, 0.4, 12)
    cfg, loaded, tau, step = load_checkpoint(tmp_path / "a.ckpt")
    assert cfg == DESK_CONFIG and (tau, step) == (0.4, 12)
    assert all(np.array_equal(loaded[k], params[k]) for k in params)
    save_checkpoint(tmp_path / "b.ckpt", DESK_CONFIG, params, 0.4, 12)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    # emission is byte-identical across runs
    melody = Melody((ScoreNote(0, 4, Pitch(60)), ScoreNote(4, 12, Pitch(67))))
    sheet = LeadSheet(
        KeySignature(PitchClass(0), "major"), Meter(4, 4), 120.0, melody, (), 16
    )
    assert emit_lilypond(sheet) == emit_lilypond(sheet)
    steady = AlignmentMap(0.5 * np.arange(5))
    assert emit_midi(sheet, steady) == emit_midi(sheet, steady)

    # seeded training reproduces parameters and threshold bit-exact
    examples = synth_examples(8, seed=3, num_beats=8, n_valid=2)
    settings = TrainSettings(
        batch_size=4, lr=1e-3, max_steps=200, eval_every=100, patience=10, seed=0
    )
    first = train(DESK_CONFIG, examples, settings)
    second = train(DESK_CONFIG, examples, settings)
    assert first.tau == second.tau
    assert first.best_step == second.best_step
    assert all(np.array_equal(first.params[k], second.params[k]) for k in first.params)
    _ok(8, "SSFT/checkpoint/emission/training all deterministic")


def test_criterion_9_densify_quantization():
    num_beats = 4
    rng = np.random.default_rng(1009)
    moved = 0
    total = 40000
    for _ in range(total):
        j = int(rng.integers(0, 16 * num_beats))
        b = j / 16.0
        labels = densify(np.array([b]), np.array([60]), num_beats)
        events = labels.onset_events()
        assert len(events) == 1
        tick = events[0][0]
        if tick != 4.0 * b:
            moved += 1
    fraction = moved / total
    assert abs(fraction - 0.75) < 0.015, fraction

    # onsets already on the tick grid are never moved
    for k in range(4 * num_beats):
        labels = densify(np.array([k / 4.0]), np.array([60]), num_beats)
        assert labels.onset_events()[0][0] == k
    _ok(9, f"moved fraction {fraction:.4f} vs analytic 0.75; grid onsets fixed")
