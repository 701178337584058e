import dataclasses
import zlib

import numpy as np
import pytest

from helpers import one_hot_logits, synth_examples
from melscribe.align import AlignmentMap
from melscribe.errors import InputError, ShapeError
from melscribe.evaluate import octave_invariant_f1
from melscribe.labeler.config import LabelerConfig
from melscribe.labeler.decode import decode, onset_sweep
from melscribe.labeler.labels import CHORD_VOCAB, DenseLabelSequence
from melscribe.labeler.model import FlatParams, init_params, param_shapes
from melscribe.labeler.train import (
    DEFAULT_THRESHOLDS,
    TrainExample,
    TrainSettings,
    _sample_slice,
    reference_melody,
    train,
    validation_f1,
)

SMALL = LabelerConfig(layers=1, model_dim=32, heads=2, ff_dim=64, input_dim=229)


def flat_example(seg_id, num_beats, classes=None, split="train", dim=229, spb=0.5):
    if classes is None:
        classes = np.zeros(4 * num_beats, dtype=np.int64)
    labels = DenseLabelSequence(classes)
    amap = AlignmentMap([i * spb for i in range(num_beats + 1)])
    rng = np.random.default_rng(zlib.crc32(seg_id.encode()))
    feats = rng.normal(size=(4 * num_beats, dim)).astype(np.float32)
    return TrainExample(seg_id, feats, labels, amap, split)


def test_train_example_validation():
    flat_example("ok", 4)
    with pytest.raises(ShapeError, match="label ticks"):
        TrainExample(
            "bad",
            np.zeros((15, 229), dtype=np.float32),
            DenseLabelSequence(np.zeros(16, dtype=np.int64)),
            AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0]),
            "train",
        )
    with pytest.raises(ShapeError, match="beats"):
        TrainExample(
            "bad",
            np.zeros((16, 229), dtype=np.float32),
            DenseLabelSequence(np.zeros(16, dtype=np.int64)),
            AlignmentMap([0.0, 0.5, 1.0]),
            "train",
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_train_example_with_non_finite_features_is_refused(bad):
    ok = flat_example("s007", 4)
    feats = ok.features.copy()
    feats[5, 17] = bad
    with pytest.raises(InputError, match="^s007: features contain non-finite values$"):
        dataclasses.replace(ok, features=feats)


def test_train_settings_validation():
    TrainSettings()
    with pytest.raises(InputError):
        TrainSettings(batch_size=0)
    with pytest.raises(InputError):
        TrainSettings(max_steps=-1)
    with pytest.raises(InputError):
        TrainSettings(eval_every=0)
    with pytest.raises(InputError):
        TrainSettings(patience=0)
    TrainSettings(lr=0.0)  # legal: it freezes the parameters
    for lr in (float("nan"), float("inf"), -1e-4):
        with pytest.raises(InputError, match="lr must be finite and >= 0"):
            TrainSettings(lr=lr)
    assert DEFAULT_THRESHOLDS[0] == 0.05
    assert DEFAULT_THRESHOLDS[-1] == 0.95
    assert len(DEFAULT_THRESHOLDS) == 19


def test_a_negative_seed_is_refused_by_the_config_and_the_train_settings():
    # numpy's generators take only non-negative seeds
    for make in (LabelerConfig, TrainSettings):
        with pytest.raises(InputError, match="seed must be non-negative, got -1"):
            make(seed=-1)


def test_reference_melody_from_labels():
    classes = np.zeros(16, dtype=np.int64)
    classes[0] = 40   # MIDI 60
    classes[6] = 47   # MIDI 67 at beat 1.5
    labels = DenseLabelSequence(classes)
    amap = AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0])
    mel = reference_melody(labels, amap)
    assert [n.pitch.midi for n in mel] == [60, 67]
    assert [n.onset_s for n in mel] == [0.0, 0.75]
    assert [n.offset_s for n in mel] == [0.75, 2.0]


def test_sample_slice_respects_bounds():
    rng = np.random.default_rng(0)
    # long segment with slow beats: the seconds cap binds
    slow = flat_example("slow", 120, spb=1.0)
    # short segment: whole thing always fits
    quick = flat_example("quick", 6, spb=0.1)
    for ex in (slow, quick):
        total_ticks = 4 * ex.amap.num_beats
        for _ in range(500):
            lo, hi = _sample_slice(rng, ex)
            assert 0 <= lo < hi <= total_ticks
            assert lo % 4 == 0 and hi % 4 == 0
            beats = (hi - lo) // 4
            assert beats <= 96
            t0 = ex.amap.beat_to_time_s[lo // 4]
            t1 = ex.amap.beat_to_time_s[hi // 4]
            if beats > 1:
                assert t1 - t0 <= 24.0 + 1e-9


def test_validation_f1_perfect_with_oracle_logits(monkeypatch):
    rng = np.random.default_rng(1)
    examples = []
    for k in range(3):
        classes = np.zeros(32, dtype=np.int64)
        ticks = rng.choice(32, size=6, replace=False)
        classes[ticks] = rng.integers(20, 60, size=6)
        examples.append(flat_example(f"v{k}", 8, classes, split="valid"))

    # stand in for the model: every example gets its own one-hot logits
    def oracle_forward(cfg, params, feats):
        for ex in examples:
            if ex.features is feats:
                return one_hot_logits(ex.labels)
        raise AssertionError("unexpected features")

    import importlib

    train_module = importlib.import_module("melscribe.labeler.train")
    monkeypatch.setattr(train_module, "forward_windowed", oracle_forward)
    f1s = validation_f1(SMALL, {}, examples, (0.1, 0.5, 0.9))
    assert f1s.shape == (3,)
    assert np.all(f1s == 1.0)


def test_validation_f1_scores_each_threshold_as_decode_then_f1(monkeypatch):
    # random logits, so thresholds that share onset ticks and ones that do
    # not both occur; each must score exactly as decoding at that threshold
    rng = np.random.default_rng(4)
    examples, logits = [], {}
    for k in range(3):
        classes = np.zeros(48, dtype=np.int64)
        ticks = rng.choice(48, size=9, replace=False)
        classes[ticks] = rng.integers(20, 60, size=9)
        ex = flat_example(f"r{k}", 12, classes, split="valid")
        examples.append(ex)
        z = rng.normal(size=(48, 89)).astype(np.float32)
        z[np.arange(48), classes] += 6.0  # right pitches, blurred silence
        z[:, 0] += rng.uniform(-3.0, 6.0, size=48).astype(np.float32)
        logits[id(ex.features)] = z

    import importlib

    train_module = importlib.import_module("melscribe.labeler.train")
    monkeypatch.setattr(train_module, "forward_windowed",
                        lambda cfg, params, feats: logits[id(feats)])
    f1s = validation_f1(SMALL, {}, examples, DEFAULT_THRESHOLDS)
    expected = [
        np.mean([
            octave_invariant_f1(
                decode(logits[id(ex.features)], tau, ex.amap),
                reference_melody(ex.labels, ex.amap),
            ).f1
            for ex in examples
        ])
        for tau in DEFAULT_THRESHOLDS
    ]
    assert f1s.tolist() == expected
    # some thresholds share onset ticks, so a score is reused, and some do not
    sets = {t.tobytes() for t, _ in onset_sweep(logits[id(examples[0].features)],
                                                 DEFAULT_THRESHOLDS)}
    assert 1 < len(sets) < len(DEFAULT_THRESHOLDS)


def test_train_input_validation():
    with pytest.raises(InputError, match="valid"):
        train(SMALL, [flat_example("a", 4)], TrainSettings(max_steps=1))
    with pytest.raises(InputError, match="train"):
        train(SMALL, [flat_example("a", 4, split="valid")], TrainSettings(max_steps=1))
    chord_labels = DenseLabelSequence(np.zeros(16, dtype=np.int64), CHORD_VOCAB)
    bad_vocab = TrainExample(
        "c",
        np.zeros((16, 229), dtype=np.float32),
        chord_labels,
        AlignmentMap([0.0, 0.5, 1.0, 1.5, 2.0]),
        "train",
    )
    with pytest.raises(InputError, match="vocab"):
        train(SMALL, [bad_vocab, flat_example("v", 4, split="valid")],
              TrainSettings(max_steps=1))
    with pytest.raises(ShapeError, match="feature dim"):
        train(SMALL, [flat_example("a", 4, dim=100),
                      flat_example("v", 4, split="valid")],
              TrainSettings(max_steps=1))


def test_train_learns_synthetic_segments():
    examples = synth_examples(10, seed=5, num_beats=8, n_valid=2)
    settings = TrainSettings(
        batch_size=4, lr=1e-3, max_steps=300, eval_every=100, patience=10, seed=0
    )
    result = train(SMALL, examples, settings)
    assert result.steps_run <= 300
    assert len(result.history) == result.steps_run // 100
    losses = [h["loss"] for h in result.history]
    assert losses[-1] < losses[0]
    assert 0.0 <= result.valid_f1 <= 1.0
    assert result.tau in DEFAULT_THRESHOLDS
    assert result.best_step % 100 == 0
    for entry in result.history:
        assert set(entry) == {"step", "loss", "f1", "tau"}


def test_train_is_seed_deterministic():
    examples = synth_examples(6, seed=9, num_beats=8, n_valid=2)
    settings = TrainSettings(
        batch_size=4, lr=1e-3, max_steps=100, eval_every=50, patience=10, seed=3
    )
    a = train(SMALL, examples, settings)
    b = train(SMALL, examples, settings)
    assert a.history == b.history
    assert a.tau == b.tau and a.best_step == b.best_step
    assert isinstance(a.params, FlatParams) and list(a.params) == list(param_shapes(SMALL))
    assert np.array_equal(a.params.flat, b.params.flat)


def test_train_on_float32_rows_matches_the_run_on_their_float64_cast():
    """Every consumer rounds feature rows to float32, so the float32 rows
    ``beatwise_resample`` returns train as the float64 ones did."""
    examples = synth_examples(6, seed=39, num_beats=8, n_valid=2)
    assert all(ex.features.dtype == np.float32 for ex in examples)
    wide = [dataclasses.replace(ex, features=ex.features.astype(np.float64)) for ex in examples]
    settings = TrainSettings(
        batch_size=4, lr=1e-3, max_steps=60, eval_every=20, patience=10, seed=1
    )
    a, b = train(SMALL, examples, settings), train(SMALL, wide, settings)
    assert a.params.flat.tobytes() == b.params.flat.tobytes()
    assert (a.tau, a.valid_f1, a.best_step) == (b.tau, b.valid_f1, b.best_step)
    assert a.history == b.history and len(a.history) == 3


def test_train_early_stops_on_stale_validation():
    # frozen parameters (lr=0) can never improve after the first eval
    examples = synth_examples(6, seed=2, num_beats=8, n_valid=2)
    settings = TrainSettings(
        batch_size=2, lr=0.0, max_steps=2000, eval_every=10, patience=3, seed=0
    )
    result = train(SMALL, examples, settings)
    assert result.steps_run == 40  # first eval + 3 stale evals
    assert result.best_step == 10


@pytest.mark.parametrize("max_steps", [0, 3])
def test_train_with_no_evaluation_due_evaluates_its_last_step(max_steps):
    examples = synth_examples(6, seed=4, num_beats=8, n_valid=2)
    settings = TrainSettings(batch_size=2, lr=1e-3, max_steps=max_steps, eval_every=250, seed=0)
    result = train(SMALL, examples, settings)
    assert result.best_step == result.steps_run == max_steps
    assert result.history == []
    if max_steps == 0:
        assert np.array_equal(result.params.flat, init_params(SMALL).flat)


def test_train_logs_progress():
    examples = synth_examples(6, seed=4, num_beats=8, n_valid=2)
    lines = []
    settings = TrainSettings(batch_size=2, lr=1e-3, max_steps=20, eval_every=10,
                             patience=5, seed=0)
    train(SMALL, examples, settings, log=lines.append)
    assert len(lines) == 2
    assert all("valid F1" in ln and "tau" in ln for ln in lines)
