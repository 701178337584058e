import numpy as np
import pytest
import scipy.special

from melscribe.errors import ShapeError
from melscribe.labeler.labels import CHORD_VOCAB, MELODY_VOCAB
from melscribe.labeler.loss import _loss_and_grad, feasible_shifts, log_softmax


def plain_ce(logits, classes):
    logp = scipy.special.log_softmax(np.asarray(logits, dtype=np.float64), axis=1)
    return -float(np.mean(logp[np.arange(len(classes)), classes]))


def test_log_softmax_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=5.0, size=(40, 89))
    ours = log_softmax(x)
    ref = scipy.special.log_softmax(x, axis=1)
    assert np.max(np.abs(ours - ref)) < 1e-12
    # extreme values stay finite
    hot = np.array([[1e4, -1e4, 0.0]])
    assert np.isfinite(log_softmax(hot)).all()


def test_feasible_shifts_cases():
    assert feasible_shifts(np.array([0, 0, 0]), MELODY_VOCAB) == [0]
    assert feasible_shifts(np.array([5]), CHORD_VOCAB) == [0]
    # class 1 is the lowest pitch: no downward shift possible
    assert min(feasible_shifts(np.array([1]), MELODY_VOCAB)) == 0
    # class 88 is the highest: no upward shift
    assert max(feasible_shifts(np.array([88]), MELODY_VOCAB)) == 0
    shifts = feasible_shifts(np.array([0, 40, 45]), MELODY_VOCAB)
    assert 0 in shifts
    lo, hi = 40, 45
    smin = -((lo - 1) // 12)
    smax = (88 - hi) // 12
    assert set(shifts) == set(range(smin, smax + 1))
    # ordered by (abs, sign): 0 first, then -1 before 1 is false; abs ties break toward negative
    order = feasible_shifts(np.array([40]), MELODY_VOCAB)
    assert order[0] == 0
    for a, b in zip(order, order[1:]):
        assert (abs(a), a) < (abs(b), b)


def test_loss_no_shift_equals_plain_ce():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(12, 89))
    classes = np.zeros(12, dtype=np.int64)  # all silence: sigma fixed at 0
    loss, sigma, _ = _loss_and_grad(logits, classes, MELODY_VOCAB)
    assert sigma == 0
    assert abs(loss - plain_ce(logits, classes)) < 1e-12


def test_loss_minimizes_over_shifts():
    rng = np.random.default_rng(2)
    for trial in range(60):
        n = int(rng.integers(4, 16)) * 4
        logits = rng.normal(scale=2.0, size=(n, 89))
        classes = np.where(
            rng.random(n) < 0.3, 0, rng.integers(25, 65, size=n)
        ).astype(np.int64)
        loss, sigma, _ = _loss_and_grad(logits, classes, MELODY_VOCAB)
        best = min(
            plain_ce(logits, np.where(classes == 0, 0, classes + 12 * s))
            for s in feasible_shifts(classes, MELODY_VOCAB)
        )
        assert abs(loss - best) < 1e-10, trial
        # reported sigma achieves the minimum
        achieved = np.where(classes == 0, 0, classes + 12 * sigma)
        assert abs(plain_ce(logits, achieved) - loss) < 1e-10


def test_loss_invariant_under_octave_relabeling():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = 16
        logits = rng.normal(scale=3.0, size=(n, 89))
        classes = rng.integers(30, 60, size=n).astype(np.int64)
        classes[rng.random(n) < 0.25] = 0
        base, _, _ = _loss_and_grad(logits, classes, MELODY_VOCAB)
        for s in (-1, 1):
            # classes are drawn from [30, 60) so a one-octave move stays in range
            moved = np.where(classes == 0, 0, classes + 12 * s)
            got, _, _ = _loss_and_grad(logits, moved, MELODY_VOCAB)
            assert abs(got - base) < 1e-10


def test_loss_silence_only_targets_column_zero():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(8, 89))
    loss, sigma, _ = _loss_and_grad(logits, np.zeros(8, dtype=np.int64), MELODY_VOCAB)
    logp = scipy.special.log_softmax(logits, axis=1)
    assert sigma == 0
    assert abs(loss + logp[:, 0].mean()) < 1e-12


def test_loss_chord_vocab_never_shifts():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 97))
    classes = rng.integers(0, 97, size=8).astype(np.int64)
    loss, sigma, _ = _loss_and_grad(logits, classes, CHORD_VOCAB)
    assert sigma == 0
    assert abs(loss - plain_ce(logits, classes)) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    n = 12
    logits = rng.normal(scale=2.0, size=(n, 89))
    classes = rng.integers(30, 55, size=n).astype(np.int64)
    classes[:3] = 0
    loss, sigma, grad = _loss_and_grad(logits, classes, MELODY_VOCAB)
    assert grad.shape == logits.shape
    h = 1e-6
    checked = 0
    for _ in range(30):
        i = int(rng.integers(n))
        j = int(rng.integers(89))
        bumped = logits.copy()
        bumped[i, j] += h
        up, s_up, _ = _loss_and_grad(bumped, classes, MELODY_VOCAB)
        bumped[i, j] -= 2 * h
        dn, s_dn, _ = _loss_and_grad(bumped, classes, MELODY_VOCAB)
        if s_up != sigma or s_dn != sigma:
            continue  # crossed a branch boundary; derivative undefined there
        numeric = (up - dn) / (2 * h)
        assert abs(numeric - grad[i, j]) < 1e-6
        checked += 1
    assert checked >= 20


def test_loss_shape_errors():
    logits = np.zeros((8, 89))
    silence = np.zeros(8, dtype=np.int64)
    with pytest.raises(ShapeError):
        _loss_and_grad(logits, silence[:4], MELODY_VOCAB)
    with pytest.raises(ShapeError):
        _loss_and_grad(np.zeros((8, 97)), silence, MELODY_VOCAB)
    with pytest.raises(ShapeError):
        _loss_and_grad(np.zeros(8), silence, MELODY_VOCAB)


def test_batched_loss_matches_one_call_per_sequence():
    rng = np.random.default_rng(7)
    lengths = np.array([4, 20, 9, 33, 1])
    logits = rng.normal(scale=2.0, size=(lengths.sum(), 89)).astype(np.float32)
    classes = np.where(rng.random(lengths.sum()) < 0.4, 0,
                       rng.integers(25, 65, size=lengths.sum())).astype(np.int64)
    classes[4:24] = 0  # a silent sequence keeps shift 0
    loss, sigmas, grad = _loss_and_grad(logits, classes, MELODY_VOCAB, lengths)
    starts = np.cumsum(lengths) - lengths
    solo = [_loss_and_grad(logits[a : a + n], classes[a : a + n], MELODY_VOCAB)
            for a, n in zip(starts, lengths)]
    assert sigmas.tolist() == [s for _, s, _ in solo]
    assert sigmas[1] == 0 and np.any(sigmas != 0)
    assert abs(loss - np.mean([l for l, _, _ in solo])) < 1e-6
    expected = np.concatenate([g / len(lengths) for _, _, g in solo])
    assert grad.dtype == np.float32 and np.array_equal(grad, expected)
    with pytest.raises(ShapeError):
        _loss_and_grad(logits, classes, MELODY_VOCAB, lengths[:-1])
