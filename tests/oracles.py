"""Oracles the tests check the program against, kept outside the program.

``gradient_check``: central-difference verification of the hand-written
backward pass.

Runs the full objective (forward pass plus octave-tolerant loss) in
float64 and compares analytic parameter gradients against symmetric
finite differences at sampled coordinates of every tensor.

The objective is piecewise smooth: ReLU units and the argmin octave
shift switch branches at isolated points, and a central difference is
only a valid derivative estimate when both evaluations stay on one
branch.  Each probe therefore starts at the requested step and, if the
two evaluations land on different branches, retries with a step eight
times smaller (a few times) until they agree; float64 keeps the
difference well above cancellation noise at the smallest step.  A
coordinate that straddles a branch point even at the smallest step is
skipped and another coordinate of the same tensor is drawn.

``oracle_note_f1``: exhaustive enumeration of onset matchings, against
which ``evaluate.note_f1`` is checked.

``render_per_note``: ``synth.render_audio`` as it rendered each note on
its own, two ``sin`` arrays and an envelope per note, against which the
one-table-per-pitch render is checked byte for byte.
"""

from __future__ import annotations

import numpy as np

from melscribe.align import AlignmentMap, align
from melscribe.core import TICKS_PER_BEAT, Melody
from melscribe.errors import InputError
from melscribe.evaluate import DEFAULT_TOL_S, EvalReport, _perf_arrays, _scores
from melscribe.labeler.config import LabelerConfig
from melscribe.labeler.labels import vocab_by_name
from melscribe.labeler.loss import _loss_and_grad
from melscribe.labeler.model import backward, forward_cached, init_params
from melscribe.synth import ATTACK_S, DECAY_TIME_S, PARTIAL_GAIN, RELEASE_S, TAIL_S

CHECK_SEEDS = (11, 23, 47)


def gradient_check(
    cfg: LabelerConfig,
    n_ticks: int = 8,
    h: float = 1e-3,
    coords_per_tensor: int = 3,
    seeds: tuple[int, ...] = CHECK_SEEDS,
) -> float:
    """Worst relative error between analytic and numeric gradients."""
    vocab = vocab_by_name(cfg.vocab)
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        params = {k: p.astype(np.float64) for k, p in init_params(cfg).items()}
        x = rng.normal(size=(1, n_ticks, cfg.input_dim))
        mid = vocab.n_classes // 2
        classes = rng.integers(mid - 12, mid + 12, size=n_ticks).astype(np.int64)
        classes[rng.random(n_ticks) < 0.25] = 0

        def evaluate() -> tuple[float, tuple]:
            logits, cache = forward_cached(cfg, params, x)
            loss, sigma, _ = _loss_and_grad(logits, classes, vocab)
            branch = (sigma, *(lc["relu_mask"].tobytes() for lc in cache["layers"]))
            return loss, branch

        def probe(flat: np.ndarray, idx: int) -> float | None:
            saved = flat[idx]
            for step in (h, h / 8, h / 64, h / 512):
                flat[idx] = saved + step
                loss_plus, branch_plus = evaluate()
                flat[idx] = saved - step
                loss_minus, branch_minus = evaluate()
                flat[idx] = saved
                if branch_plus == branch_minus:
                    return (loss_plus - loss_minus) / (2.0 * step)
            return None

        logits, cache = forward_cached(cfg, params, x)
        _, _, dlogits = _loss_and_grad(logits, classes, vocab)
        grads = backward(cfg, params, cache, dlogits)

        for name in sorted(grads):
            flat = params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            quota = min(coords_per_tensor, flat.size)
            conclusive = 0
            for idx in rng.permutation(flat.size):
                numeric = probe(flat, idx)
                if numeric is None:
                    continue
                analytic = float(gflat[idx])
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
                worst = max(worst, rel)
                conclusive += 1
                if conclusive == quota:
                    break
            if conclusive < quota:
                raise InputError(
                    f"tensor {name}: sampling found no conclusive coordinates"
                )
    return worst


def oracle_note_f1(
    estimate: Melody, reference: Melody, tol_s: float = DEFAULT_TOL_S
) -> EvalReport:
    """Exhaustive-enumeration oracle for note_f1 (sigma = 0), n <= 8 a side.

    Recurses over every injective onset-matching, tracking the maximum
    cardinality and the maximum pitch-equal pair count independently.
    Kept deliberately free of matching theory so it can check the
    greedy window matcher that note_f1 uses.
    """
    e_on, e_mid = _perf_arrays(estimate)
    r_on, r_mid = _perf_arrays(reference)
    if len(e_on) > 8 or len(r_on) > 8:
        raise InputError("oracle is limited to 8 notes per side")
    compatible = [
        [j for j in range(len(r_on)) if abs(e_on[i] - r_on[j]) <= tol_s]
        for i in range(len(e_on))
    ]
    best = {"matched": 0, "tp": 0}

    def explore(i: int, used: int, card: int, tp: int) -> None:
        if card > best["matched"]:
            best["matched"] = card
        if tp > best["tp"]:
            best["tp"] = tp
        if i == len(e_on):
            return
        explore(i + 1, used, card, tp)
        for j in compatible[i]:
            if not used & (1 << j):
                explore(
                    i + 1,
                    used | (1 << j),
                    card + 1,
                    tp + (1 if e_mid[i] == r_mid[j] else 0),
                )

    explore(0, 0, 0, 0)
    precision, recall, f1 = _scores(best["tp"], len(e_on), len(r_on))
    return EvalReport(precision, recall, f1, 0, best["matched"])


def render_per_note(melody: Melody, amap: AlignmentMap, sample_rate: int = 16000) -> np.ndarray:
    """``synth.render_audio`` rendering every note from its own sample arrays."""
    if melody.is_score is False:
        raise InputError("render expects a score-form melody")
    end_s = align(amap, amap.num_beats) + TAIL_S
    out = np.zeros(int(round(end_s * sample_rate)), dtype=np.float64)
    onsets = align(amap, melody.onsets / TICKS_PER_BEAT)
    ends = np.minimum(melody.ends, amap.num_beats * TICKS_PER_BEAT)
    offsets = align(amap, ends / TICKS_PER_BEAT)
    for midi, onset, offset in zip(melody.midis.tolist(), onsets.tolist(), offsets.tolist()):
        length = max(offset - onset - RELEASE_S, 0.04)
        i0 = int(round(onset * sample_rate))
        n = int(round(length * sample_rate))
        n = min(n, len(out) - i0)
        if n <= 0:
            continue
        t = np.arange(n) / sample_rate
        freq = 440.0 * 2.0 ** ((midi - 69) / 12)
        tone = np.sin(2 * np.pi * freq * t)
        if 2 * freq < sample_rate / 2:
            tone += PARTIAL_GAIN * np.sin(4 * np.pi * freq * t)
        env = np.exp(-t / DECAY_TIME_S)
        attack = int(ATTACK_S * sample_rate)
        if attack > 0:
            ramp = np.minimum(np.arange(n) / attack, 1.0)
            env *= ramp
        release = int(RELEASE_S * sample_rate)
        if release > 0 and n > release:
            env[-release:] *= np.linspace(1.0, 0.0, release)
        out[i0 : i0 + n] += 0.4 * tone * env
    peak = np.abs(out).max()
    if peak > 0.95:
        out *= 0.95 / peak
    return out.astype(np.float32)
