"""Adam training with octave-tolerant loss and F1-based early stopping.

Each step draws beat-aligned slices from the training split, minimizes
the octave-tolerant cross-entropy, and periodically sweeps the onset
threshold on the validation split, keeping the parameters and threshold
with the best validation F1 (see ``validation_f1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..align import AlignmentMap
from ..core import Melody, TICKS_PER_BEAT
from ..errors import InputError, ShapeError
from ..evaluate import _scores, octave_invariant_f1
from .config import LabelerConfig
from .decode import onset_melody, onset_sweep
from .labels import DenseLabelSequence, vocab_by_name
from .loss import _loss_and_grad
from .model import MAX_TICKS, FlatParams, backward, forward_cached, forward_windowed, init_params

DEFAULT_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))
MAX_SLICE_SECONDS = 24.0


@dataclass(frozen=True)
class TrainExample:
    """One segment ready for training: features, labels, alignment."""

    seg_id: str
    features: np.ndarray
    labels: DenseLabelSequence
    amap: AlignmentMap
    split: str

    def __post_init__(self) -> None:
        n_ticks = self.labels.num_ticks
        if self.features.ndim != 2 or self.features.shape[0] != n_ticks:
            raise ShapeError(
                f"{self.seg_id}: features shape {self.features.shape} "
                f"against {n_ticks} label ticks"
            )
        if self.amap.num_beats != self.labels.num_beats:
            raise ShapeError(
                f"{self.seg_id}: alignment covers {self.amap.num_beats} beats, "
                f"labels cover {self.labels.num_beats}"
            )


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int = 8
    lr: float = 1e-4
    max_steps: int = 15000
    eval_every: int = 250
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.max_steps < 0:
            raise InputError("batch_size must be >= 1 and max_steps >= 0")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.eval_every < 1 or self.patience < 1:
            raise InputError("eval_every and patience must be >= 1")
        if not (self.lr >= 0.0 and np.isfinite(self.lr)):
            raise InputError(f"lr must be finite and >= 0, got {self.lr}")


@dataclass
class TrainResult:
    params: FlatParams
    tau: float
    valid_f1: float
    best_step: int
    steps_run: int
    history: list = field(default_factory=list)


def reference_melody(labels: DenseLabelSequence, amap: AlignmentMap) -> Melody:
    """Performance-form melody implied by dense labels under an alignment."""
    ticks = np.flatnonzero(labels.classes)
    return onset_melody(amap, ticks, labels.classes[ticks])


def _sample_slice(rng: np.random.Generator, ex: TrainExample) -> tuple[int, int]:
    total = ex.amap.num_beats
    start = int(rng.integers(0, total))
    length = min(MAX_TICKS // TICKS_PER_BEAT, total - start)
    times = ex.amap.beat_to_time_s
    while length > 1 and times[start + length] - times[start] > MAX_SLICE_SECONDS:
        length -= 1
    return start * TICKS_PER_BEAT, (start + length) * TICKS_PER_BEAT


def _adam_step(params, grads, m, v, t, lr):
    """One Adam update, in place, of the flat buffers of ``params`` (FlatParams),
    its moments ``m`` and ``v``, from the flat buffer of ``grads``.  The
    Python float constants keep the arithmetic in the buffers' dtype."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    g = grads.flat
    update = np.empty_like(g)
    denom = np.empty_like(g)
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=update)
    v *= b2
    np.multiply(g, 1.0 - b2, out=update)
    v += np.multiply(update, g, out=update)
    np.divide(m, 1.0 - b1**t, out=update)
    update *= lr
    np.divide(v, 1.0 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    update /= denom
    params.flat -= update


def validation_f1(
    cfg: LabelerConfig,
    params: dict,
    examples: Sequence[TrainExample],
    thresholds: Sequence[float],
) -> np.ndarray:
    """Macro-mean F1 per threshold: octave-invariant note F1 for melody
    labels, exact F1 over (tick, class) onset events for chord labels.
    Thresholds that find the same onset ticks share one score."""
    sums = np.zeros(len(thresholds))
    for ex in examples:
        score = _scorer(cfg, ex)
        sweep = onset_sweep(forward_windowed(cfg, params, ex.features), thresholds)
        keys = [ticks.tobytes() for ticks, _ in sweep]
        scores = {key: score(*onsets) for key, onsets in dict(zip(keys, sweep)).items()}
        sums += [scores[key] for key in keys]
    return sums / len(examples)


def _scorer(cfg: LabelerConfig, ex: TrainExample) -> Callable[[np.ndarray, np.ndarray], float]:
    """F1 of onsets (ticks, classes) found in ``ex``, as ``validation_f1`` scores it."""
    if cfg.vocab == "melody":
        ref = reference_melody(ex.labels, ex.amap)
        return lambda ticks, classes: octave_invariant_f1(
            onset_melody(ex.amap, ticks, classes), ref
        ).f1
    events = set(ex.labels.onset_events())
    return lambda ticks, classes: _scores(
        len(events.intersection(zip(ticks.tolist(), classes.tolist()))), len(ticks), len(events)
    )[2]


def train(
    cfg: LabelerConfig,
    examples: Sequence[TrainExample],
    settings: TrainSettings = TrainSettings(),
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    train_ex = [e for e in examples if e.split == "train"]
    valid_ex = [e for e in examples if e.split == "valid"]
    if not train_ex or not valid_ex:
        raise InputError(
            f"need train and valid examples, got {len(train_ex)} train "
            f"and {len(valid_ex)} valid"
        )
    for ex in train_ex + valid_ex:
        if ex.labels.vocab.name != cfg.vocab:
            raise InputError(f"{ex.seg_id}: labels use vocab {ex.labels.vocab.name}")
        if ex.features.shape[1] != cfg.input_dim:
            raise ShapeError(f"{ex.seg_id}: feature dim {ex.features.shape[1]}")

    rng = np.random.default_rng(settings.seed)
    vocab = vocab_by_name(cfg.vocab)
    params = init_params(cfg)
    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)

    def evaluated(at_step: int) -> TrainResult:
        """The current params, copied, at their best validation threshold."""
        f1s = validation_f1(cfg, params, valid_ex, DEFAULT_THRESHOLDS)
        k = int(np.argmax(f1s))
        return TrainResult(
            params=FlatParams(cfg, data=params.flat),
            tau=float(DEFAULT_THRESHOLDS[k]),
            valid_f1=float(f1s[k]),
            best_step=at_step,
            steps_run=at_step,
        )

    best: TrainResult | None = None
    history: list[dict] = []
    stale_evals = 0
    step = 0

    for step in range(1, settings.max_steps + 1):
        picks = rng.integers(0, len(train_ex), size=settings.batch_size)
        slices = [(train_ex[int(i)], *_sample_slice(rng, train_ex[int(i)]))
                  for i in picks]
        lengths = np.array([hi - lo for _, lo, hi in slices])
        mask = np.arange(lengths.max()) < lengths[:, None]
        batch = np.zeros((*mask.shape, cfg.input_dim), dtype=np.float32)
        for row, (ex, lo, hi) in enumerate(slices):
            batch[row, : hi - lo] = ex.features[lo:hi]

        logits, cache = forward_cached(cfg, params, batch, mask, rng=rng)
        classes = np.concatenate([ex.labels.classes[lo:hi] for ex, lo, hi in slices])
        loss, _sigmas, dlogits = _loss_and_grad(logits, classes, vocab, lengths)
        grads = backward(cfg, params, cache, dlogits)
        _adam_step(params, grads, m, v, step, settings.lr)

        if step % settings.eval_every == 0:
            result = evaluated(step)
            entry = {
                "step": step,
                "loss": loss,
                "f1": result.valid_f1,
                "tau": result.tau,
            }
            history.append(entry)
            if log is not None:
                log(
                    f"step {entry['step']}: loss {entry['loss']:.4f} "
                    f"valid F1 {entry['f1']:.4f} at tau {entry['tau']:.2f}"
                )
            if best is None or result.valid_f1 > best.valid_f1:
                best = result
                stale_evals = 0
            else:
                stale_evals += 1
                if stale_evals >= settings.patience:
                    break

    if best is None:
        best = evaluated(step)
    best.steps_run = step
    best.history = history
    return best
