"""Train the desk checkpoint that the transcribe and cli workloads use.

    python3 perfbench/make_checkpoint.py

It follows the criterion-5 recipe in full (seed 0, 200 segments, 4000
steps, validation every 250 steps) and writes ``perfbench/desk.ckpt``.
Training is deterministic, so on the same numpy build the file comes out
byte-identical; the benchmark only reads it, so no run trains during
set-up.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from melscribe.labeler import save_checkpoint, train  # noqa: E402

CHECKPOINT = HERE / "desk.ckpt"
SEED = 0
STEPS = 4000


def main() -> int:
    started = time.perf_counter()
    examples = inputs.training_examples(SEED)
    cfg = inputs.labeler_config(SEED)
    result = train(cfg, examples, inputs.train_settings(SEED, STEPS), log=print)
    save_checkpoint(CHECKPOINT, cfg, result.params, result.tau, result.best_step)
    print(
        f"wrote {CHECKPOINT.name}: best step {result.best_step}, tau {result.tau}, "
        f"valid F1 {result.valid_f1:.4f}, {time.perf_counter() - started:.0f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
