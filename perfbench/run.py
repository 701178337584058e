"""Pipeline benchmark for melscribe: one command, four workloads.

    python3 perfbench/run.py --workload transcribe --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  One process drives a closed loop with one client: each operation
starts when the previous one has finished, BLAS runs one thread, and the
only parallel work is ``features mel --jobs 2`` in the cli workload.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  The line before it
gives the same figures under workload-specific names.  README.md in this
directory describes the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"
TRACE_ROOT = ROOT / ".perfbench_traces"
SETUP_REPEATS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("f1", "F1"),
)
#: Self time of a layer's spans, in ms per operation (song, training step,
#: pair); the span name is the metric name without "_ms".
LAYER_MS = (
    "features.load_wav", "features.logmel", "features.beatwise_resample",
    "features.ssft_io", "kernels.pool_segments", "kernels.match_count",
    "labeler.load_checkpoint", "labeler.forward_windowed", "labeler.forward_cached",
    "labeler.backward", "labeler.loss", "labeler.adam", "labeler.validation_f1",
    "labeler.train", "labeler.decode", "evaluate.octave_invariant_f1",
    "evaluate.note_f1", "evaluate.transcript_io", "leadsheet.assemble",
    "leadsheet.emit",
)
#: Counters per operation.
LAYER_COUNTS = ("kernels.match_count_calls", "align.align_calls", "evaluate.onset_edges")
CLI_COMMANDS = (
    "dataset_convert", "dataset_split", "align_refine", "features_mel",
    "features_resample", "transcribe", "evaluate", "leadsheet",
)
PER_LAYER = (
    [(f"{name}_ms", "ms") for name in LAYER_MS]
    + [(name, "count") for name in LAYER_COUNTS]
    + [("train.ticks_per_step", "count"), ("train.real_tick_share", "ratio")]
    + [("cli.import_s", "s")]
    + [(f"cli.{name}_s", "s") for name in CLI_COMMANDS]
    + [("trace.overhead_pct", "%")]
)
#: What items_per_s and f1 are called on each workload in the summary line.
NAMES = {
    "transcribe": ("audio_s_per_s", "song_f1"),
    "train": ("train_steps_per_s", "heldout_f1"),
    "score": ("pairs_per_s", "pair_f1"),
    "cli": ("cli_audio_s_per_s", "song_f1"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed."""
    done = []
    started = time.perf_counter()
    while not done or time.perf_counter() - started < seconds:
        done.append(workload.run_round(tracing.NullTracer(), len(done)))
    return done


def run_traced(workload, seconds: float, tracer) -> tuple[list, list, list]:
    """A warm round, then untraced and traced rounds in turn, so that both
    sides see the same conditions and neither pays for coming first."""
    warm = [workload.run_round(tracing.NullTracer(), 0)]
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        round_no = 1 + len(plain) + len(traced)
        if len(plain) <= len(traced):
            plain.append(workload.run_round(tracing.NullTracer(), round_no))
        else:
            with tracing.instrument(tracer):
                traced.append(workload.run_round(tracer, round_no))
    return warm, plain, traced


def rate(rounds) -> float:
    """Median over rounds of items per second."""
    return statistics.median(r.rate for r in rounds)


def layer_metrics(tracer, workload_name: str, workload, ops: float) -> dict:
    self_s = tracer.self_times()
    values = {f"{name}_ms": 1000.0 * self_s.get(name, 0.0) / ops for name in LAYER_MS}
    for name in LAYER_COUNTS:
        values[name] = tracer.counts.get(name, 0) / ops
    padded = tracer.counts.get("train.padded_ticks", 0)
    values["train.ticks_per_step"] = padded / ops
    values["train.real_tick_share"] = (
        tracer.counts.get("train.real_ticks", 0) / padded if padded else 0.0
    )
    commands = {}
    if workload_name == "cli":
        commands = {name: statistics.median(tracer.durations(f"cli.{name}"))
                    for name in CLI_COMMANDS}
        values["cli.import_s"] = workload.import_seconds()
    else:
        values["cli.import_s"] = 0.0
    for name in CLI_COMMANDS:
        values[f"cli.{name}_s"] = commands.get(name, 0.0)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "melscribe" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import melscribe
    import workloads

    if Path(melscribe.__file__).resolve().parent != (SRC / "melscribe").resolve():
        print(f"error: melscribe imported from {melscribe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    env = child_env()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = None
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, work / "in", env)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        warm, traced = [], []
        if args.trace:
            tracer = tracing.Tracer()
            warm, plain, traced = run_traced(workload, args.seconds, tracer)
        else:
            plain = run_rounds(workload, args.seconds)
        peak_rss_mb = (workload.peak_rss_mb if args.workload == "cli" else
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        problems, f1s = workload.check()
        f1 = statistics.fmean(f1s) if f1s else 0.0
        attempted = sum(r.attempted for r in warm + plain + traced)
        failed = sum(r.failed for r in warm + plain + traced)

        rate_name, f1_name = NAMES[args.workload]
        summary = {"workload": args.workload, "seed": args.seed, "rounds": len(plain),
                   rate_name: rate(plain), f1_name: f1, "import_s": import_s,
                   f"{rate_name}_wall": statistics.median(r.items / r.wall_s for r in plain),
                   "round_walls_s": [r.wall_s for r in plain],
                   "setup_runs_s": setup_times, "f1_items": f1s}
        if args.workload == "cli":
            summary["cli_song_s"] = statistics.median(r.wall_s for r in plain) / len(workload.songs)
        if args.trace:
            # operations: songs, pairs or cli commands; training steps on train
            ops = sum(r.items if args.workload == "train" else r.attempted for r in traced)
            values = layer_metrics(tracer, args.workload, workload, ops)
            values["trace.overhead_pct"] = 100.0 * (rate(plain) / rate(traced) - 1.0)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
            TRACE_ROOT.mkdir(exist_ok=True)
            tracer.dump(TRACE_ROOT / f"{args.workload}-seed{args.seed}.json")
        else:
            values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                      "items_per_s": rate(plain), "f1": f1}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps(summary))
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
