"""Spans and counters recorded from outside the program.

A span is one timed call into a layer: its name, start, end, the span it
ran inside, and the operation (song, training run, pair, command) it
belongs to.  Spans stay in memory until the run ends.  Calls the
benchmark makes itself are timed with ``Tracer.span`` at the call site;
calls the program makes internally are timed by ``instrument``, which
swaps the module attribute the caller looks up for a timing wrapper and
puts the original back afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_total = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_total[i]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, fh)


class NullTracer:
    """Tracing off: no spans, no counts, next to no cost."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


def _timed(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            count(args, kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _edges(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        indptr, indices = fn(*args, **kwargs)
        tracer.count("evaluate.onset_edges", len(indices))
        return indptr, indices

    return wrapper


def _batch_ticks(tracer: Tracer):
    def count(args, kwargs):
        x = args[2]
        mask = args[3] if len(args) > 3 else kwargs.get("mask")
        tracer.count("train.padded_ticks", x.shape[0] * x.shape[1])
        tracer.count("train.real_ticks", int(mask.sum()) if mask is not None else
                     x.shape[0] * x.shape[1])

    return count


def _wrappers(tracer: Tracer):
    """(module, attribute, wrapper factory) for every name the program calls."""
    match_calls = lambda args, kwargs: tracer.count("kernels.match_count_calls")  # noqa: E731
    train_mod = "melscribe.labeler.train"
    return [
        ("melscribe.kernels", "pool_segments",
         lambda f: _timed(tracer, "kernels.pool_segments", f)),
        ("melscribe.kernels", "match_count",
         lambda f: _timed(tracer, "kernels.match_count", f, match_calls)),
        ("melscribe.evaluate", "_onset_adjacency", lambda f: _edges(tracer, f)),
        ("melscribe.features", "align", lambda f: _counted(tracer, "align.align_calls", f)),
        ("melscribe.labeler.decode", "align",
         lambda f: _counted(tracer, "align.align_calls", f)),
        (train_mod, "align", lambda f: _counted(tracer, "align.align_calls", f)),
        ("melscribe.leadsheet", "align", lambda f: _counted(tracer, "align.align_calls", f)),
        (train_mod, "forward_cached",
         lambda f: _timed(tracer, "labeler.forward_cached", f, _batch_ticks(tracer))),
        (train_mod, "backward", lambda f: _timed(tracer, "labeler.backward", f)),
        (train_mod, "_loss_and_grad", lambda f: _timed(tracer, "labeler.loss", f)),
        (train_mod, "_adam_step", lambda f: _timed(tracer, "labeler.adam", f)),
        (train_mod, "validation_f1", lambda f: _timed(tracer, "labeler.validation_f1", f)),
        (train_mod, "forward_windowed",
         lambda f: _timed(tracer, "labeler.forward_windowed", f)),
        (train_mod, "decode", lambda f: _timed(tracer, "labeler.decode", f)),
        (train_mod, "octave_invariant_f1",
         lambda f: _timed(tracer, "evaluate.octave_invariant_f1", f)),
    ]


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the program's internal calls for the duration of the block.

    A name the program no longer has is skipped, so its layer reads 0
    rather than the benchmark failing.
    """
    if not isinstance(tracer, Tracer):
        yield
        return
    saved = []
    try:
        for module_name, attr, factory in _wrappers(tracer):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
