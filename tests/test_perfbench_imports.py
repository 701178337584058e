"""Every program name the benchmark in ``perfbench/`` imports or traces still exists.

perfbench pins names the program no longer uses itself: the four SSFT
aliases in ``melscribe.features``, the labeler re-exports and
``LabelerConfig.to_dict``/``from_dict``.  Deleting one would otherwise
show only as a failed benchmark run.  Its tracer wraps program
functions by module and name, and skips a name that is gone, so a
rename would show only as a layer reading 0.  This reads perfbench's
sources and never writes them.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def pinned_names():
    """(file, module, name, attribute or None) for each ``from melscribe... import
    name`` in perfbench and for each attribute read off a name imported that way."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.split(".")[0] == "melscribe"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
                    yield path.name, node.module, alias.name, None
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported):
                yield (path.name, *imported[node.value.id], node.attr)


def resolves(module: str, name: str, attr: str | None) -> bool:
    obj = getattr(importlib.import_module(module), name, None)
    # Below the package root a module is never the pinned object: once
    # ``labeler/__init__`` stops re-exporting ``decode``, the package
    # attribute ``decode`` is the submodule of that name.
    if obj is None or (inspect.ismodule(obj) and module != "melscribe"):
        return False
    return attr is None or hasattr(obj, attr)


def test_every_name_perfbench_imports_from_melscribe_resolves():
    pinned = sorted(set(pinned_names()), key=str)
    seen = {(module, name, attr) for _, module, name, attr in pinned}
    # the scan sees the workloads' imports and the attributes read off them
    assert ("melscribe.features", "load_resampled", None) in seen
    assert ("melscribe.labeler", "LabelerConfig", "from_dict") in seen
    missing = [entry for entry in pinned if not resolves(*entry[1:])]
    assert not missing, missing


#: Names perfbench's tracer wraps that the program no longer calls through
#: that module.  Their layers still read values: ``align.align_calls``
#: through the decode, features and leadsheet entries, and
#: ``labeler.decode`` from the train workload's own spans.
NOT_CALLED_THERE = {
    ("melscribe.labeler.train", "align"),  # train reaches align via decode.onset_melody
    ("melscribe.labeler.train", "decode"),  # validation_f1 thresholds via onset_sweep
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_perfbench_traces_resolves():
    # tracing.instrument skips a missing name silently, so a rename would
    # zero its layer without failing the benchmark
    tracing = load_tracing()
    targets = {(module, attr) for module, attr, _ in tracing._wrappers(tracing.Tracer())}
    assert ("melscribe.labeler.train", "forward_cached") in targets
    assert NOT_CALLED_THERE <= targets
    missing = {(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == NOT_CALLED_THERE


def test_traced_training_reads_every_training_layer():
    from melscribe.labeler.config import LabelerConfig
    from melscribe.labeler.train import TrainSettings, train
    from test_train import flat_example

    tracing = load_tracing()
    tracer = tracing.Tracer()
    cfg = LabelerConfig(layers=1, model_dim=16, heads=2, ff_dim=32, input_dim=229)
    examples = [flat_example(f"t{i}", 3 + i) for i in range(4)]
    examples.append(flat_example("v", 4, split="valid"))
    with tracing.instrument(tracer):
        train(cfg, examples, TrainSettings(batch_size=4, max_steps=2, eval_every=2))
    names = {span[0] for span in tracer.spans}
    for layer in ("forward_cached", "backward", "loss", "adam", "validation_f1"):
        assert f"labeler.{layer}" in names
    # forward_cached still takes the padded batch and its mask as arguments 2 and 3
    assert 0 < tracer.counts["train.real_ticks"] < tracer.counts["train.padded_ticks"]
