"""Every program name the benchmark in ``perfbench/`` imports still exists.

perfbench pins names the program no longer uses itself: the four SSFT
aliases in ``melscribe.features``, the labeler re-exports and
``LabelerConfig.to_dict``/``from_dict``.  Deleting one would otherwise
show only as a failed benchmark run.  This reads perfbench's sources
and never writes them.
"""

import ast
import importlib
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
