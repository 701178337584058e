"""Spoiled JSON documents fail closed.

At every JSON path of ``test_corruption``'s six JSON fixtures and of its
checkpoint's JSON header, the root included, each value of ``SPOILERS``
replaces the value there, and each object key is also deleted in turn.
A loader may accept a spoiled document that still parses, but may raise
nothing except a MelscribeError that names the file.
"""

import json
import math
import struct

import pytest
from test_corruption import assert_fails_closed, files  # noqa: F401  (files is a fixture)

from melscribe import htparse
from melscribe.align import AlignmentMap, BeatGrid
from melscribe.evaluate import load_transcript
from melscribe.labeler.checkpoint import load_checkpoint
from melscribe.leadsheet import load_chord_changes

SPOILERS = (
    None, True, False, 0, 1, -1, 2**31, 2**63, -(2**63) - 1, 10**19, 10**30,
    1.5, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf, "", "x", [], [0], {}, {"x": 0},
)


def spoiled(value):
    """``value`` with one spoiler put at one path, or with one key deleted."""
    yield from SPOILERS
    if isinstance(value, dict):
        for key, item in value.items():
            yield {k: v for k, v in value.items() if k != key}
            for child in spoiled(item):
                yield {**value, key: child}
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for child in spoiled(item):
                yield [*value[:i], child, *value[i + 1 :]]


@pytest.mark.parametrize("name, load", [
    ("a.json", AlignmentMap.load),
    ("t.json", load_transcript),
    ("s.json", htparse.load_segment),
    ("g.json", BeatGrid.load),
    ("c.json", load_chord_changes),
    ("f.json", htparse.load_functional),
], ids=["alignment", "transcript", "segment", "beat-grid", "chord-changes", "functional"])
def test_json_loaders_refuse_spoiled_documents(files, tmp_path, name, load):  # noqa: F811
    doc = json.loads(files[name].read_text())
    variants = (json.dumps(d).encode() for d in spoiled(doc))
    assert_fails_closed(load, tmp_path / name, variants)


def test_checkpoint_loader_refuses_spoiled_headers(files, tmp_path):  # noqa: F811
    raw = files["m.ckpt"].read_bytes()
    head_len = struct.unpack_from("<4sII", raw)[2]
    payload = raw[12 + head_len :]

    def with_header(doc):
        head = json.dumps(doc).encode()
        return raw[:4] + struct.pack("<II", 1, len(head)) + head + payload

    header = json.loads(raw[12 : 12 + head_len])
    assert_fails_closed(load_checkpoint, tmp_path / "m.ckpt", map(with_header, spoiled(header)))
