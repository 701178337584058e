"""Deterministic binary checkpoints for trained labelers.

Layout: magic ``MSCK``, u32 format version, u32 header length, a JSON
header (sorted keys, no whitespace), then ``FlatParams.flat``: every
tensor in ``param_shapes`` order, one little-endian float32 buffer.
Writing the same model twice yields byte-identical files.

The header's config also carries ``"max_ticks": 384``,
``"standardize_input": true`` and ``"use_positions": true``: the model
always runs windows of ``MAX_TICKS`` ticks, standardizes its input and
adds positional encodings, and a header that says otherwise is refused.
Every other config field is read as the JSON kind of its default, and
every fault raises FormatError naming the file and, in the header, the
JSON path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from ..core import all_finite
from ..errors import FormatError, ParseError, ShapeError, in_file
from ..jsonio import at, column, fields
from .config import LabelerConfig
from .decode import check_tau
from .model import MAX_TICKS, FlatParams, param_shapes

MAGIC = b"MSCK"
VERSION = 1
_PREFIX = struct.Struct("<4sII")
#: Header config fields with one legal value each; none is a LabelerConfig field.
_FIXED_FIELDS = {"max_ticks": MAX_TICKS, "standardize_input": True, "use_positions": True}
#: Each config field and the JSON kind it is read as, the kind of its default.
_CONFIG_KINDS = {f.name: type(f.default) for f in dataclasses.fields(LabelerConfig)}
#: Kind of each key of the header and of its tensor entries.
_HEADER_FIELDS = {"config": dict, "step": int, "tau": float, "tensors": list}
_TENSOR_FIELDS = {"name": str, "shape": list}


def _check_shapes(shapes, given, error) -> None:
    """Refuse ``given`` shapes unless each tensor of ``shapes`` is there in its shape."""
    for name, shape in shapes.items():
        if given.get(name) != shape:
            found = f"has shape {list(given[name])}" if name in given else "is missing"
            raise error(f"tensor {name} {found}, the stored config implies {list(shape)}")


def _check_finite(params: FlatParams) -> None:
    """Refuse parameters holding NaN or inf, naming the first tensor that does."""
    if not all_finite(params.flat):
        name = next(name for name, p in params.items() if not all_finite(p))
        raise FormatError(f"tensor {name} has non-finite values")


def save_checkpoint(
    path: str | Path,
    cfg: LabelerConfig,
    params: Mapping[str, np.ndarray],
    tau: float,
    step: int,
) -> None:
    shapes = param_shapes(cfg)
    _check_shapes(shapes, {name: np.shape(p) for name, p in params.items()}, ShapeError)
    payload = FlatParams(cfg, "<f4", np.concatenate([np.ravel(params[name]) for name in shapes]))
    _check_finite(payload)
    header = dict(zip(_HEADER_FIELDS, (
        {**dataclasses.asdict(cfg), **_FIXED_FIELDS},
        int(step),
        check_tau(tau),
        [dict(zip(_TENSOR_FIELDS, (name, list(shape)))) for name, shape in shapes.items()],
    )))
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(head)))
        fh.write(head)
        fh.write(payload.flat.tobytes())


def load_checkpoint(
    path: str | Path,
) -> tuple[LabelerConfig, FlatParams, float, int]:
    with open(path, "rb") as fh, in_file(path):
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise FormatError("truncated checkpoint")
        magic, version, head_len = _PREFIX.unpack(prefix)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        payload = os.fstat(fh.fileno()).st_size - _PREFIX.size - head_len
        if payload < 0:
            raise FormatError("header extends past end of file")
        try:
            header = json.loads(fh.read(head_len))
        except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
            raise FormatError(f"invalid checkpoint header: {exc}") from exc
        config, step, tau, tensors = fields(header, _HEADER_FIELDS, "$")
        values = fields(config, _CONFIG_KINDS, "$.config", optional=_FIXED_FIELDS)
        for key, fixed in _FIXED_FIELDS.items():
            if type(value := config.get(key)) is not type(fixed) or value != fixed:
                raise ParseError(f"must be {json.dumps(fixed)}", f"$.config.{key}")
        with at("$.config"):
            cfg = LabelerConfig(*values)
        with at("$.tau"):
            tau = check_tau(tau)
        listed = {}
        for i, tensor in enumerate(tensors):
            where = f"$.tensors[{i}]"
            name, shape = fields(tensor, _TENSOR_FIELDS, where)
            listed[name] = tuple(column(shape, int, f"{where}.shape").tolist())
        # param_shapes' count first, so a huge layer count fails before it is built
        if len(tensors) != 4 + 16 * cfg.layers or list(listed) != list(shapes := param_shapes(cfg)):
            raise FormatError("tensor list does not match the stored config")
        _check_shapes(shapes, listed, FormatError)
        size = 4 * sum(map(math.prod, shapes.values()))  # Python ints, exact for any shape
        if payload != size:
            raise FormatError(f"tensor data is {payload} bytes, the stored config implies {size}")
        params = FlatParams(cfg, "<f4")
        if fh.readinto(params.flat) != size:  # the file shrank while it was read
            raise FormatError("truncated checkpoint")
        _check_finite(params)
    return cfg, params, tau, step
