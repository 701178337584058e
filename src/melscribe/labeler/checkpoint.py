"""Deterministic binary checkpoints for trained labelers.

Layout: magic ``MSCK``, u32 format version, u32 header length, a JSON
header (sorted keys, no whitespace), then raw float32 little-endian
tensor data concatenated in the header's listed order.  Writing the
same model twice yields byte-identical files.

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
import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError, ParseError, ShapeError, in_file
from ..jsonio import at, column, fields
from .config import LabelerConfig
from .decode import check_tau
from .model import MAX_TICKS, param_shapes

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


def save_checkpoint(
    path: str | Path,
    cfg: LabelerConfig,
    params: dict[str, np.ndarray],
    tau: float,
    step: int,
) -> None:
    names = list(param_shapes(cfg))
    missing = [n for n in names if n not in params]
    if missing:
        raise ShapeError(f"params missing tensors: {missing}")
    tensors = []
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"tensor {name} contains non-finite values")
        tensors.append(dict(zip(_TENSOR_FIELDS, (name, list(arr.shape)))))
        blobs.append(arr.tobytes())
    header = dict(zip(_HEADER_FIELDS, (
        {**dataclasses.asdict(cfg), **_FIXED_FIELDS},
        int(step),
        check_tau(tau),
        tensors,
    )))
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(
    path: str | Path,
) -> tuple[LabelerConfig, dict[str, np.ndarray], float, int]:
    raw = Path(path).read_bytes()
    with in_file(path):
        if len(raw) < _PREFIX.size:
            raise FormatError("truncated checkpoint")
        magic, version, head_len = _PREFIX.unpack_from(raw)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        if len(raw) < _PREFIX.size + head_len:
            raise FormatError("header extends past end of file")
        try:
            header = json.loads(raw[_PREFIX.size : _PREFIX.size + head_len])
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
        listed = []
        for i, tensor in enumerate(tensors):
            where = f"$.tensors[{i}]"
            name, shape = fields(tensor, _TENSOR_FIELDS, where)
            listed.append((name, tuple(column(shape, int, f"{where}.shape").tolist())))

        # param_shapes' count, compared before a huge layer count builds it
        if len(listed) != 4 + 16 * cfg.layers:
            raise FormatError("tensor list does not match the stored config")
        shapes = param_shapes(cfg)
        if [name for name, _ in listed] != list(shapes):
            raise FormatError("tensor list does not match the stored config")
        for name, shape in listed:
            if shape != shapes[name]:
                raise FormatError(
                    f"tensor {name} has shape {list(shape)}, "
                    f"the stored config implies {list(shapes[name])}"
                )

        params: dict[str, np.ndarray] = {}
        offset = _PREFIX.size + head_len
        for name, shape in shapes.items():
            end = offset + 4 * math.prod(shape)  # exact, so a huge shape overruns
            if end > len(raw):
                raise FormatError(f"tensor {name} overruns the file")
            arr = np.frombuffer(raw[offset:end], dtype="<f4").reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"tensor {name} has non-finite values")
            params[name] = arr.astype(np.float32)
            offset = end
        if offset != len(raw):
            raise FormatError(f"{len(raw) - offset} trailing bytes")
    return cfg, params, tau, step
