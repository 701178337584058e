import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

from melscribe.align import AlignmentMap
from melscribe.cli import main
from melscribe.errors import FormatError, RangeError, ShapeError
from melscribe.features import ResampledFeatures, write_ssft
from melscribe.labeler import checkpoint
from melscribe.labeler.checkpoint import load_checkpoint, save_checkpoint
from melscribe.labeler.config import LabelerConfig
from melscribe.labeler.model import FlatParams, init_params, param_shapes

CFG = LabelerConfig(layers=1, model_dim=16, heads=2, ff_dim=32, input_dim=8)


def write_ckpt(path, cfg=CFG, tau=0.35, step=123):
    params = init_params(cfg)
    save_checkpoint(path, cfg, params, tau, step)
    return params


def rewrite_header(raw, edit):
    """The checkpoint bytes with its JSON header passed through ``edit``."""
    head_len = struct.unpack_from("<4sII", raw)[2]
    header = json.loads(raw[12 : 12 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:4] + struct.pack("<II", 1, len(head)) + head + raw[12 + head_len :]


def test_round_trip(tmp_path):
    path = tmp_path / "m.ckpt"
    params = write_ckpt(path)
    cfg, loaded, tau, step = load_checkpoint(path)
    assert cfg == CFG
    assert tau == 0.35
    assert step == 123
    assert isinstance(loaded, FlatParams)
    assert loaded.flat.dtype == np.float32 and np.array_equal(loaded.flat, params.flat)
    assert loaded.flat.flags.writeable
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], params[name])


def test_resave_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    params = init_params(CFG)
    save_checkpoint(a, CFG, params, 0.5, 7)
    save_checkpoint(b, CFG, params, 0.5, 7)
    assert a.read_bytes() == b.read_bytes()


def test_float64_params_are_stored_as_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    params = {k: v.astype(np.float64) for k, v in init_params(CFG).items()}
    save_checkpoint(path, CFG, params, 0.5, 0)
    _, loaded, _, _ = load_checkpoint(path)
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr.astype(np.float32))


def test_save_rejects_missing_and_non_finite(tmp_path):
    params = init_params(CFG)
    broken = dict(params)
    del broken["w_out"]
    with pytest.raises(ShapeError, match="w_out"):
        save_checkpoint(tmp_path / "x.ckpt", CFG, broken, 0.5, 0)
    bad = dict(params)
    bad["b_out"] = np.array([np.nan] * bad["b_out"].size, dtype=np.float32)
    with pytest.raises(FormatError, match="non-finite"):
        save_checkpoint(tmp_path / "y.ckpt", CFG, bad, 0.5, 0)
    for tau in (math.nan, 1.5):  # the thresholds load_checkpoint refuses
        path = tmp_path / f"tau-{tau}.ckpt"
        with pytest.raises(RangeError, match=r"onset threshold must lie in \(0, 1\)"):
            save_checkpoint(path, CFG, params, tau, 0)
        assert not path.exists()


def test_load_rejects_corruption(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    raw = path.read_bytes()

    def expect(data, pattern):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data)
        with pytest.raises(FormatError, match=rf"bad\.ckpt: .*{pattern}"):
            load_checkpoint(bad)

    expect(raw[:6], "truncated")
    expect(b"NOPE" + raw[4:], "magic")
    expect(raw[:4] + struct.pack("<I", 9) + raw[8:], "version")
    head_len = struct.unpack_from("<4sII", raw)[2]
    expect(raw[: 12 + head_len - 5], "past end")
    payload = len(raw) - 12 - head_len
    expect(raw + b"\x00\x00\x00\x00",
           f"tensor data is {payload + 4} bytes, the stored config implies {payload}")
    # truncate inside the tensor payload
    expect(raw[:-8], f"tensor data is {payload - 8} bytes, the stored config implies {payload}")
    # garbage header bytes of the declared length
    expect(raw[:12] + b"{" * head_len + raw[12 + head_len :], "invalid")
    # valid JSON, wrong structure
    fake = json.dumps({"config": None}).encode()
    expect(raw[:4] + struct.pack("<II", 1, len(fake)) + fake, r"\$: missing field 'step'")


def test_load_rejects_header_payload_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)

    def drop_last_tensor(header):  # no longer matches the config
        header["tensors"] = header["tensors"][:-1]

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header(path.read_bytes(), drop_last_tensor))
    with pytest.raises(FormatError, match="does not match"):
        load_checkpoint(bad)


#: Each config field with one legal value, that value and values loading refuses.
FIXED_FIELDS = {
    "max_ticks": (384, (383, 385, 384.0, 2**62, True, None, "384")),
    "standardize_input": (True, (False, 1, None, "true")),
    "use_positions": (True, (False, 1, None, "true")),
}


def assert_fixed_fields_refused(tmp_path, capsys, keys):
    """Loading and transcribe refuse each of ``keys`` set to another value or left out."""
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    raw = path.read_bytes()
    header = json.loads(raw[12 : 12 + struct.unpack_from("<4sII", raw)[2]])
    bad = tmp_path / "bad.ckpt"
    for key in keys:
        fixed, values = FIXED_FIELDS[key]
        assert type(header["config"][key]) is type(fixed)
        assert header["config"][key] == fixed
        message = re.escape(f"{bad}: $.config.{key}: must be {json.dumps(fixed)}")
        edits = [lambda h, v=v: h["config"].update({key: v}) for v in values]
        for edit in edits + [lambda h: h["config"].pop(key)]:
            bad.write_bytes(rewrite_header(raw, edit))
            with pytest.raises(FormatError, match=message):
                load_checkpoint(bad)
            code = main(["transcribe", "--checkpoint", str(bad), "--features", "f.ssft",
                         "--alignment", "a.json", "--out", str(tmp_path / "est.json")])
            assert code == 1
            assert re.match("error: " + message, capsys.readouterr().err)


def test_load_refuses_a_model_switch_that_is_not_true(tmp_path, capsys):
    assert_fixed_fields_refused(tmp_path, capsys, ("standardize_input", "use_positions"))


def test_load_refuses_a_max_ticks_other_than_384(tmp_path, capsys):
    assert_fixed_fields_refused(tmp_path, capsys, ("max_ticks",))


def test_load_rejects_non_finite_blob(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="non-finite"):
        load_checkpoint(path)


def swap_w_in_shape(header):
    entry = header["tensors"][0]
    assert entry["name"] == "w_in"
    entry["shape"] = entry["shape"][::-1]


def test_load_rejects_malformed_tensor_list(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    raw = path.read_bytes()
    for tensors in ([1], ["w_in"], [{"name": "w_in"}], [{"name": "w_in", "shape": 8}],
                    [{"name": "w_in", "shape": ["x", 16]}], 7):
        def edit(header, tensors=tensors):
            header["tensors"] = tensors
        path.write_bytes(rewrite_header(raw, edit))
        with pytest.raises(FormatError, match=r"m\.ckpt: \$\.tensors"):
            load_checkpoint(path)


def test_load_rejects_over_long_integer_in_header(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    raw = path.read_bytes()
    head_len = struct.unpack_from("<4sII", raw)[2]
    # also a value nested deeper than the JSON parser's stack
    for step in (b"1" + b"0" * 5000, b"[" * 100000 + b"]" * 100000):
        head = raw[12 : 12 + head_len].replace(b'"step":123', b'"step":' + step)
        path.write_bytes(raw[:4] + struct.pack("<II", 1, len(head)) + head + raw[12 + head_len :])
        with pytest.raises(FormatError, match="invalid checkpoint header"):
            load_checkpoint(path)


def test_load_rejects_shapes_the_config_does_not_imply(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    # same names, same byte count: w_in stored as (model_dim, input_dim)
    path.write_bytes(rewrite_header(path.read_bytes(), swap_w_in_shape))
    with pytest.raises(FormatError, match=r"w_in has shape \[16, 8\]"):
        load_checkpoint(path)


def test_transcribe_with_mis_shaped_checkpoint_exits_1(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    path.write_bytes(rewrite_header(path.read_bytes(), swap_w_in_shape))
    write_ssft(tmp_path / "f.ssft", ResampledFeatures(np.zeros((8, CFG.input_dim))))
    AlignmentMap([0.0, 0.5, 1.0]).save(tmp_path / "a.json")
    proc = subprocess.run(
        [sys.executable, "-m", "melscribe.cli", "transcribe", "--checkpoint", str(path),
         "--features", str(tmp_path / "f.ssft"), "--alignment", str(tmp_path / "a.json"),
         "--out", str(tmp_path / "est.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "w_in" in proc.stderr


CONFIG_FAULTS = [
    ("model_dim", 16.0, r"\$\.config\.model_dim: field 'model_dim' must be an integer"),
    ("seed", -1, r"\$\.config: seed must be non-negative, got -1"),
    ("heads", True, r"\$\.config\.heads: field 'heads' must be an integer"),
    ("max_ticks", 2.5, r"\$\.config\.max_ticks: must be 384"),
    ("layers", 0, r"\$\.config: all size fields must be at least 1"),
    ("vocab", "drums", r"\$\.config: unknown vocabulary 'drums'"),
]


@pytest.mark.parametrize("key, value, message", CONFIG_FAULTS,
                         ids=[key for key, _, _ in CONFIG_FAULTS])
def test_load_names_the_file_and_config_path_of_a_bad_field(tmp_path, key, value, message):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    path.write_bytes(rewrite_header(path.read_bytes(), lambda h: h["config"].update({key: value})))
    with pytest.raises(FormatError, match=re.escape(str(path)) + ": " + message):
        load_checkpoint(path)


def test_load_refuses_unknown_and_missing_config_fields(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    raw = path.read_bytes()
    path.write_bytes(rewrite_header(raw, lambda h: h["config"].update({"depth": 3})))
    with pytest.raises(FormatError, match=r"m\.ckpt: \$\.config: unknown fields \['depth'\]"):
        load_checkpoint(path)
    path.write_bytes(rewrite_header(raw, lambda h: h["config"].pop("dropout")))
    with pytest.raises(FormatError, match=r"m\.ckpt: \$\.config: missing field 'dropout'"):
        load_checkpoint(path)


def test_transcribe_exits_1_naming_the_checkpoint_on_a_bad_config_field(tmp_path, capsys):
    good = tmp_path / "good.ckpt"
    write_ckpt(good)
    write_ssft(tmp_path / "f.ssft", ResampledFeatures(np.zeros((8, CFG.input_dim))))
    AlignmentMap([0.0, 0.5, 1.0]).save(tmp_path / "a.json")
    path = tmp_path / "m.ckpt"
    for key, value, message in CONFIG_FAULTS:
        path.write_bytes(rewrite_header(good.read_bytes(),
                                        lambda h: h["config"].update({key: value})))
        code = main(["transcribe", "--checkpoint", str(path), "--features",
                     str(tmp_path / "f.ssft"), "--alignment", str(tmp_path / "a.json"),
                     "--out", str(tmp_path / "est.json")])
        err = capsys.readouterr().err
        assert code == 1, (key, err)
        assert re.match("error: " + re.escape(str(path)) + ": " + message, err), err
        assert not (tmp_path / "est.json").exists()


@pytest.mark.parametrize("tau", [math.nan, 0.0, 1.5, -1.0])
def test_load_refuses_a_threshold_outside_0_1(tmp_path, capsys, tau):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    path.write_bytes(rewrite_header(path.read_bytes(), lambda h: h.update(tau=tau)))
    message = re.escape(f"{path}: $.tau: onset threshold must lie in (0, 1), got {tau}")
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)
    code = main(["transcribe", "--checkpoint", str(path), "--features", "f.ssft",
                 "--alignment", "a.json", "--out", str(tmp_path / "est.json")])
    assert code == 1
    assert re.match("error: " + message, capsys.readouterr().err)


def test_load_refuses_a_huge_layer_count_before_building_its_shapes(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    path.write_bytes(rewrite_header(path.read_bytes(),
                                    lambda h: h["config"].update(layers=10**9)))
    start = time.perf_counter()
    code = main(["transcribe", "--checkpoint", str(path), "--features", "f.ssft",
                 "--alignment", "a.json", "--out", str(tmp_path / "est.json")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: tensor list does not match the stored config")


def test_load_refuses_a_shape_whose_size_overflows_int64(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)

    def huge_input(header):  # 2**60 * 16 floats wraps to 0 in int64
        header["config"]["input_dim"] = 2**60
        header["tensors"][0]["shape"] = [2**60, CFG.model_dim]

    raw = rewrite_header(path.read_bytes(), huge_input)
    path.write_bytes(raw)
    payload = len(raw) - 12 - struct.unpack_from("<4sII", raw)[2]
    implied = 4 * sum(map(math.prod, param_shapes(
        dataclasses.replace(CFG, input_dim=2**60)).values()))
    with pytest.raises(FormatError, match=re.escape(
            f"m.ckpt: tensor data is {payload} bytes, the stored config implies {implied}")):
        load_checkpoint(path)


def test_save_refuses_params_built_for_another_config(tmp_path):
    path = tmp_path / "m.ckpt"
    wider = init_params(dataclasses.replace(CFG, ff_dim=64))
    with pytest.raises(ShapeError, match=re.escape(
            "tensor l0_w1 has shape [16, 64], the stored config implies [16, 32]")):
        save_checkpoint(path, CFG, wider, 0.5, 0)
    assert not path.exists()


def test_load_refuses_a_payload_cut_or_extended_at_every_tensor_boundary(tmp_path):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    raw = path.read_bytes()
    start = 12 + struct.unpack_from("<4sII", raw)[2]
    payload = len(raw) - start
    bounds = np.cumsum([0] + [4 * math.prod(shape) for shape in param_shapes(CFG).values()])
    assert bounds[-1] == payload
    lengths = {b + d for b in bounds.tolist() for d in (-1, 0, 1)} - {-1, payload}
    bad = tmp_path / "bad.ckpt"
    for length in sorted(lengths | {payload + k for k in range(1, 5)}):
        bad.write_bytes(raw[: start + length] + b"\x00" * max(0, length - payload))
        message = f"{bad}: tensor data is {length} bytes, the stored config implies {payload}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(bad)


def test_load_refuses_a_file_that_shrinks_while_it_is_read(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    write_ckpt(path)
    path.write_bytes(path.read_bytes()[:-4])
    fstat = os.fstat  # reports the size the file had before it lost its last 4 bytes
    monkeypatch.setattr(checkpoint.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 4))
    with pytest.raises(FormatError, match=r"m\.ckpt: truncated checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_names_its_tensor(tmp_path, value):
    path = tmp_path / "m.ckpt"
    params = write_ckpt(path)
    raw = path.read_bytes()
    start = 12 + struct.unpack_from("<4sII", raw)[2]
    bad, spoiled_path = tmp_path / "bad.ckpt", tmp_path / "spoiled.ckpt"
    end = 0
    for name, shape in param_shapes(CFG).items():
        end += math.prod(shape)
        # the tensor's last value and the payload's last: the first bad tensor is named
        data = bytearray(raw)
        data[start + 4 * (end - 1) : start + 4 * end] = data[-4:] = struct.pack("<f", value)
        bad.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=re.escape(f"{bad}: tensor {name} has non-finite")):
            load_checkpoint(bad)
        spoiled = {**params, name: np.full(shape, value), "b_out": np.full(CFG.n_classes, value)}
        with pytest.raises(FormatError, match=f"tensor {name} has non-finite"):
            save_checkpoint(spoiled_path, CFG, spoiled, 0.5, 0)
        assert not spoiled_path.exists()


def test_load_holds_no_temporary_the_size_of_its_parameters(tmp_path):
    cfg = LabelerConfig(layers=2, model_dim=256, heads=4, ff_dim=1024, input_dim=8)
    n_params = sum(math.prod(shape) for shape in param_shapes(cfg).values())
    assert n_params >= 1_000_000
    path = tmp_path / "m.ckpt"
    write_ckpt(path, cfg)
    tracemalloc.start()
    try:
        params = load_checkpoint(path)[1]
        extra = tracemalloc.get_traced_memory()[1] - params.flat.nbytes
    finally:
        tracemalloc.stop()
    # the finiteness check reduces the buffer in place: no mask of its length
    assert extra / n_params < 0.25
