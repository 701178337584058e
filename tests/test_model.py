import numpy as np
import pytest

from melscribe.errors import InputError, ShapeError
from melscribe.labeler.config import LabelerConfig
from melscribe.labeler.model import (
    MAX_TICKS,
    FlatParams,
    backward,
    forward_cached,
    forward_windowed,
    init_params,
    param_shapes,
    positional_encoding,
)
from oracles import gradient_check

TINY = LabelerConfig(layers=1, model_dim=16, heads=2, ff_dim=32, input_dim=12)


def test_param_names_cover_all_tensors():
    names = list(param_shapes(TINY))
    assert names[0] == "w_in" and names[-1] == "b_out"
    assert len(names) == 2 + TINY.layers * 16 + 2
    assert len(set(names)) == len(names)
    params = init_params(TINY)
    assert set(params) == set(names)


def test_init_params_shapes_and_determinism():
    params = init_params(TINY)
    assert params["w_in"].shape == (12, 16)
    assert params["b_in"].shape == (16,)
    assert params["l0_wq"].shape == (16, 16)
    assert params["l0_w1"].shape == (16, 32)
    assert params["l0_w2"].shape == (32, 16)
    assert params["w_out"].shape == (16, 89)
    assert all(p.dtype == np.float32 for p in params.values())
    assert np.all(params["b_out"] == 0)
    assert np.all(params["l0_ln1_g"] == 1)
    again = init_params(TINY)
    assert all(np.array_equal(params[k], again[k]) for k in params)
    other = init_params(LabelerConfig(**{**TINY.to_dict(), "seed": 1}))
    assert not np.array_equal(params["w_in"], other["w_in"])


def test_positional_encoding_structure():
    assert positional_encoding(16).shape == (MAX_TICKS, 16)
    pe = positional_encoding(16)[:10]
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)
    assert np.allclose(pe[:, 0], np.sin(np.arange(10)), atol=1e-6)
    assert np.allclose(pe[:, 1], np.cos(np.arange(10)), atol=1e-6)
    assert np.abs(pe).max() <= 1.0


def test_position_table_is_read_only_and_cached():
    for dim in (64, 512):
        for dtype in (np.float32, np.float64):
            table = positional_encoding(dim, np.dtype(dtype))
            assert positional_encoding(dim, np.dtype(dtype)) is table
            assert not table.flags.writeable


def test_flat_params_views_tile_the_flat_buffer_in_canonical_order():
    for params in (init_params(TINY), FlatParams(TINY, np.float64)):
        assert list(params) == list(param_shapes(TINY))
        offset = 0
        for name, shape in param_shapes(TINY).items():
            p = params[name]
            assert p.shape == shape and p.dtype == params.flat.dtype
            assert p.flags.c_contiguous and np.shares_memory(p, params.flat)
            assert p.ctypes.data == params.flat.ctypes.data + offset * p.itemsize, name
            offset += p.size
        assert offset == params.flat.size


class _Recorded(np.ndarray):
    """An array that notes the dtype of every ufunc result computed from it."""

    dtypes: set = set()

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(xs):
            return tuple(np.asarray(x) if isinstance(x, np.ndarray) else x for x in xs)

        if out is not None:
            kwargs["out"] = plain(out)
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        _Recorded.dtypes.add(np.asarray(result).dtype)
        return result.view(_Recorded) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_and_backward_stay_in_the_parameter_dtype(dtype):
    # a float64 scalar would promote a float32 array it multiplies (NEP 50)
    cfg = LabelerConfig(**{**TINY.to_dict(), "dropout": 0.5})
    params = {k: p.astype(dtype).view(_Recorded) for k, p in init_params(cfg).items()}
    x = np.random.default_rng(10).normal(size=(2, 9, 12))
    mask = np.arange(9) < np.array([[6], [9]])
    _Recorded.dtypes = set()
    logits, cache = forward_cached(cfg, params, x, mask, rng=np.random.default_rng(11))
    arrays = [logits, cache["x_std"], cache["h_out"]]
    for lc in cache["layers"]:
        for key, value in lc.items():
            group = value if key in ("ln1", "ln2") else (value,)
            arrays += [a for a in group if a.dtype != bool]
            recorded = tuple(a.view(_Recorded) for a in group)
            lc[key] = recorded if key in ("ln1", "ln2") else recorded[0]
    assert all(a.dtype == dtype for a in arrays)
    grads = backward(cfg, params, cache, logits / logits.size)
    assert all(g.dtype == dtype for g in grads.values())
    assert {d for d in _Recorded.dtypes if d.kind == "f"} == {np.dtype(dtype)}


def test_forward_shapes_and_dtype():
    params = init_params(TINY)
    x = np.random.default_rng(0).normal(size=(20, 12)).astype(np.float32)
    logits = forward_windowed(TINY, params, x)
    assert logits.shape == (20, 89)
    assert logits.dtype == np.float32
    assert np.isfinite(logits).all()
    with pytest.raises(ShapeError):
        forward_windowed(TINY, params, x[:, :5])
    with pytest.raises(ShapeError):
        forward_windowed(TINY, params, x[None])
    with pytest.raises(InputError, match="tick count 0"):
        forward_windowed(TINY, params, x[:0])
    with pytest.raises(InputError, match=r"tick count 385 outside 1\.\.384"):
        forward_cached(TINY, params, np.zeros((1, 385, 12), dtype=np.float32))
    broken = {**params, "b_out": np.full_like(params["b_out"], np.inf)}
    with pytest.raises(InputError, match="non-finite"):
        forward_windowed(TINY, broken, x)


def test_forward_windowed_refuses_finite_parameters_whose_logits_overflow():
    params = init_params(TINY)
    params["w_out"][...] = np.finfo(np.float32).max  # passes a checkpoint's finiteness check
    x = np.random.default_rng(0).normal(size=(400, 12)).astype(np.float32)  # two windows
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InputError, match="forward pass produced non-finite logits"):
        forward_windowed(TINY, params, x)


def test_forward_chord_head():
    cfg = LabelerConfig(**{**TINY.to_dict(), "vocab": "chords"})
    logits = forward_windowed(cfg, init_params(cfg), np.zeros((8, 12), dtype=np.float32))
    assert logits.shape == (8, 97)


def test_forward_is_deterministic():
    params = init_params(TINY)
    x = np.random.default_rng(1).normal(size=(16, 12)).astype(np.float32)
    a = forward_windowed(TINY, params, x)
    b = forward_windowed(TINY, params, x)
    assert np.array_equal(a, b)


def test_standardize_whitens_each_sequence():
    params = init_params(TINY)
    rng = np.random.default_rng(2)
    x = (5.0 + 3.0 * rng.normal(size=(2, 10, 12))).astype(np.float32)
    mask = np.ones((2, 10), dtype=bool)
    mask[1, 6:] = False
    _, cache = forward_cached(TINY, params, x, mask)
    xs = cache["x_std"]  # packed: row 0's 10 real ticks, then row 1's 6
    assert xs.shape == (16, 12)
    flat0 = xs[:10].ravel()
    assert abs(flat0.mean()) < 1e-4
    assert abs(flat0.std() - 1.0) < 1e-3
    valid1 = xs[10:].ravel()
    assert abs(valid1.mean()) < 1e-4
    assert abs(valid1.std() - 1.0) < 1e-3


def test_mask_blocks_cross_row_influence():
    params = init_params(TINY)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 12)).astype(np.float32)
    b = rng.normal(size=(9, 12)).astype(np.float32)
    batch = np.zeros((2, 9, 12), dtype=np.float32)
    batch[0, :6] = a
    batch[1] = b
    mask = np.zeros((2, 9), dtype=bool)
    mask[0, :6] = True
    mask[1] = True
    logits, _ = forward_cached(TINY, params, batch, mask)  # row 0's 6 ticks come first
    solo = forward_windowed(TINY, params, a)
    assert np.max(np.abs(logits[:6] - solo)) < 1e-4


def test_forward_windowed_chunks_long_inputs():
    params = init_params(TINY)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(800, 12)).astype(np.float32)  # MAX_TICKS is 384
    logits = forward_windowed(TINY, params, x)
    assert logits.shape == (800, 89)
    for start in (0, 384, 768):
        stop = min(start + 384, 800)
        window, _ = forward_cached(TINY, params, x[None, start:stop])
        assert np.array_equal(logits[start:stop], window)


def test_dropout_only_active_in_training():
    cfg = LabelerConfig(**{**TINY.to_dict(), "dropout": 0.5})
    params = init_params(cfg)
    x = np.random.default_rng(5).normal(size=(1, 10, 12)).astype(np.float32)
    plain, _ = forward_cached(cfg, params, x)
    rng = np.random.default_rng(6)
    dropped, _ = forward_cached(cfg, params, x, rng=rng)
    assert not np.array_equal(plain, dropped)
    again, _ = forward_cached(cfg, params, x)
    assert np.array_equal(plain, again)


def test_backward_produces_full_gradient_dict():
    params = init_params(TINY)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 8, 12)).astype(np.float32)
    logits, cache = forward_cached(TINY, params, x)
    grads = backward(TINY, params, cache, np.ones_like(logits) / logits.size)
    assert set(grads) == set(params)
    assert all(grads[k].shape == params[k].shape for k in params)
    assert all(np.isfinite(g).all() for g in grads.values())
    assert any(np.abs(g).max() > 0 for g in grads.values())


def test_gradient_check_small_config():
    cfg = LabelerConfig(layers=1, model_dim=16, heads=2, ff_dim=32, input_dim=12)
    worst = gradient_check(cfg, n_ticks=6, coords_per_tensor=2, seeds=(11,))
    assert worst < 1e-3


def test_gradient_check_chord_vocab():
    cfg = LabelerConfig(
        layers=1, model_dim=16, heads=2, ff_dim=32, input_dim=12, vocab="chords",
    )
    worst = gradient_check(cfg, n_ticks=6, coords_per_tensor=2, seeds=(23,))
    assert worst < 1e-3


def test_padded_batch_gradients_are_the_sum_of_single_sequence_gradients():
    # float64, so packing, scattering and gathering are checked to 1e-10
    params = {k: p.astype(np.float64) for k, p in init_params(TINY).items()}
    rng = np.random.default_rng(9)
    lengths = (4, 12, 32, 17)
    seqs = [rng.normal(size=(n, 12)) for n in lengths]
    dseqs = [rng.normal(size=(n, 89)) for n in lengths]
    batch = np.zeros((len(lengths), 32, 12))
    mask = np.zeros((len(lengths), 32), dtype=bool)
    for row, x in enumerate(seqs):
        batch[row, : len(x)], mask[row, : len(x)] = x, True
    logits, cache = forward_cached(TINY, params, batch, mask)
    grads = backward(TINY, params, cache, np.concatenate(dseqs))
    assert logits.shape == (sum(lengths), 89)

    summed = {k: np.zeros_like(p) for k, p in params.items()}
    starts = np.cumsum((0,) + lengths)
    for x, dl, start in zip(seqs, dseqs, starts):
        solo, solo_cache = forward_cached(TINY, params, x[None])
        assert np.max(np.abs(logits[start : start + len(x)] - solo)) < 1e-12
        for k, g in backward(TINY, params, solo_cache, dl).items():
            summed[k] += g
    for k in params:
        # the key bias's gradient is zero but for rounding: softmax ignores it
        scale = max(np.abs(summed[k]).max(), 1e-3)
        assert np.abs(grads[k] - summed[k]).max() / scale < 1e-10, k
