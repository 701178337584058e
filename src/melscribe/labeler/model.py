"""Encoder-only transformer over beat-resampled features, in plain numpy.

The forward and backward passes are written by hand so training has no
framework dependency and stays bit-reproducible; parameters live in a
flat dict of named arrays in a fixed canonical order.  Post-layer-norm
residual blocks, sinusoidal positions, ReLU feed-forward.

Compute dtype follows the parameter dtype: float32 as ``init_params``
draws them, float64 when a caller (the gradient check) casts them for
tighter arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError, ShapeError
from .config import LabelerConfig

LN_EPS = 1e-5
MASK_BIAS = -1e9


def param_shapes(cfg: LabelerConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the canonical order."""
    d, ff = cfg.model_dim, cfg.ff_dim
    shapes: dict[str, tuple[int, ...]] = {"w_in": (cfg.input_dim, d), "b_in": (d,)}
    for i in range(cfg.layers):
        p = f"l{i}_"
        for x in "qkvo":
            shapes[p + "w" + x] = (d, d)
            shapes[p + "b" + x] = (d,)
        shapes[p + "ln1_g"] = (d,)
        shapes[p + "ln1_b"] = (d,)
        shapes[p + "w1"] = (d, ff)
        shapes[p + "b1"] = (ff,)
        shapes[p + "w2"] = (ff, d)
        shapes[p + "b2"] = (d,)
        shapes[p + "ln2_g"] = (d,)
        shapes[p + "ln2_b"] = (d,)
    shapes["w_out"] = (d, cfg.n_classes)
    shapes["b_out"] = (cfg.n_classes,)
    return shapes


def param_names(cfg: LabelerConfig) -> list[str]:
    return list(param_shapes(cfg))


def init_params(cfg: LabelerConfig) -> dict[str, np.ndarray]:
    """Xavier-uniform weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-limit, limit, size=shape).astype(np.float32)
        elif name.endswith("_g"):
            params[name] = np.ones(shape, dtype=np.float32)
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
    return params


def positional_encoding(length: int, dim: int, dtype=np.float32) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    freqs = np.power(10000.0, -np.arange(half, dtype=np.float64) * 2.0 / dim)
    angles = pos * freqs[None, :]
    pe = np.zeros((length, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : dim // 2])
    return pe.astype(dtype)


def _layer_norm_forward(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layer_norm_backward(dy, cache, g):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy * g
    m1 = dxhat.mean(-1, keepdims=True)
    m2 = (dxhat * xhat).mean(-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return dx, dg, db


def _standardize(x, mask):
    """Scalar mean/std per sequence, over real (unmasked) entries."""
    dim = x.shape[2]
    counts = (mask.sum(axis=1) * dim).astype(x.dtype)
    zero = x.dtype.type(0.0)
    masked = np.where(mask[..., None], x, zero)
    mean = masked.sum(axis=(1, 2)) / counts
    centered = np.where(mask[..., None], x - mean[:, None, None], zero)
    var = (centered * centered).sum(axis=(1, 2)) / counts
    std = np.maximum(np.sqrt(var), x.dtype.type(1e-6))
    return (x - mean[:, None, None]) / std[:, None, None]


def _split_heads(t, heads):
    n, length, dim = t.shape
    return t.reshape(n, length, heads, dim // heads).transpose(0, 2, 1, 3)


def _merge_heads(t):
    n, heads, length, hd = t.shape
    return t.transpose(0, 2, 1, 3).reshape(n, length, heads * hd)


def forward_cached(
    cfg: LabelerConfig,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Batched forward pass returning logits (N, L, C) plus a cache.

    Dropout runs exactly when ``rng`` is given, drawing its masks from it.
    """
    if x.ndim != 3:
        raise ShapeError(f"expected (batch, ticks, dim), got {x.shape}")
    n, length, dim = x.shape
    if dim != cfg.input_dim:
        raise ShapeError(f"feature dim {dim} != config input_dim {cfg.input_dim}")
    if length < 1 or length > cfg.max_ticks:
        raise InputError(f"tick count {length} outside 1..{cfg.max_ticks}")
    dt = params["w_in"].dtype
    x = np.ascontiguousarray(x, dtype=dt)
    if mask is None:
        mask = np.ones((n, length), dtype=bool)
    x = _standardize(x, mask)

    drop_p = cfg.dropout if rng is not None else 0.0

    def dropout(t):
        if drop_p == 0.0:
            return t, None
        keep = (rng.random(t.shape) >= drop_p).astype(dt) / dt.type(1.0 - drop_p)
        return t * keep, keep

    h = x @ params["w_in"] + params["b_in"] + positional_encoding(length, cfg.model_dim, dt)

    key_bias = np.where(mask, dt.type(0.0), dt.type(MASK_BIAS))[:, None, None, :]
    scale = dt.type(1.0 / np.sqrt(cfg.head_dim))
    cache: dict = {"x_std": x, "mask": mask, "layers": []}

    for i in range(cfg.layers):
        p = f"l{i}_"
        h_in = h
        q = _split_heads(h @ params[p + "wq"] + params[p + "bq"], cfg.heads)
        k = _split_heads(h @ params[p + "wk"] + params[p + "bk"], cfg.heads)
        v = _split_heads(h @ params[p + "wv"] + params[p + "bv"], cfg.heads)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale + key_bias
        scores -= scores.max(-1, keepdims=True)
        expd = np.exp(scores)
        attw = expd / expd.sum(-1, keepdims=True)
        ctx = _merge_heads(attw @ v)
        attn_out = ctx @ params[p + "wo"] + params[p + "bo"]
        attn_out, drop1 = dropout(attn_out)
        h1, ln1c = _layer_norm_forward(h_in + attn_out, params[p + "ln1_g"], params[p + "ln1_b"])
        u = h1 @ params[p + "w1"] + params[p + "b1"]
        relu_mask = u > 0
        r = u * relu_mask
        f2 = r @ params[p + "w2"] + params[p + "b2"]
        f2, drop2 = dropout(f2)
        h, ln2c = _layer_norm_forward(h1 + f2, params[p + "ln2_g"], params[p + "ln2_b"])
        cache["layers"].append({
            "h_in": h_in, "q": q, "k": k, "v": v, "attw": attw, "ctx": ctx,
            "drop1": drop1, "ln1": ln1c, "h1": h1, "relu_mask": relu_mask,
            "r": r, "drop2": drop2, "ln2": ln2c,
        })
    cache["h_out"] = h
    logits = h @ params["w_out"] + params["b_out"]
    return logits, cache


def backward(
    cfg: LabelerConfig,
    params: dict[str, np.ndarray],
    cache: dict,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients for a cached forward pass."""
    grads: dict[str, np.ndarray] = {}
    n, length, _ = dlogits.shape
    d = cfg.model_dim

    def matgrad(a, db_):
        return a.reshape(-1, a.shape[-1]).T @ db_.reshape(-1, db_.shape[-1])

    h_out = cache["h_out"]
    grads["w_out"] = matgrad(h_out, dlogits)
    grads["b_out"] = dlogits.sum(axis=(0, 1))
    dh = dlogits @ params["w_out"].T

    scale = 1.0 / np.sqrt(cfg.head_dim)
    for i in reversed(range(cfg.layers)):
        p = f"l{i}_"
        lc = cache["layers"][i]
        ds2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_backward(
            dh, lc["ln2"], params[p + "ln2_g"]
        )
        df2 = ds2 if lc["drop2"] is None else ds2 * lc["drop2"]
        grads[p + "w2"] = matgrad(lc["r"], df2)
        grads[p + "b2"] = df2.sum(axis=(0, 1))
        du = (df2 @ params[p + "w2"].T) * lc["relu_mask"]
        grads[p + "w1"] = matgrad(lc["h1"], du)
        grads[p + "b1"] = du.sum(axis=(0, 1))
        dh1 = ds2 + du @ params[p + "w1"].T
        ds1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layer_norm_backward(
            dh1, lc["ln1"], params[p + "ln1_g"]
        )
        dattn = ds1 if lc["drop1"] is None else ds1 * lc["drop1"]
        grads[p + "wo"] = matgrad(lc["ctx"], dattn)
        grads[p + "bo"] = dattn.sum(axis=(0, 1))
        dctx = _split_heads(dattn @ params[p + "wo"].T, cfg.heads)
        dattw = dctx @ lc["v"].transpose(0, 1, 3, 2)
        dv = lc["attw"].transpose(0, 1, 3, 2) @ dctx
        attw = lc["attw"]
        dscores = attw * (dattw - (dattw * attw).sum(-1, keepdims=True))
        dq = (dscores @ lc["k"]) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ lc["q"]) * scale
        dq, dk, dv = (_merge_heads(t) for t in (dq, dk, dv))
        h_in = lc["h_in"]
        dh = ds1
        for name, dt_ in (("q", dq), ("k", dk), ("v", dv)):
            grads[p + "w" + name] = matgrad(h_in, dt_)
            grads[p + "b" + name] = dt_.sum(axis=(0, 1))
            dh = dh + dt_ @ params[p + "w" + name].T

    grads["w_in"] = matgrad(cache["x_std"], dh)
    grads["b_in"] = dh.sum(axis=(0, 1))
    return grads


def forward_windowed(cfg: LabelerConfig, params: dict[str, np.ndarray], feats) -> np.ndarray:
    """Logits (ticks, n_classes) for one (ticks, dim) array of resampled
    features of any length, run through the model in windows of max_ticks."""
    x = np.asarray(feats)
    if x.ndim != 2:
        raise ShapeError(f"expected (ticks, dim) features, got shape {x.shape}")
    logits = np.concatenate([
        forward_cached(cfg, params, x[None, start : start + cfg.max_ticks])[0][0]
        for start in range(0, max(len(x), 1), cfg.max_ticks)
    ])
    if not np.all(np.isfinite(logits)):
        raise InputError("forward pass produced non-finite logits")
    return logits
