"""Encoder-only transformer over beat-resampled features, in plain numpy.

The forward and backward passes are written by hand so training has no
framework dependency and stays bit-reproducible.  Post-layer-norm
residual blocks, sinusoidal positions, ReLU feed-forward; one GEMM per
layer projects queries, keys and values.  A padded (N, L, dim) batch is
packed to its T real ticks: every per-tick operation runs on (T, ·)
arrays, and only attention scores scatter to (N, heads, L, L) under the
key mask.  Logits come back as those (T, C) packed rows, and ``backward``
takes their gradient in the same rows.  No sequence is longer than
``MAX_TICKS``, the one window length: training draws no longer slices,
and ``forward_windowed`` cuts longer inputs into windows of that length,
so the scores stay bounded.  ``FlatParams`` is the one parameter layout:
named views, in ``param_shapes`` order, into one flat buffer, which
parameters, gradients, Adam's moments and checkpoints all share.

Compute dtype follows the parameter dtype: float32 as ``init_params``
draws them, float64 when a caller (the gradient check) casts them for
tighter arithmetic.  Every cached array, scalar and gradient of a step
stays in that dtype; a float64 scalar such as ``np.float64(0.25)`` must
not enter, because under NumPy 2's promotion rules (NEP 50) it turns a
float32 array it multiplies into a float64 one.  Where a step would make
a temporary and drop it at once, it updates an array in place instead,
with the same operations in the same order, so no result changes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..core import all_finite
from ..errors import InputError, ShapeError
from .config import LabelerConfig

LN_EPS = 1e-5
MASK_BIAS = -1e9
#: The one window length: ticks per sequence of a batch, 96 beats of sixteenths.
MAX_TICKS = 384


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


class FlatParams(dict):
    """Every parameter's tensor as a view into the one buffer ``flat``, which
    holds them in ``param_shapes`` order: a copy of ``data`` if given, else zeros."""

    def __init__(self, cfg: LabelerConfig, dtype=np.float32, data=None) -> None:
        shapes = param_shapes(cfg)
        self.flat = np.zeros(sum(map(math.prod, shapes.values())), dtype=dtype)
        if data is not None:
            self.flat[...] = data
        stop = 0
        for name, shape in shapes.items():
            start, stop = stop, stop + math.prod(shape)
            self[name] = self.flat[start:stop].reshape(shape)


def init_params(cfg: LabelerConfig) -> FlatParams:
    """Xavier-uniform weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(cfg.seed)
    params = FlatParams(cfg)
    for name, p in params.items():
        if p.ndim == 2:
            limit = np.sqrt(6.0 / (p.shape[0] + p.shape[1]))
            p[...] = rng.uniform(-limit, limit, size=p.shape)
        elif name.endswith("_g"):
            p[...] = 1.0
    return params


@lru_cache(maxsize=32)
def positional_encoding(dim: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal positions (MAX_TICKS, dim), read-only and cached."""
    pos = np.arange(MAX_TICKS, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    freqs = np.power(10000.0, -np.arange(half, dtype=np.float64) * 2.0 / dim)
    angles = pos * freqs[None, :]
    pe = np.zeros((MAX_TICKS, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : dim // 2])
    pe = pe.astype(dtype)
    pe.flags.writeable = False
    return pe


def _layer_norm_forward(x, g, b):
    """Layer norm of the rows of ``x``, which it overwrites with the output."""
    mu = x.mean(-1, keepdims=True)
    xhat = x - mu
    var = np.multiply(xhat, xhat, out=x).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = np.multiply(xhat, g, out=x)
    out += b
    return out, (xhat, inv)


def _layer_norm_backward(dy, cache, g):
    xhat, inv = cache
    tmp = dy * xhat
    dg = tmp.sum(axis=0)
    db = dy.sum(axis=0)
    dx = dy * g
    m1 = dx.mean(-1, keepdims=True)
    m2 = np.multiply(dx, xhat, out=tmp).mean(-1, keepdims=True)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=tmp)
    dx *= inv
    return dx, dg, db


def _standardize(x, lengths):
    """Scalar mean/std per sequence, each a block of consecutive rows of x,
    in place."""
    stop = 0
    for length in lengths.tolist():
        block = x[stop : stop + length]
        count = x.dtype.type(block.size)
        block -= block.sum() / count
        std = np.maximum(np.sqrt((block * block).sum() / count), x.dtype.type(1e-6))
        block /= std
        stop += length
    return x


def _scatter(rows, mask):
    """Packed rows in the padded (N, L, ...) layout of ``mask``, zero at padding."""
    out = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
    out[mask] = rows
    return out


def _pack(t, mask):
    """The real ticks of padded (N, L, ...) ``t`` as (T, ·) rows."""
    rows = t[mask]
    return rows.reshape(len(rows), -1)


def forward_cached(
    cfg: LabelerConfig,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Logits (T, C) of the T real ticks of a padded batch (N, L, dim), in
    row-major order over ``mask``, plus a cache for ``backward``.

    ``mask`` marks the real ticks, all of them when None.  Dropout runs
    exactly when ``rng`` is given, drawing its masks over the real ticks
    from it.
    """
    if x.ndim != 3:
        raise ShapeError(f"expected (batch, ticks, dim), got {x.shape}")
    n, length, dim = x.shape
    if dim != cfg.input_dim:
        raise ShapeError(f"feature dim {dim} != config input_dim {cfg.input_dim}")
    if length < 1 or length > MAX_TICKS:
        raise InputError(f"tick count {length} outside 1..{MAX_TICKS}")
    dt = params["w_in"].dtype
    if mask is None:
        mask = np.ones((n, length), dtype=bool)
    x = _standardize(np.asarray(x[mask], dtype=dt), mask.sum(axis=1))

    drop_p = cfg.dropout if rng is not None else 0.0

    def dropout(t):
        if drop_p == 0.0:
            return t, None
        keep = (rng.random(t.shape) >= drop_p).astype(dt) / dt.type(1.0 - drop_p)
        t *= keep
        return t, keep

    h = x @ params["w_in"]
    h += params["b_in"]
    positions = positional_encoding(cfg.model_dim, dt)
    h += positions[np.nonzero(mask)[1]]

    key_bias = np.where(mask, dt.type(0.0), dt.type(MASK_BIAS))[:, None, None, :]
    scale = dt.type(1.0 / np.sqrt(cfg.head_dim))
    cache: dict = {"x_std": x, "mask": mask, "layers": []}

    for i in range(cfg.layers):
        p = f"l{i}_"
        h_in = h
        wqkv = np.concatenate([params[p + "w" + c] for c in "qkv"], axis=1)
        bqkv = np.concatenate([params[p + "b" + c] for c in "qkv"])
        qkv = h @ wqkv
        qkv += bqkv
        qkv = _scatter(qkv, mask).reshape(n, length, 3, cfg.heads, -1)
        q, k, v = qkv.transpose(2, 0, 3, 1, 4)
        attw = q @ k.transpose(0, 1, 3, 2)
        attw *= scale
        attw += key_bias
        attw -= np.fmax.reduce(attw, axis=-1, keepdims=True)
        np.exp(attw, out=attw)
        attw /= attw.sum(-1, keepdims=True)
        heads_out = np.empty((n, length, cfg.heads, cfg.head_dim), dtype=dt)
        np.matmul(attw, v, out=heads_out.transpose(0, 2, 1, 3))
        ctx = _pack(heads_out, mask)
        attn_out = ctx @ params[p + "wo"]
        attn_out += params[p + "bo"]
        attn_out, drop1 = dropout(attn_out)
        attn_out += h_in
        h1, ln1c = _layer_norm_forward(attn_out, params[p + "ln1_g"], params[p + "ln1_b"])
        r = h1 @ params[p + "w1"]
        r += params[p + "b1"]
        relu_mask = r > 0
        r *= relu_mask
        f2 = r @ params[p + "w2"]
        f2 += params[p + "b2"]
        f2, drop2 = dropout(f2)
        f2 += h1
        h, ln2c = _layer_norm_forward(f2, params[p + "ln2_g"], params[p + "ln2_b"])
        cache["layers"].append({
            "h_in": h_in, "wqkv": wqkv, "q": q, "k": k, "v": v, "attw": attw,
            "heads_out": heads_out, "ctx": ctx,
            "drop1": drop1, "ln1": ln1c, "h1": h1, "relu_mask": relu_mask,
            "r": r, "drop2": drop2, "ln2": ln2c,
        })
    cache["h_out"] = h
    logits = h @ params["w_out"]
    logits += params["b_out"]
    return logits, cache


def backward(
    cfg: LabelerConfig,
    params: dict[str, np.ndarray],
    cache: dict,
    dlogits: np.ndarray,
) -> FlatParams:
    """Parameter gradients for a cached forward pass, from the gradients of
    its (T, C) logit rows."""
    mask = cache["mask"]
    dt = params["w_in"].dtype
    grads = FlatParams(cfg, dt)

    def linear(a, dy, w, b):
        """Gradients of ``a @ params[w] + params[b]`` given the output's ``dy``."""
        np.matmul(a.T, dy, out=grads[w])
        np.sum(dy, axis=0, out=grads[b])

    linear(cache["h_out"], dlogits, "w_out", "b_out")
    dh = dlogits @ params["w_out"].T

    scale = dt.type(1.0 / np.sqrt(cfg.head_dim))
    for i in reversed(range(cfg.layers)):
        p = f"l{i}_"
        lc = cache["layers"][i]
        ds2, grads[p + "ln2_g"][...], grads[p + "ln2_b"][...] = _layer_norm_backward(
            dh, lc["ln2"], params[p + "ln2_g"]
        )
        df2 = ds2 if lc["drop2"] is None else ds2 * lc["drop2"]
        linear(lc["r"], df2, p + "w2", p + "b2")
        du = df2 @ params[p + "w2"].T
        du *= lc["relu_mask"]
        linear(lc["h1"], du, p + "w1", p + "b1")
        dh1 = du @ params[p + "w1"].T
        dh1 += ds2
        ds1, grads[p + "ln1_g"][...], grads[p + "ln1_b"][...] = _layer_norm_backward(
            dh1, lc["ln1"], params[p + "ln1_g"]
        )
        dattn = ds1 if lc["drop1"] is None else ds1 * lc["drop1"]
        linear(lc["ctx"], dattn, p + "wo", p + "bo")
        dctx = _scatter(dattn @ params[p + "wo"].T, mask).reshape(lc["heads_out"].shape)
        # softmax backward; sum_j dattw_ij attw_ij equals dctx_i . heads_out_i
        ctx_dot = (dctx * lc["heads_out"]).sum(-1, keepdims=True).transpose(0, 2, 1, 3)
        dctx = dctx.transpose(0, 2, 1, 3)
        dscores = dctx @ lc["v"].transpose(0, 1, 3, 2)
        dscores -= ctx_dot
        dscores *= lc["attw"] * scale
        # dq, dk and dv in qkv's (N, L, 3, heads, head_dim) layout: packing copies rows
        dqkv = np.empty((*mask.shape, 3, cfg.heads, cfg.head_dim), dtype=dt)
        dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(dscores, lc["k"], out=dq)
        np.matmul(dscores.transpose(0, 1, 3, 2), lc["q"], out=dk)
        np.matmul(lc["attw"].transpose(0, 1, 3, 2), dctx, out=dv)
        dqkv = _pack(dqkv, mask)
        dw, db = lc["h_in"].T @ dqkv, dqkv.sum(axis=0)
        for j, c in enumerate("qkv"):
            cols = slice(j * cfg.model_dim, (j + 1) * cfg.model_dim)
            grads[p + "w" + c][...], grads[p + "b" + c][...] = dw[:, cols], db[cols]
        dh = dqkv @ lc["wqkv"].T
        dh += ds1

    linear(cache["x_std"], dh, "w_in", "b_in")
    return grads


def forward_windowed(cfg: LabelerConfig, params: dict[str, np.ndarray], feats) -> np.ndarray:
    """Logits (ticks, n_classes) for one (ticks, dim) array of resampled
    features of any length, run through the model in windows of MAX_TICKS."""
    x = np.asarray(feats)
    if x.ndim != 2:
        raise ShapeError(f"expected (ticks, dim) features, got shape {x.shape}")
    logits = np.concatenate([
        forward_cached(cfg, params, x[None, start : start + MAX_TICKS])[0]
        for start in range(0, max(len(x), 1), MAX_TICKS)
    ])
    if not all_finite(logits):
        raise InputError("forward pass produced non-finite logits")
    return logits
