"""Independent oracles used across the test suite.

Everything here is deliberately written without touching the library's
backward passes or fast paths: finite differences for gradients, frame-set
arithmetic for segment metrics, plain-python loops for divergences,
per-head loops of small graph ops for attention, a per-element loop for
run-length encoding, a backward that keeps every node's gradient, a
per-tensor Adam loop for the arena optimizer, the float64-uniform dropout
and add-then-norm nodes the lean training graph replaced, and the slot kernels and norm that
rebuilt their masks per call and computed out of place, the encoder and
decoder layer composed from small nodes that the fused attention and FFN
nodes replaced, the per-video
accuracy, edit, F1 and whole-report functions and the corpus metrics built on them,
which segment each label sequence once per metric, and the
load-then-stride resampling the strided feature read replaced, the
checkpoint writer that copied every payload before writing it, and the
boundary read that scaled its head sum by 1/heads before renormalizing. The last
section holds what only tests need: probes that read what the library's
forward pass records, outside any graph, and an adapter that runs
``attend`` on given queries, keys and values; ``tensor`` builds the
tests' leaf inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from tut import losses as L
from tut import metrics as M
from tut import net as N
from tut import tensor as T
from tut.data import VideoSample
from tut.errors import NumericError, ShapeError


def tensor(data, requires_grad=False, dtype=None) -> T.Tensor:
    """A leaf tensor of data in its float dtype; other data becomes float64."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return T.Tensor(arr, requires_grad=requires_grad)


def numeric_grad(fn, arrays: list[np.ndarray], index: int, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar fn(*arrays) w.r.t. arrays[index]."""
    base = [a.astype(np.float64, copy=True) for a in arrays]
    target = base[index]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = target[ix]
        target[ix] = orig + h
        up = fn(*base)
        target[ix] = orig - h
        down = fn(*base)
        target[ix] = orig
        grad[ix] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative error, robust near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def kl_scalar(p, d) -> float:
    """Plain-loop KL divergence with 0*log0 == 0."""
    total = 0.0
    for pi, di in zip(p, d):
        if pi > 0.0:
            total += pi * math.log(pi / di)
    return total


def logsparse_key_set(t: int, i: int) -> set[int]:
    """Exhaustive enumeration of the power-of-two offset pattern."""
    keys = {i}
    off = 1
    while off <= t - 1:
        for j in (i - off, i + off):
            if 0 <= j < t:
                keys.add(j)
        off *= 2
    return keys


# ---------------------------------------------------------------------------
# per-tensor Adam: the reference the arena optimizer is tested against


@dataclass
class LoopAdamState:
    """``adam_loop``'s state: the parameters it was built for, the step
    counter, and the moments as one plain array per tensor."""

    params: dict[str, T.Tensor]
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_loop(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """``tensor.adam_step`` one tensor at a time, each ``p.data`` replaced by
    a new array; a missing or None gradient counts as zero."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update


# ---------------------------------------------------------------------------
# the graph ops the lean training graph must match byte for byte


def dropout_uniform(x, p, rng, draw_axes=None):
    """``tensor.dropout`` drawn as float64 uniforms, with a mask in x's dtype."""
    if p <= 0.0:
        return x
    axes = tuple(range(x.data.ndim)) if draw_axes is None else tuple(draw_axes)
    draws = rng.random(tuple(x.data.shape[a] for a in axes)).transpose(np.argsort(axes))
    mask = (draws >= p).astype(x.data.dtype) / (1.0 - p)

    def backward(g):
        T._accumulate(x, g * mask)

    return T._make(x.data * mask, (x,), backward)


def _norm_mean_var(x, gain, bias, eps):
    inv_std = 1.0 / np.sqrt(x.data.var(axis=0) + eps)
    xhat = (x.data - x.data.mean(axis=0)) * inv_std

    def backward(g):
        T._accumulate(gain, (g * xhat).sum(axis=0))
        T._accumulate(bias, g.sum(axis=0))
        gx = g * gain.data
        term = gx - gx.mean(axis=0) - xhat * (gx * xhat).mean(axis=0)
        T._accumulate(x, term * inv_std)

    return T._make(xhat * gain.data + bias.data, (x, gain, bias), backward)


def add_then_norm(x, gain, bias, eps=1e-5, *, residual):
    """``tensor.instance_norm_temporal`` as an ``add`` node followed by a norm
    node whose statistics come from ``np.mean`` and ``np.var``."""
    return _norm_mean_var(T.add(x, residual), gain, bias, eps)


# ---------------------------------------------------------------------------
# slot kernels that build offsets, masks and spans on every call, and the
# out-of-place norm: the references the cached layout and the in-place
# forward chains must match byte for byte


def _offset_span(offsets):
    offs = offsets.tolist()
    return min(min(offs), 0), max(max(offs), 0)


def _slot_rows_per_call(x, heads, offsets):
    lo, hi = _offset_span(offsets)
    rows = x.shape[0]
    padded = np.zeros((rows + hi - lo, heads, x.shape[1] // heads), dtype=x.dtype)
    padded[-lo : -lo + rows] = x.reshape(rows, heads, -1)
    view = np.lib.stride_tricks.as_strided(
        padded, (rows,) + padded.shape[1:] + (hi - lo + 1,), padded.strides + padded.strides[:1],
        writeable=False,
    )
    if offsets.tolist() == list(range(lo, hi + 1)):
        return view
    return view[..., offsets - lo]


def _fold_slots_per_call(coeff, rows3, offsets):
    """The key (or value) gradient of a windowed slot kernel as one shifted
    slice per slot, summed in slot order from zero: a (T + hi - lo, d) array
    whose row r is key row r + lo, with the rows outside [0, T) that
    ``tensor._fold_slots`` also adds into its padded block."""
    t = coeff.shape[0]
    lo, hi = _offset_span(offsets)
    padded = np.zeros((t + hi - lo,) + rows3.shape[1:], dtype=rows3.dtype)
    for j, off in enumerate(offsets.tolist()):
        padded[off - lo : off - lo + t] += coeff[:, :, j, None] * rows3
    return padded.reshape(len(padded), -1)


def _key_rows(folded, offsets, t):
    """Rows 0..t-1 of a ``_fold_slots_per_call`` result."""
    pad = -_offset_span(offsets)[0]
    return folded[pad : pad + t]


def in_range_mask(offsets, length):
    """(length, slots) mask of the slots whose key row lies in [0, length)."""
    keys = np.arange(length)[:, None] + offsets[None, :]
    return (keys >= 0) & (keys < length)


def slot_softmax_plain(q, k, layout, heads, rpe=None):
    """The slot softmax on (T, d) queries and keys, with the in-range mask of
    every row built from the layout's offsets on each call and each step a
    new array."""
    t, dim = q.data.shape
    offsets = layout.offsets
    valid = None if offsets is None else in_range_mask(offsets, t)
    slots = t if offsets is None else len(offsets)
    if (
        dim % heads
        or k.data.shape != (t, dim)
        or layout.length != t
        or (rpe is not None and rpe.data.shape != (slots, heads))
    ):
        raise ShapeError(f"slot softmax: q {q.data.shape}, k {k.data.shape}")
    scale = 1.0 / math.sqrt(dim // heads)
    q3 = q.data.reshape(t, heads, -1)
    if offsets is None:
        k3 = k.data.reshape(t, heads, -1)
        scores = np.matmul(q3.transpose(1, 0, 2), k3.transpose(1, 2, 0)).transpose(1, 0, 2) * scale
    else:
        k_win = _slot_rows_per_call(k.data, heads, offsets)
        scores = np.matmul(q3[:, :, None, :], k_win)[:, :, 0, :] * scale
    if rpe is not None:
        scores += rpe.data.T
    if valid is not None:
        zero, masked = scores.dtype.type(0.0), scores.dtype.type(T.MASK_VALUE)
        scores += np.where(valid, zero, masked)[:, None, :]
    if not np.isfinite(np.max(scores)):
        raise NumericError("attention scores contain non-finite values")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        ds = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
        if rpe is not None:
            T._accumulate(rpe, ds.sum(axis=0).T, own=True)
        ds *= scale
        if offsets is None:
            ds_h = ds.transpose(1, 0, 2)
            dq = np.matmul(ds_h, k3.transpose(1, 0, 2)).transpose(1, 0, 2)
            dk = np.matmul(ds_h.transpose(0, 2, 1), q3.transpose(1, 0, 2)).transpose(1, 0, 2)
            dk = dk.reshape(t, dim)
        else:
            dq = np.matmul(ds[:, :, None, :], k_win.swapaxes(2, 3))[:, :, 0, :]
            dk = _key_rows(_fold_slots_per_call(ds, q3, offsets), offsets, t)
        T._accumulate(q, dq.reshape(t, dim), own=True)
        T._accumulate(k, dk, own=True)

    return T._make(probs, (q, k) if rpe is None else (q, k, rpe), backward)


def slot_mix_plain(p, v, layout):
    """The slot mix of (T, d) values, with the slot span and band test
    redone per call from the layout's offsets."""
    t, heads, slots = p.data.shape
    dim = v.data.shape[1]
    offsets = layout.offsets
    if dim % heads or v.data.shape[0] != t or slots != (t if offsets is None else len(offsets)):
        raise ShapeError(f"slot mix: p {p.data.shape}, v {v.data.shape}")
    if offsets is None:
        v3 = v.data.reshape(t, heads, -1).transpose(1, 0, 2)
        out_data = np.matmul(p.data.transpose(1, 0, 2), v3).transpose(1, 0, 2)
    else:
        v_win = _slot_rows_per_call(v.data, heads, offsets)
        out_data = np.matmul(p.data[:, :, None, :], v_win.swapaxes(2, 3))[:, :, 0, :]

    def backward(g):
        g3 = g.reshape(t, heads, -1)
        if offsets is None:
            g_h = g3.transpose(1, 0, 2)
            dp = np.matmul(g_h, v3.transpose(0, 2, 1)).transpose(1, 0, 2)
            dv = np.matmul(p.data.transpose(1, 2, 0), g_h).transpose(1, 0, 2).reshape(t, dim)
        else:
            dp = np.matmul(g3[:, :, None, :], v_win)[:, :, 0, :]
            dv = _key_rows(_fold_slots_per_call(p.data, g3, offsets), offsets, t)
        T._accumulate(p, dp, own=True)
        T._accumulate(v, dv, own=True)

    return T._make(out_data.reshape(t, dim), (p, v), backward)


def _buffer_block(qkv, layout, block):
    """Rows layout.pad .. + layout.length of one block of a ``slot_project``
    buffer, as slice nodes of a 2-D view, so gradients reach the buffer."""
    r, blocks, dim = qkv.data.shape
    flat = T.reshape(qkv, (r, blocks * dim))
    cols = T.slice_cols(flat, block * dim, (block + 1) * dim)
    return T.slice_rows(cols, layout.pad, layout.pad + layout.length)


def slot_softmax_per_call(qkv, layout, heads, rpe=None):
    """``tensor.slot_softmax`` as slices of the buffer's Q and K rows and the
    per-call softmax on them."""
    queries, keys = (_buffer_block(qkv, layout, block) for block in (0, 1))
    return slot_softmax_plain(queries, keys, layout, heads, rpe)


def slot_mix_per_call(p, qkv, layout, dropout=0.0, rng=None):
    """``tensor.slot_mix`` as a ``dropout`` node, drawn head-major, then the
    per-call mix of a slice of the buffer's V rows."""
    if rng is not None:
        p = T.dropout(p, dropout, rng, draw_axes=(1, 0, 2))
    return slot_mix_plain(p, _buffer_block(qkv, layout, 2), layout)


def norm_out_of_place(x, gain, bias, eps=1e-5, *, residual):
    """``tensor.instance_norm_temporal`` with the sum, centred values and
    output each a new array."""
    s = x.data + residual.data
    t = s.shape[0]
    xhat = s - np.add.reduce(s, axis=0) / t
    var = np.add.reduce(xhat * xhat, axis=0) / t
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out_data = xhat * gain.data + bias.data

    def backward(g):
        T._accumulate(gain, np.add.reduce(g * xhat, axis=0), own=True)
        T._accumulate(bias, np.add.reduce(g, axis=0), own=True)
        gx = g * gain.data
        term = gx - np.add.reduce(gx, axis=0) / t - xhat * (np.add.reduce(gx * xhat, axis=0) / t)
        dx = term * inv_std
        T._accumulate(residual, dx)
        T._accumulate(x, dx, own=True)

    return T._make(out_data, (x, residual, gain, bias), backward)


# ---------------------------------------------------------------------------
# per-head attention loops: the references the slot kernels are tested against


def _split_heads(x, heads: int):
    head_dim = x.data.shape[1] // heads
    return [T.slice_cols(x, i * head_dim, (i + 1) * head_dim) for i in range(heads)]


def attention_loop(q, k, v, pattern, window, heads, dropout=0.0, rpe=None, rng=None):
    """``net.attend`` computed one head at a time from small graph ops.

    Full attention is a (T, T) matmul per head. The slotted patterns gather
    each slot's key row (clamped into range) and mask out-of-range slots
    before the softmax. Dropout draws one (T, S) mask per head, in head
    order. Returns the (T, d) output and the per-head probabilities.
    """
    t_q, dim = q.data.shape
    head_dim = dim // heads
    scale = 1.0 / math.sqrt(head_dim)
    offsets = T.slot_offsets(pattern, t_q, window)
    if offsets is not None:
        keys = np.arange(t_q)[:, None] + offsets[None, :]
        flat_idx = np.clip(keys, 0, t_q - 1).reshape(-1)
        in_range = in_range_mask(offsets, t_q)
        mask = T.Tensor(np.where(in_range, 0.0, T.MASK_VALUE).astype(q.data.dtype))
    outs, probs = [], []
    for h, (qh, kh, vh) in enumerate(zip(*(_split_heads(x, heads) for x in (q, k, v)))):
        if offsets is None:
            scores = T.mul(T.matmul(qh, T.transpose2d(kh)), scale)
        else:
            kg = T.reshape(T.gather_rows(kh, flat_idx), (t_q, len(offsets), head_dim))
            qe = T.reshape(qh, (t_q, 1, head_dim))
            scores = T.mul(T.sum_axis(T.mul(qe, kg), axis=2), scale)
            if rpe is not None:
                rpe_row = T.reshape(T.slice_cols(rpe, h, h + 1), (1, len(offsets)))
                scores = T.add(scores, rpe_row)
            scores = T.add(scores, mask)
        p = T.softmax_lastdim(scores)
        probs.append(p)
        p_used = T.dropout(p, dropout, rng) if rng is not None else p
        if offsets is None:
            outs.append(T.matmul(p_used, vh))
        else:
            vg = T.reshape(T.gather_rows(vh, flat_idx), (t_q, len(offsets), head_dim))
            outs.append(T.sum_axis(T.mul(T.reshape(p_used, (t_q, len(offsets), 1)), vg), axis=1))
    return T.concat_cols(outs), probs


# ---------------------------------------------------------------------------
# the composed layer: the reference the fused attention and FFN nodes must
# match byte for byte


def attend_composed(q, k, v, pattern, window, heads, dropout=0.0, rpe=None, rng=None):
    """Attention on given queries, keys and values as separate nodes: the
    per-call softmax, a ``dropout`` node drawn head-major, and the per-call
    mix. Returns the output and the pre-dropout probabilities."""
    if k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"key/value lengths differ: {k.data.shape[0]} vs {v.data.shape[0]}")
    layout = T.slot_layout(pattern, q.data.shape[0], window)
    probs = slot_softmax_plain(q, k, layout, heads, rpe)
    p_used = probs if rng is None else T.dropout(probs, dropout, rng, draw_axes=(1, 0, 2))
    return slot_mix_plain(p_used, v, layout), probs


def _linear_cols(x, weight, bias, start, stop):
    """``linear`` through columns start..stop of weight and bias, each a
    ``slice_cols`` node, so only those columns get a gradient."""
    cols = T.reshape(T.slice_cols(T.reshape(bias, (1, -1)), start, stop), (stop - start,))
    return T.linear(x, T.slice_cols(weight, start, stop), cols)


def parent_layout(params, rng=None):
    """``params`` in the layout that held the biases the model's algebra
    cancels: each ``qkv.b`` is (3h,) Q | K | V, and an ``ffn2.b`` follows
    each ``ffn2.w``, in the order that layout's checkpoints list them. The K
    third and ``ffn2.b`` are zeros, or with ``rng`` drawn from U(-0.5, 0.5);
    every other tensor is the same object."""
    def bias(like):
        values = np.zeros_like(like) if rng is None else rng.uniform(-0.5, 0.5, like.shape)
        return values.astype(like.dtype)

    old = {}
    for name, p in params.items():
        if name.endswith(".qkv.b"):
            q, v = np.split(p.data, 2)
            old[name] = T.Tensor(np.concatenate([q, bias(q), v]), requires_grad=True)
        else:
            old[name] = p
        if name.endswith(".ffn2.w"):
            old[name[:-1] + "b"] = T.Tensor(bias(p.data[0]), requires_grad=True)
    return old


def current_layout(tensors: dict) -> dict:
    """Arrays keyed as in ``parent_layout``'s output, in the current layout:
    no ``ffn2.b``, and each ``qkv.b`` its Q and V thirds."""
    out = {}
    for name, a in tensors.items():
        if name.endswith(".qkv.b") and a is not None:
            q, _, v = np.split(a, 3)
            out[name] = np.concatenate([q, v])
        elif not name.endswith(".ffn2.b"):
            out[name] = a
    return out


def model_composed(x, params, cfg):
    """``net.model_forward``'s logits, with no dropout, on parameters in
    ``parent_layout``: every layer is ``layer_composed``, so it adds the K
    bias and ``ffn2.b`` that the library's layers no longer hold."""
    logits = []
    for stage in range(cfg.num_stages):
        h_in = T.Tensor(x) if stage == 0 else T.softmax_lastdim(logits[-1])
        h = N._input_projection(params, cfg, stage, h_in, None)
        skips = [h]
        for layer in range(1, cfg.layers + 1):
            h, _ = layer_composed(h, params, cfg, stage, "enc", layer)
            skips.append(h)
        h = skips.pop()
        for layer in range(1, cfg.layers + 1):
            h, _ = layer_composed(h, params, cfg, stage, "dec", layer, h_enc_peer=skips.pop())
        logits.append(T.linear(h, params[f"stage{stage}.cls.w"], params[f"stage{stage}.cls.b"]))
    return logits


def layer_composed(h_prev, params, cfg, stage, coder, layer, streams=None, h_enc_peer=None):
    """``net.encoder_layer`` (coder "enc") or ``net.decoder_layer`` ("dec",
    cross-attending to ``h_enc_peer``) built from small nodes: ``linear``,
    ``slice_cols``, ``attend_composed``, norm, then ``linear``, ``relu``,
    ``dropout``, ``linear`` and norm, on parameters in ``parent_layout``:
    ``qkv.b`` holds a K bias and ``ffn2`` a bias. A decoder projects Q and
    K|V through ``slice_cols`` of the weight and bias columns. Returns the
    output and probabilities."""
    prefix = f"stage{stage}.{coder}{layer}"
    _, hidden = cfg.stage_dims(stage)
    resample = cfg.architecture == "utrans"
    w, b = params[f"{prefix}.qkv.w"], params[f"{prefix}.qkv.b"]
    if coder == "enc":
        h1 = T.downsample_nearest(h_prev) if resample else h_prev
        qkv = T.linear(h1, w, b)
        q, k, v = (T.slice_cols(qkv, i * hidden, (i + 1) * hidden) for i in range(3))
    else:
        h1 = T.upsample_nearest(h_prev, h_enc_peer.data.shape[0]) if resample else h_prev
        q = _linear_cols(h1, w, b, 0, hidden)
        kv = _linear_cols(h_enc_peer, w, b, hidden, 3 * hidden)
        k, v = T.slice_cols(kv, 0, hidden), T.slice_cols(kv, hidden, 2 * hidden)
    rpe_name = N.rpe_param_name(cfg, stage, coder, layer)
    attn, probs = attend_composed(
        q, k, v, cfg.attention, cfg.window, cfg.heads, cfg.attention_dropout,
        rpe=params[rpe_name] if rpe_name else None,
        rng=streams.stream(f"dropout:{prefix}.attn") if streams is not None else None,
    )

    def norm(name, x, residual):
        gain, bias = params[f"{prefix}.{name}.w"], params[f"{prefix}.{name}.b"]
        return T.instance_norm_temporal(x, gain, bias, N.NORM_EPS, residual=residual)

    h2 = norm("norm1", attn, h1)
    ffn = T.relu(T.linear(h2, params[f"{prefix}.ffn1.w"], params[f"{prefix}.ffn1.b"]))
    if streams is not None:
        ffn = T.dropout(ffn, cfg.ffn_dropout, streams.stream(f"dropout:{prefix}.ffn"))
    ffn = T.linear(ffn, params[f"{prefix}.ffn2.w"], params[f"{prefix}.ffn2.b"])
    return norm("norm2", ffn, h2), probs


# ---------------------------------------------------------------------------
# brute-force segment metrics (frame-set arithmetic, recursive levenshtein)


def extract_segments_loop(labels) -> list[M.Segment]:
    """Run-length encoding one element at a time, as the library did before
    it split runs with ``np.flatnonzero``."""
    labels = list(labels)
    segments: list[M.Segment] = []
    for i, label in enumerate(labels):
        if segments and segments[-1].label == label:
            segments[-1].end = i
        else:
            segments.append(M.Segment(label, i, i))
    return segments


def levenshtein_loop(a: list, b: list) -> int:
    """Edit distance one cell at a time, as ``metrics._levenshtein`` computed
    it before its rows became numpy vector ops."""
    if not a:
        return len(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def match_segments_loop(
    pred_segs: list[M.Segment], gt_segs: list[M.Segment], threshold: float
) -> tuple[int, int, int]:
    """Greedy TP/FP/FN one segment pair at a time, as ``f1_counts``
    computed them before one IoU matrix served every threshold."""
    matched = [False] * len(gt_segs)
    tp = fp = 0
    for ps in pred_segs:
        best_iou, best_idx = -1.0, None
        for idx, gs in enumerate(gt_segs):
            if matched[idx] or gs.label != ps.label:
                continue
            inter = min(ps.end, gs.end) - max(ps.start, gs.start) + 1
            union = max(ps.end, gs.end) - min(ps.start, gs.start) + 1
            iou = inter / union if inter > 0 else 0.0
            if iou > best_iou:
                best_iou, best_idx = iou, idx
        if best_idx is not None and best_iou >= threshold:
            tp += 1
            matched[best_idx] = True
        else:
            fp += 1
    return tp, fp, matched.count(False)


def segments_brute(labels) -> list[tuple[int, int, int]]:
    segs = []
    for label, group in itertools.groupby(enumerate(labels), key=lambda p: p[1]):
        frames = [i for i, _ in group]
        segs.append((label, frames[0], frames[-1]))
    return segs


def _lev_recursive(a: tuple, b: tuple) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

    return rec(len(a), len(b))


def edit_score_brute(pred, gt, ignored=()) -> float:
    sp = tuple(c for c, _, _ in segments_brute(pred) if c not in ignored)
    sg = tuple(c for c, _, _ in segments_brute(gt) if c not in ignored)
    if not sp and not sg:
        return 100.0
    return 100.0 * (1.0 - _lev_recursive(sp, sg) / max(len(sp), len(sg)))


def f1_brute(pred, gt, threshold: float, ignored=()) -> tuple[float, int, int, int]:
    """Greedy best-unmatched matching computed on explicit frame sets."""
    pred_segs = [(c, set(range(s, e + 1))) for c, s, e in segments_brute(pred) if c not in ignored]
    gt_segs = [(c, set(range(s, e + 1))) for c, s, e in segments_brute(gt) if c not in ignored]
    matched = [False] * len(gt_segs)
    tp = fp = 0
    for pc, pframes in pred_segs:
        best_iou, best_idx = -1.0, None
        for k, (gc, gframes) in enumerate(gt_segs):
            if matched[k] or gc != pc:
                continue
            iou = len(pframes & gframes) / len(pframes | gframes)
            if iou > best_iou:
                best_iou, best_idx = iou, k
        if best_idx is not None and best_iou >= threshold:
            tp += 1
            matched[best_idx] = True
        else:
            fp += 1
    fn = matched.count(False)
    if tp == 0:
        return 0.0, tp, fp, fn
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 200.0 * precision * recall / (precision + recall), tp, fp, fn


# ---------------------------------------------------------------------------
# backward that keeps the graph


def backward_keep_graph(root, grad=None):
    """Backward in the engine's order (``tensor._graph``) as it ran before
    the engine released the graph during the pass: every node keeps its
    gradient, parents and closure afterwards."""
    if grad is None:
        grad = np.ones_like(root.data)
    T._accumulate(root, np.asarray(grad, dtype=root.data.dtype))
    for node in T._graph(root):
        if node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# per-video metrics, one call per metric, and the corpus metrics built on them


def edit_score(pred, gt, ignored_classes=()) -> float:
    """One video's edit score through the library's segment codes."""
    return M._edit_from_codes(*M._coded_segments(pred, gt, ignored_classes)[2:])


def f1_counts(pred, gt, threshold: float, ignored_classes=()) -> tuple[int, int, int]:
    """One video's greedy TP/FP/FN (``metrics._match_counts``) at one threshold."""
    ious = M._segment_ious(*M._coded_segments(pred, gt, ignored_classes))
    return M._match_counts(ious, threshold)


def f1_overlap(pred, gt, threshold: float, ignored_classes=()) -> float:
    return M._f1_from_counts(*f1_counts(pred, gt, threshold, ignored_classes))


def frame_accuracy(pred, gt) -> float:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"length mismatch: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        return 100.0
    return 100.0 * float(np.mean(pred == gt))


def evaluate(pred, gt, thresholds=M.DEFAULT_THRESHOLDS, ignored_classes=()) -> M.EvalReport:
    """One video's report: accuracy, edit and F1 at each threshold."""
    return M.EvalReport(
        acc=frame_accuracy(pred, gt),
        edit=edit_score(pred, gt, ignored_classes),
        f1={tau: f1_overlap(pred, gt, tau, ignored_classes) for tau in thresholds},
    )


def evaluate_corpus_per_call(pairs, thresholds=M.DEFAULT_THRESHOLDS, ignored_classes=()):
    """Corpus report through the public per-metric functions, each of which
    segments both label sequences again."""
    edits = [edit_score(p, g, ignored_classes) for p, g in pairs]
    correct = total = 0
    pooled = {tau: [0, 0, 0] for tau in thresholds}
    for pred, gt in pairs:
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        correct += int(np.sum(pred == gt))
        total += len(gt)
        for tau in thresholds:
            tp, fp, fn = f1_counts(pred, gt, tau, ignored_classes)
            pooled[tau][0] += tp
            pooled[tau][1] += fp
            pooled[tau][2] += fn
    return M.EvalReport(
        acc=100.0 * correct / total if total else 100.0,
        edit=float(np.mean(edits)) if edits else 100.0,
        f1={tau: M._f1_from_counts(*pooled[tau]) for tau in thresholds},
    )


# ---------------------------------------------------------------------------
# load-then-stride temporal resampling


def resample_temporal(sample: VideoSample, k: int) -> VideoSample:
    """Stride-k frame selection of a loaded full-rate sample."""
    if k == 1:
        return sample
    return VideoSample(
        sample.video_id,
        np.ascontiguousarray(sample.load_features()[::k]),
        sample.labels[::k],
        source_len=sample.num_frames,
        stride=k,
    )


# ---------------------------------------------------------------------------
# the two-pass checkpoint writer


def save_checkpoint_copying(path, params, cfg):
    """``net.save_checkpoint`` as it was before it wrote from each array's
    buffer: every payload copied with ``tobytes`` and the manifest length
    found in a second walk over the records."""
    config_blob = np.frombuffer(json.dumps(asdict(cfg), sort_keys=True).encode(), dtype=np.uint8)
    entries = [("meta.config", config_blob)]
    entries += [(name, np.ascontiguousarray(p.data)) for name, p in params.items()]
    records = []
    for name, arr in entries:
        records.append(
            (name.encode(), N._DTYPE_CODES[arr.dtype], arr.shape, arr.tobytes(order="C"))
        )
    manifest_len = len(N.CHECKPOINT_MAGIC) + 4
    for name_b, _, shape, _ in records:
        manifest_len += 2 + len(name_b) + 1 + 1 + 8 * len(shape) + 8
    offset = manifest_len
    blob = bytearray(struct.pack("<I", len(entries)))
    payloads = []
    for name_b, code, shape, payload in records:
        blob += struct.pack("<H", len(name_b)) + name_b
        blob += struct.pack("<BB", code, len(shape))
        blob += b"".join(struct.pack("<Q", dim) for dim in shape)
        blob += struct.pack("<Q", offset)
        payloads.append(payload)
        offset += len(payload)
    with open(path, "wb") as fh:
        fh.write(N.CHECKPOINT_MAGIC)
        fh.write(bytes(blob))
        for payload in payloads:
            fh.write(payload)


# ---------------------------------------------------------------------------
# the boundary read with a head average


def lad_rows_averaged(probs, frames, attention: str, window: int):
    """``losses._lad_rows`` as it was when it multiplied the head sum by
    1/heads before renormalizing it."""
    _, heads, slots = probs.data.shape
    if attention == "local":
        rows = T.gather_rows(probs, frames)
    else:
        keys = frames[:, None, None] + np.arange(-(window // 2), window // 2 + 1)
        flat = (frames[:, None, None] * heads + np.arange(heads)[None, :, None]) * slots + keys
        rows = T.gather_rows(T.reshape(probs, (-1,)), flat)
        rows = T.div(rows, T.sum_axis(rows, axis=2, keepdims=True))
    avg = T.mul(T.sum_axis(rows, axis=1), 1.0 / heads)
    return T.div(avg, T.sum_axis(avg, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# test-only probes of the attention probabilities the boundary loss reads,
# and attention on given queries, keys and values


def valid_key_sets(probs, layout) -> list[set[int]]:
    """Key indices per query row that head 0 of ``attend``'s (T_q, heads, S)
    probabilities gives weight, read through the layout they were computed
    with (``tensor.slot_layout``); a masked slot holds exactly 0."""
    sets = []
    for i, row in enumerate(probs.data[:, 0]):
        slots = np.flatnonzero(row > 0)
        sets.append(set((slots if layout.offsets is None else i + layout.offsets[slots]).tolist()))
    return sets


def reconstruct_labels(segments) -> list:
    """Frame labels back from run-length segments."""
    out = []
    for seg in segments:
        out.extend([seg.label] * seg.length)
    return out


def extract_lad(probs, frame: int, attention: str, window: int):
    """One frame's local-attention distribution; None if its window is clipped."""
    half = window // 2
    if frame < half or frame > probs.data.shape[0] - 1 - half:
        return None
    return T.reshape(L._lad_rows(probs, np.array([frame]), attention, window), (window,))


def mean_boundary_kl(probs, labels, attention: str, window: int) -> float | None:
    """Mean KL(prior || LAD) over in-range boundary frames of one layer's
    attention probabilities.

    Pure numpy (no graph); None when no boundary frame has a full window.
    """
    frames, priors = L.boundary_targets(labels, probs.data.shape[0], window)
    if not frames.size:
        return None
    lads = L._lad_rows(probs, frames, attention, window).data
    kls = [np.sum(p[m] * np.log(p[m] / row[m])) for p, row, m in zip(priors, lads, priors > 0)]
    return float(np.mean(kls))


def boundary_alignment(params, cfg, samples) -> float | None:
    """Mean KL between boundary-frame attention windows (decoder last layer,
    final stage) and their priors, averaged over videos; a training probe."""
    values = []
    for sample in samples:
        outputs = N.model_forward(sample.load_features(), params, cfg, train=False)
        probs = outputs.records[-1][1]
        value = mean_boundary_kl(probs, sample.labels, cfg.attention, cfg.window)
        if value is not None:
            values.append(value)
    return float(np.mean(values)) if values else None


def attend_qkv(q, k, v, pattern, window, heads, dropout=0.0, rpe=None, rng=None, cross=False):
    """``net.attend`` on given queries, keys and values of one length.
    They are columns of its input rows, and a zero-bias identity projection
    gives them back exactly, so their gradients reach q, k and v. It runs
    self-attention on [q | k | v], or with ``cross`` [q | 0 | 0] attends to
    the memory [0 | k | v]."""
    dim, dtype = q.data.shape[1], q.data.dtype
    eye = T.Tensor(np.eye(3 * dim, dtype=dtype))
    zero = T.Tensor(np.zeros(2 * dim, dtype=dtype))
    settings = dict(dropout=dropout, rpe=rpe, rng=rng)
    if not cross:
        return N.attend(T.concat_cols([q, k, v]), eye, zero, pattern, window, heads, **settings)
    blank = T.Tensor(np.zeros(q.data.shape, dtype=dtype))
    x, memory = T.concat_cols([q, blank, blank]), T.concat_cols([blank, k, v])
    return N.attend(x, eye, zero, pattern, window, heads, memory=memory, **settings)
