"""Independent oracles used across the test suite.

Everything here is deliberately written without touching the library's
backward passes or fast paths: finite differences for gradients, frame-set
arithmetic for segment metrics, plain-python loops for divergences,
per-head loops of small graph ops for attention, a per-tensor Adam loop
for the arena optimizer, and the float64-uniform dropout and add-then-norm
nodes the lean training graph replaced. The last section holds the probes
that only tests need: they read what the library's forward pass records,
outside any graph.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from tut import attention as A
from tut import losses as L
from tut import net as N
from tut import tensor as T


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


def adam_loop(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """``tensor.adam_step`` one tensor at a time, each ``p.data`` replaced by
    a new array; moments live in ``state.m`` / ``state.v`` as plain arrays."""
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


def dropout_uniform(x, p, rng, train, draw_axes=None):
    """``tensor.dropout`` drawn as float64 uniforms, with a mask in x's dtype."""
    if not train or p <= 0.0:
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


def add_then_norm(x, gain, bias, eps=1e-5, residual=None):
    """``tensor.instance_norm_temporal`` as an ``add`` node followed by a norm
    node whose statistics come from ``np.mean`` and ``np.var``."""
    return _norm_mean_var(x if residual is None else T.add(x, residual), gain, bias, eps)


# ---------------------------------------------------------------------------
# per-head attention loops: the references the slot kernels are tested against


def _split_heads(x, heads: int):
    head_dim = x.data.shape[1] // heads
    return [T.slice_cols(x, i * head_dim, (i + 1) * head_dim) for i in range(heads)]


def attention_loop(q, k, v, cfg, rpe=None, rng=None, train=False):
    """``attention.attend`` computed one head at a time from small graph ops.

    Full attention is a (T_q, T_k) matmul per head. The slotted patterns
    gather each slot's key row (clamped into range) and mask out-of-range
    slots before the softmax. Dropout draws one (T_q, S) mask per head, in
    head order. Returns the (T_q, d) output and the per-head probabilities.
    """
    t_q, dim = q.data.shape
    t_k = k.data.shape[0]
    head_dim = dim // cfg.heads
    scale = 1.0 / math.sqrt(head_dim)
    offsets = A.slot_offsets(cfg.pattern, t_k, cfg.window)
    if offsets is not None:
        keys = np.arange(t_q)[:, None] + offsets[None, :]
        flat_idx = np.clip(keys, 0, t_k - 1).reshape(-1)
        in_range = (keys >= 0) & (keys < t_k)
        mask = T.Tensor(np.where(in_range, 0.0, T.MASK_VALUE).astype(q.data.dtype))
    outs, probs = [], []
    for h, (qh, kh, vh) in enumerate(zip(*(_split_heads(x, cfg.heads) for x in (q, k, v)))):
        if offsets is None:
            scores = T.mul(T.matmul(qh, T.transpose2d(kh)), scale)
        else:
            kg = T.reshape(T.gather_rows(kh, flat_idx), (t_q, len(offsets), head_dim))
            qe = T.reshape(qh, (t_q, 1, head_dim))
            scores = T.mul(T.sum_axis(T.mul(qe, kg), axis=2), scale)
            if rpe is not None:
                rpe_row = T.reshape(T.slice_cols(rpe.weights, h, h + 1), (1, len(offsets)))
                scores = T.add(scores, rpe_row)
            scores = T.add(scores, mask)
        p = T.softmax_lastdim(scores)
        probs.append(p)
        p_used = T.dropout(p, cfg.dropout, rng, train) if rng is not None else p
        if offsets is None:
            outs.append(T.matmul(p_used, vh))
        else:
            vg = T.reshape(T.gather_rows(vh, flat_idx), (t_q, len(offsets), head_dim))
            outs.append(T.sum_axis(T.mul(T.reshape(p_used, (t_q, len(offsets), 1)), vg), axis=1))
    return T.concat_cols(outs), probs


# ---------------------------------------------------------------------------
# brute-force segment metrics (frame-set arithmetic, recursive levenshtein)


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
# test-only probes of library records


def valid_key_sets(record) -> list[set[int]]:
    """Attended key indices per query row of an AttentionRecord."""
    if record.offsets is None:
        return [set(range(record.key_len)) for _ in range(record.query_len)]
    return [set((i + record.offsets[record.valid[i]]).tolist()) for i in range(record.query_len)]


def reconstruct_labels(segments) -> list:
    """Frame labels back from run-length segments."""
    out = []
    for seg in segments:
        out.extend([seg.label] * seg.length)
    return out


def extract_lad(record, frame: int, window: int):
    """One frame's local-attention distribution; None if its window is clipped."""
    half = window // 2
    if frame < half or frame > record.query_len - 1 - half:
        return None
    return T.reshape(L._lad_rows(record, np.array([frame]), window), (window,))


def mean_boundary_kl(record, labels, window: int) -> float | None:
    """Mean KL(prior || LAD) over in-range boundary frames.

    Pure numpy (no graph); None when no boundary frame has a full window.
    """
    labels = np.asarray(labels)
    boundaries = L.derive_boundaries(labels)
    mapped = L._map_boundaries(boundaries, labels.shape[0], record.query_len)
    half = window // 2
    lo, hi = half, record.query_len - 1 - half
    divergences = []
    for variant, frames in (("start", mapped.start_frames), ("end", mapped.end_frames)):
        keep = frames[(frames >= lo) & (frames <= hi)]
        if not keep.size:
            continue
        p = L.prior(variant, window).values
        lads = L._lad_rows(record, keep, window).data
        for row in lads:
            mask = p > 0
            divergences.append(float(np.sum(p[mask] * np.log(p[mask] / row[mask]))))
    if not divergences:
        return None
    return float(np.mean(divergences))


def boundary_alignment(params, cfg, samples) -> float | None:
    """Mean KL between boundary-frame attention windows (decoder last layer,
    final stage) and their priors, averaged over videos; a training probe."""
    values = []
    for sample in samples:
        outputs = N.model_forward(sample.features, params, cfg, train=False)
        record = outputs.records[-1][1]
        value = mean_boundary_kl(record, sample.labels, cfg.window)
        if value is not None:
            values.append(value)
    return float(np.mean(values)) if values else None
