"""Independent oracles used across the test suite.

Everything here is deliberately written without touching the library's
backward passes or fast paths: finite differences for gradients, frame-set
arithmetic for segment metrics, plain-python loops for divergences,
per-head loops of small graph ops for attention, a per-element loop for
run-length encoding, a backward that keeps every node's gradient, a
per-tensor Adam loop for the arena optimizer, the float64-uniform dropout
and add-then-norm nodes the lean training graph replaced, and the slot kernels and norm that
rebuilt their masks per call and computed out of place, the corpus
metrics that segmented each label sequence once per metric, and the
load-then-stride resampling the strided feature read replaced. The last
section holds the probes that only tests need: they read what the
library's forward pass records, outside any graph.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from tut import attention as A
from tut import losses as L
from tut import metrics as M
from tut import net as N
from tut import tensor as T
from tut.data import VideoSample
from tut.errors import DatasetError, NumericError, ShapeError


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
# slot kernels that build offsets, masks and spans on every call, and the
# out-of-place norm: the references the cached layout and the in-place
# forward chains must match byte for byte


def _offset_span(offsets):
    offs = offsets.tolist()
    return min(min(offs), 0), max(max(offs), 0)


def _slot_rows_per_call(x, heads, offsets, rows):
    lo, hi = _offset_span(offsets)
    kept = min(x.shape[0], rows + hi)
    padded = np.zeros((rows + hi - lo, heads, x.shape[1] // heads), dtype=x.dtype)
    padded[-lo : -lo + kept] = x[:kept].reshape(kept, heads, -1)
    view = np.lib.stride_tricks.as_strided(
        padded, (rows,) + padded.shape[1:] + (hi - lo + 1,), padded.strides + padded.strides[:1],
        writeable=False,
    )
    if offsets.tolist() == list(range(lo, hi + 1)):
        return view
    return view[..., offsets - lo]


def _fold_slots_per_call(coeff, rows3, offsets, key_len):
    t_q, heads, _ = coeff.shape
    lo, hi = _offset_span(offsets)
    padded = np.zeros((t_q + hi - lo,) + rows3.shape[1:], dtype=rows3.dtype)
    for j, off in enumerate(offsets.tolist()):
        padded[off - lo : off - lo + t_q] += coeff[:, :, j, None] * rows3
    out = np.zeros((key_len, heads * rows3.shape[2]), dtype=rows3.dtype)
    kept = min(key_len, t_q + hi)
    out[:kept] = padded[-lo : -lo + kept].reshape(kept, -1)
    return out


def in_range_mask(offsets, query_len, key_len):
    """(query_len, slots) mask of the slots whose key row lies in [0, key_len)."""
    keys = np.arange(query_len)[:, None] + offsets[None, :]
    return (keys >= 0) & (keys < key_len)


def slot_softmax_per_call(q, k, layout, heads, rpe=None):
    """``tensor.slot_softmax`` with the in-range mask of every row built from
    the layout's offsets on each call and each step a new array."""
    t_q, dim = q.data.shape
    t_k = k.data.shape[0]
    offsets = layout.offsets
    valid = None if offsets is None else in_range_mask(offsets, t_q, t_k)
    slots = t_k if offsets is None else len(offsets)
    if (
        dim % heads
        or k.data.shape[1] != dim
        or (layout.query_len, layout.key_len) != (t_q, t_k)
        or (rpe is not None and rpe.data.shape != (slots, heads))
    ):
        raise ShapeError(f"slot softmax: q {q.data.shape}, k {k.data.shape}")
    scale = 1.0 / math.sqrt(dim // heads)
    q3 = q.data.reshape(t_q, heads, -1)
    if offsets is None:
        k3 = k.data.reshape(t_k, heads, -1)
        scores = np.matmul(q3.transpose(1, 0, 2), k3.transpose(1, 2, 0)).transpose(1, 0, 2) * scale
    else:
        k_win = _slot_rows_per_call(k.data, heads, offsets, t_q)
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
            dk = dk.reshape(t_k, dim)
        else:
            dq = np.matmul(ds[:, :, None, :], k_win.swapaxes(2, 3))[:, :, 0, :]
            dk = _fold_slots_per_call(ds, q3, offsets, t_k)
        T._accumulate(q, dq.reshape(t_q, dim), own=True)
        T._accumulate(k, dk, own=True)

    return T._make(probs, (q, k) if rpe is None else (q, k, rpe), backward)


def slot_mix_per_call(p, v, layout):
    """``tensor.slot_mix`` with the slot span and band test redone per call
    from the layout's offsets."""
    t_q, heads, slots = p.data.shape
    t_k, dim = v.data.shape
    offsets = layout.offsets
    if dim % heads or slots != (t_k if offsets is None else len(offsets)):
        raise ShapeError(f"slot mix: p {p.data.shape}, v {v.data.shape}")
    if offsets is None:
        v3 = v.data.reshape(t_k, heads, -1).transpose(1, 0, 2)
        out_data = np.matmul(p.data.transpose(1, 0, 2), v3).transpose(1, 0, 2)
    else:
        v_win = _slot_rows_per_call(v.data, heads, offsets, t_q)
        out_data = np.matmul(p.data[:, :, None, :], v_win.swapaxes(2, 3))[:, :, 0, :]

    def backward(g):
        g3 = g.reshape(t_q, heads, -1)
        if offsets is None:
            g_h = g3.transpose(1, 0, 2)
            dp = np.matmul(g_h, v3.transpose(0, 2, 1)).transpose(1, 0, 2)
            dv = np.matmul(p.data.transpose(1, 2, 0), g_h).transpose(1, 0, 2).reshape(t_k, dim)
        else:
            dp = np.matmul(g3[:, :, None, :], v_win)[:, :, 0, :]
            dv = _fold_slots_per_call(p.data, g3, offsets, t_k)
        T._accumulate(p, dp, own=True)
        T._accumulate(v, dv, own=True)

    return T._make(out_data.reshape(t_q, dim), (p, v), backward)


def norm_out_of_place(x, gain, bias, eps=1e-5, residual=None):
    """``tensor.instance_norm_temporal`` with the sum, centred values and
    output each a new array."""
    s = x.data if residual is None else x.data + residual.data
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
        if residual is not None:
            T._accumulate(residual, dx)
        T._accumulate(x, dx, own=True)

    parents = (x, gain, bias) if residual is None else (x, residual, gain, bias)
    return T._make(out_data, parents, backward)


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
        in_range = in_range_mask(offsets, t_q, t_k)
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
    """Greedy TP/FP/FN one segment pair at a time, as ``metrics.f1_counts``
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
    """Backward as it ran before the engine released the graph during the
    pass: every node keeps its gradient, parents and closure afterwards."""
    if grad is None:
        grad = np.ones_like(root.data)
    T._accumulate(root, np.asarray(grad, dtype=root.data.dtype))
    for node in reversed(T._toposort(root)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# corpus metrics through the per-metric functions


def evaluate_corpus_per_call(pairs, thresholds=M.DEFAULT_THRESHOLDS, ignored_classes=()):
    """Corpus report through the public per-metric functions, each of which
    segments both label sequences again."""
    per_video = [
        M.EvalReport(
            acc=M.frame_accuracy(p, g),
            edit=M.edit_score(p, g, ignored_classes),
            f1={tau: M.f1_overlap(p, g, tau, ignored_classes) for tau in thresholds},
        )
        for p, g in pairs
    ]
    correct = total = 0
    pooled = {tau: [0, 0, 0] for tau in thresholds}
    for pred, gt in pairs:
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        correct += int(np.sum(pred == gt))
        total += len(gt)
        for tau in thresholds:
            tp, fp, fn = M.f1_counts(pred, gt, tau, ignored_classes)
            pooled[tau][0] += tp
            pooled[tau][1] += fp
            pooled[tau][2] += fn
    return M.EvalReport(
        acc=100.0 * correct / total if total else 100.0,
        edit=float(np.mean([r.edit for r in per_video])) if per_video else 100.0,
        f1={tau: M._f1_from_counts(*pooled[tau]) for tau in thresholds},
        per_video=per_video,
        per_video_f1={
            tau: float(np.mean([r.f1[tau] for r in per_video])) if per_video else 0.0
            for tau in thresholds
        },
    )


# ---------------------------------------------------------------------------
# load-then-stride temporal resampling


def resample_temporal(sample: VideoSample, source_fps: float, target_fps: float) -> VideoSample:
    """Stride-k frame selection of a loaded full-rate sample; only integer
    ratios are supported."""
    ratio = source_fps / target_fps
    if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
        raise DatasetError(f"unsupported resampling ratio {source_fps}/{target_fps}")
    k = int(round(ratio))
    if k == 1:
        return sample
    return VideoSample(
        sample.video_id,
        np.ascontiguousarray(sample.load_features()[::k]),
        sample.labels[::k],
        fps=target_fps,
        source_len=sample.num_frames,
        stride=k,
    )


# ---------------------------------------------------------------------------
# test-only probes of library records


def valid_key_sets(record) -> list[set[int]]:
    """Attended key indices per query row of an AttentionRecord."""
    offsets, key_len = record.layout.offsets, record.layout.key_len
    if offsets is None:
        return [set(range(key_len)) for _ in range(record.query_len)]
    valid = in_range_mask(offsets, record.query_len, key_len)
    return [set((i + offsets[valid[i]]).tolist()) for i in range(record.query_len)]


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
        outputs = N.model_forward(sample.load_features(), params, cfg, train=False)
        record = outputs.records[-1][1]
        value = mean_boundary_kl(record, sample.labels, cfg.window)
        if value is not None:
            values.append(value)
    return float(np.mean(values)) if values else None
