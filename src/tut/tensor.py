"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each operation stores its parents and a backward closure on
the output node; ``Tensor.backward()`` replays the closures in reverse
topological order. Graphs are rebuilt on every forward pass and garbage
collected afterwards, so variable-length sequences need no special casing.
float64 is used by gradient tests, float32 is the training default.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NumericError, ShapeError

Array = np.ndarray

MASK_VALUE = -1e30  # additive score for attention slots outside the key range


class Tensor:
    """N-d array node in the autodiff graph.

    ``grad`` is populated on requires-grad leaves (and intermediates) by
    ``backward()`` and has the same shape as ``data``. Forward values are
    immutable once computed; gradient accumulation is single-threaded.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def backward(self, grad: Array | None = None):
        """Accumulate gradients into every reachable requires-grad node."""
        if grad is None:
            grad = np.ones_like(self.data)
        _accumulate(self, np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(_toposort(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar; the named functions below are the real surface
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    """Build a leaf tensor, defaulting to float64 for python data."""
    arr = np.asarray(data, dtype=dtype if dtype is not None else None)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return Tensor(arr, requires_grad=requires_grad)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order


def _accumulate(node: Tensor, grad: Array):
    if not node.requires_grad:
        return
    # copy on first write: upstream buffers may be shared between siblings
    if node.grad is None:
        node.grad = grad.copy()
    else:
        node.grad += grad


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):  # scalar fast path
        scalar = float(b)
        out_data = a.data * scalar

        def backward_scalar(g):
            _accumulate(a, g * scalar)

        return _make(out_data, (a,), backward_scalar)

    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(out_data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _make(out_data, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes inside the interval."""
    out_data = np.clip(x.data, lo, hi)

    def backward(g):
        _accumulate(x, g * ((x.data >= lo) & (x.data <= hi)))

    return _make(out_data, (x,), backward)


def transpose2d(x: Tensor) -> Tensor:
    def backward(g):
        _accumulate(x, g.T)

    return _make(x.data.T.copy(), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    old_shape = x.data.shape

    def backward(g):
        _accumulate(x, g.reshape(old_shape))

    return _make(x.data.reshape(shape), (x,), backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    def backward(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        _accumulate(x, full)

    return _make(x.data[:, start:stop].copy(), (x,), backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g):
        offset = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[:, offset : offset + w])
            offset += w

    return _make(out_data, tuple(parts), backward)


def gather_rows(x: Tensor, indices: Array) -> Tensor:
    """Select rows by index; backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    out_data = x.data[idx]

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _accumulate(x, full)

    return _make(out_data, (x,), backward)


def downsample_nearest(x: Tensor) -> Tensor:
    """Keep every second row: output row k = input row 2k."""
    if x.data.shape[0] < 1:
        raise ShapeError("cannot downsample an empty sequence")

    def backward(g):
        full = np.zeros_like(x.data)
        full[::2] = g
        _accumulate(x, full)

    return _make(x.data[::2].copy(), (x,), backward)


def upsample_nearest(x: Tensor, target_len: int) -> Tensor:
    """Nearest-neighbor restore: output row t = input row t // 2."""
    t = x.data.shape[0]
    if (target_len + 1) // 2 != t:
        raise ShapeError(f"cannot upsample {t} rows to length {target_len}")

    def backward(g):  # each input row sums its (one or two) output rows
        pairs = g[::2].copy()
        pairs[: target_len // 2] += g[1::2]
        _accumulate(x, pairs)

    return _make(np.repeat(x.data, 2, axis=0)[:target_len], (x,), backward)


def scatter_add_rows(x: Tensor, indices: Array, out_len: int) -> Tensor:
    """out[indices[i]] += x[i]; backward gathers at the same indices."""
    idx = np.asarray(indices, dtype=np.intp)
    out_data = np.zeros((out_len,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out_data, idx, x.data)

    def backward(g):
        _accumulate(x, g[idx])

    return _make(out_data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True))

    return _make(out_data, (x,), backward)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True))

    return _make(out_data, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    return mul(sum_all(x), 1.0 / x.data.size)


# ---------------------------------------------------------------------------
# normalization / activation blocks


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, max-stabilized."""
    if not np.isfinite(np.max(x.data)):
        raise NumericError("softmax input contains non-finite values")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        _accumulate(x, probs * (g - inner))

    return _make(probs, (x,), backward)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - logz
    probs = np.exp(out_data)

    def backward(g):
        _accumulate(x, g - probs * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (x,), backward)


def instance_norm_temporal(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each channel over the temporal axis of one (T, d) sequence.

    Statistics use the biased variance, so a column [1, 3] maps to [-1, 1]
    before the per-channel affine transform.
    """
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"instance norm expects a non-empty (T, d) input, got {x.data.shape}")
    t = x.data.shape[0]
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out_data = xhat * gain.data + bias.data

    def backward(g):
        _accumulate(gain, (g * xhat).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))
        gx = g * gain.data
        term = gx - gx.mean(axis=0) - xhat * (gx * xhat).mean(axis=0)
        _accumulate(x, term * inv_std)

    return _make(out_data, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool, draw_axes=None) -> Tensor:
    """Inverted dropout; identity when p == 0 or in eval mode.

    ``draw_axes`` lists x's axes in the order the uniforms are drawn,
    slowest first (default: x's own order). Drawing a (T, heads, w) tensor
    head-major gives the mask that one (T, w) draw per head would.
    """
    if not train or p <= 0.0:
        return x
    axes = tuple(range(x.data.ndim)) if draw_axes is None else tuple(draw_axes)
    draws = rng.random(tuple(x.data.shape[a] for a in axes)).transpose(np.argsort(axes))
    keep = (draws >= p).astype(x.data.dtype)
    mask = keep / (1.0 - p)
    out_data = x.data * mask

    def backward(g):
        _accumulate(x, g * mask)

    return _make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# banded (sliding-window) attention kernels
#
# Query row i, head h, slot j of a window w looks at key row i + j - w//2.
# Keys and values are zero-padded by w//2 rows on either side and read
# through a (T_q, heads, d_h, w) sliding-window view, so no per-slot copy is
# made; backward passes fold the w shifted slices back into the padding.


def _windows(x: Array, heads: int, window: int, rows: int) -> Array:
    """Window view of x (T_k, d): entry [i, h, :, j] is head h of x row
    i + j - window//2, zeros outside [0, T_k)."""
    half = window // 2
    kept = min(x.shape[0], rows + half)  # later rows fall in no window
    padded = np.zeros((rows + window - 1, heads, x.shape[1] // heads), dtype=x.dtype)
    padded[half : half + kept] = x[:kept].reshape(kept, heads, -1)
    return sliding_window_view(padded, window, axis=0)


def _fold_windows(coeff: Array, rows3: Array, key_len: int) -> Array:
    """Gradient of a window view: out[i + j - w//2] += coeff[i, :, j] * rows3[i]."""
    t_q, heads, window = coeff.shape
    half = window // 2
    padded = np.zeros((t_q + window - 1,) + rows3.shape[1:], dtype=rows3.dtype)
    for j in range(window):
        padded[j : j + t_q] += coeff[:, :, j, None] * rows3
    out = np.zeros((key_len, heads * rows3.shape[2]), dtype=rows3.dtype)
    kept = min(key_len, t_q + half)
    out[:kept] = padded[half : half + kept].reshape(kept, -1)
    return out


def banded_softmax(
    q: Tensor, k: Tensor, valid: Array, heads: int, rpe: Tensor | None = None
) -> Tensor:
    """Windowed attention probabilities of every head in one node.

    Scores q_i . k_{i+j-w//2} / sqrt(d_h), plus ``rpe[j, h]`` when given,
    are masked where ``valid`` (T_q, w) is False and max-stabilized into a
    softmax over the w slots. Returns (T_q, heads, w); a row with no valid
    slot (T_q > T_k + w//2) spreads uniformly over zero keys.
    """
    t_q, dim = q.data.shape
    window = valid.shape[1]
    if dim % heads or k.data.shape[1] != dim or valid.shape[0] != t_q:
        raise ShapeError(f"banded softmax: q {q.data.shape}, k {k.data.shape}, {heads} heads")
    scale = 1.0 / math.sqrt(dim // heads)
    q3 = q.data.reshape(t_q, heads, -1)
    k_win = _windows(k.data, heads, window, t_q)
    scores = np.matmul(q3[:, :, None, :], k_win)[:, :, 0, :] * scale
    if rpe is not None:
        scores += rpe.data.T
    scores += np.where(valid, 0.0, MASK_VALUE).astype(scores.dtype)[:, None, :]
    if not np.isfinite(np.max(scores)):
        raise NumericError("attention scores contain non-finite values")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        ds = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
        if rpe is not None:
            _accumulate(rpe, ds.sum(axis=0).T)
        ds *= scale
        dq = np.matmul(ds[:, :, None, :], k_win.swapaxes(2, 3))[:, :, 0, :]
        _accumulate(q, dq.reshape(t_q, dim))
        _accumulate(k, _fold_windows(ds, q3, k.data.shape[0]))

    return _make(probs, (q, k) if rpe is None else (q, k, rpe), backward)


def banded_mix(p: Tensor, v: Tensor) -> Tensor:
    """Per-head weighted sum of each query row's value window.

    ``p`` is (T_q, heads, w) as from ``banded_softmax``; returns (T_q, d).
    """
    t_q, heads, window = p.data.shape
    dim = v.data.shape[1]
    if dim % heads:
        raise ShapeError(f"banded mix: {heads} heads do not divide value dim {dim}")
    v_win = _windows(v.data, heads, window, t_q)
    out_data = np.matmul(p.data[:, :, None, :], v_win.swapaxes(2, 3))[:, :, 0, :]

    def backward(g):
        g3 = g.reshape(t_q, heads, -1)
        _accumulate(p, np.matmul(g3[:, :, None, :], v_win)[:, :, 0, :])
        _accumulate(v, _fold_windows(p.data, g3, v.data.shape[0]))

    return _make(out_data.reshape(t_q, dim), (p, v), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias with bias broadcast over rows."""
    return add(matmul(x, weight), bias)


# ---------------------------------------------------------------------------
# loss kernels


def cross_entropy_from_logits(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-probability of the true class per frame."""
    labels = np.asarray(labels, dtype=np.intp)
    t, c = logits.data.shape
    if labels.shape != (t,):
        raise ShapeError(f"labels shape {labels.shape} does not match {t} frames")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DomainError(f"labels must lie in [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    out_data = np.asarray(-logp[np.arange(t), labels].mean(), dtype=logits.data.dtype)
    probs = np.exp(logp)

    def backward(g):
        grad = probs.copy()
        grad[np.arange(t), labels] -= 1.0
        _accumulate(logits, grad * (g / t))

    return _make(out_data, (logits,), backward)


def kl_from_probs(p: Tensor, d: Tensor, check_domain: bool = True) -> Tensor:
    """Sum of p * log(p / d) over all entries, with 0 * log 0 == 0.

    Rows of ``p`` and ``d`` are probability vectors over the same support;
    the result sums every row's divergence.
    """
    if p.data.shape != d.data.shape:
        raise ShapeError(f"kl operands differ: {p.data.shape} vs {d.data.shape}")
    tol = 1e-6 if p.data.dtype == np.float64 else 1e-5  # f32 row sums round harder
    if check_domain:
        for name, arr in (("p", p.data), ("d", d.data)):
            if arr.min() < -tol or arr.max() > 1.0 + tol:
                raise DomainError(f"{name} entries outside [0, 1]")
    support = p.data > 0.0
    safe_p = np.where(support, p.data, 1.0)
    safe_d = np.where(support, d.data, 1.0)
    with np.errstate(divide="ignore"):  # d == 0 on p's support means KL = inf
        log_ratio = np.log(safe_p) - np.log(safe_d)
    out_data = np.asarray((np.where(support, p.data * log_ratio, 0.0)).sum(), dtype=p.data.dtype)

    def backward(g):
        _accumulate(p, g * np.where(support, log_ratio + 1.0, 0.0))
        _accumulate(d, g * np.where(support, -p.data / safe_d, 0.0))

    return _make(out_data, (p, d), backward)


def wasserstein1_from_probs(p: Tensor, d: Tensor) -> Tensor:
    """Order-1 transport distance on a unit-spaced 1-D support (per row, summed)."""
    if p.data.shape != d.data.shape:
        raise ShapeError(f"wasserstein operands differ: {p.data.shape} vs {d.data.shape}")
    diff_cum = np.cumsum(p.data - d.data, axis=-1)
    out_data = np.asarray(np.abs(diff_cum).sum(), dtype=p.data.dtype)
    # the final cumulative difference of two probability vectors is zero up
    # to rounding noise; a dead zone keeps its sign from polluting gradients
    sign = np.where(np.abs(diff_cum) <= 1e-12, 0.0, np.sign(diff_cum))
    # d loss / d p_j = sum_{i >= j} sign(c_i); reverse cumulative sum of signs
    coeff = np.flip(np.cumsum(np.flip(sign, axis=-1), axis=-1), axis=-1)

    def backward(g):
        _accumulate(p, g * coeff)
        _accumulate(d, -g * coeff)

    return _make(out_data, (p, d), backward)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)
    step: int = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, Array | None],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
):
    """One Adam update with bias correction and decoupled weight decay.

    Missing/None gradients are treated as zero; weight decay still applies,
    so unused parameters shrink but their moments stay untouched by noise.
    """
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
        if m.shape != p.data.shape:
            raise ShapeError(f"adam state shape mismatch for {name}")
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
# seeded randomness


class SeedStreams:
    """Counter-based (Philox) generators split per named site.

    Each site name maps to an independent stream derived from the run seed,
    so adding or removing one dropout layer never perturbs the draws seen by
    any other layer.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            key = np.frombuffer(digest[:16], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            self._streams[name] = gen
        return gen
