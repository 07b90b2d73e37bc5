"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each operation stores its parents and a backward closure on
the output node; ``Tensor.backward()`` replays the closures in reverse
topological order. Graphs are rebuilt on every forward pass, so
variable-length sequences need no special casing.

Backward releases the graph as it runs (see ``Tensor.backward``): interior
gradients are not kept, requires-grad leaves keep theirs, and a second
backward that reaches a released node, from the same root or another one
sharing part of the graph, raises ``GraphReleasedError``.

float32 is the training default and float64 is used by gradient tests. An
op's value and gradients keep its inputs' dtype, 0-d results included;
only python data defaults to float64.

A node's gradient is the first array it receives, and later ones are added
into it in place. So a backward that passes on an array something else
still holds (its ``g``, a view or reshape of it, ``_unbroadcast``'s
pass-through) lets that first write copy it, and one that builds a new
array for a single parent hands it over with ``_accumulate(..., own=True)``.

A forward writes its value into one fresh buffer and chains the rest of
its arithmetic in place on that buffer (``*=``, ``+=``, ``np.exp(...,
out=)``), with the same operations in the same order as the out-of-place
expression, so the bytes do not change. It never writes into an input's
``data``, a view of it, or a shared read-only ``SlotLayout``.

``adam_step`` updates parameters in place: each ``p.data`` and ``p.grad``
is a view of one flat arena, and the step leaves every gradient zeroed, so
the next backward accumulates straight into it.

Inside ``with no_grad():`` every op returns a plain leaf that keeps no
parents and no backward closure, so inference frees each intermediate as
soon as nothing reads it. Values are the same as with the graph on.
``grad_enabled()`` tells code above the engine that no graph is being
built, so it can drop what only a backward or a loss would read.

Randomness is loaded on first use: ``SeedStreams.stream`` imports
``hashlib`` and ``numpy.random``, and so does a training-mode dropout with
p > 0. Importing this module loads neither, so a forward-only run never
does.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, GraphReleasedError, NumericError, ShapeError

Array = np.ndarray

MASK_VALUE = -1e30  # additive score for attention slots outside the key range


class Tensor:
    """N-d array node in the autodiff graph.

    ``grad`` is populated on requires-grad leaves by ``backward()`` and has
    the same shape as ``data``; an interior node's ``grad`` is None again
    once backward has passed it on. Forward values are immutable once
    computed; gradient accumulation is single-threaded.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if not isinstance(data, np.ndarray):  # a numpy scalar (0-d op result) keeps its dtype
            data = np.asarray(data, dtype=data.dtype if isinstance(data, np.floating) else np.float64)
        self.data = data
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

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def backward(self, grad: Array | None = None):
        """Accumulate gradients into every reachable requires-grad leaf.

        Nodes run in reverse topological order. Once an interior node's
        closure has passed its gradient to its parents, the node drops its
        ``grad``, parents and closure, so the saved activations and interior
        gradients are freed during the pass, not when the caller lets go of
        the loss. Leaves keep their gradients. A later backward that
        reaches a released node raises ``GraphReleasedError`` instead of
        silently dropping that node's gradient.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        _accumulate(self, np.asarray(grad, dtype=self.data.dtype))
        order = _toposort(self)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _released


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    """Build a leaf tensor, defaulting to float64 for python data."""
    arr = np.asarray(data, dtype=dtype if dtype is not None else None)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return Tensor(arr, requires_grad=requires_grad)


def _released(g: Array):
    raise GraphReleasedError(
        "backward reached a node whose graph an earlier backward already released"
    )


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


def _accumulate(node: Tensor, grad: Array, own: bool = False):
    """Add grad into node.grad. The first write copies grad, unless ``own``
    says the caller built it and holds it nowhere else; later writes add
    into the stored array in place."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = grad if own else grad.copy()
    else:
        node.grad += grad


def _accumulate_part(node: Tensor, where, grad: Array):
    """Accumulate grad into node.grad[where]; the rest of node.grad is untouched."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    node.grad[where] += grad


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


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block; the previous setting comes back on exit.

    The setting is process-wide, like the rest of the engine's single-threaded
    state."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """False inside ``no_grad``: ops build no graph, so nothing will read
    what only a backward or a loss needs."""
    return _grad_enabled


def _make(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    if not _grad_enabled or not any(p.requires_grad for p in parents):
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
        _accumulate(b, _unbroadcast(-g, b.data.shape), own=True)

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):  # scalar fast path
        scalar = float(b)
        out_data = a.data * scalar

        def backward_scalar(g):
            _accumulate(a, g * scalar, own=True)

        return _make(out_data, (a,), backward_scalar)

    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape), own=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape), own=True)

    return _make(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape), own=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape), own=True)

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T, own=True)
        _accumulate(b, a.data.T @ g, own=True)

    return _make(out_data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(g):
        _accumulate(x, g * (x.data > 0), own=True)

    return _make(out_data, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes inside the interval."""
    out_data = np.clip(x.data, lo, hi)

    def backward(g):
        _accumulate(x, g * ((x.data >= lo) & (x.data <= hi)), own=True)

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
    """Columns start..stop as a view; backward adds into those columns only."""

    def backward(g):
        _accumulate_part(x, (slice(None), slice(start, stop)), g)

    return _make(x.data[:, start:stop], (x,), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop as a view; backward adds into those rows only."""

    def backward(g):
        _accumulate_part(x, slice(start, stop), g)

    return _make(x.data[start:stop], (x,), backward)


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
        _accumulate(x, full, own=True)

    return _make(out_data, (x,), backward)


def downsample_nearest(x: Tensor) -> Tensor:
    """Keep every second row: output row k = input row 2k."""
    if x.data.shape[0] < 1:
        raise ShapeError("cannot downsample an empty sequence")

    def backward(g):
        _accumulate_part(x, slice(None, None, 2), g)

    return _make(x.data[::2].copy(), (x,), backward)


def upsample_nearest(x: Tensor, target_len: int) -> Tensor:
    """Nearest-neighbor restore: output row t = input row t // 2."""
    t = x.data.shape[0]
    if (target_len + 1) // 2 != t:
        raise ShapeError(f"cannot upsample {t} rows to length {target_len}")

    def backward(g):  # each input row sums its (one or two) output rows
        pairs = g[::2].copy()
        pairs[: target_len // 2] += g[1::2]
        _accumulate(x, pairs, own=True)

    return _make(np.repeat(x.data, 2, axis=0)[:target_len], (x,), backward)


def scatter_add_rows(x: Tensor, indices: Array, out_len: int) -> Tensor:
    """out[indices[i]] += x[i]; backward gathers at the same indices."""
    idx = np.asarray(indices, dtype=np.intp)
    out_data = np.zeros((out_len,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out_data, idx, x.data)

    def backward(g):
        _accumulate(x, g[idx], own=True)

    return _make(out_data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True), own=True)

    return _make(out_data, (x,), backward)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True), own=True)

    return _make(out_data, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    return mul(sum_all(x), 1.0 / x.data.size)


# ---------------------------------------------------------------------------
# normalization / activation blocks


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, max-stabilized."""
    rowmax = x.data.max(axis=-1, keepdims=True)
    if not np.isfinite(rowmax.max()):
        raise NumericError("softmax input contains non-finite values")
    probs = x.data - rowmax
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        _accumulate(x, probs * (g - inner), own=True)

    return _make(probs, (x,), backward)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    out_data = x.data - x.data.max(axis=-1, keepdims=True)
    probs = np.exp(out_data)
    out_data -= np.log(probs.sum(axis=-1, keepdims=True))
    np.exp(out_data, out=probs)

    def backward(g):
        _accumulate(x, g - probs * g.sum(axis=-1, keepdims=True), own=True)

    return _make(out_data, (x,), backward)


def instance_norm_temporal(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5, residual: Tensor | None = None
) -> Tensor:
    """Normalize each channel over the temporal axis of one (T, d) sequence.

    Statistics use the biased variance, so a column [1, 3] maps to [-1, 1]
    before the per-channel affine transform. With ``residual``, the input is
    x + residual in this one node: the sum is not kept, and both operands
    get its gradient.
    """
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"instance norm expects a non-empty (T, d) input, got {x.data.shape}")
    if residual is not None and residual.data.shape != x.data.shape:
        raise ShapeError(f"instance norm residual {residual.data.shape} is not {x.data.shape}")
    t = x.data.shape[0]
    # np.mean / np.var's own arithmetic, without their python wrappers, on
    # one buffer that holds x (+ residual), then its centred and scaled values
    xhat = x.data.copy() if residual is None else x.data + residual.data
    xhat -= np.add.reduce(xhat, axis=0) / t
    var = np.add.reduce(xhat * xhat, axis=0) / t
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g):
        _accumulate(gain, np.add.reduce(g * xhat, axis=0), own=True)
        _accumulate(bias, np.add.reduce(g, axis=0), own=True)
        gx = g * gain.data
        term = gx - np.add.reduce(gx, axis=0) / t - xhat * (np.add.reduce(gx * xhat, axis=0) / t)
        dx = term * inv_std
        if residual is not None:
            _accumulate(residual, dx)
        _accumulate(x, dx, own=True)

    parents = (x, gain, bias) if residual is None else (x, residual, gain, bias)
    return _make(out_data, parents, backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool, draw_axes=None) -> Tensor:
    """Inverted dropout; identity when p == 0 or in eval mode.

    ``draw_axes`` lists x's axes in the order the uniforms are drawn,
    slowest first (default: x's own order). Drawing a (T, heads, w) tensor
    head-major gives the mask that one (T, w) draw per head would.

    An element is kept where ``rng.random() >= p`` would be true, read from
    the same 64-bit words: a double is ``word >> 11`` times 2^-53, so
    comparing the raw word with ``ceil(p * 2^53) << 11`` keeps the same
    elements and leaves the stream where ``rng.random`` would. The node keeps
    that 1-byte mask. Generators whose doubles are built otherwise (MT19937)
    raise TypeError.
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout rate must lie in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    # bit generators whose random() is (one 64-bit word >> 11) * 2^-53; named
    # here, not at import, so a forward-only run never loads numpy.random
    exact = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)
    if not isinstance(rng.bit_generator, exact):
        raise TypeError(f"dropout cannot draw from {type(rng.bit_generator).__name__}")
    axes = tuple(range(x.data.ndim)) if draw_axes is None else tuple(draw_axes)
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    raw = rng.bit_generator.random_raw(x.data.size)
    keep = raw >= np.uint64(math.ceil(p * 2.0**53) << 11)
    keep = keep.reshape([x.data.shape[a] for a in axes]).transpose(inverse)
    # a 1-element array: numpy 1.x and 2.x both divide in x's dtype
    scale = (np.ones(1, dtype=x.data.dtype) / (1.0 - p))[0]
    out_data = x.data * scale
    out_data *= keep

    def backward(g):
        grad = g * scale
        grad *= keep
        _accumulate(x, grad, own=True)

    return _make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# slot attention kernels
#
# Query row i, head h, slot j looks at key row i + offsets[j]; with no
# offsets, slot j is key j and every row reads every key. Keys and values are
# zero-padded and read through a sliding-window view of the padded rows: an
# ascending contiguous band (the local window) is that view itself, with no
# per-slot copy, and any other offsets index it once. Backward passes add one
# shifted slice per slot back into the padding instead of scattering. Without
# offsets, scores and mixing are head-batched (heads, T_q, d_h) x
# (heads, d_h, T_k) matmuls.


def _frozen(a: Array) -> Array:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SlotLayout:
    """Which key row each slot of each query row reads, for one shape.

    It depends only on the offsets and the two lengths, so one layout serves
    every call of that shape (``attention.slot_layout`` caches them) and its
    arrays are read-only. ``offsets`` (S,) is None for full attention, where
    slot j is key j. ``offset_list`` holds the offsets as python ints,
    ``lo``/``hi`` span them and 0, and ``band`` says they are lo..hi in
    order. Only the rows of ``edges`` (a leading and a trailing slice) can
    read an out-of-range key; ``masks`` maps float32 and float64 to those
    rows' additive masks.
    """

    query_len: int
    key_len: int
    offsets: Array | None = None
    offset_list: tuple[int, ...] = ()
    lo: int = 0
    hi: int = 0
    band: bool = False
    edges: tuple[slice, ...] = ()
    masks: MappingProxyType | None = None

    @property
    def slots(self) -> int:
        return self.key_len if self.offsets is None else len(self.offset_list)

    @classmethod
    def build(cls, offsets: Array | None, query_len: int, key_len: int) -> "SlotLayout":
        if offsets is None:
            return cls(query_len, key_len)
        offs = tuple(np.asarray(offsets).tolist())
        lo, hi = min(min(offs), 0), max(max(offs), 0)
        offsets = _frozen(np.array(offs))
        keys = np.arange(query_len)[:, None] + offsets[None, :]
        in_range = (keys >= 0) & (keys < key_len)
        # row i's keys lie in [i + lo, i + hi], so only rows below -lo and from
        # key_len - hi on can have one outside [0, key_len)
        lead = min(query_len, -lo)
        edges = (slice(0, lead), slice(max(lead, key_len - hi), query_len))
        masks = MappingProxyType({
            dt: tuple(_frozen(np.where(in_range[rows], dt.type(0.0), dt.type(MASK_VALUE))) for rows in edges)
            for dt in map(np.dtype, (np.float32, np.float64))
        })
        band = offs == tuple(range(lo, hi + 1))
        return cls(query_len, key_len, offsets, offs, lo, hi, band, edges, masks)


def _check_fits(layout: SlotLayout, query_len: int, key_len: int):
    if (layout.query_len, layout.key_len) != (query_len, key_len):
        raise ShapeError(
            f"slot layout for {layout.query_len} x {layout.key_len} rows does not fit "
            f"{query_len} x {key_len}"
        )


def _slot_rows(x: Array, heads: int, layout: SlotLayout) -> Array:
    """Slot view of x (T_k, d): entry [i, h, :, j] is head h of x row
    i + offsets[j], zeros outside [0, T_k)."""
    lo, hi, rows = layout.lo, layout.hi, layout.query_len
    kept = min(x.shape[0], rows + hi)  # later rows fall in no slot
    padded = np.empty((rows + hi - lo, heads, x.shape[1] // heads), dtype=x.dtype)
    padded[:-lo] = 0.0
    padded[-lo : -lo + kept] = x[:kept].reshape(kept, heads, -1)
    padded[-lo + kept :] = 0.0
    # the window view of padded's rows: [i, h, :, jj] is padded[i + jj, h]
    view = as_strided(
        padded, (rows,) + padded.shape[1:] + (hi - lo + 1,), padded.strides + padded.strides[:1],
        writeable=False,
    )
    return view if layout.band else view[..., layout.offsets - lo]


def _fold_slots(coeff: Array, rows3: Array, layout: SlotLayout) -> Array:
    """Gradient of a slot view: out[i + offsets[j]] += coeff[i, :, j] * rows3[i]."""
    t_q, heads, _ = coeff.shape
    lo, hi, key_len = layout.lo, layout.hi, layout.key_len
    padded = np.zeros((t_q + hi - lo,) + rows3.shape[1:], dtype=rows3.dtype)
    for j, off in enumerate(layout.offset_list):
        padded[off - lo : off - lo + t_q] += coeff[:, :, j, None] * rows3
    out = np.zeros((key_len, heads * rows3.shape[2]), dtype=rows3.dtype)
    kept = min(key_len, t_q + hi)
    out[:kept] = padded[-lo : -lo + kept].reshape(kept, -1)
    return out


def slot_softmax(
    q: Tensor, k: Tensor, layout: SlotLayout, heads: int, rpe: Tensor | None = None
) -> Tensor:
    """Attention probabilities of every head in one node.

    ``layout`` is the SlotLayout of (T_q, T_k). Slot j of query row i scores
    q_i . k_{i+offsets[j]} / sqrt(d_h), or q_i . k_j for full, plus
    ``rpe[j, h]`` of an (S, heads) table when given. Out-of-range slots are
    masked, and each row is max-stabilized into a softmax over its S slots.
    Returns a C-ordered (T_q, heads, S); a row with no in-range slot spreads
    uniformly over zero keys.
    """
    t_q, dim = q.data.shape
    t_k = k.data.shape[0]
    _check_fits(layout, t_q, t_k)
    if dim % heads or k.data.shape[1] != dim or (
        rpe is not None and rpe.data.shape != (layout.slots, heads)
    ):
        raise ShapeError(
            f"slot softmax: q {q.data.shape}, k {k.data.shape}, {layout.slots} slots, {heads} heads"
            + ("" if rpe is None else f", rpe {rpe.data.shape}")
        )
    scale = 1.0 / math.sqrt(dim // heads)
    q3 = q.data.reshape(t_q, heads, -1)
    if layout.offsets is None:
        k3 = k.data.reshape(t_k, heads, -1)
        scores = np.empty((t_q, heads, t_k), dtype=np.result_type(q.data, k.data))
        np.matmul(q3.transpose(1, 0, 2), k3.transpose(1, 2, 0), out=scores.transpose(1, 0, 2))
    else:
        k_win = _slot_rows(k.data, heads, layout)
        scores = np.matmul(q3[:, :, None, :], k_win)[:, :, 0, :]
    # the chain below runs in place on the matmul output
    scores *= scale
    if rpe is not None:
        scores += np.ascontiguousarray(rpe.data.T)
    if layout.offsets is not None:
        for rows, mask in zip(layout.edges, layout.masks[scores.dtype]):
            scores[rows] += mask[:, None, :]
    rowmax = scores.max(axis=-1, keepdims=True)
    if not np.isfinite(rowmax.max()):
        raise NumericError("attention scores contain non-finite values")
    scores -= rowmax
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward(g):
        ds = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
        if rpe is not None:
            _accumulate(rpe, ds.sum(axis=0).T, own=True)
        ds *= scale
        if layout.offsets is None:
            ds_h = ds.transpose(1, 0, 2)  # (heads, T_q, T_k)
            dq = np.matmul(ds_h, k3.transpose(1, 0, 2)).transpose(1, 0, 2)
            dk = np.matmul(ds_h.transpose(0, 2, 1), q3.transpose(1, 0, 2)).transpose(1, 0, 2)
            dk = dk.reshape(t_k, dim)
        else:
            dq = np.matmul(ds[:, :, None, :], k_win.swapaxes(2, 3))[:, :, 0, :]
            dk = _fold_slots(ds, q3, layout)
        _accumulate(q, dq.reshape(t_q, dim), own=True)
        _accumulate(k, dk, own=True)

    return _make(probs, (q, k) if rpe is None else (q, k, rpe), backward)


def slot_mix(p: Tensor, v: Tensor, layout: SlotLayout) -> Tensor:
    """Per-head weighted sum of the value rows each query row's slots read.

    ``p`` is (T_q, heads, S) as from ``slot_softmax`` with the same
    ``layout``; returns (T_q, d).
    """
    t_q, heads, n_slots = p.data.shape
    t_k, dim = v.data.shape
    _check_fits(layout, t_q, t_k)
    if dim % heads or n_slots != layout.slots:
        raise ShapeError(f"slot mix: p {p.data.shape}, v {v.data.shape}")
    if layout.offsets is None:
        v3 = v.data.reshape(t_k, heads, -1).transpose(1, 0, 2)  # (heads, T_k, d_h)
        out_data = np.empty((t_q, heads, dim // heads), dtype=np.result_type(p.data, v.data))
        np.matmul(p.data.transpose(1, 0, 2), v3, out=out_data.transpose(1, 0, 2))
    else:
        v_win = _slot_rows(v.data, heads, layout)
        out_data = np.matmul(p.data[:, :, None, :], v_win.swapaxes(2, 3))[:, :, 0, :]

    def backward(g):
        g3 = g.reshape(t_q, heads, -1)
        if layout.offsets is None:
            g_h = g3.transpose(1, 0, 2)  # (heads, T_q, d_h)
            dp = np.matmul(g_h, v3.transpose(0, 2, 1)).transpose(1, 0, 2)
            dv = np.matmul(p.data.transpose(1, 2, 0), g_h).transpose(1, 0, 2).reshape(t_k, dim)
        else:
            dp = np.matmul(g3[:, :, None, :], v_win)[:, :, 0, :]
            dv = _fold_slots(p.data, g3, layout)
        _accumulate(p, dp, own=True)
        _accumulate(v, dv, own=True)

    return _make(out_data.reshape(t_q, dim), (p, v), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor, cols: tuple[int, int] | None = None) -> Tensor:
    """x @ weight + bias in one node, bias broadcast over rows.

    ``cols=(start, stop)`` uses only those columns of weight and bias, and
    its backward writes only their gradient there.
    """
    part = slice(None) if cols is None else slice(*cols)
    w, b = weight.data[:, part], bias.data[part]
    if x.data.ndim != 2 or w.ndim != 2 or x.data.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: {x.data.shape} x {w.shape} + {b.shape}")
    out_data = x.data @ w
    out_data += b

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.T, own=True)
        _accumulate_part(weight, (slice(None), part), x.data.T @ g)
        _accumulate_part(bias, part, g.sum(axis=0))

    return _make(out_data, (x, weight, bias), backward)


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
    logp = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(logp)
    logp -= np.log(probs.sum(axis=1, keepdims=True))
    out_data = np.asarray(-logp[np.arange(t), labels].mean(), dtype=logits.data.dtype)
    np.exp(logp, out=probs)

    def backward(g):
        grad = probs.copy()
        grad[np.arange(t), labels] -= 1.0
        _accumulate(logits, grad * (g / t), own=True)

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
        _accumulate(p, g * np.where(support, log_ratio + 1.0, 0.0), own=True)
        _accumulate(d, g * np.where(support, -p.data / safe_d, 0.0), own=True)

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
        _accumulate(p, g * coeff, own=True)
        _accumulate(d, -g * coeff, own=True)

    return _make(out_data, (p, d), backward)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BLOCK = 1 << 15  # elements per Adam pass: six f64 block slices fit a 4 MiB L2


@dataclass
class ParamArena:
    """One flat buffer each for parameters, gradients and Adam's moments.

    Tensors sit in ``names`` order; ``data[i]`` and ``grad[i]`` are the
    views bound to parameter i's ``data`` and ``grad``.
    """

    names: tuple[str, ...]
    flat: Array
    flat_grad: Array
    flat_m: Array
    flat_v: Array
    data: list[Array]
    grad: list[Array]
    scratch: tuple[Array, Array]


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter.

    Once ``adam_step`` has run, ``m[name]`` and ``v[name]`` are views of
    the arena's moment buffers.
    """

    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)
    step: int = 0
    arena: ParamArena | None = field(default=None, repr=False, compare=False)


def _pack(params: dict[str, Tensor], state: AdamState) -> ParamArena:
    """Copy the current parameters and moments into fresh flat buffers and
    rebind every ``p.data``, ``state.m`` and ``state.v`` entry to its view.
    Gradients start at zero."""
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) > 1:
        raise TypeError(f"adam_step needs one parameter dtype, got {sorted(map(str, dtypes))}")
    dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
    total = sum(p.data.size for p in params.values())
    flat, flat_grad, flat_m, flat_v = (np.zeros(total, dtype=dtype) for _ in range(4))
    data, grad, m, v = [], [], {}, {}
    end = 0
    for name, p in params.items():
        shape, start = p.data.shape, end
        end += p.data.size
        for old in (state.m.get(name), state.v.get(name)):
            if old is not None and old.shape != shape:
                raise ShapeError(f"adam state shape mismatch for {name}")
        p_view, g_view, m_view, v_view = (
            buf[start:end].reshape(shape) for buf in (flat, flat_grad, flat_m, flat_v)
        )
        p_view[...] = p.data
        p.data = p_view
        if name in state.m:
            m_view[...] = state.m[name]
            v_view[...] = state.v[name]
        data.append(p_view)
        grad.append(g_view)
        m[name], v[name] = m_view, v_view
    state.m, state.v = m, v
    block = min(total, ADAM_BLOCK)
    scratch = (np.empty(block, dtype=dtype), np.empty(block, dtype=dtype))
    return ParamArena(tuple(params), flat, flat_grad, flat_m, flat_v, data, grad, scratch)


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

    The update runs in place over ``state.arena``, packed on the first call
    and again whenever the names change or a ``p.data`` is no longer its
    arena view. A gradient that is not its arena view is copied in. On
    return every ``p.data`` and ``p.grad`` is an arena view and every
    gradient is zero, so the next backward accumulates into the arena.
    """
    arena = state.arena
    if (
        arena is None
        or arena.names != tuple(params)
        or any(p.data is not view for p, view in zip(params.values(), arena.data))
    ):
        arena = state.arena = _pack(params, state)
    for name, p, g_view in zip(arena.names, params.values(), arena.grad):
        g = grads.get(name)
        if g is not g_view:
            g_view[...] = 0.0 if g is None else g
        p.grad = g_view
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    # the per-element formula and order of the textbook loop, as in-place
    # passes over cache-sized blocks
    for start in range(0, arena.flat.size, ADAM_BLOCK):
        part = slice(start, start + ADAM_BLOCK)
        p, g, m, v = arena.flat[part], arena.flat_grad[part], arena.flat_m[part], arena.flat_v[part]
        a, b = (s[: p.size] for s in arena.scratch)
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - beta2, out=a)
        np.add(v, a, out=v)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, bc1, out=b)
        np.divide(b, a, out=b)  # update = (m / bc1) / (sqrt(v / bc2) + eps)
        if weight_decay:
            np.multiply(p, weight_decay, out=a)
            np.add(b, a, out=b)
        np.multiply(b, lr, out=b)
        np.subtract(p, b, out=p)
    arena.flat_grad.fill(0.0)


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
            import hashlib  # loaded on first use: a forward-only run draws nothing

            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            key = np.frombuffer(digest[:16], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            self._streams[name] = gen
        return gen
