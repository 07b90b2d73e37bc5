"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: each operation stores its parents and a backward closure on
the output node; ``Tensor.backward()`` replays the closures in reverse
creation order. A node's parents exist before it does, so that order is
topological by construction, and it alone fixes the order in which a node
with several consumers sums their gradients: the latest-created consumer's
first, whatever order each consumer lists its parents in. Graphs are
rebuilt on every forward pass, so variable-length sequences need no special
casing.

Backward releases the graph as it runs (see ``Tensor.backward``): interior
gradients are not kept, requires-grad leaves keep theirs, and a second
backward that reaches a released node, from the same root or another one
sharing part of the graph, raises ``GraphReleasedError``.

float32 is the training default and float64 is used by gradient tests. An
op's value and gradients keep its inputs' dtype, 0-d results included; a
python scalar operand of ``add``, ``sub`` or ``mul`` takes the tensor's
dtype, and only a ``Tensor`` built from python data defaults to float64.

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

A node keeps only what its backward reads. ``dropout``, ``slot_mix`` and
``ffn_block`` keep a 1-byte mask, not the dropped copy; a backward that
needs the dropped values (``slot_mix``'s value gradient, ``ffn_block``'s
``w2`` gradient) rebuilds them with the forward's two multiplies.
``ffn_block`` keeps its ReLU output and ``slot_softmax`` its probabilities,
and both slot kernels read keys and values through views of
``slot_project``'s padded buffer: the local band keeps no other copy.

``AdamState(params)`` packs the parameters once, before training: each
``p.data`` and ``p.grad`` becomes a view of one flat arena, gradients start
at zero, and every backward accumulates straight into them. ``adam_step``
updates the arena in place and zeroes the gradients again.

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

import itertools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, GraphReleasedError, NumericError, ShapeError

Array = np.ndarray

# the score slot_softmax writes for a slot outside the key range: such a slot
# reads a zero row, so it scored rpe[j, h] or 0, which adding -1e30 absorbs
MASK_VALUE = -1e30
DRAW_BLOCK = 1 << 15  # 64-bit words a dropout mask draws at a time (256 KiB)
ROW_MAX_BLOCK = 1 << 14  # values per slot-major copy a softmax row max reads
# longest softmax row whose max is read from slot-major planes; a last-axis
# max caught up near 64 slots in float64 and near 90 in float32
ROW_MAX_SLOTS = 60


class Tensor:
    """N-d array node in the autodiff graph.

    ``grad`` is populated on requires-grad leaves by ``backward()`` and has
    the same shape as ``data``; an interior node's ``grad`` is None again
    once backward has passed it on. Forward values are immutable once
    computed; gradient accumulation is single-threaded.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if not isinstance(data, np.ndarray):  # a numpy scalar (0-d op result) keeps its dtype
            data = np.asarray(data, dtype=data.dtype if isinstance(data, np.floating) else np.float64)
        self.data = data
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._seq = 0  # creation stamp of a graph node (``_make``); 0 on a leaf

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad: Array | None = None):
        """Accumulate gradients into every reachable requires-grad leaf.

        Nodes run in reverse creation order (``_graph``). Once an interior
        node's closure has passed its gradient to its parents, the node drops
        its ``grad``, parents and closure, and the pass drops its own
        reference to the node, so the saved activations and interior
        gradients are freed during the pass, not when the caller lets go of
        the loss. Leaves keep their gradients. A later backward that
        reaches a released node raises ``GraphReleasedError`` instead of
        silently dropping that node's gradient. A seed ``grad`` must have
        the node's shape (it is not broadcast), or ``ShapeError`` is raised
        before anything is accumulated.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(f"backward: seed gradient {grad.shape} for a {self.data.shape} node")
        _accumulate(self, grad)
        order = _graph(self)
        order.reverse()  # popped from the end: the latest-created node first
        while order:
            node = order.pop()
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _released


def _released(g: Array):
    raise GraphReleasedError(
        "backward reached a node whose graph an earlier backward already released"
    )


def _graph(root: Tensor) -> list[Tensor]:
    """The graph nodes reachable from root (root included), latest-created
    first: the order backward runs them in. A released node is one of them,
    so a backward that reaches it raises; leaves are not."""
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    nodes.sort(key=operator.attrgetter("_seq"), reverse=True)
    return nodes


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


def _grad_buffer(node: Tensor) -> Array | None:
    """node.grad, zeros until something is added into it; None when the node
    takes no gradient. Backward rules add into parts of it in place."""
    if not node.requires_grad:
        return None
    if node.grad is None:
        node.grad = np.zeros(node.data.shape, node.data.dtype)
    return node.grad


def _accumulate_part(node: Tensor, where, grad: Array):
    """Accumulate grad into node.grad[where]; the rest of node.grad is untouched."""
    buf = _grad_buffer(node)
    if buf is not None:
        buf[where] += grad


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
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


_created = itertools.count(1)  # stamps graph nodes in creation order


def _make(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _grad_enabled:
        for p in parents:  # a loop, not any(<generator>): this runs once per node
            if p.requires_grad:
                out = Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
                out._seq = next(_created)
                return out
    return Tensor(data)


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
    b = _coerce(b, a)
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


# no caller in src/tut (ffn_block has its own); perfbench's tracer patches it by name
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


# no caller in src/tut (slot_project replaced it); perfbench's tracer patches it by name
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


def _filled(g: Array, like: Array) -> Array:
    """A new array of like's shape and dtype, holding g broadcast."""
    out = np.empty(like.shape, like.dtype)
    out[...] = g
    return out


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(np.add.reduce(x.data, axis=None), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, _filled(g, x.data), own=True)

    return _make(out_data, (x,), backward)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out_data = np.add.reduce(x.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, _filled(g, x.data), own=True)

    return _make(out_data, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    return mul(sum_all(x), 1.0 / x.data.size)


# ---------------------------------------------------------------------------
# normalization / activation blocks


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, max-stabilized."""
    probs = _softmax(x.data)

    def backward(g):
        _accumulate(x, _softmax_grad(probs, g), own=True)

    return _make(probs, (x,), backward)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    out_data, probs = _log_softmax(x.data)

    def backward(g):
        _accumulate(x, g - probs * np.add.reduce(g, axis=-1, keepdims=True), own=True)

    return _make(out_data, (x,), backward)


def _row_max(a: Array) -> Array:
    """Each row's max over a's last axis, keepdims.

    A row of at most ``ROW_MAX_SLOTS`` slots (a local or logsparse window)
    is read from slot-major planes: one ``np.maximum.reduce`` over a
    contiguous copy of a whose first axis is a's last takes elementwise
    maxima of whole planes, where a last-axis max runs one inner loop per
    short row. A longer row (full attention's T slots) keeps the last-axis
    max, whose inner loop is then the long one; transposing it cost 2x at
    200 slots and 20x at 2,000. The copy is made ``ROW_MAX_BLOCK`` values
    at a time along a's first axis, so a long video's scores are not held
    twice. A max is exact in any order; order can change only which zero a
    +0/-0 tie gives back, and x - (+0) and x - (-0) are both x, up to the
    sign of a zero that exp maps to 1, so the probabilities keep their bytes.
    """
    if a.shape[-1] > ROW_MAX_SLOTS:
        return np.maximum.reduce(a, axis=-1, keepdims=True)
    axes = (a.ndim - 1,) + tuple(range(a.ndim - 1))
    if a.ndim == 1 or a.size <= ROW_MAX_BLOCK:
        return np.maximum.reduce(a.transpose(axes).copy(), axis=0)[..., None]
    rowmax = np.empty(a.shape[:-1] + (1,), a.dtype)
    step = max(1, ROW_MAX_BLOCK * a.shape[0] // a.size)
    for start in range(0, a.shape[0], step):
        planes = a[start : start + step].transpose(axes).copy()
        np.maximum.reduce(planes, axis=0, out=rowmax[start : start + step, ..., 0])
    return rowmax


def _softmax(a: Array, out: Array | None = None) -> Array:
    """Max-stabilized softmax over a's last axis, in place on ``out`` (new if None)."""
    rowmax = _row_max(a)
    if not np.isfinite(np.maximum.reduce(rowmax, axis=None)):
        raise NumericError("softmax input contains non-finite values")
    probs = np.subtract(a, rowmax, out=out)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return probs


def _softmax_grad(probs: Array, g: Array) -> Array:
    """The softmax input's gradient, given the output gradient g."""
    return probs * (g - np.add.reduce(g * probs, axis=-1, keepdims=True))


def _log_softmax(a: Array) -> tuple[Array, Array]:
    """Log-softmax over a's last axis and its exp, as two new arrays. The
    row max stays a last-axis reduction: a +0/-0 tie there could flip the
    sign of a zero log-probability."""
    logp = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    probs = np.exp(logp)
    logp -= np.log(np.add.reduce(probs, axis=-1, keepdims=True))
    np.exp(logp, out=probs)
    return logp, probs


def instance_norm_temporal(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5, *, residual: Tensor
) -> Tensor:
    """Normalize x + residual, each channel over the temporal axis of one
    (T, d) sequence, in one node that keeps no sum and gives both operands
    its gradient. Statistics use the biased variance, so a column [1, 3]
    maps to [-1, 1] before the per-channel affine transform.
    """
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"instance norm expects a non-empty (T, d) input, got {x.data.shape}")
    if residual.data.shape != x.data.shape:
        raise ShapeError(f"instance norm residual {residual.data.shape} is not {x.data.shape}")
    t = x.data.shape[0]
    # np.mean / np.var's own arithmetic, without their python wrappers, on
    # one buffer that holds x + residual, then its centred and scaled values
    xhat = x.data + residual.data
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
        _accumulate(residual, dx)
        _accumulate(x, dx, own=True)

    return _make(out_data, (x, residual, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, draw_axes=None) -> Tensor:
    """Inverted dropout; identity when p == 0. A forward without dropout
    does not call it.

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
    mask = _dropout_mask(x.data, p, rng, draw_axes)
    if mask is None:
        return x

    def backward(g):
        _accumulate(x, _masked(g, mask), own=True)

    return _make(_masked(x.data, mask), (x,), backward)


def _dropout_mask(x: Array, p: float, rng: np.random.Generator | None, draw_axes=None):
    """(keep, scale) of inverted dropout over an array shaped like x, drawn
    as ``dropout`` describes, or None, which ``_masked`` reads as no
    dropout, when p == 0 or there is no ``rng`` (nothing is drawn). The
    words come ``DRAW_BLOCK`` at a time, in one stream order, so only the
    1-byte mask is ever whole."""
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout rate must lie in [0, 1), got {p}")
    if p == 0.0 or rng is None:
        return None
    # bit generators whose random() is (one 64-bit word >> 11) * 2^-53; named
    # here, not at import, so a forward-only run never loads numpy.random
    exact = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)
    if not isinstance(rng.bit_generator, exact):
        raise TypeError(f"dropout cannot draw from {type(rng.bit_generator).__name__}")
    axes, inverse, threshold, scale = _dropout_constants(
        p, x.dtype, x.ndim, None if draw_axes is None else tuple(draw_axes)
    )
    keep = np.empty(x.size, dtype=bool)
    for start in range(0, x.size, DRAW_BLOCK):
        words = rng.bit_generator.random_raw(min(DRAW_BLOCK, x.size - start))
        np.greater_equal(words, threshold, out=keep[start:start + words.size])
    keep = keep.reshape([x.shape[a] for a in axes])
    if inverse is not None:  # once here, so every use of the mask runs contiguous loops
        keep = np.ascontiguousarray(keep.transpose(inverse))
    return keep, scale


@lru_cache(maxsize=64)
def _dropout_constants(p: float, dtype: np.dtype, ndim: int, draw_axes: tuple[int, ...] | None):
    """What a ``_dropout_mask`` call of one rate, dtype and draw order reads
    besides the words: the axes in draw order, the permutation that puts
    them back (None when they are in order), the threshold word and the
    scale."""
    axes = tuple(range(ndim)) if draw_axes is None else draw_axes
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    # a 1-element array: numpy 1.x and 2.x both divide in x's dtype
    scale = (np.ones(1, dtype=dtype) / (1.0 - p))[0]
    return axes, None if inverse == tuple(range(len(axes))) else inverse, threshold, scale


def _masked(a: Array, mask) -> Array:
    """a * scale * keep as a new array: the dropped values in forward, the
    input's gradient in backward, and the dropped values rebuilt there. A
    None mask (no dropout) gives back a itself."""
    if mask is None:
        return a
    keep, scale = mask
    out = a * scale
    out *= keep
    return out


# ---------------------------------------------------------------------------
# slot attention kernels
#
# Query row i, head h, slot j looks at key row i + offsets[j]; with no
# offsets, slot j is key j and every row reads every key. ``slot_offsets``
# gives each attention pattern's offsets, and ``slot_layout`` the cached
# ``SlotLayout`` of one (pattern, length, window). Queries and keys have one
# length. Out-of-range slots score ``MASK_VALUE`` before the softmax.
# ``slot_project`` writes the Q|K|V projection (Q of the query rows, K|V of
# the key rows) into one buffer whose rows sit between zero rows, so the
# other kernels read the keys and values through a sliding-window view of
# its rows: an ascending contiguous band (the local window) is that view
# itself, with no copy, and any other offsets index it once, in forward and
# again in backward, so no node keeps that copy. Each view is an
# ``np.ndarray`` on the memory of the array that owns it, so numpy checks
# its extent.
# Only ``_slot_dot`` (scores; the mix's dp), ``_slot_sum`` (the mix; the
# scores' dq) and ``_fold_slots`` (dk, dv) tell full attention, head-batched
# (heads, T, ·) matmuls, from a window. A window's fold adds straight into
# the buffer's gradient instead of scattering: a band in one matmul over
# skewed views, other offsets one shifted slice per slot.


def _frozen(a: Array) -> Array:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SlotLayout:
    """Which key row each slot of each query row reads, for one shape.

    It depends only on the offsets and the ``length`` that queries and keys
    share, so one layout serves every call of that shape (``slot_layout``
    caches them) and its arrays are read-only. ``offsets`` (S,) is None for
    full attention, where slot j is key j. ``lo``/``hi`` span the offsets
    and 0, and ``band`` says they are lo..hi in order. Only the rows of
    ``edges`` (a leading and a trailing slice) can read an out-of-range
    key; ``outside`` holds, per edge, a boolean (rows, S) table of the slots
    that do, whatever the scores' dtype.
    """

    length: int
    offsets: Array | None = None
    lo: int = 0
    hi: int = 0
    band: bool = False
    edges: tuple[slice, ...] = ()
    outside: tuple[Array, ...] = ()

    @property
    def slots(self) -> int:
        return self.length if self.offsets is None else len(self.offsets)

    @property
    def pad(self) -> int:
        """Zero rows before key row 0 in a ``slot_project`` buffer."""
        return -self.lo

    @property
    def padded_rows(self) -> int:
        """Rows of a ``slot_project`` buffer: every row, with -lo zero rows
        before them and hi after (none for full attention)."""
        return -self.lo + self.length + self.hi

    @classmethod
    def build(cls, offsets: Array | None, length: int) -> "SlotLayout":
        if offsets is None:
            return cls(length)
        offs = tuple(np.asarray(offsets).tolist())
        lo, hi = min(min(offs), 0), max(max(offs), 0)
        offsets = _frozen(np.array(offs))
        keys = np.arange(length)[:, None] + offsets[None, :]
        # row i's keys lie in [i + lo, i + hi], so only rows below -lo and from
        # length - hi on can have one outside [0, length)
        lead = min(length, -lo)
        edges = (slice(0, lead), slice(max(lead, length - hi), length))
        outside = tuple(_frozen((keys[rows] < 0) | (keys[rows] >= length)) for rows in edges)
        band = offs == tuple(range(lo, hi + 1))
        return cls(length, offsets, lo, hi, band, edges, outside)


PATTERNS = ("full", "local", "logsparse")


def slot_offsets(pattern: str, length: int, window: int) -> Array | None:
    """Key offset of each slot under ``pattern``, for queries and keys of
    ``length`` rows:

    - local: -w//2..w//2, the banded sliding-window attention of Longformer
      (Beltagy et al., arXiv:2004.05150);
    - logsparse: [0, -1, +1, -2, +2, -4, +4, ...] up to length - 1, O(log T)
      slots per row (Li et al., arXiv:1907.00235);
    - full: None, every key.
    """
    if pattern == "full":
        return None
    if pattern == "local":
        return np.arange(-(window // 2), window // 2 + 1)
    offsets = [0]
    off = 1
    while off <= length - 1:
        offsets.extend((-off, off))
        off *= 2
    return np.array(offsets)


@lru_cache(maxsize=64)  # a video needs one shape per U-level; keep several videos'
def slot_layout(pattern: str, length: int, window: int) -> SlotLayout:
    """The shared, read-only slot layout of one attention shape."""
    return SlotLayout.build(slot_offsets(pattern, length, window), length)


def _check_fits(layout: SlotLayout, length: int, qkv: Tensor):
    fits = qkv.data.ndim == 3 and qkv.data.shape[:2] == (layout.padded_rows, 3)
    if not fits or length != layout.length:
        raise ShapeError(
            f"slot layout for {layout.length} rows does not fit {length} rows "
            f"and a {qkv.data.shape} buffer"
        )


def _view(base: Array, shape: tuple[int, ...], offset: int, strides: tuple[int, ...]) -> Array:
    """A read-only strided view of the contiguous array ``base``, which owns
    the memory; numpy refuses a view whose extent leaves it."""
    view = np.ndarray(shape, base.dtype, base, offset, strides)
    view.flags.writeable = False
    return view


def _window(qkv: Array, block: int, heads: int, layout: SlotLayout) -> Array:
    """Slot view of block ``block`` (K = 1, V = 2) of a (padded_rows, 3, d)
    ``slot_project`` buffer: entry [i, h, :, j] is head h of key row
    i + offsets[j], zeros outside [0, T). A band is a view of the buffer
    itself, with no copy; other offsets index that view."""
    lo, hi = layout.lo, layout.hi
    row, blk, col = qkv.strides
    d_h = qkv.shape[2] // heads
    # [i, h, c, jj] is channel c of head h of buffer row i + jj
    view = _view(
        qkv, (layout.length, heads, d_h, hi - lo + 1), block * blk, (row, d_h * col, col, row)
    )
    return view if layout.band else view[..., layout.offsets - lo]


def _slot_dot(a3: Array, qkv: Array, block: int, layout: SlotLayout) -> Array:
    """(T, heads, S): [i, h, j] is a3[i, h] . head h of the key row that slot j
    of row i reads from block ``block`` of the ``slot_project`` buffer qkv."""
    heads = a3.shape[1]
    if layout.offsets is None:
        out = np.empty((layout.length, heads, layout.length), dtype=np.result_type(a3, qkv))
        rows3 = qkv[:, block].reshape(layout.length, heads, -1)
        np.matmul(a3.transpose(1, 0, 2), rows3.transpose(1, 2, 0), out=out.transpose(1, 0, 2))
        return out
    return np.matmul(a3[:, :, None, :], _window(qkv, block, heads, layout))[:, :, 0, :]


def _slot_sum(w: Array, qkv: Array, block: int, layout: SlotLayout) -> Array:
    """(T, heads, d_h): [i, h] sums w[i, h, j] times head h of the key row
    that slot j of row i reads from block ``block`` of qkv, as in ``_slot_dot``."""
    t, heads, _ = w.shape
    if layout.offsets is None:
        out = np.empty((t, heads, qkv.shape[2] // heads), dtype=np.result_type(w, qkv))
        rows3 = qkv[:, block].reshape(t, heads, -1)
        np.matmul(w.transpose(1, 0, 2), rows3.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
        return out
    window = _window(qkv, block, heads, layout).swapaxes(2, 3)
    return np.matmul(w[:, :, None, :], window)[:, :, 0, :]


def _zero_padded(a: Array, pad: int) -> Array:
    """a with ``pad`` zero rows before and after it, as a new C-ordered array."""
    out = np.zeros((pad + len(a) + pad,) + a.shape[1:], dtype=a.dtype)
    out[pad : pad + len(a)] = a
    return out


def _fold_slots(coeff: Array, rows3: Array, layout: SlotLayout, into: Array):
    """Adds into ``into``, a (padded_rows, d) block of a ``slot_project``
    buffer's gradient, what ``_slot_dot`` and ``_slot_sum`` read from it: the
    key row that slot j of row i reads gains coeff[i, :, j] * rows3[i].

    A band does it in one matmul. Buffer row r gains the sum over slots j of
    coeff[r - j, :, j] * rows3[r - j], so with both padded by S - 1 zero
    rows, a skew of coeff and a reversed window of rows3 (Longformer's
    skewed sliding chunks, Beltagy et al., arXiv:2004.05150) give row r's
    terms in slot order. The window's negative stride keeps numpy off BLAS,
    and numpy's own loop sums those terms in order from +0.0, as adding one
    shifted slice per slot into zeros does. A padded term is 0 * 0 = +0.0,
    and a sum that starts at +0.0 is never -0.0, so adding one changes no
    bit: the bytes are the loop's. That is numpy's behaviour, not a
    contract, so a test pins the fold to the loop byte for byte. Other
    offsets (logsparse, with O(log T) slots) keep that loop.
    """
    t, heads, n_slots = coeff.shape
    if layout.offsets is None:
        folded = np.matmul(coeff.transpose(1, 2, 0), rows3.transpose(1, 0, 2))
        into += folded.transpose(1, 0, 2).reshape(into.shape)
        return
    if layout.band:
        pad, rows = n_slots - 1, layout.padded_rows
        c, w = _zero_padded(coeff, pad), _zero_padded(rows3, pad)
        # skew[r, h, j] is coeff[r - j, h, j] and window[r, h, j] is rows3[r - j, h]
        skew = _view(c, (rows, heads, n_slots), pad * c.strides[0],
                     (c.strides[0], c.strides[1], c.strides[2] - c.strides[0]))
        window = _view(w, (rows, heads, n_slots, w.shape[2]), pad * w.strides[0],
                       (w.strides[0], w.strides[1], -w.strides[0], w.strides[2]))
        into += np.matmul(skew[:, :, None, :], window)[:, :, 0].reshape(into.shape)
        return
    # the slots add into contiguous rows, and the strided block takes one add
    padded = np.zeros((into.shape[0], heads, rows3.shape[2]), dtype=rows3.dtype)
    for j, off in enumerate(layout.offsets.tolist()):
        padded[off - layout.lo : off - layout.lo + t] += coeff[:, :, j, None] * rows3
    into += padded.reshape(into.shape)


def slot_project(
    x: Tensor, weight: Tensor, bias: Tensor, layout: SlotLayout, memory: Tensor | None = None
) -> Tensor:
    """Attention's Q|K|V projection in one node, as the buffer the other slot
    kernels read.

    ``weight`` (d_in, 3d) holds the Q, K and V columns in that order and
    ``bias`` (2d,) the Q and V biases: a K bias b_k adds q_i . b_k to every
    slot of row i, which the softmax cancels. Q is projected from the rows
    of x, and K|V from those of ``memory`` (cross-attention) or of x itself
    when it is None; each holds ``layout.length`` rows. Returns a
    (layout.padded_rows, 3, d) buffer: row r is buffer row layout.pad + r,
    and the other rows are zero, so the key windows are strided views of it.
    Forward and backward run one GEMM per source, so self-attention's weight
    gets one (T, 3d) gradient GEMM.
    """
    dim = weight.data.shape[1] // 3
    if weight.data.shape[1] != 3 * dim or bias.data.shape != (2 * dim,):
        raise ShapeError(f"slot projection: weight {weight.data.shape}, bias {bias.data.shape}")
    if memory is None:
        parts = ((x, slice(None)),)
    else:
        parts = ((x, slice(0, dim)), (memory, slice(dim, None)))
    for source, cols in parts:
        _check_linear(source.data, weight.data[:, cols])
        if source.data.shape[0] != layout.length:
            raise ShapeError(
                f"slot layout for {layout.length} rows does not fit {source.data.shape[0]} rows"
            )
    rows = slice(layout.pad, layout.pad + layout.length)
    buf = np.empty((layout.padded_rows, 3 * dim), dtype=np.result_type(x.data, weight.data))
    buf[: rows.start] = 0.0
    buf[rows.stop :] = 0.0
    for source, cols in parts:
        np.matmul(source.data, weight.data[:, cols], out=buf[rows, cols])
    # one contiguous add with a zero K block: the Q and V blocks alone took twice as long
    buf[rows] += np.concatenate((bias.data[:dim], np.zeros(dim, bias.data.dtype), bias.data[dim:]))

    def backward(g):
        _accumulate(bias, np.add.reduce(g[rows, ::2], axis=0).reshape(-1), own=True)
        g_rows = g[rows].reshape(layout.length, -1)
        for source, cols in parts:
            _linear_grads(source, weight, g_rows[:, cols], cols)

    parents = (x,) if memory is None else (x, memory)
    return _make(buf.reshape(len(buf), 3, dim), parents + (weight, bias), backward)


def slot_softmax(qkv: Tensor, layout: SlotLayout, heads: int, rpe: Tensor | None = None) -> Tensor:
    """Attention probabilities of every head in one node.

    ``qkv`` is a ``slot_project`` buffer for ``layout``, whose three blocks
    hold the queries, keys and values. Slot j of query row i scores
    q_i . k_{i+offsets[j]} / sqrt(d_h), or q_i . k_j for full, plus
    ``rpe[j, h]`` of an (S, heads) table when given. Out-of-range slots are
    masked, and each row is max-stabilized into a softmax over its S slots.
    Returns a C-ordered (T, heads, S); a row with no in-range slot spreads
    uniformly over zero keys. The node keeps the probabilities and views of
    its inputs.
    """
    t = layout.length
    _check_fits(layout, t, qkv)
    dim = qkv.data.shape[2]
    if dim % heads or (rpe is not None and rpe.data.shape != (layout.slots, heads)):
        raise ShapeError(
            f"slot softmax: qkv {qkv.data.shape}, {layout.slots} slots, {heads} heads"
            + ("" if rpe is None else f", rpe {rpe.data.shape}")
        )
    rows = slice(layout.pad, layout.pad + t)
    q3 = qkv.data[rows, 0].reshape(t, heads, -1)
    scale = 1.0 / math.sqrt(dim // heads)
    scores = _slot_dot(q3, qkv.data, 1, layout)
    # the chain below runs in place on the matmul output
    scores *= scale
    if rpe is not None:
        scores += np.ascontiguousarray(rpe.data.T)
    for edge, outside in zip(layout.edges, layout.outside):
        np.copyto(scores[edge], MASK_VALUE, where=outside[:, None, :])
    probs = _softmax(scores, out=scores)

    def backward(g):
        ds = _softmax_grad(probs, g)
        if rpe is not None:
            _accumulate(rpe, np.add.reduce(ds, axis=0).T, own=True)
        grad = _grad_buffer(qkv)
        if grad is None:
            return
        ds *= scale
        grad[rows, 0] += _slot_sum(ds, qkv.data, 1, layout).reshape(t, dim)
        _fold_slots(ds, q3, layout, grad[:, 1])

    return _make(probs, (qkv,) if rpe is None else (qkv, rpe), backward)


def slot_mix(
    p: Tensor, qkv: Tensor, layout: SlotLayout, dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-head weighted sum of the value rows each query row's slots read.

    ``p`` is (T, heads, S) as from ``slot_softmax`` with the same ``layout``
    and ``qkv``, whose last block holds the values; returns (T, d). With
    ``rng``, p is first dropped out at rate ``dropout``, drawn head-major as
    one (T, S) ``dropout`` per head would be. The node keeps only that
    1-byte mask, and its backward rebuilds the dropped probabilities from p
    with the forward's two multiplies.
    """
    t, heads, n_slots = p.data.shape
    _check_fits(layout, t, qkv)
    dim = qkv.data.shape[2]
    if dim % heads or n_slots != layout.slots:
        raise ShapeError(f"slot mix: p {p.data.shape}, qkv {qkv.data.shape}")
    mask = _dropout_mask(p.data, dropout, rng, draw_axes=(1, 0, 2))
    out_data = _slot_sum(_masked(p.data, mask), qkv.data, 2, layout)

    def backward(g):
        g3 = g.reshape(t, heads, -1)
        grad = _grad_buffer(qkv)
        if grad is not None:
            _fold_slots(_masked(p.data, mask), g3, layout, grad[:, 2])
        _accumulate(p, _masked(_slot_dot(g3, qkv.data, 2, layout), mask), own=True)

    return _make(out_data.reshape(t, dim), (p, qkv), backward)


def ffn_block(
    x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """relu(x @ w1 + b1) @ w2 in one node; with ``rng``, the ReLU output is
    dropped out at rate ``dropout`` first, as ``dropout`` would. w2 has no
    bias: the norm after it subtracts each channel's mean over time. The
    node keeps the ReLU output and the 1-byte mask. Its backward rebuilds
    the dropped values with the forward's two multiplies and runs the two
    linear maps', the dropout's and the ReLU's rules in turn.
    """
    _check_linear(x.data, w1.data, b1.data)
    hidden = x.data @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0, out=hidden)
    _check_linear(hidden, w2.data)
    mask = _dropout_mask(hidden, dropout, rng)
    out_data = _masked(hidden, mask) @ w2.data

    def backward(g):
        _accumulate(w2, _masked(hidden, mask).T @ g, own=True)
        dh = _masked(g @ w2.data.T, mask)
        dh *= hidden > 0
        _linear_grads(x, w1, dh)
        _accumulate(b1, np.add.reduce(dh, axis=0), own=True)

    return _make(out_data, (x, w1, b1, w2), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias in one node, bias broadcast over rows."""
    _check_linear(x.data, weight.data, bias.data)
    out_data = x.data @ weight.data
    out_data += bias.data

    def backward(g):
        _linear_grads(x, weight, g)
        _accumulate(bias, np.add.reduce(g, axis=0), own=True)

    return _make(out_data, (x, weight, bias), backward)


def _check_linear(x: Array, w: Array, b: Array | None = None):
    bias_fits = b is None or b.shape == w.shape[1:]
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or not bias_fits:
        raise ShapeError(f"linear: {x.shape} x {w.shape}" + ("" if b is None else f" + {b.shape}"))


def _linear_grads(x: Tensor, weight: Tensor, g: Array, part: slice = slice(None)):
    """The gradients of x @ weight[:, part] given g, added into x's and into
    those columns of the weight's. A bias's gradient is g's column sums."""
    if x.requires_grad:
        _accumulate(x, g @ weight.data[:, part].T, own=True)
    _accumulate_part(weight, (slice(None), part), x.data.T @ g)


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
    logp, probs = _log_softmax(logits.data)
    out_data = np.asarray(-logp[np.arange(t), labels].mean(), dtype=logits.data.dtype)

    def backward(g):
        grad = probs.copy()
        grad[np.arange(t), labels] -= 1.0
        _accumulate(logits, grad * (g / t), own=True)

    return _make(out_data, (logits,), backward)


def kl_from_probs(p: Tensor, d: Tensor) -> Tensor:
    """Sum of p * log(p / d) over all entries, with 0 * log 0 == 0.

    Rows of ``p`` and ``d`` are probability vectors over the same support;
    the result sums every row's divergence.
    """
    if p.data.shape != d.data.shape:
        raise ShapeError(f"kl operands differ: {p.data.shape} vs {d.data.shape}")
    tol = 1e-6 if p.data.dtype == np.float64 else 1e-5  # f32 row sums round harder
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
ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8  # added to the second moment's root


class AdamState:
    """Adam's parameter arena: one flat buffer each for parameters,
    gradients and both moments, in ``params`` order, plus the shared step
    counter.

    Built once, before the first forward: the parameters are copied in,
    every ``p.data`` and ``p.grad`` is bound to its view, and gradients and
    moments start at zero, so every backward accumulates into the arena.
    """

    def __init__(self, params: dict[str, Tensor]):
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise TypeError(f"AdamState needs one parameter dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        total = sum(p.data.size for p in params.values())
        self.flat, self.flat_grad, self.flat_m, self.flat_v = (
            np.zeros(total, dtype=dtype) for _ in range(4)
        )
        end = 0
        for p in params.values():
            shape, start = p.data.shape, end
            end += p.data.size
            view = self.flat[start:end].reshape(shape)
            view[...] = p.data
            p.data, p.grad = view, self.flat_grad[start:end].reshape(shape)
        block = min(total, ADAM_BLOCK)
        self.scratch = (np.empty(block, dtype=dtype), np.empty(block, dtype=dtype))
        self.step = 0


def adam_step(state: AdamState, lr: float, weight_decay: float = 0.0):
    """One Adam update with bias correction and decoupled weight decay, in
    place over the arena, which leaves every gradient zero. A parameter
    that received no gradient still decays, and its moments only shrink."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    # the per-element formula and order of the textbook loop, as in-place
    # passes over cache-sized blocks
    for start in range(0, state.flat.size, ADAM_BLOCK):
        part = slice(start, start + ADAM_BLOCK)
        p, g, m, v = state.flat[part], state.flat_grad[part], state.flat_m[part], state.flat_v[part]
        a, b = (s[: p.size] for s in state.scratch)
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - ADAM_BETA2, out=a)
        np.add(v, a, out=v)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, ADAM_EPS, out=a)
        np.divide(m, bc1, out=b)
        np.divide(b, a, out=b)  # update = (m / bc1) / (sqrt(v / bc2) + eps)
        if weight_decay:
            np.multiply(p, weight_decay, out=a)
            np.add(b, a, out=b)
        np.multiply(b, lr, out=b)
        np.subtract(p, b, out=p)
        g.fill(0.0)  # while the block is in cache, not in one more pass over the arena


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
