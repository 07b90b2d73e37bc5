"""Multi-head attention with full, windowed-local, and logsparse patterns.

Every pattern and both coders run the same three graph nodes, and each
keeps only what its backward reads. Queries and keys have one length: a
decoder's upsample restores its encoder peer's. ``tensor.slot_project``
writes the Q|K|V projection (for cross-attention, Q of the layer's rows and
K|V of the memory's) into one buffer whose rows sit between zero rows
(full attention needs none); its backward reads only its inputs.
``tensor.slot_softmax`` scores, masks and normalizes all heads at once into
(T, heads, S) probabilities: slot j of query row i reads key row
i + offsets[j]. It keeps those probabilities and views of the buffer.
``tensor.slot_mix`` applies attention dropout and mixes the value rows
those slots read; it keeps the 1-byte dropout mask, not the dropped copy.

- local: offsets -w//2..w//2, the banded sliding-window attention of
  Longformer (Beltagy et al., arXiv:2004.05150). Keys and values are read
  through a strided window view of the buffer's rows, so no T x T score
  matrix, no padded copy and no per-slot copy is made.
- logsparse: offsets [0, -1, +1, -2, +2, -4, +4, ...] within the
  length (Li et al., arXiv:1907.00235), O(log T) slots per row.
- full: no offsets; slot j is key j, computed as head-batched matmuls.

Only ``tensor._slot_dot``, ``tensor._slot_sum`` and ``tensor._fold_slots``
tell full attention from a window; both kernels call them in forward and
backward.

Out-of-range slots are masked before the softmax. The offsets and the
additive mask of the edge rows depend only on the pattern, the length
and w, so ``slot_layout`` builds them once per shape and every call of that
shape shares the read-only result. ``attend`` returns the pre-dropout
probability node beside its output, so the boundary loss can read
similarity distributions straight out of the forward pass. Under
``tensor.no_grad`` there is no loss to read them, so ``attend`` returns
None for them, and they and the projection buffer are freed before the
layer's FFN runs.

``attend`` takes the layer's rows and its Q|K|V weight and bias, only the
settings it reads (pattern, window, heads and dropout rate) and a
relative-position table as a plain (w, heads) tensor. They are held in
``net.ModelConfig``, checked once when it is built, and ``net`` resolves
which table each layer reads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import SlotLayout, Tensor

PATTERNS = ("full", "local", "logsparse")


def slot_offsets(pattern: str, length: int, window: int) -> np.ndarray | None:
    """Key offset of each slot: the window band for local, [0, -1, +1, -2, +2,
    -4, +4, ...] up to length - 1 for logsparse, None (every key) for full."""
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


def attend(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    pattern: str,
    window: int,
    heads: int,
    dropout: float = 0.0,
    rpe: Tensor | None = None,
    rng: np.random.Generator | None = None,
    memory: Tensor | None = None,
) -> tuple[Tensor, Tensor | None]:
    """``heads``-head attention under ``pattern`` from the rows of ``x`` to
    as many rows of ``memory``, or of x itself when it is None.

    ``weight`` (d_in, 3d) projects Q from x and K and V from the key rows,
    and ``bias`` (2d,) holds the Q and V biases (see ``slot_project``). Returns the (T, d) output and the (T, heads, S)
    pre-dropout probabilities, whose in-range slots of each row sum to 1
    (slot j of row i reads key i + offsets[j], or key j for full attention),
    or None for them when no graph is being built. Attention dropout at rate
    ``dropout`` draws from ``rng`` and applies only when one is given.

    Local rows see keys in [i - w//2, i + w//2], clamped: the softmax
    normalizes over in-range slots only, and row j - i + w//2 of the
    (w, heads) relative-position table ``rpe`` is added to the score
    first. w >= 2T - 1 gives the same output as full attention.
    """
    layout = slot_layout(pattern, x.data.shape[0], window)
    qkv = T.slot_project(x, weight, bias, layout, memory)
    probs = T.slot_softmax(qkv, layout, heads, rpe)
    return T.slot_mix(probs, qkv, layout, dropout, rng), probs if T.grad_enabled() else None


def sinusoidal_encoding(length: int, dim: int, dtype=np.float64, start: int = 0) -> np.ndarray:
    """Rows ``start`` to ``start + length`` of the fixed sin/cos position
    table, shape (length, dim); each row depends only on its position."""
    pos = np.arange(start, start + length, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    freq = np.exp(-math.log(10000.0) * (2.0 * np.arange(half) / dim))[None, :]
    angles = pos * freq
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)[:, : dim // 2]
    return table.astype(dtype)
