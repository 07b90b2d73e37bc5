"""Multi-head attention with full, windowed-local, and logsparse patterns.

Every pattern runs the same two graph nodes. ``tensor.slot_softmax`` scores,
masks and normalizes all heads at once into (T_q, heads, S) probabilities:
slot j of query row i reads key row i + offsets[j]. ``tensor.slot_mix``
mixes the value rows those slots read. Attention dropout sits between them.

- local: offsets -w//2..w//2, the banded sliding-window attention of
  Longformer (Beltagy et al., arXiv:2004.05150). Keys and values are read
  through a window view of zero-padded rows, so no T x T score matrix and
  no per-slot copy is made.
- logsparse: offsets [0, -1, +1, -2, +2, -4, +4, ...] within the key
  length (Li et al., arXiv:1907.00235), O(log T) slots per row.
- full: no offsets; slot j is key j, computed as head-batched matmuls.

Out-of-range slots are masked before the softmax. The offsets and the
additive mask of the edge rows depend only on the pattern, the two lengths
and w, so ``slot_layout`` builds them once per shape and every call of that
shape shares the read-only result. The pre-dropout probabilities are kept
on the record, with the layout, so the boundary loss can read similarity
distributions straight out of the forward pass. Under ``tensor.no_grad``
there is no loss to read them, so ``attend`` returns no record and the
probabilities are freed once the mixing has read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import SlotLayout, Tensor

PATTERNS = ("full", "local", "logsparse")
PE_MODES = ("none", "sinusoidal", "learnable", "relative")
RPE_SHARES = ("none", "stage", "scale")


@dataclass
class AttentionConfig:
    """Head layout, sparsity pattern, and positional-encoding switches."""

    pattern: str = "local"
    window: int = 51
    heads: int = 4
    dropout: float = 0.0
    pe_mode: str = "relative"
    rpe_share: str = "scale"
    rpe_split_coders: bool = False  # separate encoder/decoder tables under scale sharing

    def validate(self, model_dim: int):
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown attention pattern {self.pattern!r}")
        if self.pe_mode not in PE_MODES:
            raise ConfigError(f"unknown pe_mode {self.pe_mode!r}")
        if self.rpe_share not in RPE_SHARES:
            raise ConfigError(f"unknown rpe_share {self.rpe_share!r}")
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and >= 1, got {self.window}")
        if self.heads < 1 or model_dim % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide model dim ({model_dim})")
        if self.pe_mode == "relative" and self.pattern != "local":
            raise ConfigError("relative positional encoding requires the local pattern")


@dataclass
class RpeTable:
    """Learnable (window, heads) score offsets, keyed by the sharing strategy."""

    key: str
    weights: Tensor  # (w, h); row index = (j - i) + w // 2


@dataclass
class AttentionRecord:
    """One layer's post-softmax attention in slot layout: what the boundary
    loss reads.

    ``probs`` is the (query_len, heads, slots) graph node of every head's
    probabilities (pre-dropout, so the in-range slots of each row sum to 1),
    and ``layout`` the shared layout it was computed with: slot j of query
    row i reads key i + layout.offsets[j], or key j for full attention.
    """

    pattern: str
    probs: Tensor
    layout: SlotLayout

    @property
    def query_len(self) -> int:
        return self.probs.data.shape[0]

    @property
    def heads(self) -> int:
        return self.probs.data.shape[1]


def slot_offsets(pattern: str, key_len: int, window: int) -> np.ndarray | None:
    """Key offset of each slot: the window band for local, [0, -1, +1, -2, +2,
    -4, +4, ...] up to key_len - 1 for logsparse, None (every key) for full."""
    if pattern == "full":
        return None
    if pattern == "local":
        return np.arange(-(window // 2), window // 2 + 1)
    offsets = [0]
    off = 1
    while off <= key_len - 1:
        offsets.extend((-off, off))
        off *= 2
    return np.array(offsets)


@lru_cache(maxsize=64)  # a video needs one shape per U-level; keep several videos'
def slot_layout(pattern: str, query_len: int, key_len: int, window: int) -> SlotLayout:
    """The shared, read-only slot layout of one attention shape."""
    return SlotLayout.build(slot_offsets(pattern, key_len, window), query_len, key_len)


def slot_count(pattern: str, length: int, window: int) -> int:
    """Stored score slots per query row; the per-layer memory unit."""
    offsets = slot_offsets(pattern, length, window)
    return length if offsets is None else len(offsets)


def attend(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: AttentionConfig,
    rpe: RpeTable | None = None,
    rng: np.random.Generator | None = None,
    train: bool = False,
) -> tuple[Tensor, AttentionRecord | None]:
    """Attention under ``cfg.pattern``; returns the (T_q, d) output and its
    record, or None for the record when no graph is being built.

    Local rows see keys in [i - w//2, i + w//2], clamped: the softmax
    normalizes over in-range slots only, and the relative-position scalar
    for offset j - i is added to the score first. w >= 2T - 1 gives the
    same output as full attention.
    """
    if k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"key/value lengths differ: {k.data.shape[0]} vs {v.data.shape[0]}")
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[1] != v.data.shape[1]:
        raise ShapeError("query/key/value dims differ")
    layout = slot_layout(cfg.pattern, q.data.shape[0], k.data.shape[0], cfg.window)
    probs = T.slot_softmax(q, k, layout, cfg.heads, rpe.weights if rpe is not None else None)
    p_used = probs
    if rng is not None:  # draw head-major, as per-head (T_q, S) masks from this stream would
        p_used = T.dropout(probs, cfg.dropout, rng, train, draw_axes=(1, 0, 2))
    record = AttentionRecord(cfg.pattern, probs, layout) if T.grad_enabled() else None
    return T.slot_mix(p_used, v, layout), record


def sinusoidal_encoding(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sin/cos position table of shape (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    freq = np.exp(-math.log(10000.0) * (2.0 * np.arange(half) / dim))[None, :]
    angles = pos * freq
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)[:, : dim // 2]
    return table.astype(dtype)
