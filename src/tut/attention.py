"""Multi-head attention with full, windowed-local, and logsparse patterns.

The local and logsparse patterns never materialize a T x T score matrix:
each query row keeps a fixed slot layout of candidate keys (window offsets
or power-of-two offsets), with out-of-range slots masked before the
softmax. Post-softmax rows are retained so the boundary loss can read
similarity distributions straight out of the forward pass.

The local pattern is the banded sliding-window kernel of Longformer
(Beltagy et al., arXiv:2004.05150): ``tensor.banded_softmax`` scores all
heads against a window view of zero-padded keys in one node, and
``tensor.banded_mix`` mixes the value windows in a second. Besides Q, K and
V, the graph retains only the padded K and V copies and the (T, heads, w)
probabilities (and their dropout mask). Logsparse gathers its O(log T) key
slots per head instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import MASK_VALUE, Tensor

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
    """Per-head post-softmax rows in slot layout, plus slot bookkeeping.

    ``probs`` holds one (query_len, slots) tensor per head (pre-dropout, so
    each valid row sums to 1). ``indices``/``valid`` describe which key each
    slot points at; for the local pattern slot j is window offset j - w//2.
    Local records also carry ``fused``, the (query_len, heads, w) graph node
    that their per-head rows are graph-free views of.
    """

    pattern: str
    probs: list[Tensor]
    indices: np.ndarray
    valid: np.ndarray
    query_len: int
    key_len: int
    window: int | None = None
    fused: Tensor | None = None

    @classmethod
    def local(cls, fused: Tensor, indices, valid, key_len: int) -> "AttentionRecord":
        """Record of banded attention from its (query_len, heads, w) probabilities."""
        query_len, heads, window = fused.data.shape
        views = [Tensor(fused.data[:, h]) for h in range(heads)]
        return cls("local", views, indices, valid, query_len, key_len, window, fused)

    @property
    def heads(self) -> int:
        return len(self.probs)

    @property
    def entry_count(self) -> int:
        return self.heads * self.indices.size


def window_slots(query_len: int, key_len: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Clamped window slot indices and validity for each query row."""
    half = window // 2
    offsets = np.arange(-half, half + 1)
    raw = np.arange(query_len)[:, None] + offsets[None, :]
    valid = (raw >= 0) & (raw < key_len)
    return np.clip(raw, 0, key_len - 1), valid


def logsparse_slots(query_len: int, key_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot layout [0, -1, +1, -2, +2, -4, +4, ...] of power-of-two offsets."""
    offsets = [0]
    off = 1
    while off <= key_len - 1:
        offsets.extend((-off, off))
        off *= 2
    offs = np.array(offsets)
    raw = np.arange(query_len)[:, None] + offs[None, :]
    valid = (raw >= 0) & (raw < key_len)
    return np.clip(raw, 0, key_len - 1), valid


def _split_heads(x: Tensor, heads: int) -> list[Tensor]:
    dim = x.data.shape[1]
    if dim % heads:
        raise ShapeError(f"heads ({heads}) must divide model dim ({dim})")
    head_dim = dim // heads
    return [T.slice_cols(x, i * head_dim, (i + 1) * head_dim) for i in range(heads)]


def _check_kv(q: Tensor, k: Tensor, v: Tensor):
    if k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"key/value lengths differ: {k.data.shape[0]} vs {v.data.shape[0]}")
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[1] != v.data.shape[1]:
        raise ShapeError("query/key/value dims differ")


def full_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: AttentionConfig,
    rng: np.random.Generator | None = None,
    train: bool = False,
) -> tuple[Tensor, AttentionRecord]:
    """Dense attention; the oracle arm and the quadratic-memory baseline."""
    _check_kv(q, k, v)
    t_q, dim = q.data.shape
    t_k = k.data.shape[0]
    head_dim = dim // cfg.heads
    scale = 1.0 / math.sqrt(head_dim)
    outs, probs = [], []
    for qh, kh, vh in zip(_split_heads(q, cfg.heads), _split_heads(k, cfg.heads), _split_heads(v, cfg.heads)):
        scores = T.mul(T.matmul(qh, T.transpose2d(kh)), scale)  # (t_q, t_k)
        p = T.softmax_lastdim(scores)
        probs.append(p)
        p_used = T.dropout(p, cfg.dropout, rng, train) if rng is not None else p
        outs.append(T.matmul(p_used, vh))
    record = AttentionRecord(
        pattern="full",
        probs=probs,
        indices=np.broadcast_to(np.arange(t_k), (t_q, t_k)).copy(),
        valid=np.ones((t_q, t_k), dtype=bool),
        query_len=t_q,
        key_len=t_k,
    )
    return T.concat_cols(outs), record


def _slotted_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: AttentionConfig,
    indices: np.ndarray,
    valid: np.ndarray,
    pattern: str,
    rpe: RpeTable | None,
    rng: np.random.Generator | None,
    train: bool,
) -> tuple[Tensor, AttentionRecord]:
    t_q, dim = q.data.shape
    slots = indices.shape[1]
    head_dim = dim // cfg.heads
    scale = 1.0 / math.sqrt(head_dim)
    flat_idx = indices.reshape(-1)
    mask = Tensor(np.where(valid, 0.0, MASK_VALUE).astype(q.data.dtype))
    outs, probs = [], []
    for h, (qh, kh, vh) in enumerate(
        zip(_split_heads(q, cfg.heads), _split_heads(k, cfg.heads), _split_heads(v, cfg.heads))
    ):
        kg = T.reshape(T.gather_rows(kh, flat_idx), (t_q, slots, head_dim))
        qe = T.reshape(qh, (t_q, 1, head_dim))
        scores = T.mul(T.sum_axis(T.mul(qe, kg), axis=2), scale)  # (t_q, slots)
        if rpe is not None:
            rpe_row = T.reshape(T.slice_cols(rpe.weights, h, h + 1), (1, slots))
            scores = T.add(scores, rpe_row)
        p = T.softmax_lastdim(T.add(scores, mask))
        probs.append(p)
        p_used = T.dropout(p, cfg.dropout, rng, train) if rng is not None else p
        vg = T.reshape(T.gather_rows(vh, flat_idx), (t_q, slots, head_dim))
        outs.append(T.sum_axis(T.mul(T.reshape(p_used, (t_q, slots, 1)), vg), axis=1))
    record = AttentionRecord(
        pattern=pattern,
        probs=probs,
        indices=indices,
        valid=valid,
        query_len=t_q,
        key_len=k.data.shape[0],
        window=cfg.window if pattern == "local" else None,
    )
    return T.concat_cols(outs), record


def local_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: AttentionConfig,
    rpe: RpeTable | None = None,
    rng: np.random.Generator | None = None,
    train: bool = False,
) -> tuple[Tensor, AttentionRecord]:
    """Windowed attention: row i sees keys in [i - w//2, i + w//2], clamped.

    The softmax normalizes over in-range slots only (no padding keys), and
    the relative-position scalar for offset j - i is added to the score
    before the softmax. w >= 2T - 1 degenerates to full attention.
    """
    _check_kv(q, k, v)
    if rpe is not None and rpe.weights.data.shape != (cfg.window, cfg.heads):
        raise ShapeError(
            f"rpe table {rpe.weights.data.shape} does not match (w={cfg.window}, h={cfg.heads})"
        )
    t_k = k.data.shape[0]
    indices, valid = window_slots(q.data.shape[0], t_k, cfg.window)
    probs = T.banded_softmax(q, k, valid, cfg.heads, rpe.weights if rpe is not None else None)
    p_used = probs
    if rng is not None:  # draw head-major, as per-head (T, w) masks from this stream would
        p_used = T.dropout(probs, cfg.dropout, rng, train, draw_axes=(1, 0, 2))
    return T.banded_mix(p_used, v), AttentionRecord.local(probs, indices, valid, t_k)


def logsparse_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: AttentionConfig,
    rng: np.random.Generator | None = None,
    train: bool = False,
) -> tuple[Tensor, AttentionRecord]:
    """Each query attends to itself and keys at power-of-two offsets."""
    _check_kv(q, k, v)
    indices, valid = logsparse_slots(q.data.shape[0], k.data.shape[0])
    return _slotted_attention(q, k, v, cfg, indices, valid, "logsparse", None, rng, train)


def attend(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    cfg: AttentionConfig,
    rpe: RpeTable | None = None,
    rng: np.random.Generator | None = None,
    train: bool = False,
) -> tuple[Tensor, AttentionRecord]:
    """Dispatch on the configured pattern."""
    if cfg.pattern == "full":
        return full_attention(q, k, v, cfg, rng=rng, train=train)
    if cfg.pattern == "logsparse":
        return logsparse_attention(q, k, v, cfg, rng=rng, train=train)
    return local_attention(q, k, v, cfg, rpe=rpe, rng=rng, train=train)


def slot_count(pattern: str, length: int, window: int) -> int:
    """Stored score slots per query row; the per-layer memory unit."""
    if pattern == "full":
        return length
    if pattern == "local":
        return window
    slots = 1
    off = 1
    while off <= length - 1:
        slots += 2
        off *= 2
    return slots


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
