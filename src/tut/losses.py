"""Training losses: frame cross-entropy, truncated smoothing loss over
adjacent log-probabilities, and the boundary-aware divergence that pulls a
boundary frame's local-attention distribution toward an idealized prior.

Boundary labels are derived from the class labels alone: a frame starts a
segment iff it is frame 0 or its label differs from the previous frame,
and ends one iff it is the last frame or its label differs from the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionRecord
from .errors import ConfigError, ShapeError
from .net import StageOutputs
from .tensor import Tensor

BA_DISTANCES = ("kl", "js", "l2", "wasserstein")


@dataclass
class LossWeights:
    smooth_weight: float = 0.15  # truncated-MSE multiplier
    boundary_weight: float = 0.0  # boundary-aware multiplier, per dataset
    smooth_clip: float = 4.0  # truncation threshold on the log-prob delta
    boundary_distance: str = "kl"

    def validate(self):
        if self.smooth_weight < 0 or self.boundary_weight < 0 or self.smooth_clip <= 0:
            raise ConfigError("loss weights must be non-negative and smooth_clip positive")
        if self.boundary_distance not in BA_DISTANCES:
            raise ConfigError(f"unknown boundary distance {self.boundary_distance!r}")


@dataclass
class BoundarySet:
    start_frames: np.ndarray
    end_frames: np.ndarray


@dataclass
class PriorDistribution:
    variant: str  # "start" | "end"
    values: np.ndarray  # length w, sums to 1


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class."""
    return T.cross_entropy_from_logits(logits, labels)


def tmse_loss(logits: Tensor, clip_at: float = 4.0) -> Tensor:
    """Truncated MSE over adjacent-frame log-probability deltas.

    Deltas are clamped at +-clip_at before squaring and the frame t-1 branch
    is detached, so smoothing never drags earlier frames toward later ones.
    Returns 0 for single-frame videos.
    """
    t, c = logits.data.shape
    if t < 2:
        return Tensor(np.asarray(0.0, dtype=logits.data.dtype))
    logp = T.log_softmax_lastdim(logits)
    cur = T.slice_rows(logp, 1, t)
    prev = Tensor(logp.data[:-1])
    delta = T.clip(T.sub(cur, prev), -clip_at, clip_at)
    return T.mul(T.sum_all(T.mul(delta, delta)), 1.0 / ((t - 1) * c))


def derive_boundaries(labels) -> BoundarySet:
    labels = np.asarray(labels)
    t = labels.shape[0]
    if t == 0:
        return BoundarySet(np.empty(0, dtype=int), np.empty(0, dtype=int))
    changed = labels[1:] != labels[:-1]
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    ends = np.flatnonzero(np.concatenate((changed, [True])))
    return BoundarySet(starts, ends)


def prior(variant: str, window: int) -> PriorDistribution:
    """Idealized boundary similarity over a window of size w.

    A start frame matches its forward neighbors (itself included), an end
    frame its backward neighbors (itself excluded); mass is uniform over
    the matching side and rescaled to sum 1.
    """
    if window < 3 or window % 2 == 0:
        raise ConfigError(f"prior needs an odd window >= 3, got {window}")
    half = window // 2
    values = np.zeros(window)
    if variant == "start":
        values[half:] = 1.0 / (half + 1)
    elif variant == "end":
        values[:half] = 1.0 / half
    else:
        raise ConfigError(f"unknown prior variant {variant!r}")
    return PriorDistribution(variant, values)


def _lad_rows(record: AttentionRecord, frames: np.ndarray, window: int) -> Tensor:
    """Head-averaged, renormalized attention windows of the given frames.

    Each head's window sums to 1 before the average, so a full record gives
    the local record's rows and every head weighs the same.
    """
    probs = record.probs
    if record.pattern == "local":
        if probs.data.shape[2] != window:
            raise ShapeError(f"record window {probs.data.shape[2]} != requested {window}")
        rows = T.gather_rows(probs, frames)
    elif record.pattern == "full":  # frame f's window is slots f - w//2 .. f + w//2
        _, heads, key_len = probs.data.shape
        keys = frames[:, None, None] + np.arange(-(window // 2), window // 2 + 1)
        flat = (frames[:, None, None] * heads + np.arange(heads)[None, :, None]) * key_len + keys
        rows = T.gather_rows(T.reshape(probs, (-1,)), flat)
        # renormalize each head over its window, as a local row already is
        rows = T.div(rows, T.sum_axis(rows, axis=2, keepdims=True))
    else:
        raise ConfigError(f"boundary loss is undefined for the {record.pattern} pattern")
    avg = T.mul(T.sum_axis(rows, axis=1), 1.0 / record.heads)
    return T.div(avg, T.sum_axis(avg, axis=1, keepdims=True))


def _distance(kind: str, priors: Tensor, lads: Tensor) -> Tensor:
    if kind == "kl":
        return T.kl_from_probs(priors, lads)
    if kind == "js":
        mid = T.add(T.mul(priors, 0.5), T.mul(lads, 0.5))
        return T.add(
            T.mul(T.kl_from_probs(priors, mid), 0.5),
            T.mul(T.kl_from_probs(lads, mid, check_domain=False), 0.5),
        )
    if kind == "l2":
        diff = T.sub(priors, lads)
        return T.sum_all(T.mul(diff, diff))
    if kind == "wasserstein":
        return T.wasserstein1_from_probs(priors, lads)
    raise ConfigError(f"unknown boundary distance {kind!r}")


def _map_boundaries(boundaries: BoundarySet, full_len: int, record_len: int) -> BoundarySet:
    if record_len == full_len:
        return boundaries
    if record_len == (full_len + 1) // 2:
        return BoundarySet(
            np.unique(boundaries.start_frames // 2), np.unique(boundaries.end_frames // 2)
        )
    raise ShapeError(f"record length {record_len} not derivable from video length {full_len}")


def _record_ba(
    record: AttentionRecord,
    boundaries: BoundarySet,
    full_len: int,
    window: int,
    kind: str,
    dtype,
) -> Tensor | None:
    mapped = _map_boundaries(boundaries, full_len, record.query_len)
    half = window // 2
    lo, hi = half, record.query_len - 1 - half
    rows = []
    prior_rows = []
    for variant, frames in (("start", mapped.start_frames), ("end", mapped.end_frames)):
        keep = frames[(frames >= lo) & (frames <= hi)]
        if keep.size:
            rows.append(keep)
            prior_rows.append(np.tile(prior(variant, window).values, (keep.size, 1)))
    if not rows:
        return None
    frames = np.concatenate(rows)
    priors = Tensor(np.concatenate(prior_rows).astype(dtype))
    lads = _lad_rows(record, frames, window)
    return T.mul(_distance(kind, priors, lads), 1.0 / record.query_len)


def ba_loss(
    records: tuple[AttentionRecord | None, AttentionRecord | None],
    boundaries: BoundarySet,
    weights: LossWeights,
    window: int,
    full_len: int,
) -> Tensor:
    """Boundary divergence summed over the designated layer pair.

    The decoder-last record sits at full resolution; under the resampling
    architecture the encoder-first record sits at ceil(T/2), so boundary
    indices are mapped t -> t // 2 (deduplicated) and the full-window
    restriction is re-checked there. Each record's sum is normalized by its
    own sequence length. Frames without a full window contribute nothing.
    """
    present = [r for r in records if r is not None]
    dtype = present[0].probs.data.dtype if present else np.float64
    total = Tensor(np.asarray(0.0, dtype=dtype))
    for record in present:
        term = _record_ba(record, boundaries, full_len, window, weights.boundary_distance, dtype)
        if term is not None:
            total = T.add(total, term)
    return total


def total_loss(
    outputs: StageOutputs,
    labels,
    weights: LossWeights,
    window: int,
) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum over stages; the breakdown is for logging."""
    labels = np.asarray(labels)
    full_len = labels.shape[0]
    boundaries = derive_boundaries(labels) if weights.boundary_weight > 0 else None
    total = None
    breakdown = {"ce": 0.0, "tmse": 0.0, "ba": 0.0}
    for stage, logits in enumerate(outputs.logits):
        term = ce_loss(logits, labels)
        breakdown["ce"] += float(term.data)
        if weights.smooth_weight > 0:
            smooth = tmse_loss(logits, weights.smooth_clip)
            breakdown["tmse"] += float(smooth.data)
            term = T.add(term, T.mul(smooth, weights.smooth_weight))
        if weights.boundary_weight > 0:
            ba = ba_loss(outputs.records[stage], boundaries, weights, window, full_len)
            breakdown["ba"] += float(ba.data)
            term = T.add(term, T.mul(ba, weights.boundary_weight))
        total = term if total is None else T.add(total, term)
    breakdown["total"] = float(total.data)
    return total, breakdown

