"""Training losses: frame cross-entropy, truncated smoothing loss over
adjacent log-probabilities, and the boundary-aware divergence that pulls a
boundary frame's local-attention distribution toward an idealized prior.

Boundary labels are derived from the class labels alone: a frame starts a
segment iff it is frame 0 or its label differs from the previous frame,
and ends one iff it is the last frame or its label differs from the next.

``total_loss`` reads the term weights and the boundary distance off the
``trainer.TrainConfig``, and the attention pattern and window off the
``net.ModelConfig``; each checked itself when it was built, and the terms
take plain values. The boundary term reads the probability nodes of
``net.StageOutputs.records``. ``check_boundary_loss`` says which models it
can read; ``config.build_configs`` and ``trainer.train`` apply it too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .metrics import extract_segments
from .net import ModelConfig, StageOutputs
from .tensor import Tensor

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import TrainConfig

BA_DISTANCES = ("kl", "js", "l2", "wasserstein")
BA_PATTERNS = ("local", "full")  # attention patterns that give every frame its window
TMSE_CLIP = 4.0  # tau: the largest log-probability delta the smoothing loss counts


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class."""
    return T.cross_entropy_from_logits(logits, labels)


def tmse_loss(logits: Tensor) -> Tensor:
    """Truncated MSE over adjacent-frame log-probability deltas.

    Deltas are clamped at +-``TMSE_CLIP`` before squaring and the frame
    t-1 branch is detached, so smoothing never drags earlier frames toward
    later ones. Returns 0 for single-frame videos.
    """
    t, c = logits.data.shape
    if t < 2:
        return Tensor(np.asarray(0.0, dtype=logits.data.dtype))
    logp = T.log_softmax_lastdim(logits)
    cur = T.slice_rows(logp, 1, t)
    prev = Tensor(logp.data[:-1])
    delta = T.clip(T.sub(cur, prev), -TMSE_CLIP, TMSE_CLIP)
    return T.mul(T.sum_all(T.mul(delta, delta)), 1.0 / ((t - 1) * c))


def check_boundary_loss(attention: str, window: int):
    """Refuse a model the boundary loss cannot read: a pattern with no local
    window per frame, or a window with no neighbour on either side."""
    if attention not in BA_PATTERNS:
        raise ConfigError(
            f"boundary loss is undefined for the {attention} pattern",
            ("boundary_weight", "attention"),
        )
    if window < 3:
        raise ConfigError(
            f"boundary loss needs a window >= 3, got {window}", ("boundary_weight", "window")
        )


def derive_boundaries(labels) -> tuple[np.ndarray, np.ndarray]:
    """The first frames and the last frames of the label runs
    (``metrics.extract_segments``)."""
    segments = extract_segments(np.asarray(labels))
    starts = np.array([s.start for s in segments], dtype=int)
    ends = np.array([s.end for s in segments], dtype=int)
    return starts, ends


def prior(variant: str, window: int) -> np.ndarray:
    """Idealized boundary similarity over a window of size w: a length-w
    array that sums to 1.

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
    return values


def _lad_rows(probs: Tensor, frames: np.ndarray, attention: str, window: int) -> Tensor:
    """Head-averaged windows of the given frames, read from (T_q, heads, S)
    probabilities under ``attention``: each head's window is renormalized
    to sum 1, so full attention gives local attention's rows and every head
    weighs the same, and their sum over heads is renormalized, which
    divides by the head count too.
    """
    _, heads, slots = probs.data.shape
    if attention == "local":
        if slots != window:
            raise ShapeError(f"attention window {slots} != requested {window}")
        rows = T.gather_rows(probs, frames)
    else:  # full: frame f's window is slots f - w//2 .. f + w//2
        keys = frames[:, None, None] + np.arange(-(window // 2), window // 2 + 1)
        flat = (frames[:, None, None] * heads + np.arange(heads)[None, :, None]) * slots + keys
        rows = T.gather_rows(T.reshape(probs, (-1,)), flat)
        # renormalize each head over its window, as a local row already is
        rows = T.div(rows, T.sum_axis(rows, axis=2, keepdims=True))
    total = T.sum_axis(rows, axis=1)
    return T.div(total, T.sum_axis(total, axis=1, keepdims=True))


def _distance(kind: str, priors: Tensor, lads: Tensor) -> Tensor:
    if kind == "kl":
        return T.kl_from_probs(priors, lads)
    if kind == "js":
        mid = T.add(T.mul(priors, 0.5), T.mul(lads, 0.5))
        return T.add(
            T.mul(T.kl_from_probs(priors, mid), 0.5),
            T.mul(T.kl_from_probs(lads, mid), 0.5),
        )
    if kind == "l2":
        diff = T.sub(priors, lads)
        return T.sum_all(T.mul(diff, diff))
    if kind == "wasserstein":
        return T.wasserstein1_from_probs(priors, lads)
    raise ConfigError(f"unknown boundary distance {kind!r}")


def boundary_targets(labels, query_len: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The boundary frames an attention layer of ``query_len`` rows is scored
    on, and each one's (window,) prior row: the start frames, then the end
    frames, keeping only frames with a full window.

    The decoder-last layer sits at full resolution; under the resampling
    architecture the encoder-first layer sits at ceil(T/2), where frame t
    maps to t // 2 (deduplicated) before the window is checked.
    """
    labels = np.asarray(labels)
    full_len = labels.shape[0]
    starts, ends = derive_boundaries(labels)
    if query_len != full_len:
        if query_len != (full_len + 1) // 2:
            raise ShapeError(
                f"attention length {query_len} not derivable from video length {full_len}"
            )
        starts, ends = np.unique(starts // 2), np.unique(ends // 2)
    half = window // 2
    kept = [f[(f >= half) & (f <= query_len - 1 - half)] for f in (starts, ends)]
    table = np.stack([prior("start", window), prior("end", window)])
    return np.concatenate(kept), table[np.repeat([0, 1], [f.size for f in kept])]


def ba_loss(
    records: tuple[Tensor | None, Tensor | None],
    targets: dict[int, tuple[np.ndarray, np.ndarray]],
    distance: str,
    attention: str,
    window: int,
) -> Tensor:
    """Boundary divergence (one of ``BA_DISTANCES``) summed over the
    designated layer pair: (T_q, heads, S) probabilities under
    ``attention`` with ``window``, a pair ``check_boundary_loss`` must take.

    ``targets`` maps each layer's T_q to its ``boundary_targets``. Each
    layer's sum is normalized by its own sequence length; a layer with no
    boundary frame contributes nothing, and with none in either the loss is
    a zero leaf.
    """
    check_boundary_loss(attention, window)
    present = [p for p in records if p is not None]
    total = None
    for probs in present:
        query_len = probs.data.shape[0]
        frames, priors = targets[query_len]
        if frames.size:
            lads = _lad_rows(probs, frames, attention, window)
            priors = Tensor(priors.astype(probs.data.dtype))
            term = T.mul(_distance(distance, priors, lads), 1.0 / query_len)
            total = term if total is None else T.add(total, term)
    if total is None:
        return Tensor(np.asarray(0.0, dtype=present[0].data.dtype if present else np.float64))
    return total


def total_loss(
    outputs: StageOutputs,
    labels,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
) -> tuple[Tensor, dict[str, float]]:
    """Sum over stages of each term weighted as ``cfg`` says, the boundary
    term read as ``model_cfg`` attends; the breakdown is for logging."""
    labels = np.asarray(labels)
    targets = {}
    if cfg.boundary_weight > 0:  # one set of targets per attention length
        lengths = {p.data.shape[0] for pair in outputs.records for p in pair if p is not None}
        targets = {n: boundary_targets(labels, n, model_cfg.window) for n in lengths}
    total = None
    breakdown = {"ce": 0.0, "tmse": 0.0, "ba": 0.0}
    for stage, logits in enumerate(outputs.logits):
        term = ce_loss(logits, labels)
        breakdown["ce"] += float(term.data)
        if cfg.smooth_weight > 0:
            smooth = tmse_loss(logits)
            breakdown["tmse"] += float(smooth.data)
            term = T.add(term, T.mul(smooth, cfg.smooth_weight))
        if cfg.boundary_weight > 0:
            ba = ba_loss(
                outputs.records[stage], targets, cfg.boundary_distance,
                model_cfg.attention, model_cfg.window,
            )
            breakdown["ba"] += float(ba.data)
            term = T.add(term, T.mul(ba, cfg.boundary_weight))
        total = term if total is None else T.add(total, term)
    breakdown["total"] = float(total.data)
    return total, breakdown

