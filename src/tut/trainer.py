"""Training loop, learning-rate schedule, evaluation/prediction runs, and
the ablation grid harness.

One optimizer step per video (batch size 1); the learning rate halves after
the epoch-mean training loss has exceeded its predecessor three times since
the last halving. Each step reads its video's features through
``VideoSample.load_features`` and each prediction through the sample's
blocks, so a loaded split is held one video at a time, and a prediction
holds no video's whole feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics as M
from .data import ClassMapping, VideoSample
from .errors import ConfigError, DatasetError, NumericError, TrainingDiverged
from .losses import BA_DISTANCES, check_boundary_loss, total_loss
from .net import (
    ModelConfig,
    check_length,
    count_attention_entries,
    final_prediction,
    init_params,
    load_checkpoint,  # no caller here; perfbench's tracer patches trainer.load_checkpoint by name
    model_forward,
    save_checkpoint,
)
from .tensor import AdamState, SeedStreams, Tensor, adam_step, no_grad


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, loss and schedule settings; frozen, and a value out of
    range raises ``ConfigError`` when it is built."""

    epochs: int = 150
    lr: float = 5e-4
    weight_decay: float = 1e-5
    smooth_weight: float = 0.15
    boundary_weight: float = 0.0
    boundary_distance: str = "kl"
    seed: int = 0
    checkpoint_every: int = 0  # epochs between rolling saves; 0 = final only
    eval_every: int = 0  # epochs between best-accuracy checks on the training videos; 0 = off

    def __post_init__(self):
        for key, least in (("epochs", 1), ("checkpoint_every", 0), ("eval_every", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}", (key,))
        for key in ("lr", "weight_decay", "smooth_weight", "boundary_weight"):
            value, positive = getattr(self, key), key == "lr"
            if not math.isfinite(value) or value < 0 or (positive and value == 0):
                bound = "> 0" if positive else ">= 0"
                raise ConfigError(f"{key} must be finite and {bound}, got {value}", (key,))
        if self.boundary_distance not in BA_DISTANCES:
            raise ConfigError(
                f"unknown boundary distance {self.boundary_distance!r}", ("boundary_distance",)
            )


@dataclass
class TrainState:
    lr: float
    last_loss: float | None = None  # the previous epoch's mean loss
    increase_count: int = 0
    adam: AdamState | None = None  # packed by ``train`` before its first forward


LR_DECAY_FACTOR = 0.5
LR_DECAY_PATIENCE = 3  # loss increases before a halving


def apply_lr_rule(state: TrainState, epoch_loss: float):
    """Count epochs whose mean loss beats the previous epoch's; halve the
    rate at the third, then reset the counter."""
    if state.last_loss is not None and epoch_loss > state.last_loss:
        state.increase_count += 1
        if state.increase_count >= LR_DECAY_PATIENCE:
            state.lr *= LR_DECAY_FACTOR
            state.increase_count = 0
    state.last_loss = epoch_loss


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    state: TrainState
    log_rows: list[dict]
    best_epoch: int | None = None
    best_acc: float | None = None
    best_params: dict[str, Tensor] | None = None


LOG_FIELDS = ("epoch", "ce", "tmse", "ba", "total", "lr")


def train(
    samples: list[VideoSample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    on_epoch=None,
    checkpoint_dir=None,
) -> TrainResult:
    """Train on the given videos; deterministic in (configs, seed).
    ``checkpoint_dir`` is made only to hold a rolling checkpoint. A boundary
    loss the model cannot take, or a video it cannot take, raises
    ``ConfigError`` before the model is built."""
    if not samples:
        raise ConfigError("cannot train on an empty dataset")
    if train_cfg.boundary_weight > 0:
        check_boundary_loss(model_cfg.attention, model_cfg.window)
    for sample in samples:
        _check_length(model_cfg, sample)
    streams = SeedStreams(train_cfg.seed)
    params = init_params(model_cfg, streams)
    state = TrainState(lr=train_cfg.lr, adam=AdamState(params))
    shuffle_rng = streams.stream("shuffle")
    log_rows: list[dict] = []
    best: tuple[int, float, dict[str, Tensor]] | None = None
    for epoch in range(1, train_cfg.epochs + 1):
        order = shuffle_rng.permutation(len(samples))
        sums = {"ce": 0.0, "tmse": 0.0, "ba": 0.0, "total": 0.0}
        for idx in order:
            sample = samples[idx]
            try:
                outputs = model_forward(
                    sample.load_features(), params, model_cfg, train=True, streams=streams
                )
                loss, parts = total_loss(outputs, sample.labels, train_cfg, model_cfg)
            except NumericError as exc:
                raise TrainingDiverged(
                    f"non-finite values on video {sample.video_id} at epoch {epoch}: {exc}"
                ) from exc
            for term, value in parts.items():
                if not np.isfinite(value):
                    raise TrainingDiverged(
                        f"non-finite {term} loss on video {sample.video_id} at epoch {epoch}"
                    )
                sums[term] += value
            loss.backward()
            adam_step(state.adam, lr=state.lr, weight_decay=train_cfg.weight_decay)
        n = len(samples)
        row = {"epoch": epoch, **{k: v / n for k, v in sums.items()}, "lr": state.lr}
        apply_lr_rule(state, row["total"])
        log_rows.append(row)
        if on_epoch is not None:
            on_epoch(row)
        every = train_cfg.checkpoint_every
        if checkpoint_dir is not None and every and epoch % every == 0:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            save_checkpoint(Path(checkpoint_dir) / f"epoch{epoch:04d}.ckpt", params, model_cfg)
        if train_cfg.eval_every and epoch % train_cfg.eval_every == 0:
            report, _ = evaluate_model(params, model_cfg, samples)
            if best is None or report.acc > best[1]:
                snapshot = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
                best = (epoch, report.acc, snapshot)
    result = TrainResult(params, state, log_rows)
    if best is not None:
        result.best_epoch, result.best_acc, result.best_params = best
    return result


def log_csv(rows: list[dict]) -> str:
    """``train_log.csv``: one row per epoch, floats to six decimals."""
    cells = ({k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()} for row in rows)
    return M.csv_text(LOG_FIELDS, cells)


# ---------------------------------------------------------------------------
# evaluation / prediction


def _check_length(cfg: ModelConfig, sample: VideoSample):
    """``net.check_length`` of one video, naming its feature file (or id)."""
    try:
        check_length(cfg, sample.num_frames)
    except ConfigError as exc:
        raise ConfigError(f"{sample.path or sample.video_id}: {exc}") from None


def predict_sample(params: dict[str, Tensor], cfg: ModelConfig, sample: VideoSample) -> np.ndarray:
    """Dropout-free, graph-free forward; labels from the last stage, one per
    kept frame (``restore_source_rate`` maps them back to the source rate).
    Stage 0 projects the sample block by block (``VideoSample.blocks``),
    so the whole feature matrix of a sample read from a file is never held.
    Features not ``cfg.input_dim`` wide, or that make the forward pass
    non-finite (a NaN or inf among them), raise ``DatasetError``, and a
    length the model cannot take ``ConfigError``, each naming the file."""
    where = sample.path or sample.video_id
    if sample.feature_dim != cfg.input_dim:
        width = sample.feature_dim
        raise DatasetError(f"{where}: features are {width} wide, the model takes {cfg.input_dim}")
    _check_length(cfg, sample)
    with no_grad(), np.errstate(invalid="ignore"):  # the NumericError below names the file
        try:
            return final_prediction(model_forward(sample, params, cfg, train=False))
        except NumericError as exc:
            raise DatasetError(f"{where}: non-finite forward pass on these features ({exc})") from None


def restore_source_rate(labels: np.ndarray, sample: VideoSample) -> np.ndarray:
    """Repeat each strided prediction over the source frames it stands for;
    the ceil(source_len / stride) labels of a strided sample cover them all."""
    return np.repeat(labels, sample.stride)[: sample.source_len]


def evaluate_model(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    samples: list[VideoSample],
    thresholds=M.DEFAULT_THRESHOLDS,
    ignored_classes=(),
) -> tuple[M.EvalReport, dict[str, np.ndarray]]:
    predictions = {s.video_id: predict_sample(params, cfg, s) for s in samples}
    pairs = [(predictions[s.video_id], s.labels) for s in samples]
    return M.evaluate_corpus(pairs, thresholds, ignored_classes), predictions


def segments_csv(labels, mapping: ClassMapping | None = None) -> str:
    rows = []
    for seg in M.extract_segments(labels):
        name = mapping.name_of(int(seg.label)) if mapping is not None else seg.label
        rows.append({"class": name, "start": seg.start, "end": seg.end})
    return M.csv_text(("class", "start", "end"), rows)


# ---------------------------------------------------------------------------
# ablation grid

ABLATE_AXES = ("arch-attention", "positional-encoding", "ba-distance", "window", "heads", "beta")

ABLATE_FIELDS = (
    "architecture", "attention", "pe_mode", "rpe_share", "window", "heads", "beta",
    "boundary_distance", "entries", "acc", "edit", "f1_10", "f1_25", "f1_50", "status",
)


def _grid_cells(axis: str, model_cfg: ModelConfig, train_cfg: TrainConfig, values=None):
    """Yield (model overrides, train overrides) per grid cell."""
    if axis == "arch-attention":
        for arch in ("utrans", "standard"):
            for pattern in ("full", "logsparse", "local"):
                yield {"architecture": arch, "attention": pattern, "pe_mode": "none"}, {}
    elif axis == "positional-encoding":
        yield {"pe_mode": "none"}, {}
        yield {"pe_mode": "sinusoidal"}, {}
        yield {"pe_mode": "learnable"}, {}
        for share in ("none", "stage", "scale"):
            yield {"pe_mode": "relative", "rpe_share": share}, {}
    elif axis == "ba-distance":
        beta = train_cfg.boundary_weight if train_cfg.boundary_weight > 0 else 0.02
        for kind in ("kl", "js", "l2", "wasserstein"):
            yield {}, {"boundary_weight": beta, "boundary_distance": kind}
    elif axis == "window":
        for w in values or (11, 31, 51, 71, 91):
            yield {"window": int(w)}, {}
    elif axis == "heads":
        for h in values or (1, 2, 4, 8):
            yield {"heads": int(h)}, {}
    elif axis == "beta":
        for beta in values or (0.0, 0.01, 0.02, 0.03, 0.04):
            yield {}, {"boundary_weight": float(beta)}
    else:
        raise ConfigError(f"unknown ablation axis {axis!r} (have {ABLATE_AXES})")


def ablate(
    axis: str,
    samples: list[VideoSample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    values=None,
    on_cell=None,
    ignored_classes=(),
) -> list[dict]:
    """Train+evaluate one run per grid cell; returns CSV-ready rows.

    Each row carries the attention-score entry count of a forward pass at
    the corpus' longest video, the memory analogue of the pattern ablation.
    A cell that cannot be built (then with no entry count) or trained is
    skipped with the reason in the status column. Edit and F1 drop the
    class ids in ``ignored_classes``.
    """
    max_len = max(s.num_frames for s in samples)
    rows = []
    for model_over, train_over in _grid_cells(axis, model_cfg, train_cfg, values):
        cell = {**asdict(model_cfg), **model_over}
        row = {key: cell.get(key, "") for key in ABLATE_FIELDS}
        row["rpe_share"] = cell["rpe_share"] if cell["pe_mode"] == "relative" else ""
        row["beta"] = train_over.get("boundary_weight", train_cfg.boundary_weight)
        distance = train_over.get("boundary_distance", train_cfg.boundary_distance)
        row["boundary_distance"] = distance if row["beta"] > 0 else ""
        try:
            cell_model = replace(model_cfg, **model_over)
            cell_train = replace(train_cfg, **train_over)
            row["entries"] = count_attention_entries(cell_model, max_len)
            result = train(samples, cell_model, cell_train)
            report, _ = evaluate_model(
                result.params, cell_model, samples, ignored_classes=ignored_classes
            )
            row.update(
                acc=f"{report.acc:.2f}",
                edit=f"{report.edit:.2f}",
                f1_10=f"{report.f1[0.1]:.2f}",
                f1_25=f"{report.f1[0.25]:.2f}",
                f1_50=f"{report.f1[0.5]:.2f}",
                status="ok",
            )
        except ConfigError as exc:
            row["status"] = f"skipped: {exc}"
        rows.append(row)
        if on_cell is not None:
            on_cell(row)
    return rows


def ablate_csv(rows: list[dict]) -> str:
    return M.csv_text(ABLATE_FIELDS, rows)
