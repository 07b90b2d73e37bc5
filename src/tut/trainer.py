"""Training loop, learning-rate schedule, evaluation/prediction runs, and
the ablation grid harness.

One optimizer step per video (batch size 1); the learning rate halves after
the epoch-mean training loss has exceeded its predecessor three times since
the last halving.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics as M
from .data import ClassMapping, VideoSample, upsample_predictions
from .errors import ConfigError, NumericError, TrainingDiverged
from .losses import LossWeights, mean_boundary_kl, total_loss
from .net import (
    ModelConfig,
    count_attention_entries,
    final_prediction,
    init_params,
    load_checkpoint,
    model_forward,
    save_checkpoint,
    zero_grads,
)
from .tensor import AdamState, SeedStreams, Tensor, adam_step


@dataclass
class TrainConfig:
    epochs: int = 150
    lr: float = 5e-4
    weight_decay: float = 1e-5
    smooth_weight: float = 0.15
    smooth_clip: float = 4.0
    boundary_weight: float = 0.0
    boundary_distance: str = "kl"
    seed: int = 0
    shuffle: bool = True
    lr_decay_factor: float = 0.5
    lr_decay_patience: int = 3  # loss increases before a halving
    checkpoint_every: int = 0  # epochs between rolling saves; 0 = final only
    eval_every: int = 0  # evaluation cadence during training; 0 = off
    keep_best: bool = False  # track the best-accuracy epoch (final epoch stays the default artifact)

    def validate(self):
        if self.epochs < 1 or self.lr <= 0:
            raise ConfigError("epochs must be >= 1 and lr positive")
        self.loss_weights().validate()

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            smooth_weight=self.smooth_weight,
            boundary_weight=self.boundary_weight,
            smooth_clip=self.smooth_clip,
            boundary_distance=self.boundary_distance,
        )


@dataclass
class TrainState:
    lr: float
    epoch: int = 0
    loss_history: list[float] = field(default_factory=list)
    increase_count: int = 0
    adam: AdamState = field(default_factory=AdamState)


def apply_lr_rule(state: TrainState, epoch_loss: float, factor: float, patience: int):
    """Count epochs whose mean loss beats the previous epoch's; halve the
    rate at the configured count, then reset the counter."""
    if state.loss_history and epoch_loss > state.loss_history[-1]:
        state.increase_count += 1
        if state.increase_count >= patience:
            state.lr *= factor
            state.increase_count = 0
    state.loss_history.append(epoch_loss)


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    state: TrainState
    log_rows: list[dict]
    model_cfg: ModelConfig
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
    eval_samples: list[VideoSample] | None = None,
) -> TrainResult:
    """Train on the given videos; deterministic in (configs, seed)."""
    model_cfg.validate()
    train_cfg.validate()
    if not samples:
        raise ConfigError("cannot train on an empty dataset")
    weights = train_cfg.loss_weights()
    streams = SeedStreams(train_cfg.seed)
    params = init_params(model_cfg, streams)
    state = TrainState(lr=train_cfg.lr)
    shuffle_rng = streams.stream("shuffle")
    log_rows: list[dict] = []
    best: tuple[int, float, dict[str, Tensor]] | None = None
    for epoch in range(1, train_cfg.epochs + 1):
        state.epoch = epoch
        order = shuffle_rng.permutation(len(samples)) if train_cfg.shuffle else range(len(samples))
        sums = {"ce": 0.0, "tmse": 0.0, "ba": 0.0, "total": 0.0}
        for idx in order:
            sample = samples[idx]
            zero_grads(params)
            try:
                outputs = model_forward(
                    sample.features, params, model_cfg, train=True, streams=streams
                )
                loss, parts = total_loss(outputs, sample.labels, weights, model_cfg.window)
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
            adam_step(
                params,
                {name: p.grad for name, p in params.items()},
                state.adam,
                lr=state.lr,
                weight_decay=train_cfg.weight_decay,
            )
        n = len(samples)
        row = {
            "epoch": epoch,
            "ce": sums["ce"] / n,
            "tmse": sums["tmse"] / n,
            "ba": sums["ba"] / n,
            "total": sums["total"] / n,
            "lr": state.lr,
        }
        apply_lr_rule(state, row["total"], train_cfg.lr_decay_factor, train_cfg.lr_decay_patience)
        log_rows.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if (
            checkpoint_dir is not None
            and train_cfg.checkpoint_every
            and epoch % train_cfg.checkpoint_every == 0
        ):
            save_checkpoint(Path(checkpoint_dir) / f"epoch{epoch:04d}.ckpt", params, model_cfg)
        if train_cfg.keep_best and train_cfg.eval_every and epoch % train_cfg.eval_every == 0:
            report, _ = evaluate_model(params, model_cfg, eval_samples or samples)
            if best is None or report.acc > best[1]:
                snapshot = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
                best = (epoch, report.acc, snapshot)
    result = TrainResult(params, state, log_rows, model_cfg)
    if best is not None:
        result.best_epoch, result.best_acc, result.best_params = best
    return result


def log_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=LOG_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v) for k, v in row.items()})
    return buf.getvalue()


# ---------------------------------------------------------------------------
# evaluation / prediction


def predict_sample(
    params: dict[str, Tensor], cfg: ModelConfig, sample: VideoSample, upsample: bool = False
) -> np.ndarray:
    """Dropout-free forward; labels from the last stage, optionally restored
    to the source frame rate."""
    labels = final_prediction(model_forward(sample.features, params, cfg, train=False))
    return restore_source_rate(labels, sample) if upsample else labels


def restore_source_rate(labels: np.ndarray, sample: VideoSample) -> np.ndarray:
    """Repeat each strided prediction over the source frames it stands for."""
    if sample.stride == 1:
        return labels
    return upsample_predictions(labels, sample.stride, sample.source_len)


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


def evaluate_run(
    checkpoint_path,
    samples: list[VideoSample],
    thresholds=M.DEFAULT_THRESHOLDS,
    ignored_classes=(),
) -> tuple[M.EvalReport, dict[str, np.ndarray]]:
    params, cfg = load_checkpoint(checkpoint_path)
    return evaluate_model(params, cfg, samples, thresholds, ignored_classes)


def boundary_alignment(
    params: dict[str, Tensor], cfg: ModelConfig, samples: list[VideoSample]
) -> float | None:
    """Mean KL between boundary-frame attention windows (decoder last layer,
    final stage) and their priors, averaged over videos; a training probe."""
    values = []
    for sample in samples:
        outputs = model_forward(sample.features, params, cfg, train=False)
        record = outputs.records[-1][1]
        value = mean_boundary_kl(record, sample.labels, cfg.window)
        if value is not None:
            values.append(value)
    return float(np.mean(values)) if values else None


def segments_csv(labels, mapping: ClassMapping | None = None) -> str:
    buf = io.StringIO()
    buf.write("class,start,end\n")
    for seg in M.extract_segments(list(labels)):
        name = mapping.name_of(int(seg.label)) if mapping is not None else seg.label
        buf.write(f"{name},{seg.start},{seg.end}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# ablation grid

ABLATE_AXES = ("arch-attention", "positional-encoding", "ba-distance", "window", "heads", "beta")

ABLATE_FIELDS = (
    "architecture", "attention", "pe_mode", "rpe_share", "window", "heads", "beta",
    "entries", "acc", "edit", "f1_10", "f1_25", "f1_50", "status",
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
    eval_samples: list[VideoSample] | None = None,
    values=None,
    on_cell=None,
) -> list[dict]:
    """Train+evaluate one run per grid cell; returns CSV-ready rows.

    Each row carries the attention-score entry count of a forward pass at
    the corpus' longest video, the memory analogue of the pattern ablation.
    Unsupported combinations are skipped with a reason in the status column.
    """
    eval_samples = eval_samples if eval_samples is not None else samples
    max_len = max(s.num_frames for s in samples)
    rows = []
    for model_over, train_over in _grid_cells(axis, model_cfg, train_cfg, values):
        cell_model = replace(model_cfg, **model_over)
        cell_train = replace(train_cfg, **train_over)
        row = {
            "architecture": cell_model.architecture,
            "attention": cell_model.attention,
            "pe_mode": cell_model.pe_mode,
            "rpe_share": cell_model.rpe_share if cell_model.pe_mode == "relative" else "",
            "window": cell_model.window,
            "heads": cell_model.heads,
            "beta": cell_train.boundary_weight,
            "entries": count_attention_entries(cell_model, max_len),
        }
        try:
            cell_model.validate()
            if cell_train.boundary_weight > 0 and cell_model.attention == "logsparse":
                raise ConfigError("boundary loss is undefined for the logsparse pattern")
            result = train(samples, cell_model, cell_train)
            report, _ = evaluate_model(result.params, cell_model, eval_samples)
            row.update(
                acc=f"{report.acc:.2f}",
                edit=f"{report.edit:.2f}",
                f1_10=f"{report.f1[0.1]:.2f}",
                f1_25=f"{report.f1[0.25]:.2f}",
                f1_50=f"{report.f1[0.5]:.2f}",
                status="ok",
            )
        except ConfigError as exc:
            row.update(acc="", edit="", f1_10="", f1_25="", f1_50="", status=f"skipped: {exc}")
        rows.append(row)
        if on_cell is not None:
            on_cell(row)
    return rows


def ablate_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ABLATE_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
