"""Command-line interface: train, eval, predict, synth, ablate,
inspect-checkpoint. ``train`` and ``ablate`` take every config key as a
flag, which wins over ``--config``; the split gives the model its feature
width and class count. ``eval`` and ``predict`` take their model from the
checkpoint, so only the ``[data]`` keys they read. A command makes its
output only once it has something to write.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import metrics as M
from . import trainer as TR
from .config import build_configs, field_table, flag_name, format_config
from .errors import CheckpointError, ConfigError, DatasetError, ShapeError, TrainingDiverged
from .net import load_checkpoint, read_manifest, save_checkpoint
from .viz import render_timeline


TRAIN_KEYS = tuple(field_table())
EVAL_KEYS = ("root", "split", "sample_rate", "ignored_classes")
PREDICT_KEYS = ("root", "split", "sample_rate")


def _add_config_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]):
    for key in keys:
        parser.add_argument(flag_name(key), dest=key, default=None, metavar="V")
    parser.set_defaults(config_keys=keys)


def _common_flags(parser):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--preset", default=None, help="named dataset preset")


def _configs(args, *required: str):
    """Configs from the preset, --config and the flags; ``required`` keys must be set."""
    overrides = {key: getattr(args, key) for key in args.config_keys}
    return build_configs(args.preset, args.config, overrides, required)


def _out(args, directory: bool = True) -> Path:
    """``--out`` as a path the command can write: a directory it may make
    (a file for ``ablate``'s grid). A path of the other kind, or below a
    file, raises ``ConfigError`` before any work is done."""
    path = Path(args.out)
    if path.exists() and path.is_dir() != directory:
        raise ConfigError(f"--out: {path} is {'not ' if directory else ''}a directory")
    parent = next(p for p in path.absolute().parents if p.exists())
    if not parent.is_dir():
        raise ConfigError(f"--out: {path} lies below {parent}, which is not a directory")
    return path


def _floats(flag: str, text: str) -> tuple[float, ...]:
    """A comma list holding at least one number."""
    try:
        values = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        values = ()
    if not values:
        raise ConfigError(f"{flag}: cannot parse a comma list of numbers from {text!r}")
    return values


def _load_split(data_cfg):
    return D.load_dataset(data_cfg.root, data_cfg.split, stride=data_cfg.sample_rate)


def _ignored_ids(args, data_cfg, mapping) -> set[int]:
    """The class ids ``ignored_classes`` names. A name the split's mapping
    lacks raises ``ConfigError`` naming the flag, or the config file and
    key, that set it: no preset sets the key."""
    try:
        return {mapping.id_of(name) for name in data_cfg.ignored()}
    except DatasetError as exc:
        if args.ignored_classes is not None:
            source = flag_name("ignored_classes")
        else:
            source = f"{args.config}: [data] ignored_classes"
        raise ConfigError(f"{source}: {exc}") from None


def _load_model(args, data_cfg, mapping):
    """The checkpoint's params and config; a model scoring another number of
    classes than the split's mapping lists raises ``CheckpointError``."""
    params, cfg = load_checkpoint(args.checkpoint)
    if cfg.num_classes != mapping.num_classes:
        raise CheckpointError(
            f"{args.checkpoint}: the model scores {cfg.num_classes} classes, "
            f"{Path(data_cfg.root) / 'mapping.txt'} lists {mapping.num_classes}"
        )
    return params, cfg


def _training_setup(args):
    """The configs and the split, the model sized to the split's width and classes."""
    model_cfg, train_cfg, data_cfg = _configs(args, "seed", "root")
    samples, mapping = _load_split(data_cfg)
    width, classes = samples[0].feature_dim, mapping.num_classes
    model_cfg = replace(model_cfg, input_dim=width, num_classes=classes)
    return model_cfg, train_cfg, data_cfg, samples, mapping


def _write_video_artifacts(out_dir: Path, sample, labels, mapping):
    (out_dir / "predictions").mkdir(parents=True, exist_ok=True)
    (out_dir / "segments").mkdir(exist_ok=True)
    (out_dir / "timelines").mkdir(exist_ok=True)
    lines = np.array([name + "\n" for name in mapping.names], dtype=object)
    (out_dir / "predictions" / f"{sample.video_id}.txt").write_text(
        "".join(lines[labels].tolist()), encoding="utf-8"
    )
    (out_dir / "segments" / f"{sample.video_id}.csv").write_text(
        TR.segments_csv(labels, mapping), encoding="utf-8"
    )
    strips = [("prediction", labels)]
    if sample.labels is not None and len(sample.labels) == len(labels):
        strips.append(("ground truth", sample.labels))
    (out_dir / "timelines" / f"{sample.video_id}.svg").write_text(
        render_timeline(strips, mapping.num_classes), encoding="utf-8"
    )


def cmd_train(args) -> int:
    out_dir = _out(args)
    model_cfg, train_cfg, data_cfg, samples, _ = _training_setup(args)

    def on_epoch(row):
        print(
            f"epoch {row['epoch']:4d}  ce {row['ce']:.4f}  tmse {row['tmse']:.4f}  "
            f"ba {row['ba']:.4f}  total {row['total']:.4f}  lr {row['lr']:.2e}"
        )

    result = TR.train(samples, model_cfg, train_cfg, on_epoch=on_epoch, checkpoint_dir=out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.ckpt", result.params, model_cfg)
    if result.best_params is not None:
        save_checkpoint(out_dir / "checkpoint_best.ckpt", result.best_params, model_cfg)
        print(f"best epoch {result.best_epoch} (acc {result.best_acc:.2f})")
    (out_dir / "train_log.csv").write_text(TR.log_csv(result.log_rows), encoding="utf-8")
    (out_dir / "effective_config.cfg").write_text(
        format_config(model_cfg, train_cfg, data_cfg), encoding="utf-8"
    )
    print(f"saved {out_dir / 'checkpoint.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    out_dir = _out(args)
    thresholds = _floats("--thresholds", args.thresholds)
    if not all(0.0 < tau <= 1.0 for tau in thresholds):
        raise ConfigError(f"--thresholds: each must lie in (0, 1], got {args.thresholds!r}")
    data_cfg = _configs(args, "root")[2]
    samples, mapping = _load_split(data_cfg)
    ignored = _ignored_ids(args, data_cfg, mapping)
    params, cfg = _load_model(args, data_cfg, mapping)
    report, predictions = TR.evaluate_model(params, cfg, samples, thresholds, ignored)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(M.report_csv(report), encoding="utf-8")
    for sample in samples:
        labels = predictions[sample.video_id]
        if args.upsample:
            labels = TR.restore_source_rate(labels, sample)
        _write_video_artifacts(out_dir, sample, labels, mapping)
    print(M.report_table(report))
    return 0


def cmd_predict(args) -> int:
    out_dir = _out(args)
    data_cfg = _configs(args, "root")[2]
    samples, mapping = _load_split(data_cfg)
    matches = [s for s in samples if s.video_id == args.video]
    if not matches:
        raise ConfigError(f"video {args.video!r} not in split {data_cfg.split}")
    sample = matches[0]
    params, cfg = _load_model(args, data_cfg, mapping)
    labels = TR.predict_sample(params, cfg, sample)
    if args.upsample:
        labels = TR.restore_source_rate(labels, sample)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_video_artifacts(out_dir, sample, labels, mapping)
    print(f"wrote prediction artifacts for {sample.video_id} to {out_dir}")
    return 0


def cmd_synth(args) -> int:
    out_dir = _out(args)
    spec = D.SynthSpec(**{f.name: getattr(args, f.name) for f in fields(D.SynthSpec)})
    samples, mapping = D.generate_synthetic(spec)
    D.write_dataset(out_dir, samples, mapping)
    print(f"wrote {len(samples)} videos, {mapping.num_classes} classes to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    out = _out(args, directory=False)
    values = None
    if args.values is not None:
        if args.axis not in ("window", "heads", "beta"):
            raise ConfigError(f"--values: the {args.axis} axis takes none (window, heads, beta do)")
        values = _floats("--values", args.values)
        if args.axis != "beta" and not all(v.is_integer() for v in values):
            raise ConfigError(f"--values: {args.axis} values must be whole, got {args.values!r}")
        for beta in values if args.axis == "beta" else ():
            try:
                TR.TrainConfig(boundary_weight=beta)  # the check each cell's config makes
            except ConfigError as exc:
                raise ConfigError(f"--values: {exc}") from None
    model_cfg, train_cfg, data_cfg, samples, mapping = _training_setup(args)
    ignored = _ignored_ids(args, data_cfg, mapping)

    def on_cell(row):
        print(" ".join(f"{key}={row[key]}" for key in TR.ABLATE_FIELDS))

    rows = TR.ablate(args.axis, samples, model_cfg, train_cfg, values, on_cell, ignored)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(TR.ablate_csv(rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    config, entries = read_manifest(args.checkpoint)
    print(f"{args.checkpoint}: {len(entries)} entries")
    print(f"config: {config}")
    for name, dtype, shape, offset in entries:
        if name == "meta.config":
            continue
        print(f"  {name:<40} {str(dtype):<8} {str(shape):<18} @ {offset}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    _common_flags(p_train)
    _add_config_flags(p_train, TRAIN_KEYS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    _common_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--thresholds", default="0.1,0.25,0.5")
    p_eval.add_argument("--upsample", action="store_true", help="restore source frame rate")
    _add_config_flags(p_eval, EVAL_KEYS)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="predict one video")
    _common_flags(p_pred)
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--video", required=True)
    p_pred.add_argument("--upsample", action="store_true")
    _add_config_flags(p_pred, PREDICT_KEYS)
    p_pred.set_defaults(func=cmd_predict)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--classes", dest="num_classes", type=int, default=4)
    p_synth.add_argument("--videos", dest="num_videos", type=int, default=8)
    p_synth.add_argument("--min-len", type=int, default=128)
    p_synth.add_argument("--max-len", type=int, default=256)
    p_synth.add_argument("--min-segments", type=int, default=3)
    p_synth.add_argument("--max-segments", type=int, default=8)
    p_synth.add_argument("--feature-dim", type=int, default=16)
    p_synth.add_argument("--noise", type=float, default=0.25)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_abl = sub.add_parser("ablate", help="grid of training runs")
    _common_flags(p_abl)
    p_abl.add_argument("--axis", required=True, choices=TR.ABLATE_AXES)
    p_abl.add_argument("--values", default=None, help="comma list for window/heads/beta axes")
    _add_config_flags(p_abl, TRAIN_KEYS)
    p_abl.set_defaults(func=cmd_ablate)

    p_ins = sub.add_parser("inspect-checkpoint", help="print a checkpoint manifest")
    p_ins.add_argument("checkpoint")
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, OSError, DatasetError, CheckpointError, TrainingDiverged, ShapeError
    ) as exc:  # OSError: a missing path, or one of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
