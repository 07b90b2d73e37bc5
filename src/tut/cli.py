"""Command-line interface: train, eval, predict, synth, ablate,
inspect-checkpoint. Every config key doubles as a ``--key value`` flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as D
from . import metrics as M
from . import trainer as TR
from .config import DataConfig, build_configs, field_table, format_config
from .errors import CheckpointError, ConfigError, DatasetError, ShapeError, TrainingDiverged
from .net import load_checkpoint, read_manifest, save_checkpoint
from .viz import render_timeline


# config keys without a --key flag: commands take --seed and --data-root
_NO_FLAG_KEYS = ("seed", "root")


def _add_config_flags(parser: argparse.ArgumentParser):
    for key in field_table():
        if key in _NO_FLAG_KEYS:
            continue
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, default=None, metavar="V")


def _common_data_flags(parser):
    parser.add_argument("--data-root", required=True, help="dataset directory")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--preset", default=None, help="named dataset preset")


def _configs_from_args(args):
    overrides = {
        key: getattr(args, key)
        for key in field_table()
        if key not in _NO_FLAG_KEYS and getattr(args, key, None) is not None
    }
    model_cfg, train_cfg, data_cfg = build_configs(args.preset, args.config, overrides)
    if getattr(args, "data_root", None):
        data_cfg.root = args.data_root
    return model_cfg, train_cfg, data_cfg


def _load_split(data_cfg: DataConfig):
    return D.load_dataset(
        data_cfg.root, data_cfg.split, fps=data_cfg.fps, stride=data_cfg.sample_rate
    )


def _write_video_artifacts(out_dir: Path, sample, labels, mapping, num_classes):
    (out_dir / "predictions").mkdir(parents=True, exist_ok=True)
    (out_dir / "segments").mkdir(exist_ok=True)
    (out_dir / "timelines").mkdir(exist_ok=True)
    names = [mapping.name_of(int(c)) for c in labels]
    (out_dir / "predictions" / f"{sample.video_id}.txt").write_text(
        "".join(n + "\n" for n in names)
    )
    (out_dir / "segments" / f"{sample.video_id}.csv").write_text(
        TR.segments_csv(labels, mapping)
    )
    strips = [("prediction", list(labels))]
    if sample.labels is not None and len(sample.labels) == len(labels):
        strips.append(("ground truth", list(sample.labels)))
    (out_dir / "timelines" / f"{sample.video_id}.svg").write_text(
        render_timeline(strips, num_classes)
    )


def cmd_train(args) -> int:
    model_cfg, train_cfg, data_cfg = _configs_from_args(args)
    train_cfg.seed = args.seed
    samples, mapping = _load_split(data_cfg)
    model_cfg.input_dim = samples[0].features.shape[1]
    model_cfg.num_classes = mapping.num_classes
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def on_epoch(row):
        print(
            f"epoch {row['epoch']:4d}  ce {row['ce']:.4f}  tmse {row['tmse']:.4f}  "
            f"ba {row['ba']:.4f}  total {row['total']:.4f}  lr {row['lr']:.2e}"
        )

    result = TR.train(samples, model_cfg, train_cfg, on_epoch=on_epoch, checkpoint_dir=out_dir)
    save_checkpoint(out_dir / "checkpoint.ckpt", result.params, model_cfg)
    if result.best_params is not None:
        save_checkpoint(out_dir / "checkpoint_best.ckpt", result.best_params, model_cfg)
        print(f"best epoch {result.best_epoch} (acc {result.best_acc:.2f})")
    (out_dir / "train_log.csv").write_text(TR.log_csv(result.log_rows))
    (out_dir / "effective_config.cfg").write_text(format_config(model_cfg, train_cfg, data_cfg))
    print(f"saved {out_dir / 'checkpoint.ckpt'}")
    return 0


def _thresholds(arg: str):
    return tuple(float(part) for part in arg.split(",") if part)


def cmd_eval(args) -> int:
    model_cfg, train_cfg, data_cfg = _configs_from_args(args)
    samples, mapping = _load_split(data_cfg)
    thresholds = _thresholds(args.thresholds)
    report, predictions = TR.evaluate_run(
        args.checkpoint, samples, thresholds, data_cfg.ignored()
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(M.report_csv(report))
    for sample in samples:
        labels = predictions[sample.video_id]
        if args.upsample:
            labels = TR.restore_source_rate(labels, sample)
        _write_video_artifacts(out_dir, sample, labels, mapping, mapping.num_classes)
    print(M.report_table(report))
    return 0


def cmd_predict(args) -> int:
    model_cfg, train_cfg, data_cfg = _configs_from_args(args)
    samples, mapping = _load_split(data_cfg)
    matches = [s for s in samples if s.video_id == args.video]
    if not matches:
        raise ConfigError(f"video {args.video!r} not in split {data_cfg.split}")
    sample = matches[0]
    params, cfg = load_checkpoint(args.checkpoint)
    labels = TR.predict_sample(params, cfg, sample, upsample=args.upsample)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_video_artifacts(out_dir, sample, labels, mapping, mapping.num_classes)
    print(f"wrote prediction artifacts for {sample.video_id} to {out_dir}")
    return 0


def cmd_synth(args) -> int:
    spec = D.SynthSpec(
        num_classes=args.classes,
        num_videos=args.videos,
        min_len=args.min_len,
        max_len=args.max_len,
        min_segments=args.min_segments,
        max_segments=args.max_segments,
        feature_dim=args.feature_dim,
        noise=args.noise,
        seed=args.seed,
    )
    samples, mapping = D.generate_synthetic(spec)
    D.write_dataset(args.out, samples, mapping)
    print(f"wrote {len(samples)} videos, {mapping.num_classes} classes to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    model_cfg, train_cfg, data_cfg = _configs_from_args(args)
    train_cfg.seed = args.seed
    samples, mapping = _load_split(data_cfg)
    model_cfg.input_dim = samples[0].features.shape[1]
    model_cfg.num_classes = mapping.num_classes
    values = [float(v) for v in args.values.split(",")] if args.values else None

    def on_cell(row):
        print(
            f"[{row['status']}] arch={row['architecture']} attn={row['attention']} "
            f"pe={row['pe_mode']} w={row['window']} h={row['heads']} beta={row['beta']} "
            f"acc={row['acc']} entries={row['entries']}"
        )

    rows = TR.ablate(args.axis, samples, model_cfg, train_cfg, values=values, on_cell=on_cell)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(TR.ablate_csv(rows))
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
    _common_data_flags(p_train)
    p_train.add_argument("--seed", type=int, required=True, help="run seed (mandatory)")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    _common_data_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--thresholds", default="0.1,0.25,0.5")
    p_eval.add_argument("--upsample", action="store_true", help="restore source frame rate")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="predict one video")
    _common_data_flags(p_pred)
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--video", required=True)
    p_pred.add_argument("--upsample", action="store_true")
    _add_config_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--classes", type=int, default=4)
    p_synth.add_argument("--videos", type=int, default=8)
    p_synth.add_argument("--min-len", type=int, default=128)
    p_synth.add_argument("--max-len", type=int, default=256)
    p_synth.add_argument("--min-segments", type=int, default=3)
    p_synth.add_argument("--max-segments", type=int, default=8)
    p_synth.add_argument("--feature-dim", type=int, default=16)
    p_synth.add_argument("--noise", type=float, default=0.25)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_abl = sub.add_parser("ablate", help="grid of training runs")
    _common_data_flags(p_abl)
    p_abl.add_argument("--axis", required=True, choices=TR.ABLATE_AXES)
    p_abl.add_argument("--seed", type=int, required=True)
    p_abl.add_argument("--values", default=None, help="comma list for window/heads/beta axes")
    _add_config_flags(p_abl)
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
        ConfigError, FileNotFoundError, DatasetError, CheckpointError, TrainingDiverged, ShapeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
