import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tut import cli
from tut import metrics as M
from tut import trainer as TR
from tut.cli import main
from tut.data import (
    ClassMapping,
    VideoSample,
    load_dataset,
    read_features,
    write_dataset,
    write_features,
)
from tut.net import read_manifest

SMALL_MODEL = [
    "--layers", "2", "--refinement-stages", "1", "--window", "5", "--heads", "2",
    "--hidden-dim", "16", "--hidden-dim-refine", "16",
    "--ffn-dim", "16", "--ffn-dim-refine", "16",
]


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    rc = main([
        "synth", "--out", str(root), "--videos", "3", "--classes", "3",
        "--min-len", "36", "--max-len", "48", "--feature-dim", "8",
        "--noise", "0.1", "--seed", "12",
    ])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_root):
    out = tmp_path_factory.mktemp("run")
    rc = main([
        "train", "--data-root", str(synth_root), "--out", str(out), "--seed", "21",
        "--epochs", "2", "--lr", "0.001", *SMALL_MODEL,
    ])
    assert rc == 0
    return out


def test_synth_layout(synth_root):
    samples, mapping = load_dataset(synth_root, "splits/all.bundle")
    assert len(samples) == 3
    assert mapping.num_classes == 3
    assert read_features(synth_root / "features" / "synth000.feat").dtype == np.float32


def test_train_artifacts(trained):
    assert (trained / "checkpoint.ckpt").exists()
    log = (trained / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,ce,tmse,ba,total,lr"
    assert len(log) == 3
    assert (trained / "effective_config.cfg").read_text().startswith("[model]")


def test_eval_artifacts(trained, synth_root, tmp_path):
    out = tmp_path / "eval"
    rc = main([
        "eval", "--data-root", str(synth_root), "--out", str(out),
        "--checkpoint", str(trained / "checkpoint.ckpt"),
    ])
    assert rc == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "metric,threshold,value"
    names = {line.split(",")[0] for line in metrics[1:]}
    assert names == {"acc", "edit", "f1"}
    pred = (out / "predictions" / "synth000.txt").read_text().splitlines()
    assert all(name.startswith("class") for name in pred)
    seg = (out / "segments" / "synth000.csv").read_text().splitlines()
    assert seg[0] == "class,start,end"
    svg = (out / "timelines" / "synth000.svg").read_text()
    assert svg.startswith("<svg") and "ground truth" in svg


def test_predict_command(trained, synth_root, tmp_path):
    out = tmp_path / "pred"
    rc = main([
        "predict", "--data-root", str(synth_root), "--out", str(out),
        "--checkpoint", str(trained / "checkpoint.ckpt"), "--video", "synth001",
    ])
    assert rc == 0
    assert (out / "predictions" / "synth001.txt").exists()
    assert (out / "timelines" / "synth001.svg").exists()
    rc = main([
        "predict", "--data-root", str(synth_root), "--out", str(out),
        "--checkpoint", str(trained / "checkpoint.ckpt"), "--video", "missing",
    ])
    assert rc == 2


def test_inspect_checkpoint(trained, capsys):
    rc = main(["inspect-checkpoint", str(trained / "checkpoint.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stage0.proj.w" in out and "config" in out
    config, entries = read_manifest(trained / "checkpoint.ckpt")
    assert config["window"] == 5
    assert any(name == "stage1.cls.b" for name, *_ in entries)


def test_ablate_command(synth_root, tmp_path):
    out_csv = tmp_path / "grid.csv"
    rc = main([
        "ablate", "--data-root", str(synth_root), "--out", str(out_csv),
        "--axis", "arch-attention", "--seed", "5", "--epochs", "1",
        "--lr", "0.001", *SMALL_MODEL,
    ])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 7
    assert lines[0].split(",")[:2] == ["architecture", "attention"]


def test_train_requires_seed(synth_root, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["train", "--data-root", str(synth_root), "--out", str(tmp_path / "x")])


def test_config_file_through_cli(synth_root, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nlayers = 2\nrefinement_stages = 0\nwindow = 5\nheads = 2\n"
        "hidden_dim = 16\nhidden_dim_refine = 16\nffn_dim = 16\nffn_dim_refine = 16\n"
        "\n[train]\nepochs = 1\nlr = 0.001\n"
    )
    out = tmp_path / "run"
    rc = main([
        "train", "--data-root", str(synth_root), "--out", str(out), "--seed", "3",
        "--config", str(cfg), "--window", "7",  # flag overrides file
    ])
    assert rc == 0
    config, _ = read_manifest(out / "checkpoint.ckpt")
    assert config["window"] == 7
    assert config["refinement_stages"] == 0


def test_eval_upsample_with_sample_rate(synth_root, trained, tmp_path):
    out = tmp_path / "eval_up"
    rc = main([
        "eval", "--data-root", str(synth_root), "--out", str(out),
        "--checkpoint", str(trained / "checkpoint.ckpt"),
        "--sample-rate", "2", "--upsample",
    ])
    assert rc == 0
    samples, _ = load_dataset(synth_root, "splits/all.bundle")
    source_len = samples[0].num_frames
    pred = (out / "predictions" / "synth000.txt").read_text().splitlines()
    assert len(pred) == source_len  # restored to the source frame count


def test_eval_loads_once_and_runs_each_video_once(synth_root, trained, tmp_path, monkeypatch):
    calls = {"model_forward": 0, "load_checkpoint": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(TR, "model_forward")
    counted(TR, "load_checkpoint")
    counted(cli, "load_checkpoint")
    rc = main([
        "eval", "--data-root", str(synth_root), "--out", str(tmp_path / "eval_up"),
        "--checkpoint", str(trained / "checkpoint.ckpt"), "--sample-rate", "2", "--upsample",
    ])
    assert rc == 0
    assert calls == {"model_forward": 3, "load_checkpoint": 1}


def test_eval_loads_no_random_or_hashing_modules(synth_root, trained, tmp_path):
    """A forward-only command draws nothing: beyond what importing numpy
    loads, ``tut eval`` loads neither numpy.random nor hashlib."""
    argv = [
        "eval", "--data-root", str(synth_root), "--out", str(tmp_path / "eval_up"),
        "--checkpoint", str(trained / "checkpoint.ckpt"), "--sample-rate", "2", "--upsample",
    ]
    script = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from tut.cli import main\n"
        f"rc = main({argv!r})\n"
        "loaded = {'numpy.random', 'hashlib', '_hashlib'} & set(sys.modules) - before\n"
        "print(json.dumps([rc, sorted(loaded)]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


def test_eval_ignored_classes_drop_the_named_class(trained, tmp_path, monkeypatch):
    """--ignored-classes names a class that covers half of the ground truth:
    edit and F1 are those of the class ids without it, and change. Frame
    accuracy counts every frame, as in the usual protocol."""
    gt = np.repeat([0, 1, 2], [24, 12, 12])
    pred = np.repeat([0, 2, 0, 1, 2], [10, 4, 10, 12, 12])
    features = np.random.default_rng(0).standard_normal((48, 8)).astype(np.float32)
    root = tmp_path / "half"
    write_dataset(root, [VideoSample("half", features, gt)], ClassMapping(["c0", "c1", "c2"]))
    monkeypatch.setattr(TR, "predict_sample", lambda *args, **kwargs: pred)
    metrics = {}
    for flags in ([], ["--ignored-classes", "c0"]):
        out = tmp_path / f"eval{len(flags)}"
        rc = main([
            "eval", "--data-root", str(root), "--out", str(out),
            "--checkpoint", str(trained / "checkpoint.ckpt"), *flags,
        ])
        assert rc == 0
        metrics[len(flags)] = (out / "metrics.csv").read_text()
    kept, dropped = metrics[0], metrics[2]
    assert dropped == M.report_csv(M.evaluate_corpus([(pred, gt)], ignored_classes={0}))
    kept_rows, dropped_rows = kept.splitlines()[1:], dropped.splitlines()[1:]
    assert kept_rows[0] == dropped_rows[0]  # acc
    assert all(a != b for a, b in zip(kept_rows[1:], dropped_rows[1:]))  # edit, f1@0.1/0.25/0.5


def test_rolling_checkpoints(synth_root, tmp_path):
    out = tmp_path / "roll"
    rc = main([
        "train", "--data-root", str(synth_root), "--out", str(out), "--seed", "4",
        "--epochs", "2", "--lr", "0.001", "--checkpoint-every", "1", *SMALL_MODEL,
    ])
    assert rc == 0
    assert (out / "epoch0001.ckpt").exists() and (out / "epoch0002.ckpt").exists()


def test_keep_best_flag(synth_root, tmp_path):
    out = tmp_path / "best"
    rc = main([
        "train", "--data-root", str(synth_root), "--out", str(out), "--seed", "6",
        "--epochs", "2", "--lr", "0.001", "--keep-best", "true", "--eval-every", "1",
        *SMALL_MODEL,
    ])
    assert rc == 0
    assert (out / "checkpoint_best.ckpt").exists()


def _synth(root, **overrides):
    flags = {"videos": "2", "classes": "3", "min-len": "36", "max-len": "40", "feature-dim": "8"}
    flags.update(overrides)
    argv = ["synth", "--out", str(root), "--seed", "3"]
    for key, value in flags.items():
        argv += [f"--{key}", value]
    assert main(argv) == 0
    return root


def _empty_split(trained, synth_root, tmp_path):
    (tmp_path / "empty.bundle").write_text("\n")
    return ["train", "--data-root", str(synth_root), "--out", str(tmp_path / "run"), "--seed", "1",
            "--split", str(tmp_path / "empty.bundle"), "--epochs", "1", *SMALL_MODEL]


def _not_a_checkpoint(trained, synth_root, tmp_path):
    return ["eval", "--data-root", str(synth_root), "--out", str(tmp_path / "eval"),
            "--checkpoint", str(synth_root / "mapping.txt")]


def _non_finite_features(trained, synth_root, tmp_path):
    root = _synth(tmp_path / "nan")
    for path in (root / "features").iterdir():
        features = read_features(path)
        features[5] = np.nan
        write_features(path, features)
    return ["train", "--data-root", str(root), "--out", str(tmp_path / "run"), "--seed", "1",
            "--epochs", "1", *SMALL_MODEL]


def _feature_dim_mismatch(trained, synth_root, tmp_path):
    root = _synth(tmp_path / "narrow", **{"feature-dim": "6"})
    return ["eval", "--data-root", str(root), "--out", str(tmp_path / "eval"),
            "--checkpoint", str(trained / "checkpoint.ckpt")]


def _truncated_checkpoint(trained, synth_root, tmp_path):
    raw = (trained / "checkpoint.ckpt").read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(raw[:-100])
    return ["inspect-checkpoint", str(tmp_path / "cut.ckpt")]


def _truncated_features(trained, synth_root, tmp_path):
    root = _synth(tmp_path / "cut")
    victim = sorted((root / "features").iterdir())[0]
    victim.write_bytes(victim.read_bytes()[:14])  # cut inside the 28-byte header
    return ["eval", "--data-root", str(root), "--out", str(tmp_path / "eval"),
            "--checkpoint", str(trained / "checkpoint.ckpt")]


def _unknown_ignored_class(trained, synth_root, tmp_path):
    return ["eval", "--data-root", str(synth_root), "--out", str(tmp_path / "eval"),
            "--checkpoint", str(trained / "checkpoint.ckpt"), "--ignored-classes", "nosuchclass"]


def _sample_rate(rate):
    # a rate below 1 would divide by zero in the strided read
    def make_argv(trained, synth_root, tmp_path):
        return ["eval", "--data-root", str(synth_root), "--out", str(tmp_path / "eval"),
                "--checkpoint", str(trained / "checkpoint.ckpt"), "--sample-rate", rate]

    return make_argv


@pytest.mark.parametrize(
    "make_argv",
    [_empty_split, _not_a_checkpoint, _non_finite_features, _feature_dim_mismatch,
     _truncated_checkpoint, _truncated_features, _sample_rate("0"), _sample_rate("-3"),
     _unknown_ignored_class],
    ids=["DatasetError", "CheckpointError", "TrainingDiverged", "ShapeError",
         "TruncatedCheckpoint", "TruncatedFeatures", "SampleRateZero", "SampleRateNegative",
         "UnknownIgnoredClass"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_typed_failures_exit_2_with_one_line(make_argv, trained, synth_root, tmp_path, capsys):
    argv = make_argv(trained, synth_root, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == err.splitlines()
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("change", ["rows", "dim", "truncated"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_feature_file_changed_after_loading_exits_2_naming_it(
    command, change, trained, tmp_path, monkeypatch, capsys
):
    """Features are read when a step uses them, after the load checked the
    file: a file changed in between fails with one error line naming it."""
    root = _synth(tmp_path / "data")
    victim = root / "features" / "synth001.feat"
    load = cli._load_split

    def load_then_change(data_cfg):
        loaded = load(data_cfg)
        features = read_features(victim)
        if change == "rows":
            write_features(victim, features[:-1])
        elif change == "dim":
            write_features(victim, features[:, :-1])
        else:
            victim.write_bytes(victim.read_bytes()[:-4])
        return loaded

    monkeypatch.setattr(cli, "_load_split", load_then_change)
    if command == "train":
        argv = ["train", "--data-root", str(root), "--out", str(tmp_path / "run"), "--seed", "1",
                "--epochs", "1", *SMALL_MODEL]
    else:
        argv = ["eval", "--data-root", str(root), "--out", str(tmp_path / "eval"),
                "--checkpoint", str(trained / "checkpoint.ckpt")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(victim) in err[0]


@pytest.mark.parametrize("flag,rate", [("input-dropout", "1.0"), ("ffn-dropout", "1.5")])
def test_dropout_rate_outside_unit_interval_exits_2_naming_the_key(
    flag, rate, synth_root, tmp_path, capsys
):
    # at rate 1 dropout divides 0 by 0, and above 1 it scales by a negative
    # number: neither may reach training
    argv = ["train", "--data-root", str(synth_root), "--out", str(tmp_path / "run"), "--seed", "1",
            "--epochs", "1", *SMALL_MODEL, f"--{flag}", rate]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert flag.replace("-", "_") in err[0]
