import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tut import cli
from tut import losses as L
from tut import metrics as M
from tut import trainer as TR
from tut.cli import main
from tut.config import SPLIT_FIELDS, build_configs, field_table
from tut.data import (
    ClassMapping,
    VideoSample,
    load_dataset,
    read_features,
    write_dataset,
    write_features,
)
from tut.net import RETIRED_KEYS, init_params, load_checkpoint, read_manifest, save_checkpoint
from tut.tensor import SeedStreams

SMALL_MODEL = [
    "--layers", "2", "--refinement-stages", "1", "--window", "5", "--heads", "2",
    "--hidden-dim", "16", "--hidden-dim-refine", "16",
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


def test_ablate_ba_distance_rows_name_their_distance(synth_root, tmp_path, capsys):
    """Each row of the boundary-distance grid, in the CSV and on its progress
    line, carries every ``ABLATE_FIELDS`` column, the distance included, so
    no two of its four rows read alike."""
    out_csv = tmp_path / "grid.csv"
    capsys.readouterr()
    rc = main([
        "ablate", "--data-root", str(synth_root), "--out", str(out_csv),
        "--axis", "ba-distance", "--seed", "5", "--epochs", "1", *SMALL_MODEL,
    ])
    assert rc == 0
    text = out_csv.read_text()
    assert len(set(text.splitlines()[1:])) == 4
    rows = list(csv.DictReader(text.splitlines()))
    assert [r["boundary_distance"] for r in rows] == list(L.BA_DISTANCES)
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"wrote 4 rows to {out_csv}"
    assert printed[:-1] == [" ".join(f"{k}={r[k]}" for k in TR.ABLATE_FIELDS) for r in rows]


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_train_requires_seed(synth_root, tmp_path, capsys):
    """A seed comes from --seed or the config file; with neither, train
    exits 2 with one line naming it."""
    capsys.readouterr()
    assert main(["train", "--data-root", str(synth_root), "--out", str(tmp_path / "x")]) == 2
    assert "seed" in _one_error_line(capsys)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command,key", [
    ("ablate", "seed"), ("train", "root"), ("ablate", "root"), ("eval", "root"), ("predict", "root"),
])
def test_commands_require_seed_and_root(command, key, trained, synth_root, tmp_path, capsys):
    """Each command that trains needs a seed, and each that reads a split
    needs its root: unset by flag and config file, it exits 2 naming it."""
    given = {"seed": ["--seed", "1"], "root": ["--data-root", str(synth_root)]}
    argv = {
        "train": ["train", "--epochs", "1", *SMALL_MODEL, *given["seed"]],
        "ablate": ["ablate", "--axis", "beta", "--values", "0", "--epochs", "1", *SMALL_MODEL,
                   *given["seed"]],
        "eval": ["eval", "--checkpoint", str(trained / "checkpoint.ckpt")],
        "predict": ["predict", "--checkpoint", str(trained / "checkpoint.ckpt"),
                    "--video", "synth000"],
    }[command]
    argv = [*argv, *given["root"], "--out", str(tmp_path / "out")]
    at = argv.index(given[key][0])
    del argv[at : at + 2]
    capsys.readouterr()
    assert main(argv) == 2
    line = _one_error_line(capsys)
    assert key in line and given[key][0] in line


def test_config_file_seed_and_root_train_as_the_flags_do(synth_root, trained, tmp_path):
    """[train] seed and [data] root in --config are read like every other
    key, and a flag given as well wins over the file."""
    common = ["--epochs", "1", *SMALL_MODEL]
    flags = ["--data-root", str(synth_root), "--seed", "7"]
    assert main(["train", "--out", str(tmp_path / "flags"), *flags, *common]) == 0
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(f"[train]\nseed = 7\n\n[data]\nroot = {synth_root}\n")
    assert main(["train", "--out", str(tmp_path / "file"), "--config", str(run_cfg), *common]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(f"[train]\nseed = 99\n\n[data]\nroot = {tmp_path / 'missing'}\n")
    assert main(["train", "--out", str(tmp_path / "both"), "--config", str(other), *flags,
                 *common]) == 0
    for run in ("file", "both"):
        for name in ("checkpoint.ckpt", "train_log.csv", "effective_config.cfg"):
            assert (tmp_path / run / name).read_bytes() == (
                tmp_path / "flags" / name
            ).read_bytes(), (run, name)
    assert main(["eval", "--out", str(tmp_path / "eval"), "--config", str(run_cfg),
                 "--checkpoint", str(trained / "checkpoint.ckpt")]) == 0


def test_config_file_through_cli(synth_root, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nlayers = 2\nrefinement_stages = 0\nwindow = 5\nheads = 2\n"
        "hidden_dim = 16\nhidden_dim_refine = 16\n"
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


def test_predict_upsample_with_sample_rate(synth_root, trained, tmp_path):
    samples, _ = load_dataset(synth_root, "splits/all.bundle")
    source_len = next(s.num_frames for s in samples if s.video_id == "synth001")
    argv = ["predict", "--data-root", str(synth_root), "--checkpoint",
            str(trained / "checkpoint.ckpt"), "--video", "synth001", "--sample-rate", "2"]
    for out, extra, want in (("strided", [], (source_len + 1) // 2),
                             ("restored", ["--upsample"], source_len)):
        assert main([*argv, "--out", str(tmp_path / out), *extra]) == 0
        pred = (tmp_path / out / "predictions" / "synth001.txt").read_text().splitlines()
        assert len(pred) == want, out


def test_effective_config_trains_the_same_run_again(tmp_path):
    """A run's effective_config.cfg, passed back as --config, gives the same
    effective config and checkpoint bytes. Its values are read literally, so
    a ``%`` in the data root it records is no interpolation error."""
    root = _synth(tmp_path / "data 100%")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["train", "--data-root", str(root), "--out", str(first), "--seed", "4",
                 "--preset", "gtea", "--epochs", "1", *SMALL_MODEL, "--sample-rate", "2",
                 "--ignored-classes", "class0"]) == 0
    assert main(["train", "--out", str(second), "--config", str(first / "effective_config.cfg")]) == 0
    for name in ("effective_config.cfg", "checkpoint.ckpt", "train_log.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _documented_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    return section.split("```\n", 2)[1]


def test_readme_config_example_loads(tmp_path):
    path = tmp_path / "documented.cfg"
    path.write_text(_documented_config_block())
    # the configs check their values when built, so the example is in range
    model_cfg, train_cfg, data_cfg = build_configs(config_file=str(path))
    assert (model_cfg.layers, model_cfg.window, model_cfg.architecture) == (5, 51, "utrans")
    assert (train_cfg.boundary_weight, train_cfg.boundary_distance) == (0.02, "kl")
    assert data_cfg.sample_rate == 2 and data_cfg.ignored() == {"background"}


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


def test_class_names_outside_ascii_round_trip_under_an_ascii_locale(tmp_path):
    """Every text file a command reads or writes is UTF-8 whatever the
    locale. Under an ASCII locale with Python's UTF-8 mode off, class names
    outside ASCII train and evaluate, a run's effective config naming one
    as ignored reads back, and eval writes each prediction as the mapping
    spells it."""
    root = _synth(tmp_path / "data")
    mapping = load_dataset(root, "splits/all.bundle")[1]
    renamed = {name: name + "\u00e9" for name in mapping.names}
    (root / "mapping.txt").write_text(
        "".join(f"{i} {renamed[n]}\n" for i, n in enumerate(mapping.names)), encoding="utf-8"
    )
    for path in (root / "groundTruth").iterdir():
        names = path.read_text(encoding="utf-8").split()
        path.write_text("".join(renamed[n] + "\n" for n in names), encoding="utf-8")
    run, out = tmp_path / "run", tmp_path / "eval"
    ignored = renamed[mapping.names[0]]
    train = ["train", "--data-root", str(root), "--out", str(run), "--seed", "1", "--epochs", "1",
             "--ignored-classes", ignored, *SMALL_MODEL]
    evaluate = ["eval", "--out", str(out), "--checkpoint", str(run / "checkpoint.ckpt"),
                "--config", str(run / "effective_config.cfg")]
    script = (
        "import sys\n"
        "from tut.cli import main\n"
        f"sys.exit(main({ascii(train)}) or main({ascii(evaluate)}))\n"
    )  # ascii(): the command line itself is read in the ASCII locale
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {"PATH": os.environ.get("PATH", ""), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert f"ignored_classes = {ignored}\n" in (run / "effective_config.cfg").read_text(encoding="utf-8")
    for path in (out / "predictions").iterdir():
        assert set(path.read_text(encoding="utf-8").split()) <= set(renamed.values())


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


def test_ablate_ignored_classes_drop_the_named_class(tmp_path, monkeypatch):
    """ablate's edit and F1 columns drop the --ignored-classes names, as
    eval's do; its accuracy counts every frame."""
    gt = np.repeat([0, 1, 2], [24, 12, 12])
    pred = np.repeat([0, 2, 0, 1, 2], [10, 4, 10, 12, 12])
    features = np.random.default_rng(0).standard_normal((48, 8)).astype(np.float32)
    root = tmp_path / "half"
    write_dataset(root, [VideoSample("half", features, gt)], ClassMapping(["c0", "c1", "c2"]))
    monkeypatch.setattr(TR, "predict_sample", lambda *args, **kwargs: pred)
    rows = {}
    for flags in ([], ["--ignored-classes", "c0"]):
        out = tmp_path / f"grid{len(flags)}.csv"
        assert main([
            "ablate", "--data-root", str(root), "--out", str(out), "--axis", "beta",
            "--values", "0", "--seed", "1", "--epochs", "1", *SMALL_MODEL, *flags,
        ]) == 0
        header, row = out.read_text().splitlines()
        rows[len(flags)] = dict(zip(header.split(","), row.split(",")))
    for ignored, row in ((set(), rows[0]), ({0}, rows[2])):
        want = M.evaluate_corpus([(pred, gt)], ignored_classes=ignored)
        assert row["acc"] == f"{want.acc:.2f}" and row["edit"] == f"{want.edit:.2f}"
        assert row["f1_50"] == f"{want.f1[0.5]:.2f}"
    assert rows[0]["edit"] != rows[2]["edit"]


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize(
    "key",
    [k for k, section in field_table().items() if section != "data"]
    + list(RETIRED_KEYS) + list(SPLIT_FIELDS),
)
def test_eval_and_predict_take_no_model_or_train_flag(command, key, tmp_path, capsys):
    """The model comes from the checkpoint, so a [model] or [train] flag
    would be ignored: argparse refuses it with exit 2. A retired model key
    and the split's geometry have no flag either."""
    argv = [command, "--data-root", str(tmp_path), "--out", str(tmp_path / "out"),
            "--checkpoint", "run.ckpt", *(["--video", "v"] if command == "predict" else [])]
    cli.build_parser().parse_args(argv)
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_eval_reads_a_run_config_and_checks_its_other_sections(trained, synth_root, tmp_path):
    """A run's effective_config.cfg works as eval's --config: eval reads its
    [data] keys and still refuses a key no [model] config has."""
    run_cfg = trained / "effective_config.cfg"
    base = ["eval", "--data-root", str(synth_root), "--checkpoint", str(trained / "checkpoint.ckpt")]
    assert main([*base, "--out", str(tmp_path / "plain")]) == 0
    assert main([*base, "--out", str(tmp_path / "cfg"), "--config", str(run_cfg)]) == 0
    assert (tmp_path / "cfg" / "metrics.csv").read_text() == (
        tmp_path / "plain" / "metrics.csv"
    ).read_text()
    typo = tmp_path / "typo.cfg"
    typo.write_text(run_cfg.read_text().replace("[model]\n", "[model]\nlayerz = 3\n"))
    assert main([*base, "--out", str(tmp_path / "typo"), "--config", str(typo)]) == 2


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
        "--epochs", "2", "--lr", "0.001", "--eval-every", "1",
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


def _nan_feature(command, value=np.nan):
    """``command`` on a split one of whose feature values is NaN (or another
    non-finite ``value``), which makes the forward pass non-finite: the error
    names that file, and no ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        root = _synth(tmp_path / "nanfeat")
        path = root / "features" / "synth001.feat"
        features = read_features(path)
        features[5, 0] = value
        write_features(path, features)
        return [command, "--data-root", str(root), "--out", str(tmp_path / "out"),
                "--checkpoint", str(trained / "checkpoint.ckpt"),
                *(["--video", "synth001"] if command == "predict" else [])]

    make_argv.names = ("nanfeat/features/synth001.feat: ",)
    make_argv.makes_no_out = True
    return make_argv


def _feature_dim_mismatch(command):
    """``command`` on 6-wide features with a checkpoint whose model reads 8:
    the error names the file and both widths, and no ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        root = _synth(tmp_path / "narrow", **{"feature-dim": "6"})
        return [command, "--data-root", str(root), "--out", str(tmp_path / "eval"),
                "--checkpoint", str(trained / "checkpoint.ckpt"),
                *(["--video", "synth000"] if command == "predict" else [])]

    make_argv.names = ("narrow/features/synth000.feat", "features are 6 wide", "takes 8")
    make_argv.makes_no_out = True
    return make_argv


def _class_count_mismatch(command, checkpoint_classes):
    """``command`` with a checkpoint whose model scores ``checkpoint_classes``
    classes on a split whose mapping.txt lists the other of 3 and 4: the
    error names the checkpoint, the mapping file and both counts, and no
    ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        checkpoint, root = trained / "checkpoint.ckpt", synth_root  # 3 classes each
        if checkpoint_classes == 3:
            root = _synth(tmp_path / "four", classes="4")
        else:
            _, cfg = load_checkpoint(checkpoint)
            cfg = replace(cfg, num_classes=4)
            checkpoint = tmp_path / "four.ckpt"
            save_checkpoint(checkpoint, init_params(cfg, SeedStreams(0)), cfg)
        return [command, "--data-root", str(root), "--out", str(tmp_path / "out"),
                "--checkpoint", str(checkpoint),
                *(["--video", "synth000"] if command == "predict" else [])]

    ckpt, split = ("checkpoint.ckpt", "four") if checkpoint_classes == 3 else ("four.ckpt", "")
    make_argv.names = (
        f"{ckpt}: ", f"{split}/mapping.txt", f"scores {checkpoint_classes} classes",
        f"lists {7 - checkpoint_classes}",
    )
    make_argv.makes_no_out = True
    return make_argv


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


def _unknown_ignored_class(command, config=False):
    """``command`` told to ignore a class the split lacks, by the flag or by
    a config file: the error names the class and where it was set, and no
    ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        argv = {
            "eval": ["eval", "--checkpoint", str(trained / "checkpoint.ckpt")],
            "ablate": ["ablate", "--axis", "beta", "--values", "0", "--seed", "1", "--epochs", "1",
                       *SMALL_MODEL],
        }[command]
        if config:
            (tmp_path / "ignored.cfg").write_text("[data]\nignored_classes = nosuchclass\n")
            argv += ["--config", str(tmp_path / "ignored.cfg")]
        else:
            argv += ["--ignored-classes", "nosuchclass"]
        return [*argv, "--data-root", str(synth_root), "--out", str(tmp_path / "out")]

    source = "ignored.cfg: [data] ignored_classes: " if config else "--ignored-classes: "
    make_argv.names = (source + "unknown class name 'nosuchclass'",)
    make_argv.makes_no_out = True
    return make_argv


def _config_file(name, text: str | bytes | None, names=()):
    """A train command reading config file ``name``: written as ``text``, or
    made a directory when ``text`` is None. The error also names each of
    ``names``."""
    def make_argv(trained, synth_root, tmp_path):
        path = tmp_path / name
        if text is None:
            path.mkdir()
        elif isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        return ["train", "--data-root", str(synth_root), "--out", str(tmp_path / "run"),
                "--seed", "1", "--config", str(path)]

    make_argv.names = names
    return make_argv


def _bad_flag(command, flag, value, axis="beta", names=()):
    """``command`` given a ``flag`` value that does not parse or that the flag
    refuses (ablate over ``axis``); the error names the flag and each of
    ``names``, and no ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        argv = {
            "train": ["train", "--seed", "1", "--epochs", "1", *SMALL_MODEL],
            "eval": ["eval", "--checkpoint", str(trained / "checkpoint.ckpt")],
            "ablate": ["ablate", "--axis", axis, "--seed", "1", "--epochs", "1", *SMALL_MODEL],
        }[command]
        return [*argv, "--data-root", str(synth_root), "--out", str(tmp_path / "out"), flag, value]

    make_argv.names = (flag + ": ", *names)
    make_argv.makes_no_out = True
    return make_argv


def _bad_synth(*flags, names=()):
    """``tut synth`` given a spec it cannot generate; the error names each of
    ``names``, and no ``--out`` directory is made."""
    def make_argv(trained, synth_root, tmp_path):
        return ["synth", "--out", str(tmp_path / "data"), "--videos", "2", *flags]

    make_argv.names = names
    make_argv.makes_no_out = True
    return make_argv


def _bad_setting(key, value):
    """``tut train`` given a ``key`` value its config refuses; the error names
    the key and the flag, and no ``--out`` directory is made."""
    flag = "--" + key.replace("_", "-")

    def make_argv(trained, synth_root, tmp_path):
        return ["train", "--data-root", str(synth_root), "--out", str(tmp_path / "run"),
                "--seed", "1", "--epochs", "1", *SMALL_MODEL, flag, value]

    make_argv.names = (key, flag + ": ")
    make_argv.makes_no_out = True
    return make_argv


def _mixed_width_split(trained, synth_root, tmp_path):
    root = _synth(tmp_path / "mixed")
    wide = root / "features" / "synth001.feat"
    write_features(wide, np.zeros((40, 9), dtype=np.float32))
    return ["train", "--data-root", str(root), "--out", str(tmp_path / "run"), "--seed", "1",
            "--epochs", "1", *SMALL_MODEL]


_mixed_width_split.names = ("synth001.feat", "9 wide", "not 8")
_mixed_width_split.makes_no_out = True


def _short_video(command):
    """``command`` on a split whose last video has 3 frames, for a model of
    2 layers, which halves a video twice: the error names that video's
    feature file before any step, and no ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        root = _synth(tmp_path / "short")
        labels = (root / "groundTruth" / "synth000.txt").read_text().splitlines(keepends=True)
        write_features(root / "features" / "tiny.feat", np.zeros((3, 8), dtype=np.float32))
        (root / "groundTruth" / "tiny.txt").write_text("".join(labels[:3]))
        with open(root / "splits" / "all.bundle", "a") as fh:
            fh.write("tiny\n")
        argv = [command, "--data-root", str(root), "--out", str(tmp_path / "out")]
        if command == "train":
            return [*argv, "--seed", "1", "--epochs", "1", *SMALL_MODEL]
        return [*argv, "--checkpoint", str(trained / "checkpoint.ckpt")]

    make_argv.names = ("short/features/tiny.feat: ", "T=3 < 2^2")
    make_argv.makes_no_out = True
    return make_argv


def _not_utf8(command, name):
    """``command`` on a split whose ``name`` file ends with the byte 0xff:
    the error names the file, and no ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        root = _synth(tmp_path / "bytes")
        with open(root / name, "ab") as fh:
            fh.write(b"\xff\n")
        argv = [command, "--data-root", str(root), "--out", str(tmp_path / "out")]
        if command == "train":
            return [*argv, "--seed", "1", "--epochs", "1", *SMALL_MODEL]
        return [*argv, "--checkpoint", str(trained / "checkpoint.ckpt")]

    make_argv.names = (f"bytes/{name}: not UTF-8 text (byte 0xff at offset ",)
    make_argv.makes_no_out = True
    return make_argv


def _split_lists_a_video_twice(command):
    """``command`` on a split that lists ``synth000`` again as
    ``synth000.txt``: the error names the split's line and the first one, and
    no ``--out`` is made."""
    def make_argv(trained, synth_root, tmp_path):
        root = _synth(tmp_path / "twice")
        split = root / "splits" / "all.bundle"
        lines = split.read_text().splitlines()
        split.write_text("\n".join([*lines, "", "synth000.txt"]) + "\n")
        first = lines.index("synth000") + 1
        make_argv.names = (
            f"twice/splits/all.bundle:{len(lines) + 2}: video 'synth000' is listed again "
            f"(first at line {first})",
        )
        argv = [command, "--data-root", str(root), "--out", str(tmp_path / "out")]
        if command == "train":
            return [*argv, "--seed", "1", "--epochs", "1", *SMALL_MODEL]
        return [*argv, "--checkpoint", str(trained / "checkpoint.ckpt")]

    make_argv.makes_no_out = True
    return make_argv


def _form_feed_line(trained, synth_root, tmp_path):
    """``tut eval`` on a split whose ``synth001`` ground truth holds a form
    feed inside line 2: only "\\n" ends a line, so the error names line 2,
    and no ``--out`` is made."""
    root = _synth(tmp_path / "formfeed")
    gt = root / "groundTruth" / "synth001.txt"
    lines = gt.read_text().split("\n")
    lines[1] += "\f" + lines[1]
    gt.write_text("\n".join(lines))
    return ["eval", "--data-root", str(root), "--out", str(tmp_path / "out"),
            "--checkpoint", str(trained / "checkpoint.ckpt")]


_form_feed_line.names = ("formfeed/groundTruth/synth001.txt:2: unknown class name ",)
_form_feed_line.makes_no_out = True


def _checkpoint_entry_twice(command):
    """``command`` on a checkpoint that lists ``stage0.cls.b`` twice: the
    error names the file and the entry, and eval makes no ``--out``."""
    def make_argv(trained, synth_root, tmp_path):
        params, cfg = load_checkpoint(trained / "checkpoint.ckpt")
        path = tmp_path / "twice.ckpt"
        pairs = [*params.items(), ("stage0.cls.b", params["stage0.cls.b"])]
        save_checkpoint(path, SimpleNamespace(items=lambda: pairs), cfg)
        if command == "inspect-checkpoint":
            return [command, str(path)]
        return [command, "--data-root", str(synth_root), "--out", str(tmp_path / "out"),
                "--checkpoint", str(path)]

    make_argv.names = ("twice.ckpt: entry stage0.cls.b is listed twice",)
    make_argv.makes_no_out = command == "eval"
    return make_argv


def _sample_rate(rate):
    # a rate below 1 would divide by zero in the strided read
    def make_argv(trained, synth_root, tmp_path):
        return ["eval", "--data-root", str(synth_root), "--out", str(tmp_path / "eval"),
                "--checkpoint", str(trained / "checkpoint.ckpt"), "--sample-rate", rate]

    return make_argv


@pytest.mark.parametrize(
    "make_argv",
    [_empty_split, _not_a_checkpoint, _non_finite_features, _feature_dim_mismatch("eval"),
     _truncated_checkpoint, _truncated_features, _sample_rate("0"), _sample_rate("-3"),
     _unknown_ignored_class("eval"), _unknown_ignored_class("ablate"),
     _unknown_ignored_class("eval", config=True), _unknown_ignored_class("ablate", config=True),
     _config_file("bare.cfg", "layers = 2\n"),
     _config_file("twice.cfg", "[model]\nlayers = 2\nlayers = 3\n"),
     _config_file("novalue.cfg", "[model]\nlayers\n"), _config_file("dir.cfg", None),
     _config_file("binary.cfg", b"[model]\nlayers = \xff\xfe\n"),
     _config_file("fps.cfg", "[data]\nfps = 15\n"),
     _config_file("shuffle.cfg", "[train]\nshuffle = True\n"),
     _config_file("keep_best.cfg", "[train]\nkeep_best = true\n"),
     _config_file("normalize.cfg", "[model]\nnormalize = true\n", names=("normalize",)),
     _config_file("ffn_dim.cfg", "[model]\nffn_dim = 64\n", names=("ffn_dim",)),
     _config_file("pe_max_len.cfg", "[model]\npe_max_len = 4096\n", names=("pe_max_len",)),
     _config_file("smooth_clip.cfg", "[train]\nsmooth_clip = 4.0\n", names=("smooth_clip",)),
     _config_file("badint.cfg", "[model]\nlayers = abc\n", names=("layers", "abc")),
     _config_file("num_classes.cfg", "[model]\nnum_classes = 5\n", names=("num_classes",)),
     _config_file("input_dim.cfg", "[model]\ninput_dim = 8\n", names=("input_dim",)),
     _mixed_width_split, _feature_dim_mismatch("predict"),
     _class_count_mismatch("eval", 3), _class_count_mismatch("eval", 4),
     _class_count_mismatch("predict", 3), _class_count_mismatch("predict", 4),
     _bad_flag("train", "--epochs", "x"), _bad_flag("train", "--seed", "one"),
     _bad_flag("eval", "--thresholds", "0.1,x"), _bad_flag("ablate", "--values", "0,x"),
     _nan_feature("eval"), _nan_feature("predict"),
     _bad_flag("eval", "--thresholds", "nan"), _bad_flag("eval", "--thresholds", "0.1,inf"),
     _bad_flag("eval", "--thresholds", "-1"), _bad_flag("eval", "--thresholds", "0.5,2"),
     _bad_flag("ablate", "--values", "nan", axis="window"),
     _bad_flag("ablate", "--values", "inf", axis="heads"),
     _bad_flag("ablate", "--values", "2.5", axis="window"),
     _bad_flag("eval", "--thresholds", ","), _bad_flag("ablate", "--values", ",", axis="window"),
     _bad_flag("ablate", "--values", "nan"), _bad_flag("ablate", "--values", "0,inf"),
     _bad_flag("ablate", "--values", "-0.01"),
     *(_bad_flag("ablate", "--values", "0.3", axis=axis, names=(axis,))
       for axis in ("arch-attention", "positional-encoding", "ba-distance")),
     _bad_setting("lr", "nan"), _bad_setting("weight_decay", "-0.5"),
     _bad_setting("smooth_weight", "nan"), _bad_setting("boundary_weight", "nan"),
     _bad_setting("checkpoint_every", "-1"), _bad_setting("eval_every", "-2"),
     _bad_setting("hidden_dim", "0"), _bad_setting("hidden_dim", "-1"),
     _bad_setting("hidden_dim_refine", "0"), _bad_setting("heads", "3"),
     _config_file("lr_nan.cfg", "[train]\nlr = nan\n", names=("lr_nan.cfg: [train] lr: ",)),
     _short_video("train"), _short_video("eval"),
     _not_utf8("train", "mapping.txt"), _not_utf8("eval", "groundTruth/synth000.txt"),
     _not_utf8("train", "splits/all.bundle"),
     _split_lists_a_video_twice("train"), _split_lists_a_video_twice("eval"),
     _form_feed_line,
     _checkpoint_entry_twice("inspect-checkpoint"), _checkpoint_entry_twice("eval"),
     _bad_synth("--min-segments", "0", names=("min_segments",)),
     _bad_synth("--min-len", "2", "--max-len", "2", "--min-segments", "3", names=("min_len=2",)),
     _bad_synth("--classes", "1", "--min-segments", "2", names=("one class",)),
     _bad_synth("--noise", "nan", names=("noise",)),
     _bad_synth("--seed", "-1", names=("seed",))],
    ids=["DatasetError", "CheckpointError", "TrainingDiverged", "ShapeError",
         "TruncatedCheckpoint", "TruncatedFeatures", "SampleRateZero", "SampleRateNegative",
         "UnknownIgnoredClass", "UnknownIgnoredClassAblate", "UnknownIgnoredClassConfig",
         "UnknownIgnoredClassAblateConfig", "ConfigNoSectionHeader", "ConfigDuplicateKey",
         "ConfigParsingError", "ConfigIsADirectory", "ConfigNotUtf8", "ConfigRemovedFps",
         "ConfigRemovedShuffle", "ConfigRemovedKeepBest", "ConfigRemovedNormalize",
         "ConfigRemovedFfnDim", "ConfigRemovedPeMaxLen", "ConfigRemovedSmoothClip",
         "ConfigBadValue", "ConfigSplitNumClasses", "ConfigSplitInputDim", "MixedWidthSplit",
         "PredictFeatureWidth", "EvalSplitHasMoreClasses", "EvalCheckpointHasMoreClasses",
         "PredictSplitHasMoreClasses", "PredictCheckpointHasMoreClasses",
         "FlagBadValue", "FlagBadSeed", "EvalBadThresholds", "AblateBadValues",
         "EvalNanFeature", "PredictNanFeature", "ThresholdNan", "ThresholdInf",
         "ThresholdNegative", "ThresholdAboveOne", "AblateWindowNan", "AblateHeadsInf",
         "AblateWindowFraction", "EvalThresholdsEmpty", "AblateValuesEmpty", "AblateBetaNan",
         "AblateBetaInf", "AblateBetaNegative", "AblateValuesArchAttention",
         "AblateValuesPositionalEncoding", "AblateValuesBaDistance",
         "LrNan", "WeightDecayNegative", "SmoothWeightNan", "BoundaryWeightNan",
         "CheckpointEveryNegative", "EvalEveryNegative", "HiddenDimZero",
         "HiddenDimNegative", "HiddenDimRefineZero", "HeadsNotDividing", "ConfigLrNan",
         "TrainShortVideo", "EvalShortVideo",
         "MappingNotUtf8", "GroundTruthNotUtf8", "SplitNotUtf8",
         "TrainSplitVideoTwice", "EvalSplitVideoTwice", "EvalGroundTruthFormFeed",
         "InspectCheckpointEntryTwice", "EvalCheckpointEntryTwice",
         "SynthMinSegmentsZero", "SynthMoreSegmentsThanFrames", "SynthOneClassTwoSegments",
         "SynthNoiseNan", "SynthSeedNegative"],
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
    if "--config" in argv:  # the error names the file
        assert argv[argv.index("--config") + 1] in err
    for name in getattr(make_argv, "names", ()):
        assert name in err
    if getattr(make_argv, "makes_no_out", False):
        assert not os.path.exists(argv[argv.index("--out") + 1])


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_an_inf_feature_prints_only_the_error_line(command, trained, tmp_path):
    """An inf among the features makes the forward pass non-finite; the
    command's whole stderr is the one error line naming the file, with no
    numpy warning before it."""
    make_argv = _nan_feature(command, np.inf)
    argv = make_argv(trained, None, tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "tut.cli", *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and make_argv.names[0] in line


def test_ablate_with_a_refused_setting_exits_2_and_writes_no_grid(synth_root, tmp_path, capsys):
    """ablate builds its configs as train does, so a refused setting stops
    it before any cell runs: one line naming the key, and no CSV."""
    out = tmp_path / "grids" / "grid.csv"
    argv = ["ablate", "--data-root", str(synth_root), "--out", str(out), "--axis", "beta",
            "--values", "0,0.02", "--seed", "1", "--epochs", "1", *SMALL_MODEL, "--lr", "nan"]
    capsys.readouterr()
    assert main(argv) == 2
    assert "lr must be finite" in _one_error_line(capsys)
    assert not out.parent.exists()


def test_logsparse_with_boundary_loss_exits_2_and_writes_nothing(synth_root, tmp_path, capsys):
    """The boundary loss reads local windows, which logsparse attention has
    not: the configs refuse the pair when they are built, before anything is
    written."""
    out = tmp_path / "run"
    argv = ["train", "--data-root", str(synth_root), "--out", str(out), "--seed", "1",
            "--epochs", "1", *SMALL_MODEL, "--attention", "logsparse", "--pe-mode", "none",
            "--boundary-weight", "0.1", "--checkpoint-every", "1"]
    capsys.readouterr()
    assert main(argv) == 2
    assert "undefined for the logsparse pattern" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "config,flags,error",
    [
        (None, ["--attention", "logsparse", "--pe-mode", "none", "--boundary-weight", "0.1"],
         "--boundary-weight: boundary loss is undefined for the logsparse pattern"),
        (None, ["--boundary-weight", "0.1", "--window", "1"],
         "--boundary-weight: boundary loss needs a window >= 3, got 1"),
        ("[train]\nboundary_weight = 0.1\n", ["--window", "1"],
         "--window: boundary loss needs a window >= 3, got 1"),
        ("[model]\nwindow = 1\n", ["--preset", "gtea"],
         "ba.cfg: [model] window: boundary loss needs a window >= 3, got 1"),
        ("[model]\nattention = full\n[train]\nboundary_weight = 0.1\n",
         ["--attention", "logsparse", "--pe-mode", "none"],
         "--attention: boundary loss is undefined for the logsparse pattern"),
    ],
    ids=["logsparse-flags", "window-flags", "window-flag-over-file", "file-over-preset",
         "attention-flag-over-file"],
)
def test_boundary_loss_the_model_cannot_take_is_refused_before_the_split_is_read(
    tmp_path, capsys, config, flags, error
):
    """A boundary weight with logsparse attention or a window under 3 is
    refused when the configs are built: exit 2, one line naming the source
    of the latest of the two keys, before the split (here a missing data
    root) is read and before --out is made."""
    argv = ["train", "--data-root", str(tmp_path / "no-data"), "--out", str(tmp_path / "run"),
            "--seed", "1", "--epochs", "1", *flags]
    if config is not None:
        (tmp_path / "ba.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "ba.cfg")]
    capsys.readouterr()
    assert main(argv) == 2
    line = _one_error_line(capsys)
    assert line.endswith(error), line
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--input-dim", "--num-classes"])
def test_the_split_gives_the_model_its_width_and_class_count(flag, trained, synth_root, tmp_path):
    """input_dim and num_classes are no train flag and no line of a run's
    effective config; the checkpoint holds the split's values."""
    argv = ["train", "--data-root", str(synth_root), "--out", str(tmp_path / "run"),
            "--seed", "1", "--epochs", "1", *SMALL_MODEL]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "5"])
    assert exc.value.code == 2 and not (tmp_path / "run").exists()
    key = flag[2:].replace("-", "_")
    text = (trained / "effective_config.cfg").read_text()
    assert not any(line.startswith(key) for line in text.splitlines())
    config, _ = read_manifest(trained / "checkpoint.ckpt")
    assert (config["input_dim"], config["num_classes"]) == (8, 3)


@pytest.mark.parametrize("change", ["rows", "dim", "truncated"])
@pytest.mark.parametrize("command", ["train", "eval", "eval-strided"])
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
        if command == "eval-strided":
            argv += ["--sample-rate", "2"]
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
