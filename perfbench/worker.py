"""One benchmark child process: prepare inputs, probe set-up time, or run
the measured loop. ``run.py`` starts each in a fresh interpreter and reads
the JSON it writes; its standard output is only a log.

    python3 perfbench/worker.py prepare --workload W --seed N --dir D
    python3 perfbench/worker.py measure --workload W --seed N --dir D --seconds S [--traced] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as WL  # noqa: E402
from stats import Tally  # noqa: E402
from tracing import Hooks, StopRun, Tracer, op_metrics  # noqa: E402

EPOCHS_UNBOUNDED = "100000"  # train runs until the stop hook fires


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# preparation


def prepare(wl: WL.Workload, seed: int, work: Path) -> dict:
    """Write the workload's dataset (and, for eval, the checkpoint and the
    reference predictions) under ``work``; return a manifest."""
    import numpy as np

    from tut import cli, net
    from tut.data import read_features

    data = work / "data"
    ids = WL.write_videos(data, seed, wl.classes, wl.source_lengths)
    order = [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
    manifest = {"videos": order, "lengths": dict(zip(ids, wl.source_lengths))}
    WL.write_split(data, "train", order)
    probe_lengths = [n * wl.stride for n in WL.MEMORY_PROBE_LENGTHS[wl.name]]
    probe_ids = WL.write_videos(data, seed, wl.classes, probe_lengths, prefix="probe")
    manifest["probe_split"] = WL.write_split(data, "probe", probe_ids)
    if wl.kind != "eval":
        return manifest
    for vid in ids:
        WL.write_split(data, vid, [vid])
    # fixed-seed checkpoint, written by the program's own train command
    ck_data = work / "ckpt_data"
    WL.write_videos(ck_data, WL.CHECKPOINT_SEED, wl.classes, (256,) * 4)
    WL.write_split(ck_data, "train", WL.video_ids(4))
    rc = cli.main([
        "train", "--data-root", str(ck_data), "--out", str(work / "ckpt"),
        "--seed", str(WL.CHECKPOINT_SEED), "--preset", wl.preset, "--epochs", "1",
        "--split", "splits/train.bundle",
    ])
    if rc != 0:
        raise RuntimeError(f"checkpoint training exited {rc}")
    manifest["checkpoint"] = str(work / "ckpt" / "checkpoint.ckpt")
    # reference predictions through the library, outside the eval command
    params, cfg = net.load_checkpoint(manifest["checkpoint"])
    reference = {}
    for vid in ids:
        feats = read_features(data / "features" / f"{vid}.feat")[:: wl.stride]
        labels = net.final_prediction(net.model_forward(feats, params, cfg, train=False))
        reference[vid] = np.repeat(labels, wl.stride)[: manifest["lengths"][vid]].tolist()
    (work / "reference_predictions.json").write_text(json.dumps(reference))
    return manifest


# ---------------------------------------------------------------------------
# measured loops


def _train_loop(tut, wl: WL.Workload, seed: int, work: Path, manifest, seconds, tracer):
    """Drive ``tut train`` until the stop rule fires; one op is one step."""
    n_videos = len(manifest["videos"])
    state = {"measure_from": None}

    def should_stop(steps: int) -> bool:
        if steps == wl.warmup_ops:
            state["measure_from"] = time.perf_counter()
        if steps <= wl.warmup_ops or steps < wl.loss_steps:
            return False
        if wl.align and steps % n_videos:
            return False
        measured = steps - wl.warmup_ops
        return measured >= wl.min_measured and time.perf_counter() - state["measure_from"] >= seconds

    hooks = Hooks(tut, should_stop, tracer.end_op if tracer else None)
    argv = [
        "train", "--data-root", str(work / "data"), "--out", str(work / "train_out"),
        "--seed", str(seed), "--preset", wl.preset, "--epochs", EPOCHS_UNBOUNDED,
        "--split", "splits/train.bundle",
    ]
    tally = Tally()
    try:
        tut.cli.main(argv)
        tally.record(len(hooks.step_seconds), "train command returned before the stop rule fired")
    except StopRun:
        pass
    except Exception as exc:  # noqa: BLE001 - a failed step is counted, never dropped
        tally.record(len(hooks.step_seconds), f"{type(exc).__name__}: {exc}")
    for i in range(len(hooks.step_seconds)):
        tally.record(i)
    for i, loss in enumerate(hooks.losses):
        if not math.isfinite(loss):
            tally.record(i, f"non-finite loss {loss}")
    ops = [
        {"seconds": s, "frames": f, "measured": i >= wl.warmup_ops}
        for i, (s, f) in enumerate(zip(hooks.step_seconds, hooks.step_frames))
    ]
    return hooks, {"ops": ops, "tally": tally, "losses": hooks.losses}


def _check_prediction(path: Path, mapping: dict, length: int):
    """Labels from a predictions file, or the reason it is malformed."""
    if not path.exists():
        return None, f"{path.name} missing"
    names = path.read_text().splitlines()
    if len(names) != length:
        return None, f"{path.name}: {len(names)} labels for {length} source frames"
    unknown = [n for n in names if n not in mapping]
    if unknown:
        return None, f"{path.name}: unknown class {unknown[0]!r}"
    return [mapping[n] for n in names], None


def _eval_loop(tut, wl: WL.Workload, seed: int, work: Path, manifest, seconds, tracer):
    """One ``tut eval --upsample`` per video, cycling over the videos;
    measuring stops at the end of a cycle once ``seconds`` have passed."""
    hooks = Hooks(tut)
    data = work / "data"
    videos = manifest["videos"]
    mapping = {}
    for line in (data / "mapping.txt").read_text().splitlines():
        idx, name = line.split()
        mapping[name] = int(idx)
    reference = json.loads((work / "reference_predictions.json").read_text())
    sequence = videos[: wl.warmup_ops]
    ops, tally, agree, total = [], Tally(), 0, 0
    predictions = {}
    measure_from = None
    i = 0
    while True:
        if i == len(sequence):
            done = len(sequence) - wl.warmup_ops >= wl.min_measured
            if done and time.perf_counter() - measure_from >= seconds:
                break
            sequence = sequence + videos
        if i == wl.warmup_ops:
            measure_from = time.perf_counter()
        vid = sequence[i]
        out = work / "eval_out"
        argv = [
            "eval", "--data-root", str(data), "--out", str(out),
            "--checkpoint", manifest["checkpoint"], "--preset", wl.preset,
            "--split", f"splits/{vid}.bundle", "--upsample",
        ]
        start = time.perf_counter()
        try:
            rc = tut.cli.main(argv)
            error = None if rc == 0 else f"eval exited {rc}"
        except Exception as exc:  # noqa: BLE001 - a failed video is counted, never dropped
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        length = manifest["lengths"][vid]
        if error is None:
            labels, error = _check_prediction(out / "predictions" / f"{vid}.txt", mapping, length)
        if error is None:
            agree += sum(a == b for a, b in zip(labels, reference[vid]))
            total += length
            predictions[vid] = labels
        tally.record(i, None if error is None else f"video {vid}: {error}")
        ops.append({"seconds": elapsed, "frames": length, "measured": i >= wl.warmup_ops})
        i += 1
    return hooks, {
        "ops": ops,
        "tally": tally,
        "agreement_pct": 100.0 * agree / total if total else 0.0,
        "predictions": predictions,
    }


def _memory_probe(tut, wl: WL.Workload, seed: int, work: Path, manifest, tracer):
    """Run the program once more on the probe split with tracemalloc on
    around each forward; records live graph bytes per length."""
    tracer.memory_probe = True
    data = str(work / "data")
    if wl.kind == "train":
        argv = ["train", "--data-root", data, "--out", str(work / "probe_out"),
                "--seed", str(seed), "--preset", wl.preset, "--epochs", "1",
                "--split", manifest["probe_split"]]
    else:
        argv = ["eval", "--data-root", data, "--out", str(work / "probe_out"),
                "--checkpoint", manifest["checkpoint"], "--preset", wl.preset,
                "--split", manifest["probe_split"], "--upsample"]
    first = len(tracer.ops)
    rc = tut.cli.main(argv)
    tracer.memory_probe = False
    tracer.end_op()
    probe_ops = tracer.ops[first:]
    tracer.ops = tracer.ops[:first]
    if rc != 0:
        raise RuntimeError(f"memory probe exited {rc}")
    cfg = tut.cli.build_configs(wl.preset)[0]
    return {
        "retained": tracer.retained,
        "c03_attention_entries": {
            str(t): tut.net.count_attention_entries(cfg, t) for t, _ in tracer.retained
        },
        "save_checkpoint_s": sum(acc.get("span:net.save_checkpoint", 0.0) for acc in probe_ops),
    }


def measure(wl: WL.Workload, seed: int, work: Path, seconds: float, traced: bool, setup_only: bool):
    spawned_at = float(os.environ["PERFBENCH_SPAWNED_AT"])
    import tut
    import tut.cli  # noqa: F401 - makes tut.cli / tut.trainer attributes available

    manifest = json.loads((work / "manifest.json").read_text())
    if setup_only:  # set-up is everything before the first model_forward call
        tut.trainer.model_forward = _stop_run
        hooks = Hooks(tut)
        argv = _setup_argv(wl, seed, work, manifest)
        try:
            tut.cli.main(argv)
        except StopRun:
            pass
        return {"setup_s": hooks.first_forward_at - spawned_at}

    tracer = Tracer(tut) if traced else None
    loop = _train_loop if wl.kind == "train" else _eval_loop
    hooks, result = loop(tut, wl, seed, work, manifest, seconds, tracer)
    tally = result.pop("tally")
    result.update(attempted=max(tally.attempted, 1), failed=tally.failed,
                  failures=[f"op {i + 1}: {r}" for i, r in sorted(tally.reasons.items())])
    result["setup_s"] = hooks.first_forward_at - spawned_at
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["environment"] = _environment()
    if tracer is not None:
        measured = [acc for acc, op in zip(tracer.ops, result["ops"]) if op["measured"]]
        result["trace_ops"] = [op_metrics(acc) for acc in measured]
        result["call_seconds"] = {name: list(calls) for name, calls in tracer.calls.items()}
        loads = len(tracer.calls["data.load_dataset"])
        result["feature_mib_per_load"] = tracer.feature_bytes / 2**20 / max(loads, 1)
        (work / "spans.json").write_text(json.dumps(tracer.spans))
        hooks.should_stop = None
        result["probe"] = _memory_probe(tut, wl, seed, work, manifest, tracer)
    return result


def _stop_run(*args, **kwargs):
    raise StopRun


def _setup_argv(wl, seed, work, manifest):
    data = str(work / "data")
    if wl.kind == "train":
        return ["train", "--data-root", data, "--out", str(work / "setup_out"), "--seed",
                str(seed), "--preset", wl.preset, "--epochs", "1", "--split", "splits/train.bundle"]
    vid = manifest["videos"][0]
    return ["eval", "--data-root", data, "--out", str(work / "setup_out"), "--checkpoint",
            manifest["checkpoint"], "--preset", wl.preset, "--split", f"splits/{vid}.bundle",
            "--upsample"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WL.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    wl = WL.WORKLOADS[args.workload]
    work = Path(args.dir)
    if args.mode == "prepare":
        result = prepare(wl, args.seed, work)
        (work / "manifest.json").write_text(json.dumps(result))
    else:
        result = measure(wl, args.seed, work, args.seconds, args.traced, args.setup_only)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
