"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_short --seed 3 --seconds 35 --trace 0

Run from the root of a source checkout. The run prepares its inputs in
``.perfbench_work/``, starts every measurement in a fresh interpreter
(``worker.py``), checks the program's outputs, and prints a summary, a
``report:`` line with every metric by the names in README.md, and, last,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
program untraced and then traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as WL  # noqa: E402
from stats import p90  # noqa: E402

SETUP_SAMPLES = 7  # fresh processes timed to their first model_forward call
BLAS_THREADS = 1  # fixed, at most nproc; one thread keeps runs on a shared host steady
TIME_LIMIT_S = 170
DEFAULT_SECONDS = 35  # run_seconds in BENCHMARK.json
AGREEMENT_MIN_PCT = 99.0  # eval labels that must match the reference
LOSS_RTOL = 5e-3  # train_loss tolerance against the stored reference

END_TO_END_UNITS = {"best_frames_per_s": "frames/s", "best_op_s_p50": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}
# per-layer metrics every workload produces, never 0; the rest go on the report line
PER_LAYER_UNITS = {
    "tensor.nodes_per_step": "count", "tensor.graph_retained_mib": "MiB",
    "attention.fwd_s": "s", "attention.nodes": "count", "attention.out_mib": "MiB",
    "net.forward_s": "s", "net.resample.fwd_s": "s", "net.layer_other.fwd_s": "s",
    "data.load_dataset_s": "s", "data.feature_mib_read": "MiB", "trace.overhead_pct": "%",
}


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tut").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


class Child:
    """Starts worker.py processes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path, deadline: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.deadline = work, deadline
        self.count = 0

    def run(self, mode: str, *flags: str) -> dict:
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", self.workload,
               "--seed", str(self.seed), "--dir", str(self.work), "--result", str(result), *flags]
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        log = self.work / "worker.log"
        with open(log, "a") as fh:
            env["PERFBENCH_SPAWNED_AT"] = repr(time.monotonic())
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                  timeout=max(self.deadline - time.monotonic(), 1))
        if proc.returncode != 0:
            tail = log.read_text().splitlines()[-15:]
            raise RuntimeError(f"worker {mode} {' '.join(flags)} exited {proc.returncode}:\n"
                               + "\n".join(tail))
        return json.loads(result.read_text())


def measured(result: dict) -> list[dict]:
    ops = [op for op in result["ops"] if op["measured"]]
    if not ops:
        raise RuntimeError(f"no operation was measured: {result['failures']}")
    return ops


def throughput(result: dict) -> float:
    ops = measured(result)
    return sum(op["frames"] for op in ops) / sum(op["seconds"] for op in ops)


def best_throughput(best: dict[int, float]) -> float:
    """Frames per second of one pass over the lengths at their fastest times."""
    return sum(best) / sum(best.values())


def best_pass(result: dict) -> tuple[dict[int, float], int]:
    """Fastest measured time per video length, and the fewest repeats any
    length had. Operations on one length do the same work, so their spread
    is the host's; the fastest is the least disturbed (see README.md)."""
    by_length: dict[int, list[float]] = {}
    for op in measured(result):
        by_length.setdefault(op["frames"], []).append(op["seconds"])
    return ({frames: min(times) for frames, times in by_length.items()},
            min(len(times) for times in by_length.values()))


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def encode_labels(labels: list[int]) -> list[list[int]]:
    """Run-length pairs [label, count], the stored form of reference labels."""
    runs: list[list[int]] = []
    for label in labels:
        if runs and runs[-1][0] == label:
            runs[-1][1] += 1
        else:
            runs.append([label, 1])
    return runs


def decode_labels(runs) -> list[int]:
    return [label for label, count in runs for _ in range(count)]


def agreement_pct(labels: dict, stored: dict) -> float:
    same = total = 0
    for vid, runs in stored.items():
        want = decode_labels(runs)
        got = labels.get(vid, [])
        same += sum(a == b for a, b in zip(got, want))
        total += len(want)
    return 100.0 * same / total


def end_to_end(wl, seed: int, child: Child, checks: list[str]) -> tuple[dict, dict, dict]:
    """Set-up probes plus the measured run; returns (metrics, report, result)."""
    setups = [child.run("measure", "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = child.run("measure", "--seconds", str(child.seconds))
    setups.append(result["setup_s"])
    seconds = [op["seconds"] for op in measured(result)]
    best, reps = best_pass(result)
    metrics = {
        "best_frames_per_s": best_throughput(best),
        "best_op_s_p50": statistics.median(best.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    prefix = "step" if wl.kind == "train" else "video"
    report = {
        f"{wl.kind}_frames_per_s": [throughput(result), "frames/s"],
        f"{prefix}_s_p50": [statistics.median(seconds), "s"],
        "setup_s": [metrics["setup_s"], "s"],
        "peak_rss_mib": [metrics["peak_rss_mib"], "MiB"],
        "fail_rate": [result["failed"] / result["attempted"], "fraction"],
        "samples": [len(seconds), "count"],
        "setup_samples": [len(setups), "count"],
        "best_frames_per_s": [metrics["best_frames_per_s"], "frames/s"],
        "best_op_s_p50": [metrics["best_op_s_p50"], "s"],
        "best_min_repeats": [reps, "count"],
    }
    tail = p90(seconds)
    if tail is not None:
        report[f"{prefix}_s_p90"] = [tail, "s"]
    ref = load_reference().get("seeds", {}).get(str(seed), {}).get(wl.name)
    if wl.kind == "train":
        losses = result["losses"][: wl.loss_steps]
        if len(losses) < wl.loss_steps:
            checks.append(f"only {len(losses)} of {wl.loss_steps} loss steps logged")
        else:
            loss = sum(losses) / len(losses)
            report["train_loss"] = [loss, "nats"]
            if ref is not None and abs(loss - ref["train_loss"]) > LOSS_RTOL * abs(ref["train_loss"]):
                checks.append(f"train_loss {loss:.6f} differs from reference {ref['train_loss']:.6f}")
    else:
        pct = result["agreement_pct"]
        if pct < AGREEMENT_MIN_PCT:
            checks.append(f"eval labels agree with the library forward on {pct:.2f}% of frames")
        if ref is not None:
            pct = agreement_pct(result["predictions"], ref["predictions"])
            if pct < AGREEMENT_MIN_PCT:
                checks.append(f"eval labels agree with the stored reference on {pct:.2f}% of frames")
        report["eval_agreement_pct"] = [pct, "%"]
        report["agreement_vs_stored_reference"] = [int(ref is not None), "bool"]
    return metrics, report, result


def per_layer(wl, child: Child, checks: list[str]) -> tuple[dict, dict, dict]:
    """Untraced run, then traced run with the memory probe; per-layer metrics."""
    base = child.run("measure", "--seconds", str(child.seconds))
    traced = child.run("measure", "--seconds", str(child.seconds), "--traced")
    ops = traced["trace_ops"]
    med = {key: statistics.median(op[key] for op in ops) for key in ops[0]}
    calls = traced["call_seconds"]
    probe = traced["probe"]
    retained = {}
    for frames, nbytes in probe["retained"]:
        retained.setdefault(frames, nbytes)
    lengths = sorted(retained)
    values = {
        **med,
        "tensor.graph_retained_mib": retained[lengths[-1]] / 2**20,
        "data.feature_mib_read": traced["feature_mib_per_load"],
        "trace.overhead_pct": 100.0 * (best_throughput(best_pass(base)[0])
                                       / best_throughput(best_pass(traced)[0]) - 1.0),
        "net.save_checkpoint_s": probe["save_checkpoint_s"],
    }
    for span in ("data.load_dataset", "net.init_params", "net.load_checkpoint",
                 "metrics.evaluate_corpus", "viz.render_timeline"):
        values[span + "_s"] = statistics.median(calls[span]) if calls.get(span) else 0.0
    if wl.kind == "train":
        values["trainer.step_other_s"] = statistics.median(
            op_s - (op["net.forward_s"] + op["losses.total_s"] + op["tensor.backward_s"]
                    + op["tensor.adam_s"])
            for op_s, op in zip((op["seconds"] for op in measured(traced)), ops))
    report = {name: [value, unit_of(name)] for name, value in sorted(values.items())}
    if len(lengths) == 2:
        t0, t1 = lengths
        report["tensor.graph_bytes_per_frame"] = [(retained[t1] - retained[t0]) / (t1 - t0), "B"]
    for t in lengths:
        report[f"tensor.graph_retained_mib@T={t}"] = [retained[t] / 2**20, "MiB"]
        report[f"c03.attention_entries@T={t}"] = [probe["c03_attention_entries"][str(t)], "count"]
    metrics = {name: values[name] for name in PER_LAYER_UNITS}
    check_exact_counts(wl.name, exact_counts(wl, traced), checks)
    checks.extend(f"untraced {failure}" for failure in base["failures"])
    return metrics, report, traced


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    return "MiB" if "_mib" in metric else "count"


def exact_counts(wl, traced: dict) -> dict:
    """Counts that must repeat exactly; a count that differs between the
    operations of one run is returned as the sorted list of its values."""
    names = ["tensor.nodes_per_step", "attention.nodes"]
    if wl.kind == "eval":
        names += ["net.forward_calls_per_video", "net.checkpoint_loads"]
    counts = {}
    for name in names:
        values = sorted({int(op[name]) for op in traced["trace_ops"]})
        counts[name] = values[0] if len(values) == 1 else values
    return counts


def check_exact_counts(workload: str, counts: dict, checks: list[str]):
    """Exact counts must repeat across operations and across runs of the
    same source; the first run of a source records them, later runs compare."""
    for name, value in counts.items():
        if isinstance(value, list):
            checks.append(f"{name} differs between operations of one run: {value}")
    digest = src_digest()
    stored = load_reference().get("exact_counts", {})
    if stored.get("src_digest") == digest and workload in stored:
        for key, value in stored[workload].items():
            if counts.get(key) != value:
                checks.append(f"{key} = {counts.get(key)} but the stored reference for this "
                              f"source is {value}")
    cache = ROOT / ".perfbench_work" / "exact_counts.json"
    seen = json.loads(cache.read_text()) if cache.exists() else {}
    previous = seen.setdefault(digest, {}).get(workload)
    if previous is None:
        seen[digest][workload] = counts
        cache.write_text(json.dumps(seen, indent=1, sort_keys=True))
    elif previous != counts:
        checks.append(f"exact counts {counts} differ from an earlier run of this source: {previous}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WL.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tut" / "__init__.py").exists():
        print(f"error: no tut sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WL.WORKLOADS[args.workload]
    started = time.monotonic()
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    child = Child(args.workload, args.seed, args.seconds, work, started + TIME_LIMIT_S)
    checks: list[str] = []
    try:
        child.run("prepare")
        if args.trace:
            metrics, report, result = per_layer(wl, child, checks)
            units = PER_LAYER_UNITS
            shutil.copy(work / "spans.json", results / f"{args.workload}-seed{args.seed}-spans.json")
        else:
            metrics, report, result = end_to_end(wl, args.seed, child, checks)
            units = END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.extend(result["failures"])
    environment = {**result["environment"], "git_commit": git_commit(),
                   "src_digest": src_digest(), "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace}
    correct = not checks
    full = {"workload": args.workload, "environment": environment, "correct": correct,
            "checks": checks, "metrics": report, "ops": result["ops"]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{'correct' if correct else 'INCORRECT'} in {time.monotonic() - started:.1f} s")
    for check in checks:
        print(f"  check failed: {check}")
    for name, (value, unit) in report.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print("report: " + json.dumps({"environment": environment, "metrics": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
