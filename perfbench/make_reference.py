"""Regenerate reference.json: the outputs the benchmark checks its runs against.

    python3 perfbench/make_reference.py

For every workload it records the exact counts of the current source, and
for each seed in SEEDS the train workloads' ``train_loss`` and the eval
workload's upsampled labels; ``run.py`` then compares runs on those seeds
against them. It always rewrites every workload and seed together with the
source digest. Run it only when a change is meant to alter the program's
outputs, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import time

import workloads as WL
from run import DEFAULT_SECONDS, HERE, ROOT, Child, encode_labels, exact_counts, src_digest

SEEDS = range(10)  # the default workload seeds


def _run(wl: WL.Workload, seed: int, *flags: str) -> dict:
    """One prepare and one measured child, as a benchmark run makes them."""
    work = ROOT / ".perfbench_work" / f"reference-{wl.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        child = Child(wl.name, seed, DEFAULT_SECONDS, work, time.monotonic() + 600)
        child.run("prepare")
        result = child.run("measure", "--seconds", str(DEFAULT_SECONDS), *flags)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["failed"]:
        raise RuntimeError(f"{wl.name} seed {seed}: {result['failures']}")
    return result


def record(seed: int, wl: WL.Workload) -> dict:
    result = _run(wl, seed)
    if wl.kind == "train":
        losses = result["losses"][: wl.loss_steps]
        return {"train_loss": sum(losses) / len(losses)}
    return {"predictions": {vid: encode_labels(labels)
                            for vid, labels in sorted(result["predictions"].items())}}


def main() -> int:
    reference = {"exact_counts": {"src_digest": src_digest()}, "seeds": {}}
    for name, wl in WL.WORKLOADS.items():
        counts = exact_counts(wl, _run(wl, SEEDS[0], "--traced"))
        reference["exact_counts"][name] = counts
        print(f"{name}: exact counts {counts}", flush=True)
    for seed in SEEDS:
        for name, wl in WL.WORKLOADS.items():
            reference["seeds"].setdefault(str(seed), {})[name] = record(seed, wl)
            print(f"seed {seed} {name}: recorded", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
