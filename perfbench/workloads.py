"""Workload definitions and the synthetic inputs each one runs on.

Inputs are written in the dataset layout the program documents
(``mapping.txt``, ``groundTruth/``, ``features/*.feat``, ``splits/``), so
the program under test only ever receives files. Everything here is
deterministic in the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

FEATURE_DIM = 2048
PROTOTYPE_SEED = 20220527  # class prototypes are shared by every seed and workload
CHECKPOINT_SEED = 7  # the eval checkpoint does not depend on the workload seed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    preset: str
    classes: int
    source_lengths: tuple[int, ...]  # frames per video before the preset's stride
    stride: int
    warmup_ops: int  # operations run before measuring starts
    loss_steps: int  # train_loss averages the first this-many steps
    min_measured: int  # measured operations before a run may stop
    align: bool  # stop only at the end of a pass over every video
    why: str


def _spread(lo: int, hi: int, count: int) -> tuple[int, ...]:
    return tuple(lo + round((hi - lo) * i / (count - 1)) for i in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_long",
            kind="train",
            preset="50salads",
            classes=19,
            # one fixed length keeps the step-time median comparable across seeds;
            # the traced run's memory probe covers the length dependence
            source_lengths=(2000,) * 4,
            stride=2,
            warmup_ops=2,
            loss_steps=4,
            min_measured=4,
            align=False,
            why="50salads geometry at T=1000: attention backward and the gather_rows "
            "scatter dominate; fused attention, scatter-free resampling and graph memory show here",
        ),
        Workload(
            name="train_short",
            kind="train",
            preset="gtea",
            classes=11,
            # three videos per length: the fastest repeat per length needs repeats
            source_lengths=_spread(48, 160, 8) * 3,
            stride=1,
            warmup_ops=24,
            loss_steps=24,
            min_measured=100,
            align=True,
            why="gtea geometry on 48-160 frame videos: node count, backward dispatch, Adam "
            "and loss terms dominate; a kernel that adds per-call cost shows up as a loss here",
        ),
        Workload(
            name="eval_upsample",
            kind="eval",
            preset="50salads",
            classes=19,
            source_lengths=_spread(2000, 4000, 3) * 2,
            stride=2,
            warmup_ops=1,
            loss_steps=0,
            min_measured=12,
            align=True,
            why="tut eval --upsample on 2k-4k source frames: forward only, so backward and "
            "Adam changes read no change; checkpoint load, data, metrics and viz do their work here",
        ),
    )
}

# Lengths (after the stride) of the traced run's graph-memory probe; the two
# train_long lengths give the retained bytes per frame.
MEMORY_PROBE_LENGTHS = {"train_long": (512, 1024), "train_short": (104,), "eval_upsample": (1500,)}


def video_ids(count: int, prefix: str = "vid") -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(count)]


def _labels(rng, length: int, classes: int):
    """Segment-structured labels; one cut always sits mid-video so every
    video has a boundary frame with a full attention window."""
    import numpy as np

    n_seg = int(rng.integers(3, 9))
    lo, hi = max(1, length // 10), max(2, length - length // 10)
    cuts = set(rng.choice(np.arange(lo, hi), size=n_seg - 2, replace=False).tolist())
    cuts.add(length // 2)
    bounds = [0, *sorted(cuts), length]
    labels = np.empty(length, dtype=np.int64)
    prev = -1
    for s in range(len(bounds) - 1):
        cls = int(rng.integers(0, classes - 1))
        cls = cls + 1 if cls >= prev >= 0 else cls  # never repeat the previous class
        labels[bounds[s] : bounds[s + 1]] = cls
        prev = cls
    return labels


def write_videos(root: Path, seed: int, classes: int, lengths, prefix: str = "vid") -> list[str]:
    """Write one video per length plus mapping.txt; returns the video ids."""
    import numpy as np

    from tut.data import write_features

    root = Path(root)
    for sub in ("groundTruth", "features", "splits"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    names = [f"action{c:02d}" for c in range(classes)]
    (root / "mapping.txt").write_text("".join(f"{i} {n}\n" for i, n in enumerate(names)))
    protos = np.random.default_rng(PROTOTYPE_SEED).standard_normal(
        (classes, FEATURE_DIM), dtype=np.float32
    )
    rng = np.random.default_rng(seed)
    ids = video_ids(len(lengths), prefix)
    for vid, length in zip(ids, lengths):
        labels = _labels(rng, int(length), classes)
        noise = rng.standard_normal((int(length), FEATURE_DIM), dtype=np.float32)
        write_features(root / "features" / f"{vid}.feat", protos[labels] + noise)
        (root / "groundTruth" / f"{vid}.txt").write_text(
            "".join(names[c] + "\n" for c in labels)
        )
    return ids


def write_split(root: Path, name: str, ids) -> str:
    rel = f"splits/{name}.bundle"
    (Path(root) / rel).write_text("".join(f"{v}\n" for v in ids))
    return rel
