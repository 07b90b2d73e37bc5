"""Dataset ingestion and generation.

On-disk layout (drop-in for the common action-segmentation bundles):

    root/mapping.txt          "<id> <class-name>" per line
    root/groundTruth/<v>.txt  one class name per frame line
    root/features/<v>.feat    binary matrix, format below
    root/splits/<s>.bundle    video ids, one per line (".txt" suffixes ok)

Feature files are self-describing: magic ``TUTFEAT1``, u32 rank (= 2),
two u64 dims (T, d), then little-endian float32 row-major payload.

The temporal sample rate is applied while reading: ``read_features(path,
k)`` copies every k-th row into the one array the model consumes, reading
the payload in chunks of about ``CHUNK_BYTES``, so a strided load never
holds the full-rate matrix. ``load_dataset(..., stride=k)`` builds the
strided samples and records their source length for upsampling.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError

log = logging.getLogger(__name__)

FEATURE_MAGIC = b"TUTFEAT1"
HEADER_BYTES = 28  # magic, u32 rank, two u64 dims
CHUNK_BYTES = 1 << 20  # payload bytes per read when only every k-th row is kept


@dataclass
class ClassMapping:
    names: list[str]  # index == class id

    def __post_init__(self):
        self.ids = {name: i for i, name in enumerate(self.names)}

    @property
    def num_classes(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        if name not in self.ids:
            raise DatasetError(f"unknown class name {name!r}")
        return self.ids[name]

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]


@dataclass
class VideoSample:
    video_id: str
    features: np.ndarray  # (T, d) float32
    labels: np.ndarray  # (T,) int
    fps: float = 15.0
    source_len: int | None = None  # original length before temporal striding
    stride: int = 1  # source frames per kept frame

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise DatasetError(
                f"{self.video_id}: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels"
            )

    @property
    def num_frames(self) -> int:
        return self.labels.shape[0]


@dataclass
class SynthSpec:
    num_classes: int = 4
    num_videos: int = 8
    min_len: int = 128
    max_len: int = 256
    min_segments: int = 3
    max_segments: int = 8
    feature_dim: int = 16
    noise: float = 0.25
    seed: int = 0

    def validate(self):
        if min(self.num_classes, self.num_videos, self.min_len, self.feature_dim) < 1:
            raise DatasetError("synthetic spec fields must be positive")
        if self.min_len > self.max_len or self.min_segments > self.max_segments:
            raise DatasetError("synthetic spec ranges are inverted")


# ---------------------------------------------------------------------------
# feature container


def write_features(path, array: np.ndarray):
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim != 2:
        raise DatasetError(f"feature matrices are 2-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", 2))
        fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def _check_header(fh, path) -> tuple[int, int]:
    """Check the magic, the rank and the file size; return (T, d)."""
    header = fh.read(HEADER_BYTES)
    if not FEATURE_MAGIC.startswith(header[:8]):  # a cut inside the magic is a truncation
        raise DatasetError(f"{path}: bad feature magic")
    if len(header) < HEADER_BYTES:
        raise DatasetError(f"{path}: truncated header ({len(header)} < {HEADER_BYTES} bytes)")
    rank, t, d = struct.unpack_from("<IQQ", header, 8)
    if rank != 2:
        raise DatasetError(f"{path}: expected rank 2, got {rank}")
    size = os.fstat(fh.fileno()).st_size
    expected = HEADER_BYTES + 4 * t * d
    if size != expected:
        raise DatasetError(f"{path}: file is {size} bytes, its header says {expected}")
    return t, d


def read_features(path, stride: int = 1) -> np.ndarray:
    """Read every ``stride``-th row of a feature file into one
    ``(ceil(T / stride), d)`` array; the header and the file size are checked
    before it is allocated. At stride 1 the payload is read straight into
    it; otherwise it passes through a buffer of at most ``CHUNK_BYTES`` (or
    ``stride`` rows), so the full-rate matrix is never held."""
    with open(path, "rb") as fh:
        t, d = _check_header(fh, path)
        out = np.empty((-(-t // stride), d), dtype="<f4")
        if stride == 1:
            if fh.readinto(out) != out.nbytes:
                raise DatasetError(f"{path}: file shrank while reading")
            return out
        group = stride * max(1, CHUNK_BYTES // max(1, 4 * d * stride))  # rows per read
        buf = np.empty((min(group, t), d), dtype="<f4")
        for start in range(0, t, group):
            rows = buf[: min(group, t - start)]
            if fh.readinto(rows) != rows.nbytes:
                raise DatasetError(f"{path}: file shrank while reading")
            kept = rows[::stride]
            out[start // stride : start // stride + kept.shape[0]] = kept
    return out


def import_numpy_features(src, dst, transpose: bool = False):
    """Convert a .npy dump (optionally stored (d, T)) into the native format."""
    arr = np.load(src)
    if transpose:
        arr = arr.T
    write_features(dst, arr)


# ---------------------------------------------------------------------------
# loading


def read_mapping(path) -> ClassMapping:
    entries: dict[int, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or not parts[0].isdigit():
                raise DatasetError(f"{path}:{lineno}: malformed mapping line {line!r}")
            entries[int(parts[0])] = parts[1]
    if sorted(entries) != list(range(len(entries))):
        raise DatasetError(f"{path}: class ids must be contiguous from 0")
    return ClassMapping([entries[i] for i in range(len(entries))])


def _clean_video_id(raw: str) -> str:
    vid = raw.strip()
    return vid[:-4] if vid.endswith(".txt") else vid


def load_dataset(
    root, split_file, fps: float = 15.0, stride: int = 1
) -> tuple[list[VideoSample], ClassMapping]:
    """Load every video listed in a split bundle, keeping every
    ``stride``-th frame.

    Feature/label length mismatches are resolved by truncating both to the
    shorter source length (with a warning) before striding; a missing
    feature file or an unknown class name is an error. A strided sample
    records its source length, so predictions can be restored to it.
    """
    root = Path(root)
    mapping = read_mapping(root / "mapping.txt")
    split_path = Path(split_file)
    if not split_path.is_absolute():
        split_path = root / split_file
    video_ids = [
        _clean_video_id(line)
        for line in split_path.read_text().splitlines()
        if line.strip()
    ]
    if not video_ids:
        raise DatasetError(f"split {split_path} lists no videos")
    samples = []
    for vid in video_ids:
        feat_path = root / "features" / f"{vid}.feat"
        if not feat_path.exists():
            raise DatasetError(f"missing feature file {feat_path}")
        features = read_features(feat_path, stride)
        with open(feat_path, "rb") as fh:
            frames = _check_header(fh, feat_path)[0]  # source rows, before striding
        gt_path = root / "groundTruth" / f"{vid}.txt"
        if not gt_path.exists():
            raise DatasetError(f"missing ground-truth file {gt_path}")
        names = [line.strip() for line in gt_path.read_text().splitlines() if line.strip()]
        labels = np.array([mapping.id_of(name) for name in names], dtype=np.int64)
        keep = min(labels.shape[0], frames)
        if labels.shape[0] != frames:
            log.warning(
                "%s: %d labels vs %d feature rows, truncating to %d",
                vid, labels.shape[0], frames, keep,
            )
            labels = labels[:keep]
            features = features[: -(-keep // stride)]
        samples.append(VideoSample(
            vid, features, labels[::stride], fps=fps,
            source_len=keep if stride > 1 else None, stride=stride,
        ))
    return samples, mapping


# ---------------------------------------------------------------------------
# restoring the source rate


def upsample_predictions(labels, factor: int, original_len: int) -> np.ndarray:
    """Repeat each prediction ``factor`` times, then trim or extend-by-last."""
    labels = np.asarray(labels)
    out = np.repeat(labels, factor)
    if out.shape[0] >= original_len:
        return out[:original_len]
    pad = np.full(original_len - out.shape[0], out[-1] if out.size else 0, dtype=out.dtype)
    return np.concatenate([out, pad])


# ---------------------------------------------------------------------------
# synthetic data


def class_prototypes(spec: SynthSpec) -> np.ndarray:
    """Unit-norm prototype per class, deterministic in the spec seed."""
    rng = np.random.default_rng(spec.seed)
    protos = rng.standard_normal((spec.num_classes, spec.feature_dim))
    return protos / np.linalg.norm(protos, axis=1, keepdims=True)


def generate_synthetic(spec: SynthSpec) -> tuple[list[VideoSample], ClassMapping]:
    """Segment-structured videos around noisy class prototypes.

    Adjacent segments never share a class, and with zero noise every frame's
    nearest prototype is its true class, so the set is perfectly separable.
    """
    spec.validate()
    mapping = ClassMapping([f"class{str(i).zfill(2)}" for i in range(spec.num_classes)])
    protos = class_prototypes(spec)
    rng = np.random.default_rng(spec.seed)
    samples = []
    for v in range(spec.num_videos):
        t = int(rng.integers(spec.min_len, spec.max_len + 1))
        max_segments = min(spec.max_segments, t)
        n_seg = int(rng.integers(spec.min_segments, max_segments + 1))
        cuts = np.sort(rng.choice(np.arange(1, t), size=n_seg - 1, replace=False)) if n_seg > 1 else []
        bounds = [0, *cuts, t]
        labels = np.empty(t, dtype=np.int64)
        prev = -1
        for s in range(n_seg):
            choices = [c for c in range(spec.num_classes) if c != prev]
            cls = int(rng.choice(choices))
            labels[bounds[s] : bounds[s + 1]] = cls
            prev = cls
        noise = rng.standard_normal((t, spec.feature_dim)) * spec.noise
        features = (protos[labels] + noise).astype(np.float32)
        samples.append(VideoSample(f"synth{str(v).zfill(3)}", features, labels))
    return samples, mapping


def write_dataset(root, samples: list[VideoSample], mapping: ClassMapping, splits=None):
    """Materialize samples in the on-disk layout (used by the synth command)."""
    root = Path(root)
    (root / "groundTruth").mkdir(parents=True, exist_ok=True)
    (root / "features").mkdir(exist_ok=True)
    (root / "splits").mkdir(exist_ok=True)
    with open(root / "mapping.txt", "w") as fh:
        for i, name in enumerate(mapping.names):
            fh.write(f"{i} {name}\n")
    for sample in samples:
        write_features(root / "features" / f"{sample.video_id}.feat", sample.features)
        with open(root / "groundTruth" / f"{sample.video_id}.txt", "w") as fh:
            for label in sample.labels:
                fh.write(mapping.name_of(int(label)) + "\n")
    if splits is None:
        splits = {"all": [s.video_id for s in samples]}
    for name, ids in splits.items():
        (root / "splits" / f"{name}.bundle").write_text("".join(f"{v}\n" for v in ids))
