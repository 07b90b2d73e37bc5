"""Dataset ingestion and generation.

On-disk layout (drop-in for the common action-segmentation bundles):

    root/mapping.txt          "<id> <class-name>" per line
    root/groundTruth/<v>.txt  one class name per frame line
    root/features/<v>.feat    binary matrix, format below
    root/splits/<s>.bundle    video ids, one per line (".txt" suffixes ok)

Feature files are self-describing: magic ``TUTFEAT1``, u32 rank (= 2),
two u64 dims (T, d), then little-endian float32 row-major payload.

A dataset is read one video at a time. ``load_dataset`` reads the labels
and, of each feature file, only the 28-byte header: it checks the magic,
the rank and the file size there, so a damaged file fails the load. The
samples it returns hold no features; each time a forward needs a sample's
rows they are read again, so training and evaluation hold one video's
features at a time. A file whose header or size changed since the load
raises ``DatasetError`` naming it when it is read.

The temporal sample rate is applied while reading, and one block loop
(``_read_blocks``) reads every payload byte. ``read_features(path, k)``
copies every k-th row into the one array training consumes
(``VideoSample.load_features``); at stride 1 it reads straight into it, and
otherwise through a buffer of about ``CHUNK_BYTES``, so a strided read
never holds the full-rate matrix. A forward-only pass hands
``net.model_forward`` the sample itself, a row source: its
``blocks(size)`` yields the same rows block by block (strided views of
one reused buffer), which stage 0 projects as they arrive, so the (T, d)
matrix never exists whole. ``load_dataset(..., stride=k)`` builds the
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
CHUNK_BYTES = 1 << 20  # payload bytes per read_features read when only every k-th row is kept


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
    """One video's labels and its features: held in ``features``, or, for a
    sample ``load_dataset`` built, read from ``path`` on each use. A sample
    is a row source of ``shape == (num_frames, feature_dim)``: ``blocks``
    yields the rows ``load_features`` returns, block by block."""

    video_id: str
    features: np.ndarray | None  # (T, d) float32; None when read from `path`
    labels: np.ndarray  # (T,) int
    source_len: int | None = None  # original length before temporal striding
    stride: int = 1  # source frames per kept frame
    path: Path | None = None  # feature file read by load_features
    file_shape: tuple[int, int] | None = None  # (T, d) in its header at load time

    def __post_init__(self):
        if self.features is not None and self.features.shape[0] != self.labels.shape[0]:
            raise DatasetError(
                f"{self.video_id}: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels"
            )

    @property
    def num_frames(self) -> int:
        return self.labels.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1] if self.features is not None else self.file_shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.num_frames, self.feature_dim

    def load_features(self) -> np.ndarray:
        """The ``(num_frames, d)`` float32 matrix a training forward consumes:
        the held array, or every ``stride``-th row of ``path``, read now. A
        file that no longer has the header or size the load checked raises
        ``DatasetError`` naming it."""
        if self.features is not None:
            return self.features
        return read_features(self.path, self.stride, shape=self.file_shape)[: self.num_frames]

    def blocks(self, size: int):
        """Yield ``(start, rows)`` of the rows ``load_features`` returns, at
        ``_block_bounds(num_frames, size)``: a slice of the held array, or a
        float32 view of one reused buffer (strided when ``stride > 1``)
        valid until the next block. A file whose header or size changed
        since the load raises ``DatasetError`` naming it."""
        if self.features is not None:
            for start, stop in _block_bounds(self.num_frames, size):
                yield start, self.features[start:stop]
            return
        with open(self.path, "rb") as fh:
            shape = _check_header(fh, self.path, self.file_shape)
            yield from _read_blocks(fh, self.path, shape, self.stride, self.num_frames, size)


@dataclass(frozen=True)
class SynthSpec:
    """Frozen; a spec that cannot be generated raises ``DatasetError``: a
    size below 1, an inverted range, more segments than the shortest video
    has frames, a second segment with one class (adjacent segments differ),
    a noise that is not finite or a negative seed."""

    num_classes: int = 4
    num_videos: int = 8
    min_len: int = 128
    max_len: int = 256
    min_segments: int = 3
    max_segments: int = 8
    feature_dim: int = 16
    noise: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if min(self.num_classes, self.num_videos, self.min_len, self.feature_dim) < 1:
            raise DatasetError("synthetic spec fields must be positive")
        if self.min_len > self.max_len or self.min_segments > self.max_segments:
            raise DatasetError("synthetic spec ranges are inverted")
        if not 1 <= self.min_segments <= self.min_len:
            raise DatasetError(
                f"min_segments must lie in [1, min_len={self.min_len}], got {self.min_segments}"
            )
        if self.num_classes == 1 and self.max_segments > 1:
            raise DatasetError("one class gives one segment: adjacent segments differ in class")
        if not np.isfinite(self.noise):
            raise DatasetError(f"noise must be finite, got {self.noise}")
        if self.seed < 0:
            raise DatasetError(f"seed must be >= 0, got {self.seed}")


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


def _check_header(fh, path, shape: tuple[int, int] | None = None) -> tuple[int, int]:
    """Check the magic, the rank, the file size and, when given, that the
    header holds ``shape``; return (T, d)."""
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
    if shape is not None and (t, d) != tuple(shape):
        raise DatasetError(
            f"{path}: header now says (T, d) = {(t, d)}, it said {tuple(shape)} "
            "when the dataset was loaded"
        )
    return t, d


def _block_bounds(rows: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of ``size`` rows covering
    ``rows``; a tail shorter than half a block joins the block before it."""
    starts = list(range(0, rows, size))
    if len(starts) > 1 and 2 * (rows - starts[-1]) < size:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def _read_blocks(fh, path, shape: tuple[int, int], stride: int, rows: int, size: int, out=None):
    """Read every ``stride``-th row of the (T, d) ``shape`` payload after
    ``fh``'s header, the first ``rows`` of them, and yield ``(start, kept)``
    per block of ``size`` kept rows (``_block_bounds``). Each block reads
    its source rows in one ``readinto``: into ``out[start:stop]`` when
    ``out`` is given (stride 1 only), else into one reused buffer, of which
    ``kept`` is a strided view. A short read raises ``DatasetError`` naming
    ``path``."""
    t, d = shape
    bounds = _block_bounds(rows, size)
    if out is None and bounds:
        longest = max(stop - start for start, stop in bounds) * stride
        buf = np.empty((min(longest, t), d), dtype="<f4")
    for start, stop in bounds:
        if out is not None:
            chunk = kept = out[start:stop]
        else:
            chunk = buf[: min(stop * stride, t) - start * stride]
            kept = chunk[::stride]
        if fh.readinto(chunk) != chunk.nbytes:
            raise DatasetError(f"{path}: file shrank while reading")
        yield start, kept


def read_features(path, stride: int = 1, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Read every ``stride``-th row of a feature file into one
    ``(ceil(T / stride), d)`` array; the header and the file size are checked
    before it is allocated, and so is ``shape``, the (T, d) the header must
    hold, when given. At stride 1 the payload is read straight into it, in
    one block; otherwise it passes through a buffer of ``CHUNK_BYTES`` (at
    least ``stride`` rows; half as much again when a short tail joins the
    last block), so the full-rate matrix is never held."""
    with open(path, "rb") as fh:
        t, d = _check_header(fh, path, shape)
        out = np.empty((-(-t // stride), d), dtype="<f4")
        if stride == 1:
            into, size = out, max(len(out), 1)
        else:
            into, size = None, max(1, CHUNK_BYTES // max(1, 4 * d * stride))
        for start, kept in _read_blocks(fh, path, (t, d), stride, len(out), size, into):
            if into is None:
                out[start : start + len(kept)] = kept
    return out


def import_numpy_features(src, dst, transpose: bool = False):
    """Convert a .npy dump (optionally stored (d, T)) into the native format.
    A source that is not a .npy file of a 2-D numeric array raises DatasetError."""
    try:
        with open(src, "rb") as fh:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise DatasetError(f"{src}: cannot read .npy features: {reason}") from None
    if arr.dtype.kind not in "biuf" or arr.ndim != 2:
        raise DatasetError(f"{src}: expected a 2-D array of numbers, got {arr.ndim}-D {arr.dtype}")
    if transpose:
        arr = arr.T
    write_features(dst, arr)


# ---------------------------------------------------------------------------
# loading


def _read_text(path) -> str:
    """A text file of the layout, read as UTF-8 whatever the locale; a byte
    that is not UTF-8 raises ``DatasetError`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None


def read_mapping(path) -> ClassMapping:
    """Class names by id. A line that is not a decimal id and a name, an id
    or a name listed twice, and ids that are not 0..n-1 raise
    ``DatasetError`` naming the file (and the line)."""
    names: dict[int, str] = {}
    id_line: dict[int, int] = {}
    name_line: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[0].isdecimal():  # isdigit also passes "²"
            raise DatasetError(f"{path}:{lineno}: malformed mapping line {line!r}")
        class_id, name = int(parts[0]), parts[1]
        if class_id in id_line:
            raise DatasetError(f"{path}:{lineno}: class id {class_id} is listed again "
                               f"(first at line {id_line[class_id]})")
        if name in name_line:
            raise DatasetError(f"{path}:{lineno}: class name {name!r} is listed again "
                               f"(first at line {name_line[name]})")
        id_line[class_id] = name_line[name] = lineno
        names[class_id] = name
    if sorted(names) != list(range(len(names))):
        raise DatasetError(f"{path}: class ids must be contiguous from 0")
    return ClassMapping([names[i] for i in range(len(names))])


def _clean_video_id(raw: str) -> str:
    vid = raw.strip()
    return vid[:-4] if vid.endswith(".txt") else vid


def load_dataset(root, split_file, stride: int = 1) -> tuple[list[VideoSample], ClassMapping]:
    """Load every video listed in a split bundle, keeping every
    ``stride``-th frame.

    Each feature file is opened once, for its header and size; its rows are
    read by ``VideoSample.load_features`` when a forward needs them.
    Feature/label length mismatches are resolved by truncating both to the
    shorter source length (with a warning) before striding; a missing or
    damaged feature file, an unknown class name, or a feature file whose
    width differs from the first file's is an error. A strided
    sample records its source length, so predictions can be restored to it.
    """
    root = Path(root)
    mapping = read_mapping(root / "mapping.txt")
    split_path = Path(split_file)
    if not split_path.is_absolute():
        split_path = root / split_file
    video_ids = [
        _clean_video_id(line)
        for line in _read_text(split_path).splitlines()
        if line.strip()
    ]
    if not video_ids:
        raise DatasetError(f"split {split_path} lists no videos")
    samples = []
    for vid in video_ids:
        feat_path = root / "features" / f"{vid}.feat"
        if not feat_path.exists():
            raise DatasetError(f"missing feature file {feat_path}")
        with open(feat_path, "rb") as fh:
            frames, dim = _check_header(fh, feat_path)  # source rows, before striding
        if samples and dim != samples[0].feature_dim:
            raise DatasetError(
                f"{feat_path}: features are {dim} wide, not {samples[0].feature_dim} "
                f"as in {samples[0].path}"
            )
        gt_path = root / "groundTruth" / f"{vid}.txt"
        if not gt_path.exists():
            raise DatasetError(f"missing ground-truth file {gt_path}")
        labels = []
        for number, line in enumerate(_read_text(gt_path).splitlines(), 1):
            name = line.strip()
            if name:
                try:
                    labels.append(mapping.id_of(name))
                except DatasetError as exc:
                    raise DatasetError(f"{gt_path}:{number}: {exc}") from None
        labels = np.array(labels, dtype=np.int64)
        keep = min(labels.shape[0], frames)
        if labels.shape[0] != frames:
            log.warning(
                "%s: %d labels vs %d feature rows, truncating to %d",
                vid, labels.shape[0], frames, keep,
            )
            labels = labels[:keep]
        samples.append(VideoSample(
            vid, None, labels[::stride],
            source_len=keep if stride > 1 else None, stride=stride,
            path=feat_path, file_shape=(frames, dim),
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
    with open(root / "mapping.txt", "w", encoding="utf-8") as fh:
        for i, name in enumerate(mapping.names):
            fh.write(f"{i} {name}\n")
    for sample in samples:
        write_features(root / "features" / f"{sample.video_id}.feat", sample.load_features())
        with open(root / "groundTruth" / f"{sample.video_id}.txt", "w", encoding="utf-8") as fh:
            for label in sample.labels:
                fh.write(mapping.name_of(int(label)) + "\n")
    if splits is None:
        splits = {"all": [s.video_id for s in samples]}
    for name, ids in splits.items():
        (root / "splits" / f"{name}.bundle").write_text(
            "".join(f"{v}\n" for v in ids), encoding="utf-8"
        )
