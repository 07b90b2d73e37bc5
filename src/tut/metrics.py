"""Segmentation metrics: frame accuracy, segmental edit score, and
segmental F1 at frame-IoU thresholds, per video and pooled over a corpus.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

DEFAULT_THRESHOLDS = (0.1, 0.25, 0.5)


@dataclass
class Segment:
    label: object
    start: int  # inclusive
    end: int  # inclusive

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass
class EvalReport:
    acc: float
    edit: float
    f1: dict[float, float]
    per_video: list["EvalReport"] = field(default_factory=list)
    per_video_f1: dict[float, float] | None = None  # averaged alternative to pooling

    def as_rows(self) -> list[tuple[str, str, float]]:
        rows = [("acc", "", self.acc), ("edit", "", self.edit)]
        rows += [("f1", f"{tau:g}", val) for tau, val in sorted(self.f1.items())]
        return rows


def extract_segments(labels) -> list[Segment]:
    """Run-length encode a label sequence into (class, start, end) segments.

    A segment's label is the sequence's own element at its start, so it
    keeps that element's type (a numpy scalar from an array, the object
    itself from any other sequence)."""
    if not isinstance(labels, np.ndarray):  # compare python elements as python does
        labels = np.fromiter(labels, dtype=object)
    if len(labels) == 0:
        return []
    starts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()]
    ends = [s - 1 for s in starts[1:]] + [len(labels) - 1]
    return [Segment(labels[s], s, e) for s, e in zip(starts, ends)]


def frame_accuracy(pred, gt) -> float:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"length mismatch: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        return 100.0
    return 100.0 * float(np.mean(pred == gt))


def _label_codes(*label_lists) -> list[np.ndarray]:
    """Each list of hashable labels as int64 codes: one code per distinct
    label (by hash and equality) shared across all the lists, so codes
    compare exactly as the labels do."""
    codes: dict = {}
    return [
        np.array([codes.setdefault(x, len(codes)) for x in labels], dtype=np.int64)
        for labels in label_lists
    ]


def _levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Edit distance between two ``_label_codes`` sequences, one DP row
    per element of the shorter: substitutions and deletions are vector ops
    over the longer, and the insertion chain ``cur[j] = min(cur[j],
    cur[j - 1] + 1)`` is a running minimum of ``cur[j] - j``."""
    if len(a) > len(b):
        a, b = b, a
    if not len(a):
        return len(b)
    steps = np.arange(len(b) + 1)
    prev = steps
    cur = np.empty_like(steps)
    for i, code in enumerate(a.tolist(), start=1):
        cur[0] = i
        np.minimum(prev[:-1] + (b != code), prev[1:] + 1, out=cur[1:])
        prev = np.minimum.accumulate(cur - steps) + steps
    return int(prev[-1])


def _kept_segments(labels, ignored_classes) -> list[Segment]:
    return [s for s in extract_segments(labels) if s.label not in ignored_classes]


def _coded_segments(pred, gt, ignored_classes):
    """The kept segments of both label sequences and their labels as
    shared ``_label_codes``, which the edit distance and the IoU matrix
    both read."""
    pred_segs = _kept_segments(pred, ignored_classes)
    gt_segs = _kept_segments(gt, ignored_classes)
    p_codes, g_codes = _label_codes([s.label for s in pred_segs], [s.label for s in gt_segs])
    return pred_segs, gt_segs, p_codes, g_codes


def _edit_from_codes(p_codes: np.ndarray, g_codes: np.ndarray) -> float:
    if not len(p_codes) and not len(g_codes):
        return 100.0
    return 100.0 * (1.0 - _levenshtein(p_codes, g_codes) / max(len(p_codes), len(g_codes)))


def edit_score(pred, gt, ignored_classes=()) -> float:
    """100 * (1 - normalized Levenshtein between segment-class sequences)."""
    return _edit_from_codes(*_coded_segments(pred, gt, ignored_classes)[2:])


def _segment_ious(pred_segs, gt_segs, p_codes, g_codes) -> np.ndarray:
    """(P, G) frame IoU of every prediction/ground-truth pair of one class;
    -inf where the classes differ, so no threshold admits the pair."""

    def bounds(segs):  # start and end, each as a column
        rows = [(s.start, s.end) for s in segs]
        return np.array(rows, dtype=np.int64).reshape(-1, 2).T[:, :, None]

    p_start, p_end = bounds(pred_segs)
    g_start, g_end = (c.T for c in bounds(gt_segs))
    inter = np.minimum(p_end, g_end) - np.maximum(p_start, g_start) + 1
    union = np.maximum(p_end, g_end) - np.minimum(p_start, g_start) + 1
    ious = np.where(inter > 0, inter / union, 0.0)
    ious[p_codes[:, None] != g_codes[None, :]] = -np.inf
    return ious


def f1_counts(pred, gt, threshold: float, ignored_classes=()) -> tuple[int, int, int]:
    """Greedy TP/FP/FN counts.

    Predicted segments are scanned in temporal order; each one takes its
    best-IoU same-class ground-truth segment among those not yet matched
    (first index wins ties) and counts as a true positive iff that IoU
    reaches the threshold, consuming the ground-truth segment. Every
    unmatched ground-truth segment is a false negative.
    """
    return _match_counts(_segment_ious(*_coded_segments(pred, gt, ignored_classes)), threshold)


def _match_counts(ious: np.ndarray, threshold: float) -> tuple[int, int, int]:
    """Greedy TP/FP/FN from a ``_segment_ious`` matrix, as ``f1_counts``
    describes. A prediction whose best IoU over every same-class segment
    misses the threshold is a false positive whatever was matched before
    it, so only the other rows are scanned, in order."""
    n_pred, n_gt = ious.shape
    if n_gt == 0:
        return 0, n_pred, 0
    rows = np.flatnonzero(ious.max(axis=1) >= threshold)
    taken = np.zeros(n_gt)  # -inf once a ground-truth segment is matched
    tp = 0
    for row in rows:
        open_ious = ious[row] + taken
        best = int(np.argmax(open_ious))  # the first index wins ties
        if open_ious[best] >= threshold:
            taken[best] = -np.inf
            tp += 1
    return tp, n_pred - tp, n_gt - tp


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 200.0 * precision * recall / (precision + recall)


def f1_overlap(pred, gt, threshold: float, ignored_classes=()) -> float:
    return _f1_from_counts(*f1_counts(pred, gt, threshold, ignored_classes))


def _evaluate_video(pred, gt, thresholds, ignored_classes):
    """One video's report and its TP/FP/FN counts per threshold, read from
    one segmentation of each label sequence and one IoU matrix."""
    pred_segs, gt_segs, p_codes, g_codes = _coded_segments(pred, gt, ignored_classes)
    ious = _segment_ious(pred_segs, gt_segs, p_codes, g_codes)
    counts = {tau: _match_counts(ious, tau) for tau in thresholds}
    report = EvalReport(
        acc=frame_accuracy(pred, gt),
        edit=_edit_from_codes(p_codes, g_codes),
        f1={tau: _f1_from_counts(*counts[tau]) for tau in thresholds},
    )
    return report, counts


def evaluate(pred, gt, thresholds=DEFAULT_THRESHOLDS, ignored_classes=()) -> EvalReport:
    return _evaluate_video(pred, gt, thresholds, ignored_classes)[0]


def evaluate_corpus(
    pairs: list[tuple], thresholds=DEFAULT_THRESHOLDS, ignored_classes=()
) -> EvalReport:
    """Corpus metrics: frame-pooled accuracy, per-video-averaged edit,
    TP/FP/FN-pooled F1 (per-video-averaged F1 kept alongside)."""
    per_video = []
    correct = total = 0
    pooled = {tau: [0, 0, 0] for tau in thresholds}
    for pred, gt in pairs:
        report, counts = _evaluate_video(pred, gt, thresholds, ignored_classes)
        per_video.append(report)
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        correct += int(np.sum(pred == gt))
        total += len(gt)
        for tau in thresholds:
            for i, n in enumerate(counts[tau]):
                pooled[tau][i] += n
    return EvalReport(
        acc=100.0 * correct / total if total else 100.0,
        edit=float(np.mean([r.edit for r in per_video])) if per_video else 100.0,
        f1={tau: _f1_from_counts(*pooled[tau]) for tau in thresholds},
        per_video=per_video,
        per_video_f1={
            tau: float(np.mean([r.f1[tau] for r in per_video])) if per_video else 0.0
            for tau in thresholds
        },
    )


def report_csv(report: EvalReport) -> str:
    """Machine-readable "metric,threshold,value" rows."""
    buf = io.StringIO()
    buf.write("metric,threshold,value\n")
    for metric, threshold, value in report.as_rows():
        buf.write(f"{metric},{threshold},{value:.4f}\n")
    return buf.getvalue()


def report_table(report: EvalReport) -> str:
    """Human-readable one-line-per-metric table."""
    lines = [f"{'acc':<8}{report.acc:8.2f}", f"{'edit':<8}{report.edit:8.2f}"]
    for tau in sorted(report.f1):
        lines.append(f"f1@{int(round(tau * 100)):<5}{report.f1[tau]:8.2f}")
    return "\n".join(lines)
