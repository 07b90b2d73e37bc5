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


def _levenshtein(a: list, b: list) -> int:
    """Edit distance between two sequences of hashable labels, one DP row
    per element of the shorter: substitutions and deletions are vector ops
    over the longer, and the insertion chain ``cur[j] = min(cur[j],
    cur[j - 1] + 1)`` is a running minimum of ``cur[j] - j``."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    codes: dict = {}
    a_codes = [codes.setdefault(x, len(codes)) for x in a]
    b_codes = np.array([codes.setdefault(x, len(codes)) for x in b])
    steps = np.arange(len(b) + 1)
    prev = steps
    cur = np.empty_like(steps)
    for i, code in enumerate(a_codes, start=1):
        cur[0] = i
        np.minimum(prev[:-1] + (b_codes != code), prev[1:] + 1, out=cur[1:])
        prev = np.minimum.accumulate(cur - steps) + steps
    return int(prev[-1])


def _kept_segments(labels, ignored_classes) -> list[Segment]:
    return [s for s in extract_segments(labels) if s.label not in ignored_classes]


def _edit_from_segments(pred_segs: list[Segment], gt_segs: list[Segment]) -> float:
    sp = [s.label for s in pred_segs]
    sg = [s.label for s in gt_segs]
    if not sp and not sg:
        return 100.0
    return 100.0 * (1.0 - _levenshtein(sp, sg) / max(len(sp), len(sg)))


def edit_score(pred, gt, ignored_classes=()) -> float:
    """100 * (1 - normalized Levenshtein between segment-class sequences)."""
    return _edit_from_segments(
        _kept_segments(pred, ignored_classes), _kept_segments(gt, ignored_classes)
    )


def _segment_iou(a: Segment, b: Segment) -> float:
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start) + 1
    return inter / union


def f1_counts(pred, gt, threshold: float, ignored_classes=()) -> tuple[int, int, int]:
    """Greedy TP/FP/FN counts.

    Predicted segments are scanned in temporal order; each one takes its
    best-IoU same-class ground-truth segment among those not yet matched
    (first index wins ties) and counts as a true positive iff that IoU
    reaches the threshold, consuming the ground-truth segment. Every
    unmatched ground-truth segment is a false negative.
    """
    return _match_segments(
        _kept_segments(pred, ignored_classes), _kept_segments(gt, ignored_classes), threshold
    )


def _match_segments(
    pred_segs: list[Segment], gt_segs: list[Segment], threshold: float
) -> tuple[int, int, int]:
    matched = [False] * len(gt_segs)
    tp = fp = 0
    for ps in pred_segs:
        best_iou, best_idx = -1.0, None
        for idx, gs in enumerate(gt_segs):
            if matched[idx] or gs.label != ps.label:
                continue
            iou = _segment_iou(ps, gs)
            if iou > best_iou:
                best_iou, best_idx = iou, idx
        if best_idx is not None and best_iou >= threshold:
            tp += 1
            matched[best_idx] = True
        else:
            fp += 1
    return tp, fp, matched.count(False)


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
    one segmentation of each label sequence."""
    pred_segs = _kept_segments(pred, ignored_classes)
    gt_segs = _kept_segments(gt, ignored_classes)
    counts = {tau: _match_segments(pred_segs, gt_segs, tau) for tau in thresholds}
    report = EvalReport(
        acc=frame_accuracy(pred, gt),
        edit=_edit_from_segments(pred_segs, gt_segs),
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
