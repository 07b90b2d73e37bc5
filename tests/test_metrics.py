import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    edit_score,
    edit_score_brute,
    evaluate,
    evaluate_corpus_per_call,
    extract_segments_loop,
    f1_brute,
    f1_counts,
    f1_overlap,
    frame_accuracy,
    levenshtein_loop,
    match_segments_loop,
    reconstruct_labels,
    segments_brute,
)
from tut import metrics as M
from tut.errors import ShapeError

label_seqs = st.lists(st.integers(0, 2), min_size=1, max_size=12)


def test_extract_segments_examples():
    segs = M.extract_segments(["A", "A", "B"])
    assert [(s.label, s.start, s.end) for s in segs] == [("A", 0, 1), ("B", 2, 2)]
    assert [(s.label, s.start, s.end) for s in M.extract_segments(["A"])] == [("A", 0, 0)]
    assert M.extract_segments([]) == []


@given(label_seqs)
@settings(max_examples=100, deadline=None)
def test_segment_roundtrip(labels):
    segs = M.extract_segments(labels)
    assert reconstruct_labels(segs) == labels
    assert [(s.label, s.start, s.end) for s in segs] == segments_brute(labels)
    for a, b in zip(segs, segs[1:]):
        assert a.label != b.label
        assert b.start == a.end + 1


@given(
    st.one_of(
        st.lists(st.integers(0, 2), max_size=40),
        st.lists(st.sampled_from(["bg", "A", "B"]), max_size=40),
        st.lists(st.integers(-3, 300), max_size=40).map(np.array),
        st.lists(st.sampled_from(["bg", "A", "B"]), max_size=40).map(np.array),
    )
)
@settings(max_examples=300, deadline=None)
def test_extract_segments_equals_loop_oracle(labels):
    def typed(segs):
        return [(type(s.label), s.label, s.start, s.end) for s in segs]

    assert typed(M.extract_segments(labels)) == typed(extract_segments_loop(labels))


def test_frame_accuracy_examples():
    assert frame_accuracy([1, 2, 3], [1, 2, 3]) == 100.0
    assert frame_accuracy(list("AABBC"), list("AAABC")) == 80.0
    assert frame_accuracy([1, 1], [2, 2]) == 0.0
    with pytest.raises(ShapeError):
        frame_accuracy([1, 2], [1])
    with pytest.raises(ShapeError):  # the corpus metrics pool frames of equal-length pairs
        M.evaluate_corpus([([1, 2], [1, 2]), ([1, 2], [1])])


def test_edit_score_examples():
    assert edit_score(list("AAABBB"), list("AABBBB")) == 100.0
    # segment sequences [A,B,C] vs [A,C]: one deletion over max length 3
    pred = ["A", "B", "C"]
    gt = ["A", "C", "C"]
    np.testing.assert_allclose(edit_score(pred, gt), 100 * (1 - 1 / 3))
    assert edit_score([], []) == 100.0
    assert edit_score([], ["A"]) == 0.0


def test_f1_hand_example():
    pred = ["A", "A", "B", "B", "C"]
    gt = ["A", "A", "A", "B", "C"]
    # IoUs: A 2/3, B 1/2, C 1
    assert f1_overlap(pred, gt, 0.5) == 100.0
    np.testing.assert_allclose(f1_overlap(pred, gt, 0.75), 100.0 / 3)
    assert f1_overlap(pred, gt, 0.1) == 100.0


def test_f1_single_consumption():
    # two predicted segments over one gt segment: second one is a FP
    pred = ["A", "A", "B", "A", "A"]
    gt = ["A"] * 5
    tp, fp, fn = f1_counts(pred, gt, 0.1)
    assert (tp, fp, fn) == (1, 2, 0)


def test_exact_match_scores_100_everywhere():
    labels = ["A", "B", "B", "C"]
    rep = evaluate(labels, labels)
    assert rep.acc == rep.edit == 100.0
    assert all(v == 100.0 for v in rep.f1.values())


@given(label_seqs, label_seqs)
@settings(max_examples=300, deadline=None)
def test_edit_and_f1_match_bruteforce(pred, gt):
    np.testing.assert_allclose(edit_score(pred, gt), edit_score_brute(pred, gt), atol=1e-9)
    for tau in (0.1, 0.25, 0.5, 0.9):
        want, wtp, wfp, wfn = f1_brute(pred, gt, tau)
        assert f1_counts(pred, gt, tau) == (wtp, wfp, wfn)
        np.testing.assert_allclose(f1_overlap(pred, gt, tau), want, atol=1e-9)


# label pools by type; a disjoint pair draws each side from its own half
LEVENSHTEIN_POOLS = {
    "int": [0, 1, 2, 3],
    "numpy": [np.int64(i) for i in range(4)],
    "str": ["a", "b", "ab", ""],
    "object": [object() for _ in range(4)],
}


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_levenshtein_equals_loop_oracle(data):
    pool = LEVENSHTEIN_POOLS[data.draw(st.sampled_from(sorted(LEVENSHTEIN_POOLS)), label="type")]
    relation = data.draw(st.sampled_from(["any", "equal", "disjoint"]), label="relation")
    left, right = (pool[:2], pool[2:]) if relation == "disjoint" else (pool, pool)
    a = data.draw(st.lists(st.sampled_from(left), max_size=12), label="a")
    if relation == "equal":
        b = list(a)
    else:
        b = data.draw(st.lists(st.sampled_from(right), max_size=12), label="b")
    got = M._levenshtein(*M._label_codes(a, b))
    assert type(got) is int and got == levenshtein_loop(a, b)
    if relation == "equal":
        assert got == 0
    if relation == "disjoint":
        assert got == max(len(a), len(b))


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_segment_matching_equals_loop_oracle(data):
    """Equal (TP, FP, FN) per threshold from one IoU matrix per video, for
    int, numpy and str labels, ignored ids, and thresholds at, between and
    outside the IoU values (ties and all-candidate rows included)."""
    kind = data.draw(st.sampled_from(["int", "numpy", "str"]), label="type")
    as_label = {"int": int, "numpy": np.int64, "str": lambda c: "abcd"[c]}[kind]
    n = data.draw(st.integers(0, 40), label="frames")
    gt = [as_label(c) for c in data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    pred = [as_label(c) for c in data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    ignored = {as_label(c) for c in data.draw(st.sets(st.integers(0, 3), max_size=2))}
    thresholds = data.draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.floats(-0.5, 1.5)),
            min_size=1, max_size=4, unique=True,
        ),
        label="thresholds",
    )
    pred_segs = M._kept_segments(pred, ignored)
    gt_segs = M._kept_segments(gt, ignored)
    want = {tau: match_segments_loop(pred_segs, gt_segs, tau) for tau in thresholds}
    assert {tau: f1_counts(pred, gt, tau, ignored) for tau in thresholds} == want
    _, counts = M._evaluate_video(pred, gt, thresholds, ignored)
    assert counts == want


def test_segment_matching_first_index_wins_ties():
    """The first prediction "a" has IoU 1/7 with both ground-truth "a"
    segments. Taking the first leaves the second for the later prediction
    (IoU 0.5): 3 TP with the "b" match. Taking the last would leave 2 TP."""
    gt = list("aaaabbaaaabbbb")
    pred = list("cccaaaacaabcbb")
    want = match_segments_loop(M.extract_segments(pred), M.extract_segments(gt), 0.1)
    assert want == (3, 4, 1)
    assert f1_counts(pred, gt, 0.1) == want


@given(label_seqs, label_seqs)
@settings(max_examples=200, deadline=None)
def test_f1_monotone_in_threshold(pred, gt):
    values = [f1_overlap(pred, gt, tau) for tau in (0.1, 0.25, 0.5, 0.75)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


@given(label_seqs, st.permutations([0, 1, 2]))
@settings(max_examples=100, deadline=None)
def test_class_permutation_invariance(gt, perm):
    rng = np.random.default_rng(0)
    pred = [int(rng.integers(0, 3)) for _ in gt]
    mapped_pred = [perm[c] for c in pred]
    mapped_gt = [perm[c] for c in gt]
    assert frame_accuracy(pred, gt) == frame_accuracy(mapped_pred, mapped_gt)
    assert edit_score(pred, gt) == edit_score(mapped_pred, mapped_gt)
    for tau in (0.25, 0.5):
        assert f1_overlap(pred, gt, tau) == f1_overlap(mapped_pred, mapped_gt, tau)


@given(label_seqs, label_seqs)
@settings(max_examples=100, deadline=None)
def test_outputs_in_range(pred, gt):
    rep = evaluate(pred + [0], gt + [0]) if len(pred) == len(gt) else None
    if rep is None:
        return
    for value in [rep.acc, rep.edit, *rep.f1.values()]:
        assert 0.0 <= value <= 100.0


def test_ignored_classes():
    pred = ["bg", "A", "A", "bg"]
    gt = ["bg", "A", "A", "A"]
    assert edit_score(pred, gt, ignored_classes={"bg"}) == 100.0
    assert f1_overlap(pred, gt, 0.5, ignored_classes={"bg"}) == 100.0


def test_corpus_pooling():
    perfect = (["A", "A", "B"], ["A", "A", "B"])
    wrong = (["B", "B", "B"], ["A", "A", "A"])
    rep = M.evaluate_corpus([perfect, wrong])
    np.testing.assert_allclose(rep.acc, 50.0)  # frame-pooled 3/6
    # pooled F1 at 0.5: video1 tp=2, video2 fp=1 fn=1 -> p=2/3, r=2/3
    np.testing.assert_allclose(rep.f1[0.5], 200 * (2 / 3) * (2 / 3) / (4 / 3))

    single = M.evaluate_corpus([perfect])
    alone = evaluate(*perfect)
    assert single.acc == alone.acc and single.edit == alone.edit
    assert single.f1 == alone.f1


@st.composite
def corpus_pairs(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        gt = draw(label_seqs)
        pred = draw(st.lists(st.integers(0, 2), min_size=len(gt), max_size=len(gt)))
        as_array = draw(st.booleans())
        pairs.append((np.array(pred), np.array(gt)) if as_array else (pred, gt))
    return pairs


@given(
    corpus_pairs(),
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), max_size=3, unique=True),
    st.sets(st.integers(0, 2), max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_corpus_report_equals_per_call_oracle(pairs, thresholds, ignored):
    # dataclass equality: every per-video report and pooled figure, so metrics.csv too
    assert M.evaluate_corpus(pairs, thresholds, ignored) == evaluate_corpus_per_call(
        pairs, thresholds, ignored
    )


def test_report_csv_and_table():
    rep = evaluate(["A", "B"], ["A", "B"])
    csv = M.report_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "metric,threshold,value"
    assert lines[1] == "acc,,100.0000"
    assert any(line.startswith("f1,0.5,") for line in lines)
    table = M.report_table(rep)
    assert "acc" in table and "f1@50" in table
