"""Tests for the benchmark's own tail percentile rule and failure counting."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import Tally, p90  # noqa: E402
from worker import _check_prediction  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert p90([1.0] * 99) is None
    values = np.random.default_rng(0).exponential(size=100).tolist()
    assert p90(values) == pytest.approx(np.percentile(values, 90), rel=1e-12)


def test_tally_counts_each_failed_operation_once():
    tally = Tally()
    for i in range(5):
        tally.record(i)
    tally.record(2, "raised")
    tally.record(2, "non-finite loss")  # a second check on the same op
    tally.record(4, "malformed prediction")
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.reasons == {2: "raised", 4: "malformed prediction"}


def test_tally_counts_a_failure_beyond_the_completed_ops():
    tally = Tally()
    for i in range(3):
        tally.record(i)
    tally.record(3, "step raised before finishing")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert (Tally().attempted, Tally().failed) == (0, 0)


def test_malformed_predictions_are_reported(tmp_path):
    mapping = {"a": 0, "b": 1}
    path = tmp_path / "v.txt"
    assert _check_prediction(path, mapping, 3)[1] == "v.txt missing"
    path.write_text("a\nb\n")
    assert "2 labels for 3 source frames" in _check_prediction(path, mapping, 3)[1]
    path.write_text("a\nb\nc\n")
    assert "unknown class 'c'" in _check_prediction(path, mapping, 3)[1]
    path.write_text("a\nb\nb\n")
    assert _check_prediction(path, mapping, 3) == ([0, 1, 1], None)
