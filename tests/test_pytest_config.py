"""The repository's pytest settings report a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from pathlib import Path

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_later():
    (Path(__file__).parent / "later_ran").write_text("")
'''


def test_a_failing_hypothesis_test_is_reported_and_later_tests_run(tmp_path):
    """Under ``filterwarnings = error`` a warning raised in hypothesis' report
    hook used to end the session in INTERNALERROR, before the falsifying
    example was printed and before any later test ran."""
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
    assert (tmp_path / "later_ran").exists(), out
