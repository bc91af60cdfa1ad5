"""The repository's pytest configuration keeps Hypothesis' failure report."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 3
'''


def test_failing_given_test_prints_its_falsifying_example(tmp_path):
    # Run from tmp_path, so that Hypothesis' example database goes there.
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert result.returncode == 1, output
