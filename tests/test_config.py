"""The project's pytest settings, run on a scratch test file in a subprocess."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_failing_property_is_an_ordinary_failure(tmp_path):
    # Reporting a failed property makes Hypothesis import libcst, which
    # warns through mypy_extensions; the DeprecationWarning filter must not
    # turn that into an INTERNALERROR that stops the run.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider",
            "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
