"""The repository's pytest settings keep a failing property test a plain
failure: the rest of the session still runs."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st

    @settings(database=None)
    @given(st.integers())
    def test_property_fails(x):
        assert x < 0

    def test_then_passes():
        pass
    """
)


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # With warnings as errors, hypothesis's report hook can hit a deprecation
    # warning from an optional dependency (mypy_extensions, pulled in by
    # libcst) and end the session with INTERNALERROR before the next test.
    # Where libcst is not installed the warning never fires and this passes
    # either way.
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
