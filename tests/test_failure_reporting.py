"""A failing property test is reported like any other, and the session goes on."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0))
def test_a_failing_property(n):
    assert n < 0


def test_a_passing_test():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    # the probe runs under the repo's pytest settings (filterwarnings =
    # ["error"] among them) and this directory's conftest
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_probe.py").write_text(_PROBE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
        + ["test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
