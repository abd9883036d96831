import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # Under the repo's pytest settings (every warning an error), a failing
    # @given test must count as one failure and leave the rest of the run
    # going: Hypothesis's failure report imports libcst, which warns.
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_probe.py").write_text(PROBE, encoding="utf-8")
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_probe.py"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
