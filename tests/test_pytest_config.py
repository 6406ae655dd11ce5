import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

RED_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_property_fails(n):
    assert n != n


def test_plain_fails():
    assert 1 == 2
'''


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    # under the repo's warning filters (warnings are errors), hypothesis's
    # failure report must not end the session before later tests report
    (tmp_path / "test_red.py").write_text(RED_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_red.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout
