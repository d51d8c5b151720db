"""A failing `hypothesis` test reports its falsifying example under
warnings as errors, the setting of the tier-1 run, instead of crashing
pytest with an INTERNALERROR (see conftest.py)."""

import os
import subprocess
import sys

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_falsifying_example_is_reported_under_warnings_as_errors(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=tests if not path else tests + os.pathsep + path)
    # the suite's conftest.py loaded as a plugin, as in a run of the suite
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "-p", "conftest", "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout, run.stdout
    assert "x=5" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
