"""tools/bench_pairs.sh on one smoke pair of the committed tree against
itself: one line per run and the three summary lines, with the pairs
where HEAD reads lower and higher and the gain verdict."""

import os
import re
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "bench_pairs.sh")


def in_git_checkout():
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                            "HEAD^{commit}"], capture_output=True)
    return probe.returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout")
def test_one_smoke_pair_of_head_against_itself():
    done = subprocess.run([SCRIPT, "HEAD", "HEAD", "robin", "1", "1",
                           "--smoke"], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    runs = [line for line in lines if line.startswith("pair ")]
    assert [line.split()[:4] for line in runs] == [
        ["pair", "1", "base", "ok"], ["pair", "1", "head", "ok"]]
    number = r"[0-9.e+-]+"
    for name in ("setup_s", "run_s", "peak_rss_mb"):
        pattern = (rf"{name} base_median=({number}) base_iqr=0 "
                   rf"head_median=({number}) head_lower=([01])/1 "
                   rf"head_higher=([01])/1 gain=(yes|no)")
        (match,) = [m for m in (re.fullmatch(pattern, line)
                                for line in lines) if m]
        base, head, lower, higher, gain = match.groups()
        # ties count for neither side; the printed medians are rounded,
        # so they order the sides only where they differ
        assert int(lower) + int(higher) <= 1
        if float(head) != float(base):
            assert lower == str(int(float(head) < float(base)))
        # with one pair the interquartile range is 0, so HEAD gains
        # exactly where it reads lower
        assert gain == ("yes" if lower == "1" else "no")
