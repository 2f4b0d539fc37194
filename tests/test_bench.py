"""The benchmark's own self-test passes on this checkout."""

import subprocess
import sys

from conftest import DATA


def test_bench_selftest_passes():
    # the self-test checks every verdict the benchmark relies on, at tiny
    # sizes; it writes only under bench/.work and removes what it wrote
    root = DATA.parent
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
