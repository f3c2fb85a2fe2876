"""Smoke test: the §4.5 scale job runs end to end at a small n."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The smallest n (in steps of 10) at which the professions seed rule
# 'works as a' covers two sentences, so it survives --min-count 2.
N = 780


def test_scale_job_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SPARK_DRIVER_MEM="2g")
    env.pop("PYSPARK_SUBMIT_ARGS", None)  # the test session's JVM settings
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "scale_1m.py"), "--n", str(N), "--min-count", "2"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    m = re.search(r"^\[scale\] features: .* (\d+) distinct feature rows", proc.stdout, re.M)
    assert m, proc.stdout
    assert 0 < int(m.group(1)) <= N
    assert re.search(r"^\[scale\] TOTAL .* Python driver peak RSS \d+ MB$", proc.stdout, re.M)
