import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_smallest_heavy_case_prints_its_pinned_counts():
    # the stratum's smallest case, run once: its one JSON line has every
    # key, the deterministic counts and a positive time
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_heavy.py"),
         "--case", "sigma6-2K-k8", "--runs", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    got = json.loads(line)
    assert list(got) == ["case", "surface", "curve", "k", "visited",
                         "survivors", "rejected", "runs", "median_s"]
    median = got.pop("median_s")
    assert got == {"case": "sigma6-2K-k8", "surface": "sigma6",
                   "curve": "-2K", "k": 8, "visited": 7191,
                   "survivors": 6453, "rejected": {"sign": 738}, "runs": 1}
    assert median > 0
