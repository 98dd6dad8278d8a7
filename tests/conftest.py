"""Puts tools/ on sys.path, so the tests import the repository's
scripts (bench_pairs, cli_diff, mutants) by module name."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
