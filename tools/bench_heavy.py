#!/usr/bin/env python3
"""The heavy stratum: decomposition searches whose cost is their output.

Run from the root of a checkout:

    python3 tools/bench_heavy.py [--case NAME] [--runs 3] [--src DIR]

Each case is one enumerate_bogreider call on a curve whose search keeps
thousands of survivors, run in this process against the package in
--src (the checkout's src/ by default, so another tree's src/ gives the
before side of a change). For each case, in catalogue order or only the
ones named by --case (repeatable), it prints one JSON line: the case,
its surface, curve and k, the slice points visited, the survivors, the
rejections per stage, the number of runs and the median time of one run
in seconds. The counts are deterministic and the same on every run; the
times are a trajectory to compare trees by, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, surface, curve, k): the smallest first
CASES = (
    ("sigma6-2K-k8", "sigma6", "-2K", 8),
    ("sigma7-2K-k6", "sigma7", "-2K", 6),
    ("sigma3-2K-k100", "sigma3", "-2K", 100),
    ("enriques-U1+U2-k3", "enriques", "U1+U2", 3),
)


def run_case(dc, surface, curve, k, runs):
    """The counts of one search and its median time over runs runs."""
    surf = dc.get_surface(surface)
    C = dc.resolve(curve, surf)
    times, counts = [], None
    for _ in range(runs):
        start = time.perf_counter()
        res = dc.enumerate_bogreider(surf, C, k)
        times.append(time.perf_counter() - start)
        got = res.visited, len(res.survivors), dict(sorted(res.rejected.items()))
        if counts not in (None, got):
            raise SystemExit(f"{surface} {curve} k={k}: counts changed "
                             f"between runs: {counts} then {got}")
        counts = got
        del res
    visited, survivors, rejected = counts
    return {"visited": visited, "survivors": survivors, "rejected": rejected,
            "runs": runs, "median_s": statistics.median(times)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=[c[0] for c in CASES])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the divcalc package to run")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    import divcalc as dc

    for name, surface, curve, k in CASES:
        if args.case and name not in args.case:
            continue
        line = {"case": name, "surface": surface, "curve": curve, "k": k}
        line.update(run_case(dc, surface, curve, k, args.runs))
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
