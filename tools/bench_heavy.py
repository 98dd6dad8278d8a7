#!/usr/bin/env python3
"""The heavy stratum: decomposition searches whose cost is their output.

Run from the root of a checkout:

    python3 tools/bench_heavy.py [--case NAME] [--runs 3] [--src DIR]
                                 [--against DIR]

Each case is one enumerate_bogreider call on a curve whose search keeps
thousands of survivors, run in this process against the package in
--src (the checkout's src/ by default, so another tree's src/ gives the
before side of a change). For each case, in catalogue order or only the
ones named by --case (repeatable), it prints one JSON line: the case,
its surface, curve and k, the slice points visited, the survivors, the
rejections per stage, the number of runs and the median time of one run
in seconds, each run timed from a fresh garbage collection. The counts are deterministic and the same on every run; the
times are a trajectory to compare trees by, not a gate.

--against DIR loads a second divcalc package, from the directory DIR
that holds it (another tree's src/), into this process under its own
module set, and interleaves the two: each of the --runs rounds runs the
search once per tree, the --src tree first in even rounds and the other
tree first in odd ones, so a drift in the host's speed falls on both.
Both trees must report the same counts. The line then also holds the
other tree's median (against_median_s), the ratio of the medians
(median_s / against_median_s) and the rounds in which the --src tree
was faster (wins).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
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


def _package_modules():
    """The divcalc modules in sys.modules, by name."""
    return {n: m for n, m in sys.modules.items()
            if n == "divcalc" or n.startswith("divcalc.")}


def _take_package():
    """_package_modules(), removed from sys.modules."""
    modules = _package_modules()
    for name in modules:
        del sys.modules[name]
    return modules


def load(src):
    """The divcalc package in the directory src, imported as a module
    set of its own (name -> module); sys.modules and sys.path are left
    as they were, so a second tree loads beside it."""
    path = os.path.abspath(src)
    if not os.path.isfile(os.path.join(path, "divcalc", "__init__.py")):
        raise SystemExit(f"no divcalc package in {src}")
    saved = _take_package()
    sys.path.insert(0, path)
    try:
        importlib.import_module("divcalc")
        return _package_modules()
    finally:
        sys.path.remove(path)
        _take_package()
        sys.modules.update(saved)


@contextlib.contextmanager
def installed(modules):
    """The package of a module set from load(), with that set in
    sys.modules meanwhile, for any import the package makes at call
    time; a module of the package first imported meanwhile joins the
    set."""
    saved = _take_package()
    sys.modules.update(modules)
    try:
        yield modules["divcalc"]
    finally:
        modules.update(_take_package())
        sys.modules.update(saved)


def search(dc, surface, curve, k):
    """The counts of one search and its time in seconds. The garbage of
    earlier searches is collected before the clock starts, so that no
    search pays for a collection of another's."""
    surf = dc.get_surface(surface)
    C = dc.resolve(curve, surf)
    gc.collect()
    start = time.perf_counter()
    res = dc.enumerate_bogreider(surf, C, k)
    elapsed = time.perf_counter() - start
    return (res.visited, len(res.survivors),
            dict(sorted(res.rejected.items()))), elapsed


def run_case(trees, surface, curve, k, runs):
    """The counts of one search and, per tree (module sets from load()),
    its times over runs rounds; each round runs every tree once, in
    order in even rounds and in reverse order in odd ones."""
    times, counts = [[] for _ in trees], None
    order = range(len(trees))
    for r in range(runs):
        for i in order if r % 2 == 0 else reversed(order):
            with installed(trees[i]) as dc:
                got, elapsed = search(dc, surface, curve, k)
            if counts not in (None, got):
                raise SystemExit(f"{surface} {curve} k={k}: counts differ "
                                 f"between runs or trees: {counts} then {got}")
            counts = got
            times[i].append(elapsed)
    visited, survivors, rejected = counts
    return {"visited": visited, "survivors": survivors, "rejected": rejected,
            "runs": runs}, times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=[c[0] for c in CASES])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the divcalc package to run")
    ap.add_argument("--against", metavar="DIR",
                    help="directory holding a second divcalc package to "
                         "interleave with --src's")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    trees = [load(args.src)]
    if args.against:
        trees.append(load(args.against))

    for name, surface, curve, k in CASES:
        if args.case and name not in args.case:
            continue
        line = {"case": name, "surface": surface, "curve": curve, "k": k}
        counts, times = run_case(trees, surface, curve, k, args.runs)
        line.update(counts)
        line["median_s"] = statistics.median(times[0])
        if args.against:
            line["against_median_s"] = statistics.median(times[1])
            line["ratio"] = line["median_s"] / line["against_median_s"]
            line["wins"] = sum(a < b for a, b in zip(*times))
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
