#!/usr/bin/env python3
"""The heavy stratum: decomposition searches whose cost is their output,
and certified phi on many seeded Enriques classes.

Run from the root of a checkout:

    python3 tools/bench_heavy.py [--case NAME] [--runs 3] [--src DIR]
                                 [--against DIR]

Each search case is one enumerate_bogreider call on a curve whose search
keeps thousands of survivors; a phi case certifies phi, by the chamber
path, on seeded classes of the Enriques lattice: enriques-phi-200 on
classes drawn from a box, whose chamber words are long, and
enriques-phi-cusp-200 on classes shaped like perfbench's phi_enriques
ones, whose short words are mostly cusp steps. Every case runs in this
process against the package in --src (the checkout's src/ by default, so
another tree's src/ gives the before side of a change). For each case,
in catalogue order or only the ones named by --case (repeatable), it
prints one JSON line: the case and its inputs (a search's surface, curve
and k; a phi case's surface, seed, classes and coordinate bound), its
counts (a search's slice points visited, survivors and rejections per
stage; a phi case's total chamber word length and sum of phi), the
number of runs and the median time of one run in seconds, each run timed
from a fresh garbage collection. The counts are deterministic and the
same on every run; the times are a trajectory to compare trees by, not a
gate.

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
import random
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


def enriques_classes(dc, seed, count, bound):
    """count classes of the Enriques lattice with L^2 > 0, drawn by
    random.Random(seed) with coordinates in [-bound, bound]; the E8 part
    is drawn from a box [-b, b] with b random, since a uniform draw from
    the whole box has L^2 > 0 about once in a thousand."""
    surf, rng, out = dc.get_surface("enriques"), random.Random(seed), []
    while len(out) < count:
        b = rng.randint(1, bound)
        L = surf.klass([rng.randint(-bound, bound) for _ in range(2)]
                       + [rng.randint(-b, b) for _ in range(8)])
        if dc.pair(L, L) > 0:
            out.append(L)
    return surf, out


def cusp_classes(dc, seed, count, bound):
    """count classes U1 + b U2 + r of the Enriques lattice shaped like
    perfbench's phi_enriques ones, drawn by random.Random(seed): r in the
    E8(-1) block with coordinates in [-bound, bound], b fixed by L^2 drawn
    from {2, 4, 6, 8}, and U1, U2 swapped in about half of them. Each has
    phi = 1, and its chamber word is short, mostly cusp steps."""
    surf, rng, out = dc.get_surface("enriques"), random.Random(seed), []
    for _ in range(count):
        r = [rng.randint(-bound, bound) for _ in range(8)]
        R = surf.klass([0, 0] + r)
        b = (rng.choice((2, 4, 6, 8)) - dc.pair(R, R)) // 2
        out.append(surf.klass(([b, 1] if rng.random() < 0.5 else [1, b])
                              + r))
    return surf, out


# (name, draw, seed, classes, bound): certified phi on the classes that
# draw(dc, seed, classes, bound) gives
PHI_CASES = (
    ("enriques-phi-200", enriques_classes, 7, 200, 30),
    ("enriques-phi-cusp-200", cusp_classes, 7, 200, 1),
)


def certify(dc, draw, seed, count, bound):
    """The counts of certified phi on draw(dc, seed, count, bound), the
    total length of the chamber words and the sum of phi, and its time in
    seconds, started from a fresh garbage collection."""
    surf, classes = draw(dc, seed, count, bound)
    gc.collect()
    start = time.perf_counter()
    results = [dc.phi(surf, L) for L in classes]
    elapsed = time.perf_counter() - start
    return (sum(len(r.certificate.word) for r in results),
            sum(r.value for r in results)), elapsed


def run_case(trees, name, measure, runs):
    """The counts of measure(dc) (counts, seconds) and, per tree (module
    sets from load()), its times over runs rounds; each round runs every
    tree once, in order in even rounds and in reverse order in odd
    ones."""
    times, counts = [[] for _ in trees], None
    order = range(len(trees))
    for r in range(runs):
        for i in order if r % 2 == 0 else reversed(order):
            with installed(trees[i]) as dc:
                got, elapsed = measure(dc)
            if counts not in (None, got):
                raise SystemExit(f"{name}: counts differ between runs or "
                                 f"trees: {counts} then {got}")
            counts = got
            times[i].append(elapsed)
    return counts, times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append",
                    choices=[c[0] for c in CASES + PHI_CASES])
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

    def report(line, times):
        line["runs"] = args.runs
        line["median_s"] = statistics.median(times[0])
        if args.against:
            line["against_median_s"] = statistics.median(times[1])
            line["ratio"] = line["median_s"] / line["against_median_s"]
            line["wins"] = sum(a < b for a, b in zip(*times))
        print(json.dumps(line), flush=True)

    for name, surface, curve, k in CASES:
        if args.case and name not in args.case:
            continue
        counts, times = run_case(
            trees, name, lambda dc: search(dc, surface, curve, k), args.runs)
        visited, survivors, rejected = counts
        report({"case": name, "surface": surface, "curve": curve, "k": k,
                "visited": visited, "survivors": survivors,
                "rejected": rejected}, times)
    for name, draw, seed, count, bound in PHI_CASES:
        if args.case and name not in args.case:
            continue
        counts, times = run_case(
            trees, name, lambda dc: certify(dc, draw, seed, count, bound),
            args.runs)
        report({"case": name, "surface": "enriques", "seed": seed,
                "classes": count, "bound": bound, "word_length": counts[0],
                "phi_sum": counts[1]}, times)


if __name__ == "__main__":
    main()
