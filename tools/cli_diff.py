#!/usr/bin/env python3
"""Differential of the command line between two trees.

Run from the root of a checkout:

    python3 tools/cli_diff.py --against DIR

Loads the divcalc package in the checkout's src/ and the one in DIR
(another tree's src/), each under its own module set in this process,
as tools/bench_heavy.py --against does. Each argv of the corpora goes
through both trees' cli.main, with COLUMNS=80, and the tool prints
every argv whose exit code, stdout or stderr differ, as a unified diff
of DIR's side (against) against the checkout's (src). The RunReport's
'"elapsed_ms": N, ' is removed from stdout before the comparison, which
is otherwise byte for byte. The last line counts the argv that differ;
the exit code is 1 if any does, else 0.

Corpora:
  queries  every argv of perfbench's queries workload for the seeds in
           QUERY_SEEDS, as generated (with --json) and without --json;
           the generator is read from perfbench/workloads.py and not
           changed
  verify   verify --all, with and without --json
  phi      phi on each Enriques class of phi_classes(), with and
           without --json, so that every chamber certificate is
           compared byte for byte
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import importlib.util
import io
import os
import random
import re
import sys
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_heavy import ROOT, installed, load  # noqa: E402

QUERY_SEEDS = (7, 2701, 2702)
PHI_SEED, PHI_CLASSES, PHI_BOUND = 1201, 600, 8
_ENRIQUES_LABELS = ("U1", "U2") + tuple(f"R{i}" for i in range(1, 9))
# the edges of the E8 diagram on R1..R8 (Bourbaki order)
_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))
_ELAPSED = re.compile(r'"elapsed_ms": \d+, ')


def _workloads():
    """perfbench/workloads.py, loaded as a module of its own."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_cli_diff_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def queries_corpus():
    """The queries workload's argv for each seed of QUERY_SEEDS, each as
    generated and without --json."""
    workloads = _workloads()
    out = []
    for seed in QUERY_SEEDS:
        for op in workloads.generate("queries", seed):
            out.append(op["argv"])
            out.append([a for a in op["argv"] if a != "--json"])
    return out


def verify_corpus():
    return [["verify", "--all"], ["verify", "--all", "--json"]]


def _enriques_square(x):
    """x^2 on U + E8(-1) in the basis U1, U2, R1..R8, from the E8 diagram
    alone, so that the corpus depends on neither tree."""
    r = x[2:]
    return (2 * x[0] * x[1] - 2 * sum(a * a for a in r)
            + 2 * sum(r[i] * r[j] for i, j in _E8_EDGES))


def phi_classes():
    """PHI_CLASSES seeded coordinate tuples of Enriques classes with
    L^2 > 0 and coordinates in [-PHI_BOUND, PHI_BOUND]. The E8 part is
    drawn from a box [-k, k] with k random, since a uniform draw from the
    whole box has L^2 > 0 about once in a thousand."""
    rng, out = random.Random(PHI_SEED), []
    while len(out) < PHI_CLASSES:
        k = rng.randint(1, PHI_BOUND)
        x = ([rng.randint(-PHI_BOUND, PHI_BOUND) for _ in range(2)]
             + [rng.randint(-k, k) for _ in range(8)])
        if _enriques_square(x) > 0:
            out.append(tuple(x))
    return out


def phi_corpus():
    """phi --surface enriques on each class of phi_classes(), written as
    a divisor expression, each with --json and without."""
    out = []
    for x in phi_classes():
        curve = "".join(f"{c:+d}{label}"
                        for c, label in zip(x, _ENRIQUES_LABELS) if c)
        argv = ["phi", "--surface", "enriques", "--curve", curve]
        out += [argv + ["--json"], argv]
    return out


def corpus():
    """Every argv the tool runs: the queries, verify and phi corpora."""
    return queries_corpus() + verify_corpus() + phi_corpus()


def run(modules, argv):
    """(exit code, stdout without its elapsed_ms entry, stderr) of argv
    through the cli.main of a module set from load()."""
    out, err = io.StringIO(), io.StringIO()
    with installed(modules), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        from divcalc import cli
        code = cli.main(list(argv))
    return code, _ELAPSED.sub("", out.getvalue()), err.getvalue()


def differences(src, against, corpus):
    """Per argv of corpus whose outcome differs between the module sets
    src and against: the argv and the diff lines."""
    found = []
    for argv in corpus:
        new, old = run(src, argv), run(against, argv)
        if new == old:
            continue
        lines = []
        if new[0] != old[0]:
            lines.append(f"exit code: {old[0]} -> {new[0]}")
        for name, a, b in (("stdout", old[1], new[1]),
                           ("stderr", old[2], new[2])):
            lines += difflib.unified_diff(
                a.splitlines(), b.splitlines(), f"against {name}",
                f"src {name}", n=0, lineterm="")
        found.append((argv, lines))
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="DIR", required=True,
                    help="directory holding the divcalc package to "
                         "compare with")
    args = ap.parse_args(argv)
    argvs = corpus()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        found = differences(load(os.path.join(ROOT, "src")),
                            load(args.against), argvs)
    for cmd, lines in found:
        print("divcalc " + " ".join(cmd))
        for line in lines:
            print("  " + line)
    print(f"{len(found)} of {len(argvs)} argv differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
