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
"elapsed_ms" line is removed from stdout before the comparison. The
last line counts the argv that differ; the exit code is 1 if any does,
else 0.

Corpora:
  queries  every argv of perfbench's queries workload for the seeds in
           QUERY_SEEDS, as generated (with --json) and without --json;
           the generator is read from perfbench/workloads.py and not
           changed
  verify   verify --all, with and without --json
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import importlib.util
import io
import os
import re
import sys
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_heavy import ROOT, installed, load  # noqa: E402

QUERY_SEEDS = (7, 2701, 2702)
_ELAPSED = re.compile(r'^  "elapsed_ms": \d+,\n', re.M)


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


def run(modules, argv):
    """(exit code, stdout without its elapsed_ms line, stderr) of argv
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
    corpus = queries_corpus() + verify_corpus()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        found = differences(load(os.path.join(ROOT, "src")),
                            load(args.against), corpus)
    for cmd, lines in found:
        print("divcalc " + " ".join(cmd))
        for line in lines:
            print("  " + line)
    print(f"{len(found)} of {len(corpus)} argv differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
