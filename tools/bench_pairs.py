#!/usr/bin/env python3
"""Paired benchmark runs of a change against its parent.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --workload enumerate --ref HEAD~1 \\
        --pairs 10 --first-seed 1001

--workload may be given more than once; without it every workload of
BENCHMARK.json is run. Both trees run from one temporary directory
that is removed afterwards: the parent is the tree of --ref, exported
with `git archive`, and the change is a copy of this checkout's tracked
and unignored files as they stand on disk (working_files()), so the two
sides differ only in their files. Each pair runs
perfbench/run.py once in each tree with the same seed (first-seed,
first-seed + 1, ...), alternating which tree goes first, so a drift in
the host's speed falls on both sides; every workload runs at one seed
before the next seed starts. For each workload and end-to-end metric
(wall_s, setup_s and peak_rss_mb) the tool prints the ratio
change / parent per seed, the median and quartiles of each side, the
number of pairs the change won, whether the change is better by the
rule of nine wins in ten and a median gain larger than the parent's
interquartile range, whether the change's median is worse than the
parent's by more than the metric's bound in BENCHMARK.json, and each
side's share of failed operations on the workload; it ends with one
table of all of them. With --out FILE it also writes that table as a
JSON document (document()): per workload and metric, both sides'
quartiles, the per-seed ratios, the wins, the verdict, the bound check
and the failed shares, with the two sides' labels, the Python version
and the core count. The parent is labelled by its commit and the
change by the content of the files copied for it (copy_working_tree),
so two different changes on one parent get two labels. It changes
nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs, bound):
    """The summary of (seed, parent, change) values of a lower-is-better
    metric: the per-seed ratios change / parent, the quartiles of each
    side, the pairs the change won, whether it is better by the rule of
    wins in at least nine of ten pairs and a median gain larger than the
    spread between the parent's quartiles, and whether its median is
    worse than the parent's by more than the share bound."""
    if not pairs:
        raise ValueError("no pairs to summarize")
    parent = [p for _, p, _ in pairs]
    change = [c for _, _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(c < p for _, p, c in pairs)
    return {
        "ratios": [(seed, c / p) for seed, p, c in pairs],
        "parent": pq,
        "change": cq,
        "wins": wins,
        "pairs": len(pairs),
        "better": (10 * wins >= 9 * len(pairs)
                   and pq[1] - cq[1] > pq[2] - pq[0]),
        "bound": bound,
        "worse": cq[1] > pq[1] * (1 + bound),
    }


def failed_shares(runs):
    """{"parent": share, "change": share} of failed operations over the
    (seed, parent, change) runs of one workload, each side a result with
    "failed" and "attempted" counts; a side that attempted none has
    share 0."""
    return {side: sum(r[i]["failed"] for r in runs)
            / max(sum(r[i]["attempted"] for r in runs), 1)
            for i, side in ((1, "parent"), (2, "change"))}


METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # lower is better for each


def _run(tree, workload, seed, seconds):
    """The end-to-end metrics of one perfbench run in tree, with its
    failed and attempted operation counts. A run that exits nonzero
    raises RuntimeError naming the tree and the seed and ending with the
    run's stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"{tree}: {workload} at seed {seed} exited "
                           f"{run.returncode}; its stderr:\n{run.stderr}")
    doc = json.loads(run.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise RuntimeError(f"{tree}: seed {seed} gave outputs that fail "
                           "their checks")
    if doc["failed"]:
        print(f"{tree}: seed {seed}: {doc['failed']} of {doc['attempted']} "
              "operations failed")
    got = {m: doc["metrics"][m]["value"] for m in METRICS}
    return {**got, "failed": doc["failed"], "attempted": doc["attempted"]}


def _export(ref, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def working_files(root):
    """The paths, relative to the checkout root, of its tracked files and
    of its untracked files that .gitignore does not exclude, each one
    that is a file on disk."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout
    names = dict.fromkeys(os.fsdecode(n) for n in out.split(b"\0") if n)
    return [n for n in names if os.path.isfile(os.path.join(root, n))]


def copy_working_tree(root, dest):
    """Copy working_files(root) into dest, as they stand on disk, and
    return the label of the copy: "sha256:" and the SHA-256 digest over
    the copied files in sorted order of their relative paths, each as
    its path, its size and its bytes."""
    digest = hashlib.sha256()
    for name in sorted(working_files(root)):
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(root, name), target)
        with open(target, "rb") as fh:
            data = fh.read()
        digest.update(b"%s\0%d\0" % (os.fsencode(name), len(data)))
        digest.update(data)
    return "sha256:" + digest.hexdigest()


def parse_args(argv, bench):
    """The options, with --workload defaulting to every workload of the
    BENCHMARK.json document bench."""
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run; repeat for several (default: "
                    "every workload of BENCHMARK.json)")
    ap.add_argument("--ref", default="HEAD~1",
                    help="git ref of the parent tree (default HEAD~1)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"],
                    help=f"run length (default {bench['run_seconds']}, as "
                    "in BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1001)
    ap.add_argument("--out", metavar="FILE",
                    help="also write the final table as JSON to FILE")
    args = ap.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload or names))
    return args


def table(summaries):
    """One line per (workload, metric) summary, a summarize() result
    with the workload's failed_shares() under "failed": the parent's and
    the change's medians, their ratio, the wins, the bound and whether
    the change is worse beyond it, each side's failed share and the
    verdict."""
    rows = [f"{'workload':<14} {'metric':<12} {'parent':>10} "
            f"{'change':>10} {'ratio':>7} {'wins':>6} {'bound':>6} "
            f"{'worse':>5} {'failed_p':>8} {'failed_c':>8}  verdict"]
    for (workload, m), s in summaries.items():
        p, c = s["parent"][1], s["change"][1]
        f = s["failed"]
        rows.append(f"{workload:<14} {m:<12} {p:>10.4g} {c:>10.4g} "
                    f"{c / p:>7.4f} {s['wins']:>3}/{s['pairs']:<2} "
                    f"{s['bound']:>6.3g} {'yes' if s['worse'] else 'no':>5} "
                    f"{f['parent']:>8.2%} {f['change']:>8.2%}  "
                    f"{'better' if s['better'] else 'not shown better'}")
    return "\n".join(rows)


def document(summaries, revisions, python, cores):
    """The JSON document of a finished run: one entry per (workload,
    metric) summary, in run order, with the parent's and the change's
    (first quartile, median, third quartile), the ratio change / parent
    per seed, the wins out of the pairs, the verdict, the bound and
    whether the change is worse beyond it, and each side's failed share;
    and the revisions {"parent": ..., "change": ...}, the Python version
    and the core count of the host."""
    def sides(q):
        return dict(zip(("q1", "median", "q3"), q))

    return {
        "revisions": dict(revisions),
        "python": python,
        "cores": cores,
        "results": [
            {"workload": workload, "metric": m,
             "parent": sides(s["parent"]), "change": sides(s["change"]),
             "ratios": [{"seed": seed, "ratio": r}
                        for seed, r in s["ratios"]],
             "wins": s["wins"], "pairs": s["pairs"], "better": s["better"],
             "bound": s["bound"], "worse": s["worse"],
             "failed": dict(s["failed"])}
            for (workload, m), s in summaries.items()],
    }


def _revision(ref):
    """The commit of ref."""
    return subprocess.run(["git", "rev-parse", ref], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    args = parse_args(argv, bench)
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}

    runs = {w: [] for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = [("parent", os.path.join(tmp, "parent")),
                 ("change", os.path.join(tmp, "change"))]
        _export(args.ref, sides[0][1])
        change = copy_working_tree(ROOT, sides[1][1])
        for i in range(args.pairs):
            seed = args.first_seed + i
            for w in args.workload:
                got = {side: _run(tree, w, seed, args.seconds)
                       for side, tree in (sides if i % 2 == 0
                                          else sides[::-1])}
                runs[w].append((seed, got["parent"], got["change"]))
                print(f"{w} seed {seed}: " + "  ".join(
                    f"{m} {got['parent'][m]:.6g} -> {got['change'][m]:.6g}"
                    for m in METRICS), flush=True)
    summaries = {}
    for w in args.workload:
        shares = failed_shares(runs[w])
        for m in METRICS:
            s = summarize([(seed, p[m], c[m]) for seed, p, c in runs[w]],
                          bounds[m])
            s["failed"] = shares
            summaries[w, m] = s
            print(f"{w} {m}: ratio change / parent per seed "
                  + " ".join(f"{r:.3f}" for _, r in s["ratios"]))
            for side in ("parent", "change"):
                q1, med, q3 = s[side]
                print(f"  {side:<7} median {med:.6g}  "
                      f"quartiles {q1:.6g} .. {q3:.6g}  "
                      f"failed {shares[side]:.2%}")
    print(table(summaries))
    if args.out:
        doc = document(summaries,
                       {"parent": _revision(args.ref), "change": change},
                       platform.python_version(), os.cpu_count())
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
