"""divcalc benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a fresh worker
interpreter (worker.py) with one thread, as a closed loop with one
caller. This process builds the references first, times set-up over
several fresh interpreters, starts the worker, checks every output it
sends back and prints a summary followed by one JSON line:

  --trace 0  end-to-end metrics: setup_s, wall_s, op_p50_ms, op_tail_ms,
             peak_rss_mb and fail_ratio in the summary; the JSON line
             carries those BENCHMARK.json lists under end_to_end;
  --trace 1  per-layer metrics from a traced run (see tracing.py), plus
             trace.overhead_s; the JSON line carries BENCHMARK.json's
             per_layer list.

The exit code is 0 when a result line was printed, whatever the checks
found; "correct" on that line carries the verdict. A checkout without the
package, the oracle or the stored references exits 2 without a result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 19  # set-up-only interpreters per run, plus the worker itself

# Times are reported at a reference speed: the speed at which one
# iteration of worker.calibration_loop takes 2.5 us. A time t measured at a
# speed of s ns per iteration is reported as t * 2500 / s. On a shared host
# whose speed swings by a factor of two within a second this keeps the
# figures of one program steady; the summary also prints the raw figures.
REFERENCE_NS_PER_ITERATION = 2500
DEADLINE_S = 170  # the whole run must end within 180 s


def _spawn(args, job, deadline):
    """Start a worker, hand it its operations and wait for its ready line.
    Returns the process and its set-up time as (at the reference speed,
    raw). A worker still running at the deadline is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    proc.timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    proc.timer.daemon = True
    proc.timer.start()
    proc.stdin.write(job + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line.startswith('{"ready": true}'):
        _finish(proc)
        raise RuntimeError(f"worker did not start: {line!r}")
    doc = json.loads(proc.stdout.readline())
    setup = doc["setup_ns"] / 1e9
    return proc, (to_reference(setup, sum(doc["speed"]) / 2), setup)


def _step(proc):
    """Let the worker make its next step and return the line it sends."""
    proc.stdin.write("go\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        _finish(proc)
        raise RuntimeError("worker stopped before its last step")
    return json.loads(line)


def _finish(proc):
    """Close the worker's input, read what is left and wait for it."""
    try:
        proc.stdin.close()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        proc.timer.cancel()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return [json.loads(line) for line in rest.splitlines() if line.strip()]


def _probe(job, deadline):
    """Set-up time of one fresh interpreter: (at the reference speed, raw)."""
    proc, setup = _spawn(["--setup-only"], job, deadline)
    _finish(proc)
    return setup


def to_reference(t, ns_per_iteration):
    """A time measured at the given speed, at the reference speed."""
    return t * REFERENCE_NS_PER_ITERATION / ns_per_iteration


def scaled_latencies(pass_doc):
    """Operation latencies of one pass, in ns at the reference speed.

    The speed samples taken inside an operation are its own time off; the
    rest is scaled by the mean speed of the samples within one sampling
    interval of the operation (the nearest sample if there is none)."""
    samples = pass_doc["samples"]
    starts = [t for t, _ in samples]
    iters = pass_doc["iterations"]
    window = int(worker.SAMPLE_EVERY_S * 1e9)
    out = []
    for start, end, _, _ in pass_doc["ops"]:
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        busy = sum(d for _, d in samples[lo:hi])
        near = samples[bisect.bisect_left(starts, start - window):
                       bisect.bisect_right(starts, end + window)]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - start))]
        speed = sum(d for _, d in near) / len(near) / iters
        out.append(to_reference(end - start - busy, speed))
    return out


def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _normalise(workload, out):
    """Output with the run-to-run varying parts removed, as a string."""
    if workload == "queries":
        code, text = out
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = text  # the checker reports it
        if isinstance(doc, dict):
            doc.pop("elapsed_ms", None)
        return json.dumps([code, doc], sort_keys=True)
    return json.dumps(out, sort_keys=True)


def _check_passes(workload, ops, refs_, check, passes):
    """Check every operation of every pass; returns (attempted, failed,
    known, problems)."""
    attempted = failed = known = 0
    problems = []
    verdicts = {}
    first = {}
    for p in passes:
        for i, (_, _, ok, out) in enumerate(p["ops"]):
            attempted += 1
            if not ok:
                failed += 1
                problems.append(f"op {i} raised {out}")
                continue
            key = _normalise(workload, out)
            if first.setdefault(i, key) != key:
                problems.append(f"op {i}: output differs between passes")
            if (i, key) not in verdicts:
                verdicts[(i, key)] = check(workload, ops[i], out, refs_[i])
            status, detail = verdicts[(i, key)]
            if status != "ok":
                failed += 1
            if status == "known_defect":
                known += 1
            elif status != "ok":
                problems.append(f"op {i} ({_label(ops[i])}): {detail}")
    return attempted, failed, known, problems


def _label(op):
    if op["op"] == "enumerate":
        return f"{op['surface']} {op['curve']} k={op['k']}"
    if op["op"] == "cli":
        return " ".join(op["argv"])
    if op["op"] == "phi":
        return f"phi {op['mode']} L^2={op['l2']}"
    return op["op"]


def _counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    needed = [os.path.join(ROOT, "src", "divcalc", "__init__.py"),
              os.path.join(ROOT, "tests", "oracle_bruteforce.py"),
              os.path.join(HERE, "refs_fixed.json"), spec_path]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from the root "
              "of a divcalc checkout", file=sys.stderr)
        return 2

    import refs
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    ops = wl.generate(args.workload, args.seed)
    oracle = refs.load_oracle(ROOT)
    refs_ = refs.references(oracle, args.workload, ops, refs.load_fixed())
    check = refs.make_checker(ROOT)

    with open(spec_path) as fh:
        spec = json.load(fh)
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    try:
        return _run(args, deadline, ops, refs_, check, wl, reported)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def _run(args, deadline, ops, refs_, check, wl, reported):
    job = json.dumps({"ops": ops, "warmup": wl.warmup(args.workload, ops)})
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        steps = 2 + wl.TRACED_PASSES  # warm-up, one untraced pass, traced ones
        extra = ["--traced-passes", str(wl.TRACED_PASSES), "--spans-out",
                 os.path.join(OUT_DIR, f"{args.workload}.spans")]
        probes = [0] * steps
    else:
        passes = wl.passes_for(args.workload, args.seconds)
        steps = 1 + passes  # warm-up, then the timed passes
        extra = ["--passes", str(passes)]
        # spread the set-up probes over the run: the machine's speed drifts
        # over seconds, and a burst of probes would sample one moment of it
        probes = [0] * steps
        for j in range(SETUP_PROBES):
            probes[j * steps // SETUP_PROBES] += 1

    proc, (s, raw) = _spawn(extra, job, deadline)
    setups, raw_setups = [s], [raw]
    lines = []
    try:
        for n in probes:
            for _ in range(n):
                scaled, raw = _probe(job, deadline)
                setups.append(scaled)
                raw_setups.append(raw)
            lines.append(_step(proc))
        lines += _finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    timed = [doc for doc in lines if "pass" in doc]
    attempted, failed, known, problems = _check_passes(
        args.workload, ops, refs_, check, timed)
    print(f"perfbench {args.workload} seed={args.seed}: {len(timed)} passes "
          f"x {len(ops)} operations, set-up over {len(setups)} interpreters")
    for line in problems[:20]:
        print(f"  problem: {line}")

    lat = [scaled_latencies(d) for d in timed]
    walls = [sum(x) / 1e9 for x in lat]
    raw_walls = [sum(op[1] - op[0] for op in d["ops"]) / 1e9 for d in timed]
    print(f"  times are at the reference speed; raw: pass "
          f"{statistics.median(raw_walls):.4f} s, set-up "
          f"{statistics.median(raw_setups):.4f} s")
    if args.trace:
        kinds = [d["pass"] for d in timed]
        layer_runs = []
        for d, wall, raw_wall in zip(timed, walls, raw_walls):
            if d["pass"] == "traced":
                layers = dict(d["layers"])
                for key in layers:
                    if key.endswith("_s"):
                        layers[key] *= wall / raw_wall
                layer_runs.append(layers)
        if any(_counts(r) != _counts(layer_runs[0]) for r in layer_runs):
            problems.append("work counts differ between traced passes")
            print("  problem: work counts differ between traced passes")
        # counts repeat exactly (checked above); times are medians
        metrics = dict(layer_runs[0])
        for key in metrics:
            if key.endswith("_s"):
                metrics[key] = statistics.median(r[key] for r in layer_runs)
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, k in zip(walls, kinds) if k == "traced")
            - statistics.median(w for w, k in zip(walls, kinds) if k == "untraced"))
        units = {k: ("s" if k.endswith("_s") else
                     "ratio" if k.endswith("ratio") else "count")
                 for k in metrics}
    else:
        all_ms = [x / 1e6 for xs in lat for x in xs]
        t_val, t_pct, t_n = tail(all_ms)
        rss = next(d["rss_kb"] for d in lines if "rss_kb" in d)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(all_ms),
            "op_tail_ms": t_val,
            "peak_rss_mb": rss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms", "peak_rss_mb": "MB"}
        print(f"  op_tail_ms is p{t_pct:.1f} of {t_n} samples"
              + (" (10 beyond it)" if t_n > 10 else " (the maximum)"))
        print(f"  fail_ratio {failed / attempted:.4f} 1 ({failed} of "
              f"{attempted} failed, {known} of them the documented "
              "enumeration envelope miss)")
    for key, val in metrics.items():
        print(f"  {key:<40} {val:.6g} {units[key]}")

    missing = [k for k in reported if k not in metrics]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names unknown metrics {missing}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
