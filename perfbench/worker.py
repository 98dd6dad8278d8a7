"""Runs one workload in a fresh interpreter; run.py starts it.

The worker reads its operations as one JSON line on stdin (run.py
generates them from the seed, so the package receives only the generated
inputs), imports divcalc, builds the surfaces and classes the operations
name and prints a ready line; run.py times set-up up to that line. Then,
each time run.py sends "go", it makes one step: first the untimed warm-up
calls, then one timed pass per step. Each pass is a closed loop with one
caller: an operation starts when the previous one has returned. Outputs are reduced to plain data after the pass, outside the
timed region, and sent to run.py as one JSON line per pass.

With --traced-passes N the worker makes one pass without tracing, then
installs the tracer and makes N traced passes, each followed by its layer
metrics.

This process never imports numpy or the references, so its peak resident
memory is divcalc's plus a small harness.
"""

from __future__ import annotations

import time

STARTED_NS = time.perf_counter_ns()  # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402


def _prepare(dc, op):
    """(call, to_plain): call makes the one public divcalc call of the
    operation, to_plain reduces its return value to JSON-able data."""
    kind = op["op"]
    if kind == "verify_all":
        return (lambda: dc.verify_all(),
                lambda reports: [r.to_json_dict() for r in reports])
    if kind == "enumerate":
        surf = dc.get_surface(op["surface"])
        C = dc.resolve(op["curve"], surf)
        if list(C.coords) != op["coords"]:
            raise SystemExit(f"{op['curve']} resolved to {C.coords}")
        k, mod4 = op["k"], op["mod4"]
        return (lambda: dc.enumerate_bogreider(surf, C, k, mod4=mod4),
                lambda res: {
                    "survivors": [[list(d.L.coords), d.z] for d in res.survivors],
                    "visited": res.visited,
                    "rejected": res.rejected,
                    "mod4": res.mod4_applied,
                })
    if kind == "phi":
        surf = dc.enriques()
        L = surf.model.klass(op["coords"])
        mode, box = op["mode"], op["box"]
        return (lambda: dc.phi(surf, L, mode=mode, box=box),
                lambda res: {"value": res.value, "certified": res.certified,
                             "witness": list(res.witness.coords)})
    argv = list(op["argv"])
    cli = sys.modules["divcalc.cli"]

    def run_cli():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return run_cli, lambda res: list(res)


# On a shared host the speed can swing by a factor of two within a tenth
# of a second and drift by a third within a minute, far more than any
# bound could absorb. While a pass runs, an interval timer therefore interrupts it
# every SAMPLE_EVERY_S to time SAMPLE_ITERATIONS rounds of a fixed
# pure-Python loop, in this thread, on this core. run.py takes the
# handler's own time out of each operation and scales the rest to a
# reference speed (see run.py).
SAMPLE_EVERY_S = 0.02
SAMPLE_ITERATIONS = 200


@dataclass(frozen=True)
class _Vec:
    coords: tuple

    def __post_init__(self):
        for c in self.coords:
            if abs(c) > 1 << 62:
                raise ValueError(c)


def calibration_loop(iterations):
    """Fixed work of the kinds the package does: frozen dataclasses with a
    validating __post_init__, tuples, generator sums, dict stores and some
    Fraction arithmetic."""
    acc = 0
    frac = Fraction(0)
    seen = {}
    for i in range(iterations):
        v = _Vec((i, i * 3, -i, i & 7))
        acc += sum(a * b for a, b in zip(v.coords, v.coords) if b) % 7
        seen[i & 255] = v
        if i % 8 == 0:
            frac += Fraction(i, i + 7)
    return acc, frac


def speed_sample():
    """Median over three runs of the loop's time per iteration, in ns."""
    clock = time.perf_counter_ns
    xs = []
    for _ in range(3):
        t = clock()
        calibration_loop(4 * SAMPLE_ITERATIONS)
        xs.append((clock() - t) / (4 * SAMPLE_ITERATIONS))
    return sorted(xs)[1]


class SpeedMonitor:
    """Speed samples as (start ns, duration ns) pairs, taken by a SIGALRM
    handler while the monitor is active and once on entry and exit."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        clock = time.perf_counter_ns
        t = clock()
        calibration_loop(SAMPLE_ITERATIONS)
        self.samples.append([t, clock() - t])

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def _run_pass(prepared, monitor):
    """One closed-loop pass. Returns, per operation, its start and end (ns),
    a success flag and its output, and the monitor's speed samples."""
    gc.collect()
    clock = time.perf_counter_ns
    raw = []
    with monitor:
        for call, _ in prepared:
            t = clock()
            try:
                res, ok = call(), True
            except Exception as exc:  # a failed operation is data, not a crash
                res, ok = f"{type(exc).__name__}: {exc}", False
            raw.append((t, clock(), ok, res))
    ops = [[start, end, ok, to_plain(res) if ok else res]
           for (start, end, ok, res), (_, to_plain) in zip(raw, prepared)]
    return {"ops": ops, "samples": monitor.samples,
            "iterations": SAMPLE_ITERATIONS}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--traced-passes", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    # a speed sample at each end of set-up, on this process's core; the
    # first one's time is taken out of the set-up time
    clock = time.perf_counter_ns
    t = clock()
    speed_before = speed_sample()
    sample_ns = clock() - t
    job = json.loads(sys.stdin.readline())
    out = sys.stdout

    def emit(doc):
        out.write(json.dumps(doc) + "\n")
        out.flush()

    import divcalc as dc
    import divcalc.cli  # noqa: F401  (set-up includes the CLI import)

    prepared = [_prepare(dc, op) for op in job["ops"]]
    warm = [_prepare(dc, op) for op in job["warmup"]]
    setup_ns = clock() - STARTED_NS - sample_ns
    emit({"ready": True})
    emit({"setup_ns": setup_ns, "speed": [speed_before, speed_sample()]})
    if args.setup_only:
        return 0
    monitor = SpeedMonitor()

    def wait_go():
        # run.py times its set-up probes while this process waits here, so
        # the two never share the machine
        if sys.stdin.readline().strip() != "go":
            raise SystemExit("run.py closed the control pipe")

    wait_go()
    for call, _ in warm:
        call()
    emit({"warm": True})

    if not args.traced_passes:
        for _ in range(args.passes):
            wait_go()
            emit({"pass": "timed", **_run_pass(prepared, monitor)})
        emit({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        return 0

    import tracing

    wait_go()
    emit({"pass": "untraced", **_run_pass(prepared, monitor)})
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        for i in range(args.traced_passes):
            wait_go()
            tracer.reset()
            done = _run_pass(prepared, monitor)
            layers = tracing.layer_metrics(tracer.names, tracer.spans, tracer.notes)
            if i == 0 and args.spans_out:
                tracing.write_spans(args.spans_out, tracer.names, tracer.spans)
            emit({"pass": "traced", "layers": layers, **done})
    finally:
        uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
