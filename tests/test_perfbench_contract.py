"""What the benchmark harness in perfbench/ reads of divcalc.

perfbench/tracing.py rebinds divcalc functions by name and the worker
runs one boxed phi op, so a rename or removal there would only show up
in a traced benchmark run. These tests load the tracer from its file,
unchanged, and check every name and call it depends on. The last one
runs every workload's operations as the worker does and grades them
with perfbench/refs.py, so an output the benchmark would count as
wrong (a drifted identity trace line, say) fails here first.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import divcalc
from divcalc import cli
from divcalc.enumeration import explainer
from divcalc.lattice import slice_points
from divcalc.surfaces import enriques, get_config, list_configs, phi

from cli_diff import QUERY_SEEDS
from test_enumeration import _KERNEL_SEARCHES, _kernel_searches

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = _tracing()
    for short, funcs in tracing.TRACED.items():
        mod = importlib.import_module(f"divcalc.{short}")
        for fname in funcs:
            assert callable(getattr(mod, fname, None)), f"{short}.{fname}"


def test_worker_entry_points_resolve():
    for name in ("enriques", "enumerate_bogreider", "get_surface", "phi",
                 "resolve", "verify_all"):
        assert callable(getattr(divcalc, name, None)), name
    assert callable(importlib.import_module("divcalc.cli").main)


def test_traced_stages_cover_the_search():
    # the stage names of a survivor and of a rejected candidate, on the
    # blq -2K search and on every model of the stage-kernel searches
    tracing = _tracing()
    surf = divcalc.get_surface("blq")
    C = divcalc.resolve("-2K", surf)
    _, trace = explainer(surf, C, 4, mod4=True)((0, 1))
    assert {name for name, _ in trace} <= set(tracing.STAGES)
    models = set()
    for m, C, k, mod4 in _kernel_searches(seeded=False):
        explain = explainer(m, C, k, mod4=mod4)
        for s in range(k, 2 * k + 1):
            for L in slice_points(C, s, s - k, s // 2):
                dec, trace = explain(L.coords)
                assert {name for name, _ in trace} <= set(tracing.STAGES)
                if dec is None:
                    models.add(m.name)
    assert models == {name for name, *_ in _KERNEL_SEARCHES} | {
        "sigma3-exceptional"}


def test_queries_phi_route_runs_on_every_builtin_config(capsys):
    # the queries workload sends "phi --json --config <name> --curve ..."
    # for the builtin configurations
    for name in list_configs():
        curve = "+".join(get_config(name).labels)
        rc = cli.main(["phi", "--json", "--config", name, "--curve", curve])
        assert rc == 0, name
        doc = json.loads(capsys.readouterr().out)
        assert doc["surface"] == name and doc["result"]["certified"]


def test_worker_phi_op_runs():
    surf = enriques()
    L = surf.klass((1, 2, 0, 0, 0, 0, 0, 0, 0, 0))
    res = phi(surf, L, mode="boxed", box=1)
    assert not res.certified and res.value == 1
    # the least of the 180 box-1 hits by (value, coordinates) is -U2
    assert res.witness == surf.klass((0, -1) + (0,) * 8)


def test_every_workload_passes_the_benchmarks_own_checks(monkeypatch):
    # each operation of each workload, on the seeds of the queries corpus,
    # made as the worker makes it, sent through JSON as the worker sends
    # it and graded by perfbench/refs.py against its own references
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    refs = importlib.import_module("refs")
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    oracle, fixed = refs.load_oracle(str(ROOT)), refs.load_fixed()
    check = refs.make_checker(str(ROOT))
    wrong = []
    for seed in QUERY_SEEDS:
        for w in workloads.WORKLOADS:
            ops = workloads.generate(w, seed)
            for op, ref in zip(ops, refs.references(oracle, w, ops, fixed)):
                call, to_plain = worker._prepare(divcalc, op)
                out = json.loads(json.dumps(to_plain(call())))
                status, detail = check(w, op, out, ref)
                if status != "ok":
                    wrong.append((seed, w, op, status, detail))
    assert wrong == []
