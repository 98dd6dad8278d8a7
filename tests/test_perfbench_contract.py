"""What the benchmark harness in perfbench/ reads of divcalc.

perfbench/tracing.py rebinds divcalc functions by name and the worker
runs one boxed phi op, so a rename or removal there would only show up
in a traced benchmark run. These tests load the tracer from its file,
unchanged, and check every name and call it depends on.
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

from test_enumeration import _KERNEL_SEARCHES, _kernel_searches

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    L = surf.model.klass((1, 2, 0, 0, 0, 0, 0, 0, 0, 0))
    res = phi(surf, L, mode="boxed", box=1)
    assert not res.certified and res.value == 1
    # the least of the 180 box-1 hits by (value, coordinates) is -U2
    assert res.witness == surf.klass((0, -1) + (0,) * 8)
