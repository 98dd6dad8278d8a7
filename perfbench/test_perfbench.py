"""Tests of the benchmark itself: run with python3 -m pytest perfbench."""

from array import array

import pytest

import refs
import run
import tracing
import workloads as wl

SEEDED = ("enumerate", "phi_enriques", "queries")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert wl.generate(workload, 7) == wl.generate(workload, 7)
    if workload in SEEDED:
        assert wl.generate(workload, 7) != wl.generate(workload, 8)


def test_generated_classes_hold_their_invariants():
    G = wl.SURFACES["enriques"]["gram"]
    u1, u2 = [1, 0] + [0] * 8, [0, 1] + [0] * 8
    for seed in range(5):
        for op in wl.generate("phi_enriques", seed):
            assert wl.dot(G, op["coords"], op["coords"]) == op["l2"]
            assert 1 in (wl.dot(G, u1, op["coords"]), wl.dot(G, u2, op["coords"]))
        for op in wl.generate("enumerate", seed):
            S = wl.SURFACES[op["surface"]]
            assert wl.dot(S["gram"], op["coords"], op["coords"]) > 0
            assert 4 <= op["k"]


def _spans(rows):
    out = array("q")
    for row in rows:
        out.extend(row)
    return out


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] and b [50, 90]; b holds c [60, 70]
    spans = _spans([(0, 0, 100, -1), (1, 10, 40, 0), (1, 50, 90, 0),
                    (2, 60, 70, 2)])
    assert tracing.self_times(spans) == [30, 30, 30, 10]


def test_layer_metrics_sum_self_time_and_calls_per_function():
    names = [f"{m}.{f}" for m, fs in tracing.TRACED.items() for f in fs]
    pair = names.index("lattice.pair")
    enum = names.index("enumeration.enumerate_bogreider")
    spans = _spans([(enum, 0, 1_000_000_000, -1),
                    (pair, 100, 200_000_100, 0),
                    (pair, 300_000_000, 400_000_000, 0)])
    notes = [(0, {"candidates": 40, "survivors": 2, "rejected.sign": 38})]
    m = tracing.layer_metrics(names, spans, notes)
    assert m["lattice.pair.calls"] == 2
    assert m["lattice.pair.self_s"] == pytest.approx(0.3)
    assert m["enumeration.enumerate_bogreider.self_s"] == pytest.approx(0.7)
    assert m["enumeration.useful_ratio"] == pytest.approx(0.05)
    assert m["enumeration.rejected.sign"] == 38
    assert m["enumeration.rejected.hodge"] == 0


def test_tracer_records_parent_of_nested_calls():
    tr = tracing.Tracer()
    inner = tr.wrap("lattice.pair", lambda x: x + 1)
    outer = tr.wrap("lattice.determinant", lambda x: inner(x) * 2)
    assert outer(1) == 4
    parents = [tr.spans[i * tracing.FIELDS + tracing.PARENT] for i in range(2)]
    assert parents == [-1, 0]


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = run.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)


def _fixed_enumerate_op(surface):
    return next(op for op in wl.generate("enumerate", 0)
                if op["origin"] == "fixed" and op["surface"] == surface)


def _out(survivors, mod4):
    return {"survivors": survivors, "visited": 0, "rejected": {}, "mod4": mod4}


def test_checker_flags_a_wrong_survivor_set():
    op = _fixed_enumerate_op("sigma3")
    ref = refs.load_fixed()["enumerate"][refs.enumerate_key(op)]
    assert refs.check_enumerate(op, _out(ref, True), ref)[0] == "ok"
    # a survivor dropped from inside the search envelope is a real error
    assert refs.check_enumerate(op, _out(ref[1:], True), ref)[0] == "wrong"
    extra = ref + [[[1, -1, 0, 0], 0]]
    assert refs.check_enumerate(op, _out(extra, True), ref)[0] == "wrong"
    assert refs.check_enumerate(op, _out(ref, False), ref)[0] == "wrong"


def test_checker_names_the_documented_miss():
    op = _fixed_enumerate_op("sigma2")
    ref = refs.load_fixed()["enumerate"][refs.enumerate_key(op)]
    assert [[16, -15, -5], 0] in ref
    seed_output = [s for s in ref if s != [[16, -15, -5], 0]]
    status, detail = refs.check_enumerate(op, _out(seed_output, False), ref)
    assert status == "known_defect" and "16, -15, -5" in detail


def test_survivor_box_reaches_the_documented_miss():
    G = wl.SURFACES["sigma2"]["gram"]
    assert refs.survivor_box(G, [12, -11, -3], 6) >= 16


def test_checker_flags_a_wrong_phi_witness():
    op = {"op": "phi", "l2": 6, "mode": "sublattice", "box": None,
          "coords": wl.enriques_class([1, 0, -1, 0, 0, 0, 1, 0], 6)}
    good = {"value": 1, "certified": True, "witness": [0, 1] + [0] * 8}
    assert refs.check_phi(op, good, 1) == ("ok", "")
    # U1 is isotropic but pairs to b != 1 with the class
    u1 = dict(good, witness=[1, 0] + [0] * 8)
    assert refs.check_phi(op, u1, 1)[0] == "wrong"
    not_isotropic = dict(good, witness=[0, 1, 1] + [0] * 7)
    assert refs.check_phi(op, not_isotropic, 1)[0] == "wrong"
    assert refs.check_phi(op, dict(good, value=2), 1)[0] == "wrong"
