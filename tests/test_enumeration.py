import builtins
import copy
import io
import math
import os
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from divcalc import enumeration, lattice
from divcalc.criteria import b2_rule_enriques, gonality
from divcalc.divexpr import render, resolve
from divcalc.enumeration import (
    FIXTURES,
    CaseFixture,
    enumerate_bogreider,
    enumerate_destab,
    explainer,
    verify_all,
    verify_case,
)
from divcalc.errors import (
    FixtureError,
    ModelError,
    ModelMismatchError,
    OverflowGuardError,
    RangeError,
)
from divcalc.lattice import (
    DivClass,
    LatticeModel,
    model_from_json_dict,
    pair,
    slice_points,
)
from divcalc.surfaces import (
    enriques,
    get_config,
    genus,
    get_surface,
    list_configs,
    list_surfaces,
    phi,
    sigma,
)

from oracle_bruteforce import (
    ORACLE_CASES,
    ORACLE_SURFACES,
    brute_destab,
    brute_survivors,
    slice_box,
    survivor_box,
)
from test_criteria import _chamber_classes
from test_lattice import _hyperbolic_gram, _model


def _pencil_fixture_ids():
    return [cid for cid, fx in FIXTURES.items() if fx.kind == "pencil"]


def test_every_fixture_passes():
    reports = verify_all()
    assert len(reports) == len(FIXTURES) == 13
    bad = [r.case_id for r in reports if r.status != "PASS"]
    assert not bad, bad


def test_verify_all_opens_no_file(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"verify_all opened {args[0]!r}")

    with monkeypatch.context() as m:
        for mod in (io, builtins, os):
            m.setattr(mod, "open", refuse)
        reports = verify_all()
    assert [r.status for r in reports] == ["PASS"] * len(FIXTURES)


def test_verify_all_is_verify_case_of_every_fixture():
    reports = verify_all()
    assert [r.case_id for r in reports] == list(FIXTURES)
    for rep, cid in zip(reports, FIXTURES):
        alone = verify_case(cid)
        assert rep == alone, cid
        assert rep.to_json_dict() == alone.to_json_dict(), cid


def _counting(calls, name, real):
    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return counting


def _count_calls(monkeypatch, names):
    """Counter of calls to the named enumeration functions, each rebound
    to a counting wrapper."""
    calls = Counter()
    for name in names:
        monkeypatch.setattr(enumeration, name,
                            _counting(calls, name, getattr(enumeration, name)))
    return calls


_REPLAY_COUNTED = ("_slicer", "resolve", "render", "_decomposition",
                   "EnumerationResult")


def _replay_calls(calls, **want):
    """want, with 0 for every name of _REPLAY_COUNTED it leaves out,
    against the calls counted."""
    return {n: calls[n] for n in _REPLAY_COUNTED} == dict.fromkeys(
        _REPLAY_COUNTED, 0) | want


def test_replay_sets_up_each_curve_and_expression_once(monkeypatch):
    # the 9 pencil fixtures lie on 5 curves, and the identity groups hold
    # 13 distinct expressions; a set-up per case made 9 slice walks and
    # 37 parses. The replay grades keys from the scan's coordinates, so
    # it builds no search record and renders no curve (a replay through
    # the public search rendered 29 times and built 20 survivor records
    # and 9 results)
    calls = _count_calls(monkeypatch, _REPLAY_COUNTED)
    verify_all()
    assert _replay_calls(calls, _slicer=5, resolve=18), calls
    for cid in _pencil_fixture_ids():
        calls.clear()
        assert verify_case(cid).status == "PASS"
        assert _replay_calls(calls, _slicer=1, resolve=1), (cid, calls)
    for cid, distinct in {"lemmag7": 6, "lemmag8": 5, "lemmag9": 2}.items():
        calls.clear()
        assert verify_case(cid).status == "PASS"
        assert _replay_calls(calls, resolve=distinct), (cid, calls)


def test_replay_memoizes_expressions_without_cache_wrappers(monkeypatch):
    # each identity group memoizes its expressions in a dict; building a
    # functools.cache wrapper per group (one update_wrapper call each, 4
    # in verify_all) cost more than the parses it saved
    import functools

    wrapped = []

    def counting_update_wrapper(*args, **kwargs):
        wrapped.append(args)
        return real(*args, **kwargs)

    real = functools.update_wrapper
    monkeypatch.setattr(functools, "update_wrapper", counting_update_wrapper)
    calls = _count_calls(monkeypatch, _REPLAY_COUNTED)
    assert all(r.status == "PASS" for r in verify_all())
    assert wrapped == []
    assert _replay_calls(calls, _slicer=5, resolve=18), calls


def _seeded_pencil_fixtures(count=40):
    """count (fixture, search result) pairs drawn with a fixed seed over
    the 12 built-in surfaces: C has its first two coordinates in [0, 8]
    and the others in [-1, 1], C^2 >= 2k as in _seeded_searches, k is
    2..5 and mod4 on, off or automatic. Each fixture expects the
    survivors of enumerate_bogreider(surface, C, k, mod4), keyed by
    render(L) and z, and the result is that search's."""
    rng = random.Random(2901)
    names = list_surfaces()
    out = []
    while len(out) < count:
        name = names[len(out) % len(names)]
        m = get_surface(name)
        coords = [rng.randint(0, 8) for _ in range(2)] + [
            rng.randint(-1, 1) for _ in range(m.rank - 2)]
        C, k = m.klass(tuple(coords)), rng.randint(2, 5)
        if pair(C, C) < 2 * k:
            continue
        mod4 = rng.choice((True, False, None))
        res = enumerate_bogreider(m, C, k, mod4)
        expected = tuple(sorted((render(d.L), d.z) for d in res.survivors))
        out.append((CaseFixture(
            case_id=f"seeded-{len(out)}", kind="pencil", surface=name,
            curve=render(C), k=k, mod4=mod4, expected=expected), res))
    return out


def _rejected_key(fx, res):
    """The (L, z) key of the first slice point of fx's search that the
    search rejects."""
    m = get_surface(fx.surface)
    C, k = resolve(fx.curve, m), fx.k
    kept = {d.L for d in res.survivors}
    return next((render(L), k - s + pair(L, L))
                for s in range(k, 2 * k + 1)
                for L in slice_points(C, s, s - k, s // 2) if L not in kept)


def test_replay_grades_as_the_search_on_seeded_fixtures(monkeypatch):
    # the replay grades keys from the scan's coordinates and never builds
    # the search's records; on every seeded case it reports the search's
    # survivor keys and rejection count, and on one case that expects a
    # rejected candidate in place of its first survivor, the missing and
    # unexpected lines of that search and its explainer
    cases = _seeded_pencil_fixtures()
    bad = next(i for i, (_, res) in enumerate(cases)
               if res.survivors and res.rejected)
    fx, res = cases[bad]
    cases[bad] = CaseFixture(
        case_id=fx.case_id, kind="pencil", surface=fx.surface,
        curve=fx.curve, k=fx.k, mod4=fx.mod4,
        expected=(_rejected_key(fx, res),) + fx.expected[1:]), res
    for fx, _ in cases:
        monkeypatch.setitem(FIXTURES, fx.case_id, fx)
    replayed = {r.case_id: r for r in verify_all()}
    seen = Counter()
    for i, (fx, res) in enumerate(cases):
        rep = verify_case(fx.case_id)
        assert replayed[fx.case_id] == rep
        got = sorted((render(d.L), d.z) for d in res.survivors)
        assert rep.survivors == got, fx
        if i == bad:
            m = get_surface(fx.surface)
            explain = explainer(m, resolve(fx.curve, m), fx.k, fx.mod4)
            want = set(fx.expected)
            traces = {key: explain(resolve(key[0], m).coords)[1]
                      for key in sorted(want - set(got))}
            # one missing key, a candidate that fails a stage
            [trace] = traces.values()
            assert trace[-1][1].startswith("fail:")
            assert rep.status == "FAIL"
            assert rep.trace == [
                f"missing ({expr}, z={z}): {t}"
                for (expr, z), t in traces.items()] + [
                f"unexpected survivor ({expr}, z={z})"
                for expr, z in sorted(set(got) - want)]
            continue
        assert rep.status == "PASS", fx
        assert rep.trace == [f"{len(got)} survivor(s) match; "
                             f"{sum(res.rejected.values())} candidates "
                             "rejected"], fx
        seen.update(res.rejected)
        seen["z > 0"] += sum(d.z > 0 for d in res.survivors)
    assert set(seen) == {"sign", "mod4", "z > 0"}, seen


@pytest.mark.parametrize("cid", list(ORACLE_CASES))
def test_survivors_match_oracle_at_production_box(cid):
    # the oracle also gates the catalogue: each pencil fixture's frozen
    # survivor set is the complete brute-force set
    skey, C, k, mod4 = ORACLE_CASES[cid]
    surf = get_surface(skey)
    res = enumerate_bogreider(surf, surf.klass(C), k, mod4=mod4)
    got = {(d.L.coords, d.z) for d in res.survivors}
    want = brute_survivors(skey, C, k, mod4=mod4)
    assert got == want
    frozen = {(resolve(expr, surf).coords, z)
              for expr, z in FIXTURES[cid].expected}
    assert frozen == want


def test_inline_expected_sets():
    # the five cases whose survivor sets are pinned inline
    want = {
        "g1kondelp-a": {("H", 1)},
        "g1kondelp-b": {("H-G1", 0), ("H-G2", 0)},
        "g1kondelp-d": {("H-G1", 0), ("H-G2", 0), ("H-G3", 0)},
        "g1kondelp-g": {("2f", 0)},
        "g1kondelp-h": {("f", 0), ("C0+f", 0)},
    }
    for cid, expect in want.items():
        fx = FIXTURES[cid]
        surf = get_surface(fx.surface)
        C = resolve(fx.curve, surf)
        res = enumerate_bogreider(surf, C, fx.k, mod4=fx.mod4)
        assert {(d.expr, d.z) for d in res.survivors} == expect, cid


def test_case_a_killed_means_net_empty():
    fx = FIXTURES["g1kondelp-a"]
    killed = {(expr, z) for expr, z, _reason in fx.killed}
    surf = get_surface(fx.surface)
    C = resolve(fx.curve, surf)
    res = enumerate_bogreider(surf, C, fx.k, mod4=fx.mod4)
    # everything numeric dies later
    assert {(d.expr, d.z) for d in res.survivors} == killed


def test_survivor_ordering_and_payload():
    surf = get_surface("sigma3")
    C = resolve("-2K", surf)
    res = enumerate_bogreider(surf, C, 6, mod4=True)
    coords = [d.L.coords for d in res.survivors]
    assert coords == sorted(coords)
    docs = res.to_json_dict()["survivors"]
    for d, doc in zip(res.survivors, docs, strict=True):
        assert d.z == 6 - d.ML
        assert d.deg_D == d.L2 + d.ML - 6
        assert doc["trace"][-1][0] == "mod4"
        assert doc["L"] == render(d.L)


def test_rejected_histogram_accounts_for_everything():
    surf = get_surface("blq")
    C = resolve("-2K", surf)
    res = enumerate_bogreider(surf, C, 4, mod4=True)
    assert sum(res.rejected.values()) + len(res.survivors) == res.visited


def test_explainer_out_of_box():
    surf = get_surface("sigma1")
    C = resolve("-2K", surf)
    dec, trace = explainer(surf, C, 6, mod4=True)((40, -1))
    assert dec is None
    assert trace[-1][0] == "ML_ge_L2" or trace[-1][1].startswith("fail")


def test_explainer_survivor_trace():
    surf = get_surface("blq")
    C = resolve("-2K", surf)
    dec, trace = explainer(surf, C, 4, mod4=True)((0, 1))
    assert dec is not None
    names = [n for n, _ in trace]
    assert names == [
        "nonzero", "sign", "L2_nonneg", "ML_ge_L2", "ML_le_k",
        "degD_nonneg", "mod4",
    ]


# A skewed curve (C^2 = 14) with a survivor far out in coordinates for
# its k: 3a + sum |b_i| = 68 > 8k.
_ENVELOPE_MISS = ("sigma2", "12H-11G1-3G2", 6, (16, -15, -5))


def test_search_finds_survivor_outside_envelope():
    skey, curve, k, coords = _ENVELOPE_MISS
    surf = get_surface(skey)
    res = enumerate_bogreider(surf, resolve(curve, surf), k, mod4=False)
    assert (coords, 0) in {(d.L.coords, d.z) for d in res.survivors}


def test_envelope_miss_passes_every_stage():
    skey, curve, k, coords = _ENVELOPE_MISS
    surf = get_surface(skey)
    dec, trace = explainer(surf, resolve(curve, surf), k, mod4=False)(coords)
    assert dec is not None and dec.z == 0
    assert [n for n, _ in trace] == [
        "nonzero", "sign", "L2_nonneg", "ML_ge_L2", "ML_le_k",
        "degD_nonneg", "mod4",
    ]
    assert not any(d.startswith("fail") for _, d in trace)


def test_explainer_sign_failure():
    surf = get_surface("sigma2")
    C = resolve("-2K", surf)
    dec, trace = explainer(surf, C, 4, mod4=True)((1, 1, 0))
    assert dec is None
    assert trace[-1][0] == "sign"


# one candidate per stage, each failing there: (model, curve, k, coords,
# the failed stage's detail); every stage before it passes
_STAGE_FAILURES = [
    ("sigma3", "-2K", 5, (0, 0, 0, 0), "zero class"),
    ("sigma3", "-2K", 5, (-2, -2, -2, -2), "negative pairing with ['H']"),
    ("sigma3", "-2K", 5, (0, -2, -2, -2), "L^2 = -12"),
    ("sigma3", "-2K", 5, (4, -1, -1, -1), "M.L = 5 < L^2 = 13"),
    ("sigma3", "-2K", 5, (2, -2, 0, 0), "M.L = 8 > k = 5"),
    ("sigma3", "-2K", 5, (1, -1, 0, 0), "deg D = -1"),
    ("pencil-pair-1", "3E+3E1", 4, (1, 1), "3 L^2 + M.L = 10 not in 4Z"),
]


def test_explainer_names_each_failed_stage():
    stages = ["nonzero", "sign", "L2_nonneg", "ML_ge_L2", "ML_le_k",
              "degD_nonneg", "mod4"]
    for i, (name, curve, k, coords, detail) in enumerate(_STAGE_FAILURES):
        m = get_config(name) if name in list_configs() else get_surface(name)
        dec, trace = explainer(m, resolve(curve, m), k, mod4=True)(coords)
        assert dec is None
        assert trace == [(stage, "pass") for stage in stages[:i]] + [
            (stages[i], f"fail: {detail}")]


def test_mod4_autodetect():
    blq_s = get_surface("blq")
    res = enumerate_bogreider(blq_s, resolve("-2K", blq_s), 4)
    assert res.mod4_applied
    c6 = get_surface("blc6")
    res = enumerate_bogreider(c6, resolve("2C0+12f", c6), 4)
    assert not res.mod4_applied
    s2 = get_surface("sigma2")
    res = enumerate_bogreider(s2, resolve("3H-G1", s2), 4)
    assert not res.mod4_applied  # not numerically -2K


def test_preconditions():
    surf = get_surface("sigma1")
    C = resolve("-2K", surf)
    with pytest.raises(RangeError):
        enumerate_bogreider(surf, C, 1)
    neg = resolve("G1", surf)
    with pytest.raises(ModelError):
        enumerate_bogreider(surf, neg, 4)
    blq = get_surface("blq")
    with pytest.raises(ModelError):  # C^2 = 0: the slices are infinite
        enumerate_bogreider(blq, resolve("f", blq), 4)
    plane = LatticeModel(
        name="plane", labels=("X", "Y"), gram=((1, 0), (0, 1)),
        canonical=(0, 0), chi=1,
    )
    with pytest.raises(ModelError):  # not hyperbolic
        enumerate_bogreider(plane, plane.klass((1, 1)), 2)
    # where refusals meet, another model comes first, then k < 2, then
    # the walk's own
    with pytest.raises(ModelMismatchError):
        enumerate_bogreider(get_surface("sigma2"), neg, 1)
    with pytest.raises(RangeError):
        enumerate_bogreider(surf, neg, 1)


@pytest.mark.parametrize("k", [4.0, True, "4", None, Fraction(4)],
                         ids=["float", "bool", "str", "none", "fraction"])
def test_search_and_explainer_refuse_a_k_that_is_not_an_int(k):
    blq = get_surface("blq")
    C = resolve("-2K", blq)
    with pytest.raises(RangeError, match="^k must be an integer, got ") as exc:
        enumerate_bogreider(blq, C, k)
    assert exc.value.name == "k"
    with pytest.raises(RangeError, match="must be an integer"):
        explainer(blq, C, k)


@pytest.mark.parametrize("mod4", ["on", 2, 1.0, 0, 1],
                         ids=["str", "two", "float", "zero", "one"])
def test_search_and_explainer_refuse_a_mod4_that_is_not_a_bool(mod4):
    # 0, 1 and 1.0 compare equal to a bool, so only a type test refuses
    # them
    blq = get_surface("blq")
    C = resolve("-2K", blq)
    with pytest.raises(RangeError, match="mod4 must be None or a bool, "
                                         "got "):
        enumerate_bogreider(blq, C, 4, mod4=mod4)
    with pytest.raises(RangeError, match="mod4 must be None or a bool"):
        explainer(blq, C, 4, mod4=mod4)
    with pytest.raises(RangeError, match="^k must be >= 2, got 1$"):
        enumerate_bogreider(blq, C, 1, mod4=mod4)  # k first
    with pytest.raises(RangeError, match="mod4"):  # C^2 = 0, walked after
        enumerate_bogreider(blq, resolve("f", blq), 4, mod4=mod4)


def test_explainer_refuses_what_the_search_refuses():
    surf = get_surface("sigma1")
    with pytest.raises(RangeError):
        explainer(surf, resolve("-2K", surf), 1)((1, 0))
    with pytest.raises(ModelError):  # C^2 = -1
        explainer(surf, resolve("G1", surf), 4)((1, 0))
    blq = get_surface("blq")
    with pytest.raises(ModelError):  # C^2 = 0
        explainer(blq, resolve("f", blq), 4)((0, 1))


@pytest.mark.parametrize("coords", [(2**32, 0), (0, 2**62)],
                         ids=["L2", "LC"])
def test_explainer_refuses_a_pairing_outside_the_envelope(coords):
    # on blq, L = a C0 + b f has L^2 = 2a(b - a) and L.(-2K) = 4b: the
    # first candidate has L^2 = -2^65 with L.C = 0, the second L.C = 2^64
    # with L^2 = 0, and each is refused as the pairing refuses it
    blq = get_surface("blq")
    explain = explainer(blq, resolve("-2K", blq), 4, mod4=True)
    with pytest.raises(OverflowGuardError, match="64-bit envelope"):
        explain(coords)


def _raised(call, *args):
    """The type of the refusal call(*args) raises, or None."""
    try:
        call(*args)
    except (ModelError, ModelMismatchError, RangeError) as exc:
        return type(exc)
    return None


def test_explainer_refuses_in_the_search_order():
    # where refusals meet (another model, k < 2, C^2 <= 0) both raise the
    # same type, and both accept the same inputs
    s1, s2, blq = (get_surface(n) for n in ("sigma1", "sigma2", "blq"))
    curves = [resolve("-2K", s1), resolve("G1", s1), resolve("-2K", s2),
              resolve("f", blq), resolve("-2K", blq)]
    seen = set()
    for surf in (s1, s2, blq):
        for C in curves:
            for k in (0, 1, 2, 4):
                got = _raised(enumerate_bogreider, surf, C, k)
                assert got == _raised(
                    lambda: explainer(surf, C, k)((0,) * surf.rank)), (
                    surf.name, C, k)
                seen.add(got)
    assert seen == {None, ModelMismatchError, RangeError, ModelError}


def test_search_refuses_a_curve_from_another_model():
    s2, s3 = get_surface("sigma2"), get_surface("sigma3")
    with pytest.raises(ModelMismatchError):
        enumerate_bogreider(s3, resolve("-2K", s2), 4)
    blq = get_surface("blq")
    with pytest.raises(ModelMismatchError):
        enumerate_bogreider(s2, resolve("-2K", blq), 4)


def test_explainer_refuses_a_curve_from_another_model():
    s2, s3 = get_surface("sigma2"), get_surface("sigma3")
    with pytest.raises(ModelMismatchError):
        explainer(s3, resolve("-2K", s2), 4)((1, 1, 0, 0))


def test_sigma_model_with_h_not_first_keeps_its_survivors():
    # sigma3 with its basis listed as (G1, H, G2, G3): the search reads
    # pairings, never a coordinate position, so it finds the survivors
    # of sigma3 with their coordinates permuted the same way
    surf = get_surface("sigma3")
    perm = (1, 0, 2, 3)
    doc = surf.to_json_dict()
    moved = model_from_json_dict({
        "name": "sigma3-G1-first",
        "basis": [doc["basis"][i] for i in perm],
        "effective": [doc["effective"][i] for i in perm],
        "gram": [[doc["gram"][i][j] for j in perm] for i in perm],
        "canonical": [doc["canonical"][i] for i in perm],
        "chi": doc["chi"],
    })
    assert moved.labels[:2] == ("G1", "H")
    for k in (4, 5, 6, 8):
        want = enumerate_bogreider(surf, resolve("-2K", surf), k)
        got = enumerate_bogreider(moved, resolve("-2K", moved), k)
        assert got.mod4_applied and got.survivors
        assert {(tuple(d.L.coords[i] for i in perm), d.z)
                for d in want.survivors} == {
            (d.L.coords, d.z) for d in got.survivors}, k


def test_a_model_reusing_a_builtin_name_is_a_different_model():
    # a user model named "sigma3" with the basis (G1, H, G2, G3) used to
    # accept the builtin's -2K: the search then found 0 survivors with
    # {"sign": 3} and phi returned 2 for -K
    surf = get_surface("sigma3")
    perm = (1, 0, 2, 3)
    doc = surf.to_json_dict()
    doc.update(
        basis=[doc["basis"][i] for i in perm],
        gram=[[doc["gram"][i][j] for j in perm] for i in perm],
        canonical=[doc["canonical"][i] for i in perm],
    )
    impostor = model_from_json_dict(doc)
    assert impostor.name == "sigma3"
    # same coordinates, but G1 of one model and H of the other
    H, G1 = resolve("H", surf), impostor.klass((1, 0, 0, 0))
    assert H != G1 and G1 != H and len({H, G1}) == 2
    C = resolve("-2K", surf)
    with pytest.raises(ModelMismatchError, match=(
            r"two models named sigma3 with different labels, gram, "
            r"canonical, sign_tests\)$")):
        pair(G1, C)
    with pytest.raises(ModelMismatchError):
        enumerate_bogreider(impostor, C, 4)
    with pytest.raises(ModelMismatchError):
        explainer(impostor, C, 4)((0, 1, -1, 0))
    with pytest.raises(ModelMismatchError):
        phi(impostor, resolve("-K", surf))


def _sigma3_without_effective(doc):
    del doc["effective"]
    doc["sign_tests"] = [list(t) for t in get_surface("sigma3").sign_tests]


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc.update(canonical=[3, -1, -1, -1]), "canonical"),
    (_sigma3_without_effective, "effective_labels"),
], ids=["canonical", "effective"])
def test_a_model_differing_from_a_builtin_in_one_field_is_another_model(
        edit, field):
    # one field of the builtin's document changed: a class of the builtin
    # taken by this model would be read against another canonical class
    # or sign test
    surf = get_surface("sigma3")
    doc = surf.to_json_dict()
    edit(doc)
    other = model_from_json_dict(doc)
    assert other.name == surf.name and other != surf
    H, H_other = resolve("H", surf), resolve("H", other)
    assert H != H_other and H_other != H and len({H, H_other}) == 2
    C = resolve("-2K", surf)
    message = (r"^classes live in different models \(two models named "
               rf"sigma3 with different {field}\)$")
    for call in (lambda: pair(H_other, C),
                 lambda: enumerate_bogreider(other, C, 4),
                 lambda: phi(other, resolve("-K", surf))):
        with pytest.raises(ModelMismatchError, match=message):
            call()
    assert genus(C) == 7


def test_separately_built_copies_of_a_builtin_work_together():
    shared, fresh = get_surface("sigma3"), sigma(3)
    loaded = model_from_json_dict(shared.to_json_dict())
    assert fresh is not shared and loaded is not shared
    K2 = resolve("-2K", shared)
    want = enumerate_bogreider(shared, K2, 4)
    for other in (fresh, loaded):
        C = resolve("-2K", other)
        assert C == K2 and hash(C) == hash(K2)
        assert pair(C, resolve("H", shared)) == 6
        got = enumerate_bogreider(shared, C, 4)
        assert got.to_json_dict() == want.to_json_dict()
        dec, _ = explainer(shared, C, 4)((1, -1, 0, 0))
        assert dec is not None
        assert phi(shared, resolve("-K", other)).value == 2
    # a copied class holds a copy of its model, which equals the original
    for twin in (copy.deepcopy(K2), pickle.loads(pickle.dumps(K2))):
        assert twin.model is not shared and twin.model == shared
        assert twin == K2 and hash(twin) == hash(K2)
        assert pair(twin, resolve("H", shared)) == 6


def test_survivors_match_oracle_on_random_hyperbolic_models():
    # no effective classes, so no sign stage: the oracle's literal
    # index-theorem predicate is the one that could still reject here
    rng = random.Random(4)
    seen = set()
    for trial in range(400):
        r, even = rng.randint(3, 4), trial % 2 == 0
        gram = _hyperbolic_gram(rng, r, even)
        C = tuple(rng.randint(-3, 3) for _ in range(r))
        if trial % 3 == 0:
            C = tuple(2 * c for c in C)
        m = _model(gram)  # kind generic, no effective classes
        if pair(m.klass(C), m.klass(C)) <= 0:
            continue
        k, mod4 = rng.randint(2, 5), trial % 4 < 2
        box = slice_box(gram, C, 2 * k, 0)
        if (2 * box + 1) ** r > 2 * 10**5:
            continue
        res = enumerate_bogreider(m, m.klass(C), k, mod4=mod4)
        got = {(d.L.coords, d.z) for d in res.survivors}
        assert got == brute_survivors(gram, C, k, box=box, mod4=mod4), (
            gram, C, k, mod4)
        seen |= {f"rank {r}", "even" if even else "odd",
                 "survivors" if got else "none"}
        if any(n.startswith("equality") for d in res.survivors
               for n in d.notes):
            seen.add("equality")
    assert seen == {"rank 3", "rank 4", "even", "odd", "survivors", "none",
                    "equality"}


def test_search_sets_up_the_slice_walk_once(monkeypatch):
    calls = []

    def counting_kernel_basis(w, gram):
        calls.append(w)
        return real(w, gram)

    real = lattice._kernel_basis
    monkeypatch.setattr(lattice, "_kernel_basis", counting_kernel_basis)
    surf = get_surface("sigma3")
    res = enumerate_bogreider(surf, resolve("-2K", surf), 6)
    assert res.visited == 6  # over the k + 1 = 7 slices s = 6..12
    assert len(calls) == 1


def test_explaining_a_whole_search_sets_up_the_slice_walk_once(monkeypatch):
    # the Enriques search of _KERNEL_SEARCHES, every slice point explained
    e = enriques()
    C = e.klass((2, 3, 0, 0, 1, 0, -1, -1, 0, 1))
    points = [L.coords for s in range(3, 7)
              for L in slice_points(C, s, s - 3, s // 2)]
    assert len(points) == 227
    calls = []

    def counting_kernel_basis(w, gram):
        calls.append(w)
        return real(w, gram)

    real = lattice._kernel_basis
    monkeypatch.setattr(lattice, "_kernel_basis", counting_kernel_basis)
    explain = explainer(e, C, 3, mod4=True)
    traces = [explain(x) for x in points]
    assert len(calls) == 1
    assert traces == [explainer(e, C, 3, mod4=True)(x) for x in points]
    assert len(calls) == 1 + len(points)  # a fresh explainer: one per call


def test_enriques_survivors_are_u1_2u2_and_the_e8_roots():
    # C = U1 + 2U2, k = 2. L = xU1 + yU2 + e with e in E8(-1) has
    # L.C = 2x + y and L^2 = 2xy + e^2, which is even, and the stages
    # force k <= L.C <= 2k and L.C - k <= L^2 <= L.C / 2, so L.C = 3
    # would need L^2 = 1. L.C = 2 with L^2 = 0: 2xy = -e^2 >= 0 keeps x, y >= 0, so e = 0 and L is U1 or
    # 2U2. L.C = 4 with L^2 = 2: only x = 1, y = 2 leaves e^2 = -2 <= 0,
    # so L = C + r for the 240 roots r of E8(-1). Hodge passes them all.
    e = enriques()
    C = resolve("U1+2U2", e)
    res = enumerate_bogreider(e, C, 2, mod4=False)
    found = {d.L.coords for d in res.survivors}
    assert len(found) == len(res.survivors) == 242
    special = {resolve("U1", e).coords, resolve("2U2", e).coords}
    assert special <= found
    for coords in found - special:
        r = e.klass(coords) - C
        assert r.coords[:2] == (0, 0) and pair(r, r) == -2


# The paper's tetragonal regime: the chamber classes C with certified
# phi = 2 and C^2 >= 12, so of genus C^2/2 + 1 >= 7, up to C^2 = 100.
# Each k = 4 search keeps L = 2E, E the witness of phi; the others, by
# (C^2, L^2, M.L, z), sit at genus 7, 8 and 9 only, and are kept, since
# the lattice cannot exclude them.
_TETRAGONAL_OTHERS = {
    (12, 0, 4, 0): 16, (12, 2, 3, 1): 1, (12, 2, 4, 0): 16,
    (12, 4, 4, 0): 18,
    (14, 0, 4, 0): 2, (14, 2, 4, 0): 2, (14, 4, 4, 0): 2,
    (16, 0, 4, 0): 1, (16, 2, 4, 0): 1, (16, 4, 4, 0): 1,
}


def test_tetragonal_regime_on_the_chamber_classes():
    e = enriques()
    rows = [(C, C2) for C, _, C2, phi_C in _chamber_classes(100)
            if phi_C == 2 and C2 >= 12]
    # two classes at each C^2 = 0 mod 4 and one at each C^2 = 2 mod 4
    assert Counter(C2 for _, C2 in rows) == {
        q: 2 - q % 4 // 2 for q in range(12, 101, 2)}
    others, per_class, total = Counter(), [], 0
    for C, C2 in rows:
        assert gonality(C2, 2) == 4
        assert b2_rule_enriques(C2, 2).status == "b2_at_least_1"
        res = enumerate_bogreider(e, C, 4, mod4=False)
        assert enumerate_bogreider(e, C, 4) == res  # auto-detection: off
        twoE = 2 * phi(e, C).witness
        assert [(d.L2, d.ML, d.z) for d in res.survivors
                if d.L == twoE] == [(0, 4, 0)]
        rest = [(C2, d.L2, d.ML, d.z) for d in res.survivors if d.L != twoE]
        others.update(rest)
        if rest:
            per_class.append((C2, len(rest)))
        total += len(res.survivors)
    assert len(rows) == 68 and total == 128
    assert sorted(per_class) == [(12, 2), (12, 49), (14, 6), (16, 3)]
    assert others == _TETRAGONAL_OTHERS


def _skewed_curves(seed, count):
    """count curves with C^2 > 0 over the oracle's surfaces in turn, with
    k in 2..7 and the parity filter alternating. A draw whose survivor
    box would make the numpy scan exceed 10^6 cells is drawn again; that
    bounds the test's time, not which survivors it can see."""
    rng = random.Random(seed)
    keys = ["sigma1", "sigma2", "sigma3", "blq", "blc6"]
    out = []
    while len(out) < count:
        skey = keys[len(out) % len(keys)]
        if skey.startswith("sigma"):
            a = rng.randint(2, 14)
            C = (a,) + tuple(-rng.randint(0, a) for _ in range(int(skey[5:])))
        else:
            C = (rng.randint(1, 4), rng.randint(0, 30))
        k = rng.randint(2, 7)
        gram = ORACLE_SURFACES[skey][0]
        c2 = sum(x * g * y for x, row in zip(C, gram) for g, y in zip(row, C))
        if c2 <= 0:
            continue
        if (2 * survivor_box(skey, C, k) + 1) ** len(C) > 10**6:
            continue
        out.append((skey, C, k, len(out) % 2 == 0))
    return out


def test_survivors_match_oracle_on_skewed_curves():
    for skey, C, k, mod4 in _skewed_curves(3, 30):
        surf = get_surface(skey)
        res = enumerate_bogreider(surf, surf.klass(C), k, mod4=mod4)
        got = {(d.L.coords, d.z) for d in res.survivors}
        box = survivor_box(skey, C, k)
        assert got == brute_survivors(skey, C, k, box=box, mod4=mod4), (
            skey, C, k, mod4)


# (visited, survivors) per search. The counts are deterministic, so they
# gate the search's work without timing it.
_WORK_COUNTS = {
    "g1kondelp-a": (1, 1),
    "g1kondelp-b": (2, 2),
    "g1kondelp-c": (2, 2),
    "g1kondelp-d": (3, 3),
    "g1kondelp-e": (2, 2),
    "g1kondelp-f": (6, 6),
    "g1kondelp-g": (1, 1),
    "g1kondelp-h": (2, 2),
    "g1kondelp-i": (1, 1),
}


def test_work_counts_are_pinned():
    for cid, want in _WORK_COUNTS.items():
        fx = FIXTURES[cid]
        surf = get_surface(fx.surface)
        res = enumerate_bogreider(
            surf, resolve(fx.curve, surf), fx.k, mod4=fx.mod4)
        assert (res.visited, len(res.survivors)) == want, cid
    surf = get_surface("sigma3")
    res = enumerate_bogreider(surf, resolve("6H-2G2-4G3", surf), 7)
    assert not res.mod4_applied
    assert (res.visited, len(res.survivors)) == (38, 23)
    assert res.rejected == {"sign": 15}


# (visited, survivors, rejected) of heavier searches, with the parity
# filter on by default (C = -2K)
_HEAVY_WORK_COUNTS = {
    6: (1252, 1252, {}),
    8: (7191, 6453, {"sign": 738}),
}


def test_heavier_work_counts_are_pinned():
    surf = get_surface("sigma6")
    C = resolve("-2K", surf)
    for k, want in _HEAVY_WORK_COUNTS.items():
        res = enumerate_bogreider(surf, C, k)
        assert res.mod4_applied
        assert (res.visited, len(res.survivors), res.rejected) == want, k


def test_search_builds_one_class_per_slice_point(monkeypatch):
    # at most one: the walk yields coordinate tuples and the stages read
    # them, so only a survivor's L becomes a class (Decomposition stores
    # L, not the residual C - L) and the 738 points the sign stage
    # rejects build none. Both constructor paths count: __new__, which
    # checks its coordinates, and DivClass._walked, for walk output.
    built = []

    def counting_new(cls, model, coords):
        built.append(coords)
        return real_new(cls, model, coords)

    def counting_walked(model, coords):
        built.append(coords)
        return real_walked(model, coords)

    real_new, real_walked = DivClass.__new__, DivClass._walked
    monkeypatch.setattr(DivClass, "__new__", counting_new)
    monkeypatch.setattr(DivClass, "_walked", staticmethod(counting_walked))
    surf = get_surface("sigma6")
    assert built == []
    C = resolve("-2K", surf)
    assert built == [C.coords]
    del built[:]
    res = enumerate_bogreider(surf, C, 8)
    assert (res.visited, len(res.survivors)) == (7191, 6453)
    assert len(built) == len(res.survivors) == 6453
    assert built == [d.L.coords for d in res.survivors]


# seeded searches that between them reject by sign and by parity on models
# whose sign rows S = (G t for t in sign_tests) take every shape: the gram
# itself (sigma, config), rows of test classes that are no basis vectors
# (blq, blcN), rows of a proper subset of the basis (_SIGMA3_EXCEPTIONAL)
# and no rows at all (enriques)
_KERNEL_SEARCHES = [
    ("sigma3", (3, -2, 1, 0), 4, False),
    ("sigma3", (7, 5, -1, -1), 6, True),
    ("blq", (3, 6), 5, True),
    ("blq", (-1, -2), 5, True),
    ("blc6", (1, 4), 6, True),
    ("blc6", (1, 5), 4, False),
    ("pencil-triple-1", (2, -1, 4), 5, True),
    ("pencil-triple-1", (-2, -2, -1), 3, False),
    ("enriques", (2, 3, 0, 0, 1, 0, -1, -1, 0, 1), 3, True),
]

# sigma3 whose sign test reads the exceptional classes G1..G3 but not H
_SIGMA3_EXCEPTIONAL = model_from_json_dict(dict(
    sigma(3).to_json_dict(), name="sigma3-exceptional",
    effective=["G1", "G2", "G3"]))


def _seeded_searches(count=200):
    """count (model, C, k, mod4) drawn with a fixed seed, cycling through
    the 12 built-in surfaces and the 3 configurations: C has its first
    two coordinates in [0, 8] and the others in [-1, 1], k is 2..5 and
    mod4 on, off or automatic. C^2 >= 2k keeps every slice shell small,
    its squared radius s^2/C^2 - (s - k) at most k, so that all of them
    are searched and explained in about a second."""
    rng = random.Random(2800)
    models = [get_surface(n) for n in list_surfaces()] + [
        get_config(n) for n in list_configs()]
    out = []
    while len(out) < count:
        m = models[len(out) % len(models)]
        coords = [rng.randint(0, 8) for _ in range(2)] + [
            rng.randint(-1, 1) for _ in range(m.rank - 2)]
        C, k = m.klass(tuple(coords)), rng.randint(2, 5)
        if pair(C, C) >= 2 * k:
            out.append((m, C, k, rng.choice((True, False, None))))
    return out


def _kernel_searches(seeded=True):
    """(model, C, k, mod4) of _KERNEL_SEARCHES, of the sigma3 searches
    there on _SIGMA3_EXCEPTIONAL and, if seeded, of _seeded_searches()."""
    for name, coords, k, mod4 in _KERNEL_SEARCHES:
        m = (get_config if name.startswith("pencil") else get_surface)(name)
        yield m, m.klass(coords), k, mod4
        if name == "sigma3":
            m = _SIGMA3_EXCEPTIONAL
            yield m, m.klass(coords), k, mod4
    if seeded:
        yield from _seeded_searches()


def test_seeded_searches_cover_new_shapes():
    # odd lattices whose window reaches past the shell's centre, so the
    # walk's lower bound is negative; pivots p with p.C = g > 1; configs
    # with the parity filter on; survivors and both rejecting stages
    seen = Counter()
    for m, C, k, mod4 in _seeded_searches():
        c2 = pair(C, C)
        odd = any(m.gram[i][i] % 2 for i in range(m.rank))
        if odd and any(s // 2 * c2 > s * s for s in range(k, 2 * k + 1)):
            seen["odd, past the centre"] += 1
        if math.gcd(*(pair(C, resolve(lab, m)) for lab in m.labels)) > 1:
            seen["g > 1"] += 1
        res = enumerate_bogreider(m, C, k, mod4)
        if res.mod4_applied and m.name.startswith("pencil"):
            seen["config, parity on"] += 1
        seen.update(res.rejected)
        seen["survivors"] += len(res.survivors)
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


def _sign_shape(m):
    rows = tuple(tuple(pair(resolve(lab, m), m.klass(t))
                       for lab in m.labels) for t in m.sign_tests)
    if not rows:
        return "no rows"
    if rows == m.gram:
        return "gram"
    if set(rows) <= set(m.gram):
        return "subset of the gram"
    return "other test classes"


def _explained(m, C, k, mod4):
    """(search result, {coords: (Decomposition or None, trace)}) with
    every slice point of the search explained."""
    res = enumerate_bogreider(m, C, k, mod4=mod4)
    explain = explainer(m, C, k, mod4=mod4)
    return res, {L.coords: explain(L.coords) for s in range(k, 2 * k + 1)
                 for L in slice_points(C, s, s - k, s // 2)}


def test_search_and_explain_share_one_stage_kernel():
    shapes, buckets = set(), set()
    for m, C, k, mod4 in _kernel_searches():
        res, explained = _explained(m, C, k, mod4)
        kept = {d.L.coords: d for d in res.survivors}
        traces = {tuple(doc["coords"]): doc["trace"]
                  for doc in res.to_json_dict()["survivors"]}
        seen = Counter()
        for x, (dec, trace) in explained.items():
            if x in kept:
                assert dec == kept[x]
                assert traces[x] == [list(t) for t in trace]
                continue
            assert dec is None
            seen[trace[-1][0]] += 1
            if trace[-1][0] == "sign":
                # one wording on every model: the test classes t with
                # L.t < 0, each rendered against the basis
                L = m.klass(x)
                negs = [render(m.klass(t)) for t in m.sign_tests
                        if pair(L, m.klass(t)) < 0]
                assert negs and trace[-1] == (
                    "sign", f"fail: negative pairing with {negs}")
        assert set(kept) <= set(explained)
        assert seen == Counter(res.rejected), m.name
        assert sum(res.rejected.values()) == res.visited - len(res.survivors)
        shapes.add(_sign_shape(m))
        buckets |= set(res.rejected)
    assert shapes == {"gram", "other test classes", "subset of the gram",
                      "no rows"}
    assert buckets == {"sign", "mod4"}


def test_a_json_model_with_blq_sign_tests_is_blq():
    # blq's gram with its sign test stated in the document, under another
    # name: the same survivors, rejections and traces as the builtin on the
    # blq searches of _KERNEL_SEARCHES, and on two that keep survivors
    blq = get_surface("blq")
    doc = {"name": "ruled-q", "basis": ["C0", "f"], "gram": [[-2, 1], [1, 0]],
           "canonical": [-2, -4], "chi": 1, "sign_tests": [[0, 1], [1, 2]]}
    twin = model_from_json_dict(doc)
    assert twin.sign_tests == blq.sign_tests and not twin.effective_labels
    searches = [(coords, k, mod4) for name, coords, k, mod4
                in _KERNEL_SEARCHES if name == "blq"]
    seen = Counter()
    for coords, k, mod4 in searches + [((4, 8), 4, None), ((3, 7), 6, False)]:
        want, want_traces = _explained(blq, blq.klass(coords), k, mod4)
        got, got_traces = _explained(twin, twin.klass(coords), k, mod4)
        assert got.to_json_dict() == dict(want.to_json_dict(),
                                          surface="ruled-q")
        assert [(d and d.to_json_dict(), t) for d, t in got_traces.values()
                ] == [(d and d.to_json_dict(), t)
                      for d, t in want_traces.values()]
        seen.update(got.rejected)
        seen["survivors"] += len(got.survivors)
    assert set(seen) == {"sign", "mod4", "survivors"}


class TestDestab:
    def test_survivor_grid(self):
        res = enumerate_destab()
        cells = {(c.a, c.a1) for c in res.survivors}
        assert cells == {(3, 6), (3, 7), (4, 6)}
        assert len(res.grid) == 16

    def test_identities_on_survivors(self):
        for c in enumerate_destab().survivors:
            assert c.AB + c.lenW == 4
            assert c.A2 + c.B2 - 2 * c.AB == 8 + 4 * c.lenW

    def test_first_violations_sampled(self):
        grid = {(a, a1): v for a, a1, v in enumerate_destab().grid}
        assert grid[(1, 4)].startswith("ab:")
        assert grid[(4, 7)].startswith("Bpos")
        assert grid[(3, 6)] == "pass"

    def test_survivors_match_oracle(self):
        # the oracle's hand-expanded formulas against the grid's gram
        got = {(c.a, c.a1): (c.A2, c.B2, c.AB, c.lenW)
               for c in enumerate_destab().survivors}
        assert got == brute_destab()

    def test_box_is_complete(self):
        # every condition of the docstring, ab4 and lenW >= 0 included,
        # on a box far wider than the grid's, with plain gram arithmetic
        G = ((-2, 1), (1, 0))

        def dot(x, y):
            return sum(x[i] * G[i][j] * y[j]
                       for i in range(2) for j in range(2))

        c1, c2 = (4, 7), 4
        passing = {}
        for a in range(-60, 61):
            for a1 in range(-60, 61):
                A, B = (a, a1), (c1[0] - a, c1[1] - a1)
                A2, B2, AB = dot(A, A), dot(B, B), dot(A, B)
                if (A2 + B2 >= 16 and A2 > B2 and A2 >= 10
                        and a * (a1 - a) >= 5
                        and B != (0, 0) and min(B) >= 0
                        and c2 - AB >= 0):
                    passing[A] = c2 - AB
        assert passing == {(3, 6): 1, (3, 7): 3, (4, 6): 0}
        assert passing == {(c.a, c.a1): c.lenW
                           for c in enumerate_destab().survivors}

    def test_fixture_j_expectations(self):
        rep = verify_case("g1kondelp-j")
        assert rep.status == "PASS"
        assert len(rep.killed) == 3


class TestFixtureCatalog:
    def test_unknown_case_rejected(self):
        with pytest.raises(FixtureError):
            verify_case("nope")

    def test_unknown_identity_check_rejected(self, monkeypatch):
        fx = CaseFixture(case_id="odd-check", kind="identities",
                         identities=(("pencil-pair-1", (
                             ("square", "E", 0), ("cube", "E", 0))),))
        monkeypatch.setitem(FIXTURES, fx.case_id, fx)
        with pytest.raises(FixtureError,
                           match="^unknown identity check 'cube'$"):
            verify_case(fx.case_id)

    def test_identity_fixture_traces(self):
        rep = verify_case("lemmag8")
        assert rep.status == "PASS"
        assert any("quasi-nef" in t for t in rep.trace)
        assert any("= 14" in t for t in rep.trace)

    def test_report_json_keys(self):
        rep = verify_case("g1kondelp-b")
        doc = rep.to_json_dict()
        assert {"case", "status", "survivors", "killed", "trace"} <= set(doc)

    def test_report_explains_mismatch(self, monkeypatch):
        # force a divergence by expecting one survivor the search cannot
        # produce
        fx = FIXTURES["g1kondelp-b"]
        monkeypatch.setitem(FIXTURES, "g1kondelp-b", CaseFixture(
            case_id=fx.case_id,
            kind=fx.kind,
            surface=fx.surface,
            curve=fx.curve,
            k=fx.k,
            mod4=fx.mod4,
            expected=fx.expected + (("H", 0),),
            killed=fx.killed,
            identities=fx.identities,
            notes=fx.notes,
        ))
        rep = verify_case("g1kondelp-b")
        assert rep.status == "FAIL"
        assert any("missing" in t for t in rep.trace)

    def test_report_sets_up_one_explainer_per_mismatching_case(
            self, monkeypatch):
        # the search sets up its slice walk once; a mismatch adds one
        # explainer, with one set-up of its own, for all its missing
        # survivors, and a match adds none
        calls = []

        def counting_kernel_basis(w, gram):
            calls.append(w)
            return real(w, gram)

        real = lattice._kernel_basis
        monkeypatch.setattr(lattice, "_kernel_basis", counting_kernel_basis)
        assert verify_case("g1kondelp-b").status == "PASS"
        assert len(calls) == 1
        fx = FIXTURES["g1kondelp-b"]
        monkeypatch.setitem(FIXTURES, "g1kondelp-b", CaseFixture(
            case_id=fx.case_id, kind=fx.kind, surface=fx.surface,
            curve=fx.curve, k=fx.k, mod4=fx.mod4,
            expected=fx.expected + (("H", 0), ("G1", 0), ("2H", 0)),
            killed=fx.killed, identities=fx.identities, notes=fx.notes,
        ))
        rep = verify_case("g1kondelp-b")
        assert rep.status == "FAIL"
        assert sum(t.startswith("missing") for t in rep.trace) == 3
        assert len(calls) == 1 + 2
