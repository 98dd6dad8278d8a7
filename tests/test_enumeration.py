import json

import pytest

from divcalc.divexpr import render, resolve
from divcalc.enumeration import (
    FIXTURES,
    cs_filter,
    enumerate_bogreider,
    enumerate_destab,
    explain_candidate,
    fixture_catalog_json,
    load_golden,
    verify_all,
    verify_case,
)
from divcalc.errors import FixtureError, ModelError, RangeError
from divcalc.surfaces import enriques, get_surface

from oracle_bruteforce import ORACLE_CASES, brute_survivors


def _pencil_fixture_ids():
    return [cid for cid, fx in FIXTURES.items() if fx.kind == "pencil"]


def test_every_fixture_passes():
    reports = verify_all()
    assert len(reports) == len(FIXTURES) == 13
    bad = [r.case_id for r in reports if r.status != "PASS"]
    assert not bad, bad


@pytest.mark.parametrize("cid", list(ORACLE_CASES))
def test_survivors_match_oracle_at_production_box(cid):
    skey, C, k, mod4 = ORACLE_CASES[cid]
    surf = get_surface(skey)
    res = enumerate_bogreider(surf, surf.model.klass(C), k, mod4=mod4)
    got = {(d.L.coords, d.z) for d in res.survivors}
    assert got == brute_survivors(skey, C, k, mod4=mod4)


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
        assert res.survivor_keys() == expect, cid


def test_case_a_killed_means_net_empty():
    fx = FIXTURES["g1kondelp-a"]
    killed = {(expr, z) for expr, z, _reason in fx.killed}
    surf = get_surface(fx.surface)
    C = resolve(fx.curve, surf)
    res = enumerate_bogreider(surf, C, fx.k, mod4=fx.mod4)
    assert res.survivor_keys() == killed  # everything numeric dies later


def test_survivor_ordering_and_payload():
    surf = get_surface("sigma3")
    C = resolve("-2K", surf)
    res = enumerate_bogreider(surf, C, 6, mod4=True)
    coords = [d.L.coords for d in res.survivors]
    assert coords == sorted(coords)
    for d in res.survivors:
        assert d.z == 6 - d.ML
        assert d.deg_D == d.L2 + d.ML - 6
        assert d.filter_trace[-1][0] in ("hodge",)
        doc = d.to_json_dict()
        assert doc["L"] == render(d.L)


def test_rejected_histogram_accounts_for_everything():
    surf = get_surface("blq")
    C = resolve("-2K", surf)
    res = enumerate_bogreider(surf, C, 4, mod4=True)
    assert sum(res.rejected.values()) + len(res.survivors) == res.visited


def test_explain_candidate_out_of_box():
    surf = get_surface("sigma1")
    C = resolve("-2K", surf)
    dec, trace = explain_candidate(surf, C, 6, (40, -1), mod4=True)
    assert dec is None
    assert trace[-1][0] == "ML_ge_L2" or trace[-1][1].startswith("fail")


def test_explain_candidate_survivor_trace():
    surf = get_surface("blq")
    C = resolve("-2K", surf)
    dec, trace = explain_candidate(surf, C, 4, (0, 1), mod4=True)
    assert dec is not None
    names = [n for n, _ in trace]
    assert names == [
        "nonzero", "sign", "L2_nonneg", "ML_ge_L2", "ML_le_k",
        "degD_nonneg", "mod4", "hodge",
    ]


# The sigma envelope bounds 3a + sum |b_i|, not L.C, so a skewed curve
# puts a survivor outside it; the search misses it while every stage
# passes it.
_ENVELOPE_MISS = ("sigma2", "12H-11G1-3G2", 6, (16, -15, -5))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_search_finds_survivor_outside_envelope():
    skey, curve, k, coords = _ENVELOPE_MISS
    surf = get_surface(skey)
    res = enumerate_bogreider(surf, resolve(curve, surf), k, mod4=False)
    assert (coords, 0) in {(d.L.coords, d.z) for d in res.survivors}


def test_envelope_miss_passes_every_stage():
    skey, curve, k, coords = _ENVELOPE_MISS
    surf = get_surface(skey)
    dec, trace = explain_candidate(
        surf, resolve(curve, surf), k, coords, mod4=False
    )
    assert dec is not None and dec.z == 0
    assert [n for n, _ in trace] == [
        "nonzero", "sign", "L2_nonneg", "ML_ge_L2", "ML_le_k",
        "degD_nonneg", "mod4", "cs2", "hodge",
    ]
    assert not any(d.startswith("fail") for _, d in trace)


def test_explain_candidate_sign_failure():
    surf = get_surface("sigma2")
    C = resolve("-2K", surf)
    dec, trace = explain_candidate(surf, C, 4, (1, 1, 0), mod4=True)
    assert dec is None
    assert trace[-1][0] == "sign"


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


def test_budget_override_is_honored():
    surf = get_surface("blq")
    C = resolve("-2K", surf)
    small = enumerate_bogreider(surf, C, 4, mod4=True, budget=12)
    full = enumerate_bogreider(surf, C, 4, mod4=True)
    assert small.visited < full.visited
    assert small.survivor_keys() == full.survivor_keys()


def test_preconditions():
    surf = get_surface("sigma1")
    C = resolve("-2K", surf)
    with pytest.raises(RangeError):
        enumerate_bogreider(surf, C, 1)
    neg = resolve("G1", surf)
    with pytest.raises(ModelError):
        enumerate_bogreider(surf, neg, 4)


def test_rank10_model_not_searchable():
    e = enriques()
    C = e.model.klass((2, 2, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ModelError):
        enumerate_bogreider(e, C, 4)


def test_cs_filter():
    s2 = get_surface("sigma2")
    assert cs_filter(s2, resolve("H", s2))
    assert not cs_filter(s2, resolve("G1", s2))  # negative square
    assert not cs_filter(s2, resolve("H-2G1", s2))
    with pytest.raises(ModelError):
        cs_filter(get_surface("blq"), get_surface("blq").model.klass((1, 0)))


class TestDestab:
    def test_survivor_grid(self):
        res = enumerate_destab()
        assert res.survivor_cells() == {(3, 6), (3, 7), (4, 6)}
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

    def test_fixture_j_expectations(self):
        rep = verify_case("g1kondelp-j")
        assert rep.status == "PASS"
        assert len(rep.killed) == 3


class TestFixtureCatalog:
    def test_unknown_case_rejected(self):
        with pytest.raises(FixtureError):
            verify_case("nope")

    def test_catalog_json_parses(self):
        doc = json.loads(fixture_catalog_json())
        assert set(doc) == set(FIXTURES)
        assert doc["g1kondelp-j"]["kind"] == "destab"

    def test_golden_files_well_formed(self):
        for cid in ("g1kondelp-c", "g1kondelp-e", "g1kondelp-f",
                    "g1kondelp-i"):
            fx = FIXTURES[cid]
            doc = load_golden(fx.golden)
            assert doc["surface"] == fx.surface
            assert doc["k"] == fx.k
            assert doc["survivors"], cid
            for s in doc["survivors"]:
                assert set(s) == {"coords", "z"}

    def test_identity_fixture_traces(self):
        rep = verify_case("lemmag8")
        assert rep.status == "PASS"
        assert any("quasi-nef" in t for t in rep.trace)
        assert any("= 14" in t for t in rep.trace)

    def test_report_json_keys(self):
        rep = verify_case("g1kondelp-b")
        doc = rep.to_json_dict()
        assert {"case", "status", "survivors", "killed", "trace"} <= set(doc)

    def test_report_explains_mismatch(self):
        # force a divergence by replaying a pencil fixture at a budget too
        # small to reach its survivors
        rep = verify_case("g1kondelp-i", budget=2)
        assert rep.status == "FAIL"
        assert any("missing" in t for t in rep.trace)
