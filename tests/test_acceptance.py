"""Acceptance suite: one test per shipped guarantee, each printing a
single [ACCEPTANCE n] line on success (run with -s to see them)."""

import random

from divcalc.criteria import (
    b2_rule_enriques,
    check_main_theorem,
    gonality,
    scroll_invariants,
    tetragonal_corank,
)
from divcalc.divexpr import resolve
from divcalc.enumeration import (
    FIXTURES,
    enumerate_bogreider,
    enumerate_destab,
)
from divcalc.lattice import pair, reflect_nodal
from divcalc.surfaces import (
    config_from_json_dict,
    enriques,
    get_config,
    get_surface,
    phi,
)

from oracle_bruteforce import (
    ORACLE_CASES,
    brute_gonality,
    brute_main_criterion,
    brute_survivors,
)


def _net_survivors(fx):
    surf = get_surface(fx.surface)
    C = resolve(fx.curve, surf)
    res = enumerate_bogreider(surf, C, fx.k, mod4=fx.mod4)
    keys = {(d.expr, d.z) for d in res.survivors}
    killed = {(expr, z) for expr, z, _ in fx.killed}
    assert killed <= keys, f"{fx.case_id}: killed entries must be survivors"
    return keys, keys - killed


def test_acceptance_1_fixture_survivor_sets():
    inline = {
        "g1kondelp-a": set(),
        "g1kondelp-b": {("H-G1", 0), ("H-G2", 0)},
        "g1kondelp-d": {("H-G1", 0), ("H-G2", 0), ("H-G3", 0)},
        "g1kondelp-g": {("2f", 0)},
        "g1kondelp-h": {("f", 0), ("C0+f", 0)},
    }
    for cid, want_net in inline.items():
        _, net = _net_survivors(FIXTURES[cid])
        assert net == want_net, cid
    # the (a) gross set is the single killed entry
    gross, _ = _net_survivors(FIXTURES["g1kondelp-a"])
    assert gross == {("H", 1)}

    for cid in ("g1kondelp-c", "g1kondelp-e", "g1kondelp-f", "g1kondelp-i"):
        fx = FIXTURES[cid]
        surf = get_surface(fx.surface)
        frozen = {(resolve(expr, surf).coords, z) for expr, z in fx.expected}
        res = enumerate_bogreider(surf, resolve(fx.curve, surf), fx.k,
                                  mod4=fx.mod4)
        got = {(d.L.coords, d.z) for d in res.survivors}
        assert got == frozen, cid
    print("[ACCEPTANCE 1] PASS — 9 pencil fixtures match their frozen sets")


def test_acceptance_2_destab_grid():
    res = enumerate_destab()
    assert {(c.a, c.a1) for c in res.survivors} == {(3, 6), (3, 7), (4, 6)}
    for c in res.survivors:
        assert c.AB + c.lenW == 4
        assert (c.A2 + c.B2 - 2 * c.AB) == 8 + 4 * c.lenW
    print("[ACCEPTANCE 2] PASS — destabilizing grid and its two identities")


def test_acceptance_3_gonality_table():
    table = {(30, 5): 9, (22, 4): 7, (20, 4): 7, (14, 3): 5, (12, 3): 5,
             (6, 2): 3, (16, 4): 6}
    for (l2, ph), want in table.items():
        assert gonality(l2, ph) == want, (l2, ph)

    rng = random.Random(20260819)
    sporadic = {(30, 5), (22, 4), (20, 4), (14, 3), (12, 3), (6, 2)}
    checked = 0
    while checked < 50:
        ph = rng.randint(2, 8)
        l2 = ph * ph + 2 * rng.randint(0, 24)
        if l2 % 2:
            l2 += 1
        if l2 == ph * ph or l2 == ph * ph + ph - 2 or (l2, ph) in sporadic:
            continue
        got = gonality(l2, ph)
        assert got == 2 * ph == brute_gonality(l2, ph), (l2, ph)
        checked += 1
    print("[ACCEPTANCE 3] PASS — gonality exception table + 50 generic pairs")


def test_acceptance_4_decomposition_identities():
    groups = []
    for cid in ("lemmag7", "lemmag8", "lemmag9"):
        groups.extend(FIXTURES[cid].identities)
    squares = set()
    for config_name, checks in groups:
        surf = get_config(config_name)
        by_tag = {}
        for chk in checks:
            by_tag.setdefault(chk[0], []).append(chk)
        L_expr = by_tag["square"][0][1]
        L = resolve(L_expr, surf)
        squares.add(pair(L, L))
        for _, expr, want in by_tag["square"]:
            X = resolve(expr, surf)
            assert pair(X, X) == want
        for _, a_expr, b_expr, want in by_tag["pair"]:
            assert pair(resolve(a_expr, surf), resolve(b_expr, surf)) == want
        E = resolve("E", surf)
        assert pair(E, L) == 2, config_name
        if config_name == "pencil-triple-1":
            assert pair(resolve("E+E1", surf), L) == 6
            assert pair(resolve("2E+E2", surf), L) == 8
    assert squares == {12, 14, 16}
    print("[ACCEPTANCE 4] PASS — lemma decomposition identities, "
          "L2 in {12, 14, 16}")


def test_acceptance_5_oracle_equivalence():
    for cid, (skey, C, k, mod4) in ORACLE_CASES.items():
        surf = get_surface(skey)
        budget = 8 * k
        bound = budget // 3 if skey.startswith("sigma") else budget
        res = enumerate_bogreider(surf, surf.klass(C), k, mod4=mod4)
        got = {(d.L.coords, d.z) for d in res.survivors}
        want = brute_survivors(skey, C, k, box=2 * bound, mod4=mod4)
        assert got == want, cid
    print("[ACCEPTANCE 5] PASS — staged filters == double-box brute force "
          "on all 9 pencil fixtures")


def test_acceptance_6_phi_certificates():
    rng = random.Random(1729)
    checked = 0
    while checked < 100:
        if rng.random() < 0.5:
            doc = {
                "labels": ["E", "E1"],
                "pairs": [[0, 1, rng.choice([1, 2])]],
            }
            coords = (rng.randint(1, 9), rng.randint(1, 9))
        else:
            doc = {
                "labels": ["E", "E1", "E2"],
                "pairs": [[0, 1, 1], [0, 2, 1], [1, 2, 1]],
            }
            coords = tuple(rng.randint(0, 9) for _ in range(3))
        surf = config_from_json_dict(doc, f"rand-{checked}")
        L = surf.klass(coords)
        if pair(L, L) <= 0:
            continue
        res = phi(surf, L)
        assert res.certified
        assert res.value * res.value <= pair(L, L)
        F = res.witness
        assert pair(F, F) == 0 and abs(pair(F, L)) == res.value
        checked += 1
    print("[ACCEPTANCE 6] PASS — 100 random phi certificates hold")


# (l2, h0_residual, degM, h1M, cliff) -> branch letter or None
_TRUTH_ROWS = [
    (4, 0, 4, 0, 4, "i"),
    (4, 1, 4, 0, 4, None),
    (6, 0, 5, 0, 4, "ii"),
    (6, 1, 5, 0, 4, None),
    (8, 0, 6, 0, 4, "iii"),
    (10, 0, 7, 0, 4, "iii"),
    (12, 0, 8, 0, 4, "iii"),
    (12, 1, 8, 0, 4, "iv"),
    (14, 1, 9, 0, 4, "iv"),
    (16, 1, 10, 0, 4, "iv"),
    (10, 1, 8, 0, 4, "v"),
    (10, 1, 6, 0, 4, None),
    (8, 2, 6, 0, 4, "v"),       # (v) boundary: degM = L2/2 + 2 = 6
    (8, 2, 5, 0, 4, None),      # one below the boundary
    (4, 2, 6, 0, 4, None),      # chain floor: L2/2 + 2 = 4 < 6
    (6, 2, 6, 0, 4, None),      # chain floor: 5 < 6
    (8, 0, 5, 0, 4, "iii"),
    (12, 2, 9, 0, 4, "v"),
    (12, 2, 7, 0, 4, None),
    (14, 0, 9, 0, 4, "iii"),
    (16, 0, 10, 0, 4, "iii"),
    (8, 2, 6, 1, 4, None),      # h1(M) != 0 kills (v) at the boundary
    (6, 0, 20, 0, 4, "ii"),
    (8, 1, 6, 0, 4, "v"),
    (8, 1, 5, 0, 4, None),
    (10, 2, 7, 0, 4, "v"),
    (10, 3, 7, 0, 5, "v"),
    (10, 3, 7, 0, 4, None),     # residual count exceeds cliff - 2
    (14, 1, 8, 0, 4, "iv"),
    (16, 2, 10, 0, 4, "v"),
    (16, 2, 9, 0, 4, None),
    (12, 1, 20, 0, 4, "iv"),
]


def test_acceptance_7_main_theorem_truth_table():
    assert len(_TRUTH_ROWS) == 32
    for l2, res, degm, h1, cl, want in _TRUTH_ROWS:
        v = check_main_theorem(g=l2 // 2 + 1, L2=l2, phi=2, degM=degm,
                               h1M=h1, cliff=cl, h0_residual=res)
        row = (l2, res, degm, h1, cl)
        if want is None:
            assert v.status == "NO_CONCLUSION", row
        else:
            assert v.status == "SURJECTIVE", row
            assert v.rule == f"main-({want})", row
        assert brute_main_criterion(l2, res, degm, h1 == 0, cl) == want, row

    for l2 in (12, 14, 16):
        main = check_main_theorem(g=l2 // 2 + 1, L2=l2, phi=2, degM=8,
                                  h1M=0, h0_residual=1)
        assert main.rule == "main-(iv)"
        assert b2_rule_enriques(l2, 2).status == "b2_at_least_1"
        assert tetragonal_corank(1, 0).status == "SURJECTIVE"
    print("[ACCEPTANCE 7] PASS — 32-row truth table + chaining invariant")


def test_acceptance_8_scroll_invariants():
    for g in range(6, 21):
        b1_min = (g - 5 + 1) // 2
        for b1 in range(b1_min, g - 5 + 1):
            inv = scroll_invariants(g, b1)
            assert inv.degV == g - 3
            assert inv.degY == g - 1 + inv.b2 == 2 * g - 6 - b1
            assert inv.pa_hyperplane == g - 4 - b1
            assert inv.n2_holds == (b1 >= 1)
    print("[ACCEPTANCE 8] PASS — scroll invariants for 6 <= g <= 20")


def test_acceptance_9_reflection_properties():
    model = enriques()
    simple = [model.klass(c) for c in (
        (1, -1, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    )]
    for d in simple:
        assert pair(d, d) == -2
    rng = random.Random(90125)
    for _ in range(1000):
        delta = rng.choice(simple)
        for _ in range(rng.randint(0, 4)):
            delta = reflect_nodal(delta, rng.choice(simple))
        assert pair(delta, delta) == -2
        L = model.klass(tuple(rng.randint(-30, 30) for _ in range(10)))
        image = reflect_nodal(L, delta)
        assert pair(image, image) == pair(L, L)
        assert reflect_nodal(image, delta) == L
    print("[ACCEPTANCE 9] PASS — 1000 reflections preserve squares and "
          "involute")
