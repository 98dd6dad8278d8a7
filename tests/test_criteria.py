import ast
import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcalc.criteria import (
    AUX_KEYS,
    DEG_SANITY_SLACK,
    GaussianVerdict,
    _READS,
    b2_rule_enriques,
    check_bel,
    check_cliff_criterion,
    check_degree_corollaries,
    check_main_theorem,
    cliff_upper_bound,
    clifford_of_series,
    corank_low_genus,
    gonality,
    scroll_invariants,
    tetragonal_corank,
)
from divcalc.chamber import E10_WEIGHTS
from divcalc.errors import DivcalcError, EvidenceError, RangeError
from divcalc.lattice import pair, slice_points
from divcalc.surfaces import enriques, phi as phi_of

from oracle_bruteforce import brute_gonality, brute_main_criterion


@functools.lru_cache(maxsize=None)
def _chamber_classes(top):
    """Every class L = sum c_i omega_i of the closed E10 chamber (c_i >= 0,
    omega_i the E10 weights) with 0 < L^2 <= top, as (L, c, L^2, phi).

    Each positive class is +-wL' for one such L' and a word w of simple
    reflections, and phi and the square are invariants, so these classes
    realise every (L^2, phi) of the Enriques lattice. The scan is finite
    because every omega_i.omega_j >= 0: raising c_k by one adds
    2 L.omega_k + omega_k^2 >= 0 to the square. For omega_k^2 > 0 that is
    at least omega_k^2 > 0. omega_-1 = U1 is the one isotropic weight;
    it is scanned last, and omega_-1.omega_j >= 1 for every other j, so
    once some other c_j > 0 it adds at least 2 c_j >= 2. Either way c_k
    stops at the first value that takes the square past top, and c U1
    alone has square 0.
    """
    e = enriques()
    w = [e.klass(x) for x in E10_WEIGHTS]
    G = [[pair(a, b) for b in w] for a in w]
    assert min(map(min, G)) >= 0
    assert G[0][0] == 0 and min(G[0][1:]) >= 1
    found = []

    def scan(ks, c, q):
        if not ks:
            if q > 0:
                L = sum((ci * wi for ci, wi in zip(c, w)), e.klass((0,) * 10))
                assert pair(L, L) == q
                found.append((L, tuple(c), q, phi_of(e, L).value))
            return
        k, rest = ks[0], ks[1:]
        lin = sum(cj * g for cj, g in zip(c, G[k]))  # L.omega_k, c_k = 0
        if lin == 0 and G[k][k] == 0:  # U1 alone
            scan(rest, c, q)
            return
        while q <= top:
            scan(rest, c, q)
            q += 2 * (lin + c[k] * G[k][k]) + G[k][k]
            c[k] += 1
        c[k] = 0

    scan(tuple(range(1, 10)) + (0,), [0] * 10, 0)
    return found


def _main(**kw):
    """check_main_theorem on g = 7, L2 = 12, phi = 2, degM = 8, h1M = 0,
    each overridden by kw."""
    return check_main_theorem(**{**dict(g=7, L2=12, phi=2, degM=8, h1M=0),
                                 **kw})


class TestGonality:
    @pytest.mark.parametrize("l2,phi,want", [
        (4, 2, 2), (16, 4, 6), (36, 6, 10),          # square case
        (40, 6, 11), (54, 7, 13),                      # phi^2+phi-2 generic
        (10, 3, 4), (18, 4, 6),                        # low-phi downgrade
        (30, 5, 9), (22, 4, 7), (20, 4, 7),            # sporadic
        (14, 3, 5), (12, 3, 5), (6, 2, 3),
        (26, 4, 8), (44, 6, 12), (8, 2, 4),            # generic 2*phi
    ])
    def test_table(self, l2, phi, want):
        assert gonality(l2, phi) == want

    def test_special_flag_only_changes_the_one_shape(self):
        assert gonality(40, 6, not_2D_special=True) == 11
        assert gonality(40, 6, not_2D_special=False) == 12
        # clearing the flag drops the whole pattern, downgrade included
        assert gonality(18, 4, not_2D_special=False) == 8

    def test_preconditions(self):
        with pytest.raises(RangeError):
            gonality(4, 3)  # phi^2 > L2
        with pytest.raises(RangeError):
            gonality(12, 0)
        with pytest.raises(RangeError):
            gonality(0, 1)

    @settings(max_examples=200)
    @given(phi=st.integers(2, 8), slack=st.integers(0, 40))
    def test_matches_oracle_and_stays_in_window(self, phi, slack):
        l2 = phi * phi + slack
        if l2 % 2:
            l2 += 1
        got = gonality(l2, phi)
        assert got == brute_gonality(l2, phi)
        assert 2 * phi - 2 <= got <= 2 * phi

    def test_table_agrees_with_the_chamber_classes(self):
        # gonality(L^2, phi, flag) against min(2 phi, mu, L^2 // 4 + 2) on
        # every chamber class of square at most 100, the flag read off
        # the class: L = 2D with D^2 = 10 and phi(D) = 3, so every c_i is
        # even, L^2 = 40 and phi = 6. mu is the least B.L - 2 over the B
        # with B^2 = 4 and certified phi(B) = 2 (B = L allowed); it only
        # counts below 2 phi, so the slices B.L = t <= 2 phi + 1 suffice.
        # An identity observed with the table, not a quoted theorem.
        e = enriques()
        classes = _chamber_classes(100)
        mu_lowest, special = 0, []
        for L, c, L2, phi in classes:
            mu = next((t - 2 for t in range(1, 2 * phi + 2)
                       for B in slice_points(L, t, 4, 4)
                       if phi_of(e, B).value == 2), None)
            flag = not (L2 == 40 and phi == 6 and all(x % 2 == 0 for x in c))
            rest = min(2 * phi, L2 // 4 + 2)
            want = rest if mu is None else min(mu, rest)
            assert gonality(L2, phi, not_2D_special=flag) == want, c
            mu_lowest += mu is not None and mu < rest
            if not flag:
                special.append((L2, phi, want))
        assert len(classes) == 684
        assert mu_lowest == 8
        assert special == [(40, 6, 12)]

    def test_realised_pairs_of_the_chamber_classes(self):
        # the (L^2, phi) of the chamber classes are every pair a class
        # has; the criteria accept nine more at L^2 <= 100
        realised = {(L2, phi) for _, _, L2, phi in _chamber_classes(100)}
        accepted = set()
        for L2, phi in itertools.product(range(1, 101), range(1, 11)):
            try:
                gonality(L2, phi)
            except DivcalcError:
                continue
            accepted.add((L2, phi))
        assert len(realised) == 306 and len(accepted) == 315
        assert realised < accepted
        assert sorted(accepted - realised) == [
            (26, 5), (38, 6), (50, 7), (52, 7), (66, 8), (68, 8), (82, 9),
            (84, 9), (86, 9)]


class TestSeriesHelpers:
    def test_clifford_of_series(self):
        assert clifford_of_series(8, 3) == 4
        assert clifford_of_series(4, 2) == 2

    def test_cliff_upper_bound(self):
        assert cliff_upper_bound(10) == 4
        assert cliff_upper_bound(11) == 5
        with pytest.raises(RangeError):
            cliff_upper_bound(3)


class TestMainTheorem:
    def test_branch_i(self):
        v = _main(g=3, L2=4, degM=4, h0_residual=0)
        assert v.status == "SURJECTIVE" and v.rule == "main-(i)"
        assert any("4L" in n for n in v.notes)

    def test_branch_ii_mentions_torsion(self):
        v = _main(g=4, L2=6, degM=5, h0_residual=0)
        assert v.rule == "main-(ii)"
        assert any("torsion" in n.lower() for n in v.notes)

    def test_branch_iii(self):
        v = _main(g=5, L2=8, degM=6, h0_residual=0)
        assert v.rule == "main-(iii)"

    def test_branch_iv(self):
        v = _main(L2=12, degM=8, h0_residual=1)
        assert v.rule == "main-(iv)"
        assert "general member of |L|" in v.qualifiers

    def test_branch_v_needs_l2_at_least_8(self):
        v = _main(g=5, L2=8, degM=6, h1M=0, cliff=4, h0_residual=2)
        assert v.rule == "main-(v)"
        small = _main(g=3, L2=4, phi=2, degM=6, h1M=0, cliff=4,
                      h0_residual=2)
        assert small.status == "NO_CONCLUSION"

    def test_first_match_wins_and_others_noted(self):
        v = _main(g=5, L2=8, degM=6, h1M=0, cliff=4, h0_residual=0)
        assert v.rule == "main-(iii)"
        assert any("also satisfied" in n and "(v)" in n for n in v.notes)

    def test_no_conclusion_lists_near_misses(self):
        v = _main(g=6, L2=10, degM=8, h0_residual=1)
        assert v.status == "NO_CONCLUSION"
        assert v.notes

    @pytest.mark.parametrize("l2", [4, 6, 8, 10, 12, 14, 16])
    @pytest.mark.parametrize("res", [0, 1])
    @pytest.mark.parametrize("degm", [5, 6, 10])
    def test_truth_table_against_oracle(self, l2, res, degm):
        want = brute_main_criterion(l2, res, degm, True, 4)
        v = _main(g=l2 // 2 + 1, L2=l2, degM=degm, h1M=0, cliff=4,
                  h0_residual=res)
        if want is None:
            assert v.status == "NO_CONCLUSION"
        else:
            assert v.rule == f"main-({want})"

    def test_chaining_with_b2_and_tetragonal(self):
        for l2 in (12, 14, 16):
            main = _main(g=l2 // 2 + 1, L2=l2, degM=8, h0_residual=1)
            assert main.status == "SURJECTIVE"
            assert b2_rule_enriques(l2, 2).status == "b2_at_least_1"
            tet = tetragonal_corank(1, 0)
            assert tet.status == "SURJECTIVE"


class TestInputValidation:
    def test_aux_key_typo(self):
        # refused by its name before the missing counts and the branch
        with pytest.raises(RangeError) as exc:
            corank_low_genus(7, aux_h0={"3K+M": 1})
        assert str(exc.value) == (f"aux_h0 has unknown keys ['3K+M']; "
                                  f"known: {sorted(AUX_KEYS)}")
        assert exc.value.name == "aux_h0"

    def test_deg_cap(self):
        assert _main(degM=4 * 7 - 4 + 16, h0_residual=1).rule == "main-(iv)"
        with pytest.raises(RangeError, match="^degM = 41 is implausibly "
                           "large for genus 7 \\(cap 40\\)$"):
            _main(degM=4 * 7 - 4 + 17, h0_residual=1)
        with pytest.raises(RangeError, match="cap 40"):  # g derived
            _main(g=None, degM=41, h0_residual=1)

    def test_odd_l2(self):
        with pytest.raises(RangeError):
            _main(L2=11, h0_residual=1)

    def test_phi_square_bound(self):
        with pytest.raises(RangeError):
            _main(phi=4, L2=12, h0_residual=1)

    @pytest.mark.parametrize("l2", [4.0, True, "4"])
    def test_l2_must_be_an_integer(self, l2):
        with pytest.raises(RangeError, match="L2 must be an integer"):
            check_main_theorem(L2=l2, phi=2, h0_residual=0)

    def test_verdict_invariants(self):
        with pytest.raises(ValueError,
                           match="^a SURJECTIVE verdict must cite its rule$"):
            GaussianVerdict("SURJECTIVE", "")
        with pytest.raises(ValueError, match="^a CORANK_BOUND verdict must "
                           "carry the bound$"):
            GaussianVerdict("CORANK_BOUND", "low-(a)")

    def test_dict_defaults_are_fresh(self):
        v, w = (GaussianVerdict("NO_CONCLUSION", "main") for _ in range(2))
        assert v.inputs_echo == {} and v.inputs_echo is not w.inputs_echo

    def test_echo_keeps_its_order_and_leaves_out_what_is_missing(self):
        # the order is that of the --json report; cliff is read but None
        echo = _main(h0_residual=1).inputs_echo
        assert list(echo.items()) == [("g", 7), ("L2", 12), ("phi", 2),
                                      ("degM", 8), ("h1M", 0),
                                      ("h0_residual", 1)]
        # a genus left out is derived from L2 and still echoed first
        assert _main(g=None, h0_residual=1).inputs_echo == echo
        assert list(_main(g=None, h0_residual=1).inputs_echo) == list(echo)

    @settings(max_examples=120)
    @given(
        degm=st.integers(5, 20),
        res=st.none() | st.integers(0, 3),
        phi=st.none() | st.integers(1, 3),
        cl=st.none() | st.integers(2, 6),
    )
    def test_more_evidence_never_flips_surjective_off(
            self, degm, res, phi, cl):
        base_kw = dict(g=7, L2=12, phi=None, degM=degm, h1M=0,
                       h0_residual=1)
        base = _main(**base_kw)
        rich_kw = dict(base_kw)
        if res is not None:
            rich_kw["h0_residual"] = 1  # keep the decisive field fixed
        if phi is not None:
            rich_kw["phi"] = phi
        if cl is not None:
            rich_kw["cliff"] = cl
        rich = _main(**rich_kw)
        if base.status == "SURJECTIVE":
            assert rich.status == "SURJECTIVE"


class TestCliffAndBel:
    def test_cliff_rules(self):
        assert check_cliff_criterion(2, 0).rule == "cliff-(i)"
        assert check_cliff_criterion(3, 1).rule == "cliff-(ii)"
        assert check_cliff_criterion(2, 1).status == "NO_CONCLUSION"

    def test_bel(self):
        ok = check_bel(g=7, degM=8, h1M=0, h0_2K_minus_M=0, cliff=3)
        assert ok.status == "SURJECTIVE" and ok.rule == "bel2"
        assert check_bel(7, 7, 0, 0, 3).status == "NO_CONCLUSION"
        assert check_bel(7, 8, 1, 0, 3).status == "NO_CONCLUSION"
        assert check_bel(7, 8, 0, 2, 3).status == "NO_CONCLUSION"


class TestCorankLowGenus:
    def test_genus3(self):
        v = corank_low_genus(3, h1M=0, cork_mu=0,
                             aux_h0={"4K-M": 8, "-M": 0})
        assert v.status == "CORANK_BOUND" and v.bound == 8
        assert v.rule == "low-(a)"
        assert any("equality holds" in n for n in v.notes)

    def test_genus4_needs_the_second_count(self):
        with pytest.raises(EvidenceError):
            corank_low_genus(4, h1M=0, cork_mu=0, h0_2K_minus_M=2)
        v = corank_low_genus(4, h1M=0, cork_mu=1, h0_2K_minus_M=2,
                             aux_h0={"3K-M": 3})
        assert v.rule == "low-(b)" and v.bound == 2 + 3 - 1

    def test_genus5_requires_a_flag(self):
        inp = dict(g=5, h1M=0, cork_mu=0, h0_2K_minus_M=1)
        with pytest.raises(EvidenceError):
            corank_low_genus(**inp)
        v = corank_low_genus(**inp, nontrigonal=True)
        assert v.rule == "low-(c)" and v.bound == 3

    def test_clamp_note(self):
        v = corank_low_genus(3, h1M=2, cork_mu=0, aux_h0={"4K-M": 1})
        assert v.bound == 0
        assert any("clamp" in n.lower() for n in v.notes)

    def test_plane_quintic(self):
        v = corank_low_genus(6, h1M=0, cork_mu=0,
                             aux_h0={"5A-M": 0, "4A-M": 1},
                             plane_quintic=True)
        assert v.status == "SURJECTIVE" and v.rule == "low-(d)"
        with pytest.raises(RangeError) as exc:
            corank_low_genus(7, h1M=0, plane_quintic=True)
        assert (str(exc.value), exc.value.name) == (
            "g = 7: a smooth plane quintic has genus 6", "g")

    def test_quintic_bound_needs_hypotheses(self):
        v = corank_low_genus(6, h1M=1, cork_mu=0,
                             aux_h0={"5A-M": 2, "4A-M": 1},
                             plane_quintic=True)
        assert v.status == "NO_CONCLUSION"

    def test_trigonal(self):
        v = corank_low_genus(7, h1M=0, cork_mu=0, h0_2K_minus_M=1,
                             aux_h0={"3K-(g-4)A-M": 0}, trigonal=True)
        assert v.status == "SURJECTIVE" and v.rule == "low-(e)"
        with pytest.raises(RangeError) as exc:
            corank_low_genus(4, trigonal=True)
        assert (str(exc.value), exc.value.name) == (
            "g must be >= 5 for the trigonal branch, got 4", "g")

    def test_trigonal_equality_note_reads_the_supplied_count(self):
        # the bound holds with or without h0(2K - M); the equality
        # condition is untested only when that count was not supplied
        notes = {}
        for h2k in (None, 1, 3):
            v = corank_low_genus(7, h1M=0, cork_mu=0, h0_2K_minus_M=h2k,
                                 aux_h0={"3K-(g-4)A-M": 2}, trigonal=True)
            assert (v.status, v.rule, v.bound) == ("CORANK_BOUND",
                                                   "low-(e)", 2)
            notes[h2k] = v.notes
        assert notes[None][1] == "equality condition h0(2K - M) <= 1 untested"
        assert notes[1][1] == "equality holds: h0(2K - M) = 1 <= 1"
        assert notes[3] == ("cork >= h0(3K - (g-4)A - M) = 2",)

    @pytest.mark.parametrize("flag, other", [
        ("nontrigonal", "nontrigonal"), ("plane_quintic", "plane quintic")])
    def test_conflicting_flags(self, flag, other):
        with pytest.raises(RangeError) as exc:
            corank_low_genus(7, trigonal=True, **{flag: True})
        assert (str(exc.value), exc.value.name) == (
            f"trigonal conflicts with the {other} flag", "trigonal")

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_nontrigonal_needs_genus_5(self, g):
        # every nonhyperelliptic curve of genus 3 or 4 is trigonal, so the
        # flag is refused there even with the low-(a) and low-(b) inputs
        with pytest.raises(RangeError) as exc:
            corank_low_genus(g, h1M=0, cork_mu=0, h0_2K_minus_M=1,
                             aux_h0={"4K-M": 2, "3K-M": 2}, nontrigonal=True)
        assert exc.value.name == "nontrigonal"
        assert str(exc.value) == (
            f"nontrigonal needs g >= 5, got {g}: every nonhyperelliptic "
            "curve of genus 3 or 4 is trigonal")

    @pytest.mark.parametrize("flags", [{}, {"nontrigonal": True}])
    def test_genus_6_on_names_the_branches_that_reach_it(self, flags):
        with pytest.raises(RangeError, match=(
                "^g = 7: no low-genus branch applies; from genus 6 on, "
                "only the trigonal and plane quintic branches do$")) as exc:
            corank_low_genus(7, h1M=0, cork_mu=0, **flags)
        assert exc.value.name == "g"

    def test_genus_2_is_hyperelliptic(self):
        # in the genus domain, but below every rule, each of which is
        # stated for nonhyperelliptic curves
        with pytest.raises(RangeError) as exc:
            corank_low_genus(2, h1M=0, cork_mu=0)
        assert exc.value.name == "g"
        assert str(exc.value) == (
            "g = 2: every curve of genus 2 is hyperelliptic, and the "
            "low-genus rules are stated for nonhyperelliptic curves")

    @pytest.mark.parametrize("g, flags, missing", [
        (3, {}, ("h1M", "cork_mu", "aux_h0[4K-M]")),
        (4, {}, ("h1M", "h0_2K_minus_M", "cork_mu", "aux_h0[3K-M]")),
        (5, {"nontrigonal": True}, ("h1M", "h0_2K_minus_M", "cork_mu")),
        (6, {"plane_quintic": True}, ("aux_h0[5A-M]",)),
        (7, {"trigonal": True}, ("aux_h0[3K-(g-4)A-M]",)),
    ])
    def test_every_missing_input_is_named_at_once(self, g, flags, missing):
        # one refusal names every missing input, aux_h0 keys among them,
        # in the order of the branch's echo
        with pytest.raises(EvidenceError) as exc:
            corank_low_genus(g, **flags)
        assert exc.value.missing == missing
        assert str(exc.value) == ("missing required evidence: "
                                  + ", ".join(missing))


class TestDegreeCorollaries:
    def test_quintic(self):
        ok = check_degree_corollaries(6, 25, plane_quintic=True)
        assert ok.status == "SURJECTIVE" and ok.rule == "degree-quintic"
        edge = check_degree_corollaries(
            6, 25, plane_quintic=True, M_eq_special=True)
        assert edge.status == "NO_CONCLUSION"
        assert any("5A" in n for n in edge.notes)
        low = check_degree_corollaries(6, 24, plane_quintic=True)
        assert low.status == "NO_CONCLUSION"

    def test_trigonal_regimes(self):
        # g = 10: threshold is the 3g + 6 arm, exclusion can bite
        assert max(4 * 10 - 6, 3 * 10 + 6) == 36
        ok = check_degree_corollaries(10, 36, trigonal=True)
        assert ok.status == "SURJECTIVE"
        edge = check_degree_corollaries(
            10, 36, trigonal=True, M_eq_special=True)
        assert edge.status == "NO_CONCLUSION"
        assert any("3K" in n for n in edge.notes)
        # g = 13: the 4g - 6 arm dominates, so no exclusion at 46
        hi = check_degree_corollaries(
            13, 46, trigonal=True, M_eq_special=True)
        assert hi.status == "SURJECTIVE"
        assert check_degree_corollaries(
            13, 45, trigonal=True).status == "NO_CONCLUSION"

    def test_general(self):
        ok = check_degree_corollaries(6, 20)
        assert ok.status == "SURJECTIVE" and ok.rule == "degree-general"
        edge = check_degree_corollaries(6, 20, M_eq_special=True)
        assert edge.status == "NO_CONCLUSION"
        assert any("2K" in n for n in edge.notes)
        assert check_degree_corollaries(
            6, 21, M_eq_special=True).status == "SURJECTIVE"



class TestTetragonal:
    def test_rows(self):
        assert tetragonal_corank(1, 0).status == "SURJECTIVE"
        v = tetragonal_corank(3, 2, h1M=0, mu_surjective=True)
        assert v.status == "CORANK_BOUND" and v.bound == 2
        assert tetragonal_corank(3, 2).status == "NO_CONCLUSION"
        # the bound reads h1(M) = 0; an unknown or positive h1M misses it
        for h1m in (None, 1):
            assert tetragonal_corank(3, 2, h1M=h1m, mu_surjective=True
                                     ).status == "NO_CONCLUSION"

    def test_equality_note_in_bound_mode(self):
        v = tetragonal_corank(1, 1, h1M=0, mu_surjective=True)
        assert v.status == "CORANK_BOUND"
        assert any("equality" in n for n in v.notes)


class TestB2Rule:
    def test_values(self):
        assert b2_rule_enriques(12, 2).status == "b2_at_least_1"
        assert b2_rule_enriques(16, 2).status == "b2_at_least_1"
        assert b2_rule_enriques(10, 2).status == "unknown"
        assert b2_rule_enriques(12, 3).status == "unknown"

    def test_qualifier(self):
        r = b2_rule_enriques(14, 2)
        assert "general member" in " ".join(r.qualifiers)

    def test_preconditions(self):
        with pytest.raises(RangeError):
            b2_rule_enriques(7, 2)
        with pytest.raises(RangeError):
            b2_rule_enriques(2, 0)


class TestScroll:
    def test_pinned_rows(self):
        inv = scroll_invariants(7, 2)
        assert (inv.b2, inv.degV, inv.degY, inv.pa_hyperplane) == (0, 4, 6, 1)
        assert inv.n2_holds
        inv = scroll_invariants(6, 1)
        assert (inv.b2, inv.degY) == (0, 5)
        assert inv.n2_holds
        # b1 = 0 would need b2 = g - 5 > b1: outside the ordered domain,
        # so within scope the quadric-generation bound always holds
        with pytest.raises(RangeError):
            scroll_invariants(6, 0)

    def test_preconditions(self):
        with pytest.raises(RangeError):
            scroll_invariants(5, 1)
        with pytest.raises(RangeError):
            scroll_invariants(8, 0)  # b2 = 3 > b1
        with pytest.raises(RangeError):
            scroll_invariants(8, 4)  # b2 = -1


@settings(max_examples=60, deadline=None)
@given(g=st.integers(6, 24), b1=st.integers(0, 24))
def test_scroll_identities(g, b1):
    b2 = g - 5 - b1
    if not 0 <= b2 <= b1:
        with pytest.raises(RangeError):
            scroll_invariants(g, b1)
        return
    inv = scroll_invariants(g, b1)
    assert inv.degY == g - 1 + inv.b2
    assert inv.degY == 2 * g - 6 - b1
    assert inv.pa_hyperplane == g - 4 - b1
    assert inv.n2_holds == (b1 >= 1)


class TestClassRefusals:
    """Every entry point that reads (L2, phi) refuses an odd L2, an L2
    below 2, phi < 1 and phi^2 > L2."""

    @pytest.mark.parametrize("call, low_phi", [
        (lambda l2, phi: gonality(l2, phi), 1),
        (lambda l2, phi: b2_rule_enriques(l2, phi), 1),
        (lambda l2, phi: check_main_theorem(L2=l2, phi=phi, h0_residual=0),
         None),
    ], ids=["gonality", "b2rule", "main"])
    def test_one_message_per_condition(self, call, low_phi):
        # gonality and b2rule require phi, so their low L2 comes with one
        for l2, phi, msg in [
            (3, 1, "L2 must be even on these lattices, got 3"),
            (0, low_phi, "L2 must be >= 2, got 0"),
            (16, 0, "phi must be >= 1, got 0"),
            (16, -1, "phi must be >= 1, got -1"),
            (16, 5, "phi must satisfy phi^2 <= L2 = 16, got 5"),
        ]:
            with pytest.raises(RangeError) as exc:
                call(l2, phi)
            assert str(exc.value) == msg
            assert exc.value.name == msg.split()[0]

    @pytest.mark.parametrize("l2, phi, msg", [
        (12.0, 2, "L2 must be an integer, got 12.0"),
        (12, 2.0, "phi must be an integer, got 2.0"),
        (True, 1, "L2 must be an integer, got True"),
        (16, True, "phi must be an integer, got True"),
    ], ids=["float-l2", "float-phi", "bool-l2", "bool-phi"])
    def test_refuses_a_non_integer(self, l2, phi, msg):
        for call in (gonality, b2_rule_enriques):
            with pytest.raises(RangeError) as exc:
                call(l2, phi)
            assert str(exc.value) == msg

    def test_main_refuses_a_genus_that_l2_does_not_give(self):
        for g, l2 in [(3, 12), (8, 12), (6, 12), (7, 10)]:
            with pytest.raises(RangeError) as exc:
                _main(g=g, L2=l2, h0_residual=1)
            assert str(exc.value) == (
                f"g = {g} does not match L2 = {l2}: on an Enriques surface "
                f"2g - 2 = L2 gives g = {l2 // 2 + 1}")
            assert exc.value.name == "g"

    def test_phi_below_one_without_l2(self):
        # the missing L2 is refused first
        with pytest.raises(EvidenceError) as exc:
            check_main_theorem(phi=-1, h0_residual=0)
        assert exc.value.missing == ("L2",)


class TestCountAndFlagRefusals:
    """Counts must be ints (bool excluded) and flags bools; a float count
    used to come back as a float result or echo, a string as a bare
    TypeError."""

    @pytest.mark.parametrize("call, msg", [
        (lambda: cliff_upper_bound(9.0), "g must be an integer, got 9.0"),
        (lambda: cliff_upper_bound(3), "g must be >= 4, got 3"),
        (lambda: clifford_of_series(5.0, 2),
         "degree must be an integer, got 5.0"),
        (lambda: clifford_of_series(5, True),
         "h0 must be an integer, got True"),
        (lambda: scroll_invariants(7.0, 1), "g must be an integer, got 7.0"),
        (lambda: scroll_invariants(7, 1.0), "b1 must be an integer, got 1.0"),
        (lambda: scroll_invariants(5, 0), "g must be >= 6, got 5"),
        (lambda: check_bel(7.0, 9, 0, 0, 3), "g must be an integer, got 7.0"),
        (lambda: check_bel("7", 9, 0, 0, 3), "g must be an integer, got '7'"),
        (lambda: check_cliff_criterion(2.0, 0),
         "cliff must be an integer, got 2.0"),
        (lambda: check_degree_corollaries(6.0, 20),
         "g must be an integer, got 6.0"),
        (lambda: check_degree_corollaries(6, 20, M_eq_special=1),
         "M_eq_special must be a bool, got 1"),
        (lambda: tetragonal_corank(0, 0, h1M="no", mu_surjective=True),
         "h1M must be an integer, got 'no'"),
        (lambda: tetragonal_corank(0, 0, h1M=0, mu_surjective=1),
         "mu_surjective must be a bool, got 1"),
        (lambda: gonality(12, 2, "x"), "not_2D_special must be a bool, "
         "got 'x'"),
        (lambda: corank_low_genus(6, trigonal=None),
         "trigonal must be a bool, got None"),
    ], ids=["cliff-bound-float", "cliff-bound-low", "series-float-degree",
            "series-bool-h0", "scroll-float-g", "scroll-float-b1",
            "scroll-low-g", "bel-float-g", "bel-string-g", "cliff-float",
            "degree-float-g", "degree-int-flag", "tetragonal-string-h1m",
            "tetragonal-int-flag", "gonality-string-flag",
            "low-genus-none-flag"])
    def test_refuses_a_count_or_flag_of_another_type(self, call, msg):
        with pytest.raises(RangeError) as exc:
            call()
        assert str(exc.value) == msg
        assert exc.value.name == msg.split()[0]  # the refused input

    @pytest.mark.parametrize("call, name", [
        (lambda: check_bel(7, None, 0, 0, 3), "degM"),
        (lambda: check_cliff_criterion(None, 0), "cliff"),
        (lambda: tetragonal_corank(None, 0), "h0_2K_minus_M"),
        (lambda: check_degree_corollaries(7, None), "degM"),
        (lambda: check_degree_corollaries(None, 20, plane_quintic=True),
         "g"),
        (lambda: check_main_theorem(g=7), "L2, h0_residual"),
        (lambda: _main(g=6, L2=10), "h0_residual"),
        (lambda: gonality(12, None), "phi"),
        (lambda: clifford_of_series(None, 2), "degree"),
        (lambda: cliff_upper_bound(None), "g"),
        (lambda: scroll_invariants(None, 1), "g"),
        (lambda: b2_rule_enriques(12, None), "phi"),
        (lambda: corank_low_genus(None), "g"),
        # presence is checked before consistency: an odd L2, a genus or
        # an h0 below its least value used to be refused first
        (lambda: gonality(13, None), "phi"),
        (lambda: b2_rule_enriques(13, None), "phi"),
        (lambda: scroll_invariants(3, None), "b1"),
        (lambda: clifford_of_series(None, 0), "degree"),
    ], ids=["bel", "cliff", "tetragonal", "degree", "degree-quintic",
            "main", "main-residual", "gonality", "series", "cliff-bound",
            "scroll", "b2rule", "corank", "gonality-odd-l2", "b2rule-odd-l2",
            "scroll-low-g", "series-low-h0"])
    def test_refuses_a_missing_count(self, call, name):
        """A required count left None is missing evidence: it used to
        raise TypeError, or answer (b2rule: unknown) or build anyway."""
        with pytest.raises(EvidenceError) as exc:
            call()
        assert exc.value.missing == tuple(name.split(", "))
        assert str(exc.value) == f"missing required evidence: {name}"

    @pytest.mark.parametrize("aux", [[], [("4K-M", 3)], "4K-M"],
                             ids=["empty-list", "pairs", "str"])
    def test_refuses_an_aux_h0_that_is_not_a_dict(self, aux):
        with pytest.raises(RangeError) as exc:
            corank_low_genus(7, aux_h0=aux)
        assert str(exc.value) == f"aux_h0 must be a dict, got {aux!r}"

    def test_int_refusals_keep_their_order(self):
        # the domain is refused in row order, before the curve type, the
        # degree cap and any hypothesis
        with pytest.raises(RangeError, match="^degM must be >= 0, got -1$"):
            check_degree_corollaries(4, -1, plane_quintic=True)
        with pytest.raises(RangeError, match=(
                "^g = 4: a smooth plane quintic has genus 6$")):
            check_degree_corollaries(4, 99, plane_quintic=True)
        with pytest.raises(RangeError, match="^h0_2K_minus_M must be >= 0"):
            check_cliff_criterion(1, -1)
        with pytest.raises(RangeError, match="^degree must be >= 0"):
            clifford_of_series(-1, 0)
        with pytest.raises(RangeError, match="^h0 must be >= 1, got 0$"):
            clifford_of_series(1, 0)
        with pytest.raises(RangeError, match="^b1 must be >= 0, got -1$"):
            scroll_invariants(5, -1)
        with pytest.raises(RangeError, match="^g must be >= 6, got 5$"):
            scroll_invariants(5, 0)


class TestHypotheses:
    """A rule whose own hypothesis fails on inputs in their domains
    answers NO_CONCLUSION with a note that cites the hypothesis; these
    used to raise RangeError."""

    @pytest.mark.parametrize("verdict, rule, note", [
        (lambda: check_bel(3, 10, 0, 0, 3), "bel2",
         "needs g >= 4, have g = 3"),
        (lambda: check_bel(2, 1, 1, 0, 3), "bel2",
         "needs g >= 4, have g = 2"),
        (lambda: check_degree_corollaries(4, 20), "degree-general",
         "needs g >= 5, have g = 4"),
        (lambda: check_degree_corollaries(2, 20, trigonal=True),
         "degree-trigonal", "needs g >= 5, have g = 2"),
        (lambda: check_cliff_criterion(1, 0), "cliff",
         "needs cliff >= 2, have cliff = 1"),
        (lambda: check_cliff_criterion(0, 5), "cliff",
         "needs cliff >= 2, have cliff = 0"),
        (lambda: check_main_theorem(L2=2, phi=1, h0_residual=0), "main",
         "(i) needs L2 = 4 and h0 = 0 (have 2, 0)"),
    ], ids=["bel-g3", "bel-g2", "degree-g4", "degree-trigonal-g2",
            "cliff-1", "cliff-0", "main-l2-2"])
    def test_a_failed_hypothesis_is_no_conclusion(self, verdict, rule, note):
        v = verdict()
        assert (v.status, v.rule) == ("NO_CONCLUSION", rule)
        assert v.notes[0] == note

    def test_b2_rule_at_the_least_square_is_unknown(self):
        r = b2_rule_enriques(2, 1)
        assert (r.status, r.notes) == (
            "unknown", ("needs L2 >= 12 and phi = 2, have (2, 1)",))

    @pytest.mark.parametrize("call, g", [
        (lambda degm: check_bel(5, degm, 0, 0, 3), 5),
        (lambda degm: check_degree_corollaries(5, degm), 5),
        (lambda degm: check_degree_corollaries(5, degm, trigonal=True), 5),
        (lambda degm: check_degree_corollaries(6, degm, plane_quintic=True),
         6),
        (lambda degm: _main(g=5, L2=8, degM=degm, h0_residual=0), 5),
    ], ids=["bel", "degree-general", "degree-trigonal", "degree-quintic",
            "main"])
    def test_the_degm_cap_binds_every_rule_that_reads_degm(self, call, g):
        # check_bel(5, 1000, 0, 0, 3) used to answer SURJECTIVE via bel2
        cap = 4 * g - 4 + DEG_SANITY_SLACK
        assert call(cap).status == "SURJECTIVE"
        for degm in (cap + 1, 1000):
            with pytest.raises(RangeError) as exc:
                call(degm)
            assert str(exc.value) == (f"degM = {degm} is implausibly large "
                                      f"for genus {g} (cap {cap})")
            assert exc.value.name == "degM"


# Per row of _READS: the function that reads it, and inputs by the row's
# names that it accepts; aux_h0 holds every key the row reads
_ROW_CALLS = {
    "main": (check_main_theorem, dict(g=7, L2=12, phi=2, degM=8, h1M=0,
                                      h0_residual=1, cliff=3)),
    "cliff": (check_cliff_criterion, dict(cliff=3, h0_2K_minus_M=1)),
    "bel": (check_bel, dict(g=7, degM=8, h1M=0, h0_2K_minus_M=0, cliff=3)),
    "degree": (check_degree_corollaries, dict(
        g=6, degM=20, plane_quintic=False, trigonal=False,
        M_eq_special=False)),
    "tetragonal": (tetragonal_corank, dict(
        h0_2K_minus_M=1, h0_2K_minus_M_minus_b2A=0, h1M=0,
        mu_surjective=True)),
    "low-(a)": (corank_low_genus, dict(g=3, h1M=0, cork_mu=0,
                                       aux_h0={"-M": 0, "4K-M": 8})),
    "low-(b)": (corank_low_genus, dict(g=4, h1M=0, h0_2K_minus_M=2,
                                       cork_mu=0,
                                       aux_h0={"-M": 0, "3K-M": 3})),
    "low-(c)": (corank_low_genus, dict(g=5, h1M=0, h0_2K_minus_M=1,
                                       cork_mu=0, aux_h0={"-M": 0},
                                       nontrigonal=True)),
    "low-(d)": (corank_low_genus, dict(g=6, h1M=0, cork_mu=0,
                                       aux_h0={"4A-M": 1, "5A-M": 0},
                                       plane_quintic=True)),
    "low-(e)": (corank_low_genus, dict(g=7, h1M=0, h0_2K_minus_M=1,
                                       cork_mu=0,
                                       aux_h0={"3K-(g-4)A-M": 0},
                                       trigonal=True)),
    "curve-type": (corank_low_genus, dict(
        g=3, plane_quintic=False, trigonal=False, nontrigonal=False, h1M=0,
        cork_mu=0, aux_h0={"4K-M": 8})),
    "class": (b2_rule_enriques, dict(L2=12, phi=2)),
    "gonality": (gonality, dict(L2=12, phi=2, not_2D_special=True)),
    "series": (lambda degree, h0: clifford_of_series(degree, h0),
               dict(degree=5, h0=2)),
    "cliff-bound": (cliff_upper_bound, dict(g=7)),
    "scroll": (scroll_invariants, dict(g=7, b1=1)),
}
# the domains, restated here so that the test is a reference of its own:
# the least value of each int input not at 0, and the flags
_LEAST = {"g": 2, "L2": 2, "phi": 1, "h0": 1}
_FLAG_INPUTS = {"plane_quintic", "trigonal", "nontrigonal", "M_eq_special",
                "mu_surjective", "not_2D_special"}


def _out_of_domain():
    """(input, value, message) for values outside each input's domain;
    aux_h0 values under the name aux_h0[-M]."""
    names = {n for inputs, _ in _READS.values() for n, _ in inputs}
    for name in sorted(names | {"aux_h0[-M]"}):
        if name in _FLAG_INPUTS:
            for v in (None, 0, 1, "yes"):
                yield name, v, f"{name} must be a bool, got {v!r}"
            continue
        least = _LEAST.get(name, 0)
        for v in (1.0 * least, True, str(least), [least]):
            yield name, v, f"{name} must be an integer, got {v!r}"
        for v in {least - 1, least - 2, -1} - {least}:
            if name == "L2" and v % 2:
                yield name, v, f"L2 must be even on these lattices, got {v}"
            else:
                yield name, v, f"{name} must be >= {least}, got {v}"
        if name == "L2":
            yield name, 7, "L2 must be even on these lattices, got 7"


def _readers(name):
    """The rows that read the input name (aux_h0[KEY] for the rows that
    read aux_h0 key KEY)."""
    return [row for row, (inputs, keys) in _READS.items()
            if name in {n for n, _ in inputs}
            | {f"aux_h0[{k}]" for k, _ in keys}]


def test_every_row_has_a_reader_that_accepts_its_inputs():
    assert set(_ROW_CALLS) == set(_READS)
    for row, (call, kwargs) in _ROW_CALLS.items():
        inputs, keys = _READS[row]
        assert {n for n, _ in inputs} <= set(kwargs), row
        assert {k for k, _ in keys} <= set(kwargs.get("aux_h0", {})), row
        call(**kwargs)  # accepted


_OUT_OF_DOMAIN = list(_out_of_domain())


@pytest.mark.parametrize("name, value, msg", _OUT_OF_DOMAIN,
                         ids=[f"{n}={v!r}" for n, v, _ in _OUT_OF_DOMAIN])
def test_one_message_per_input_and_value_across_rules(name, value, msg):
    """Every row that reads an input refuses the same value outside its
    domain with the same RangeError, which names the input."""
    rows = _readers(name)
    assert rows
    for row in rows:
        call, kwargs = _ROW_CALLS[row]
        if name.startswith("aux_h0["):
            kwargs = {**kwargs, "aux_h0": {**kwargs["aux_h0"],
                                           name[7:-1]: value}}
        else:
            kwargs = {**kwargs, name: value}
        with pytest.raises(RangeError) as exc:
            call(**kwargs)
        assert (str(exc.value), exc.value.name) == (msg, name), row


def _range_errors(pattern="*.py"):
    """(module, line, argument nodes) for each RangeError that a module
    of src/divcalc matching pattern builds."""
    src = Path(__file__).resolve().parents[1] / "src" / "divcalc"
    for path in sorted(src.glob(pattern)):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "RangeError":
                yield (path.name, node.lineno,
                       node.args + [k.value for k in node.keywords])


def _named_range_errors():
    """(module, line, message, name) for each RangeError that a module of
    src/divcalc builds with a name, as the nodes of those arguments."""
    for module, line, args in _range_errors():
        if len(args) == 2:
            yield module, line, *args


def test_every_range_error_of_criteria_is_named():
    """A criterion refuses an input by its name, so that cli.main prints
    the option that gives it and not the library's wording."""
    found = list(_range_errors("criteria.py"))
    assert len(found) >= 17
    assert [line for _, line, args in found if len(args) != 2] == []


def test_a_named_range_error_starts_with_its_name():
    """cli.main prints a named RangeError as the option that gives the
    input, followed by the message with exactly the name cut off its
    front; so every such message starts with its name and a space."""
    found = list(_named_range_errors())
    assert len(found) >= 13
    for module, line, msg, name in found:
        parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
        if isinstance(name, ast.Constant):
            ok = (isinstance(parts[0], ast.Constant)
                  and parts[0].value.startswith(name.value + " "))
        else:  # f"{name} ...", RangeError(..., name)
            ok = (isinstance(parts[0], ast.FormattedValue)
                  and ast.dump(parts[0].value) == ast.dump(name)
                  and parts[1].value.startswith(" "))
        assert ok, f"{module}:{line}"


@pytest.mark.parametrize("rule, call", [
    ("main", lambda: check_main_theorem(g=1, phi=0, degM=-1, h1M=-1,
                                        cliff=-1)),
    ("cliff", lambda: check_cliff_criterion(None, None)),
    ("bel", lambda: check_bel(None, None, None, None, None)),
    ("degree", lambda: check_degree_corollaries(
        None, None, plane_quintic=1, trigonal=1, M_eq_special=1)),
    ("tetragonal", lambda: tetragonal_corank(None, None, h1M=-1,
                                             mu_surjective=1)),
    ("low-(a)", lambda: corank_low_genus(3, h0_2K_minus_M=-1,
                                         aux_h0={"-M": -1})),
    ("low-(b)", lambda: corank_low_genus(4, aux_h0={"-M": -1})),
    ("low-(c)", lambda: corank_low_genus(5, aux_h0={"-M": -1},
                                         nontrigonal=True)),
    ("low-(d)", lambda: corank_low_genus(6, h1M=-1, h0_2K_minus_M=-1,
                                         cork_mu=-1, aux_h0={"4A-M": -1},
                                         plane_quintic=True)),
    ("low-(e)", lambda: corank_low_genus(7, h1M=-1, h0_2K_minus_M=-1,
                                         cork_mu=-1, trigonal=True)),
    ("curve-type", lambda: corank_low_genus(None, aux_h0={"4K-M": -1},
                                            plane_quintic=1, trigonal=1)),
    ("gonality", lambda: gonality(None, None, not_2D_special=1)),
    ("class", lambda: b2_rule_enriques(None, None)),
    ("series", lambda: clifford_of_series(None, None)),
    ("cliff-bound", lambda: cliff_upper_bound(None)),
    ("scroll", lambda: scroll_invariants(None, None)),
], ids=["main", "cliff", "bel", "degree", "tetragonal", "low-a", "low-b",
        "low-c", "low-d", "low-e", "curve-type", "gonality", "b2rule",
        "series", "cliff-bound", "scroll"])
def test_presence_is_checked_before_range(rule, call):
    """With every required input of its row missing and every other
    input out of its domain or hypothesis, each checker names exactly
    the missing ones."""
    inputs, keys = _READS[rule]
    with pytest.raises(EvidenceError) as exc:
        call()
    assert exc.value.missing == (
        tuple(n for n, required in inputs if required)
        + tuple(f"aux_h0[{k}]" for k, required in keys if required))


_AUX = [{"4K-M": 8, "-M": 0}, {"4K-M": 1}, {"3K-M": 3, "-M": 1},
        {"5A-M": 0}, {"5A-M": 2, "4A-M": 1}, {"5A-M": 2},
        {"3K-(g-4)A-M": 0}, {"3K-(g-4)A-M": 2, "-M": 0}]
_FLAGS = [{}, {"nontrigonal": True}, {"trigonal": True},
          {"plane_quintic": True}]


def _low_genus_verdicts():
    for g, h1m, cork, h2k, aux, flags in itertools.product(
            range(3, 9), range(3), range(3), (None, *range(4)), _AUX,
            _FLAGS):
        try:
            yield corank_low_genus(g, h1M=h1m, cork_mu=cork,
                                   h0_2K_minus_M=h2k, aux_h0=dict(aux),
                                   **flags)
        except (EvidenceError, RangeError):
            pass


def _grid_verdicts():
    """Every verdict of each checker over a fixed grid of inputs that it
    accepts."""
    yield from (_main(g=l2 // 2 + 1, L2=l2, degM=degm, h1M=h1m, cliff=cl,
                      h0_residual=res)
                for l2, degm, h1m, cl, res in itertools.product(
                    range(4, 18, 2), (5, 6, 10), range(2), range(2, 6),
                    range(4)))
    yield from (check_cliff_criterion(cl, h)
                for cl, h in itertools.product(range(2, 6), range(4)))
    yield from (check_bel(g, d, h1m, h, cl)
                for g, d, h1m, h, cl in itertools.product(
                    range(2, 9), range(13), range(2), range(4), range(6)))
    yield from _low_genus_verdicts()
    # degM up to the sanity cap 4g - 4 + DEG_SANITY_SLACK
    yield from (check_degree_corollaries(g, d, pq, tri, sp)
                for g, d, pq, tri, sp in itertools.product(
                    range(2, 15), range(10, 61), *[(False, True)] * 3)
                if not (pq and (tri or g != 6))
                and d <= 4 * g - 4 + DEG_SANITY_SLACK)
    yield from (tetragonal_corank(a, b, h1m, m)
                for a, b, h1m, m in itertools.product(
                    range(4), range(4), (None, 0, 1), (False, True)))


class TestVerdictSelfAudit:
    """Re-check each cited rule's inequalities, and each corank bound's
    formula, on the echoed inputs."""

    def _audit(self, verdict):
        e = verdict.inputs_echo
        aux = e.get("aux_h0", {})
        rule = verdict.rule
        if verdict.status == "CORANK_BOUND":
            self._audit_bound(verdict, e, aux)
        elif rule == "main-(i)":
            assert e["L2"] == 4 and e["h0_residual"] == 0
        elif rule == "main-(ii)":
            assert e["L2"] == 6 and e["h0_residual"] == 0
        elif rule == "main-(iii)":
            assert e["L2"] >= 8 and e["h0_residual"] == 0
        elif rule == "main-(iv)":
            assert e["L2"] >= 12 and e["h0_residual"] == 1
        elif rule == "main-(v)":
            assert e["h1M"] == 0
            assert e["degM"] >= e["L2"] // 2 + 2 >= 6
            assert e["h0_residual"] <= e["cliff"] - 2
        elif rule == "cliff-(i)":
            assert e["cliff"] == 2 and e["h0_2K_minus_M"] == 0
        elif rule == "cliff-(ii)":
            assert e["cliff"] >= 3 and e["h0_2K_minus_M"] <= 1
        elif rule == "bel2":
            assert e["g"] >= 4
            assert e["h1M"] == 0 and e["degM"] >= e["g"] + 1
            assert e["h0_2K_minus_M"] <= e["cliff"] - 2
        elif rule == "low-(d)":
            assert e["g"] == 6 and aux["5A-M"] == 0
        elif rule == "low-(e)":
            assert e["g"] >= 5 and e["h0_2K_minus_M"] <= 1
            assert aux["3K-(g-4)A-M"] == 0
        elif rule == "degree-quintic":
            assert e["plane_quintic"] and e["g"] == 6
            assert e["degM"] > 25 or (e["degM"] == 25
                                      and not e["M_eq_special"])
        elif rule == "degree-trigonal":
            g, d = e["g"], e["degM"]
            assert e["trigonal"] and g >= 5
            assert d >= max(4 * g - 6, 3 * g + 6)
            assert not (g <= 12 and d == 3 * g + 6 and e["M_eq_special"])
        elif rule == "degree-general":
            g, d = e["g"], e["degM"]
            assert not e["plane_quintic"] and not e["trigonal"] and g >= 5
            assert d > 4 * g - 4 or (d == 4 * g - 4
                                     and not e["M_eq_special"])
        elif rule == "tetragonal-(i)":
            assert e["h0_2K_minus_M"] <= 1
            assert e["h0_2K_minus_M_minus_b2A"] == 0
        else:
            pytest.fail(f"unexpected rule {rule}")

    def _audit_bound(self, verdict, e, aux):
        rule, bound = verdict.rule, verdict.bound
        if rule == "low-(a)":
            assert e["g"] == 3
            assert bound == max(aux["4K-M"] - e["cork_mu"] - 3 * e["h1M"], 0)
        elif rule == "low-(b)":
            assert e["g"] == 4
            assert bound == max(e["h0_2K_minus_M"] + aux["3K-M"]
                                - e["cork_mu"] - 4 * e["h1M"], 0)
        elif rule == "low-(c)":
            assert e["g"] == 5
            assert bound == max(3 * e["h0_2K_minus_M"] - e["cork_mu"]
                                - 5 * e["h1M"], 0)
        elif rule == "low-(d)":
            assert e["g"] == 6 and e["h1M"] == 0 and e["cork_mu"] == 0
            assert bound == aux["5A-M"]
        elif rule == "low-(e)":
            assert e["g"] >= 5 and e["h1M"] == 0 and e["cork_mu"] == 0
            assert bound == aux["3K-(g-4)A-M"]
        elif rule == "tetragonal-(ii)":
            assert e["h1M"] == 0 and e["mu_surjective"]
            assert bound == e["h0_2K_minus_M_minus_b2A"]
        else:
            pytest.fail(f"unexpected corank rule {rule}")

    def test_each_surjective_verdict_is_backed(self):
        cases = [
            dict(g=3, L2=4, degM=4, h0_residual=0),
            dict(g=4, L2=6, degM=5, h0_residual=0),
            dict(g=5, L2=8, degM=6, h0_residual=0),
            dict(L2=12, degM=8, h0_residual=1),
            dict(g=5, L2=8, degM=6, h1M=0, cliff=4, h0_residual=2),
        ]
        for inp in cases:
            v = _main(**inp)
            assert v.status == "SURJECTIVE"
            self._audit(v)

    def test_every_rule_is_backed_on_a_grid(self):
        seen = set()
        for v in _grid_verdicts():
            if v.status != "NO_CONCLUSION":
                self._audit(v)
                seen.add((v.status, v.rule))
        surjective = {"main-(i)", "main-(ii)", "main-(iii)", "main-(iv)",
                      "main-(v)", "cliff-(i)", "cliff-(ii)", "bel2",
                      "low-(d)", "low-(e)", "degree-quintic",
                      "degree-trigonal", "degree-general", "tetragonal-(i)"}
        bounds = {"low-(a)", "low-(b)", "low-(c)", "low-(d)", "low-(e)",
                  "tetragonal-(ii)"}
        assert seen == ({("SURJECTIVE", r) for r in surjective}
                        | {("CORANK_BOUND", r) for r in bounds})


# the inputs and aux_h0 keys each rule of corank_low_genus reads; g is
# read by every rule
_LOW_GENUS_READS = {
    "low-(a)": ({"h1M", "cork_mu"}, {"4K-M", "-M"}),
    "low-(b)": ({"h1M", "cork_mu", "h0_2K_minus_M"}, {"3K-M", "-M"}),
    "low-(c)": ({"h1M", "cork_mu", "h0_2K_minus_M"}, {"-M"}),
    "low-(d)": ({"h1M", "cork_mu"}, {"5A-M", "4A-M"}),
    "low-(e)": ({"h1M", "cork_mu", "h0_2K_minus_M"}, {"3K-(g-4)A-M"}),
}


class TestInputsEcho:
    """A verdict echoes exactly the inputs its rule read."""

    def test_unread_inputs_are_not_echoed(self):
        v = check_main_theorem(g=7, L2=12, h0_residual=0)
        assert v.rule == "main-(iii)"
        assert v.inputs_echo == {"g": 7, "L2": 12, "h0_residual": 0}
        v = corank_low_genus(3, h1M=0, cork_mu=0, h0_2K_minus_M=99,
                             aux_h0={"4K-M": 8, "5A-M": 7})
        assert v.rule == "low-(a)" and v.bound == 8
        assert v.inputs_echo == {"g": 3, "h1M": 0, "cork_mu": 0,
                                 "aux_h0": {"4K-M": 8}}

    @pytest.mark.parametrize("verdict, echo", [
        (lambda: check_cliff_criterion(3, 1),
         [("cliff", 3), ("h0_2K_minus_M", 1)]),
        (lambda: check_bel(7, 8, 0, 0, 3),
         [("g", 7), ("degM", 8), ("h1M", 0), ("h0_2K_minus_M", 0),
          ("cliff", 3)]),
        (lambda: check_degree_corollaries(6, 25, plane_quintic=True,
                                          M_eq_special=True),
         [("g", 6), ("degM", 25), ("plane_quintic", True),
          ("trigonal", False), ("M_eq_special", True)]),
        (lambda: tetragonal_corank(1, 0, h1M=0, mu_surjective=True),
         [("h0_2K_minus_M", 1), ("h0_2K_minus_M_minus_b2A", 0),
          ("h1M", 0), ("mu_surjective", True)]),
    ], ids=["cliff", "bel", "degree", "tetragonal"])
    def test_each_plain_checker_echoes_exactly_its_arguments(self, verdict,
                                                             echo):
        # written out here, not read from criteria, so that the test stays
        # a reference of its own; the self-audit misses an extra key
        assert list(verdict().inputs_echo.items()) == echo

    def test_every_rule_echoes_what_it_read_of_a_full_input(self):
        # every input and aux_h0 key set, so an unread one would show
        echo = check_main_theorem(g=7, L2=12, phi=2, degM=8, h1M=0,
                                  h0_residual=0, cliff=3).inputs_echo
        assert echo == {"g": 7, "L2": 12, "phi": 2, "degM": 8, "h1M": 0,
                        "h0_residual": 0, "cliff": 3}
        rules = set()
        for g, flags in itertools.product(range(3, 9), _FLAGS):
            try:
                v = corank_low_genus(g, h1M=0, h0_2K_minus_M=1, cork_mu=0,
                                     aux_h0=dict.fromkeys(AUX_KEYS, 1),
                                     **flags)
            except (EvidenceError, RangeError):
                continue
            fields, aux = _LOW_GENUS_READS[v.rule]
            echo = dict(v.inputs_echo)
            assert set(echo.pop("aux_h0")) == aux, v.rule
            assert set(echo) == fields | {"g"}, v.rule
            rules.add(v.rule)
        assert rules == set(_LOW_GENUS_READS)
