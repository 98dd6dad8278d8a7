"""The low-genus, degree and Clifford rules graded by Gaussian-map ranks
computed on explicit curves (tests/oracle_gaussian.py), M = O(a): the
Fermat quartic (genus 3), quintic (genus 6), sextic (genus 10) and
septic (genus 15) in P^2, the Fermat-type complete intersection of a
quadric and a cubic in P^3 (genus 4), and a complete intersection of
three diagonal quadrics in P^4 (genus 5, _three_quadrics). Each is
smooth by the Jacobian criterion (oracle_gaussian.fermat and
_three_quadrics). The oracle's section counts h1(M), cork mu and the
auxiliary h0 go into corank_low_genus, the degree of M into
check_degree_corollaries and Cliff into check_cliff_criterion, and each
verdict must hold for the computed corank: SURJECTIVE has corank 0,
CORANK_BOUND(b) has corank >= b, and corank = b where the verdict notes
equality."""

import pytest

from divcalc.criteria import (
    check_cliff_criterion,
    check_degree_corollaries,
    corank_low_genus,
)
from oracle_gaussian import CompleteIntersection, fermat


def _three_quadrics():
    """The curve sum x_i^2 = sum i x_i^2 = sum i^2 x_i^2 = 0 (i = 0..4) in
    P^4: degree 8, K = O(1), genus 5.

    It is smooth mod p. Its coefficient rows (1, i, i^2) are Vandermonde,
    so every 3 x 3 minor of the coefficient matrix A is a product of
    differences of 0..4, nonzero mod p. The Jacobian is 2 A diag(x): at a
    point with three nonzero x_i it has rank 3, and a point with at most
    two nonzero x_i has A x^2 = 0 on two independent columns of A, so
    those x_i^2 are 0 too and x = 0, which is no point. It is not
    trigonal: it is its own canonical model (K = O(1), projectively
    normal), its ideal is generated by quadrics, and by Petri's theorem
    the ideal of a trigonal canonical curve is not."""
    return CompleteIntersection(*(
        {tuple(2 * (i == k) for i in range(5)): k ** r for k in range(5)
         if k ** r}
        for r in range(3)))

# (curve, a) -> (corank of Phi_{K,O(a)}, verdict); a plane curve is keyed
# by its degree
ROWS = {
    (4, 1): (7, "CORANK_BOUND"), (4, 2): (6, "CORANK_BOUND"),
    (4, 3): (3, "CORANK_BOUND"), (4, 4): (1, "CORANK_BOUND"),
    (4, 5): (0, "CORANK_BOUND"),
    (5, 3): (6, "CORANK_BOUND"), (5, 4): (3, "CORANK_BOUND"),
    (5, 5): (1, "CORANK_BOUND"), (5, 6): (0, "SURJECTIVE"),
    (5, 7): (0, "SURJECTIVE"),
    ("ci23", 1): (9, "CORANK_BOUND"), ("ci23", 2): (5, "CORANK_BOUND"),
    ("ci23", 3): (1, "CORANK_BOUND"), ("ci23", 4): (0, "CORANK_BOUND"),
    ("ci23", 5): (0, "CORANK_BOUND"),
    ("ci222", 1): (10, "CORANK_BOUND"), ("ci222", 2): (3, "CORANK_BOUND"),
    ("ci222", 3): (0, "CORANK_BOUND"), ("ci222", 4): (0, "CORANK_BOUND"),
    ("ci222", 5): (0, "CORANK_BOUND"),
}

# (plane curve degree d, a) -> (corank, degree-general status, cliff rule);
# a = 2e is M = 2K, the bundle the degree rule excludes at equality
PLANE_ROWS = {
    (6, 6): (1, "NO_CONCLUSION", "cliff"),
    (6, 7): (0, "SURJECTIVE", "cliff-(i)"),
    (6, 8): (0, "SURJECTIVE", "cliff-(i)"),
    (7, 8): (0, "NO_CONCLUSION", "cliff-(ii)"),
    (7, 9): (0, "SURJECTIVE", "cliff-(ii)"),
}

CURVES = {
    4: CompleteIntersection(fermat(4)),
    5: CompleteIntersection(fermat(5)),
    6: CompleteIntersection(fermat(6)),
    7: CompleteIntersection(fermat(7)),
    "ci23": CompleteIntersection(fermat(2, 4), fermat(3, 4)),
    "ci222": _three_quadrics(),
}

RULES = {3: "low-(a)", 4: "low-(b)", 5: "low-(c)", 6: "low-(d)"}


def _verdict(curve, a):
    """The low-genus verdict on M = O(a), from the oracle's counts. K is
    O(1) on the quartic and on the complete intersections; on the quintic
    K = O(2) and A = O(1)."""
    h0 = curve.h0
    e = curve.e  # K = O(e)
    _, cork_mu = curve.gaussian_corank(a)
    h1M = h0(e - a)  # h1(M) = h0(K - M)
    if curve.genus == 3:
        return corank_low_genus(
            3, h1M=h1M, cork_mu=cork_mu,
            aux_h0={"4K-M": h0(4 * e - a), "-M": h0(-a)})
    if curve.genus == 4:
        return corank_low_genus(
            4, h1M=h1M, h0_2K_minus_M=h0(2 * e - a), cork_mu=cork_mu,
            aux_h0={"3K-M": h0(3 * e - a), "-M": h0(-a)})
    if curve.genus == 5:
        return corank_low_genus(
            5, h1M=h1M, h0_2K_minus_M=h0(2 * e - a), cork_mu=cork_mu,
            aux_h0={"-M": h0(-a)}, nontrigonal=True)
    return corank_low_genus(
        6, h1M=h1M, cork_mu=cork_mu, plane_quintic=True,
        aux_h0={"5A-M": h0(5 - a), "4A-M": h0(4 - a)})


@pytest.mark.parametrize("d, a", list(ROWS))
def test_low_genus_verdicts_hold_on_fermat_curves(d, a):
    curve = CURVES[d]
    corank, _ = curve.gaussian_corank(a)
    verdict = _verdict(curve, a)
    assert (corank, verdict.status) == ROWS[d, a]
    assert verdict.rule == RULES[curve.genus]
    if verdict.status == "SURJECTIVE":
        assert corank == 0
    else:
        assert corank >= verdict.bound
        if any(n.startswith("equality holds") for n in verdict.notes):
            assert corank == verdict.bound


@pytest.mark.parametrize("d, a", list(PLANE_ROWS))
def test_degree_and_clifford_rules_hold_on_fermat_plane_curves(d, a):
    # a smooth plane curve of degree d >= 5 has Cliff = d - 4, computed by
    # its g^2_d, and is neither trigonal nor a plane quintic here
    curve = CURVES[d]
    g, e = curve.genus, curve.e
    corank, _ = curve.gaussian_corank(a)
    degree = check_degree_corollaries(g, d * a, M_eq_special=a == 2 * e)
    cliff = check_cliff_criterion(d - 4, curve.h0(2 * e - a))
    assert degree.rule == "degree-general"
    assert (corank, degree.status, cliff.rule) == PLANE_ROWS[d, a]
    for verdict in (degree, cliff):
        assert verdict.status != "SURJECTIVE" or corank == 0


@pytest.mark.parametrize("d", list(CURVES))
def test_the_oracle_counts_sections_by_riemann_roch(d):
    # each monomial box's rank is h0(O(n)): deg n - g + 1 once
    # deg n > 2g - 2, h0(K) = g, h0(O) = 1 and h0(O(-1)) = 0; and mu is
    # onto on a complete intersection, which is projectively normal
    curve = CURVES[d]
    g, deg = curve.genus, curve.degree
    assert curve.h0(curve.e) == g and curve.h0(0) == 1 and curve.h0(-1) == 0
    for n in range(12):
        if deg * n > 2 * g - 2:
            assert curve.h0(n) == deg * n - g + 1
    assert all(curve.gaussian_corank(a)[1] == 0 for a in range(1, 8))
