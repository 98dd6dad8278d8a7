"""The low-genus rules graded by Gaussian-map ranks computed on explicit
curves (tests/oracle_gaussian.py): the Fermat quartic (genus 3) and
quintic (genus 6) in P^2, and the Fermat-type complete intersection of
a quadric and a cubic in P^3 (genus 4), M = O(a). Each is smooth by the
Jacobian criterion (oracle_gaussian.fermat). The oracle's section counts
h1(M), cork mu and the auxiliary h0 go into corank_low_genus, and its
verdict must hold for the computed corank: SURJECTIVE has corank 0,
CORANK_BOUND(b) has corank >= b, and corank = b where the verdict notes
equality."""

import pytest

from divcalc.criteria import corank_low_genus
from oracle_gaussian import CompleteIntersection, fermat

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
}

CURVES = {
    4: CompleteIntersection(fermat(4)),
    5: CompleteIntersection(fermat(5)),
    "ci23": CompleteIntersection(fermat(2, 4), fermat(3, 4)),
}

RULES = {3: "low-(a)", 4: "low-(b)", 6: "low-(d)"}


def _verdict(curve, a):
    """The low-genus verdict on M = O(a), from the oracle's counts. K is
    O(1) on the quartic and on the complete intersection; on the quintic
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
