"""The low-genus rules graded by Gaussian-map ranks computed on explicit
curves (tests/oracle_gaussian.py): the Fermat quartic (genus 3) and
quintic (genus 6), M = O(a). The oracle's section counts h1(M), cork mu
and the auxiliary h0 go into corank_low_genus, and its verdict must
hold for the computed corank: SURJECTIVE has corank 0, CORANK_BOUND(b)
has corank >= b, and corank = b where the verdict notes equality."""

import pytest

from divcalc.criteria import corank_low_genus
from oracle_gaussian import PlaneCurve, fermat

# (degree d, a) -> (corank of Phi_{K,O(a)} on the Fermat curve, verdict)
ROWS = {
    (4, 1): (7, "CORANK_BOUND"), (4, 2): (6, "CORANK_BOUND"),
    (4, 3): (3, "CORANK_BOUND"), (4, 4): (1, "CORANK_BOUND"),
    (4, 5): (0, "CORANK_BOUND"),
    (5, 3): (6, "CORANK_BOUND"), (5, 4): (3, "CORANK_BOUND"),
    (5, 5): (1, "CORANK_BOUND"), (5, 6): (0, "SURJECTIVE"),
    (5, 7): (0, "SURJECTIVE"),
}

CURVES = {d: PlaneCurve(fermat(d)) for d in (4, 5)}


def _verdict(curve, a):
    """The low-genus verdict on M = O(a), from the oracle's counts; on
    the quartic K = A = O(1), on the quintic K = O(2) and A = O(1)."""
    e = curve.d - 3  # K = O(e)
    _, cork_mu = curve.gaussian_corank(a)
    h1M = curve.h0(e - a)  # h1(M) = h0(K - M)
    if curve.d == 4:
        return corank_low_genus(
            3, h1M=h1M, cork_mu=cork_mu,
            aux_h0={"4K-M": curve.h0(4 * e - a), "-M": curve.h0(-a)})
    return corank_low_genus(
        6, h1M=h1M, cork_mu=cork_mu, plane_quintic=True,
        aux_h0={"5A-M": curve.h0(5 - a), "4A-M": curve.h0(4 - a)})


@pytest.mark.parametrize("d, a", sorted(ROWS))
def test_low_genus_verdicts_hold_on_fermat_curves(d, a):
    curve = CURVES[d]
    corank, _ = curve.gaussian_corank(a)
    verdict = _verdict(curve, a)
    assert (corank, verdict.status) == ROWS[d, a]
    assert verdict.rule == {4: "low-(a)", 5: "low-(d)"}[d]
    if verdict.status == "SURJECTIVE":
        assert corank == 0
    else:
        assert corank >= verdict.bound
        if any(n.startswith("equality holds") for n in verdict.notes):
            assert corank == verdict.bound


@pytest.mark.parametrize("d", sorted(CURVES))
def test_the_oracle_counts_sections_by_riemann_roch(d):
    # h0(O(n)) = dn - g + 1 once dn > 2g - 2, h0(K) = g, and mu is onto
    # on a plane curve, which is projectively normal
    curve = CURVES[d]
    g = curve.genus
    assert curve.h0(d - 3) == g and curve.h0(0) == 1 and curve.h0(-1) == 0
    for n in range(d - 2, 12):
        assert curve.h0(n) == d * n - g + 1
    assert all(curve.gaussian_corank(a)[1] == 0 for a in range(1, 8))
