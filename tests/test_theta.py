"""Slice completeness on the Enriques lattice, proved by counting.

The Enriques lattice is U + E8(-1) in the basis U1, U2, R1..R8. For
C = U1 + nU2 (n >= 1) write x = aU1 + bU2 + y with y in E8(-1): then
x.C = na + b and x^2 = 2ab + y^2, so x.C = s and x^2 = q fix b = s - na
and y^2 = -2m with m = a(s - na) - q/2. The number of E8 vectors of norm
2m is r(m), the coefficient of the theta series of E8, which is the
Eisenstein series E4: r(0) = 1, r(m) = 240 sigma_3(m) for m >= 1 and
r(m) = 0 for m < 0 (Serre, A Course in Arithmetic, ch. VII). So

    |{x : x.C = s, x^2 = q}| = sum over a of r(a(s - na) - q/2),

a finite sum since a(s - na) falls below q/2 for large |a|; for odd q
the slice is empty. An isometry keeps the count, so the same sum holds
for every image of C under a word of reflections in E10_ROOTS.

On sigma_n, of gram diag(1, -1, .., -1) in the basis H, G1..Gn, the
class x = aH + b1 G1 + .. + bn Gn has x.H = a and x^2 = a^2 - sum b_i^2.
So for C = H the slice x.H = s, x^2 = q has r_n(s^2 - q) points, where
r_n(m), the number of ways to write m as a sum of n squares, is the
coefficient of q^m in theta_3^n (r_n(m) = 0 for m < 0).

A slice whose points are valid (checked here with the gram alone) and
distinct, and whose size is that sum, is complete. The counts come
from the closed forms, in oracle_theta, and gram arithmetic, never from
divcalc's search.
"""

import random

import pytest

from divcalc.enumeration import enumerate_bogreider
from divcalc.lattice import pair, reflect_nodal, slice_points
from divcalc.chamber import E10_ROOTS
from divcalc.surfaces import enriques, phi, sigma
from oracle_theta import _r, sums_of_squares, theta_count

MAX_POINTS = 5000  # the largest window a test walks
S_VALUES = (1, 2)
Q_VALUES = range(-8, 14)  # odd values included: their slices are empty


def _windows(n):
    """The (s, q) windows of C = U1 + nU2 walked: every nonempty one of
    at most MAX_POINTS points, and every odd q."""
    return [(s, q) for s in S_VALUES for q in Q_VALUES
            if q % 2 or 0 < theta_count(n, s, q) <= MAX_POINTS]


def _moved(C, seed, length):
    """C moved by a seeded word of reflections in E10_ROOTS, each step in
    a root that C pairs positively with, so the word leaves the chamber."""
    roots = [C.model.klass(a) for a in E10_ROOTS]
    rng = random.Random(seed)
    for _ in range(length):
        C = reflect_nodal(C, rng.choice([a for a in roots if pair(C, a) > 0]))
    return C


def _curves():
    """(n, C): U1 + nU2 for n = 1, 2, and one seeded image of each."""
    E = enriques()
    out = []
    for n in (1, 2):
        C = E.klass((1, n) + (0,) * 8)
        out += [(n, C), (n, _moved(C, n, 12))]
    return out


def _check_slice(C, s, q, count):
    """The number of points of the slice x.C = s, x^2 = q, after
    checking that it is count, that they are distinct and that each lies
    in the slice by gram arithmetic."""
    gram = C.model.gram
    c = [sum(map(int.__mul__, row, C.coords)) for row in gram]
    points = [x.coords for x in slice_points(C, s, q, q)]
    assert len(points) == count, (s, q)
    assert len(set(points)) == len(points), (s, q)
    for x in points:
        assert sum(map(int.__mul__, c, x)) == s, (s, q, x)
        gx = [sum(map(int.__mul__, row, x)) for row in gram]
        assert sum(map(int.__mul__, gx, x)) == q, (s, q, x)
    return len(points)


@pytest.mark.parametrize("n, C", _curves(),
                         ids=["U1+U2", "U1+U2-moved", "U1+2U2",
                              "U1+2U2-moved"])
def test_slice_sizes_match_the_e8_theta_series(n, C):
    walked = sum(_check_slice(C, s, q, theta_count(n, s, q))
                 for s, q in _windows(n))
    assert walked > MAX_POINTS  # more than any one window holds


SKEW_MAX_POINTS = 2000  # the largest window of a skewed curve walked


@pytest.mark.parametrize("n, length", [(1, 30), (2, 40), (3, 50), (4, 60)])
def test_skewed_phi_1_curves_match_the_e8_theta_series(n, length):
    # every class with phi = 1 is isometric to U1 + nU2, n = C^2 / 2
    # (Conway-Sloane, SPLAG, ch. 4 section 8), so the count holds however
    # skewed the coordinates are; the seeded word of reflections makes
    # them so, up to |61| here
    E = enriques()
    C = _moved(E.klass((1, n) + (0,) * 8), 4300 + n, length)
    assert max(map(abs, C.coords)) >= 14 and phi(E, C).value == 1
    walked = sum(_check_slice(C, s, q, count)
                 for s in range(1, 7) for q in range(-12, 13)
                 if (count := theta_count(n, s, q)) <= SKEW_MAX_POINTS)
    assert walked > SKEW_MAX_POINTS // 2


def test_theta_count_matches_known_values():
    # r(1) = 240 roots, r(2) = 2160; of U1 + U2, the (s, q) = (0, -2)
    # slice holds the 240 roots of E8 and -U1 + U2, U1 - U2, and the
    # (8, 4) slice is the one that makes the k = 4 search so large
    assert [_r(m) for m in range(-1, 4)] == [0, 1, 240, 2160, 6720]
    assert theta_count(1, 0, -2) == 240 + 2
    assert theta_count(1, 8, 4) == 2402880
    assert theta_count(1, 1, 3) == 0


def test_visited_is_the_sum_of_the_window_counts():
    # the search walks the slices k <= s <= 2k, s - k <= q <= s // 2 and
    # no other class; at k = 2 the s = 2k window holds the 240 roots of
    # E8 shifted by 2U2 (an even k, since the s = 2k window of an odd k
    # has odd q only, and is empty)
    E, k = enriques(), 2
    res = enumerate_bogreider(E, E.klass((1, 2) + (0,) * 8), k)
    windows = {s: sum(theta_count(2, s, q) for q in range(s - k, s // 2 + 1))
               for s in range(k, 2 * k + 1)}
    assert windows[2 * k] == 240
    assert res.visited == sum(windows.values()) == 242


SIGMA_MAX_POINTS = 1000  # the largest sigma_n window walked, about 1 s in all


def test_sums_of_squares_match_known_values():
    # Jacobi: r_4(m) = 8 times the sum of the divisors of m not divisible
    # by 4; and r_2(25) = 12 from 25 = 0 + 25 = 9 + 16
    r4 = sums_of_squares(4, 30)
    assert r4[1:] == [8 * sum(d for d in range(1, m + 1)
                              if m % d == 0 and d % 4) for m in range(1, 31)]
    assert sums_of_squares(2, 25)[25] == 12
    assert sums_of_squares(9, 3) == [1, 18, 144, 672]


@pytest.mark.parametrize("n", range(1, 10))
def test_sigma_slices_of_h_match_the_theta_series(n):
    S = sigma(n)
    H = S.klass((1,) + (0,) * n)
    r = sums_of_squares(n, 15)
    walked = 0
    for s in range(4):
        for q in range(-6, s * s + 2):  # q = s^2 + 1 gives an empty slice
            count = r[s * s - q] if q <= s * s else 0
            if count <= SIGMA_MAX_POINTS:
                walked += _check_slice(H, s, q, count)
    assert walked > 0
