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

A slice whose points are valid (checked here with the gram alone) and
distinct, and whose size is that sum, is complete. The counts come
from the closed form and gram arithmetic, never from divcalc's search.
"""

import random

import pytest

from divcalc.lattice import pair, reflect_nodal, slice_points
from divcalc.surfaces import E10_ROOTS, enriques

MAX_POINTS = 5000  # the largest window a test walks
S_VALUES = (1, 2)
Q_VALUES = range(-8, 14)  # odd values included: their slices are empty


def _r(m):
    """The number of vectors of norm 2m in E8."""
    if m < 0:
        return 0
    return 1 if m == 0 else 240 * sum(d ** 3 for d in range(1, m + 1)
                                      if m % d == 0)


def theta_count(n, s, q):
    """|{x : x.C = s, x^2 = q}| for C = U1 + nU2, n >= 1."""
    if q % 2:
        return 0
    bound = abs(s) + abs(q) + 1  # a(s - na) < q/2 beyond it
    return sum(_r(a * (s - n * a) - q // 2)
               for a in range(-bound, bound + 1))


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


@pytest.mark.parametrize("n, C", _curves(),
                         ids=["U1+U2", "U1+U2-moved", "U1+2U2",
                              "U1+2U2-moved"])
def test_slice_sizes_match_the_e8_theta_series(n, C):
    gram = C.model.gram
    c = [sum(g * v for g, v in zip(row, C.coords)) for row in gram]
    walked = 0
    for s, q in _windows(n):
        points = [x.coords for x in slice_points(C, s, q, q)]
        assert len(points) == theta_count(n, s, q), (s, q)
        assert len(set(points)) == len(points), (s, q)
        for x in points:
            assert sum(map(int.__mul__, c, x)) == s, (s, q, x)
            gx = [sum(map(int.__mul__, row, x)) for row in gram]
            assert sum(map(int.__mul__, gx, x)) == q, (s, q, x)
        walked += len(points)
    assert walked > MAX_POINTS  # more than any one window holds


def test_theta_count_matches_known_values():
    # r(1) = 240 roots, r(2) = 2160; of U1 + U2, the (s, q) = (0, -2)
    # slice holds the 240 roots of E8 and -U1 + U2, U1 - U2, and the
    # (8, 4) slice is the one that makes the k = 4 search so large
    assert [_r(m) for m in range(-1, 4)] == [0, 1, 240, 2160, 6720]
    assert theta_count(1, 0, -2) == 240 + 2
    assert theta_count(1, 8, 4) == 2402880
    assert theta_count(1, 1, 3) == 0
