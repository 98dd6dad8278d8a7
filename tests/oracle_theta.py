"""The closed forms behind the slice counts, stdlib only.

The theta series of E8 is the Eisenstein series E4, so E8 has r(m) =
240 sigma_3(m) vectors of norm 2m for m >= 1, one of norm 0 and none of
negative norm (Serre, A Course in Arithmetic, ch. VII). On the Enriques
lattice U + E8(-1), the class x = aU1 + bU2 + y has x.C = na + b and
x^2 = 2ab + y^2 for C = U1 + nU2, so the slice x.C = s, x^2 = q has
theta_count(n, s, q) points. The coefficients of theta_3^n count the
ways to write m as a sum of n squares, the slice sizes of C = H on
sigma_n. Nothing here reads divcalc.
"""

import math


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


def sums_of_squares(n, top):
    """[r_n(0), .., r_n(top)], the coefficients of theta_3^n, by
    convolving theta_3 = 1 + 2 q + 2 q^4 + 2 q^9 + .. n times."""
    theta = [0] * (top + 1)
    for j in range(math.isqrt(top) + 1):
        theta[j * j] = 2 if j else 1
    r = [1] + [0] * top
    for _ in range(n):
        r = [sum(r[i] * theta[m - i] for i in range(m + 1))
             for m in range(top + 1)]
    return r
