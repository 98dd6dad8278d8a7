"""Gaussian maps of explicit complete intersection curves, computed by
linear algebra mod p.

A smooth complete intersection C: F_1 = ... = F_{N-1} = 0 in P^N, of
degrees d_1, ..., d_{N-1}, is projectively normal, and its ideal I is
saturated. So the sections of O_C(n) are the degree-n forms modulo the
degree-n piece of I: H^0(O_C(n)) = (S/I)_n for S = k[x_0, ..., x_N].
I_n is spanned by the products of each F_i with the monomials of degree
n - d_i. Echelon rows of that span, each with its pivot on its lowest
monomial and reduced against the other pivots, give each form its
normal form, and the monomials that are no pivot are a basis of
(S/I)_n. The canonical bundle is K = O_C(e), e = sum d_i - N - 1; a
plane curve of degree d is the case N = 2, with e = d - 3.

For M = O_C(a) the Gaussian map Phi_{K,M}: R(K, M) -> H^0(K^2 M), on the
kernel R(K, M) of the multiplication map mu: H^0(K) x H^0(M) -> H^0(KM),
sends s x t to det[grad s, grad t, grad F_1, ..., grad F_{N-1}] modulo I,
a form of degree 2e + a (Wahl, J. Differential Geom. 32, 1990). Over the
tensor basis of monomial pairs, the rank of Phi on R is rank[mu | Phi] -
rank[mu], and the corank is h^0(K^2 M) - rank, with h^0(K^2 M) from
Riemann-Roch since deg K^2 M > 2g - 2.

Ranks are taken mod P = 32003. Reduction of an integer matrix mod p
can only lower its rank, so a corank computed here bounds the corank
over Q from above, and a corank 0 proves surjectivity over Q. Nothing
here reads divcalc.
"""

from __future__ import annotations

import itertools
import math
from operator import add

P = 32003


def monomials(n, nvars=3):
    """The exponent tuples of degree n in nvars variables, x_0 first and
    its exponent falling: for nvars = 3, (i, j, k) for x^i y^j z^k."""
    if n < 0:
        return []
    if nvars == 1:
        return [(n,)]
    return [(i,) + m for i in range(n, -1, -1)
            for m in monomials(n - i, nvars - 1)]


def fermat(d, nvars=3):
    """The sum of the d-th powers of nvars variables. For nvars = 3 the
    plane curve is smooth by the Jacobian criterion when p does not
    divide d. With nvars = 4, fermat(2, 4) = fermat(3, 4) = 0 is a smooth
    curve of genus 4 in P^3 when p is neither 2 nor 3: grad F_2 = 2x is
    nonzero at a point x, so the Jacobian drops rank only where
    3 x_i^2 = 2 lambda x_i for every i, that is where the nonzero x_i
    are all one c != 0; then F_2 = m c^2 with 1 <= m <= 4 of them, which
    is nonzero."""
    return {tuple(d * (i == k) for i in range(nvars)): 1
            for k in range(nvars)}


def _times(f, g):
    """The product of two polynomials, coefficients mod P."""
    out = {}
    for a, u in f.items():
        for b, v in g.items():
            m = tuple(map(add, a, b))
            out[m] = (out.get(m, 0) + u * v) % P
    return {m: v for m, v in out.items() if v}


def _plus(f, g, scale=1):
    """f + scale g, coefficients mod P."""
    out = dict(f)
    for m, v in g.items():
        out[m] = (out.get(m, 0) + scale * v) % P
    return {m: v for m, v in out.items() if v}


def _grad(f):
    """The partial derivatives of a nonzero f, x_0 first."""
    parts = []
    for axis in range(len(next(iter(f)))):
        part = {}
        for m, v in f.items():
            if m[axis]:
                lower = tuple(e - (i == axis) for i, e in enumerate(m))
                part[lower] = v * m[axis] % P
        parts.append({m: v for m, v in part.items() if v})
    return parts


def _sign(perm):
    """The sign of a permutation of 0..n-1, by its inversions."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


class CompleteIntersection:
    """The curve F_1 = ... = F_{N-1} = 0 in P^N, each F_i a nonzero
    homogeneous polynomial in N + 1 variables, taken to be smooth (the
    caller certifies it)."""

    def __init__(self, *forms):
        self.nvars = len(next(iter(forms[0])))
        if len(forms) != self.nvars - 2:
            raise ValueError("a curve in P^N is cut out by N - 1 forms")
        self.forms = forms
        self.degrees = [d for (d,) in ({sum(m) for m in F} for F in forms)]
        self.e = sum(self.degrees) - self.nvars  # K = O(e)
        self.degree = math.prod(self.degrees)
        self.genus = self.degree * self.e // 2 + 1
        # det[u, v, grad F_1, ...] = sum over i, j of u_i v_j D[i][j]
        grads = [_grad(F) for F in forms]
        n = self.nvars
        self._D = [[{} for _ in range(n)] for _ in range(n)]
        for perm in itertools.permutations(range(n)):
            term = {(0,) * n: _sign(perm) % P}
            for grad, k in zip(grads, perm[2:]):
                term = _times(term, grad[k])
            i, j = perm[:2]
            self._D[i][j] = _plus(self._D[i][j], term)
        self._quotients = {}

    def _quotient(self, n):
        """(basis, nf) for (S/I)_n, cached: the monomials of degree n that
        are no pivot, and the normal form, a sparse {basis index: value}
        row, of every monomial of degree n."""
        if n not in self._quotients:
            mons = monomials(n, self.nvars)
            column = {m: c for c, m in enumerate(mons)}
            pivots = _pivots(
                {column[m]: v for m, v in _times(F, {u: 1}).items()}
                for F, d in zip(self.forms, self.degrees)
                for u in monomials(n - d, self.nvars))
            # reduce each pivot row against the higher pivots, which are
            # reduced already, so that it holds no other pivot
            for c in sorted(pivots, reverse=True):
                row = pivots[c]
                for k in [k for k in row if k != c and k in pivots]:
                    f = row[k]
                    for j, v in pivots[k].items():
                        nv = (row.get(j, 0) - f * v) % P
                        if nv:
                            row[j] = nv
                        else:
                            row.pop(j)
            basis = [m for c, m in enumerate(mons) if c not in pivots]
            index = {m: i for i, m in enumerate(basis)}
            nf = {m: {i: 1} for m, i in index.items()}
            nf.update({mons[c]: {index[mons[k]]: -v % P
                                 for k, v in row.items() if k != c}
                       for c, row in pivots.items()})
            self._quotients[n] = basis, nf
        return self._quotients[n]

    def basis(self, n):
        """The monomials that are a basis of (S/I)_n = H^0(O_C(n))."""
        return self._quotient(n)[0]

    def h0(self, n):
        return len(self.basis(n))

    def coords(self, f, n):
        """The coordinates of the degree-n form f mod I against
        basis(n), as a sparse {column: value} row."""
        nf = self._quotient(n)[1]
        row = {}
        for m, v in f.items():
            for c, w in nf[m].items():
                row[c] = (row.get(c, 0) + v * w) % P
        return {c: v for c, v in row.items() if v}

    def gaussian_rows(self, a):
        """The rows of [mu | Phi] over the tensor basis of
        H^0(K) x H^0(O(a)), and the number of mu columns."""
        e, n = self.e, self.nvars
        width = self.h0(e + a)
        rows = []
        for t in self.basis(a):
            dt = _grad({t: 1})
            # det[grad s, grad t, ...] is grad s . cofactor
            cofactor = [{} for _ in range(n)]
            for i, j in itertools.product(range(n), repeat=2):
                cofactor[i] = _plus(cofactor[i], _times(dt[j], self._D[i][j]))
            for s in self.basis(e):
                det = {}
                for part, c in zip(_grad({s: 1}), cofactor):
                    det = _plus(det, _times(part, c))
                mu = self.coords(_times({s: 1}, {t: 1}), e + a)
                phi = self.coords(det, 2 * e + a)
                row = dict(mu)
                row.update((width + c, v) for c, v in phi.items())
                rows.append(row)
        return rows, width

    def gaussian_corank(self, a):
        """(corank of Phi_{K,O(a)}, cork mu): h^0(K^2 M) - rank of Phi
        on R(K, M), and h^0(KM) - rank mu."""
        rows, width = self.gaussian_rows(a)
        mu_rank = rank_mod_p([{c: v for c, v in r.items() if c < width}
                              for r in rows])
        phi_rank = rank_mod_p(rows) - mu_rank
        deg = self.degree * (2 * self.e + a)
        return deg - self.genus + 1 - phi_rank, width - mu_rank


def _pivots(rows):
    """Echelon rows mod P of the span of sparse {column: value} rows, by
    pivot column: each row's pivot is its lowest column, scaled to 1."""
    pivots = {}
    for row in rows:
        row = {c: v % P for c, v in row.items() if v % P}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], P - 2, P)
                pivots[c] = {k: v * inv % P for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                nv = (row.get(k, 0) - f * v) % P
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return pivots


def rank_mod_p(rows):
    """The rank mod P of sparse {column: value} rows."""
    return len(_pivots(rows))
