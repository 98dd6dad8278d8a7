"""Gaussian maps of explicit plane curves, computed by linear algebra mod p.

For a smooth plane curve C: F = 0 of degree d in P^2, the sections of
O_C(n) are the degree-n forms modulo the degree-n piece of the ideal
(F): H^0(O_C(n)) = (S/F)_n for S = k[x, y, z], since H^1(O_P2(n - d))
vanishes. With F monic in z, dividing by F on its lex-leading term z^d
gives each form its normal form, so the monomials of degree n and
z-degree below d are a basis of (S/F)_n. The canonical bundle is
K = O_C(d - 3).

For M = O_C(a) the Gaussian map Phi_{K,M}: R(K, M) -> H^0(K^2 M), on the
kernel R(K, M) of the multiplication map mu: H^0(K) x H^0(M) -> H^0(KM),
sends s x t to det[grad s, grad t, grad F] modulo (F), a form of degree
2(d - 3) + a (Wahl, J. Differential Geom. 32, 1990). Over the tensor
basis of monomial pairs, the rank of Phi on R is rank[mu | Phi] -
rank[mu], and the corank is h^0(K^2 M) - rank, with h^0(K^2 M) from
Riemann-Roch since deg K^2 M > 2g - 2.

Ranks are taken mod P = 32003. Reduction of an integer matrix mod p
can only lower its rank, so a corank computed here bounds the corank
over Q from above, and a corank 0 proves surjectivity over Q. Nothing
here reads divcalc.
"""

from __future__ import annotations

P = 32003


def monomials(n):
    """The exponent triples (i, j, k) of degree n, x^i y^j z^k."""
    if n < 0:
        return []
    return [(i, j, n - i - j) for i in range(n, -1, -1)
            for j in range(n - i, -1, -1)]


def fermat(d):
    """x^d + y^d + z^d, smooth by the Jacobian criterion when p does not
    divide d."""
    return {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1}


def _times(f, g):
    """The product of two polynomials, coefficients mod P."""
    out = {}
    for (a, b, c), u in f.items():
        for (i, j, k), v in g.items():
            m = (a + i, b + j, c + k)
            out[m] = (out.get(m, 0) + u * v) % P
    return {m: v for m, v in out.items() if v}


def _plus(f, g, scale=1):
    """f + scale g, coefficients mod P."""
    out = dict(f)
    for m, v in g.items():
        out[m] = (out.get(m, 0) + scale * v) % P
    return {m: v for m, v in out.items() if v}


def _grad(f):
    """(f_x, f_y, f_z)."""
    parts = []
    for axis in range(3):
        part = {}
        for m, v in f.items():
            if m[axis]:
                lower = tuple(e - (i == axis) for i, e in enumerate(m))
                part[lower] = v * m[axis] % P
        parts.append({m: v for m, v in part.items() if v})
    return parts


class PlaneCurve:
    """The plane curve F = 0, F homogeneous of degree d >= 3 with z^d
    coefficient 1."""

    def __init__(self, F):
        (self.d,) = {sum(m) for m in F}
        if F.get((0, 0, self.d)) != 1:
            raise ValueError("F must be monic in z")
        self.F = F
        # z^d = -(F - z^d): the rewriting rule of the normal form
        self._tail = {m: -v % P for m, v in F.items() if m[2] < self.d}
        self._gradF = _grad(F)
        self._nf = {}

    @property
    def genus(self):
        return (self.d - 1) * (self.d - 2) // 2

    def basis(self, n):
        """The monomials of (S/F)_n, a basis of H^0(O_C(n))."""
        return [m for m in monomials(n) if m[2] < self.d]

    def h0(self, n):
        return len(self.basis(n))

    def _monomial_nf(self, m):
        """The normal form of one monomial, cached."""
        if m not in self._nf:
            i, j, k = m
            if k < self.d:
                nf = {m: 1}
            else:
                nf = {}
                for (a, b, c), v in self._tail.items():
                    nf = _plus(nf, self._monomial_nf((a + i, b + j,
                                                      c + k - self.d)), v)
            self._nf[m] = nf
        return self._nf[m]

    def coords(self, f, n):
        """The coordinates of the degree-n form f mod (F) against
        basis(n), as a sparse {column: value} row."""
        index = {m: c for c, m in enumerate(self.basis(n))}
        row = {}
        for m, v in f.items():
            for r, w in self._monomial_nf(m).items():
                c = index[r]
                row[c] = (row.get(c, 0) + v * w) % P
        return {c: v for c, v in row.items() if v}

    def gaussian_rows(self, a):
        """The rows of [mu | Phi] over the tensor basis of
        H^0(K) x H^0(O(a)), and the number of mu columns."""
        e = self.d - 3
        Fx, Fy, Fz = self._gradF
        width = self.h0(e + a)
        rows = []
        for t in self.basis(a):
            tx, ty, tz = _grad({t: 1})
            # grad t x grad F, so that det[grad s, grad t, grad F] is
            # grad s . cross
            cross = (_plus(_times(ty, Fz), _times(tz, Fy), -1),
                     _plus(_times(tz, Fx), _times(tx, Fz), -1),
                     _plus(_times(tx, Fy), _times(ty, Fx), -1))
            for s in self.basis(e):
                det = {}
                for part, c in zip(_grad({s: 1}), cross):
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
        g, deg = self.genus, self.d * (2 * (self.d - 3) + a)
        return deg - g + 1 - phi_rank, width - mu_rank


def rank_mod_p(rows):
    """The rank mod P of sparse {column: value} rows, by elimination on
    the lowest column."""
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
    return len(pivots)
