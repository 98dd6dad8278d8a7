"""Brute-force reference implementations, independent of the package under test.

Everything in this module recomputes results from first principles: literal
predicate evaluation over full coordinate boxes (numpy), direct restatements
of the classification rules as single boolean expressions, and raw gram
matrices written out inline. Nothing imports from divcalc, so agreement
between these scans and the staged pipelines in the package is meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# surface key -> (gram rows, canonical coords, sign-condition mode)
# sign mode "basis": require L paired with every basis class >= 0
# sign mode "orthant": require every coordinate of L >= 0
ORACLE_SURFACES = {
    "sigma1": ([[1, 0], [0, -1]], [-3, 1], "basis"),
    "sigma2": ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], [-3, 1, 1], "basis"),
    "sigma3": (
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        [-3, 1, 1, 1],
        "basis",
    ),
    "blq": ([[-2, 1], [1, 0]], [-2, -4], "orthant"),
    "blc6": ([[-6, 1], [1, 0]], [-2, -6], "orthant"),
}

# case id -> (surface key, curve coords, subscheme length k, parity filter on?)
ORACLE_CASES = {
    "g1kondelp-a": ("sigma1", (6, -2), 6, True),
    "g1kondelp-b": ("sigma2", (6, -2, -2), 4, True),
    "g1kondelp-c": ("sigma2", (6, -2, -2), 6, True),
    "g1kondelp-d": ("sigma3", (6, -2, -2, -2), 4, True),
    "g1kondelp-e": ("sigma3", (6, -2, -2, -2), 5, True),
    "g1kondelp-f": ("sigma3", (6, -2, -2, -2), 6, True),
    "g1kondelp-g": ("blc6", (2, 12), 4, False),
    "g1kondelp-h": ("blq", (4, 8), 4, True),
    "g1kondelp-i": ("blq", (4, 8), 6, True),
}


def _inverse(gram):
    """Exact inverse of a nonsingular integer matrix, by Gauss-Jordan."""
    n = len(gram)
    A = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return [row[n:] for row in A]


def slice_box(gram, C, s, qlo):
    """A coordinate box that holds every x with |x.C| <= |s| and
    x^2 >= qlo.

    On a lattice of signature (1, n) with C^2 > 0 the form
        Q(x) = 2 (x.C)^2 / C^2 - x^2
    is positive definite, so Q(x) <= 2 s^2 / C^2 - qlo there, and
    Cauchy-Schwarz in Q gives x_i^2 <= Q(x) (Q^-1)_ii with
    Q^-1 = 2 C C^T / C^2 - G^-1. When that cap on Q is negative there is
    no such x, and the box is 0.
    """
    n = len(C)
    c2 = sum(C[i] * gram[i][j] * C[j] for i in range(n) for j in range(n))
    if c2 <= 0:
        raise ValueError("the box argument needs C^2 > 0")
    Ginv = _inverse(gram)
    cap = Fraction(2 * s * s, c2) - qlo
    box = 0
    for i in range(n):
        bound = cap * (Fraction(2 * C[i] * C[i], c2) - Ginv[i][i])
        if bound > 0:
            box = max(box, math.isqrt(bound.numerator // bound.denominator))
    return box


def survivor_box(surface_key, C, k):
    """A coordinate box that holds every survivor of the (C, k) search.

    A survivor has L^2 >= 0 and 0 <= L.C = L^2 + M.L <= 2k, so it lies
    in slice_box(gram, C, 2k, 0).
    """
    return slice_box(ORACLE_SURFACES[surface_key][0], C, 2 * k, 0)


def brute_slice(gram, C, s, qlo, qhi, box):
    """Every x in the box [-box, box]^r with x.C = s and qlo <= x^2 <= qhi,
    as coordinate tuples in sorted order, by a literal scan."""
    G = np.array(gram, dtype=np.int64)
    r = len(G)
    w = G @ np.array(C, dtype=np.int64)
    rng = np.arange(-box, box + 1, dtype=np.int64)
    if r > 1:
        rest = np.stack(
            np.meshgrid(*([rng] * (r - 1)), indexing="ij"), axis=-1
        ).reshape(-1, r - 1)
    else:
        rest = np.zeros((1, 0), dtype=np.int64)
    found = []
    for a0 in rng:
        x = np.concatenate(
            [np.full((rest.shape[0], 1), a0, dtype=np.int64), rest], axis=1
        )
        x2 = np.einsum("ij,ij->i", x @ G, x)
        keep = (x @ w == s) & (x2 >= qlo) & (x2 <= qhi)
        found.extend(tuple(int(v) for v in row) for row in x[keep])
    return sorted(found)


def brute_survivors(surface, C, k, box=None, mod4=True):
    """Scan the full box [-box, box]^r and keep coordinate vectors L passing
    every predicate of the decomposition test, evaluated literally in one go.

    surface is a key of ORACLE_SURFACES, or a raw gram (list of rows) of a
    lattice with no effective classes, which has no sign predicate.
    Returns a set of (coords tuple, z) with z = k - M.L the residual length.
    """
    if isinstance(surface, str):
        gram, _K, signmode = ORACLE_SURFACES[surface]
    else:
        gram, signmode = surface, None
    G = np.array(gram, dtype=np.int64)
    Cv = np.array(C, dtype=np.int64)
    r = len(Cv)
    if box is None:
        box = 4 * k
    C2 = int(Cv @ G @ Cv)
    w = G @ Cv

    rng = np.arange(-box, box + 1, dtype=np.int64)
    if r > 1:
        rest = np.stack(
            np.meshgrid(*([rng] * (r - 1)), indexing="ij"), axis=-1
        ).reshape(-1, r - 1)
    else:
        rest = np.zeros((1, 0), dtype=np.int64)

    survivors = set()
    for a0 in rng:
        L = np.concatenate(
            [np.full((rest.shape[0], 1), a0, dtype=np.int64), rest], axis=1
        )
        LG = L @ G
        L2 = np.einsum("ij,ij->i", LG, L)
        CL = L @ w
        ML = CL - L2
        degD = L2 + ML - k

        keep = np.any(L != 0, axis=1)
        keep &= L2 >= 0
        keep &= ML >= L2
        keep &= ML <= k
        keep &= degD >= 0
        if signmode == "basis":
            keep &= np.all(LG >= 0, axis=1)
        elif signmode == "orthant":
            keep &= np.all(L >= 0, axis=1)
        if signmode == "basis":
            # coordinate-sanity bound: (sum b_i)^2 <= n * sum b_i^2
            b = LG[:, 1:]
            n = r - 1
            keep &= np.sum(b, axis=1) ** 2 <= n * np.sum(b * b, axis=1)
        if mod4:
            keep &= (3 * L2 + ML) % 4 == 0

        # signature bound for L2 > 0: (C.L)^2 >= C^2 L^2, equality only
        # when C is an exact rational multiple of L
        hq = CL * CL - C2 * L2
        pos = L2 > 0
        keep &= ~(pos & (hq < 0))
        eq_idx = np.flatnonzero(keep & pos & (hq == 0))
        for i in eq_idx:
            lam = Fraction(int(CL[i]), int(L2[i]))
            if any(lam * int(L[i, j]) != int(Cv[j]) for j in range(r)):
                keep[i] = False

        for i in np.flatnonzero(keep):
            survivors.add((tuple(int(x) for x in L[i]), int(k - ML[i])))
    return survivors


def brute_destab():
    """Literal scan of the 16-cell grid for destabilizing splittings of the
    rank-2 bundle with c1 = 4C0 + 7f, c2 = 4 on the ruled quadric model.

    A = a*C0 + a1*f, B = c1 - A. Returns {(a, a1): (A2, B2, AB, lenW)} for
    the cells passing every constraint.
    """
    out = {}
    for a in range(1, 5):
        for a1 in range(4, 8):
            A2 = 2 * a * (a1 - a)
            B2 = 2 * (4 - a) * (3 + a - a1)
            AB = 2 * a * a - a - 2 * a * a1 + 4 * a1
            lenW = 4 - AB
            # B > 0 on this model: nonzero with both coordinates >= 0
            bpos = 4 - a >= 0 and 7 - a1 >= 0 and (4 - a, 7 - a1) != (0, 0)
            ok = (
                A2 + B2 >= 16
                and A2 > B2
                and A2 >= 10
                and a * (a1 - a) >= 5
                and bpos
            )
            if ok:
                out[(a, a1)] = (A2, B2, AB, lenW)
    return out


def brute_gonality(l2, phi, not_2d_special=True):
    """Minimal pencil degree, restated directly from the classification:
    2*phi in general, with three exception patterns."""
    if (l2, phi) in {(30, 5), (22, 4), (20, 4), (14, 3), (12, 3), (6, 2)}:
        return l2 // 4 + 2
    if phi >= 2 and phi % 2 == 0 and l2 == phi * phi:
        return 2 * phi - 2
    if phi >= 3 and l2 == phi * phi + phi - 2 and not_2d_special:
        if phi in (3, 4):
            return 2 * phi - 2
        return 2 * phi - 1
    return 2 * phi


def brute_isotropic(gram, target, box):
    """Every nonzero isotropic F in the box [-box, box]^r, as
    (coords tuple, |F.target|) sorted by value then coordinates."""
    G = np.array(gram, dtype=np.int64)
    r = len(G)
    rng = np.arange(-box, box + 1, dtype=np.int64)
    F = np.stack(np.meshgrid(*([rng] * r), indexing="ij"), axis=-1).reshape(-1, r)
    F2 = np.einsum("ij,ij->i", F @ G, F)
    F = F[np.any(F != 0, axis=1) & (F2 == 0)]
    vals = np.abs(F @ (G @ np.array(target, dtype=np.int64)))
    return sorted(
        ((tuple(int(x) for x in f), int(v)) for f, v in zip(F, vals)),
        key=lambda fv: (fv[1], fv[0]),
    )


def brute_phi(gram, L, box):
    """min |F.L| over nonzero isotropic F in the box, or None if none."""
    return min((v for _, v in brute_isotropic(gram, L, box)), default=None)


def brute_inertia(gram):
    """(positive, negative, zero) inertia of a symmetric integer matrix,
    from floating-point eigenvalues: numpy's matrix_rank gives the rank r,
    and the signs of the r eigenvalues of largest magnitude split it."""
    A = np.array(gram, dtype=float)
    n = len(A)
    if n == 0:
        return 0, 0, 0
    r = int(np.linalg.matrix_rank(A))
    eig = np.linalg.eigvalsh(A)
    top = eig[np.argsort(-np.abs(eig))[:r]]
    pos = int(np.sum(top > 0))
    return pos, r - pos, n - r


def brute_determinant(gram):
    """Determinant of an integer matrix from numpy's floating-point
    linalg.det, rounded: exact while the LU rounding error stays under
    1/2, as it does for small entries at rank 10 and below."""
    return int(round(np.linalg.det(np.array(gram, dtype=float))))


def brute_scroll(g, b1):
    """Scroll invariants for a tetragonal curve of genus g with splitting
    type (b1, b2): direct formulas."""
    b2 = g - 5 - b1
    deg_plane = g - 3
    deg_scroll = 2 * g - 6 - b1
    pa = g - 4 - b1
    n2 = deg_scroll >= 2 * pa + 3
    return {"b2": b2, "deg_plane": deg_plane, "deg_scroll": deg_scroll,
            "pa": pa, "n2": n2}


def brute_main_criterion(l2, h0_res, deg_m=None, h1m_zero=None, cliff=None):
    """Five-branch surjectivity criterion restated as one literal pass.

    Returns the branch tag ('i'..'v') of the first branch that applies, or
    None. h0_res is h0 of the branch's residual system on the curve.
    """
    if l2 == 4 and h0_res == 0:
        return "i"
    if l2 == 6 and h0_res == 0:
        return "ii"
    if l2 >= 8 and h0_res == 0:
        return "iii"
    if l2 >= 12 and h0_res == 1:
        return "iv"
    if (
        h1m_zero
        and deg_m is not None
        and cliff is not None
        and deg_m >= l2 // 2 + 2
        and l2 // 2 + 2 >= 6
        and h0_res <= cliff - 2
    ):
        return "v"
    return None
