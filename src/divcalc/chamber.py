"""The chamber word of the E10 simple roots on the Enriques lattice
U + E8(-1): reduce_to_chamber makes it, _unword inverts it,
check_phi_certificate replays it by its own gram arithmetic, and
PhiCertificate.text prints it. Its steps are ("neg",), ("s", j) and
("t", e, v), as reduce_to_chamber states."""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import ModelError, RangeError
from .lattice import DivClass, _Record, pair

# U + E8(-1) in the basis U1, U2, R1..R8: R_i^2 = -2, and R_i.R_j = 1
# on the edges of the E8 diagram (Bourbaki order)
_E8_EDGES = {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
_E10_GRAM = tuple(
    tuple(int(i + j == 1) if i < 2 or j < 2 else -2 if i == j
          else int((min(i, j) - 2, max(i, j) - 2) in _E8_EDGES)
          for j in range(10))
    for i in range(10)
)

# The simple roots of E10 in that basis, in the order alpha_-1, alpha_0,
# alpha_1..alpha_8: alpha_-1 = U2 - U1, alpha_0 = U1 - theta with theta
# the highest root (2,3,4,6,5,4,3,2) of E8 on R1..R8, and alpha_i = R_i.
# Each has square -2, and the pairings off the diagonal, 0 or 1, form the
# T_2,3,7 diagram. E10_WEIGHTS are the dual classes, omega_i . alpha_j = 1
# if i = j, else 0; omega_-1 = U1 is the only isotropic one (Vinberg 1972;
# Cossec-Dolgachev, Enriques Surfaces I, ch. II).
E10_ROOTS = (
    (-1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -2, -3, -4, -6, -5, -4, -3, -2),
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)
E10_WEIGHTS = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 2, -4, -5, -7, -10, -8, -6, -4, -2),
    (3, 3, -5, -8, -10, -15, -12, -9, -6, -3),
    (4, 4, -7, -10, -14, -20, -16, -12, -8, -4),
    (6, 6, -10, -15, -20, -30, -24, -18, -12, -6),
    (5, 5, -8, -12, -16, -24, -20, -15, -10, -5),
    (4, 4, -6, -9, -12, -18, -15, -12, -8, -4),
    (3, 3, -4, -6, -8, -12, -10, -8, -6, -3),
    (2, 2, -2, -3, -4, -6, -5, -4, -3, -2),
)


class PhiCertificate(_Record, namedtuple(
        "PhiCertificate", "word pairings phi")):
    """A proof of phi(L) on the E10 gram: the word w that takes L into the
    closed chamber of E10_ROOTS (reduce_to_chamber's steps), the pairings
    L'.alpha_i >= 0 of L' = wL with the roots in that order, and
    phi = L'.U1. check_phi_certificate replays it."""

    __slots__ = ()

    def text(self, labels):
        """The certificate as the phi command prints it, in the labels
        of the model's basis; the empty word is id."""
        steps = [f"t({labels[s[1]]}; {' '.join(map(str, s[2]))})"
                 if s[0] == "t" else f"s({s[1]})" if s[0] == "s"
                 else "neg" for s in self.word]
        return (f"w = {' '.join(steps) or 'id'}; "
                f"L'.alpha = {' '.join(map(str, self.pairings))}; "
                f"phi = L'.{labels[0]} = {self.phi}")


# What the chamber reduction reads of the E10 data, built once: the
# pairing rows G alpha_j of the roots; the neighbours of each root in the
# T_2,3,7 diagram (alpha_j . alpha_k = 1, every other off-diagonal pairing
# is 0); the columns of the weights, so that x = sum_j (x.alpha_j) omega_j
# is a product with them; the row G h of the height class h, the sum of
# the weights, and its E8(-1) part; and the rows of the E8(-1) block past
# U1, U2.
_E10_ROOT_ROWS = tuple(tuple(sum(map(mul, g, a)) for g in _E10_GRAM)
                       for a in E10_ROOTS)
_E10_NEIGHBOURS = tuple(
    tuple(k for k, b in enumerate(E10_ROOTS) if sum(map(mul, row, b)) == 1)
    for row in _E10_ROOT_ROWS)
_E10_WEIGHT_COLUMNS = tuple(zip(*E10_WEIGHTS))
_E10_HEIGHT_ROW = tuple(sum(map(mul, g, map(sum, _E10_WEIGHT_COLUMNS)))
                        for g in _E10_GRAM)
_E8_HEIGHT_ROW = _E10_HEIGHT_ROW[2:]
_E8_ROWS = tuple(g[2:] for g in _E10_GRAM[2:])


def _shift(r, xe, v):
    """x.v + (v^2 / 2)(x.e) for a class x with E8(-1) part r and
    x.e = xe: the multiple of e that the transvection along e and v takes
    off x."""
    Nv = [sum(map(mul, row, v)) for row in _E8_ROWS]
    return sum(map(mul, r, Nv)) + sum(map(mul, v, Nv)) // 2 * xe


def _transvection(x, e, v, shift=None):
    """The Eichler transvection E(x) = x + (x.e) v - (x.v) e
    - (v^2 / 2)(x.e) e of the E10 coordinates x, along e = U1 (e = 0) or
    U2 (e = 1), with v in the E8(-1) block given by its 8 coordinates. It
    is an isometry fixing e, and E along -v undoes it. shift is
    _shift(x[2:], x.e, v) when the caller has it."""
    xe, r = x[1 - e], x[2:]
    if shift is None:
        shift = _shift(r, xe, v)
    y = x[:2] + [ri + xe * vi for ri, vi in zip(r, v)]
    y[e] -= shift
    return y


def _cusp_step(x):
    """The transvection along U1 or U2 that lowers the height x.h the
    most, as (e, v, E x), or None when neither lowers it. v is
    -round(r / (x.e)) coordinatewise for r the E8(-1) part of x, so E
    sends r to r + (x.e) v, with coordinates in [-x.e / 2, x.e / 2).
    x.e > 0: x lies in the open positive cone on the side of h, and U1,
    U2 are isotropic classes on its boundary there.

    The two are compared by their height change, read off E's formula:
    h.(E x - x) = (x.e)(h.v) - (x.v + (v^2 / 2)(x.e))(h.e), with U1
    winning a tie. Only the image of the one taken is built."""
    r, best, drop = x[2:], None, 0
    for e in (0, 1):
        xe = x[1 - e]
        v = tuple(-((2 * ri + xe) // (2 * xe)) for ri in r)
        if any(v):
            shift = _shift(r, xe, v)
            change = (xe * sum(map(mul, _E8_HEIGHT_ROW, v))
                      - shift * _E10_HEIGHT_ROW[e])
            if change < drop:
                best, drop = (e, v, shift), change
    if best is None:
        return None
    e, v, shift = best
    return e, v, _transvection(x, e, v, shift)


def _reduce(x):
    """reduce_to_chamber on the coordinates x of a class with L^2 > 0:
    (x', the pairings x'.alpha_j, the word as a list)."""
    word, c = [], None
    if sum(map(mul, _E10_HEIGHT_ROW, x)) < 0:
        x = [-a for a in x]
        word.append(("neg",))
    while True:
        step = _cusp_step(x)
        if step or c is None:  # else c still holds the pairings of x
            while step:
                e, v, x = step
                word.append(("t", e, v))
                step = _cusp_step(x)
            c = [sum(map(mul, row, x)) for row in _E10_ROOT_ROWS]
        m = min(c)
        if m >= 0:  # x is in the chamber, and c its pairings
            return x, c, word
        while m < 0:
            j = c.index(m)
            c[j] = -m
            for k in _E10_NEIGHBOURS[j]:
                c[k] += m
            word.append(("s", j))
            m = min(c)
            if j < 2 and m < 0:  # alpha_-1, alpha_0 move U1, U2
                break
        x = [sum(map(mul, c, col)) for col in _E10_WEIGHT_COLUMNS]
        if m >= 0:
            return x, c, word


def reduce_to_chamber(L: DivClass):
    """(L', word) with L' = w L in the closed chamber of E10_ROOTS:
    L'.alpha >= 0 for every simple root alpha. L must lie on the E10 gram
    (else ModelError) and have L^2 > 0 (else RangeError, since on the
    null cone and outside it the loop need not end).

    The word lists the steps in the order taken: ("neg",) first when L
    lies in the negative cone, then reflections ("s", j),
    x -> x + (x.alpha_j) alpha_j in E10_ROOTS[j], and Eichler
    transvections ("t", e, v) along U1 (e = 0) or U2 (e = 1), v the
    E8(-1) coordinates of _cusp_step. Transvections are tried at the
    start and after each reflection in alpha_-1 or alpha_0, the roots
    with a U1 or U2 coordinate, that leaves L outside the chamber, and
    taken while one lowers the height. In between the loop reflects in
    the root with the most negative pairing c_j = L.alpha_j, keeping only
    the pairings: reflecting negates c_j and adds c_j to each
    neighbour's, and L = sum_j c_j omega_j.

    It ends. The height is L.h with h the sum of the weights, so
    h.alpha_j = 1 for every j and h^2 = 1240 > 0. L^2 > 0 puts L in the
    open positive cone, and after the sign step in the component where
    L.h > 0. Reflections and transvections preserve that component, so
    L.h stays a positive integer, and each step lowers it: a reflection
    by |L.alpha_j|, a transvection because it is taken only when it does.
    So the word has at most |L.h| steps, the sign step included.
    """
    L2 = pair(L, L)
    if L.model.gram != _E10_GRAM:
        raise ModelError("chamber reduction needs the E10 gram")
    if L2 <= 0:
        raise RangeError(f"chamber reduction needs L^2 > 0, got {L2}")
    x, _, word = _reduce(list(L.coords))
    return DivClass(L.model, tuple(x)), tuple(word)


def _unword(word, x, d=None):
    """w^-1 x for the chamber word w and the coordinates x of an E10
    class: the steps undone in reverse order, reflections and the sign on
    the pairings d_j = x.alpha_j and transvections on the coordinates F,
    each kept until a step needs the other. It starts from x and, when
    given, d = x's pairings with E10_ROOTS, a list it may change: so
    undoing a closing transvection needs no product with the weight
    columns, nor, given d, a closing reflection or sign one with the
    root rows."""
    F = list(x)
    for step in reversed(word):
        if step[0] == "t":
            if F is None:
                F = [sum(map(mul, d, col)) for col in _E10_WEIGHT_COLUMNS]
            F, d = _transvection(F, step[1], tuple(-a for a in step[2])), None
            continue
        if d is None:
            d = [sum(map(mul, row, F)) for row in _E10_ROOT_ROWS]
        F = None
        if step[0] == "s":
            j = step[1]
            dj = d[j]
            d[j] = -dj
            for k in _E10_NEIGHBOURS[j]:
                d[k] += dj
        else:
            d = [-a for a in d]
    if F is None:
        F = [sum(map(mul, d, col)) for col in _E10_WEIGHT_COLUMNS]
    return tuple(F)


def _chamber_phi(L: DivClass):
    """(phi = L'.U1, F = w^-1 U1, certificate) of L' = wL, the chamber
    reduction of a class L with L^2 > 0 on the E10 gram; U1 = omega_-1
    pairs 1 with alpha_-1, 0 with the other roots."""
    x, c, word = _reduce(list(L.coords))
    word = tuple(word)
    F = _unword(word, E10_WEIGHTS[0], [1] + [0] * 9)
    return (x[1], DivClass(L.model, F), PhiCertificate(word, tuple(c), x[1]))


# check_phi_certificate's own arithmetic: products with the gram, and each
# step applied from its definition


def _e10_dot(x, y):
    return sum(map(mul, x, [sum(map(mul, g, y)) for g in _E10_GRAM]))


def _e10_step(x, step, sign=1):
    """The coordinates x of an E10 class moved by one step of a chamber
    word, or by its inverse when sign is -1, by plain gram arithmetic. A
    step of another shape raises ValueError."""
    kind, args = step[0], step[1:]
    if kind == "neg" and not args:
        return [-a for a in x]
    if kind == "s" and len(args) == 1 and args[0] in range(10):
        c = sum(map(mul, x, _E10_ROOT_ROWS[args[0]]))
        return [xi + c * ai for xi, ai in zip(x, E10_ROOTS[args[0]])]
    if kind == "t" and len(args) == 2 and args[0] in (0, 1) \
            and len(args[1]) == 8:
        e, V = args[0], (0, 0) + tuple(sign * t for t in args[1])
        GV = [sum(map(mul, g, V)) for g in _E10_GRAM]
        xe = sum(map(mul, x, _E10_GRAM[e]))
        y = [xi + xe * vi for xi, vi in zip(x, V)]
        y[e] -= sum(map(mul, x, GV)) + sum(map(mul, V, GV)) // 2 * xe
        return y
    raise ValueError(f"not a chamber step: {step!r}")


def check_phi_certificate(L: DivClass, result) -> bool:
    """Whether result's certificate proves result.value = phi(L).

    Gram arithmetic only, with no search: the word replays on L to
    L' = wL; its pairings with E10_ROOTS are the certificate's and all
    >= 0, so L' lies in the closed chamber; L'.U1 is the certificate's
    phi and result's value; and the witness is w^-1 U1, isotropic, with
    F.L = phi. Why that proves phi: for L' in the chamber and v in
    W(E10), L'.vU1 >= L'.U1, and every primitive isotropic class in the
    positive cone is v U1 for some v. A result without a certificate
    (the slice walk's) or no result at all, an L that is no DivClass, a
    model of another gram or a malformed certificate or witness gives
    False, and nothing raises.
    """
    cert = getattr(result, "certificate", None)
    if (not isinstance(cert, PhiCertificate) or type(L) is not DivClass
            or L.model.gram != _E10_GRAM):
        return False
    x = list(L.coords)
    try:
        for step in cert.word:
            x = _e10_step(x, step)
        F = [1] + [0] * 9
        for step in reversed(cert.word):
            F = _e10_step(F, step, -1)
        pairings = tuple(sum(map(mul, x, g)) for g in _E10_ROOT_ROWS)
        return (tuple(cert.pairings) == pairings and min(pairings) >= 0
                and cert.phi == result.value == _e10_dot(x, E10_WEIGHTS[0])
                and tuple(F) == result.witness.coords and _e10_dot(F, F) == 0
                and _e10_dot(F, L.coords) == result.value)
    except (AttributeError, TypeError, ValueError):
        return False
