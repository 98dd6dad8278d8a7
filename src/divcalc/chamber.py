"""The chamber word of the E10 simple roots on the Enriques lattice
U + E8(-1): reduce_to_chamber makes it, _unword inverts it,
check_phi_certificate replays it by its own gram arithmetic, and
PhiCertificate.text prints it. Its steps are ("neg",), ("s", j) and
("t", e, v), as reduce_to_chamber states.

The chamber path's arithmetic with E10's fixed data runs through
straight-line kernels, written once per process from the data's nonzero
entries on first use (_kernels): the products with the root rows (the
pairings x.alpha_j), the weight columns (x rebuilt from its pairings)
and the gram (phi's image G L), each by _linear; cusp, _cusp_step's
rounding, shift (through the E8(-1) block) and height change for U1 and
U2; and transvection, the image of a step, shift included when the
caller has none. check_phi_certificate calls none of them: it replays
the word by plain gram products, so it stays a check independent of
the kernels."""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import mul, neg
from types import SimpleNamespace

from .errors import ModelError, RangeError
from .lattice import _INT_ONLY, DivClass, _Record, pair

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


def _terms(row, names):
    """The sum row . names as source text, written from the row's nonzero
    entries: a zero entry adds no term, and an entry +-1 no multiply."""
    terms = " ".join(("- " if a < 0 else "+ ")
                     + (n if abs(a) == 1 else f"{abs(a)} * {n}")
                     for a, n in zip(row, names) if a)
    return terms.removeprefix("+ ") or "0"


def _compile(name, lines):
    """The function name that the source lines define."""
    namespace = {}
    exec("\n".join(lines) + "\n", namespace)
    return namespace[name]


def _linear(rows):
    """The product x -> [row . x for row in rows] as one straight-line
    function, written from the rows' nonzero entries (_terms). It returns
    a list, and x must have one coordinate per column."""
    names = [f"x{j}" for j in range(len(rows[0]))]
    sums = ", ".join(_terms(row, names) for row in rows)
    return _compile("product", ["def product(x):",
                                f"    {', '.join(names)}, = x",
                                f"    return [{sums}]"])


# The names of the cusp and transvection kernels' source: x's coordinates,
# its E8(-1) part, v's coordinates and those of N v
_X = [f"x{j}" for j in range(10)]
_R, _V, _N = _X[2:], [f"v{j}" for j in range(8)], [f"n{j}" for j in range(8)]


def _shift_lines(xe):
    """Source lines, indented for an if block, that set
    shift = x.v + (v^2 / 2)(x.e), the multiple of e that the
    transvection along e and v takes off x, from x's E8(-1) part and v
    unpacked, with x.e named xe: first N v, by the E8(-1) rows."""
    dot = " + ".join
    lines = [f"{n} = {_terms(row, _V)}" for n, row in zip(_N, _E8_ROWS)]
    lines.append(f"shift = {dot(map('{} * {}'.format, _R, _N))} + "
                 f"({dot(map('{} * {}'.format, _V, _N))}) // 2 * {xe}")
    return [" " * 8 + line for line in lines]


def _write_cusp():
    """_cusp_step's choice as one straight-line function of x: for U1 and
    then U2, the rounding v, the shift and the height change, returning
    (e, v, shift) for the transvection that lowers x.h the most, U1
    winning a tie, or None when neither lowers it. The rounding
    -((2 r_i + xe) // (2 xe)) is written as (xe - 1 - 2 r_i) // (2 xe),
    its equal for xe = x.e > 0, with each 2 r_i taken once for both."""
    twice = [f"t{j}" for j in range(8)]
    lines = ["def cusp(x):", f"    {', '.join(_X)} = x",
             f"    {', '.join(twice)} = {', '.join(f'2 * {r}' for r in _R)}",
             "    best, drop = None, 0"]
    for e in (0, 1):
        xe = _X[1 - e]
        lines += [f"    d, h = 2 * {xe}, {xe} - 1"]
        lines += [f"    {v} = (h - {t}) // d" for v, t in zip(_V, twice)]
        lines.append(f"    if {' or '.join(_V)}:")
        lines += _shift_lines(xe)
        lines += [f"        change = {xe} * ({_terms(_E8_HEIGHT_ROW, _V)})"
                  f" - {_E10_HEIGHT_ROW[e]} * shift",
                  "        if change < drop:",
                  f"            best, drop = ({e}, ({', '.join(_V)}), shift)"
                  ", change"]
    return _compile("cusp", lines + ["    return best"])


def _write_transvection():
    """The Eichler transvection E(x) = x + (x.e) v - (x.v) e
    - (v^2 / 2)(x.e) e of the E10 coordinates x, along e = U1 (e = 0) or
    U2 (e = 1), with v in the E8(-1) block given by its 8 coordinates, as
    one straight-line function of (x, e, v, shift), x and v unpacked
    once. E is an isometry fixing e, and E along -v undoes it. shift is
    the multiple x.v + (v^2 / 2)(x.e) of e that E takes off x when the
    caller has it (the cusp kernel's), and None to have it computed."""
    lines = ["def transvection(x, e, v, shift):", f"    {', '.join(_X)} = x",
             f"    {', '.join(_V)} = v", "    xe = x0 if e else x1",
             "    if shift is None:"]
    lines += _shift_lines("xe")
    image = ", ".join(_X[:2] + [f"{r} + xe * {v}" for r, v in zip(_R, _V)])
    lines += [f"    y = [{image}]", "    y[e] -= shift", "    return y"]
    return _compile("transvection", lines)


@cache
def _kernels():
    """The chamber path's straight-line kernels over the fixed E10 data,
    built once on first use. Products (_linear): roots, the pairings
    x.alpha_j; weights, x = sum_j c_j omega_j from the pairings c; and
    gram, G x (phi's image of L). And cusp, _cusp_step's choice of
    (e, v, shift) or None (_write_cusp), and transvection, the image of
    an Eichler transvection (_write_transvection)."""
    return SimpleNamespace(
        roots=_linear(_E10_ROOT_ROWS), weights=_linear(_E10_WEIGHT_COLUMNS),
        gram=_linear(_E10_GRAM), cusp=_write_cusp(),
        transvection=_write_transvection())


def _e10_image(L):
    """_gram_image(L), (G L, L^2), for a class L on the E10 gram, by the
    gram kernel."""
    w = _kernels().gram(L.coords)
    return w, sum(map(mul, w, L.coords))


def _cusp_step(x):
    """The transvection along U1 or U2 that lowers the height x.h the
    most, as (e, v, E x), or None when neither lowers it. v is
    -round(r / (x.e)) coordinatewise for r the E8(-1) part of x, so E
    sends r to r + (x.e) v, with coordinates in [-x.e / 2, x.e / 2).
    x.e > 0: x lies in the open positive cone on the side of h, and U1,
    U2 are isotropic classes on its boundary there.

    The two are compared by their height change, read off E's formula:
    h.(E x - x) = (x.e)(h.v) - (x.v + (v^2 / 2)(x.e))(h.e), with U1
    winning a tie. The cusp kernel makes that choice; only the image of
    the one taken is built, by the transvection kernel."""
    kernels = _kernels()
    step = kernels.cusp(x)
    if step is None:
        return None
    e, v, shift = step
    return e, v, kernels.transvection(x, e, v, shift)


def _reduce(x):
    """reduce_to_chamber on the coordinates x of a class with L^2 > 0:
    (x', the pairings x'.alpha_j, the word as a list)."""
    kernels, word, c = _kernels(), [], None
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
            c = kernels.roots(x)
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
        x = kernels.weights(c)
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
    kernels = _kernels()
    F = list(x)
    for step in reversed(word):
        if step[0] == "t":
            if F is None:
                F = kernels.weights(d)
            F = kernels.transvection(F, step[1], tuple(map(neg, step[2])),
                                     None)
            d = None
            continue
        if d is None:
            d = kernels.roots(F)
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
        F = kernels.weights(d)
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


def _ints(values):
    """Whether every entry of values is an int; a bool or a float is
    not, though it may compare equal to one."""
    return _INT_ONLY.issuperset(map(type, values))


def _e10_dot(x, y):
    return sum(map(mul, x, [sum(map(mul, g, y)) for g in _E10_GRAM]))


def _e10_step(x, step, sign=1):
    """The coordinates x of an E10 class moved by one step of a chamber
    word, or by its inverse when sign is -1, by plain gram arithmetic. A
    step of another shape, or with an entry that is not an int, raises
    ValueError."""
    kind, args = step[0], step[1:]
    if kind == "neg" and not args:
        return [-a for a in x]
    if kind == "s" and len(args) == 1 and _ints(args) and args[0] in range(10):
        c = sum(map(mul, x, _E10_ROOT_ROWS[args[0]]))
        return [xi + c * ai for xi, ai in zip(x, E10_ROOTS[args[0]])]
    if kind == "t" and len(args) == 2 and _ints(args[:1]) \
            and args[0] in (0, 1) and len(args[1]) == 8 and _ints(args[1]):
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
    False, and nothing raises. Every number of the certificate, the
    value and the witness must be an int: a float or a bool that
    compares equal to the right one is refused.

    It uses none of the chamber path's kernels (_kernels), so a fault in
    one of them shows as a result that fails this check.
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
                and _ints((cert.phi, result.value, *cert.pairings,
                           *result.witness.coords))
                and cert.phi == result.value == _e10_dot(x, E10_WEIGHTS[0])
                and tuple(F) == result.witness.coords and _e10_dot(F, F) == 0
                and _e10_dot(F, L.coords) == result.value)
    except (AttributeError, TypeError, ValueError):
        return False
