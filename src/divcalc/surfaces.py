"""Named surface geometries and the numerics that depend on them.

A surface here is a LatticeModel: the Enriques lattice (U perp E8(-1)),
plane blow-ups sigma1..sigma9 with gram diag(1, -1, ..), and two ruled
models ("blq" with a -2 section, "blc6" and friends with a -n section).
Each states its sign test as model data (LatticeModel.sign_tests): none
on Enriques, the basis on sigma_n, and f, C0 + nf on the ruled models.
An isotropic configuration is a model too: a small sublattice spanned by
labeled isotropic classes with a supplied nonnegative pairing table, zero
canonical class and chi(O) = 1, every class effective; the structure
lemmas work entirely inside these.

On top of the models: adjunction genus, Riemann-Roch chi, the residual
parity test, the minimal-pencil-degree invariant phi, the quasi-nef
grading against finite nodal sets, and scroll invariants of tetragonal
curves. phi is certified two ways. On the E10 gram of the Enriques
lattice it is read off the reduction of the class into the chamber of
E10's simple roots, with a certificate (the reducing word, the chamber
pairings, phi) that check_phi_certificate replays by gram arithmetic.
On every other hyperbolic lattice it comes from slice enumeration, and
on request from the slice points inside a box, uncertified.
"""

from __future__ import annotations

import functools
import math
import os
import re
from collections import namedtuple
from operator import mul

from .criteria import _read
from .errors import (
    ModelError,
    NodalClassError,
    NonCurveClassError,
    OverflowGuardError,
    PhiBoundError,
    PhiInvariantError,
    RangeError,
)
from .lattice import (
    _MAX_DIGITS,
    DivClass,
    LatticeModel,
    _check_i64,
    _gram_image,
    _json_list,
    _json_object,
    _model_int,
    _read_json,
    _Record,
    _require_model,
    _slicer,
    load_model,
    pair,
)

_E8 = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


# U + E8(-1) in the basis U1, U2, R1..R8
_E10_GRAM = tuple(
    tuple(int(i + j == 1) if i < 2 or j < 2 else -_E8[i - 2][j - 2]
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


def enriques() -> LatticeModel:
    """The full rank-10 even unimodular lattice, hyperbolic plane plus
    E8 negated. Canonical class is numerically trivial; no basis class is
    declared effective (positivity tests use caller-supplied classes)."""
    return LatticeModel(
        name="enriques",
        labels=("U1", "U2") + tuple(f"R{i}" for i in range(1, 9)),
        gram=_E10_GRAM,
        canonical=(0,) * 10,
        chi=1,
    )


def sigma(n: int) -> LatticeModel:
    """Blow-up of the plane at n points: diag(1, -1^n), K = -3H + sum Gi."""
    if not 1 <= n <= 9:
        raise ModelError("sigma(n) is shipped for n in 1..9")
    labels = ("H",) + tuple(f"G{i}" for i in range(1, n + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n + 1))
        for i in range(n + 1)
    )
    return LatticeModel(
        name=f"sigma{n}",
        labels=labels,
        gram=gram,
        canonical=(-3,) + (1,) * n,
        chi=1,
        effective_labels=labels,
    )


def blq() -> LatticeModel:
    """Ruled model with a section of square -2 (even intersection form).
    Its sign test keeps L = aC0 + bf with a = L.f, b = L.(C0 + 2f) >= 0."""
    return LatticeModel(
        name="blq",
        labels=("C0", "f"),
        gram=((-2, 1), (1, 0)),
        canonical=(-2, -4),
        chi=1,
        effective_labels=("C0", "f"),
        sign_tests=((0, 1), (1, 2)),
    )


def blcn(n: int) -> LatticeModel:
    """Elliptic ruled model with a section of square -n, chi(O) = 0.

    K = -2C0 - nf here; the fixture with n = 6 pins this down via its
    curve class 2C0 + 12f, which must equal -2K - 2C0.
    """
    if n < 1:
        raise ModelError("blcn(n) needs n >= 1")
    return LatticeModel(
        name=f"blc{n}",
        labels=("C0", "f"),
        gram=((-n, 1), (1, 0)),
        canonical=(-2, -n),
        chi=0,
        effective_labels=("C0", "f"),
        sign_tests=((0, 1), (1, n)),
    )


# the builtin surfaces by name, in the order list_surfaces gives them
_BUILTINS = {
    "enriques": enriques,
    "blq": blq,
    "blc6": functools.partial(blcn, 6),
    **{f"sigma{i}": functools.partial(sigma, i) for i in range(1, 10)},
}


def list_surfaces():
    return list(_BUILTINS)


@functools.cache
def _builtin(name: str) -> LatticeModel:
    """The model of one of _BUILTINS, built on the first call."""
    return _BUILTINS[name]()


def get_surface(name: str) -> LatticeModel:
    """Resolve a surface by builtin name, file path, or DIVCALC_SURFACE_PATH.

    Each name of _BUILTINS is built once per process and the same
    read-only model is returned afterwards. Every other name (blcN beyond
    blc6, a file path or a DIVCALC_SURFACE_PATH entry, read by
    load_model) is built on every call, as are the models of enriques(),
    sigma(n), blq() and blcn(n). An index of more digits than the 64-bit
    envelope allows raises OverflowGuardError before it is read.
    """
    if name in _BUILTINS:
        return _builtin(name)
    m = re.fullmatch(r"blc([0-9]+)", name)
    if m:
        digits = m.group(1).lstrip("0")
        if len(digits) > _MAX_DIGITS:
            raise OverflowGuardError(
                f"blcN index of {len(digits)} digits exceeds the 64-bit "
                "envelope")
        return blcn(int(digits or "0"))
    if os.path.exists(name):
        return load_model(name)
    for d in os.environ.get("DIVCALC_SURFACE_PATH", "").split(os.pathsep):
        if not d:
            continue
        cand = os.path.join(d, name + ".json")
        if os.path.exists(cand):
            return load_model(cand)
    raise ModelError(
        f"unknown surface {name!r}; builtins are {', '.join(_BUILTINS)}"
    )


# ---------------------------------------------------------------------------
# isotropic configurations


def config_from_json_dict(doc, name="config") -> LatticeModel:
    """The model of a configuration document: "labels", and "pairs"
    entries [i, j, value] with i != j giving the pairing of classes i and
    j, value >= 0 (the classes play the role of effective isotropic
    decomposition pieces), each pair {i, j} at most once. Every other
    pairing, the diagonal included, is 0. A refusal reads "bad config
    definition: ..." (LatticeModel checks the labels); an integer beyond
    the 64-bit envelope raises OverflowGuardError."""
    try:
        _json_object(doc, "config")
        labels = _json_list(doc["labels"])
        n = len(labels)
        gram = [[0] * n for _ in range(n)]
        given = set()
        for entry in doc["pairs"]:
            i, j, v = (_model_int(x, "pair entry") for x in entry)
            if not (0 <= i < n and 0 <= j < n) or i == j or v < 0:
                raise ModelError(f"bad pair entry {entry}")
            if (i, j) in given:
                raise ModelError(f"bad pair entry {entry}: the pair "
                                 f"{{{i}, {j}}} is given twice")
            given |= {(i, j), (j, i)}
            gram[i][j] = gram[j][i] = v
        return LatticeModel(
            name=name,
            labels=labels,
            gram=gram,
            canonical=(0,) * n,
            chi=1,
            effective_labels=labels,
        )
    except (KeyError, TypeError, ValueError, ModelError) as exc:
        raise ModelError(f"bad config definition: {exc}") from exc


_BUILTIN_CONFIGS = {
    name: config_from_json_dict({"labels": labels, "pairs": pairs}, name)
    for name, labels, pairs in [
        # two isotropic classes meeting once: spans the L^2 = 12 decompositions
        ("pencil-pair-1", ["E", "E1"], [(0, 1, 1)]),
        # two isotropic classes meeting twice: L^2 = 12 variant and L^2 = 16
        ("pencil-pair-2", ["E", "E1"], [(0, 1, 2)]),
        # three isotropic classes, pairwise product 1: the L^2 = 14 span
        ("pencil-triple-1", ["E", "E1", "E2"],
         [(0, 1, 1), (0, 2, 1), (1, 2, 1)]),
    ]
}


def list_configs():
    return sorted(_BUILTIN_CONFIGS)


def get_config(name_or_path: str) -> LatticeModel:
    """A builtin configuration's model, built once and shared, or the
    model of the configuration file at a path, named after its stem."""
    if name_or_path in _BUILTIN_CONFIGS:
        return _BUILTIN_CONFIGS[name_or_path]
    if os.path.exists(name_or_path):
        stem = os.path.splitext(os.path.basename(name_or_path))[0]
        return config_from_json_dict(_read_json(name_or_path), stem)
    raise ModelError(
        f"unknown config {name_or_path!r}; builtins are {', '.join(list_configs())}"
    )


# ---------------------------------------------------------------------------
# genus / chi / parity


def genus(surface: LatticeModel, C: DivClass) -> int:
    """Adjunction genus g = (C^2 + C.K)/2 + 1. Parity failure means the
    class cannot be a curve class and is an error."""
    K = surface.canonical_class
    s = pair(C, C) + pair(C, K)
    if s % 2 != 0:
        raise NonCurveClassError(f"C^2 + C.K = {s} is odd, not a curve class")
    if s < -2:
        raise NonCurveClassError(f"C^2 + C.K = {s} < -2, not a curve class")
    return s // 2 + 1


def chi(surface: LatticeModel, L: DivClass) -> int:
    """Euler characteristic chi(L) = chi(O) + L.(L - K)/2."""
    K = surface.canonical_class
    s = pair(L, L) - pair(L, K)
    if s % 2 != 0:
        raise NonCurveClassError(f"L.(L - K) = {s} is odd; chi undefined")
    return surface.chi + s // 2


def mod4_condition(L: DivClass, M: DivClass) -> bool:
    """Residual parity: 3 L^2 + M.L must be divisible by 4."""
    return (3 * pair(L, L) + pair(M, L)) % 4 == 0


# ---------------------------------------------------------------------------
# phi invariant


class PhiCertificate(_Record, namedtuple(
        "PhiCertificate", "word pairings phi")):
    """A proof of phi(L) on the E10 gram: the word w that takes L into the
    closed chamber of E10_ROOTS (reduce_to_chamber's steps), the pairings
    L'.alpha_i >= 0 of L' = wL with the roots in that order, and
    phi = L'.U1. check_phi_certificate replays it."""

    __slots__ = ()

    to_json_dict = _Record._field_dict


class PhiResult(_Record, namedtuple(
        "PhiResult", "value witness certified certificate",
        defaults=(None,))):
    """phi: the value |F.L|, the isotropic witness class F, whether the
    value is certified minimal, and the chamber certificate of an E10
    result (None for a slice-walk or boxed result)."""

    __slots__ = ()

    to_json_dict = _Record._field_dict


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
    if L.model.gram != _E10_GRAM:
        raise ModelError("chamber reduction needs the E10 gram")
    L2 = pair(L, L)
    if L2 <= 0:
        raise RangeError(f"chamber reduction needs L^2 > 0, got {L2}")
    x, _, word = _reduce(list(L.coords))
    return DivClass(L.model, tuple(x)), tuple(word)


def _chamber_witness(word):
    """w^-1 U1 for the chamber word w: the steps undone in reverse order,
    reflections and the sign on the pairings d_j = F.alpha_j and
    transvections on the coordinates F, each kept until a step needs the
    other. U1 starts with both: its pairings and its coordinates are
    each (1, 0, ..., 0), so a word whose last step is a transvection
    needs no product with the weight columns to begin."""
    d, F = [1] + [0] * 9, [1] + [0] * 9
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


def _chamber_phi(L: DivClass) -> PhiResult:
    """Certified phi of L, a class with L^2 > 0 on the E10 gram, from its
    chamber reduction L' = wL: phi = L'.U1, witnessed by F = w^-1 U1."""
    x, c, word = _reduce(list(L.coords))
    word = tuple(word)
    return PhiResult(x[1], DivClass(L.model, _chamber_witness(word)), True,
                     PhiCertificate(word, tuple(c), x[1]))


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


def check_phi_certificate(L: DivClass, result: PhiResult) -> bool:
    """Whether result's certificate proves result.value = phi(L).

    Gram arithmetic only, with no search: the word replays on L to
    L' = wL; its pairings with E10_ROOTS are the certificate's and all
    >= 0, so L' lies in the closed chamber; L'.U1 is the certificate's
    phi and result's value; and the witness is w^-1 U1, isotropic, with
    F.L = phi. Why that proves phi: for L' in the chamber and v in
    W(E10), L'.vU1 >= L'.U1, and every primitive isotropic class in the
    positive cone is v U1 for some v. A result without a certificate
    (the slice walk's), a model of another gram or a malformed
    certificate or witness gives False, and nothing raises.
    """
    cert = result.certificate
    if not isinstance(cert, PhiCertificate) or L.model.gram != _E10_GRAM:
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


def phi(
    surface: LatticeModel, L: DivClass, mode: str = "sublattice",
    box: int | None = None,
) -> PhiResult:
    """Minimal |F.L| over nonzero isotropic classes F.

    Every mode needs L^2 > 0 (else RangeError). sublattice mode on a
    model whose gram is the E10 gram (the Enriques lattice, under any
    labels) reduces L into the closed chamber of E10_ROOTS,
    L' = wL = reduce_to_chamber(L); there phi = L'.U1, certified, with
    witness F = w^-1 U1 (F.L = +phi) and the certificate (w, the
    pairings L'.alpha_i, phi) that check_phi_certificate replays with no
    search.

    On every other gram, and in boxed mode, phi walks, for t = 1, 2, ...,
    isqrt(L^2), the slice {F : F.L = t, F^2 = 0} (slice_points, set up
    once per call). The walk needs a lattice of signature (1, rank - 1)
    and raises ModelError otherwise. On such a lattice no nonzero
    isotropic class pairs to 0 with L.

    sublattice mode returns the first non-empty slice. The slices below
    it are empty, so the result is certified, with no certificate to
    replay; its witness is the smallest class of that slice by
    coordinates, the only class it builds. Exhausting the walk violates
    phi^2 <= L^2 and raises PhiInvariantError, which signals a span too
    sparse to be a genuine isotropic configuration.

    boxed mode keeps, of each slice and its negative, the classes with
    coordinates in [-box, box] and returns the first t that keeps one,
    witnessed by the smallest such class by coordinates. That is the
    least |F.L| over the isotropic F in the box, never certified, since
    a class outside the box may pair lower. When no t up to isqrt(L^2)
    keeps a class it raises PhiBoundError. boxed mode without a box, and
    a box given in any other mode, raise ModelError.

    An L from another model raises ModelMismatchError.
    """
    _require_model(surface, L)
    image = _gram_image(L)  # G L and L^2, reused by the walk's set-up
    L2 = _check_i64(image[1], "pairing")
    if L2 <= 0:
        raise RangeError(f"phi needs L^2 > 0, got {L2}")
    if box is not None and mode != "boxed":
        raise ModelError(f"phi reads box only in boxed mode, not {mode!r}")
    if mode == "sublattice" and surface.gram == _E10_GRAM:
        return _chamber_phi(L)
    boxed = mode == "boxed"
    if boxed:
        if box is None:
            raise ModelError("boxed mode needs a box")
        if box < 1:
            raise ModelError("box_bound must be >= 1")
    elif mode != "sublattice":
        raise ModelError(f"unknown phi mode {mode!r}")

    cap = math.isqrt(L2)
    points, _ = _slicer(L, image)
    for t in range(1, cap + 1):
        witnesses = [F for F, _ in points(t, 0, 0)]
        if boxed:
            inside = [F for F in witnesses if max(map(abs, F)) <= box]
            witnesses = inside + [tuple(-x for x in F) for F in inside]
        if witnesses:
            return PhiResult(t, DivClass._walked(L.model, min(witnesses)),
                             not boxed)
    if boxed:
        raise PhiBoundError(
            f"no isotropic class in box {box} pairs to at most "
            f"isqrt(L^2) = {cap} with L; a larger box may hold one"
        )
    raise PhiInvariantError(
        f"no isotropic class in the span pairs to at most isqrt(L^2) = {cap}; "
        "the configuration is too sparse to certify the invariant"
    )


# ---------------------------------------------------------------------------
# quasi-nef grading


class QuasiNefResult(_Record, namedtuple(
        "QuasiNefResult", "status min_pairing witness notes",
        defaults=((),))):
    """status is nef, quasi_nef or violated; min_pairing and witness are
    the lowest pairing with the test pool and the class that gives it
    (None when nothing was tested, witness None for nef)."""

    __slots__ = ()

    to_json_dict = _Record._field_dict


def quasi_nef_test(L: DivClass, nodal_set) -> QuasiNefResult:
    """Grade L against the supplied nodal classes plus the model's
    declared effective basis classes.

    The verdict is relative to this finite pool; nef here means no
    negative pairing was found, not cone membership.
    """
    model = L.model
    pool = []
    for d in nodal_set:
        if pair(d, d) != -2:
            raise NodalClassError(
                f"nodal class {d.coords} has square {pair(d, d)}, expected -2"
            )
        pool.append(d)
    pool.extend(model.basis_class(lab) for lab in model.effective_labels)

    notes = []
    L2 = pair(L, L)
    if L2 < 0:
        notes.append(f"L^2 = {L2} < 0; cannot be quasi-nef geometrically")
    if not pool:
        notes.append("empty test pool; nef by absence of evidence")
        return QuasiNefResult("nef", None, None, tuple(notes))

    worst = min(pool, key=lambda d: (pair(L, d), d.coords))
    mp = pair(L, worst)
    if mp >= 0:
        status, witness = "nef", None
    elif mp == -1:
        status, witness = "quasi_nef", worst
    else:
        status, witness = "violated", worst

    if status in ("nef", "quasi_nef") and L2 == 0:
        prim, mult = L.primitive_part()
        if mult >= 2 and pair(prim, prim) == 0:
            notes.append(
                f"L is {mult} times a primitive isotropic class; "
                "h1 may be nonzero in the classification"
            )
        else:
            notes.append("h1 expected zero by the classification")
    elif status in ("nef", "quasi_nef") and L2 > 0:
        notes.append("h1 expected zero by the classification")
    return QuasiNefResult(status, mp, witness, tuple(notes))


# ---------------------------------------------------------------------------
# scroll invariants


class ScrollInvariants(_Record, namedtuple(
        "ScrollInvariants", "g b1 b2 degV degY pa_hyperplane n2_holds")):
    __slots__ = ()

    to_json_dict = _Record._field_dict


def scroll_invariants(g: int, b1: int) -> ScrollInvariants:
    """Invariants of the scroll swept by a pencil of degree 4 on a curve
    of genus g, splitting type (b1, b2) with b1 + b2 = g - 5.

    degY >= 2 pa + 3 (the quadratic-normality threshold) simplifies to
    b1 >= 1, which is asserted as an equivalence in tests. A g below 6,
    or a b1 without b1 >= b2 >= 0, raises RangeError: the invariants
    give no verdict to answer with.
    """
    _read("scroll", locals())
    if g < 6:
        raise RangeError(f"g must be >= 6, got {g}", "g")
    b2 = g - 5 - b1
    if not (b1 >= b2 >= 0):
        raise RangeError(f"b1 must satisfy b1 >= b2 >= 0; got b1 = {b1}, "
                         f"b2 = {b2} at g = {g}", "b1")
    degY = g - 1 + b2
    pa = g - 4 - b1
    return ScrollInvariants(
        g=g,
        b1=b1,
        b2=b2,
        degV=g - 3,
        degY=degY,
        pa_hyperplane=pa,
        n2_holds=degY >= 2 * pa + 3,
    )
