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
parity (the search's mod4 stage reads it too), the minimal-pencil-degree
invariant phi and the quasi-nef grading against finite nodal sets, and
no rule of divcalc.criteria. phi is certified two ways. On the E10 gram
of the Enriques lattice it is read off the reduction of the class into
the chamber of E10's simple roots, with the certificate of
divcalc.chamber. On every other hyperbolic lattice it comes from slice
enumeration, and on request from the slice points inside a box,
uncertified.
"""

from __future__ import annotations

import functools
import math
import os
import re
from collections import namedtuple

from .chamber import _E10_GRAM, _chamber_phi, _e10_image
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
    _unit_vectors,
    load_model,
    pair,
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


def genus(C: DivClass) -> int:
    """Adjunction genus g = (C^2 + C.K)/2 + 1, with K the canonical class
    of C's model. Parity failure means the class cannot be a curve class
    and is an error."""
    s = pair(C, C) + pair(C, C.model.canonical_class)
    if s % 2 != 0:
        raise NonCurveClassError(f"C^2 + C.K = {s} is odd, not a curve class")
    if s < -2:
        raise NonCurveClassError(f"C^2 + C.K = {s} < -2, not a curve class")
    return s // 2 + 1


def chi(L: DivClass) -> int:
    """Euler characteristic chi(L) = chi(O) + L.(L - K)/2, with chi(O)
    and K those of L's model."""
    s = pair(L, L) - pair(L, L.model.canonical_class)
    if s % 2 != 0:
        raise NonCurveClassError(f"L.(L - K) = {s} is odd; chi undefined")
    return L.model.chi + s // 2


def _residual_parity(L2, s):
    """3 L^2 + M.L = 2 L2 + s for C = L + M, L^2 = L2 and L.C = s: the
    residual parity of mod4_condition and of the search's mod4 stage."""
    return 2 * L2 + s


def mod4_condition(L: DivClass, M: DivClass) -> bool:
    """Residual parity: 3 L^2 + M.L must be divisible by 4."""
    L2 = pair(L, L)
    return _residual_parity(L2, L2 + pair(M, L)) % 4 == 0


# ---------------------------------------------------------------------------
# phi invariant


class PhiResult(_Record, namedtuple(
        "PhiResult", "value witness certified certificate",
        defaults=(None,))):
    """phi: the value |F.L|, the isotropic witness class F, whether the
    value is certified minimal, and the chamber certificate of an E10
    result (None for a slice-walk or boxed result)."""

    __slots__ = ()


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
    the slice {F : F.L = t, F^2 = 0} (slice_points, set up once per
    call). The walk needs a lattice of signature (1, rank - 1) and raises
    ModelError otherwise. On such a lattice no nonzero isotropic class
    pairs to 0 with L. Where the walk stops depends on the model:
    - with K = 0 (the Enriques lattice and every configuration) at
      isqrt(L^2), since phi^2 <= L^2 there;
    - with K != 0 (sigma_n, blq, blcN), where that bound fails, at
      isqrt(L^2) and then, when nothing was found, at |F0.L|: F0 is the
      isotropic class among the basis vectors and the sums and
      differences of two of them that pairs least with L, and the slice
      at |F0.L| holds +-F0, so the walk always ends with a witness. A
      model with no such F0 stops at isqrt(L^2).

    sublattice mode returns the first non-empty slice. The slices below
    it are empty, so the result is certified, with no certificate to
    replay; its witness is the smallest class of that slice by
    coordinates, the only class it builds. Exhausting the walk raises
    PhiInvariantError: on a K = 0 model it violates phi^2 <= L^2, which
    signals a span too sparse to be a genuine isotropic configuration.

    boxed mode keeps, of each slice and its negative, the classes with
    coordinates in [-box, box] and returns the first t that keeps one,
    witnessed by the smallest such class by coordinates. That is the
    least |F.L| over the isotropic F in the box, never certified, since
    a class outside the box may pair lower. When no t up to the stop
    keeps a class it raises PhiBoundError. boxed mode without a box, and
    a box given in any other mode, raise ModelError.

    An L from another model raises ModelMismatchError.
    """
    _require_model(surface, L)
    e10 = surface.gram == _E10_GRAM
    # G L and L^2, reused by the walk's set-up
    image = _e10_image(L) if e10 else _gram_image(L)
    L2 = _check_i64(image[1], "pairing")
    if L2 <= 0:
        raise RangeError(f"phi needs L^2 > 0, got {L2}")
    if box is not None and mode != "boxed":
        raise ModelError(f"phi reads box only in boxed mode, not {mode!r}")
    if mode == "sublattice" and e10:
        value, F, cert = _chamber_phi(L)
        return PhiResult(value, F, True, cert)
    boxed = mode == "boxed"
    if boxed:
        if box is None:
            raise ModelError("boxed mode needs a box")
        if box < 1:
            raise ModelError("box_bound must be >= 1")
    elif mode != "sublattice":
        raise ModelError(f"unknown phi mode {mode!r}")

    cap = stop = math.isqrt(L2)
    points, _ = _slicer(L, image)
    t = 0
    while t < stop:
        t += 1
        witnesses = [F for F, _ in points(t, 0, 0)]
        if boxed:
            inside = [F for F in witnesses if max(map(abs, F)) <= box]
            witnesses = inside + [tuple(-x for x in F) for F in inside]
        if witnesses:
            return PhiResult(t, DivClass._walked(L.model, min(witnesses)),
                             not boxed)
        if t == cap and any(surface.canonical):
            # phi^2 <= L^2 fails off K = 0 (-K on sigma8: L^2 = 1, phi = 2)
            stop = _short_isotropic_pairing(surface.gram, image[0])
    if boxed:
        raise PhiBoundError(
            f"no isotropic class in box {box} pairs to at most "
            f"isqrt(L^2) = {cap} with L; a larger box may hold one"
        )
    raise PhiInvariantError(
        f"no isotropic class in the span pairs to at most isqrt(L^2) = {cap}; "
        "the configuration is too sparse to certify the invariant"
    )


def _short_isotropic_pairing(gram, image):
    """The least |F0.L| over the isotropic F0 among the basis vectors and
    the sums and differences of two of them, where image = G L; 0 when
    none of them is isotropic."""
    n = len(gram)
    values = [abs(image[i]) for i in range(n) if gram[i][i] == 0]
    values += [abs(image[i] + s * image[j])
               for i in range(n) for j in range(i + 1, n) for s in (1, -1)
               if gram[i][i] + gram[j][j] + 2 * s * gram[i][j] == 0]
    return min(values, default=0)


# ---------------------------------------------------------------------------
# quasi-nef grading


class QuasiNefResult(_Record, namedtuple(
        "QuasiNefResult", "status min_pairing witness notes",
        defaults=((),))):
    """status is nef, quasi_nef or violated; min_pairing and witness are
    the lowest pairing with the test pool and the class that gives it
    (None when nothing was tested, witness None for nef)."""

    __slots__ = ()


def quasi_nef_test(L: DivClass, nodal_set) -> QuasiNefResult:
    """Grade L against the supplied nodal classes plus the model's
    declared effective basis classes.

    The verdict is relative to this finite pool; nef here means no
    negative pairing was found, not cone membership.
    """
    L2 = pair(L, L)
    model = L.model
    pool = []
    for d in nodal_set:
        if pair(d, d) != -2:
            raise NodalClassError(
                f"nodal class {d.coords} has square {pair(d, d)}, expected -2"
            )
        pool.append(d)
    pool.extend(DivClass(model, x) for x in
                _unit_vectors(model.labels, model.effective_labels))

    notes = []
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
        _, mult = L.primitive_part()
        if mult >= 2:
            notes.append(
                f"L is {mult} times a primitive isotropic class; "
                "h1 may be nonzero in the classification"
            )
        else:
            notes.append("h1 expected zero by the classification")
    elif status in ("nef", "quasi_nef") and L2 > 0:
        notes.append("h1 expected zero by the classification")
    return QuasiNefResult(status, mp, witness, tuple(notes))
