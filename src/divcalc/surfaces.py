"""Named surface geometries and the numerics that depend on them.

A surface here is a LatticeModel whose kind names its family: the
Enriques lattice (U perp E8(-1)), plane blow-ups sigma1..sigma9 with gram
diag(1, -1, ..), and two ruled models ("blq" with a -2 section, "blc6"
and friends with a -n section). An isotropic configuration is a model of
kind "config": a small sublattice spanned by labeled isotropic classes
with a supplied nonnegative pairing table, zero canonical class and
chi(O) = 1; the structure lemmas work entirely inside these.

On top of the models: adjunction genus, Riemann-Roch chi, the residual
parity test, the minimal-pencil-degree invariant phi (certified by slice
enumeration on hyperbolic lattices, box-bounded on request), the
quasi-nef grading against finite nodal sets, and scroll invariants of
tetragonal curves.
"""

from __future__ import annotations

import functools
import math
import os
import re

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
    _json_int,
    _json_strs,
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


def enriques() -> LatticeModel:
    """The full rank-10 even unimodular lattice, hyperbolic plane plus
    E8 negated. Canonical class is numerically trivial; no basis class is
    declared effective (positivity tests use caller-supplied classes)."""
    labels = ("U1", "U2") + tuple(f"R{i}" for i in range(1, 9))
    gram = [[0] * 10 for _ in range(10)]
    gram[0][1] = gram[1][0] = 1
    for i in range(8):
        for j in range(8):
            gram[2 + i][2 + j] = -_E8[i][j]
    return LatticeModel(
        name="enriques",
        labels=labels,
        gram=tuple(tuple(r) for r in gram),
        canonical=(0,) * 10,
        chi=1,
        ample_ref=(1, 1) + (0,) * 8,
        kind="enriques",
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
    # anticanonical is ample through n = 8; at n = 9 its square is 0, so
    # fall back to 4H - sum Gi (square 7, positive on every Gi and H)
    amp = (3,) + (-1,) * n if n <= 8 else (4,) + (-1,) * n
    return LatticeModel(
        name=f"sigma{n}",
        labels=labels,
        gram=gram,
        canonical=(-3,) + (1,) * n,
        chi=1,
        ample_ref=amp,
        kind="sigma",
        effective_labels=labels,
    )


def blq() -> LatticeModel:
    """Ruled model with a section of square -2 (even intersection form)."""
    return LatticeModel(
        name="blq",
        labels=("C0", "f"),
        gram=((-2, 1), (1, 0)),
        canonical=(-2, -4),
        chi=1,
        ample_ref=(1, 3),
        kind="ruled",
        effective_labels=("C0", "f"),
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
        ample_ref=(1, n + 1),
        kind="blcn",
        effective_labels=("C0", "f"),
    )


_BUILTIN_NAMES = ["enriques", "blq", "blc6"] + [f"sigma{i}" for i in range(1, 10)]


def list_surfaces():
    return list(_BUILTIN_NAMES)


@functools.cache
def _builtin(name: str) -> LatticeModel:
    """The model of one of _BUILTIN_NAMES, built on the first call."""
    if name == "enriques":
        return enriques()
    if name == "blq":
        return blq()
    if name == "blc6":
        return blcn(6)
    return sigma(int(name[len("sigma"):]))


def get_surface(name: str) -> LatticeModel:
    """Resolve a surface by builtin name, file path, or DIVCALC_SURFACE_PATH.

    Each builtin name is built once per process and the same read-only
    model is returned afterwards. Every other name (blcN beyond blc6, a
    file path, a DIVCALC_SURFACE_PATH entry) is built, or read from disk,
    on every call, as are the models of enriques(), sigma(n), blq() and
    blcn(n). An index of more digits than the 64-bit envelope allows
    raises OverflowGuardError before it is read.
    """
    if name in _BUILTIN_NAMES:
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
        f"unknown surface {name!r}; builtins are {', '.join(_BUILTIN_NAMES)}"
    )


# ---------------------------------------------------------------------------
# isotropic configurations


def config_from_json_dict(doc, name="config") -> LatticeModel:
    """The model of a configuration document: "labels", and "pairs"
    entries [i, j, value] with i != j giving the pairing of classes i and
    j, value >= 0 (the classes play the role of effective isotropic
    decomposition pieces). Every other pairing, the diagonal included,
    is 0."""
    try:
        labels = _json_strs(doc["labels"])
        n = len(labels)
        gram = [[0] * n for _ in range(n)]
        for entry in doc["pairs"]:
            i, j, v = (_json_int(x) for x in entry)
            if not (0 <= i < n and 0 <= j < n) or i == j or v < 0:
                raise ModelError(f"bad pair entry {entry}")
            gram[i][j] = gram[j][i] = v
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"bad config definition: {exc}") from exc
    return LatticeModel(
        name=name,
        labels=labels,
        gram=tuple(tuple(r) for r in gram),
        canonical=(0,) * n,
        chi=1,
        ample_ref=None,
        kind="config",
        effective_labels=labels,
    )


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


class PhiResult(_Record):
    """phi: the value |F.L|, the isotropic witness class F, whether the
    value is certified minimal, and string notes."""

    __slots__ = ("value", "witness", "certified", "notes")
    _defaults = {"notes": ()}

    def to_json_dict(self):
        return {
            "value": self.value,
            "witness": list(self.witness.coords),
            "certified": self.certified,
            "notes": list(self.notes),
        }


def phi(
    surface: LatticeModel, L: DivClass, mode: str = "sublattice",
    box: int | None = None,
) -> PhiResult:
    """Minimal |F.L| over nonzero isotropic classes F.

    Both modes walk, for t = 1, 2, ..., isqrt(L^2), the slice
    {F : F.L = t, F^2 = 0} (slice_points, set up once per call). The walk
    needs L^2 > 0 on a lattice of signature (1, rank - 1) and raises
    ModelError otherwise. On such a lattice no nonzero isotropic class
    pairs to 0 with L.

    sublattice mode returns the first non-empty slice. The slices below
    it are empty, so the result is certified; its witness is the
    smallest class of that slice by coordinates, the only class it
    builds. Exhausting the walk violates phi^2 <= L^2 and raises
    PhiInvariantError, which signals a span too sparse to be a genuine
    isotropic configuration.

    boxed mode keeps, of each slice and its negative, the classes with
    coordinates in [-box, box] (box 2 at rank >= 8, else 6, by default)
    and returns the first t that keeps one, witnessed by the smallest
    such class by coordinates. That is the least |F.L| over the
    isotropic F in the box, never certified, since a class outside the
    box may pair lower. When no t up to isqrt(L^2) keeps a class it
    raises PhiBoundError.

    An L from another model raises ModelMismatchError.
    """
    _require_model(surface, L)
    L2 = pair(L, L)
    if L2 <= 0:
        raise RangeError(f"phi needs L^2 > 0, got {L2}")
    boxed = mode == "boxed"
    if boxed:
        b = box if box is not None else (2 if surface.rank >= 8 else 6)
        if b < 1:
            raise ModelError("box_bound must be >= 1")
    elif mode != "sublattice":
        raise ModelError(f"unknown phi mode {mode!r}")

    cap = math.isqrt(L2)
    points = _slicer(L)
    for t in range(1, cap + 1):
        witnesses = points(t, 0, 0)
        if boxed:
            inside = [F for F in witnesses if max(map(abs, F)) <= b]
            witnesses = sorted(inside + [tuple(-x for x in F) for F in inside])
        if witnesses:
            return PhiResult(t, DivClass(L.model, witnesses[0]), not boxed)
    if boxed:
        raise PhiBoundError(
            f"no isotropic class in box {b} pairs to at most "
            f"isqrt(L^2) = {cap} with L; a larger box may hold one"
        )
    raise PhiInvariantError(
        f"no isotropic class in the span pairs to at most isqrt(L^2) = {cap}; "
        "the configuration is too sparse to certify the invariant"
    )


# ---------------------------------------------------------------------------
# quasi-nef grading


class QuasiNefResult(_Record):
    """status is nef, quasi_nef or violated; min_pairing and witness are
    the lowest pairing with the test pool and the class that gives it
    (None when nothing was tested, witness None for nef)."""

    __slots__ = ("status", "min_pairing", "witness", "notes")
    _defaults = {"notes": ()}

    def to_json_dict(self):
        return {
            "status": self.status,
            "min_pairing": self.min_pairing,
            "witness": list(self.witness.coords) if self.witness else None,
            "notes": list(self.notes),
        }


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


class ScrollInvariants(_Record):
    __slots__ = ("g", "b1", "b2", "degV", "degY", "pa_hyperplane",
                 "n2_holds")

    to_json_dict = _Record._field_dict


def scroll_invariants(g: int, b1: int) -> ScrollInvariants:
    """Invariants of the scroll swept by a pencil of degree 4 on a curve
    of genus g, splitting type (b1, b2) with b1 + b2 = g - 5.

    degY >= 2 pa + 3 (the quadratic-normality threshold) simplifies to
    b1 >= 1, which is asserted as an equivalence in tests.
    """
    if g < 6:
        raise RangeError("scroll invariants need g >= 6")
    b2 = g - 5 - b1
    if not (b1 >= b2 >= 0):
        raise RangeError(
            f"need b1 >= b2 >= 0; got b1 = {b1}, b2 = {b2} at g = {g}"
        )
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
