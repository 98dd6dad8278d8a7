"""Exact arithmetic on integral lattices with labeled bases.

The lattice is the whole data model here: a symmetric integer gram matrix,
a labeled basis, a canonical class, chi and the sign tests of the
decomposition search. Divisor classes are integer coordinate vectors
against that basis. Models, classes and results are read-only named
tuples (_Record), and every public operation is a pure function, so
concurrent use needs no locking.

All arithmetic is exact. Results are guarded against leaving the signed
64-bit envelope; desk-scale inputs never get close, but the guard turns a
silent wrap in some future caller into a loud error.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from fractions import Fraction
from operator import index, mul

from .errors import (
    ModelError,
    ModelMismatchError,
    NodalClassError,
    OverflowGuardError,
)

I64_MAX = 2**63 - 1
_MAX_DIGITS = len(str(I64_MAX))  # a longer decimal lies outside the envelope


def _check_i64(value, what):
    if abs(value) > I64_MAX:
        raise OverflowGuardError(f"{what} {value} exceeds the 64-bit envelope")
    return value


# a basis label is an identifier of divisor expressions (divexpr's token)
_LABEL = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class _Record(tuple):
    """Base of divcalc's value types, each of which also derives from a
    collections.namedtuple base stating its fields and trailing defaults.
    A record is the tuple of its fields: the tuple builds it (a missing
    field, an unknown keyword, a field given twice or too many
    positionals raise TypeError), indexes, orders, hashes and reprs it,
    and copy, pickle and _replace rebuild it through __new__, which a
    type that validates its fields defines. Added here: a record equals
    only a record of its own type, never a plain tuple; its fields are
    read-only; _make goes through __new__; and to_json_dict.
    """

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    @classmethod
    def _make(cls, fields):
        """The record of fields; namedtuple's _make, which _replace
        calls, would skip a validating type's __new__."""
        return cls(*fields)

    def to_json_dict(self):
        """The fields by name as JSON values (_json_value); a type whose
        JSON is more than its fields writes its own."""
        return {f: _json_value(v) for f, v in zip(self._fields, self)}


def _json_value(v):
    """v as JSON: a DivClass as its coordinate list, another record as its
    to_json_dict(), a tuple or list as the list of its items' values."""
    if not isinstance(v, (tuple, list)):
        return v
    if isinstance(v, DivClass):
        return list(v.coords)
    if isinstance(v, _Record):
        return v.to_json_dict()
    return [_json_value(x) for x in v]


class LatticeModel(_Record, namedtuple(
        "LatticeModel", "name labels gram canonical chi effective_labels "
        "sign_tests")):
    """An integral lattice: labeled basis, gram matrix, distinguished classes.

    Every label is an identifier [A-Za-z][A-Za-z0-9]*, so a divisor
    expression can name it, other than K, which an expression reads as
    the canonical class. effective_labels lists the basis classes
    known to be effective divisors. sign_tests holds the coordinates of
    the classes t a decomposition piece L must meet with L.t >= 0; left
    out (None), they are the basis vectors of effective_labels. The gram
    rows, canonical and sign_tests rows are stored as tuples, so a model
    built from lists is the model built from tuples; any of them that is
    no sequence raises ModelError naming it, and their entries and chi
    must be ints (not bools) inside the 64-bit envelope.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, labels: tuple[str, ...],
        gram: tuple[tuple[int, ...], ...], canonical: tuple[int, ...],
        chi: int, effective_labels: tuple[str, ...] = (),
        sign_tests: tuple[tuple[int, ...], ...] | None = None,
    ):
        if not isinstance(name, str):
            raise ModelError(f"model name must be a string, got {name!r}")
        for what, labs in (("labels", labels),
                           ("effective_labels", effective_labels)):
            if not (isinstance(labs, tuple)
                    and all(isinstance(x, str) for x in labs)):
                raise ModelError(f"{what} must be a tuple of strings, "
                                 f"got {labs!r}")
        n = len(labels)
        if n == 0:
            raise ModelError("model needs at least one basis label")
        if len(set(labels)) != n:
            raise ModelError("duplicate basis labels")
        for lab in labels:
            if not _LABEL.fullmatch(lab):
                raise ModelError(f"basis label {lab!r} is not an identifier "
                                 f"{_LABEL.pattern}")
        if "K" in labels:
            raise ModelError("basis label 'K' is reserved: a divisor "
                             "expression reads K as the canonical class")
        gram = _model_rows(gram, "gram", n, n)
        if list(zip(*gram)) != list(gram):
            raise ModelError("gram must be symmetric")
        canonical = tuple(_model_int(v, "canonical entry")
                          for v in _model_seq(canonical, "canonical"))
        if len(canonical) != n:
            raise ModelError("canonical class has wrong length")
        chi = _model_int(chi, "chi")
        unknown = set(effective_labels) - set(labels)
        if unknown:
            raise ModelError(f"effective_labels not in basis: {sorted(unknown)}")
        if sign_tests is None:
            sign_tests = _unit_vectors(labels, effective_labels)
        else:
            sign_tests = _model_rows(sign_tests, "sign_tests", n)
        return tuple.__new__(cls, (name, labels, gram, canonical, chi,
                                   effective_labels, sign_tests))

    def __hash__(self):
        # equal models share these, whose strings cache their own hashes,
        # so a model is a cheap cache key (enumeration._sign_stage)
        return hash((self.name, self.labels))

    @property
    def rank(self):
        return len(self.labels)

    @property
    def model(self):
        """The model itself, as DivClass.model names a class's lattice.
        Nothing in divcalc or its tests reads it; the benchmark's worker
        (perfbench/worker.py) builds its phi class through it."""
        return self

    def klass(self, coords):
        """Build a DivClass from integer coordinates: ints, or values with
        __index__ such as numpy integers. Others raise ModelError."""
        try:
            coords = tuple(map(index, coords))
        except TypeError as exc:
            raise ModelError(f"class coordinates must be integers: {exc}"
                             ) from exc
        return DivClass(self, coords)

    @property
    def canonical_class(self):
        return DivClass(self, self.canonical)

    def to_json_dict(self):
        d = {
            "name": self.name,
            "basis": list(self.labels),
            "gram": [list(r) for r in self.gram],
            "canonical": list(self.canonical),
            "chi": self.chi,
        }
        if self.effective_labels:
            d["effective"] = list(self.effective_labels)
        if self.sign_tests != _unit_vectors(self.labels, self.effective_labels):
            d["sign_tests"] = [list(t) for t in self.sign_tests]
        return d


def _unit_vectors(labels, chosen):
    """The basis vectors of the labels in chosen, in that order."""
    return tuple(tuple(int(lab == c) for lab in labels) for c in chosen)


def _model_int(v, what):
    """v when it is an int, not a bool, inside the 64-bit envelope."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ModelError(f"{what} must be an integer, got {v!r}")
    return _check_i64(v, what)


def _model_rows(rows, what, n, count=None):
    """rows as a tuple of int tuples, count of them (any number when
    None) of length n each; ModelError naming what otherwise."""
    rows = tuple(_model_seq(r, f"{what} row") for r in _model_seq(rows, what))
    count = len(rows) if count is None else count
    if len(rows) != count or any(len(r) != n for r in rows):
        raise ModelError(f"{what} must be {count}x{n}")
    return tuple(tuple(_model_int(v, f"{what} entry") for v in r) for r in rows)


def _model_seq(v, what):
    """The items of v as a tuple; ModelError naming the field when v is
    not iterable."""
    try:
        return tuple(v)
    except TypeError:
        raise ModelError(f"{what} must be a sequence, got {v!r}") from None


def _json_list(v):
    """The items of a JSON list as a tuple, for a field that a string
    would pass as a sequence: "HG" is not two labels, nor "" no sign
    tests."""
    if isinstance(v, list):
        return tuple(v)
    raise TypeError(f"expected a list, got {v!r}")


def _json_object(d, what):
    """Refuse a document that is not a JSON object, naming its type."""
    if not isinstance(d, dict):
        raise ModelError(f"a {what} document is a JSON object, "
                         f"got {type(d).__name__}")


def model_from_json_dict(d, name=None):
    """The model of a lattice document. LatticeModel checks its values,
    so a refusal, "bad lattice definition: ...", names the field; an
    integer beyond the 64-bit envelope raises OverflowGuardError. Keys
    it does not read, such as the ample class that earlier versions
    wrote, are ignored."""
    try:
        _json_object(d, "lattice")
        if "kind" in d:  # it chose the sign test, so it is not ignored
            raise ModelError("'kind' is no longer read; state the sign "
                             "test as 'sign_tests'")
        tests = d.get("sign_tests")
        return LatticeModel(
            name=name or d.get("name", "unnamed"),
            labels=_json_list(d["basis"]),
            gram=d["gram"],
            canonical=d["canonical"],
            chi=d["chi"],
            effective_labels=_json_list(d.get("effective", [])),
            sign_tests=None if tests is None else _json_list(tests),
        )
    except (AttributeError, KeyError, TypeError, ValueError,
            ModelError) as exc:
        raise ModelError(f"bad lattice definition: {exc}") from exc


def _read_json(path):
    """The document of a UTF-8 JSON file; ModelError naming the path
    when the file does not decode or parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelError(f"{path}: not valid JSON ({exc})") from exc


def load_model(path):
    return model_from_json_dict(_read_json(path))


_INT_ONLY = frozenset((int,))  # the type of a coordinate; bool is not int


class DivClass(_Record, namedtuple("DivClass", "model coords")):
    """An integer divisor class in a fixed LatticeModel.

    Every coordinate must be an int (a bool, a float or a numpy integer
    raises ModelError; klass converts values with __index__) and is
    checked against the 64-bit envelope on construction, so arithmetic
    results need no guard of their own. A class is a record like any
    other: it equals a class whose model and coordinates are equal, and
    hashes as the tuple of its fields. Classes combine under the same
    rule (_require_model), so classes of separately built copies of one
    model compare equal and work together.
    """

    __slots__ = ()

    def __new__(cls, model: LatticeModel, coords: tuple[int, ...]):
        if len(coords) != len(model.labels):
            raise ModelError("coordinate length does not match model rank")
        if not _INT_ONLY.issuperset(map(type, coords)):
            raise ModelError(f"class coordinates must be ints, got {coords!r}")
        if max(coords) > I64_MAX or min(coords) < -I64_MAX:
            for c in coords:
                _check_i64(c, "coordinate")
        return tuple.__new__(cls, (model, coords))

    @staticmethod
    def _walked(model, coords):
        """The class of coordinates that a walk made (_slicer's points),
        ints inside the envelope that points checks once per window, with
        no check repeated. Every other class goes through __new__."""
        return tuple.__new__(DivClass, (model, coords))

    def __add__(self, other):
        _require_model(self.model, other)
        return DivClass(
            self.model,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other):
        _require_model(self.model, other)
        return DivClass(
            self.model,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self):
        return DivClass(self.model, tuple(-a for a in self.coords))

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return DivClass(self.model, tuple(n * a for a in self.coords))

    __mul__ = __rmul__

    def primitive_part(self):
        """The class divided by the gcd of its coordinates, and that gcd.

        Returns (primitive, g) with self = g * primitive; the zero class
        returns (self, 0). Sign convention: the first nonzero coordinate of
        the primitive part is positive.
        """
        g = 0
        for c in self.coords:
            g = math.gcd(g, abs(c))
        if g == 0:
            return self, 0
        prim = tuple(c // g for c in self.coords)
        first = next(c for c in prim if c != 0)
        sign = 1
        if first < 0:
            prim = tuple(-c for c in prim)
            sign = -1
        return DivClass(self.model, prim), sign * g


def _require_class(D):
    """Raise TypeError unless D is a DivClass: an int, a tuple or a
    model given as a class is refused before anything reads it."""
    if type(D) is not DivClass:
        raise TypeError(f"expected a DivClass, got {type(D).__name__}")


def _require_model(model: LatticeModel, D: DivClass):
    """Raise TypeError unless D is a DivClass (_require_class), and
    ModelMismatchError unless D's model is model or equals it, as a
    separately built copy does; a model that shares model's name but
    differs in any field is another model, and the error names the
    fields that differ."""
    _require_class(D)
    other = D.model
    if other is model or other == model:
        return
    if model.name != other.name:
        detail = f"{model.name} vs {other.name}"
    else:
        fields = [f for f, a, b in zip(model._fields, model, other) if a != b]
        detail = (f"two models named {model.name} with different "
                  f"{', '.join(fields)}")
    raise ModelMismatchError(f"classes live in different models ({detail})")


def pair(a: DivClass, b: DivClass) -> int:
    """Intersection pairing a . b, exact."""
    _require_class(a)
    _require_model(a.model, b)
    y = b.coords
    total = sum(map(mul, a.coords, [sum(map(mul, row, y))
                                    for row in a.model.gram]))
    return _check_i64(total, "pairing")


def reflect_nodal(L: DivClass, delta: DivClass) -> DivClass:
    """Reflection of L in the wall of a nodal class (square -2).

    Returns L + (L.delta) * delta, the lattice reflection. Preserves all
    squares and is an involution.
    """
    if pair(delta, delta) != -2:
        raise NodalClassError(
            f"reflection class must have square -2, got {pair(delta, delta)}"
        )
    return L + pair(L, delta) * delta


# ---------------------------------------------------------------------------
# fraction-free symmetric elimination: signature, determinant, LDL


def _eliminate(A):
    """Fraction-free congruence elimination (Bareiss, Math. Comp. 22,
    1968) of a symmetric integer matrix A on its upper triangle: (r, c),
    c >= r, takes its multiplier from (i, r). Returns (e, V, den, ok):
    the pivots; per pivot of row i, row i with its first i + 1 entries
    zeroed; each pivot times the one before (1 first); and, for _ldl,
    whether e are the leading principal minors, none skipped or
    repaired, all positive but the last. The open block is the last
    pivot d_S times the Schur complement of the pivots S taken: its
    entries are minors, each division is exact (Sylvester's identity),
    and the sign of a pivot over the one before adds to the inertia. A
    zero row is null and is skipped; a zero pivot with a live a_ij is
    repaired by the unimodular e_i -> e_i + s e_j: row i += s row j,
    reading (j, c) for c >= j and (c, j) for c < j; the pivot
    2 s a_ij + a_jj is nonzero for s = 1 or -1. With no row skipped, the
    last pivot is the determinant.

    A is a list of lists that the caller owns and hands over: the
    elimination works on it in place, and the rows of V are A's rows.
    Step i reads only rows i and later, at or right of their diagonal,
    so no entry of the lower triangle is read, and zeroing row i's head
    after its step disturbs nothing still to come.
    """
    n = len(A)
    e, V, den = [], [], []
    prev, ok = 1, True
    for i in range(n):
        Ai = A[i]
        d = Ai[i]
        ok = ok and (d > 0 or d < 0 and i == n - 1)
        if d == 0:
            j = next((j for j in range(i + 1, n) if Ai[j]), None)
            if j is None:
                continue
            Aj = A[j]
            s = 1 if 2 * Ai[j] + Aj[j] else -1
            d = 2 * s * Ai[j] + Aj[j]
            for c in range(i + 1, n):
                Ai[c] += s * (Aj[c] if c >= j else A[c][j])
        e.append(d)
        den.append(prev * d)
        for r in range(i + 1, n):
            Ar, a = A[r], Ai[r]
            for c in range(r, n):
                Ar[c] = (d * Ar[c] - a * Ai[c]) // prev
        prev = d
        Ai[:i + 1] = [0] * (i + 1)
        V.append(Ai)
    return e, V, den, ok


def _symmetric(Q, what):
    """A copy of Q as a list of lists, for _eliminate to work on in
    place, or ModelError unless Q is square and symmetric."""
    if list(zip(*Q)) != list(map(tuple, Q)):
        raise ModelError(f"{what} needs a symmetric form")
    return [list(row) for row in Q]


def signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix."""
    e = _eliminate(_symmetric(gram, "signature"))[0]
    pos = sum((p > 0) == (q > 0) for p, q in zip([1] + e, e))
    return pos, len(e) - pos, len(gram) - len(e)


def determinant(gram) -> int:
    """Determinant of a symmetric integer matrix."""
    e = _eliminate(_symmetric(gram, "determinant"))[0]
    return 0 if len(e) < len(gram) else e[-1] if e else 1


# ---------------------------------------------------------------------------
# Hodge-index filter


class HodgeResult(_Record, namedtuple(
        "HodgeResult", "outcome lhs rhs lam note", defaults=(None, ""))):
    """outcome is pass, equality_case, fail or fail_by_integrality; lhs is
    (L.C)^2 and rhs is L^2 C^2; lam is the Fraction (L.C)/L^2 when they
    are equal, else None."""

    __slots__ = ()

    @property
    def keeps(self):
        return self.outcome in ("pass", "equality_case")


def hodge_filter(L: DivClass, C: DivClass) -> HodgeResult:
    """Test (L.C)^2 >= L^2 C^2 and settle equality by exact proportionality.

    The Hodge index theorem (Hartshorne, Algebraic Geometry, Thm V.1.9)
    on two classes with L^2 > 0 and C^2 > 0, else ModelError. On a
    nondegenerate signature-(1, k) lattice it always keeps, and equality
    forces C = lambda L with lambda = (L.C)/L^2, so the fail and
    fail_by_integrality outcomes need other forms. The decomposition
    search does not call it.
    """
    l2, c2, lc = pair(L, L), pair(C, C), pair(L, C)
    if l2 <= 0 or c2 <= 0:
        raise ModelError("hodge comparison needs L^2 > 0 and C^2 > 0")
    lhs, rhs = lc * lc, l2 * c2
    if lhs != rhs:
        return HodgeResult("pass" if lhs > rhs else "fail", lhs, rhs)
    lam = Fraction(lc, l2)
    if all(lam * a == c for a, c in zip(L.coords, C.coords)):
        return HodgeResult(
            "equality_case", lhs, rhs, lam,
            note=f"equality with integral proportionality C = {lam} L",
        )
    return HodgeResult(
        "fail_by_integrality", lhs, rhs, lam,
        note=f"equality holds but C = {lam} L has no integral solution",
    )


# ---------------------------------------------------------------------------
# lattice points in definite ellipsoids: the slices {x : x.C = s, x^2 = q}
# behind the decomposition search and certified phi


def _ldl(Q):
    """(W, e, V, B) with B Q(x) = sum_i W[i] (e[i] x_i + V[i].x)^2, B > 0
    and W[i] = B / (d_{i-1} d_i), d_i = e[i], d_{-1} = 1, from _eliminate;
    None unless its ok holds (no row skipped or repaired, e[:-1] > 0).
    Q is a list of lists that the caller hands over: _eliminate works on
    it in place, and its rows become V."""
    e, V, den, ok = _eliminate(Q)
    if not ok:
        return None
    B = math.lcm(*den)
    return [B // x for x in den], e, V, B


def _walker(W, e, V, rows):
    """The integer Fincke-Pohst walk of one form, set up once:
    walk(tail, lo, hi) lists, unordered, the pairs (x, left) of every
    integer z = (y, tail) with lo <= sum_i W[i] u_i^2 <= hi, where
    u_i = e[i] y_i + sum_j V[i][j] z_j over the m = len(W) free
    coordinates y (W, e > 0; V[i][j] = 0 for j <= i), x = P z are its
    coordinates, for the matrix P with these rows, and
    left = hi - sum_i W[i] u_i^2 is the budget its levels did not use.

    Fincke and Pohst, Math. Comp. 44 (1985); Cohen, GTM 138, section
    2.7. Level i, from the last free coordinate down, has the budget
    rest that the levels above it left and scans exactly the y_i with
    |u_i| <= isqrt(rest // W[i]), a range found by floor division.
    Level 0 also keeps the lower bound, as W[0] u_0^2 >= rest - (hi - lo),
    and computes each point's coordinates there, so no z tuple is built.

    The recursion and its scratch state (z, the list being filled and
    the width hi - lo) are built once per form and reused by every call,
    so a walk is not reentrant and is never shared across threads: each
    call of a public function builds its own.
    """
    m = len(W)
    z = [0] * m
    out, width = [], 0
    e0, W0 = (e[0], W[0]) if m else (0, 0)

    def descend(i, rest):
        b = sum(map(mul, V[i], z))
        top = math.isqrt(rest // W[i])
        if i:
            ei, Wi = e[i], W[i]
            for yi in range(-((b + top) // ei), (top - b) // ei + 1):
                u = ei * yi + b
                z[i] = yi
                descend(i - 1, rest - Wi * u * u)
            return
        need = rest - width
        low = math.isqrt((need - 1) // W0) + 1 if need > 0 else 0
        for ulo, uhi in ((-top, -low), (low, top)) if low else ((-top, top),):
            for y0 in range(-((b - ulo) // e0), (uhi - b) // e0 + 1):
                z[0] = y0
                u = e0 * y0 + b
                out.append((tuple([sum(map(mul, row, z)) for row in rows]),
                            rest - W0 * u * u))

    def walk(tail, lo, hi):
        nonlocal out, width
        if hi < 0:
            return []
        z[m:] = tail
        if m == 0:
            x = tuple([sum(map(mul, row, z)) for row in rows])
            return [(x, hi)] if lo <= 0 else []
        out, width = [], hi - lo
        descend(m - 1, hi)
        return out

    return walk


def vectors_of_norm(Q, N: int):
    """All integer x with x^T Q x = N for positive definite integer Q.

    The exact-norm call of the integer walk with no fixed coordinate,
    sorted. Includes both x and -x; N = 0 yields only the zero vector,
    which is returned (callers filter); the 0 x 0 form has only the
    empty vector, of norm 0. A Q that is not square and symmetric raises
    ModelError.
    """
    ldl = _ldl(_symmetric(Q, "vectors_of_norm"))
    if ldl is None or ldl[0] and ldl[0][-1] <= 0:
        raise ModelError("vectors_of_norm needs a positive definite form")
    W, e, V, B = ldl
    n = len(W)
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    return sorted(x for x, _ in _walker(W, e, V, identity)((), B * N, B * N))


def _kernel_basis(w, gram):
    """A basis P = (kernel | p) of Z^r whose first r - 1 columns span
    {x : w.x = 0} for a nonzero integer vector w and whose last column p
    has w.p = g = +-gcd(w), with minus the gram in it, as
    (rows of P, g, -P^T G P); the two matrices are lists of lists that
    the caller owns.

    Unimodular column operations on the identity reduce w to one nonzero
    entry g; the columns then form a basis of Z^r in which the other
    columns span the kernel. Each operation is also applied to -G as a
    congruence, so -P^T G P needs no matrix product. The congruence
    is sparse: column q -= f column p changes an entry of P only where
    column p is nonzero, and on the form, row q -= f row p changes row q
    only where row p is nonzero; the column operation that follows
    changes column q at those rows and at q, and since the result is
    symmetric again, it is row q mirrored. No factor f is 0, since p has
    the least |w| of the live entries. The pivot column is then moved
    last, in P and on both sides of the form, the kernel columns keeping
    their order.
    """
    w = list(w)
    r = len(w)
    P = [[0] * r for _ in range(r)]
    for i, row in enumerate(P):
        row[i] = 1
    M = [[-v for v in row] for row in gram]
    live = [j for j in range(r) if w[j]]
    while len(live) > 1:
        p = min(live, key=lambda j: abs(w[j]))
        wp, Mp = w[p], M[p]
        basis = [(row, row[p]) for row in P if row[p]]
        for q in live:
            if q != p:  # column q -= f column p, on w, P and M
                f = w[q] // wp
                w[q] -= f * wp
                Mq = M[q]
                for row, a in basis:
                    row[q] -= f * a
                rows = [j for j, a in enumerate(Mp) if a]
                for j in rows:
                    Mq[j] -= f * Mp[j]
                Mq[q] -= f * Mq[p]
                for i in rows:
                    M[i][q] = Mq[i]
        live = [j for j in live if w[j]]
    p = live[0]
    M.append(M.pop(p))
    for row in P + M:
        row.append(row.pop(p))
    return P, w[p], M


def _gram_image(C: DivClass):
    """(G C, C^2) for the gram G of C's model: the products of pair(C, C),
    with no envelope check."""
    w = [sum(map(mul, row, C.coords)) for row in C.model.gram]
    return w, sum(map(mul, w, C.coords))


def _slicer(C: DivClass, image=None):
    """The per-curve set-up of slice_points, done once: (points, C^2),
    where points(s, qlo, qhi) lists, unordered, the pairs (x, x^2) of
    the coordinates x of slice_points(C, s, qlo, qhi), checked against
    the 64-bit envelope once per window. x^2 costs no product: the walk
    (_walker, built here once) returns each point with the budget left
    that its levels did not use, and B x^2 = left - hi - shift =
    left + B qlo for the walked upper bound hi = -B qlo - shift.
    image is _gram_image(C) when the caller has it already.

    Raises ModelError up front when the slices of C can be infinite.
    """
    model = C.model
    gram = model.gram
    w, c2 = image or _gram_image(C)
    if c2 <= 0:
        raise ModelError(f"slice enumeration needs C^2 > 0, got C^2 = {c2}")
    P, g, M = _kernel_basis(w, gram)
    ldl = _ldl(M)
    if ldl is None:
        raise ModelError(
            "slice enumeration needs a hyperbolic lattice; the complement "
            f"of {list(C.coords)} is not negative definite here"
        )
    W, e, V, B = ldl
    Wt = W.pop() * e[-1] ** 2  # the weight of t^2, negative
    walk = _walker(W, e, V, P)
    even = not any([row[i] % 2 for i, row in enumerate(gram)])

    def points(s, qlo, qhi):
        if even:  # x^2 is even, so only the even values of the window count
            qlo, qhi = qlo + qlo % 2, qhi - qhi % 2
        if s % g or qlo > qhi:
            return []
        t = s // g
        shift = Wt * t * t
        found = walk((t,), -B * qhi - shift, -B * qlo - shift)
        if not found:
            return found
        xs = [x for x, _ in found]
        if min(map(min, xs)) < -I64_MAX or max(map(max, xs)) > I64_MAX:
            for x, _ in found:
                DivClass(model, x)  # raises, naming the coordinate
        return [(x, qlo + left // B) for x, left in found]

    return points, c2


def slice_points(C: DivClass, s: int, qlo: int, qhi: int) -> list[DivClass]:
    """Every class x with x.C = s and qlo <= x^2 <= qhi, sorted by coordinates.

    Write x = K y + t p, where the columns of K are an integral basis of
    the complement of C and p.C = g = +-gcd(G C), so that P = (K | p) is
    a basis of Z^r and x.C = g t. The slice is empty unless g divides s,
    and then t = s/g is fixed. The LDL of M = -P^T G P with t last writes
    -x^2 = M(y, t) as positive squares over the levels of y, each offset
    by a multiple of t, plus D_t t^2 = -s^2/C^2: the squares add up to
    Q(y - c) for Q = -K^T G K and the c with K c + t p = (s/C^2) C. So
    the slice is the shell s^2/C^2 - qhi <= Q(y - c) <= s^2/C^2 - qlo.
    It is finite when Q is positive definite, that is when C^2 > 0 on a
    nondegenerate lattice of signature (1, rank - 1); anything else
    raises ModelError, since the slice can then be infinite.

    The shell is walked with integers only (_walker, the Fincke-Pohst
    enumeration; Cohen, GTM 138, section 2.7), on a kernel basis and an
    LDL with cleared denominators that _slicer sets up once per curve,
    the kernel reduction giving M by congruence (_kernel_basis). The walk
    builds each point's coordinates at its last level and hands them out
    unordered; slice_points sorts them.
    On an even lattice, where every diagonal gram entry is even and so
    x^2 is even, the window is first rounded inward to even values, and
    a window with no even value is empty without a walk.
    """
    _require_class(C)
    points, _ = _slicer(C)
    walked, model = DivClass._walked, C.model
    return [walked(model, x) for x, _ in sorted(points(s, qlo, qhi))]


# ---------------------------------------------------------------------------
# isotropic vector search


def _roots_in_box(g, h, N, b):
    """Every integer v in [-b, b] with g v^2 + 2 h v + N = 0."""
    if g == 0:
        if h == 0:
            return range(-b, b + 1) if N == 0 else ()
        v, r = divmod(-N, 2 * h)
        return (v,) if r == 0 and -b <= v <= b else ()
    disc = h * h - g * N
    if disc < 0:
        return ()
    s = math.isqrt(disc)
    if s * s != disc:
        return ()
    roots = []
    for num in ((-h - s, -h + s) if s else (-h,)):
        v, r = divmod(num, g)
        if r == 0 and -b <= v <= b:
            roots.append(v)
    return roots


def isotropic_search(model: LatticeModel, target: DivClass, box_bound: int):
    """All nonzero F with coordinates in [-box, box] and F^2 = 0, as
    (F, |F.target|) pairs sorted by value then lexicographic coordinates.

    A depth-first walk fixes the coordinates in basis order. At depth i it
    carries the norm N of the fixed prefix x_0..x_{i-1} and the partial
    forms h_j = sum_{k<i} g_jk x_k of the open coordinates j >= i, so that
        F^2 = N + 2 sum_{j>=i} h_j x_j + Q_i(x_i, ..., x_{n-1}),
    with Q_i the form of the suffix subgram. The last coordinate is not
    scanned: at its own level g v^2 + 2 h v + N = 0 is solved exactly
    (linear when g = 0, every v when g = h = N = 0, otherwise the integer
    roots of a perfect-square discriminant), keeping the roots inside the
    box.

    Pruning is sound, so the result is the full box scan: in the box the
    middle term lies within 2 b sum_{j>=i} |h_j| of 0, and Q_i lies in
    [qmin_i, qmax_i], where qmax_i is b^2 times the positive diagonal of
    the suffix plus b^2 times the sum of its off-diagonal |g_jk|, qmin_i
    likewise with the negative diagonal, and qmin_i = 0 (qmax_i = 0) when
    the suffix subgram is positive (negative) semidefinite by signature.
    A node whose interval for F^2 misses 0 has no isotropic completion.

    The walk collects coordinate tuples. Each hit is valued by one row
    vector G target, as pair would value it, and only the sorted hits
    become DivClasses. A target of another model raises
    ModelMismatchError. OverflowGuardError is raised up front when
    b^2 sum |g_ij|, a bound on |F^2| over the box, leaves the 64-bit
    envelope, and for a value |F.target| that leaves it.
    """
    if box_bound < 1:
        raise ModelError("box_bound must be >= 1")
    b = box_bound
    n = model.rank
    gram = model.gram
    _check_i64(b * b * sum(abs(v) for row in gram for v in row),
               "box norm bound")
    _require_model(model, target)
    w = [sum(map(mul, row, target.coords)) for row in gram]

    qmin, qmax = [0] * n, [0] * n
    for i in range(n):
        sub = [row[i:] for row in gram[i:]]
        diag = [sub[j][j] for j in range(n - i)]
        off = sum(abs(v) for row in sub for v in row) - sum(map(abs, diag))
        pos, neg, _ = signature(sub)
        qmin[i] = 0 if neg == 0 else b * b * (sum(d for d in diag if d < 0) - off)
        qmax[i] = 0 if pos == 0 else b * b * (sum(d for d in diag if d > 0) + off)

    last = n - 1
    found = []
    x = [0] * n

    def walk(i, N, h):
        # h[j - i] is h_j for the open coordinates j >= i; x[:i] is the
        # current prefix (entries from i on are stale until set)
        gii = gram[i][i]
        if i == last:
            for v in _roots_in_box(gii, h[0], N, b):
                x[i] = v
                found.append(tuple(x))
            return
        spread = 2 * b * sum(map(abs, h))
        if N + spread + qmax[i] < 0 or N - spread + qmin[i] > 0:
            return
        two_h, rest, tail = 2 * h[0], h[1:], gram[i][i + 1:]
        for v in range(-b, b + 1):
            x[i] = v
            walk(i + 1, N + v * (two_h + gii * v),
                 [hj + g * v for hj, g in zip(rest, tail)])

    walk(0, 0, [0] * n)
    valued = sorted(
        (abs(_check_i64(sum(map(mul, w, F)), "pairing")), F)
        for F in found if any(F)
    )
    return [(DivClass(model, F), v) for v, F in valued]
