"""Constrained decomposition searches over divisor lattices.

The central search: given a curve class C and a subscheme length k, find
every splitting C = L + M whose numeric invariants could carry a complete
base-point free pencil of degree k on a general curve in |C|. The filters
are the decomposition constraints (pairing bounds, residual degree, sign
conditions, the mod-4 residual parity where it applies). The Hodge index
inequality (L.C)^2 >= L^2 C^2 is no filter: it holds for every candidate
on the hyperbolic lattices the search accepts, and a survivor that meets
it with equality, C a multiple of L, carries a note. Survivors the source
analysis goes on to kill by geometry are kept and flagged, never silently
dropped; the lattice can only prove what the lattice sees.

A second, fixed-size search grades the sixteen candidate destabilizing
splittings of a rank-2 bundle on the ruled quadric model.

The fixture catalog freezes the expected outcomes of both searches plus
the pairing identities of the three structure-lemma configurations, and
verify_case replays any of them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .divexpr import render, render_coords, resolve
from .errors import FixtureError, RangeError
from .lattice import (
    DivClass,
    LatticeModel,
    _Record,
    _require_model,
    _slicer,
    pair,
)
from .surfaces import (
    _residual_parity,
    get_config,
    get_surface,
    phi,
    quasi_nef_test,
)


class Decomposition(_Record, namedtuple(
        "Decomposition", "L z ML L2 deg_D notes", defaults=((),))):
    """A survivor C = L + M of the search: the class L, the residual
    length z = k - M.L, ML = M.L, L2 = L^2, deg_D = L^2 + M.L - k and
    string notes. The residual class M is C - L and is not stored, nor
    is the trace, which the search's mod4 flag fixes (_SURVIVOR_TRACE)."""

    __slots__ = ()

    @property
    def expr(self):
        return render(self.L)

    def to_json_dict(self):
        return {
            "L": self.expr,
            "coords": list(self.L.coords),
            "z": self.z,
            "ML": self.ML,
            "L2": self.L2,
            "deg_D": self.deg_D,
            "notes": list(self.notes),
        }


class EnumerationResult(_Record, namedtuple(
        "EnumerationResult",
        "surface curve k mod4_applied survivors rejected visited")):
    """One search: surface name, rendered curve, k, the mod4 flag used,
    the survivor Decompositions, rejections per stage name and the
    number of slice points visited. Its JSON gives each survivor the
    search's trace."""

    __slots__ = ()

    def to_json_dict(self):
        trace = [list(t) for t in _SURVIVOR_TRACE[self.mod4_applied]]
        return {
            "surface": self.surface,
            "curve": self.curve,
            "k": self.k,
            "mod4": self.mod4_applied,
            "survivors": [{**d.to_json_dict(), "trace": trace}
                          for d in self.survivors],
            "rejected": dict(sorted(self.rejected.items())),
            "visited": self.visited,
        }


def _auto_mod4(C: DivClass) -> bool:
    """The residual parity constraint is tied to curves that are twice the
    anticanonical class linearly; numerically we can only see the class,
    so the default keys on coordinates and disables itself on models with
    chi = 0, such as the elliptic ruled blcN. Explicit flags override
    this guess."""
    if C.model.chi == 0:
        return False
    minus2k = tuple(-2 * v for v in C.model.canonical)
    return C.coords == minus2k


# a trace passes a prefix of the stages, then fails one or passes all
_STAGES = ("nonzero", "sign", "L2_nonneg", "ML_ge_L2", "ML_le_k",
           "degD_nonneg", "mod4")
_PASSES = tuple((name, "pass") for name in _STAGES)
_SURVIVOR_TRACE = {True: _PASSES,
                   False: _PASSES[:-1] + (("mod4", "skip: parity flag off"),)}


@lru_cache(maxsize=32)
def _sign_stage(model):
    """The sign stage of model, built once: negative(x), which is None
    when the class L with coordinates x has L.t >= 0 for every t of
    model.sign_tests and else the list of the L.t, read as S x for the
    rows S = (G t for t in sign_tests); and the failure detail of that
    list, which names the t with L.t < 0."""
    gram = model.gram
    S = tuple(tuple(sum(map(mul, row, t)) for row in gram)
              for t in model.sign_tests)
    names = [render_coords(t, model.labels) for t in model.sign_tests]

    def negative(x):
        SL = [sum(map(mul, row, x)) for row in S]
        return SL if SL and min(SL) < 0 else None

    def sign(SL):
        negs = [name for name, v in zip(names, SL) if v < 0]
        return f"negative pairing with {negs}"

    return negative, sign


def _decomposition(L, s, L2, C2, k):
    """The survivor L with L.C = s and L^2 = L2, given C^2."""
    ML = s - L2
    # No Hodge stage: on the signature-(1, r - 1) lattices that _slicer
    # accepts, L^2 > 0 and C^2 > 0 give (L.C)^2 >= L^2 C^2, with equality
    # only for C = (L.C / L^2) L. L^2 > 0 holds there, as L.C >= k >= 2.
    notes = ()
    if L2 * C2 == s * s:
        notes = (f"equality with integral proportionality C = "
                 f"{Fraction(s, L2)} L",)
    if ML < k:
        notes += (f"residual subscheme of length {k - ML}",)
    return Decomposition(L, k - ML, ML, L2, s - k, notes)


def _setup(C, k, mod4, walk=None):
    """What a search of C at k and its explainer share: the slice walk,
    C^2 (from the walk's set-up) and the mod4 flag used. Refuses a k that
    is not an int (bool excluded) or is below 2, a mod4 that is not None
    or a bool, then (in _slicer) a C it cannot walk. walk is _slicer(C)'s
    (points, C^2) when the caller holds it, else it is built here; one
    walk serves every k of C."""
    if type(k) is not int:
        raise RangeError(f"k must be an integer, got {k!r}", "k")
    if k < 2:
        raise RangeError(f"k must be >= 2, got {k}", "k")
    if mod4 is not None and type(mod4) is not bool:  # 0 == False
        raise RangeError(f"mod4 must be None or a bool, got {mod4!r}")
    points, C2 = walk or _slicer(C)
    return points, C2, _auto_mod4(C) if mod4 is None else mod4


def _scan(C, k, mod4, walk=None):
    """The windows of the search for C at k, set up by _setup, with the
    sign and mod4 tests: (kept, rejected, visited, C^2, apply_mod4),
    where kept lists, unsorted, (x, s, L^2) for the coordinates x of
    each survivor L and s = L.C, rejected counts the rejections per
    stage and visited the slice points walked. It builds no class and
    renders nothing: enumerate_bogreider builds the search's records
    from kept, and _replay grades the survivors' keys from the walk's
    coordinates."""
    points, C2, apply_mod4 = _setup(C, k, mod4, walk)
    negative, _ = _sign_stage(C.model)
    kept = []
    rejected = {}
    visited = 0
    for s in range(k, 2 * k + 1):
        found = points(s, s - k, s // 2)
        visited += len(found)
        for x, q in found:  # q = x^2, from the walk
            if negative(x):
                rejected["sign"] = rejected.get("sign", 0) + 1
            elif apply_mod4 and _residual_parity(q, s) % 4:
                rejected["mod4"] = rejected.get("mod4", 0) + 1
            else:
                kept.append((x, s, q))
    return kept, rejected, visited, C2, apply_mod4


def enumerate_bogreider(
    surface: LatticeModel,
    C: DivClass,
    k: int,
    mod4: bool | None = None,
) -> EnumerationResult:
    """All decompositions C = L + M passing the numeric pencil filters.

    mod4 = None lets the fixture-style auto-detection decide (see
    _auto_mod4); fixtures pass their own flag explicitly. Survivors come
    back sorted by coordinates.

    The search is complete. With s = L.C and q = L^2, so M.L = s - q and
    deg D = s - k, the stages L2_nonneg, ML_ge_L2, ML_le_k and
    degD_nonneg read q >= 0, q <= s/2, q >= s - k and s >= k. Together
    they say exactly k <= s <= 2k and s - k <= q <= floor(s/2) (then
    q >= 0 and L != 0 hold too), so the classes that can pass them are
    the union of those slices {L : L.C = s, L^2 = q}, each finite when
    C^2 > 0 on a hyperbolic lattice (slice_points). Other inputs raise
    ModelError, k < 2 or a mod4 that is neither None nor a bool raises
    RangeError, and a C from another model raises ModelMismatchError.
    The slice walk is set up once per search.
    The windows decide five of the seven stages for every slice point:
    nonzero, L2_nonneg, ML_ge_L2, ML_le_k and degD_nonneg all pass there.
    So a slice point is tested only for sign (S x >= 0, _sign_stage) and
    for mod4 on (L^2, L.C) (_residual_parity), with L^2 read from the
    walk, and a survivor's values are (L^2, s - L^2, s - k). The
    explainer runs all seven stages and shares those two tests, so
    visited counts slice points and traces match explainer's. Only a
    survivor is built as a DivClass, from the walk's coordinates.
    """
    _require_model(surface, C)
    kept, rejected, visited, C2, apply_mod4 = _scan(C, k, mod4)
    kept.sort()  # by coordinates, which no two survivors share
    walked, model = DivClass._walked, C.model
    survivors = [_decomposition(walked(model, x), s, q, C2, k)
                 for x, s, q in kept]
    return EnumerationResult(surface.name, render(C), k, apply_mod4,
                             survivors, rejected, visited)


def explainer(surface: LatticeModel, C: DivClass, k: int,
              mod4: bool | None = None):
    """explain(coords), the full filter trace of one candidate of the
    search for C at k, visited by it or not: (Decomposition, trace) for a
    survivor, else (None, trace ending in the failed stage).

    Refuses up front what enumerate_bogreider refuses (RangeError for
    k < 2 or a mod4 that is not None or a bool, ModelError when C^2 <= 0
    or the slices of C can be infinite, ModelMismatchError for a C from
    another model), so no trace describes a search that could never run.
    It runs the search's set-up (_setup) once, then all seven stages,
    also the five that the search's windows decide, with the search's
    sign and mod4 tests (_sign_stage, _residual_parity): on a slice
    point its trace is the search's.
    """
    _require_model(surface, C)
    _, C2, apply_mod4 = _setup(C, k, mod4)
    negative, sign = _sign_stage(C.model)

    def explain(coords):
        L = C.model.klass(coords)
        x, s, L2 = L.coords, pair(L, C), pair(L, L)
        ML, SL, parity = s - L2, negative(x), _residual_parity(L2, s)
        # (failed, detail) of each stage of _STAGES, in order
        chain = ((not any(x), "zero class"),
                 (SL, SL and sign(SL)),
                 (L2 < 0, f"L^2 = {L2}"),
                 (ML < L2, f"M.L = {ML} < L^2 = {L2}"),
                 (ML > k, f"M.L = {ML} > k = {k}"),
                 (s < k, f"deg D = {s - k}"),
                 (apply_mod4 and parity % 4,
                  f"3 L^2 + M.L = {parity} not in 4Z"))
        for i, (failed, detail) in enumerate(chain):
            if failed:
                return None, [*_PASSES[:i], (_STAGES[i], f"fail: {detail}")]
        return (_decomposition(L, s, L2, C2, k),
                list(_SURVIVOR_TRACE[apply_mod4]))

    return explain


# ---------------------------------------------------------------------------
# destabilizing splittings on the ruled quadric model


class DestabCandidate(_Record, namedtuple(
        "DestabCandidate", "a a1 A2 B2 AB lenW")):
    """A destabilizing A = a C0 + a1 f with its integer invariants."""

    __slots__ = ()


class DestabResult(_Record, namedtuple("DestabResult", "survivors grid")):
    """The surviving DestabCandidates and the grid of
    (a, a1, "pass" | first violation) cells."""

    __slots__ = ()


def enumerate_destab() -> DestabResult:
    """Grade the 16-cell grid of splittings A = a C0 + a1 f of the rank-2
    bundle with c1 = 4C0 + 7f and c2 = 4 on the ruled quadric model blq.

    A destabilizing A must satisfy, with B = c1 - A, lenW = c2 - A.B and
    every pairing read off blq's gram:
      ab    A^2 + B^2 >= 16;
      ab2   A^2 > B^2;
      ab3   A^2 >= 10;
      ab4   a(a1 - a) >= 5;
      Bpos  B > 0 (numeric proxy: B nonzero with no negative coordinate,
            so A != c1, a <= 4 and a1 <= 7);
      lenW >= 0.
    A^2 + B^2 = c1^2 - 2A.B = 24 - 2A.B, so ab holds exactly when
    lenW >= 0; and A^2 = 2a(a1 - a), so ab4 holds exactly when ab3 does.
    So neither ab4 nor lenW >= 0 can be the first condition a cell fails,
    and a cell's verdict is the first of ab, ab2, ab3 and Bpos it fails.

    The box 1 <= a <= 4, 4 <= a1 <= 7 holds every A that passes:
    B >= 0 gives a <= 4 and a1 <= 7; for a <= 0, A^2 >= 10 forces
    a1 < a, and then B^2 - A^2 = 24 + 2a - 8a1 > 0, which fails ab2; for
    1 <= a <= 4, a(a1 - a) >= 5 forces a1 >= 5. The bundle is fixed
    here, so the grid takes no surface, curve or c2 as input.
    """
    (n0, n1), c2 = (4, 7), 4  # c1 = n0 C0 + n1 f
    (g00, g01), (_, g11) = get_surface("blq").gram
    # G c1, so that c1.A = u0 a + u1 a1
    u0, u1 = g00 * n0 + g01 * n1, g01 * n0 + g11 * n1
    c1c1 = u0 * n0 + u1 * n1
    survivors = []
    grid = []
    for a in range(1, n0 + 1):
        for a1 in range(4, n1 + 1):
            A2 = (g00 * a + 2 * g01 * a1) * a + g11 * a1 * a1
            c1A = u0 * a + u1 * a1
            B2 = c1c1 - 2 * c1A + A2
            verdict = "pass"
            if A2 + B2 < 16:
                verdict = "ab: A^2 + B^2 < 16"
            elif A2 <= B2:
                verdict = "ab2: A^2 <= B^2"
            elif A2 < 10:
                verdict = "ab3: A^2 < 10"
            elif (a, a1) == (n0, n1) or a > n0 or a1 > n1:
                verdict = "Bpos: B = 0 or negative coordinate"
            grid.append((a, a1, verdict))
            if verdict == "pass":
                AB = c1A - A2
                survivors.append(DestabCandidate(a, a1, A2, B2, AB, c2 - AB))
    return DestabResult(survivors, grid)


# ---------------------------------------------------------------------------
# fixture catalog


class CaseFixture(_Record, namedtuple(
        "CaseFixture", "case_id kind surface curve k mod4 expected killed "
        "identities notes",
        defaults=(None, None, None, None, None, (), (), ()))):
    """One frozen case: either a pencil search, the destabilization grid,
    or a batch of pairing identities on a configuration span (kind
    pencil, destab or identities).

    surface, curve, k and mod4 are the search inputs of a pencil case.
    expected holds the complete survivor set of a pencil case as (L, z)
    pairs, L written as the search renders it, and ((a, a1), lenW) pairs
    for the destab case. killed lists survivors the source analysis
    eliminates by geometric arguments the lattice cannot express; their
    reasons are recorded verbatim as annotations.
    """

    __slots__ = ()


_KILL_H0_3 = "the restricted system has three sections (h0 = 3), not a pencil"

FIXTURES = {fx.case_id: fx for fx in (
    CaseFixture(
        case_id="g1kondelp-a",
        kind="pencil",
        surface="sigma1",
        curve="-2K",
        k=6,
        mod4=True,
        expected=(("H", 1),),
        killed=(("H", 1, _KILL_H0_3),),
        notes=("net classification is empty: the lone numeric survivor dies",),
    ),
    CaseFixture(
        case_id="g1kondelp-b",
        kind="pencil",
        surface="sigma2",
        curve="-2K",
        k=4,
        mod4=True,
        expected=(("H-G1", 0), ("H-G2", 0)),
    ),
    CaseFixture(
        case_id="g1kondelp-c",
        kind="pencil",
        surface="sigma2",
        curve="-2K",
        k=6,
        mod4=True,
        expected=(("H", 1), ("2H-G1-G2", 0)),
        killed=(("H", 1, _KILL_H0_3),),
    ),
    CaseFixture(
        case_id="g1kondelp-d",
        kind="pencil",
        surface="sigma3",
        curve="-2K",
        k=4,
        mod4=True,
        expected=(("H-G1", 0), ("H-G2", 0), ("H-G3", 0)),
    ),
    CaseFixture(
        case_id="g1kondelp-e",
        kind="pencil",
        surface="sigma3",
        curve="-2K",
        k=5,
        mod4=True,
        expected=(("H", 0), ("2H-G1-G2-G3", 0)),
    ),
    CaseFixture(
        case_id="g1kondelp-f",
        kind="pencil",
        surface="sigma3",
        curve="-2K",
        k=6,
        mod4=True,
        expected=(("H", 1), ("2H-G1-G2", 0), ("2H-G1-G3", 0),
                  ("2H-G2-G3", 0), ("2H-G1-G2-G3", 1), ("3H-G1-G2-G3", 0)),
        killed=(
            ("H", 1, _KILL_H0_3),
            ("2H-G1-G2-G3", 1, _KILL_H0_3),
        ),
        notes=(
            "the anticanonical survivor meets the index bound with equality "
            "(C is twice the class); its residual series on the curve is "
            "another complete base-point free pencil of the same degree",
        ),
    ),
    CaseFixture(
        case_id="g1kondelp-g",
        kind="pencil",
        surface="blc6",
        curve="2C0+12f",
        k=4,
        mod4=False,
        expected=(("2f", 0),),
        notes=(
            "residual parity filter disabled on this model (chi = 0); "
            "the curve class here is -2K - 2C0, not -2K",
        ),
    ),
    CaseFixture(
        case_id="g1kondelp-h",
        kind="pencil",
        surface="blq",
        curve="-2K",
        k=4,
        mod4=True,
        expected=(("f", 0), ("C0+f", 0)),
        notes=(
            "both survivors restrict to the same pencil on the curve "
            "since C0.C = 0",
        ),
    ),
    CaseFixture(
        case_id="g1kondelp-i",
        kind="pencil",
        surface="blq",
        curve="-2K",
        k=6,
        mod4=True,
        expected=(("C0+2f", 0),),
        notes=(
            "the survivor meets the index bound with equality "
            "(C is four times the class)",
        ),
    ),
    CaseFixture(
        case_id="g1kondelp-j",
        kind="destab",
        expected=(((3, 6), 1), ((3, 7), 3), ((4, 6), 0)),
        killed=(
            (
                "3C0+6f",
                1,
                "B = C0 + f: the induced subscheme lies on a section of the "
                "ruling and the restricted system 2f|C has four sections, "
                "a net of the wrong dimension",
            ),
            (
                "3C0+7f",
                3,
                "B = C0: the subscheme would lie in C0 meet C, which is "
                "empty because C0.C = 0",
            ),
            (
                "4C0+6f",
                0,
                "B = f: the induced system comes from the ruling with too "
                "many sections",
            ),
        ),
        notes=("all three numeric survivors die geometrically: no "
               "destabilizing splitting exists",),
    ),
    CaseFixture(
        case_id="lemmag7",
        kind="identities",
        identities=(
            (
                "pencil-pair-1",
                (
                    ("square", "3E+2E1", 12),
                    ("pair", "E", "3E+2E1", 2),
                    ("phi", "3E+2E1", 2),
                    ("phi", "E+2E1", 1),
                ),
            ),
            (
                "pencil-pair-2",
                (
                    ("square", "3E+E1", 12),
                    ("pair", "E", "3E+E1", 2),
                    ("phi", "3E+E1", 2),
                    ("phi", "E+E1", 2),
                ),
            ),
        ),
        notes=(
            "the two spans realize the two possible values of the pencil "
            "invariant of the complement L - 2E",
        ),
    ),
    CaseFixture(
        case_id="lemmag8",
        kind="identities",
        identities=(
            (
                "pencil-triple-1",
                (
                    ("square", "3E+E1+E2", 14),
                    ("pair", "E", "3E+E1+E2", 2),
                    ("pair", "E+E1", "3E+E1+E2", 6),
                    ("pair", "2E+E2", "3E+E1+E2", 8),
                    ("phi", "3E+E1+E2", 2),
                    ("qnef", "2E+E2", ("E2-E1",), "quasi_nef"),
                ),
            ),
        ),
        notes=(
            "the nodal alternative: a class pairing (0, 1, -1) with "
            "(E, E1, E2) grades 2E + E2 as quasi-nef, not nef",
        ),
    ),
    CaseFixture(
        case_id="lemmag9",
        kind="identities",
        identities=(
            (
                "pencil-pair-2",
                (
                    ("square", "4E+E1", 16),
                    ("pair", "E", "4E+E1", 2),
                    ("phi", "4E+E1", 2),
                ),
            ),
        ),
        notes=(
            "when the complement E1 has nonvanishing h1 after the "
            "canonical twist, it is twice a primitive isotropic class "
            "pairing 1 with E; recorded as an annotation only",
        ),
    ),
)}


class CaseReport(_Record, namedtuple(
        "CaseReport", "case_id status survivors expected killed trace notes",
        defaults=((),))):
    """The grade of one fixture replay: status is PASS or FAIL."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "case": self.case_id,
            "status": self.status,
            "survivors": [list(x) for x in self.survivors],
            "expected": [list(x) for x in self.expected],
            "killed": [list(x) for x in self.killed],
            "trace": self.trace,
            "notes": list(self.notes),
        }


def verify_case(case_id: str) -> CaseReport:
    """Replay one fixture and grade the outcome PASS or FAIL.

    On a pencil mismatch the report's trace explains, per differing
    candidate, which filter ruled (or failed to rule) on it.
    """
    if case_id not in FIXTURES:
        raise FixtureError(
            f"unknown case {case_id!r}; shipped: {', '.join(sorted(FIXTURES))}"
        )
    return _replay(case_id, {})


def verify_all():
    """verify_case of every fixture, in catalog order. One replay sets up
    each distinct pencil curve (its model, class and slice walk) once for
    all the fixtures on it, and each identity group resolves each
    distinct expression once. A pencil case is graded from the
    coordinates its scan keeps: no search record is built and no curve
    is rendered."""
    walks = {}
    return [_replay(case_id, walks) for case_id in FIXTURES]


def _replay(case_id, walks):
    """verify_case(case_id), taking the class C of a pencil curve and its
    slice walk from walks, keyed by the fixture's (surface, curve) names,
    and adding them there when they are new. The survivors are graded by
    their keys (L, z), rendered from the coordinates the scan (_scan)
    keeps, with z = k - M.L; the count of rejected candidates is the
    scan's. On a mismatch, explainer traces each missing survivor, with a
    set-up of its own."""
    fx = FIXTURES[case_id]
    trace = []

    if fx.kind == "pencil":
        key = fx.surface, fx.curve
        if key not in walks:
            C = resolve(fx.curve, get_surface(fx.surface))
            walks[key] = C, _slicer(C)
        C, walk = walks[key]
        surf = C.model
        kept, rejected, *_ = _scan(C, fx.k, fx.mod4, walk)
        got = {(render_coords(x, surf.labels), fx.k - s + q)
               for x, s, q in kept}
        want = set(fx.expected)
        ok = got == want
        missing = sorted(want - got)
        if missing:
            explain = explainer(surf, C, fx.k, fx.mod4)
        for expr, z in missing:
            _, t = explain(resolve(expr, surf).coords)
            trace.append(f"missing ({expr}, z={z}): {t}")
        for expr, z in sorted(got - want):
            trace.append(f"unexpected survivor ({expr}, z={z})")
        if ok:
            trace.append(
                f"{len(got)} survivor(s) match; "
                f"{sum(rejected.values())} candidates rejected"
            )
        got, want = sorted(got), sorted(want)
    elif fx.kind == "destab":
        res = enumerate_destab()
        got = sorted([c.a, c.a1, c.lenW] for c in res.survivors)
        want = sorted([a, a1, w] for (a, a1), w in fx.expected)
        ok = got == want
        for c in res.survivors:
            id1 = c.AB + c.lenW == 4
            id2 = (c.A2 + c.B2 - 2 * c.AB) == 8 + 4 * c.lenW
            ok = ok and id1 and id2
            trace.append(
                f"({c.a},{c.a1}): A2={c.A2} B2={c.B2} A.B={c.AB} "
                f"lenW={c.lenW} identities={'ok' if id1 and id2 else 'BAD'}"
            )
    else:  # identities: each check writes one line of the trace
        got, want, ok = [], [], True
        for config_name, checks in fx.identities:
            surf = get_config(config_name)
            classes = {}  # one parse per expression of the group

            def klass(expr):
                if expr not in classes:
                    classes[expr] = resolve(expr, surf)
                return classes[expr]

            for chk in checks:
                tag = chk[0]
                if tag == "square":
                    _, expr, expect = chk
                    value = pair(klass(expr), klass(expr))
                    left = f"({expr})^2"
                elif tag == "pair":
                    _, ea, eb, expect = chk
                    value = pair(klass(ea), klass(eb))
                    left = f"({ea}).({eb})"
                elif tag == "phi":
                    _, expr, expect = chk
                    value = phi(surf, klass(expr)).value
                    left = f"phi({expr})"
                elif tag == "qnef":
                    _, expr, nodal, expect = chk
                    value = quasi_nef_test(
                        klass(expr), [klass(nd) for nd in nodal]
                    ).status
                    left = f"quasi-nef({expr} vs {list(nodal)})"
                else:
                    raise FixtureError(f"unknown identity check {tag!r}")
                agrees = value == expect
                ok = ok and agrees
                trace.append(f"[{config_name}] {left} = {value}, expected "
                             f"{expect}{'' if agrees else '  <= MISMATCH'}")

    return CaseReport(case_id, "PASS" if ok else "FAIL", got, want,
                      list(fx.killed), trace, fx.notes)
