"""Surjectivity criteria and corank bounds for Gaussian maps on curves.

Everything here is a hypothesis checker: cohomology counts (h0, h1, the
corank of the multiplication map) are inputs supplied by the caller, and
the verdict cites the rule it applied. Nothing computes curve cohomology;
when the evidence on hand decides no rule either way, the verdict is
NO_CONCLUSION and the notes say which inequality fell short.

The checkers never guess: a SURJECTIVE verdict always names its rule, and
re-evaluating that rule's literal inequalities, or a CORANK_BOUND's
formula, on the echoed inputs must pass (the test suite audits this).
Every rule on curves lives here with its row of _READS, those that give
no verdict too; it reads only errors and lattice, and no geometry it.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import EvidenceError, RangeError
from .lattice import _Record

# Degree counts far beyond the canonical range are almost certainly typos;
# the slack leaves room for the large-degree corollaries (4g - 4 plus a
# couple of twists).
DEG_SANITY_SLACK = 16

GENERAL_MEMBER = "general member of |L|"
NONHYPERELLIPTIC = "C nonhyperelliptic"


def _check_class(L2, phi):
    """Refuse a pencil invariant phi, unless None, with phi^2 > L2."""
    if phi is not None and phi * phi > L2:
        raise RangeError(f"phi must satisfy phi^2 <= L2 = {L2}, got {phi}",
                         "phi")


def _check_degM(g, degM):
    """Refuse a degM, unless None, above 4g - 4 + DEG_SANITY_SLACK."""
    cap = 4 * g - 4 + DEG_SANITY_SLACK
    if degM is not None and degM > cap:
        raise RangeError(f"degM = {degM} is implausibly large for genus "
                         f"{g} (cap {cap})", "degM")


def _row(text):
    """A row of _READS as two tuples of (name, required) pairs: its
    inputs, then its aux_h0 keys."""
    return tuple(tuple((n.rstrip("*"), n[-1] == "*") for n in part.split())
                 for part in text.partition("|")[::2])


# Per rule: the inputs it reads, in the order its verdict echoes them,
# then after "|" the aux_h0 keys it reads, sorted; a trailing * marks one
# the rule cannot do without. _read and the command line's rule commands
# read these rows, each parsed once, here. corank_low_genus reads
# "curve-type" to pick its rule; the last five give no verdict, and their
# functions (b2_rule_enriques, gonality, clifford_of_series,
# cliff_upper_bound, scroll_invariants) read them to check their inputs.
_READS = {rule: _row(text) for rule, text in {
    "main": "g L2* phi degM h1M h0_residual* cliff",
    "cliff": "cliff* h0_2K_minus_M*",
    "bel": "g* degM* h1M* h0_2K_minus_M* cliff*",
    "degree": "g* degM* plane_quintic trigonal M_eq_special",
    "tetragonal": "h0_2K_minus_M* h0_2K_minus_M_minus_b2A* h1M "
                  "mu_surjective",
    "low-(a)": "g h1M* cork_mu* | -M 4K-M*",
    "low-(b)": "g h1M* h0_2K_minus_M* cork_mu* | -M 3K-M*",
    "low-(c)": "g h1M* h0_2K_minus_M* cork_mu* | -M",
    "low-(d)": "g h1M cork_mu | 4A-M 5A-M*",
    "low-(e)": "g h1M h0_2K_minus_M cork_mu | 3K-(g-4)A-M*",
    "curve-type": "g* plane_quintic trigonal nontrigonal",
    "class": "L2* phi*",
    "gonality": "L2* phi* not_2D_special",
    "series": "degree* h0*",
    "cliff-bound": "g*",
    "scroll": "g* b1*",
}.items()}

# the aux_h0 keys that corank_low_genus knows: those its rows read
AUX_KEYS = frozenset(key for _, keys in _READS.values() for key, _ in keys)

# Per input of the rows, its domain: bool for a flag, which must be True
# or False, else the least value of an int (bool is not an int here);
# L2 must also be even, and every aux_h0 value is a count, an int >= 0.
# A rule whose own hypothesis asks more (bel's g >= 4, say) answers
# NO_CONCLUSION outside it, with a note that cites it.
_DOMAINS = {
    "g": 2, "L2": 2, "phi": 1, "h0": 1, "degree": 0, "degM": 0, "h1M": 0,
    "h0_residual": 0, "cliff": 0, "h0_2K_minus_M": 0,
    "h0_2K_minus_M_minus_b2A": 0, "cork_mu": 0, "b1": 0, "aux_h0": 0,
    "plane_quintic": bool, "trigonal": bool, "nontrigonal": bool,
    "M_eq_special": bool, "mu_surjective": bool, "not_2D_special": bool,
}


def _check_domain(name, least, value):
    """Refuse value, given for the input name, outside the domain least
    from _DOMAINS, with a RangeError that names the input."""
    if least is bool:
        if not isinstance(value, bool):
            raise RangeError(f"{name} must be a bool, got {value!r}", name)
    elif not isinstance(value, int) or isinstance(value, bool):
        raise RangeError(f"{name} must be an integer, got {value!r}", name)
    elif name == "L2" and value % 2 != 0:
        raise RangeError(f"{name} must be even on these lattices, got "
                         f"{value}", name)
    elif value < least:
        raise RangeError(f"{name} must be >= {least}, got {value}", name)


def _read(rule, values):
    """The inputs_echo of rule on values, a dict of its inputs by name
    (and of aux_h0 when its row reads aux_h0 keys): every input of the
    row that is not None, in row order, then under aux_h0 the row's keys
    that aux_h0 holds. Every required input that is None or absent from
    aux_h0 is refused first, all in one EvidenceError. Then the first
    input outside its domain, in row order and then every aux_h0 value
    when the row reads aux_h0 keys, is refused with a RangeError that
    names it; a flag is never absent, so a None flag is refused too."""
    inputs, keys = _READS[rule]
    echo, missing = {}, []
    for name, required in inputs:
        if (value := values[name]) is not None or _DOMAINS[name] is bool:
            echo[name] = value
        elif required:
            missing.append(name)
    aux, read = values["aux_h0"] if keys else {}, {}
    for key, required in keys:
        if key in aux:
            read[key] = aux[key]
        elif required:
            missing.append(f"aux_h0[{key}]")
    if missing:
        raise EvidenceError("missing required evidence: " + ", ".join(missing),
                            missing=tuple(missing))
    for name, value in echo.items():
        _check_domain(name, _DOMAINS[name], value)
    for key, value in aux.items():
        _check_domain(f"aux_h0[{key}]", _DOMAINS["aux_h0"], value)
    if read:
        echo["aux_h0"] = read
    return echo


class GaussianVerdict(_Record, namedtuple(
        "GaussianVerdict", "status rule bound qualifiers notes inputs_echo")):
    """status is SURJECTIVE, CORANK_BOUND or NO_CONCLUSION; inputs_echo
    left as None is a fresh empty dict."""

    __slots__ = ()

    def __new__(
        cls, status: str, rule: str, bound: int | None = None,
        qualifiers: tuple = (), notes: tuple = (),
        inputs_echo: dict | None = None,
    ):
        if status == "SURJECTIVE" and not rule:
            raise ValueError("a SURJECTIVE verdict must cite its rule")
        if status == "CORANK_BOUND" and bound is None:
            raise ValueError("a CORANK_BOUND verdict must carry the bound")
        echo = {} if inputs_echo is None else inputs_echo
        return tuple.__new__(cls, (status, rule, bound, qualifiers, notes,
                                   echo))

    @property
    def status_label(self) -> str:
        if self.status == "CORANK_BOUND":
            return f"CORANK_BOUND({self.bound})"
        return self.status

    def to_json_dict(self):
        return {
            "status": self.status_label,
            "rule": self.rule,
            "qualifiers": list(self.qualifiers),
            "notes": list(self.notes),
            "inputs_echo": self.inputs_echo,
        }


# ---------------------------------------------------------------------------
# gonality and Clifford helpers

_GON_SPORADIC = {(30, 5), (22, 4), (20, 4), (14, 3), (12, 3), (6, 2)}


def gonality(L2: int, phi: int, not_2D_special: bool = True) -> int:
    """Gonality of a general curve with the given square and pencil
    invariant on an Enriques surface.

    The generic value is 2 phi; three exceptional patterns lower it. The
    flag excludes the one ambiguous shape in pattern (b) (a class twice a
    square-10 class of pencil invariant 3) that the two numbers alone
    cannot detect; it defaults to the generic (excluded) situation.
    """
    _read("gonality", locals())
    _check_class(L2, phi)
    if L2 == phi * phi and phi >= 2 and phi % 2 == 0:
        return 2 * phi - 2
    if L2 == phi * phi + phi - 2 and phi >= 3 and not_2D_special:
        if phi in (3, 4):
            return 2 * phi - 2
        return 2 * phi - 1
    if (L2, phi) in _GON_SPORADIC:
        return L2 // 4 + 2
    return 2 * phi


def clifford_of_series(degree: int, h0: int) -> int:
    """Clifford contribution deg A - 2(h0(A) - 1) of a series of the given
    degree with h0 sections."""
    _read("series", locals())
    return degree - 2 * (h0 - 1)


def cliff_upper_bound(g: int) -> int:
    """The general upper bound floor((g - 1) / 2) on the Clifford index,
    stated for g >= 4: a smaller g in the domain raises RangeError, as
    the bound gives no verdict to answer with."""
    _read("cliff-bound", locals())
    if g < 4:
        raise RangeError(f"g must be >= 4, got {g}", "g")
    return (g - 1) // 2


# ---------------------------------------------------------------------------
# the main surjectivity criterion

# Branches (i)-(iv) of the main criterion: the branch, the L2 it needs
# (L2 = n or L2 >= n), the h0 it needs of its residual twist, and that
# twist. Branch (v) also reads h1M, degM and cliff, and is stated in code.
_MAIN_BRANCHES = (
    ("i", "=", 4, 0, "4L|C - M"),
    ("ii", "=", 6, 0, "(3L+K)|C - M"),
    ("iii", ">=", 8, 0, "2L|C - M"),
    ("iv", ">=", 12, 1, "2L|C - M"),
)


def check_main_theorem(
    *, g: int | None = None, L2: int | None = None, phi: int | None = None,
    degM: int | None = None, h1M: int | None = None,
    h0_residual: int | None = None, cliff: int | None = None,
) -> GaussianVerdict:
    """The five-branch surjectivity criterion for curves on an Enriques
    surface, tried in order (i)..(v); the first satisfied branch names
    the rule and any other satisfied branches land in the notes.

    Branches (i)-(iv) read L2 and h0_residual, the h0 of the branch's
    residual twist (a note names it); branch (v) also reads h1M, degM and
    cliff, and is unevaluable, its note saying why, when any is None. The
    genus g, derived when None, is L2 / 2 + 1 by adjunction (2g - 2 = L2);
    another g, or a degM above 4g - 4 + DEG_SANITY_SLACK, raises
    RangeError. No branch holds below L2 = 4. The verdict echoes what the
    branches read: the row "main" of _READS, g first.
    """
    echo = _read("main", locals())
    _check_class(L2, phi)
    if g is None:
        g = L2 // 2 + 1
        echo = {"g": g, **echo}
    elif g != L2 // 2 + 1:
        raise RangeError(f"g = {g} does not match L2 = {L2}: on an "
                         f"Enriques surface 2g - 2 = L2 gives g = "
                         f"{L2 // 2 + 1}", "g")
    _check_degM(g, degM)

    res = h0_residual
    branches = [  # (id, satisfied, note when not, residual twist)
        (bid, (L2 == n if op == "=" else L2 >= n) and res == h0,
         f"needs L2 {op} {n} and h0 = {h0} (have {L2}, {res})", twist)
        for bid, op, n, h0, twist in _MAIN_BRANCHES]
    skipped = ()
    v_missing = [n for n in ("h1M", "degM", "cliff") if n not in echo]
    if v_missing:
        skipped = (f"(v) not evaluable: missing {', '.join(v_missing)}",)
    else:
        half_plus_2 = L2 // 2 + 2
        branches.append((
            "v", h1M == 0 and degM >= half_plus_2 >= 6
            and res <= cliff - 2,
            f"needs h1(M) = 0, degM >= {half_plus_2} >= 6 and "
            f"h0 <= cliff - 2 = {cliff - 2} "
            f"(have h1M = {h1M}, degM = {degM}, h0 = {res})",
            "2L|C - M"))

    satisfied = [(bid, twist) for bid, sat, _, twist in branches if sat]
    if satisfied:
        (first, twist), *others = satisfied
        notes = [f"residual twist read as h0({twist})"]
        if first == "ii":
            notes.append(
                "the twist differs from 3L|C by the torsion class only; "
                "numerically identical, recorded as an annotation"
            )
        if others:
            notes.append(
                "also satisfied: " + ", ".join(f"({b})" for b, _ in others)
            )
        return GaussianVerdict(
            status="SURJECTIVE",
            rule=f"main-({first})",
            qualifiers=(GENERAL_MEMBER,),
            notes=tuple(notes),
            inputs_echo=echo,
        )
    return GaussianVerdict(
        status="NO_CONCLUSION",
        rule="main",
        notes=tuple(f"({bid}) {miss}" for bid, _, miss, _ in branches)
        + skipped,
        inputs_echo=echo,
    )


# ---------------------------------------------------------------------------
# Clifford-index criterion and the high-degree consequences


def check_cliff_criterion(cliff: int, h0_2K_minus_M: int) -> GaussianVerdict:
    """Surjectivity from the Clifford index alone: index exactly 2 with
    h0(2K - M) = 0, or index >= 3 with h0(2K - M) <= 1. The criterion is
    stated for index >= 2."""
    echo = _read("cliff", locals())
    if cliff == 2 and h0_2K_minus_M == 0:
        return GaussianVerdict("SURJECTIVE", "cliff-(i)", inputs_echo=echo)
    if cliff >= 3 and h0_2K_minus_M <= 1:
        return GaussianVerdict("SURJECTIVE", "cliff-(ii)", inputs_echo=echo)
    return GaussianVerdict(
        "NO_CONCLUSION", "cliff",
        notes=(
            f"needs cliff >= 2, have cliff = {cliff}" if cliff < 2 else
            f"falls between the branches: cliff = {cliff}, "
            f"h0(2K - M) = {h0_2K_minus_M}",
        ),
        inputs_echo=echo,
    )


def check_bel(
    g: int, degM: int, h1M: int, h0_2K_minus_M: int, cliff: int
) -> GaussianVerdict:
    """Surjectivity for g >= 4 and degM >= g + 1: needs h1(M) = 0 and
    h0(2K - M) <= cliff - 2 (so in particular cliff >= 2). A degM above
    4g - 4 + DEG_SANITY_SLACK raises RangeError."""
    echo = _read("bel", locals())
    _check_degM(g, degM)
    fails = []
    if g < 4:
        fails.append(f"needs g >= 4, have g = {g}")
    if h1M != 0:
        fails.append(f"h1(M) = {h1M} != 0")
    if degM < g + 1:
        fails.append(f"degM = {degM} < g + 1 = {g + 1}")
    if h0_2K_minus_M > cliff - 2:
        fails.append(
            f"h0(2K - M) = {h0_2K_minus_M} > cliff - 2 = {cliff - 2}"
        )
    if not fails:
        return GaussianVerdict("SURJECTIVE", "bel2", inputs_echo=echo)
    return GaussianVerdict(
        "NO_CONCLUSION", "bel2", notes=tuple(fails), inputs_echo=echo
    )


def _check_curve_type(g, plane_quintic, trigonal, nontrigonal=False):
    """Refuse the trigonal flag with either other curve-type flag, a
    plane quintic of genus other than 6, and a nontrigonal curve below
    genus 5: every nonhyperelliptic curve of genus 3 or 4 is trigonal."""
    if trigonal and (plane_quintic or nontrigonal):
        other = "plane quintic" if plane_quintic else "nontrigonal"
        raise RangeError(f"trigonal conflicts with the {other} flag",
                         "trigonal")
    if plane_quintic and g != 6:
        raise RangeError(f"g = {g}: a smooth plane quintic has genus 6", "g")
    if nontrigonal and g < 5:
        raise RangeError(f"nontrigonal needs g >= 5, got {g}: every "
                         "nonhyperelliptic curve of genus 3 or 4 is trigonal",
                         "nontrigonal")


def _cork_bound(rule, x, hx, y, hy, echo, qualifiers=()):
    """CORANK_BOUND(hx) under rule: cork >= h0(x) = hx, with equality
    when h0(y) = hy <= 1, a condition left untested when hy is None."""
    notes = [f"cork >= h0({x}) = {hx}"]
    if hy is None:
        notes.append(f"equality condition h0({y}) <= 1 untested")
    elif hy <= 1:
        notes.append(f"equality holds: h0({y}) = {hy} <= 1")
    return GaussianVerdict(
        "CORANK_BOUND", rule, bound=hx,
        qualifiers=qualifiers, notes=tuple(notes), inputs_echo=echo,
    )


def corank_low_genus(
    g: int,
    h1M: int | None = None,
    h0_2K_minus_M: int | None = None,
    cork_mu: int | None = None,
    aux_h0: dict | None = None,
    plane_quintic: bool = False,
    trigonal: bool = False,
    nontrigonal: bool = False,
) -> GaussianVerdict:
    """Corank bounds for nonhyperelliptic curves of genus 3, 4, 5, for
    plane quintics, and for trigonal curves of genus >= 5.

    The three low-genus branches read cork_mu, h1M and the relevant
    section counts and clamp a negative formula value to 0 with an audit
    note; equality holds when h0(-M) = 0, so the verdict records it when
    aux_h0["-M"] is supplied as 0. The quintic and trigonal branches turn
    a vanishing residual count into outright surjectivity; their corank
    bounds additionally need h1(M) = 0 and a surjective multiplication
    map (cork_mu = 0). The flags and g choose the branch, and its rule's
    row in _READS the inputs its verdict requires and echoes; aux_h0
    (None: empty) holds counts under AUX_KEYS, and another key is refused
    before a missing input of the rule.
    """
    _read("curve-type", locals())
    aux_h0 = {} if aux_h0 is None else aux_h0
    if not isinstance(aux_h0, dict):
        raise RangeError(f"aux_h0 must be a dict, got {aux_h0!r}", "aux_h0")
    if bad := set(aux_h0) - AUX_KEYS:
        raise RangeError(f"aux_h0 has unknown keys {sorted(bad)}; "
                         f"known: {sorted(AUX_KEYS)}", "aux_h0")
    _check_curve_type(g, plane_quintic, trigonal, nontrigonal)
    if plane_quintic:
        rule = "low-(d)"
    elif trigonal:
        if g < 5:
            raise RangeError(f"g must be >= 5 for the trigonal branch, "
                             f"got {g}", "g")
        rule = "low-(e)"
    elif g == 2:
        raise RangeError("g = 2: every curve of genus 2 is hyperelliptic, and "
                         "the low-genus rules are stated for nonhyperelliptic "
                         "curves", "g")
    elif g in (3, 4) or (g == 5 and nontrigonal):
        rule = ("low-(a)", "low-(b)", "low-(c)")[g - 3]
    elif g == 5:
        raise EvidenceError("genus 5 needs the trigonal or nontrigonal flag",
                            missing=("trigonal|nontrigonal",))
    else:
        raise RangeError(
            f"g = {g}: no low-genus branch applies; from genus 6 on, only "
            "the trigonal and plane quintic branches do", "g")
    echo = _read(rule, locals())
    quals = (NONHYPERELLIPTIC,)

    if plane_quintic or trigonal:
        if plane_quintic:
            x, y = "5A - M", "4A - M"
            hx, hy = aux_h0["5A-M"], aux_h0.get("4A-M")
            surjective = hx == 0
            why = "h0(5A - M) = 0 forces surjectivity"
        else:
            x, y = "3K - (g-4)A - M", "2K - M"
            hx, hy = aux_h0["3K-(g-4)A-M"], h0_2K_minus_M
            surjective = hx == 0 and hy is not None and hy <= 1
            why = f"h0(2K - M) = {hy} <= 1 and h0(3K - (g-4)A - M) = 0"
        if surjective:
            return GaussianVerdict(
                "SURJECTIVE", rule, qualifiers=quals, notes=(why,),
                inputs_echo=echo,
            )
        if h1M == 0 and cork_mu == 0:
            return _cork_bound(rule, x, hx, y, hy, echo, quals)
        return GaussianVerdict(
            "NO_CONCLUSION", rule,
            notes=(
                "the bound needs h1(M) = 0 and cork mu = 0 "
                f"(have h1M = {h1M}, cork_mu = {cork_mu})",
            ),
            inputs_echo=echo,
        )

    if g == 3:
        raw = aux_h0["4K-M"] - cork_mu - 3 * h1M
        formula = "h0(4K - M) - cork mu - 3 h1(M)"
    elif g == 4:
        raw = h0_2K_minus_M + aux_h0["3K-M"] - cork_mu - 4 * h1M
        formula = "h0(2K - M) + h0(3K - M) - cork mu - 4 h1(M)"
    else:
        raw = 3 * h0_2K_minus_M - cork_mu - 5 * h1M
        formula = "3 h0(2K - M) - cork mu - 5 h1(M)"
    bound = max(raw, 0)
    notes = [f"{formula} = {raw}"]
    if raw < 0:
        notes.append("negative formula value clamped to 0")
    hm = aux_h0.get("-M")
    if hm == 0:
        notes.append("equality holds: h0(-M) = 0")
    elif hm is None:
        notes.append("equality condition h0(-M) = 0 untested")
    return GaussianVerdict(
        "CORANK_BOUND", rule, bound=bound, qualifiers=quals,
        notes=tuple(notes), inputs_echo=echo,
    )


def _degree_rule(rule, echo, thresh, below, excluded, qualifiers=()):
    """SURJECTIVE under rule when g >= 5 and degM > thresh, or degM =
    thresh and M is not the excluded bundle. below names thresh in the
    note of a smaller degM; excluded names the bundle and its boundary,
    or is None when no bundle is excluded at equality."""
    g, degM = echo["g"], echo["degM"]
    if g < 5:
        note = f"needs g >= 5, have g = {g}"
    elif degM < thresh:
        note = f"degM = {degM} < {below}"
    elif degM == thresh and excluded and echo["M_eq_special"]:
        note = f"M = {excluded} is excluded"
    else:
        return GaussianVerdict(
            "SURJECTIVE", rule, qualifiers=qualifiers, inputs_echo=echo
        )
    return GaussianVerdict(
        "NO_CONCLUSION", rule, notes=(note,), inputs_echo=echo
    )


def check_degree_corollaries(
    g: int,
    degM: int,
    plane_quintic: bool = False,
    trigonal: bool = False,
    M_eq_special: bool = False,
) -> GaussianVerdict:
    """Surjectivity from degree alone, per curve type.

    Plane quintics need degM >= 25 (excluding M = 5A at equality);
    trigonal curves need degM >= max(4g - 6, 3g + 6) (excluding
    M = 3K - (g-4)A when g <= 12 meets the 3g + 6 boundary); all other
    curves of genus >= 5 need degM >= 4g - 4 (excluding M = 2K at
    equality). M_eq_special says M equals the branch's excluded bundle.
    Every branch is stated for g >= 5, and a degM above 4g - 4 +
    DEG_SANITY_SLACK raises RangeError.
    """
    echo = _read("degree", locals())
    _check_curve_type(g, plane_quintic, trigonal)
    _check_degM(g, degM)

    if plane_quintic:
        return _degree_rule("degree-quintic", echo, 25, "25",
                            "5A at the degree-25 boundary")
    if trigonal:
        # for g <= 12 the threshold is the 3g + 6 arm
        thresh = max(4 * g - 6, 3 * g + 6)
        return _degree_rule(
            "degree-trigonal", echo, thresh,
            f"max(4g-6, 3g+6) = {thresh}",
            "3K - (g-4)A at the 3g + 6 boundary with g <= 12"
            if g <= 12 else None,
        )
    thresh = 4 * g - 4
    return _degree_rule(
        "degree-general", echo, thresh, f"4g - 4 = {thresh}",
        "2K at the 4g - 4 boundary",
        qualifiers=("C nontrigonal and not a plane quintic",),
    )


# ---------------------------------------------------------------------------
# tetragonal curves: scroll invariants and the Enriques second-scrollar rule


class ScrollInvariants(_Record, namedtuple(
        "ScrollInvariants", "g b1 b2 degV degY pa_hyperplane n2_holds")):
    __slots__ = ()


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
    degY, pa = g - 1 + b2, g - 4 - b1
    return ScrollInvariants(g, b1, b2, g - 3, degY, pa, degY >= 2 * pa + 3)


def tetragonal_corank(
    h0_2K_minus_M: int,
    h0_2K_minus_M_minus_b2A: int,
    h1M: int | None = None,
    mu_surjective: bool = False,
) -> GaussianVerdict:
    """Tetragonal criterion: with A a degree-4 pencil and b2 the second
    scrollar invariant, h0(2K - M) <= 1 and h0(2K - M - b2 A) = 0 force
    surjectivity; with h1(M) = h1M = 0 (None: unknown) and mu surjective
    the corank is at least h0(2K - M - b2 A), with equality when
    additionally h0(2K - M) <= 1."""
    echo = _read("tetragonal", locals())
    if h0_2K_minus_M <= 1 and h0_2K_minus_M_minus_b2A == 0:
        return GaussianVerdict(
            "SURJECTIVE", "tetragonal-(i)", inputs_echo=echo
        )
    if h1M == 0 and mu_surjective:
        return _cork_bound("tetragonal-(ii)", "2K - M - b2 A",
                           h0_2K_minus_M_minus_b2A, "2K - M",
                           h0_2K_minus_M, echo)
    return GaussianVerdict(
        "NO_CONCLUSION", "tetragonal",
        notes=(
            "neither the surjectivity branch nor the bound's "
            "h1(M) = 0 / mu surjective hypotheses hold",
        ),
        inputs_echo=echo,
    )


class B2Rule(_Record, namedtuple("B2Rule", "status qualifiers notes",
                                  defaults=((), ()))):
    """status is b2_at_least_1 or unknown."""

    __slots__ = ()


def b2_rule_enriques(L2: int, phi: int) -> B2Rule:
    """Second scrollar invariant of tetragonal curves on an Enriques
    surface: square >= 12 with pencil invariant 2 forces b2 >= 1 for a
    general curve in the system."""
    _read("class", locals())
    _check_class(L2, phi)
    if L2 >= 12 and phi == 2:
        return B2Rule("b2_at_least_1", qualifiers=("general member",))
    return B2Rule(
        "unknown",
        notes=(f"needs L2 >= 12 and phi = 2, have ({L2}, {phi})",),
    )
