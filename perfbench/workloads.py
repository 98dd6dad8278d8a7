"""Seeded inputs for the four benchmark workloads.

Pure Python on purpose: the worker process imports this module while it
sets up, and it must not pull in numpy or anything from divcalc. Every
lattice used here is written out inline from its definition, so the
generated classes and their invariants do not depend on the package under
measurement.

An operation is a plain dict that survives a JSON round trip. The worker
turns it into one public divcalc call; the reference checker reads the
same dict.
"""

from __future__ import annotations

import random

WORKLOADS = ("fixtures", "enumerate", "phi_enriques", "queries")

# Seconds budgeted per pass, including the speed samples and the output
# handling around it. A run makes round(seconds / budget) passes, at least
# MIN_PASSES, so every run of a workload has the same sample count and the
# rank statistics (op_p50_ms, op_tail_ms) land on the same operations.
PASS_BUDGET_S = {
    "fixtures": 0.7,
    "enumerate": 3.3,
    "phi_enriques": 7.0,
    "queries": 1.2,
}
MIN_PASSES = 2
TRACED_PASSES = 2


def passes_for(workload, seconds):
    return max(MIN_PASSES, round(seconds / PASS_BUDGET_S[workload]))


# ---------------------------------------------------------------------------
# lattices, written out from their definitions

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


def _sigma(n):
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(n + 1)]
            for i in range(n + 1)]
    labels = ["H"] + [f"G{i}" for i in range(1, n + 1)]
    return {"labels": labels, "gram": gram, "K": [-3] + [1] * n, "chi": 1}


def _enriques():
    gram = [[0] * 10 for _ in range(10)]
    gram[0][1] = gram[1][0] = 1
    for i in range(8):
        for j in range(8):
            gram[2 + i][2 + j] = -_E8[i][j]
    labels = ["U1", "U2"] + [f"R{i}" for i in range(1, 9)]
    return {"labels": labels, "gram": gram, "K": [0] * 10, "chi": 1}


SURFACES = {f"sigma{n}": _sigma(n) for n in range(1, 10)}
SURFACES["blq"] = {"labels": ["C0", "f"], "gram": [[-2, 1], [1, 0]],
                   "K": [-2, -4], "chi": 1}
SURFACES["blc6"] = {"labels": ["C0", "f"], "gram": [[-6, 1], [1, 0]],
                    "K": [-2, -6], "chi": 0}
SURFACES["enriques"] = _enriques()

CONFIGS = {
    "pencil-pair-1": {"labels": ["E", "E1"], "gram": [[0, 1], [1, 0]]},
    "pencil-pair-2": {"labels": ["E", "E1"], "gram": [[0, 2], [2, 0]]},
    "pencil-triple-1": {"labels": ["E", "E1", "E2"],
                        "gram": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
}


def dot(gram, a, b):
    return sum(a[i] * gram[i][j] * b[j]
               for i in range(len(a)) for j in range(len(b)))


def render(coords, labels):
    """Coefficients against basis labels, zero terms skipped: "6H-2G1"."""
    parts = []
    for c, lab in zip(coords, labels):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{'' if abs(c) == 1 else abs(c)}{lab}")
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# workloads


def generate(workload, seed):
    """The operation list one pass runs, a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def warmup(workload, ops):
    """Untimed calls, picked from a pass's operations, made once before
    the first pass, so one-time costs inside the package (regex
    compilation, golden-file loading, lazy imports inside functions) stay
    out of the timed passes."""
    if workload == "queries":
        seen, out = set(), []
        for op in ops:
            if op["cmd"] not in seen:
                seen.add(op["cmd"])
                out.append(op)
        return out
    if workload == "enumerate":
        return [op for op in ops if op["surface"] == "sigma2"][:1]
    if workload == "phi_enriques":
        return [op for op in ops if op["mode"] == "sublattice"][:1]
    return ops


def _fixtures(rng):
    # verify_all replays a frozen catalog; there is nothing to seed
    return [{"op": "verify_all"}]


def _enum_op(surface, coords, k, mod4, origin):
    return {
        "op": "enumerate",
        "surface": surface,
        "curve": render(coords, SURFACES[surface]["labels"]),
        "coords": list(coords),
        "k": k,
        "mod4": mod4,
        "origin": origin,
    }


# The -2K curves carry the parity filter, as the fixtures do; it is off on
# blc6 (chi = 0) and on skewed curves. Passing the flag explicitly keeps
# the references free of the package's auto-detection.
#
# (surface, k) slots of the seeded curves. The sigma candidate count
# depends only on the rank and k, so fixed slots keep the work per pass
# close to constant across seeds while the curves themselves vary. The
# slots also keep a fixed case at the median: of the seven operations,
# sigma3 -2K is the fourth cheapest, and its neighbours blc6 and the
# sigma3 k=7 slot cost about half and one and a half times as much. A
# short operation's time is the noisiest, so the median sits on a longer
# one.
_SKEWED_SLOTS = (("sigma2", 4), ("sigma3", 7))


def skewed_curve(rng, surface):
    """A curve cH - sum d_i G_i with C^2 > 0 and unequal d_i.

    Curves whose reference box (see refs.survivor_box) would exceed 16 are
    redrawn, which keeps the brute-force reference under a second.
    """
    n = len(SURFACES[surface]["labels"]) - 1
    while True:
        c = rng.randint(4, 13)
        d = [rng.randint(0, c - 1) for _ in range(n)]
        c2 = c * c - sum(x * x for x in d)
        if c2 < 4 or len(set(d)) == 1:
            continue
        # box bound from refs.survivor_box with k <= 8, written out for
        # sigma: Minv_00 = 2c^2/C^2 - 1, Minv_ii = 2d_i^2/C^2 + 1
        k = 8
        worst = max([2 * c * c / c2 - 1] + [2 * x * x / c2 + 1 for x in d])
        if 8 * k * k / c2 * worst > 16 ** 2:
            continue
        return [c] + [-x for x in d]


def _enumerate(rng):
    ops = [
        _enum_op("sigma3", (6, -2, -2, -2), 6, True, "fixed"),
        _enum_op("sigma4", (6, -2, -2, -2, -2), 6, True, "fixed"),
        _enum_op("blq", (4, 8), 40, True, "fixed"),
        _enum_op("blc6", (2, 12), 20, False, "fixed"),
        # the skewed curve of ROADMAP item 3, parity filter off
        _enum_op("sigma2", (12, -11, -3), 6, False, "fixed"),
    ]
    for surface, k in _SKEWED_SLOTS:
        ops.append(_enum_op(surface, skewed_curve(rng, surface), k, False,
                            "seeded"))
    return ops


PHI_STRATA = (2, 4, 6, 8)
PHI_BOXED_L2 = 4


def _random_e8(rng):
    return [rng.randint(-1, 1) for _ in range(8)]


def enriques_class(r, l2, swap=False):
    """U1 + b U2 + r with r in the E8(-1) block and b chosen so the class
    has square l2; swap exchanges the roles of U1 and U2. The hyperbolic
    class of coefficient 1 pairs to 1 with it, so phi = 1."""
    gram = SURFACES["enriques"]["gram"]
    b = (l2 - dot(gram, [0, 0] + r, [0, 0] + r)) // 2
    return ([b, 1] if swap else [1, b]) + list(r)


# The time of certified phi depends on r through the unreduced kernel
# basis: with a fresh random r per seed one pass took 4.3 to 7.1 s on the
# seed commit, which would swamp any bound. So r is drawn once per stratum,
# from the same distribution, and the seed picks, per stratum, whether U1
# and U2 swap roles. The swap permutes the kernel basis and the enumerated
# vectors' coordinates and changes no step of the search, so every seed
# costs the same while the classes and witnesses differ.
_PHI_R = {l2: _random_e8(random.Random(f"phi-r:{l2}")) for l2 in PHI_STRATA}


def _phi(rng):
    ops = [{"op": "phi", "l2": l2, "mode": "sublattice", "box": None,
            "coords": enriques_class(_PHI_R[l2], l2, swap=rng.random() < 0.5)}
           for l2 in PHI_STRATA]
    # boxed phi scans the same 3^10 box whatever the class, so r is free
    ops.append({"op": "phi", "l2": PHI_BOXED_L2, "mode": "boxed", "box": 1,
                "coords": enriques_class(_random_e8(rng), PHI_BOXED_L2)})
    return ops


# ---------------------------------------------------------------------------
# queries: in-process CLI calls

QUERY_COMMANDS = (
    "pair", "self", "genus", "chi", "reflect", "phi", "gaussian", "corank",
    "scroll", "gonality", "cliff", "b2rule", "destab", "surface",
)
QUERIES_PER_COMMAND = 20
_QUERY_SURFACES = ("sigma2", "sigma3", "sigma5", "blq", "blc6", "enriques")


def _small_class(rng, surface, span=3):
    n = len(SURFACES[surface]["labels"])
    while True:
        v = [rng.randint(-span, span) for _ in range(n)]
        if any(v):
            return v


def _curve_args(surface, *classes):
    labels = SURFACES[surface]["labels"]
    out = ["--surface", surface]
    for v in classes:
        out += ["--curve", render(v, labels)]
    return out


def _nodal(rng, surface):
    """A class of square -2 on the surface."""
    if surface == "enriques":
        v = [0] * 10
        v[rng.randint(2, 9)] = rng.choice((-1, 1))
        return v
    n = len(SURFACES[surface]["labels"]) - 1
    i, j = rng.sample(range(1, n + 1), 2)
    v = [0] * (n + 1)
    v[i], v[j] = 1, -1
    return v


def _query(rng, cmd):
    op = {"op": "cli", "cmd": cmd}
    if cmd in ("pair", "self", "genus", "chi", "reflect"):
        surface = rng.choice(_QUERY_SURFACES)
        if cmd == "reflect":
            surface = rng.choice(("sigma3", "sigma5", "enriques"))
        S = SURFACES[surface]
        a = _small_class(rng, surface)
        if cmd in ("genus", "chi"):
            while True:
                s = dot(S["gram"], a, a)
                s += dot(S["gram"], a, S["K"]) * (1 if cmd == "genus" else -1)
                if s % 2 == 0 and (cmd == "chi" or s >= -2):
                    break
                a = _small_class(rng, surface)
        op["surface"] = surface
        op["classes"] = [a]
        if cmd == "pair":
            op["classes"].append(_small_class(rng, surface))
        argv = [cmd, "--json"] + _curve_args(surface, *op["classes"])
        if cmd == "reflect":
            op["nodal"] = _nodal(rng, surface)
            argv += ["--nodal", render(op["nodal"], S["labels"])]
        op["argv"] = argv
    elif cmd == "phi":
        name = rng.choice(sorted(CONFIGS))
        n = len(CONFIGS[name]["labels"])
        # certified phi on the triple span grows fast with the coefficients
        # (4E+4E1+4E2 takes 0.3 s); small ones keep every call near the rest
        coords = [rng.randint(1, 3 if n == 2 else 2) for _ in range(n)]
        op.update(config=name, classes=[coords])
        op["argv"] = ["phi", "--json", "--config", name, "--curve",
                      render(coords, CONFIGS[name]["labels"])]
    elif cmd == "gaussian":
        l2 = 2 * rng.randint(2, 12)
        h0 = rng.randint(0, 2)
        op.update(l2=l2, h0_residual=h0, h1m=None, deg_m=None, cliff=None)
        argv = ["gaussian", "--json", "--rule", "main", "--l2", str(l2),
                "--h0-residual", str(h0)]
        if rng.random() < 0.5:
            g = l2 // 2 + 1
            op.update(h1m=rng.randint(0, 1),
                      deg_m=rng.randint(0, 4 * g - 4),
                      cliff=rng.randint(1, 6))
            argv += ["--h1-m", str(op["h1m"]), "--deg-m", str(op["deg_m"]),
                     "--cliff", str(op["cliff"])]
        op["argv"] = argv
    elif cmd == "corank":
        g = rng.choice((3, 4, 5))
        h1m, cork = rng.randint(0, 1), rng.randint(0, 3)
        h2k, aux = rng.randint(0, 4), rng.randint(0, 9)
        op.update(g=g, h1m=h1m, cork=cork, h2k=h2k, aux=aux)
        argv = ["corank", "--json", "--g", str(g), "--h1-m", str(h1m),
                "--cork-mu", str(cork), "--h0-2k-minus-m", str(h2k)]
        if g == 3:
            argv += ["--aux", f"4K-M={aux}"]
        elif g == 4:
            argv += ["--aux", f"3K-M={aux}"]
        else:
            argv += ["--nontrigonal"]
        op["argv"] = argv
    elif cmd == "scroll":
        g = rng.randint(6, 30)
        b1 = rng.randint((g - 4) // 2, g - 5)
        op.update(g=g, b1=b1)
        op["argv"] = ["scroll", "--json", "--g", str(g), "--b1", str(b1)]
    elif cmd in ("gonality", "b2rule"):
        phi = rng.randint(1, 5)
        lo = max(phi * phi, 4 if cmd == "b2rule" else 2)
        l2 = rng.randrange(lo + lo % 2, 41, 2)
        op.update(l2=l2, phi=phi)
        op["argv"] = [cmd, "--json", "--l2", str(l2), "--phi", str(phi)]
    elif cmd == "cliff":
        if rng.random() < 0.5:
            d, h0 = rng.randint(0, 20), rng.randint(1, 6)
            op.update(d=d, h0=h0, g=None)
            op["argv"] = ["cliff", "--json", "--d", str(d), "--h0", str(h0)]
        else:
            g = rng.randint(4, 30)
            op.update(d=None, h0=None, g=g)
            op["argv"] = ["cliff", "--json", "--g", str(g)]
    elif cmd == "destab":
        op["argv"] = ["destab", "--json"]
    elif cmd == "surface":
        surface = rng.choice(sorted(SURFACES))
        op["surface"] = surface
        op["argv"] = ["surface", "--json", "--surface", surface]
    return op


def _queries(rng):
    ops = [_query(rng, cmd) for cmd in QUERY_COMMANDS
           for _ in range(QUERIES_PER_COMMAND)]
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "fixtures": _fixtures,
    "enumerate": _enumerate,
    "phi_enriques": _phi,
    "queries": _queries,
}
