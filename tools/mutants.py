#!/usr/bin/env python3
"""Seeded bugs that the test suite must catch.

Run from the root of a checkout:

    python3 tools/mutants.py

Each entry of CATALOGUE is (id, file, old text, new text, test files).
For each entry the tool copies this checkout's files into a fresh
temporary directory (bench_pairs.copy_working_tree), replaces the one
occurrence of the old text in the file by the new text, and runs
`python3 -m pytest -x -q` on the entry's test files there. A run with
a failed test or a collection error kills the mutant, and so does one
that takes longer than TIMEOUT_S; a run that passes lets it survive,
and any other pytest exit (a usage error, no tests) is an error of the
entry. Up to os.cpu_count() entries run at once, each on a worker
thread with its own tree and pytest process. The tool prints one line
per entry, in catalogue order, its status with the time its tests
took, then the total time, and exits 1 unless every mutant is killed.
An entry whose old text does not occur exactly once in its file is
stale: the tool then refuses the whole catalogue (exit 2) before it
runs any mutant. A change that edits a catalogued line updates its
entry.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_pairs import ROOT, copy_working_tree  # noqa: E402

TIMEOUT_S = 600

_LATTICE = "src/divcalc/lattice.py"
_SURFACES = "src/divcalc/surfaces.py"
_CHAMBER = "src/divcalc/chamber.py"
_ENUMERATION = "src/divcalc/enumeration.py"
_CRITERIA = "src/divcalc/criteria.py"
_CLI = "src/divcalc/cli.py"

CATALOGUE = [
    # the walk: each level drops its last y
    ("walk-last-y", _LATTICE,
     "range(-((b + top) // ei), (top - b) // ei + 1)",
     "range(-((b + top) // ei), (top - b) // ei)",
     ["tests/test_lattice.py", "tests/test_theta.py"]),
    # the search's s window stops at 2k - 1
    ("s-window", _ENUMERATION,
     "for s in range(k, 2 * k + 1):\n        found",
     "for s in range(k, 2 * k):\n        found",
     ["tests/test_enumeration.py", "tests/test_theta.py"]),
    # an even lattice's q window is rounded outward, not inward
    ("even-rounding", _LATTICE,
     "qlo, qhi = qlo + qlo % 2, qhi - qhi % 2",
     "qlo, qhi = qlo - qlo % 2, qhi + qhi % 2",
     ["tests/test_lattice.py", "tests/test_theta.py"]),
    # the certificate check forgets that L' lies in the chamber
    ("certificate-chamber", _CHAMBER,
     "return (tuple(cert.pairings) == pairings and min(pairings) >= 0",
     "return (tuple(cert.pairings) == pairings",
     ["tests/test_chamber.py"]),
    # the cusp step rounds r / (x.e) half down instead of half up
    ("cusp-rounding", _CHAMBER,
     "v = tuple(-((2 * ri + xe) // (2 * xe)) for ri in r)",
     "v = tuple((xe - 2 * ri) // (2 * xe) for ri in r)",
     ["tests/test_chamber.py"]),
    # U2 wins a tie of the cusp step
    ("cusp-tie", _CHAMBER,
     "if change < drop:",
     "if change <= drop and change < 0:",
     ["tests/test_chamber.py"]),
    # the explainer's nonzero stage words its failure otherwise
    ("zero-class-detail", _ENUMERATION,
     '(not any(x), "zero class")',
     '(not any(x), "zero vector")',
     ["tests/test_enumeration.py"]),
    # the explainer's mod4 stage names the wrong modulus
    ("mod4-detail", _ENUMERATION,
     'f"3 L^2 + M.L = {parity} not in 4Z"',
     'f"3 L^2 + M.L = {parity} not in 2Z"',
     ["tests/test_enumeration.py"]),
    # a term's minus sign is read as plus
    ("resolve-minus", "src/divcalc/divexpr.py",
     "coeff = -coeff",
     "coeff = +coeff",
     ["tests/test_divexpr.py"]),
    # boxed phi keeps only the classes strictly inside the box
    ("boxed-filter", _SURFACES,
     "max(map(abs, F)) <= box]",
     "max(map(abs, F)) < box]",
     ["tests/test_surfaces.py"]),
    # a search's JSON gives its survivors the mod4-on trace whatever the
    # flag it used
    ("survivor-trace", _ENUMERATION,
     "trace = [list(t) for t in _SURVIVOR_TRACE[self.mod4_applied]]",
     "trace = [list(t) for t in _SURVIVOR_TRACE[True]]",
     ["tests/test_enumeration.py"]),
    # the replay grades a survivor's z with the wrong sign of q = L^2
    ("replay-grading", _ENUMERATION,
     "fx.k - s + q",
     "fx.k - s - q",
     ["tests/test_enumeration.py"]),
    # the replay's identity trace line reads "; expected", which the
    # benchmark's fixture check cannot parse
    ("identity-line", _ENUMERATION,
     '{left} = {value}, expected "',
     '{left} = {value}; expected "',
     ["tests/test_perfbench_contract.py"]),
    # a DivClass inside a record's JSON is taken for another record
    ("json-divclass", _LATTICE,
     "    if isinstance(v, DivClass):\n        return list(v.coords)\n",
     "",
     ["tests/test_lattice.py"]),
    # classes combine whenever their models' grams agree, though the
    # canonical classes or effective labels differ
    ("same-model-gram", _LATTICE,
     "if other is model or other == model:",
     "if other is model or other.gram == model.gram:",
     ["tests/test_enumeration.py"]),
    # a basis label K is accepted, and an expression reads it back as
    # the canonical class
    ("label-k", _LATTICE,
     '        if "K" in labels:\n            raise ModelError(',
     '        if False:\n            raise ModelError(',
     ["tests/test_lattice.py"]),
    # twice a primitive isotropic class loses its h1 note
    ("qnef-multiple", _SURFACES,
     "if mult >= 2:",
     "if mult >= 3:",
     ["tests/test_surfaces.py"]),
    # the witness skips the inverse of a transvection step
    ("chamber-witness", _CHAMBER,
     "tuple(-a for a in step[2])",
     "tuple(step[2])",
     ["tests/test_chamber.py"]),
    # w^-1 starts from U1 whatever coordinates it is given
    ("unword-start", _CHAMBER,
     "    F = list(x)\n",
     "    F = [1] + [0] * 9\n",
     ["tests/test_chamber.py"]),
    # main branch (iv) starts at L^2 = 10
    ("main-iv-threshold", _CRITERIA,
     '("iv", ">=", 12, 1,',
     '("iv", ">=", 10, 1,',
     ["tests/test_criteria.py"]),
    # cliff branch (ii) allows h0(2K - M) = 2
    ("cliff-ii-threshold", _CRITERIA,
     "if cliff >= 3 and h0_2K_minus_M <= 1:",
     "if cliff >= 3 and h0_2K_minus_M <= 2:",
     ["tests/test_criteria.py"]),
    # the bel2 rule accepts degM = g
    ("bel-degree", _CRITERIA,
     "if degM < g + 1:",
     "if degM < g:",
     ["tests/test_criteria.py"]),
    # the general degree corollary starts one below 4g - 4
    ("degree-general-threshold", _CRITERIA,
     "thresh = 4 * g - 4",
     "thresh = 4 * g - 5",
     ["tests/test_criteria.py"]),
    # tetragonal branch (i) allows h0(2K - M) = 2
    ("tetragonal-i-threshold", _CRITERIA,
     "if h0_2K_minus_M <= 1 and h0_2K_minus_M_minus_b2A == 0:",
     "if h0_2K_minus_M <= 2 and h0_2K_minus_M_minus_b2A == 0:",
     ["tests/test_criteria.py"]),
    # the b2 rule starts at L^2 = 10
    ("b2-threshold", _CRITERIA,
     "if L2 >= 12 and phi == 2:",
     "if L2 >= 10 and phi == 2:",
     ["tests/test_criteria.py"]),
    # the main criterion's row stops reading the Clifford index, so its
    # verdict stops echoing it
    ("main-echo-cliff", _CRITERIA,
     '"main": "g L2* phi degM h1M h0_residual* cliff",',
     '"main": "g L2* phi degM h1M h0_residual*",',
     ["tests/test_criteria.py"]),
    # the main criterion no longer requires the residual count, which
    # every one of its branches reads
    ("main-h0-required", _CRITERIA,
     "h1M h0_residual* cliff",
     "h1M h0_residual cliff",
     ["tests/test_criteria.py"]),
    # gonality and the b2 rule let a missing phi through to their
    # consistency checks
    ("class-phi-required", _CRITERIA,
     '"class": "L2* phi*",',
     '"class": "L2* phi",',
     ["tests/test_criteria.py"]),
    # the rows' required inputs are no longer refused when missing
    ("read-required", _CRITERIA,
     "    if missing:\n        raise EvidenceError(\"missing required",
     "    if missing and False:\n        raise EvidenceError(\"missing required",
     ["tests/test_criteria.py"]),
    # a --json report writes non-ASCII text as it is, not \u-escaped
    ("report-ascii", _CLI,
     '"version": __version__})',
     '"version": __version__}, ensure_ascii=False)',
     ["tests/test_cli.py"]),
    # a --json report writes a value JSON cannot hold as its str()
    ("report-default", _CLI,
     '"version": __version__})',
     '"version": __version__}, default=str)',
     ["tests/test_cli.py"]),
    # an undecided verdict exits 2 without --strict
    ("strict-exit", _CLI,
     "args.strict and ",
     "",
     ["tests/test_cli.py"]),
    # the main criterion derives its genus before the presence check, so
    # a missing L2 raises TypeError
    ("main-genus-first", _CRITERIA,
     '    echo = _read("main", locals())\n',
     '    g = L2 // 2 + 1 if g is None else g\n'
     '    echo = _read("main", locals())\n',
     ["tests/test_criteria.py", "tests/test_cli.py"]),
    # a missing aux_h0 key is printed by its name in the library, not as
    # the option that gives it
    ("aux-option-name", _CLI,
     'return f"--aux {name[7:-1]}=INT"',
     "return name",
     ["tests/test_cli.py"]),
    # corank accepts an aux_h0 key it does not know, so a misspelt one is
    # ignored or reported as missing
    ("corank-unknown-aux", _CRITERIA,
     "if bad := set(aux_h0) - AUX_KEYS:",
     "if bad := set():",
     ["tests/test_criteria.py"]),
    # a range refusal is printed by the input's name in the library, not
    # as the option that gives it
    ("range-option-name", _CLI,
     "exc = option + str(exc)[len(named):]",
     "exc = named + str(exc)[len(named):]",
     ["tests/test_cli.py"]),
    # enumerate's --k is read as a str, so the search refuses it
    ("k-type", _CLI,
     '"k": dict(type=int, help="pencil degree"),',
     '"k": dict(help="pencil degree"),',
     ["tests/test_cli.py"]),
    # gaussian's options stop reading the tetragonal row, so
    # --h0-2k-minus-m-b2a and --mu-surjective vanish
    ("gaussian-tetragonal", _CLI,
     "_GAUSSIAN_DESTS = _reading(*_GAUSSIAN_RULES)",
     "_GAUSSIAN_DESTS = _reading(*(r for r in _GAUSSIAN_RULES\n"
     "                             if r != \"tetragonal\"))",
     ["tests/test_cli.py"]),
    # corank stops reading the curve-type row, so --plane-quintic,
    # --trigonal and --nontrigonal vanish
    ("corank-curve-type-row", _CLI,
     '_CORANK_ROWS = ("curve-type", *(',
     "_CORANK_ROWS = tuple((",
     ["tests/test_cli.py"]),
    # counts accept -1: h1M's domain starts one lower
    ("count-domain", _CRITERIA,
     '"degM": 0, "h1M": 0,',
     '"degM": 0, "h1M": -1,',
     ["tests/test_criteria.py"]),
    # bel2 rules on g = 3, below its hypothesis g >= 4
    ("bel-hypothesis", _CRITERIA,
     "    if g < 4:\n        fails.append",
     "    if g < 3:\n        fails.append",
     ["tests/test_criteria.py"]),
    # the trigonal branch's genus refusal names no input, so the command
    # line prints the library's wording and not --g
    ("refusal-name", _CRITERIA,
     'f"got {g}", "g")',
     'f"got {g}")',
     ["tests/test_cli.py"]),
    # the degree corollaries rule on g = 4, below their hypothesis g >= 5
    ("degree-hypothesis", _CRITERIA,
     "    if g < 5:\n        note",
     "    if g < 4:\n        note",
     ["tests/test_criteria.py"]),
    # corank takes a nontrigonal curve of genus 3 or 4, which is trigonal
    ("corank-nontrigonal-genus", _CRITERIA,
     "if nontrigonal and g < 5:",
     "if nontrigonal and False:",
     ["tests/test_criteria.py"]),
    # bel2 lets an implausibly large degM through
    ("degm-cap-bel", _CRITERIA,
     "    _check_degM(g, degM)\n    fails = []",
     "    fails = []",
     ["tests/test_criteria.py"]),
    # the tetragonal bound reads a given h1M as h1(M) = 0
    ("tetragonal-h1m", _CRITERIA,
     "if h1M == 0 and mu_surjective:",
     "if h1M is not None and mu_surjective:",
     ["tests/test_criteria.py"]),
    # the destab grid lets B = 0 pass, so A = c1 = 4C0 + 7f survives
    ("destab-bpos-zero", _ENUMERATION,
     "elif (a, a1) == (n0, n1) or a > n0",
     "elif a > n0",
     ["tests/test_enumeration.py"]),
    # the destab grid's lenW reads c2 = 5
    ("destab-c2", _ENUMERATION,
     "(n0, n1), c2 = (4, 7), 4",
     "(n0, n1), c2 = (4, 7), 5",
     ["tests/test_enumeration.py"]),
    # an operand that is no class passes the model check, and reading
    # .model or .coords off it raises AttributeError, not TypeError
    ("class-operand", _LATTICE,
     "    if type(D) is not DivClass:\n        raise TypeError(",
     "    if False:\n        raise TypeError(",
     ["tests/test_lattice.py"]),
    # phi's walk stops at isqrt(L^2) on a model with K != 0 too, so -K
    # on sigma8 is refused again
    ("phi-past-isqrt", _SURFACES,
     "if t == cap and any(surface.canonical):",
     "if False:",
     ["tests/test_surfaces.py"]),
    # a record's default JSON keeps its fields' values as they are, so a
    # DivClass field is no coordinate list
    ("json-rule-raw", _LATTICE,
     "return {f: _json_value(v) for f, v in zip(self._fields, self)}",
     "return dict(zip(self._fields, self))",
     ["tests/test_lattice.py"]),
    # (14, 3) leaves the sporadic table, so its chamber classes get
    # 2 phi = 6 over L^2 // 4 + 2 = 5
    ("gon-sporadic-14", _CRITERIA,
     "(14, 3), (12, 3)",
     "(12, 3)",
     ["tests/test_criteria.py"]),
    # low-(a) charges h1(M) twice, not three times, so the Fermat
    # quartic's O(1) gets the bound 8 over its corank 7
    ("low-a-h1", _CRITERIA,
     'raw = aux_h0["4K-M"] - cork_mu - 3 * h1M',
     'raw = aux_h0["4K-M"] - cork_mu - 2 * h1M',
     ["tests/test_oracle_gaussian.py", "tests/test_criteria.py"]),
    # the parity filter's default turns on for every class of a model
    # with K = 0, so the Enriques tetragonal searches run with it
    ("auto-mod4-k-zero", _ENUMERATION,
     "    return C.coords == minus2k\n",
     "    return C.coords == minus2k or not any(C.model.canonical)\n",
     ["tests/test_enumeration.py"]),
    # chi reads chi(O) = 1 whatever the model, one too many on blc6
    ("chi-of-o", _SURFACES,
     "return L.model.chi + s // 2",
     "return 1 + s // 2",
     ["tests/test_surfaces.py"]),
]


def stale_entries(root=ROOT):
    """The ids of the entries whose old text does not occur exactly once
    in their file under root, or that name a test file root lacks."""
    stale = []
    for mid, path, old, _, tests in CATALOGUE:
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1 or not all(
                os.path.isfile(os.path.join(root, t)) for t in tests):
            stale.append(mid)
    return stale


def run_mutant(entry):
    """(status, seconds) for one entry, run in a fresh copy of ROOT:
    "killed", "SURVIVED" or "ERROR (pytest exit N)"."""
    _, path, old, new, tests = entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        copy_working_tree(ROOT, tree)
        target = os.path.join(tree, path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        t0 = time.perf_counter()
        try:
            rc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *tests],
                cwd=tree, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = None
        seconds = time.perf_counter() - t0
    status = ("killed" if rc in (1, 2, None) else "SURVIVED" if rc == 0
              else f"ERROR (pytest exit {rc})")
    return status, seconds


def main():
    stale = stale_entries()
    if stale:
        print(f"stale catalogue entries: {', '.join(stale)}",
              file=sys.stderr)
        return 2
    t0, killed = time.perf_counter(), 0
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for entry, (status, seconds) in zip(
                CATALOGUE, pool.map(run_mutant, CATALOGUE)):
            killed += status == "killed"
            print(f"{status:8}  {entry[0]:24} {seconds:6.1f} s  "
                  f"{' '.join(entry[4])}", flush=True)
    print(f"{killed} of {len(CATALOGUE)} killed in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0 if killed == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
