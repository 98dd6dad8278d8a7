"""Command-line frontend.

Every subcommand wraps one library operation, prints a short human
report by default and a RunReport JSON document with --json. Exit codes:
0 on success, 1 on any error (a usage error shows its subcommand's
usage), 2 when a verdict command (gaussian, corank, b2rule) decides
nothing under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from collections import namedtuple

from . import __version__
from .criteria import (
    _READS,
    b2_rule_enriques,
    check_bel,
    check_cliff_criterion,
    check_degree_corollaries,
    check_main_theorem,
    cliff_upper_bound,
    clifford_of_series,
    corank_low_genus,
    gonality,
    scroll_invariants,
    tetragonal_corank,
)
from .divexpr import render, resolve
from .enumeration import (
    FIXTURES,
    enumerate_bogreider,
    enumerate_destab,
    verify_all,
    verify_case,
)
from .errors import DivcalcError, ModelError
from .lattice import _Record, pair, reflect_nodal
from .surfaces import (
    chi,
    genus,
    get_config,
    get_surface,
    list_configs,
    list_surfaces,
    phi,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1.

    A value given as --opt=-- is the string "--". argparse (3.11) drops
    it as an end-of-options marker and stores an empty list, which no
    handler expects."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _load_surface(args):
    # an empty name is given, and refused as unknown
    if args.config is not None and args.surface is not None:
        raise ModelError("pass either --surface or --config, not both")
    if args.config is not None:
        return get_config(args.config)
    if args.surface is not None:
        return get_surface(args.surface)
    raise ModelError("this subcommand needs --surface or --config")


def _one_curve(args, surf):
    curves = args.curve or []
    if len(curves) != 1:
        raise ModelError("expected exactly one --curve expression")
    return resolve(curves[0], surf)


class _Outcome(_Record, namedtuple(
        "_Outcome", "payload surface lines code", defaults=(0,))):
    """What a subcommand handler hands back to main(): payload, a function
    of no arguments giving the JSON payload; the surface name or None;
    lines, a function of no arguments giving the text lines; and the
    exit code, 0 unless the handler sets it. main() calls only the one of
    payload and lines that it prints, inside the handler's try and
    timing, so a handler does its computation itself and leaves to these
    two functions only the work of one rendering."""

    __slots__ = ()


def _cmd_pair(args):
    surf = _load_surface(args)
    curves = args.curve or []
    if len(curves) != 2:
        raise ModelError("pair needs exactly two --curve expressions")
    A, B = (resolve(c, surf) for c in curves)
    val = pair(A, B)
    return _Outcome(lambda: {"a": render(A), "b": render(B), "value": val},
                    surf.name, lambda: [f"({render(A)}).({render(B)}) = {val}"])


def _class_value(key, value, text):
    """The handler of a subcommand that prints value(D) of its one
    --curve class D: JSON {"curve": D, key: value} and the line
    text.format(D, value)."""
    def handler(args):
        surf = _load_surface(args)
        D = _one_curve(args, surf)
        val = value(D)
        return _Outcome(lambda: {"curve": render(D), key: val}, surf.name,
                        lambda: [text.format(render(D), val)])
    return handler


_cmd_self = _class_value("square", lambda D: pair(D, D), "({})^2 = {}")
_cmd_genus = _class_value("genus", genus, "genus({}) = {}")
_cmd_chi = _class_value("chi", chi, "chi({}) = {}")


def _cmd_phi(args):
    surf = _load_surface(args)
    D = _one_curve(args, surf)
    res = phi(surf, D)

    def payload():
        return {"curve": render(D), **res.to_json_dict()}

    def lines():
        out = [f"phi({render(D)}) = {res.value}",
               f"witness: {render(res.witness)}"]
        if res.certificate:
            out.append("certificate: " + res.certificate.text(surf.labels))
        return out

    return _Outcome(payload, surf.name, lines)


def _cmd_reflect(args):
    surf = _load_surface(args)
    D = _one_curve(args, surf)
    if args.nodal is None:
        raise ModelError("reflect needs --nodal <divexpr>")
    delta = resolve(args.nodal, surf)
    img = reflect_nodal(D, delta)
    return _Outcome(
        lambda: {
            "curve": render(D),
            "nodal": render(delta),
            "image": render(img),
            "image_coords": list(img.coords),
        },
        surf.name, lambda: [f"reflection: {render(img)}"])


def _cmd_enumerate(args):
    surf = _load_surface(args)
    D = _one_curve(args, surf)
    if args.k is None:
        raise ModelError("enumerate needs --k <int>")
    mod4 = {"auto": None, "on": True, "off": False}[args.mod4]
    res = enumerate_bogreider(surf, D, args.k, mod4=mod4)

    def lines():
        out = [
            f"curve {render(D)}, k = {args.k}, parity filter "
            f"{'on' if res.mod4_applied else 'off'}, "
            f"{res.visited} candidates visited",
        ]
        for d in res.survivors:
            extra = f" ({'; '.join(d.notes)})" if d.notes else ""
            out.append(f"  L = {d.expr}  L^2 = {d.L2}, M.L = {d.ML}, "
                       f"z = {d.z}{extra}")
        if not res.survivors:
            out.append("  no survivors")
        hist = ", ".join(f"{k}={v}" for k, v in sorted(res.rejected.items()))
        out.append(f"rejected: {hist or 'none'}")
        return out

    return _Outcome(res.to_json_dict, surf.name, lines)


def _cmd_destab(args):
    res = enumerate_destab()
    return _Outcome(res.to_json_dict, "blq", lambda: [
        "candidate splittings passing all numeric constraints:",
        *(f"  a={c.a}, a1={c.a1}: A^2={c.A2}, B^2={c.B2}, "
          f"A.B={c.AB}, lenW={c.lenW}" for c in res.survivors)])


def _cmd_gonality(args):
    # the one rule command that names its inputs itself: its flag
    # --two-d-special is the negation of its input not_2D_special
    val = gonality(args.l2, args.phi, not args.two_d_special)
    return _Outcome(
        lambda: {
            "L2": args.l2,
            "phi": args.phi,
            "not_2D_special": not args.two_d_special,
            "gonality": val,
        },
        None, lambda: [f"gonality = {val}"])


def _cmd_cliff(args):
    if args.d is not None or args.h0 is not None:
        if args.g is not None:
            raise ModelError("pass either --d and --h0, or --g, not both")
        val = clifford_of_series(**_inputs(args, "series"))
        return _Outcome(
            lambda: {"mode": "series", "d": args.d, "h0": args.h0,
                     "cliff": val},
            None, lambda: [f"Cliff = {val}"])
    if args.g is not None:
        val = cliff_upper_bound(**_inputs(args, "cliff-bound"))
        return _Outcome(
            lambda: {"mode": "upper_bound", "g": args.g, "value": val},
            None, lambda: [f"Cliff(C) <= {val}"])
    raise ModelError("cliff needs --d and --h0, or --g")


def _verdict_outcome(args, verdict, head=None):
    """A verdict's JSON, or its head line (default: status via rule),
    qualifiers and notes; exit 2 under --strict when it decides nothing."""
    return _Outcome(
        verdict.to_json_dict, None, lambda: [
            head or f"{verdict.status_label} via {verdict.rule}",
            *(f"qualifier: {q}" for q in verdict.qualifiers),
            *(f"note: {n}" for n in verdict.notes)],
        2 if args.strict and verdict.status in ("NO_CONCLUSION", "unknown")
        else 0)


# per --rule: its checker, called with the inputs that the rule's row in
# criteria._READS names, each by that name. _cmd_gaussian refuses any
# option that gives none of them; the checker refuses a missing one.
_GAUSSIAN_RULES = {
    "main": check_main_theorem,
    "cliff": check_cliff_criterion,
    "bel": check_bel,
    "degree": check_degree_corollaries,
    "tetragonal": tetragonal_corank,
}
# corank's rows: the curve-type flags, which pick one of the low-* rows
_CORANK_ROWS = ("curve-type", *(r for r in _READS if r.startswith("low-")))
# the option dest each input of a criterion or a search comes from, on
# every command that has the option
_INPUT_DESTS = dict(
    L2="l2", g="g", phi="phi", degM="deg_m", h1M="h1_m", k="k",
    h0_residual="h0_residual", cliff="cliff", h0_2K_minus_M="h0_2k_minus_m",
    plane_quintic="plane_quintic", trigonal="trigonal",
    nontrigonal="nontrigonal", degree="d", h0="h0",
    M_eq_special="m_eq_special", h0_2K_minus_M_minus_b2A="h0_2k_minus_m_b2a",
    mu_surjective="mu_surjective", cork_mu="cork_mu", b1="b1", aux_h0="aux")
_INPUT_NAMES = {dest: name for name, dest in _INPUT_DESTS.items()}


def _option(name):
    """The option that gives the input name of a criterion or search
    (--aux KEY=INT for aux_h0[KEY]), or None if no option does."""
    if name.startswith("aux_h0["):
        return f"--aux {name[7:-1]}=INT"
    dest = _INPUT_DESTS.get(name)
    return dest and "--" + dest.replace("_", "-")


@functools.cache
def _reading(*rows):
    """The dests, in _OPTIONS order, of the inputs that the _READS rows
    read (aux when one reads aux_h0 keys), worked out once per rows."""
    read = {_INPUT_DESTS[n] for row in rows for n, _ in _READS[row][0]}
    if any(_READS[row][1] for row in rows):
        read.add("aux")
    return tuple(d for d in _OPTIONS if d in read)


def _inputs(args, *rows):
    """The keyword arguments of the function of the _READS rows: each
    input that the rows read, by its name, as its option gives it, and
    aux_h0 read from the --aux KEY=INT items when a row reads its keys."""
    values = {_INPUT_NAMES[d]: getattr(args, d) for d in _reading(*rows)}
    if "aux_h0" not in values:
        return values
    aux = values["aux_h0"] = {}
    for item in args.aux or []:
        key, sep, val = item.partition("=")
        if not sep or not re.fullmatch(r"-?[0-9]+", val):
            raise ModelError(f"--aux expects KEY=INT, got {item!r} "
                             "(e.g. --aux 4K-M=5)")
        if key in aux:
            raise ModelError(f"--aux key {key!r} given twice")
        try:
            aux[key] = int(val)
        except ValueError:  # more digits than int() reads
            raise ModelError(
                f"--aux value of {len(val)} digits is too long") from None
    return values


def _cmd_gaussian(args):
    reads = _reading(args.rule)
    # a flag is given when True, a valued option (0 too) when not None
    unread = ["--" + n.replace("_", "-") for n in _GAUSSIAN_DESTS
              if n not in reads and (v := getattr(args, n)) is not None
              and v is not False]
    if unread:
        raise ModelError(f"--rule {args.rule} does not read "
                         + ", ".join(unread))
    rule = _GAUSSIAN_RULES[args.rule]
    return _verdict_outcome(args, rule(**_inputs(args, args.rule)))


def _cmd_corank(args):
    return _verdict_outcome(
        args, corank_low_genus(**_inputs(args, *_CORANK_ROWS)))


def _cmd_scroll(args):
    inv = scroll_invariants(**_inputs(args, "scroll"))
    return _Outcome(inv.to_json_dict, None, lambda: [
        f"b2 = {inv.b2}, bundle degree {inv.degV}, scroll degree "
        f"{inv.degY}, hyperplane-section genus {inv.pa_hyperplane}, "
        f"quadric-generation bound {'holds' if inv.n2_holds else 'fails'}",
    ])


def _cmd_b2rule(args):
    res = b2_rule_enriques(**_inputs(args, "class"))
    return _verdict_outcome(args, res, res.status)


def _cmd_verify(args):
    if args.all == (args.case is not None):
        raise ModelError("verify needs exactly one of --case <id> or --all")
    reports = verify_all() if args.all else [verify_case(args.case)]

    def payload():
        dicts = [r.to_json_dict() for r in reports]
        return dicts if args.all else dicts[0]

    def lines():
        out = []
        for r in reports:
            out.append(f"{r.status}  {r.case_id}")
            if r.status != "PASS":
                out += [f"    {t}" for t in r.trace]
        return out

    return _Outcome(payload, None, lines,
                    1 if any(r.status != "PASS" for r in reports) else 0)


def _cmd_surface(args):
    if args.surface is not None or args.config is not None:
        model = _load_surface(args)
        return _Outcome(model.to_json_dict, model.name, lambda: [
            f"{model.name}: rank {model.rank}, basis "
            + ", ".join(model.labels),
            f"canonical {render(model.canonical_class)}, chi(O) = {model.chi}",
            *("  " + " ".join(f"{v:4d}" for v in row) for row in model.gram)])
    surfaces, configs = list_surfaces(), list_configs()
    return _Outcome(
        lambda: {"surfaces": surfaces, "configs": configs}, None,
        lambda: ["surfaces: " + ", ".join(surfaces),
                 "configs:  " + ", ".join(configs)])


# every option of the command line: its dest, which gives the option
# string --dest with "-" for "_", and its add_argument keywords. The rule
# commands declare theirs in this order, so it is their usage order.
_OPTIONS = {
    "json": dict(action="store_true", help="emit a RunReport JSON document"),
    "strict": dict(action="store_true",
                   help="exit 2 when the verdict is NO_CONCLUSION"),
    "surface": dict(help="builtin surface name or JSON path"),
    "config": dict(help="builtin configuration name or JSON path"),
    "curve": dict(action="append",
                  help="divisor expression, e.g. 6H-2G1-2G2 or -2K"),
    "nodal": dict(help="nodal class expression"),
    "k": dict(type=int, help="pencil degree"),
    "mod4": dict(choices=["auto", "on", "off"], default="auto",
                 help="residual parity filter"),
    "rule": dict(choices=list(_GAUSSIAN_RULES), default="main",
                 help="criterion family"),
    "d": dict(type=int, help="series degree"),
    "h0": dict(type=int, help="series section count"),
    "g": dict(type=int, help="curve genus"),
    "l2": dict(type=int, help="curve class square"),
    "phi": dict(type=int, help="pencil invariant"),
    "two_d_special": dict(action="store_true",
                          help="the class IS twice a square-10 invariant-3 "
                               "class (pattern-(b) exclusion)"),
    "deg_m": dict(type=int, help="deg M"),
    "h1_m": dict(type=int, help="h1(M)"),
    "h0_residual": dict(type=int, help="h0 of the branch residual twist"),
    "cliff": dict(type=int, help="Clifford index"),
    "cork_mu": dict(type=int, help="corank of the multiplication map"),
    "h0_2k_minus_m": dict(type=int, help="h0(2K - M)"),
    "h0_2k_minus_m_b2a": dict(
        type=int, help="h0(2K - M - b2 A) for the tetragonal rule"),
    "mu_surjective": dict(action="store_true",
                          help="the multiplication map is surjective"),
    "aux": dict(action="append", metavar="KEY=INT",
                help="extra section count, e.g. --aux 4K-M=5"),
    "plane_quintic": dict(action="store_true"),
    "trigonal": dict(action="store_true"),
    "nontrigonal": dict(action="store_true"),
    "m_eq_special": dict(action="store_true",
                         help="M equals the branch's excluded bundle"),
    "b1": dict(type=int, help="first scrollar invariant"),
    "case": dict(help="fixture id, e.g. g1kondelp-d"),
    "all": dict(action="store_true", help="replay the whole catalog"),
}


_GAUSSIAN_DESTS = _reading(*_GAUSSIAN_RULES)
_MODEL = ("json", "surface", "config", "curve")
# per subcommand, in the order of the root's help: its handler, the dests
# of its options in usage order, and its help line
_COMMANDS = [
    ("pair", _cmd_pair, _MODEL,
     "intersection pairing of two classes (pass --curve twice)"),
    ("self", _cmd_self, _MODEL, "self-intersection of a class"),
    ("genus", _cmd_genus, _MODEL, "arithmetic genus of a class"),
    ("chi", _cmd_chi, _MODEL, "Euler characteristic of a class"),
    ("phi", _cmd_phi, _MODEL, "pencil invariant (min |F.L| over isotropic F)"),
    ("reflect", _cmd_reflect, (*_MODEL, "nodal"),
     "reflect a class in a nodal (-2) class"),
    ("enumerate", _cmd_enumerate, (*_MODEL, "k", "mod4"),
     "search decompositions C = L + M passing the pencil filters"),
    ("destab", _cmd_destab, ("json",),
     "grade the 16 candidate destabilizing splittings on blq"),
    ("gonality", _cmd_gonality, ("json", "l2", "phi", "two_d_special"),
     "gonality of a general curve from (L2, phi)"),
    ("cliff", _cmd_cliff, ("json", *_reading("series", "cliff-bound")),
     "Clifford contribution of a series, or the genus upper bound"),
    ("gaussian", _cmd_gaussian, ("json", "strict", "rule", *_GAUSSIAN_DESTS),
     "Gaussian-map surjectivity verdicts"),
    ("corank", _cmd_corank, ("json", "strict", *_reading(*_CORANK_ROWS)),
     "corank bounds for low genus / quintic / trigonal curves"),
    ("scroll", _cmd_scroll, ("json", *_reading("scroll")),
     "scroll invariants of a tetragonal canonical curve"),
    ("b2rule", _cmd_b2rule, ("json", "strict", *_reading("class")),
     "second scrollar invariant bound on Enriques tetragonal curves"),
    ("verify", _cmd_verify, ("json", "case", "all"),
     f"replay frozen case fixtures ({len(FIXTURES)} shipped)"),
    ("surface", _cmd_surface, ("json", "surface", "config"),
     "list shipped surfaces/configs, or show one model"),
]


@functools.cache
def build_parser() -> _Parser:
    """The divcalc parser, built on the first call and shared afterwards.

    Reuse across main() calls is safe: argparse makes a fresh Namespace
    for each parse_args, `append` actions copy their default before
    extending it, and _Parser.error, --help and --version look up
    sys.stdout and sys.stderr when they print, so redirect_stdout still
    works. The parser reads no per-call state; the one module value it
    reads, len(FIXTURES) in the verify help, is fixed once built because
    the fixture catalogue is constant. Callers must not modify the
    returned parser, since every later call shares it.

    The parser's _commands maps each subcommand name to its subparser, so
    _parse_args can read well-formed arguments of a command from the
    subparser's own option map (_option_string_actions): its flags and its
    options of one value, each value converted by the option's type and
    checked against its choices. Any other argv goes to the subparser it
    names, or to this parser if it names none: the one declaration of the
    command line and the only code that writes help, usage and errors.
    """
    parser = _Parser(prog="divcalc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(metavar="SUBCOMMAND")
    sub.required = True
    parser._commands = sub.choices
    for name, handler, dests, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for dest in dests:
            p.add_argument("--" + dest.replace("_", "-"), **_OPTIONS[dest])
        p.set_defaults(handler=handler)
    return parser


_EXPR_FLAGS = ("--curve", "--nodal", "--aux")


def _fuse_expr_flags(argv):
    """Join --curve -2K into --curve=-2K, and --aux -M=0 into --aux=-M=0,
    so argparse does not mistake a leading-minus value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _EXPR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _defaults(sub):
    """What sub.parse_known_args sets with no arguments, as a dict: every
    option's default and the handler."""
    return vars(sub.parse_known_args([])[0])


def _read_options(sub, args):
    """sub.parse_args(_fuse_expr_flags(args)) when args are all exact
    option strings of sub, each flag (nargs 0) alone and each other option
    with its value after "=" or as the next string; None for any other
    args, which argparse must read, refuse or explain: an unknown or
    abbreviated option, -h, --, a positional, a value on a flag, a missing
    value, a separate value starting with "-" after an option not in
    _EXPR_FLAGS, a value its type refuses and a value outside the
    choices. build_parser declares no other kind of option, positional or
    group; the differential test of _parse_args fails if one is added."""
    ns = argparse.Namespace()
    vals = vars(ns)  # the namespace's own attribute dict, filled in place
    vals.update(_defaults(sub))
    options = sub._option_string_actions
    i, n = 0, len(args)
    while i < n:
        opt, eq, value = args[i].partition("=")
        action = options.get(opt)
        # --help sets no default, so its dest is not in vals
        if action is None or action.dest not in vals or (
                eq and action.nargs == 0):
            return None
        if action.nargs == 0:
            vals[action.dest] = action.const
        else:
            if not eq:
                i += 1
                if i == n or (args[i].startswith("-")
                              and opt not in _EXPR_FLAGS):
                    return None
                value = args[i]
            try:
                value = (action.type or str)(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            if isinstance(action, argparse._AppendAction):
                value = [*(vals[action.dest] or ()), value]
            vals[action.dest] = value
        i += 1
    return ns


def _parse_args(argv):
    """The namespace of argv. An argv that starts with a subcommand is
    read by _read_options when its arguments are all options of that
    subcommand, else by the subcommand's parser, which writes its own
    usage, help or error message. Any other argv goes to the root parser:
    --help, --version, and a missing or unknown subcommand."""
    parser = build_parser()
    sub = parser._commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(_fuse_expr_flags(argv))
    return (_read_options(sub, argv[1:])  # a Namespace is never false
            or sub.parse_args(_fuse_expr_flags(argv[1:])))


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            print(f"divcalc: error: argument {i + 1} is of type "
                  f"{type(item).__name__}, not str", file=sys.stderr)
            return 1
    try:
        args = _parse_args(raw)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    t0 = time.perf_counter_ns()
    try:
        out = args.handler(args)
        shown = out.payload() if args.json else out.lines()
    except (DivcalcError, OSError) as exc:
        # name the inputs an error refuses by their options: an
        # EvidenceError's missing ones when options give them all, and a
        # RangeError's one when an option gives it
        missing = getattr(exc, "missing", ())
        named = getattr(exc, "name", None)
        if missing and None not in (options := list(map(_option, missing))):
            exc = "missing required evidence: " + ", ".join(options)
        elif named and (option := _option(named)):
            exc = option + str(exc)[len(named):]
        print(f"divcalc: error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter_ns() - t0) // 1_000_000

    try:
        print(json.dumps({"command": ["divcalc", *raw], "surface": out.surface,
                          "result": shown, "elapsed_ms": elapsed_ms,
                          "version": __version__})
              if args.json else "\n".join(shown), flush=True)
    except BrokenPipeError:  # the reader went away: drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return out.code


if __name__ == "__main__":
    sys.exit(main())
