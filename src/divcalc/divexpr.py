"""Divisor expressions: "6H-2G1-2G2", "3E+2E1", "-2K".

A tiny signed linear-combination grammar over identifiers. "K" always
resolves to the surface's canonical class, so no model has a basis label
K (LatticeModel refuses it); every other identifier must be a basis label
of the chosen model. The literal "0" is the zero class.
Whitespace is ignored everywhere, an optional "*" may separate the
coefficient from the label. A coefficient is written in ASCII digits;
one of more digits than the 64-bit envelope allows raises
OverflowGuardError before it is read.
"""

from __future__ import annotations

import re

from .errors import ExprSyntaxError, LabelError, OverflowGuardError
from .lattice import (
    _LABEL,
    _MAX_DIGITS,
    DivClass,
    LatticeModel,
    _require_class,
)

_TERM = re.compile(r"\s*([+-])?\s*(?:([0-9]+)\s*\*?\s*)?"
                   f"({_LABEL.pattern})")


def parse_divexpr(s: str) -> tuple:
    """The (coefficient, label) terms of the expression s, as a tuple."""
    if not s or not s.strip():
        raise ExprSyntaxError("empty divisor expression")
    if s.strip() == "0":
        return ()
    pos = 0
    terms = []
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ExprSyntaxError(
                f"cannot parse divisor expression at position {pos}: "
                f"{s[pos:]!r}")
        sign, num, label = m.groups()
        if sign is None and not first:
            raise ExprSyntaxError(
                f"missing +/- before term at position {m.start(3)}")
        if num is not None:
            num = num.lstrip("0") or "0"
            if len(num) > _MAX_DIGITS:  # refused before int() reads it
                raise OverflowGuardError(
                    f"coefficient of {len(num)} digits at position "
                    f"{m.start(2)} exceeds the 64-bit envelope"
                )
        coeff = int(num) if num is not None else 1
        if sign == "-":
            coeff = -coeff
        terms.append((coeff, label))
        pos = m.end()
        first = False
    return tuple(terms)


def resolve(expr: str, model: LatticeModel) -> DivClass:
    """Turn an expression into coordinates against a surface's basis.

    The terms are read by parse_divexpr; each label is found by one
    search of the basis labels, and the result is built once, as DivClass
    checks it (int coordinates inside the 64-bit envelope)."""
    labels = model.labels
    coords = [0] * len(labels)
    for coeff, label in parse_divexpr(expr):
        if label == "K":
            for i, v in enumerate(model.canonical):
                coords[i] += coeff * v
            continue
        try:
            coords[labels.index(label)] += coeff
        except ValueError:
            raise LabelError(
                f"unknown label {label!r} on {model.name} "
                f"(has {', '.join(labels)} and K)"
            ) from None
    return DivClass(model, tuple(coords))


def render(klass: DivClass) -> str:
    """Inverse of resolve: coefficients against the basis labels, zero
    terms skipped, the zero class printed as "0"."""
    _require_class(klass)
    return render_coords(klass.coords, klass.model.labels)


def render_coords(coords, labels) -> str:
    """render of the class with these coordinates, building no DivClass."""
    parts = []
    for c, lab in zip(coords, labels):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}{lab}")
    return "".join(parts) if parts else "0"
