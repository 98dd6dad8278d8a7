"""No floating point in divcalc's source, as the README promises for every
result: a float or complex literal, the name float and the true division
/ are the ways one would get in. Exact code writes Fraction(a, b) or //."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "divcalc"


def _inexact(source):
    """(line, what) for each float literal, use of the name float and
    true division in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            found.append((node.lineno, "true division /"))
    return sorted(found)


def test_the_guard_sees_each_form():
    source = "a = 1.5\nb = float(a)\nc = a / 2\nc /= 2\nd = 2j\ne = a // 2\n"
    assert [line for line, _ in _inexact(source)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_source_is_exact(path):
    found = _inexact(path.read_text(encoding="utf-8"))
    assert not found, [f"{path.name}:{line}: {what}" for line, what in found]
