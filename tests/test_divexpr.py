import pytest
from hypothesis import given
from hypothesis import strategies as st

from divcalc.divexpr import parse_divexpr, render, resolve
from divcalc.errors import ExprSyntaxError, LabelError, OverflowGuardError
from divcalc.surfaces import get_config, get_surface


def test_basic_parse():
    e = parse_divexpr("6H-2G1-2G2")
    assert e == ((6, "H"), (-2, "G1"), (-2, "G2"))
    # the expression is its terms: spellings of the same terms are equal
    assert e == parse_divexpr(" 6 H - 2*G1 -2G2 ")
    assert parse_divexpr(" 0 ") == ()


def test_canonical_resolution():
    s3 = get_surface("sigma3")
    assert resolve("-2K", s3).coords == (6, -2, -2, -2)
    assert resolve("K", s3).coords == (-3, 1, 1, 1)


def test_whitespace_and_star_forms():
    s2 = get_surface("sigma2")
    assert resolve(" 6H - 2G1 - 2G2 ", s2).coords == (6, -2, -2)
    assert resolve("6*H-2*G1-2*G2", s2).coords == (6, -2, -2)
    assert resolve("+H", s2).coords == (1, 0, 0)


def test_zero_literal():
    s1 = get_surface("sigma1")
    z = resolve("0", s1)
    assert not any(z.coords)
    assert render(z) == "0"


def test_repeated_label_accumulates():
    s1 = get_surface("sigma1")
    assert resolve("H+H-G1+2H", s1).coords == (4, -1)


def test_empty_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_divexpr("")
    with pytest.raises(ExprSyntaxError):
        parse_divexpr("   ")


@pytest.mark.parametrize("bad", ["++H", "3*", "H G1", "2H-", "H+*G1", "12"])
def test_syntax_errors_carry_position(bad):
    with pytest.raises(ExprSyntaxError, match=" at position [0-9]+"):
        parse_divexpr(bad)


def test_unknown_label_reports_alternatives():
    s2 = get_surface("sigma2")
    with pytest.raises(LabelError) as exc:
        resolve("H+Q", s2)
    assert "Q" in str(exc.value)
    assert "G1" in str(exc.value)


def test_render_conventions():
    m = get_config("pencil-triple-1")
    assert render(m.klass((3, 1, 1))) == "3E+E1+E2"
    assert render(m.klass((0, -1, 2))) == "-E1+2E2"
    assert render(m.klass((1, 0, 0))) == "E"


@given(coords=st.tuples(*[st.integers(-99, 99)] * 4))
def test_render_parse_round_trip(coords):
    s3 = get_surface("sigma3")
    D = s3.klass(coords)
    assert resolve(render(D), s3).coords == coords


@given(coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=6))
def test_repeated_label_accumulation(coeffs):
    # same label repeated: the resolved class adds coefficients exactly
    s1 = get_surface("sigma1")
    expr = "".join(
        ("+" if c >= 0 and i > 0 else "") + f"{c}H" for i, c in enumerate(coeffs)
    )
    assert resolve(expr, s1).coords == (sum(coeffs), 0)


def test_oversize_coefficient_is_refused_before_conversion():
    # 5,000 digits would make int() raise ValueError past its digit limit
    for text in ("5" * 5000 + "H", "H-" + "1" + "0" * 19 + "G1"):
        with pytest.raises(OverflowGuardError, match="64-bit envelope"):
            parse_divexpr(text)
    # leading zeros do not count, and 19 digits are read
    assert parse_divexpr("0" * 30 + "7H") == ((7, "H"),)
    assert parse_divexpr("9" * 19 + "H") == ((int("9" * 19), "H"),)


def test_resolve_sums_the_parsed_terms():
    # resolve adds each parsed term's coefficient times its label's basis
    # vector (K: the canonical class); refusals name the label or the
    # coordinate
    s3, cfg = get_surface("sigma3"), get_config("pencil-triple-1")
    for expr, model in [("-2K", s3), ("6H-2G1-2G2+K", s3), ("0", s3),
                        ("3E+2E1-E2", cfg), ("E+E+E1", cfg)]:
        want = [0] * model.rank
        for coeff, label in parse_divexpr(expr):
            basis = (model.canonical if label == "K" else
                     [int(lab == label) for lab in model.labels])
            want = [w + coeff * v for w, v in zip(want, basis)]
        assert resolve(expr, model).coords == tuple(want)
    for bad in ("E+X", "E-3K2"):
        with pytest.raises(LabelError, match="unknown label") as exc:
            resolve(bad, cfg)
        assert exc.value.__suppress_context__ or exc.value.__context__ is None
    with pytest.raises(OverflowGuardError, match="coordinate"):
        resolve("9223372036854775807E+E", cfg)
