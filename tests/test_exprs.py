"""Expression grammar: parsing, evaluation, error positions."""

import math

import pytest

from finsler.errors import ParseError
from finsler.exprs import compile_expression, parse_expression
from finsler.jets import seed


def _eval(text, x, v, dim=None):
    dim = dim if dim is not None else len(x)
    return compile_expression(text, dim)(x, v)


def test_arithmetic_and_precedence():
    assert _eval("1 + 2 * 3", [0.0], [0.0]) == 7.0
    assert _eval("(1 + 2) * 3", [0.0], [0.0]) == 9.0
    assert _eval("2 ^ 3 ^ 2", [0.0], [0.0]) == 512.0  # right-associative
    assert _eval("-2 ^ 2", [0.0], [0.0]) == -4.0
    assert _eval("6 / 3 / 2", [0.0], [0.0]) == 1.0
    assert _eval("2 * x1 ^ 2", [3.0], [0.0]) == 18.0


def test_variables_and_functions():
    assert _eval("v1*v1 + (1 + x1*x1) * v2*v2", [0.0, 0.0], [1.0, 1.0]) == 2.0
    assert _eval("sqrt(v1^4 + v2^4)", [0.0, 0.0], [1.0, 1.0]) == pytest.approx(math.sqrt(2))
    assert _eval("exp(log(x1))", [2.5], [0.0]) == pytest.approx(2.5)


def test_scientific_notation():
    assert _eval("1e-2 + 2.5E3 * v1", [0.0], [2.0]) == pytest.approx(0.01 + 5000.0)


def test_jets_and_floats_agree():
    f = compile_expression("sqrt(v1^4 + v2^4) + x1 * v2 / (1 + x2^2)", 2)
    x = [0.3, -0.7]
    v = [1.2, 0.8]
    plain = f(x, v)
    xj = seed(x + v, 2)
    through_jets = f(xj[:2], xj[2:]).value
    assert through_jets == pytest.approx(plain, rel=1e-13)


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        compile_expression("v1 + q3", 2)
    assert "q3" in str(err.value)
    assert err.value.pos == 5


def test_variable_out_of_dimension():
    with pytest.raises(ParseError, match="out of range"):
        compile_expression("v3 * v3", 2)


def test_v_variables_rejected_when_position_only():
    with pytest.raises(ParseError, match="position-only"):
        compile_expression("x1 + v1", 2, allow_v=False)


def test_parse_failure_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + * 2")
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_expression("(1 + 2")
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("1 + $")


def test_variable_exponent_rejected():
    with pytest.raises(ParseError, match="numeric constant"):
        parse_expression("v1 ^ v2")
    # constant arithmetic in the exponent is folded
    assert _eval("2 ^ (1 + 1)", [0.0], [0.0]) == 4.0


def test_unevaluable_exponent_reports_position():
    with pytest.raises(ParseError, match="exponent cannot be evaluated") as err:
        parse_expression("x1^(1/0)")
    assert err.value.pos == 3
    with pytest.raises(ParseError, match="not a real number") as err:
        parse_expression("v1 ^ (0 - 8) ^ 0.5")
    assert err.value.pos == 5


def test_fractional_power_needs_positive_base():
    f = compile_expression("v1 ^ 0.5", 1)
    assert f([0.0], [4.0]) == 2.0
    (j,) = seed([-1.0], 2)
    with pytest.raises(ValueError):
        f([0.0], [j])
