"""Jet arithmetic against symbolic and closed-form oracles."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import jets
from finsler.jets import Jet, jet_space, partials, seed


def test_seed_square_matches_expansion():
    (j,) = seed([3.0], 2)
    sq = j * j
    assert sq.extract((0,)) == 9.0
    assert sq.extract((1,)) == 6.0
    assert sq.extract((2,)) == 2.0


def test_seed_product_rule():
    a, b = seed([2.0, 5.0], 1)
    p = a * b
    assert p.extract((1, 0)) == 5.0
    assert p.extract((0, 1)) == 2.0


def test_third_derivative_of_cube():
    (t,) = seed([2.0], 3)
    assert (t * t * t).extract((3,)) == 6.0


def test_mixed_partial_of_triple_product():
    t, s, u = seed([0.3, -1.0, 2.0], 3)
    assert (t * s * u).extract((1, 1, 1)) == pytest.approx(1.0, abs=1e-15)


def test_extract_constant_term_is_value():
    (t,) = seed([1.5], 2)
    f = 2 * t + 7
    assert f.value == 10.0
    assert f.extract((0,)) == 10.0


def test_order_out_of_range_rejected():
    with pytest.raises(ValueError):
        seed([1.0], 0)
    with pytest.raises(ValueError):
        seed([1.0], 5)
    with pytest.raises(ValueError):
        seed([], 2)


def test_extract_degree_beyond_order_rejected():
    (t,) = seed([1.0], 2)
    with pytest.raises(ValueError):
        t.extract((3,))


def test_division_by_zero_constant_term():
    (t,) = seed([0.0], 2)
    with pytest.raises(ZeroDivisionError):
        (1.0 + t) / t


def test_sqrt_log_need_positive_constant():
    (t,) = seed([-1.0], 2)
    with pytest.raises(ValueError):
        t.sqrt()
    with pytest.raises(ValueError):
        t.log()


def test_jets_from_different_spaces_do_not_mix():
    (a,) = seed([1.0], 2)
    (b,) = seed([1.0], 3)
    with pytest.raises(ValueError):
        a + b


# -- symbolic oracle -----------------------------------------------------------


def _random_poly_tree(rng, symbols, max_degree, depth=6):
    """(sympy expression, jet-evaluable closure, degree) for a random tree
    over {+, -, *} with degree tracked so it stays <= max_degree."""
    kind = rng.integers(0, 6) if depth > 0 else rng.integers(0, 3)
    if kind <= 1:
        i = int(rng.integers(0, len(symbols)))
        return symbols[i], (lambda js, i=i: js[i]), 1
    if kind == 2:
        c = round(float(rng.uniform(-3, 3)), 3)
        return sp.Float(c), (lambda js, c=c: c), 0
    left_expr, left_f, dl = _random_poly_tree(rng, symbols, max_degree, depth - 1)
    if kind == 3:
        right_expr, right_f, dr = _random_poly_tree(rng, symbols, max_degree, depth - 1)
        return left_expr + right_expr, (lambda js: left_f(js) + right_f(js)), max(dl, dr)
    if kind == 4:
        right_expr, right_f, dr = _random_poly_tree(rng, symbols, max_degree, depth - 1)
        return left_expr - right_expr, (lambda js: left_f(js) - right_f(js)), max(dl, dr)
    right_expr, right_f, dr = _random_poly_tree(rng, symbols, max_degree - dl, depth - 1)
    if dl + dr > max_degree:
        return left_expr, left_f, dl
    return left_expr * right_expr, (lambda js: left_f(js) * right_f(js)), dl + dr


def _check_expression_against_sympy(rng, nvars, order=4):
    symbols = sp.symbols(f"t0:{nvars}")
    expr, func, _ = _random_poly_tree(rng, symbols, order)
    point = [round(float(c), 3) for c in rng.uniform(-1.5, 1.5, nvars)]
    js = seed(point, order)
    result = func(js)
    if not isinstance(result, Jet):
        result = Jet.constant(js[0].space, float(result))
    shift = {s: sp.Float(p) + sp.Symbol(f"h{i}") for i, (s, p) in enumerate(zip(symbols, point))}
    hs = [sp.Symbol(f"h{i}") for i in range(nvars)]
    poly = sp.Poly(sp.expand(expr.subs(shift)), *hs)
    worst = 0.0
    for mono, pos in result.space.index.items():
        want = float(poly.coeff_monomial(sp.prod([h**d for h, d in zip(hs, mono)])))
        got = float(result.coeffs[pos])
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


def test_polynomial_taylor_coefficients_match_sympy():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(60):
        nvars = int(rng.integers(1, 7))
        worst = max(worst, _check_expression_against_sympy(rng, nvars))
    assert worst <= 1e-12


def test_analytic_functions_match_sympy_derivatives():
    x = sp.Symbol("x")
    cases = [
        (sp.sqrt(x * x + 1) / (2 - x), lambda t: (t * t + 1).sqrt() / (2 - t), 0.8),
        (sp.exp(x) * sp.log(x + 2), lambda t: t.exp() * (t + 2).log(), 0.4),
        (x ** sp.Rational(5, 2), lambda t: t**2.5, 1.7),
        (sp.sin(x) * sp.cos(2 * x), lambda t: t.sin() * (2 * t).cos(), -0.6),
        (1 / (x * x + sp.Rational(1, 2)), lambda t: 1.0 / (t * t + 0.5), 0.9),
    ]
    for expr, func, point in cases:
        (t,) = seed([point], 4)
        jet = func(t)
        for k in range(5):
            want = float(sp.diff(expr, x, k).subs(x, point))
            got = jet.extract((k,))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_chain_rule_against_closed_form():
    # f(g(t)) with f = exp, g = t^2 + 1 at t = 0.5: f'(g) g' = exp(1.25) * 1
    (t,) = seed([0.5], 2)
    composed = (t * t + 1).exp()
    assert composed.extract((1,)) == pytest.approx(math.exp(1.25) * 1.0, rel=1e-13)


# -- algebraic properties ------------------------------------------------------

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(a=finite, b=finite, c=finite)
def test_addition_and_multiplication_associate(a, b, c):
    ja, jb, jc = seed([a, b, c], 3)
    left = ((ja + jb) + jc).coeffs
    right = (ja + (jb + jc)).coeffs
    np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-13)
    left = ((ja * jb) * jc).coeffs
    right = (ja * (jb * jc)).coeffs
    np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(a=finite, b=finite)
def test_multiplication_commutes(a, b):
    ja, jb = seed([a, b], 4)
    f = ja * ja * jb + 3 * jb
    g = jb * ja * ja + 3 * jb
    np.testing.assert_allclose((f * g).coeffs, (g * f).coeffs, rtol=1e-13, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(min_value=0.2, max_value=5, allow_nan=False))
def test_division_roundtrip(a):
    ja, jb = seed([a, 2 * a + 0.5], 3)
    f = ja * jb + 1
    np.testing.assert_allclose(((f / jb) * jb).coeffs, f.coeffs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5, 6])
def test_partials_equal_extract_entry_for_entry(nvars, order):
    rng = np.random.default_rng(10 * nvars + order)
    xs = seed(rng.uniform(-0.8, 0.8, nvars), order)
    lin = sum(float(c) * x for c, x in zip(rng.uniform(-1, 1, nvars), xs))
    comps = [jets.exp(lin), xs[0] * xs[-1] * lin + 0.5, 2.5, np.float64(-1.25), 3]
    out = partials(xs[0].space, comps)
    assert len(out) == order + 1
    for k, block in enumerate(out):
        assert block.shape == (len(comps),) + (nvars,) * k
        for idx in np.ndindex(block.shape):
            mono = np.bincount(idx[1:], minlength=nvars)
            c = comps[idx[0]]
            want = c.extract(mono) if isinstance(c, Jet) else (float(c) if k == 0 else 0.0)
            assert block[idx] == want


def test_partials_of_only_constants_need_the_space_alone():
    space = jet_space(3, 2)
    value, grad, hess = partials(space, [1.0, 2, np.float64(-3.5)])
    np.testing.assert_array_equal(value, [1.0, 2.0, -3.5])
    assert grad.shape == (3, 3) and not grad.any()
    assert hess.shape == (3, 3, 3) and not hess.any()


def test_partials_refuse_jets_of_another_space():
    (t,) = seed([1.0], 2)
    with pytest.raises(ValueError, match="different spaces"):
        partials(jet_space(1, 3), [t])
