"""Jet arithmetic against symbolic and closed-form oracles."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import jets
from finsler.geometry import metric_blocks
from finsler.jets import Jet, jet_space, partials, seed
from finsler.metrics import MetricField, builtin, load_metric, parse_metric
from finsler.verify import sample_tangent


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
        seed([1.0], 6)
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


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
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


def test_derivative_along_matches_sympy():
    z = sp.symbols("z0 z1 z2")
    expr = sp.exp(z[0] * z[1]) + sp.sin(z[0] + 2 * z[2]) * z[1] ** 3 / (2 + z[2] ** 2)
    at = {zi: sp.Rational(c, 10) for zi, c in zip(z, (3, -4, 2))}
    d = (0.7, -1.3, 0.4)
    x, y, w = seed([0.3, -0.4, 0.2], 5)
    jet = jets.exp(x * y) + jets.sin(x + 2 * w) * y**3 / (2 + w**2)
    low, deriv = jets.derivative_along(jet, np.array(d))
    space = jet_space(3, 4)
    along = sum(sp.Rational(c).limit_denominator() * sp.diff(expr, zi) for c, zi in zip(d, z))
    for pos, mono in enumerate(space.monomials):
        scale = math.prod(math.factorial(k) for k in mono)
        assert low[pos] * scale == pytest.approx(jet.extract(mono), rel=1e-15, abs=1e-15)
        wrt = [zi for zi, k in zip(z, mono) for _ in range(k)]
        want = float((sp.diff(along, *wrt) if wrt else along).subs(at))
        assert deriv[pos] * scale == pytest.approx(want, rel=1e-12, abs=1e-12)


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


def test_jet_refuses_coefficients_of_the_wrong_shape():
    space = jet_space(2, 2)
    for bad in (np.ones(8), np.ones(3), np.ones((2, 3)), 1.0):
        with pytest.raises(ValueError, match="takes 6 coefficients"):
            Jet(space, bad)
    assert Jet(space, np.arange(6)).degree == 2


def _loop_product_rows(space):
    """The multiplication table by a loop over the output monomials and, for
    each, its first factors in itertools.product order: the oracle of the
    array build in JetSpace."""
    rows_i, rows_j, rows_k = [], [], []
    for k_pos, gamma in enumerate(space.monomials):
        for alpha in itertools.product(*(range(d + 1) for d in gamma)):
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            rows_i.append(space.index[alpha])
            rows_j.append(space.index[beta])
            rows_k.append(k_pos)
    return np.array(rows_i), np.array(rows_j), np.array(rows_k)


# Every space of 1-10 variables up to order 4 and of 1-8 up to order 5, then
# two where an integer key over the exponents in radix order + 1 would
# overflow int64: an order-2 L jet at dim 20 and an order-4 one at dim 14.
@pytest.mark.parametrize(
    "nvars, order",
    [(n, o) for n in range(1, 11) for o in range(1, 5)] + [(n, 5) for n in range(1, 9)] + [(40, 2), (28, 4)],
)
def test_product_table_equals_the_loop_over_output_monomials(nvars, order):
    space = jet_space(nvars, order)
    for got, want in zip((space._mul_i, space._mul_j, space._mul_k), _loop_product_rows(space)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# -- integer powers past MAX_ORDER ------------------------------------------------


@pytest.mark.parametrize("p", [37, -37, 5, -5])
def test_large_integer_powers_match_sympy(p):
    x = sp.Symbol("x")
    expr = (sp.Rational(11, 10) + x + sp.Rational(3, 10) * x**2) ** p
    (t,) = seed([0.2], jets.MAX_ORDER)
    jet = (1.1 + t + 0.3 * t * t) ** p
    for k in range(jets.MAX_ORDER + 1):
        want = float(sp.diff(expr, x, k).subs(x, sp.Rational(1, 5)))
        assert jet.extract((k,)) == pytest.approx(want, rel=1e-12)


def test_large_integer_power_of_zero_base():
    t, s = seed([0.0, 1.0], 4)
    np.testing.assert_array_equal(((t * s) ** 37).coeffs, 0.0)
    with pytest.raises(ZeroDivisionError):
        (t * s) ** -37
    # up to MAX_ORDER a zero base takes repeated products, whose top degree
    # an order-5 jet holds
    t, s = seed([0.0, 1.0], 5)
    assert (t**5).extract((5, 0)) == 120.0


def test_small_integer_powers_stay_repeated_products():
    t, s = seed([0.7, -0.4], 4)
    u = t * s + 1.3 * t
    for two in (2, 2.0, np.int64(2)):
        np.testing.assert_array_equal((u**two).coeffs, (u * u).coeffs)
    np.testing.assert_array_equal((u**3).coeffs, (u * u * u).coeffs)
    np.testing.assert_array_equal((u**5).coeffs, (u * u * u * u * u).coeffs)
    np.testing.assert_array_equal((u**-4.0).coeffs, (u * u * u * u)._reciprocal().coeffs)


def test_overflowing_power_raises_overflow_error():
    (t,) = seed([1.0035], 2)
    with pytest.raises(OverflowError):
        t**200000


# -- degree bounds ------------------------------------------------------------------


def _full_times(self, other, cap):
    """Reference product over the whole multiplication table, whatever the
    degree bounds and the cap."""
    sp = self.space
    prod = self.coeffs[sp._mul_i] * other.coeffs[sp._mul_j]
    return jets._jet(sp, np.bincount(sp._mul_k, weights=prod, minlength=sp.size), sp.order)


def _degrees(space):
    return np.array([sum(m) for m in space.monomials])


def _bounded_jet(rng, space, degree, value):
    c = rng.uniform(-1.0, 1.0, space.size) * (_degrees(space) <= degree)
    c[0] = value
    return jets._jet(space, c, degree)


_COMPOSED = {
    "sqrt": Jet.sqrt,
    "reciprocal": lambda u: 1.0 / u,
    "exp": Jet.exp,
    "log": Jet.log,
    "sin": Jet.sin,
    "cos": Jet.cos,
    "pow": lambda u: u**2.5,
    "pow37": lambda u: u**-37,
}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5, 6])
def test_restricted_products_and_compose_equal_the_full_table(nvars, order, monkeypatch):
    rng = np.random.default_rng(100 * nvars + order)
    space = jet_space(nvars, order)
    cases = []
    for _ in range(6):
        da, db = (int(d) for d in rng.integers(0, order + 1, 2))
        a = _bounded_jet(rng, space, da, rng.uniform(0.5, 1.5))
        b = _bounded_jet(rng, space, db, rng.uniform(-1.5, 1.5))
        cases.append((a, b))
    got = []
    for a, b in cases:
        prod = a * b
        assert prod.degree == min(a.degree + b.degree, order)
        got.append([prod.coeffs] + [f(a).coeffs for f in _COMPOSED.values()])
    monkeypatch.setattr(Jet, "_times", _full_times)
    for (a, b), row in zip(cases, got):
        full = jets._jet(space, a.coeffs, order) * jets._jet(space, b.coeffs, order)
        want = [full.coeffs] + [f(jets._jet(space, a.coeffs, order)).coeffs for f in _COMPOSED.values()]
        for name, g, w in zip(["product"] + list(_COMPOSED), row, want):
            np.testing.assert_array_equal(g, w, err_msg=name)


def _constant_start_compose(self, series, arg=None):
    """Horner from a constant jet with every product over the full table:
    the reference for the scalar first step of `jets._k_compose`, over the
    series that `series` gives about the constant term."""
    series = series(self.value, arg, self.space.order)
    w = self - self.value
    result = Jet.constant(self.space, series[-1])
    for c in reversed(series[:-1]):
        result = _full_times(result, w, None) + c
    return result


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("nvars", [1, 2, 4])
def test_compose_equals_the_constant_start_horner_over_the_full_table(nvars, order, monkeypatch):
    rng = np.random.default_rng(10 * nvars + order)
    space = jet_space(nvars, order)
    # value 0 gives -0.0 terms in the sin, cos and exp series
    values = (rng.uniform(0.5, 1.5), 0.0)
    cases = [_bounded_jet(rng, space, d, value) for d in range(order + 1) for value in values]
    cases.append(seed(rng.uniform(0.5, 1.5, nvars), order)[-1])
    got = {}
    for k, a in enumerate(cases):
        for name, f in _COMPOSED.items():
            try:
                got[k, name] = f(a)
            except (ValueError, ZeroDivisionError):
                pass
    assert {name for _, name in got} == set(_COMPOSED)
    monkeypatch.setattr(Jet, "_compose", _constant_start_compose)
    for (k, name), have in got.items():
        want = _COMPOSED[name](cases[k])
        # bit patterns, so that -0.0 and 0.0 differ
        bits = [jet.coeffs.view(np.int64) for jet in (have, want)]
        np.testing.assert_array_equal(*bits, err_msg=f"{name} case {k}")


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("nvars", [1, 2, 3, 6, 8])
def test_seed_rows_equal_jet_variable(nvars, order):
    values = np.random.default_rng(nvars).uniform(-2.0, 2.0, nvars)
    values[0] = -0.0
    seeds = seed(values, order)
    space = jet_space(nvars, order)
    assert len(seeds) == nvars
    for slot, (jet, value) in enumerate(zip(seeds, values)):
        want = Jet.variable(space, value, slot)
        assert jet.space is space and jet.degree == want.degree == 1
        np.testing.assert_array_equal(jet.coeffs.view(np.int64), want.coeffs.view(np.int64))


_BUILTIN_NAMES = ["euclidean", "minkowski_quartic", "sphere_round", "hyperbolic", "funk", "riemannian_perturbation"]
_BENCH_METRICS = Path(__file__).resolve().parents[1] / "bench" / "metrics"


def _metrics_under_test():
    out = [builtin(name, dim=dim) for name in _BUILTIN_NAMES for dim in (2, 3)]
    return out + [load_metric(str(path)) for path in sorted(_BENCH_METRICS.glob("*.metric"))]


def _sample(metric, rng):
    return sample_tangent(metric, rng, (-0.4, 0.4))


def test_every_jet_is_zero_above_its_degree(monkeypatch):
    """Every jet the arithmetic builds through L at orders 2-4 holds exact
    zeros above its degree."""
    seen = []

    def checked(space, coeffs, degree):
        assert 0 <= degree <= space.order
        assert np.all(coeffs[_degrees(space) > degree] == 0.0)
        seen.append(degree)
        return make(space, coeffs, degree)

    make = jets._jet
    monkeypatch.setattr(jets, "_jet", checked)
    rng = np.random.default_rng(4)
    # x1^0 is a constant jet inside L
    unit_power = parse_metric("dim = 2\nL = x1^0 * (v1^2 + v2^2)\n")
    for metric in _metrics_under_test() + [unit_power]:
        s = _sample(metric, rng)
        for order in (2, 3, 4):
            metric_blocks(metric, s.x, s.v, order)
    assert set(seen) == {0, 1, 2, 3, 4}


def _at_full_degree(func):
    """func, after raising every seed jet's degree bound to the order."""

    def L(x, v):
        for jet in list(x) + list(v):
            jet.degree = jet.space.order
        return func(x, v)

    return L


def test_metric_blocks_equal_a_run_from_full_degree_seeds():
    """Blocks of the recording and of a replay equal those of a fresh metric
    whose recording starts from full-degree seeds, so that every product of
    its program runs over the full table."""
    rng = np.random.default_rng(8)
    for m in _metrics_under_test():
        s = _sample(m, rng)
        full = MetricField(m.name, m.dim, _at_full_degree(m.func), m.predicate)
        for order in (2, 3, 4):
            # the first call records, the second replays
            have = [vars(metric_blocks(m, s.x, s.v, order)) for _ in range(2)]
            want = [vars(metric_blocks(full, s.x, s.v, order)) for _ in range(2)]
            for h, w in zip(have, want):
                assert h.keys() == w.keys()
                for key, value in w.items():
                    np.testing.assert_array_equal(h[key], value, err_msg=f"{m.name} order {order} {key}")
