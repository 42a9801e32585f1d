"""Builtin metrics, homogeneity, and the metric definition file format."""

import math

import numpy as np
import pytest

from finsler import jets
from finsler.errors import DomainError, ParseError
from finsler.geometry import metric_blocks
from finsler.metrics import (
    MetricField,
    TangentSample,
    _as_entry,
    builtin,
    check_homogeneity,
    load_metric,
    parse_metric,
    perturbed_riemannian,
)


def test_euclidean_value():
    m = builtin("euclidean", dim=2)
    assert m.value([0.0, 0.0], [3.0, 4.0]) == 25.0


def test_minkowski_quartic_single_axis():
    m = builtin("minkowski_quartic", dim=2)
    assert m.value([0.0, 0.0], [1.0, 0.0]) == 1.0
    assert m.value([5.0, -2.0], [1.0, 1.0]) == pytest.approx(math.sqrt(2.0))


def test_funk_reduces_to_euclidean_at_center():
    m = builtin("funk", dim=3)
    v = np.array([0.3, -1.2, 0.4])
    assert m.value([0.0, 0.0, 0.0], v) == pytest.approx(float(v @ v), rel=1e-14)


def test_funk_domain_is_open_ball():
    m = builtin("funk", dim=2)
    assert m.in_domain([0.5, 0.5], [1.0, 0.0])
    assert not m.in_domain([0.8, 0.7], [1.0, 0.0])
    with pytest.raises(DomainError):
        m.value([1.1, 0.0], [1.0, 0.0])


def test_funk_radius_parameter():
    m = builtin("funk", dim=2, radius=2.0)
    assert m.in_domain([1.5, 0.0], [1.0, 0.0])
    assert not m.in_domain([2.5, 0.0], [1.0, 0.0])


def test_zero_vector_never_admissible():
    for name in ("euclidean", "minkowski_quartic", "sphere_round", "funk"):
        m = builtin(name, dim=2)
        assert not m.in_domain([0.1, 0.1], [0.0, 0.0])


def test_riemannian_builtin_and_symmetry_check():
    m = builtin("riemannian", matrix=[["1 + x1^2", "0"], ["0", "2"]])
    assert m.value([0.0, 0.0], [1.0, 1.0]) == 3.0
    with pytest.raises(ValueError, match="non-symmetric"):
        builtin("riemannian", matrix=[["1", "x1"], ["0", "1"]])


def _block_arrays(metric, x, v, order):
    b = metric_blocks(metric, x, v, order)
    return {
        name: value
        for name, value in vars(b).items()
        if isinstance(value, (np.ndarray, float)) and name not in ("x", "v")
    }


def _two_sin_entries(n, amplitude=0.1):
    # the perturbed Riemannian entries with the diagonal sin evaluated twice
    def entry(i, j):
        return lambda x: (i == j) + amplitude * (
            jets.sin(x[i] + 2 * x[j]) + jets.sin(x[j] + 2 * x[i])
        )

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def _double_sum(entries):
    n = len(entries)

    def L(x, v):
        total = 0.0
        for i in range(n):
            for j in range(n):
                total = total + entries[i][j](x) * v[i] * v[j]
        return total

    return MetricField("double_sum", n, L)


_EXPRESSION_MATRIX = [
    ["1 + x1^2", "0.2 * x1 * x2", "0.1 * exp(x3)"],
    ["0.2 * x1 * x2", "2 + x2 * x3", "0.3 * x1"],
    ["0.1 * exp(x3)", "0.3 * x1", "1.5 + 0.1 * x1^2 * x3"],
]


@pytest.mark.parametrize("source", ["expressions", "perturbed"])
def test_riemannian_pair_once_sum_matches_double_sum(source):
    if source == "expressions":
        entries = [[_as_entry(e, 3) for e in row] for row in _EXPRESSION_MATRIX]
        metric = builtin("riemannian", matrix=_EXPRESSION_MATRIX)
    else:
        entries = _two_sin_entries(3)
        metric = perturbed_riemannian(3)
    ref = _double_sum(entries)
    rng = np.random.default_rng(17)
    for _ in range(3):
        x, v = rng.uniform(-0.5, 0.5, 3), rng.uniform(-1.0, 1.0, 3)
        for order in (2, 3, 4):
            got = _block_arrays(metric, x, v, order)
            want = _block_arrays(ref, x, v, order)
            for name, block in want.items():
                scale = max(float(np.abs(block).max()), 1.0)
                assert float(np.abs(got[name] - block).max()) <= 1e-14 * scale, name


@pytest.mark.parametrize("dim", [2, 4])
def test_perturbed_riemannian_single_sin_diagonal_is_bit_equal(dim):
    old = builtin("riemannian", matrix=_two_sin_entries(dim))
    new = perturbed_riemannian(dim)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        x, v = rng.uniform(-0.6, 0.6, dim), rng.uniform(-1.0, 1.0, dim)
        for order in (2, 4):
            got = _block_arrays(new, x, v, order)
            for name, block in _block_arrays(old, x, v, order).items():
                np.testing.assert_array_equal(got[name], block, err_msg=name)


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("lorentz", dim=2)


def test_homogeneity_exact_for_quadratic():
    m = builtin("euclidean", dim=2)
    rep = check_homogeneity(m, TangentSample([0.0, 0.0], [1.0, 2.0]), (0.5, 2.0, 7.0))
    assert rep.max_residual == 0.0


def test_homogeneity_funk_and_quartic():
    funk = builtin("funk", dim=2)
    rep = check_homogeneity(funk, TangentSample([0.3, -0.2], [0.8, 0.1]), (0.5, 2.0))
    assert rep.max_residual <= 1e-10
    quartic = builtin("minkowski_quartic", dim=2)
    rep = check_homogeneity(quartic, TangentSample([0.0, 0.0], [1.0, 2.0]), (3.0,))
    assert rep.max_residual <= 1e-12


def test_homogeneity_of_every_builtin_on_random_samples():
    rng = np.random.default_rng(5)
    metrics = [
        builtin("euclidean", dim=2),
        builtin("minkowski_quartic", dim=2),
        builtin("sphere_round", dim=2),
        builtin("hyperbolic", dim=2),
        builtin("funk", dim=2),
    ]
    for m in metrics:
        count = 0
        while count < 100:
            x = rng.uniform(-0.6, 0.6, 2)
            v = rng.uniform(-2.0, 2.0, 2)
            if np.abs(v).max() < 0.1 or not m.in_domain(x, v):
                continue
            rep = check_homogeneity(m, TangentSample(x, v), (0.5, 2.0, 7.0))
            assert rep.max_residual <= 1e-10, (m.name, x, v)
            count += 1


def test_homogeneity_rejects_nonpositive_lambda():
    m = builtin("euclidean", dim=2)
    with pytest.raises(ValueError):
        check_homogeneity(m, TangentSample([0.0, 0.0], [1.0, 0.0]), (-1.0,))


def test_tangent_sample_shape_validation():
    with pytest.raises(ValueError):
        TangentSample([1.0, 2.0], [1.0])


# -- metric definition files ---------------------------------------------------


def test_parse_builtin_file():
    m = parse_metric("dim = 2\nbuiltin = euclidean\n")
    assert m.value([0.0, 0.0], [1.0, 1.0]) == 2.0


def test_parse_expression_file_with_comments():
    text = """
    # a warped product
    dim = 2
    name = warped
    L = v1*v1 + (1 + x1*x1) * v2*v2
    """
    m = parse_metric(text)
    assert m.name == "warped"
    assert m.value([0.0, 0.0], [1.0, 1.0]) == 2.0
    from finsler.geometry import fundamental_tensor

    g = fundamental_tensor(m, TangentSample([0.0, 0.0], [1.0, 1.0]))
    np.testing.assert_allclose(g, np.eye(2), atol=1e-13)


def test_parse_quartic_expression_homogeneity():
    m = parse_metric("dim = 2\nL = sqrt(v1^4 + v2^4)\n")
    base = m.value([0.0, 0.0], [1.0, 1.0])
    assert base == pytest.approx(math.sqrt(2.0))
    assert m.value([0.0, 0.0], [2.0, 2.0]) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)


def test_parse_domain_predicate():
    text = "dim = 2\nL = v1*v1 + v2*v2\ndomain = 1 - x1*x1 - x2*x2\n"
    m = parse_metric(text)
    assert m.in_domain([0.5, 0.5], [1.0, 0.0])
    assert not m.in_domain([1.0, 0.5], [1.0, 0.0])


def test_parse_riemannian_matrix_file():
    text = "dim = 2\nbuiltin = riemannian\na11 = 1 + x2^2\na12 = 0.1\na22 = 2\n"
    m = parse_metric(text)
    assert m.value([0.0, 1.0], [1.0, 0.0]) == pytest.approx(2.0)


def test_parse_riemannian_perturbation_builtin_file():
    m = parse_metric("dim = 3\nbuiltin = riemannian_perturbation\n")
    assert (m.name, m.dim) == ("riemannian_perturbation", 3)
    x, v = [0.1, -0.3, 0.2], [0.5, 0.4, -0.7]
    assert m.value(x, v) == perturbed_riemannian(3).value(x, v)
    with pytest.raises(ValueError, match="no radius"):
        builtin("riemannian_perturbation", dim=2, radius=1.0)


def test_parse_errors():
    with pytest.raises(ParseError, match="dim"):
        parse_metric("builtin = euclidean\n")
    with pytest.raises(ParseError, match="exactly one"):
        parse_metric("dim = 2\n")
    with pytest.raises(ParseError, match="exactly one"):
        parse_metric("dim = 2\nbuiltin = euclidean\nL = v1*v1\n")
    with pytest.raises(ParseError, match="unknown keys"):
        parse_metric("dim = 2\nbuiltin = euclidean\ncolor = red\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_metric("dim = 2\ndim = 3\nbuiltin = euclidean\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_metric("dim = 2\nbuiltin euclidean\n")
    with pytest.raises(ParseError):
        parse_metric("dim = 2\nL = v1 +* v2\n")
    with pytest.raises(ParseError, match="diagonal"):
        parse_metric("dim = 2\nbuiltin = riemannian\na12 = 1\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("builtin = euclidean\na11 = 7\n", "euclidean takes no matrix keys \\(a11\\)"),
        ("L = v1^2 + v2^2\na11 = 7\na21 = 1\n", "L expression metric takes no matrix keys \\(a11, a21\\)"),
        ("builtin = funk\na22 = 2\n", "funk takes no matrix keys"),
        ("L = v1^2 + v2^2\nradius = 3\n", "L expression metric takes no radius"),
        ("builtin = riemannian\na11 = 1\na22 = 1\nradius = 3\n", "riemannian takes no radius"),
        ("builtin = sphere_round\nradius = 3\n", "sphere_round takes no radius"),
        ("builtin = funk\nradius = abc\n", "radius must be a finite positive number, got 'abc'"),
    ],
)
def test_parse_refuses_keys_the_metric_does_not_take(text, match):
    with pytest.raises(ParseError, match=match):
        parse_metric("dim = 2\n" + text)


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf", "-inf"])
def test_funk_radius_must_be_finite_and_positive(radius):
    with pytest.raises(ValueError, match="finite positive"):
        parse_metric(f"dim = 2\nbuiltin = funk\nradius = {radius}\n")
    with pytest.raises(ValueError, match="finite positive"):
        builtin("funk", dim=2, radius=float(radius))


@pytest.mark.parametrize(
    "name, kwargs, match",
    [
        ("euclidean", {"dim": 2, "matrix": [[7, 0], [0, 7]]}, "takes no matrix"),
        ("funk", {"dim": 2, "matrix": [[7, 0], [0, 7]]}, "takes no matrix"),
        ("riemannian", {"matrix": [[1, 0], [0, 1]], "radius": 5.0}, "takes no radius"),
    ],
)
def test_builtin_refuses_parameters_the_metric_does_not_take(name, kwargs, match):
    with pytest.raises(ValueError, match=match):
        builtin(name, **kwargs)


def test_load_metric_from_disk(tmp_path):
    path = tmp_path / "metric.txt"
    path.write_text("dim = 2\nbuiltin = funk\nradius = 1.0\n")
    m = load_metric(path)
    assert m.name == "funk"
    assert m.dim == 2


def test_expression_metric_evaluates_same_through_jets():
    m = parse_metric("dim = 2\nL = sqrt(v1^4 + v2^4) + x1*v2*v2/(2 + x2^2)\n")
    from finsler.jets import seed

    x = [0.4, -0.3]
    v = [1.1, 0.7]
    plain = m.value(x, v)
    js = seed(x + v, 3)
    assert m.func(js[:2], js[2:]).value == pytest.approx(plain, rel=1e-13)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    vx=st.floats(min_value=-2.0, max_value=2.0),
    vy=st.floats(min_value=0.25, max_value=2.0),
)
def test_homogeneity_property_quartic_and_funk(lam, vx, vy):
    x = [0.2, -0.1]
    v = [vx, vy]
    for name in ("minkowski_quartic", "funk"):
        m = builtin(name, dim=2)
        base = m.value(x, v)
        scaled = m.value(x, [lam * c for c in v])
        assert scaled == pytest.approx(lam * lam * base, rel=1e-10)
