"""Recorded L programs against eager evaluation: bit-identical replays, the
guards that keep a function eager, and the lifetime and reach of the
recordings."""

import gc
import weakref

import numpy as np
import pytest

from finsler import geometry, jets
from finsler.curves import geodesic_shoot
from finsler.geometry import _L_jet, metric_blocks
from finsler.jets import Jet, jet_space, record, seed
from finsler.metrics import MetricField, builtin, parse_metric
from finsler.verify import sample_tangent

# The bench/metrics expressions, inlined.
_SPHERE = "dim = 2\nname = sphere_expr\nL = 4*(v1^2 + v2^2)/(1 + x1^2 + x2^2)^2\n"
_RANDERS = (
    "dim = 3\nname = randers_expr\n"
    "L = (sqrt((1 + 0.2*x1^2)*v1^2 + (1 + 0.2*x2^2)*v2^2 + (1 + 0.2*x3^2)*v3^2 + 0.2*v1*v2/(1 + x3^2))"
    " + 0.3*v1/(1 + x2^2) + 0.2*v2/(1 + x3^2) + 0.1*v3)^2\n"
    "domain = 100 - x1^2 - x2^2 - x3^2\n"
)
_BUILTIN_NAMES = ["euclidean", "minkowski_quartic", "sphere_round", "hyperbolic", "funk", "riemannian_perturbation"]


def _analytic(x, v):
    """exp, log, cos, a division, a non-integer power and a sixth power."""
    q = sum(vi * vi for vi in v)
    r = 1.5 + sum(xi * xi for xi in x)
    w = jets.exp(0.3 * x[0]) + jets.log(r) * jets.cos(x[-1]) / r
    return q * w ** 2.5 + 0.01 * (x[0] + 2.0) ** 6 * v[0] * v[0]


def _metrics(dim):
    out = [builtin(name, dim=dim) for name in _BUILTIN_NAMES]
    matrix = [["1 + x1^2" if i == j else ("0.1*x2" if i + j == 1 else 0) for j in range(dim)] for i in range(dim)]
    out.append(builtin("riemannian", matrix=matrix))
    out.append(MetricField("analytic", dim, _analytic))
    if dim == 2:
        out.append(parse_metric(_SPHERE))
    if dim == 3:
        out.append(parse_metric(_RANDERS))
    return out


def _rows(space, x, v):
    rows = space.seed_units.copy()
    rows[:, 0] = np.concatenate([x, v])
    return rows


def _eager(func, x, v, order):
    """func on fresh seed jets at (x, v), with no recording."""
    seeds = seed(np.concatenate([x, v]), order)
    n = len(x)
    return func(seeds[:n], seeds[n:])


def _record(func, x, v, order):
    n = len(x)
    space = jet_space(2 * n, order)
    return record(lambda s: func(s[:n], s[n:]), space, _rows(space, x, v))


def _bits(a):
    """Bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_replays_equal_eager_evaluation_bit_for_bit(dim, order):
    rng = np.random.default_rng(10 * dim + order)
    for metric in _metrics(dim):
        samples = [sample_tangent(metric, rng, (-0.4, 0.4)) for _ in range(4)]
        first = samples[0]
        out, program = _record(metric.func, first.x, first.v, order)
        assert program is not None, metric.name
        want = _eager(metric.func, first.x, first.v, order)
        np.testing.assert_array_equal(_bits(out.coeffs), _bits(want.coeffs), err_msg=metric.name)
        assert out.degree == want.degree and type(out) is Jet
        for s in samples[1:]:
            got = program.run(_rows(program.space, s.x, s.v))
            want = _eager(metric.func, s.x, s.v, order)
            np.testing.assert_array_equal(_bits(got.coeffs), _bits(want.coeffs), err_msg=metric.name)
            assert got.degree == want.degree


def test_a_replay_holds_only_its_live_registers():
    # a result's slot is reused once no later step reads it: the 114 steps
    # of riemannian_perturbation at dim 4 never hold more than 3 values
    # beside the 8 seed rows
    metric = builtin("riemannian_perturbation", dim=4)
    x, v = np.array([0.1, -0.2, 0.3, 0.05]), np.array([0.7, -0.4, 0.2, 0.9])
    _, program = _record(metric.func, x, v, 5)
    assert len(program.steps) == 114 and program.slots == 8 + 3


def _branches_on_a_value(x, v):
    q = v[0] * v[0] + v[1] * v[1]
    return q * (1 + x[0] * x[0]) if x[0].value > 0 else q * (2 - x[1])


def _branches_on_a_zero_base_power(x, v):
    # at x1 = 0 the sixth power is a plain constant; its value is read
    # outside the recording and never mixed into the result
    q = v[0] * v[0] + v[1] * v[1]
    return q * (1 + x[0] * x[0]) if (x[0] ** 6).value > 0 else q * (2 - x[1])


@pytest.mark.parametrize(
    "L, x0s",
    [(_branches_on_a_value, (0.4, -0.4, 0.5, -0.5)), (_branches_on_a_zero_base_power, (0.0, 0.4, 0.0, -0.5))],
    ids=["value", "zero_base_power"],
)
def test_a_function_that_branches_on_a_value_is_never_replayed(L, x0s, monkeypatch):
    def run(self, rows):
        raise AssertionError("a branching function was replayed")

    monkeypatch.setattr(jets.Program, "run", run)
    metric = MetricField("branching", 2, L)
    space = jet_space(4, 2)
    v = np.array([0.3, -0.7])
    for x0 in x0s:
        x = np.array([x0, 0.2])
        got = _L_jet(metric, x, v, 2)
        np.testing.assert_array_equal(_bits(got.coeffs), _bits(_eager(L, x, v, 2).coeffs))
        assert geometry._PROGRAMS[L] == {space: None}


def test_a_function_that_extracts_a_derivative_stays_eager():
    def L(x, v):
        return (v[0] * v[0] + v[1] * v[1]) * (1 + x[0].extract((1, 0, 0, 0)) * x[0] * x[0])

    assert _record(L, np.array([0.1, 0.2]), np.array([1.0, 0.5]), 2)[1] is None


def test_a_function_that_returns_no_recorded_jet_stays_eager():
    def constant(x, v):
        return 2.0

    def foreign(x, v):
        return Jet.constant(x[0].space, 3.0) * v[0] * v[0]

    for L in (constant, foreign):
        out, program = _record(L, np.array([0.1, 0.2]), np.array([1.0, 0.5]), 2)
        assert program is None
    assert out.coeffs[0] == 3.0


@pytest.mark.parametrize(
    "mix",
    [
        lambda c, x: x * c,
        lambda c, x: c * x,
        lambda c, x: c + x,
        lambda c, x: c - x,
        lambda c, x: c / x,
    ],
    ids=["right", "left_mul", "left_add", "left_sub", "left_div"],
)
def test_a_value_read_through_a_jet_made_outside_the_recording_keeps_it_eager(mix):
    def L(x, v):
        q = v[0] * v[0] + v[1] * v[1]
        sign = mix(Jet.constant(x[0].space, 2.0), x[0]).value
        return q * (1 + x[0] * x[0]) if sign > 0 else q * (2 - x[1])

    assert _record(L, np.array([0.3, 0.2]), np.array([1.0, 0.5]), 2)[1] is None


class _Unreferenced:
    """A metric function that takes no weak reference."""

    __slots__ = ()

    def __call__(self, x, v):
        return (1 + x[0] * x[0]) * (v[0] * v[0] + v[1] * v[1])


def test_a_function_that_takes_no_weak_reference_is_evaluated_eagerly(monkeypatch):
    monkeypatch.setattr(geometry, "record", None)
    L = _Unreferenced()
    metric = MetricField("unreferenced", 2, L)
    v = np.array([0.3, -0.7])
    for x0 in (0.4, -0.2):
        x = np.array([x0, 0.2])
        got = _L_jet(metric, x, v, 2)
        np.testing.assert_array_equal(_bits(got.coeffs), _bits(_eager(L, x, v, 2).coeffs))


def _raised(func, *args):
    with pytest.raises((ValueError, ArithmeticError)) as info:
        func(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "L, bad",
    [
        (lambda x, v: jets.sqrt(x[0]) * v[0] * v[0], (0.0, -0.5)),
        (lambda x, v: v[0] * v[0] / x[0], (0.0,)),
        (lambda x, v: v[0] * v[0] * x[0] ** 2.5, (0.0, -0.5)),
        (lambda x, v: v[0] * v[0] * jets.log(x[0]), (0.0, -0.5)),
        (lambda x, v: v[0] * v[0] * x[0] ** -7, (0.0,)),
        (lambda x, v: v[0] * v[0] * x[0] ** 200000, (1.0035, 2.0)),
    ],
    ids=["sqrt", "division", "fractional_power", "log", "negative_power", "overflow"],
)
def test_a_replay_raises_the_eager_exception_and_message(L, bad):
    v = np.array([1.0, 0.5])
    _, program = _record(L, np.array([0.5, 0.2]), v, 2)
    assert program is not None
    for x0 in bad:
        x = np.array([x0, 0.2])
        want = _raised(_eager, L, x, v, 2)
        assert _raised(program.run, _rows(program.space, x, v)) == want


def test_a_sixth_power_replayed_at_a_zero_base_gives_the_eager_zeros():
    def L(x, v):
        return (v[0] * v[0] + v[1] * v[1]) * (1 + (x[0] * x[1]) ** 6 * x[1])

    v = np.array([1.0, 0.5])
    _, program = _record(L, np.array([0.5, 0.2]), v, 4)
    assert program is not None
    for x in ([0.0, 0.3], [0.4, 0.0], [0.0, 0.0]):
        x = np.array(x)
        got = program.run(_rows(program.space, x, v))
        np.testing.assert_array_equal(_bits(got.coeffs), _bits(_eager(L, x, v, 4).coeffs))
    # recorded at a zero base, the power's constant zero keeps L eager
    assert _record(L, np.array([0.0, 0.3]), v, 4)[1] is None


def test_programs_go_with_their_metrics():
    gc.collect()
    before = len(geometry._PROGRAMS)
    funcs = []
    for k in range(50):
        metric = parse_metric(f"dim = 2\nL = (1 + {0.01 * k}*x1^2)*(v1^2 + v2^2)\n")
        geodesic_shoot(metric, [0.1, 0.2], [0.3, 0.4], 0.5)
        assert geometry._PROGRAMS[metric.func]
        funcs.append(weakref.ref(metric.func))
    del metric
    gc.collect()
    assert all(ref() is None for ref in funcs)
    assert len(geometry._PROGRAMS) == before


_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__pow__", "_times", "_emit", "_compose", "sqrt", "exp", "log", "sin", "cos",
)


@pytest.mark.parametrize("metric", [builtin("funk", dim=3), parse_metric(_RANDERS)], ids=["funk", "randers_expr"])
def test_a_second_shoot_calls_no_jet_arithmetic(metric, monkeypatch):
    x0, v0 = [0.1, -0.2, 0.15], [0.3, 0.5, -0.2]
    geodesic_shoot(metric, x0, v0, 1.0)
    calls = []
    for name in _ARITHMETIC:
        method = getattr(Jet, name)

        def counted(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(Jet, name, counted)
    curve = geodesic_shoot(metric, x0, v0, 1.0)
    curve.acceleration(0.5)
    metric_blocks(metric, np.array(x0), np.array(v0), 2)
    assert calls == []
