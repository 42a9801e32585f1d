"""Covariant derivatives along curves, parallel transport, geodesics."""

import numpy as np
import pytest
from scipy.optimize import brentq

from finsler import curves
from finsler._dop853 import dop853
from finsler.curvature import covariant_acceleration
from finsler.curves import (
    CurvePath,
    FieldAlongCurve,
    TwoParamMap,
    _spray,
    cov_deriv_along,
    geodesic_residual,
    geodesic_shoot,
    mixed_derivative_commutation,
    parallel_transport,
)
from finsler.errors import DegenerateMetricError, DomainError, IntegrationError
from finsler.geometry import metric_blocks
from finsler.jets import Program
from finsler.metrics import MetricField, TangentSample, builtin, parse_metric, perturbed_riemannian
from finsler.verify import random_curve


def test_curve_velocity_and_acceleration_from_jets():
    curve = CurvePath.from_function(lambda t: [t * t, 2 * t + 1], (-1.0, 1.0))
    np.testing.assert_allclose(curve.position(0.5), [0.25, 2.0])
    np.testing.assert_allclose(curve.velocity(0.5), [1.0, 2.0])
    np.testing.assert_allclose(curve.acceleration(0.5), [2.0, 0.0])


def test_constant_curve_and_field_have_zero_derivatives():
    still = CurvePath.from_function(lambda t: [0.4, -0.2], (0.0, 1.0))
    np.testing.assert_array_equal(still.velocity(0.5), [0.0, 0.0])
    np.testing.assert_array_equal(still.acceleration(0.5), [0.0, 0.0])
    X = FieldAlongCurve.from_function(lambda t: [1.0, 2.0])
    np.testing.assert_array_equal(X.derivative(0.3), [0.0, 0.0])


def test_curve_component_count_must_match_dim():
    curve = CurvePath.from_function(lambda t: [t, t * t], (0.0, 1.0), dim=3)
    with pytest.raises(ValueError, match="expected 3 components"):
        curve.velocity(0.5)


def test_straight_line_constant_field_derivative_vanishes():
    m = builtin("euclidean", dim=2)
    line = CurvePath.from_function(lambda t: [t, 2 * t], (0.0, 1.0))
    W = FieldAlongCurve.from_constant([1.0, 1.0])
    X = FieldAlongCurve.from_constant([0.3, -0.7])
    np.testing.assert_allclose(cov_deriv_along(m, line, W, X, 0.5), 0.0, atol=1e-15)


def test_curve_derivative_leibniz_rule():
    m = perturbed_riemannian(2)
    curve = CurvePath.from_function(lambda t: [0.3 * t, 0.1 + t * t], (-1.0, 1.0))
    W = FieldAlongCurve.from_constant([0.8, 0.4])
    X = FieldAlongCurve.from_function(lambda t: [1 + t, t * t - 0.5])
    hX = FieldAlongCurve.from_function(lambda t: [(t * t) * (1 + t), (t * t) * (t * t - 0.5)])
    t0 = 0.4
    got = cov_deriv_along(m, curve, W, hX, t0)
    want = 2 * t0 * X.value(t0) + t0 * t0 * cov_deriv_along(m, curve, W, X, t0)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_curve_metric_derivative_identity():
    # d/dt g_W(X,Y) = g_W(DX,Y) + g_W(X,DY) + 2 C_W(DW,X,Y) at t0 = 0.2
    from finsler.geometry import metric_blocks

    m = builtin("funk", dim=2)
    gamma = lambda t: [0.1 + 0.3 * t, -0.2 + 0.1 * t + 0.2 * t * t]
    curve = CurvePath.from_function(gamma, (-0.5, 0.5))
    W = FieldAlongCurve.from_function(lambda t: [0.7 + 0.2 * t, 0.4 - 0.3 * t])
    X = FieldAlongCurve.from_function(lambda t: [1.0 + t, t * t - 0.3])
    Y = FieldAlongCurve.from_function(lambda t: [0.5 - t, 0.8 + 0.5 * t])

    t0 = 0.2
    x0 = curve.position(t0)
    w0 = W.value(t0)
    blocks = metric_blocks(m, x0, w0, order=3)
    from finsler.connection import christoffel

    G = christoffel(m, TangentSample(x0, w0)).Gamma
    vel = curve.velocity(t0)
    Xv, Yv = X.value(t0), Y.value(t0)
    dX, dY, dW = X.derivative(t0), Y.derivative(t0), W.derivative(t0)
    lhs = (
        float(Xv @ np.einsum("ijl,l->ij", blocks.dg_dx, vel) @ Yv)
        + 2.0 * float(np.einsum("qij,q,i,j->", blocks.C, dW, Xv, Yv))
        + float(dX @ blocks.g @ Yv)
        + float(Xv @ blocks.g @ dY)
    )
    DX = dX + np.einsum("kij,i,j->k", G, Xv, vel)
    DY = dY + np.einsum("kij,i,j->k", G, Yv, vel)
    DW = dW + np.einsum("kij,i,j->k", G, w0, vel)
    rhs = (
        float(DX @ blocks.g @ Yv)
        + float(Xv @ blocks.g @ DY)
        + 2.0 * float(np.einsum("ijk,i,j,k->", blocks.C, DW, Xv, Yv))
    )
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_degenerate_velocity_is_allowed_in_curve_derivative():
    m = builtin("euclidean", dim=2)
    still = CurvePath.from_function(lambda t: [0.1 + t * t * t, 0.2], (-1.0, 1.0))
    W = FieldAlongCurve.from_constant([1.0, 0.0])
    X = FieldAlongCurve.from_function(lambda t: [t, 1.0])
    out = cov_deriv_along(m, still, W, X, 0.0)  # velocity vanishes at t=0
    np.testing.assert_allclose(out, [1.0, 0.0])


# -- parallel transport ---------------------------------------------------------


def test_parallel_transport_euclidean_is_constant():
    m = builtin("euclidean", dim=2)
    curve = CurvePath.from_function(lambda t: [np.cos(t), np.sin(t)], (0.0, 2 * np.pi))
    W = FieldAlongCurve.from_constant([1.0, 1.0])
    X = parallel_transport(m, curve, W, [0.3, 0.4], 0.0, 5.0)
    np.testing.assert_allclose(X.value(5.0), [0.3, 0.4], atol=1e-10)


def test_sphere_holonomy_around_latitude_circle():
    m = builtin("sphere_round", dim=2)
    rho = 0.5  # chart radius; spherical polar angle from the chart's pole:
    theta = 2.0 * np.arctan(rho)
    curve = CurvePath.from_function(
        lambda t: [rho * np.cos(t), rho * np.sin(t)], (0.0, 2 * np.pi)
    )
    W = FieldAlongCurve.from_function(lambda t: [-rho * np.sin(t), rho * np.cos(t)])
    x0 = np.array([0.6, 0.2])
    X = parallel_transport(m, curve, W, x0, 0.0, 2 * np.pi)
    xT = X.value(2 * np.pi)
    # conformal chart: metric angles equal euclidean angles
    cross = x0[0] * xT[1] - x0[1] * xT[0]
    angle = np.arctan2(cross, np.dot(x0, xT))
    expected = 2 * np.pi * (1 - np.cos(theta))
    expected = min(expected % (2 * np.pi), 2 * np.pi - expected % (2 * np.pi))
    assert abs(abs(angle) - expected) <= 1e-7


def test_transport_preserves_norm_along_geodesic():
    m = builtin("sphere_round", dim=2)
    geo = geodesic_shoot(m, [1.0, 0.0], [0.0, 1.0], 2 * np.pi, tol=1e-10)
    W = FieldAlongCurve(value=geo.velocity, derivative=geo.acceleration)
    X = parallel_transport(m, geo, W, [0.2, -0.5], 0.0, 2 * np.pi)
    from finsler.geometry import metric_blocks

    norms = []
    for t in np.linspace(0.0, 2 * np.pi, 9):
        g = metric_blocks(m, geo.position(t), geo.velocity(t), order=2).g
        xv = X.value(t)
        norms.append(float(xv @ g @ xv))
    norms = np.array(norms)
    assert np.abs(norms - norms[0]).max() <= 1e-8 * abs(norms[0])


@pytest.mark.parametrize("reference", [[1.0, 0.0], [-1.0, 0.0]])
def test_transport_ends_in_integration_error_for_either_reference(reference):
    # along (t, 0.2) near funk's boundary, g_W for W = [1, 0] degenerates
    # (condition number ~ 2 / (1 - |x|^2)) before the curve leaves the
    # ball; for W = [-1, 0] it stays near 2 and the domain check stops it
    m = builtin("funk", dim=2)
    line = CurvePath(
        (0.0, 1.5),
        lambda t: np.array([t, 0.2]),
        lambda t: np.array([1.0, 0.0]),
        lambda t: np.zeros(2),
    )
    with pytest.raises(IntegrationError) as info:
        parallel_transport(m, line, FieldAlongCurve.from_constant(reference), [0.2, -0.5], 0.0, 1.5)
    cause = DegenerateMetricError if reference[0] > 0 else DomainError
    assert isinstance(info.value.__cause__, cause)


def test_transport_stops_where_the_reference_point_leaves_the_domain():
    # the line (t, 0.2) leaves funk's unit ball at t = sqrt(0.96) ~ 0.98; the
    # inward reference -gamma(t) keeps g_W well conditioned up to the boundary
    m = builtin("funk", dim=2)
    line = CurvePath(
        (0.0, 1.5),
        lambda t: np.array([t, 0.2]),
        lambda t: np.array([1.0, 0.0]),
        lambda t: np.zeros(2),
    )
    W = FieldAlongCurve(lambda t: -np.array([t, 0.2]), lambda t: np.array([-1.0, 0.0]))
    with pytest.raises(IntegrationError, match="reference field left the domain at t=") as info:
        parallel_transport(m, line, W, [0.2, -0.5], 0.0, 1.5)
    assert isinstance(info.value.__cause__, DomainError)
    t_exit = float(str(info.value).rsplit("t=", 1)[1])
    assert np.sqrt(0.96) <= t_exit <= 1.5


# -- geodesics -------------------------------------------------------------------


def _randers_expression(n):
    # the benchmark's Randers metric, generalised to dimension n
    a = " + ".join(f"(1 + 0.2*x{i}^2)*v{i}^2" for i in range(1, n + 1))
    b = " + ".join(f"{0.3 / i:.3g}*v{i}/(1 + x{i % n + 1}^2)" for i in range(1, n + 1))
    return parse_metric(f"dim = {n}\nL = (sqrt({a} + 0.2*v1*v2/(1 + x{n}^2)) + {b})^2\n")


def _split_expression(n):
    # split signature (1, n - 1) times an x-dependent conformal factor
    rest = "".join(f" + v{i}^2" for i in range(3, n + 1))
    return parse_metric(f"dim = {n}\nL = exp(0.3*x1 - 0.2*x2) * (2*v1*v2{rest})\n")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_order2_spray_matches_order3_formula(n):
    # -1/2 g^-1 (L_xy v - L_x) against the formal symbols contracted twice,
    # -g^-1 (dg_dx[k,i,j] v^i v^j - 1/2 dg_dx[i,j,k] v^i v^j)
    metrics = [builtin(name, dim=n) for name in ("euclidean", "minkowski_quartic", "sphere_round", "hyperbolic", "funk")]
    metrics += [perturbed_riemannian(n), _randers_expression(n), _split_expression(n)]
    if n == 2:
        metrics.append(parse_metric("dim = 2\nname = split\nL = 2*v1*v2\ndomain = v1*v2\n"))
    rng = np.random.default_rng(n)
    for m in metrics:
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, m.dim)
            v = rng.uniform(0.1, 1.0, m.dim) * rng.choice([-1.0, 1.0])
            b = metric_blocks(m, x, v, order=3)
            dg = b.dg_dx
            rhs = np.einsum("kij,i,j->k", dg, v, v) - 0.5 * np.einsum("ijk,i,j->k", dg, v, v)
            old = -np.linalg.solve(b.g, rhs)
            new = _spray(m, x, v)
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-13 * np.abs(old).max(), err_msg=m.name)


def test_great_circle_matches_closed_form():
    # stereographic image of p(t) = cos t a + sin t b, a unit-speed great
    # circle whose plane is tilted 60 degrees from the equator (|x| <= 3.7)
    m = builtin("sphere_round", dim=2)
    normal = np.array([0.6, np.sqrt(0.75 - 0.36), 0.5])
    a = np.cross(normal, [1.0, 0.0, 0.0])
    a /= np.linalg.norm(a)
    b = np.cross(normal, a)

    def chart(t):
        p = np.cos(t) * a + np.sin(t) * b
        dp = -np.sin(t) * a + np.cos(t) * b
        x = p[:2] / (1.0 - p[2])
        return x, (dp[:2] * (1.0 - p[2]) + p[:2] * dp[2]) / (1.0 - p[2]) ** 2

    x0, v0 = chart(0.0)
    curve = geodesic_shoot(m, x0, v0, 2 * np.pi, tol=1e-10)
    for t in np.linspace(0.0, 2 * np.pi, 41):
        x, v = chart(t)
        assert np.abs(curve.position(t) - x).max() <= 1e-8 * max(1.0, np.abs(x).max())
        assert np.abs(curve.velocity(t) - v).max() <= 1e-8 * max(1.0, np.abs(v).max())


def test_euclidean_geodesics_are_straight_lines():
    m = builtin("euclidean", dim=2)
    curve = geodesic_shoot(m, [1.0, -2.0], [0.5, 0.25], 4.0, tol=1e-10)
    for t in (0.0, 1.3, 4.0):
        np.testing.assert_allclose(
            curve.position(t), [1.0 + 0.5 * t, -2.0 + 0.25 * t], atol=1e-12
        )
    assert geodesic_residual(m, curve, np.linspace(0, 4, 7)) <= 1e-12


def test_geodesic_residual_is_the_largest_covariant_acceleration():
    m = builtin("funk", dim=2)
    curve = CurvePath.from_function(lambda t: [0.1 + 0.3 * t, -0.2 + 0.4 * t * t], (0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 5)
    expected = max(float(np.abs(covariant_acceleration(m, curve, t)).max()) for t in ts)
    assert expected > 0.1
    assert geodesic_residual(m, curve, ts) == expected
    assert geodesic_residual(m, curve, []) == 0.0


def test_great_circle_period_on_round_sphere():
    m = builtin("sphere_round", dim=2)
    x0 = np.array([1.0, 0.0])
    v0 = np.array([0.0, 1.0])  # unit speed on the equator of the chart
    curve = geodesic_shoot(m, x0, v0, 7.0, tol=1e-10)

    def radial(t):
        return float((curve.position(t) - x0) @ curve.velocity(t))

    period = brentq(radial, 2 * np.pi - 0.5, 2 * np.pi + 0.5, xtol=1e-12)
    assert abs(period - 2 * np.pi) <= 1e-6
    assert np.linalg.norm(curve.position(period) - x0) <= 1e-6


def test_funk_geodesics_from_center_are_rays():
    m = builtin("funk", dim=2)
    v0 = np.array([0.6, 0.8])
    curve = geodesic_shoot(m, [0.0, 0.0], 0.3 * v0, 3.0, tol=1e-10)
    direction = v0 / np.linalg.norm(v0)
    for t in np.linspace(0.2, 3.0, 8):
        x = curve.position(t)
        off_ray = x - (x @ direction) * direction
        assert np.linalg.norm(off_ray) <= 1e-9
        assert x @ direction > 0


def test_geodesic_energy_conservation_all_builtins():
    cases = [
        ("euclidean", [0.2, 0.1], [0.7, -0.4]),
        ("minkowski_quartic", [0.0, 0.0], [0.9, 0.7]),
        ("sphere_round", [0.4, -0.1], [0.5, 0.6]),
        ("hyperbolic", [0.2, 0.1], [0.4, -0.3]),
        ("funk", [0.1, -0.2], [0.25, 0.2]),
    ]
    for name, x0, v0 in cases:
        m = builtin(name, dim=2)
        curve = geodesic_shoot(m, x0, v0, 5.0, tol=1e-9)
        L0 = m.value(curve.position(0.0), curve.velocity(0.0))
        drift = max(
            abs(m.value(curve.position(t), curve.velocity(t)) - L0)
            for t in np.linspace(0.0, 5.0, 11)
        )
        assert drift <= 1e-8 * abs(L0), name


def test_geodesic_reparametrization_scaling():
    m = builtin("funk", dim=2)
    x0 = [0.1, 0.05]
    v0 = np.array([0.3, -0.2])
    lam = 1.7
    base = geodesic_shoot(m, x0, v0, 1.5, tol=1e-11)
    scaled = geodesic_shoot(m, x0, lam * v0, 1.5 / lam, tol=1e-11)
    for t in np.linspace(0.0, 1.5, 6):
        np.testing.assert_allclose(
            scaled.position(t / lam), base.position(t), atol=1e-7
        )


def test_geodesic_requires_nonzero_velocity_and_domain():
    m = builtin("funk", dim=2)
    with pytest.raises(DomainError):
        geodesic_shoot(m, [0.0, 0.0], [0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        geodesic_shoot(m, [2.0, 0.0], [1.0, 0.0], 1.0)


def test_integration_stops_when_leaving_domain():
    m = parse_metric("dim = 2\nL = v1*v1 + v2*v2\ndomain = 0.25 - x1*x1 - x2*x2\n")
    with pytest.raises(IntegrationError, match="geodesic left the domain"):
        geodesic_shoot(m, [0.0, 0.0], [1.0, 0.0], 2.0)


def _assert_array_reads_equal_scalar_reads(curve, ts):
    for read in (curve.position, curve.velocity):
        columns = read(ts)
        assert columns.shape == (len(read(ts[0])), len(ts))
        for k, t in enumerate(ts):
            np.testing.assert_array_equal(columns[:, k], read(t))


@pytest.mark.parametrize("T", [2.0, -2.0])
def test_geodesic_array_reads_equal_scalar_reads(T):
    m = builtin("sphere_round", dim=3)
    curve = geodesic_shoot(m, [0.1, -0.2, 0.15], [0.3, 0.5, -0.2], T)
    # both ends, interior times and an unsorted order
    ts = np.concatenate([np.linspace(T, 0.0, 23), [0.5 * T, 0.0, T / 3]])
    _assert_array_reads_equal_scalar_reads(curve, ts)


def test_function_and_sweep_curve_array_reads_equal_scalar_reads():
    ts = np.linspace(-1.0, 1.0, 9)[::-1]
    jet_curve = CurvePath.from_function(lambda t: [0.1 + 0.3 * t, -0.2 + 0.4 * t * t, 0.5], (-1.0, 1.0))
    sample = TangentSample([0.1, -0.2], [0.3, 0.5])
    for curve in (jet_curve, random_curve(np.random.default_rng(3), sample)):
        _assert_array_reads_equal_scalar_reads(curve, ts)
        assert curve.position(ts[:0]).shape == (len(curve.position(0.0)), 0)


def test_each_geodesic_rhs_replays_L_once_and_checks_its_sample_once(monkeypatch):
    counts = {"rhs": 0, "L": 0, "replay": 0, "check_sample": 0}
    base = builtin("funk", dim=2)

    def L(x, v):
        counts["L"] += 1
        return base.func(x, v)

    def counted_dop853(fun, *args):
        def rhs(t, y):
            counts["rhs"] += 1
            return fun(t, y)

        return dop853(rhs, *args)

    check_sample = MetricField.check_sample

    def counted_check_sample(self, x, v):
        counts["check_sample"] += 1
        return check_sample(self, x, v)

    replay = Program.run

    def counted_replay(self, rows):
        counts["replay"] += 1
        return replay(self, rows)

    monkeypatch.setattr(curves, "dop853", counted_dop853)
    monkeypatch.setattr(Program, "run", counted_replay)
    monkeypatch.setattr(MetricField, "check_sample", counted_check_sample)
    m = MetricField("funk", 2, L, base.predicate)
    geodesic_shoot(m, [0.1, -0.2], [0.3, 0.5], 1.5)
    assert counts["rhs"] > 50
    # L is recorded on the first right-hand side and replayed once on each
    # later one; the shot's start is checked once before the integration
    rhs = counts["rhs"]
    assert counts == {"rhs": rhs, "L": 1, "replay": rhs - 1, "check_sample": rhs + 1}


def test_curve_admissibility_grid_check():
    m = builtin("funk", dim=2)
    exits = CurvePath.from_function(lambda t: [t, 0.0], (0.0, 2.0))
    with pytest.raises(DomainError):
        exits.check_admissible(m, np.linspace(0.0, 2.0, 11))


# -- two-parameter maps ----------------------------------------------------------


def test_two_param_map_partials():
    lam = TwoParamMap(lambda t, s: [t * s, t + s * s], (-1, 1), (-1, 1))
    p = lam.partials(0.3, 0.5)
    np.testing.assert_allclose(p["value"], [0.15, 0.55])
    np.testing.assert_allclose(p["d_t"], [0.5, 1.0])
    np.testing.assert_allclose(p["d_s"], [0.3, 1.0])
    np.testing.assert_allclose(p["d_ts"], [1.0, 0.0])
    np.testing.assert_allclose(p["d_ss"], [0.0, 2.0])


def test_mixed_derivative_commutation_euclidean_and_riemannian():
    lam = TwoParamMap(
        lambda t, s: [0.1 + t + 0.2 * t * s, 0.3 * s + 0.1 * t * t], (-1, 1), (-1, 1)
    )
    m = builtin("euclidean", dim=2)
    assert mixed_derivative_commutation(m, lam, lambda t, s: np.array([1.0, 0.5]), 0.2, -0.3) == 0.0
    mr = perturbed_riemannian(2)
    resid = mixed_derivative_commutation(mr, lam, lambda t, s: np.array([1.0, 0.5]), 0.2, -0.3)
    assert resid <= 1e-10
    # swapped parameter roles give the same residual scale
    swapped = TwoParamMap(lambda t, s: lam.func(s, t), (-1, 1), (-1, 1))
    resid2 = mixed_derivative_commutation(mr, swapped, lambda t, s: np.array([1.0, 0.5]), -0.3, 0.2)
    assert resid2 <= 1e-10


def test_cov_deriv_rejects_inadmissible_reference():
    m = builtin("funk", dim=2)
    line = CurvePath.from_function(lambda t: [1.5 + 0.1 * t, 0.0], (0.0, 1.0))
    W = FieldAlongCurve.from_constant([1.0, 0.0])
    X = FieldAlongCurve.from_constant([1.0, 0.0])
    with pytest.raises(DomainError):
        cov_deriv_along(m, line, W, X, 0.0)  # base point outside the ball
