"""Curvature: field tensor, hh block, curve operator, flag curvature."""

import numpy as np
import pytest

from finsler.connection import VectorFieldOnChart, _christoffel, _covariant, christoffel_with_partials, nabla
from finsler.curvature import (
    _curvature_field_derivatives,
    _h,
    _r_along_curve,
    _r_along_curve_direct,
    b_tensor,
    covariant_acceleration,
    curvature_field,
    curvature_field_nested,
    field_curvature_block,
    flag_curvature,
    flag_curvature_predecessor,
    h_tensor,
    hh_curvature,
    jacobi_operator,
    nabla_cartan,
    r_along_curve,
    r_along_curve_direct,
)
from finsler.curves import (
    CurvePath,
    FieldAlongCurve,
    TwoParamMap,
    _commutation,
    cov_deriv_along,
    geodesic_shoot,
    mixed_derivative_commutation,
)
from finsler.errors import DomainError
from finsler.metrics import TangentSample, builtin, perturbed_riemannian
from finsler.verify import (
    _admissible_vector,
    default_metrics,
    extension_field,
    random_curve,
    random_curve_field,
    random_polynomial_field,
    sample_tangent,
)

from oracles import (
    funk_flag_curvature_mp,
    perturbation_matrix,
    riemann_tensor,
    sectional_curvature,
)


def _fields(rng, n, x0, count):
    return [random_polynomial_field(rng, n, 2, center=x0) for _ in range(count)]


def test_curvature_field_vanishes_for_euclidean():
    m = builtin("euclidean", dim=2)
    rng = np.random.default_rng(0)
    x = np.array([0.3, -0.4])
    V = extension_field(x, np.array([1.0, 0.5]), rng.uniform(-1, 1, (2, 2)))
    X, Y, Z = _fields(rng, 2, x, 3)
    np.testing.assert_allclose(curvature_field(m, V, X, Y, Z, x), 0.0, atol=1e-14)


def test_curvature_field_matches_riemann_oracle():
    m = perturbed_riemannian(2)
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = rng.uniform(-0.5, 0.5, 2)
        V = extension_field(x, rng.uniform(0.3, 1.0, 2), rng.uniform(-1, 1, (2, 2)))
        X, Y, Z = _fields(rng, 2, x, 3)
        got = curvature_field(m, V, X, Y, Z, x)
        A, dA, d2A = perturbation_matrix(x)
        R, _ = riemann_tensor(A, dA, d2A)
        want = np.einsum(
            "ijkl,k,l,j->i", R, X.value(x), Y.value(x), Z.value(x)
        )
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_curvature_field_antisymmetry_exact():
    m = builtin("funk", dim=2)
    rng = np.random.default_rng(2)
    x = np.array([0.2, 0.25])
    V = extension_field(x, np.array([0.6, -0.3]), rng.uniform(-1, 1, (2, 2)))
    X, Y, Z = _fields(rng, 2, x, 3)
    fwd = curvature_field(m, V, X, Y, Z, x)
    rev = curvature_field(m, V, Y, X, Z, x)
    np.testing.assert_allclose(fwd + rev, 0.0, atol=1e-12)


def test_nested_derivative_path_agrees_with_tensorial_path():
    rng = np.random.default_rng(3)
    cases = [
        (builtin("funk", dim=2), 2),
        (builtin("minkowski_quartic", dim=2), 2),
        (perturbed_riemannian(2), 2),
        (builtin("funk", dim=3), 3),
    ]
    for m, dim in cases:
        x = rng.uniform(-0.2, 0.2, dim)
        V = extension_field(
            x, rng.uniform(0.4, 0.9, dim), rng.uniform(-1, 1, (dim, dim)),
            quad=rng.uniform(-1, 1, (dim, dim, dim)),
        )
        X, Y, Z = _fields(rng, dim, x, 3)
        a = curvature_field(m, V, X, Y, Z, x)
        b = curvature_field_nested(m, V, X, Y, Z, x)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


# -- the outer derivative of the curvature field ---------------------------------


def _bianchi_draw(m, rng):
    """A sample point, a reference extension V through the sample's vector
    and four random fields there, as the sweep's heavy samples draw them."""
    n = m.dim
    s = sample_tangent(m, rng, (-0.6, 0.6))
    V = extension_field(s.x, s.v, rng.uniform(-1, 1, (n, n)), quad=rng.uniform(-1, 1, (n, n, n)))
    return s.x, V, [random_polynomial_field(rng, n, 3, center=s.x) for _ in range(4)]


def _stencil_derivative(m, V, fields, x0, A, h):
    """The derivative along A of R^V(X, Y)Z at x0 by the fourth-order central
    stencil on curvature_field, with error O(h^4)."""
    norm = np.linalg.norm(A)
    T = [curvature_field(m, V, *fields, x0 + k * h * (A / norm)) for k in (-2.0, -1.0, 1.0, 2.0)]
    return (T[0] - 8.0 * T[1] + 8.0 * T[2] - T[3]) / (12.0 * h) * norm


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exact_curvature_derivative_agrees_with_the_stencil_within_its_error(dim):
    # The stencil's error is its h^4 term, which |D(2h) - D(h)| / 15
    # estimates (Richardson).  On every family the exact derivative missed
    # D(h) by 0.99-1.00 of that estimate, so the bound is 2x the estimate
    # plus 1e-12 relative for the stencil's roundoff (about eps / h).
    rng = np.random.default_rng(40 + dim)
    for m in default_metrics(dim):
        for _ in range(3):
            x0, V, (X, *fields) = _bianchi_draw(m, rng)
            A = X.value(x0)
            (exact,) = _curvature_field_derivatives(m, V, x0, [(A, *fields)])
            d1 = _stencil_derivative(m, V, fields, x0, A, 0.002)
            d2 = _stencil_derivative(m, V, fields, x0, A, 0.004)
            bound = 2.0 * np.abs(d2 - d1).max() / 15.0 + 1e-12 * np.abs(exact).max()
            assert np.abs(exact - d1).max() <= bound, m.name


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("name", ["euclidean", "sphere_round"])
def test_the_curvature_of_a_constant_curvature_metric_is_parallel(name, dim):
    # Riemannian with R = K (g(Y, Z)X - g(X, Z)Y) and nabla g = 0, so every
    # term (nabla_A R)(B1, B2)W vanishes, whatever the reference field; it
    # read at most 1e-15 of its largest part at dims 2-4
    m = builtin(name, dim=dim)
    rng = np.random.default_rng(50 + dim)
    for _ in range(4):
        x0, V, (X, B1, B2, W) = _bianchi_draw(m, rng)
        A = X.value(x0)
        (dT,) = _curvature_field_derivatives(m, V, x0, [(A, B1, B2, W)])
        cp = christoffel_with_partials(m, x0, V.value(x0))
        Rc = field_curvature_block(cp, V.jacobian(x0))

        def R(*slots):
            return np.einsum("kabc,a,b,c->k", Rc, *slots)

        b1, b2, w = (F.value(x0) for F in (B1, B2, W))
        nb1, nb2, nw = (_covariant(cp.Gamma, F.jacobian(x0) @ A, A, F.value(x0)) for F in (B1, B2, W))
        terms = [
            dT,
            np.einsum("kij,i,j->k", cp.Gamma, A, R(b1, b2, w)),
            -R(nb1, b2, w),
            -R(b1, nb2, w),
            -R(b1, b2, nw),
        ]
        scale = max(np.abs(t).max() for t in terms)
        assert np.abs(sum(terms)).max() <= 1e-13 * scale


# -- covariant derivative of the Cartan tensor ----------------------------------


def test_nabla_cartan_vanishes_for_riemannian():
    m = perturbed_riemannian(2)
    rng = np.random.default_rng(4)
    x = np.array([0.1, 0.4])
    V = extension_field(x, np.array([0.8, 0.1]), rng.uniform(-1, 1, (2, 2)))
    X, Y, Z, W = _fields(rng, 2, x, 4)
    assert nabla_cartan(m, V, X, Y, Z, W, x) == pytest.approx(0.0, abs=1e-13)


def test_nabla_cartan_flagpole_slot_identity():
    m = builtin("funk", dim=2)
    rng = np.random.default_rng(5)
    x = np.array([0.22, -0.18])
    v0 = np.array([0.9, 0.35])
    V = extension_field(x, v0, rng.uniform(-1, 1, (2, 2)))
    X, Z, W = _fields(rng, 2, x, 3)
    Vslot = VectorFieldOnChart.constant(v0)
    lhs = nabla_cartan(m, V, X, Vslot, Z, W, x)
    from finsler.geometry import cartan_tensor

    C = cartan_tensor(m, TangentSample(x, v0))
    nXV = nabla(m, V, X, V, x)
    rhs = -float(np.einsum("ijk,i,j,k->", C, nXV, Z.value(x), W.value(x)))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_nabla_cartan_symmetric_in_last_three_slots():
    m = builtin("minkowski_quartic", dim=2)
    rng = np.random.default_rng(6)
    x = np.array([0.3, 0.1])
    V = extension_field(x, np.array([1.0, 0.8]), rng.uniform(-1, 1, (2, 2)))
    X, Y, Z, W = _fields(rng, 2, x, 4)
    vals = [
        nabla_cartan(m, V, X, Y, Z, W, x),
        nabla_cartan(m, V, X, Z, Y, W, x),
        nabla_cartan(m, V, X, W, Z, Y, x),
    ]
    assert max(vals) - min(vals) <= 1e-10 * max(1.0, abs(vals[0]))


# -- B tensor --------------------------------------------------------------------


def test_b_tensor_riemannian_and_symmetries():
    mr = perturbed_riemannian(2)
    rng = np.random.default_rng(7)
    x = np.array([0.05, -0.35])
    V = extension_field(x, np.array([0.6, 0.6]), rng.uniform(-1, 1, (2, 2)))
    X, Y, Z, W = _fields(rng, 2, x, 4)
    assert b_tensor(mr, V, X, Y, Z, W, x) == pytest.approx(0.0, abs=1e-12)

    m = builtin("funk", dim=2)
    V = extension_field(x, np.array([0.6, 0.6]), rng.uniform(-1, 1, (2, 2)))
    b1 = b_tensor(m, V, X, Y, Z, W, x)
    b2 = b_tensor(m, V, Y, X, Z, W, x)
    b3 = b_tensor(m, V, X, Y, W, Z, x)
    scale = max(abs(b1), 1e-3)
    assert abs(b1 + b2) <= 1e-10 * scale  # antisymmetric in the first pair
    assert abs(b1 - b3) <= 1e-10 * scale  # symmetric in the last pair


# -- hh block ---------------------------------------------------------------------


def test_hh_curvature_euclidean_zero_and_antisymmetry():
    m = builtin("euclidean", dim=2)
    R = hh_curvature(m, TangentSample([0.2, 0.3], [1.0, 2.0]))
    np.testing.assert_allclose(R, 0.0, atol=1e-14)

    mf = builtin("funk", dim=3)
    R = hh_curvature(mf, TangentSample([0.2, 0.0, -0.1], [0.5, 0.7, -0.2]))
    np.testing.assert_allclose(R, -R.transpose(0, 1, 3, 2), atol=1e-14)


def test_hh_curvature_matches_riemann_oracle():
    # calibration of sign and slot order on the near-euclidean perturbation
    m = perturbed_riemannian(2)
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = rng.uniform(-0.5, 0.5, 2)
        v = rng.uniform(0.3, 1.0, 2)
        R4 = hh_curvature(m, TangentSample(x, v))
        A, dA, d2A = perturbation_matrix(x)
        R_oracle, _ = riemann_tensor(A, dA, d2A)
        np.testing.assert_allclose(R4, R_oracle, rtol=1e-9, atol=1e-11)


def test_jacobi_operator_constant_curvature_form():
    # on the round sphere R(v,u)v-form: J(u) = g(v,v) u - g(v,u) v
    m = builtin("sphere_round", dim=2)
    s = TangentSample([0.3, -0.2], [0.7, 0.6])
    u = np.array([-0.4, 0.9])
    from finsler.geometry import fundamental_tensor

    g = fundamental_tensor(m, s)
    got = jacobi_operator(m, s, u)
    want = float(s.v @ g @ s.v) * u - float(s.v @ g @ u) * s.v
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_field_curvature_of_a_horizontally_parallel_reference_is_the_jacobi_operator(dim):
    # the paper's statement at a point: for a reference field V with V(x) = v
    # and Jacobian -N there, R^V(u, v)v is the Chern Jacobi operator, whatever
    # V's second derivatives; a generic Jacobian gives another operator
    rng = np.random.default_rng(40 + dim)
    for m in default_metrics(dim):
        for _ in range(3):
            s = sample_tangent(m, rng, (-0.5, 0.5))
            u = VectorFieldOnChart.constant(rng.uniform(-1.0, 1.0, dim))
            v = VectorFieldOnChart.constant(s.v)
            want = jacobi_operator(m, s, u.value(s.x))
            N = christoffel_with_partials(m, s.x, s.v).N
            quad = rng.uniform(-1.0, 1.0, (dim, dim, dim))
            V = extension_field(s.x, s.v, -N, quad=quad)
            got = curvature_field(m, V, u, v, v, s.x)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), m.name
            if m.name == "funk":
                generic = extension_field(s.x, s.v, rng.uniform(-1.0, 1.0, (dim, dim)), quad=quad)
                other = curvature_field(m, generic, u, v, v, s.x)
                assert np.abs(other - want).max() >= 1e-4 * np.abs(want).max()


# -- curvature along curves --------------------------------------------------------


def test_h_tensor_zero_on_geodesics_and_symmetric():
    m = builtin("funk", dim=2)
    geo = geodesic_shoot(m, [0.1, -0.1], [0.3, 0.25], 1.0, tol=1e-11)
    u = np.array([0.2, 0.9])
    w = np.array([-0.6, 0.3])
    assert np.abs(h_tensor(m, geo, 0.5, u, w)).max() <= 1e-8

    bent = CurvePath.from_function(
        lambda t: [0.1 + 0.4 * t + 0.3 * t * t, -0.1 + 0.2 * t - 0.25 * t * t],
        (-1.0, 1.0),
    )
    H_uw = h_tensor(m, bent, 0.2, u, w)
    H_wu = h_tensor(m, bent, 0.2, w, u)
    assert np.abs(H_uw).max() > 1e-4  # genuinely non-geodesic
    np.testing.assert_allclose(H_uw, H_wu, atol=1e-14)


def test_h_tensor_vanishes_for_riemannian_even_off_geodesics():
    m = perturbed_riemannian(2)
    bent = CurvePath.from_function(
        lambda t: [0.2 * t + 0.3 * t * t, 0.1 - 0.2 * t], (-1.0, 1.0)
    )
    H = h_tensor(m, bent, 0.1, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(H, 0.0, atol=1e-13)


def test_r_along_curve_euclidean_zero():
    m = builtin("euclidean", dim=2)
    line = CurvePath.from_function(lambda t: [t, 1.0 - t], (0.0, 1.0))
    out = r_along_curve(m, line, 0.3, np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_r_along_curve_constant_curvature_on_sphere_geodesic():
    m = builtin("sphere_round", dim=2)
    geo = geodesic_shoot(m, [0.5, 0.1], [0.4, -0.3], 1.0, tol=1e-11)
    t0 = 0.4
    x, v = geo.position(t0), geo.velocity(t0)
    from finsler.geometry import fundamental_tensor

    g = fundamental_tensor(m, TangentSample(x, v))
    u = np.array([0.8, 0.15])
    got = r_along_curve(m, geo, t0, u, u)
    want = float(u @ g @ u) * v - float(v @ g @ u) * u  # K=1: R(v,u)u
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)


def test_direct_two_parameter_path_matches_decomposition():
    rng = np.random.default_rng(9)
    for name, dim in (("funk", 2), ("funk", 3), ("minkowski_quartic", 2)):
        m = builtin(name, dim=dim)
        for _ in range(4):
            s = sample_tangent(m, rng, (-0.4, 0.4))
            curve = random_curve(rng, s)
            u = rng.uniform(-1.0, 1.0, dim)
            w = rng.uniform(-1.0, 1.0, dim)
            a = r_along_curve(m, curve, 0.0, u, w)
            b = r_along_curve_direct(m, curve, 0.0, u, w, rng=rng)
            scale = max(np.abs(a).max(), np.abs(b).max(), 1e-2)
            assert np.abs(a - b).max() <= 1e-8 * scale


def test_direct_path_insensitive_to_free_jet_data():
    m = builtin("funk", dim=2)
    rng = np.random.default_rng(10)
    s = sample_tangent(m, rng, (-0.4, 0.4))
    curve = random_curve(rng, s)
    u = np.array([0.3, -0.8])
    w = np.array([1.1, 0.2])
    base = r_along_curve_direct(m, curve, 0.0, u, w, rng=None)
    for _ in range(3):
        noisy = r_along_curve_direct(m, curve, 0.0, u, w, rng=rng)
        np.testing.assert_allclose(noisy, base, rtol=1e-9, atol=1e-12)


def test_extension_independence_of_chart_field_realization():
    # a chart extension matching the variational first-order data reproduces
    # the curve-wise operator
    rng = np.random.default_rng(11)
    for name in ("funk", "sphere_round", "minkowski_quartic"):
        m = builtin(name, dim=2)
        s = sample_tangent(m, rng, (-0.4, 0.4))
        curve = random_curve(rng, s)
        x0, v0 = s.x, s.v
        u = np.array([0.7, -0.5])
        w = np.array([-0.2, 0.9])
        want = r_along_curve(m, curve, 0.0, u, w)
        from finsler.connection import christoffel
        from finsler.verify import _extension_jacobian

        G = christoffel(m, s).Gamma
        udot = -np.einsum("kij,i,j->k", G, u, v0)
        J = _extension_jacobian(rng, v0, u, curve.acceleration(0.0), udot, 2)
        V = extension_field(x0, v0, J, quad=rng.uniform(-1, 1, (2, 2, 2)))
        U = extension_field(x0, u, rng.uniform(-1, 1, (2, 2)))
        W = extension_field(x0, w, rng.uniform(-1, 1, (2, 2)))
        got = curvature_field(m, V, V, U, W, x0)
        scale = max(np.abs(want).max(), 1e-2)
        assert np.abs(got - want).max() <= 1e-8 * scale, name


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("name", ["funk", "riemannian_perturbation"])
def test_public_curve_helpers_equal_their_held_value_bodies(name, dim):
    # the verification sweep calls the bodies on the records it holds; each
    # public helper must give the same bits from its own evaluation
    m = builtin(name, dim=dim)
    rng = np.random.default_rng(dim)
    s = sample_tangent(m, rng, (-0.4, 0.4))
    curve = random_curve(rng, s)
    u, w = rng.uniform(-1.0, 1.0, (2, dim))
    x, v, acc = curve.position(0.0), curve.velocity(0.0), curve.acceleration(0.0)
    G = _christoffel(m, x, v).Gamma
    cp = christoffel_with_partials(m, x, v)
    cov_acc = _covariant(cp.Gamma, acc, v, v)
    eq = np.testing.assert_array_equal

    eq(covariant_acceleration(m, curve, 0.0), _covariant(G, acc, v, v))
    eq(h_tensor(m, curve, 0.0, u, w), _h(cp, cov_acc, u, w))
    eq(r_along_curve(m, curve, 0.0, u, w), _r_along_curve(v, cp, cov_acc, u, w))
    direct = r_along_curve_direct(m, curve, 0.0, u, w, rng=np.random.default_rng(5))
    eq(direct, _r_along_curve_direct(cp, acc, u, w, np.random.default_rng(5)))

    W = random_curve_field(rng, dim, _admissible_vector(m, rng, x))
    X = random_curve_field(rng, dim, u)
    Gw = _christoffel(m, x, W.value(0.0)).Gamma
    along = _covariant(Gw, X.derivative(0.0), X.value(0.0), v)
    eq(cov_deriv_along(m, curve, W, X, 0.0), along)

    c = rng.uniform(-0.5, 0.5, (dim, 3))
    lam = TwoParamMap(
        lambda t, s_: [x[i] + t * c[i, 0] + s_ * c[i, 1] + (t * s_) * c[i, 2] for i in range(dim)],
        (-0.5, 0.5),
        (-0.5, 0.5),
        dim=dim,
    )
    p = lam.partials(0.0, 0.0)
    want = _commutation(_christoffel(m, p["value"], v).Gamma, p)
    assert mixed_derivative_commutation(m, lam, lambda t, s_: v, 0.0, 0.0) == want

    V = extension_field(x, v, rng.uniform(-1.0, 1.0, (dim, dim)))
    Xf, Yf = (random_polynomial_field(rng, dim, 2, center=x) for _ in range(2))
    Xv, JY = Xf.value(x), Yf.jacobian(x)
    eq(nabla(m, V, Xf, Yf, x), _covariant(G, JY @ Xv, Xv, Yf.value(x)))


# -- inadmissible reference values ---------------------------------------------


_U, _W = [0.3, 0.1], [0.2, -0.4]


def _chart(helper, arity):
    """helper(metric, V, *constant fields, x) with the reference field V = ref."""
    fields = [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2], [0.2, 0.2]][:arity]

    def call(m, x, ref):
        chart_fields = [VectorFieldOnChart.constant(c) for c in fields]
        return helper(m, VectorFieldOnChart.constant(ref), *chart_fields, x)

    return call


def _curve_data(x, v):
    """A CurvePath reporting position x, velocity v and zero acceleration at
    every t; the helpers below read it at t = 0 only."""
    return CurvePath(
        (-1.0, 1.0), lambda t: np.array(x), lambda t: np.array(v), lambda t: np.zeros(2)
    )


def _cov_deriv(m, x, ref):
    W = FieldAlongCurve.from_constant(ref)
    X = FieldAlongCurve.from_constant([0.2, 0.1])
    return cov_deriv_along(m, _curve_data(x, [1.0, 0.5]), W, X, 0.0)


def _mixed_commutation(m, x, ref):
    lam = TwoParamMap(lambda t, s: [x[0] + t + 0.1 * t * s, x[1] + s], (-1, 1), (-1, 1))
    return mixed_derivative_commutation(m, lam, lambda t, s: ref, 0.0, 0.0)


_REFERENCE_HELPERS = {
    "nabla": _chart(nabla, 2),
    "curvature_field": _chart(curvature_field, 3),
    "curvature_field_nested": _chart(curvature_field_nested, 3),
    "_curvature_field_derivatives": _chart(
        lambda m, V, X, Y, Z, x: _curvature_field_derivatives(m, V, x, [(np.array([0.2, 0.1]), X, Y, Z)]), 3
    ),
    "nabla_cartan": _chart(nabla_cartan, 4),
    "b_tensor": _chart(b_tensor, 4),
    "cov_deriv_along": _cov_deriv,
    "covariant_acceleration": lambda m, x, ref: covariant_acceleration(
        m, _curve_data(x, ref), 0.0
    ),
    "mixed_derivative_commutation": _mixed_commutation,
    "h_tensor": lambda m, x, ref: h_tensor(m, _curve_data(x, ref), 0.0, _U, _W),
    "r_along_curve": lambda m, x, ref: r_along_curve(m, _curve_data(x, ref), 0.0, _U, _W),
    "r_along_curve_direct": lambda m, x, ref: r_along_curve_direct(
        m, _curve_data(x, ref), 0.0, _U, _W
    ),
}


# the ids keep the "-plain" suffix these cases have always been reported under
@pytest.mark.parametrize("name", sorted(_REFERENCE_HELPERS), ids="{}-plain".format)
def test_reference_helpers_raise_the_metrics_domain_error(name):
    # the reference value (a chart field's value, a field along a curve or a
    # curve's velocity) is checked once, by metric_blocks, also when its
    # length is not the metric's dimension
    m = builtin("funk", dim=2)
    call = _REFERENCE_HELPERS[name]
    assert np.all(np.isfinite(call(m, [0.1, -0.2], [0.6, 0.3])))
    for x, ref in (
        ([1.5, 0.2], [0.6, 0.3]),
        ([0.1, -0.2], [0.0, 0.0]),
        ([0.1, -0.2], [0.6, 0.3, 0.1]),
    ):
        with pytest.raises(DomainError, match="outside the domain of metric 'funk'"):
            call(m, x, ref)


# -- flag curvature ------------------------------------------------------------------


def test_flag_curvature_euclidean_zero():
    m = builtin("euclidean", dim=3)
    K = flag_curvature(m, TangentSample([0.0, 0.0, 0.0], [1.0, 0.0, 0.5]), [0.0, 1.0, 0.3])
    assert K == pytest.approx(0.0, abs=1e-14)


def test_flag_curvature_constant_on_sphere_and_ball():
    rng = np.random.default_rng(12)
    sphere = builtin("sphere_round", dim=2)
    ball = builtin("hyperbolic", dim=2)
    for _ in range(10):
        s = sample_tangent(sphere, rng, (-0.6, 0.6))
        u = rng.uniform(-1.0, 1.0, 2)
        if abs(np.linalg.det(np.stack([s.v, u]))) < 0.1:
            continue
        assert flag_curvature(sphere, s, u) == pytest.approx(1.0, abs=1e-6)
        assert flag_curvature(ball, s, u) == pytest.approx(-1.0, abs=1e-6)


def test_flag_curvature_matches_sectional_for_perturbed_metric():
    m = perturbed_riemannian(2)
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = sample_tangent(m, rng, (-0.6, 0.6))
        u = rng.uniform(-1.0, 1.0, 2)
        if abs(np.linalg.det(np.stack([s.v, u]))) < 0.1:
            continue
        K = flag_curvature(m, s, u)
        A, dA, d2A = perturbation_matrix(s.x)
        R, _ = riemann_tensor(A, dA, d2A)
        assert K == pytest.approx(sectional_curvature(A, R, s.v, u), rel=1e-7, abs=1e-9)


def test_funk_flag_constant_against_independent_mp_oracle():
    # the -1/4 constant is validated by an end-to-end arbitrary-precision
    # finite-difference recomputation that shares no code with the jet path
    m = builtin("funk", dim=2)
    cases = [
        ([0.2, -0.1], [0.6, 0.3], [0.1, 0.8]),
        ([-0.3, 0.25], [0.4, -0.5], [0.9, 0.2]),
    ]
    for x, v, u in cases:
        K_jets = flag_curvature(m, TangentSample(x, v), u)
        K_mp = funk_flag_curvature_mp(x, v, u)
        assert K_jets == pytest.approx(K_mp, abs=5e-9)
        assert K_mp == pytest.approx(-0.25, abs=1e-8)


def test_flag_predecessor_consistency_and_constants():
    # flag_curvature(u) is flag_curvature_predecessor(u, u), bit for bit
    rng = np.random.default_rng(11)
    for name in ("sphere_round", "funk", "hyperbolic", "minkowski_quartic", "riemannian_perturbation"):
        for dim in (2, 3):
            metric = builtin(name, dim=dim)
            for _ in range(4):
                sample = sample_tangent(metric, rng, (-0.6, 0.6))
                u = rng.uniform(-1.0, 1.0, dim)
                assert flag_curvature(metric, sample, u) == flag_curvature_predecessor(metric, sample, u, u)

    m = builtin("sphere_round", dim=2)
    s = TangentSample([0.25, -0.3], [0.8, 0.3])
    u = np.array([-0.1, 0.9])
    w = np.array([0.7, 0.4])
    assert flag_curvature_predecessor(m, s, u, w) == pytest.approx(1.0, abs=1e-7)

    e = builtin("euclidean", dim=2)
    assert flag_curvature_predecessor(e, s, u, w) == pytest.approx(0.0, abs=1e-14)


def test_degenerate_flag_rejected():
    m = builtin("sphere_round", dim=2)
    s = TangentSample([0.1, 0.1], [1.0, 0.5])
    with pytest.raises(ValueError, match="degenerate flag"):
        flag_curvature(m, s, 2.0 * s.v)

    e = builtin("euclidean", dim=2)
    se = TangentSample([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="degenerate flag"):
        flag_curvature_predecessor(e, se, [0.0, 1.0], [1.0, 0.0])


def test_funk_constant_is_radius_invariant():
    # the dilation maps the radius-r ball isometrically onto the unit ball,
    # so the flag curvature stays -1/4 for every radius
    for r in (0.5, 2.0, 7.0):
        m = builtin("funk", dim=2, radius=r)
        s = TangentSample([0.2 * r, -0.1 * r], [0.6, 0.3])
        assert flag_curvature(m, s, [0.1, 0.8]) == pytest.approx(-0.25, abs=1e-10)
