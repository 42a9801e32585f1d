"""Christoffel symbols and the covariant derivative of chart fields."""

from dataclasses import fields

import numpy as np
import pytest

from finsler import connection
from finsler.connection import (
    VectorFieldOnChart,
    christoffel,
    christoffel_with_partials,
    nabla,
)
from finsler.errors import DomainError
from finsler.geometry import _L_jet, _stepped_blocks, metric_blocks
from finsler.metrics import TangentSample, builtin, parse_metric, perturbed_riemannian
from finsler.verify import default_metrics, extension_field, random_polynomial_field, sample_tangent

from oracles import christoffel_assembly, conformal_matrix, levi_civita, perturbation_matrix


def test_euclidean_symbols_vanish():
    m = builtin("euclidean", dim=3)
    ce = christoffel(m, TangentSample([0.1, 0.2, 0.3], [1.0, -1.0, 0.5]))
    np.testing.assert_allclose(ce.Gamma, 0.0, atol=1e-14)
    np.testing.assert_allclose(ce.N, 0.0, atol=1e-14)
    np.testing.assert_allclose(ce.gamma_lc, 0.0, atol=1e-14)


def test_riemannian_symbols_equal_levi_civita():
    m = perturbed_riemannian(2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        v = rng.uniform(0.3, 1.2, 2)
        ce = christoffel(m, TangentSample(x, v))
        A, dA, _ = perturbation_matrix(x)
        np.testing.assert_allclose(ce.Gamma, levi_civita(A, dA), atol=1e-11)
        # independence from the reference vector
        ce2 = christoffel(m, TangentSample(x, rng.uniform(0.3, 1.2, 2)))
        np.testing.assert_allclose(ce2.Gamma, ce.Gamma, atol=1e-11)


def test_sphere_symbols_equal_conformal_levi_civita():
    m = builtin("sphere_round", dim=2)
    x = np.array([0.3, -0.1])
    ce = christoffel(m, TangentSample(x, np.array([0.7, 0.4])))
    A, dA, _ = conformal_matrix(x, +1.0)
    np.testing.assert_allclose(ce.Gamma, levi_civita(A, dA), atol=1e-12)


def test_gamma_vv_contraction_drops_cartan_corrections():
    m = builtin("funk", dim=2)
    s = TangentSample([0.25, -0.3], [0.8, 0.4])
    ce = christoffel(m, s)
    n = 2
    gamma_up = np.linalg.solve(ce.g, ce.gamma_lc.reshape(n, -1)).reshape(n, n, n)
    lhs = np.einsum("kij,i,j->k", ce.Gamma, s.v, s.v)
    rhs = np.einsum("kij,i,j->k", gamma_up, s.v, s.v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


def test_nonlinear_connection_contraction():
    m = builtin("funk", dim=3)
    s = TangentSample([0.2, 0.1, -0.15], [0.6, -0.4, 0.7])
    ce = christoffel(m, s)
    np.testing.assert_allclose(
        np.einsum("sji,i->sj", ce.Gamma, s.v), ce.N, rtol=1e-10, atol=1e-13
    )


def test_symbols_homogeneous_of_degree_zero():
    m = builtin("funk", dim=2)
    s = TangentSample([0.3, -0.2], [0.9, 0.5])
    base = christoffel(m, s).Gamma
    for lam in (0.1, 2.0, 10.0):
        scaled = christoffel(m, TangentSample(s.x, lam * s.v)).Gamma
        np.testing.assert_allclose(scaled, base, rtol=1e-10, atol=1e-12)


def test_lower_index_symmetry_is_structural():
    m = builtin("funk", dim=3)
    G = christoffel(m, TangentSample([0.1, 0.2, -0.1], [0.5, 0.6, -0.4])).Gamma
    assert np.abs(G - G.transpose(0, 2, 1)).max() <= 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("name", ["funk", "minkowski_quartic", "perturbed_riemannian"])
def test_partials_agree_with_plain_symbols_and_finite_differences(name, dim):
    m = perturbed_riemannian(dim) if name == "perturbed_riemannian" else builtin(name, dim=dim)
    x = np.array([0.2, -0.25, 0.1, -0.05][:dim])
    v = np.array([0.7, 0.5, -0.4, 0.3][:dim])
    cp = christoffel_with_partials(m, x, v)
    ce = christoffel(m, TangentSample(x, v))
    # one assembly over values: the tangent pass leaves the values bit for bit
    np.testing.assert_array_equal(cp.Gamma, ce.Gamma)
    np.testing.assert_array_equal(cp.N, ce.N)
    np.testing.assert_array_equal(cp.ginv, ce.ginv)

    h = 1e-6
    for p in range(dim):
        d = np.zeros(dim)
        d[p] = h
        Gp = christoffel(m, TangentSample(x + d, v)).Gamma
        Gm = christoffel(m, TangentSample(x - d, v)).Gamma
        np.testing.assert_allclose(cp.dGamma_dx[:, :, :, p], (Gp - Gm) / (2 * h), atol=1e-8)
        Gp = christoffel(m, TangentSample(x, v + d)).Gamma
        Gm = christoffel(m, TangentSample(x, v - d)).Gamma
        np.testing.assert_allclose(cp.dGamma_dy[:, :, :, p], (Gp - Gm) / (2 * h), atol=1e-8)


def _max_relative_miss(got, want):
    """Largest |got - want| over the largest |want|, real and imaginary parts
    taken apart (a complex step keeps a derivative, scaled by h, in the
    imaginary part)."""
    parts = [np.real] + [np.imag] * np.iscomplexobj(want)
    misses = []
    for part in parts:
        scale, miss = np.abs(part(want)).max(), np.abs(part(got) - part(want)).max()
        misses.append(miss / scale if scale else (0.0 if miss == 0 else np.inf))
    return max(misses)


def _randers(n):
    # x-dependent Randers metric whose 1-form is not closed: unlike the
    # default families (on funk, C_up[p,i,s] N^p_j is symmetric in i, j),
    # it tells the correction T1 apart from T2
    a = " + ".join(f"(1 + 0.2*x{i}^2)*v{i}^2" for i in range(1, n + 1))
    b = " + ".join(f"{0.3 / i:.3g}*v{i}/(1 + x{i % n + 1}^2)" for i in range(1, n + 1))
    return parse_metric(f"dim = {n}\nL = (sqrt({a}) + {b})^2\n")


@pytest.mark.parametrize("dim", range(2, 9))
def test_pairwise_assembly_matches_three_factor_sums(dim, monkeypatch):
    # christoffel_core's inputs, caught on the real route (order-4 blocks)
    # and on the complex-stepped route of the second-Bianchi derivative,
    # replayed through the three-factor reference; observed <= 7.5e-15
    calls = []
    core = connection.christoffel_core

    def spy(*args):
        out = core(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(connection, "christoffel_core", spy)
    rng = np.random.default_rng(dim)
    for m in default_metrics(dim) + [_randers(dim)]:
        s = sample_tangent(m, rng, (-0.6, 0.6))
        christoffel_with_partials(m, s.x, s.v)
        d = rng.uniform(-1.0, 1.0, 2 * dim)
        connection._with_partials(_stepped_blocks(_L_jet(m, s.x, s.v, 5), s.x, s.v, d, 1e-30))
    assert len(calls) == 12 and np.iscomplexobj(calls[-1][1][0][3])
    for args, (values, tangents) in calls:
        want_values, want_tangents = christoffel_assembly(*args)
        for got, want in zip(values + tangents, want_values + want_tangents):
            assert _max_relative_miss(got, want) <= 1e-13


def test_inverse_tangent_is_minus_ginv_dg_ginv():
    rng = np.random.default_rng(3)
    g = np.eye(4) + 0.2 * rng.uniform(-1.0, 1.0, (4, 4))
    dg = rng.uniform(-1.0, 1.0, (4, 4, 3))
    ginv, ginv_t = connection.inverse_with_tangent(g, dg)
    want = -np.einsum("ia,abz,bj->ijz", ginv, dg, ginv)
    assert _max_relative_miss(ginv_t, want) <= 1e-14


@pytest.mark.parametrize("name", ["funk", "riemannian_perturbation"])
def test_both_entry_points_return_one_record_with_its_blocks(name):
    m = builtin(name, dim=3)
    x, v = np.array([0.1, -0.2, 0.15]), np.array([0.6, 0.3, -0.5])
    ce = christoffel(m, TangentSample(x, v))
    cp = christoffel_with_partials(m, x, v)
    for record, order in ((ce, 3), (cp, 4)):
        want = metric_blocks(m, x, v, order=order)
        for f in fields(want):
            got, block = getattr(record.blocks, f.name), getattr(want, f.name)
            if block is None:
                assert got is None, f.name
            else:
                np.testing.assert_array_equal(got, block, err_msg=f.name)
    for name in ("gamma_lc", "Gamma", "N", "g", "ginv", "cartan"):
        np.testing.assert_array_equal(getattr(cp, name), getattr(ce, name), err_msg=name)
    assert ce.dGamma_dx is None and ce.dGamma_dy is None
    assert cp.dGamma_dx.shape == cp.dGamma_dy.shape == (3, 3, 3, 3)


def test_nabla_is_directional_derivative_for_euclidean():
    m = builtin("euclidean", dim=2)
    V = VectorFieldOnChart.constant([1.0, 0.0])
    X = VectorFieldOnChart.constant([2.0, -1.0])
    Y = VectorFieldOnChart.from_expressions(["x1*x2", "x1 + x2^2"], 2)
    x = np.array([0.5, 1.5])
    out = nabla(m, V, X, Y, x)
    JY = np.array([[x[1], x[0]], [1.0, 2.0 * x[1]]])
    np.testing.assert_allclose(out, JY @ X.value(x), atol=1e-13)


def test_nabla_torsion_free_on_random_fields():
    m = builtin("funk", dim=2)
    rng = np.random.default_rng(9)
    x = np.array([0.2, 0.1])
    V = extension_field(x, np.array([0.5, -0.3]), rng.uniform(-1, 1, (2, 2)))
    X = random_polynomial_field(rng, 2, 3, center=x)
    Y = random_polynomial_field(rng, 2, 3, center=x)
    lhs = nabla(m, V, X, Y, x) - nabla(m, V, Y, X, x)
    bracket = Y.jacobian(x) @ X.value(x) - X.jacobian(x) @ Y.value(x)
    np.testing.assert_allclose(lhs, bracket, rtol=1e-10, atol=1e-12)


def test_nabla_almost_metric_compatibility():
    m = builtin("minkowski_quartic", dim=2)
    rng = np.random.default_rng(11)
    x = np.array([0.4, -0.2])
    v = np.array([0.9, 0.7])
    JV = rng.uniform(-1, 1, (2, 2))
    V = extension_field(x, v, JV)
    X = random_polynomial_field(rng, 2, 2, center=x)
    Y = random_polynomial_field(rng, 2, 2, center=x)
    Z = random_polynomial_field(rng, 2, 2, center=x)
    blocks = metric_blocks(m, x, v, order=3)
    Xv, Yv, Zv = X.value(x), Y.value(x), Z.value(x)
    dgX = np.einsum("ijl,l->ij", blocks.dg_dx, Xv) + 2.0 * np.einsum(
        "qij,ql,l->ij", blocks.C, JV, Xv
    )
    lhs = (
        float(Yv @ dgX @ Zv)
        + float((Y.jacobian(x) @ Xv) @ blocks.g @ Zv)
        + float(Yv @ blocks.g @ (Z.jacobian(x) @ Xv))
    )
    rhs = (
        float(nabla(m, V, X, Y, x) @ blocks.g @ Zv)
        + float(Yv @ blocks.g @ nabla(m, V, X, Z, x))
        + 2.0 * float(np.einsum("ijk,i,j,k->", blocks.C, nabla(m, V, X, V, x), Yv, Zv))
    )
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_nabla_depends_only_on_reference_value():
    # two extensions of the same tangent vector give the same derivative
    m = builtin("funk", dim=2)
    rng = np.random.default_rng(13)
    x = np.array([0.1, 0.3])
    v = np.array([0.6, -0.5])
    V1 = extension_field(x, v, rng.uniform(-1, 1, (2, 2)))
    V2 = extension_field(x, v, rng.uniform(-1, 1, (2, 2)))
    X = random_polynomial_field(rng, 2, 2, center=x)
    Y = random_polynomial_field(rng, 2, 2, center=x)
    np.testing.assert_array_equal(nabla(m, V1, X, Y, x), nabla(m, V2, X, Y, x))


def test_nabla_rejects_inadmissible_reference():
    m = builtin("funk", dim=2)
    V = VectorFieldOnChart.constant([1.0, 0.0])
    X = VectorFieldOnChart.constant([1.0, 0.0])
    with pytest.raises(DomainError):
        nabla(m, V, X, X, np.array([2.0, 0.0]))


def test_vector_field_expression_parsing_and_jacobian():
    F = VectorFieldOnChart.from_expressions(["x1^2 * x2", "x1 - x2"], 2)
    x = np.array([2.0, 3.0])
    np.testing.assert_allclose(F.value(x), [12.0, -1.0])
    np.testing.assert_allclose(F.jacobian(x), [[12.0, 4.0], [1.0, -1.0]])
    val, jac, hess = F.derivatives2(x)
    np.testing.assert_allclose(hess[0], [[6.0, 4.0], [4.0, 0.0]], atol=1e-13)


def test_constant_field_has_zero_jacobian_and_hessian():
    V = VectorFieldOnChart.constant([1.0, 2.0])
    x = np.array([0.3, -0.1])
    np.testing.assert_array_equal(V.jacobian(x), np.zeros((2, 2)))
    value, J, H = V.derivatives2(x)
    np.testing.assert_array_equal(value, [1.0, 2.0])
    np.testing.assert_array_equal(J, np.zeros((2, 2)))
    np.testing.assert_array_equal(H, np.zeros((2, 2, 2)))
