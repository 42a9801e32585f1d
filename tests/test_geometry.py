"""Fundamental and Cartan tensors against finite differences and closed forms."""

import numpy as np
import pytest

from finsler.errors import DegenerateMetricError
from finsler.geometry import (
    cartan_tensor,
    fundamental_tensor,
    metric_blocks,
    tensor_partials,
)
from finsler.jets import Jet, jet_space
from finsler.metrics import TangentSample, builtin, perturbed_riemannian

from oracles import perturbation_matrix


def test_metric_blocks_match_single_jet_extraction():
    # every block entry is the matching partial of one order-4 jet of L,
    # times 1 (dL_dy, dL_dx, d2L_dydx), 1/2 (g and its partials) or 1/4 (C
    # and its partials)
    n = 3
    m = builtin("funk", dim=n)
    x = np.array([0.1, -0.2, 0.15])
    v = np.array([0.6, 0.3, -0.5])
    space = jet_space(2 * n, 4)
    LJ = m.func(
        [Jet.variable(space, x[i], i) for i in range(n)],
        [Jet.variable(space, v[i], n + i) for i in range(n)],
    )

    def d(*slots):
        mono = [0] * (2 * n)
        for s in slots:
            mono[s] += 1
        return LJ.extract(mono)

    y = [n + i for i in range(n)]
    for order in (2, 3, 4):
        b = metric_blocks(m, x, v, order)
        assert b.L == LJ.value
        for i, j, k, l in np.ndindex(n, n, n, n):
            assert b.dL_dy[i] == d(y[i])
            assert b.dL_dx[k] == d(k)
            assert b.d2L_dydx[i, k] == d(y[i], k)
            assert b.g[i, j] == 0.5 * d(y[i], y[j])
            if order >= 3:
                assert b.dg_dx[i, j, k] == 0.5 * d(y[i], y[j], k)
                assert b.dg_dy[i, j, k] == 0.5 * d(y[i], y[j], y[k])
                assert b.C[i, j, k] == 0.25 * d(y[i], y[j], y[k])
            if order == 4:
                assert b.d2g_dxdx[i, j, k, l] == 0.5 * d(y[i], y[j], k, l)
                assert b.dC_dx[i, j, k, l] == 0.25 * d(y[i], y[j], y[k], l)
                assert b.dC_dy[i, j, k, l] == 0.25 * d(y[i], y[j], y[k], y[l])
        if order < 4:
            assert b.dC_dy is None


def test_euclidean_g_is_identity():
    m = builtin("euclidean", dim=3)
    g = fundamental_tensor(m, TangentSample([0.3, 1.0, -2.0], [0.5, 0.5, 1.0]))
    np.testing.assert_allclose(g, np.eye(3), atol=1e-14)


def test_riemannian_g_equals_quadratic_form():
    m = perturbed_riemannian(2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        v = rng.uniform(0.2, 1.0, 2)
        g = fundamental_tensor(m, TangentSample(x, v))
        A, _, _ = perturbation_matrix(x)
        np.testing.assert_allclose(g, A, atol=1e-13)
        # v-independence
        g2 = fundamental_tensor(m, TangentSample(x, 3.0 * v + 0.1))
        np.testing.assert_allclose(g2, g, atol=1e-13)


def test_quartic_g_against_finite_differences():
    m = builtin("minkowski_quartic", dim=2)
    x = np.array([0.0, 0.0])
    v = np.array([1.0, 1.0])
    g = fundamental_tensor(m, TangentSample(x, v))
    h = 1e-4
    fd = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.eye(2)[i] * h
            ej = np.eye(2)[j] * h
            fd[i, j] = 0.5 * (
                m.value(x, v + ei + ej)
                - m.value(x, v + ei - ej)
                - m.value(x, v - ei + ej)
                + m.value(x, v - ei - ej)
            ) / (4 * h * h)
    np.testing.assert_allclose(g, fd, atol=1e-6)


def test_degenerate_g_rejected():
    m = builtin("minkowski_quartic", dim=2)
    with pytest.raises(DegenerateMetricError):
        fundamental_tensor(m, TangentSample([0.0, 0.0], [1.0, 0.0]))


def test_riemannian_cartan_vanishes():
    m = perturbed_riemannian(2)
    C = cartan_tensor(m, TangentSample([0.2, -0.4], [0.7, 0.3]))
    np.testing.assert_allclose(C, 0.0, atol=1e-13)


def test_cartan_flagpole_contraction_vanishes():
    for name in ("minkowski_quartic", "funk"):
        m = builtin(name, dim=2)
        s = TangentSample([0.2, -0.1], [0.9, 0.55])
        C = cartan_tensor(m, s)
        contraction = np.einsum("i,ijk->jk", s.v, C)
        assert np.abs(contraction).max() <= 1e-10 * max(np.abs(C).max(), 1.0)


def test_cartan_is_homogeneous_of_degree_minus_one():
    # off the diagonal v1 = v2, where the quartic norm's C vanishes by symmetry
    m = builtin("minkowski_quartic", dim=2)
    x = np.array([0.0, 0.0])
    v = np.array([1.0, 0.5])
    C1 = cartan_tensor(m, TangentSample(x, v))
    scale = np.abs(C1).max()
    assert scale > 0.1
    for lam in (2.0, 1.7):
        C_lam = cartan_tensor(m, TangentSample(x, lam * v))
        np.testing.assert_allclose(C_lam, C1 / lam, rtol=0, atol=1e-12 * scale)
    # Euler's theorem on the order-4 coefficients: dC/dy . v = -C
    dC_dy = metric_blocks(m, x, v, order=4).dC_dy
    np.testing.assert_allclose(np.einsum("ijkp,p->ijk", dC_dy, v), -C1, rtol=0, atol=1e-12 * scale)


def test_cartan_full_symmetry():
    m = builtin("funk", dim=3)
    C = cartan_tensor(m, TangentSample([0.2, -0.1, 0.15], [0.4, 0.8, -0.3]))
    worst = max(np.abs(C - C.transpose(p)).max() for p in ((1, 0, 2), (2, 1, 0), (0, 2, 1)))
    assert worst <= 1e-12


def test_euler_identity_g_vv_equals_L():
    rng = np.random.default_rng(1)
    for name in ("euclidean", "minkowski_quartic", "funk", "sphere_round"):
        m = builtin(name, dim=2)
        count = 0
        while count < 100:
            x = rng.uniform(-0.5, 0.5, 2)
            v = rng.uniform(-1.5, 1.5, 2)
            if np.abs(v).max() < 0.3 or not m.in_domain(x, v):
                continue
            blocks = metric_blocks(m, x, v, order=2)
            L = m.value(x, v)
            assert abs(float(v @ blocks.g @ v) - L) <= 1e-10 * max(abs(L), 1e-3)
            count += 1


def test_tensor_partials_euclidean_zero_riemannian_structure():
    m = builtin("euclidean", dim=2)
    parts = tensor_partials(m, TangentSample([0.4, 0.4], [1.0, 0.2]))
    np.testing.assert_allclose(parts["dg_dx"], 0.0, atol=1e-14)
    np.testing.assert_allclose(parts["dg_dy"], 0.0, atol=1e-14)

    mr = perturbed_riemannian(2)
    x = np.array([0.15, -0.3])
    parts = tensor_partials(mr, TangentSample(x, np.array([1.0, 0.4])))
    _, dA, _ = perturbation_matrix(x)
    np.testing.assert_allclose(parts["dg_dx"], dA, atol=1e-12)
    np.testing.assert_allclose(parts["dg_dy"], 0.0, atol=1e-13)


def test_tensor_partials_funk_matches_cartan():
    m = builtin("funk", dim=2)
    s = TangentSample([0.3, 0.1], [0.5, -0.7])
    parts = tensor_partials(m, s)
    C = cartan_tensor(m, s)
    np.testing.assert_allclose(
        parts["dg_dy"], 2.0 * np.einsum("kij->ijk", C), atol=1e-10
    )


def test_dg_dx_against_finite_differences_on_funk():
    m = builtin("funk", dim=2)
    x = np.array([0.25, -0.2])
    v = np.array([0.6, 0.8])
    dg = metric_blocks(m, x, v, order=3).dg_dx
    h = 1e-5
    for k in range(2):
        d = np.zeros(2)
        d[k] = h
        gp = metric_blocks(m, x + d, v, order=2).g
        gm = metric_blocks(m, x - d, v, order=2).g
        np.testing.assert_allclose(dg[:, :, k], (gp - gm) / (2 * h), atol=1e-8)


def test_sign_indefinite_metric_through_expression_path():
    # L of any sign is allowed when the fundamental tensor stays nondegenerate
    from finsler.metrics import parse_metric

    m = parse_metric("dim = 2\nname = split\nL = 2*v1*v2\ndomain = v1*v2\n")
    s = TangentSample([0.3, -0.4], [1.0, 0.5])
    g = fundamental_tensor(m, s)
    np.testing.assert_allclose(g, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert m.value(s.x, s.v) == pytest.approx(1.0)
    # flat: the symbols and flag curvature vanish identically
    from finsler.connection import christoffel
    from finsler.curvature import flag_curvature

    ce = christoffel(m, s)
    np.testing.assert_allclose(ce.Gamma, 0.0, atol=1e-14)
    assert flag_curvature(m, s, [1.0, -0.5]) == pytest.approx(0.0, abs=1e-14)
