"""Acceptance criteria, one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and matches the documented contract.
"""

import time

import numpy as np
from scipy.optimize import brentq

from finsler.connection import christoffel
from finsler.curvature import curvature_field, flag_curvature, r_along_curve, r_along_curve_direct
from finsler.curves import geodesic_shoot
from finsler.jets import Jet, seed
from finsler.metrics import builtin, perturbed_riemannian
from finsler.verify import (
    _extension_jacobian,
    default_plan,
    extension_field,
    random_curve,
    run_verification,
    sample_tangent,
)

from oracles import funk_flag_curvature_mp, perturbation_matrix, riemann_tensor, sectional_curvature


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert passed, detail


def test_criterion_1_identity_suite():
    """Full verification plan: 5 metrics x 50 samples, every identity at its
    stated tolerance, within the runtime budget."""
    start = time.time()
    report = run_verification(default_plan(samples=50, seed=7))
    elapsed = time.time() - start
    failed = [r.name for r in report.results if not r.passed]
    _report(
        1,
        report.passed and elapsed < 120.0,
        f"identity suite on 5 metrics x 50 samples: "
        f"{len(report.results)} identities, failed={failed or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_2_curve_curvature_two_paths():
    """Direct two-parameter-map curvature equals hh-term + acceleration
    correction on >= 20 random non-geodesic curves (quartic + funk)."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for name, dim in (("minkowski_quartic", 2), ("funk", 2), ("funk", 3)):
        m = builtin(name, dim=dim)
        for _ in range(8):
            s = sample_tangent(m, rng, (-0.4, 0.4))
            curve = random_curve(rng, s)
            from finsler.curvature import covariant_acceleration

            if np.abs(covariant_acceleration(m, curve, 0.0)).max() < 0.05:
                continue
            u = rng.uniform(-1.0, 1.0, dim)
            w = rng.uniform(-1.0, 1.0, dim)
            a = r_along_curve(m, curve, 0.0, u, w)
            b = r_along_curve_direct(m, curve, 0.0, u, w, rng=rng)
            scale = max(np.abs(a).max(), np.abs(b).max(), 1e-14)
            worst = max(worst, np.abs(a - b).max() / scale)
            count += 1
    _report(
        2,
        count >= 20 and worst <= 1e-8,
        f"two-path curve curvature on {count} non-geodesic curves, worst rel residual {worst:.3e} <= 1e-8",
    )


def test_criterion_3_extension_independence():
    """Two distinct admissible extensions per curve (built as in the
    variational construction) give the same R^V(V,U)W, ten curves."""
    rng = np.random.default_rng(31)
    worst = 0.0
    count = 0
    specs = [("funk", 2), ("funk", 3), ("minkowski_quartic", 2), ("riemannian", 2), ("riemannian", 3)]
    for name, dim in specs:
        m = perturbed_riemannian(dim) if name == "riemannian" else builtin(name, dim=dim)
        for _ in range(2):
            s = sample_tangent(m, rng, (-0.4, 0.4))
            curve = random_curve(rng, s)
            x0, v0 = s.x, s.v
            u = rng.uniform(-1.0, 1.0, dim)
            w = rng.uniform(-1.0, 1.0, dim)
            if abs(np.linalg.det(np.stack([v0, u] + [rng.uniform(-1, 1, dim) for _ in range(dim - 2)]))) < 1e-2:
                u = u + 0.5 * np.eye(dim)[0]
            G = christoffel(m, s).Gamma
            udot = -np.einsum("kij,i,j->k", G, u, v0)
            acc2 = curve.acceleration(0.0)
            values = []
            for _ in range(2):
                J = _extension_jacobian(rng, v0, u, acc2, udot, dim)
                V = extension_field(x0, v0, J, quad=rng.uniform(-1, 1, (dim, dim, dim)))
                U = extension_field(x0, u, rng.uniform(-1, 1, (dim, dim)))
                W = extension_field(x0, w, rng.uniform(-1, 1, (dim, dim)))
                values.append(curvature_field(m, V, V, U, W, x0))
            scale = max(np.abs(values[0]).max(), np.abs(values[1]).max(), 1e-14)
            worst = max(worst, np.abs(values[0] - values[1]).max() / scale)
            count += 1
    _report(
        3,
        count >= 10 and worst <= 1e-8,
        f"extension independence on {count} curves x 2 extensions, worst rel disagreement {worst:.3e} <= 1e-8",
    )


def test_criterion_4_riemannian_reduction():
    """Flag curvature equals sectional curvature: perturbed metric vs the
    closed-form Riemann oracle, plus the constant-curvature builtins."""
    rng = np.random.default_rng(4)
    m = perturbed_riemannian(2)
    worst = 0.0
    count = 0
    while count < 50:
        s = sample_tangent(m, rng, (-0.6, 0.6))
        u = rng.uniform(-1.0, 1.0, 2)
        if abs(np.linalg.det(np.stack([s.v, u]))) < 0.1:
            continue
        K = flag_curvature(m, s, u)
        A, dA, d2A = perturbation_matrix(s.x)
        R, _ = riemann_tensor(A, dA, d2A)
        worst = max(worst, abs(K - sectional_curvature(A, R, s.v, u)))
        count += 1

    sphere = builtin("sphere_round", dim=2)
    ball = builtin("hyperbolic", dim=2)
    worst_sphere = 0.0
    worst_ball = 0.0
    for _ in range(20):
        s = sample_tangent(sphere, rng, (-0.6, 0.6))
        u = rng.uniform(-1.0, 1.0, 2)
        if abs(np.linalg.det(np.stack([s.v, u]))) < 0.1:
            continue
        worst_sphere = max(worst_sphere, abs(flag_curvature(sphere, s, u) - 1.0))
        worst_ball = max(worst_ball, abs(flag_curvature(ball, s, u) + 1.0))
    _report(
        4,
        worst <= 1e-7 and worst_sphere <= 1e-6 and worst_ball <= 1e-6,
        f"riemannian reduction: 50 flags |K - sectional| {worst:.3e} <= 1e-7, "
        f"sphere |K-1| {worst_sphere:.3e} <= 1e-6, hyperbolic |K+1| {worst_ball:.3e} <= 1e-6",
    )


def test_criterion_5_funk_constant():
    """Funk flag curvature is -1/4 on random interior flags; the constant is
    independently validated by the arbitrary-precision FD oracle."""
    m = builtin("funk", dim=2)
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    while count < 20:
        s = sample_tangent(m, rng, (-0.6, 0.6))
        u = rng.uniform(-1.0, 1.0, 2)
        if abs(np.linalg.det(np.stack([s.v, u]))) < 0.1:
            continue
        worst = max(worst, abs(flag_curvature(m, s, u) + 0.25))
        count += 1
    oracle = funk_flag_curvature_mp([0.2, -0.1], [0.6, 0.3], [0.1, 0.8])
    oracle_ok = abs(oracle + 0.25) <= 1e-8
    _report(
        5,
        worst <= 1e-4 and oracle_ok,
        f"funk constant: 20 flags |K + 1/4| {worst:.3e} <= 1e-4; "
        f"independent mpmath FD oracle gives {oracle:.12f}",
    )


def test_criterion_6_geodesic_quality():
    """Great-circle period on the sphere and relative energy drift over
    T = 10 for every builtin family."""
    sphere = builtin("sphere_round", dim=2)
    x0 = np.array([1.0, 0.0])
    circle = geodesic_shoot(sphere, x0, [0.0, 1.0], 7.0, tol=1e-10)

    def radial(t):
        return float((circle.position(t) - x0) @ circle.velocity(t))

    period = brentq(radial, 2 * np.pi - 0.5, 2 * np.pi + 0.5, xtol=1e-12)
    period_err = abs(period - 2 * np.pi)

    cases = [
        (builtin("euclidean", dim=2), [0.2, 0.1], [0.7, -0.4]),
        (perturbed_riemannian(2), [0.1, -0.2], [0.5, 0.4]),
        (builtin("minkowski_quartic", dim=2), [0.0, 0.0], [0.9, 0.7]),
        (builtin("sphere_round", dim=2), [0.4, -0.1], [0.5, 0.6]),
        (builtin("hyperbolic", dim=2), [0.2, 0.1], [0.3, -0.2]),
        (builtin("funk", dim=2), [0.1, -0.2], [0.15, 0.12]),
    ]
    worst_drift = 0.0
    for m, p0, w0 in cases:
        curve = geodesic_shoot(m, p0, w0, 10.0, tol=1e-9)
        L0 = m.value(curve.position(0.0), curve.velocity(0.0))
        drift = max(
            abs(m.value(curve.position(t), curve.velocity(t)) - L0)
            for t in np.linspace(0.0, 10.0, 21)
        ) / abs(L0)
        worst_drift = max(worst_drift, drift)
    _report(
        6,
        period_err <= 1e-6 and worst_drift <= 1e-8,
        f"geodesics: great-circle period |T - 2pi| = {period_err:.3e} <= 1e-6, "
        f"worst relative energy drift over T=10 across builtins {worst_drift:.3e} <= 1e-8",
    )


# -- criterion 7: jet engine vs an independent symbolic polynomial oracle -----


class _Poly:
    """Exact multivariate polynomial in the offsets h_i, as a plain dict;
    an independent symbolic algebra sharing nothing with the jet engine."""

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def variable(cls, i, n, base):
        e = tuple(1 if k == i else 0 for k in range(n))
        return cls({(0,) * n: base, e: 1.0})

    @classmethod
    def constant(cls, n, c):
        return cls({(0,) * n: c})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0.0) + c
        return _Poly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0.0) - c
        return _Poly(out)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, 0.0) + c1 * c2
        return _Poly(out)


def _random_tree(rng, nvars, max_degree, depth=6):
    kind = rng.integers(0, 6) if depth > 0 else rng.integers(0, 3)
    if kind <= 1:
        i = int(rng.integers(0, nvars))
        return ("var", i), 1
    if kind == 2:
        return ("const", float(rng.uniform(-2, 2))), 0
    left, dl = _random_tree(rng, nvars, max_degree, depth - 1)
    if kind in (3, 4):
        right, dr = _random_tree(rng, nvars, max_degree, depth - 1)
        return ("+-"[kind - 3], left, right), max(dl, dr)
    right, dr = _random_tree(rng, nvars, max_degree - dl, depth - 1)
    if dl + dr > max_degree:
        return left, dl
    return ("*", left, right), dl + dr


def _eval_tree(tree, leaves_var, leaf_const):
    op = tree[0]
    if op == "var":
        return leaves_var[tree[1]]
    if op == "const":
        return leaf_const(tree[1])
    a = _eval_tree(tree[1], leaves_var, leaf_const)
    b = _eval_tree(tree[2], leaves_var, leaf_const)
    return a + b if op == "+" else a - b if op == "-" else a * b


def test_criterion_7_jet_engine_against_symbolic_oracle():
    """1000 random polynomial expressions in up to 6 variables, degree <= 4:
    every Taylor coefficient matches an independent symbolic expansion."""
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        nvars = int(rng.integers(1, 7))
        tree, _ = _random_tree(rng, nvars, 4)
        point = [float(c) for c in rng.uniform(-1.5, 1.5, nvars)]
        js = seed(point, 4)
        jet = _eval_tree(tree, js, lambda c: c)
        if not isinstance(jet, Jet):
            jet = Jet.constant(js[0].space, float(jet))
        polys = [_Poly.variable(i, nvars, point[i]) for i in range(nvars)]
        poly = _eval_tree(tree, polys, lambda c: _Poly.constant(nvars, c))
        if not isinstance(poly, _Poly):
            poly = _Poly.constant(nvars, float(poly))
        for mono, pos in jet.space.index.items():
            want = poly.terms.get(mono, 0.0)
            got = float(jet.coeffs[pos])
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(
        7,
        worst <= 1e-12,
        f"jet engine: 1000 random polynomial expressions, worst relative coefficient error {worst:.3e} <= 1e-12",
    )
