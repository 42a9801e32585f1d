"""Randomized verification harness: sweeps metrics x samples x fields and
reports a residual for every structural identity of the connection and its
curvature.  Deterministic for a fixed seed; the repo's acceptance gate.

Each sweep is a generator of (identity name, residual) pairs at one drawn
sample; `run_verification` draws every sample from one random stream and
keeps the largest residual per identity with the sample it came from.

Residuals are relative to the magnitude of the largest term appearing in the
identity, with an absolute floor of 1e-14 on the denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from . import jets
from .connection import _covariant, _record, christoffel, christoffel_with_partials
from .curvature import (
    _STEP,
    _b_terms,
    _curvature_field_derivatives,
    _curve_point,
    _gamma_along,
    _h,
    _r_along_curve,
    _r_along_curve_direct,
    cartan_derivative_block,
    field_curvature_block,
    flag_curvature,
)
from .curves import (
    CurvePath,
    FieldAlongCurve,
    TwoParamMap,
    _commutation,
    geodesic_shoot,
)
from .errors import FinslerError
from .geometry import _L_jet, _stepped_blocks, metric_blocks
from .metrics import TangentSample, builtin, check_homogeneity

DEFAULT_TOLERANCES = {
    "homogeneity": 1e-10,
    "euler_gvv": 1e-10,
    "g_zero_homogeneity": 1e-10,
    "cartan_flagpole": 1e-10,
    "cartan_neg_homogeneity": 1e-10,
    "gamma_vv": 1e-10,
    "nonlinear_connection": 1e-10,
    "christoffel_homogeneity": 1e-10,
    "torsion_free": 1e-10,
    "almost_g_field": 1e-9,
    "koszul": 1e-9,
    "curvature_antisymmetry": 1e-10,
    "curvature_pair_b": 1e-8,
    "first_bianchi": 1e-9,
    "six_b": 1e-8,
    "nabla_cartan_flagpole": 1e-9,
    "nabla_cartan_symmetry": 1e-10,
    "second_bianchi": 1e-7,
    "almost_g_curve": 1e-9,
    "curve_linearity": 1e-9,
    "curve_leibniz": 1e-9,
    "curve_chart_restriction": 1e-9,
    "two_param_commutation": 1e-10,
    "extension_independence": 1e-8,
    "curve_decomposition": 1e-8,
    "gamma_partials": 1e-10,
    "h_symmetry": 1e-12,
    "h_zero_geodesic": 1e-8,
    "flag_sphere": 1e-6,
    "flag_funk": 1e-4,
    "flag_hyperbolic": 1e-6,
}

_FLOOR = 1e-14


def _rel(resid, *terms):
    scale = _FLOOR
    for t in terms:
        scale = max(scale, float(np.abs(t).max()) if np.ndim(t) else abs(float(t)))
    return float(np.abs(resid).max()) / scale


@dataclass
class VerificationPlan:
    """What to sweep: metrics, sample counts, RNG seed, field degree bounds
    and the tolerance table (deterministic given the seed)."""

    metrics: list
    samples: int = 50
    curve_samples: int = 20
    heavy_samples: int = 5
    seed: int = 0
    degree: int = 3
    box: tuple = (-0.6, 0.6)
    tolerances: dict = field(default_factory=dict)

    def tolerance(self, name):
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


def default_metrics(dim=2):
    return [
        builtin("euclidean", dim=dim),
        builtin("riemannian_perturbation", dim=dim),
        builtin("minkowski_quartic", dim=dim),
        builtin("funk", dim=dim),
        builtin("sphere_round", dim=dim),
    ]


def default_plan(samples=50, seed=7, dim=2, **kwargs):
    return VerificationPlan(metrics=default_metrics(dim), samples=samples, seed=seed, **kwargs)


@dataclass
class IdentityResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    count: int
    worst: dict


@dataclass
class VerificationReport:
    results: list
    passed: bool
    seed: int
    metric_names: list

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "seed": self.seed,
            "metrics": list(self.metric_names),
            "identities": {
                r.name: {
                    "max_residual": r.max_residual,
                    "tolerance": r.tolerance,
                    "passed": bool(r.passed),
                    "count": r.count,
                    "worst": r.worst,
                }
                for r in self.results
            },
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_lines(self):
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"{status}  {r.name:26s}  max {r.max_residual:10.3e}  tol {r.tolerance:8.1e}  n={r.count}"
            )
        return lines


# -- samplers and random fields -----------------------------------------------


# A drawn sample whose g_v is worse conditioned than this is drawn again
# (geometry.COND_LIMIT, far above it, refuses a sample outright).
_REDRAW_COND = 1e8


def _admissible(metric, x, v):
    """v is not too short, (x, v) is in the domain and g_v is finite with
    condition number at most `_REDRAW_COND`."""
    if np.abs(v).max() < 0.2 or not metric.in_domain(x, v):
        return False
    g = metric_blocks(metric, x, v, order=2).g
    return bool(np.all(np.isfinite(g)) and np.linalg.cond(g) <= _REDRAW_COND)


def sample_tangent(metric, rng, box, max_tries=1000):
    """Draw (x, v) in the box, rejecting domain violations and badly
    conditioned fundamental tensors; raises if no sample is found."""
    lo, hi = box
    for _ in range(max_tries):
        x = rng.uniform(lo, hi, metric.dim)
        v = rng.uniform(-1.5, 1.5, metric.dim)
        if _admissible(metric, x, v):
            return TangentSample(x, v)
    raise FinslerError(
        f"could not draw an admissible sample for metric {metric.name!r} "
        f"in box {box} after {max_tries} tries"
    )


@lru_cache(maxsize=None)
def _poly_tables(n, degree):
    """Exponent table of the monomials of degree <= `degree` in n variables,
    with the exponents and factors of their first and second partials:
    d_i x^a = a_i x^(a - e_i) and d_i d_j x^a = a_i (a_j - delta_ij)
    x^(a - e_i - e_j).  Exponents are clipped at 0 where the factor is 0."""
    expo = np.array(sorted(jets._monomials(n, degree)), dtype=np.intp)
    eye = np.eye(n, dtype=np.intp)
    d1 = expo[:, None, :] - eye
    d2 = d1[:, :, None, :] - eye
    f2 = expo[:, :, None] * (expo[:, None, :] - eye)
    return (
        expo,
        np.maximum(d1, 0),
        expo.astype(float),
        np.maximum(d2, 0),
        f2.astype(float),
    )


class PolynomialField:
    """Chart field with polynomial components in x - center, stored as an
    exponent table and an (n, m) coefficient array.  Value, Jacobian and
    Hessian are numpy contractions behind the `VectorFieldOnChart` methods."""

    def __init__(self, coeffs, center, degree, name):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.degree = degree
        self.dim = len(self.center)
        self.name = name
        self._expo, self._d1, self._f1, self._d2, self._f2 = _poly_tables(self.dim, degree)

    def _monomial_values(self, x, exponents):
        """Monomials of x - center for an exponent array (..., n)."""
        d = np.asarray(x, dtype=float) - self.center
        powers = d[:, None] ** np.arange(self.degree + 1)
        return powers[np.arange(self.dim), exponents].prod(axis=-1)

    def value(self, x):
        return self.coeffs @ self._monomial_values(x, self._expo)

    def jacobian(self, x):
        return self.coeffs @ (self._f1 * self._monomial_values(x, self._d1))

    def derivatives2(self, x):
        H = np.einsum("km,mij->kij", self.coeffs, self._f2 * self._monomial_values(x, self._d2))
        return self.value(x), self.jacobian(x), H


def random_polynomial_field(rng, dim, degree=3, center=None):
    """Chart vector field with random polynomial components, stored as a
    coefficient array over the monomials of degree <= `degree`."""
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    m = len(_poly_tables(dim, degree)[0])
    coeffs = [rng.uniform(-1.0, 1.0, m) for _ in range(dim)]
    return PolynomialField(coeffs, center, degree, "random_poly")


def extension_field(x0, value, jac, quad=None):
    """Field with prescribed value and Jacobian at x0 (plus an optional
    quadratic part 1/2 quad[k,i,j] d_i d_j), used to build admissible
    reference extensions; stored as a coefficient array of degree 1 or 2."""
    x0 = np.asarray(x0, dtype=float)
    value = np.asarray(value, dtype=float)
    jac = np.asarray(jac, dtype=float)
    n = len(x0)
    degree = 1 if quad is None else 2
    expo = _poly_tables(n, degree)[0]
    coeffs = np.empty((n, len(expo)))
    for m, alpha in enumerate(expo):
        idx = np.repeat(np.arange(n), alpha)
        if len(idx) == 0:
            coeffs[:, m] = value
        elif len(idx) == 1:
            coeffs[:, m] = jac[:, idx[0]]
        else:
            i, j = idx
            coeffs[:, m] = quad[:, i, i] / 2 if i == j else (quad[:, i, j] + quad[:, j, i]) / 2
    return PolynomialField(coeffs, x0, degree, "extension")


def _t_poly(coeffs, k):
    """t -> k-th t-derivative of the t-polynomial whose row m holds the
    coefficients of t^m."""
    der = polyder(coeffs, k)
    return lambda t: polyval(t, der)


def random_curve(rng, sample):
    """Polynomial curve through the sample with random higher coefficients."""
    x0, v0 = sample.x, sample.v
    a2 = rng.uniform(-1.0, 1.0, len(x0))
    a3 = rng.uniform(-1.0, 1.0, len(x0))
    coeffs = np.array([x0, v0, 0.5 * a2, a3 / 6.0])
    return CurvePath((-1.0, 1.0), *(_t_poly(coeffs, k) for k in range(3)))


def random_curve_field(rng, dim, value):
    """Field along a curve: value at t=0 prescribed, random quadratic in t."""
    coeffs = np.vstack([value, rng.uniform(-1.0, 1.0, (dim, 2)).T])
    return FieldAlongCurve(_t_poly(coeffs, 0), _t_poly(coeffs, 1))


# -- identity sweeps ----------------------------------------------------------


def _g_derivative_along(blocks, JV, Xv, Yv, Zv, JY, JZ):
    """X(g_V(Y, Z)) at the sample from cached blocks: chain rule through the
    base point and the reference field."""
    dgX = np.einsum("ijl,l->ij", blocks.dg_dx, Xv) + 2.0 * np.einsum(
        "qij,ql,l->ij", blocks.C, JV, Xv
    )
    return (
        float(Yv @ dgX @ Zv)
        + float((JY @ Xv) @ blocks.g @ Zv)
        + float(Yv @ blocks.g @ (JZ @ Xv))
    )


def _point_identities(metric, sample, rng, plan, index):
    """Pointwise identities of g, C and Gamma at the sample, then the field
    identities (heavy for the first `plan.heavy_samples` samples)."""
    v = sample.v
    n = metric.dim
    cp = christoffel_with_partials(metric, sample.x, sample.v)
    g, C, G, N = cp.g, cp.cartan, cp.Gamma, cp.N
    L = metric.value(sample.x, sample.v)

    yield "homogeneity", check_homogeneity(metric, sample, (0.5, 2.0, 7.0)).max_residual
    yield "euler_gvv", _rel(v @ g @ v - L, L)

    # a contraction with v is scaled by max|v| times the largest entry of the
    # contracted tensor (the size of a generic slot insertion): for nearly
    # axis-aligned v the individual products are themselves near zero and
    # would turn roundoff into a spurious ratio
    v_max = np.abs(v).max()
    yield "cartan_flagpole", _rel(np.einsum("i,ijk->jk", v, C), v_max * np.abs(C).max())

    # Euler's theorem on the held order-4 record: C is homogeneous of degree
    # -1 and Gamma of degree 0 in v, so dC/dy . v = -C and dGamma/dy . v = 0
    dC_dy, dG_dy = cp.blocks.dC_dy, cp.dGamma_dy
    euler_C = np.einsum("ijkp,p->ijk", dC_dy, v) + C
    yield "cartan_neg_homogeneity", _rel(euler_C, C, v_max * np.abs(dC_dy).max())
    euler_G = np.einsum("kijp,p->kij", dG_dy, v)
    yield "christoffel_homogeneity", _rel(euler_G, G, v_max * np.abs(dG_dy).max(), 1e-2)

    # one finite scaling end to end, by a factor that is not a power of 2
    scaled = christoffel(metric, TangentSample(sample.x, 1.7 * v))
    yield "g_zero_homogeneity", _rel(scaled.g - g, g)
    yield "christoffel_homogeneity", _rel(scaled.Gamma - G, G, 1e-2)

    gamma_up = np.linalg.solve(g, cp.gamma_lc.reshape(n, -1)).reshape(n, n, n)
    lhs = np.einsum("kij,i,j->k", G, v, v)
    rhs = np.einsum("kij,i,j->k", gamma_up, v, v)
    vv_scale = np.abs(G).max() * float(v @ v)
    yield "gamma_vv", _rel(lhs - rhs, lhs, rhs, vv_scale)

    Gv = np.einsum("sji,i->sj", G, v)
    yield "nonlinear_connection", _rel(Gv - N, N, Gv)

    yield from _field_identities(metric, sample, cp, rng, plan, heavy=index < plan.heavy_samples)


def _field_identities(metric, sample, cp, rng, plan, heavy):
    n = metric.dim
    x0, v0 = sample.x, sample.v
    g, C, G = cp.g, cp.cartan, cp.Gamma

    JV = rng.uniform(-1.0, 1.0, (n, n))
    V = extension_field(x0, v0, JV, quad=rng.uniform(-1.0, 1.0, (n, n, n)))
    fields = [random_polynomial_field(rng, n, plan.degree, center=x0) for _ in range(4)]
    vals = [f.value(x0) for f in fields]
    Xv, Yv, Zv, Wv = vals
    jacs = [f.jacobian(x0) for f in fields]
    JX, JY, JZ, JW = jacs

    # torsion: nabla_X Y - nabla_Y X - [X, Y]
    bracket = JY @ Xv - JX @ Yv
    nXY = _covariant(G, JY @ Xv, Xv, Yv)
    t_lhs = nXY - _covariant(G, JX @ Yv, Yv, Xv)
    yield "torsion_free", _rel(t_lhs - bracket, t_lhs, bracket)

    nXV, nYV, nZV = (_covariant(G, JV @ A, A, v0) for A in (Xv, Yv, Zv))
    C_nXV_Y_Z = float(np.einsum("ijk,i,j,k->", C, nXV, Yv, Zv))

    # almost g-compatibility (field form)
    X_gYZ = _g_derivative_along(cp.blocks, JV, Xv, Yv, Zv, JY, JZ)
    rhs = (
        float(nXY @ g @ Zv)
        + float(Yv @ g @ _covariant(G, JZ @ Xv, Xv, Zv))
        + 2.0 * C_nXV_Y_Z
    )
    yield "almost_g_field", _rel(X_gYZ - rhs, X_gYZ, rhs)

    # Koszul consistency
    koszul_rhs = (
        X_gYZ
        - _g_derivative_along(cp.blocks, JV, Zv, Xv, Yv, JX, JY)
        + _g_derivative_along(cp.blocks, JV, Yv, Zv, Xv, JZ, JX)
        + float(bracket @ g @ Zv)
        + float((JX @ Zv - JZ @ Xv) @ g @ Yv)
        - float((JZ @ Yv - JY @ Zv) @ g @ Xv)
        + 2.0
        * (
            -C_nXV_Y_Z
            - float(np.einsum("ijk,i,j,k->", C, nYV, Zv, Xv))
            + float(np.einsum("ijk,i,j,k->", C, nZV, Xv, Yv))
        )
    )
    koszul_lhs = 2.0 * float(nXY @ g @ Zv)
    yield "koszul", _rel(koszul_lhs - koszul_rhs, koszul_lhs, koszul_rhs)

    # curvature identities
    Rc = field_curvature_block(cp, JV)

    def R(av, bv, cv):
        return np.einsum("kabc,a,b,c->k", Rc, av, bv, cv)

    anti = R(Xv, Yv, Zv) + R(Yv, Xv, Zv)
    yield "curvature_antisymmetry", _rel(anti, R(Xv, Yv, Zv), 1e-2)

    bianchi1 = R(Xv, Yv, Zv) + R(Yv, Zv, Xv) + R(Zv, Xv, Yv)
    yield "first_bianchi", _rel(bianchi1, R(Xv, Yv, Zv), R(Yv, Zv, Xv))

    nc = cartan_derivative_block(cp, JV)

    sym_resid = max(
        np.abs(nc - nc.transpose(0, *p)).max()
        for p in ((1, 3, 2), (2, 1, 3), (3, 2, 1))
    )
    yield "nabla_cartan_symmetry", _rel(sym_resid, nc, 1e-2)

    # Eq: nabla_X C (V, Z, W) = -C(nabla_X V, Z, W)
    lhs = float(np.einsum("lijk,l,i,j,k->", nc, Xv, v0, Zv, Wv))
    rhs = -float(np.einsum("ijk,i,j,k->", C, nXV, Zv, Wv))
    yield "nabla_cartan_flagpole", _rel(lhs - rhs, lhs, rhs, np.abs(nc).max())

    def B(*slots):
        """B value together with the size of its largest constituent (the
        constituents are terms of the identities below, so they set the
        scale residuals are relative to)."""
        t1, t2, t3 = _b_terms(cp, JV, Rc, nc, *slots)
        return t1 - t2 + t3, max(abs(t1), abs(t2), abs(t3))

    if heavy:
        # pair symmetry with the B correction
        p1 = float(R(Xv, Yv, Zv) @ g @ Wv)
        p2 = float(R(Xv, Yv, Wv) @ g @ Zv)
        b0, s0 = B(Xv, Yv, Zv, Wv)
        rhs = 2.0 * b0
        yield "curvature_pair_b", _rel(p1 + p2 - rhs, p1, p2, rhs, s0)

        # six-B pair-interchange identity
        q1 = float(R(Xv, Yv, Zv) @ g @ Wv)
        q2 = float(R(Zv, Wv, Xv) @ g @ Yv)
        bs = [
            B(Zv, Yv, Xv, Wv),
            B(Xv, Zv, Yv, Wv),
            B(Wv, Xv, Zv, Yv),
            B(Yv, Wv, Zv, Xv),
            B(Wv, Zv, Xv, Yv),
            B(Xv, Yv, Zv, Wv),
        ]
        rhs = sum(b for b, _ in bs)
        yield "six_b", _rel(q1 - q2 - rhs, q1, q2, rhs, max(s for _, s in bs))

        # second Bianchi: cyclic sum of (nabla_A R^V)(B1, B2)W.  The outer
        # derivative of the curvature field along A needs fifth derivatives
        # of L; it is exact, from one order-5 record at the sample.
        cycles = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        dTs = _curvature_field_derivatives(
            metric, V, x0, [(vals[a], fields[b1], fields[b2], fields[3]) for a, b1, b2 in cycles]
        )
        total = np.zeros(n)
        scale = 1e-2
        for (a, b1, b2), dT in zip(cycles, dTs):
            Av, B1v, B2v = vals[a], vals[b1], vals[b2]
            first = _covariant(G, dT, Av, R(B1v, B2v, Wv))
            term = (
                first
                - R(_covariant(G, jacs[b1] @ Av, Av, B1v), B2v, Wv)
                - R(B1v, _covariant(G, jacs[b2] @ Av, Av, B2v), Wv)
                - R(B1v, B2v, _covariant(G, JW @ Av, Av, Wv))
            )
            total = total + term
            scale = max(scale, float(np.abs(first).max()), float(np.abs(term).max()))
        yield "second_bianchi", float(np.abs(total).max()) / scale


def _admissible_vector(metric, rng, x0):
    for _ in range(500):
        w = rng.uniform(-1.5, 1.5, metric.dim)
        if _admissible(metric, x0, w):
            return w
    raise FinslerError(
        f"no admissible vector found at x={x0.tolist()} for {metric.name!r}"
    )


def _compose_field(chart_field, curve):
    """Restriction of a chart field to a curve, by the chain rule: value
    X(gamma(t)) and derivative JX(gamma(t)) gammadot(t)."""
    return FieldAlongCurve(
        lambda t: chart_field.value(curve.position(t)),
        lambda t: chart_field.jacobian(curve.position(t)) @ curve.velocity(t),
    )


def _nonsingular_pair(rng, v0, n):
    """Draw u with {v0, u} comfortably independent."""
    nv = np.linalg.norm(v0)
    while True:
        u = rng.uniform(-1.0, 1.0, n)
        cross = np.linalg.norm(u - (u @ v0) / (nv * nv) * v0)
        if cross > 0.2:
            return u


def _extension_jacobian(rng, v0, u, acc2, udot, n):
    """Jacobian J with J v0 = acc2 and J u = udot, random elsewhere.

    These two columns are exactly the first-order data a variational pair of
    the curve determines; everything else is free extension choice."""
    basis = np.empty((n, n))
    targets = np.empty((n, n))
    basis[:, 0] = v0
    basis[:, 1] = u
    targets[:, 0] = acc2
    targets[:, 1] = udot
    for k in range(2, n):
        while True:
            basis[:, k] = rng.uniform(-1.0, 1.0, n)
            if np.linalg.matrix_rank(basis[:, : k + 1]) == k + 1:
                break
        targets[:, k] = rng.uniform(-1.0, 1.0, n)
    return targets @ np.linalg.inv(basis)


def _curve_identities(metric, sample, rng, plan, index):
    """Identities of the covariant derivative and curvature along a random
    non-geodesic polynomial curve through the sample.

    Every candidate curve passes through (x0, v0) at t = 0, so each record
    is evaluated once: the symbols with their partials at (x0, v0) and the
    symbols at (x0, w0) for the reference field along the curve."""
    n = metric.dim
    x0, v0 = sample.x, sample.v
    cp = christoffel_with_partials(metric, x0, v0)
    G = cp.Gamma

    curve = random_curve(rng, sample)
    for _ in range(10):  # keep the curve genuinely non-geodesic
        if np.abs(_covariant(G, curve.acceleration(0.0), v0, v0)).max() >= 0.05:
            break
        curve = random_curve(rng, sample)
    acc2 = curve.acceleration(0.0)
    acc = _covariant(G, acc2, v0, v0)

    # reference field along the curve, admissible at t=0
    w0 = _admissible_vector(metric, rng, x0)
    Wc = random_curve_field(rng, n, w0)
    Xc = random_curve_field(rng, n, rng.uniform(-1.0, 1.0, n))
    Yc = random_curve_field(rng, n, rng.uniform(-1.0, 1.0, n))
    ce_w = christoffel(metric, TangentSample(x0, w0))
    blocks_w = ce_w.blocks

    def D(F):
        return _covariant(ce_w.Gamma, F.derivative(0.0), F.value(0.0), v0)

    Xv, Yv = Xc.value(0.0), Yc.value(0.0)
    dX, dY, dW = Xc.derivative(0.0), Yc.derivative(0.0), Wc.derivative(0.0)
    DX, DY, DW = D(Xc), D(Yc), D(Wc)
    gw = blocks_w.g
    lhs = (
        float(Xv @ (np.einsum("ijl,l->ij", blocks_w.dg_dx, v0)) @ Yv)
        + 2.0 * float(np.einsum("qij,q,i,j->", blocks_w.C, dW, Xv, Yv))
        + float(dX @ gw @ Yv)
        + float(Xv @ gw @ dY)
    )
    rhs = (
        float(DX @ gw @ Yv)
        + float(Xv @ gw @ DY)
        + 2.0 * float(np.einsum("ijk,i,j,k->", blocks_w.C, DW, Xv, Yv))
    )
    yield "almost_g_curve", _rel(lhs - rhs, lhs, rhs)

    # linearity and Leibniz for the curve derivative
    a, b = rng.uniform(-2.0, 2.0, 2)
    combo = FieldAlongCurve(
        value=lambda t: a * Xc.value(t) + b * Yc.value(t),
        derivative=lambda t: a * Xc.derivative(t) + b * Yc.derivative(t),
    )
    yield "curve_linearity", _rel(D(combo) - (a * DX + b * DY), DX, DY)

    c0, c1 = rng.uniform(-1.0, 1.0, 2)
    h = lambda t: t * t + c1 * t + c0
    hdot = lambda t: 2.0 * t + c1
    scaled = FieldAlongCurve(
        value=lambda t: h(t) * Xc.value(t),
        derivative=lambda t: hdot(t) * Xc.value(t) + h(t) * Xc.derivative(t),
    )
    leib = D(scaled) - (hdot(0.0) * Xv + h(0.0) * DX)
    yield "curve_leibniz", _rel(leib, D(scaled), DX)

    # restriction of a chart field Xf to the curve, both sides with the
    # reference value w0 at x0 (the draw is the Jacobian of a chart reference
    # field through w0, which neither side reads)
    rng.uniform(-1.0, 1.0, (n, n))
    Xf = random_polynomial_field(rng, n, plan.degree, center=x0)
    lhs_vec = D(_compose_field(Xf, curve))
    rhs_vec = _covariant(ce_w.Gamma, Xf.jacobian(x0) @ v0, v0, Xf.value(x0))
    yield "curve_chart_restriction", _rel(lhs_vec - rhs_vec, lhs_vec, rhs_vec)

    # two-parameter map commutation
    c_lin = rng.uniform(-0.5, 0.5, (n, 5))

    def lam_func(t, s):
        return [
            x0[i]
            + t * c_lin[i, 0]
            + s * c_lin[i, 1]
            + (t * s) * c_lin[i, 2]
            + (t * t) * c_lin[i, 3]
            + (s * s) * c_lin[i, 4]
            for i in range(n)
        ]

    lam = TwoParamMap(lam_func, (-0.5, 0.5), (-0.5, 0.5), dim=n)
    parts = lam.partials(0.0, 0.0)
    resid = _commutation(G, parts)
    scale_terms = np.einsum("kij,i,j->k", G, parts["d_s"], parts["d_t"])
    yield "two_param_commutation", _rel(resid, parts["d_ts"], scale_terms, 1e-2)

    # curve-wise curvature: direct commutator vs hh + H (non-geodesic)
    u = _nonsingular_pair(rng, v0, n)
    w = rng.uniform(-1.0, 1.0, n)
    hh_path = _r_along_curve(v0, cp, acc, u, w)
    direct1 = _r_along_curve_direct(cp, acc2, u, w, rng)
    yield "curve_decomposition", _rel(hh_path - direct1, hh_path, direct1)

    # both sides above read Gamma's (t, s) derivatives off cp by the chain
    # rule; here they meet a complex step of the order-3 blocks along each
    # direction, a path through neither tangent_einsum nor inverse_with_tangent
    udot = -np.einsum("kij,i,j->k", G, u, v0)
    LJ = _L_jet(metric, x0, v0, 4)
    for a, b in ((v0, acc2), (u, udot)):
        stepped = _stepped_blocks(LJ, x0, v0, np.concatenate([a, b]), _STEP)
        got = _record(stepped, np.linalg.inv(stepped.g)).Gamma.imag / _STEP
        want = _gamma_along(cp, a, b)
        yield "gamma_partials", _rel(got - want, got, want)

    # extension independence: a second realization of the free data and a
    # chart-field extension sharing the variational first-order data
    direct2 = _r_along_curve_direct(cp, acc2, u, w, rng)
    J = _extension_jacobian(rng, v0, u, acc2, udot, n)
    Vext = extension_field(x0, v0, J, quad=rng.uniform(-1.0, 1.0, (n, n, n)))
    Uext = extension_field(x0, u, rng.uniform(-1.0, 1.0, (n, n)))
    Wext = extension_field(x0, w, rng.uniform(-1.0, 1.0, (n, n)))
    Rc = field_curvature_block(cp, Vext.jacobian(x0))
    chart = np.einsum("kabc,a,b,c->k", Rc, *(F.value(x0) for F in (Vext, Uext, Wext)))
    yield "extension_independence", max(
        _rel(direct2 - hh_path, hh_path, direct2),
        _rel(chart - hh_path, hh_path, chart),
    )

    # H symmetry
    H_uw = _h(cp, acc, u, w)
    H_wu = _h(cp, acc, w, u)
    yield "h_symmetry", _rel(H_uw - H_wu, H_uw, H_wu, 1e-2)


def _unit_sample(metric, rng, box):
    """A drawn sample with v scaled to |L(x, v)| = 1 (kept when L is ~0)."""
    sample = sample_tangent(metric, rng, box)
    L0 = metric.value(sample.x, sample.v)
    return TangentSample(sample.x, sample.v / np.sqrt(abs(L0)) if abs(L0) > 1e-12 else sample.v)


def _geodesic_identities(metric, sample, rng, plan, index):
    """The acceleration correction H vanishes along a geodesic from the sample."""
    curve = geodesic_shoot(metric, sample.x, sample.v, T=0.6, tol=1e-10)
    for t in (0.12, 0.33, 0.57):
        vel, cp, acc = _curve_point(metric, curve, t)
        u = rng.uniform(-1.0, 1.0, metric.dim)
        w = rng.uniform(-1.0, 1.0, metric.dim)
        H = _h(cp, acc, u, w)
        M = np.einsum("i,j,kijp->kp", u, w, cp.dGamma_dy)
        Lval = abs(metric.value(curve.position(t), vel))
        scale = max(float(np.abs(M).max()) * max(Lval, 1.0), _FLOOR)
        yield "h_zero_geodesic", float(np.abs(H).max()) / scale


_FLAG_CONSTANTS = {
    "sphere_round": ("flag_sphere", 1.0),
    "funk": ("flag_funk", -0.25),
    "hyperbolic": ("flag_hyperbolic", -1.0),
}


def _flag_identities(metric, sample, rng, plan, index):
    """Flag curvature of a family of known constant K at a random flag."""
    ident, K0 = _FLAG_CONSTANTS[metric.name]
    u = _nonsingular_pair(rng, sample.v, metric.dim)
    yield ident, abs(flag_curvature(metric, sample, u) - K0)


def _is_real(value, kinds=(int, float, np.integer, np.floating)):
    return isinstance(value, kinds) and not isinstance(value, bool)


# the README's working range; at dim 8 a field of degree 6 has 3003
# monomials, and its derivative tables grow as C(n + degree, n) n^3
_MAX_DIM = 8
_MAX_DEGREE = 6


def _check_plan(plan):
    """Refuse a plan that cannot be swept as written, before any sampling."""
    for metric in plan.metrics:
        if not 2 <= metric.dim <= _MAX_DIM:
            raise FinslerError(
                f"metric {metric.name!r} has dimension {metric.dim}; "
                f"verification needs dimension 2 to {_MAX_DIM}"
            )
    for name in ("samples", "curve_samples", "heavy_samples", "seed", "degree"):
        value = getattr(plan, name)
        if not (_is_real(value, (int, np.integer)) and value >= 0):
            raise FinslerError(f"plan {name} must be a non-negative integer, got {value!r}")
    if plan.degree > _MAX_DEGREE:
        raise FinslerError(f"plan degree must be at most {_MAX_DEGREE}, got {plan.degree!r}")
    box = plan.box
    if not (
        isinstance(box, (tuple, list, np.ndarray))
        and len(box) == 2
        and all(_is_real(b) and np.isfinite(b) for b in box)
        and box[0] < box[1]
    ):
        raise FinslerError(f"plan box must be two finite numbers lo < hi, got {box!r}")
    if not isinstance(plan.tolerances, dict):
        raise FinslerError(f"plan tolerances must be a mapping, got {plan.tolerances!r}")
    for name, value in plan.tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise FinslerError(f"unknown tolerance name {name!r} in plan")
        if not (_is_real(value) and np.isfinite(value) and value > 0):
            raise FinslerError(
                f"tolerance {name!r} must be a finite positive number, got {value!r}"
            )


def run_verification(plan):
    """Execute every identity sweep in the plan; deterministic for a fixed
    seed.  Returns a VerificationReport whose aggregate flag is the gate."""
    _check_plan(plan)
    rng = np.random.default_rng(plan.seed)
    data = {}  # name -> [max residual, count, where of the max]
    for metric in plan.metrics:
        flags = min(plan.samples, 20) if metric.name in _FLAG_CONSTANTS else 0
        sweeps = (
            ("point", plan.samples, sample_tangent, _point_identities),
            ("curve", plan.curve_samples, sample_tangent, _curve_identities),
            ("geodesic", 1, _unit_sample, _geodesic_identities),
            ("flag", flags, sample_tangent, _flag_identities),
        )
        for kind, count, sampler, sweep in sweeps:
            for index in range(count):
                sample = sampler(metric, rng, plan.box)
                where = {
                    "metric": metric.name,
                    "kind": kind,
                    "x": sample.x.tolist(),
                    "v": sample.v.tolist(),
                }
                for name, resid in sweep(metric, sample, rng, plan, index):
                    entry = data.setdefault(name, [0.0, 0, None])
                    entry[1] += 1
                    if resid >= entry[0]:
                        entry[0], entry[2] = resid, where

    results = []
    for name in DEFAULT_TOLERANCES:
        if name in data:
            max_resid, count, worst = data[name]
            tol = plan.tolerance(name)
            results.append(IdentityResult(name, max_resid, tol, max_resid <= tol, count, worst))
    return VerificationReport(
        results=results,
        passed=all(r.passed for r in results),
        seed=int(plan.seed),
        metric_names=[m.name for m in plan.metrics],
    )
