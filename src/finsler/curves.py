"""Curves, fields along curves, geodesics and two-parameter maps.

The covariant derivative along a curve with reference field W is

    (D^W_gamma X)^k = dX^k/dt + X^i gammadot^j Gamma^k_ij(gamma(t), W(t)),

geodesics solve D^{gammadot}_gamma gammadot = 0.  Geodesics and parallel
transport are integrated with the package's adaptive Dormand-Prince 8(5,3)
pair and its dense output (`_dop853`, step for step the same as SciPy's
DOP853, which the package does not import).
"""

from __future__ import annotations

import numpy as np

from ._dop853 import StepSizeError, dop853
from .connection import _christoffel, _covariant
from .curvature import covariant_acceleration
from .errors import DegenerateMetricError, DomainError, IntegrationError
from .geometry import _gather_blocks, _L_jet
from .jets import partials, seed


def _component_partials(func, dim, values, order):
    """partials() of the `dim` components func returns, seeded at `values`."""
    args = seed(values, order)
    out = func(*args)
    if len(out) != dim:
        raise ValueError(f"expected {dim} components, got {len(out)}")
    return partials(args[0].space, out)


def _each_time(func, n):
    """func, which maps a float t to n components, extended to a 1-D array
    of m times: the (n, m) array of its values, column by column."""

    def at(t):
        if np.ndim(t) == 0:
            return func(t)
        return np.array([func(s) for s in t], dtype=float).reshape(-1, n).T

    return at


class CurvePath:
    """A smooth curve on the chart with velocity and acceleration.

    The three callables map t to arrays.  `position` and `velocity` also
    take a 1-D array of m times and return a (dim, m) array whose column k
    equals the read at the k-th time.  `from_function` builds them from a
    jet-evaluable function of t; integrator output wraps the dense solution
    (velocity is part of the ODE state, the acceleration is the ODE
    right-hand side on the solution).
    """

    def __init__(self, domain, position, velocity, acceleration):
        self.domain = (float(domain[0]), float(domain[1]))
        self._pos = position
        self._vel = velocity
        self._acc = acceleration

    @classmethod
    def from_function(cls, func, domain, dim=None):
        """func(t) -> point components, evaluable over jets to order 2."""

        probe = func(0.5 * (domain[0] + domain[1]))
        n = len(probe) if dim is None else dim

        def pos(t):
            return np.array([float(c) for c in func(float(t))])

        def vel(t):
            return _component_partials(func, n, [t], 2)[1][:, 0]

        def acc(t):
            return _component_partials(func, n, [t], 2)[2][:, 0, 0]

        return cls(domain, _each_time(pos, n), _each_time(vel, n), acc)

    def position(self, t):
        return self._pos(t)

    def velocity(self, t):
        return self._vel(t)

    def acceleration(self, t):
        return self._acc(t)

    def check_admissible(self, metric, ts):
        """Verify (gamma(t), gammadot(t)) stays in the metric domain on the
        given grid plus midpoints."""
        ts = np.asarray(ts, dtype=float)
        grid = np.sort(np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1])]))
        for t, x, v in zip(grid, self.position(grid).T, self.velocity(grid).T):
            if not metric.in_domain(x, v):
                raise DomainError(
                    f"curve leaves the domain of {metric.name!r} at t={t:g}"
                )


class FieldAlongCurve:
    """A vector field along a curve, with its t-derivative."""

    def __init__(self, value, derivative):
        self._value = value
        self._derivative = derivative

    @classmethod
    def from_function(cls, func, dim=None):
        probe = func(0.0)
        n = len(probe) if dim is None else dim

        def value(t):
            return np.array([float(c) for c in func(float(t))])

        def derivative(t):
            return _component_partials(func, n, [t], 1)[1][:, 0]

        return cls(value, derivative)

    @classmethod
    def from_constant(cls, vec):
        vec = np.asarray(vec, dtype=float)
        return cls(lambda t: vec.copy(), lambda t: np.zeros_like(vec))

    def value(self, t):
        return self._value(t)

    def derivative(self, t):
        return self._derivative(t)


def cov_deriv_along(metric, curve, W, X, t):
    """(D^W_gamma X)(t): derivative of X plus the Christoffel correction with
    reference vector W(t)."""
    ce = _christoffel(metric, curve.position(t), W.value(t))
    return _covariant(ce.Gamma, X.derivative(t), X.value(t), curve.velocity(t))


_SPRAY_BLOCKS = ("dL_dx", "d2L_dydx", "g")


def _spray(metric, x, v):
    """Geodesic right-hand side: xddot = -1/2 g^{-1} (L_{xy} v - L_x).

    This is -v^i v^j gamma^k_ij(x, v), with every Cartan correction killed
    by the double contraction; Euler's identities g_ki v^i = L_{y_k} / 2 and
    g_ij v^i v^j = L turn the contracted dg/dx into first x-derivatives of
    L and L_y, so an order-2 jet of L suffices.
    """
    blocks = _gather_blocks(_L_jet(metric, x, v, 2).coeffs, 2, metric.dim, names=_SPRAY_BLOCKS)
    b = blocks["d2L_dydx"] @ v - blocks["dL_dx"]
    try:
        return -0.5 * np.linalg.solve(blocks["g"], b)
    except np.linalg.LinAlgError as exc:
        raise IntegrationError(f"degenerate fundamental tensor at x={x.tolist()}") from exc


def geodesic_shoot(metric, x0, v0, T, tol=1e-10):
    """Integrate the geodesic equation from (x0, v0) over [0, T].

    The per-step tolerance is tol divided by max(|T|, 1), so a backward shoot
    is held as tightly as a forward one; the output curve carries the dense
    solution (velocity from the state, acceleration from the spray)."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not np.isfinite(T):
        raise ValueError(f"T must be finite, got {T!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not np.any(v0 != 0.0):
        raise DomainError("geodesic initial velocity must be nonzero")
    metric.check_sample(x0, v0)
    n = metric.dim

    def rhs(t, y):
        x, v = y[:n], y[n:]
        try:
            return np.concatenate([v, _spray(metric, x, v)])
        except DomainError as exc:
            raise IntegrationError(
                f"geodesic left the domain of {metric.name!r} at t={t:g}"
            ) from exc

    rtol = max(tol / max(abs(T), 1.0), 1e-13)
    y0 = np.concatenate([x0, v0])
    try:
        ts, dense = dop853(rhs, 0.0, T, y0, rtol, rtol * 1e-2)
    except StepSizeError as exc:
        raise IntegrationError(f"geodesic integration failed: {exc}") from exc

    def acceleration(t):
        y = dense(t)
        return _spray(metric, y[:n], y[n:])

    curve = CurvePath(
        (0.0, T),
        position=lambda t: dense(t)[:n],
        velocity=lambda t: dense(t)[n:],
        acceleration=acceleration,
    )
    curve.check_admissible(metric, ts)
    return curve


def geodesic_residual(metric, curve, ts):
    """max |D^{gammadot}_gamma gammadot| over the given times (the defect of
    the geodesic equation)."""
    ts = np.asarray(ts, dtype=float)
    residuals = [np.abs(covariant_acceleration(metric, curve, t)).max() for t in ts]
    return float(max(residuals, default=0.0))


def parallel_transport(metric, curve, W, x0, t0, t1):
    """Solve D^W_gamma X = 0 with X(t0) = x0; returns the transported field
    with dense interpolation on [t0, t1]."""
    x0 = np.asarray(x0, dtype=float)

    def rhs(t, X):
        try:
            ce = _christoffel(metric, curve.position(t), W.value(t))
        except DomainError as exc:
            raise IntegrationError(f"reference field left the domain at t={t:g}") from exc
        except DegenerateMetricError as exc:
            raise IntegrationError(f"degenerate fundamental tensor along the curve at t={t:g}") from exc
        return -np.einsum("kij,i,j->k", ce.Gamma, X, curve.velocity(t))

    try:
        _, dense = dop853(rhs, t0, t1, x0, 1e-11, 1e-13)
    except StepSizeError as exc:
        raise IntegrationError(f"parallel transport failed: {exc}") from exc
    return FieldAlongCurve(
        value=lambda t: dense(t),
        derivative=lambda t: rhs(t, dense(t)),
    )


class TwoParamMap:
    """A smooth map (t, s) -> chart point, jet-evaluable to order 2."""

    def __init__(self, func, t_range, s_range, dim=None):
        self.func = func
        self.t_range = tuple(map(float, t_range))
        self.s_range = tuple(map(float, s_range))
        probe = func(
            0.5 * (self.t_range[0] + self.t_range[1]),
            0.5 * (self.s_range[0] + self.s_range[1]),
        )
        self.dim = len(probe) if dim is None else dim

    def value(self, t, s):
        return np.array([float(c) for c in self.func(float(t), float(s))])

    def partials(self, t, s):
        """dict with value, d_t, d_s, d_tt, d_ts, d_ss at (t, s)."""
        value, grad, hess = _component_partials(self.func, self.dim, [t, s], 2)
        return {
            "value": value,
            "d_t": grad[:, 0],
            "d_s": grad[:, 1],
            "d_tt": hess[:, 0, 0],
            "d_ts": hess[:, 0, 1],
            "d_ss": hess[:, 1, 1],
        }


def mixed_derivative_commutation(metric, lam, V, t, s):
    """Residual |D^V_{gamma_s} beta_t' - D^V_{beta_t} gamma_s'| at (t, s).

    Both derivatives equal the mixed partial plus the symmetric Christoffel
    contraction, so the residual is roundoff-level for any smooth map."""
    p = lam.partials(t, s)
    return _commutation(_christoffel(metric, p["value"], V(t, s)).Gamma, p)


def _commutation(G, p):
    """mixed_derivative_commutation from held values: the symbols at the
    map's point and the map's `partials` there."""
    d_ts = p["d_ts"]
    first = _covariant(G, d_ts, p["d_s"], p["d_t"])
    second = _covariant(G, d_ts, p["d_t"], p["d_s"])
    return float(np.abs(first - second).max())
