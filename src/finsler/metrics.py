"""Metric definitions: builtin families, user expression metrics, file loading.

A metric here is a 2-homogeneous scalar ``L(x, v)`` on a conic subset of the
tangent bundle of a single chart (an open subset of R^n).  The evaluation
callable is written once, generically, and is fed either floats or jets; all
differentiation downstream happens through jet evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import exprs, jets
from .errors import DomainError, ParseError

_MATRIX_KEY = re.compile(r"a(\d)(\d)")


@dataclass(frozen=True)
class TangentSample:
    """A base point x with a tangent vector v, the (x, v) pair every tensor
    is evaluated at."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape or self.x.ndim != 1:
            raise ValueError("x and v must be 1-d arrays of equal length")

    @property
    def dim(self):
        return len(self.x)


@dataclass(frozen=True)
class MetricField:
    """A conic pseudo-Finsler metric on a chart.

    `func(x_seq, v_seq)` evaluates L over any scalar ring (floats or jets).
    `predicate`, if given, restricts the conic domain further than the default
    v != 0; it must itself be conic in v.
    """

    name: str
    dim: int
    func: Callable
    predicate: Optional[Callable] = field(default=None)

    def in_domain(self, x, v) -> bool:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if len(x) != self.dim or len(v) != self.dim:
            return False
        if not v.any():
            return False
        if self.predicate is not None and not self.predicate(x, v):
            return False
        return True

    def check_sample(self, x, v):
        if not self.in_domain(x, v):
            raise DomainError(
                f"(x={np.asarray(x).tolist()}, v={np.asarray(v).tolist()}) "
                f"is outside the domain of metric {self.name!r}"
            )

    def value(self, x, v) -> float:
        """L(x, v) over plain floats, with a domain check; a non-finite L
        raises ArithmeticError."""
        self.check_sample(x, v)
        L = float(self.func([float(c) for c in x], [float(c) for c in v]))
        if not np.isfinite(L):
            raise ArithmeticError(
                f"L of metric {self.name!r} is {L} at x={np.asarray(x).tolist()}, v={np.asarray(v).tolist()}"
            )
        return L


@dataclass(frozen=True)
class HomogeneityReport:
    sample: TangentSample
    lambdas: tuple
    residuals: tuple
    max_residual: float


def check_homogeneity(metric, sample, lambdas):
    """Relative residual of L(x, lam*v) = lam^2 L(x, v) over the lambda list."""
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("homogeneity scalings must be positive")
    metric.check_sample(sample.x, sample.v)
    base = metric.value(sample.x, sample.v)
    residuals = []
    for lam in lambdas:
        scaled = metric.value(sample.x, lam * sample.v)
        expect = lam**2 * base
        residuals.append(abs(scaled - expect) / max(abs(expect), 1e-14))
    return HomogeneityReport(
        sample=sample,
        lambdas=tuple(lambdas),
        residuals=tuple(residuals),
        max_residual=max(residuals),
    )


# -- builtin metric families -------------------------------------------------


def _dot(a, b):
    return sum(ai * bi for ai, bi in zip(a, b))


def _euclidean(dim):
    def L(x, v):
        return _dot(v, v)

    return MetricField("euclidean", dim, L)


def _minkowski_quartic(dim):
    def L(x, v):
        return jets.sqrt(sum(vi**4 for vi in v))

    return MetricField("minkowski_quartic", dim, L)


def _sphere_round(dim):
    # Round unit sphere in the stereographic chart: g = 4/(1+|x|^2)^2 delta.
    def L(x, v):
        c = 1 + _dot(x, x)
        return 4 * _dot(v, v) / (c * c)

    return MetricField("sphere_round", dim, L)


def _hyperbolic(dim):
    # Poincare ball: g = 4/(1-|x|^2)^2 delta, |x| < 1, curvature -1.
    def L(x, v):
        c = 1 - _dot(x, x)
        return 4 * _dot(v, v) / (c * c)

    def inside(x, v):
        return float(x @ x) < 1.0

    return MetricField("hyperbolic", dim, L, predicate=inside)


def _funk(dim, radius=1.0):
    # Funk metric of the ball |x| < radius, squared to be 2-homogeneous.
    radius = float(radius)
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"funk radius must be a finite positive number, got {radius!r}")
    r2 = radius**2

    def L(x, v):
        one = r2 - _dot(x, x)
        xv = _dot(x, v)
        F = (jets.sqrt(one * _dot(v, v) + xv * xv) + xv) / one
        return F * F

    def inside(x, v):
        return float(x @ x) < r2

    return MetricField("funk", dim, L, predicate=inside)


def _as_entry(entry, dim):
    if callable(entry):
        return entry
    if isinstance(entry, str):
        compiled = exprs.compile_expression(entry, dim, allow_v=False)
        return lambda x: compiled(x, None)
    value = float(entry)
    return lambda x: value

_SYMMETRY_PROBES = (0.0, 0.31, -0.42, 0.17)


def _riemannian(matrix, dim=None):
    rows = list(matrix)
    n = len(rows)
    if dim is not None and dim != n:
        raise ValueError(f"matrix is {n}x{n} but dim={dim} was requested")
    if any(len(r) != n for r in rows):
        raise ValueError("quadratic form matrix must be square")
    entries = [[_as_entry(rows[i][j], n) for j in range(n)] for i in range(n)]

    # Spot-check symmetry at a few deterministic points; the quadratic form
    # must be symmetric for the fundamental tensor to equal A(x).
    for base in _SYMMETRY_PROBES:
        x = [base + 0.07 * k for k in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a, b = entries[i][j](x), entries[j][i](x)
                if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
                    raise ValueError(
                        f"non-symmetric quadratic form: A[{i+1}{j+1}] != A[{j+1}{i+1}] at x={x}"
                    )

    # The probe above is what allows summing each symmetric pair once:
    # A_ij v_i v_j + A_ji v_j v_i = A_ij (2 v_i v_j).
    def L(x, v):
        total = 0.0
        for i in range(n):
            total = total + entries[i][i](x) * (v[i] * v[i])
            for j in range(i + 1, n):
                total = total + entries[i][j](x) * (2 * (v[i] * v[j]))
        return total

    return MetricField("riemannian", n, L)


def perturbed_riemannian(dim):
    """I + a S(x) with S_ij = sin(x_i + 2 x_j) + sin(x_j + 2 x_i) and
    a = min(0.1, 0.4 / dim); the standard non-flat Riemannian test metric,
    builtin riemannian_perturbation.  Since |S_ij| <= 2, Gershgorin bounds
    every eigenvalue of g below by 1 - 2 a dim >= 0.2 at every dimension;
    a is 0.1 exactly at dims 2-4."""
    a = min(0.1, 0.4 / dim)

    def entry(i, j):
        def f(x):
            s = jets.sin(x[i] + 2 * x[j])
            t = s if i == j else jets.sin(x[j] + 2 * x[i])
            return (i == j) + a * (s + t)

        return f

    matrix = [[entry(i, j) for j in range(dim)] for i in range(dim)]
    return MetricField("riemannian_perturbation", dim, _riemannian(matrix).func)


_BUILTINS = {
    "euclidean": _euclidean,
    "minkowski_quartic": _minkowski_quartic,
    "sphere_round": _sphere_round,
    "hyperbolic": _hyperbolic,
    "funk": _funk,
    "riemannian_perturbation": perturbed_riemannian,
}


def builtin(name, *, dim=None, matrix=None, radius=None):
    """Construct a builtin metric by name.

    riemannian takes `matrix` (entries: numbers, expression strings in x1..xn,
    or callables); funk takes an optional `radius`; the others take `dim`.
    A parameter the named metric does not take is refused.
    """
    if name != "riemannian" and name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS) + ["riemannian"])
        raise ValueError(f"unknown builtin metric {name!r} (known: {known})")
    if matrix is not None and name != "riemannian":
        raise ValueError(f"builtin {name!r} takes no matrix")
    if radius is not None and name != "funk":
        raise ValueError(f"builtin {name!r} takes no radius")
    if name == "riemannian":
        if matrix is None:
            raise ValueError("riemannian needs a matrix")
        return _riemannian(matrix, dim)
    if dim is None:
        raise ValueError(f"builtin {name!r} needs dim")
    if name == "funk":
        return _funk(dim, radius if radius is not None else 1.0)
    return _BUILTINS[name](dim)


# -- metric definition files -------------------------------------------------

_FILE_KEYS = {"dim", "name", "builtin", "L", "domain", "radius"}


def parse_metric(text):
    """Parse a metric definition document into a MetricField.

    The format is UTF-8 ``key = value`` lines with ``#`` comments.  Either a
    `builtin` name (with its parameters) or an expression `L` over x1..xn,
    v1..vn must be given, plus `dim`.  An optional `domain` expression
    restricts the conic domain to where it is strictly positive.
    """
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ParseError(f"line {lineno}: empty value for {key!r}")
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    matrix_keys = sorted(k for k in pairs if _MATRIX_KEY.fullmatch(k))
    unknown = set(pairs) - _FILE_KEYS - set(matrix_keys)
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(sorted(unknown))}")
    if "dim" not in pairs:
        raise ParseError("missing required key 'dim'")
    try:
        dim = int(pairs["dim"])
    except ValueError:
        raise ParseError(f"dim must be an integer, got {pairs['dim']!r}") from None
    if dim < 1:
        raise ParseError(f"dim must be positive, got {dim}")

    has_builtin = "builtin" in pairs
    has_expr = "L" in pairs
    if has_builtin == has_expr:
        raise ParseError("exactly one of 'builtin' or 'L' must be given")

    bname = pairs.get("builtin")
    owner = f"builtin = {bname}" if has_builtin else "an L expression metric"
    if matrix_keys and bname != "riemannian":
        raise ParseError(f"{owner} takes no matrix keys ({', '.join(matrix_keys)}), only riemannian does")
    if "radius" in pairs and bname != "funk":
        raise ParseError(f"{owner} takes no radius, only funk does")

    if has_builtin:
        kwargs = {"dim": dim}
        if "radius" in pairs:
            try:
                kwargs["radius"] = float(pairs["radius"])
            except ValueError:
                raise ParseError(f"radius must be a finite positive number, got {pairs['radius']!r}") from None
        if bname == "riemannian":
            kwargs["matrix"] = _matrix_from_pairs(pairs, dim)
        metric = builtin(bname, **kwargs)
    else:
        func = exprs.compile_expression(pairs["L"], dim, allow_v=True)
        metric = MetricField(pairs.get("name", "expression"), dim, func)

    if "domain" in pairs:
        dom = exprs.compile_expression(pairs["domain"], dim, allow_v=True)

        def predicate(x, v, _dom=dom, _inner=metric.predicate):
            if _inner is not None and not _inner(x, v):
                return False
            return float(_dom(list(x), list(v))) > 0.0

        metric = MetricField(metric.name, dim, metric.func, predicate=predicate)
    if "name" in pairs:
        metric = MetricField(pairs["name"], dim, metric.func, predicate=metric.predicate)
    return metric


def _matrix_from_pairs(pairs, dim):
    entries = [[None] * dim for _ in range(dim)]
    for key, value in pairs.items():
        m = _MATRIX_KEY.fullmatch(key)
        if m is None:
            continue
        i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"matrix key {key!r} out of range for dim {dim}")
        entries[i][j] = value
    missing_diag = [i for i in range(dim) if entries[i][i] is None]
    if missing_diag:
        raise ParseError(
            "riemannian matrix is missing diagonal entries: "
            + ", ".join(f"a{i+1}{i+1}" for i in missing_diag)
        )
    for i in range(dim):
        for j in range(dim):
            if entries[i][j] is None:
                entries[i][j] = entries[j][i] if entries[j][i] is not None else "0"
    return entries


def load_metric(path):
    """Read a metric definition file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric(fh.read())
