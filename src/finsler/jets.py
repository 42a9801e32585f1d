"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A :class:`Jet` stores the Taylor coefficients of a scalar function of
``nvars`` seed variables up to total degree ``order`` (at most 4).  All
arithmetic is exact truncated Taylor arithmetic, so for polynomial inputs of
degree <= order every extracted partial derivative is exact up to roundoff.

Coefficients are stored densely, indexed by graded-lexicographic multi-index.
The coefficient of ``x^alpha`` is ``(d^alpha f)(0) / alpha!``; only this
module knows that layout, and :func:`partials` reads derivatives out of it.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from numbers import Real

import numpy as np

MAX_ORDER = 4

_SCALAR_TYPES = (Real, np.floating, np.integer)


def _monomials(nvars, order):
    """All exponent tuples over `nvars` variables with total degree <= order,
    in graded-lexicographic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    rec([], order, nvars)
    out.sort(key=lambda m: (sum(m), m))
    return tuple(out)


class JetSpace:
    """Shared monomial and multiplication tables for one (nvars, order) pair.

    Instances are cached; jets from different spaces must not be mixed.
    """

    def __init__(self, nvars, order):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in [1, {MAX_ORDER}], got {order}")
        if nvars < 1:
            raise ValueError(f"need at least one seed variable, got {nvars}")
        self.nvars = nvars
        self.order = order
        self.monomials = _monomials(nvars, order)
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.factorials = np.array(
            [math.prod(math.factorial(d) for d in m) for m in self.monomials],
            dtype=float,
        )
        rows_i, rows_j, rows_k = [], [], []
        for k_pos, gamma in enumerate(self.monomials):
            for alpha in itertools.product(*(range(d + 1) for d in gamma)):
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                rows_i.append(self.index[alpha])
                rows_j.append(self.index[beta])
                rows_k.append(k_pos)
        self._mul_i = np.array(rows_i)
        self._mul_j = np.array(rows_j)
        self._mul_k = np.array(rows_k)

    @cached_property
    def partial_tables(self):
        """(positions, scales) for k = 0..order: `coeffs[positions] * scales`
        is the k-th partial tensor of a jet, of shape (nvars,)*k."""
        # step[p, a]: position of monomial p times x_a (0 past the order)
        step = np.array(
            [[self.index.get(m[:a] + (m[a] + 1,) + m[a + 1 :], 0) for a in range(self.nvars)]
             for m in self.monomials]
        )
        positions = [np.zeros((), dtype=np.intp)]
        while len(positions) <= self.order:
            positions.append(step[positions[-1]])
        return tuple((pos, self.factorials[pos]) for pos in positions)

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(nvars, order):
    return JetSpace(nvars, order)


class Jet:
    """Immutable truncated Taylor expansion of a scalar.

    Supports +, -, *, /, ** with other jets of the same space and with plain
    scalars; `sqrt`, `exp`, `log`, `sin`, `cos` are provided as module-level
    functions that also accept floats, so metric definitions can be written
    once and evaluated either way.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, space, value):
        c = np.zeros(space.size)
        c[0] = value
        return cls(space, c)

    @classmethod
    def variable(cls, space, value, slot):
        """value + one unit of the seed variable in `slot`."""
        if not 0 <= slot < space.nvars:
            raise ValueError(f"slot {slot} out of range for {space}")
        c = np.zeros(space.size)
        c[0] = value
        mono = tuple(1 if i == slot else 0 for i in range(space.nvars))
        c[space.index[mono]] = 1.0
        return cls(space, c)

    # -- inspection ---------------------------------------------------------

    @property
    def value(self):
        """Constant term (the function value at the expansion point)."""
        return float(self.coeffs[0])

    def extract(self, multi_index):
        """Partial derivative for the given multi-index (coefficient times
        the multi-index factorial)."""
        mono = tuple(int(d) for d in multi_index)
        if len(mono) != self.space.nvars:
            raise ValueError(
                f"multi-index has {len(mono)} entries, space has {self.space.nvars} variables"
            )
        if sum(mono) > self.space.order:
            raise ValueError(
                f"multi-index degree {sum(mono)} exceeds jet order {self.space.order}"
            )
        pos = self.space.index[mono]
        return float(self.coeffs[pos] * self.space.factorials[pos])

    def __repr__(self):
        return f"Jet({self.space.nvars} vars, order {self.space.order}, value {self.value:g})"

    # -- ring arithmetic ----------------------------------------------------

    def _check(self, other):
        if other.space is not self.space:
            raise ValueError("cannot mix jets from different spaces")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, self.coeffs + other.coeffs)
        if isinstance(other, _SCALAR_TYPES):
            c = self.coeffs.copy()
            c[0] += other
            return Jet(self.space, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, self.coeffs - other.coeffs)
        if isinstance(other, _SCALAR_TYPES):
            c = self.coeffs.copy()
            c[0] -= other
            return Jet(self.space, c)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            sp = self.space
            prod = self.coeffs[sp._mul_i] * other.coeffs[sp._mul_j]
            return Jet(sp, np.bincount(sp._mul_k, weights=prod, minlength=sp.size))
        if isinstance(other, _SCALAR_TYPES):
            return Jet(self.space, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self * other._reciprocal()
        if isinstance(other, _SCALAR_TYPES):
            return Jet(self.space, self.coeffs / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self._reciprocal() * float(other)
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            p = int(exponent)
            if p == 0:
                return Jet.constant(self.space, 1.0)
            if p < 0:
                return (self.__pow__(-p))._reciprocal()
            result = self
            for _ in range(p - 1):
                result = result * self
            return result
        if isinstance(exponent, _SCALAR_TYPES):
            u0 = self.value
            if u0 <= 0.0:
                raise ValueError(
                    f"non-integer power needs a positive constant term, got {u0:g}"
                )
            p = float(exponent)
            derivs = []
            c = u0**p
            for k in range(self.space.order + 1):
                derivs.append(c)
                c *= (p - k) / ((k + 1) * u0)
            return self._compose(derivs)
        return NotImplemented

    # -- analytic primitives -------------------------------------------------

    def _compose(self, series):
        """Evaluate sum_k series[k] * (self - value)^k by Horner."""
        w = self - self.value
        result = Jet.constant(self.space, series[-1])
        for c in reversed(series[:-1]):
            result = result * w + c
        return result

    def _reciprocal(self):
        u0 = self.value
        if u0 == 0.0:
            raise ZeroDivisionError("jet division needs a nonzero constant term")
        series = [(-1.0) ** k / u0 ** (k + 1) for k in range(self.space.order + 1)]
        return self._compose(series)

    def sqrt(self):
        u0 = self.value
        if u0 <= 0.0:
            raise ValueError(f"jet sqrt needs a positive constant term, got {u0:g}")
        derivs = []
        c = math.sqrt(u0)
        for k in range(self.space.order + 1):
            derivs.append(c)
            c *= (0.5 - k) / ((k + 1) * u0)
        return self._compose(derivs)

    def exp(self):
        e0 = math.exp(self.value)
        series = [e0 / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(series)

    def log(self):
        u0 = self.value
        if u0 <= 0.0:
            raise ValueError(f"jet log needs a positive constant term, got {u0:g}")
        series = [math.log(u0)]
        for k in range(1, self.space.order + 1):
            series.append((-1.0) ** (k + 1) / (k * u0**k))
        return self._compose(series)

    def sin(self):
        u0 = self.value
        cycle = [math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0)]
        series = [cycle[k % 4] / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(series)

    def cos(self):
        u0 = self.value
        cycle = [math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0)]
        series = [cycle[k % 4] / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(series)


def seed(values, order):
    """One jet per value, each with a unit first-order coefficient in its own
    slot (the standard forward-mode seeding)."""
    values = list(values)
    if not values:
        raise ValueError("seed needs at least one value")
    space = jet_space(len(values), order)
    return [Jet.variable(space, v, i) for i, v in enumerate(values)]


def partials(space, components):
    """[values, gradients, Hessians, ...] of the m `components` up to the
    order of `space`, entry k shaped (m,) + (nvars,)*k.  A component is a
    jet of `space` or a plain number, which counts as a constant."""
    rows = []
    for c in components:
        if not isinstance(c, Jet):
            c = Jet.constant(space, c)
        elif c.space is not space:
            raise ValueError("cannot mix jets from different spaces")
        rows.append(c.coeffs)
    coeffs = np.array(rows)
    return [coeffs.take(pos, axis=1) * scale for pos, scale in space.partial_tables]


# Generic scalar functions usable on floats and jets alike, so expression
# trees and builtin metrics evaluate through either.


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else math.sqrt(x)


def exp(x):
    return x.exp() if isinstance(x, Jet) else math.exp(x)


def log(x):
    return x.log() if isinstance(x, Jet) else math.log(x)


def sin(x):
    return x.sin() if isinstance(x, Jet) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else math.cos(x)

