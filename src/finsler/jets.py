"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A :class:`Jet` stores the Taylor coefficients of a scalar function of
``nvars`` seed variables up to total degree ``order`` (at most 4).  All
arithmetic is exact truncated Taylor arithmetic, so for polynomial inputs of
degree <= order every extracted partial derivative is exact up to roundoff.

Coefficients are stored densely, indexed by graded-lexicographic multi-index.
The coefficient of ``x^alpha`` is ``(d^alpha f)(0) / alpha!``; only this
module knows that layout, and :func:`partials` reads derivatives out of it.

Every jet also carries an upper bound ``degree`` on its polynomial degree:
every coefficient above it is exactly zero.  Constants have degree 0, seeds
degree 1, sums the larger of their operands' and products the sum, capped
at the order.  A product uses only the pairs of its multiplication table
whose factors lie within both bounds, a subsequence of the full table in
the same order, so it adds the same nonzero terms in the same order and
skips only exact zeros.  Horner's rule in the analytic functions drops, at
each step, the output degrees that the multiplications still to come would
carry past the order.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from numbers import Real

import numpy as np

MAX_ORDER = 4

# float and int first: they cover nearly every operand, and the Real ABC
# check behind them is slow.
_SCALAR_TYPES = (float, int, Real, np.floating, np.integer)


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
        self._tables = {}

    def _product_table(self, da, db, cap):
        """The rows (i, j, k) of the multiplication table whose factor slots
        have degree <= da and <= db and whose output slot has degree <= cap,
        in the full table's order; kept in `_tables` under (da, db, cap)."""
        deg = np.array([sum(m) for m in self.monomials])
        keep = (deg[self._mul_i] <= da) & (deg[self._mul_j] <= db) & (deg[self._mul_k] <= cap)
        table = self._tables[da, db, cap] = (self._mul_i[keep], self._mul_j[keep], self._mul_k[keep])
        return table

    @cached_property
    def seed_units(self):
        """(nvars, size) array whose row `slot` is one unit of the seed
        variable in `slot`: graded-lex order puts x_slot's degree-1 monomial
        at nvars - slot."""
        units = np.zeros((self.nvars, self.size))
        slots = np.arange(self.nvars)
        units[slots, self.nvars - slots] = 1.0
        return units

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
    once and evaluated either way.  `degree` bounds the polynomial degree:
    every coefficient above it is zero.
    """

    __slots__ = ("space", "coeffs", "degree")

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.size,):
            raise ValueError(
                f"{space} takes {space.size} coefficients, got an array of shape {coeffs.shape}"
            )
        self.space = space
        self.coeffs = coeffs
        self.degree = space.order

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, space, value):
        c = np.zeros(space.size)
        c[0] = value
        return _jet(space, c, 0)

    @classmethod
    def variable(cls, space, value, slot):
        """value + one unit of the seed variable in `slot`."""
        if not 0 <= slot < space.nvars:
            raise ValueError(f"slot {slot} out of range for {space}")
        c = np.zeros(space.size)
        c[0] = value
        # graded-lex order puts x_slot's degree-1 monomial at nvars - slot
        c[space.nvars - slot] = 1.0
        return _jet(space, c, 1)

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
            return _jet(self.space, self.coeffs + other.coeffs, max(self.degree, other.degree))
        if isinstance(other, _SCALAR_TYPES):
            c = self.coeffs.copy()
            c[0] += other
            return _jet(self.space, c, self.degree)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.space, -self.coeffs, self.degree)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return _jet(self.space, self.coeffs - other.coeffs, max(self.degree, other.degree))
        if isinstance(other, _SCALAR_TYPES):
            c = self.coeffs.copy()
            c[0] -= other
            return _jet(self.space, c, self.degree)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            sp = self.space
            if other.space is not sp:
                raise ValueError("cannot mix jets from different spaces")
            if self.degree == other.degree == sp.order:
                prod = self.coeffs[sp._mul_i] * other.coeffs[sp._mul_j]
                return _jet(sp, np.bincount(sp._mul_k, weights=prod, minlength=sp.size), sp.order)
            return self._times(other, sp.order)
        if isinstance(other, _SCALAR_TYPES):
            return _jet(self.space, self.coeffs * float(other), self.degree)
        return NotImplemented

    __rmul__ = __mul__

    def _times(self, other, cap):
        """The product with `other` over the slots of degree <= cap, from the
        table pairs within both degree bounds; slots above cap are zero."""
        sp = self.space
        degree = min(self.degree + other.degree, cap)
        key = (self.degree, other.degree, degree)
        i, j, k = sp._tables.get(key) or sp._product_table(*key)
        prod = self.coeffs[i] * other.coeffs[j]
        return _jet(sp, np.bincount(k, weights=prod, minlength=sp.size), degree)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self * other._reciprocal()
        if isinstance(other, _SCALAR_TYPES):
            return _jet(self.space, self.coeffs / float(other), self.degree)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self._reciprocal() * float(other)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, _SCALAR_TYPES):
            return NotImplemented
        if exponent == 2:
            return self * self
        p = float(exponent)
        if p.is_integer() and abs(p) <= MAX_ORDER:
            p = int(p)
            if p == 0:
                return Jet.constant(self.space, 1.0)
            if p < 0:
                return (self.__pow__(-p))._reciprocal()
            result = self
            for _ in range(p - 1):
                result = result * self
            return result
        u0 = self.value
        if p.is_integer():
            # one binomial series instead of |p| - 1 products; at u0 = 0
            # every term of w^p lies past the order
            if u0 == 0.0:
                if p < 0:
                    raise ZeroDivisionError("jet division needs a nonzero constant term")
                return Jet.constant(self.space, 0.0)
        elif u0 <= 0.0:
            raise ValueError(f"non-integer power needs a positive constant term, got {u0:g}")
        return self._binomial(p, u0**p)

    # -- analytic primitives -------------------------------------------------

    def _compose(self, series):
        """Evaluate sum_k series[k] * (self - value)^k by Horner, for a series
        of order + 1 terms.  w = self - value has no constant term, so a slot
        of degree d feeds only degrees > d of the next product: the step
        with r multiplications still to come keeps degrees <= order - r.
        The first step, series[-1] * w + series[-2], is a scalar product
        kept to degree 1; adding 0.0 turns -0.0 into 0.0, as the table
        product's bincount does."""
        sp = self.space
        w = self - self.value
        top = sp.nvars + 1
        head = np.zeros(sp.size)
        head[:top] = w.coeffs[:top] * series[-1] + 0.0
        head[0] += series[-2]
        result = _jet(sp, head, min(w.degree, 1))
        for cap, c in enumerate(reversed(series[:-2]), start=2):
            result = result._times(w, cap) + c
        return result

    def _binomial(self, p, c0):
        """u^p about u0 = value, from c0 = u0^p: the series C(p, k) u0^(p-k)."""
        u0 = self.value
        series = []
        c = c0
        for k in range(self.space.order + 1):
            series.append(c)
            c *= (p - k) / ((k + 1) * u0)
        if not all(map(math.isfinite, series)):
            raise OverflowError(f"jet power {p:g} of {u0:g} overflows")
        return self._compose(series)

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
        return self._binomial(0.5, math.sqrt(u0))

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


def _jet(space, coeffs, degree):
    """A Jet of `space` over a float array of its size whose entries above
    `degree` are all zero: the unchecked constructor of the arithmetic."""
    jet = object.__new__(Jet)
    jet.space = space
    jet.coeffs = coeffs
    jet.degree = degree
    return jet


def seed(values, order):
    """One jet per value, each with a unit first-order coefficient in its own
    slot (the standard forward-mode seeding): `Jet.variable(space, values[i],
    i)` for every i, as rows of one coefficient array."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not values.size:
        raise ValueError("seed needs a non-empty sequence of values")
    space = jet_space(len(values), order)
    coeffs = space.seed_units.copy()
    coeffs[:, 0] = values
    return [_jet(space, row, 1) for row in coeffs]


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

