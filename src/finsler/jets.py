"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A :class:`Jet` stores the Taylor coefficients of a scalar function of
``nvars`` seed variables up to total degree ``order`` (at most 5: order 4
carries the Christoffel symbols' partials, and order 5 one derivative more,
for the outer derivative of the curvature).  All
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

Every operation is an array kernel (an ``operator`` function or one of the
``_k_*`` functions) applied to its operands' coefficients and to static
arguments: scalars, product tables and series functions.  A Jet method settles the result's degree and the tables,
then hands the kernel to ``Jet._emit``.  :func:`record` evaluates a function
on recording seeds, whose ``_emit`` also appends each step to a
:class:`Program`; replaying the program on other seed rows runs the same
kernels in the same order, so it gives the same bits as an eager evaluation
there and raises the same exceptions.  Whatever depends on values (series
coefficients, domain checks) happens inside the kernels.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from numbers import Real

import numpy as np

MAX_ORDER = 5

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


def _product_rows(expo, order):
    """The multiplication table of the monomials whose exponents are the rows
    of `expo`, in graded-lex order, as arrays (i, j, k): every pair of slots
    i, j whose monomials multiply to the monomial in slot k, sorted by k and
    then by the exponents of i.  Pairs are enumerated by degree block, and k
    is found by exponent key: a row of byte exponents viewed as one opaque
    value, which compares bytewise, so keys order monomials lexicographically,
    which within a degree block is slot order."""
    expo = expo.astype(np.uint8)
    nvars = expo.shape[1]

    def keys(e):
        return np.ascontiguousarray(e).view(np.dtype((np.void, nvars))).ravel()

    key = keys(expo)
    starts = np.searchsorted(expo.sum(1), np.arange(order + 2))
    blocks = [np.arange(starts[d], starts[d + 1]) for d in range(order + 1)]
    i, j, k = [], [], []
    for da in range(order + 1):
        for db in range(order + 1 - da):
            a, b = (g.ravel() for g in np.meshgrid(blocks[da], blocks[db], indexing="ij"))
            out = blocks[da + db]
            i.append(a)
            j.append(b)
            k.append(out[np.searchsorted(key[out], keys(expo[a] + expo[b]))])
    i, j, k = (np.concatenate(rows) for rows in (i, j, k))
    rows = np.lexsort((key[i], k))
    return i[rows], j[rows], k[rows]


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
        expo = np.array(self.monomials)
        # products of factorials up to 5! are exact in floating point
        self.factorials = np.array([math.factorial(d) for d in range(order + 1)], dtype=float)[expo].prod(1)
        self.degrees = expo.sum(1)
        self._mul_i, self._mul_j, self._mul_k = _product_rows(expo, order)
        self._tables = {}
        self._horners = {}

    def _product_table(self, da, db, cap):
        """The rows (i, j, k) of the multiplication table whose factor slots
        have degree <= da and <= db and whose output slot has degree <= cap,
        in the full table's order, with the space size: the static arguments
        of `_k_product`, kept in `_tables` under (da, db, cap)."""
        deg = self.degrees
        keep = (deg[self._mul_i] <= da) & (deg[self._mul_j] <= db) & (deg[self._mul_k] <= cap)
        rows = (self._mul_i, self._mul_j, self._mul_k)
        if not keep.all():
            rows = tuple(a[keep] for a in rows)
        table = self._tables[da, db, cap] = (*rows, self.size)
        return table

    def _horner(self, degree):
        """(tables, result degree) of the Horner composition of a jet of
        `degree` (see `_k_compose`): the product table of each step with
        r multiplications still to come keeps degrees <= order - r."""
        got = self._horners.get(degree)
        if got is None:
            tables = []
            d = min(degree, 1)
            for cap in range(2, self.order + 1):
                key = (d, degree, min(d + degree, cap))
                tables.append(self._tables.get(key) or self._product_table(*key))
                d = key[2]
            got = self._horners[degree] = (tuple(tables), d)
        return got

    @cached_property
    def index(self):
        """Monomial exponent tuple -> its slot."""
        return {m: i for i, m in enumerate(self.monomials)}

    @cached_property
    def seed_units(self):
        """(nvars, size) array whose row `slot` is one unit of the seed
        variable in `slot`: graded-lex order puts x_slot's degree-1 monomial
        at nvars - slot."""
        units = np.zeros((self.nvars, self.size))
        slots = np.arange(self.nvars)
        units[slots, self.nvars - slots] = 1.0
        return units

    def _steps(self):
        """step[p, a]: the position of monomial p times x_a, 0 past the order,
        read off the multiplication table's pairs with a degree-1 factor
        (x_a sits in slot nvars - a)."""
        step = np.zeros((self.size, self.nvars), dtype=np.intp)
        one = self.degrees[self._mul_j] == 1
        step[self._mul_i[one], self.nvars - self._mul_j[one]] = self._mul_k[one]
        return step

    @cached_property
    def partial_tables(self):
        """(positions, scales) for k = 0..order: `coeffs[positions] * scales`
        is the k-th partial tensor of a jet, of shape (nvars,)*k."""
        step = self._steps()
        positions = [np.zeros((), dtype=np.intp)]
        while len(positions) <= self.order:
            positions.append(step[positions[-1]])
        return tuple((pos, self.factorials[pos]) for pos in positions)

    @cached_property
    def derivative_table(self):
        """(positions, scales) over the slots of degree < order:
        `(coeffs[positions] * scales) @ d` is the coefficient array, in the
        space one order lower, of the derivative along d of the jet
        `coeffs`.  Coefficient p of d/dx_a is (p_a + 1) times coefficient
        p + e_a, and p_a + 1 = (p + e_a)! / p!."""
        size = int(np.searchsorted(self.degrees, self.order))
        pos = self._steps()[:size]
        return pos, self.factorials[pos] / self.factorials[:size, None]

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(nvars, order):
    return JetSpace(nvars, order)


# -- array kernels -----------------------------------------------------------
# Each takes its operands' coefficient arrays, then the static arguments, and
# returns a new array; none writes to its inputs.  Sums and differences of
# jets, negation and products and quotients by a scalar are the `operator`
# functions on the arrays.


def _k_add_scalar(a, s):
    c = a.copy()
    c[0] += s
    return c


def _k_sub_scalar(a, s):
    c = a.copy()
    c[0] -= s
    return c


def _k_product(a, b, i, j, k, size):
    return np.bincount(k, weights=a[i] * b[j], minlength=size)


def _k_constant(size, value):
    c = np.zeros(size)
    c[0] = value
    return c


def _k_compose(a, series, arg, tables, top):
    """sum_k s[k] w^k by Horner for w = a - a0 and the order + 1 terms
    s = series(a0, arg, order); None from `series` (a zero-base integer
    power above MAX_ORDER) means the zero jet.  w has no constant term, so a slot of degree d feeds only
    degrees > d of the next product: `tables` holds one product table per
    step after the first.  The first step, s[-1] w + s[-2], is a scalar
    product kept to the `top` slots of degree <= 1; adding 0.0 turns -0.0
    into 0.0, as the table product's bincount does."""
    u0 = float(a[0])
    s = series(u0, arg, len(tables) + 1)
    if s is None:
        return np.zeros(a.size)
    w = a.copy()
    w[0] -= u0
    r = np.zeros(a.size)
    r[:top] = w[:top] * s[-1] + 0.0
    r[0] += s[-2]
    for (i, j, k, size), c in zip(tables, reversed(s[:-2])):
        r = np.bincount(k, weights=r[i] * w[j], minlength=size)
        r[0] += c
    return r


# Series about u0 of the analytic functions, order + 1 terms each: the
# value-dependent half of `_k_compose`, with its domain checks.


def _binomial(u0, p, c0, order):
    """u^p about u0, from c0 = u0^p: the series C(p, k) u0^(p-k)."""
    series = []
    c = c0
    for k in range(order + 1):
        series.append(c)
        c *= (p - k) / ((k + 1) * u0)
    if not all(map(math.isfinite, series)):
        raise OverflowError(f"jet power {p:g} of {u0:g} overflows")
    return series


def _power_series(u0, p, order):
    if p.is_integer():
        # one binomial series instead of |p| - 1 products; at u0 = 0 every
        # term of w^p lies past the order
        if u0 == 0.0:
            if p < 0:
                raise ZeroDivisionError("jet division needs a nonzero constant term")
            return None
    elif u0 <= 0.0:
        raise ValueError(f"non-integer power needs a positive constant term, got {u0:g}")
    return _binomial(u0, p, u0**p, order)


def _reciprocal_series(u0, _, order):
    if u0 == 0.0:
        raise ZeroDivisionError("jet division needs a nonzero constant term")
    return [(-1.0) ** k / u0 ** (k + 1) for k in range(order + 1)]


def _sqrt_series(u0, _, order):
    if u0 <= 0.0:
        raise ValueError(f"jet sqrt needs a positive constant term, got {u0:g}")
    return _binomial(u0, 0.5, math.sqrt(u0), order)


def _exp_series(u0, _, order):
    e0 = math.exp(u0)
    return [e0 / math.factorial(k) for k in range(order + 1)]


def _log_series(u0, _, order):
    if u0 <= 0.0:
        raise ValueError(f"jet log needs a positive constant term, got {u0:g}")
    series = [math.log(u0)]
    for k in range(1, order + 1):
        series.append((-1.0) ** (k + 1) / (k * u0**k))
    return series


def _sin_series(u0, _, order):
    cycle = [math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0)]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_series(u0, _, order):
    cycle = [math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0)]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


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
        return _jet(space, _k_constant(space.size, value), 0)

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

    def _emit(self, kernel, operands, static, degree):
        """The jet of `degree` whose coefficients `kernel` computes from the
        operands' coefficients and the static arguments: the one place every
        operation's result is made."""
        return _jet(self.space, kernel(*[o.coeffs for o in operands], *static), degree)

    def _check(self, other):
        if other.space is not self.space:
            raise ValueError("cannot mix jets from different spaces")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._emit(operator.add, (self, other), (), max(self.degree, other.degree))
        if isinstance(other, _SCALAR_TYPES):
            return self._emit(_k_add_scalar, (self,), (other,), self.degree)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._emit(operator.neg, (self,), (), self.degree)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._emit(operator.sub, (self, other), (), max(self.degree, other.degree))
        if isinstance(other, _SCALAR_TYPES):
            return self._emit(_k_sub_scalar, (self,), (other,), self.degree)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._times(other, self.space.order)
        if isinstance(other, _SCALAR_TYPES):
            return self._emit(operator.mul, (self,), (float(other),), self.degree)
        return NotImplemented

    __rmul__ = __mul__

    def _times(self, other, cap):
        """The product with `other` over the slots of degree <= cap, from the
        table pairs within both degree bounds; slots above cap are zero."""
        sp = self.space
        degree = min(self.degree + other.degree, cap)
        key = (self.degree, other.degree, degree)
        return self._emit(_k_product, (self, other), sp._tables.get(key) or sp._product_table(*key), degree)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self * other._reciprocal()
        if isinstance(other, _SCALAR_TYPES):
            return self._emit(operator.truediv, (self,), (float(other),), self.degree)
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
                return self._emit(_k_constant, (), (self.space.size, 1.0), 0)
            if p < 0:
                return (self.__pow__(-p))._reciprocal()
            result = self
            for _ in range(p - 1):
                result = result * self
            return result
        if p > 0 and p.is_integer() and self.coeffs[0] == 0.0:
            # the one degree that depends on a value: every term of w^p lies
            # past the order.  A recording that takes this branch cannot be
            # replayed, as if the function had read the value itself.
            if isinstance(self, _RecordingJet):
                self.program.replayable = False
            return Jet.constant(self.space, 0.0)
        return self._compose(_power_series, p)

    # -- analytic primitives -------------------------------------------------

    def _compose(self, series, arg=None):
        """The Horner composition `_k_compose` of the series that
        `series(u0, arg, order)` gives about this jet's constant term u0."""
        tables, degree = self.space._horner(self.degree)
        return self._emit(_k_compose, (self,), (series, arg, tables, self.space.nvars + 1), degree)

    def _reciprocal(self):
        return self._compose(_reciprocal_series)

    def sqrt(self):
        return self._compose(_sqrt_series)

    def exp(self):
        return self._compose(_exp_series)

    def log(self):
        return self._compose(_log_series)

    def sin(self):
        return self._compose(_sin_series)

    def cos(self):
        return self._compose(_cos_series)


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


# -- recording and replay -------------------------------------------------------


class Program:
    """The kernel steps one function took on seed jets, replayable on other
    seed rows of the same space.

    While recording, a step is (kernel, input registers, static
    arguments): registers are the seed rows, then the result of each step
    in turn.  `replayable` turns False when the function does something a
    replay cannot repeat.  `_finish` maps the registers to the slots of a
    replay and gives each step its output slot; `output` is the slot of the
    function's result.
    """

    def __init__(self, space):
        self.space = space
        self.steps = []
        self.registers = 0
        self.replayable = True
        self.output = self.degree = None

    def _register(self, jet):
        rec = object.__new__(_RecordingJet)
        rec.space, rec.coeffs, rec.degree = jet.space, jet.coeffs, jet.degree
        rec.program = self
        rec.register = self.registers
        self.registers += 1
        return rec

    def _step(self, out, kernel, operands, static):
        """Append a step whose result is the jet `out`; a step that takes a
        jet made outside this program cannot be replayed."""
        ins = []
        for o in operands:
            if getattr(o, "program", None) is not self:
                self.replayable = False
                return out
            ins.append(o.register)
        self.steps.append((kernel, tuple(ins), static))
        return self._register(out)

    def _finish(self, out):
        """End the recording at its result `out`.  A register's slot is
        reused by a later result once no step reads it, so a replay holds
        the live registers only, not one array per step."""
        last = {r: s for s, (_, ins, _) in enumerate(self.steps) for r in ins}
        last[out.register] = len(self.steps)
        nvars = self.space.nvars
        slot = list(range(nvars))  # register -> slot
        free = [r for r in range(nvars) if r not in last]
        self.slots = nvars
        steps = []
        for s, (kernel, ins, static) in enumerate(self.steps):
            free.extend(slot[r] for r in set(ins) if last[r] == s)
            if free:
                slot.append(free.pop())
            else:
                slot.append(self.slots)
                self.slots += 1
            if nvars + s not in last:  # a result that nothing reads
                free.append(slot[-1])
            steps.append((kernel, tuple(slot[r] for r in ins), static, slot[-1]))
        self.steps, self.output, self.degree = steps, slot[out.register], out.degree

    def run(self, rows):
        """The function's jet at the seeds whose coefficients are `rows`."""
        regs = list(rows) + [None] * (self.slots - len(rows))
        # spelled out by arity: no per-step list of operands
        for kernel, ins, static, out in self.steps:
            if len(ins) == 2:
                regs[out] = kernel(regs[ins[0]], regs[ins[1]], *static)
            elif ins:
                regs[out] = kernel(regs[ins[0]], *static)
            else:
                regs[out] = kernel(*static)
        return _jet(self.space, regs[self.output], self.degree)


class _RecordingJet(Jet):
    """A jet of a recording: every operation it starts also becomes a step
    of its program.  Reading a value out of it keeps the program from being
    replayed, since the function may branch on what it reads.

    Python tries a subclass's reflected operator first, so a plain jet on
    the left of a recording jet also reaches the recording: it keeps the
    program from being replayed and lets the plain jet's own method run,
    whose result, and any value read from it, the program never sees."""

    __slots__ = ("program", "register")

    def _emit(self, kernel, operands, static, degree):
        return self.program._step(Jet._emit(self, kernel, operands, static, degree), kernel, operands, static)

    @property
    def value(self):
        self.program.replayable = False
        return float(self.coeffs[0])

    def extract(self, multi_index):
        self.program.replayable = False
        return Jet.extract(self, multi_index)

    def _reflected(self, name, other):
        if isinstance(other, Jet):
            self.program.replayable = False
            return NotImplemented
        return getattr(Jet, name)(self, other)

    def __radd__(self, other):
        return self._reflected("__radd__", other)

    def __rsub__(self, other):
        return self._reflected("__rsub__", other)

    def __rmul__(self, other):
        return self._reflected("__rmul__", other)

    def __rtruediv__(self, other):
        return self._reflected("__rtruediv__", other)


def record(func, space, rows):
    """func(seeds) for seed jets over the rows of the (nvars, size) array
    `rows`, evaluated eagerly, and the Program that replays it, or None.

    There is no program if func reads `value` or `extract` from a jet, takes
    the zero-base branch of an integer power above MAX_ORDER, mixes in a jet
    made outside the recording, or returns anything but a jet of the
    recording.  A recording jet does not leave: the result is a plain Jet."""
    program = Program(space)
    out = func([program._register(_jet(space, row, 1)) for row in rows])
    if not isinstance(out, Jet):
        return out, None
    if getattr(out, "program", None) is not program or not program.replayable:
        program = None
    else:
        program._finish(out)
    return _jet(out.space, out.coeffs, out.degree), program


def derivative_along(jet, direction):
    """The coefficient arrays, over jet_space(nvars, order - 1), of `jet`
    truncated one order lower and of its derivative along `direction` (one
    entry per seed variable); the truncation holds that derivative exactly.
    Graded-lex order puts the slots of degree < order first."""
    pos, scale = jet.space.derivative_table
    return jet.coeffs[: len(pos)], (jet.coeffs[pos] * scale) @ direction


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
