"""Christoffel symbols of the reference-vector affine connection, and the
covariant derivative of chart vector fields.

For an admissible reference vector v at x the symbols are assembled from the
metric blocks in three steps (Einstein summation, indices 0-based in code):

    gamma_kij = 1/2 (dg_ki/dx^j - dg_ij/dx^k + dg_jk/dx^i)
    N^s_j     = v^i gamma^s_ji - v^l v^i gamma^p_li g^{ks} C_pjk
    Gamma^s_ij = gamma^s_ij - g^{ks}(N^p_j C_pik + N^p_i C_pkj - N^p_k C_pij)

Every sum is taken as a product of two arrays, through the raised Cartan
tensor C_up[p,j,s] = C_pjk g^{ks}: with a[s,j] = gamma^s_ji v^i, the spray
is v^l v^i gamma^p_li = a[p,l] v^l, and the three corrections are

    T1[s,i,j] = C_up[p,i,s] N^p_j,   T2[s,i,j] = T1[s,j,i]  (C is symmetric),
    T3[s,i,j] = (N g^-1)[p,s] C_pij,

so Gamma = gamma_up - T1 - T2 + T3 costs O(n^4) per tangent direction, not
the O(n^5) of the three-factor sums.

The assembly is written once over values with an optional trailing tangent
axis: without tangents it returns the symbols at a sample; with the blocks'
x- and y-derivatives as tangents it returns the symbols together with their
x- and y-derivatives in a single pass (first-order Taylor arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exprs
from .geometry import SampleBlocks, check_nondegenerate, metric_blocks
from .jets import partials, seed


class VectorFieldOnChart:
    """A vector field on the chart with jet-evaluable components."""

    def __init__(self, funcs, dim, name="field"):
        self.funcs = tuple(funcs)
        self.dim = dim
        self.name = name
        if len(self.funcs) != dim:
            raise ValueError("need one component function per dimension")

    @classmethod
    def from_expressions(cls, expressions, dim, name="field"):
        funcs = []
        for text in expressions:
            compiled = exprs.compile_expression(text, dim, allow_v=False)
            funcs.append(lambda x, _c=compiled: _c(x, None))
        return cls(funcs, dim, name)

    @classmethod
    def constant(cls, vec):
        vec = np.asarray(vec, dtype=float)
        return cls([lambda x, _v=float(c): _v for c in vec], len(vec), "constant")

    def value(self, x):
        x = [float(c) for c in x]
        return np.array([float(f(x)) for f in self.funcs])

    def _partials(self, x, order):
        xj = seed(x, order)
        return partials(xj[0].space, [f(xj) for f in self.funcs])

    def jacobian(self, x):
        """J[k, i] = d V^k / d x^i."""
        return self._partials(x, 1)[1]

    def derivatives2(self, x):
        """(value, jacobian, hessian[k, i, j] = d^2 V^k / dx^i dx^j)."""
        return tuple(self._partials(x, 2))


@dataclass(frozen=True)
class ChristoffelEval:
    """Christoffel data at one sample (x, v), with the metric blocks it was
    computed from.

    gamma_lc[k,i,j] = gamma_kij of the formal symbols, Gamma[k,i,j] =
    Gamma^k_ij, N[s,j] = N^s_j.  `christoffel_with_partials` also fills
    dGamma_dx[k,i,j,p] = d Gamma^k_ij / d x^p and dGamma_dy[k,i,j,p] =
    d Gamma^k_ij / d y^p, and its `blocks` are of order 4; `christoffel`
    leaves both partials None and keeps order-3 blocks.
    """

    x: np.ndarray
    v: np.ndarray
    gamma_lc: np.ndarray
    Gamma: np.ndarray
    N: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    cartan: np.ndarray
    blocks: SampleBlocks
    dGamma_dx: np.ndarray = None
    dGamma_dy: np.ndarray = None


@lru_cache(maxsize=64)
def _tangent_specs(spec):
    """Per factor k of the einsum `spec`, the spec of its product-rule term:
    factor k carries the trailing tangent axis, and so does the output."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    return tuple(
        ",".join(s + "..." if m == k else s for m, s in enumerate(inputs)) + "->" + output + "..."
        for k in range(len(inputs))
    )


def tangent_einsum(spec, *factors):
    """einsum over (value, tangent) factors.  A tangent is the derivative of
    its value along a trailing axis, or None; the result's tangent follows
    the product rule and is None when no factor carries one."""
    value = np.einsum(spec, *(f[0] for f in factors))
    tangent = None
    for k, term_spec in enumerate(_tangent_specs(spec)):
        dk = factors[k][1]
        if dk is None:
            continue
        ops = [dk if m == k else f[0] for m, f in enumerate(factors)]
        term = np.einsum(term_spec, *ops)
        tangent = term if tangent is None else tangent + term
    return value, tangent


def tangent_map(f, *pairs):
    """A linear map `f` applied to the values and, when present, to the
    tangents of (value, tangent) pairs."""
    value = f(*(p[0] for p in pairs))
    if pairs[0][1] is None:
        return value, None
    return value, f(*(p[1] for p in pairs))


def lowered_symbols(dg):
    """gamma_low[k,i,j] = gamma_kij from dg_dx, symmetric in (i, j); any
    trailing axes of `dg` are carried along."""
    return 0.5 * (dg - np.einsum("bca...->abc...", dg) + np.einsum("cab...->abc...", dg))


def christoffel_core(dg, C, v, ginv, tangents=None):
    """Assembly of (gamma_low, gamma_up, N, Gamma) from dg_dx, C, v and g^-1.

    Returns (values, derivatives).  With `tangents`, the derivatives of
    (dg, C, v, ginv) along a shared trailing axis, the derivatives of the
    four outputs follow by the product rule; without, they are None."""
    dg, C, v, ginv = zip((dg, C, v, ginv), tangents or (None,) * 4)
    gamma_low = tangent_map(lowered_symbols, dg)
    gamma_up = tangent_einsum("sk,kij->sij", ginv, gamma_low)
    a = tangent_einsum("sji,i->sj", gamma_up, v)
    spray = tangent_einsum("pl,l->p", a, v)
    C_up = tangent_einsum("pjk,ks->pjs", C, ginv)
    N = tangent_map(np.subtract, a, tangent_einsum("p,pjs->sj", spray, C_up))
    T1 = tangent_einsum("pis,pj->sij", C_up, N)
    T2 = tangent_map(lambda t: t.swapaxes(1, 2), T1)
    T3 = tangent_einsum("ps,pij->sij", tangent_einsum("pk,ks->ps", N, ginv), C)
    Gamma = tangent_map(lambda G, t1, t2, t3: G + (-t1 - t2 + t3), gamma_up, T1, T2, T3)
    out = (gamma_low, gamma_up, N, Gamma)
    return tuple(p[0] for p in out), tangents and tuple(p[1] for p in out)


def inverse_with_tangent(g, dg):
    """g^-1 and its derivative -g^-1 (dg) g^-1 along dg's trailing axis."""
    G0 = np.linalg.inv(g)
    return G0, -np.einsum("ibz,bj->ijz", np.einsum("ia,abz->ibz", G0, dg), G0)


def christoffel(metric, sample):
    """Christoffel symbols, nonlinear connection and lowered symbols at a
    sample, by the explicit formulas (float path)."""
    return _christoffel(metric, sample.x, sample.v)


def _christoffel(metric, x, v):
    """`christoffel` at a bare (x, v): a reference value of any shape meets
    metric_blocks' domain check first."""
    blocks = metric_blocks(metric, x, v, order=3)
    check_nondegenerate(blocks.g, f"at x={blocks.x.tolist()}, v={blocks.v.tolist()}")
    ginv = np.linalg.solve(blocks.g, np.eye(metric.dim))
    return _record(blocks, ginv)


def christoffel_with_partials(metric, x, v):
    """Gamma together with all its first x- and y-derivatives, from one
    order-4 evaluation of L: the assembly runs once over values carrying
    their derivatives along the 2n (x, y) directions."""
    blocks = metric_blocks(metric, x, v, order=4)
    check_nondegenerate(blocks.g, f"at x={np.asarray(x).tolist()}, v={np.asarray(v).tolist()}")
    return _with_partials(blocks)


def _with_partials(blocks):
    """christoffel_with_partials' assembly from order-4 blocks, real or
    complex: on stepped blocks (see `geometry._stepped_blocks`) every output
    carries its derivative along the step as its imaginary part."""
    n = len(blocks.v)
    # derivatives along (x^0..x^{n-1}, y^0..y^{n-1}) on the trailing axis
    g_t = np.concatenate([blocks.dg_dx, blocks.dg_dy], axis=-1)
    dg_t = np.concatenate([blocks.d2g_dxdx, 2.0 * blocks.dC_dx.swapaxes(2, 3)], axis=-1)
    C_t = np.concatenate([blocks.dC_dx, blocks.dC_dy], axis=-1)
    v_t = np.hstack([np.zeros((n, n)), np.eye(n)])
    ginv, ginv_t = inverse_with_tangent(blocks.g, g_t)
    return _record(blocks, ginv, tangents=(dg_t, C_t, v_t, ginv_t))


def _record(blocks, ginv, tangents=None):
    """The ChristoffelEval assembled from `blocks` and g^-1; with the
    (x, y)-derivatives of christoffel_core's inputs as `tangents` it also
    holds Gamma's partials."""
    n = len(blocks.v)
    (gamma_low, _, N, Gamma), derivs = christoffel_core(blocks.dg_dx, blocks.C, blocks.v, ginv, tangents)
    dGamma = {} if derivs is None else {"dGamma_dx": derivs[3][..., :n], "dGamma_dy": derivs[3][..., n:]}
    return ChristoffelEval(
        x=blocks.x,
        v=blocks.v,
        gamma_lc=gamma_low,
        Gamma=Gamma,
        N=N,
        g=blocks.g,
        ginv=ginv,
        cartan=blocks.C,
        blocks=blocks,
        **dGamma,
    )


def nabla(metric, V, X, Y, x):
    """Covariant derivative (nabla^V_X Y)(x) of chart fields:

        (nabla^V_X Y)^k = X^i dY^k/dx^i + X^i Y^j Gamma^k_ij(x, V(x))
    """
    x = np.asarray(x, dtype=float)
    ce = _christoffel(metric, x, V.value(x))
    A = X.value(x)
    return _covariant(ce.Gamma, Y.jacobian(x) @ A, A, Y.value(x))


def _covariant(Gamma, d, a, b):
    """nabla_a b = d + Gamma(a, b), the one body of the covariant
    derivative: `d` is the plain derivative of b along a (JB @ a for a
    chart field, dX/dt along a curve, the coordinate acceleration for
    nabla_gammadot gammadot) and Gamma the symbols at the point."""
    return d + np.einsum("kij,i,j->k", Gamma, a, b)
