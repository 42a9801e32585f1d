"""Curvature of the reference-vector connection: the field tensor R^V, the
hh-curvature block, the curve-wise operator with its acceleration correction,
and flag curvature.

One formula assembles curvature: the block Rc[k, a, b, c] of R^V(e_a, e_b)e_c
from the Christoffel partials and the reference field's Jacobian J.  The
rank-4 hh-block is Rc at J = -N (a reference field horizontally parallel at
the sample), reordered; it is antisymmetric in its last two axes:

    R4[i, j, k, l] = Rc[i, k, l, j] at J = -N
                   = dGamma^i_jl/dx^k - N^p_k dGamma^i_jl/dy^p
                   - dGamma^i_jk/dx^l + N^p_l dGamma^i_jk/dy^p
                   + Gamma^i_hk Gamma^h_jl - Gamma^i_hl Gamma^h_jk

and the curve-wise operator contracts it as

    R(v, u)w = R4[i, j, k, l] w^j v^k u^l,

which reduces to the classical R(v, u)w of the Levi-Civita connection when
the metric is Riemannian (the calibration case for sign and slot order).
"""

from __future__ import annotations

import numpy as np

from .connection import (
    _christoffel,
    _covariant,
    _with_partials,
    christoffel_with_partials,
    tangent_einsum,
    tangent_map,
)
from .geometry import _L_jet, _stepped_blocks, check_nondegenerate

# The complex step h: Im f(z + i h dz) / h is the derivative of an analytic
# f along dz with no difference taken, so no cancellation (Squire and Trapp,
# SIAM Review 40, 1998); h^2 lies far below the roundoff of any real part.
_STEP = 1e-30


def hh_block(cp):
    """The rank-4 curvature block R4[i, j, k, l]: the field block of a
    reference field with Jacobian -N at the sample, reordered."""
    return np.einsum("iklj->ijkl", field_curvature_block(cp, -cp.N))


def hh_curvature(metric, sample):
    """The horizontal-horizontal curvature block at a sample."""
    return hh_block(christoffel_with_partials(metric, sample.x, sample.v))


def hh_apply(R4, v, u, w):
    """R(v, u)w from the rank-4 block (w in the j-slot, v and u in the
    antisymmetric pair)."""
    return np.einsum("ijkl,j,k,l->i", R4, w, v, u)


def jacobi_operator(metric, sample, u):
    """The geodesic-deviation operator u -> R(u, v)v at the sample (the
    operator entering D^2 J + R(J, v)v = 0; positive on the round sphere)."""
    cp = christoffel_with_partials(metric, sample.x, sample.v)
    return hh_apply(hh_block(cp), np.asarray(u, dtype=float), sample.v, sample.v)


# -- curvature of a chart reference field -------------------------------------


def _field_gamma_partial(cp, V_jac):
    """x-derivative of p -> Gamma(p, V(p)) at the sample underlying cp."""
    return cp.dGamma_dx + np.einsum("qp,kijq->kijp", V_jac, cp.dGamma_dy)


def field_curvature_block(cp, V_jac):
    """Coordinate components Rc[k, a, b, c] of R^V(e_a, e_b) e_c from the
    Christoffel partials and the reference field's Jacobian."""
    dGt = _field_gamma_partial(cp, V_jac)
    G = cp.Gamma
    return (
        np.einsum("kbca->kabc", dGt)
        - np.einsum("kacb->kabc", dGt)
        + np.einsum("kah,hbc->kabc", G, G)
        - np.einsum("kbh,hac->kabc", G, G)
    )


def curvature_field(metric, V, X, Y, Z, x):
    """R^V(X, Y)Z at x, by differentiating the composite symbols
    Gamma(p, V(p)) through jets and contracting tensorially."""
    x = np.asarray(x, dtype=float)
    cp = christoffel_with_partials(metric, x, V.value(x))
    Rc = field_curvature_block(cp, V.jacobian(x))
    return np.einsum("kabc,a,b,c->k", Rc, X.value(x), Y.value(x), Z.value(x))


def _curvature_field_derivatives(metric, V, x, terms):
    """For each (A, X, Y, Z) in `terms`, a direction at x and three chart
    fields, the derivative along A of p -> R^V(X, Y)Z at p = x, exact to
    roundoff.

    Along x + sA the sample moves along (A, JV A).  One order-5 record of L
    at (x, V(x)) gives the order-4 blocks B stepped to B + i h dB/ds; the
    Jacobian of V enters as JV + i h HV A and each field as X(x) + i h JX A.
    The contraction's imaginary part over h is the derivative."""
    x = np.asarray(x, dtype=float)
    v, JV, HV = V.derivatives2(x)
    LJ = _L_jet(metric, x, v, 5)
    out = []
    for A, *fields in terms:
        blocks = _stepped_blocks(LJ, x, v, np.concatenate([A, JV @ A]), _STEP)
        check_nondegenerate(blocks.g.real, f"at x={x.tolist()}, v={v.tolist()}")
        Rc = field_curvature_block(_with_partials(blocks), JV + 1j * _STEP * (HV @ A))
        factors = [F.value(x) + 1j * _STEP * (F.jacobian(x) @ A) for F in fields]
        out.append(np.einsum("kabc,a,b,c->k", Rc, *factors).imag / _STEP)
    return out


def curvature_field_nested(metric, V, X, Y, Z, x):
    """Cross-check path: R^V(X,Y)Z by two nested covariant derivatives minus
    the bracket term, with all field derivatives carried explicitly."""
    x = np.asarray(x, dtype=float)
    cp = christoffel_with_partials(metric, x, V.value(x))
    G = cp.Gamma
    dGt = _field_gamma_partial(cp, V.jacobian(x))

    Xv, JX, _ = X.derivatives2(x)
    Yv, JY, HY = Y.derivatives2(x)
    Zv, JZ, HZ = Z.derivatives2(x)

    def nabla_with_jacobian(Av, JA, Bv, JB, HB):
        """(nabla_A B) and its x-derivative at the point."""
        W = _covariant(G, JB @ Av, Av, Bv)
        dW = (
            np.einsum("kil,i->kl", HB, Av)
            + JB @ JA
            + np.einsum("kij,il,j->kl", G, JA, Bv)
            + np.einsum("kij,i,jl->kl", G, Av, JB)
            + np.einsum("kijl,i,j->kl", dGt, Av, Bv)
        )
        return W, dW

    W_YZ, dW_YZ = nabla_with_jacobian(Yv, JY, Zv, JZ, HZ)
    W_XZ, dW_XZ = nabla_with_jacobian(Xv, JX, Zv, JZ, HZ)
    first = _covariant(G, dW_YZ @ Xv, Xv, W_YZ)
    second = _covariant(G, dW_XZ @ Yv, Yv, W_XZ)
    bracket = JY @ Xv - JX @ Yv
    third = _covariant(G, JZ @ bracket, bracket, Zv)
    return first - second - third


# -- covariant derivative of the Cartan tensor --------------------------------


def cartan_derivative_block(cp, V_jac):
    """(nabla^V C_V)[l, i, j, k] assembled from cached Christoffel partials,
    their order-4 metric blocks and the reference field's Jacobian."""
    DC = np.einsum("ijkl->lijk", cp.blocks.dC_dx) + np.einsum(
        "ql,ijkq->lijk", V_jac, cp.blocks.dC_dy
    )
    G = cp.Gamma
    C = cp.cartan
    return (
        DC
        - np.einsum("pli,pjk->lijk", G, C)
        - np.einsum("plj,ipk->lijk", G, C)
        - np.einsum("plk,ijp->lijk", G, C)
    )


def nabla_cartan(metric, V, X, Y, Z, W, x):
    """nabla^V_X C_V(Y, Z, W) at x (tensorial contraction of the block)."""
    x = np.asarray(x, dtype=float)
    cp = christoffel_with_partials(metric, x, V.value(x))
    block = cartan_derivative_block(cp, V.jacobian(x))
    values = [F.value(x) for F in (X, Y, Z, W)]
    return float(np.einsum("lijk,l,i,j,k->", block, *values))


def b_tensor(metric, V, X, Y, Z, W, x):
    """B^V(X,Y,Z,W) = nabla_Y C(nabla_X V, Z, W) - nabla_X C(nabla_Y V, Z, W)
    + C(R^V(Y,X)V, Z, W)."""
    x = np.asarray(x, dtype=float)
    cp = christoffel_with_partials(metric, x, V.value(x))
    J = V.jacobian(x)
    Rc, nc = field_curvature_block(cp, J), cartan_derivative_block(cp, J)
    t1, t2, t3 = _b_terms(cp, J, Rc, nc, *(F.value(x) for F in (X, Y, Z, W)))
    return t1 - t2 + t3


def _b_terms(cp, V_jac, Rc, nc, X, Y, Z, W):
    """The three terms (t1, t2, t3) of B^V(X, Y, Z, W) = t1 - t2 + t3 from
    held values: the reference field's Jacobian, its curvature block Rc and
    Cartan derivative block nc at the sample of cp, and X, Y, Z, W there."""
    nxV = _covariant(cp.Gamma, V_jac @ X, X, cp.v)
    nyV = _covariant(cp.Gamma, V_jac @ Y, Y, cp.v)
    Rv = np.einsum("kabc,a,b,c->k", Rc, Y, X, cp.v)
    t1 = float(np.einsum("lijk,l,i,j,k->", nc, Y, nxV, Z, W))
    t2 = float(np.einsum("lijk,l,i,j,k->", nc, X, nyV, Z, W))
    t3 = float(np.einsum("ijk,i,j,k->", cp.cartan, Rv, Z, W))
    return t1, t2, t3


# -- curvature along curves ----------------------------------------------------


def covariant_acceleration(metric, curve, t):
    """(D^{gammadot}_gamma gammadot)(t), the invariant acceleration."""
    v = curve.velocity(t)
    ce = _christoffel(metric, curve.position(t), v)
    return _covariant(ce.Gamma, curve.acceleration(t), v, v)


def _curve_point(metric, curve, t):
    """(velocity, Christoffel partials, covariant acceleration) at t."""
    v = curve.velocity(t)
    cp = christoffel_with_partials(metric, curve.position(t), v)
    return v, cp, _covariant(cp.Gamma, curve.acceleration(t), v, v)


def h_tensor(metric, curve, t, u, w):
    """H_gamma(u, w)^k = u^i w^j (D^{gammadot} gammadot)^p dGamma^k_ij/dy^p;
    the correction by which the curve-wise operator differs from the
    hh-block, zero on geodesics."""
    _, cp, acc = _curve_point(metric, curve, t)
    return _h(cp, acc, u, w)


def _h(cp, acc, u, w):
    """H(u, w) from held values: the Christoffel partials at a curve point
    and the covariant acceleration there."""
    return np.einsum("i,j,p,kijp->k", u, w, acc, cp.dGamma_dy)


def r_along_curve(metric, curve, t, u, w):
    """R^gamma(gammadot, u)w via the hh-block plus the H correction."""
    return _r_along_curve(*_curve_point(metric, curve, t), u, w)


def _r_along_curve(v, cp, acc, u, w):
    """r_along_curve from the held values `_curve_point` returns."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return hh_apply(hh_block(cp), v, u, w) + _h(cp, acc, u, w)


def r_along_curve_direct(metric, curve, t, u, w, rng=None):
    """R^gamma(gammadot, u)w by the direct two-parameter-map commutator
    D_t(D_s W) - D_s(D_t W), with the u-extension parallel along the curve.

    The map's (t, s) data at the curve point come from the curve's 2-jet;
    with `rng` the free data (second s-derivative and the W-field's
    derivatives) gets random values, which the commutator provably cancels.
    Every quantity is a value with its (d/dt, d/ds) derivatives on a
    trailing axis; Gamma's follow from its x- and y-partials at the curve
    point by the chain rule."""
    cp = christoffel_with_partials(metric, curve.position(t), curve.velocity(t))
    return _r_along_curve_direct(cp, curve.acceleration(t), u, w, rng)


def _gamma_along(cp, dx, dy):
    """The derivative of Gamma along (dx, dy) at the sample of cp."""
    return cp.dGamma_dx @ dx + cp.dGamma_dy @ dy


def _r_along_curve_direct(cp, acc2, u, w, rng):
    """r_along_curve_direct from held values: the Christoffel partials cp at
    the curve point (x0, v0) and the coordinate acceleration acc2 there."""
    v0, G = cp.v, cp.Gamma
    n = len(v0)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    udot = -np.einsum("kij,i,j->k", G, u, v0)

    if rng is None:
        lam_ss = np.zeros(n)
        w_t = w_s = w_ts = w_tt = w_ss = np.zeros(n)
    else:
        lam_ss, w_t, w_s, w_ts, w_tt, w_ss = rng.uniform(-1.0, 1.0, (6, n))

    def with_ts(value, d_t, d_s):
        return value, np.stack([d_t, d_s], axis=-1)

    lam_t = with_ts(v0, acc2, udot)
    lam_s = with_ts(u, udot, lam_ss)
    W = with_ts(w, w_t, w_s)
    Gamma = with_ts(G, _gamma_along(cp, v0, acc2), _gamma_along(cp, u, udot))

    DsW, DsW_t = tangent_map(
        np.add, with_ts(w_s, w_ts, w_ss), tangent_einsum("i,j,kij->k", W, lam_s, Gamma)
    )
    DtW, DtW_t = tangent_map(
        np.add, with_ts(w_t, w_tt, w_ts), tangent_einsum("i,j,kij->k", W, lam_t, Gamma)
    )
    outer_t = DsW_t[:, 0] + np.einsum("i,j,kij->k", DsW, v0, G)
    outer_s = DtW_t[:, 1] + np.einsum("i,j,kij->k", DtW, u, G)
    return outer_t - outer_s


# -- flag curvature -------------------------------------------------------------


def flag_curvature(metric, sample, u):
    """K_v(u) = g_v(R(v,u)u, v) / (L(v) g_v(u,u) - g_v(v,u)^2).

    The numerator is the hh-block contraction: along the geodesic through the
    sample the H correction vanishes, so no integration is needed."""
    return flag_curvature_predecessor(metric, sample, u, u)


def flag_curvature_predecessor(metric, sample, u, w):
    """K_v(u, w) = g_v(R(v,u)w, v) / (L(v) g_v(u,w) - g_v(v,u) g_v(v,w))."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    cp = christoffel_with_partials(metric, sample.x, sample.v)
    g, v = cp.g, sample.v
    L = metric.value(sample.x, sample.v)
    size = float(np.abs(v).max())
    if abs(L) < np.finfo(float).tiny and metric.value(sample.x, v / size) != 0.0:
        # L(x, v) = |v|^2 L(x, v/|v|): the flag is fine, its scale is lost
        raise ValueError(
            f"L underflows at |v| = {size:.3g}: L(x, v) = {L:.3g} is below the smallest "
            "normal float, though L(x, v/|v|) is not; rescale v"
        )
    gu, gw = g @ u, g @ w
    den = L * float(u @ gw) - float(v @ gu) * float(v @ gw)
    scale = abs(L * float(u @ gw)) + abs(float(v @ gu) * float(v @ gw)) + 1e-300
    if abs(den) < 1e-10 * scale:
        raise ValueError(
            f"degenerate flag: denominator {den:.3g} below tolerance "
            "(span(v, u) is g_v-degenerate when w = u)"
        )
    num = float(hh_apply(hh_block(cp), v, u, w) @ g @ v)
    return num / den
