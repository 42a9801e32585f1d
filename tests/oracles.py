"""Independent oracles for the test suite.

Everything here is deliberately computed WITHOUT the jet engine: the
Riemannian oracles use hand-derived closed-form derivatives and plain numpy;
the Funk flag-curvature oracle rebuilds the whole pipeline from nested
central differences in mpmath arbitrary precision; the Christoffel assembly
keeps the three-factor sums of the formulas, which the package factors into
products of two arrays.
"""

import mpmath as mp
import numpy as np

def perturbation_matrix(x):
    """A(x) = I + a*S(x), S_ij = sin(x_i + 2 x_j) + sin(x_j + 2 x_i) and
    a = min(0.1, 0.4/n), with first and second derivatives from the closed
    forms."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    amplitude = min(0.1, 0.4 / n)
    A = np.eye(n)
    dA = np.zeros((n, n, n))
    d2A = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            p = x[i] + 2 * x[j]
            q = x[j] + 2 * x[i]
            A[i, j] += amplitude * (np.sin(p) + np.sin(q))
            for k in range(n):
                dp = (k == i) + 2 * (k == j)
                dq = (k == j) + 2 * (k == i)
                dA[i, j, k] = amplitude * (np.cos(p) * dp + np.cos(q) * dq)
                for l in range(n):
                    lp = (l == i) + 2 * (l == j)
                    lq = (l == j) + 2 * (l == i)
                    d2A[i, j, k, l] = -amplitude * (
                        np.sin(p) * dp * lp + np.sin(q) * dq * lq
                    )
    return A, dA, d2A


def conformal_matrix(x, sign):
    """A(x) = c(x) I with c = 4 / (1 + sign*|x|^2)^2 (sphere: +1, ball: -1)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    u = 1.0 + sign * float(x @ x)
    c = 4.0 / u**2
    dc = -16.0 * sign * x / u**3
    d2c = -16.0 * sign * np.eye(n) / u**3 + 96.0 * np.outer(x, x) / u**4
    A = c * np.eye(n)
    dA = np.einsum("k,ij->ijk", dc, np.eye(n))
    d2A = np.einsum("kl,ij->ijkl", d2c, np.eye(n))
    return A, dA, d2A


def levi_civita(A, dA):
    """Gamma^k_ij = 1/2 A^{kl} (d_i A_lj + d_j A_li - d_l A_ij).

    Explicit loops keep the index pattern auditable."""
    Ainv = np.linalg.inv(A)
    n = A.shape[0]
    Gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                total = 0.0
                for l in range(n):
                    total += Ainv[k, l] * (
                        dA[l, j, i] + dA[l, i, j] - dA[i, j, l]
                    )
                Gamma[k, i, j] = 0.5 * total
    return Gamma


def riemann_tensor(A, dA, d2A):
    """R[i, j, k, l]: components of R(e_k, e_l) e_j for the Levi-Civita
    connection of A, from closed-form Gamma and its derivative."""
    n = A.shape[0]
    Ainv = np.linalg.inv(A)
    Gamma = levi_civita(A, dA)
    dAinv = -np.einsum("ia,abm,bj->ijm", Ainv, dA, Ainv)
    dGamma = np.zeros((n, n, n, n))  # dGamma[k,i,j,m] = d_m Gamma^k_ij
    for k in range(n):
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    total = 0.0
                    for l in range(n):
                        total += dAinv[k, l, m] * (
                            dA[l, j, i] + dA[l, i, j] - dA[i, j, l]
                        ) + Ainv[k, l] * (
                            d2A[l, j, i, m] + d2A[l, i, j, m] - d2A[i, j, l, m]
                        )
                    dGamma[k, i, j, m] = 0.5 * total
    R = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    val = dGamma[i, l, j, k] - dGamma[i, k, j, l]
                    for h in range(n):
                        val += Gamma[i, k, h] * Gamma[h, l, j] - Gamma[i, l, h] * Gamma[h, k, j]
                    R[i, j, k, l] = val
    return R, Gamma


def sectional_curvature(A, R, v, u):
    """K = <R(v,u)u, v> / (|v|^2 |u|^2 - <v,u>^2) in the metric A."""
    Rv = np.einsum("ijkl,j,k,l->i", R, u, v, u)
    num = float(Rv @ A @ v)
    den = float((v @ A @ v) * (u @ A @ u) - (v @ A @ u) ** 2)
    return num / den


# -- Christoffel assembly by three-factor sums ----------------------------------


def _product_rule_einsum(spec, *factors):
    """einsum over (value, tangent-or-None) pairs, the tangent along a
    trailing axis by the product rule, one full einsum per factor."""
    value = np.einsum(spec, *(f[0] for f in factors))
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    tangent = None
    for k, (_, dk) in enumerate(factors):
        if dk is None:
            continue
        terms = [s + "..." if m == k else s for m, s in enumerate(inputs)]
        ops = [dk if m == k else f[0] for m, f in enumerate(factors)]
        term = np.einsum(",".join(terms) + "->" + output + "...", *ops)
        tangent = term if tangent is None else tangent + term
    return value, tangent


def _linear(f, *pairs):
    """A linear map applied to the values and, when present, the tangents."""
    value = f(*(p[0] for p in pairs))
    return value, None if pairs[0][1] is None else f(*(p[1] for p in pairs))


def christoffel_assembly(dg, C, v, ginv, tangents=None):
    """(gamma_low, gamma_up, N, Gamma) and their tangents, each Cartan
    correction g^{ks} N^p_. C_p.. and the spray v^l v^i gamma^p_li summed as
    one three-factor einsum, straight from the formulas:

        N^s_j      = v^i gamma^s_ji - v^l v^i gamma^p_li g^{ks} C_pjk
        Gamma^s_ij = gamma^s_ij - g^{ks}(N^p_j C_pik + N^p_i C_pkj - N^p_k C_pij)

    Same arguments and return as `connection.christoffel_core`."""
    dg, C, v, ginv = zip((dg, C, v, ginv), tangents or (None,) * 4)
    gamma_low = _linear(
        lambda d: 0.5 * (d - np.einsum("bca...->abc...", d) + np.einsum("cab...->abc...", d)), dg
    )
    gamma_up = _product_rule_einsum("sk,kij->sij", ginv, gamma_low)
    spray = _product_rule_einsum("pli,l,i->p", gamma_up, v, v)
    C_up = _product_rule_einsum("pjk,ks->pjs", C, ginv)
    N = _linear(
        np.subtract,
        _product_rule_einsum("sji,i->sj", gamma_up, v),
        _product_rule_einsum("p,pjs->sj", spray, C_up),
    )
    corr = [
        _product_rule_einsum(spec, ginv, N, C)
        for spec in ("ks,pj,pik->sij", "ks,pi,pkj->sij", "ks,pk,pij->sij")
    ]
    Gamma = _linear(lambda G, a, b, c: G + (-a - b + c), gamma_up, *corr)
    out = (gamma_low, gamma_up, N, Gamma)
    return tuple(p[0] for p in out), tangents and tuple(p[1] for p in out)


# -- Funk constant via arbitrary-precision finite differences -----------------


def funk_flag_curvature_mp(x, v, u, dps=50):
    """Flag curvature of the Funk metric by nested central differences in
    mpmath: an end-to-end recomputation sharing no code with the jet path."""
    n = len(x)
    with mp.workdps(dps):
        h = mp.mpf(10) ** (-10)
        x = [mp.mpf(float(c)) for c in x]
        v = [mp.mpf(float(c)) for c in v]
        u = [mp.mpf(float(c)) for c in u]

        def L(xs, vs):
            x2 = sum(c * c for c in xs)
            v2 = sum(c * c for c in vs)
            xv = sum(a * b for a, b in zip(xs, vs))
            one = 1 - x2
            F = (mp.sqrt(one * v2 + xv * xv) + xv) / one
            return F * F

        def shift(vec, i, d):
            out = list(vec)
            out[i] = out[i] + d
            return out

        def g(xs, vs):
            out = [[mp.mpf(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    val = (
                        L(xs, shift(shift(vs, i, h), j, h))
                        - L(xs, shift(shift(vs, i, h), j, -h))
                        - L(xs, shift(shift(vs, i, -h), j, h))
                        + L(xs, shift(shift(vs, i, -h), j, -h))
                    ) / (4 * h * h)
                    out[i][j] = val / 2
            return out

        def christoffel(xs, vs):
            g0 = g(xs, vs)
            dg = [[[ (g(shift(xs, k, h), vs)[i][j] - g(shift(xs, k, -h), vs)[i][j]) / (2 * h)
                     for k in range(n)] for j in range(n)] for i in range(n)]
            C = [[[ (g(xs, shift(vs, k, h))[i][j] - g(xs, shift(vs, k, -h))[i][j]) / (4 * h)
                     for k in range(n)] for j in range(n)] for i in range(n)]
            ginv = mp.inverse(mp.matrix(g0))
            gamma = [[[ (dg[k][i][j] - dg[i][j][k] + dg[j][k][i]) / 2
                        for j in range(n)] for i in range(n)] for k in range(n)]
            gup = [[[ sum(ginv[s, k] * gamma[k][i][j] for k in range(n))
                      for j in range(n)] for i in range(n)] for s in range(n)]
            spray = [sum(gup[p][l][i] * vs[l] * vs[i] for l in range(n) for i in range(n))
                     for p in range(n)]
            N = [[ sum(gup[s][j][i] * vs[i] for i in range(n))
                   - sum(spray[p] * C[p][j][k] * ginv[k, s] for p in range(n) for k in range(n))
                   for j in range(n)] for s in range(n)]
            Gam = [[[ gup[s][i][j]
                      + sum(ginv[k, s] * (-N[p][j] * C[p][i][k] - N[p][i] * C[p][k][j] + N[p][k] * C[p][i][j])
                            for k in range(n) for p in range(n))
                      for j in range(n)] for i in range(n)] for s in range(n)]
            return Gam, N, g0

        Gam0, N0, g0 = christoffel(x, v)
        hh = [[[[mp.mpf(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        dGx = [[[[ (christoffel(shift(x, p, h), v)[0][k][i][j]
                    - christoffel(shift(x, p, -h), v)[0][k][i][j]) / (2 * h)
                   for p in range(n)] for j in range(n)] for i in range(n)] for k in range(n)]
        dGy = [[[[ (christoffel(x, shift(v, p, h))[0][k][i][j]
                    - christoffel(x, shift(v, p, -h))[0][k][i][j]) / (2 * h)
                   for p in range(n)] for j in range(n)] for i in range(n)] for k in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        val = dGx[i][j][l][k] - dGx[i][j][k][l]
                        for p in range(n):
                            val += -N0[p][k] * dGy[i][j][l][p] + N0[p][l] * dGy[i][j][k][p]
                        for hdx in range(n):
                            val += Gam0[i][hdx][k] * Gam0[hdx][j][l] - Gam0[i][hdx][l] * Gam0[hdx][j][k]
                        hh[i][j][k][l] = val
        vec = [sum(hh[i][j][k][l] * u[j] * v[k] * u[l]
                   for j in range(n) for k in range(n) for l in range(n)) for i in range(n)]
        num = sum(vec[i] * g0[i][j] * v[j] for i in range(n) for j in range(n))
        gu = [sum(g0[i][j] * u[j] for j in range(n)) for i in range(n)]
        Lv = L(x, v)
        den = Lv * sum(u[i] * gu[i] for i in range(n)) - sum(v[i] * gu[i] for i in range(n)) ** 2
        return float(num / den)
