"""Independent oracles for the test suite.

Nothing in this file touches the library's own numerics: quadrature
oracles integrate the defining integrals with mpmath at 40 digits,
reference implementations of the certified bounds run on scipy.special,
and the Monte-Carlo helpers draw through numpy's default generator with
the gamma-norm-times-sphere-direction route on a different stream from
the library's serial sampler.  The library's two samplers are the two
decompositions of the law that acceptance criterion 7 compares: the
serial one draws a Gamma(d) norm times a direction, the parallel one a
Gamma(d+1) norm, as d+1 exponentials, thinned by U^(1/d).  The exceptions are the reference searches built on
bisect: they are handed the library's pass tests (the certificate, the
Gaussian condition, the empirical estimate) and check only how the
library's searches walk them.  Golden constants below were computed once with the
quadrature oracles and are frozen as literals so the main run stays
fast; recompute_goldens() regenerates them.
"""

import math

import mpmath as mp
import numpy as np
from scipy import special

# Frozen quadrature outputs (40-digit working precision, rounded to
# float64).  Keys: P/Q regularized gamma, I regularized beta, Phi the
# standard normal CDF.
GOLDEN = {
    ("P", 2.0, 1.0): 0.264241117657115357,
    ("P", 5000.0, 5000.0): 0.501880634033817355,
    ("P", 10000.0, 10100.0): 0.841348750447179622,
    ("Q", 3.0, 25.0): 4.70106899829032097e-9,
    ("I", 0.9999, 49.5, 0.5): 0.920939547142822186,
    ("I", 0.36, 4.5, 0.5): 0.00311042831038585484,
    ("Phi", 1.96): 0.975002104851779564,
}

# Reference calibration outputs, frozen from closed forms evaluated at
# high precision (the Gaussian one via bisection on the exact condition
# at 40 digits).
GAUSS_SIGMA_EPS1_DELTA1E5 = 3.73063163481594183
L2_SIGMA_D1_EPS1_DELTA1E5 = 0.999980000299995333


def quad_reg_lower_gamma(a, x, dps=40):
    """P(a, x) by direct high-precision integration of the density."""
    with mp.workdps(dps):
        a_, x_ = mp.mpf(a), mp.mpf(x)
        if x_ == 0:
            return 0.0
        lg = mp.loggamma(a_)

        def f(t):
            return mp.e ** ((a_ - 1) * mp.log(t) - t - lg)

        # split at the mode so the quadrature sees the peak
        pts = [0, a_ - 1, x_] if x_ > a_ > 1 else [0, x_]
        return float(mp.quad(f, pts))


def quad_reg_inc_beta(x, a, b, dps=40):
    """I_x(a, b) by direct high-precision integration of the density."""
    with mp.workdps(dps):
        x_, a_, b_ = mp.mpf(x), mp.mpf(a), mp.mpf(b)
        if x_ == 0:
            return 0.0
        if x_ == 1:
            return 1.0
        lb = mp.loggamma(a_) + mp.loggamma(b_) - mp.loggamma(a_ + b_)

        def f(t):
            return mp.e ** ((a_ - 1) * mp.log(t) + (b_ - 1) * mp.log(1 - t) - lb)

        return float(mp.quad(f, [0, x_]))


def quad_std_normal_cdf(t, dps=40):
    with mp.workdps(dps):
        return float(mp.mpf(1) / 2 * mp.erfc(-mp.mpf(t) / mp.sqrt(2)))


def recompute_goldens():
    """Regenerate GOLDEN from the quadrature oracles (slow, manual use)."""
    out = {}
    for key in GOLDEN:
        if key[0] == "P":
            out[key] = quad_reg_lower_gamma(key[1], key[2])
        elif key[0] == "Q":
            out[key] = 1.0 - quad_reg_lower_gamma(key[1], key[2], dps=60)
        elif key[0] == "I":
            out[key] = quad_reg_inc_beta(key[1], key[2], key[3])
        else:
            out[key] = quad_std_normal_cdf(key[1])
    return out


# ---------------------------------------------------------------------------
# scipy reference implementation of the two certified Riemann bounds.
# Deliberately written from the plain (unfactored) height formulas so an
# algebra slip in the library would show up as a mismatch.


def ref_height_h(tau, r):
    r = np.asarray(r, dtype=np.float64)
    return np.minimum(r * (1.0 - tau) + (1.0 - tau * tau) / 2.0, 2.0 * r)


def ref_height_H(tau, big_r):
    big_r = np.asarray(big_r, dtype=np.float64)
    return big_r * (1.0 - tau) - (1.0 - tau * tau) / 2.0


def ref_cap_fraction(d, r, h):
    r = np.asarray(r, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    short = np.minimum(h, 2.0 * r - h)
    u = short / r
    x = np.clip(u * (2.0 - u), 0.0, 1.0)
    base = 0.5 * special.betainc((d - 1) / 2.0, 0.5, x)
    return np.where(h <= r, base, 1.0 - base)


def ref_term1(d, sigma, eps, n_r, r_star):
    tau = eps * sigma
    radii = np.linspace((1.0 - tau) / 2.0, r_star, n_r)
    cdf = special.gammainc(d, radii / sigma)
    frac = ref_cap_fraction(d, radii, ref_height_h(tau, radii))
    tail = special.gammaincc(d, r_star / sigma)
    return min(cdf[0] + float(np.dot(np.diff(cdf), frac[:-1])) + tail * frac[-1], 1.0)


def ref_term2(d, sigma, eps, n_R, r_star):
    tau = eps * sigma
    radii = np.linspace((1.0 + tau) / 2.0, r_star, n_R)
    cdf = special.gammainc(d, radii / sigma)
    frac = ref_cap_fraction(d, radii, ref_height_H(tau, radii))
    tail = special.gammaincc(d, r_star / sigma)
    return max(float(np.dot(np.diff(cdf), frac[:-1])) + tail * frac[-1], 0.0)


def ref_check(d, sigma, eps, delta, n=1000):
    """(term1, term2, lhs) via scipy, mirroring the library's grid rule:
    r_star leaves one percent of delta in the radial tail."""
    r_star = sigma * special.gammainccinv(d, 0.01 * delta)
    t1 = ref_term1(d, sigma, eps, n, r_star)
    t2 = ref_term2(d, sigma, eps, n, r_star)
    return t1, t2, t1 - math.exp(eps) * t2


def ref_lhs_d1(sigma, eps):
    """Exact one-dimensional hockey-stick value, closed form."""
    return 1.0 - math.exp(0.5 * (eps - 1.0 / sigma))


def _sphere_area(n):
    """|S^(n-1)|, the surface area of the unit sphere in R^n."""
    return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


def prolate_lhs(d, sigma, eps, dps=30, refine=False, terms=False):
    """The exact hockey-stick lhs E0[(1 - e^(eps - L))_+] for d >= 2, by 1-D quadrature.

    In prolate spheroidal coordinates around the foci 0 and e1, mu =
    ||y|| + ||y - e1|| in [1, inf) and nu = ||y - e1|| - ||y|| in [-1, 1],
    the loss is L = nu / sigma and both densities separate.  With a =
    1/(2 sigma), tau = eps sigma, k = (d - 3)/2 and g(nu) = 1 - e^(eps -
    nu/sigma):

        lhs = C (N_{k+1} G_k + N_k G_{k+1}),
        N_j = int_1^inf e^(-a mu) (mu^2 - 1)^j dmu,
        G_j = int_tau^1 g(nu) e^(a nu) (1 - nu^2)^j dnu,
        C = |S^(d-2)| / (2^d |S^(d-1)| Gamma(d) sigma^d).

    For d >= 3 each integral is split at its weight's mode (when inside
    its range).  At d = 2 (k = -1/2) the endpoints are singular, so nu =
    cos(theta) and mu = cosh(u) take their place: G_j integrates
    g(cos t) e^(a cos t) sin(t)^(2j+1) over [0, acos(tau)], and N_{-1/2} =
    K_0(a), N_{1/2} = K_1(a)/a.  refine gives a second, independent run:
    more breakpoints (at the N modes +-3 and +10 SDs, at tau + (1 - tau)
    10^-m for m = 1..5 in G) and, at d = 2, the two N by quadrature in u.
    terms gives the tuple (lhs, T1, T2) instead: the same formula with g
    replaced by 1 gives T1 = P0[L >= eps], and by e^(-nu/sigma) gives T2
    = P1[L >= eps].
    """
    with mp.workdps(dps):
        s, e = mp.mpf(sigma), mp.mpf(eps)
        a, tau, k = 1 / (2 * s), e * s, mp.mpf(d - 3) / 2
        if tau >= 1:
            return (0.0, 0.0, 0.0) if terms else 0.0
        c = _sphere_area(d - 1) / (2**d * _sphere_area(d) * mp.gamma(d) * s**d)
        # g(nu) e^(a nu) for lhs, T1 and T2
        weights = [
            lambda nu: -mp.expm1(e - nu / s) * mp.exp(a * nu),
            lambda nu: mp.exp(a * nu),
            lambda nu: mp.exp(-a * nu),
        ][: 3 if terms else 1]

        if d == 2:
            if refine:
                top = mp.acosh(1 + 300 / a)  # e^(-a cosh u) < e^(-300 - a) beyond
                n_half = [
                    mp.quad(lambda u: mp.exp(-a * mp.cosh(u)) * mp.sinh(u) ** p, [0, 1, top])
                    for p in (0, 2)
                ]
            else:
                n_half = [mp.besselk(0, a), mp.besselk(1, a) / a]

            def term(g):
                def g_int(p):
                    return mp.quad(lambda t: g(mp.cos(t)) * mp.sin(t) ** p, [0, mp.acos(tau)])

                return float(c * (n_half[1] * g_int(0) + n_half[0] * g_int(2)))

        else:
            def n_int(j):
                mode = (j + mp.sqrt(j * j + a * a)) / a
                pts = {mp.mpf(1), mode}
                if refine:
                    sd = mode / mp.sqrt(2 * j + 1)
                    pts |= {p for p in (mode - 3 * sd, mode + 3 * sd, mode + 10 * sd) if p > 1}
                return mp.quad(
                    lambda mu: mp.exp(-a * mu + j * mp.log(mu * mu - 1)) if mu > 1 else 0 ** j,
                    sorted(pts) + [mp.inf],
                )

            n_k, n_k1 = n_int(k), n_int(k + 1)

            def term(g):
                def g_int(j):
                    mode = (mp.sqrt(j * j + a * a) - j) / a
                    pts = {tau, mp.mpf(1)} | ({mode} if tau < mode < 1 else set())
                    if refine:
                        pts |= {tau + (1 - tau) * mp.mpf(10) ** -m for m in range(1, 6)}

                    def f(nu):
                        w = 1 - nu * nu
                        return g(nu) * (w**j if w > 0 else 0 ** j)

                    return mp.quad(f, sorted(pts))

                return float(c * (n_k1 * g_int(k) + n_k * g_int(k + 1)))

        values = tuple(term(g) for g in weights)
        return values if terms else values[0]


def prolate_cell_bounds(d, sigma, eps, t, m, ends_at_one, dps=40):
    """lossbounds' d >= 3 cell sums on its own edges, re-evaluated at dps digits.

    t holds the nu-edges as distances from tau = eps sigma and m the
    mu-edges as mu - 1, both as the library builds them in floats; here
    every edge is that float exactly, and every log-integrand and slope
    is exact at it, except that the last nu-edge stands for nu = 1 when
    ends_at_one (the library's window then reaches the end of the range,
    and its float edge may miss 1 by the rounding of 1 - eps sigma).  The envelopes are the library's: on each cell the
    smaller integral of e^(tangent) at its two edges above and that of
    e^(chord) below, the tangent at the window's edge over each tail,
    then C (N_{k+1} G_k + N_k G_{k+1}) and, for lhs, the smaller of that,
    T1 - e^eps T2 and 1 - e^(eps - 1/sigma).  Returns {"lhs": (lower,
    upper), "term1": ..., "term2": ...} as mpf, with no rounding margin.
    """
    with mp.workdps(dps):
        s, e = mp.mpf(sigma), mp.mpf(eps)
        a, tau, k = 1 / (2 * s), e * s, mp.mpf(d - 3) / 2
        w = 1 - tau
        t = [mp.mpf(float(x)) for x in t]
        m = [mp.mpf(float(x)) for x in m]

        def ratio(z):
            return mp.mpf(1) if z == 0 else mp.expm1(z) / z

        def integral(xs, row, low_tail, high_tail):
            logs = [row(x) for x in xs]
            f = [mp.exp(lx) for lx, _ in logs]
            upper = lower = mp.mpf(0)
            for i in range(len(xs) - 1):
                h = xs[i + 1] - xs[i]
                (la, sa), (lb, sb) = logs[i], logs[i + 1]
                ups = []
                if la != mp.ninf:
                    ups.append(f[i] * h * ratio(sa * h))
                if lb != mp.ninf:
                    ups.append(f[i + 1] * h * ratio(-sb * h))
                upper += min(ups)
                if mp.ninf not in (la, lb):
                    lower += max(f[i], f[i + 1]) * h * ratio(-abs(lb - la))
            (_, s0), (_, sn) = logs[0], logs[-1]
            if low_tail > 0:
                upper += f[0] * low_tail * ratio(-s0 * low_tail)
            if high_tail == mp.inf:
                upper += f[-1] / -sn
            elif high_tail > 0:
                upper += f[-1] * high_tail * ratio(sn * high_tail)
            return lower, upper

        def nu_row(g, j):
            def row(x):
                gap, nu = (0 if ends_at_one and x == t[-1] else w - x), tau + x
                if gap == 0 and j > 0:
                    return mp.ninf, mp.ninf
                weight = j * mp.log(gap * (1 + nu)) if j > 0 else 0
                d_weight = j * (1 / (1 + nu) - 1 / gap) if j > 0 else 0
                if g == "lhs":
                    if x == 0:
                        return mp.ninf, mp.inf
                    log_g = mp.log(-mp.expm1(-2 * a * x))
                    return a * nu + log_g + weight, a + 2 * a / mp.expm1(2 * a * x) + d_weight
                sign = 1 if g == "T1" else -1
                return sign * a * nu + weight, sign * a + d_weight

            return row

        def mu_row(j):
            def row(x):
                if x == 0 and j > 0:
                    return mp.ninf, mp.inf
                weight = j * mp.log(x * (x + 2)) if j > 0 else 0
                d_weight = j * (1 / x + 1 / (x + 2)) if j > 0 else 0
                return -a * (1 + x) + weight, -a + d_weight

            return row

        n_int = [integral(m, mu_row(j), m[0], mp.inf) for j in (k, k + 1)]
        c = mp.exp(
            mp.loggamma(mp.mpf(d) / 2) - mp.loggamma(mp.mpf(d - 1) / 2)
            - mp.log(mp.pi) / 2 - d * mp.log(2) - mp.loggamma(d) - d * mp.log(s)
        )
        out = {}
        for name, g in (("lhs", "lhs"), ("term1", "T1"), ("term2", "T2")):
            g_int = [integral(t, nu_row(g, j), 0, w - t[-1]) for j in (k, k + 1)]
            out[name] = tuple(
                c * (n_int[1][b] * g_int[0][b] + n_int[0][b] * g_int[1][b]) for b in (0, 1)
            )
        t1_up = min(out["term1"][1], 1)
        lhs_up = min(out["lhs"][1], t1_up - mp.exp(e) * out["term2"][0], -mp.expm1(-w / s), 1)
        out["lhs"] = (out["lhs"][0], lhs_up)
        out["term1"] = (out["term1"][0], t1_up)
        out["term2"] = (out["term2"][0], min(out["term2"][1], 1))
        return out


# ---------------------------------------------------------------------------
# Reference vector kernels in the plain masked form: full-length arrays,
# per-element shape parameters, every element iterating until the last
# one converges.  The library's power series (scalar shape, early exit)
# gives each element the same arithmetic, so it must match its reference
# bit for bit, iteration counts included.  The two forward-Lentz
# continued fractions are a cross-check on the library's backward ones,
# which round differently: they agree within a few ulps.  They share the
# library's prefactor constants.


def masked_log1pmx(a, x):
    """log(r) - (r - 1), r = x / a, split as the library splits it.

    The atanh series in t = (x - a) / a for |t| <= 0.4, and beyond it
    log(r) - (r - 1) below r = 1 and log1p(r - 1) - (r - 1) above, each
    on its own elements.
    """
    from l2mech.specfun import _LOG1PMX_REACH

    t = (x - a) / a
    r = x / a
    out = np.empty(t.shape)
    near = np.abs(t) <= _LOG1PMX_REACH
    low = (r < 1.0) & ~near
    high = (r >= 1.0) & ~near
    tn = t[near]
    w = tn / (2.0 + tn)
    s = np.full(tn.shape, 1.0 / 29.0)
    for j in range(13, 0, -1):
        s = 1.0 / (2 * j + 1) + (w * w) * s
    out[near] = 2.0 * (w * (w * w)) * s - tn * w
    out[low] = np.log(r[low]) - (r[low] - 1.0)
    out[high] = np.log1p(r[high] - 1.0) - (r[high] - 1.0)
    return out


def masked_gamma_log_prefactor(a, x):
    from l2mech.specfun import _HALF_LN_2PI, _STIRLING_SWITCH, _stirling_corr

    lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
    out = np.empty(a.shape)
    small = a < _STIRLING_SWITCH
    if small.any():
        out[small] = a[small] * np.log(x[small]) - x[small] - lgamma(a[small])
    big = ~small
    if big.any():
        ab = a[big]
        out[big] = (
            ab * masked_log1pmx(ab, x[big])
            + 0.5 * np.log(ab)
            - _HALF_LN_2PI
            - _stirling_corr(ab)
        )
    return out


def masked_gamma_series(a, x, max_iter):
    """(P, iterations per element, converged) for x < a + 1."""
    ap = a.copy()
    total = 1.0 / a
    term = total.copy()
    active = np.ones(x.shape, dtype=bool)
    iters = np.zeros(x.shape, dtype=np.int64)
    i = 0
    while active.any() and i < max_iter:
        i += 1
        ap += 1.0
        term *= x / ap
        total += term
        done = np.abs(term) < np.abs(total) * np.finfo(np.float64).eps
        iters[active & done] = i
        active &= ~done
    p = total * np.exp(masked_gamma_log_prefactor(a, x))
    iters[active] = max_iter
    return np.clip(p, 0.0, 1.0), iters, ~active


def _masked_lentz_guard(v):
    np.copyto(v, 1e-300, where=np.abs(v) < 1e-300)


def masked_gamma_cf(a, x, max_iter):
    """(Q, iterations per element, converged) for x >= a + 1."""
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / 1e-300)
    d = 1.0 / b
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    iters = np.zeros(x.shape, dtype=np.int64)
    i = 0
    while active.any() and i < max_iter:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        _masked_lentz_guard(d)
        c = b + an / c
        _masked_lentz_guard(c)
        d = 1.0 / d
        delt = d * c
        h = np.where(active, h * delt, h)
        done = np.abs(delt - 1.0) < np.finfo(np.float64).eps
        iters[active & done] = i
        active &= ~done
    q = h * np.exp(masked_gamma_log_prefactor(a, x))
    iters[active] = max_iter
    return np.clip(q, 0.0, 1.0), iters, ~active


def masked_betacf(a, b, x, max_iter):
    """(continued fraction, iterations per element, converged) for I_x(a, b)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones(x.shape)
    d = 1.0 - qab * x / qap
    _masked_lentz_guard(d)
    d = 1.0 / d
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    iters = np.zeros(x.shape, dtype=np.int64)
    m = 0
    while active.any() and m < max_iter:
        m += 1
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        _masked_lentz_guard(d)
        c = 1.0 + aa / c
        _masked_lentz_guard(c)
        d = 1.0 / d
        even = d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        _masked_lentz_guard(d)
        c = 1.0 + aa / c
        _masked_lentz_guard(c)
        d = 1.0 / d
        delt = d * c
        h = np.where(active, h * even * delt, h)
        done = np.abs(delt - 1.0) < np.finfo(np.float64).eps
        iters[active & done] = m
        active &= ~done
    iters[active] = max_iter
    return h, iters, ~active


# ---------------------------------------------------------------------------
# Reference continued fractions in the backward scheme, one element at a
# time in Python floats: the forward modified-Lentz count of the batch's
# slowest element sets the terms (plus a quarter of them and one), and
# each element's fraction is then summed from its innermost term out.
# The library's kernels run the same arithmetic over whole arrays, so
# they must match these bit for bit, term counts and flags included.


def _lentz_count(den0, term, every, lead, max_iter):
    """(iterations, converged) of forward modified Lentz on 1/(den0 + num_1/(den_1 + ...))."""
    def guard(v):
        return v if abs(v) >= 1e-300 else 1e-300

    c, d = 1.0 / 1e-300, 1.0 / guard(den0)
    j = 0
    for k in range(1, max_iter + 1):
        steps = every + lead if k == 1 else every
        for _ in range(steps):
            j += 1
            num, den = term(j)
            d = 1.0 / guard(num * d + den)
            c = guard(den + num / c)
        if abs(c * d - 1.0) < np.finfo(np.float64).eps:
            return min(k + (k + 3) // 4 + 1, max_iter), True
    return max_iter, False


def _backward(den0, term, terms):
    t = term(terms)[1]
    for j in range(terms, 0, -1):
        t = (term(j - 1)[1] if j > 1 else den0) + term(j)[0] / t
    return 1.0 / t


def backward_gamma_cf(a, x, max_iter):
    """(Q, terms, converged) for one shape a and x >= a + 1.

    Q's fraction 1/(x + 1 - a + 1 (a - 1)/(x + 3 - a + 2 (a - 2)/(...))),
    counted at the smallest x.
    """
    def at(v):
        return lambda i: (i * (a - i), v + (2.0 * i + 1.0 - a))

    den0 = lambda v: v + (1.0 - a)
    terms, conv = _lentz_count(den0(float(x.min())), at(float(x.min())), 1, 0, max_iter)
    cf = np.array([_backward(den0(v), at(v), terms) for v in x.tolist()])
    q = np.exp(masked_gamma_log_prefactor(np.full(x.shape, float(a)), x)) * cf
    return np.clip(q, 0.0, 1.0), terms, conv


def backward_betacf(a, b, x, max_iter):
    """(fraction, iterations, converged) of I_x(a, b) for x below the mean.

    1/(1 + d_1/(1 + d_2/(...))) with Numerical Recipes' d_j, counted at
    the largest x in pairs d_2m, d_2m+1 after d_1.
    """
    def at(v):
        def term(j):
            m = j // 2
            if j % 2:
                c = -(a + m) * (a + b + m) / ((a + 2.0 * m) * (a + 2.0 * m + 1.0))
            else:
                c = m * (b - m) / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
            return c * v, 1.0
        return term

    pairs, conv = _lentz_count(1.0, at(float(x.max())), 2, 1, max_iter)
    cf = np.array([_backward(1.0, at(v), 2 * pairs + 1) for v in x.tolist()])
    return cf, pairs, conv


# ---------------------------------------------------------------------------
# Reference searches: the plain boolean bisection, and the three searches
# built on it whose lattices the library's search walks.


def bisect(passes, lo, hi, tol):
    """Bisect [lo, hi] (lo failing, hi passing) to width tol; return hi."""
    for _ in range(200):
        if hi - lo <= tol:
            return hi
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    raise RuntimeError("binary search failed to converge")


def l2_bracket(eps, tol):
    """[tol, 1/eps], with tol halved until it lies below 1/eps."""
    hi = 1.0 / eps
    lo = tol
    while lo >= hi:
        lo *= 0.5
    return lo, hi


def bisect_calibrate_l2(check, dim, params, n_r=1000, n_R=1000, tol=1e-3):
    """(sigma, hit_bracket_floor, evals) of the bisection, for dim >= 2.

    check is a check_approx_dp.
    """
    evals = 0

    def certified(s):
        nonlocal evals
        evals += 1
        return check(dim, s, params, n_r, n_R).satisfies_dp

    lo, hi = l2_bracket(params.epsilon, tol)
    if certified(lo):
        return lo, True, evals
    sigma = bisect(certified, lo, hi, tol)
    return sigma, False, evals


def bisect_calibrate_gaussian(params, tol):
    """(sigma, evals, hit_bracket_floor): double from 1, halve, bisect.

    evals counts distinct sigmas: a sigma the search already saw is
    answered from memory, so a search that matches evals never probes
    the same sigma twice.
    """
    from l2mech.calibrate import gaussian_dp_lhs

    seen = {}

    def passes(s):
        if s not in seen:
            seen[s] = gaussian_dp_lhs(s, params.epsilon) <= params.delta
        return seen[s]

    hi = 1.0
    while not passes(hi):
        hi *= 2.0
    lo = hi / 2.0
    while passes(lo):
        hi, lo = lo, lo / 2.0
        if lo < 1e-12:
            return hi, len(seen), True
    sigma = bisect(passes, lo, hi, tol)
    return sigma, len(seen), False


def bisect_empirical_min_sigma(dim, params, n, tol, rng):
    """The bisection on empirical_lhs that empirical_min_sigma runs."""
    from l2mech.mcverify import empirical_lhs

    def passes(s):
        est = empirical_lhs(dim, s, params.epsilon, n, rng)
        return est.lhs_estimate <= params.delta

    lo, hi = l2_bracket(params.epsilon, tol)
    assert not passes(lo)
    return bisect(passes, lo, hi, tol)


# ---------------------------------------------------------------------------
# Monte-Carlo oracles on numpy's default generator.


def mc_clouds(d, sigma, eps, n, seed):
    """(c1, se1, c2, se2): loss-region fractions from both centers.

    Norm ~ Gamma(d, sigma) times a uniform sphere direction; the region
    test is the raw loss predicate, no cap geometry involved.  This is
    the full d-dimensional reference for empirical_lhs, which draws only
    each output's distance from its center and first direction
    coordinate.
    """
    rng = np.random.default_rng(seed)
    e1 = np.zeros(d)
    e1[0] = 1.0

    def cloud(center):
        x = rng.standard_normal((n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        r = rng.gamma(d, sigma, size=n)
        return center + r[:, None] * x

    def frac(y):
        loss = (np.linalg.norm(y - e1, axis=1) - np.linalg.norm(y, axis=1)) / sigma
        return float(np.mean(loss >= eps))

    c1 = frac(cloud(0.0))
    c2 = frac(cloud(e1))

    def se(c):
        return max(math.sqrt(c * (1.0 - c) / n), 1.0 / n)

    return c1, se(c1), c2, se(c2)


def mc_cap_fraction(d, u, n, seed):
    """(fraction, se) of the unit sphere with first coordinate >= 1 - u."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    c = float(np.mean(x[:, 0] >= 1.0 - u))
    return c, max(math.sqrt(c * (1.0 - c) / n), 1.0 / n)


def mc_gaussian_lhs(sigma, eps, n, seed):
    """(estimate, se) of the Gaussian hockey-stick lhs, one dimension.

    The loss region depends only on the first coordinate, so a scalar
    normal sample per cloud suffices in any dimension.
    """
    rng = np.random.default_rng(seed)
    thresh = 0.5 - eps * sigma * sigma
    c1 = float(np.mean(sigma * rng.standard_normal(n) <= thresh))
    c2 = float(np.mean(1.0 + sigma * rng.standard_normal(n) <= thresh))
    weight = math.exp(eps)

    def se(c):
        return max(math.sqrt(c * (1.0 - c) / n), 1.0 / n)

    return c1 - weight * c2, se(c1) + weight * se(c2)
