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
from fractions import Fraction

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
# Exact coefficients of Temme's uniform expansion (DLMF 8.12.8-8.12.10):
# Q(a, x) = erfc(eta*sqrt(a/2))/2 + e^(-a*eta^2/2)/sqrt(2*pi*a) * sum_k C_k(eta) a^-k
# with eta^2/2 = lambda - 1 - log(lambda), lambda = x/a, and
# C_0 = 1/(lambda - 1) - 1/eta,  C_k = C_k-1'(eta)/eta + (-1)^k g_k/(lambda - 1),
# g_k the Stirling coefficients of Gamma(a).  Everything is a power series
# in eta with rational coefficients, so Fractions give d_kn exactly.


def stirling_coefficients(k_max):
    """g_0..g_k_max of Gamma(a) ~ sqrt(2*pi) a^(a-1/2) e^-a sum_k g_k a^-k, exact."""
    bern = [Fraction(1)]
    for n in range(1, 2 * k_max + 3):
        bern.append(-sum(math.comb(n + 1, k) * bern[k] for k in range(n)) / (n + 1))
    # the series is exp(sum_j B_2j / (2j (2j - 1)) a^(1 - 2j))
    log_terms = [Fraction(0)] * (k_max + 1)
    for j in range(1, (k_max + 3) // 2):
        log_terms[2 * j - 1] = bern[2 * j] / (2 * j * (2 * j - 1))
    g = [Fraction(1)] + [Fraction(0)] * k_max
    for n in range(1, k_max + 1):
        g[n] = sum(k * log_terms[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


def temme_coefficients(k_max, n_max):
    """d[k][n], the eta^n coefficient of C_k(eta), k <= k_max and n < n_max."""
    order = n_max + 2 * k_max + 2
    # mu = lambda - 1 = sum m_i eta^i solves mu * mu' = eta * (1 + mu)
    m = [Fraction(0), Fraction(1)] + [Fraction(0)] * order
    for n in range(2, order + 1):
        inner = sum((n + 1 - i) * m[i] * m[n + 1 - i] for i in range(2, n))
        m[n] = (m[n - 1] - inner) / (n + 1)
    # eta / mu = sum r_i eta^i, so 1/mu = sum r_i eta^(i-1) and C_0 = sum r_(n+1) eta^n
    r = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for n in range(1, order):
        r[n] = -sum(m[i + 1] * r[n - i] for i in range(1, n + 1))
    g = stirling_coefficients(k_max)
    rows = [r[1:]]
    for k in range(1, k_max + 1):
        prev, gk = rows[-1], g[k] if k % 2 == 0 else -g[k]
        # the 1/eta poles of C_k-1'/eta and gk/mu cancel
        assert prev[1] + gk == 0
        rows.append(
            [(n + 2) * prev[n + 2] + gk * r[n + 1] for n in range(len(prev) - 2)]
        )
    return [row[:n_max] for row in rows]


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


# ---------------------------------------------------------------------------
# Reference vector kernels in the plain masked form: full-length arrays,
# per-element shape parameters, every element iterating until the last
# one converges.  The library's kernels (scalar shapes, early exit,
# dropped elements) give each element the same arithmetic, so they must
# match these bit for bit, iteration counts and convergence flags
# included.  They share the library's prefactor constants.


def masked_log1pmx(r):
    """log(r) - (r - 1), split at r = 1 as the library splits it."""
    t = r - 1.0
    out = np.empty(t.shape)
    low = t < 0.0
    out[low] = np.log(r[low]) - t[low]
    out[~low] = np.log1p(t[~low]) - t[~low]
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
            ab * masked_log1pmx(x[big] / ab)
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
    from l2mech.lossbounds import GridDomainError

    evals = 0

    def certified(s):
        nonlocal evals
        evals += 1
        try:
            report = check(dim, s, params, n_r, n_R)
        except GridDomainError:
            return False
        return report.satisfies_dp

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
