"""Self-contained special-function kernels for the noise calibration stack.

Regularized incomplete gamma and beta functions are computed with the
classic split between a power series and a Lentz-style continued
fraction, with every prefactor kept in log space so that shape
parameters up to ~1e4 (dimension-sized) stay finite.  Nothing here
imports scipy; the test suite cross-checks these kernels against an
independent high-precision quadrature oracle.

Array inputs run packed numpy iterations so that thousand-point radial
grids converge in a handful of vector ops.  That is the only path:
arguments broadcast together and run as one flat batch (a scalar as a
one-element array, which comes back as a float), and the gamma
inverses take Newton steps on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import positive, require, unless

__all__ = [
    "ConvergenceError",
    "SpecFunResult",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "reg_lower_gamma_result",
    "reg_inc_beta",
    "reg_inc_beta_result",
    "inv_reg_lower_gamma",
    "inv_reg_upper_gamma",
    "std_normal_cdf",
]

_EPS = float(np.finfo(np.float64).eps)
_FPMIN = 1e-300
_MAX_ITER = 20000
_SQRT2 = math.sqrt(2.0)


class ConvergenceError(RuntimeError):
    """An iterative kernel ran out of iterations before converging."""


@dataclass(frozen=True)
class SpecFunResult:
    """Value of an iterative kernel plus its convergence diagnostics.

    value holds a float (or an array for array calls), iterations the
    worst element's iteration count.  A converged=False result is never
    produced by the plain functions; they raise instead.
    """

    value: float | np.ndarray
    converged: bool
    iterations: int


# ---------------------------------------------------------------------------
# shared log prefactor log(x^a e^-x / Gamma(a))
#
# The direct form a*log(x) - x - lgamma(a) subtracts terms of size
# O(a log a), so its absolute rounding error grows like a*eps and blows
# past 1e-12 near a ~ 5000.  Above _STIRLING_SWITCH the cancellation is
# done symbolically: with t = x/a - 1 the exponent equals
# a*(log1p(t) - t) + log(a/(2*pi))/2 - stirling_corr(a).

_HALF_LN_2PI = 0.9189385332046727
_STIRLING_SWITCH = 20.0


def _stirling_corr(a):
    # lgamma(a) minus its (a-1/2)log(a) - a + log(2*pi)/2 part; the
    # truncation is below 1e-16 for a >= 20
    u = 1.0 / a
    u2 = u * u
    return u * (
        1.0 / 12.0
        + u2
        * (-1.0 / 360.0 + u2 * (1.0 / 1260.0 + u2 * (-1.0 / 1680.0 + u2 / 1188.0)))
    )


def _log1pmx_vec(r: np.ndarray) -> np.ndarray:
    # log(r) - (r - 1) for r = x / a: a series in t = r - 1 near r = 1.
    # Below that log(r) itself, since t's absolute rounding would swamp
    # the relative size of a small r
    t = r - 1.0
    small = np.abs(t) <= 0.25
    out = np.empty(t.shape)
    ts = t[small]
    s = np.full(ts.shape, 1.0 / 34.0)
    for k in range(33, 1, -1):
        s = 1.0 / k - ts * s
    out[small] = -(ts * ts) * s
    low = t < -0.25
    out[low] = np.log(r[low]) - t[low]
    high = t > 0.25
    out[high] = np.log1p(t[high]) - t[high]
    return out


def _gamma_log_prefactor_vec(a, x: np.ndarray) -> np.ndarray:
    a = np.broadcast_to(a, x.shape)
    out = np.empty(x.shape)
    small = a < _STIRLING_SWITCH
    if small.any():
        out[small] = a[small] * np.log(x[small]) - x[small] - _lgamma_vec(a[small])
    big = ~small
    if big.any():
        ab = a[big]
        out[big] = (
            ab * _log1pmx_vec(x[big] / ab)
            + 0.5 * np.log(ab)
            - _HALF_LN_2PI
            - _stirling_corr(ab)
        )
    return out


# ---------------------------------------------------------------------------
# packed vector kernels (flat arrays, every element in the same regime).
# A shape parameter may be a float instead of an array: radial grids share
# one shape ((d-1)/2, 1/2 or d), and scalar operands save array work in
# every iteration.  The loops use only + - * /, which round the same for
# floats and array elements, so either form gives bitwise equal values.


def _uniform(v: np.ndarray):
    """v's single value as a float when every element shares it, else v."""
    if v.size and (v == v.flat[0]).all():
        return float(v.flat[0])
    return v


def _part(v, mask: np.ndarray):
    return v if isinstance(v, float) else v[mask]


def _gamma_series_vec(a, x: np.ndarray, max_iter: int):
    ap = a
    total = np.broadcast_to(1.0 / a, x.shape).copy()
    term = total.copy()
    # with x < a + 1 every term is positive and smaller than the one
    # before, so an element stays converged once it is: the loop stops at
    # the first iteration where all are, the worst element's count, and
    # every element keeps accumulating until then.  For one shape the
    # largest x converges last (term / total grows with x), so the full
    # test waits for that element; the result does not depend on it
    slow = int(np.argmax(x))
    i = 0
    while i < max_iter:
        i += 1
        ap = ap + 1.0
        term *= x / ap
        total += term
        if term[slow] < total[slow] * _EPS and (term < total * _EPS).all():
            break
    p = total * np.exp(_gamma_log_prefactor_vec(a, x))
    return np.clip(p, 0.0, 1.0), i, term < total * _EPS


def _gamma_cf_vec(a, x: np.ndarray, max_iter: int):
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    lentz = _Lentz(x.size)
    aw = a
    i = 0
    while lentz.left.size and i < max_iter:
        i += 1
        an = -i * (i - aw)
        b += 2.0
        d = an * d + b
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = b + an / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delt = d * c
        h = h * delt
        done = np.abs(delt - 1.0) < _EPS
        if done.any():
            aw, b, c, d, h = lentz.retire(done, h, aw, b, c, d, h)
    q = lentz.finish(h) * np.exp(_gamma_log_prefactor_vec(a, x))
    return np.clip(q, 0.0, 1.0), i, lentz.conv


def _betacf_vec(a, b, x: np.ndarray, max_iter: int):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones(x.shape)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    lentz = _Lentz(x.size)
    m = 0
    while lentz.left.size and m < max_iter:
        m += 1
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        even = d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delt = d * c
        h = h * even * delt
        done = np.abs(delt - 1.0) < _EPS
        if done.any():
            a, b, x, qab, qap, qam, c, d, h = lentz.retire(
                done, h, a, b, x, qab, qap, qam, c, d, h
            )
    return lentz.finish(h), m, lentz.conv


class _Lentz:
    """Bookkeeping for a continued-fraction loop that drops converged elements.

    A converged element's value is stored and frozen (late near-unit
    factors would otherwise add ~eps of drift per extra iteration), and
    the loop goes on over the shorter working arrays that retire
    returns, so its last iteration is the worst element's count.  Each
    element sees the arithmetic it would see in the full array, so the
    values are those of a loop that masks instead.
    """

    def __init__(self, size: int):
        self.left = np.arange(size)
        self.value = np.empty(size)
        self.conv = np.zeros(size, dtype=bool)

    def retire(self, done: np.ndarray, value: np.ndarray, *work):
        gone = self.left[done]
        self.value[gone] = value[done]
        self.conv[gone] = True
        keep = ~done
        self.left = self.left[keep]
        return [w[keep] if isinstance(w, np.ndarray) else w for w in work]

    def finish(self, value: np.ndarray) -> np.ndarray:
        self.value[self.left] = value
        return self.value


_lgamma_each = np.vectorize(math.lgamma, otypes=[np.float64])


def _lgamma_vec(a):
    """lgamma of a float, or of each element (once if they all agree)."""
    if isinstance(a, np.ndarray):
        a = _uniform(a)
    return math.lgamma(a) if isinstance(a, float) else _lgamma_each(a)


def _gamma_pq_vec(a: np.ndarray, x: np.ndarray, max_iter: int):
    p = np.empty(x.shape)
    q = np.empty(x.shape)
    conv = np.ones(x.shape, dtype=bool)
    iters = 0
    zero = x == 0.0
    p[zero] = 0.0
    q[zero] = 1.0
    low = (x < a + 1.0) & ~zero
    a = _uniform(a)
    if low.any():
        pv, it, ok = _gamma_series_vec(_part(a, low), x[low], max_iter)
        p[low] = pv
        q[low] = 1.0 - pv
        conv[low] = ok
        iters = it
    high = ~low & ~zero
    if high.any():
        qv, it, ok = _gamma_cf_vec(_part(a, high), x[high], max_iter)
        q[high] = qv
        p[high] = 1.0 - qv
        conv[high] = ok
        iters = max(iters, it)
    return p, q, iters, conv


def _betainc_vec(x: np.ndarray, a: np.ndarray, b: np.ndarray, max_iter: int):
    val = np.empty(x.shape)
    conv = np.ones(x.shape, dtype=bool)
    iters = 0
    lo = x == 0.0
    hi = x == 1.0
    val[lo] = 0.0
    val[hi] = 1.0
    mid = ~lo & ~hi
    if mid.any():
        xm, am, bm = x[mid], _uniform(a[mid]), _uniform(b[mid])
        lbt = (
            _lgamma_vec(am + bm)
            - _lgamma_vec(am)
            - _lgamma_vec(bm)
            + am * np.log(xm)
            + bm * np.log1p(-xm)
        )
        bt = np.exp(lbt)
        out = np.empty(xm.shape)
        okm = np.ones(xm.shape, dtype=bool)
        direct = xm < (am + 1.0) / (am + bm + 2.0)
        if direct.any():
            am_d = _part(am, direct)
            cf, it, ok = _betacf_vec(am_d, _part(bm, direct), xm[direct], max_iter)
            out[direct] = bt[direct] * cf / am_d
            okm[direct] = ok
            iters = max(iters, it)
        swap = ~direct
        if swap.any():
            bm_s = _part(bm, swap)
            cf, it, ok = _betacf_vec(bm_s, _part(am, swap), 1.0 - xm[swap], max_iter)
            out[swap] = 1.0 - bt[swap] * cf / bm_s
            okm[swap] = ok
            iters = max(iters, it)
        val[mid] = out
        conv[mid] = okm
    return np.clip(val, 0.0, 1.0), iters, conv


def _flat(*arrays):
    """The arrays broadcast together and flattened, plus their common shape."""
    arrays = np.broadcast_arrays(*arrays)
    return [v.astype(np.float64).ravel() for v in arrays], arrays[0].shape


# ---------------------------------------------------------------------------
# public surface


def _gamma_pq(a, x, max_iter: int = _MAX_ITER) -> SpecFunResult:
    """P(a, x) and Q(a, x) of one kernel pass over the flattened arguments."""
    a_arr = np.asarray(a, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    require(
        unless(
            np.all(np.isfinite(a_arr)) and np.all(np.isfinite(x_arr)),
            "a and x must be finite",
        ),
        unless(not np.any(a_arr <= 0), "a must be positive"),
        unless(not np.any(x_arr < 0), "x must be nonnegative"),
    )
    (a_flat, x_flat), shape = _flat(a_arr, x_arr)
    *pq, iters, conv = _gamma_pq_vec(a_flat, x_flat, max_iter)
    pq = tuple(v.reshape(shape) if shape else float(v[0]) for v in pq)
    return SpecFunResult(pq, bool(conv.all()), iters)


def _gamma_result(a, x, max_iter: int, upper: bool) -> SpecFunResult:
    res = _gamma_pq(a, x, max_iter)
    return SpecFunResult(res.value[upper], res.converged, res.iterations)


def reg_lower_gamma_result(a, x, max_iter: int = _MAX_ITER) -> SpecFunResult:
    """P(a, x) = lower incomplete gamma(a, x) / Gamma(a), with diagnostics."""
    return _gamma_result(a, x, max_iter, upper=False)


def reg_upper_gamma_result(a, x, max_iter: int = _MAX_ITER) -> SpecFunResult:
    """Q(a, x) = 1 - P(a, x), computed directly in the tail regime."""
    return _gamma_result(a, x, max_iter, upper=True)


def _unwrap(res: SpecFunResult, what: str):
    if not res.converged:
        raise ConvergenceError(
            f"{what} did not converge within {res.iterations} iterations"
        )
    return res.value


def reg_lower_gamma(a, x, max_iter: int = _MAX_ITER):
    """Regularized lower incomplete gamma P(a, x), clamped to [0, 1]."""
    return _unwrap(reg_lower_gamma_result(a, x, max_iter), "reg_lower_gamma")


def reg_upper_gamma(a, x, max_iter: int = _MAX_ITER):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    return _unwrap(reg_upper_gamma_result(a, x, max_iter), "reg_upper_gamma")


def reg_inc_beta_result(x, a, b, max_iter: int = _MAX_ITER) -> SpecFunResult:
    """Regularized incomplete beta I_x(a, b), with diagnostics."""
    x_arr = np.asarray(x, dtype=np.float64)
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    require(
        unless(
            np.all(np.isfinite(x_arr))
            and np.all(np.isfinite(a_arr))
            and np.all(np.isfinite(b_arr)),
            "x, a, b must be finite",
        ),
        unless(
            not (np.any(a_arr <= 0) or np.any(b_arr <= 0)), "a and b must be positive"
        ),
        unless(not (np.any(x_arr < 0) or np.any(x_arr > 1)), "x must lie in [0, 1]"),
    )
    flat, shape = _flat(x_arr, a_arr, b_arr)
    val, iters, conv = _betainc_vec(*flat, max_iter)
    value = float(val[0]) if shape == () else val.reshape(shape)
    return SpecFunResult(value, bool(conv.all()), iters)


def reg_inc_beta(x, a, b, max_iter: int = _MAX_ITER):
    """Regularized incomplete beta I_x(a, b), clamped to [0, 1]."""
    return _unwrap(reg_inc_beta_result(x, a, b, max_iter), "reg_inc_beta")


# Newton steps on log x: one of at most _NEWTON_TOL settles the root
_NEWTON_TOL, _NEWTON_MAX_STEP, _NEWTON_STEPS = 2.0**-34, 4.0, 100


def _gamma_quantile(a: float, mass: float, upper: bool, max_iter: int) -> float:
    # x with P(a, x) = mass (upper=False) or Q(a, x) = mass (upper=True),
    # on the smaller tail, which the kernel computes directly.  Newton
    # steps in u = log x on g(u) = log(tail / mass), concave in u as log x
    # of a gamma variate has a log-concave density, start at Wilson-
    # Hilferty, raised to the root of x^a / Gamma(a + 1) = P (which lies
    # below the quantile), and keep to a sign bracket [lo, hi]
    if mass > 0.5:
        mass, upper = 1.0 - mass, not upper
    a, sign = float(a), -1.0 if upper else 1.0
    log_mass, log_gamma = math.log(mass), math.lgamma(a)
    t = math.sqrt(-2.0 * log_mass)  # normal quantile, Abramowitz & Stegun 26.2.23
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    base = 1.0 - 1.0 / (9.0 * a) - sign * z / (3.0 * math.sqrt(a))
    log_p = math.log1p(-mass) if upper else log_mass
    small_p = math.exp((log_p + math.lgamma(a + 1.0)) / a)
    x = max(a * base**3 if base > 0.0 else 0.0, small_p)
    lo, hi = 0.0, math.inf
    for _ in range(_NEWTON_STEPS):
        if x == 0.0:
            return x  # the quantile lies below the smallest float
        *pq, _, conv = _gamma_pq_vec(np.array([a]), np.array([x]), max_iter)
        if not conv.all():
            raise ConvergenceError("gamma quantile: CDF evaluation stalled")
        tail = float(pq[upper][0])
        lo, hi = (x, hi) if (tail > mass) == upper else (lo, x)
        step = sign * _NEWTON_MAX_STEP  # the tail underflowed
        if tail > 0.0:
            # dg/du = sign * x * density / tail, in a plain log form: the
            # slope sets only the pace, not the root
            log_tail = math.log(tail)
            slope = sign * math.exp(a * math.log(x) - x - log_gamma - log_tail)
            step = (log_mass - log_tail) / slope
            step = min(max(step, -_NEWTON_MAX_STEP), _NEWTON_MAX_STEP)
        nxt = x * math.exp(step)
        if abs(nxt - x) <= _NEWTON_TOL * x:
            return nxt
        if not lo < nxt < hi:
            nxt = math.sqrt(lo) * math.sqrt(hi)
            if hi - lo <= _NEWTON_TOL * lo:
                return nxt
        x = nxt
    raise ConvergenceError("gamma quantile: Newton steps did not converge")


def inv_reg_lower_gamma(a: float, p: float, max_iter: int = _MAX_ITER) -> float:
    """Solve P(a, x) = p for x >= 0 by Newton steps, to ~1e-12 relative.

    For p > 1/2 the search runs on Q(a, x) = 1 - p instead, so quantiles
    like p = 1 - 1e-7 keep full relative accuracy in the tail.
    """
    require(positive("a", a))
    if not (np.isfinite(p) and 0.0 <= p < 1.0):
        raise ValueError("p must lie in [0, 1)")
    if p == 0.0:
        return 0.0
    return _gamma_quantile(a, float(p), False, max_iter)


def inv_reg_upper_gamma(a: float, q: float, max_iter: int = _MAX_ITER) -> float:
    """Solve Q(a, x) = q for x >= 0; the tail-mass form of the inverse.

    Taking q directly (rather than p = 1 - q) avoids the cancellation: x
    keeps ~1e-12 relative accuracy down to q ~ 1e-300 when a >= 0.01.
    """
    require(positive("a", a))
    if not (np.isfinite(q) and 0.0 < q <= 1.0):
        raise ValueError("q must lie in (0, 1]")
    if q == 1.0:
        return 0.0
    return _gamma_quantile(a, float(q), True, max_iter)


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF via erfc; accurate deep into both tails."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return 0.5 * math.erfc(-float(t) / _SQRT2)
