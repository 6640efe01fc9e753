"""Self-contained special-function kernels for the noise calibration stack.

Regularized incomplete gamma and beta functions, each from one of two
regimes chosen per element from its arguments, with every prefactor
kept in log space so that shape parameters up to ~1e4 (dimension-sized)
stay finite:

- P/Q(a, x): a power series for x < a + 1 and a continued fraction
  above.  Near x = a both need O(sqrt(a)) iterations: the series runs
  94 at a = 100, 266 at a = 1000 and 801 at a = 1e4 just below a + 1,
  the fraction 50, 116 and 255 at a + 1.  Against 40-digit mpmath the
  smaller tail is within 4e-15 relative up to a = 45, 7e-15 up to
  a = 210, 1.2e-13 up to a = 2000 and 3.1e-13 at a = 1e4 for x in
  [0.6a, 1.4a].  What is left is the rounding of the exponent
  a (log(x/a) - x/a + 1), whose log(1 + t) - t part is an atanh series
  for |x/a - 1| <= 0.4 (see _log1pmx_vec).
- I_x(a, b): a continued fraction, on I_x(a, b) below the mean
  (a + 1)/(a + b + 2) and on its complement above; just below the mean
  it runs 58, 64 and 66 pairs of terms at a = 100, 1000 and 1e4 for
  b = 1/2.  Its outermost step is taken without the cancellation of
  1 - (a + b) x / (a + 1) there (see _betacf_vec).  Against 40-digit
  mpmath it is within 1.4e-14 relative for 1 - x in [0.1/a, 20/a],
  a from 24.5 to 4999.5 and b in {1/2, 1, 2}, and 5.3e-14 at a = 15,
  where the complement's rounding just above the mean shows; out to
  1 - x = 0.6 the error grows with the rounding of a log(x) in the
  prefactor, to 1.6e-13 at a = 4999.5.

Nothing here imports scipy; the test suite cross-checks these kernels
against 40-digit mpmath and an independent quadrature oracle.

Each call takes one shape: a (and b) are single numbers, x a number or
an array of any shape.  x runs as one flat batch of whole-array numpy
operations; a number x is a one-element batch that comes back as a
float.  That is the only path, and the gamma inverse takes Newton steps
on it.  A batch's series stops when its slowest element has converged.
A continued fraction is summed backward, from its innermost term out,
over as many terms as forward modified Lentz needs at the batch's
slowest element, plus a quarter of them and one: three array
operations a term, and no per-element bookkeeping.

The series and the Lentz count stop at the constant _MAX_ITER, not a
keyword, and report converged=False there, one flag for the batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._checks import finite, number, positive, require, unless

__all__ = [
    "ConvergenceError",
    "SpecFunResult",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "reg_lower_gamma_result",
    "reg_inc_beta",
    "reg_inc_beta_result",
    "inv_reg_lower_gamma",
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

    value holds a float for a number x and an array of x's shape for an
    array x (the shapes a and b are always single numbers).  iterations
    is the most any regime the call ran evaluated for its whole batch:
    series terms up to its slowest element's convergence, or continued
    fraction terms (for I_x(a, b), pairs of them) by the Lentz count of
    its slowest element plus the margin.  converged is one flag for the
    whole call; the plain functions raise ConvergenceError where it is
    False.
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
_LOG1PMX_REACH = 0.4  # |w| <= 1/4: the series' dropped terms are below 1e-19 of it


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


def _log1pmx_vec(a: float, x: np.ndarray) -> np.ndarray:
    # log(r) - (r - 1) for r = x / a.  Within |r - 1| <= _LOG1PMX_REACH
    # the atanh series in t = (x - a) / a, which rounds once (x - a is
    # exact for x in [a/2, 2a]) where r - 1 would carry r's rounding:
    # with w = t / (2 + t), log(1 + t) - t = -t w + 2 w^3 (1/3 + w^2/5 +
    # ...), whose sum has same-signed terms, where log1p(t) - t cancels
    # for |t| > 0.25.  Beyond, log(r) itself below r = 1, since t's
    # absolute rounding would swamp the relative size of a small r, and
    # log1p(r - 1) above; np.maximum keeps log1p off the r - 1 = -1 that
    # a tiny r rounds to
    t = (x - a) / a
    w = t / (2.0 + t)
    w2 = w * w
    s = np.full(t.shape, 1.0 / 29.0)
    for j in range(13, 0, -1):
        s = 1.0 / (2 * j + 1) + w2 * s
    series = 2.0 * (w * w2) * s - t * w
    r = x / a
    far = np.where(r < 1.0, np.log(r), np.log1p(np.maximum(r - 1.0, 0.0))) - (r - 1.0)
    return np.where(np.abs(t) <= _LOG1PMX_REACH, series, far)


def _gamma_log_prefactor_vec(a: float, x: np.ndarray) -> np.ndarray:
    if a < _STIRLING_SWITCH:
        return a * np.log(x) - x - math.lgamma(a)
    return a * _log1pmx_vec(a, x) + 0.5 * np.log(a) - _HALF_LN_2PI - _stirling_corr(a)


# ---------------------------------------------------------------------------
# whole-array kernels: one float shape (a radial grid's (d-1)/2, 1/2 or
# d) and a flat array x, every element in the same regime


def _gamma_series_vec(a: float, x: np.ndarray):
    ap = a
    total = np.full(x.shape, 1.0 / a)
    term = total.copy()
    # with x < a + 1 every term is positive and smaller than the one
    # before, so an element stays converged once it is: the loop stops at
    # the first iteration where all are, the worst element's count, and
    # every element keeps accumulating until then.  For one shape the
    # largest x converges last (term / total grows with x), so the full
    # test waits for that element; the result does not depend on it
    slow = int(np.argmax(x))
    i, conv = 0, False
    while i < _MAX_ITER and not conv:
        i += 1
        ap = ap + 1.0
        term *= x / ap
        total += term
        conv = bool(term[slow] < total[slow] * _EPS and (term < total * _EPS).all())
    p = total * np.exp(_gamma_log_prefactor_vec(a, x))
    return np.clip(p, 0.0, 1.0), i, conv


def _gamma_cf_term(a: float, x, i: int):
    """(num_i, den_i) of Q's fraction 1/(den_0 + num_1/(den_1 + num_2/(...))).

    Q(a, x) = x^a e^-x / Gamma(a) times the fraction, with num_i =
    i (a - i) and den_i = x + 2i + 1 - a; x is one point or an array.
    """
    return i * (a - i), x + (2.0 * i + 1.0 - a)


def _beta_cf_term(a: float, b: float, x, j: int):
    """(num_j, den_j) of I_x(a, b)'s fraction 1/(1 + d_1/(1 + d_2/(...))).

    d_2m+1 = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)) and d_2m =
    m (b - m) x / ((a + 2m - 1)(a + 2m)); every den_j is 1.
    """
    m = j // 2
    if j % 2:
        coef = -(a + m) * (a + b + m) / ((a + 2.0 * m) * (a + 2.0 * m + 1.0))
    else:
        coef = m * (b - m) / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)) if m else 0.0
    return coef * x, 1.0


def _cf_length(term, x0: float, every: int = 1, lead: int = 0):
    """(iterations, converged): how far a batch's backward pass runs.

    Forward modified Lentz at x0, the batch's slowest point, on the
    terms term(x0, j) of _cf_backward: an iteration takes every terms
    (the first one lead more) and the loop stops where the last of them
    moves the value by less than eps, or at _MAX_ITER.  That test cannot
    see a change below eps, and the count is not monotone in x, so at
    it other elements could still move by an ulp or two: the batch runs
    a quarter more iterations, plus one.  Past that, 8 more moved no
    value on integer a for Q, x from a + 1 up, and on a = (d - 1)/2 and
    b = 1/2 for I_x (tests/test_specfun.py).  The margin is not always
    enough for Q at a non-integer a below about 3 with x just above
    a + 1, where the fraction converges slowest: there a value can still
    move by one ulp.
    """
    tiny = _FPMIN
    d = term(x0, 0)[1]
    c, d = 1.0 / tiny, 1.0 / (d if abs(d) >= tiny else tiny)
    j = 0
    for k in range(1, _MAX_ITER + 1):
        for _ in range(every + (lead if k == 1 else 0)):
            j += 1
            num, den = term(x0, j)
            d = num * d + den
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = den + num / c
            c = c if abs(c) >= tiny else tiny
        if abs(c * d - 1.0) < _EPS:
            return min(k + (k + 3) // 4 + 1, _MAX_ITER), True
    return _MAX_ITER, False


def _cf_backward(term, x: np.ndarray, terms: int) -> np.ndarray:
    """1/(den_0 + num_1/(den_1 + ... + num_n/den_n)) over the array x, n = terms.

    Evaluated from the innermost term out: three whole-array operations
    per term, with no convergence test and no guard against a zero
    denominator, which the regimes the kernels use (x >= a + 1 for Q,
    x below I_x's mean) do not produce: on every batch tried, each
    backward denominator stayed above 0.1.
    """
    num, t = term(x, terms)
    for j in range(terms - 1, -1, -1):
        below, den = term(x, j)
        t = den + num / t
        num = below
    return 1.0 / t


def _gamma_cf_vec(a: float, x: np.ndarray):
    # Q for x >= a + 1.  The smallest x converges last, so its Lentz
    # count sets the terms for the whole batch
    term = partial(_gamma_cf_term, a)
    n, conv = _cf_length(term, float(x.min()))
    q = np.exp(_gamma_log_prefactor_vec(a, x)) * _cf_backward(term, x, n)
    return np.clip(q, 0.0, 1.0), n, conv


def _betacf_vec(a: float, b: float, x: np.ndarray):
    # the fraction of I_x(a, b) below its mean, x < (a + 1)/(a + b + 2).
    # The largest x converges last; an iteration is the pair d_2m, d_2m+1
    # after the leading d_1, as in Numerical Recipes' betacf
    term = partial(_beta_cf_term, a, b)
    n, conv = _cf_length(term, float(x.max()), every=2, lead=1)
    # The outermost step, t_0 = 1 - (a + b) x / ((a + 1) t_1), cancels
    # near the mean.  With t_1 = 1 + r, r = num_2 / t_2 from the pass
    # below it, 1/t_1 = 1 - r/t_1, so (a + 1) t_0 = (a + 1) - p - e +
    # p r / t_1 up to e r / t_1, where p + e = (a + b) x exactly and
    # (a + 1) - p is exact near the mean (Sterbenz); the fraction is 1/t_0
    r = term(x, 2)[0] * _cf_backward(lambda v, j: term(v, j + 2), x, 2 * n - 1)
    p, e = _two_product(a + b, x)
    return (a + 1.0) / (((a + 1.0) - p - e) + p * r / (1.0 + r)), n, conv


def _two_product(a: float, x):
    """(p, e): p = a x rounded and e its rounding error, p + e = a x exactly.

    Dekker's product on Veltkamp's 27-bit halves of a and of each x.
    """
    p = a * x
    split = 134217729.0  # 2^27 + 1
    ca, cx = split * a, split * x
    ah, xh = ca - (ca - a), cx - (cx - x)
    al, xl = a - ah, x - xh
    return p, ((ah * xh - p) + ah * xl + al * xh) + al * xl


def _gamma_pq_vec(a: float, x: np.ndarray):
    p = np.empty(x.shape)
    q = np.empty(x.shape)
    conv, iters = True, 0
    zero = x == 0.0
    p[zero] = 0.0
    q[zero] = 1.0
    low = (x < a + 1.0) & ~zero
    high = x >= a + 1.0
    if low.any():
        pv, iters, conv = _gamma_series_vec(a, x[low])
        p[low] = pv
        q[low] = 1.0 - pv
    if high.any():
        qv, it, ok = _gamma_cf_vec(a, x[high])
        q[high] = qv
        p[high] = 1.0 - qv
        conv, iters = conv and ok, max(iters, it)
    return p, q, iters, conv


def _lgamma_ratio(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a).

    Above _STIRLING_SWITCH the two are O(a log a) and their difference
    O(b log a), so their Stirling forms are subtracted symbolically.
    """
    if a < _STIRLING_SWITCH:
        return math.lgamma(a + b) - math.lgamma(a)
    return (
        (a - 0.5) * np.log1p(b / a)
        + b * (np.log(a + b) - 1.0)
        + (_stirling_corr(a + b) - _stirling_corr(a))
    )


def _betainc_vec(x: np.ndarray, a: float, b: float):
    val = np.empty(x.shape)
    conv, iters = True, 0
    lo = x == 0.0
    hi = x == 1.0
    val[lo] = 0.0
    val[hi] = 1.0
    mid = ~lo & ~hi
    if mid.any():
        xm = x[mid]
        # log 1/B(a, b) with the larger shape first, whose lgamma ratio
        # cancels no large terms
        big, small = max(a, b), min(a, b)
        log_front = _lgamma_ratio(big, small) - math.lgamma(small)

        def front(sel):
            # x^a (1 - x)^b / B(a, b)
            xs = xm[sel]
            return np.exp(log_front + a * np.log(xs) + b * np.log1p(-xs))

        out = np.empty(xm.shape)
        direct = xm < (a + 1.0) / (a + b + 2.0)
        swap = ~direct
        if direct.any():
            cf, it, ok = _betacf_vec(a, b, xm[direct])
            out[direct] = front(direct) * cf / a
            conv, iters = conv and ok, max(iters, it)
        if swap.any():
            cf, it, ok = _betacf_vec(b, a, 1.0 - xm[swap])
            out[swap] = 1.0 - front(swap) * cf / b
            conv, iters = conv and ok, max(iters, it)
        val[mid] = out
    return np.clip(val, 0.0, 1.0), iters, conv


# ---------------------------------------------------------------------------
# public surface


def _shaped(v: np.ndarray, shape: tuple):
    """A kernel's flat output in x's shape: a float for a number x."""
    return v.reshape(shape) if shape else float(v[0])


def _gamma_result(a, x, upper: bool) -> SpecFunResult:
    """P(a, x), or Q(a, x) if upper, of one kernel pass over the flattened x."""
    require(
        number("a", a) or positive("a", a),
        finite("x", x) or unless(not np.any(np.less(x, 0)), "x must be nonnegative"),
    )
    x_arr = np.asarray(x, dtype=np.float64)
    *pq, iters, conv = _gamma_pq_vec(float(a), x_arr.ravel())
    return SpecFunResult(_shaped(pq[upper], x_arr.shape), conv, iters)


def reg_lower_gamma_result(a, x) -> SpecFunResult:
    """P(a, x) = lower incomplete gamma(a, x) / Gamma(a), with diagnostics.

    a is one number, x a number or an array of any shape.  iterations
    counts the terms the batch evaluated (see SpecFunResult).
    """
    return _gamma_result(a, x, upper=False)


def _unwrap(res: SpecFunResult, what: str):
    if not res.converged:
        raise ConvergenceError(
            f"{what} did not converge within {res.iterations} iterations"
        )
    return res.value


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) for one number a, in [0, 1]."""
    return _unwrap(reg_lower_gamma_result(a, x), "reg_lower_gamma")


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x) for one number a."""
    return _unwrap(_gamma_result(a, x, upper=True), "reg_upper_gamma")


def reg_inc_beta_result(x, a, b) -> SpecFunResult:
    """Regularized incomplete beta I_x(a, b), with diagnostics.

    a and b are one number each, x a number or an array of any shape.
    iterations counts the terms the batch evaluated (see SpecFunResult).
    """
    require(
        number("a", a) or positive("a", a),
        number("b", b) or positive("b", b),
        finite("x", x)
        or unless(not np.any(np.less(x, 0) | np.greater(x, 1)), "x must lie in [0, 1]"),
    )
    x_arr = np.asarray(x, dtype=np.float64)
    val, iters, conv = _betainc_vec(x_arr.ravel(), float(a), float(b))
    return SpecFunResult(_shaped(val, x_arr.shape), conv, iters)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for one number a and b, in [0, 1]."""
    return _unwrap(reg_inc_beta_result(x, a, b), "reg_inc_beta")


# Newton steps on log x: one of at most _NEWTON_TOL settles the root
_NEWTON_TOL, _NEWTON_MAX_STEP, _NEWTON_STEPS = 2.0**-34, 4.0, 100


def _gamma_quantile(a: float, p: float) -> float:
    # x with P(a, x) = p, found on the smaller tail, which the kernel
    # computes directly: P = p, or Q = 1 - p above p = 1/2.  Newton
    # steps in u = log x on g(u) = log(tail / mass), concave in u as log x
    # of a gamma variate has a log-concave density, start at Wilson-
    # Hilferty, raised to the root of x^a / Gamma(a + 1) = P (which lies
    # below the quantile), and keep to a sign bracket [lo, hi]
    upper = p > 0.5
    mass = 1.0 - p if upper else p
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
        *pq, _, conv = _gamma_pq_vec(a, np.array([x]))
        if not conv:
            raise ConvergenceError("gamma quantile: CDF evaluation stalled")
        tail = float(pq[upper][0])
        lo, hi = (x, hi) if (tail > mass) == upper else (lo, x)
        step = sign * _NEWTON_MAX_STEP  # the tail underflowed
        if tail > 0.0:
            # dg/du = sign * x * density / tail, in a plain log form: the
            # slope sets only the pace, not the root
            log_tail = math.log(tail)
            slope = sign * math.exp(a * math.log(x) - x - log_gamma - log_tail)
            gap = log_mass - log_tail
            # a density that underflowed to 0 still gives the slope's sign:
            # take the full clamped step that way, and the bracket bisects
            step = gap / slope if slope else math.copysign(math.inf, sign * gap)
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


def inv_reg_lower_gamma(a: float, p: float) -> float:
    """Solve P(a, x) = p for x >= 0 by Newton steps, to ~1e-12 relative.

    For p > 1/2 the search runs on Q(a, x) = 1 - p instead, so quantiles
    like p = 1 - 1e-7 keep full relative accuracy in the tail.
    """
    require(
        number("a", a) or positive("a", a),
        number("p", p) or unless(0.0 <= p < 1.0, "p must lie in [0, 1)"),
    )
    if p == 0.0:
        return 0.0
    return _gamma_quantile(a, float(p))


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF via erfc; accurate deep into both tails."""
    require(number("t", t) or finite("t", t))
    return _normal_cdf(float(t))


def _normal_cdf(t: float) -> float:
    # std_normal_cdf on a float already checked
    return 0.5 * math.erfc(-t / _SQRT2)
