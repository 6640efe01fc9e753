"""Self-contained special-function kernels for the noise calibration stack.

Regularized incomplete gamma and beta functions, each from one of three
regimes chosen per element from its arguments, with every prefactor
kept in log space so that shape parameters up to ~1e4 (dimension-sized)
stay finite:

- P/Q(a, x): a power series for x < a + 1 and a continued fraction
  above, except where a >= 20 and |x/a - 1| <= 0.4, which
  takes Temme's uniform asymptotic expansion in erfc (DiDonato & Morris
  1986), 18 terms whatever a and x.  Near x = a the series and the
  fraction need O(sqrt(a)) iterations: on a certificate's grid at
  a = 1000 the series ran 265, and the series left below 0.6a runs 65.
  Against 40-digit mpmath the smaller tail is within 4e-15 relative up
  to a = 45, 1.3e-14 up to a = 210, 1.2e-13 up to a = 2000 and 3.1e-13
  at a = 1e4, the series' and the fraction's accuracy or better.  What
  is left is the rounding of the exponent a (log(x/a) - x/a + 1).
- I_x(a, b): a continued fraction, on I_x(a, b) below the mean and on
  its complement above, except where a >= 15, b <= 1 and 1 - x < 0.3,
  which takes the BGRAT expansion (DiDonato & Morris 1992), at most 30
  terms and 8 or fewer for b = 1/2 (measured over a in [15, 1e4]).  For
  b = 1/2 it is within 4e-15 relative for 1 - x <= 20/a and a <= 5000;
  further out the error grows with the rounding of z = -a log(x), to
  1.2e-13 at a = 4436 and z = 520.

Nothing here imports scipy; the test suite cross-checks these kernels
against 40-digit mpmath and an independent quadrature oracle.

Each call takes one shape: a (and b) are single numbers, x a number or
an array of any shape.  x runs as one flat batch of whole-array numpy
operations; a number x is a one-element batch that comes back as a
float.  That is the only path, and the gamma inverses take Newton steps
on it.  A batch's series and BGRAT sum stop when its slowest element
has converged.
A continued fraction is summed backward, from its innermost term out,
over as many terms as forward modified Lentz needs at the batch's
slowest element, plus a quarter of them and one: three array
operations a term, and no per-element bookkeeping.  erfc, which Temme's
expansion and BGRAT at b = 1/2 take, is a rational function times a
split e^(-x^2), also over the whole array.

The series and the Lentz count stop at the constant _MAX_ITER, not a
keyword, and report converged=False there, one flag for the batch;
Temme's expansion always sums its 18 terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._checks import number, positive, require, unless

__all__ = [
    "ConvergenceError",
    "SpecFunResult",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "reg_lower_gamma_result",
    "reg_upper_gamma_result",
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

    value holds a float for a number x and an array of x's shape for an
    array x (the shapes a and b are always single numbers).  iterations
    is the most any regime the call ran evaluated for its whole batch:
    series terms up to its slowest element's convergence, continued
    fraction terms (for I_x(a, b), pairs of them) by the Lentz count of
    its slowest element plus the margin, and terms of the asymptotic
    expansions (Temme's polynomial in eta, BGRAT's sum).  converged is
    one flag for the whole call; the plain functions raise
    ConvergenceError where it is False.
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
    # log(r) - (r - 1) for r = x / a, with log(r) itself below r = 1,
    # since t's absolute rounding would swamp the relative size of a small
    # r.  No series near r = 1: this runs only for a >= _STIRLING_SWITCH =
    # _TEMME_MIN_A, where Temme's expansion takes every |r - 1| <= 0.4.
    # np.maximum keeps log1p off the t = -1 that a tiny r rounds to
    t = r - 1.0
    return np.where(t < 0.0, np.log(r), np.log1p(np.maximum(t, 0.0))) - t


def _gamma_log_prefactor_vec(a: float, x: np.ndarray) -> np.ndarray:
    if a < _STIRLING_SWITCH:
        return a * np.log(x) - x - math.lgamma(a)
    return a * _log1pmx_vec(x / a) + 0.5 * np.log(a) - _HALF_LN_2PI - _stirling_corr(a)


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
    value on the shapes the library asks for (integer a for Q, a = (d -
    1)/2 and b = 1/2 for I_x; tests/test_specfun.py).  The margin is not
    always enough for Q at a non-integer a below about 3 with x just
    above a + 1, where the fraction converges slowest: there a value can
    still move by one ulp.
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
    return _cf_backward(term, x, 2 * n + 1), n, conv


# ---------------------------------------------------------------------------
# large-shape expansions: a fixed number of terms where the series and the
# continued fractions need O(sqrt(a)) iterations

_TEMME_MIN_A = 20.0
_TEMME_REACH = 0.4  # |x/a - 1| <= _TEMME_REACH, so |eta| <= 0.4708

# d[k][n], the eta^n coefficient of C_k(eta), correctly rounded from the
# exact rationals of tests/oracles.temme_coefficients.  Row k keeps the
# terms whose tail, summed at a = 20 and |eta| = 0.4708, reaches 1e-17
_TEMME_D = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
     0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
     3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
     -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
     4.162792991842583e-10, -8.56390702649298e-11),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
     -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
     -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
     -2.0291327396058603e-06),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
     0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
     2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06),
    (-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
     -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
     4.629953263691304e-05),
    (-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
     -0.0006401475260262758, 0.00027750107634328704),
    (0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636),
    (0.001579727660730835,),
)
_TEMME_COEF = np.array(
    [row + (0.0,) * (len(_TEMME_D[0]) - len(row)) for row in _TEMME_D]
)

_BGRAT_MIN_A = 15.0
_BGRAT_REACH = 0.3  # 1 - x < _BGRAT_REACH
_BGRAT_TERMS = 30


# erfcx(x) = e^(x^2) erfc(x) ~ P(x)/Q(x) on [0, inf), degrees 10 and 11,
# correctly rounded from the 60-digit rationals of
# tests/oracles.erfcx_coefficients; so rounded, the rational is within
# 1e-16 relative of erfcx up to x = 27, past which erfc underflows
_ERFCX_P = (
    1.0, 2.4088724141114564, 2.867965959266897, 2.1859049465747327,
    1.1712747649980797, 0.4592273728934928, 0.13331415236542968,
    0.028345893811779006, 0.004243873805181623, 0.00040728887609039804,
    1.9300996693953924e-05,
)
_ERFCX_Q = (
    1.0, 3.5372515812069696, 5.8593269522764775, 6.012448609582029,
    4.25717689567263, 2.190458781132582, 0.8387192696619542,
    0.2400371129076327, 0.05060273901253051, 0.007539175531709088,
    0.0007219007368574066, 3.4210125916513266e-05,
)


# both as one (2, 3, 2, 2, 1) block: quads of coefficients c_4q..c_4q+3,
# each split into its low and its high pair, P's padded with a zero x^11
# term, which adds exactly 0
_ERFCX_QUADS = np.array([_ERFCX_P + (0.0,), _ERFCX_Q]).reshape(2, 3, 2, 2, 1)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc over a flat array x >= 0, within 1e-15 relative where it is a normal float.

    erfcx's rational times e^(-x^2), and e^(-x^2) as e^(-h^2) e^(-(x - h)(x + h))
    with h = x cut to sixteenths, whose square is exact (Cody 1969): the
    rounding of x^2 itself would cost x^2 eps relative, 4e-15 at x = 6.
    P and Q are summed together by Estrin's scheme: pairs of
    coefficients in x, then pairs of pairs in x^2, x^4 and x^8.  With
    every coefficient and x positive, each value passes through four
    roundings, not Horner's eleven, and P and Q share each array
    operation.
    """
    x = np.minimum(x, 30.0)  # erfc(30) underflows; x^11 stays finite
    x2 = x * x
    x4 = x2 * x2
    c = _ERFCX_QUADS
    v = (c[:, :, 0, 0] + c[:, :, 0, 1] * x) + (c[:, :, 1, 0] + c[:, :, 1, 1] * x) * x2
    v = (v[:, 0] + v[:, 1] * x4) + v[:, 2] * (x4 * x4)  # (2, n): P and Q
    h = np.trunc(x * 16.0) * 0.0625
    return v[0] / v[1] * (np.exp((h - x) * (x + h)) * np.exp(h * -h))


def _gamma_temme_vec(a: float, x: np.ndarray):
    """(P, Q, terms) by Temme's uniform expansion, for a >= 20 near x = a.

    With eta = sign(x - a) sqrt(2 (lambda - 1 - log(lambda))), lambda = x/a,
    the tail beyond x on eta's side is erfc(|eta| sqrt(a/2)) / 2 +- R, and
    R = e^(-a eta^2/2) / sqrt(2 pi a) sum_k C_k(eta) a^-k (DiDonato &
    Morris 1986, ACM TOMS 12; Temme 1979).  For one shape sum_k d_kn a^-k
    is one coefficient per power of eta, so an element costs one
    polynomial and one erfc.  terms is the table's 18 columns: the
    polynomial is always summed in full.
    """
    # t = x/a - 1 with one rounding (x - a is exact within a factor of 2),
    # and log(1 + t) - t = -t w + 2 w^3 (1/3 + w^2/5 + ...), w = t/(2 + t),
    # a sum of same-signed terms: log1p(t) - t cancels for |t| > 0.25
    t = (x - a) / a
    w = t / (2.0 + t)
    w2 = w * w
    s = np.full(t.shape, 1.0 / 29.0)
    for j in range(13, 0, -1):
        s = 1.0 / (2 * j + 1) + w2 * s
    log_pref = a * (2.0 * (w * w2) * s - t * w)  # -a eta^2 / 2
    root = np.sqrt(-log_pref)  # |eta| sqrt(a/2)
    eta = np.copysign(root, t) * np.sqrt(2.0 / a)
    coef = np.power(1.0 / a, np.arange(len(_TEMME_D))) @ _TEMME_COEF
    poly = np.full(t.shape, coef[-1])
    for n in range(coef.size - 2, -1, -1):
        poly = poly * eta + coef[n]
    r = np.exp(log_pref) * poly / np.sqrt(2.0 * math.pi * a)
    upper = t >= 0.0
    tail = 0.5 * _erfc(root) + np.where(upper, r, -r)
    tail = np.clip(tail, 0.0, 1.0)
    p = np.where(upper, 1.0 - tail, tail)
    q = np.where(upper, tail, 1.0 - tail)
    return p, q, coef.size


def _bgrat_vec(a: float, b: float, x: np.ndarray, ratio: float):
    """(I_x(a, b), terms, converged) for a >= 15, b <= 1, 1 - x < 0.3.

    BGRAT (DiDonato & Morris 1992, ACM TOMS 18, Algorithm 708): with
    nu = a + (b - 1)/2 and z = -nu log(x), I_x(a, b) = G sum_n d_n K_n,
    G = Gamma(a + b) / (Gamma(a) nu^b) (ratio is log Gamma(a + b) -
    log Gamma(a)), K_n = Gamma(b + 2n, z) / (Gamma(b) (2 nu)^2n) and d_n
    the coefficients of (sinh(u)/u)^(b - 1) in u^2.  K_0 = Q(b, z), which
    is erfc(sqrt(z)) at cap_fraction's b = 1/2, and K_n follows from
    K_n-1 by Gamma(s + 2, z) = s (s + 1) Gamma(s, z) + (z + s + 1) z^s e^-z.
    """
    log_x = np.log1p(-(1.0 - x))  # 1 - x is exact for x >= 1/2
    nu = a + 0.5 * (b - 1.0)
    z = -nu * log_x
    if b == 0.5:
        k, iters, conv = _erfc(np.sqrt(z)), 0, True
    else:
        _, k, iters, conv = _gamma_pq_vec(b, z)
    # R (z / (2 nu))^(2n - 2), R = z^b e^-z / Gamma(b)
    power = np.exp(b * np.log(z) - z - math.lgamma(b))
    quarter_log2 = 0.25 * log_x * log_x
    v = 0.25 / (nu * nu)
    total = k.copy()
    c, d = [1.0], [1.0]  # sinh(u)/u = sum c_n u^2n, (sinh(u)/u)^(b-1) = sum d_n u^2n
    # the largest z converges last, so the whole batch is tested only
    # once that element has converged, as in _gamma_series_vec
    slow = int(np.argmax(z))
    n, done = 0, True
    while n < _BGRAT_TERMS:
        n += 1
        s = b + (2 * n - 2)
        k = v * (s * (s + 1.0) * k + (z + s + 1.0) * power)
        power = power * quarter_log2
        c.append(c[-1] / (2 * n * (2 * n + 1)))
        d.append(sum((b * i - n) * c[i] * d[n - i] for i in range(1, n + 1)) / n)
        term = d[n] * k
        total += term
        done = bool(
            abs(term[slow]) <= _EPS * total[slow]
            and (np.abs(term) <= _EPS * total).all()
        )
        if done:
            break
    val = np.exp(ratio - b * np.log(nu)) * total
    return np.clip(val, 0.0, 1.0), max(n, iters), conv and done


def _gamma_pq_vec(a: float, x: np.ndarray):
    p = np.empty(x.shape)
    q = np.empty(x.shape)
    conv, iters = True, 0
    zero = x == 0.0
    p[zero] = 0.0
    q[zero] = 1.0
    low = (x < a + 1.0) & ~zero
    high = ~low & ~zero
    if a >= _TEMME_MIN_A:
        near = np.abs(x - a) <= _TEMME_REACH * a
        if near.any():
            p[near], q[near], iters = _gamma_temme_vec(a, x[near])
            low &= ~near
            high &= ~near
    if low.any():
        pv, it, ok = _gamma_series_vec(a, x[low])
        p[low] = pv
        q[low] = 1.0 - pv
        conv, iters = conv and ok, max(iters, it)
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
        ratio = _lgamma_ratio(a, b)
        log_front = ratio - math.lgamma(b)

        def front(sel):
            # x^a (1 - x)^b / B(a, b), which only the continued fraction uses
            xs = xm[sel]
            return np.exp(log_front + a * np.log(xs) + b * np.log1p(-xs))

        out = np.empty(xm.shape)
        direct = xm < (a + 1.0) / (a + b + 2.0)
        swap = ~direct
        if a >= _BGRAT_MIN_A and b <= 1.0:
            near = 1.0 - xm < _BGRAT_REACH
            if near.any():
                out[near], iters, conv = _bgrat_vec(a, b, xm[near], ratio)
                direct &= ~near
                swap &= ~near
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
    require(number("a", a))
    x_arr = np.asarray(x, dtype=np.float64)
    require(
        positive("a", a),
        unless(np.all(np.isfinite(x_arr)), "x must be finite"),
        unless(not np.any(x_arr < 0), "x must be nonnegative"),
    )
    *pq, iters, conv = _gamma_pq_vec(float(a), x_arr.ravel())
    return SpecFunResult(_shaped(pq[upper], x_arr.shape), conv, iters)


def reg_lower_gamma_result(a, x) -> SpecFunResult:
    """P(a, x) = lower incomplete gamma(a, x) / Gamma(a), with diagnostics.

    a is one number, x a number or an array of any shape.  iterations
    counts the terms the batch evaluated (see SpecFunResult).
    """
    return _gamma_result(a, x, upper=False)


def reg_upper_gamma_result(a, x) -> SpecFunResult:
    """Q(a, x) = 1 - P(a, x), computed directly in the tail regime.

    Shapes and iterations as in reg_lower_gamma_result.
    """
    return _gamma_result(a, x, upper=True)


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
    return _unwrap(reg_upper_gamma_result(a, x), "reg_upper_gamma")


def reg_inc_beta_result(x, a, b) -> SpecFunResult:
    """Regularized incomplete beta I_x(a, b), with diagnostics.

    a and b are one number each, x a number or an array of any shape.
    iterations counts the terms the batch evaluated (see SpecFunResult).
    """
    require(number("a", a), number("b", b))
    x_arr = np.asarray(x, dtype=np.float64)
    require(
        positive("a", a),
        positive("b", b),
        unless(np.all(np.isfinite(x_arr)), "x must be finite"),
        unless(not (np.any(x_arr < 0) or np.any(x_arr > 1)), "x must lie in [0, 1]"),
    )
    val, iters, conv = _betainc_vec(x_arr.ravel(), float(a), float(b))
    return SpecFunResult(_shaped(val, x_arr.shape), conv, iters)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for one number a and b, in [0, 1]."""
    return _unwrap(reg_inc_beta_result(x, a, b), "reg_inc_beta")


# Newton steps on log x: one of at most _NEWTON_TOL settles the root
_NEWTON_TOL, _NEWTON_MAX_STEP, _NEWTON_STEPS = 2.0**-34, 4.0, 100


def _gamma_quantile(a: float, mass: float, upper: bool) -> float:
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
    require(number("a", a), number("p", p))
    require(
        positive("a", a),
        unless(np.isfinite(p) and 0.0 <= p < 1.0, "p must lie in [0, 1)"),
    )
    if p == 0.0:
        return 0.0
    return _gamma_quantile(a, float(p), False)


def inv_reg_upper_gamma(a: float, q: float) -> float:
    """Solve Q(a, x) = q for x >= 0; the tail-mass form of the inverse.

    Taking q directly (rather than p = 1 - q) avoids the cancellation: x
    keeps ~1e-12 relative accuracy down to q ~ 1e-300 when a >= 0.01.
    """
    require(number("a", a), number("q", q))
    require(
        positive("a", a),
        unless(np.isfinite(q) and 0.0 < q <= 1.0, "q must lie in (0, 1]"),
    )
    if q == 1.0:
        return 0.0
    return _gamma_quantile(a, float(q), True)


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF via erfc; accurate deep into both tails."""
    require(number("t", t))
    require(unless(np.isfinite(t), "t must be finite"))
    return _normal_cdf(float(t))


def _normal_cdf(t: float) -> float:
    # std_normal_cdf on a float already checked
    return 0.5 * math.erfc(-t / _SQRT2)
