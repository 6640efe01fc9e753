"""Certified bounds on the approximate-DP condition.

For the exp(-||y - center||_2 / sigma) mechanism with centers one unit
apart, the privacy loss at output y is (||y - e1|| - ||y||) / sigma and
the (epsilon, delta) guarantee holds iff

    lhs = P0[loss >= eps] - e^eps * P1[loss >= eps] <= delta,

where P0 / P1 put the noise at the two centers (T1 and T2 below).
check_approx_dp bounds lhs from above in one of four ways, each of whose
errors can only lean toward "not certified", never toward a false
guarantee:

- eps * sigma >= 1, exactly and not merely after rounding: the loss
  region is empty and lhs = 0.
- d = 1: closed forms (the l2 mechanism is the Laplace mechanism).
- d >= 3: the 1-D prolate form.  With mu = ||y|| + ||y - e1|| and nu =
  ||y - e1|| - ||y||, the loss is nu / sigma, both densities separate,
  and lhs, T1 and T2 are each C (N_{k+1} G_k + N_k G_{k+1}) over four
  1-D integrals of log-concave integrands (_prolate_bounds).  n_r
  uniform cells on a nu-window inside [eps sigma, 1] and n_R on a
  mu-window inside [1, inf) carry them: a cell's upper bound is the
  smaller integral of e^(tangent) at its two edges and its lower bound
  the integral of e^(chord) (Gilks & Wild's envelopes), tails beyond a
  window are bounded by the tangent at its edge, and a margin derived
  from the size of the logs summed covers float rounding.  Grids nest
  under doubling, and refining one can only tighten every bound.
  Nothing cancels, no gamma or beta kernel runs, and no r_star bounds
  a radius.
- d = 2: left Riemann-Stieltjes sums over the radial CDF, weighted by
  spherical-cap fractions.  term1 weights the sphere mass between
  consecutive radii by the cap fraction at the left radius (cap
  fractions around the noise center shrink with radius, so this
  over-counts) and counts the ball below the first radius, (1 - tau)/2,
  in full; term2's spheres around the shifted center miss the region
  below radius (1 + tau)/2 and its fractions grow with radius, so its
  left-endpoint weights under-count.  Both charge the mass beyond their
  last radius r_star = sigma * x_star the cap fraction at r_star, where
  x_star leaves a _TAIL_FRACTION * delta sliver (one percent of the
  budget) beyond it; the check finds x_star itself, from the closed
  form Q(2, x) = e^-x (1 + x).  The two radial grids go as one flat
  batch into one call of the whole-array gamma kernel, which also gives
  the tail mass, and one cap_fraction call; the same pass gives
  lhs_slope, the exact sigma-derivative of the two sums.  lhs_upper is
  the smaller of their difference and 1 - e^(eps - 1/sigma), which
  alone bounds lhs where either grid's first radius is not below
  r_star (tiny sigma), or where an eps * sigma below 1 rounds to 1.

(dim, sigma, epsilon, delta, n_r, n_R) alone replay a check, and every
check returns a report.  check_approx_dp and calibrate_l2 check the
(epsilon, delta) target, a PrivacyParams defined here, and the grid
sizes once, where they enter; no per-probe record re-checks them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import instance, integer, number, positive, require, unless
from .capgeom import _cap_heights, cap_fraction
from .specfun import ConvergenceError, _gamma_pq_vec

__all__ = [
    "PrivacyParams",
    "BoundReport",
    "check_approx_dp",
]

BRANCH_LARGE_SIGMA = "large_sigma"
BRANCH_ONE_DIM = "one_dim"
BRANCH_GENERAL = "general"

# the share of delta left to the radial mass beyond r_star
_TAIL_FRACTION = 0.01
_LOG_TAIL_FRACTION = math.log(_TAIL_FRACTION)
# the smallest normal float64
_TINY = 2.0**-1022


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) approximate-DP target; both strictly bounded."""

    epsilon: float
    delta: float

    def __post_init__(self):
        require(
            number("epsilon", self.epsilon) or positive("epsilon", self.epsilon),
            number("delta", self.delta)
            or unless(
                np.isfinite(self.delta) and 0.0 < self.delta < 1.0,
                "delta must lie strictly in (0, 1)",
            ),
        )


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one certified (epsilon, delta) check.

    satisfies_dp compares lhs_upper against delta; a False verdict means
    "not certified", not "violates DP".  branch records which case
    produced the numbers: "large_sigma" (eps * sigma >= 1 exactly, loss
    region empty, every bound 0), "one_dim" (closed forms), or "general"
    (grids, or at d = 2 the loss cap bound where none can start).  By
    branch:

    - lhs_upper: at d = 2 the smaller of term1_upper - e^epsilon *
      term2_lower and 1 - e^(epsilon - 1/sigma), rounded up; where the
      radial grids cannot start, the latter alone, with term1_upper = 1
      and term2_lower = 0.  At d >= 3 the smallest of the direct
      prolate bound on lhs, that difference (rounded up) and
      1 - e^(epsilon - 1/sigma).  So at d >= 2 it is at most the
      difference.  At d = 1 the closed form taken without cancelling
      two terms near 1/2.
    - n_r, n_R: the two radial grid sizes at d = 2, the nu- and mu-cell
      counts at d >= 3; as given, though unused, in the other branches.
    - r_star: at d = 2 the radial grids' shared outer radius sigma *
      x_star, set by the tail rule; at d >= 3 (mu_hi + 1)/2, the radius
      of the ball around the noise center that holds the mu-window
      mu <= mu_hi, beyond which a tangent bounds the tail; 0.0 wherever
      no grid runs (d = 1, the large-sigma branch, and d = 2 where the
      radial grids cannot start).
    - lhs_slope: d lhs_upper / d sigma in the general branch (None in
      the others): at d = 2 exact for the radial sums up to float
      rounding; at d >= 3 the trapezoid rule on the sigma-derivative of
      the true integrands, on the bound's own edges; at either, where
      1 - e^(epsilon - 1/sigma) is the bound, that bound's derivative.  It is not certified and is not
      evidence: calibrate_l2 takes one Newton step from this report
      alone, by lhs_upper and this slope, to place its next probe, and
      only the verdicts decide the answer.
    """

    term1_upper: float
    term2_lower: float
    lhs_upper: float
    satisfies_dp: bool
    n_r: int
    n_R: int
    r_star: float
    branch: str
    lhs_slope: float | None = None


def _exp_eps(epsilon: float) -> float:
    # e^epsilon weighting the subtracted hockey-stick term; capping the
    # exponent only lowers that term, which keeps an upper bound on the
    # left-hand side one while avoiding float overflow
    return math.exp(min(epsilon, 700.0))


def _riemann_stieltjes(
    sigma: float, eps: float, r_star: float, n_r: int, n_R: int
) -> tuple[float, float, float]:
    """(term1_upper, term2_lower, lhs_slope) of both left Riemann-Stieltjes sums, at d = 2.

    The two terms differ only in the first radius, the grid size, the
    cap height function and whether the ball below the first radius
    counts in full (see the module docstring).  Their grids, n_r radii
    from (1 - tau)/2 and n_R from (1 + tau)/2, both up to r_star, which
    must exceed both, go end to end into a single incomplete-gamma call
    and a single cap_fraction call, and the same gamma call gives the
    tail mass beyond r_star, Q(2, r_star / sigma), that both sums charge.

    lhs_slope is the exact sigma-derivative of term1 - e^eps term2 as
    these sums compute them, from the same arrays: each sum is a dot
    product of CDF steps and cap fractions, so its derivative is the
    steps' derivatives dotted with the fractions plus the steps dotted
    with the fractions' derivatives.  A grid is the linspace of its
    first radius, which moves with tau, to r_star = sigma * x_star, so
    its radii move by the linspace of those two rates, and the tail
    mass Q(2, x_star) does not move at all.
    """
    tau = eps * sigma
    r_first, big_r_first = (1.0 - tau) / 2.0, (1.0 + tau) / 2.0
    radii = np.concatenate(
        [np.linspace(r_first, r_star, n_r), np.linspace(big_r_first, r_star, n_R)]
    )
    offset = np.concatenate([np.full(n_r, big_r_first), np.full(n_R, -big_r_first)])
    heights = _cap_heights(tau, radii, offset)
    x = radii / sigma
    cdf, sf, iters, conv = _gamma_pq_vec(2.0, x)
    if not conv:
        raise ConvergenceError(
            f"reg_lower_gamma did not converge within {iters} iterations"
        )
    frac = cap_fraction(2, radii, heights)
    tail = float(sf[-1])
    # sigma-derivatives of the radii, the CDF at them (the gamma density
    # x e^-x), the heights, whose offset moves at +-eps/2 = offset * eps /
    # (1 + tau), and the cap fractions, whose rate in the relative height
    # v = h/r is 1/(pi sqrt(v (2 - v))), taken as 0 at an empty cap or the
    # whole sphere, the heights a grid keeps there at every sigma
    x_star = r_star / sigma
    d_radii = np.concatenate(
        [np.linspace(-eps / 2.0, x_star, n_r), np.linspace(eps / 2.0, x_star, n_R)]
    )
    d_cdf = x * np.exp(-x) * ((d_radii - x) / sigma)
    d_heights = (1.0 - tau) * (d_radii + offset * (eps / (1.0 + tau)))
    d_heights -= eps * (radii + offset)
    rel = heights / radii
    z = rel * (2.0 - rel)
    rate = np.divide(1.0 / math.pi, np.sqrt(z), out=np.zeros_like(z), where=z > 0.0)
    d_frac = rate * ((d_heights - rel * d_radii) / radii)
    sums, slopes = [], []
    for part, below, d_below in (
        (slice(None, n_r), cdf[0], d_cdf[0]),
        (slice(n_r, None), 0.0, 0.0),
    ):
        c, f, dc, df = cdf[part], frac[part], d_cdf[part], d_frac[part]
        sums.append(below + float(np.dot(np.diff(c), f[:-1])) + tail * f[-1])
        slopes.append(
            float(
                d_below
                + np.dot(np.diff(dc), f[:-1])
                + np.dot(np.diff(c), df[:-1])
                + tail * df[-1]
            )
        )
    t1, t2 = min(sums[0], 1.0), max(sums[1], 0.0)
    d_t1 = slopes[0] if t1 == sums[0] else 0.0
    d_t2 = slopes[1] if t2 == sums[1] else 0.0
    return t1, t2, d_t1 - _exp_eps(eps) * d_t2


# ---------------------------------------------------------------------------
# d >= 3: the hockey-stick in prolate spheroidal coordinates

# unit roundoff of float64
_U = 2.0**-53
# how far, in nats, each window's log-weight falls from its peak by the
# window's edge; beyond it only a tangent tail bound is charged
_DROP = 20.0
_NEWTON_STEPS = 8
# the rounding margin in units of _U per nat of log magnitude summed
_MARGIN_ULPS = 16.0
_LOG_2 = math.log(2.0)
_HALF_LOG_PI = 0.5 * math.log(math.pi)


class ProlateBounds(NamedTuple):
    """(lower, upper) pairs for lhs, T1 = P0[L >= eps] and T2 = P1[L >= eps].

    slope estimates d lhs / d sigma (uncertified) and r_star is the
    radius of the ball around the noise center that holds the mu-window.
    """

    lhs: tuple[float, float]
    term1: tuple[float, float]
    term2: tuple[float, float]
    slope: float
    r_star: float


def _one_minus_product(a: float, b: float) -> float:
    """1 - a * b to a few ulps relative, even where a * b is close to 1.

    Dekker's two-product gives the rounding error e of p = fl(a b)
    exactly; 1 - p is exact for p in [1/2, 2] (Sterbenz), so the only
    rounding left is that of subtracting e.
    """
    p = a * b
    if p < 0.5:
        return 1.0 - p
    split = 134217729.0  # 2^27 + 1
    ca, cb = split * a, split * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    out = (1.0 - p) - err
    return out if math.isfinite(out) else 1.0 - p


def _loss_cap_bound(w: float, sigma: float) -> tuple[float, float]:
    """1 - e^(eps - 1/sigma), rounded up, and its sigma-derivative.

    w = 1 - eps sigma > 0.  The loss never exceeds 1/sigma, so this
    bounds lhs at every dim; 1/sigma - eps is taken as w / sigma,
    without cancelling.
    """
    gap = w / sigma
    return -math.expm1(-gap) * (1.0 + 8.0 * _U), -math.exp(-gap) / (sigma * sigma)


def _mu_log_weight(j: float, a: float, m: float) -> float:
    # log of e^(-a mu) (mu^2 - 1)^j at mu = 1 + m, without the constant e^-a
    return -a * m + j * math.log(m * (m + 2.0))


def _mu_mode(j: float, a: float) -> float:
    # m = mu - 1 at the peak of e^(-a mu) (mu^2 - 1)^j, j > 0: the root of
    # a mu^2 - 2 j mu - a, with sqrt(j^2 + a^2) - a taken without cancelling
    return (j + j * j / (math.hypot(j, a) + a)) / a


def _mu_curvature(j: float, m: float) -> float:
    # -(log weight)'' = 2 j (mu^2 + 1) / (mu^2 - 1)^2, which falls as mu grows
    q = m * (m + 2.0)
    return 2.0 * j * ((1.0 + m) ** 2 + 1.0) / (q * q)


def _prolate_windows(dim: int, sigma: float, eps: float, w: float):
    """(t_hi, m_lo, m_hi): the nu-window [tau, tau + t_hi] and mu-window [1 + m_lo, 1 + m_hi].

    Each log-weight is concave, so its fall from the peak can be bounded
    from below, and each window edge sits where the fall has reached
    _DROP nats, or at the end of the range.  The nu-window starts at tau
    and ends past the peak of nu |-> a nu + k log(1 - nu^2), which is
    2k-strongly concave: at distance x past a peak of slope -s it has
    fallen by at least s x + k x^2.  The mu-window holds the peak of
    the j = k weight and, above it, that of j = k + 1: below a peak the
    curvature of mu |-> -a mu + j log(mu^2 - 1) only grows, and above
    it the fall is evaluated until it reaches _DROP.  The windows depend
    on (dim, sigma, eps) alone, so grids of n and 2n cells nest.
    """
    k, a, tau = 0.5 * (dim - 3), 0.5 / sigma, eps * sigma
    if k == 0.0:
        t_hi = w
    else:
        mode = a / (k + math.hypot(k, a))
        if mode > tau:
            start, fall = mode - tau, 0.0
        else:
            start, fall = 0.0, max(2.0 * k * tau / (w * (1.0 + tau)) - a, 0.0)
        reach = 2.0 * _DROP / (fall + math.sqrt(fall * fall + 4.0 * k * _DROP))
        t_hi = min(w, start + reach)
    if k == 0.0:
        m_lo = 0.0
    else:
        peak = _mu_mode(k, a)
        m_lo = max(0.0, peak - math.sqrt(2.0 * _DROP / _mu_curvature(k, peak)))
    # Newton on the fall of the j = k + 1 weight, which is convex and
    # increasing past the peak: from the curvature's guess the first step
    # lands at or past the root and the rest close in from above, so the
    # edge stays past the peak and moves continuously with sigma
    j = k + 1.0
    peak = _mu_mode(j, a)
    top = _mu_log_weight(j, a, peak)
    m_hi = peak + math.sqrt(2.0 * _DROP / _mu_curvature(j, peak))
    for _ in range(_NEWTON_STEPS):
        fall = top - _mu_log_weight(j, a, m_hi) - _DROP
        m_hi -= fall / (a - j * (2.0 * m_hi + 2.0) / (m_hi * (m_hi + 2.0)))
    return t_hi, m_lo, m_hi


def _edges(lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform cells from lo to hi: n + 1 edges, the last exactly hi."""
    x = lo + (hi - lo) * (np.arange(n + 1) / n)
    x[-1] = hi
    return x


def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z, 1 at z = 0: the integral of e^(z y) over y in [0, 1]."""
    out = np.expm1(z)
    out /= z
    out[z == 0.0] = 1.0
    return out


def _cell_sums(logf, slope, h, low_tail, high_tail, size):
    """Per row of log-integrands on shared edges: (shift, upper, lower, f, magnitude).

    Each integral is e^shift times its sum.  A cell's upper bound is the
    smaller of the integrals of e^(tangent) at its two edges, its lower
    bound the integral of e^(chord); both read only logf and slope at
    the edges.  An edge where logf is -inf (an end of the range where
    the integrand vanishes) offers no tangent and makes the chord 0.
    low_tail and high_tail are the lengths of the range beyond the first
    and last edge (inf for an unbounded one): the tangent at that edge
    bounds the tail from above, and it adds nothing below.  size bounds,
    edge by edge, the sum of the magnitudes of the terms each log is
    computed from; magnitude adds |slope| times the length it spans and
    is the largest over the rows' finite edges, the size of the logs on
    which the rounding margin rests.  Interior edges are finite; only
    the first and last can be singular.  Runs under the caller's
    np.errstate, which lets inf and nan arise.
    """
    shift = logf.max(axis=1)
    f = logf - shift[:, None]
    np.exp(f, out=f)
    fa, fb = f[:, :-1], f[:, 1:]
    up = _expm1_ratio(slope[:, :-1] * h)
    up *= fa
    right = _expm1_ratio(slope[:, 1:] * -h)
    right *= fb
    np.fmin(up, right, out=up)
    up *= h
    upper = up.sum(axis=1)
    rise = logf[:, :-1] - logf[:, 1:]
    np.abs(rise, out=rise)
    np.negative(rise, out=rise)
    low = _expm1_ratio(rise)
    low *= np.maximum(fa, fb)
    low *= h
    lower = low.sum(axis=1)
    for i, length in ((0, low_tail), (-1, high_tail)):
        if length > 0.0:
            s = slope[:, i] if i == 0 else -slope[:, i]
            if math.isinf(length):
                tail = np.where(s > 0.0, f[:, i] / s, np.inf)
            else:
                tail = f[:, i] * length * _expm1_ratio(-s * length)
            upper = upper + tail
    finite = [length for length in (low_tail, high_tail) if math.isfinite(length)]
    span = max(float(h.max()), *finite)
    ends = (size + np.abs(slope) * span)[:, [0, -1]]
    ok = np.isfinite(logf[:, [0, -1]]) & np.isfinite(slope[:, [0, -1]])
    inner = size[:, 1:-1] + np.abs(slope[:, 1:-1]) * span
    magnitude = max(float(inner.max()), float(np.max(ends, where=ok, initial=0.0)))
    return shift, upper, lower, f, magnitude


def _trapezoid(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    return 0.5 * ((y[..., :-1] + y[..., 1:]) @ h)


def _prolate_bounds(
    dim: int, sigma: float, eps: float, n_nu: int, n_mu: int
) -> ProlateBounds:
    """Two-sided bounds on lhs, T1 and T2 at dim >= 3 from the 1-D prolate form.

    With the foci at 0 and e1, mu = ||y|| + ||y - e1||, nu = ||y - e1|| -
    ||y||, a = 1/(2 sigma), tau = eps sigma, k = (dim - 3)/2 and g(nu)
    = 1 - e^(eps - nu/sigma), the loss is nu / sigma and

        lhs = C (N_{k+1} G_k + N_k G_{k+1}),
        N_j = int_1^inf e^(-a mu) (mu^2 - 1)^j dmu,
        G_j = int_tau^1 g(nu) e^(a nu) (1 - nu^2)^j dnu,
        C = |S^(d-2)| / (2^d |S^(d-1)| Gamma(d) sigma^d);

    g -> 1 gives T1 and g -> e^(-nu/sigma) gives T2.  Every integrand is
    log-concave, so _cell_sums bounds each on n_nu uniform cells of the
    nu-window and n_mu of the mu-window (_prolate_windows), one grid per
    coordinate for all rows.  nu is carried as its distance t from tau
    and its distance w - t from 1, w = 1 - eps sigma to a few ulps
    (_one_minus_product), so neither end cancels.  Every summand is a
    nonnegative exp of a computed log: the margin e^(+-M), M =
    _MARGIN_ULPS * u * (the magnitudes of the logs summed, plus the
    ulps of the pairwise sums), moves uppers up and lowers down past
    float rounding.  Requires eps sigma < 1 exactly (w > 0).  slope is
    d lhs / d sigma from the same edges (_prolate_slope); it steers and
    certifies nothing.
    """
    w = _one_minus_product(eps, sigma)
    k, a, tau = 0.5 * (dim - 3), 0.5 / sigma, eps * sigma
    t_hi, m_lo, m_hi = _prolate_windows(dim, sigma, eps, w)
    j = np.array([[k], [k + 1.0]])
    half = 0.5 * eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # nu rows: g = 1 - e^(eps - nu/sigma), 1 and e^(-nu/sigma), each at
        # j = k, k + 1; e^(a nu) = e^(eps/2 + a t)
        t = _edges(0.0, t_hi, n_nu)
        gap = w - t
        log_w = np.log(gap) + np.log1p(tau + t)  # log(1 - nu^2)
        at = a * t
        log_g = np.log(-np.expm1(-2.0 * at))
        base = np.stack([half + at + log_g, half + at, -half - at])
        d_base = np.stack(
            [a + 2.0 * a / np.expm1(2.0 * at), np.full_like(t, a), np.full_like(t, -a)]
        )
        weight = j * log_w
        d_weight = j * (1.0 / (1.0 + tau + t) - 1.0 / gap)
        # the ulps 1 - nu^2 = w - t loses to the rounding of w, per its size
        lost = j * (w / gap)
        if k == 0.0:
            weight[0], d_weight[0], lost[0] = 0.0, 0.0, 0.0
        log_nu = (base[:, None] + weight).reshape(6, -1)
        d_nu = (d_base[:, None] + d_weight).reshape(6, -1)
        size_nu = (
            (np.abs(base) + np.abs(half + at))[:, None] + np.abs(weight) + lost
        ).reshape(6, -1)
        # mu rows, m = mu - 1: e^(-a mu) (mu^2 - 1)^j at j = k, k + 1
        m = _edges(m_lo, m_hi, n_mu)
        weight = j * (np.log(m) + np.log(m + 2.0))
        d_weight = j * (1.0 / m + 1.0 / (m + 2.0))
        if k == 0.0:
            weight[0], d_weight[0] = 0.0, 0.0
        log_mu = weight - a * (1.0 + m)
        d_mu = d_weight - a
        size_mu = a * (1.0 + m) + np.abs(weight) + 2.0 * j
        h_nu, h_mu = np.diff(t), np.diff(m)
        s_nu, up_nu, low_nu, f_nu, magnitude_nu = _cell_sums(
            log_nu, d_nu, h_nu, 0.0, float(gap[-1]), size_nu
        )
        s_mu, up_mu, low_mu, f_mu, magnitude_mu = _cell_sums(
            log_mu, d_mu, h_mu, m_lo, math.inf, size_mu
        )
    terms = (
        math.lgamma(0.5 * dim),
        -math.lgamma(0.5 * (dim - 1)),
        -_HALF_LOG_PI,
        -dim * _LOG_2,
        -math.lgamma(dim),
        -dim * math.log(sigma),
    )
    log_c = sum(terms)
    # numpy's pairwise sums err by at most about 20 + log2(n) ulps each
    sums = 48.0 + math.log2(n_nu) + math.log2(n_mu)
    sizes = sum(map(abs, terms)) + magnitude_nu + magnitude_mu
    margin = _MARGIN_ULPS * _U * (sums + sizes)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # axis 0: upper, lower; then (lhs, T1, T2) by (j = k, k + 1)
        log_g_int = s_nu + np.log(np.stack([up_nu, low_nu]))
        log_n_int = s_mu + np.log(np.stack([up_mu, low_mu]))
        log_g_int = log_g_int.reshape(2, 3, 2)
        first = log_c + log_n_int[:, None, 1] + log_g_int[:, :, 0]
        second = log_c + log_n_int[:, None, 0] + log_g_int[:, :, 1]
        both = np.logaddexp(first, second)
        upper = np.exp(both[0] + margin)
        lower = np.exp(both[1] - margin)
    lhs_up, t1_up, t2_up = (float(v) for v in upper)
    lhs_low, t1_low, t2_low = (float(v) for v in lower)
    t1_up = min(t1_up, 1.0)
    # where the loss cap bound beats the grid, the grid did not resolve
    # the integrands and its slope is that bound's
    trivial, trivial_slope = _loss_cap_bound(w, sigma)
    unresolved = trivial <= lhs_up
    alternative = t1_up - _exp_eps(eps) * t2_low + 4.0 * _U * t1_up
    lhs_up = min(lhs_up, alternative, trivial, 1.0)
    if unresolved:
        slope = trivial_slope
    else:
        slope = _prolate_slope(
            dim, sigma, eps, tau + t, m, h_nu, h_mu, f_nu, s_nu, f_mu, s_mu,
            second[0, 0] - first[0, 0], lhs_up,
        )
    return ProlateBounds(
        (min(lhs_low, lhs_up), lhs_up),
        (min(t1_low, t1_up), t1_up),
        (t2_low, min(t2_up, 1.0)),
        slope,
        0.5 * (m_hi + 2.0),
    )


def _prolate_slope(dim, sigma, eps, nu, m, h_nu, h_mu, f_nu, s_nu, f_mu, s_mu, odds, lhs):
    """d lhs / d sigma by the trapezoid rule on the bound's own edges.

    d log C / d sigma = -dim / sigma; d N_j / d sigma is the integral of
    mu e^(-a mu) (mu^2 - 1)^j / (2 sigma^2), and d G_j / d sigma that of
    -nu (e^(a nu) + e^(eps - a nu)) (1 - nu^2)^j / (2 sigma^2), the T1
    plus e^eps times the T2 integrand; N_{k+1} G_k and N_k G_{k+1} weigh
    in by their shares of the sum, whose log-ratio is odds.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n_ratio = _trapezoid((1.0 + m) * f_mu, h_mu) / _trapezoid(f_mu, h_mu)
        f, s = f_nu.reshape(3, 2, -1), s_nu.reshape(3, 2)
        moment = np.exp(s[1] - s[0]) * _trapezoid(nu * f[1], h_nu)
        moment += np.exp(eps + s[2] - s[0]) * _trapezoid(nu * f[2], h_nu)
        g_ratio = moment / _trapezoid(f[0], h_nu)
        share = 1.0 / (1.0 + math.exp(min(odds, 700.0)))
        mix = share * (n_ratio[1] - g_ratio[0]) + (1.0 - share) * (n_ratio[0] - g_ratio[1])
    return float(lhs * (mix / (2.0 * sigma * sigma) - dim / sigma))


def check_approx_dp(
    dim: int,
    sigma: float,
    eps_delta: PrivacyParams,
    n_r: int = 1000,
    n_R: int = 1000,
) -> BoundReport:
    """Certified check that sigma gives (epsilon, delta)-DP in dim dims.

    At dim >= 3 the 1-D prolate form bounds lhs on n_r nu-cells and n_R
    mu-cells (see _prolate_bounds); it needs no outer radius.  At dim =
    2 the outer radius r_star = sigma * x_star is set so the radial mass
    beyond it is _TAIL_FRACTION * delta (one percent of the privacy
    budget; see _x_star), then both Riemann bounds are evaluated on
    [first radius, r_star] grids, together in one pass of the kernels
    that also gives that tail mass (see _riemann_stieltjes); where r_star
    does not exceed both first radii, 1 - e^(epsilon - 1/sigma) alone
    bounds lhs.  satisfies_dp=True is a proof up to float arithmetic;
    False only means these grids could not certify the pair.
    """
    require(
        integer("dim", dim),
        number("sigma", sigma) or positive("sigma", sigma),
        instance("eps_delta", eps_delta, PrivacyParams),
        integer("n_r", n_r, 2),
        integer("n_R", n_R, 2),
    )
    return _check(dim, sigma, eps_delta, n_r, n_R)


def _x_star(delta: float) -> float:
    """r_star / sigma at d = 2: the root of Q(2, x) = _TAIL_FRACTION * delta.

    Q(2, x) = e^-x (1 + x), so x solves x + t = log(1 + x) with t the
    log of the tail mass: log(q) keeps the relative accuracy of q =
    _TAIL_FRACTION * delta, and below the normal range, where q loses
    bits or underflows, log(delta) + log(_TAIL_FRACTION) stands in.  x +
    t is exact near the root (Sterbenz), and Newton's steps on this
    convex, rising function close in from above, from 2 log(1 - t) - t,
    which lies past the root.
    """
    q = _TAIL_FRACTION * delta
    t = math.log(q) if q >= _TINY else math.log(delta) + _LOG_TAIL_FRACTION
    x = 2.0 * math.log1p(-t) - t
    for _ in range(_NEWTON_STEPS):
        x -= ((x + t) - math.log1p(x)) * (1.0 + x) / x
    return x


def _check(dim, sigma, eps_delta, n_r, n_R) -> BoundReport:
    """check_approx_dp on checked arguments."""
    epsilon = float(eps_delta.epsilon)
    delta = float(eps_delta.delta)
    sigma = float(sigma)
    r_star = 0.0
    slope = None
    # the loss region is empty only where eps * sigma >= 1 holds exactly,
    # not merely after rounding
    w = _one_minus_product(epsilon, sigma)
    if w <= 0.0:
        branch, t1, t2, lhs = BRANCH_LARGE_SIGMA, 0.0, 0.0, 0.0
    elif dim == 1:
        # the loss region is the half-line y <= (1 - eps sigma)/2: both terms
        # are Laplace CDFs there, and their difference is
        # 1 - e^(-(1/sigma - eps)/2), taken without the cancellation of
        # two terms near 1/2, and 1/sigma - eps as w / sigma, without
        # that of two terms near 1/sigma
        gap = -0.5 * (w / sigma)
        branch, lhs = BRANCH_ONE_DIM, -math.expm1(gap)
        t1 = 1.0 - 0.5 * math.exp(gap)
        t2 = 0.5 * math.exp(0.5 * (-epsilon - 1.0 / sigma))
    elif dim == 2:
        # the loss cap bound, with T1 <= 1 and T2 >= 0, unless the radial
        # sums beat it; they run only where both grids can start below
        # r_star, and not where eps * sigma < 1 rounds to 1 or above
        branch, t1, t2 = BRANCH_GENERAL, 1.0, 0.0
        lhs, slope = _loss_cap_bound(w, sigma)
        tau = epsilon * sigma
        outer = sigma * _x_star(delta)
        if tau < 1.0 and outer > (1.0 + tau) / 2.0:
            r_star = outer
            t1, t2, radial_slope = _riemann_stieltjes(sigma, epsilon, r_star, n_r, n_R)
            radial = t1 - _exp_eps(epsilon) * t2
            if radial < lhs:
                lhs, slope = radial, radial_slope
    else:
        branch = BRANCH_GENERAL
        bounds = _prolate_bounds(dim, sigma, epsilon, n_r, n_R)
        t1, t2, lhs = bounds.term1[1], bounds.term2[0], bounds.lhs[1]
        slope, r_star = bounds.slope, bounds.r_star
    return BoundReport(
        term1_upper=t1,
        term2_lower=t2,
        lhs_upper=lhs,
        satisfies_dp=bool(lhs <= delta),
        n_r=n_r,
        n_R=n_R,
        r_star=r_star,
        branch=branch,
        lhs_slope=slope,
    )
