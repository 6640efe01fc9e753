"""Certified bounds on the approximate-DP condition.

For the exp(-||y - center||_2 / sigma) mechanism with centers one unit
apart, the privacy loss at output y is (||y - e1|| - ||y||) / sigma and
the (epsilon, delta) guarantee holds iff

    lhs = P0[loss >= eps] - e^eps * P1[loss >= eps] <= delta,

where P0 / P1 put the noise at the two centers (T1 and T2 below).
check_approx_dp bounds lhs from above in one of four ways, each of whose
errors can only lean toward "not certified", never toward a false
guarantee, and none of which runs a gamma or beta kernel:

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
  from the size of the logs summed covers float rounding.  The six
  nu-rows and two mu-rows lie end to end in flat arrays, so one array
  operation takes each step of the envelopes for all eight (_cell_sums),
  and for those of every (dim, sigma) row of a batch that shares eps and
  the cell counts (_prolate_batch): a row's bounds are the same bits in
  any batch, a batch of one included.  Grids nest under doubling, and
  refining one can only tighten every bound.  So a calibrate_l2 probe is
  first bounded on the quarter grid nested in its own (_probe_checks,
  which takes a round of probes, one per search of comparison_table's
  wavefront, in one pass): a lower bound above delta fails it, a direct
  bound below delta by more than the finer grid's margin can add passes
  it, and only a probe that neither decides runs the full grid.
  Nothing cancels, and no r_star bounds a radius.
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
  budget) beyond it.  x_star, the radial CDF and the tail mass come
  from Q(2, x) = e^-x (1 + x) and the cap fractions from the circle's
  (2/pi) arcsin sqrt(h/(2r)), all closed forms.  The same pass gives
  lhs_slope, the exact sigma-derivative of the sums.
  lhs_upper is the smaller of their difference and 1 - e^(eps -
  1/sigma), which alone bounds lhs where either grid's first radius is
  not below r_star (tiny sigma), or where an eps * sigma below 1 rounds
  to 1.

The prolate form also gives lhs's sigma-derivative in closed form, for
every d >= 2.  With primes d/dsigma, a = 1/(2 sigma), tau = eps sigma,
k = (d - 3)/2, e^(a tau) = e^(eps/2) and N_j, G_j as in _prolate_bounds,
integration by parts gives

    N_k' = a^3 N_{k+1} / (k + 1),
    N_{k+1}' = 2a ((2k + 3) N_{k+1} + 2 (k + 1) N_k),
    G_k' = -(a^2 / (k + 1)) (2 e^(eps/2) (1 - tau^2)^(k+1) + a G_{k+1}),
    G_{k+1}' = 2a ((2k + 3) G_{k+1} - 2 (k + 1) G_k),

whose boundary terms vanish because g(tau) = 0 and (1 - nu^2)^j and
(mu^2 - 1)^j vanish at 1 for j > 0.  Summed, S = N_{k+1} G_k + N_k
G_{k+1} has S' = (d/sigma) S - (a^2/(k + 1)) 2 e^(eps/2) (1 -
tau^2)^(k+1) N_{k+1}, and (log C)' = -d/sigma cancels the first term:

    d lhs / d sigma = -C N_{k+1} e^(eps/2) (1 - tau^2)^(k+1) / (2 sigma^2 (k + 1)).

The d >= 3 lhs_slope is read from it.  The right side is negative while
eps sigma < 1, and lhs is 0 from eps sigma = 1 up, so the exact lhs
strictly decreases in sigma wherever it is positive.  Hence centers at
a distance s <= 1, which at sigma are the unit pair at sigma/s >= sigma,
are never worse than the unit pair.  The certified lhs_upper need not
be monotone in sigma: its windows, grids and margin move with it.

Below sigma = 2^-100 the d >= 3 grids say nothing (their rounding margin
exceeds 10^14 nats) and the loss cap bound, capped at 1 like every
lhs_upper, stands alone there too, so every positive sigma gets a report.

(dim, sigma, epsilon, delta, n_r, n_R) alone replay a check, and every
check returns a report.  check_approx_dp and calibrate_l2 check the
(epsilon, delta) target, a PrivacyParams defined here, the grid sizes
and dim once, where they enter; no per-probe record re-checks them.  A
dim above 2^53 (_checks.MAX_DIM) is refused: beyond it the floats of d
and (d - 3)/2 round.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import dimension, instance, integer, number, positive, require, unless
from .capgeom import _cap_heights
from .specfun import _two_product

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
            or unless(0.0 < self.delta < 1.0, "delta must lie strictly in (0, 1)"),
        )


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one certified (epsilon, delta) check.

    satisfies_dp compares lhs_upper against delta; a False verdict means
    "not certified", not "violates DP".  branch records which case
    produced the numbers: "large_sigma" (eps * sigma >= 1 exactly, loss
    region empty, every bound 0), "one_dim" (closed forms), or "general"
    (grids, or the loss cap bound where none can start or, at d >= 3,
    below sigma = 2^-100).  By branch:

    - lhs_upper: at d = 2 the smaller of term1_upper - e^epsilon *
      term2_lower as computed, with no rounding margin on the radial
      sums (an enclosure would come from the ROADMAP's exact re-check),
      and 1 - e^(epsilon - 1/sigma), the only part rounded up (by the
      factor 1 + 8u, u = 2^-53); where no grid can start, the latter
      alone, at most 1, with term1_upper = 1 and term2_lower = 0.  At
      d >= 3 the smallest of the direct prolate bound on lhs, that
      difference plus 4u term1_upper, and that loss cap, with every
      grid bound carrying the rounding margin M.  At d = 1 the closed
      form taken without cancelling two terms near 1/2.
    - n_r, n_R: the two radial grid sizes at d = 2, the nu- and mu-cell
      counts at d >= 3; as given, though unused, in the other branches.
      A calibrate_l2 probe decided on the quarter grid reads that grid's.
    - r_star: at d = 2 the radial grids' shared outer radius sigma *
      x_star, set by the tail rule; at d >= 3 (mu_hi + 1)/2, the radius
      of the ball around the noise center that holds the mu-window
      mu <= mu_hi, beyond which a tangent bounds the tail; 0.0 wherever
      no grid runs (d = 1, the large-sigma branch, and the loss cap
      bound alone).
    - lhs_slope: d lhs_upper / d sigma in the general branch (None in
      the others): at d = 2 exact for the radial sums up to float
      rounding; at d >= 3 lhs_upper times the closed form of d log lhs
      / d sigma (see the module docstring), its integrals read halfway
      between the grid's bounds on them; at either, where 1 - e^(epsilon
      - 1/sigma) is the bound, that bound's derivative.  It is not
      certified and is not evidence: calibrate_l2 takes one Newton step
      from this report alone, by lhs_upper and this slope, to place its
      next probe, and only the verdicts decide the answer.
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
    must exceed both, lie end to end in one array; the radial CDF on it
    and the tail mass Q(2, r_star / sigma) both sums charge (_gamma_2),
    and the cap fractions (_arc_fraction), are closed forms.

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
    cdf, fall = _gamma_2(x)
    frac, rate = _arc_fraction(radii, heights)
    tail = float(fall[-1] * (1.0 + x[-1]))
    # sigma-derivatives of the radii, the CDF at them (the gamma density
    # x e^-x), the heights, whose offset moves at +-eps/2 = offset * eps /
    # (1 + tau), and the cap fractions, at their rate in v = h/r
    x_star = r_star / sigma
    d_radii = np.concatenate(
        [np.linspace(-eps / 2.0, x_star, n_r), np.linspace(eps / 2.0, x_star, n_R)]
    )
    d_cdf = x * fall * ((d_radii - x) / sigma)
    d_heights = (1.0 - tau) * (d_radii + offset * (eps / (1.0 + tau)))
    d_heights -= eps * (radii + offset)
    d_frac = rate * ((d_heights - (heights / radii) * d_radii) / radii)
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


def _gamma_2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(2, x), e^-x): Q(2, x) = e^-x (1 + x), and P = 1 - Q within 2^-52 absolute."""
    fall = np.exp(-x)
    return -np.expm1(-x) - x * fall, fall


def _arc_fraction(r: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The share of a circle of radius r cut off by a cap of height h, and its rate in v = h/r.

    On the circle cap_fraction(2, r, h) is (2/pi) arcsin sqrt(h/(2r)) =
    acos(1 - v)/pi, v = h/r in [0, 2], whose derivative in v is 1/(pi
    sqrt(v (2 - v))).  It is taken on the shorter of the cap and its
    complement, v = min(h, 2r - h)/r in [0, 1] (2r - h is exact where h >
    r), with 1 minus it for the taller cap, so neither end loses bits;
    and as atan2(sqrt(v (2 - v)), 1 - v)/pi, which keeps its relative
    accuracy at small v and is exactly 0, 1/2 and 1 at h = 0, r and 2r.
    The rate shares that square root; it is taken as 0 at an empty cap
    or the whole circle, the heights a grid keeps there at every sigma.
    Unchecked: 0 <= h <= 2r and r > 0.
    """
    v = np.minimum(h, 2.0 * r - h) / r
    z = v * (2.0 - v)
    root = np.sqrt(z)
    short = np.arctan2(root, 1.0 - v) / math.pi
    rate = np.divide(1.0 / math.pi, root, out=np.zeros_like(z), where=z > 0.0)
    return np.where(h <= r, short, 1.0 - short), rate


# ---------------------------------------------------------------------------
# d >= 3: the hockey-stick in prolate spheroidal coordinates

# unit roundoff of float64
_U = 2.0**-53
# below this sigma the prolate bounds say nothing: their rounding margin,
# at least 8 _U / sigma nats, is over 10^14 nats, and below about 1e-155
# their windows' logs and curvatures leave the float range
_PROLATE_FLOOR = 2.0**-100
# how far, in nats, each window's log-weight falls from its peak by the
# window's edge; beyond it only a tangent tail bound is charged
_DROP = 20.0
_NEWTON_STEPS = 8
# the rounding margin in units of _U per nat of log magnitude summed
_MARGIN_ULPS = 16.0
# a bound on how many times the rounding margin of a grid nested four to
# a cell in another exceeds the other's (_probe_checks)
_NESTED_MARGIN_GROWTH = 32.0
_LOG_2 = math.log(2.0)
_HALF_LOG_PI = 0.5 * math.log(math.pi)


class ProlateBounds(NamedTuple):
    """(lower, upper) pairs for lhs, T1 = P0[L >= eps] and T2 = P1[L >= eps].

    slope estimates d lhs / d sigma (uncertified) and r_star is the
    radius of the ball around the noise center that holds the mu-window.
    direct is the direct bound on lhs alone, before lhs's upper bound
    takes the smaller of it and the other two, and margin the rounding
    margin M both directions of every bound carry.
    """

    lhs: tuple[float, float]
    term1: tuple[float, float]
    term2: tuple[float, float]
    slope: float
    r_star: float
    direct: float
    margin: float


def _one_minus_product(a: float, b: float) -> float:
    """1 - a * b to a few ulps relative, even where a * b is close to 1.

    Dekker's two-product gives the rounding error e of p = fl(a b)
    exactly; 1 - p is exact for p in [1/2, 2] (Sterbenz), so the only
    rounding left is that of subtracting e.
    """
    p, err = _two_product(a, b)
    if p < 0.5:
        return 1.0 - p
    out = (1.0 - p) - err
    return out if math.isfinite(out) else 1.0 - p


def _loss_cap_bound(w: float, sigma: float) -> tuple[float, float]:
    """1 - e^(eps - 1/sigma), rounded up but at most 1, and its sigma-derivative.

    w = 1 - eps sigma > 0.  The loss never exceeds 1/sigma, so this
    bounds lhs at every dim, and so does T1 <= 1; 1/sigma - eps is taken
    as w / sigma, without cancelling.  The derivative is 0 where e^(-w /
    sigma) underflows, which it does wherever sigma^2 does (a positive w
    is above 1e-32).
    """
    gap = w / sigma
    fall = math.exp(-gap)
    slope = -fall / (sigma * sigma) if fall else 0.0
    return min(-math.expm1(-gap) * (1.0 + 8.0 * _U), 1.0), slope


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


def _edges(lo, hi, n: int) -> np.ndarray:
    """n uniform cells from lo to hi: n + 1 edges, the last exactly hi.

    lo and hi are numbers, or (rows, 1) columns for one grid per row.
    """
    x = lo + (hi - lo) * _fractions(n)
    x[..., -1:] = hi
    return x


@functools.lru_cache(maxsize=16)
def _fractions(n: int) -> np.ndarray:
    """i / n for i = 0 .. n, read-only: _edges' shared steps, made once per n."""
    out = np.arange(n + 1) / n
    out.flags.writeable = False
    return out


def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z, 1 at z = 0: the integral of e^(z y) over y in [0, 1]."""
    out = np.expm1(z)
    out /= z
    out[z == 0.0] = 1.0
    return out


def _cell_sums(logf, slope, size, grids):
    """Bounds on the integrals of e^logf along every row of every grid, in one pass.

    logf, slope and size are given at the edges, each in a flat array
    that holds every grid's rows end to end, grid after grid, and one
    spare element after them.  grids gives each grid's (rows, h, tail,
    unbounded): h is a (members, n) array of cell widths, one line per
    member, and the grid holds rows blocks of one row of n + 1 edges per
    member, on that member's cells.  Returns (shift, sums, magnitudes):
    for each row, grid after grid, its integral lies between e^shift
    times sums[1] and e^shift times sums[0]; magnitudes has one array
    per grid, with one entry per member.

    A cell's upper bound is the smaller of the integrals of e^(tangent)
    at its two edges, its lower bound the integral of e^(chord); both
    read only logf and slope at the edges.  An edge where logf is -inf
    (an end of the range where the integrand vanishes) offers no tangent
    and makes the chord 0.  tail is None or (end, lengths) for a bounded
    part of the range beyond the first (end 0) or last (end -1) edge:
    lengths is one number, or one per member, 0 where a member has none.
    unbounded says the range runs on past the last edge to infinity.
    The tangent at an end's edge bounds the tail beyond it from above,
    and it adds nothing below.
    size bounds, edge by edge, the sum of the magnitudes of the terms
    each log is computed from; a member's magnitude adds |slope| times
    the length its grid spans and is the largest over its rows' finite
    edges, the size of the logs on which the rounding margin rests.
    Interior edges are finite; only the first and last can be singular.

    Every cell of every row is evaluated in the same few array passes,
    and each row's sums read its own cells alone, so a row's bounds do
    not depend on the other rows in the arrays.  The flat layout also
    pairs each row's last edge with the next row's first; that cell is
    never read, and its width holds the member's bounded tail length,
    so a member's span is the largest of its n + 1 widths.  The three envelopes are not
    stacked into one array: at 1000 cells it would pass glibc's 128 KiB
    mmap threshold, above which every call faults in fresh pages.  Runs
    under the caller's np.errstate, which lets inf and nan arise.
    """
    f = np.empty_like(logf)
    f[-1] = 0.0
    h = np.empty(logf.size - 1)
    shift = np.empty(sum(rows * width.shape[0] for rows, width, *_ in grids))
    views, start, first = [], 0, 0
    for rows, width, tail, _ in grids:
        members, n = width.shape
        count = rows * members
        edges, row = slice(start, start + count * (n + 1)), slice(first, first + count)
        part = logf[edges].reshape(count, n + 1)
        part.max(axis=1, out=shift[row])
        np.subtract(part, shift[row, None], out=f[edges].reshape(count, n + 1))
        cell = h[edges].reshape(rows, members, n + 1)
        cell[..., :n], cell[..., n] = width, 0.0 if tail is None else tail[1]
        views.append((edges, row, cell[0].max(axis=1)))
        start, first = edges.stop, row.stop
    np.exp(f, out=f)
    fa, fb = f[:-1], f[1:]
    # each cell's upper bound: the smaller integral of the tangents at its
    # left and right edge
    upper = _expm1_ratio(slope[:-1] * h)
    upper *= fa
    right = _expm1_ratio(slope[1:] * -h)
    right *= fb
    np.fmin(upper, right, out=upper)
    upper *= h
    # and its lower bound, the integral of the chord
    chord = np.subtract(logf[:-1], logf[1:], out=right)
    np.abs(chord, out=chord)
    np.negative(chord, out=chord)
    lower = _expm1_ratio(chord)
    lower *= np.maximum(fa, fb, out=chord)
    lower *= h
    # each edge's size plus |slope| times its member's span, in the same
    # buffer, which keeps the call's peak memory down
    q = np.abs(slope[:-1], out=chord)
    sums = np.empty((2, shift.size))
    # each grid's part of q, as a view: its magnitudes are read once q is
    # complete
    parts = []
    for (rows, width, tail, unbounded), (edges, row, span) in zip(grids, views):
        members, n = width.shape
        count = rows * members
        for cells, out in ((upper, sums[0, row]), (lower, sums[1, row])):
            cells[edges].reshape(count, n + 1)[:, :n].sum(axis=1, out=out)
        upper_sums = sums[0, row].reshape(rows, members)
        f_rows = f[edges].reshape(rows, members, n + 1)
        s_rows = slope[edges].reshape(rows, members, n + 1)
        if tail is not None:
            i, length = tail
            # -s * length, s the tangent's fall away from the grid
            z = s_rows[..., i] * (-length if i == 0 else length)
            bound = f_rows[..., i] * length
            bound *= _expm1_ratio(z)
            # a member without this tail adds nothing: its edge may be an
            # end of the range, where the tail reads nan
            np.add(upper_sums, bound, out=upper_sums, where=length > 0.0)
        if unbounded:
            s = -s_rows[..., -1]
            upper_sums += np.where(s > 0.0, f_rows[..., -1] / s, np.inf)
        part = q[edges].reshape(rows, members, n + 1)
        part *= span[:, None]
        parts.append(part)
    q += size[:-1]
    # q is infinite exactly where logf or slope is not finite, at an end
    # of a range, and such an edge has no magnitude
    q[np.isinf(q)] = 0.0
    return shift, sums, [part.max(axis=(0, 2)) for part in parts]


# the factors of a t in e^(-2 a t) - 1 and e^(2 a t) - 1 (_nu_rows)
_MINUS_PLUS_TWO = np.array([-2.0, 2.0])


def _prolate_bounds(
    dim: int, sigma: float, eps: float, n_nu: int, n_mu: int
) -> ProlateBounds:
    """_prolate_batch for the one row (dim, sigma)."""
    return _prolate_batch((dim,), (sigma,), eps, n_nu, n_mu)[0]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _prolate_batch(dims, sigmas, eps: float, n_nu: int, n_mu: int) -> list[ProlateBounds]:
    """Two-sided bounds on lhs, T1 and T2 for each row (dim, sigma), dim >= 3, by the prolate form.

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
    coordinate.  The rows share eps and the cell counts.  Each row's
    window, j = k and k + 1, a, tau and w are (rows, 1) columns that
    broadcast against the rows' edges, (rows, n + 1) arrays (numbers and
    n + 1 edges for a batch of one), so each row's six nu rows (lhs, T1 and T2 at j = k, k + 1; _nu_rows) and two
    mu rows (_mu_rows) lie end to end with every other row's in flat
    arrays, and _cell_sums bounds them all in a single pass.  The
    windows' Newton steps, the lgamma terms of log C and the slope's
    logs stay scalar, one row at a time.  A row's bounds are the same
    bits in every batch it is part of.  nu is carried as its distance t
    from tau and its distance w - t from 1, w = 1 - eps sigma to a few
    ulps (_one_minus_product), so neither end cancels.  Every summand
    is a nonnegative exp of a computed log: the margin e^(+-M), M =
    _MARGIN_ULPS * u * (the magnitudes of the logs summed, plus the
    ulps of the pairwise sums), moves uppers up and lowers down past
    float rounding.  Requires eps sigma < 1 exactly (w > 0).  slope is
    lhs's upper bound times d log lhs / d sigma = -(N_{k+1} / S) e^(eps/2)
    (1 - tau^2)^(k+1) / (2 sigma^2 (k + 1)), S = N_{k+1} G_k + N_k
    G_{k+1} (module docstring), from the same sums, or the loss cap
    bound's derivative where that bound beats the grid; it steers and
    certifies nothing.
    """
    table, dim_3, nu_tail, mu_tail = [], [], False, False
    for i, (dim, sigma) in enumerate(zip(dims, sigmas)):
        w = _one_minus_product(eps, sigma)
        k, a, tau = 0.5 * (dim - 3), 0.5 / sigma, eps * sigma
        t_hi, m_lo, m_hi = _prolate_windows(dim, sigma, eps, w)
        terms = (
            math.lgamma(0.5 * dim),
            -math.lgamma(0.5 * (dim - 1)),
            -_HALF_LOG_PI,
            -dim * _LOG_2,
            -math.lgamma(dim),
            -dim * math.log(sigma),
        )
        # by column: 0 k, 1 k + 1, 2 a, 3 2a, 4 -a, 5 w, 6 tau, 7 1 + tau,
        # 8 t_hi, 9 the nu tail's length, 10 m_lo, 11 m_hi, 12 log C and
        # 13 the size of its terms
        table.append(
            (k, k + 1.0, a, 2.0 * a, -a, w, tau, 1.0 + tau, t_hi, w - t_hi, m_lo, m_hi)
            + (sum(terms), sum(map(abs, terms)))
        )
        if k == 0.0:
            dim_3.append(i)
        nu_tail, mu_tail = nu_tail or t_hi < w, mu_tail or m_lo > 0.0
    count = len(table)
    # the rows' numbers by row, and as (rows, 1) columns that broadcast
    # against their (rows, n + 1) edges, j = k and k + 1 as (2, rows, 1);
    # a batch of one keeps its numbers as numbers and its edges 1-D, which
    # numpy broadcasts the same way at less cost
    if count == 1:
        by_row = cols = table[0]
        j = np.array(cols[:2])[:, None]
    else:
        by_row = np.array(table).T
        cols = by_row[:, :, None]
        j = cols[:2]
    t = _edges(0.0, cols[8], n_nu)
    m = _edges(cols[10], cols[11], n_mu)
    # logf, slope and size at the edges: the six nu rows, each of n_nu + 1
    # edges per batch row, then the two mu rows of n_mu + 1, and
    # _cell_sums' spare element
    split = 6 * t.size
    flat = [np.empty(split + 2 * m.size + 1) for _ in range(3)]
    for x in flat:
        x[-1] = 0.0
    _nu_rows([x[:split].reshape((3, 2) + t.shape) for x in flat], t, j, cols[2:8], eps, dim_3)
    _mu_rows([x[split:-1].reshape((2,) + m.shape) for x in flat], m, j, cols[2], dim_3)
    h_nu, h_mu = t[..., 1:] - t[..., :-1], m[..., 1:] - m[..., :-1]
    grids = (
        (6, h_nu.reshape(count, -1), (-1, by_row[9]) if nu_tail else None, False),
        (2, h_mu.reshape(count, -1), (0, by_row[10]) if mu_tail else None, True),
    )
    shift, sums, (magnitude_nu, magnitude_mu) = _cell_sums(*flat, grids)
    # numpy's pairwise sums err by at most about 20 + log2(n) ulps each
    ulps = 48.0 + math.log2(n_nu) + math.log2(n_mu)
    log_c, term_size = by_row[12], by_row[13]
    sizes = term_size + magnitude_nu
    sizes += magnitude_mu
    margin = _MARGIN_ULPS * _U * (ulps + sizes)
    # axis 0: upper, lower; then the nu rows' G by (lhs, T1, T2), j = k,
    # k + 1 and row, and the mu rows' N by j and row
    logs = np.log(sums)
    logs += shift
    log_g_int = logs[:, : 6 * count].reshape(2, 3, 2, count)
    log_n_int = logs[:, 6 * count :].reshape(2, 2, count)
    # log C N_{k+1} G_k and log C N_k G_{k+1}
    pair = (log_c + log_n_int[:, None, ::-1]) + log_g_int
    both = np.logaddexp(pair[:, :, 0], pair[:, :, 1])
    both[0] += margin
    both[1] -= margin
    # by bound, then (lhs, T1, T2) or j, then row
    uppers, lowers = np.exp(both).tolist()
    g_logs, n_logs = log_g_int[:, 0].tolist(), log_n_int.tolist()
    out = []
    for i, (row, sigma, row_margin) in enumerate(zip(table, sigmas, margin.tolist())):
        k, w, tau, m_hi = row[0], row[5], row[6], row[11]
        direct, t1_up, t2_up = uppers[0][i], uppers[1][i], uppers[2][i]
        lhs_low, t1_low, t2_low = lowers[0][i], lowers[1][i], lowers[2][i]
        t1_up = min(t1_up, 1.0)
        # where the loss cap bound beats the grid, the grid did not
        # resolve the integrands and its slope is that bound's
        trivial, slope = _loss_cap_bound(w, sigma)
        alternative = t1_up - _exp_eps(eps) * t2_low + 4.0 * _U * t1_up
        lhs_up = min(direct, alternative, trivial, 1.0)
        if not trivial <= direct:
            # the closed form of d log lhs / d sigma, its share N_{k+1} /
            # S from the lhs rows' G and the mu rows' N
            (gk_up, gk1_up), (gk_low, gk1_low) = g_logs
            (nk_up, nk1_up), (nk_low, nk1_low) = n_logs
            g_k, g_k1 = _halfway(gk_up[i], gk_low[i]), _halfway(gk1_up[i], gk1_low[i])
            n_k, n_k1 = _halfway(nk_up[i], nk_low[i]), _halfway(nk1_up[i], nk1_low[i])
            log_share = -np.logaddexp(g_k, n_k - n_k1 + g_k1)
            rate = log_share + 0.5 * eps + (k + 1.0) * (math.log(w) + math.log1p(tau))
            slope = -lhs_up * math.exp(rate - math.log(2.0 * sigma * sigma * (k + 1.0)))
        out.append(
            ProlateBounds(
                (min(lhs_low, lhs_up), lhs_up),
                (min(t1_low, t1_up), t1_up),
                (t2_low, min(t2_up, 1.0)),
                slope,
                0.5 * (m_hi + 2.0),
                direct,
                row_margin,
            )
        )
    return out


def _halfway(up: float, low: float) -> float:
    # a log-sum read halfway between its bounds, or at the upper where the
    # lower is 0
    return up if low == -math.inf else 0.5 * (up + low)


def _nu_rows(rows, t, j, cols, eps, dim_3):
    """Write the six nu rows' logf, slope and size at every batch row's edges t into rows.

    rows is three (3, 2) + t.shape views, by g = 1 - e^(eps - nu/sigma),
    1 and e^(-nu/sigma) (lhs, T1 and T2) and by j = k, k + 1; t is
    (batch rows, n + 1), or n + 1 edges for a batch of one, j holds k
    and k + 1 and cols a, 2a, -a, w, tau and 1 + tau, each as columns
    that broadcast against t (_prolate_batch), and dim_3 lists the batch
    rows at dim = 3 (k = 0).  The log of each integrand is log g + eps/2 + a
    t + j log(1 - nu^2), with nu = tau + t and 1 - nu^2 = (w - t)(1 +
    tau + t).  Its temporaries end with the call, which keeps
    _prolate_batch's peak memory down.  Runs under the caller's
    np.errstate.
    """
    log_nu, d_nu, size_nu = rows
    a, two_a, minus_a, w, tau, one_tau = cols
    half = 0.5 * eps
    gap = w - t
    at = a * t
    # log(1 - e^(-2 a t)) + eps/2 + a t, eps/2 + a t and -eps/2 - a t, and
    # their t-slopes
    grow = np.expm1(np.multiply.outer(_MINUS_PLUS_TWO, at))
    base = np.empty((3,) + t.shape)
    np.add(at, half, out=base[1])
    np.negative(base[1], out=base[2])
    np.negative(grow[0], out=base[0])
    np.log(base[0], out=base[0])
    base[0] += base[1]
    d_base = np.empty((3,) + t.shape)
    np.divide(two_a, grow[1], out=d_base[0])
    d_base[0] += a
    d_base[1], d_base[2] = a, minus_a
    # j times log(1 - nu^2), its t-slope, and the ulps 1 - nu^2 = w - t
    # loses to the rounding of w, per its size; exactly 0 at j = 0
    weights = np.empty((3, 1) + t.shape)
    np.log(gap, out=weights[0, 0])
    weights[0, 0] += np.log1p(tau + t)
    np.divide(1.0, one_tau + t, out=weights[1, 0])
    weights[1, 0] -= 1.0 / gap
    np.divide(w, gap, out=weights[2, 0])
    weights = weights * j
    if dim_3:
        weights.reshape(3, 2, -1, t.shape[-1])[:, 0, dim_3] = 0.0
    np.add(base[:, None], weights[0], out=log_nu)
    np.add(d_base[:, None], weights[1], out=d_nu)
    # |base| + |eps/2 + a t| + |weight| + lost
    np.abs(base, out=base)
    base += base[1]
    np.abs(weights[0], out=weights[0])
    np.add(base[:, None], weights[0], out=size_nu)
    size_nu += weights[2]


def _mu_rows(rows, m, j, a, dim_3):
    """Write the two mu rows' logf, slope and size at every batch row's m = mu - 1 into rows.

    rows is three (2,) + m.shape views, by j = k, k + 1, of the log of
    e^(-a mu) (mu^2 - 1)^j, with mu^2 - 1 = m (m + 2); m, j, a and dim_3
    are laid out as _nu_rows' t, j, a and dim_3.  Runs under the
    caller's np.errstate.
    """
    log_mu, d_mu, size_mu = rows
    m_2 = m + 2.0
    # j times log(mu^2 - 1) and its slope; exactly 0 at j = 0
    weights = np.empty((2, 1) + m.shape)
    np.log(m, out=weights[0, 0])
    weights[0, 0] += np.log(m_2)
    np.divide(1.0, m, out=weights[1, 0])
    weights[1, 0] += 1.0 / m_2
    weights = weights * j
    if dim_3:
        weights.reshape(2, 2, -1, m.shape[-1])[:, 0, dim_3] = 0.0
    fall = a * (1.0 + m)
    np.subtract(weights[0], fall, out=log_mu)
    np.subtract(weights[1], a, out=d_mu)
    np.abs(weights[0], out=weights[0])
    np.add(fall, weights[0], out=size_mu)
    size_mu += 2.0 * j


def check_approx_dp(
    dim: int,
    sigma: float,
    eps_delta: PrivacyParams,
    n_r: int = 1000,
    n_R: int = 1000,
) -> BoundReport:
    """Certified check that sigma gives (epsilon, delta)-DP in dim dims.

    At dim >= 3 the 1-D prolate form bounds lhs on n_r nu-cells and n_R
    mu-cells (see _prolate_bounds); it needs no outer radius, and below
    sigma = 2^-100, where its bounds say nothing, 1 - e^(epsilon -
    1/sigma) alone bounds lhs.  At dim = 2 the outer radius r_star =
    sigma * x_star is set so the radial mass beyond it is _TAIL_FRACTION
    * delta (one percent of the privacy budget; see _x_star), then both
    Riemann bounds are evaluated on [first radius, r_star] grids,
    together in one pass of closed forms that also gives that tail mass
    (see _riemann_stieltjes); where r_star does not exceed both first
    radii, 1 - e^(epsilon - 1/sigma) alone bounds lhs.  No iterative
    kernel runs.  satisfies_dp=True is a proof up to float arithmetic;
    False only means these grids could not certify the pair.
    """
    require(
        dimension("dim", dim),
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
    elif dim == 2 or sigma < _PROLATE_FLOOR:
        # the loss cap bound, with T1 <= 1 and T2 >= 0, unless the radial
        # sums beat it at d = 2; they run only where both grids can start
        # below r_star, and not where eps * sigma < 1 rounds to 1 or above
        branch, t1, t2 = BRANCH_GENERAL, 1.0, 0.0
        lhs, slope = _loss_cap_bound(w, sigma)
        tau = epsilon * sigma
        outer = sigma * _x_star(delta) if dim == 2 and tau < 1.0 else 0.0
        if outer > (1.0 + tau) / 2.0:
            r_star = outer
            t1, t2, radial_slope = _riemann_stieltjes(sigma, epsilon, r_star, n_r, n_R)
            radial = t1 - _exp_eps(epsilon) * t2
            if radial < lhs:
                lhs, slope = radial, radial_slope
    else:
        return _prolate_report(
            _prolate_bounds(dim, sigma, epsilon, n_r, n_R), delta, n_r, n_R
        )
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


def _prolate_report(bounds: ProlateBounds, delta: float, n_r: int, n_R: int):
    """The d >= 3 report of the grids of n_r nu-cells and n_R mu-cells."""
    lhs = bounds.lhs[1]
    return BoundReport(
        term1_upper=bounds.term1[1],
        term2_lower=bounds.term2[0],
        lhs_upper=lhs,
        satisfies_dp=bool(lhs <= delta),
        n_r=n_r,
        n_R=n_R,
        r_star=bounds.r_star,
        branch=BRANCH_GENERAL,
        lhs_slope=bounds.slope,
    )


def _probe_check(dim, sigma, eps_delta, n_r, n_R) -> BoundReport:
    """_probe_checks for the one probe (dim, sigma)."""
    return _probe_checks((dim,), (sigma,), eps_delta, n_r, n_R)[0]


def _probe_checks(dims, sigmas, eps_delta, n_r, n_R) -> list[BoundReport]:
    """_check for each (dim, sigma) of a round of probes, on the quarter grid where it decides.

    The probes share eps_delta and the grid sizes: one calibrate_l2
    probe (_probe_check), or one per running search of
    comparison_table's wavefront.  At dim >= 3, eps sigma < 1 exactly,
    sigma >= _PROLATE_FLOOR and grid sizes that are multiples of 4 (8 or
    more), a probe first bounds lhs
    on n_r/4 nu-cells and n_R/4 mu-cells.  Every edge of that quarter
    grid is an edge of the full one (_edges rounds i/(n/4) and 4i/n, one
    rational, to one float), so the full grid's verdict can be read off
    it:

    - fail: its lower bound exceeds delta.  Then so does lhs, and every
      upper bound on lhs, the full grid's included.
    - pass: its direct bound D is at most delta e^(-2 F M), M its
      rounding margin and F = _NESTED_MARGIN_GROWTH.  A finer nested
      partition only lowers a tangent envelope's integral, so the full
      grid's exact direct sum is at most the quarter grid's, itself at
      most D.  The full grid's computed log-sum lies within its margin
      M_full of the exact one and adds M_full, so its direct bound, and
      the lhs_upper below it, is at most D e^(2 M_full): at most delta
      where M_full <= F M.

    Either verdict is sound by the quarter grid's own bounds; F only
    makes a quarter-grid pass a full-grid pass too, so that the sigma
    calibrate_l2 returns is one check_approx_dp certifies.  M_full <= F M
    because M is a fixed multiple of the pairwise-sum allowance (4 more
    over the 48 both start from) plus, per coordinate, the largest edge
    magnitude Q (size plus |slope| times span, and span does not grow).
    Each summand of size, and |slope|, is monotone in the coordinate or
    the absolute value of a monotone term, so at a full-grid edge
    between two finite quarter-grid edges each is at most its larger
    value at the two: at most 2 Q.  Next to an end where a row's log is
    -inf (t = 0 in the g rows, 1 - nu^2 = 0 or m = 0 at j > 0) the full
    grid's edges lie at least a quarter of the cell from that end.
    There each 1/x-like slope term (j/m, j/(w - t), and a coth(a t), as
    x coth x increases) is at most 4 times its value at the cell's
    finite edge, each log is larger by at most log 16 per unit of j,
    which the j-terms of size (2j, j w/(w - t) >= j) bound, and a slope
    term that may cancel against them is bounded by a row or edge that
    stays finite (|x| <= max(|a + x|, |-a + x|)): summed, under 20 Q,
    the most at 1 - nu^2 = 0.  F = 32 also covers the sums' 4 and the
    edges' rounding.  Measured, M_full / M is at most 3.8 (7500 random
    draws up to dim = 10^7); the room F leaves gives up only probes
    within about 64 M of delta (under 1e-5 relative at dim = 10^6).

    Every probe the quarter grid can take is bounded there in one
    _prolate_batch call.  A decided probe returns the quarter grid's
    report, which names that grid in n_r and n_R and steers the search's
    next step by its own lhs_upper and lhs_slope; every other probe
    returns _check on the full grid, a batch of one.
    """
    eps, delta = float(eps_delta.epsilon), float(eps_delta.delta)
    n_nu, n_mu = n_r // 4, n_R // 4
    nested = n_r == 4 * n_nu and n_R == 4 * n_mu and min(n_nu, n_mu) >= 2
    sigmas = [float(sigma) for sigma in sigmas]
    quarter = [
        i
        for i, (dim, sigma) in enumerate(zip(dims, sigmas))
        if nested
        and dim >= 3
        and _one_minus_product(eps, sigma) > 0.0
        and sigma >= _PROLATE_FLOOR
    ]
    reports = [None] * len(sigmas)
    if quarter:
        batch = _prolate_batch(
            [dims[i] for i in quarter], [sigmas[i] for i in quarter], eps, n_nu, n_mu
        )
        for i, bounds in zip(quarter, batch):
            room = math.exp(-2.0 * _NESTED_MARGIN_GROWTH * bounds.margin)
            if bounds.direct <= delta * room or bounds.lhs[0] > delta:
                reports[i] = _prolate_report(bounds, delta, n_nu, n_mu)
    return [
        _check(dim, sigma, eps_delta, n_r, n_R) if report is None else report
        for dim, sigma, report in zip(dims, sigmas, reports)
    ]
