"""Certified Riemann-sum bounds on the approximate-DP condition.

For the exp(-||y - center||_2 / sigma) mechanism with centers one unit
apart, the privacy loss at output y is (||y - e1|| - ||y||) / sigma and
the (epsilon, delta) guarantee holds iff

    P0[loss >= eps] - e^eps * P1[loss >= eps] <= delta,

where P0 / P1 put the noise at the two centers.  Both probabilities
decompose radially into spherical-cap masses, and check_approx_dp
bounds each by a left Riemann-Stieltjes sum over the radial CDF whose
direction of error is certified:

- term1 bounds P0[loss >= eps] from above.  The sphere mass between
  consecutive radii is weighted by the cap fraction at the left radius
  (cap fractions around the noise center shrink with radius, so this
  over-counts), and the ball below the first radius, (1 - tau)/2, lies
  inside the loss region and counts in full.
- term2 bounds P1[loss >= eps] from below.  Spheres around the shifted
  center below radius (1 + tau)/2 miss the region entirely, and the
  cap fraction grows with radius, so the left-endpoint weights
  under-count.

Both sums charge the mass beyond their last radius r_star the cap
fraction at r_star, so the check can only err toward "not certified",
never toward a false guarantee.

check_approx_dp picks r_star = sigma * x_star so that only a
_TAIL_FRACTION * delta sliver of radial mass lies beyond the grid: one
percent of the privacy budget, a constant, so (dim, sigma, epsilon,
delta, n_r, n_R) alone replay a check.  calibrate_l2 computes x_star, which
does not depend on sigma, once per calibration.  Both check the
(epsilon, delta) target, a PrivacyParams defined here, and the grid
sizes once, where they enter; no per-probe record re-checks them.  The
two radial grids go as one flat batch into one call of the whole-array gamma
kernel, which also gives the tail mass, and one cap_fraction call.  The
cap heights come from capgeom's one cap-height line, on the offset
array the slope reads too; only cap_fraction and its reg_inc_beta, the
benchmark's seams, re-check a probe's grid.  The same pass gives
lhs_slope, the exact sigma-derivative of those two sums, from the
arrays it already holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import instance, integer, positive, require, unless
from .capgeom import _cap_fraction_rate, _cap_heights, cap_fraction
from .specfun import ConvergenceError, _gamma_pq_vec, inv_reg_upper_gamma

__all__ = [
    "PrivacyParams",
    "BoundReport",
    "GridDomainError",
    "check_approx_dp",
]

BRANCH_LARGE_SIGMA = "large_sigma"
BRANCH_ONE_DIM = "one_dim"
BRANCH_GENERAL = "general"

# the share of delta left to the radial mass beyond r_star
_TAIL_FRACTION = 0.01


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) approximate-DP target; both strictly bounded."""

    epsilon: float
    delta: float

    def __post_init__(self):
        require(
            positive("epsilon", self.epsilon),
            unless(
                np.isfinite(self.delta) and 0.0 < self.delta < 1.0,
                "delta must lie strictly in (0, 1)",
            ),
        )


class GridDomainError(ValueError):
    """The working radius r_star fell at or below the first grid radius.

    Happens when sigma is so small that all but a sliver of the noise
    mass sits inside the innermost sphere of the loss region; the grid
    cannot resolve anything there, so rather than guessing we refuse.
    Callers probing tiny sigmas (calibration brackets) may treat this
    as "not certified".
    """


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one certified (epsilon, delta) check.

    lhs_upper = term1_upper - e^epsilon * term2_lower by construction,
    except in the "one_dim" branch, where lhs_upper is the same closed
    form taken without cancelling two terms near 1/2 (so it can differ
    from that difference by its rounding error); satisfies_dp compares
    it against delta.  branch records which case
    produced the numbers: "large_sigma" (eps * sigma >= 1, loss region
    empty, both terms 0), "one_dim" (closed forms), or "general"
    (Riemann grids).  A False verdict means "not certified", not
    "violates DP".  n_r and n_R are the two grid sizes and r_star their
    shared outer radius, set by the tail rule in every branch, though
    only the general branch builds the grids.  lhs_slope is
    d lhs_upper / d sigma of the general branch's sums, exact up to float
    rounding (None in the other branches).  It is not certified and is
    not evidence: calibrate_l2 takes one Newton step from this report
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
    dim: int, sigma: float, eps: float, r_star: float, n_r: int, n_R: int
) -> tuple[float, float, float]:
    """(term1_upper, term2_lower, lhs_slope) of both left Riemann-Stieltjes sums.

    The two terms differ only in the first radius, the grid size, the
    cap height function and whether the ball below the first radius
    counts in full (see the module docstring).  Their grids, n_r radii
    from (1 - tau)/2 and n_R from (1 + tau)/2, both up to r_star, go
    end to end into a single incomplete-gamma call and a single
    cap_fraction call, and the same gamma call gives the tail mass
    beyond r_star, Q(dim, r_star / sigma), that both sums charge.

    lhs_slope is the exact sigma-derivative of term1 - e^eps term2 as
    these sums compute them, from the same arrays: each sum is a dot
    product of CDF steps and cap fractions, so its derivative is the
    steps' derivatives dotted with the fractions plus the steps dotted
    with the fractions' derivatives.  A grid is the linspace of its
    first radius, which moves with tau, to r_star = sigma * x_star, so
    its radii move by the linspace of those two rates, and the tail
    mass Q(dim, x_star) does not move at all.
    """
    tau = eps * sigma
    r_first, big_r_first = (1.0 - tau) / 2.0, (1.0 + tau) / 2.0
    for first, center in ((r_first, ""), (big_r_first, " around the shifted center")):
        if r_star <= first:
            raise GridDomainError(
                f"r_star={r_star} is at or below the first grid radius "
                f"{first}{center}; the grid cannot resolve the loss region"
            )
    radii = np.concatenate(
        [np.linspace(r_first, r_star, n_r), np.linspace(big_r_first, r_star, n_R)]
    )
    offset = np.concatenate([np.full(n_r, big_r_first), np.full(n_R, -big_r_first)])
    heights = _cap_heights(tau, radii, offset)
    x = radii / sigma
    cdf, sf, iters, conv = _gamma_pq_vec(float(dim), x)
    if not conv:
        raise ConvergenceError(
            f"reg_lower_gamma did not converge within {iters} iterations"
        )
    frac = cap_fraction(dim, radii, heights)
    tail = float(sf[-1])
    # sigma-derivatives of the radii, the CDF at them, the heights, whose
    # offset moves at +-eps/2 = offset * eps / (1 + tau), and the cap
    # fractions
    x_star = r_star / sigma
    d_radii = np.concatenate(
        [np.linspace(-eps / 2.0, x_star, n_r), np.linspace(eps / 2.0, x_star, n_R)]
    )
    # the gamma density x^(dim-1) e^-x / Gamma(dim) in its direct log form:
    # it loses about dim * log(x) ulps, far below what a slope needs
    density = np.exp((dim - 1.0) * np.log(x) - x - math.lgamma(dim))
    d_cdf = density * ((d_radii - x) / sigma)
    d_heights = (1.0 - tau) * (d_radii + offset * (eps / (1.0 + tau)))
    d_heights -= eps * (radii + offset)
    rel = heights / radii
    d_frac = _cap_fraction_rate(dim, rel) * ((d_heights - rel * d_radii) / radii)
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


def check_approx_dp(
    dim: int,
    sigma: float,
    eps_delta: PrivacyParams,
    n_r: int = 1000,
    n_R: int = 1000,
) -> BoundReport:
    """Certified check that sigma gives (epsilon, delta)-DP in dim dims.

    The outer radius r_star = sigma * x_star is set so the radial mass
    beyond it is exactly _TAIL_FRACTION * delta (one percent of the
    privacy budget), then both Riemann bounds are evaluated on
    [first radius, r_star] grids, together in one pass of the kernels
    that also gives that tail mass (see _riemann_stieltjes).  A
    GridDomainError names the first grid, term1's then term2's, whose
    first radius r_star does not exceed.  calibrate_l2 runs the same
    check on one x_star per calibration.  satisfies_dp=True is a proof
    up to float arithmetic; False only means this grid could not
    certify the pair.
    """
    require(
        integer("dim", dim),
        positive("sigma", sigma),
        instance("eps_delta", eps_delta, PrivacyParams),
        integer("n_r", n_r, 2),
        integer("n_R", n_R, 2),
    )
    return _check(dim, sigma, eps_delta, n_r, n_R, _x_star(dim, eps_delta.delta))


def _x_star(dim: int, delta: float) -> float:
    """r_star / sigma = Q^-1(dim, _TAIL_FRACTION * delta), whatever sigma is."""
    return inv_reg_upper_gamma(float(dim), _TAIL_FRACTION * delta)


def _check(dim, sigma, eps_delta, n_r, n_R, x_star) -> BoundReport:
    """check_approx_dp on checked arguments and a precomputed x_star."""
    epsilon = float(eps_delta.epsilon)
    delta = float(eps_delta.delta)
    sigma = float(sigma)
    tau = epsilon * sigma
    r_star = sigma * x_star
    slope = None
    if tau >= 1.0:
        branch, t1, t2, lhs = BRANCH_LARGE_SIGMA, 0.0, 0.0, 0.0
    elif dim == 1:
        # the loss region is the half-line y <= (1 - tau)/2: both terms
        # are Laplace CDFs there, and their difference is
        # 1 - e^((eps - 1/sigma)/2), taken without the cancellation of
        # two terms near 1/2
        branch, lhs = BRANCH_ONE_DIM, -math.expm1(0.5 * (epsilon - 1.0 / sigma))
        t1 = 1.0 - 0.5 * math.exp(0.5 * (epsilon - 1.0 / sigma))
        t2 = 0.5 * math.exp(0.5 * (-epsilon - 1.0 / sigma))
    else:
        branch = BRANCH_GENERAL
        t1, t2, slope = _riemann_stieltjes(dim, sigma, epsilon, r_star, n_r, n_R)
        lhs = t1 - _exp_eps(epsilon) * t2
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
