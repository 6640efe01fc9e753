"""Certified Riemann-sum bounds on the approximate-DP condition.

For the exp(-||y - center||_2 / sigma) mechanism with centers one unit
apart, the privacy loss at output y is (||y - e1|| - ||y||) / sigma and
the (epsilon, delta) guarantee holds iff

    P0[loss >= eps] - e^eps * P1[loss >= eps] <= delta,

where P0 / P1 put the noise at the two centers.  Both probabilities
decompose radially into spherical-cap masses; term1_upper_bound and
term2_lower_bound evaluate left Riemann-Stieltjes sums over the radial
CDF whose direction of error is certified (upper for the first term,
lower for the second), so the check can only err toward "not certified",
never toward a false guarantee.

check_approx_dp picks the working radius r_star = sigma * x_star so
that only a tail_fraction * delta sliver of radial mass lies beyond the
grid, and bounds that tail by the same cap-fraction logic; calibrate_l2
computes x_star, which does not depend on sigma, once per calibration.
A check evaluates both terms in one kernel pass: the two radial grids
go as two rows into one incomplete-gamma call, which also gives the
tail mass, and one cap_fraction call, and each sum comes out bit for
bit as term1_upper_bound or term2_lower_bound computes it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._checks import integer, positive, require, unless
from .capgeom import LossGeometry, cap_fraction, height_H, height_h
from .specfun import _gamma_pq, _unwrap, inv_reg_upper_gamma

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .calibrate import PrivacyParams

__all__ = [
    "GridSpec",
    "BoundReport",
    "GridDomainError",
    "term1_upper_bound",
    "term2_lower_bound",
    "check_approx_dp",
]

BRANCH_LARGE_SIGMA = "large_sigma"
BRANCH_ONE_DIM = "one_dim"
BRANCH_GENERAL = "general"


class GridDomainError(ValueError):
    """The working radius r_star fell at or below the first grid radius.

    Happens when sigma is so small that all but a sliver of the noise
    mass sits inside the innermost sphere of the loss region; the grid
    cannot resolve anything there, so rather than guessing we refuse.
    Callers probing tiny sigmas (calibration brackets) may treat this
    as "not certified".
    """


@dataclass(frozen=True)
class GridSpec:
    """Radial grid resolution for the two Riemann bounds.

    n_r / n_R are the grid sizes for the bound around the noise center
    and the shifted center; r_star is the outer radius shared by both
    (None until a check computes it from the tail rule).
    """

    n_r: int = 1000
    n_R: int = 1000
    r_star: float | None = None

    def __post_init__(self):
        require(
            integer("n_r", self.n_r, 2),
            integer("n_R", self.n_R, 2),
            unless(
                self.r_star is None or not positive("r_star", self.r_star),
                "r_star must be positive and finite when set",
            ),
        )


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one certified (epsilon, delta) check.

    lhs_upper = term1_upper - e^epsilon * term2_lower by construction;
    satisfies_dp compares it against delta.  branch records which case
    produced the numbers: "large_sigma" (eps * sigma >= 1, loss region
    empty, both terms 0), "one_dim" (closed forms), or "general"
    (Riemann grids).  A False verdict means "not certified", not
    "violates DP".
    """

    term1_upper: float
    term2_lower: float
    lhs_upper: float
    satisfies_dp: bool
    grid: GridSpec
    branch: str


def _validate_dse(dim, sigma, epsilon) -> None:
    require(integer("dim", dim), positive("sigma", sigma), positive("epsilon", epsilon))


def _exp_eps(epsilon: float) -> float:
    # e^epsilon weighting the subtracted hockey-stick term; capping the
    # exponent only lowers that term, which keeps an upper bound on the
    # left-hand side one while avoiding float overflow
    return math.exp(min(epsilon, 700.0))


def _riemann_stieltjes(
    geom: LossGeometry, grid: GridSpec, uppers: tuple[bool, ...]
) -> list[float]:
    """The left Riemann-Stieltjes sums of the terms in uppers, in one pass.

    True stands for term1's upper bound, False for term2's lower bound
    (see term1_upper_bound and term2_lower_bound).  The two differ only
    in the first radius, the grid size, the cap height function and
    whether the ball below the first radius counts in full.  Each term's
    grid is one row of a single incomplete-gamma call and a single
    cap_fraction call.  Every row ends at r_star, so the same gamma call
    gives the tail mass beyond it, Q(dim, r_star / sigma), for both.  A
    shorter row is padded with r_star, a repeat of its largest radius,
    which changes none of its values (see the specfun module), so every
    sum is bitwise the one a pass of its own would give.
    """
    if grid.r_star is None:
        raise ValueError("grid.r_star is required for the general branch")
    r_star, tau = grid.r_star, geom.tau
    terms = [
        ((1.0 - tau) / 2.0, grid.n_r, height_h, True)
        if upper
        else ((1.0 + tau) / 2.0, grid.n_R, height_H, False)
        for upper in uppers
    ]
    for r_first, _, _, upper in terms:
        if r_star <= r_first:
            center = "" if upper else " around the shifted center"
            raise GridDomainError(
                f"r_star={r_star} is at or below the first grid radius "
                f"{r_first}{center}; the grid cannot resolve the loss region"
            )
    dim, sigma = geom.dim, geom.sigma
    radii = np.full((len(terms), max(n for _, n, _, _ in terms)), r_star)
    heights = np.empty_like(radii)
    for k, (r_first, n, height, _) in enumerate(terms):
        radii[k, :n] = np.linspace(r_first, r_star, n)
        heights[k] = height(geom, radii[k])
    cdf, sf = _unwrap(_gamma_pq(float(dim), radii / sigma), "reg_lower_gamma")
    frac = cap_fraction(dim, radii, heights)
    tail = float(sf[0, -1])
    sums = []
    for c, f, (_, n, _, upper) in zip(cdf, frac, terms):
        c, f = c[:n], f[:n]
        below = c[0] if upper else 0.0
        total = below + float(np.dot(np.diff(c), f[:-1])) + tail * f[-1]
        sums.append(min(total, 1.0) if upper else max(total, 0.0))
    return sums


def term1_upper_bound(dim: int, sigma: float, epsilon: float, grid: GridSpec) -> float:
    """Upper bound on P0[loss >= eps], the first hockey-stick term.

    Left Riemann-Stieltjes sum over the radial CDF: the sphere mass
    between consecutive radii is weighted by the cap fraction at the
    left radius (cap fractions shrink with radius, so this over-counts),
    the ball below the first grid radius, (1 - tau)/2, is counted in
    full, and the mass beyond r_star is charged the cap fraction at
    r_star.
    """
    _validate_dse(dim, sigma, epsilon)
    tau = epsilon * sigma
    if tau >= 1.0:
        return 0.0
    if dim == 1:
        return 1.0 - 0.5 * math.exp(0.5 * (epsilon - 1.0 / sigma))
    return _riemann_stieltjes(LossGeometry(dim, sigma, epsilon), grid, (True,))[0]


def term2_lower_bound(dim: int, sigma: float, epsilon: float, grid: GridSpec) -> float:
    """Lower bound on P1[loss >= eps], the subtracted hockey-stick term.

    Same region as term1 but measured from the shifted center: spheres
    below radius (1 + tau)/2 miss the region entirely, and the cap
    fraction grows with radius, so weighting each mass increment by the
    left-endpoint fraction under-counts, as a lower bound must.
    """
    _validate_dse(dim, sigma, epsilon)
    tau = epsilon * sigma
    if tau >= 1.0:
        return 0.0
    if dim == 1:
        return 0.5 * math.exp(0.5 * (-epsilon - 1.0 / sigma))
    return _riemann_stieltjes(LossGeometry(dim, sigma, epsilon), grid, (False,))[0]


def check_approx_dp(
    dim: int,
    sigma: float,
    eps_delta: "PrivacyParams",
    n_r: int = 1000,
    n_R: int = 1000,
    tail_fraction: float = 0.01,
) -> BoundReport:
    """Certified check that sigma gives (epsilon, delta)-DP in dim dims.

    The outer radius r_star = sigma * x_star is set so the radial mass
    beyond it is exactly tail_fraction * delta (default: one percent of
    the privacy budget), then both Riemann bounds are evaluated on
    [first radius, r_star] grids, together in one pass of the kernels
    that also gives that tail mass (see _riemann_stieltjes); the values,
    and a GridDomainError from either grid, are those of
    term1_upper_bound then term2_lower_bound on the same GridSpec.
    calibrate_l2 runs the same check on one x_star per calibration.
    satisfies_dp=True is a proof up to float arithmetic; False only
    means this grid could not certify the pair.
    """
    _validate_dse(dim, sigma, eps_delta.epsilon)
    x_star = _x_star(dim, eps_delta.delta, tail_fraction)
    return _check(dim, sigma, eps_delta, n_r, n_R, x_star)


def _x_star(dim: int, delta: float, tail_fraction: float) -> float:
    """r_star / sigma = Q^-1(dim, tail_fraction * delta), whatever sigma is."""
    if not (np.isfinite(delta) and 0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (np.isfinite(tail_fraction) and 0.0 < tail_fraction * delta < 1.0):
        raise ValueError("tail_fraction * delta must lie in (0, 1)")
    return inv_reg_upper_gamma(float(dim), tail_fraction * delta)


def _check(dim, sigma, eps_delta, n_r, n_R, x_star) -> BoundReport:
    """check_approx_dp on checked arguments and a precomputed x_star."""
    epsilon = float(eps_delta.epsilon)
    delta = float(eps_delta.delta)
    sigma = float(sigma)
    tau = epsilon * sigma
    grid = GridSpec(n_r=n_r, n_R=n_R, r_star=sigma * x_star)
    if tau >= 1.0 or dim == 1:
        branch = BRANCH_LARGE_SIGMA if tau >= 1.0 else BRANCH_ONE_DIM
        t1 = term1_upper_bound(dim, sigma, epsilon, grid)
        t2 = term2_lower_bound(dim, sigma, epsilon, grid)
    else:
        branch = BRANCH_GENERAL
        geom = LossGeometry(dim, sigma, epsilon)
        t1, t2 = _riemann_stieltjes(geom, grid, (True, False))
    lhs = t1 - _exp_eps(epsilon) * t2
    return BoundReport(
        term1_upper=t1,
        term2_lower=t2,
        lhs_upper=lhs,
        satisfies_dp=bool(lhs <= delta),
        grid=grid,
        branch=branch,
    )
