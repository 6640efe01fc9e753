"""The d >= 3 certificate: the 1-D prolate form's cell bounds.

lossbounds._prolate_bounds bounds lhs, T1 = P0[L >= eps] and T2 = P1[L
>= eps] from below and above by tangent and chord envelopes of
log-concave integrands on a nu-grid and a mu-grid.  These tests check
its rounding margin against a 40-digit re-evaluation of the same sums,
its order and refinement properties on random draws, and the edges
where tau = eps sigma comes within ulps of 1.  The draws of the
monotone-verdict test start at d = 2, where the radial sums certify.
"""

import functools
import math
import warnings

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from l2mech import lossbounds
from l2mech.calibrate import PrivacyParams, calibrate_l2
from l2mech.lossbounds import BRANCH_GENERAL, check_approx_dp

CELLS = 1000
NAMES = ("lhs", "term1", "term2")


@functools.lru_cache(maxsize=None)
def _shipped(d, eps, delta):
    return calibrate_l2(d, PrivacyParams(eps, delta)).sigma


@pytest.mark.parametrize("delta", (1e-15, 0.5))
@pytest.mark.parametrize("d", (3, 10**4))
@pytest.mark.parametrize("eps", (1e-3, 10.0))
def test_rounding_margin_covers_a_40_digit_reevaluation(d, eps, delta):
    # the float bounds at the shipped sigma against the same cells, edges
    # and envelopes summed at 40 digits: every upper bound at or above its
    # re-evaluation, every lower bound at or below, and neither off by more
    # than 1e-8 relative, so the margin covers rounding and little else
    sigma = _shipped(d, eps, delta)
    w = lossbounds._one_minus_product(eps, sigma)
    if w <= 0.0:
        # the shipped sigma leaves no loss region (eps sigma >= 1 exactly):
        # the float below 1/eps leaves a sliver of width about 1e-16
        sigma = math.nextafter(1.0 / eps, 0.0)
        w = lossbounds._one_minus_product(eps, sigma)
    bounds = lossbounds._prolate_bounds(d, sigma, eps, CELLS, CELLS)
    t_hi, m_lo, m_hi = lossbounds._prolate_windows(d, sigma, eps, w)
    exact = oracles.prolate_cell_bounds(
        d,
        sigma,
        eps,
        lossbounds._edges(0.0, t_hi, CELLS),
        lossbounds._edges(m_lo, m_hi, CELLS),
        ends_at_one=t_hi == w,
    )
    for name in NAMES:
        (lower, upper), (lower_40, upper_40) = getattr(bounds, name), exact[name]
        assert upper >= upper_40, (name, upper, upper_40)
        assert lower <= lower_40, (name, lower, lower_40)
        assert upper <= upper_40 * (1 + 1e-8), (name, upper, upper_40)
        assert lower >= lower_40 * (1 - 1e-8), (name, lower, lower_40)


_DIMS = st.integers(3, 10**4)
_EPS = st.floats(-3.0, 2.0).map(lambda x: 10.0**x)


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(d=_DIMS, eps=_EPS, tau=st.floats(1e-4, 1.0 - 1e-9), n=st.integers(2, 2048))
def test_bounds_are_ordered_and_tighten_on_a_nested_grid(d, eps, tau, n):
    # lower <= upper for lhs, T1 and T2; doubling both cell counts adds a
    # midpoint to every cell, and neither an upper nor a lower envelope can
    # get worse on a finer nested grid, so lhs_upper, term1_upper and
    # term2_lower never loosen
    sigma = tau / eps
    coarse = lossbounds._prolate_bounds(d, sigma, eps, n, n)
    fine = lossbounds._prolate_bounds(d, sigma, eps, 2 * n, 2 * n)
    for bounds in (coarse, fine):
        for name in NAMES:
            lower, upper = getattr(bounds, name)
            assert 0.0 <= lower <= upper <= 1.0, (name, bounds)
    assert fine.lhs[1] <= coarse.lhs[1]
    assert fine.term1[1] <= coarse.term1[1]
    assert fine.term2[0] >= coarse.term2[0]


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 10**4),
    eps=_EPS,
    delta=st.floats(-15.0, -0.5).map(lambda x: 10.0**x),
    fractions=st.lists(st.floats(1e-3, 1.0, exclude_max=True), min_size=2, max_size=8),
)
def test_verdict_is_monotone_in_sigma(d, eps, delta, fractions):
    # along sorted sigmas in (0, 1/eps) the verdicts read False ... True:
    # the search's answer is the bisection's only where this holds.  d = 2
    # runs the radial sums, capped by the loss cap bound, which also
    # bounds tiny sigmas where no radial grid can start
    params = PrivacyParams(eps, delta)
    verdicts = [
        check_approx_dp(d, f / eps, params).satisfies_dp for f in sorted(fractions)
    ]
    assert verdicts == sorted(verdicts), verdicts


@pytest.mark.parametrize(
    "d,eps,delta",
    [(3, 0.7615865998232679, 1.9883624760253978e-10), (10, 1.0, 1e-300)],
)
def test_tau_within_ulps_of_one_stays_sound(d, eps, delta):
    # at 1/eps and the floats just below it, 1/sigma - eps rounds to 0 or
    # to a few ulps while tau < 1: the bound is carried by w = 1 - eps sigma
    # to a few ulps, emits no warning, and holds the exact lhs; the
    # calibration at the d = 10 target runs its probes within ulps of 1/eps
    sigma = 1.0 / eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(4):
            report = check_approx_dp(d, sigma, PrivacyParams(eps, delta))
            if eps * sigma < 1.0:
                assert report.branch == BRANCH_GENERAL
                assert math.isfinite(report.lhs_slope)
            assert math.isfinite(report.r_star)
            assert 1.0 > report.lhs_upper >= oracles.prolate_lhs(d, sigma, eps)
            sigma = math.nextafter(sigma, 0.0)
