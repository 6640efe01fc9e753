"""Certified bounds: reference equality at d = 2, truths at d >= 3, sandwiches, monotonicity."""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy import special

import l2mech.calibrate
import oracles
from l2mech.calibrate import PrivacyParams, calibrate_l2
from l2mech.capgeom import LossGeometry, height_H, height_h
from l2mech.lossbounds import (
    BRANCH_GENERAL,
    BRANCH_LARGE_SIGMA,
    BRANCH_ONE_DIM,
    BoundReport,
    _loss_cap_bound,
    _one_minus_product,
    _x_star,
    check_approx_dp,
)

# probe points for the reference comparison: the scipy radial sum at d = 2,
# the 1-D prolate truth at d >= 3
PROBES = [
    (2, 0.5, 1.0),
    (3, 0.2, 1.0),
    (7, 0.8, 1.0),
    (50, 0.4, 0.5),
    (100, 0.3, 2.0),
]


def test_entry_checks_reject_grids_and_targets_before_any_probe(monkeypatch):
    # the grid sizes and the (epsilon, delta) target are checked once, where
    # they enter, in every branch: d = 1 and the large-sigma case build no grid
    probes = []
    monkeypatch.setattr(l2mech.calibrate, "_probe_checks", lambda *args: probes.append(args))
    pp = PrivacyParams(1.0, 1e-5)
    rep = check_approx_dp(6, 0.3, pp)
    assert (rep.n_r, rep.n_R) == (1000, 1000) and rep.r_star > 0.3
    for dim, sigma in ((1, 0.5), (2, 2.0), (6, 0.3)):
        with pytest.raises(ValueError, match="n_r must be an integer >= 2"):
            check_approx_dp(dim, sigma, pp, n_r=1)
        with pytest.raises(ValueError, match="n_R must be an integer >= 2"):
            check_approx_dp(dim, sigma, pp, n_R=0)
        with pytest.raises(ValueError, match="n_r .*; n_R "):
            calibrate_l2(dim, pp, n_r=1, n_R=0)
    # a look-alike (epsilon, delta) object skips PrivacyParams' own checks
    duck = SimpleNamespace(epsilon=1.0, delta=1e-5)
    with pytest.raises(ValueError, match="eps_delta must be a PrivacyParams"):
        check_approx_dp(6, 0.3, duck)
    with pytest.raises(ValueError, match="params must be a PrivacyParams"):
        calibrate_l2(6, duck)
    assert probes == []


def test_one_dim_closed_forms():
    rep = check_approx_dp(1, 0.5, PrivacyParams(1.0, 1e-5))
    assert rep.branch == BRANCH_ONE_DIM
    t1, t2 = rep.term1_upper, rep.term2_lower
    assert abs(t1 - (1.0 - 0.5 * math.exp(-0.5))) < 1e-12
    assert abs(t2 - 0.5 * math.exp(-1.5)) < 1e-12
    assert abs(t1 - 0.696734670143683) < 1e-12
    assert abs(t2 - 0.111565080074215) < 1e-12


def test_large_sigma_terms_vanish():
    for d in [1, 2, 17]:
        rep = check_approx_dp(d, 1.2, PrivacyParams(1.0, 1e-5))
        assert rep.branch == BRANCH_LARGE_SIGMA
        assert rep.term1_upper == 0.0 and rep.term2_lower == 0.0


def test_product_that_rounds_to_one_is_not_the_large_sigma_branch():
    # eps * sigma is 1 - 3.1e-17 exactly but rounds to 1: the loss region
    # is not empty, and its lhs, about 7.8e-17 at d = 1, exceeds delta
    sigma, eps = 0.19980789021985085, 5.004807362210215
    assert eps * sigma >= 1.0 and Fraction(eps) * Fraction(sigma) < 1
    pp = PrivacyParams(eps, 1e-300)
    one = check_approx_dp(1, sigma, pp)
    with mpmath.workdps(40):
        gap = 1 / mpmath.mpf(sigma) - mpmath.mpf(eps)
        exact = float(-mpmath.expm1(-gap / 2))
        cap = float(-mpmath.expm1(-gap))
    assert one.branch == BRANCH_ONE_DIM and not one.satisfies_dp
    assert math.isclose(one.lhs_upper, exact, rel_tol=1e-13)
    # at d = 2 the radial grids cannot start, and 1 - e^(eps - 1/sigma)
    # bounds lhs: too loose for this delta, tight enough for a usual one
    two = check_approx_dp(2, sigma, pp)
    assert two.branch == BRANCH_GENERAL and not two.satisfies_dp
    assert (two.term1_upper, two.term2_lower) == (1.0, 0.0)
    assert cap <= two.lhs_upper <= cap * (1.0 + 1e-14)
    assert check_approx_dp(2, sigma, PrivacyParams(eps, 1e-15)).satisfies_dp


def test_check_branches_and_verdicts():
    pp_easy = PrivacyParams(1.0, 0.40)
    pp_hard = PrivacyParams(1.0, 0.30)
    rep = check_approx_dp(1, 0.5, pp_easy)
    assert rep.branch == BRANCH_ONE_DIM
    assert abs(rep.lhs_upper - 0.393469340287367) < 1e-12
    assert rep.satisfies_dp
    rep2 = check_approx_dp(1, 0.5, pp_hard)
    assert not rep2.satisfies_dp
    rep3 = check_approx_dp(6, 1.0 / 1.0 + 0.001, PrivacyParams(1.0, 1e-9))
    assert rep3.branch == BRANCH_LARGE_SIGMA
    assert rep3.lhs_upper == 0.0 and rep3.satisfies_dp
    rep4 = check_approx_dp(6, 0.3, PrivacyParams(1.0, 1e-5))
    assert rep4.branch == BRANCH_GENERAL
    assert isinstance(rep4, BoundReport)
    # at d >= 3 lhs_upper is the smaller of the direct prolate bound and
    # term1_upper - e^eps term2_lower, rounded up; both are sound
    rounding = 4.0 * 2.0**-53 * rep4.term1_upper
    assert rep4.lhs_upper <= rep4.term1_upper - math.e * rep4.term2_lower + rounding
    rep5 = check_approx_dp(2, 0.3, PrivacyParams(1.0, 1e-5))
    assert rep5.branch == BRANCH_GENERAL
    assert rep5.lhs_upper == rep5.term1_upper - math.e * rep5.term2_lower
    # only the general branch's sums carry a slope
    assert rep.lhs_slope is None and rep2.lhs_slope is None and rep3.lhs_slope is None
    assert isinstance(rep4.lhs_slope, float) and rep4.lhs_slope < 0.0


def test_terms_match_scipy_reference():
    # d = 2 certifies by the radial sum, which scipy re-computes; at d >= 3
    # each bound holds the prolate truth (T1 = P0[L >= eps], T2 = P1[L >=
    # eps]) on its side, within 5e-4 relative at the default 1000 cells
    for d, sigma, eps in PROBES:
        rep = check_approx_dp(d, sigma, PrivacyParams(eps, 1e-5))
        if d == 2:
            t1, t2, lhs = oracles.ref_check(d, sigma, eps, 1e-5)
            assert abs(rep.term1_upper - t1) < 1e-12, (d, sigma, eps)
            assert abs(rep.term2_lower - t2) < 1e-12, (d, sigma, eps)
            assert abs(rep.lhs_upper - lhs) < 1e-11, (d, sigma, eps)
            continue
        lhs, t1, t2 = oracles.prolate_lhs(d, sigma, eps, terms=True)
        assert t1 <= rep.term1_upper <= t1 * (1 + 5e-4), (d, sigma, eps)
        assert t2 * (1 - 5e-4) <= rep.term2_lower <= t2, (d, sigma, eps)
        assert lhs <= rep.lhs_upper <= lhs * (1 + 5e-4), (d, sigma, eps)


def test_terms_sandwich_monte_carlo():
    # upper bound above the true c1, lower bound below the true c2; the
    # MC sides carry 3 standard errors of slack, the grid side carries
    # the documented one-percent coarseness allowance
    n = 200000
    for d, sigma, eps in [(3, 0.2, 1.0), (2, 0.5, 1.0), (10, 0.05, 1.0)]:
        rep = check_approx_dp(d, sigma, PrivacyParams(eps, 1e-5))
        c1, se1, c2, se2 = oracles.mc_clouds(d, sigma, eps, n, seed=100 + d)
        assert rep.term1_upper >= c1 - 3.0 * se1, (d, "t1 below truth")
        assert rep.term1_upper <= c1 + 0.01 + 3.0 * se1, (d, "t1 too loose")
        assert rep.term2_lower <= c2 + 3.0 * se2, (d, "t2 above truth")
        assert rep.term2_lower >= c2 - 0.01 - 3.0 * se2, (d, "t2 too loose")


def test_grid_refinement_is_monotone():
    for d, sigma, eps in [(3, 0.2, 1.0), (5, 0.35, 1.0)]:
        t1s, t2s = [], []
        for n in [100, 1000, 10000]:
            rep = check_approx_dp(d, sigma, PrivacyParams(eps, 1e-5), n_r=n, n_R=n)
            t1s.append(rep.term1_upper)
            t2s.append(rep.term2_lower)
        assert t1s[0] >= t1s[1] >= t1s[2], t1s
        assert t2s[0] <= t2s[1] <= t2s[2], t2s
        assert t1s[2] >= t2s[2]


def _assert_loss_cap_report(rep, sigma, eps):
    # no radial grid ran: 1 - e^(eps - 1/sigma) bounds lhs alone, with
    # T1 <= 1 and T2 >= 0, and r_star reads 0.0
    assert rep.branch == BRANCH_GENERAL
    assert (rep.term1_upper, rep.term2_lower, rep.r_star) == (1.0, 0.0, 0.0)
    want = _loss_cap_bound(_one_minus_product(eps, sigma), sigma)
    assert (rep.lhs_upper, rep.lhs_slope) == want


def test_unresolvable_grid_reports_the_loss_cap():
    # at so small a sigma r_star, beyond which 1% of delta's radial mass
    # lies, falls inside the first grid radius
    rep = check_approx_dp(2, 0.05, PrivacyParams(1.0, 0.9))
    _assert_loss_cap_report(rep, 0.05, 1.0)
    assert not rep.satisfies_dp


@pytest.mark.parametrize("delta", (5e-324, 1e-300, 1e-15, 1e-5, 0.3, 0.9))
def test_d2_tail_radius_matches_40_digits(delta):
    # x_star = r_star / sigma solves Q(2, x) = e^-x (1 + x) = delta / 100
    # within 2 ulps, also where delta / 100 underflows, and a d = 2 check
    # at such a delta returns a report
    with mpmath.workdps(40):
        log_q = mpmath.log(mpmath.mpf(delta) / 100)
        exact = mpmath.findroot(lambda x: mpmath.log1p(x) - x - log_q, -log_q)
    got = _x_star(delta)
    assert abs(mpmath.mpf(got) - exact) <= 2 * math.ulp(got), (got, exact)
    rep = check_approx_dp(2, 0.5, PrivacyParams(1.0, delta))
    assert rep.branch == BRANCH_GENERAL and rep.r_star == 0.5 * got


# Frozen float.hex of (term1_upper, term2_lower, lhs_upper) for tau =
# eps * sigma in {0.05, 0.3, 0.7, 0.95} at four dimensions, on a square
# grid and on one with n_r != n_R: a change to the Riemann-Stieltjes sum
# (d = 2), the prolate cell bounds (d >= 3) or their kernels that moves a
# single bit shows here.
CHECK_HEX = [
    # d, sigma, eps, delta, n_r, n_R, then term1, term2, lhs
    (2, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.7e086fd06f8bep-1", "0x1.c56eb95e4bf59p-3", "0x1.00c0bab07346ep-1"),
    (2, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.8a4b976393950p-1", "0x1.c6b6f62483cc4p-3", "0x1.0ca931b980c34p-1"),
    (2, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.85530bd76a5cfp-1", "0x1.2c09d99d01ac4p-4", "0x1.1f60319ce67d6p-1"),
    (2, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.9a26a7e27fcaap-1", "0x1.2dc46c8cf5cfap-4", "0x1.339d6c59d2f9ap-1"),
    (2, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.2013a4ed2a91ap-1", "0x1.a779d6145fb34p-7", "0x1.36595bb3d2a79p-2"),
    (2, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.2d9f617b6c9b1p-1", "0x1.a86f58c1c2757p-7", "0x1.50d6bb238b529p-2"),
    (2, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x1.f7e8c45ce347cp-4", "0x1.299fd84470221p-4", "0x1.a6b4dc2b5a660p-9"),
    (2, 1.9, 0.5, 1e-05, 64, 2000,
     "0x1.42f698d75ddcep-3", "0x1.2a44a3f7be874p-4", "0x1.a988c189d5490p-6"),
    (10, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.23dc23db34b0bp-1", "0x1.4700fc454d114p-2", "0x1.bc9c5c9701810p-3"),
    (10, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.23fd29ae90802p-1", "0x1.46f1e686421f2p-2", "0x1.bd4bae24044bfp-3"),
    (10, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.67d10b2c6f1dcp-2", "0x1.394618c8ca90bp-4", "0x1.25d40426d6415p-3"),
    (10, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.67f2402fa745cp-2", "0x1.393b1b5f4fe20p-4", "0x1.262aec73c3173p-3"),
    (10, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.0c3ffbc479226p-5", "0x1.4c53534190115p-10", "0x1.dd2c67ffa3e6ap-8"),
    (10, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.0c51d935b5c2cp-5", "0x1.4c49929876057p-10", "0x1.de03dcdebf749p-8"),
    (10, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x1.474bd6e25f8edp-18", "0x1.8b1738b038e59p-19", "0x1.9474a401c66f6p-26"),
    (10, 1.9, 0.5, 1e-05, 64, 2000,
     "0x1.475e562698acdp-18", "0x1.8b0ba787d477dp-19", "0x1.95a22fb15ff05p-26"),
    (100, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.623ab4fbd95d7p-2", "0x1.19f0b6097ba6dp-2", "0x1.54f72062a594ap-5"),
    (100, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.62bd7a9f142d3p-2", "0x1.19bb8b6d5b42cp-2", "0x1.578ab7f87f9e5p-5"),
    (100, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.008f1b76f2cedp-9", "0x1.5a42ddc341a6fp-11", "0x1.53d7321a43742p-13"),
    (100, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.00c43bfe196b3p-9", "0x1.5a1d0d496a711p-11", "0x1.58edbd53f0188p-13"),
    (100, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.e5565f224e7edp-51", "0x1.770c1e1133b48p-55", "0x1.d00bfa1694b8ap-56"),
    (100, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.e58c06e15ea83p-51", "0x1.76f5949c21ae6p-55", "0x1.dafc553f71ab9p-56"),
    (100, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x1.75a4eb22205fcp-171", "0x1.c4fccbd2986dcp-172", "0x1.9867e094e294ap-182"),
    (100, 1.9, 0.5, 1e-05, 64, 2000,
     "0x1.75c2b8656f2c5p-171", "0x1.c4e907ac9ff6ep-172", "0x1.a25871a035228p-182"),
    (1000, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.f0deb7e967542p-5", "0x1.b59dcb3d34ce3p-5", "0x1.a69a8f98bfb9bp-10"),
    (1000, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.f1579446a9228p-5", "0x1.b56678f1759e2p-5", "0x1.aae0631b037e6p-10"),
    (1000, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.21aba8065602ap-72", "0x1.a608d9b181e0ep-74", "0x1.6d9a4f11df95ep-79"),
    (1000, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.21b5baab9f1dfp-72", "0x1.a600dd72946ccp-74", "0x1.753e8ac054721p-79"),
    (1000, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.19b7a7bad82fdp-489", "0x1.bf69f38428e05p-494", "0x1.c069c43dc3154p-498"),
    (1000, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.19b96201f9f56p-489", "0x1.bf685e5cf2ca1p-494", "0x1.ca9cc033ddd89p-498"),
    (1000, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    (1000, 1.9, 0.5, 1e-05, 64, 2000,
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
]


@pytest.mark.parametrize(
    "d,eps,delta",
    [(2, 1.0, 1e-3)]
    + [
        (d, eps, delta)
        for d in (3, 10, 100, 1000, 10**4)
        for eps, delta in ((1.0, 1e-5), (0.1, 1e-7), (10.0, 1e-3))
    ],
)
def test_lhs_slope_is_the_derivative_of_lhs_upper(d, eps, delta):
    # lhs_slope steers calibrate_l2's probes: here against a central
    # difference of lhs_upper, at and below the calibrated sigma.  At d = 2
    # it is the derivative of the discrete radial bound itself, to 1e-4:
    # each term1 grid starts at a saturated node (h = 2r, the whole
    # sphere), and term2's grid at h = 0, where z^(a - 1) = z^(-1/2) of the
    # cap fraction's rate is singular.  At d >= 3 it is lhs_upper times the
    # closed form d log lhs / d sigma = -(N_{k+1} / S) e^(eps/2) (1 -
    # tau^2)^(k+1) / (2 sigma^2 (k + 1)), S = N_{k+1} G_k + N_k G_{k+1},
    # with the sums read halfway between their bounds' logs, which lands
    # within 6e-5 of the bound's difference quotient
    pp = PrivacyParams(eps, delta)
    calibrated = calibrate_l2(d, pp).sigma
    for fraction in (0.6, 0.95, 1.0):
        sigma = fraction * calibrated
        if d == 2:
            r_first = (1.0 - eps * sigma) / 2.0
            assert height_h(LossGeometry(d, sigma, eps), r_first) == 2.0 * r_first
        rep = check_approx_dp(d, sigma, pp)
        assert rep.branch == BRANCH_GENERAL
        step = 1e-6 * sigma
        above = check_approx_dp(d, sigma + step, pp).lhs_upper
        below = check_approx_dp(d, sigma - step, pp).lhs_upper
        central = (above - below) / (2.0 * step)
        assert rep.lhs_slope == pytest.approx(central, rel=1e-4), (d, fraction)


def test_check_values_pinned_bitwise():
    for d, sigma, eps, delta, n_r, n_R, *want in CHECK_HEX:
        rep = check_approx_dp(d, sigma, PrivacyParams(eps, delta), n_r, n_R)
        got = [rep.term1_upper.hex(), rep.term2_lower.hex(), rep.lhs_upper.hex()]
        assert got == want, (d, sigma, n_r, n_R)


def test_check_sends_each_radius_once(monkeypatch):
    # at d = 2 the two grids go end to end into one cap-fraction call:
    # n_r + n_R radii, with no padding of the shorter grid.  The heights
    # the check builds itself are capgeom's, bit for bit.  At d >= 3 the
    # prolate form takes no cap fraction
    from l2mech import lossbounds

    grids = []
    real_arc_fraction = lossbounds._arc_fraction

    def arc_fraction(r, h):
        grids.append((r, h))
        return real_arc_fraction(r, h)

    monkeypatch.setattr(lossbounds, "_arc_fraction", arc_fraction)
    sigma, eps = 0.2333333333333333, 3.0
    check_approx_dp(100, sigma, PrivacyParams(eps, 1e-3), 64, 2000)
    assert grids == []
    check_approx_dp(2, sigma, PrivacyParams(eps, 1e-3), 64, 2000)
    assert [np.size(r) for r, _ in grids] == [2064]
    (radii, heights), geom = grids[0], LossGeometry(2, sigma, eps)
    assert np.array_equal(heights[:64], height_h(geom, radii[:64]))
    assert np.array_equal(heights[64:], height_H(geom, radii[64:]))


def test_general_check_builds_no_geometry(monkeypatch):
    # a probe's arguments were checked where they entered: the general
    # branch builds its heights itself, with no LossGeometry, height_h or
    # height_H re-checking them
    from l2mech import capgeom, lossbounds

    def refuse(*args, **kwargs):
        raise AssertionError("a probe re-checked arguments it built itself")

    for name in ("LossGeometry", "height_h", "height_H"):
        monkeypatch.setattr(capgeom, name, refuse)
        monkeypatch.setattr(lossbounds, name, refuse, raising=False)
    pp = PrivacyParams(1.0, 1e-5)
    assert check_approx_dp(100, 0.2, pp).branch == BRANCH_GENERAL
    assert calibrate_l2(10, pp).search_iterations >= 2


def _exact_arc_fraction(r, h):
    # (2/pi) arcsin sqrt(h/(2r)) at 40 digits, from the floats r and h
    with mpmath.workdps(40):
        x = mpmath.mpf(float(h)) / (2 * mpmath.mpf(float(r)))
        return 2 / mpmath.pi * mpmath.asin(mpmath.sqrt(x))


def _within_ulps(got, exact, ulps):
    if exact == 0:
        return got == 0.0
    return abs(mpmath.mpf(float(got)) - exact) <= ulps * math.ulp(float(exact))


def _d2_check_hex_fractions():
    # (n_r, radii, heights, fractions) of each d = 2 CHECK_HEX check, as
    # the certificate computes them
    from l2mech import lossbounds

    seen = []
    real = lossbounds._arc_fraction

    def spy(r, h):
        out = real(r, h)
        seen.append((r, h, out[0]))
        return out

    rows = [row for row in CHECK_HEX if row[0] == 2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lossbounds, "_arc_fraction", spy)
        for d, sigma, eps, delta, n_r, n_R, *_ in rows:
            check_approx_dp(d, sigma, PrivacyParams(eps, delta), n_r, n_R)
    assert len(seen) == len(rows) == 8
    return [(row[4], *grid) for row, grid in zip(rows, seen)]


def test_d2_cap_fractions_match_40_digits():
    # the circle's closed form lands within 3 ulps of the 40-digit truth
    # at the ends and middle of the range of heights, a cap 1e-300 of the
    # radius high, and on every d = 2 CHECK_HEX grid; it is exactly 0,
    # 1/2 and 1 at h = 0, r and 2r
    from l2mech.lossbounds import _arc_fraction

    for r in (1.0, 0.37, 3.3, 1e-3, 250.0):
        hs = np.array([0.0, 1e-300 * r, r / 2.0, r, math.nextafter(2.0 * r, 0.0), 2.0 * r])
        frac, _ = _arc_fraction(np.full(hs.size, r), hs)
        for h, f in zip(hs, frac):
            assert _within_ulps(f, _exact_arc_fraction(r, h), 3), (r, h, f)
        assert (frac[0], frac[3], frac[-1]) == (0.0, 0.5, 1.0), r
    for _, radii, heights, frac in _d2_check_hex_fractions():
        for r, h, f in zip(radii, heights, frac):
            assert _within_ulps(f, _exact_arc_fraction(r, h), 3), (r, h, f)


def test_d2_cap_fractions_move_as_the_left_sums_need():
    # term1's fractions fall with the radius and term2's rise, so weighting
    # each step by its left end over-counts term1 and under-counts term2;
    # capgeom.cap_fraction, the kept public path, agrees within 1e-15 (at
    # most 2.8e-16 apart), near h = r too, where it takes the complement
    # from (1 - u)^2 rather than from its rounded argument u (2 - u)
    from l2mech.capgeom import cap_fraction

    for n_r, radii, heights, frac in _d2_check_hex_fractions():
        assert np.all(np.diff(frac[:n_r]) <= 0.0) and np.all(np.diff(frac[n_r:]) >= 0.0)
        assert np.max(np.abs(frac - cap_fraction(2, radii, heights))) <= 1e-15


def test_d2_radial_cdf_matches_40_digits():
    # P(2, x) = 1 - e^-x (1 + x) and Q(2, x) = e^-x (1 + x), from
    # _gamma_2's (P, e^-x), against 40 digits: P within 2 u absolute (the
    # sums read P only as its first value and its steps) and Q within 4 u
    # relative, u = 2^-53, at x = 0, on a log grid over [1e-300, 1], a
    # linear one up to 700 and every d = 2 CHECK_HEX grid; at x = 0 P is
    # exactly 0 and Q exactly 1
    from l2mech import lossbounds

    grids = []
    real = lossbounds._gamma_2

    def spy(x):
        grids.append(x)
        return real(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lossbounds, "_gamma_2", spy)
        for d, sigma, eps, delta, n_r, n_R, *_ in CHECK_HEX:
            if d == 2:
                check_approx_dp(d, sigma, PrivacyParams(eps, delta), n_r, n_R)
    assert len(grids) == 8
    x = np.concatenate([[0.0], np.logspace(-300, 0, 301), np.linspace(0.0, 700.0, 1401), *grids])
    cdf, fall = real(x)
    sf = fall * (1.0 + x)
    assert (cdf[0], sf[0]) == (0.0, 1.0)
    u = 2.0**-53
    with mpmath.workdps(40):
        for xi, p, q in zip(x, cdf, sf):
            exact = mpmath.exp(-mpmath.mpf(float(xi))) * (1 + mpmath.mpf(float(xi)))
            assert abs(p - (1 - exact)) <= 2 * u, (xi, p)
            assert abs(q - exact) <= 4 * u * exact, (xi, q)


def test_d2_check_runs_no_beta_kernel(monkeypatch):
    # a d = 2 check takes its cap fractions from the closed form: it calls
    # neither cap_fraction, which would re-check its grid, nor a beta
    # kernel, in check_approx_dp or in a calibration's probes
    from l2mech import capgeom, lossbounds, specfun

    def refuse(*args, **kwargs):
        raise AssertionError("a d = 2 check ran the beta path")

    assert not hasattr(lossbounds, "cap_fraction")
    monkeypatch.setattr(capgeom, "cap_fraction", refuse)
    monkeypatch.setattr(capgeom, "reg_inc_beta", refuse)
    monkeypatch.setattr(specfun, "_betainc_vec", refuse)
    pp = PrivacyParams(1.0, 1e-5)
    assert check_approx_dp(2, 0.9, pp).r_star > 0.0
    assert calibrate_l2(2, pp).search_iterations >= 2


def test_outer_radius_only_where_the_radial_sums_run(monkeypatch):
    # r_star's root is found at d = 2 only: below sigma = 2^-100 a d >= 3
    # check has the loss cap bound alone and needs no outer radius
    from l2mech import lossbounds

    calls = []
    x_star = lossbounds._x_star

    def spy(delta):
        calls.append(delta)
        return x_star(delta)

    monkeypatch.setattr(lossbounds, "_x_star", spy)
    params = PrivacyParams(1.0, 1e-5)
    for d in (3, 10, 10**4):
        assert check_approx_dp(d, 1e-200, params).r_star == 0.0
    assert calls == []
    assert check_approx_dp(2, 0.9, params).r_star > 0.0
    assert calls == [1e-5]


@pytest.mark.parametrize("sigma", (5e-324, 1e-200, 1e-160))
@pytest.mark.parametrize("d", (2, 3, 10, 10**4))
def test_a_tiny_sigma_gets_a_report(d, sigma):
    # every positive sigma returns a report, as a check and as a
    # calibration probe: finite fields, lhs_upper at most 1 and no
    # certificate for any delta below 1
    from l2mech import lossbounds

    params = PrivacyParams(1.0, math.nextafter(1.0, 0.0))
    for rep in (
        check_approx_dp(d, sigma, params),
        *lossbounds._probe_checks((d,), (sigma,), params, 1000, 1000),
    ):
        assert rep.branch == BRANCH_GENERAL and not rep.satisfies_dp
        fields = (rep.term1_upper, rep.term2_lower, rep.lhs_upper, rep.r_star, rep.lhs_slope)
        assert all(math.isfinite(v) for v in fields), rep
        assert 0.0 < rep.lhs_upper <= 1.0


NAN_SCAN_SEED = 20261022


def test_a_huge_dim_at_tiny_sigma_gets_finite_bounds():
    # at huge d and sigma far below any answer the prolate windows and sums
    # no longer resolve, and a bound can come out NaN; it then claims
    # nothing (upper 1, lower 0, the loss cap's slope).  Two such points,
    # then a seeded scan of 200 (eps, delta, sigma) per dim, eps in [1e-3,
    # 700], delta log-uniform in [1e-15, 0.5] and sigma = 10^-U(0, 40) /
    # eps: every field finite, checked and as a probe
    from l2mech import lossbounds

    def fine(rep):
        fields = (rep.term1_upper, rep.term2_lower, rep.lhs_upper, rep.r_star, rep.lhs_slope)
        return all(math.isfinite(v) for v in fields) and 0.0 <= rep.lhs_upper <= 1.0

    found = [
        (10**6, 7.637279916239871e-21, PrivacyParams(160.79497340474109, 1e-5)),
        (2**52, 0.03258074136660669 / 1.3321106541200243, PrivacyParams(1.3321106541200243, 1e-5)),
    ]
    for d, sigma, params in found:
        rep = check_approx_dp(d, sigma, params)
        assert fine(rep) and not rep.satisfies_dp, rep
        assert (rep.term1_upper, rep.term2_lower, rep.lhs_upper) == (1.0, 0.0, 1.0), rep
    rng = np.random.default_rng(NAN_SCAN_SEED)
    bad = []
    for d in (10**6, 10**10, 2**40, 2**53):
        for _ in range(200):
            eps = rng.uniform(1e-3, 700.0)
            params = PrivacyParams(eps, 10.0 ** rng.uniform(-15.0, math.log10(0.5)))
            sigma = 10.0 ** -rng.uniform(0.0, 40.0) / eps
            checked = check_approx_dp(d, sigma, params)
            (probe,) = lossbounds._probe_checks((d,), (sigma,), params, 1000, 1000)
            bad += [(d, sigma, params) for rep in (checked, probe) if not fine(rep)]
    assert bad == []


def test_a_mu_window_whose_edges_cross_starts_at_one(monkeypatch):
    # near d = 2^53 the rounded estimates of the two mu peaks can put the
    # window's lower edge above its upper one; it then starts at mu = 1.
    # The point from the NaN test above and its scan's two such draws at
    # d = 2^53: every mu-cell has a positive width, and every lower sum is
    # finite and nonnegative
    from l2mech import lossbounds

    sums = []
    cell_sums = lossbounds._cell_sums

    def spy(*args):
        out = cell_sums(*args)
        sums.append(out[1][1])
        return out

    monkeypatch.setattr(lossbounds, "_cell_sums", spy)
    for d, sigma, eps in (
        (2**52, 0.03258074136660669 / 1.3321106541200243, 1.3321106541200243),
        (2**53, 1.3642320148254412e-30, 567.2340658725828),
        (2**53, 0.00173883217669009, 212.6578543824417),
    ):
        w = _one_minus_product(eps, sigma)
        _, m_lo, m_hi = lossbounds._prolate_windows(d, sigma, eps, w)
        assert m_lo == 0.0 and np.all(np.diff(lossbounds._edges(m_lo, m_hi, 1000)) > 0.0)
        sums.clear()
        lossbounds._prolate_batch((d,), (sigma,), eps, 1000, 1000)
        (lower,) = sums
        assert np.all(np.isfinite(lower) & (lower >= 0.0)), (d, sigma, eps, lower)


def test_check_reports_the_loss_cap_where_a_grid_cannot_start():
    # at d = 2, when r_star falls at or below term1's first radius, or
    # between it and term2's, around the shifted center, no radial grid
    # runs and the report carries the loss cap bound.  At d >= 3 the
    # prolate form has no radial grid, and bounds these sigmas by its cells
    for d, eps, delta in ((3, 8.0, 0.5), (10, 2.0, 0.2)):
        for sigma in (0.02, 0.05, 0.08, 0.1):
            rep = check_approx_dp(d, sigma, PrivacyParams(eps, delta))
            assert rep.branch == BRANCH_GENERAL and 0.0 < rep.lhs_upper <= 1.0
    seen = set()
    for d, eps, delta in ((2, 0.5, 0.9), (2, 8.0, 0.5), (2, 2.0, 0.2)):
        params = PrivacyParams(eps, delta)
        for sigma in (0.02, 0.05, 0.08, 0.1):
            tau = eps * sigma
            r_star = sigma * special.gammainccinv(d, 0.01 * delta)
            rep = check_approx_dp(d, sigma, params)
            if r_star > (1.0 + tau) / 2.0:
                assert rep.r_star == pytest.approx(r_star, rel=1e-12)
                continue
            _assert_loss_cap_report(rep, sigma, eps)
            seen.add("term1" if r_star <= (1.0 - tau) / 2.0 else "term2")
    assert seen == {"term1", "term2"}


def test_check_validation_errors():
    pp = PrivacyParams(1.0, 1e-5)
    with pytest.raises(ValueError):
        check_approx_dp(0, 0.5, pp)
    with pytest.raises(ValueError):
        check_approx_dp(2, -0.5, pp)
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="sigma must be positive"):
            check_approx_dp(2, flag, pp)


def test_r_star_tail_rule():
    # at d = 2 the radial mass beyond r_star is one percent of delta by
    # construction; at d >= 3 r_star is (mu_hi + 1)/2, the radius of the
    # ball around the noise center that holds the mu-window mu <= mu_hi
    from l2mech import lossbounds
    from l2mech.specfun import reg_upper_gamma

    for delta in [1e-3, 0.2]:
        rep = check_approx_dp(2, 0.3, PrivacyParams(1.0, delta))
        q = reg_upper_gamma(2.0, rep.r_star / 0.3)
        assert math.isclose(q, 0.01 * delta, rel_tol=1e-9)
        rep = check_approx_dp(4, 0.3, PrivacyParams(1.0, delta))
        w = lossbounds._one_minus_product(1.0, 0.3)
        m_hi = lossbounds._prolate_windows(4, 0.3, 1.0, w)[2]
        assert rep.r_star == 0.5 * (m_hi + 2.0)


def test_huge_epsilon_does_not_overflow():
    # exp(eps) would overflow float64 past eps ~ 709; the capped weight
    # only shrinks the subtracted term, so the verdict stays sound
    rep = check_approx_dp(1, 0.001, PrivacyParams(800.0, 1e-5))
    assert math.isfinite(rep.lhs_upper)
    assert rep.branch == BRANCH_ONE_DIM
    # math.exp(720) alone would raise OverflowError
    rep2 = check_approx_dp(1000, 0.00138, PrivacyParams(720.0, 1e-5))
    assert math.isfinite(rep2.lhs_upper)
    assert rep2.branch == BRANCH_GENERAL


def test_lhs_monotone_in_sigma_near_calibration():
    # the certified lhs must fall as sigma grows, else bisection is unsound
    pp = PrivacyParams(1.0, 1e-5)
    sigmas = np.linspace(0.3, 0.95, 30)
    vals = [check_approx_dp(5, float(s), pp).lhs_upper for s in sigmas]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k", (20, 53, 60, 100, 300, 1023))
def test_a_huge_dim_gets_a_finite_answer_or_a_checked_fault(k):
    # up to dim = 2^53 (_checks.MAX_DIM), where the floats d, d/2, (d -
    # 1)/2 and k = (d - 3)/2 of the certificate are exact, a check and a
    # calibration give finite numbers; above it both refuse dim by name in
    # require.  Without the bound, 2^60 gave a NaN slope, 2^100 a NaN
    # report, 2^300 a ZeroDivisionError and 2^1023 an OverflowError
    from l2mech._checks import MAX_DIM

    pp = PrivacyParams(1.0, 1e-5)
    d = 2**k
    for run in (lambda: check_approx_dp(d, 0.5, pp), lambda: calibrate_l2(d, pp)):
        if d <= MAX_DIM:
            out = run()
            if isinstance(out, BoundReport):
                fields = (out.term1_upper, out.term2_lower, out.lhs_upper)
                fields += (out.r_star, out.lhs_slope)
            else:
                fields = (out.sigma,)
            assert all(math.isfinite(v) for v in fields), out
        else:
            with pytest.raises(ValueError, match="^dim must be at most 2\\*\\*53") as excinfo:
                run()
            assert excinfo.traceback[-1].name == "require"
