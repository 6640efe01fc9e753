"""Certified Riemann bounds: reference equality, sandwiches, monotonicity."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import l2mech.calibrate
import oracles
from l2mech.calibrate import PrivacyParams, calibrate_l2
from l2mech.capgeom import LossGeometry, height_H, height_h
from l2mech.lossbounds import (
    BRANCH_GENERAL,
    BRANCH_LARGE_SIGMA,
    BRANCH_ONE_DIM,
    BoundReport,
    GridDomainError,
    check_approx_dp,
)
from l2mech.specfun import inv_reg_upper_gamma

# probe points for the scipy reference comparison
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
    monkeypatch.setattr(l2mech.calibrate, "_check", lambda *args: probes.append(args))
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
    assert abs(rep4.lhs_upper - (rep4.term1_upper - math.e * rep4.term2_lower)) < 1e-15
    # only the general branch's sums carry a slope
    assert rep.lhs_slope is None and rep2.lhs_slope is None and rep3.lhs_slope is None
    assert isinstance(rep4.lhs_slope, float) and rep4.lhs_slope < 0.0


def test_terms_match_scipy_reference():
    for d, sigma, eps in PROBES:
        rep = check_approx_dp(d, sigma, PrivacyParams(eps, 1e-5))
        t1, t2, lhs = oracles.ref_check(d, sigma, eps, 1e-5)
        assert abs(rep.term1_upper - t1) < 1e-12, (d, sigma, eps)
        assert abs(rep.term2_lower - t2) < 1e-12, (d, sigma, eps)
        assert abs(rep.lhs_upper - lhs) < 1e-11, (d, sigma, eps)


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


def test_grid_domain_error_on_unresolvable_grid():
    # at so small a sigma r_star, beyond which 1% of delta's radial mass
    # lies, falls inside the first grid radius
    with pytest.raises(GridDomainError):
        check_approx_dp(2, 0.05, PrivacyParams(1.0, 0.9))


# Frozen float.hex of (term1_upper, term2_lower, lhs_upper) for tau =
# eps * sigma in {0.05, 0.3, 0.7, 0.95} at four dimensions, on a square
# grid and on one with n_r != n_R: a change to the Riemann-Stieltjes sum
# or its kernels that moves a single bit shows here.
CHECK_HEX = [
    # d, sigma, eps, delta, n_r, n_R, then term1, term2, lhs
    (2, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.7e086fd06f8bep-1", "0x1.c56eb95e4bf5cp-3", "0x1.00c0bab07346ep-1"),
    (2, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.8a4b97639394fp-1", "0x1.c6b6f62483cc8p-3", "0x1.0ca931b980c32p-1"),
    (2, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.85530bd76a5cfp-1", "0x1.2c09d99d01ac6p-4", "0x1.1f60319ce67d6p-1"),
    (2, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.9a26a7e27fcaap-1", "0x1.2dc46c8cf5cfcp-4", "0x1.339d6c59d2f99p-1"),
    (2, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.2013a4ed2a91ap-1", "0x1.a779d6145fb2fp-7", "0x1.36595bb3d2a7cp-2"),
    (2, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.2d9f617b6c9b1p-1", "0x1.a86f58c1c2753p-7", "0x1.50d6bb238b52bp-2"),
    (2, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x1.f7e8c45ce3476p-4", "0x1.299fd8447021fp-4", "0x1.a6b4dc2b5a600p-9"),
    (2, 1.9, 0.5, 1e-05, 64, 2000,
     "0x1.42f698d75ddcap-3", "0x1.2a44a3f7be872p-4", "0x1.3454c0e1c6294p-5"),
    (10, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.23fcab7c178a5p-1", "0x1.46c296f9c45bdp-2", "0x1.bdb24803dad16p-3"),
    (10, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.26269d54e9f27p-1", "0x1.46e2adf121c37p-2", "0x1.c6132184ef120p-3"),
    (10, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.6864453ef7771p-2", "0x1.386ec7c860f97p-4", "0x1.2824abf4fb26fp-3"),
    (10, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.71dcbfe396b84p-2", "0x1.38db64682c880p-4", "0x1.3a8202d738f1ap-3"),
    (10, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.0cdd55f2bd10ap-5", "0x1.4b7180be01617p-10", "0x1.e69cbae35efb4p-8"),
    (10, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.16e240524d376p-5", "0x1.4be343dded4fep-10", "0x1.1a4467bcdac0ap-7"),
    (10, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x1.4777e963e0868p-18", "0x1.8ae0a6e0fcf4dp-19", "0x1.f26809abc7e00p-26"),
    (10, 1.9, 0.5, 1e-05, 64, 2000,
     "0x1.4a75833c57e4ep-18", "0x1.8afcfc1a27e1dp-19", "0x1.3629a723fd640p-24"),
    (100, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.623f01180f87fp-2", "0x1.19eafe257db5fp-2", "0x1.556dc68c13cc8p-5"),
    (100, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.62b6dd739ea3fp-2", "0x1.19ee94298cd2cp-2", "0x1.590cf4e49aed0p-5"),
    (100, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.00ad20736731dp-9", "0x1.5a1506e1a52cep-11", "0x1.57d3467867f98p-13"),
    (100, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.029c314491e48p-9", "0x1.5a2ccd160d33fp-11", "0x1.75c1d376edc48p-13"),
    (100, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.e5de137696201p-51", "0x1.76a09cf018a38p-55", "0x1.f29323ec314e0p-56"),
    (100, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.ee3d32556f882p-51", "0x1.76d73eeee5229p-55", "0x1.7af22baa0ad40p-55"),
    (100, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x1.75b53bedb4eeap-171", "0x1.c4e70af3311cep-172", "0x1.696a2dee6fc00p-181"),
    (100, 1.9, 0.5, 1e-05, 64, 2000,
     "0x1.76dfbd3341297p-171", "0x1.c4f2f53ab5427p-172", "0x1.7b09494a99400p-179"),
    (1000, 0.5, 0.1, 1e-05, 1000, 1000,
     "0x1.f0df39c92c766p-5", "0x1.b59b6648c5a60p-5", "0x1.a7b9a7ac57cc0p-10"),
    (1000, 0.5, 0.1, 1e-05, 64, 2000,
     "0x1.f125be3299597p-5", "0x1.b59d8564ff01ep-5", "0x1.b03f2d80a1220p-10"),
    (1000, 0.3, 1.0, 1e-10, 1000, 1000,
     "0x1.21c0a0715fe8fp-72", "0x1.a5e86b0cefedap-74", "0x1.84a5f7cb03100p-79"),
    (1000, 0.3, 1.0, 1e-10, 64, 2000,
     "0x1.231e547e28a00p-72", "0x1.a5f971c21ff63p-74", "0x1.16db7bf46a140p-78"),
    (1000, 0.2333333333333333, 3.0, 0.001, 1000, 1000,
     "0x1.19f3788266cffp-489", "0x1.bf095c8968ee9p-494", "0x1.5bb6fa74a4d00p-497"),
    (1000, 0.2333333333333333, 3.0, 0.001, 64, 2000,
     "0x1.1d9efe7186e21p-489", "0x1.bf3a827bb46e5p-494", "0x1.3a18e4183c680p-495"),
    (1000, 1.9, 0.5, 1e-05, 1000, 1000,
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    (1000, 1.9, 0.5, 1e-05, 64, 2000,
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
]


@pytest.mark.parametrize(
    "d,eps,delta",
    [(2, 1.0, 1e-3), (3, 1.0, 1e-5), (10, 1.0, 1e-5), (100, 1.0, 1e-5),
     (1000, 1.0, 1e-5)],
)
def test_lhs_slope_is_the_derivative_of_lhs_upper(d, eps, delta):
    # lhs_slope steers calibrate_l2's probes, so it must be the derivative
    # of the discrete bound itself, not of the true hockey-stick: here a
    # central difference of lhs_upper, at and below the calibrated sigma.
    # Each term1 grid starts at a saturated node (h = 2r, the whole
    # sphere), and term2's d = 2 grid at h = 0, where z^(a - 1) = z^(-1/2)
    # of the cap fraction's rate is singular
    pp = PrivacyParams(eps, delta)
    calibrated = calibrate_l2(d, pp).sigma
    for fraction in (0.6, 0.95, 1.0):
        sigma = fraction * calibrated
        tau = eps * sigma
        r_first = (1.0 - tau) / 2.0
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
    # the two grids go end to end into one gamma call and one cap_fraction
    # call: n_r + n_R elements, with no padding of the shorter grid.  The
    # heights the check builds itself are capgeom's, bit for bit
    from l2mech import lossbounds

    sizes, grids = [], []
    real_gamma_pq, real_cap_fraction = lossbounds._gamma_pq_vec, lossbounds.cap_fraction

    def gamma_pq(a, x):
        sizes.append(("_gamma_pq_vec", np.size(x)))
        return real_gamma_pq(a, x)

    def cap_fraction(dim, r, h):
        sizes.append(("cap_fraction", np.broadcast(r, h).size))
        grids.append((r, h))
        return real_cap_fraction(dim, r, h)

    monkeypatch.setattr(lossbounds, "_gamma_pq_vec", gamma_pq)
    monkeypatch.setattr(lossbounds, "cap_fraction", cap_fraction)
    sigma, eps = 0.2333333333333333, 3.0
    check_approx_dp(100, sigma, PrivacyParams(eps, 1e-3), 64, 2000)
    assert sizes == [("_gamma_pq_vec", 2064), ("cap_fraction", 2064)]
    (radii, heights), geom = grids[0], LossGeometry(100, sigma, eps)
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


def test_check_raises_its_terms_grid_errors_in_order():
    # when r_star falls at or below both first radii term1's error comes
    # first; between them, term2's, around the shifted center
    seen = set()
    for d, eps, delta in ((2, 0.5, 0.9), (3, 8.0, 0.5), (10, 2.0, 0.2)):
        params = PrivacyParams(eps, delta)
        for sigma in (0.02, 0.05, 0.08, 0.1):
            tau = eps * sigma
            r_star = sigma * inv_reg_upper_gamma(float(d), 0.01 * delta)
            if r_star > (1.0 + tau) / 2.0:
                check_approx_dp(d, sigma, params)
                continue
            first, center = (1.0 - tau) / 2.0, ""
            if r_star > first:
                first, center = (1.0 + tau) / 2.0, " around the shifted center"
            with pytest.raises(GridDomainError) as excinfo:
                check_approx_dp(d, sigma, params)
            assert str(excinfo.value) == (
                f"r_star={r_star} is at or below the first grid radius "
                f"{first}{center}; the grid cannot resolve the loss region"
            )
            seen.add(center)
    assert seen == {"", " around the shifted center"}


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
    # mass beyond r_star is one percent of delta by construction
    from l2mech.specfun import reg_upper_gamma

    for delta in [1e-3, 0.2]:
        rep = check_approx_dp(4, 0.3, PrivacyParams(1.0, delta))
        q = reg_upper_gamma(4.0, rep.r_star / 0.3)
        assert math.isclose(q, 0.01 * delta, rel_tol=1e-9)


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
