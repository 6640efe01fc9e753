"""Noise-scale search: certified minimality and baseline formulas."""

import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import counts_ledger
import l2mech.calibrate
import l2mech.specfun
import oracles
from l2mech._checks import require
from l2mech.calibrate import (
    MECHANISMS,
    CalibrationResult,
    PrivacyParams,
    _bracket,
    _drive,
    _lattice_search,
    _lattice_sigma,
    _newton_sigma,
    calibrate_gaussian,
    calibrate_l2,
    gaussian_dp_lhs,
    laplace_sigma,
    laplace_sigma_lower_bound,
)
from l2mech.lossbounds import check_approx_dp


def test_privacy_params_validation():
    pp = PrivacyParams(1.0, 1e-5)
    assert pp.epsilon == 1.0 and pp.delta == 1e-5
    bad = [(0.0, 1e-5), (-1.0, 1e-5), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]
    bad += [(True, 0.5), (np.True_, 0.5)]  # a flag is no epsilon
    for eps, delta in bad:
        with pytest.raises(ValueError):
            PrivacyParams(eps, delta)


def test_calibration_result_validation():
    res = CalibrationResult("l2", 0.5, 2.0, 11, 1e-3)
    assert not res.hit_bracket_floor
    with pytest.raises(ValueError):
        CalibrationResult("cauchy", 0.5, 2.0, 11, 1e-3)
    with pytest.raises(ValueError):
        CalibrationResult("l2", -0.5, 2.0, 11, 1e-3)
    assert CalibrationResult("l2", 0.5, 2.0, 0, 0.0).tolerance == 0.0
    for tolerance in (math.nan, math.inf, -1e-3):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            CalibrationResult("l2", 0.5, 2.0, 11, tolerance)
    assert MECHANISMS == ("l2", "laplace", "gaussian")


def test_l2_d1_closed_form():
    pp = PrivacyParams(1.0, 1e-5)
    res = calibrate_l2(1, pp)
    assert abs(res.sigma - oracles.L2_SIGMA_D1_EPS1_DELTA1E5) < 1e-9
    assert check_approx_dp(1, res.sigma, pp).satisfies_dp
    assert res.pure_epsilon == 1.0 / res.sigma
    # inverse of the exact one-dimensional lhs at a fat delta
    res2 = calibrate_l2(1, PrivacyParams(1.0, 0.393469), tol=1e-4)
    assert abs(res2.sigma - 0.5) < 1e-4


def test_l2_d1_certificate_never_undershoots():
    # the closed form is bumped by ulps until its own check passes, so
    # the returned scale is certified, not merely theoretical.  At small
    # epsilon a check that subtracts its two terms, both near 1/2, carries
    # more rounding error than any number of bumps removes; the last four
    # targets catch that
    targets = [(1.0, 1e-5), (0.25, 1e-7), (3.0, 1e-3), (1.0, 0.4)]
    targets += [
        (0.0011917981712312778, 4.214641240042618e-14),
        (0.001080574138625876, 6.620765224083929e-13),
        (0.0013567817902727427, 1.7611170356535522e-15),
        (0.0010812827760203455, 2.1888557706729825e-05),
    ]
    for eps, delta in targets:
        pp = PrivacyParams(eps, delta)
        res = calibrate_l2(1, pp)
        assert check_approx_dp(1, res.sigma, pp).satisfies_dp, (eps, delta)
        want = 1.0 / (eps - 2.0 * math.log1p(-delta))
        assert math.isclose(res.sigma, want, rel_tol=1e-12)


def test_l2_general_minimality():
    # certified at the result, not certified a hair below: the search
    # really returns the bracket ceiling of a sign change
    for d, eps, delta in [(3, 1.0, 1e-3), (7, 1.0, 1e-5), (25, 2.0, 1e-4)]:
        pp = PrivacyParams(eps, delta)
        res = calibrate_l2(d, pp)
        assert check_approx_dp(d, res.sigma, pp).satisfies_dp, (d, "at result")
        below = res.sigma - 2.0 * res.tolerance
        assert not check_approx_dp(d, below, pp).satisfies_dp, (d, "below result")
        assert res.search_iterations > 0
        assert res.sigma <= 1.0 / eps


def test_l2_sigma_never_exceeds_pure_dp_scale():
    pp = PrivacyParams(0.5, 1e-6)
    for d in [2, 10, 40]:
        res = calibrate_l2(d, pp)
        assert res.sigma <= 1.0 / 0.5 + 1e-12
        assert res.pure_epsilon >= 0.5


def test_l2_fig_reference_scales():
    # frozen outputs at (eps, delta) = (1, 1e-5), default grids
    pp = PrivacyParams(1.0, 1e-5)
    expected = {2: 1.000000, 5: 0.971708, 10: 0.873174, 50: 0.495622}
    for d, want in expected.items():
        got = calibrate_l2(d, pp).sigma
        assert abs(got - want) < 5e-6, (d, got)


def test_l2_probe_counts_at_reference_scales():
    # the bisection takes 11 probes; starting at the equal-error sigma and
    # taking Newton steps on each check's slope, the search needs three at
    # most from d = 100 up and at d = 2.
    # At d = 10 the equal-error sigma lies above 1/epsilon, so the search
    # starts at the midpoint, whose failure leaves the ITP guard a probe
    pp = PrivacyParams(1.0, 1e-5)
    for d, most in {2: 3, 10: 6, 100: 3, 1000: 3}.items():
        assert calibrate_l2(d, pp).search_iterations <= most, d


def test_l2_probe_budget_over_a_calibrate_mix_grid():
    # counts_ledger's seeded 64-target grid shaped like the benchmark's
    # calibrate-mix.  Probe counts do not depend on the machine: the
    # ledger reads 211 over the 64 calls (3.30 per call) and 7 at worst
    probes = [
        calibrate_l2(dim, params).search_iterations
        for dim, params in counts_ledger.mix_grid()
    ]
    assert len(probes) == 64
    assert np.mean(probes) <= 3.3125 + 0.15
    assert max(probes) <= 9


def test_l2_first_probe_is_the_equal_error_sigma(monkeypatch):
    # sigma_G / sqrt(d + 1) gives the l2 mechanism the Gaussian's MSE; the
    # search's first certificate is the lattice point at or just above it
    pp = PrivacyParams(1.0, 1e-5)
    probed = []
    check_at = l2mech.calibrate._probe_checks

    def probe(dims, sigmas, *rest):
        probed.extend(sigmas)
        return check_at(dims, sigmas, *rest)

    monkeypatch.setattr(l2mech.calibrate, "_probe_checks", probe)
    calibrate_l2(1000, pp)
    lo, hi = _bracket(pp.epsilon, 1e-3)
    depth = 10  # the fewest halvings that take [lo, hi] to 1e-3 wide
    assert (hi - lo) / 2**depth <= 1e-3 < (hi - lo) / 2 ** (depth - 1)
    estimate = calibrate_gaussian(pp).sigma / math.sqrt(1001)
    k = math.ceil((estimate - lo) / ((hi - lo) / (1 << depth)))
    assert probed[0] == _lattice_sigma(k, depth, lo, hi)
    assert estimate <= probed[0] < estimate + 1e-3


def test_l2_checks_its_arguments_once(monkeypatch):
    # the target, tol and sensitivity are checked on entry; the Gaussian
    # search that places the first probe, and every probe, runs unchecked
    calls = []
    validate = l2mech.calibrate._validate_common

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(l2mech.calibrate, "_validate_common", counted)
    for d in (2, 3, 1000):
        calls.clear()
        calibrate_l2(d, PrivacyParams(1.0, 1e-5))
        assert len(calls) == 1, d


def test_l2_starts_at_the_midpoint_without_a_gaussian_sigma():
    # at delta = 1e-300 the Gaussian bracket needs more halvings than the
    # search allows while the l2 one does not: the l2 search starts at
    # its midpoint instead of raising
    pp = PrivacyParams(1.0, 1e-300)
    tol = 2.0**-195
    with pytest.raises(RuntimeError):
        calibrate_gaussian(pp, tol)
    res = calibrate_l2(10, pp, tol=tol)
    assert res.sigma == 1.0 and not res.hit_bracket_floor


def test_l2_checks_each_sigma_once(monkeypatch):
    # at tol = 2^-195 the lattice spacing near the bracket's top is below
    # the float spacing, so many lattice indices round to one sigma: the
    # search checks each of the 54 distinct sigmas it visits once, and
    # returns the same answer
    from l2mech import calibrate

    sigmas, checks = [], calibrate._probe_checks

    def spy(dims, probed, *args):
        sigmas.extend(probed)
        return checks(dims, probed, *args)

    monkeypatch.setattr(calibrate, "_probe_checks", spy)
    res = calibrate_l2(10, PrivacyParams(1.0, 1e-300), tol=2.0**-195)
    assert res.sigma == 1.0 and not res.hit_bracket_floor
    assert len(sigmas) == len(set(sigmas)) == res.search_iterations <= 54


@pytest.mark.parametrize("tol", (1e-17, 2.0**-120))
def test_gaussian_evaluates_each_sigma_once(monkeypatch, tol):
    # below the float spacing several lattice indices round to one sigma:
    # the Gaussian search evaluates each of the 55 distinct sigmas it
    # visits once, at either tolerance
    from l2mech import calibrate

    sigmas, lhs = [], calibrate._gaussian_lhs

    def spy(sigma, epsilon):
        sigmas.append(sigma)
        return lhs(sigma, epsilon)

    monkeypatch.setattr(calibrate, "_gaussian_lhs", spy)
    res = calibrate_gaussian(PrivacyParams(1.0, 1e-5), tol)
    assert len(sigmas) == len(set(sigmas)) == res.search_iterations == 55


_ODD_FLOATS = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan)


@settings(max_examples=300, deadline=None)
@given(
    depth=st.integers(1, 20),
    lo=st.floats(1e-4, 1.0),
    width=st.floats(1e-2, 10.0),
    where=st.sampled_from(("inside", "below", "above", "huge", "inf", "nan")),
    t=st.floats(0.0, 1.0),
    u=st.floats(0.0, 1.0),
    fraction=st.floats(0.0, 2.0),
    reports=st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_ODD_FLOATS), st.floats()),
            st.one_of(st.none(), st.sampled_from(_ODD_FLOATS), st.floats()),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_lattice_search_estimate_moves_probes_not_the_answer(
    depth, lo, width, where, t, u, fraction, reports
):
    # a monotone verdict with its threshold at any lattice index, and a
    # probe that keeps naming one estimate inside, below or above the
    # bracket, or one that is not finite; then a probe that names
    # calibrate_l2's _newton_sigma of an arbitrary report, with no,
    # zero, wrong-signed, huge and non-finite slopes and lhs_upper values:
    # every search returns the bisection's pair (sigma_{k-1}, sigma_k)
    # within depth + 3 probes, and none raises
    hi = lo + width
    tol = (hi - lo) / 2**depth  # exact: the search halves hi - lo depth times
    threshold = _lattice_sigma(round(t * (1 << depth)), depth, lo, hi)
    estimate = {
        "inside": lo + u * width,
        "below": lo - fraction * width,
        "above": hi + fraction * width,
        "huge": 1e308,
        "inf": math.inf,
        "nan": math.nan,
    }[where]
    eps = 0.5 / hi  # 1/sigma - eps > 0 over the whole bracket
    probes = 0

    def naming(next_sigma):
        def probe(sigma):
            nonlocal probes
            probes += 1
            return sigma >= threshold, next_sigma(sigma)

        return probe

    def newton_sigma(sigma):
        lhs_upper, lhs_slope = reports[probes % len(reports)]
        report = SimpleNamespace(lhs_upper=lhs_upper, lhs_slope=lhs_slope)
        return _newton_sigma(report, sigma, eps, math.log(1e-5))

    want = _drive(_lattice_search(lo, hi, tol), lambda s: (s >= threshold, None))
    for next_sigma in (lambda sigma: estimate, newton_sigma):
        probes = 0
        assert _drive(_lattice_search(lo, hi, tol, estimate), naming(next_sigma)) == want
        assert probes <= depth + 3


def test_a_tolerance_too_fine_for_the_lattice_is_named(monkeypatch):
    # at tol = 1e-70 the lattice would take over 199 halvings of the
    # bracket: each search refuses, naming tol, its bracket and the
    # halvings, and calibrate_l2 does so before its first certificate
    from l2mech.mcverify import empirical_min_sigma
    from l2mech.sampler import RngState

    def unexpected(*args):
        raise AssertionError("probed")

    monkeypatch.setattr(l2mech.calibrate, "_probe_checks", unexpected)
    pp = PrivacyParams(1.0, 1e-2)
    searches = [
        ("[1e-70, 1.0]", lambda: calibrate_l2(2, pp, tol=1e-70)),
        ("[2.0, 4.0]", lambda: calibrate_gaussian(PrivacyParams(1.0, 1e-5), 1e-70)),
        ("[1e-70, 1.0]", lambda: empirical_min_sigma(2, pp, 10**4, 1e-70, RngState(1))),
    ]
    for bracket, search in searches:
        want = f"tol=1e-70 is too fine for the bracket {bracket}: the search would need 23"
        with pytest.raises(RuntimeError, match=re.escape(want)):
            search()


def test_l2_search_matches_bisection(monkeypatch):
    # the lattice search lands on the bisection's own float, probing less.
    # calibrate_l2 runs each probe through lossbounds._probe_checks, which
    # may decide it on the nested quarter grid, the bisection through
    # check_approx_dp on the full grid; each keeps its own entries in one
    # memo of certificate reports, so the oracle never reads a probe's
    memo = {}
    calls = 0
    check_at = l2mech.calibrate._probe_checks

    def remember(key, run):
        if key not in memo:
            memo[key] = run()
        return memo[key]

    def probe(dims, sigmas, params, n_r, n_R):
        nonlocal calls
        calls += len(sigmas)
        return [
            remember(
                ("probe", dim, sigma, params, n_r, n_R),
                lambda: check_at((dim,), (sigma,), params, n_r, n_R)[0],
            )
            for dim, sigma in zip(dims, sigmas)
        ]

    def check(dim, sigma, params, n_r, n_R):
        key = ("full", dim, sigma, params, n_r, n_R)
        return remember(key, lambda: check_approx_dp(dim, sigma, params, n_r, n_R))

    monkeypatch.setattr(l2mech.calibrate, "_probe_checks", probe)
    grid = itertools.product(
        (2, 3, 10, 100, 1000, 2000), (0.01, 0.2, 1.0, 20.0), (1e-10, 1e-5, 1e-3)
    )
    targets = [(d, PrivacyParams(eps, delta), 1e-3) for d, eps, delta in grid]
    targets.append((10, PrivacyParams(20.0, 1e-3), 0.1))  # tol halves below 1/eps
    targets.append((1000, PrivacyParams(1.0, 1e-5), 0.5))  # certifies at the floor
    new_probes, old_probes = [], []
    for d, pp, tol in targets:
        calls = 0
        res = calibrate_l2(d, pp, tol=tol)
        assert res.search_iterations == calls
        sigma, floor, evals = oracles.bisect_calibrate_l2(check, d, pp, tol=tol)
        assert res.sigma == sigma, (d, pp, tol)
        assert res.hit_bracket_floor == floor, (d, pp, tol)
        assert res.search_iterations <= evals + 2, (d, pp, tol)
        new_probes.append(res.search_iterations)
        old_probes.append(evals)
    assert res.hit_bracket_floor
    assert _bracket(20.0, 0.1)[:2] == (0.025, 0.05)
    assert np.mean(new_probes) < np.mean(old_probes)


def test_l2_bracket_top_is_certified():
    # epsilon * (1/epsilon) rounds to 1 - 2^-53 here, so 1/epsilon takes
    # the general branch; at d = 2 the loss cap bound 1 - e^(eps - 1/sigma)
    # certifies it itself.  The prolate form certifies d = 4 below the
    # top, at 3.8326
    pp = PrivacyParams(0.2605353308290174, 6.884270460076574e-09)
    res = calibrate_l2(2, pp)
    assert res.sigma == 1.0 / pp.epsilon
    assert check_approx_dp(2, res.sigma, pp).satisfies_dp
    res = calibrate_l2(4, pp)
    assert check_approx_dp(4, res.sigma, pp).satisfies_dp
    assert res.sigma == pytest.approx(3.8326, abs=1e-4) and res.sigma < 1.0 / pp.epsilon
    # here the loss cap at 1/epsilon exceeds delta, so it fails its check
    # and the search nudges it up by ulps
    pp = PrivacyParams(78.45614495962023, 1.0266570170930311e-15)
    res = calibrate_l2(2, pp)
    assert check_approx_dp(2, res.sigma, pp).satisfies_dp
    assert 1.0 / pp.epsilon < res.sigma <= (1.0 / pp.epsilon) * (1.0 + 1e-14)
    # each sigma a calibration returns passes a fresh check_approx_dp
    targets = [
        (1, PrivacyParams(1.0, 1e-5), 1e-3),
        (4, PrivacyParams(0.2605353308290174, 6.884270460076574e-09), 1e-3),
        (10, PrivacyParams(1.0, 1e-5), 1e-3),
        (100, PrivacyParams(0.2, 1e-10), 1e-3),
        (1000, PrivacyParams(1.0, 1e-5), 0.5),
    ]
    for d, pp, tol in targets:
        res = calibrate_l2(d, pp, tol=tol)
        assert check_approx_dp(d, res.sigma, pp).satisfies_dp, d


@pytest.mark.parametrize(
    "eps,delta,radial_only_hex",
    [
        (10.0, 0.17, "0x1.999999999999ap-4"),
        (20.0, 0.3, "0x1.999999999999ap-5"),
        (0.1, 1e-4, "0x1.4000000000000p+3"),
    ],
)
def test_l2_d2_answers_below_the_bracket_top_are_sound(eps, delta, radial_only_hex):
    # the radial sums alone, with a grid that cannot start counted as not
    # certified, put these answers at the bracket's top 1/eps; where no
    # grid can start, or the loss cap bound beats the sums, the answer
    # falls below it, and the exact lhs there, by 1-D quadrature, is
    # within delta
    pp = PrivacyParams(eps, delta)
    sigma = calibrate_l2(2, pp).sigma
    assert sigma < float.fromhex(radial_only_hex)
    assert oracles.prolate_lhs(2, sigma, eps) <= delta


def test_l2_sensitivity_scaling():
    pp = PrivacyParams(1.0, 1e-4)
    base = calibrate_l2(5, pp)
    scaled = calibrate_l2(5, pp, sensitivity=2.5)
    assert math.isclose(scaled.sigma, 2.5 * base.sigma, rel_tol=1e-12)
    # the pure guarantee is sensitivity / sigma, invariant under scaling
    assert math.isclose(scaled.pure_epsilon, base.pure_epsilon, rel_tol=1e-12)


def test_l2_validation():
    pp = PrivacyParams(1.0, 1e-5)
    with pytest.raises(ValueError):
        calibrate_l2(0, pp)
    with pytest.raises(ValueError):
        calibrate_l2(2, pp, tol=0.0)
    with pytest.raises(ValueError):
        calibrate_l2(2, pp, sensitivity=-1.0)
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="tol must be positive"):
            calibrate_l2(2, pp, tol=flag)
        with pytest.raises(ValueError, match="sensitivity must be positive"):
            calibrate_l2(2, pp, sensitivity=flag)


def test_gaussian_lhs_matches_closed_form():
    from l2mech.specfun import std_normal_cdf

    for sigma, eps in [(0.5, 1.0), (2.0, 0.3), (5.0, 1.7)]:
        want = std_normal_cdf(1.0 / (2.0 * sigma) - eps * sigma) - math.exp(
            eps
        ) * std_normal_cdf(-1.0 / (2.0 * sigma) - eps * sigma)
        assert abs(gaussian_dp_lhs(sigma, eps) - want) < 1e-15


def test_gaussian_calibration_against_root_find():
    pp = PrivacyParams(1.0, 1e-5)
    res = calibrate_gaussian(pp)
    root = optimize.brentq(
        lambda s: gaussian_dp_lhs(s, 1.0) - 1e-5, 0.5, 10.0, xtol=1e-12
    )
    assert abs(root - oracles.GAUSS_SIGMA_EPS1_DELTA1E5) < 1e-9
    assert root <= res.sigma <= root + res.tolerance
    # far below the classical sqrt(2 log(1.25/delta))/eps over-estimate
    assert res.sigma < math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 1.0
    assert res.pure_epsilon is None


def test_gaussian_search_matches_bisection():
    # the unsteered lattice search probes the bisection's own sigmas, in
    # its order, so sigma, probe count and floor flag all agree exactly
    grid = itertools.product(
        (0.01, 0.3, 1.0, 5.0, 50.0),
        (1e-12, 1e-5, 0.1, 0.5, 0.999, 1.0 - 1e-12),
        (0.1, 1e-3, 1e-8),
    )
    targets = [(PrivacyParams(eps, delta), tol) for eps, delta, tol in grid]
    targets.append((PrivacyParams(1e25, 1e-5), 1e-3))  # passes at the floor
    for pp, tol in targets:
        res = calibrate_gaussian(pp, tol=tol)
        got = (res.sigma, res.search_iterations, res.hit_bracket_floor)
        assert got == oracles.bisect_calibrate_gaussian(pp, tol), (pp, tol)
    assert res.hit_bracket_floor


def test_gaussian_search_checks_its_arguments_once(monkeypatch):
    # its probes evaluate the formula unchecked: a finer tolerance adds
    # probes, not argument checks
    calls = 0

    def counting(*problems):
        nonlocal calls
        calls += 1
        require(*problems)

    for module in (l2mech.calibrate, l2mech.specfun):
        monkeypatch.setattr(module, "require", counting)
    seen = {}
    for tol in (1e-3, 1e-9):
        calls = 0
        probes = calibrate_gaussian(PrivacyParams(1.0, 1e-5), tol).search_iterations
        seen[tol] = (probes, calls)
    assert seen[1e-9][0] > seen[1e-3][0]
    assert seen[1e-9][1] == seen[1e-3][1]


def test_gaussian_minimality_and_monotonicity():
    for eps, delta in [(0.3, 1e-4), (2.0, 1e-6)]:
        res = calibrate_gaussian(PrivacyParams(eps, delta))
        assert gaussian_dp_lhs(res.sigma, eps) <= delta
        assert gaussian_dp_lhs(res.sigma - 2.0 * res.tolerance, eps) > delta
    # looser delta at fixed eps never needs more noise
    s1 = calibrate_gaussian(PrivacyParams(1.0, 1e-6)).sigma
    s2 = calibrate_gaussian(PrivacyParams(1.0, 1e-3)).sigma
    assert s2 <= s1


def test_gaussian_monte_carlo_consistency():
    # desk-scale delta so the boundary events are observable
    delta = 1e-2
    res = calibrate_gaussian(PrivacyParams(1.0, delta))
    est, se = oracles.mc_gaussian_lhs(res.sigma, 1.0, 1000000, seed=12)
    assert est <= delta + 3.0 * se
    est_low, se_low = oracles.mc_gaussian_lhs(0.95 * res.sigma, 1.0, 1000000, seed=13)
    assert est_low > delta - 3.0 * se_low


def test_gaussian_near_one_delta_shrinks_sigma():
    res = calibrate_gaussian(PrivacyParams(1.0, 0.999))
    assert res.sigma < 0.2  # versus 3.73 at delta = 1e-5
    for delta in [0.999, 0.5, 1e-5]:
        assert gaussian_dp_lhs(50.0, 1.0) <= delta  # huge sigma always passes


def test_laplace_formulas():
    pp = PrivacyParams(2.0, 1e-12)
    res = laplace_sigma(4, pp)
    assert math.isclose(res.sigma, math.sqrt(4.0) / (2.0 + 1e-12), rel_tol=1e-15)
    assert abs(res.sigma - 1.0) < 1e-9
    assert res.search_iterations == 0 and res.tolerance == 0.0
    assert res.pure_epsilon == math.sqrt(4.0) / res.sigma
    pp1 = PrivacyParams(1.0, 1e-5)
    upper = laplace_sigma(1, pp1).sigma
    lower = laplace_sigma_lower_bound(1, pp1)
    assert lower <= upper
    assert upper - lower < 1e-5
    assert math.isclose(lower, 1.0 / (1.0 - 2.0 * math.log1p(-1e-5)), rel_tol=1e-15)


def test_laplace_scaling_and_validation():
    pp = PrivacyParams(1.0, 1e-5)
    assert math.isclose(
        laplace_sigma(9, pp, sensitivity=3.0).sigma,
        3.0 * laplace_sigma(9, pp).sigma,
        rel_tol=1e-15,
    )
    with pytest.raises(ValueError):
        laplace_sigma(0, pp)
    with pytest.raises(ValueError):
        laplace_sigma_lower_bound(-1, pp)


def test_d1_l2_equals_laplace_lower_bound():
    # the mechanisms coincide in one dimension, and the calibrated scale
    # approaches the laplace budget split as delta shrinks; the closed
    # form passes its own certificate at the first probe
    for delta in [1e-5, 1e-8]:
        pp = PrivacyParams(1.0, delta)
        l2 = calibrate_l2(1, pp).sigma
        assert math.isclose(l2, laplace_sigma_lower_bound(1, pp), rel_tol=1e-12)
    res = calibrate_l2(1, PrivacyParams(1.0, 1e-5))
    assert res.sigma.hex() == "0x1.fffd60ebe2960p-1" and res.search_iterations == 1
