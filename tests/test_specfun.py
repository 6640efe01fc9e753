"""Special-function kernels against quadrature goldens and identities."""

import inspect
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from l2mech import specfun
from l2mech.specfun import (
    ConvergenceError,
    SpecFunResult,
    inv_reg_lower_gamma,
    reg_inc_beta,
    reg_inc_beta_result,
    reg_lower_gamma,
    reg_lower_gamma_result,
    reg_upper_gamma,
    std_normal_cdf,
)

ABS_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)


def test_reg_lower_gamma_closed_forms():
    assert reg_lower_gamma(1.0, 0.0) == 0.0
    assert abs(reg_lower_gamma(1.0, 1.0) - (1.0 - math.exp(-1.0))) < ABS_TOL
    assert abs(reg_lower_gamma(2.0, 1.0) - (1.0 - 2.0 * math.exp(-1.0))) < ABS_TOL


def test_reg_lower_gamma_frozen_goldens():
    for key, want in oracles.GOLDEN.items():
        if key[0] == "P":
            _, a, x = key
            assert abs(reg_lower_gamma(a, x) - want) < ABS_TOL, (a, x)


def test_reg_lower_gamma_live_quadrature():
    for a, x in [(2.0, 1.0), (7.5, 3.25), (1.0, 0.3)]:
        want = oracles.quad_reg_lower_gamma(a, x)
        assert abs(reg_lower_gamma(a, x) - want) < ABS_TOL


def test_reg_lower_gamma_monotone_and_bounded():
    rng = np.random.default_rng(0)
    for a in [0.5, 1.0, 3.0, 47.0, 500.0]:
        xs = np.sort(rng.uniform(0.0, 3.0 * a + 10.0, size=60))
        vals = reg_lower_gamma(a, xs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_reg_upper_gamma_complement_and_tail():
    for a, x in [(1.0, 0.5), (3.0, 2.0), (10.0, 14.0), (200.0, 180.0)]:
        assert abs(reg_lower_gamma(a, x) + reg_upper_gamma(a, x) - 1.0) < ABS_TOL
    # the tail is computed directly, so relative accuracy survives at 5e-9
    want = oracles.GOLDEN[("Q", 3.0, 25.0)]
    assert math.isclose(reg_upper_gamma(3.0, 25.0), want, rel_tol=1e-11)


def test_reg_lower_gamma_large_shape_no_overflow():
    # naive gamma(a) overflows near a=171; these must stay finite
    for a, x in [(5000.0, 5000.0), (5000.0, 4800.0), (10000.0, 10100.0)]:
        val = reg_lower_gamma(a, x)
        assert math.isfinite(val) and 0.0 < val < 1.0
    got = reg_lower_gamma(5000.0, 5000.0)
    assert abs(got - oracles.GOLDEN[("P", 5000.0, 5000.0)]) < ABS_TOL


def test_reg_lower_gamma_domain_errors():
    for bad in [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            reg_lower_gamma(*bad)


def test_gamma_vector_matches_scalar():
    # a number x is a 1x1 row of the vector kernel: a float, bit for bit
    # the one-element array call's value
    a = np.array([0.5, 1.0, 2.0, 7.0, 120.0, 5000.0])
    x = np.array([1e-9, 0.5, 1.0, 9.0, 100.0, 5100.0])
    for i in range(a.size):
        for fn in (reg_lower_gamma, reg_upper_gamma):
            got = fn(float(a[i]), float(x[i]))
            assert type(got) is float
            one = fn(float(a[i]), x[i:i + 1])
            assert got == one[0], (fn, a[i], x[i])
        p, q = reg_lower_gamma(float(a[i]), x[i]), reg_upper_gamma(float(a[i]), x[i])
        assert abs(p + q - 1.0) < ABS_TOL


def _fraction_arguments(d, rng):
    # what _gamma_pq_vec sends Q's fraction at a = d, and what
    # _betainc_vec sends I_x's at a = (d - 1)/2, b = 1/2: x below the
    # mean, and 1 - x above it for the complement
    a = float(d)
    x = a * rng.uniform(0.01, 3.0, 400)
    gamma = x[x >= a + 1.0]
    a, b = (d - 1) / 2.0, 0.5
    x = rng.uniform(0.0, 1.0, 400)
    direct = x < (a + 1.0) / (a + b + 2.0)
    betas = ((a, b, x[direct]), (b, a, 1.0 - x[~direct]))
    return gamma, [beta for beta in betas if beta[2].size]


@pytest.mark.parametrize("cap", [20000, 4])
def test_vector_kernels_match_reference_kernels(cap, monkeypatch):
    # the series, with its early exit, matches the masked reference bit
    # for bit.  Each continued fraction matches a scalar backward
    # evaluation over the same terms bit for bit, and the masked
    # forward-Lentz reference within the rounding the two schemes differ
    # by, at the default iteration cap and at one that stops every loop
    monkeypatch.setattr(specfun, "_MAX_ITER", cap)
    rng = np.random.default_rng(5)
    for d in (2, 3, 10, 100, 1000, 5000):
        a = np.full(400, float(d))
        x = a * rng.uniform(0.01, 3.0, 400)
        low = x < a + 1.0
        want, iters, ok = oracles.masked_gamma_series(a[low], x[low], cap)
        got = specfun._gamma_series_vec(float(d), x[low])
        assert np.array_equal(got[0], want), d
        assert got[1:] == (iters.max(), ok.all())
        gamma, betas = _fraction_arguments(d, rng)
        want = oracles.backward_gamma_cf(float(d), gamma, cap)
        got = specfun._gamma_cf_vec(float(d), gamma)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], d
        if cap == 20000:
            lentz = oracles.masked_gamma_cf(np.full(gamma.size, float(d)), gamma, cap)[0]
            assert np.all(np.abs(got[0] - lentz) <= 2.0e-15 * lentz), d
        for a, b, x in betas:
            want = oracles.backward_betacf(a, b, x, cap)
            got = specfun._betacf_vec(a, b, x)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], (a, b)
            if cap == 20000:
                shapes = np.full(x.size, a), np.full(x.size, b)
                lentz = oracles.masked_betacf(*shapes, x, cap)[0]
                assert np.all(np.abs(got[0] - lentz) <= 4.7e-15 * lentz), (a, b)


def _with_more_terms(monkeypatch, extra):
    # every continued fraction evaluates extra more iterations than its count
    count = specfun._cf_length

    def longer(*args, **kwargs):
        n, conv = count(*args, **kwargs)
        return n + extra, conv

    monkeypatch.setattr(specfun, "_cf_length", longer)


def _fraction_values(batches):
    out = []
    for kind, a, b, x in batches:
        if kind == "gamma":
            out.append(specfun._gamma_cf_vec(a, x)[0])
        else:
            out.append(specfun._betacf_vec(a, b, x)[0])
    return out


def test_no_certificate_runs_an_iterative_kernel(monkeypatch):
    # every certificate branch is closed-form: no CHECK_HEX check, at any
    # dimension, and no d = 2 calibration calls the gamma series, the gamma
    # fraction or the beta fraction, so none can fail to converge
    from l2mech.calibrate import PrivacyParams, calibrate_l2
    from l2mech.lossbounds import check_approx_dp
    from test_lossbounds import CHECK_HEX

    calls = []

    def spy(name, kernel):
        def counted(*args):
            calls.append(name)
            return kernel(*args)

        return counted

    for name in ("_gamma_series_vec", "_gamma_cf_vec", "_betacf_vec"):
        monkeypatch.setattr(specfun, name, spy(name, getattr(specfun, name)))
    for d, sigma, eps, delta, n_r, n_R, *_ in CHECK_HEX:
        check_approx_dp(d, sigma, PrivacyParams(eps, delta), n_r, n_R)
    calibrate_l2(2, PrivacyParams(1.0, 1e-5))
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    log_a=st.floats(math.log(0.5), math.log(5000.0)),
    u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50),
    swap=st.booleans(),
)
@example(log_a=8.3312454359737, u=[0.99999], swap=False)
def test_beta_fraction_truncation_has_converged(log_a, u, swap):
    # I_x(a, 1/2)'s fraction, on a random batch of the arguments that
    # _betainc_vec sends it: x below the mean, or 1 - x for the complement.
    # The example sits just below the mean at a near 4150, where a margin
    # of a quarter more iterations stopped 50 ulps short
    a, b = math.exp(log_a), 0.5
    mean = (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x = b, a, (1.0 - mean) * np.array(u)
    else:
        x = mean * np.array(u)
    batch = [("beta", a, b, x)]
    want = _fraction_values(batch)[0]
    with pytest.MonkeyPatch.context() as mp:
        _with_more_terms(mp, 8)
        got = _fraction_values(batch)[0]
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    log_d=st.floats(0.0, math.log(5000.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(log_d=math.log(2.0), seed=0)
def test_gamma_fraction_truncation_has_converged(log_d, seed):
    # Q(d, x)'s fraction at an integer shape d, on a random batch of the
    # arguments _gamma_pq_vec sends it: x >= d + 1, within a quarter of
    # d + 1, where the fraction converges slowest; d = 2, the circle's
    # radial law, is always among the draws
    a = float(round(math.exp(log_d)))
    u = np.random.default_rng(seed).uniform(0.0, 1.0, 64)
    batch = [("gamma", a, None, (a + 1.0) * (1.0 + 0.25 * u))]
    want = _fraction_values(batch)[0]
    with pytest.MonkeyPatch.context() as mp:
        _with_more_terms(mp, 8)
        got = _fraction_values(batch)[0]
    assert np.array_equal(got, want)


def _check_hex_grids():
    # the radial grids of test_lossbounds.CHECK_HEX's case (100,
    # 0.2333..., eps 3, delta 1e-3, n_r=64, n_R=2000) as the radial sums
    # would build them, term1's 64 radii then term2's 2000, over sigma: a
    # batch that straddles a + 1 at a = 100.  No certificate sends the
    # gamma kernel anything: d = 100 takes the prolate form, and d = 2
    # takes Q(2, x) = e^-x (1 + x) in closed form.  r_star / sigma is
    # the x with Q(100, x) = 1e-5, frozen so that the batch keeps its bits
    sigma, tau = 0.2333333333333333, 3.0 * 0.2333333333333333
    r_star = sigma * float.fromhex("0x1.28ff2b4175e41p+7")
    radii = np.concatenate([np.linspace((1.0 - tau) / 2.0, r_star, 64),
                            np.linspace((1.0 + tau) / 2.0, r_star, 2000)])
    return radii / sigma


@pytest.mark.parametrize("cap", [20000, 48, 4])
def test_gamma_array_call_is_the_flat_call_reshaped(cap, monkeypatch):
    # an array call of any shape is one flat batch.  The series takes
    # every element below a + 1 = 101, the largest at 100.96, where it
    # needs the most terms: term1's grid alone converges after 91
    # iterations and term2's after 94, so the batch of both runs 94.  The
    # fraction above needs 50, so a cap of 48, or of 4, stops both
    # regimes and the batch reports the cap
    x = _check_hex_grids()
    reported = {20000: (94, True), 48: (48, False), 4: (4, False)}[cap]
    monkeypatch.setattr(specfun, "_MAX_ITER", cap)
    flat = reg_lower_gamma_result(100.0, x)
    for shape in ((2, 1032), (24, 1, 86)):
        got = reg_lower_gamma_result(100.0, x.reshape(shape))
        assert np.array_equal(got.value, flat.value.reshape(shape)), shape
        assert (got.iterations, got.converged) == (flat.iterations, flat.converged)
    assert (flat.iterations, flat.converged) == reported


def test_large_shape_gamma_far_below_the_mean_against_mpmath():
    # for a >= 20 and x << a the rounding of t = x/a - 1 swamps the
    # relative size of x/a, so the log prefactor takes log(x/a) there
    with mpmath.workdps(40):
        for a, x in ((21.07, 3.5e-13), (100.0, 0.0384), (30.0, 1e-6), (1000.0, 300.0)):
            want = mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x), regularized=True)
            got = reg_lower_gamma(a, x)
            assert abs(got - want) <= 1e-12 * want, (a, x, got)
        # a lower-tail quantile there, against one Newton step at 40
        # digits as in test_gamma_inverses_against_mpmath
        a, mass = 21.07, 5.1e-283
        xm, big = mpmath.mpf(inv_reg_lower_gamma(a, mass)), mpmath.mpf(a)
        tail = mpmath.gammainc(big, 0, xm, regularized=True)
        density = mpmath.exp((big - 1) * mpmath.log(xm) - xm - mpmath.loggamma(big))
        exact = xm - (tail - mass) / density
        assert abs(xm - exact) <= 1e-12 * exact


def test_gamma_scipy_cross_check_grid():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 2000.0, size=200)
    x = a * rng.uniform(0.1, 2.5, size=200)
    got = np.array([reg_lower_gamma(ai, xi) for ai, xi in zip(a, x)])
    assert np.max(np.abs(got - special.gammainc(a, x))) < ABS_TOL


def _gamma_sample(a):
    # x across _log1pmx_vec's series region |x/a - 1| <= 0.4 and past
    # it, with both sides of each seam
    x = a * np.linspace(0.6, 1.4, 33)
    seams = [0.6 * a, a, a + 1.0, 1.4 * a]
    near = [np.nextafter(v, v + side) for v in seams for side in (-np.inf, np.inf)]
    return np.sort(np.concatenate([x, seams, near]))


def _tail_errors(a, x):
    # relative error of the smaller tail, P below a and Q above, wherever
    # the 40-digit tail is a normal float
    p, q = reg_lower_gamma(a, x), reg_upper_gamma(a, x)
    errs = []
    with mpmath.workdps(40):
        big = mpmath.mpf(a)
        for xi, pi, qi in zip(x, p, q):
            xm, upper = mpmath.mpf(xi), xi >= a
            if upper:
                want = mpmath.gammainc(big, xm, mpmath.inf, regularized=True)
            else:
                want = mpmath.gammainc(big, 0, xm, regularized=True)
            if want > 1e-300:
                errs.append(float(abs((qi if upper else pi) - want) / want))
    return max(errs)


# per band of shapes, the largest error that the series and continued
# fraction alone made on the same sample (3.93e-15, 1.24e-14, 1.17e-13
# and 4.85e-13), rounded up
GAMMA_BANDS = {
    (20.0, 27.5, 45.0): 4.0e-15,
    (64.5, 100.0, 210.0): 1.3e-14,
    (500.5, 1000.0, 2000.0): 1.2e-13,
    (5000.0, 10000.0): 4.9e-13,
}


def test_large_shape_gamma_against_mpmath():
    for shapes, bound in GAMMA_BANDS.items():
        worst = max(_tail_errors(a, _gamma_sample(a)) for a in shapes)
        assert worst <= bound, (shapes, worst)


@pytest.mark.parametrize("a", [19.5, 20.0, 100.0, 1e4])
def test_gamma_monotone_across_seams(a):
    # fine sweeps over every switch: the series/CF switch at x = a + 1,
    # for a >= 20 the edges of _log1pmx_vec's atanh series at x = 0.6a
    # and 1.4a, and x = a, where t = x/a - 1 changes sign
    for seam in (0.6 * a, a, a + 1.0, 1.4 * a):
        x = seam + np.linspace(-1.0, 1.0, 401) * 1e-3 * math.sqrt(a)
        p, q = reg_lower_gamma(a, x), reg_upper_gamma(a, x)
        assert np.all(np.isfinite(p)) and np.all(np.isfinite(q))
        assert np.all(np.diff(p) >= 0.0) and np.all(np.diff(q) <= 0.0), (a, seam)
        assert np.all(np.abs(p + q - 1.0) <= _EPS), (a, seam)


def test_large_shape_gamma_underflows_to_zero():
    # a tail below the smallest float is 0, never NaN, on every path: the
    # series and the fraction, each with the log prefactor's atanh series
    # (0.6a to 1.4a) and its logarithm forms beyond
    for a, ratios in ((1e4, [0.05, 0.3, 0.6, 0.61, 2.0, 3.0]), (1e5, [0.7, 1.3])):
        x = a * np.array(ratios)
        p, q = reg_lower_gamma(a, x), reg_upper_gamma(a, x)
        assert np.array_equal(np.minimum(p, q), np.zeros(x.size)), a
        assert np.array_equal(p + q, np.ones(x.size)), a


def test_result_objects_and_convergence_failure(monkeypatch):
    res = reg_lower_gamma_result(3.0, 2.0)
    assert isinstance(res, SpecFunResult)
    assert res.converged and res.iterations >= 1
    # x = 600 lies above a + 1, so the continued fraction serves P and Q
    # alike, and 2 iterations cannot settle it
    monkeypatch.setattr(specfun, "_MAX_ITER", 2)
    starved = reg_lower_gamma_result(300.0, 600.0)
    assert (starved.iterations, starved.converged) == (2, False)
    with pytest.raises(ConvergenceError, match="within 2 iterations"):
        reg_upper_gamma(300.0, 600.0)


def test_reg_inc_beta_closed_forms():
    assert reg_inc_beta(1.0, 3.5, 0.5) == 1.0
    assert abs(reg_inc_beta(0.5, 0.5, 0.5) - 0.5) < ABS_TOL
    assert abs(reg_inc_beta(0.25, 1.0, 2.0) - 0.4375) < ABS_TOL


def test_reg_inc_beta_frozen_goldens():
    for key, want in oracles.GOLDEN.items():
        if key[0] == "I":
            _, x, a, b = key
            assert abs(reg_inc_beta(x, a, b) - want) < ABS_TOL, key


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.2, 80.0),
    b=st.floats(0.2, 80.0),
    x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_reg_inc_beta_reflection_identity(a, b, x):
    # I_x(a, b) = 1 - I_(1-x)(b, a), and P(a, y) + Q(a, y) = 1, for one
    # shape and an array argument.  x is moved to 1 - (1 - x) so that
    # 1 - x is its exact complement: at x = 6e-28 the rounded 1 - x is 1
    x = 1.0 - (1.0 - np.array(x))
    lhs = reg_inc_beta(x, a, b)
    rhs = 1.0 - reg_inc_beta(1.0 - x, b, a)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    y = 3.0 * a * x
    total = reg_lower_gamma(a, y) + reg_upper_gamma(a, y)
    assert np.max(np.abs(total - 1.0)) < ABS_TOL


def test_reg_inc_beta_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 200)
    for a, b in [(0.5, 0.5), (49.5, 0.5), (3.0, 7.0)]:
        vals = reg_inc_beta(xs, a, b)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == 0.0 and vals[-1] == 1.0


def test_scalar_beta_runs_the_vector_kernel():
    for x in (0.0, 0.1, 0.36, 0.5, 0.9, 0.9999, 1.0):
        for a, b in ((0.5, 0.5), (4.5, 0.5), (49.5, 0.5), (499.5, 0.5), (2.0, 3.0)):
            got = reg_inc_beta(x, a, b)
            assert type(got) is float
            one = reg_inc_beta(np.array([x]), a, b)
            assert got == one[0], (x, a, b)


def _beta_errors(a, b, x):
    got = reg_inc_beta(x, a, b)
    errs = []
    with mpmath.workdps(40):
        for xi, gi in zip(x, got):
            want = mpmath.betainc(
                mpmath.mpf(a), mpmath.mpf(b), 0, mpmath.mpf(xi), regularized=True
            )
            if want > 1e-300:
                errs.append(float(abs(gi - want) / want))
    return max(errs)


def test_beta_large_shape_prefactor_against_mpmath():
    # lgamma(a + b) - lgamma(a) cancels O(a log a) terms down to O(b log
    # a); formed directly it cost I_x(a, 1/2) up to 5e-11 at a = 4999.5.
    # The fraction takes the Stirling-form difference on both sides of the
    # mean.  At b = 2 the mean lies inside this range, where the
    # fraction's outermost step 1 - (a + b) x / (a + 1) would cancel
    for a in (499.5, 1999.5, 4999.5):
        x = 1.0 - np.geomspace(0.1 / a, 20.0 / a, 12)
        for b in (0.5, 1.0, 2.0):
            assert _beta_errors(a, b, x) <= 1e-13, (a, b)
        with mpmath.workdps(40):
            for b in (0.5, 2.0):
                want = mpmath.loggamma(a + b) - mpmath.loggamma(a)
                got = specfun._lgamma_ratio(a, b)
                assert abs(got - want) <= 1e-15 * want, (a, b)


# I_x(a, 1/2) with 1 - x from 0.1/a to 0.6 and around 0.3, at the
# prefactor's 1e-13 (the continued fraction with the direct prefactor
# made 9.8e-14, 1.15e-12 and 6.09e-11 here)
BETA_BANDS = {
    (15.0, 15.5, 20.0, 49.5): 1e-13,
    (100.0, 499.5): 1e-13,
    (1999.5, 4999.5): 1e-13,
}


def _beta_sample(a):
    y = np.concatenate([np.geomspace(0.1 / a, 0.6, 24), [0.3]])
    edge = [np.nextafter(y[-1], 0.0), np.nextafter(y[-1], 1.0)]
    return 1.0 - np.concatenate([y, edge])


def test_large_shape_beta_against_mpmath():
    for shapes, bound in BETA_BANDS.items():
        worst = max(_beta_errors(a, 0.5, _beta_sample(a)) for a in shapes)
        assert worst <= bound, (shapes, worst)


@pytest.mark.parametrize("a", [14.5, 15.0, 100.0, 4999.5])
def test_beta_monotone_across_seams(a):
    # the continued fraction's switch to the complement at x = (a + 1)/
    # (a + 2.5), and x = 0.7 inside one regime; a tail below the smallest
    # float is 0, never NaN
    for seam in (0.7, (a + 1.0) / (a + 2.5)):
        x = seam + np.linspace(-1.0, 1.0, 401) * 1e-3 * (1.0 - seam)
        got = reg_inc_beta(x, a, 0.5)
        assert np.all(np.isfinite(got)), (a, seam)
        assert np.all(np.diff(got) >= 0.0), (a, seam)
    assert reg_inc_beta(0.71, 4999.5, 0.5) == 0.0


def test_beta_near_one_calls_no_gamma_kernel(monkeypatch):
    # I_x(a, b) is its continued fraction up to x = 1 at large a and
    # b <= 1 too: the beta kernel never calls the gamma kernel
    calls = []
    gamma_pq = specfun._gamma_pq_vec

    def spy(a, x):
        calls.append(a)
        return gamma_pq(a, x)

    monkeypatch.setattr(specfun, "_gamma_pq_vec", spy)
    x = 1.0 - np.geomspace(1e-9, 0.3, 40, endpoint=False)
    for a in (15.0, 499.5, 4999.5):
        for b in (0.5, 1.0):
            got = reg_inc_beta(x, a, b)
            assert np.all((got >= 0.0) & (got <= 1.0)), (a, b)
    assert calls == []


def test_reg_inc_beta_domain_errors(monkeypatch):
    for args in [(-0.1, 1.0, 1.0), (1.1, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, -1.0)]:
        with pytest.raises(ValueError):
            reg_inc_beta(*args)
    # 2 iterations cannot settle I_0.5(400, 300)'s continued fraction
    monkeypatch.setattr(specfun, "_MAX_ITER", 2)
    starved = reg_inc_beta_result(0.5, 400.0, 300.0)
    assert (starved.iterations, starved.converged) == (2, False)
    with pytest.raises(ConvergenceError, match="within 2 iterations"):
        reg_inc_beta(0.5, 400.0, 300.0)


def test_inv_reg_lower_gamma_basics():
    assert inv_reg_lower_gamma(1.0, 0.0) == 0.0
    assert abs(inv_reg_lower_gamma(1.0, 0.5) - math.log(2.0)) < 1e-12
    got = inv_reg_lower_gamma(2.0, 0.264241117657115357)
    assert math.isclose(got, 1.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        inv_reg_lower_gamma(2.0, 1.0)


def test_inv_reg_lower_gamma_below_the_smallest_float_is_zero():
    # at a = 0.01 the smallest positive float already holds P ~ 5.9e-4, so
    # the quantile of a smaller mass lies below it and 0.0 is the answer
    assert reg_lower_gamma(0.01, 5e-324) > 1e-10
    assert inv_reg_lower_gamma(0.01, 1e-10) == 0.0


def test_inv_reg_lower_gamma_round_trip():
    for a in [0.5, 1.0, 2.0, 10.0, 100.0, 1000.0]:
        for p in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999]:
            x = inv_reg_lower_gamma(a, p)
            assert math.isclose(reg_lower_gamma(a, x), p, rel_tol=1e-9)


def test_gamma_inverses_against_mpmath():
    # both tails at 40 digits, for masses from 1e-300 to 1/2, wherever
    # the exact quantile is a normal float and the public inverse reaches
    # it: an upper-tail mass q as p = 1 - q, which keeps q >= 1e-12, with
    # the float p's exact complement as the target.  One Newton step at
    # 40 digits from the returned x gives the exact quantile to ~(1e-12)^2
    masses = [10.0**-k for k in (300, 250, 200, 150, 100, 50, 30, 20, 12, 7, 3, 1)]
    masses += [0.3, 0.5]
    smallest = float(np.finfo(np.float64).tiny)
    checked = 0
    with mpmath.workdps(40):
        for a in (0.5, 1.0, 2.0, 3.0, 10.0, 100.0, 1e3, 1e4):
            big = mpmath.mpf(a)
            log_gamma = mpmath.loggamma(big)
            below_floats = mpmath.gammainc(big, 0, smallest, regularized=True)
            for mass, upper in itertools.product(masses, (False, True)):
                if (upper and mass < 1e-12) or (not upper and below_floats >= mass):
                    continue
                p = 1.0 - mass if upper else mass
                x = inv_reg_lower_gamma(a, p)
                xm = mpmath.mpf(x)
                if upper:
                    tail = mpmath.gammainc(big, xm, mpmath.inf, regularized=True)
                    target = 1 - mpmath.mpf(p)
                else:
                    tail = mpmath.gammainc(big, 0, xm, regularized=True)
                    target = mpmath.mpf(p)
                density = mpmath.exp((big - 1) * mpmath.log(xm) - xm - log_gamma)
                step = (tail - target) / density
                exact = xm + step if upper else xm - step
                assert abs(xm - exact) <= 1e-12 * exact, (a, mass, upper, x)
                checked += 1
    # only a = 0.5 puts lower-tail quantiles (of 1e-300, 1e-250 and
    # 1e-200) below the normal floats; six masses reach the upper tail
    assert checked == 8 * (len(masses) + 6) - 3
    # a clamped Newton step from below lands where P = 1 and the density
    # underflows, so the step has no slope to divide by
    with mpmath.workdps(40):
        for a in (536.25, 550.0, 561.5):
            x = inv_reg_lower_gamma(a, 1e-300)
            big, xm = mpmath.mpf(a), mpmath.mpf(x)
            tail = mpmath.gammainc(big, 0, xm, regularized=True)
            density = mpmath.exp((big - 1) * mpmath.log(xm) - xm - mpmath.loggamma(big))
            exact = xm - (tail - 1e-300) / density
            assert abs(xm - exact) <= 1e-12 * exact, (a, x)


@pytest.mark.parametrize(
    "fn, args, name",
    [
        (reg_lower_gamma, (2.0, 0.5), "a"),
        (reg_upper_gamma, (2.0, 0.5), "a"),
        (reg_inc_beta, (0.3, 2.0, 0.5), "a"),
        (reg_inc_beta_result, (0.3, 2.0, 0.5), "b"),
        (inv_reg_lower_gamma, (2.0, 0.25), "a"),
        (inv_reg_lower_gamma, (2.0, 0.25), "p"),
        (reg_lower_gamma_result, (2.0, 0.5), "a"),
        (reg_inc_beta, (0.3, 2.0, 0.5), "b"),
        (std_normal_cdf, (0.3,), "t"),
    ],
)
def test_one_number_arguments(fn, args, name):
    # a shape, mass or point is one number: a numpy scalar or a 0-d array
    # gives the float call's value, and an array is refused by name
    at = list(inspect.signature(fn).parameters).index(name)

    def call(value):
        return fn(*args[:at], value, *args[at + 1:])

    want = call(args[at])
    assert call(np.float64(args[at])) == want
    assert call(np.array(args[at])) == want
    with pytest.raises(ValueError, match=f"^{name} must be one number"):
        call(np.array([args[at], args[at]]))


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.96) - oracles.GOLDEN[("Phi", 1.96)]) < ABS_TOL
    for t in [-3.7, -0.4, 0.9, 5.2]:
        assert abs(std_normal_cdf(t) + std_normal_cdf(-t) - 1.0) < ABS_TOL
        assert abs(std_normal_cdf(t) - special.ndtr(t)) < ABS_TOL
    with pytest.raises(ValueError):
        std_normal_cdf(math.nan)
