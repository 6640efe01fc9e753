"""Special-function kernels against quadrature goldens and identities."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import special

import oracles
from l2mech import specfun
from l2mech.specfun import (
    ConvergenceError,
    SpecFunResult,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    reg_inc_beta,
    reg_inc_beta_result,
    reg_lower_gamma,
    reg_lower_gamma_result,
    reg_upper_gamma,
    reg_upper_gamma_result,
    std_normal_cdf,
)

ABS_TOL = 1e-12


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
    # a scalar call is a 1x1 row of the vector kernel: a float, bit for
    # bit the one-element array call's value
    a = np.array([0.5, 1.0, 2.0, 7.0, 120.0, 5000.0])
    x = np.array([1e-9, 0.5, 1.0, 9.0, 100.0, 5100.0])
    for fn in (reg_lower_gamma, reg_upper_gamma):
        for i in range(a.size):
            got = fn(float(a[i]), float(x[i]))
            assert type(got) is float
            one = fn(a[i:i + 1], x[i:i + 1])
            assert got == one[0], (fn, a[i], x[i])
    vec = reg_lower_gamma(a, x)
    qvec = reg_upper_gamma(a, x)
    assert np.all(np.abs(vec + qvec - 1.0) < ABS_TOL)


@pytest.mark.parametrize("max_iter", [20000, 4])
def test_vector_kernels_match_masked_reference(max_iter):
    # scalar shapes, early exit and dropped elements change how much work
    # the loops do, never the arithmetic an element sees
    rng = np.random.default_rng(5)
    for d in (2, 3, 10, 100, 1000, 5000):
        shapes = [np.full(400, float(d)), rng.uniform(0.5, 2.0 * d, 400)]
        for a in shapes:
            x = a * rng.uniform(0.01, 3.0, 400)
            low = x < a + 1.0
            for sel, kernel, ref in (
                (low, specfun._gamma_series_vec, oracles.masked_gamma_series),
                (~low, specfun._gamma_cf_vec, oracles.masked_gamma_cf),
            ):
                want, iters, ok = ref(a[sel], x[sel], max_iter)
                for shape in (a[sel], specfun._uniform(a[sel])):
                    got = kernel(shape, x[sel], max_iter)
                    assert np.array_equal(got[0], want), (d, kernel)
                    assert got[1] == iters.max() and np.array_equal(got[2], ok)
        for a, b in ((np.full(400, (d - 1) / 2.0), np.full(400, 0.5)),
                     (rng.uniform(0.5, d, 400), rng.uniform(0.5, 3.0, 400))):
            x = rng.uniform(0.0, 1.0, 400)
            want, iters, ok = oracles.masked_betacf(a, b, x, max_iter)
            for pa, pb in ((a, b), (specfun._uniform(a), specfun._uniform(b))):
                got = specfun._betacf_vec(pa, pb, x, max_iter)
                assert np.array_equal(got[0], want), d
                assert got[1] == iters.max() and np.array_equal(got[2], ok)


def _check_hex_grids():
    # the radial grids of test_lossbounds.CHECK_HEX's case (100,
    # 0.2333..., eps 3, delta 1e-3, n_r=64, n_R=2000) as check_approx_dp
    # sends them to the gamma kernel, term1's 64 radii then term2's 2000,
    # over sigma
    sigma, tau = 0.2333333333333333, 3.0 * 0.2333333333333333
    r_star = sigma * inv_reg_upper_gamma(100.0, 0.01 * 1e-3)
    radii = np.concatenate([np.linspace((1.0 - tau) / 2.0, r_star, 64),
                            np.linspace((1.0 + tau) / 2.0, r_star, 2000)])
    return radii / sigma


@pytest.mark.parametrize("max_iter", [20000, 92, 4])
def test_gamma_array_call_is_the_flat_call_reshaped(max_iter):
    # an array call of any shape is one flat batch.  Term1's grid alone
    # converges after 91 series iterations and term2's after 94, so the
    # batch of both runs 94 and max_iter=92 does not converge
    x = _check_hex_grids()
    for fn in (reg_lower_gamma_result, reg_upper_gamma_result):
        flat = fn(100.0, x, max_iter)
        for shape in ((2, 1032), (24, 1, 86)):
            got = fn(np.full(shape[:-1] + (1,), 100.0), x.reshape(shape), max_iter)
            assert np.array_equal(got.value, flat.value.reshape(shape)), (fn, shape)
            assert (got.iterations, got.converged) == (flat.iterations, flat.converged)
        if max_iter == 20000:
            assert (flat.iterations, flat.converged) == (94, True)
        else:
            assert (flat.iterations, flat.converged) == (max_iter, False)


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
    assert np.max(np.abs(reg_lower_gamma(a, x) - special.gammainc(a, x))) < ABS_TOL


def test_result_objects_and_convergence_failure():
    res = reg_lower_gamma_result(3.0, 2.0)
    assert isinstance(res, SpecFunResult)
    assert res.converged and res.iterations >= 1
    starved = reg_upper_gamma_result(300.0, 400.0, max_iter=2)
    assert not starved.converged
    with pytest.raises(ConvergenceError):
        reg_upper_gamma(300.0, 400.0, max_iter=2)


def test_reg_inc_beta_closed_forms():
    assert reg_inc_beta(1.0, 3.5, 0.5) == 1.0
    assert abs(reg_inc_beta(0.5, 0.5, 0.5) - 0.5) < ABS_TOL
    assert abs(reg_inc_beta(0.25, 1.0, 2.0) - 0.4375) < ABS_TOL


def test_reg_inc_beta_frozen_goldens():
    for key, want in oracles.GOLDEN.items():
        if key[0] == "I":
            _, x, a, b = key
            assert abs(reg_inc_beta(x, a, b) - want) < ABS_TOL, key


def test_reg_inc_beta_reflection_identity():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=100)
    a = rng.uniform(0.2, 80.0, size=100)
    b = rng.uniform(0.2, 80.0, size=100)
    lhs = reg_inc_beta(x, a, b)
    rhs = 1.0 - reg_inc_beta(1.0 - x, b, a)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


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
            one = reg_inc_beta(np.array([x]), np.array([a]), np.array([b]))
            assert got == one[0], (x, a, b)


def test_reg_inc_beta_domain_errors():
    for args in [(-0.1, 1.0, 1.0), (1.1, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, -1.0)]:
        with pytest.raises(ValueError):
            reg_inc_beta(*args)
    starved = reg_inc_beta_result(0.5, 400.0, 300.0, max_iter=2)
    assert not starved.converged


def test_inv_reg_lower_gamma_basics():
    assert inv_reg_lower_gamma(1.0, 0.0) == 0.0
    assert abs(inv_reg_lower_gamma(1.0, 0.5) - math.log(2.0)) < 1e-12
    got = inv_reg_lower_gamma(2.0, 0.264241117657115357)
    assert math.isclose(got, 1.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        inv_reg_lower_gamma(2.0, 1.0)


def test_inv_reg_lower_gamma_round_trip():
    for a in [0.5, 1.0, 2.0, 10.0, 100.0, 1000.0]:
        for p in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999]:
            x = inv_reg_lower_gamma(a, p)
            assert math.isclose(reg_lower_gamma(a, x), p, rel_tol=1e-9)


def test_inv_reg_upper_gamma_tail_accuracy():
    # tiny tail masses must invert with relative accuracy, the outer
    # grid radius depends on them
    for a in [1.0, 3.0, 50.0]:
        for q in [1.0 - 1e-9, 0.5, 1e-3, 1e-7, 1e-12]:
            x = inv_reg_upper_gamma(a, q)
            assert math.isclose(reg_upper_gamma(a, x), q, rel_tol=1e-9)
            assert math.isclose(x, special.gammainccinv(a, q), rel_tol=1e-9)
    with pytest.raises(ValueError):
        inv_reg_upper_gamma(2.0, 0.0)


def test_gamma_inverses_against_mpmath():
    # both tails at 40 digits, for masses from 1e-300 to 1/2, wherever
    # the exact quantile is a normal float.  One Newton step at 40 digits
    # from the returned x gives the exact quantile to ~(1e-12)^2
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
                if not upper and below_floats >= mass:
                    continue
                invert = inv_reg_upper_gamma if upper else inv_reg_lower_gamma
                x = invert(a, mass)
                xm = mpmath.mpf(x)
                if upper:
                    tail = mpmath.gammainc(big, xm, mpmath.inf, regularized=True)
                else:
                    tail = mpmath.gammainc(big, 0, xm, regularized=True)
                density = mpmath.exp((big - 1) * mpmath.log(xm) - xm - log_gamma)
                step = (tail - mass) / density
                exact = xm + step if upper else xm - step
                assert abs(xm - exact) <= 1e-12 * exact, (a, mass, upper, x)
                checked += 1
    # only a = 0.5 puts lower-tail quantiles (of 1e-300, 1e-250 and
    # 1e-200) below the normal floats
    assert checked == 8 * len(masses) * 2 - 3


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.96) - oracles.GOLDEN[("Phi", 1.96)]) < ABS_TOL
    for t in [-3.7, -0.4, 0.9, 5.2]:
        assert abs(std_normal_cdf(t) + std_normal_cdf(-t) - 1.0) < ABS_TOL
        assert abs(std_normal_cdf(t) - special.ndtr(t)) < ABS_TOL
    with pytest.raises(ValueError):
        std_normal_cdf(math.nan)
