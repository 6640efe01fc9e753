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
    # a 2-D call: each row against masked references on that row alone,
    # the series stopping per row (row 0 stays below 0.8 a, so it
    # converges before row 1), the continued fraction shared; a generator
    # of its own leaves the cases above as they were
    rows_rng = np.random.default_rng(6)
    for d in (2, 3, 10, 100, 1000, 5000):
        for a in (np.full((2, 300), float(d)), rows_rng.uniform(0.5, 2.0 * d, (2, 300))):
            x = a * np.stack([rows_rng.uniform(0.01, 0.8, 300),
                              rows_rng.uniform(0.01, 3.0, 300)])
            p, q, iters, conv = specfun._gamma_pq_vec(a, x, max_iter)
            most = 0
            for k in range(2):
                low = x[k] < a[k] + 1.0
                for sel, got, ref in ((low, p, oracles.masked_gamma_series),
                                      (~low, q, oracles.masked_gamma_cf)):
                    want, it, ok = ref(a[k][sel], x[k][sel], max_iter)
                    assert np.array_equal(got[k][sel], want), (d, k, ref)
                    assert np.array_equal(conv[k][sel], ok), (d, k, ref)
                    most = max(most, it.max(initial=0))
            assert iters == most, d


def _check_hex_rows():
    # the radial grids of test_lossbounds.CHECK_HEX's case (100,
    # 0.2333..., eps 3, delta 1e-3, n_r=64, n_R=2000) as check_approx_dp
    # stacks them, term1's 64 radii padded with r_star, over sigma
    sigma, tau = 0.2333333333333333, 3.0 * 0.2333333333333333
    r_star = sigma * inv_reg_upper_gamma(100.0, 0.01 * 1e-3)
    radii = np.full((2, 2000), r_star)
    radii[0, :64] = np.linspace((1.0 - tau) / 2.0, r_star, 64)
    radii[1] = np.linspace((1.0 + tau) / 2.0, r_star, 2000)
    return radii / sigma


@pytest.mark.parametrize("max_iter", [20000, 92, 4])
def test_gamma_rows_match_one_dim_calls(max_iter):
    # row 0's series converges after 91 iterations and row 1's after 94:
    # one batch of both would keep adding terms to row 0, and max_iter=92
    # converges row 0 but not row 1
    x = _check_hex_rows()
    for fn in (reg_lower_gamma_result, reg_upper_gamma_result):
        both = fn(100.0, x, max_iter)
        ones = [fn(100.0, row, max_iter) for row in x]
        for k, one in enumerate(ones):
            assert np.array_equal(both.value[k], one.value), (fn, k)
        assert both.iterations == max(one.iterations for one in ones)
        assert both.converged == all(one.converged for one in ones)
        # rows are the slices along the last axis, whatever the leading shape
        deep = fn(np.full((2, 1, 1), 100.0), x[:, None, :], max_iter)
        assert np.array_equal(deep.value[:, 0, :], both.value)
        assert (deep.iterations, deep.converged) == (both.iterations, both.converged)
    if max_iter == 20000:
        assert [one.iterations for one in ones] == [91, 94]
        plain = reg_lower_gamma(100.0, x)
        assert all(np.array_equal(plain[k], reg_lower_gamma(100.0, x[k])) for k in range(2))
    if max_iter == 92:
        assert [one.converged for one in ones] == [True, False]
    # element flags, which the result objects fold into one bool
    a = np.full(x.shape, 100.0)
    p, q, iters, conv = specfun._gamma_pq_vec(a, x, max_iter)
    for k in range(2):
        p1, q1, it1, conv1 = specfun._gamma_pq_vec(a[k:k + 1], x[k:k + 1], max_iter)
        assert np.array_equal(p[k], p1[0]) and np.array_equal(q[k], q1[0])
        assert np.array_equal(conv[k], conv1[0]) and it1 <= iters


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
