"""Special-function kernels against quadrature goldens and identities."""

import math

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
    a = np.array([1.0, 2.0, 7.0, 120.0, 5000.0])
    x = np.array([0.5, 1.0, 9.0, 100.0, 5100.0])
    vec = reg_lower_gamma(a, x)
    for i in range(a.size):
        # accumulation order differs between the paths, so a few ulp
        scalar = reg_lower_gamma(float(a[i]), float(x[i]))
        assert math.isclose(vec[i], scalar, rel_tol=5e-14, abs_tol=5e-14)
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
    for a in [1.0, 2.0, 10.0, 100.0, 1000.0]:
        for p in [1e-6, 0.01, 0.3, 0.5, 0.9, 0.999]:
            x = inv_reg_lower_gamma(a, p)
            assert math.isclose(reg_lower_gamma(a, x), p, rel_tol=1e-9)


def test_inv_reg_upper_gamma_tail_accuracy():
    # tiny tail masses must invert with relative accuracy, the outer
    # grid radius depends on them
    for a in [1.0, 3.0, 50.0]:
        for q in [0.5, 1e-3, 1e-7, 1e-12]:
            x = inv_reg_upper_gamma(a, q)
            assert math.isclose(reg_upper_gamma(a, x), q, rel_tol=1e-9)
            assert math.isclose(x, special.gammainccinv(a, q), rel_tol=1e-9)
    with pytest.raises(ValueError):
        inv_reg_upper_gamma(2.0, 0.0)


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.96) - oracles.GOLDEN[("Phi", 1.96)]) < ABS_TOL
    for t in [-3.7, -0.4, 0.9, 5.2]:
        assert abs(std_normal_cdf(t) + std_normal_cdf(-t) - 1.0) < ABS_TOL
        assert abs(std_normal_cdf(t) - special.ndtr(t)) < ABS_TOL
    with pytest.raises(ValueError):
        std_normal_cdf(math.nan)
