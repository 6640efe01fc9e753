"""End-to-end acceptance gate.

One test per headline guarantee, each enforcing its stated tolerance
and printing a single ACCEPTANCE line (shown under -rA or -s).  Seeds
and thresholds are frozen; a failure here is a real regression, not
noise to be re-rolled.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from oracles import mc_clouds

from l2mech.calibrate import (
    PrivacyParams,
    calibrate_gaussian,
    calibrate_l2,
)
from l2mech.capgeom import LossGeometry, cap_fraction, height_H, height_h, radial_cdf
from l2mech.errormodel import comparison_table, mse_lp_mechanism
from l2mech.lossbounds import check_approx_dp
from l2mech.mcverify import empirical_min_sigma
from l2mech.sampler import (
    RngState,
    draw_batch,
    sample_gaussian,
    sample_l2,
    sample_l2_parallel,
    sample_laplace,
    sample_unit_ball,
)
from l2mech.specfun import (
    inv_reg_lower_gamma,
    reg_inc_beta,
    reg_lower_gamma,
    reg_upper_gamma,
    std_normal_cdf,
)

BUDGET = PrivacyParams(1.0, 1e-5)

_TABLES: dict = {}


def _table(epsilon: float, delta: float):
    key = (epsilon, delta)
    if key not in _TABLES:
        _TABLES[key] = comparison_table(PrivacyParams(epsilon, delta), 100)
    return _TABLES[key]


def _gap_profile(rows):
    """Per-dimension error gap of the l2 row against the better baseline."""
    gaps = {}
    for d in sorted({r.dim for r in rows}):
        by_mech = {r.mechanism: r for r in rows if r.dim == d}
        best = min(by_mech["laplace"].normalized_mse, by_mech["gaussian"].normalized_mse)
        gaps[d] = 1.0 - by_mech["l2"].normalized_mse / best
    return gaps


def test_criterion_01_one_dim_closed_form():
    t0 = time.perf_counter()
    res = calibrate_l2(1, BUDGET)
    elapsed = time.perf_counter() - t0
    want = 1.0 / (BUDGET.epsilon - 2.0 * math.log1p(-BUDGET.delta))
    assert abs(res.sigma - want) <= 1e-3
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: d=1 sigma {res.sigma:.9f} vs closed form "
          f"{want:.9f} (|diff| <= 1e-3), {elapsed*1e3:.0f} ms")


def test_criterion_02_error_gap_profile():
    t0 = time.perf_counter()
    rows = _table(1.0, 1e-5)
    elapsed = time.perf_counter() - t0
    gaps = _gap_profile(rows)
    for d, gap in gaps.items():
        assert gap >= -1e-12, f"l2 loses to a baseline at d={d}"
    assert abs(gaps[7] - 0.50) <= 0.10
    assert abs(gaps[100] - 0.05) <= 0.03
    by_mech = {r.mechanism: r for r in rows if r.dim == 1}
    lap_gap = 1.0 - by_mech["l2"].mse / by_mech["laplace"].mse
    assert abs(lap_gap) <= 0.005
    assert elapsed < 120.0
    print(f"ACCEPTANCE 2 PASS: gap(d=7)={gaps[7]:.4f} (50%+-10pp), "
          f"gap(d=100)={gaps[100]:.4f} (5%+-3pp), gap(d=1 vs laplace)="
          f"{lap_gap:.2e} (0+-0.5%), table in {elapsed:.1f}s (<120s)")


def test_criterion_03_pure_dp_guarantee():
    rows = [r for r in _table(1.0, 1e-5) if r.mechanism == "l2"]
    assert len(rows) == 100
    eps = BUDGET.epsilon
    for r in rows:
        pure = 1.0 / r.sigma
        assert np.isfinite(pure)
        assert pure >= eps - 1e-12
        assert r.sigma <= 1.0 / eps + 1e-12
    worst = max(r.sigma for r in rows)
    print(f"ACCEPTANCE 3 PASS: 1/sigma finite and >= eps for d=1..100, "
          f"max sigma {worst:.6f} <= 1/eps = {1.0/eps}")


def test_criterion_04_empirical_matches_certified():
    params = PrivacyParams(1.0, 0.01)
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 5, 10, 25, 50, 100):
        analytic = calibrate_l2(d, params).sigma
        empirical = empirical_min_sigma(
            d, params, 1000000, 1e-3, RngState(20260819, stream_id=d)
        )
        gap = abs(empirical - analytic) / analytic
        assert gap <= 0.03, f"d={d}: gap {gap:.4f} exceeds 3%"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 4 PASS: worst empirical-vs-analytic sigma gap "
          f"{worst:.4%} (<= 3%) over 7 dimensions, {elapsed:.0f}s (<300s)")


def test_criterion_05_bounds_sandwich_monte_carlo():
    violations = []
    idx = 0
    for d in (2, 3, 10, 50):
        for tau in (0.1, 0.3, 0.7):
            for eps in (0.5, 1.0, 2.0):
                idx += 1
                sigma = tau / eps
                rep = check_approx_dp(d, sigma, PrivacyParams(eps, 1e-6))
                c1, se1, c2, se2 = mc_clouds(d, sigma, eps, 100000, 5000 + idx)
                if rep.term1_upper < c1 - 3.0 * se1:
                    violations.append(("term1", d, tau, eps))
                if rep.term2_lower > c2 + 3.0 * se2:
                    violations.append(("term2", d, tau, eps))
    assert violations == []
    print(f"ACCEPTANCE 5 PASS: 0 sandwich violations over {idx} "
          f"(d, eps*sigma, eps) cells at 1e5 draws each")


def test_criterion_06_monotone_geometry():
    for tau in (0.2, 0.5, 0.8):
        for d in (2, 5, 50):
            geom = LossGeometry(d, tau, 1.0)
            rs = np.linspace(0.02, 4.0, 1000)
            origin_side = np.array(
                [cap_fraction(d, float(r), float(height_h(geom, r))) for r in rs]
            )
            assert np.all(np.diff(origin_side) <= 1e-12), (tau, d)
            lo = (1.0 + tau) / 2.0
            Rs = np.linspace(lo, lo + 4.0, 1000)
            shifted_side = np.array(
                [cap_fraction(d, float(R), float(height_H(geom, R))) for R in Rs]
            )
            assert np.all(np.diff(shifted_side) >= -1e-12), (tau, d)
    for d, sigma, eps in ((3, 0.2, 1.0), (50, 0.4, 0.5)):
        reports = [
            check_approx_dp(d, sigma, PrivacyParams(eps, 1e-6), n_r=n, n_R=n)
            for n in (100, 1000, 10000)
        ]
        t1 = [r.term1_upper for r in reports]
        t2 = [r.term2_lower for r in reports]
        assert t1[0] >= t1[1] >= t1[2]
        assert t2[0] <= t2[1] <= t2[2]
    print("ACCEPTANCE 6 PASS: cap fractions monotone on 9 (tau, d) grids; "
          "both bounds tighten under 100 -> 1000 -> 10000 refinement")


def test_criterion_07_sampler_distributions():
    n = 100000
    pvals = {}
    for d in (1, 2, 5, 50):
        y = sample_l2(np.zeros(d), 0.8, RngState(700 + d), size=n)
        r = np.sqrt(np.einsum("ij,ij->i", y, y))
        pvals[f"radial d={d}"] = stats.kstest(
            r, lambda t: radial_cdf(d, 0.8, t)
        ).pvalue

    z = sample_unit_ball(3, RngState(710), size=n)
    rn = np.sqrt(np.einsum("ij,ij->i", z, z))
    pvals["ball norm"] = stats.kstest(rn, lambda t: np.clip(t, 0.0, 1.0) ** 3).pvalue

    serial = sample_l2(np.zeros(3), 0.7, RngState(711), size=n)
    workers = [RngState(712, stream_id=i) for i in range(3)]
    manager = RngState(713)
    par = np.empty((n, 3))
    for i in range(n):
        par[i], _ = sample_l2_parallel(np.zeros(3), 0.7, workers, manager)
    pvals["parallel vs serial"] = stats.ks_2samp(
        np.linalg.norm(serial, axis=1), np.linalg.norm(par, axis=1)
    ).pvalue

    a = sample_l2(np.zeros(1), 0.9, RngState(714), size=n).ravel()
    b = sample_laplace(np.zeros(1), 0.9, RngState(715), size=n).ravel()
    pvals["d=1 l2 vs laplace"] = stats.ks_2samp(a, b).pvalue

    for name, p in pvals.items():
        assert p >= 0.01, f"{name}: KS p={p:.4f} below the 1% level"
    worst = min(pvals, key=pvals.get)
    print(f"ACCEPTANCE 7 PASS: {len(pvals)} KS checks at n=1e5 all above "
          f"the 1% level (weakest: {worst} p={pvals[worst]:.3f})")


def test_criterion_08_mse_closed_forms():
    n = 1000000
    sigma = 0.6
    worst = 0.0
    for d in (1, 3, 10):
        y = sample_l2(np.zeros(d), sigma, RngState(800 + d), size=n)
        sq = np.einsum("ij,ij->i", y, y)
        se = float(sq.std()) / math.sqrt(n)
        dev = abs(float(sq.mean()) - d * (d + 1) * sigma**2) / se
        assert dev <= 3.0, f"l2 d={d}"
        worst = max(worst, dev)

        # per-coordinate scale sigma*sqrt(d) gives total MSE 2 d^2 sigma^2
        y = sample_laplace(np.zeros(d), sigma * math.sqrt(d), RngState(810 + d), size=n)
        sq = np.einsum("ij,ij->i", y, y)
        se = float(sq.std()) / math.sqrt(n)
        dev = abs(float(sq.mean()) - 2.0 * d * d * sigma**2) / se
        assert dev <= 3.0, f"laplace d={d}"
        worst = max(worst, dev)

        y = sample_gaussian(np.zeros(d), sigma, RngState(820 + d), size=n)
        sq = np.einsum("ij,ij->i", y, y)
        se = float(sq.std()) / math.sqrt(n)
        dev = abs(float(sq.mean()) - d * sigma**2) / se
        assert dev <= 3.0, f"gaussian d={d}"
        worst = max(worst, dev)

    for d in (1, 2, 10, 100, 1000, 10000):
        for s in (0.3, 1.0, 7.5):
            want = d * (d + 1.0) * s * s
            assert abs(mse_lp_mechanism(d, 2.0, s) - want) <= 1e-10 * want
    print(f"ACCEPTANCE 8 PASS: all nine empirical MSEs within 3 SE at n=1e6 "
          f"(worst {worst:.2f} SE); p=2 formula collapse holds to d=1e4")


def test_criterion_09_special_function_goldens():
    checks = [
        (reg_lower_gamma(2.0, 1.0), 0.264241117657115357, 1e-12, "P(2,1)"),
        (reg_lower_gamma(5000.0, 5000.0), 0.501880634033817355, 1e-12, "P(5000,5000)"),
        (reg_lower_gamma(10000.0, 10100.0), 0.841348750447179622, 1e-12, "P(1e4,1.01e4)"),
        (reg_inc_beta(0.9999, 49.5, 0.5), 0.920939547142822186, 1e-10, "I(.9999;49.5,.5)"),
        (reg_inc_beta(0.36, 4.5, 0.5), 0.00311042831038585484, 1e-10, "I(.36;4.5,.5)"),
        (std_normal_cdf(1.96), 0.975002104851779564, 1e-12, "Phi(1.96)"),
    ]
    for got, want, tol, name in checks:
        assert abs(got - want) <= tol, name
    assert abs(reg_upper_gamma(3.0, 25.0) / 4.70106899829032097e-9 - 1.0) <= 1e-11

    rng = np.random.default_rng(92)
    for _ in range(200):
        a, b = 10.0 ** rng.uniform(-0.5, 2.0, size=2)
        x = rng.uniform(1e-6, 1.0 - 1e-6)
        assert abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0) <= 1e-10
    for _ in range(200):
        a = 10.0 ** rng.uniform(-0.5, 3.0)
        x = a * rng.uniform(0.2, 2.0)
        assert abs(reg_lower_gamma(a, x) + reg_upper_gamma(a, x) - 1.0) <= 1e-12
    for a in (1.0, 2.0, 10.0, 100.0, 1000.0):
        for p in (1e-6, 0.3, 0.97):
            x = inv_reg_lower_gamma(a, p)
            assert abs(reg_lower_gamma(a, x) / p - 1.0) <= 1e-9

    big = reg_lower_gamma(5000.0, np.array([4800.0, 5000.0, 5200.0]))
    assert np.all(np.isfinite(big)) and np.all(np.diff(big) > 0)

    assert abs(calibrate_l2(1, BUDGET).sigma - 0.999980000299995333) <= 1e-9
    assert abs(calibrate_gaussian(BUDGET, tol=1e-6).sigma - 3.73063163481594183) <= 2e-6

    assert draw_batch("l2", 3, 1.0, 2, 7).to_csv() == draw_batch("l2", 3, 1.0, 2, 7).to_csv()
    print("ACCEPTANCE 9 PASS: golden values, reflection/complement/round-trip "
          "identities, shape-5000 stability, and byte-stable sampling all hold")


def test_criterion_10_speed_sanity():
    calibrate_l2(2, BUDGET)  # warm up caches before timing
    times = {}
    for d in (2, 100):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            calibrate_l2(d, BUDGET)
            best = min(best, time.perf_counter() - t0)
        times[d] = best
        assert best < 2.0, f"calibrate at d={d} took {best:.3f}s"
    ratio = times[100] / times[2]
    assert ratio <= 3.0, f"runtime grew {ratio:.2f}x from d=2 to d=100"

    sigma = calibrate_l2(100, BUDGET).sigma
    rng = RngState(1001)
    sample_l2(np.zeros(100), sigma, rng, size=10)  # warm up
    t0 = time.perf_counter()
    sample_l2(np.zeros(100), sigma, rng, size=1000)
    draw_time = time.perf_counter() - t0
    assert draw_time < 0.5
    print(f"ACCEPTANCE 10 PASS: calibrate best-of-5 {times[2]*1e3:.0f} ms (d=2) / "
          f"{times[100]*1e3:.0f} ms (d=100), ratio {ratio:.2f} (<= 3); "
          f"1000 draws at d=100 in {draw_time*1e3:.1f} ms (< 500 ms)")


@pytest.mark.parametrize("epsilon,delta", [(0.1, 1e-7), (10.0, 1e-3)])
def test_smoke_extreme_regimes(epsilon, delta):
    # ordering-only smoke at the outer budget regimes
    gaps = _gap_profile(_table(epsilon, delta))
    for d, gap in gaps.items():
        assert gap >= -1e-12, f"l2 loses to a baseline at d={d}"
    print(f"ACCEPTANCE smoke PASS: l2 error never exceeds the best baseline "
          f"for d=1..100 at ({epsilon}, {delta})")
