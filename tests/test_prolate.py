"""The 1-D prolate-coordinate truth against known values and the certificate.

oracles.prolate_lhs gives the exact hockey-stick lhs from four 1-D
integrals of elementary functions (and, at d = 2, two Bessel functions).
Each sigma is pinned as a literal, so the truths stay fixed when the
calibration moves; "shipped" marks the sigma calibrate_l2 returned at
the default grids and tolerance when it was pinned.
"""

import functools

import pytest

import oracles
from l2mech.calibrate import PrivacyParams
from l2mech.lossbounds import check_approx_dp

# (d, sigma, eps, delta) -> lhs / delta, checked to four digits.  The six
# d >= 10 values were measured by quadrature over the radius, an
# independent route; the d = 2, 3 and 4 values come from this oracle (at
# d = 2 they agree with scipy quadrature in angle variables, 1.297 and
# 0.0410, to the digits that gave).
TRUTHS = {
    (10, 0.8751249999999999, 1.0, 1e-5): 0.904302,  # shipped
    (100, 0.36196679687499994, 1.0, 1e-5): 0.965067,  # shipped
    (1000, 0.1180703125, 1.0, 1e-5): 0.934186,  # shipped
    (10, 0.08917187500000001, 10.0, 1e-3): 0.793161,  # shipped
    (100, 0.03967187500000001, 10.0, 1e-3): 0.689162,  # shipped
    (1000, 0.013375000000000001, 10.0, 1e-3): 0.426516,  # shipped
    (3, 9.99, 0.1, 1e-7): 0.26276235,  # tau = 0.999
    (4, 0.9892685546875, 1.0, 1e-5): 0.44961428,  # shipped
    (2, 0.999, 1.0, 1e-5): 1.297032,  # tau = 0.999
    (2, 0.9999, 1.0, 1e-5): 0.04098316,  # tau = 0.9999
}

# where the certificate must not fall below the truth: every truth above,
# one lattice step (0.999/1024) below d = 10's shipped sigma, and d = 3
# at (1, 1e-5) just below the bracket's top 1/eps
BOUND_POINTS = list(TRUTHS) + [
    (10, 0.8741494140624999, 1.0, 1e-5),
    (3, 0.99, 1.0, 1e-5),
]


@functools.lru_cache(maxsize=None)
def _truth(d, sigma, eps):
    return oracles.prolate_lhs(d, sigma, eps)


@pytest.mark.parametrize("point", TRUTHS, ids=lambda p: f"d{p[0]}-s{p[1]:.4g}-e{p[2]:g}")
def test_prolate_lhs_reproduces_the_known_truths(point):
    d, sigma, eps, delta = point
    assert _truth(d, sigma, eps) / delta == pytest.approx(TRUTHS[point], rel=1e-4)


@pytest.mark.parametrize("point", BOUND_POINTS, ids=lambda p: f"d{p[0]}-s{p[1]:.4g}-e{p[2]:g}")
def test_certified_upper_bound_holds_the_truth(point):
    d, sigma, eps, delta = point
    report = check_approx_dp(d, sigma, PrivacyParams(eps, delta))
    assert report.lhs_upper >= _truth(d, sigma, eps), report


@pytest.mark.parametrize(
    "point",
    [(2, 0.999, 1.0), (4, 0.9892685546875, 1.0), (1000, 0.1180703125, 1.0)],
    ids=["d2", "d4", "d1000"],
)
def test_two_precisions_and_breakpoint_sets_agree(point):
    fine = oracles.prolate_lhs(*point, dps=45, refine=True)
    assert _truth(*point) == pytest.approx(fine, rel=1e-8)
