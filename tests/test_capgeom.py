"""Cap geometry of the high-loss region against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

import oracles
from l2mech.capgeom import LossGeometry, cap_fraction, height_H, height_h, radial_cdf
from l2mech.sampler import RngState, sample_l2


def test_loss_geometry_validation():
    geom = LossGeometry(3, 0.25, 2.0)
    assert geom.tau == 0.5
    for bad in [(0, 0.5, 1.0), (2, -1.0, 1.0), (2, 0.5, -1.0), (2, 2.0, 1.0)]:
        with pytest.raises(ValueError):
            LossGeometry(*bad)
    with pytest.raises(ValueError):
        LossGeometry(2, 1.0, 1.0)  # tau = 1 exactly, region empty


def test_height_h_reference_points():
    geom = LossGeometry(2, 0.5, 1.0)  # tau = 0.5
    assert height_h(geom, 0.25) == 0.5  # both branches meet at (1-tau)/2
    assert abs(height_h(geom, 1.0) - 0.875) < 1e-15
    assert abs(height_h(geom, 0.1) - 0.2) < 1e-15


def test_height_h_range_and_branches():
    rng = np.random.default_rng(3)
    for tau in [0.1, 0.5, 0.95]:
        geom = LossGeometry(4, tau, 1.0)
        r = rng.uniform(1e-3, 5.0, size=200)
        h = height_h(geom, r)
        assert np.all(h >= 0.0) and np.all(h <= 2.0 * r + 1e-15)
        small = r <= (1.0 - tau) / 2.0
        assert np.all(h[small] == 2.0 * r[small])
        linear = r * (1.0 - tau) + (1.0 - tau * tau) / 2.0
        assert np.allclose(h[~small], linear[~small], rtol=1e-14, atol=1e-14)


def test_height_H_reference_points_and_domain():
    geom = LossGeometry(2, 0.5, 1.0)
    assert height_H(geom, 0.75) == 0.0  # first radius that touches the region
    assert abs(height_H(geom, 1.0) - 0.125) < 1e-15
    geom9 = LossGeometry(2, 0.9, 1.0)
    assert height_H(geom9, 0.95) == 0.0
    with pytest.raises(ValueError):
        height_H(geom, 0.74)
    big_r = np.linspace(0.75, 6.0, 300)
    vals = height_H(geom, big_r)
    assert np.all(np.diff(vals) > 0.0)


def test_cap_fraction_degenerate_heights():
    for d in [2, 3, 11]:
        for r in [0.3, 1.0, 4.2]:
            assert cap_fraction(d, r, 0.0) == 0.0
            assert abs(cap_fraction(d, r, r) - 0.5) < 1e-12
            assert cap_fraction(d, r, 2.0 * r) == 1.0


def test_cap_fraction_d2_arc_oracle():
    # in the plane the cap is an arc: fraction = arccos((r - h)/r) / pi
    r = 1.7
    for u in [0.05, 0.3, 0.9, 1.0, 1.4, 1.97]:
        h = u * r
        want = math.acos((r - h) / r) / math.pi
        assert abs(cap_fraction(2, r, h) - want) < 1e-10, u


def _exact_cap_fraction(d, r, h):
    # I_x((d - 1)/2, 1/2) / 2 on the shorter cap at 40 digits, from the
    # floats r and h, with x = u (2 - u) taken exactly
    with mpmath.workdps(40):
        r, h = mpmath.mpf(float(r)), mpmath.mpf(float(h))
        u = min(h, 2 * r - h) / r
        half = mpmath.betainc(mpmath.mpf(d - 1) / 2, 0.5, 0, u * (2 - u), regularized=True) / 2
        return half if h <= r else 1 - half


@pytest.mark.parametrize("d", (2, 3, 10, 100))
def test_cap_fraction_near_the_equator_matches_40_digits(d):
    # at v = h/r = 1 +- 1e-1 ... 1e-12 the fraction is within 8 ulps of
    # the truth: u (2 - u) near 1 would round away the (1 - u)^2 on which
    # I_x, steep at x = 1, depends, so the complement is taken from it
    for r in (1.0, 0.37, 3.3):
        for v in [1.0 + s * 10.0**-k for k in range(1, 13) for s in (-1.0, 1.0)]:
            h = v * r
            got, exact = cap_fraction(d, r, h), _exact_cap_fraction(d, r, h)
            assert abs(mpmath.mpf(got) - exact) <= 8 * math.ulp(float(exact)), (d, r, v, got)


def test_cap_fraction_d3_archimedes_oracle():
    # the sphere-to-cylinder projection makes d=3 caps exactly h/(2r)
    r = 0.8
    for u in [0.1, 0.5, 1.0, 1.5, 1.9]:
        h = u * r
        assert abs(cap_fraction(3, r, h) - h / (2.0 * r)) < 1e-12, u


def test_cap_fraction_monte_carlo_oracle():
    for d, u, seed in [(5, 0.6, 10), (7, 1.3, 11)]:
        want, se = oracles.mc_cap_fraction(d, u, 200000, seed)
        got = cap_fraction(d, 1.0, u)
        assert abs(got - want) <= 3.0 * se, (d, u)


def test_cap_fraction_monotone_and_complement():
    rng = np.random.default_rng(4)
    for d in [2, 5, 50]:
        r = 1.3
        h = np.sort(rng.uniform(0.0, 2.0 * r, size=100))
        f = cap_fraction(d, r, h)
        assert np.all(np.diff(f) >= -1e-12)
        assert np.max(np.abs(f + cap_fraction(d, r, 2.0 * r - h) - 1.0)) < 1e-10


def test_scalar_cap_fraction_is_the_vector_path():
    for d in (2, 3, 10, 100, 1000):
        for r in (0.3, 2.0):
            for h in np.linspace(0.0, 2.0 * r, 9):
                got = cap_fraction(d, r, float(h))
                assert type(got) is float
                assert got == cap_fraction(d, np.array([r]), np.array([h]))[0], (d, r, h)


def test_cap_fraction_validation():
    with pytest.raises(ValueError):
        cap_fraction(1, 1.0, 0.5)  # needs a sphere, not two points
    with pytest.raises(ValueError):
        cap_fraction(3, 1.0, -0.1)
    with pytest.raises(ValueError):
        cap_fraction(3, 1.0, 2.1)
    # shapes that do not broadcast are one fault naming both arguments,
    # not numpy's from the range rule
    apart = r"^r and h must broadcast together, not shapes \(2,\) and \(3,\)$"
    with pytest.raises(ValueError, match=apart):
        cap_fraction(3, [1.0, 2.0], [0.5, 0.5, 0.5])


def test_radial_cdf_closed_forms():
    rs = np.linspace(0.0, 6.0, 50)
    got = radial_cdf(1, 0.7, rs)
    assert np.max(np.abs(got - (1.0 - np.exp(-rs / 0.7)))) < 1e-12
    assert radial_cdf(5, 1.0, 0.0) == 0.0
    want = oracles.GOLDEN[("P", 2.0, 1.0)]
    assert abs(radial_cdf(2, 1.0, 1.0) - want) < 1e-12


def test_radial_cdf_scale_invariance():
    rng = np.random.default_rng(5)
    r = rng.uniform(0.1, 8.0, size=40)
    for d in [2, 9]:
        for sigma in [0.3, 2.5]:
            assert np.allclose(
                radial_cdf(d, sigma, r), radial_cdf(d, 1.0, r / sigma), atol=1e-14
            )


def test_radial_cdf_matches_sampler():
    # the sampled norm must follow the advertised CDF; this pins the
    # r/sigma scaling against an end-to-end draw
    d, sigma, n = 3, 0.8, 200000
    y = sample_l2(np.zeros(d), sigma, RngState(21), size=n)
    norms = np.linalg.norm(y, axis=1)
    for r in [0.5, 1.5, 2.4, 5.0]:
        emp = float(np.mean(norms <= r))
        se = max(math.sqrt(emp * (1.0 - emp) / n), 1.0 / n)
        assert abs(radial_cdf(d, sigma, r) - emp) <= 3.0 * se, r


def test_radial_cdf_validation():
    with pytest.raises(ValueError):
        radial_cdf(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        radial_cdf(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        radial_cdf(2, 1.0, -0.5)


def _loss(y, sigma):
    e1 = np.zeros(y.shape[1])
    e1[0] = 1.0
    return (np.linalg.norm(y - e1, axis=1) - np.linalg.norm(y, axis=1)) / sigma


def test_cap_membership_matches_loss_predicate_origin_sphere():
    # on the sphere of radius r about the origin, the high-loss points
    # are exactly the cap of height h(r) around the -e1 pole
    rng = np.random.default_rng(6)
    for d, sigma, eps in [(2, 0.4, 1.0), (7, 0.2, 3.0)]:
        geom = LossGeometry(d, sigma, eps)
        for r in rng.uniform(0.05, 4.0, size=20):
            u = rng.standard_normal((500, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            y = r * u
            in_region = _loss(y, sigma) >= eps
            h = height_h(geom, float(r))
            cap_side = u[:, 0] <= h / r - 1.0
            margin = np.abs(u[:, 0] - (h / r - 1.0))
            keep = margin > 1e-9  # skip knife-edge points
            assert np.array_equal(in_region[keep], cap_side[keep])


def test_cap_membership_matches_loss_predicate_shifted_sphere():
    rng = np.random.default_rng(7)
    for d, sigma, eps in [(2, 0.4, 1.0), (7, 0.2, 3.0)]:
        geom = LossGeometry(d, sigma, eps)
        tau = eps * sigma
        e1 = np.zeros(d)
        e1[0] = 1.0
        for big_r in rng.uniform((1.0 + tau) / 2.0 + 1e-6, 5.0, size=20):
            u = rng.standard_normal((500, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            y = e1 + big_r * u
            in_region = _loss(y, sigma) >= eps
            cap_h = height_H(geom, float(big_r))
            cap_side = u[:, 0] <= cap_h / big_r - 1.0
            margin = np.abs(u[:, 0] - (cap_h / big_r - 1.0))
            keep = margin > 1e-9
            assert np.array_equal(in_region[keep], cap_side[keep])
