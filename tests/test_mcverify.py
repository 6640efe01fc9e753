"""Monte-Carlo privacy estimates against closed forms and the certified bounds."""

import json
import math
import warnings

import numpy as np
import pytest

import oracles
from l2mech.calibrate import PrivacyParams, calibrate_l2
from l2mech.lossbounds import check_approx_dp
from l2mech.mcverify import (
    EmpiricalPrivacyEstimate,
    _first_coordinate,
    empirical_lhs,
    empirical_min_sigma,
)
from l2mech.sampler import RngState


def test_estimate_identity_and_fields():
    est = empirical_lhs(3, 0.4, 1.0, 20000, RngState(5))
    assert isinstance(est, EmpiricalPrivacyEstimate)
    assert est.dim == 3 and est.n == 20000 and est.seed == 5
    assert abs(est.lhs_estimate - (est.c1 - math.e * est.c2)) <= 1e-15
    assert est.std_error > 0.0
    assert 0.0 <= est.c1 <= 1.0 and 0.0 <= est.c2 <= 1.0


def test_one_dim_closed_form():
    # d=1, sigma=1/2: lhs = 1 - exp((eps - 1/sigma)/2) = 1 - e^{-1/2}
    want = 1.0 - math.exp(-0.5)
    est = empirical_lhs(1, 0.5, 1.0, 1000000, RngState(6))
    assert abs(est.lhs_estimate - want) <= 4.0 * est.std_error
    # the bar itself should be tight at this n
    assert est.std_error < 2e-3


def test_radius_and_first_coordinate_match_full_clouds():
    # empirical_lhs draws (||y - center||, y_1) only; the oracle draws
    # whole d-dimensional outputs.  sigma puts the region's boundary
    # through the bulk: at the typical radius R = d sigma, a direction
    # orthogonal to e1 has loss exactly tau = eps sigma.
    for i, d in enumerate((1, 2, 3, 50, 1000)):
        n = min(100000, 4000000 // d)  # the oracle holds n x d floats
        for j, tau in enumerate((0.1, 0.5, 0.9)):
            sigma = (1.0 - tau * tau) / (2.0 * tau * d)
            seed = 100 + 10 * i + j
            c1, se1, c2, se2 = oracles.mc_clouds(d, sigma, tau / sigma, n, seed)
            est = empirical_lhs(d, sigma, tau / sigma, n, RngState(seed))
            for want, se, got in ((c1, se1, est.c1), (c2, se2, est.c2)):
                se_got = max(math.sqrt(got * (1.0 - got) / n), 1.0 / n)
                assert abs(got - want) <= 4.0 * math.hypot(se, se_got), (d, tau)


class _SignedZeroNormals:
    """A generator whose normals are all +-0.0, alternating in sign."""

    def __init__(self, gen):
        self.gen = gen

    def gamma(self, *args, **kwargs):
        return self.gen.gamma(*args, **kwargs)

    def standard_normal(self, size):
        z = np.zeros(size)
        z.reshape(-1)[1::2] = -0.0
        return z


def test_one_dim_direction_from_a_zero_normal():
    stub = _SignedZeroNormals(np.random.default_rng(16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, w = _first_coordinate(stub, 1, (2, 5))
        rng = RngState(16)
        rng._gen = stub
        est = empirical_lhs(1, 0.5, 1.0, 20000, rng)
    assert np.array_equal(t, np.tile([1.0, -1.0], 5).reshape(2, 5))
    assert np.array_equal(w, np.zeros((2, 5)))
    # half the outputs lie at -R, where the loss is always 1/sigma >= eps;
    # the other half at +R, in the region when R <= (1 - eps sigma)/2
    want = 0.5 + 0.5 * (1.0 - math.exp(-0.25 / 0.5))
    assert math.isfinite(est.lhs_estimate)
    assert abs(est.c1 - want) <= 4.0 * est.std_error


def test_loss_cannot_reach_epsilon():
    # max loss is 1/sigma; sigma=1.1 > 1/eps makes the region empty
    est = empirical_lhs(2, 1.1, 1.0, 50000, RngState(7))
    assert est.c1 == 0.0 and est.c2 == 0.0 and est.lhs_estimate == 0.0


def test_bit_reproducible():
    a = empirical_lhs(4, 0.3, 1.5, 30000, RngState(8, stream_id=2))
    b = empirical_lhs(4, 0.3, 1.5, 30000, RngState(8, stream_id=2))
    assert a == b or (a.c1 == b.c1 and a.c2 == b.c2 and a.lhs_estimate == b.lhs_estimate)
    c = empirical_lhs(4, 0.3, 1.5, 30000, RngState(9, stream_id=2))
    assert (a.c1, a.c2) != (c.c1, c.c2)


def test_calibrated_sigma_passes_empirically():
    pp = PrivacyParams(1.0, 0.01)
    res = calibrate_l2(5, pp)
    est = empirical_lhs(5, res.sigma, pp.epsilon, 200000, RngState(10))
    assert est.lhs_estimate <= pp.delta + 4.0 * est.std_error


def test_sandwiches_certified_bounds():
    # analytic term1 upper-bounds c1 and term2 lower-bounds c2, so the
    # empirical clouds must sit on the right side of each within noise
    for dim, sigma, eps, seed in [(2, 0.5, 1.0, 11), (7, 0.8, 1.0, 12)]:
        rep = check_approx_dp(dim, sigma, PrivacyParams(eps, 1e-6))
        est = empirical_lhs(dim, sigma, eps, 100000, RngState(seed))
        assert rep.term1_upper >= est.c1 - 3.0 * est.std_error
        assert rep.term2_lower <= est.c2 + 3.0 * est.std_error
        assert rep.lhs_upper >= est.lhs_estimate - 4.0 * est.std_error


def test_min_sigma_matches_analytic_search():
    pp = PrivacyParams(1.0, 0.01)
    want = calibrate_l2(1, pp).sigma
    got = empirical_min_sigma(1, pp, 100000, 1e-3, RngState(13))
    assert got <= 1.0 / pp.epsilon
    assert abs(got - want) / want <= 0.04


def test_min_sigma_matches_bisection():
    # same probes in the same order, so the same draws and the same float
    for dim, pp, rng_args in (
        (1, PrivacyParams(1.0, 0.01), (31, 0)),
        (2, PrivacyParams(1.0, 0.01), (32, 0)),
        (3, PrivacyParams(0.5, 0.05), (33, 4)),
    ):
        got = empirical_min_sigma(dim, pp, 20000, 1e-3, RngState(*rng_args))
        want = oracles.bisect_empirical_min_sigma(
            dim, pp, 20000, 1e-3, RngState(*rng_args)
        )
        assert got == want, (dim, pp, rng_args)


def test_min_sigma_warns_with_starved_tail():
    # n * delta = 10: far too few boundary events
    with pytest.warns(RuntimeWarning):
        empirical_min_sigma(1, PrivacyParams(1.0, 1e-4), 100000, 5e-2, RngState(14))


def test_json_schema():
    est = empirical_lhs(2, 0.6, 1.0, 1000, RngState(15))
    payload = json.loads(est.to_json())
    assert set(payload) == {
        "d", "sigma", "epsilon", "n", "c1", "c2", "lhs", "std_error", "seed",
        "stream_id",
    }
    assert payload["d"] == 2 and payload["n"] == 1000 and payload["seed"] == 15
    assert payload["lhs"] == est.lhs_estimate


def test_estimate_records_its_stream():
    est = empirical_lhs(2, 0.6, 1.0, 1000, RngState(15, 3))
    assert est.stream_id == 3 and json.loads(est.to_json())["stream_id"] == 3
    again = empirical_lhs(2, 0.6, 1.0, 1000, RngState(est.seed, est.stream_id))
    assert again == est


def test_input_validation():
    rng = RngState(0)
    with pytest.raises(ValueError):
        empirical_lhs(0, 0.5, 1.0, 100, rng)
    with pytest.raises(ValueError):
        empirical_lhs(2, -0.5, 1.0, 100, rng)
    with pytest.raises(ValueError):
        empirical_lhs(2, 0.5, np.inf, 100, rng)
    with pytest.raises(ValueError):
        empirical_lhs(2, 0.5, 1.0, 0, rng)
    with pytest.raises(ValueError):
        empirical_min_sigma(2, (1.0, 0.01), 1000, 1e-3, rng)
    with pytest.raises(ValueError):
        empirical_min_sigma(2, PrivacyParams(1.0, 0.01), 1000, 0.0, rng)
    # dim and n are checked at entry: before n * delta, and before the
    # starved-tail warning, which an invalid n must not trigger
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim, n in [(2, "10"), (2, 0), (2, 1.5e4), (0, 1000), (True, 1000)]:
            with pytest.raises(ValueError, match="(n|dim) must be an integer"):
                empirical_min_sigma(dim, PrivacyParams(1.0, 0.01), n, 1e-3, rng)
