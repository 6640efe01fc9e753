"""The d >= 3 certificate: the 1-D prolate form's cell bounds.

lossbounds._prolate_batch bounds lhs, T1 = P0[L >= eps] and T2 = P1[L
>= eps] from below and above by tangent and chord envelopes of
log-concave integrands on a nu-grid and a mu-grid, for each (dim, sigma)
row of a batch.  These tests check its rounding margin against a
40-digit re-evaluation of the same sums, its order and refinement
properties on random draws, and the edges where tau = eps sigma comes
within ulps of 1, each on a batch of one, as check_approx_dp sends it;
one checks that a row's bounds do not depend on its batch.  The draws
of the monotone-verdict test start at d = 2, where the radial sums
certify.  Two digests pin every field the bounds return, bit for bit,
on seeded draws: one the nine certificate fields, one the slope.
"""

import functools
import hashlib
import math
import random
import warnings

import mpmath as mp
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from l2mech import lossbounds
from l2mech.calibrate import PrivacyParams, calibrate_l2
from l2mech.lossbounds import BRANCH_GENERAL, check_approx_dp

CELLS = 1000
NAMES = ("lhs", "term1", "term2")


@functools.lru_cache(maxsize=None)
def _shipped(d, eps, delta):
    return calibrate_l2(d, PrivacyParams(eps, delta)).sigma


@pytest.mark.parametrize("delta", (1e-15, 0.5))
@pytest.mark.parametrize("d", (3, 10**4))
@pytest.mark.parametrize("eps", (1e-3, 10.0))
def test_rounding_margin_covers_a_40_digit_reevaluation(d, eps, delta):
    # the float bounds at the shipped sigma against the same cells, edges
    # and envelopes summed at 40 digits: every upper bound at or above its
    # re-evaluation, every lower bound at or below, and neither off by more
    # than 1e-8 relative, so the margin covers rounding and little else
    sigma = _shipped(d, eps, delta)
    w = lossbounds._one_minus_product(eps, sigma)
    if w <= 0.0:
        # the shipped sigma leaves no loss region (eps sigma >= 1 exactly):
        # the float below 1/eps leaves a sliver of width about 1e-16
        sigma = math.nextafter(1.0 / eps, 0.0)
        w = lossbounds._one_minus_product(eps, sigma)
    (bounds,) = lossbounds._prolate_batch((d,), (sigma,), eps, CELLS, CELLS)
    t_hi, m_lo, m_hi = lossbounds._prolate_windows(d, sigma, eps, w)
    exact = oracles.prolate_cell_bounds(
        d,
        sigma,
        eps,
        lossbounds._edges(0.0, t_hi, CELLS),
        lossbounds._edges(m_lo, m_hi, CELLS),
        ends_at_one=t_hi == w,
    )
    for name in NAMES:
        (lower, upper), (lower_40, upper_40) = getattr(bounds, name), exact[name]
        assert upper >= upper_40, (name, upper, upper_40)
        assert lower <= lower_40, (name, lower, lower_40)
        assert upper <= upper_40 * (1 + 1e-8), (name, upper, upper_40)
        assert lower >= lower_40 * (1 - 1e-8), (name, lower, lower_40)


_DIMS = st.integers(3, 10**4)
_EPS = st.floats(-3.0, 2.0).map(lambda x: 10.0**x)


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(d=_DIMS, eps=_EPS, tau=st.floats(1e-4, 1.0 - 1e-9), n=st.integers(2, 2048))
def test_bounds_are_ordered_and_tighten_on_a_nested_grid(d, eps, tau, n):
    # lower <= upper for lhs, T1 and T2; doubling both cell counts adds a
    # midpoint to every cell, and neither an upper nor a lower envelope can
    # get worse on a finer nested grid, so lhs_upper, term1_upper and
    # term2_lower never loosen
    sigma = tau / eps
    (coarse,) = lossbounds._prolate_batch((d,), (sigma,), eps, n, n)
    (fine,) = lossbounds._prolate_batch((d,), (sigma,), eps, 2 * n, 2 * n)
    for bounds in (coarse, fine):
        for name in NAMES:
            lower, upper = getattr(bounds, name)
            assert 0.0 <= lower <= upper <= 1.0, (name, bounds)
    assert fine.lhs[1] <= coarse.lhs[1]
    assert fine.term1[1] <= coarse.term1[1]
    assert fine.term2[0] >= coarse.term2[0]


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 10**4),
    eps=_EPS,
    delta=st.floats(-15.0, -0.5).map(lambda x: 10.0**x),
    fractions=st.lists(st.floats(1e-3, 1.0, exclude_max=True), min_size=2, max_size=8),
)
def test_verdict_is_monotone_in_sigma(d, eps, delta, fractions):
    # along sorted sigmas in (0, 1/eps) the verdicts read False ... True:
    # the search's answer is the bisection's only where this holds.  d = 2
    # runs the radial sums, capped by the loss cap bound, which also
    # bounds tiny sigmas where no radial grid can start
    params = PrivacyParams(eps, delta)
    verdicts = [
        check_approx_dp(d, f / eps, params).satisfies_dp for f in sorted(fractions)
    ]
    assert verdicts == sorted(verdicts), verdicts


@pytest.mark.parametrize(
    "d,eps,delta",
    [(3, 0.7615865998232679, 1.9883624760253978e-10), (10, 1.0, 1e-300)],
)
def test_tau_within_ulps_of_one_stays_sound(d, eps, delta):
    # at 1/eps and the floats just below it, 1/sigma - eps rounds to 0 or
    # to a few ulps while tau < 1: the bound is carried by w = 1 - eps sigma
    # to a few ulps, emits no warning, and holds the exact lhs; the
    # calibration at the d = 10 target runs its probes within ulps of 1/eps
    sigma = 1.0 / eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(4):
            report = check_approx_dp(d, sigma, PrivacyParams(eps, delta))
            if eps * sigma < 1.0:
                assert report.branch == BRANCH_GENERAL
                assert math.isfinite(report.lhs_slope)
            assert math.isfinite(report.r_star)
            assert 1.0 > report.lhs_upper >= oracles.prolate_lhs(d, sigma, eps)
            sigma = math.nextafter(sigma, 0.0)


@pytest.mark.parametrize(
    "d,sigma,eps",
    [(2, 0.6, 0.5), (3, 0.5, 1.0), (4, 0.3, 2.0), (10, 0.3, 1.0), (100, 0.05, 1.0)],
)
def test_lhs_derivative_in_sigma_has_a_closed_form(d, sigma, eps):
    # the identity the d >= 3 slope is read from, d lhs / d sigma = -C
    # N_{k+1} e^(eps/2) (1 - tau^2)^(k+1) / (2 sigma^2 (k + 1)), against a
    # central difference of the exact lhs at 40 digits; it holds from d =
    # 2 (k = -1/2) on
    hi, lo = sigma + 1e-6, sigma - 1e-6
    rise = oracles.prolate_lhs(d, hi, eps, dps=40) - oracles.prolate_lhs(d, lo, eps, dps=40)
    with mp.workdps(40):
        central = rise / (mp.mpf(hi) - mp.mpf(lo))
        s, e = mp.mpf(sigma), mp.mpf(eps)
        a, tau, j = 1 / (2 * s), e * s, mp.mpf(d - 1) / 2
        area = oracles._sphere_area
        c = area(d - 1) / (2**d * area(d) * mp.gamma(d) * s**d)
        mode = (j + mp.sqrt(j * j + a * a)) / a
        n = mp.quad(lambda mu: mp.exp(-a * mu) * (mu * mu - 1) ** j, [1, mode, mp.inf])
        want = -c * n * mp.exp(e / 2) * (1 - tau * tau) ** j / (2 * s * s * j)
        assert abs(central - want) <= 1e-9 * abs(want), (central, want)


PIN_DIMS = (3, 4, 10, 100, 10**4)
PIN_GRIDS = ((2, 2), (250, 250), (64, 2000), (2000, 64))
# SHA-1 of float.hex of the nine certificate fields (the lhs, term1 and
# term2 pairs, r_star, direct, margin) over _pin_inputs(), computed
# while the slope still came from a trapezoid pass over the edges, so it
# shows that taking the slope from its closed form moved none of them
PROLATE_BOUNDS_SHA1 = "5f346491f793215f7cc8a9a38ac606c25dac9574"
# and of the slope alone, one line per draw
PROLATE_SLOPE_SHA1 = "80cef34b2a2ebc8b7a47e0d0585a2a738507df6f"


def _pin_inputs():
    # per (dim, grid): ten tau = eps sigma log-uniform in [1e-4, 1), two
    # sigma within a factor 2 above _PROLATE_FLOOR and three tau just
    # below 1, the last within ulps of it (while eps sigma < 1 exactly)
    rng = random.Random(20261029)
    for d in PIN_DIMS:
        for n_nu, n_mu in PIN_GRIDS:
            for i in range(15):
                eps = 10.0 ** rng.uniform(-3.0, 2.0)
                if i < 10:
                    sigma = 10.0 ** rng.uniform(-4.0, 0.0) / eps
                elif i < 12:
                    sigma = lossbounds._PROLATE_FLOOR * (1.0 + rng.random())
                elif i < 14:
                    sigma = (1.0 - 10.0 ** rng.uniform(-15.0, -6.0)) / eps
                else:
                    sigma = 1.0 / eps
                    for _ in range(rng.randint(0, 3)):
                        sigma = math.nextafter(sigma, 0.0)
                while lossbounds._one_minus_product(eps, sigma) <= 0.0:
                    sigma = math.nextafter(sigma, 0.0)
                yield d, sigma, eps, n_nu, n_mu


def test_every_prolate_bounds_field_is_pinned_bitwise():
    # lhs, term1 and term2 pairs, r_star, direct and margin of 300 draws
    # over d = 3 (k = 0), 4, 10, 100 and 10^4, the smallest grid, the
    # quarter grid and both lopsided ones, sigma near the floor and eps
    # sigma within ulps of 1: a change to how the bounds are evaluated
    # must keep every bit.  The slope has its own digest, and is finite
    # and at most 0 on every draw, the 2-cell ones whose lower G sum is 0
    # included
    digest, slopes = hashlib.sha1(), hashlib.sha1()
    count = 0
    for d, sigma, *rest in _pin_inputs():
        (bounds,) = lossbounds._prolate_batch((d,), (sigma,), *rest)
        fields = (*bounds.lhs, *bounds.term1, *bounds.term2, *bounds[4:])
        digest.update(" ".join(float(v).hex() for v in fields).encode() + b"\n")
        slopes.update(float(bounds.slope).hex().encode() + b"\n")
        assert math.isfinite(bounds.slope) and bounds.slope <= 0.0, (d, sigma, *rest)
        count += 1
    assert count == 300
    assert digest.hexdigest() == PROLATE_BOUNDS_SHA1
    assert slopes.hexdigest() == PROLATE_SLOPE_SHA1


def _mixed_batches():
    # seeded batches of 2 to 9 rows sharing eps and one grid: dims from 3
    # (k = 0, no tail beyond either window) to 10^4, and per row one of
    # tau = eps sigma log-uniform in [1e-4, 1), eps sigma within ulps of 1,
    # sigma near _PROLATE_FLOOR (where the loss cap bound beats the grid),
    # so rows with and without each window's tail share a batch
    rng = random.Random(20261101)
    grids = ((2, 2), (2, 250), (250, 250), (64, 2000), (1000, 8), (3, 5))
    for i in range(48):
        eps = 10.0 ** rng.uniform(-3.0, 2.0)
        dims, sigmas = [], []
        for _ in range(rng.randint(2, 9)):
            kind = rng.random()
            if kind < 0.5:
                sigma = 10.0 ** rng.uniform(-4.0, 0.0) / eps
            elif kind < 0.75:
                sigma = 1.0 / eps
                for _ in range(rng.randint(0, 3)):
                    sigma = math.nextafter(sigma, 0.0)
            else:
                sigma = lossbounds._PROLATE_FLOOR * (1.0 + rng.random())
            while lossbounds._one_minus_product(eps, sigma) <= 0.0:
                sigma = math.nextafter(sigma, 0.0)
            dims.append(rng.choice((3, 4, rng.randint(3, 100), rng.randint(3, 10**4))))
            sigmas.append(sigma)
        yield dims, sigmas, eps, *grids[i % len(grids)]


def test_a_rows_bounds_do_not_depend_on_its_batch():
    # every field of every row's ProlateBounds in a mixed batch equals
    # that row's batch of one, bit for bit: numpy's row sums, its SIMD
    # loops and the masked tails must not let one row reach another.  The
    # batches hold rows bounded by the loss cap (slope from that bound)
    # next to resolved ones, and rows with and without each window's tail
    def bits(bounds):
        fields = (*bounds.lhs, *bounds.term1, *bounds.term2, *bounds[3:])
        return [float(v).hex() for v in fields]

    capped = mixed_tails = 0
    for dims, sigmas, eps, n_nu, n_mu in _mixed_batches():
        batch = lossbounds._prolate_batch(dims, sigmas, eps, n_nu, n_mu)
        assert len(batch) == len(dims)
        for dim, sigma, bounds in zip(dims, sigmas, batch):
            (alone,) = lossbounds._prolate_batch((dim,), (sigma,), eps, n_nu, n_mu)
            assert bits(bounds) == bits(alone), (dim, sigma, eps, n_nu, n_mu)
            w = lossbounds._one_minus_product(eps, sigma)
            capped += lossbounds._loss_cap_bound(w, sigma)[0] <= bounds.direct
        tails = [
            (t_hi < w, m_lo > 0.0)
            for dim, sigma in zip(dims, sigmas)
            for w in [lossbounds._one_minus_product(eps, sigma)]
            for t_hi, m_lo, _ in [lossbounds._prolate_windows(dim, sigma, eps, w)]
        ]
        mixed_tails += any(len({tail[i] for tail in tails}) == 2 for i in (0, 1))
    assert capped >= 20 and mixed_tails >= 20, (capped, mixed_tails)


def test_the_exact_lhs_never_rises_with_sigma():
    # the truth the certificate bounds, oracles.prolate_lhs at 20 digits,
    # at five sigmas in (0.05/eps, 0.95/eps), one per fifth of it and at
    # least 0.036/eps apart, for each of six seeded (d, eps) with d in
    # 3..100 and eps log-uniform in [0.1, 10]: non-increasing, as the
    # closed form of d lhs / d sigma (module docstring) says.  The
    # certified lhs_upper need not be monotone; CHANGES.md reports how
    # often its verdict is not, next to the table answers
    rng = random.Random(20261102)
    for _ in range(6):
        d = round(10.0 ** rng.uniform(math.log10(3.0), 2.0))
        eps = 10.0 ** rng.uniform(-1.0, 1.0)
        fractions = [0.05 + 0.9 * (i + 0.1 + 0.8 * rng.random()) / 5 for i in range(5)]
        values = [oracles.prolate_lhs(d, f / eps, eps, dps=20) for f in fractions]
        assert all(b <= a for a, b in zip(values, values[1:])), (d, eps, fractions, values)
