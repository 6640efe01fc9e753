"""A calibrate_l2 probe decided on the nested quarter grid.

lossbounds._probe_check bounds lhs on n_r/4 nu-cells and n_R/4 mu-cells
first and keeps that report where it decides the probe; elsewhere it is
the full-grid check.  These tests check that a decided verdict is the
full grid's, that the quarter grid's edges are the full grid's every
fourth edge bit for bit, that the full grid's rounding margin stays
within the factor the pass rule allows for, and that every other case
is the full check.
"""

import math

from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from l2mech import lossbounds
from l2mech.lossbounds import PrivacyParams, check_approx_dp

CELLS = 1000


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@seed(20261022)
@settings(max_examples=600, deadline=None)
@given(
    d=st.integers(3, 10**4),
    eps=_log_uniform(1e-3, 100.0),
    fraction=st.one_of(
        _log_uniform(1e-100, 1e-3),
        st.floats(1e-3, 1.0, exclude_max=True),
        _log_uniform(5e-324, 1e-100),
    ),
    delta=_log_uniform(1e-15, 0.3),
    near=st.one_of(st.none(), st.floats(-1e-2, 1e-2)),
)
def test_a_quarter_grid_verdict_is_the_full_grids(d, eps, fraction, delta, near):
    # sigma in (0, 1/eps), down to the smallest positive float, which
    # stands in where fraction / eps underflows; delta either drawn or
    # placed within 1% of the full grid's lhs_upper, where the pass
    # rule's 1 + kappa and the fail rule's lower bound have the least
    # room.  A decided probe names the quarter grid and gives
    # check_approx_dp's verdict, and the full grid's rounding margin is
    # within the factor the pass rule allows for; an undecided one is
    # check_approx_dp's report itself
    sigma = max(fraction / eps, math.ulp(0.0))
    if near is not None:
        full = check_approx_dp(d, sigma, PrivacyParams(eps, 0.5))
        delta = full.lhs_upper * (1.0 + near)
        assume(1e-15 <= delta <= 0.3)
    params = PrivacyParams(eps, delta)
    probe = lossbounds._probe_check(d, sigma, params, CELLS, CELLS)
    full = check_approx_dp(d, sigma, params)
    if (probe.n_r, probe.n_R) == (CELLS // 4, CELLS // 4):
        assert probe.satisfies_dp == full.satisfies_dp, (probe, full)
        # the pass rule's bound on the full grid's rounding margin
        quarter = lossbounds._prolate_bounds(d, sigma, eps, CELLS // 4, CELLS // 4)
        fine = lossbounds._prolate_bounds(d, sigma, eps, CELLS, CELLS)
        assert fine.margin <= lossbounds._NESTED_MARGIN_GROWTH * quarter.margin
    else:
        assert probe == full


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6),
    width=st.floats(1e-12, 1e6),
    quarter=st.integers(1, 1024),
)
def test_quarter_grid_edges_are_every_fourth_full_grid_edge(lo, width, quarter):
    # i / (n/4) and 4i / n are one rational, so they round to one float:
    # the rule reads the full grid's verdict off a grid it nests in
    hi = lo + width
    assume(hi > lo)
    n = 4 * quarter
    coarse = lossbounds._edges(lo, hi, quarter)
    fine = lossbounds._edges(lo, hi, n)
    assert coarse.tobytes() == fine[::4].tobytes()


def test_other_grids_and_branches_run_the_full_check():
    # d = 1, d = 2, eps sigma >= 1 and grids not divisible by 4 (or with a
    # quarter below 2 cells) take _check on the full grid as it stands
    params = PrivacyParams(1.0, 1e-5)
    cases = [
        (1, 0.5, 1000, 1000),
        (2, 0.5, 1000, 1000),
        (2, 5.0, 1000, 1000),
        (10, 1.0, 1000, 1000),
        (10, 0.3, 1000, 999),
        (10, 0.3, 998, 1000),
        (10, 0.3, 4, 1000),
        (10, 0.3, 1000, 4),
    ]
    for d, sigma, n_r, n_R in cases:
        probe = lossbounds._probe_check(d, sigma, params, n_r, n_R)
        assert probe == check_approx_dp(d, sigma, params, n_r, n_R), (d, sigma, n_r, n_R)
