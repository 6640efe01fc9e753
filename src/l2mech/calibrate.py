"""Noise-scale calibration for the l2, Laplace and Gaussian mechanisms.

Each calibrator returns the smallest noise scale (within a search
tolerance) whose privacy certificate passes for the requested
(epsilon, delta) pair, for a statistic with unit l2-sensitivity unless
a different sensitivity is given (scales multiply through linearly).

Every search runs on _lattice_search: a caller hands it a bracket
[lo, hi] and the tolerance, and gets back the lattice sigmas
(sigma_{k-1}, sigma_k) on either side of the first passing index k of
the bisection that would narrow the bracket to tol; the lattice, its
depth and its indices live in _lattice_search alone, and so does the
bracket: each calibrate_l2 probe steers by one Newton step from its own
report, with no history of the probes before it (calibrate_l2 gives the
probe counts).  _lattice_search is resumable, a generator that yields
each sigma and is sent the verdict, so a caller that waits on every
probe runs it through _drive, and comparison_table advances many
calibrate_l2 searches (_l2_search) together, one batched certificate
call per round (_calibrate_l2_rows).  Every search answers a sigma it
already saw from memory and counts each distinct sigma once.  In one
dimension the l2 mechanism is the Laplace mechanism, and the check
collapses to a closed form whose minimal sigma, 1/(epsilon - 2 ln(1 -
delta)), is laplace_sigma_lower_bound's, used directly.  The Gaussian calibrator
brackets the exact normal-CDF condition (dimension-independent for
l2-sensitivity) by powers of two, then searches it unsteered, as
mcverify's observational search does on calibrate_l2's bracket.  Its
arguments are checked once, on entry, and each probe evaluates the
hockey-stick formula unchecked (_gaussian_lhs, which gaussian_dp_lhs
puts behind its checks).  The Laplace scale sqrt(d)/(epsilon + delta)
is a closed-form pure-DP choice; at d = 1 it sits just above the exact
threshold sqrt(d)/(epsilon - 2 ln(1 - delta)), which is also provided
(for d >= 2 that scale is neither exact nor a lower bound).
PrivacyParams lives in lossbounds, next to the certificate that reads
it, and is declared public there alone; it is imported here, so
l2mech.calibrate.PrivacyParams still names it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import (
    dimension,
    finite,
    instance,
    integer,
    number,
    positive,
    require,
    unless,
)
from .lossbounds import PrivacyParams, _exp_eps, _probe_check, _probe_checks
from .specfun import _normal_cdf

__all__ = [
    "CalibrationResult",
    "MECHANISMS",
    "calibrate_l2",
    "calibrate_gaussian",
    "laplace_sigma",
    "laplace_sigma_lower_bound",
    "gaussian_dp_lhs",
]

MECH_L2 = "l2"
MECH_LAPLACE = "laplace"
MECH_GAUSSIAN = "gaussian"
MECHANISMS = (MECH_L2, MECH_LAPLACE, MECH_GAUSSIAN)

_MAX_SEARCH = 200
_ULP_BUMP = 1.0 + 4.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated noise scale and how it was found.

    pure_epsilon is the pure-DP guarantee implied by the scale (None for
    the Gaussian, which has none); search_iterations counts certificate
    evaluations (0 for closed forms), each distinct sigma once in every
    search: for calibrate_gaussian its bracketing probes as well, for
    calibrate_l2 the deferred probes of the bracket's floor and top and
    any ulp nudges, each once whether the quarter grid decided it or the
    full grid ran as well.  hit_bracket_floor flags the degenerate
    case where the certificate already passed at the lowest sigma
    probed, so the returned value is a ceiling, not a minimum.
    """

    mechanism: str
    sigma: float
    pure_epsilon: float | None
    search_iterations: int
    tolerance: float
    hit_bracket_floor: bool = False

    def __post_init__(self):
        require(
            unless(
                self.mechanism in MECHANISMS, f"mechanism must be one of {MECHANISMS}"
            ),
            number("sigma", self.sigma) or positive("sigma", self.sigma),
            number("tolerance", self.tolerance)
            or unless(
                not finite("tolerance", self.tolerance) and self.tolerance >= 0.0,
                "tolerance must be finite and nonnegative",
            ),
        )


def _validate_common(
    params: PrivacyParams, tol: float, sensitivity: float, *more
) -> None:
    require(
        instance("params", params, PrivacyParams),
        number("tol", tol) or positive("tol", tol),
        number("sensitivity", sensitivity) or positive("sensitivity", sensitivity),
        *more,
    )


def calibrate_l2(
    dim: int,
    params: PrivacyParams,
    n_r: int = 1000,
    n_R: int = 1000,
    tol: float = 1e-3,
    sensitivity: float = 1.0,
) -> CalibrationResult:
    """Smallest certified sigma for the l2 mechanism in dim dimensions.

    Searches the dyadic lattice lo + k (hi - lo) / 2^m that a bisection
    on [tol, 1/epsilon] to width tol would visit, and returns the
    lattice point with the smallest certified index k whose k - 1 is
    not certified.  The first probe goes to the equal-error sigma
    sigma_G / sqrt(dim + 1), the l2 scale whose MSE dim (dim + 1) sigma^2
    matches the Gaussian mechanism's dim sigma_G^2: the l2 mechanism
    approaches the Gaussian as dim grows, so this estimate sharpens
    with dim (the bracket's midpoint when it is not below 1/epsilon).
    Each probe then names the next by one Newton step from its own
    report toward lhs_upper = delta, in u = log(1/sigma - epsilon) and
    w = log(lhs_upper / delta), on the slope the check reports
    (lhs_slope; see _newton_sigma), or the midpoint after a probe that
    gives no step; _lattice_search keeps the bracket.  The answer, bit
    for bit the bisection's whenever the verdict is monotone in sigma,
    takes 2.9 probes on average for dim > 100, 4.3 for 10 < dim <= 100
    and 3.7 for 2 <= dim <= 10 (the benchmark's calibrate-mix targets,
    seed 1, blocks 0-1, at tol = 1e-3), instead of m + 1.  At dim >= 3
    a probe is decided on the grid of n_r/4 by n_R/4 cells nested in
    its own where that grid proves the full grid's verdict (its lower
    bound above delta, or its upper bound below delta by more than the
    full grid's larger rounding margin can add; see
    lossbounds._probe_check), and runs the full grid only elsewhere:
    43 of the 805 dim >= 3 probes on those targets.  The floor is
    probed only when the search ends at index 1 and the top 1/epsilon
    only when it ends there; search_iterations counts both.  A sigma
    that two lattice indices share (below the float spacing) is checked
    once.  dim == 1 uses the exact closed form.  Either way a sigma that
    fails its own certificate is nudged up by float ulps until it
    passes, so the returned sigma is certified in every branch.  Every
    argument is checked once, before the first probe.
    """
    _validate_common(
        params,
        tol,
        sensitivity,
        dimension("dim", dim),
        integer("n_r", n_r, 2),
        integer("n_R", n_R, 2),
    )
    return _drive(
        _l2_search(dim, params, n_r, n_R, tol, sensitivity, None),
        lambda s: _probe_check(dim, s, params, n_r, n_R),
    )


def _l2_search(dim, params, n_r, n_R, tol, sensitivity, estimate):
    """calibrate_l2 on checked arguments as a resumable search, its first probe at estimate.

    A generator: it yields each sigma to certify, is sent that sigma's
    _probe_checks report, and returns the CalibrationResult.  estimate
    is a unit-sensitivity sigma; None means the equal-error sigma.  The
    estimate only moves the probes, never the answer: comparison_table
    passes a secant extrapolation of its earlier rows, which is close
    but may lie on either side of the answer.
    """
    eps = params.epsilon
    log_delta = math.log(params.delta)
    reports = {}

    def check(s: float):
        # a sigma checked before keeps its report: below the float spacing
        # near the top of a deep bracket, lattice indices share a sigma
        if s not in reports:
            reports[s] = yield s
        return reports[s]

    def certify_upward(sigma: float):
        # the first of sigma, sigma * _ULP_BUMP, ... that passes its
        # certificate: needed where a sigma is certified in exact
        # arithmetic but not in floats, the d = 1 closed form and 1/epsilon
        # when epsilon * (1/epsilon) rounds to 1 - 2^-53
        for _ in range(_MAX_SEARCH):
            if (yield from check(sigma)).satisfies_dp:
                return sigma
            sigma *= _ULP_BUMP
        raise RuntimeError("calibrate_l2: sigma failed its certificate repeatedly")

    def result(sigma: float, floor: bool = False) -> CalibrationResult:
        return CalibrationResult(
            MECH_L2, sigma * sensitivity, 1.0 / sigma, len(reports), tol, floor
        )

    if dim == 1:
        return result((yield from certify_upward(laplace_sigma_lower_bound(1, params))))
    lo, hi = _bracket(eps, tol)
    if estimate is None:
        estimate = _equal_error_sigma(dim, params, tol, hi)
    search = _lattice_search(lo, hi, tol, estimate)
    try:
        s = next(search)
        while True:
            report = yield from check(s)
            s = search.send((report.satisfies_dp, _newton_sigma(report, s, eps, log_delta)))
    except StopIteration as stop:
        below, sigma = stop.value
    # the floor and the top were not probed; a sigma that rounds to the
    # top passed as a probe, so certify_upward finds it in reports
    if below == lo and (yield from check(lo)).satisfies_dp:
        return result(lo, floor=True)
    if sigma == hi:
        return result((yield from certify_upward(hi)))
    return result(sigma)


def _calibrate_l2_rows(dims, params, n_r, n_R, tol) -> list[CalibrationResult]:
    """calibrate_l2 at unit sensitivity for each of the increasing dims, run as a wavefront.

    The search of dims[i] starts as soon as that of dims[i - 1] has one
    report, its first probe at the secant (_secant) through the latest
    sigmas of the two searches before it: a finished search's answer,
    else the sigma its last report's Newton step names (_newton_sigma),
    else the sigma it last probed.  Each round then sends the next sigma
    of every running search to one _probe_checks call, which bounds all
    of the d >= 3 ones on the quarter grid in one certificate pass and
    runs the full grid, a batch of one, only for a probe the quarter
    grid cannot decide.  Every search is _l2_search's own, so each
    answer is a stand-alone calibrate_l2 call's wherever the verdict is
    monotone in sigma; the schedule moves the probes only.
    """
    eps, log_delta = params.epsilon, math.log(params.delta)
    results = [None] * len(dims)
    # (dim, latest sigma) of every started search, and the sigma each
    # running one waits on
    found, waiting = [], {}

    def advance(i, search, report=None):
        try:
            waiting[i] = search, search.send(report)
        except StopIteration as stop:
            results[i] = stop.value
            found[i] = dims[i], stop.value.sigma

    while len(found) < len(dims) or waiting:
        i = len(found)
        if i < len(dims) and (i == 0 or found[i - 1][1] is not None):
            found.append((dims[i], None))
            estimate = _secant(found[:i], dims[i])
            advance(i, _l2_search(dims[i], params, n_r, n_R, tol, 1.0, estimate))
        batch = list(waiting.items())
        waiting.clear()
        reports = _probe_checks(
            [dims[i] for i, _ in batch], [s for _, (_, s) in batch], params, n_r, n_R
        )
        for (i, (search, s)), report in zip(batch, reports):
            guess = _newton_sigma(report, s, eps, log_delta)
            found[i] = dims[i], guess if guess is not None and math.isfinite(guess) else s
            advance(i, search, report)
    return results


def _secant(found: list[tuple[int, float]], d: int) -> float | None:
    """First-probe sigma at d from the (dim, sigma) pairs found so far.

    The secant through the last two, written in the dimension so an
    uneven list of dimensions extrapolates as well as 1..d_max; the
    last sigma when there is one pair, None (the equal-error sigma)
    when there is none.
    """
    if len(found) < 2:
        return found[-1][1] if found else None
    (a, sa), (b, sb) = found[-2:]
    return sb + (sb - sa) * (d - b) / (b - a)


def _drive(search, probe):
    """Run a resumable search to its end, sending it probe(sigma) for each sigma it yields.

    Returns what the search returns.
    """
    try:
        sigma = next(search)
        while True:
            sigma = search.send(probe(sigma))
    except StopIteration as stop:
        return stop.value


def _equal_error_sigma(dim: int, params: PrivacyParams, tol: float, hi: float):
    """sigma_G / sqrt(dim + 1) if it lies below hi, else None.

    The l2 scale with the Gaussian mechanism's MSE.  None also when the
    Gaussian search cannot converge (at tiny delta its bracket is wider
    than the l2 one), so an l2 calibration never raises for it.
    """
    try:
        sigma = calibrate_gaussian(params, tol).sigma / math.sqrt(dim + 1)
    except RuntimeError:
        return None
    return sigma if sigma < hi else None


def _bracket(eps: float, tol: float) -> tuple[float, float]:
    """[tol, 1/eps] with tol halved until it lies below 1/eps."""
    hi = 1.0 / eps
    lo = tol
    while lo >= hi:
        lo *= 0.5
    return lo, hi


def _lattice_sigma(k: int, depth: int, lo: float, hi: float) -> float:
    """The float a bisection on [lo, hi] holds at lattice index k of 2^depth.

    Replays the 0.5 * (lo + hi) steps toward k, so every lattice point
    rounds exactly as the bisection that reaches it would round it.
    """
    a, b = 0, 1 << depth
    while a < k < b:
        c = (a + b) >> 1
        mid = 0.5 * (lo + hi)
        if k <= c:
            b, hi = c, mid
        else:
            a, lo = c, mid
    return lo if k == a else hi


def _lattice_search(lo: float, hi: float, tol: float, first=None):
    """(sigma_{k-1}, sigma_k) for the smallest passing lattice index k >= 1, a resumable search.

    A generator: it yields each sigma to probe and is sent back (passed,
    the sigma to probe next or None) for it; it returns the pair.  A
    caller that blocks on every probe runs it through _drive, and
    comparison_table runs many at once (_calibrate_l2_rows); either way
    the probes and the answer are the same.

    The lattice holds the 2^depth + 1 sigmas lo + k (hi - lo) / 2^depth
    that a bisection of [lo, hi] visits until its bracket is at most tol
    wide, each rounded as that bisection rounds it (_lattice_sigma).
    Index 0 (lo) is taken to fail and 2^depth (hi) to pass without
    probing either; the caller settles them.  sigma_{k-1} is lo only at
    k = 1, since the spacing exceeds tol / 2 >= lo / 2; sigma_k is hi at
    k = 2^depth, or where lattice points round to hi (then it passed as a
    probe).  The first probe goes to first and each later one to the
    sigma the probe before it named; None or a non-finite sigma means
    the bracket's midpoint, so probes that never name one are exactly a
    bisection's, in its order.  A named sigma is rounded up to the
    lattice and kept strictly inside the bracket, which closes the last
    step from the other side.  A sigma named by a passing probe is
    rounded one step further down: an accurate estimate then lands on
    the failing side, which is the side the search still needs, and a
    run of Newton steps that approach the threshold from the passing
    side gains a step each time.  As in ITP, every probe also stays close enough
    to the midpoint that bisection could still finish within depth + 3
    probes, so misleading sigmas cost at most three more.  They move the
    probes only: the returned pair is the bisection's whenever passing
    is monotone.
    """
    width, depth = hi - lo, 0
    while width > tol:
        width *= 0.5
        depth += 1
    if depth >= _MAX_SEARCH:
        raise RuntimeError(
            f"tol={tol!r} is too fine for the bracket [{lo!r}, {hi!r}]: the"
            f" search would need {depth} halvings, more than {_MAX_SEARCH - 1}"
        )
    below, above = 0, 1 << depth
    spacing = (hi - lo) / above
    guess, passed = first, False
    probes = 0
    while above - below > 1:
        reach = 1 << (depth + 2 - probes)
        probes += 1
        if guess is None or not math.isfinite(guess):
            k = (below + above) // 2
        else:
            k = math.ceil((min(max(guess, lo), hi) - lo) / spacing)
            if passed:
                k -= 1
            k = min(max(k, below + 1, above - reach), above - 1, below + reach)
        passed, guess = yield _lattice_sigma(k, depth, lo, hi)
        if passed:
            above = k
        else:
            below = k
    return _lattice_sigma(below, depth, lo, hi), _lattice_sigma(above, depth, lo, hi)


def _newton_sigma(report, sigma: float, eps: float, log_delta: float):
    """The sigma one Newton step from this probe puts at lhs_upper = delta.

    The step runs in u = log(1/sigma - eps) and w = log(lhs_upper / delta),
    in which the bound is close to a line near the threshold w = 0, with
    dw/du from the check's lhs_slope.  None when the report gives no step
    (no slope, lhs_upper <= 0 or 1/sigma <= eps), NaN for a zero slope:
    _lattice_search takes either as the midpoint.
    """
    lhs, slope = report.lhs_upper, report.lhs_slope
    gap = 1.0 / sigma - eps
    if slope is None or not (lhs > 0.0 and gap > 0.0):
        return None
    # du/dsigma = -1 / (sigma^2 gap)
    dw_du = -slope * sigma * sigma * gap / lhs
    if not dw_du:
        return math.nan
    u = math.log(gap) - (math.log(lhs) - log_delta) / dw_du
    return 1.0 / (eps + math.exp(min(u, 700.0)))


def gaussian_dp_lhs(sigma: float, epsilon: float) -> float:
    """Exact hockey-stick value for the unit-sensitivity Gaussian.

    Phi(1/(2 sigma) - eps sigma) - e^eps Phi(-1/(2 sigma) - eps sigma);
    the mechanism is (eps, delta)-DP iff this is <= delta.
    """
    require(
        number("sigma", sigma) or positive("sigma", sigma),
        number("epsilon", epsilon) or positive("epsilon", epsilon),
    )
    return _gaussian_lhs(sigma, epsilon)


def _gaussian_lhs(sigma: float, epsilon: float) -> float:
    # gaussian_dp_lhs on arguments already checked
    a = 1.0 / (2.0 * sigma) - epsilon * sigma
    b = -1.0 / (2.0 * sigma) - epsilon * sigma
    return _normal_cdf(a) - _exp_eps(epsilon) * _normal_cdf(b)


def calibrate_gaussian(
    params: PrivacyParams, tol: float = 1e-3, sensitivity: float = 1.0
) -> CalibrationResult:
    """Smallest sigma for the Gaussian mechanism via the exact condition.

    The condition is dimension-free for unit l2-sensitivity, so no dim
    argument: the same sigma per coordinate works in every dimension.
    The bracket doubles up from 1 until the condition passes, or halves
    down while it still passes (to a floor below 1e-12, where the result
    is a ceiling and says so); _lattice_search then searches it,
    unsteered, to width tol.
    """
    _validate_common(params, tol, sensitivity)
    eps, delta = params.epsilon, params.delta
    seen = {}

    def passes(s: float) -> bool:
        if s not in seen:
            seen[s] = _gaussian_lhs(s, eps) <= delta
        return seen[s]

    hi = 1.0
    for _ in range(_MAX_SEARCH):
        if passes(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("calibrate_gaussian: failed to bracket from above")
    # once the doubling moved past 1, hi / 2 already failed: seen answers it
    lo = hi / 2.0
    floor = False
    while not floor and passes(lo):
        hi, lo = lo, lo / 2.0
        floor = lo < 1e-12
    if not floor:
        hi = _drive(_lattice_search(lo, hi, tol), lambda s: (passes(s), None))[1]
    return CalibrationResult(
        MECH_GAUSSIAN, hi * sensitivity, None, len(seen), tol, floor
    )


def laplace_sigma(
    dim: int, params: PrivacyParams, sensitivity: float = 1.0
) -> CalibrationResult:
    """Closed-form Laplace scale sqrt(dim)/(epsilon + delta) per coordinate.

    An l2-sensitivity of 1 caps the l1-sensitivity at sqrt(dim); adding
    i.i.d. Laplace(scale) noise then gives pure sqrt(dim)/scale-DP, and
    this scale spends the whole (epsilon + delta) budget on it, which
    in particular implies (epsilon, delta)-DP.  At dim == 1 it lies
    slightly above the exact minimum, laplace_sigma_lower_bound; for
    dim >= 2 that function gives no minimum (see there).
    """
    require(
        dimension("dim", dim),
        instance("params", params, PrivacyParams),
        number("sensitivity", sensitivity) or positive("sensitivity", sensitivity),
    )
    unit = math.sqrt(dim) / (params.epsilon + params.delta)
    return CalibrationResult(
        MECH_LAPLACE, unit * sensitivity, math.sqrt(dim) / unit, 0, 0.0
    )


def laplace_sigma_lower_bound(dim: int, params: PrivacyParams) -> float:
    """The Laplace scale sqrt(dim)/(epsilon - 2 ln(1 - delta)).

    At dim == 1 this is the exact minimal scale: below it the mechanism
    fails (epsilon, delta)-DP for the pair at distance 1, and
    laplace_sigma exceeds it by O(delta) relative, never the reverse.
    For dim >= 2 it is neither exact nor a lower bound: the privacy
    loss of the pair at l1-distance sqrt(dim), the diagonal shift, is a
    sum of dim bounded terms and concentrates, so smaller scales can
    still pass there.
    """
    require(dimension("dim", dim), instance("params", params, PrivacyParams))
    return math.sqrt(dim) / (params.epsilon - 2.0 * math.log1p(-params.delta))
