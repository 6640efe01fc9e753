"""Noise-scale calibration for the l2, Laplace and Gaussian mechanisms.

Each calibrator returns the smallest noise scale (within a search
tolerance) whose privacy certificate passes for the requested
(epsilon, delta) pair, for a statistic with unit l2-sensitivity unless
a different sensitivity is given (scales multiply through linearly).

The l2 mechanism is searched against the certified Riemann check from
lossbounds, on the lattice of sigmas a bisection on [tol, 1/epsilon]
would visit, with each probe placed by the margin lhs_upper left at
the probes before it.  sigma = 1/epsilon passes in exact arithmetic
(the loss region is empty there); when epsilon * (1/epsilon) rounds
below 1 it is nudged up by ulps until its certificate passes.  In one
dimension the check collapses to a closed form whose minimal sigma is
1/(epsilon - 2 ln(1 - delta)), used directly.  The Gaussian calibrator
binary-searches the exact normal-CDF condition (dimension-independent
for l2-sensitivity); the Laplace scale sqrt(d)/(epsilon + delta) is a
closed-form choice sitting just above the exact threshold, which is
also provided for reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lossbounds import BoundReport, GridDomainError, _exp_eps, check_approx_dp
from .specfun import std_normal_cdf

__all__ = [
    "PrivacyParams",
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
class PrivacyParams:
    """An (epsilon, delta) approximate-DP target; both strictly bounded."""

    epsilon: float
    delta: float

    def __post_init__(self):
        problems = []
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            problems.append("epsilon must be positive and finite")
        if not (np.isfinite(self.delta) and 0.0 < self.delta < 1.0):
            problems.append("delta must lie strictly in (0, 1)")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated noise scale and how it was found.

    pure_epsilon is the pure-DP guarantee implied by the scale (None for
    the Gaussian, which has none); search_iterations counts certificate
    evaluations (0 for closed forms), for calibrate_l2 including the
    deferred probes of the bracket's floor and top and any ulp nudges.
    hit_bracket_floor flags the degenerate case where the certificate
    already passed at the lowest sigma probed, so the returned value is
    a ceiling, not a minimum.
    """

    mechanism: str
    sigma: float
    pure_epsilon: float | None
    search_iterations: int
    tolerance: float
    hit_bracket_floor: bool = False

    def __post_init__(self):
        problems = []
        if self.mechanism not in MECHANISMS:
            problems.append(f"mechanism must be one of {MECHANISMS}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            problems.append("sigma must be positive and finite")
        if self.tolerance < 0:
            problems.append("tolerance must be nonnegative")
        if problems:
            raise ValueError("; ".join(problems))


def _validate_common(params: PrivacyParams, tol: float, sensitivity: float) -> None:
    problems = []
    if not isinstance(params, PrivacyParams):
        problems.append("params must be a PrivacyParams")
    if not (np.isfinite(tol) and tol > 0):
        problems.append("tol must be positive and finite")
    if not (np.isfinite(sensitivity) and sensitivity > 0):
        problems.append("sensitivity must be positive and finite")
    if problems:
        raise ValueError("; ".join(problems))


def calibrate_l2(
    dim: int,
    params: PrivacyParams,
    n_r: int = 1000,
    n_R: int = 1000,
    tol: float = 1e-3,
    tail_fraction: float = 0.01,
    sensitivity: float = 1.0,
) -> CalibrationResult:
    """Smallest certified sigma for the l2 mechanism in dim dimensions.

    Searches the dyadic lattice lo + k (hi - lo) / 2^m that a bisection
    on [tol, 1/epsilon] to width tol would visit, and returns the
    lattice point with the smallest certified index k whose k - 1 is
    not certified.  Each probe's lhs_upper steers the next one (see
    _lattice_search), so the answer, bit for bit the bisection's
    whenever the verdict is monotone in sigma, takes about five probes
    instead of m + 1.  Probes whose grid cannot resolve the loss region
    (tiny sigma) count as not certified, which is always sound.  The
    floor is probed only when the search ends at index 1 and the top
    1/epsilon only when it ends there; search_iterations counts both.
    dim == 1 uses the exact closed form.  Either way a sigma that fails
    its own certificate is nudged up by float ulps until it passes, so
    the returned sigma is certified in every branch.
    """
    _validate_common(params, tol, sensitivity)
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError("dim must be an integer >= 1")
    eps = params.epsilon
    evals = 0

    def probe(s: float) -> BoundReport | None:
        nonlocal evals
        evals += 1
        try:
            return check_approx_dp(dim, s, params, n_r, n_R, tail_fraction)
        except GridDomainError:
            return None

    def certified(s: float) -> bool:
        report = probe(s)
        return report is not None and report.satisfies_dp

    def result(sigma: float, floor: bool = False) -> CalibrationResult:
        return CalibrationResult(
            MECH_L2, sigma * sensitivity, 1.0 / sigma, evals, tol, floor
        )

    if dim == 1:
        return result(
            _certify_upward(1.0 / (eps - 2.0 * math.log1p(-params.delta)), certified)
        )

    hi = 1.0 / eps
    lo = tol
    while lo >= hi:
        lo *= 0.5
    depth = _bisection_depth(lo, hi, tol)
    k = _lattice_search(lo, hi, depth, probe, eps, params.delta)
    if k == 1 and certified(lo):
        return result(lo, floor=True)
    if k == 1 << depth:
        return result(_certify_upward(hi, certified))
    return result(_lattice_sigma(k, depth, lo, hi))


def _certify_upward(sigma: float, certified) -> float:
    """First of sigma, sigma * _ULP_BUMP, ... that passes its certificate.

    Needed where a sigma is certified in exact arithmetic but not in
    floats: the d = 1 closed form, and 1/epsilon when epsilon * (1/epsilon)
    rounds to 1 - 2^-53 so the check takes its general branch.
    """
    for _ in range(_MAX_SEARCH):
        if certified(sigma):
            return sigma
        sigma *= _ULP_BUMP
    raise RuntimeError("calibrate_l2: sigma failed its certificate repeatedly")


def _bisection_depth(lo: float, hi: float, tol: float) -> int:
    """Halvings a bisection makes before its bracket [lo, hi] is <= tol wide."""
    width, depth = hi - lo, 0
    while width > tol:
        width *= 0.5
        depth += 1
    if depth >= _MAX_SEARCH:
        raise RuntimeError("calibrate_l2: binary search failed to converge")
    return depth


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


def _margin_point(report, sigma: float, eps: float, log_neg_log_delta: float):
    """(u, v) with u = log(1/sigma - eps), v = log(-log lhs) - log(-log delta).

    v >= 0 exactly when the probe certifies, and v against u is close to
    a line of slope -1, so a secant on it lands near the threshold.
    None when the report carries no usable margin.
    """
    if report is None or not 0.0 < report.lhs_upper < 1.0:
        return None
    gap = 1.0 / sigma - eps
    if gap <= 0.0:
        return None
    return math.log(gap), math.log(-math.log(report.lhs_upper)) - log_neg_log_delta


def _lattice_search(
    lo: float, hi: float, depth: int, probe, eps: float, delta: float
) -> int:
    """Smallest lattice index k in [1, 2^depth] whose sigma certifies.

    Index 0 (the floor) is taken as not certified and 2^depth (the top)
    as certified without probing either; the caller settles them.  The
    next probe is the margin estimate of the threshold rounded up to the
    lattice and kept strictly inside the bracket, which closes the last
    step from the other side.  After a probe with no usable margin (the
    first one included) it is the bracket's midpoint instead.  As in
    ITP, every probe also stays close enough to the midpoint that
    bisection could still finish the search within depth + 3 probes, so
    a misleading margin costs at most three probes over plain bisection.
    """
    below, above = 0, 1 << depth
    spacing = (hi - lo) / above
    log_neg_log_delta = math.log(-math.log(delta))
    points = []
    probes = 0
    point = None
    while above - below > 1:
        reach = 1 << (depth + 2 - probes)
        probes += 1
        k = _margin_index(points, eps, lo, spacing) if point else None
        if k is None:
            k = (below + above) // 2
        else:
            k = min(max(k, below + 1, above - reach), above - 1, below + reach)
        sigma = _lattice_sigma(k, depth, lo, hi)
        report = probe(sigma)
        point = _margin_point(report, sigma, eps, log_neg_log_delta)
        if point:
            points.append(point)
        if report is not None and report.satisfies_dp:
            above = k
        else:
            below = k
    return above


def _margin_index(points, eps: float, lo: float, spacing: float):
    """Lattice index just above the sigma where v reaches 0, or None.

    A secant through the two probes closest to the threshold in v, or
    the slope -1 line through the only one there is.  Far probes are
    left out because the curve bends where lhs_upper nears 0 or 1.
    """
    points = sorted(points, key=lambda p: abs(p[1]))[:2]
    if len(points) == 2:
        (u1, v1), (u2, v2) = points
        if v1 == v2:
            return None
        u = u1 - v1 * (u2 - u1) / (v2 - v1)
    elif points:
        u, v = points[0]
        u += v
    else:
        return None
    sigma = 1.0 / (eps + math.exp(min(u, 700.0)))
    return math.ceil((sigma - lo) / spacing)


def gaussian_dp_lhs(sigma: float, epsilon: float) -> float:
    """Exact hockey-stick value for the unit-sensitivity Gaussian.

    Phi(1/(2 sigma) - eps sigma) - e^eps Phi(-1/(2 sigma) - eps sigma);
    the mechanism is (eps, delta)-DP iff this is <= delta.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    a = 1.0 / (2.0 * sigma) - epsilon * sigma
    b = -1.0 / (2.0 * sigma) - epsilon * sigma
    return std_normal_cdf(a) - _exp_eps(epsilon) * std_normal_cdf(b)


def calibrate_gaussian(
    params: PrivacyParams, tol: float = 1e-3, sensitivity: float = 1.0
) -> CalibrationResult:
    """Smallest sigma for the Gaussian mechanism via the exact condition.

    The condition is dimension-free for unit l2-sensitivity, so no dim
    argument: the same sigma per coordinate works in every dimension.
    """
    _validate_common(params, tol, sensitivity)
    eps, delta = params.epsilon, params.delta

    evals = 0

    def passes(s: float) -> bool:
        nonlocal evals
        evals += 1
        return gaussian_dp_lhs(s, eps) <= delta

    hi = 1.0
    for _ in range(_MAX_SEARCH):
        if passes(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("calibrate_gaussian: failed to bracket from above")
    lo = hi / 2.0
    for _ in range(_MAX_SEARCH):
        if not passes(lo):
            break
        hi = lo
        lo /= 2.0
        if lo < 1e-12:
            return CalibrationResult(
                MECH_GAUSSIAN,
                hi * sensitivity,
                None,
                evals,
                tol,
                hit_bracket_floor=True,
            )
    else:
        raise RuntimeError("calibrate_gaussian: failed to bracket from below")
    for _ in range(_MAX_SEARCH):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    else:
        raise RuntimeError("calibrate_gaussian: binary search failed to converge")
    return CalibrationResult(MECH_GAUSSIAN, hi * sensitivity, None, evals, tol)


def laplace_sigma(
    dim: int, params: PrivacyParams, sensitivity: float = 1.0
) -> CalibrationResult:
    """Closed-form Laplace scale sqrt(dim)/(epsilon + delta) per coordinate.

    An l2-sensitivity of 1 caps the l1-sensitivity at sqrt(dim); adding
    i.i.d. Laplace(scale) noise then gives pure sqrt(dim)/scale-DP, and
    this scale spends the whole (epsilon + delta) budget on it, which
    in particular implies (epsilon, delta)-DP.  Slightly above the
    exact minimum (see laplace_sigma_lower_bound).
    """
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError("dim must be an integer >= 1")
    if not isinstance(params, PrivacyParams):
        raise ValueError("params must be a PrivacyParams")
    if not (np.isfinite(sensitivity) and sensitivity > 0):
        raise ValueError("sensitivity must be positive and finite")
    unit = math.sqrt(dim) / (params.epsilon + params.delta)
    return CalibrationResult(
        MECH_LAPLACE, unit * sensitivity, math.sqrt(dim) / unit, 0, 0.0
    )


def laplace_sigma_lower_bound(dim: int, params: PrivacyParams) -> float:
    """Exact minimal Laplace scale sqrt(dim)/(epsilon - 2 ln(1 - delta)).

    Below this scale the mechanism provably fails (epsilon, delta)-DP
    for the worst-case pair at l1-distance sqrt(dim); the closed-form
    choice above exceeds it by O(delta) relative, never the reverse.
    """
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError("dim must be an integer >= 1")
    if not isinstance(params, PrivacyParams):
        raise ValueError("params must be a PrivacyParams")
    return math.sqrt(dim) / (params.epsilon - 2.0 * math.log1p(-params.delta))
