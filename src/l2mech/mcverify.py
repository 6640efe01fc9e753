"""Monte-Carlo verification of the approximate-DP condition.

The analytic route certifies P0[loss >= eps] - e^eps P1[loss >= eps]
<= delta with one-sided certified bounds; this module estimates the same
left-hand side by direct simulation, as an independent check.  c1 is
the fraction of mechanism outputs (centered at the origin) landing in
the high-loss region, c2 the fraction for the shifted center landing
in the same region.

The loss (||y - e1|| - ||y||) / sigma of an output y depends on y only
through its distance R from its own center and the first coordinate t
of its direction, so each draw is the exact pair (R, t): R ~
Gamma(dim, sigma) as in sample_l2, and t the first coordinate of a
uniform direction on the sphere.  One pair serves both centers: the
noise vector R u is added to each (common random numbers), giving the
output R u around the origin and e1 + R u around e1, each an exact
draw of its own mechanism.  The stream gives, per chunk, the radii,
then the normals, then the rest variates (see empirical_lhs).  A draw
costs O(1) whatever dim is, and there is no discretization bias, only
binomial noise: each count is Binomial(n, c_i).  std_error is
se1 + e^eps se2, the two binomial deviations with a 1/n floor each so
empty counts still report a positive error bar.  By Minkowski's
inequality that sum bounds the SD of c1 - e^eps c2 whatever the
dependence between the two counts, so the bar holds for the coupled
clouds too.  The full d-dimensional clouds survive only as the test
oracle.
empirical_min_sigma searches with calibrate's _lattice_search,
unsteered, on the bracket calibrate_l2 searches (calibrate's _bracket),
and returns the sigma_k of the pair that search hands back.  Its probes
never share a memo: each draws fresh samples, so a sigma probed twice
can get two verdicts.  Every argument, the rng included, is checked on
entry, and the probes run unchecked (_empirical_lhs, which empirical_lhs
puts behind its checks).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import dimension, instance, integer, number, positive, require
from ._records import to_json
from .calibrate import PrivacyParams, _bracket, _drive, _lattice_search
from .lossbounds import _exp_eps
from .sampler import RngState

__all__ = ["EmpiricalPrivacyEstimate", "empirical_lhs", "empirical_min_sigma"]

_CHUNK_DRAWS = 2**16
# a radius past this (inf, when sigma * Gamma(dim) overflows) is taken as
# it: the loss gap is within w/(2R) of its limit -t, so it moves by under
# 2^-500, while (R - t)^2 and 2Rt stay finite
_MAX_RADIUS = 2.0**500


@dataclass(frozen=True)
class EmpiricalPrivacyEstimate:
    """One Monte-Carlo estimate of the hockey-stick left-hand side.

    lhs_estimate = c1 - e^epsilon * c2 by construction; std_error is
    the conservative binomial bar described in the module docstring.
    seed and stream_id name the stream that produced the draws.
    """

    dim: int
    sigma: float
    epsilon: float
    lhs_estimate: float
    c1: float
    c2: float
    n: int
    std_error: float
    seed: int
    stream_id: int = 0

    def to_json(self) -> str:
        return to_json({
            "d": int(self.dim),
            "sigma": float(self.sigma),
            "epsilon": float(self.epsilon),
            "n": int(self.n),
            "c1": float(self.c1),
            "c2": float(self.c2),
            "lhs": float(self.lhs_estimate),
            "std_error": float(self.std_error),
            "seed": int(self.seed),
            "stream_id": int(self.stream_id),
        })


def _first_coordinate(gen: np.random.Generator, dim: int, size):
    """First coordinates t of uniform directions in R^dim, and 1 - t^2.

    t = z / sqrt(z^2 + 2G) with z ~ N(0, 1) and G ~ Gamma((dim - 1)/2):
    z^2 is the first coordinate's share of a chi-square(dim) squared
    norm and 2G the chi-square(dim - 1) rest, so 1 - t^2 = 2G / (z^2 +
    2G) comes without cancellation.  At dim = 2 the chi-square(1) rest
    is drawn as the square of a second normal, the same law as 2G
    without numpy's slow shape < 1 gamma path.  At dim = 1 the
    direction is +-1, the sign of z (a z of exactly +-0 still gives
    +-1).
    """
    z = gen.standard_normal(size)
    if dim == 1:
        return np.copysign(1.0, z), np.zeros(size)
    if dim == 2:
        rest = np.square(gen.standard_normal(size))
    else:
        rest = 2.0 * gen.standard_gamma(0.5 * (dim - 1), size)
    norm2 = z * z + rest
    return z / np.sqrt(norm2), rest / norm2


def _loss_gap(r: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||y - e1|| - ||y|| at y = R u, where u has first coordinate t, w = 1 - t^2.

    ||y - e1||^2 = (R - t)^2 + w = R^2 - 2Rt + 1, a sum of two
    nonnegative terms, and the difference of norms is taken as
    (1 - 2Rt) / (||y - e1|| + R), so neither step cancels.
    """
    return (1.0 - 2.0 * r * t) / (np.sqrt((r - t) ** 2 + w) + r)


def empirical_lhs(
    dim: int, sigma: float, epsilon: float, n: int, rng: RngState
) -> EmpiricalPrivacyEstimate:
    """Estimate the hockey-stick lhs at (dim, sigma, epsilon) from n draws.

    Tests n outputs around the origin and n around the unit vector e1
    for membership in the high-loss region
    (||y - e1|| - ||y||) / sigma >= epsilon, and combines the two
    counts.  The loss depends on an output only through its distance
    R ~ Gamma(dim, sigma) from its own center and the first coordinate
    t of its direction (_first_coordinate), so each draw is two scalars
    whatever dim is: around 0, ||y|| = R and ||y - e1||^2 = R^2 - 2Rt + 1;
    around e1, ||y - e1|| = R and ||y||^2 = R^2 + 2Rt + 1 (_loss_gap).
    Each pair (R, t) gives one output of each cloud, the same noise R u
    added to both centers: R u around 0 and e1 + R u around e1.

    Deterministic given the rng state.  Draws come in chunks of at most
    _CHUNK_DRAWS pairs; per chunk of m the stream gives m radii, m
    normals z, then m rest variates: m more normals when dim = 2, m
    Gamma((dim - 1)/2) variates when dim > 2 and none when dim = 1.
    Memory is a few arrays of m floats, independent of dim and n.
    """
    require(
        dimension("dim", dim),
        number("sigma", sigma) or positive("sigma", sigma),
        number("epsilon", epsilon) or positive("epsilon", epsilon),
        integer("n", n),
        instance("rng", rng, RngState),
    )
    return _empirical_lhs(dim, sigma, epsilon, n, rng)


def _empirical_lhs(dim, sigma, epsilon, n, rng) -> EmpiricalPrivacyEstimate:
    # empirical_lhs on arguments already checked
    dim = int(dim)
    n = int(n)
    tau = epsilon * sigma
    gen = rng.generator
    k1 = 0
    k2 = 0
    done = 0
    while done < n:
        m = min(_CHUNK_DRAWS, n - done)
        r = np.minimum(gen.gamma(dim, sigma, size=m), _MAX_RADIUS)
        t, w = _first_coordinate(gen, dim, m)
        k1 += int(np.count_nonzero(_loss_gap(r, t, w) >= tau))
        # y = e1 + Ru, the same noise around e1, mirrors through e1/2 to
        # -Ru, which swaps the two distances and so negates the loss
        k2 += int(np.count_nonzero(_loss_gap(r, -t, w) <= -tau))
        done += m
    c1 = k1 / n
    c2 = k2 / n
    ee = _exp_eps(epsilon)
    se1 = max(math.sqrt(c1 * (1.0 - c1) / n), 1.0 / n)
    se2 = max(math.sqrt(c2 * (1.0 - c2) / n), 1.0 / n)
    return EmpiricalPrivacyEstimate(
        dim=dim,
        sigma=float(sigma),
        epsilon=float(epsilon),
        lhs_estimate=c1 - ee * c2,
        c1=c1,
        c2=c2,
        n=n,
        std_error=se1 + ee * se2,
        seed=rng.seed,
        stream_id=rng.stream_id,
    )


def empirical_min_sigma(
    dim: int, params: PrivacyParams, n: int, tol: float, rng: RngState
) -> float:
    """Binary search for the smallest sigma whose empirical lhs is <= delta.

    Purely observational (no certificate): each probe spends n fresh
    pairs (R, t), each serving both centers, and the search bisects the
    same [tol, 1/epsilon] bracket as the analytic calibrator, after
    checking that its floor fails.  A probe costs O(n) whatever dim is, so n = 10^6 is
    affordable (a few seconds per search).  At delta = 0.01 the gap to
    calibrate_l2's sigma then has an SD near 0.5%, against about 1.5%
    at n * delta ~ 1000, where a few percent is common.  A warning
    fires when n * delta < 100, where the boundary events are too rare
    to steer the search.
    """
    require(
        dimension("dim", dim),
        instance("params", params, PrivacyParams),
        integer("n", n),
        number("tol", tol) or positive("tol", tol),
        instance("rng", rng, RngState),
    )
    if n * params.delta < 100:
        warnings.warn(
            f"n * delta = {n * params.delta:.3g} < 100: too few expected "
            "boundary events for a stable search",
            RuntimeWarning,
            stacklevel=2,
        )
    eps, delta = params.epsilon, params.delta
    lo, hi = _bracket(eps, tol)

    def passes(sigma: float):
        return _empirical_lhs(dim, sigma, eps, n, rng).lhs_estimate <= delta, None

    if passes(lo)[0]:
        raise RuntimeError(
            f"empirical_min_sigma: bracketing failure, the empirical check "
            f"already passes at sigma = {lo}"
        )
    return _drive(_lattice_search(lo, hi, tol), passes)[1]
