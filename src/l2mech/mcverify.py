"""Monte-Carlo verification of the approximate-DP condition.

The analytic route certifies P0[loss >= eps] - e^eps P1[loss >= eps]
<= delta with one-sided Riemann bounds; this module estimates the same
left-hand side by direct simulation, as an independent check.  c1 is
the fraction of mechanism outputs (centered at the origin) landing in
the high-loss region, c2 the fraction for the shifted center landing
in the same region.

Estimates are exact-sampler based, so there is no discretization bias,
only binomial noise; std_error adds the two binomial deviations (a
conservative choice, since the difference's variance is at most the
sum), with a 1/n floor per term so empty counts still report a
positive error bar.  empirical_min_sigma searches with calibrate's
_lattice_search, unsteered, on the bracket calibrate_l2 searches.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import instance, integer, positive, require
from .calibrate import PrivacyParams, _bracket, _lattice_search, _lattice_sigma
from .lossbounds import _exp_eps
from .sampler import RngState, sample_l2

__all__ = ["EmpiricalPrivacyEstimate", "empirical_lhs", "empirical_min_sigma"]

_CHUNK_ELEMENTS = 2**24


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
        payload = {
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
        }
        return json.dumps(payload, indent=2)


def empirical_lhs(
    dim: int, sigma: float, epsilon: float, n: int, rng: RngState
) -> EmpiricalPrivacyEstimate:
    """Estimate the hockey-stick lhs at (dim, sigma, epsilon) from n draws.

    Draws n outputs around the origin and n around the unit vector,
    counts membership of both clouds in the high-loss region, and
    combines.  Deterministic given the rng state; large batches are
    processed in fixed-size chunks, so memory stays bounded.
    """
    require(
        integer("dim", dim),
        positive("sigma", sigma),
        positive("epsilon", epsilon),
        integer("n", n),
    )
    dim = int(dim)
    n = int(n)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    origin = np.zeros(dim)

    def in_region(y: np.ndarray) -> np.ndarray:
        shifted = y - e1
        dist_shift = np.sqrt(np.einsum("ij,ij->i", shifted, shifted))
        dist_origin = np.sqrt(np.einsum("ij,ij->i", y, y))
        return (dist_shift - dist_origin) / sigma >= epsilon

    chunk = max(1, _CHUNK_ELEMENTS // (dim + 1))
    k1 = 0
    k2 = 0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        k1 += int(np.count_nonzero(in_region(sample_l2(origin, sigma, rng, size=m))))
        k2 += int(np.count_nonzero(in_region(sample_l2(e1, sigma, rng, size=m))))
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
    draws per center, and the search bisects the same [tol, 1/epsilon]
    bracket as the analytic calibrator, after checking that its floor
    fails.  Expect noise of a few percent at n * delta ~ 1000; a warning
    fires when n * delta < 100, where the boundary events are too rare
    to steer the search.
    """
    require(
        integer("dim", dim),
        instance("params", params, PrivacyParams),
        integer("n", n),
        positive("tol", tol),
    )
    if n * params.delta < 100:
        warnings.warn(
            f"n * delta = {n * params.delta:.3g} < 100: too few expected "
            "boundary events for a stable search",
            RuntimeWarning,
            stacklevel=2,
        )
    eps, delta = params.epsilon, params.delta
    lo, hi, depth = _bracket(eps, tol)

    def passes(sigma: float):
        return empirical_lhs(dim, sigma, eps, n, rng).lhs_estimate <= delta, None

    if passes(lo)[0]:
        raise RuntimeError(
            f"empirical_min_sigma: bracketing failure, the empirical check "
            f"already passes at sigma = {lo}"
        )
    return _lattice_sigma(_lattice_search(lo, hi, depth, passes), depth, lo, hi)
