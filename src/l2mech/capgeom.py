"""Spherical-cap geometry of the high-privacy-loss region.

The noise density exp(-||y - center||_2 / sigma) treats spheres around
its center uniformly, so the region where the privacy loss between the
two mechanism centers (distance 1 apart, losses measured in units of
1/sigma) exceeds epsilon intersects each sphere in a cap.  This module
computes the cap heights on spheres around either center, the fraction
of a sphere's surface area a cap of given height occupies, and the
radial CDF of the noise distribution.

Every function accepts scalars or numpy arrays for the radial argument;
grids of radii evaluate in single vectorized calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer, number, positive, require, unless
from .specfun import reg_inc_beta, reg_lower_gamma

__all__ = ["LossGeometry", "height_h", "height_H", "cap_fraction", "radial_cdf"]


@dataclass(frozen=True)
class LossGeometry:
    """Dimension and scale data for the privacy-loss region.

    tau = epsilon * sigma is the loss threshold rescaled to distance
    units; it is derived from the stored fields rather than stored, so
    the three can never drift apart.  The cap-height functions require
    tau < 1 (otherwise the region is empty and there are no caps), which
    is enforced here at construction.
    """

    dim: int
    sigma: float
    epsilon: float

    def __post_init__(self):
        require(
            integer("dim", self.dim),
            number("sigma", self.sigma) or positive("sigma", self.sigma),
            number("epsilon", self.epsilon) or positive("epsilon", self.epsilon),
            unless(
                np.ndim(self.epsilon * self.sigma) or self.epsilon * self.sigma < 1.0,
                "epsilon * sigma must be < 1 (otherwise the loss region is empty)",
            ),
        )

    @property
    def tau(self) -> float:
        return self.epsilon * self.sigma


def height_h(geom: LossGeometry, r):
    """Cap height cut from the sphere of radius r around the noise center.

    Equals min((1 - tau) * (r + (1 + tau)/2), 2r): spheres with
    r <= (1 - tau)/2 lie entirely inside the loss region, so the cap is
    the whole sphere and the height saturates at the diameter 2r.
    """
    r_arr = np.asarray(r, dtype=np.float64)
    require(positive("r", r_arr))
    val = _cap_heights(geom.tau, r_arr, (1.0 + geom.tau) / 2.0)
    return float(val) if np.ndim(r) == 0 else val


def height_H(geom: LossGeometry, R):
    """Cap height on the sphere of radius R around the shifted center.

    Defined only for R >= (1 + tau)/2; smaller spheres do not meet the
    loss region at all and asking for their cap height is a caller bug,
    so this raises rather than clamping.  The factored form
    (1 - tau) * (R - (1 + tau)/2) is exactly 0 at the threshold, and it
    never reaches the diameter 2R.
    """
    R_arr = np.asarray(R, dtype=np.float64)
    lo = (1.0 + geom.tau) / 2.0
    require(
        positive("R", R_arr),
        unless(
            not np.any(R_arr < lo),
            f"R must be >= (1 + tau)/2 = {lo}; spheres below that radius "
            "miss the loss region entirely",
        ),
    )
    val = _cap_heights(geom.tau, R_arr, -lo)
    return float(val) if np.ndim(R) == 0 else val


def _cap_heights(tau: float, r, offset):
    """The cap-height line min((1 - tau) * (r + offset), 2r), unchecked.

    offset is +(1 + tau)/2 on spheres around the noise center and
    -(1 + tau)/2 around the shifted one; height_h, height_H and the
    certificate's grids all take their heights from here.
    """
    return np.minimum((1.0 - tau) * (r + offset), 2.0 * r)


def cap_fraction(dim: int, r, h):
    """Fraction of the (dim-1)-sphere's surface inside a cap of height h.

    For h <= r the fraction is half a regularized incomplete beta,
    I_{1-(1-h/r)^2}((dim-1)/2, 1/2) / 2; taller caps use the complement
    of the opposite cap.  Exact at h = 0 (0), h = r (1/2) and h = 2r (1).
    """
    r_arr = np.asarray(r, dtype=np.float64)
    h_arr = np.asarray(h, dtype=np.float64)
    require(
        integer("dim", dim, 2, "dim must be an integer >= 2 (spheres need dimension)"),
        unless(
            np.all(np.isfinite(r_arr)) and np.all(np.isfinite(h_arr)),
            "r and h must be finite",
        ),
        unless(not np.any(r_arr <= 0), "r must be positive"),
        unless(
            not (np.any(h_arr < 0) or np.any(h_arr > 2.0 * r_arr)),
            "h must lie in [0, 2r]",
        ),
    )
    r_b, h_b = np.broadcast_arrays(r_arr, h_arr)
    short = np.minimum(h_b, 2.0 * r_b - h_b)
    u = short / r_b
    arg = np.clip(u * (2.0 - u), 0.0, 1.0)
    half = 0.5 * reg_inc_beta(arg, (dim - 1) / 2.0, 0.5)
    val = np.where(h_b <= r_b, half, 1.0 - half)
    return float(val) if np.ndim(val) == 0 or val.shape == () else val


def radial_cdf(dim: int, sigma: float, r):
    """P[||noise||_2 <= r] for the exp(-||.||/sigma) density in R^dim.

    The radial density is proportional to s^(dim-1) exp(-s/sigma), so the
    CDF is the regularized lower incomplete gamma P(dim, r/sigma).
    """
    r_arr = np.asarray(r, dtype=np.float64)
    require(
        integer("dim", dim),
        number("sigma", sigma) or positive("sigma", sigma),
        unless(
            np.all(np.isfinite(r_arr)) and not np.any(r_arr < 0),
            "r must be nonnegative and finite",
        ),
    )
    return reg_lower_gamma(float(dim), r_arr / sigma)
