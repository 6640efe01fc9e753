"""Closed-form error figures and the mechanism comparison table.

The lp-ball analogue of the l2 mechanism (density proportional to
exp(-||y||_p / sigma_p), radius scaled so the lp norm plays the unit
role) has mean squared l2 error

    (dim * sigma)^2 (dim + 1) * G(dim/p) G(3/p) / (G(1/p) G((dim+2)/p))

with G the gamma function, evaluated here as log-gamma differences so
dimensions up to ~1e4 do not overflow.  At p = 2 the ratio collapses
to 1/dim and the expression simplifies to dim (dim + 1) sigma^2; at
p = 1 it gives 2 dim sigma^2, matching i.i.d. Laplace noise.

comparison_table calibrates all three mechanisms to a shared
(epsilon, delta) target and reports each MSE normalized by the
Gaussian row, reproducing the headline utility comparison.  The l2
sigma falls smoothly with the dimension, so the l2 searches run as a
wavefront (calibrate._calibrate_l2_rows): the searches at d = 1 and 2
start at once and the one at d as soon as the one at d - 2 has a
report, its first probe at the secant through the latest sigmas of the
two nearest searches before it that have one, a predictor as in
numerical continuation, and each round bounds the next probe of every
running search in one certificate pass.  That moves the probes, not the
answer: wherever the verdict is monotone in sigma, each l2 row is bit
for bit a stand-alone calibrate_l2 call.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from ._checks import dimension, integer, number, positive, require
from ._records import to_csv, to_json
from .calibrate import (
    MECH_GAUSSIAN,
    MECH_L2,
    MECH_LAPLACE,
    PrivacyParams,
    _calibrate_l2_rows,
    calibrate_gaussian,
    laplace_sigma,
)

__all__ = [
    "ErrorRow",
    "mse_lp_mechanism",
    "mse_gaussian",
    "mse_laplace",
    "comparison_table",
    "table_to_csv",
    "table_to_json",
]

# the table's columns: each names the ErrorRow field in its place (d for dim)
TABLE_FIELDS = ("d", "mechanism", "sigma", "mse", "normalized_mse")


@dataclass(frozen=True)
class ErrorRow:
    """One mechanism's calibrated scale and error at one dimension.

    normalized_mse is mse divided by the Gaussian mechanism's mse at
    the same dimension and privacy target (so the Gaussian row is 1).
    """

    dim: int
    mechanism: str
    sigma: float
    mse: float
    normalized_mse: float


def mse_lp_mechanism(dim: int, p: float, sigma: float) -> float:
    """Mean squared l2 error of the lp-ball mechanism at scale sigma."""
    require(
        dimension("dim", dim),
        number("p", p) or positive("p", p),
        number("sigma", sigma) or positive("sigma", sigma),
    )
    d = int(dim)
    log_ratio = (
        math.lgamma(d / p)
        + math.lgamma(3.0 / p)
        - math.lgamma(1.0 / p)
        - math.lgamma((d + 2.0) / p)
    )
    return (d * sigma) ** 2 * (d + 1.0) * math.exp(log_ratio)


def mse_gaussian(dim: int, sigma: float) -> float:
    """Mean squared l2 error of i.i.d. N(0, sigma^2) noise: dim sigma^2."""
    require(dimension("dim", dim), number("sigma", sigma) or positive("sigma", sigma))
    return int(dim) * sigma**2


def mse_laplace(dim: int, scale: float) -> float:
    """Mean squared l2 error of i.i.d. Laplace(scale) noise: 2 dim scale^2."""
    require(dimension("dim", dim), number("scale", scale) or positive("scale", scale))
    return 2.0 * int(dim) * scale**2


def comparison_table(
    params: PrivacyParams,
    d_max: int,
    n_r: int = 1000,
    n_R: int = 1000,
    tol: float = 1e-3,
) -> list[ErrorRow]:
    """Calibrate l2, Laplace and Gaussian for every dim in 1..d_max.

    Returns three rows per dimension (l2, laplace, gaussian in that
    order), each normalized by the Gaussian MSE of its dimension.  The
    Gaussian scale is dimension-independent, so it is calibrated once.
    The l2 searches advance together (calibrate._calibrate_l2_rows):
    the one at d starts once the one at d - 2 has a report, at the
    secant through the latest sigmas of the two nearest before it that
    have one, next to the answer, and each round sends every running
    search's next sigma to one batched certificate call.  Each search still certifies its
    answer and the lattice point below it itself, so the l2 rows are
    the stand-alone calibrate_l2 sigmas.
    """
    require(dimension("d_max", d_max), integer("n_r", n_r, 2), integer("n_R", n_R, 2))
    gauss = calibrate_gaussian(params, tol=tol)
    dims = range(1, int(d_max) + 1)
    rows: list[ErrorRow] = []
    for d, l2 in zip(dims, _calibrate_l2_rows(dims, params, n_r, n_R, tol, 1.0)):
        lap = laplace_sigma(d, params)
        anchor = mse_gaussian(d, gauss.sigma)
        for mech, sigma, mse in (
            (MECH_L2, l2.sigma, mse_lp_mechanism(d, 2.0, l2.sigma)),
            (MECH_LAPLACE, lap.sigma, mse_laplace(d, lap.sigma)),
            (MECH_GAUSSIAN, gauss.sigma, anchor),
        ):
            rows.append(
                ErrorRow(
                    dim=d,
                    mechanism=mech,
                    sigma=sigma,
                    mse=mse,
                    normalized_mse=mse / anchor,
                )
            )
    return rows


def table_to_csv(rows: list[ErrorRow]) -> str:
    """RFC-4180 CSV with columns d,mechanism,sigma,mse,normalized_mse."""
    return to_csv(TABLE_FIELDS, [astuple(row) for row in rows])


def table_to_json(rows: list[ErrorRow]) -> str:
    """JSON array of row objects in table order, keyed by TABLE_FIELDS."""
    return to_json([dict(zip(TABLE_FIELDS, astuple(row))) for row in rows])
