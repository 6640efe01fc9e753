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
sigma falls smoothly with the dimension, so each l2 search takes the
secant through the two sigmas before it as its first probe (the second
row takes the first row's sigma), a predictor as in numerical
continuation.  That moves the probes, not the answer: wherever the
verdict is monotone in sigma, each l2 row is bit for bit a stand-alone
calibrate_l2 call.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

from ._checks import integer, positive, require
from .calibrate import (
    MECH_GAUSSIAN,
    MECH_L2,
    MECH_LAPLACE,
    PrivacyParams,
    _calibrate_l2,
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
    require(integer("dim", dim), positive("p", p), positive("sigma", sigma))
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
    require(integer("dim", dim), positive("sigma", sigma))
    return int(dim) * sigma**2


def mse_laplace(dim: int, scale: float) -> float:
    """Mean squared l2 error of i.i.d. Laplace(scale) noise: 2 dim scale^2."""
    require(integer("dim", dim), positive("scale", scale))
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
    Each l2 search starts at the secant through the two sigmas before
    it (_secant), next to the answer, and still certifies the answer
    and the lattice point below it itself, so the l2 rows are the
    stand-alone calibrate_l2 sigmas.
    """
    require(integer("d_max", d_max), integer("n_r", n_r, 2), integer("n_R", n_R, 2))
    gauss = calibrate_gaussian(params, tol=tol)
    rows: list[ErrorRow] = []
    found: list[tuple[int, float]] = []
    for d in range(1, int(d_max) + 1):
        l2 = _calibrate_l2(
            d, params, n_r, n_R, tol, sensitivity=1.0, estimate=_secant(found, d)
        )
        found.append((d, l2.sigma))
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


def table_to_csv(rows: list[ErrorRow]) -> str:
    """RFC-4180 CSV with columns d,mechanism,sigma,mse,normalized_mse."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TABLE_FIELDS)
    for row in rows:
        writer.writerow(
            [
                row.dim,
                row.mechanism,
                repr(float(row.sigma)),
                repr(float(row.mse)),
                repr(float(row.normalized_mse)),
            ]
        )
    return buf.getvalue()


def table_to_json(rows: list[ErrorRow]) -> str:
    """JSON array of row objects in table order."""
    payload = []
    for row in rows:
        d = asdict(row)
        d["d"] = d.pop("dim")
        payload.append({k: d[k] for k in TABLE_FIELDS})
    return json.dumps(payload, indent=2, allow_nan=False)
