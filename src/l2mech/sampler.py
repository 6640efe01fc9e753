"""Exact samplers for the l2 mechanism and its baselines.

The l2 mechanism's noise has density proportional to
exp(-||y||_2 / sigma), so its norm has the Gamma(dim, sigma) law and
its direction is uniform on the sphere.  sample_l2 draws exactly that:
a Gamma(dim) radius times a normalised Gaussian row.  The parallel
sampler splits the same law coordinate-wise instead: a Gamma(dim + 1)
radius, as a sum of dim + 1 exponentials, thinned by a uniform
Y^(1/dim) factor, times a Gaussian direction.  Each worker owns one
log-uniform (a summand of the radius) and one Gaussian coordinate (a
summand of the direction), and a manager combines them in two
deterministic phases.  Neither sampler needs a rejection step.

Randomness is counter-based (numpy Philox keyed by (seed, stream_id)),
so a fresh RngState replays the identical sequence bit for bit, and
disjoint stream ids give independent streams for workers.  One
RngState instance advances across calls; share one per thread only.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import instance, integer, positive, require, unless

__all__ = [
    "RngState",
    "SampleBatch",
    "ParallelTrace",
    "sample_unit_ball",
    "sample_l2",
    "sample_l2_parallel",
    "sample_laplace",
    "sample_gaussian",
    "draw_batch",
]

_MAX_REDRAWS = 100


@dataclass(eq=False)
class RngState:
    """A (seed, stream_id) pair naming one deterministic random stream.

    The underlying generator is created lazily and then advances with
    use; construct a fresh RngState with the same pair to replay the
    stream from the start.  Instances are not thread-safe; give each
    worker its own stream_id instead.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        nonnegative = "stream_id must be a nonnegative integer"
        require(
            unless(
                not integer("seed", self.seed, 0) and self.seed < 2**64,
                "seed must be an integer in [0, 2^64)",
            ),
            integer("stream_id", self.stream_id, 0, nonnegative),
        )
        self.seed = int(self.seed)
        self.stream_id = int(self.stream_id)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(self.stream_id,)
            )
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen


def _check_draws(rng, size) -> tuple[int, bool]:
    """(rows to draw, whether to return one row) for size, after checking rng."""
    batch = size is not None
    require(
        instance("rng", rng, RngState),
        batch and integer("size", size, 1, "size must be None or an integer >= 1"),
    )
    return (int(size), False) if batch else (1, True)


def _check_center(center) -> np.ndarray:
    arr = np.asarray(center, dtype=np.float64)
    require(
        unless(
            arr.ndim == 1 and arr.size >= 1,
            "center must be a 1-d vector with at least one entry",
        ),
        unless(np.all(np.isfinite(arr)), "center must be finite"),
    )
    return arr


def _check_scale(value: float, name: str) -> float:
    require(positive(name, value))
    return float(value)


def _gaussian_rows(gen: np.random.Generator, n: int, dim: int):
    """An (n, dim) standard normal block and its row norms.

    An all-zero row (probability zero, float possible) is redrawn, so
    every norm is positive.
    """
    x = gen.standard_normal((n, dim))
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    for _ in range(_MAX_REDRAWS):
        bad = norms == 0.0
        if not bad.any():
            return x, norms
        x[bad] = gen.standard_normal((int(bad.sum()), dim))
        norms[bad] = np.sqrt(np.einsum("ij,ij->i", x[bad], x[bad]))
    raise RuntimeError("persistent zero direction vector")


def sample_unit_ball(dim: int, rng: RngState, size=None):
    """Uniform draws from the unit ball in R^dim.

    A Gaussian direction scaled to the sphere, then pulled inward by
    U^(1/dim).  Draw order per batch: the Gaussian block, then the
    radial uniforms.
    """
    require(integer("dim", dim))
    n, scalar = _check_draws(rng, size)
    gen = rng.generator
    x, norms = _gaussian_rows(gen, n, int(dim))
    pull = gen.random(n) ** (1.0 / dim)
    x *= (pull / norms)[:, None]
    return x[0] if scalar else x


def sample_l2(center, sigma: float, rng: RngState, size=None):
    """Draws from the l2 mechanism centered at center with scale sigma.

    A Gamma(dim, sigma) radius times a uniform direction (a normalised
    Gaussian row), so the radial CDF is the regularized lower
    incomplete gamma P(dim, r/sigma).  Draw order per batch: the
    Gaussian block, then the radii.
    """
    c = _check_center(center)
    sigma = _check_scale(sigma, "sigma")
    n, scalar = _check_draws(rng, size)
    gen = rng.generator
    x, norms = _gaussian_rows(gen, n, c.size)
    radius = gen.gamma(c.size, sigma, size=n)
    x *= (radius / norms)[:, None]
    x += c
    return x[0] if scalar else x


@dataclass(frozen=True)
class ParallelTrace:
    """Per-party contributions of one two-phase parallel draw.

    Phase one: worker i publishes -log U_i (its radius summand) and its
    Gaussian coordinate; the manager adds its own -log U and the radial
    uniform Y.  Phase two combines: radius = sigma * (sum of the log
    uniforms), direction = Gaussian vector / sqrt(sum_squares), pulled
    inward by Y^(1/dim).
    """

    worker_log_uniforms: np.ndarray
    worker_gauss: np.ndarray
    manager_uniform_y: float
    manager_log_uniform: float
    radius: float
    sum_squares: float


def sample_l2_parallel(
    center, sigma: float, worker_rngs: list[RngState], manager_rng: RngState
):
    """One l2-mechanism draw computed by dim workers plus a manager.

    Each worker uses only its own stream (one uniform, one Gaussian);
    the manager draws the extra radius summand and the radial uniform.
    Returns the sample and the full trace of contributions.  A zero
    direction vector triggers a global redraw round for all parties.
    """
    c = _check_center(center)
    sigma = _check_scale(sigma, "sigma")
    d = c.size
    n = len(worker_rngs)
    require(
        unless(n == d, f"need exactly {d} worker streams, got {n}"),
        unless(
            all(isinstance(w, RngState) for w in worker_rngs),
            "worker_rngs must hold only RngState",
        ),
        instance("manager_rng", manager_rng, RngState),
    )
    gens = [w.generator for w in worker_rngs]
    mgen = manager_rng.generator
    for _ in range(_MAX_REDRAWS):
        wlogs = np.empty(d)
        wgauss = np.empty(d)
        for i, gen in enumerate(gens):
            wlogs[i] = -math.log(1.0 - gen.random())
            wgauss[i] = gen.standard_normal()
        mlog = -math.log(1.0 - mgen.random())
        y = 1.0 - mgen.random()
        ss = float(np.dot(wgauss, wgauss))
        if ss > 0.0:
            break
    else:
        raise RuntimeError("sample_l2_parallel: persistent zero direction vector")
    radius = sigma * (float(wlogs.sum()) + mlog)
    out = c + radius * (y ** (1.0 / d)) * wgauss / math.sqrt(ss)
    trace = ParallelTrace(
        worker_log_uniforms=wlogs,
        worker_gauss=wgauss,
        manager_uniform_y=y,
        manager_log_uniform=mlog,
        radius=radius,
        sum_squares=ss,
    )
    return out, trace


def sample_laplace(center, scale: float, rng: RngState, size=None):
    """I.i.d. Laplace(scale) noise per coordinate around center.

    Mean squared l2 error is 2 * dim * scale^2.
    """
    c = _check_center(center)
    scale = _check_scale(scale, "scale")
    n, scalar = _check_draws(rng, size)
    out = c[None, :] + rng.generator.laplace(0.0, scale, size=(n, c.size))
    return out[0] if scalar else out


def sample_gaussian(center, sigma: float, rng: RngState, size=None):
    """I.i.d. N(0, sigma^2) noise per coordinate around center.

    Mean squared l2 error is dim * sigma^2.
    """
    c = _check_center(center)
    sigma = _check_scale(sigma, "sigma")
    n, scalar = _check_draws(rng, size)
    out = c[None, :] + sigma * rng.generator.standard_normal((n, c.size))
    return out[0] if scalar else out


@dataclass(frozen=True)
class SampleBatch:
    """A batch of mechanism outputs plus the metadata to reproduce it."""

    dim: int
    count: int
    values: np.ndarray
    mechanism: str
    sigma: float
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values)
        shaped = vals.shape == (self.count, self.dim)
        require(
            integer("dim", self.dim),
            integer("count", self.count),
            unless(
                shaped,
                f"values must have shape (count, dim) = ({self.count}, {self.dim})",
            ),
            unless(not shaped or np.all(np.isfinite(vals)), "values must be finite"),
        )

    def to_csv(self) -> str:
        """RFC-4180 CSV: header x0..x{dim-1}, one row per sample."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([f"x{j}" for j in range(self.dim)])
        for row in np.asarray(self.values):
            writer.writerow([repr(float(v)) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        """JSON envelope with the draw metadata and the value matrix."""
        payload = {
            "dim": int(self.dim),
            "count": int(self.count),
            "mechanism": self.mechanism,
            "sigma": float(self.sigma),
            "seed": int(self.seed),
            "stream_id": int(self.stream_id),
            "values": [[float(v) for v in row] for row in np.asarray(self.values)],
        }
        return json.dumps(payload, indent=2, allow_nan=False)


def draw_batch(
    mechanism: str,
    dim: int,
    sigma: float,
    count: int,
    seed: int,
    stream_id: int = 0,
    center=None,
) -> SampleBatch:
    """Draw a SampleBatch for one of the named mechanisms.

    The default center is the origin.  The batch records seed and
    stream_id, so RngState(batch.seed, batch.stream_id) replays the
    values bit for bit.
    """
    if center is None:
        require(integer("dim", dim))
        center = np.zeros(int(dim))
    c = _check_center(center)
    samplers = {
        "l2": sample_l2,
        "laplace": sample_laplace,
        "gaussian": sample_gaussian,
    }
    require(
        unless(c.size == dim, "center length must equal dim"),
        unless(mechanism in samplers, f"mechanism must be one of {sorted(samplers)}"),
    )
    rng = RngState(seed, stream_id)
    values = samplers[mechanism](c, sigma, rng, size=count)
    return SampleBatch(
        dim=int(dim),
        count=int(count),
        values=values,
        mechanism=mechanism,
        sigma=float(sigma),
        seed=int(seed),
        stream_id=int(stream_id),
    )
