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

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import (
    dimension,
    finite,
    instance,
    integer,
    number,
    positive,
    real,
    require,
    unless,
)
from ._records import to_csv, to_json

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


def _stream_faults(seed, stream_id):
    """The faults of a (seed, stream_id) pair, for require: the rules of
    RngState, which SampleBatch's recorded pair keeps too."""
    return (
        unless(
            not integer("seed", seed, 0) and seed < 2**64,
            "seed must be an integer in [0, 2^64)",
        ),
        integer("stream_id", stream_id, 0, "stream_id must be a nonnegative integer"),
    )


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
        require(*_stream_faults(self.seed, self.stream_id))
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


def _check(center, sigma, size, *more, scale: str = "sigma"):
    """(center as a float vector, sigma as a float, rows to draw, whether
    to return one row) of a sampler call; one ValueError lists every fault.

    center must be a finite 1-d vector and sigma (named scale in its
    message) one positive finite number; more holds the caller's faults.
    """
    n, scalar = _rows(
        size,
        finite("center", center) or unless(
            np.ndim(center) == 1 and np.size(center) >= 1,
            "center must be a 1-d vector with at least one entry",
        ),
        number(scale, sigma) or positive(scale, sigma),
        *more,
    )
    return np.asarray(center, dtype=np.float64), float(sigma), n, scalar


def _rows(size, *more):
    """(rows to draw, whether to return one row); size is checked with more."""
    batch = size is not None
    require(*more, batch and integer("size", size, 1, "size must be None or an integer >= 1"))
    return int(size) if batch else 1, not batch


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
    n, scalar = _rows(size, dimension("dim", dim), instance("rng", rng, RngState))
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
    c, sigma, n, scalar = _check(center, sigma, size, instance("rng", rng, RngState))
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
    values, listed = real(center), isinstance(worker_rngs, (list, tuple))
    d, n = np.size(values), len(worker_rngs) if listed else 0
    c, sigma, _, _ = _check(
        center, sigma, None,
        unless(listed, "worker_rngs must be a list of RngState"),
        listed and values is not None
        and unless(n == d, f"need exactly {d} worker streams, got {n}"),
        listed and unless(
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
    c, scale, n, scalar = _check(
        center, scale, size, instance("rng", rng, RngState), scale="scale"
    )
    out = c[None, :] + rng.generator.laplace(0.0, scale, size=(n, c.size))
    return out[0] if scalar else out


def sample_gaussian(center, sigma: float, rng: RngState, size=None):
    """I.i.d. N(0, sigma^2) noise per coordinate around center.

    Mean squared l2 error is dim * sigma^2.
    """
    c, sigma, n, scalar = _check(center, sigma, size, instance("rng", rng, RngState))
    out = c[None, :] + sigma * rng.generator.standard_normal((n, c.size))
    return out[0] if scalar else out


_SAMPLERS = {"l2": sample_l2, "laplace": sample_laplace, "gaussian": sample_gaussian}


def _mechanism_fault(mechanism):
    """None if mechanism names a sampler of _SAMPLERS, else a message listing them."""
    return unless(
        isinstance(mechanism, str) and mechanism in _SAMPLERS,
        f"mechanism must be one of {sorted(_SAMPLERS)}",
    )


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
        require(
            dimension("dim", self.dim),
            integer("count", self.count),
            finite("values", self.values) or unless(
                np.shape(self.values) == (self.count, self.dim),
                f"values must have shape (count, dim) = ({self.count}, {self.dim})",
            ),
            _mechanism_fault(self.mechanism),
            number("sigma", self.sigma) or positive("sigma", self.sigma),
            *_stream_faults(self.seed, self.stream_id),
        )

    def to_csv(self) -> str:
        """RFC-4180 CSV: header x0..x{dim-1}, one row per sample."""
        return to_csv(
            [f"x{j}" for j in range(self.dim)],
            np.asarray(self.values, dtype=np.float64).tolist(),
        )

    def to_json(self) -> str:
        """JSON envelope with the draw metadata and the value matrix."""
        return to_json({
            "dim": int(self.dim),
            "count": int(self.count),
            "mechanism": self.mechanism,
            "sigma": float(self.sigma),
            "seed": int(self.seed),
            "stream_id": int(self.stream_id),
            "values": np.asarray(self.values, dtype=np.float64).tolist(),
        })


def draw_batch(
    mechanism: str,
    dim: int,
    sigma: float,
    count: int,
    seed: int,
    stream_id: int = 0,
) -> SampleBatch:
    """Draw a SampleBatch of count outputs of a named mechanism at the origin.

    The batch records every argument, so its metadata replays it:
    RngState(batch.seed, batch.stream_id) gives the values bit for bit
    through the mechanism's sampler at the origin of R^dim.  draw_batch
    checks the mechanism and dim; the sampler checks the rest.
    """
    require(dimension("dim", dim), _mechanism_fault(mechanism))
    rng = RngState(seed, stream_id)
    values = _SAMPLERS[mechanism](np.zeros(int(dim)), sigma, rng, size=count)
    return SampleBatch(
        int(dim), int(count), values, mechanism, float(sigma), int(seed), int(stream_id)
    )
