"""Benchmark for l2mech: time to a certified sigma, sampling and
verification throughput, and per-module spans.

    python3 perfbench/run.py --workload calibrate-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the root of an l2mech checkout; the library is imported from
that checkout's ``src/`` and nowhere else.  Every workload is a
single-threaded closed loop: one process, one caller, the next call only
after the previous one returns.  Inputs come from ``--seed`` alone.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs a fixed amount of work, each request once without
and once with span wrappers (see spans.py), and reports the per-layer
metrics of the traced calls and the wall-time overhead of tracing.  Both modes check every
output with untimed correctness gates.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread: the closed loop has one caller, and the 2-core
# VM the baseline comes from has no core to spare for BLAS workers.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

from spans import PROBE, Instrumentation, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
MODULES = ("specfun", "capgeom", "lossbounds", "calibrate", "errormodel", "sampler", "mcverify")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "request_p50_ref": "ref", "request_mean_ref": "ref"}

_REF_X = np.linspace(0.1, 10.0, 1000)


def grid_kernel() -> float:
    """Continued-fraction style updates on a 1000-point grid: many short
    masked numpy operations, the shape of l2mech's special functions."""
    h = np.ones_like(_REF_X)
    acc = 0.0
    for i in range(1, 80):
        d = 1.0 + (i * 0.001) * _REF_X
        d = np.where(np.abs(d) < 1e-30, 1e-30, d)
        c = 1.0 + 0.5 / h
        h = h * (c / d)
        active = np.abs(c / d - 1.0) > 1e-16
        if i % 10 == 0:
            acc += float(h[active].sum())
    return acc


def mixed_kernel() -> float:
    """Transcendental ufuncs on a 1000-point grid, scalar Python
    arithmetic and bulk Gaussian draws: the shape of sampling and
    Monte-Carlo verification."""
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(np.exp(-_REF_X * (0.01 * i)) * np.log1p(_REF_X) / (_REF_X + i)))
    for i in range(6000):
        acc += math.sqrt(i + 0.5)
    draws = np.random.Generator(np.random.Philox(12345)).standard_normal(20000)
    return acc + float(np.sum(draws**2))


def reference_seconds(kernel) -> float:
    """Mean of three timings of a reference kernel (2 to 3 ms each).

    On the shared 2-core VM the baseline comes from, CPU speed swings by
    a third within seconds.  The ratio of an operation's time to the
    time of a kernel doing the same kind of work, timed right before and
    after it, swings several times less.  End-to-end times are reported
    in these reference units ("ref"), raw seconds alongside.  The kernels
    never touch l2mech, so a change to l2mech moves the ratio.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        kernel()
    return (time.perf_counter() - t0) / 3


class Library:
    """The l2mech modules under test, imported from ``<checkout>/src``."""

    def __init__(self):
        package = SRC / "l2mech"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no l2mech package at {package}")
        sys.path.insert(0, str(SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"l2mech.{name}"))
        loaded = Path(sys.modules["l2mech"].__file__).resolve().parent
        if loaded != package.resolve():
            raise SystemExit(f"perfbench: imported l2mech from {loaded}, not {package}")

    def certified(self, dim, sigma, params) -> bool:
        try:
            return self.lossbounds.check_approx_dp(dim, sigma, params).satisfies_dp
        except self.lossbounds.GridDomainError:
            return False

    def private(self, dim, sigma, params) -> bool:
        """sigma gives (epsilon, delta)-DP: certified by check_approx_dp, or
        proved by the pure guarantee when the certificate cannot decide.

        check_approx_dp's False means "not certified", not "violates DP".
        The privacy loss never exceeds 1/sigma, so the hockey-stick value
        is at most 1 - e^(epsilon - 1/sigma) <= max(1/sigma - epsilon, 0);
        four ulps cover the rounding of 1/sigma and of the difference.
        """
        if self.certified(dim, sigma, params):
            return True
        eps = params.epsilon
        slack = max(1.0 / sigma - eps, 0.0) + 4 * math.ulp(max(eps, 1.0 / sigma))
        return slack <= params.delta


@dataclass
class Call:
    """One timed operation against the public API.

    ``run`` is the only part inside the timer.  ``digest`` reduces its
    result to what the gates need, untimed, so large sample batches are
    not kept.  ``work`` is the operation's size in its kind's unit.
    """

    kind: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    work: float = 1.0
    meta: tuple = ()


@dataclass
class Record:
    kind: str
    request: int
    seconds: float
    work: float
    meta: tuple
    outcome: object = None
    error: str | None = None


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as numpy's default method gives it."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail_percentile(n: int) -> int:
    """Highest of p90, p80, p75 with at least ten samples beyond it, else 50."""
    for pct in (90, 80, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


# ---------------------------------------------------------------------------
# workloads


class CalibrateMix:
    """Independent calibrate_l2 targets, no two alike.

    A block is a grid over log d in [1, 2000] (D_STRATA cells) crossed
    with log epsilon in [0.1, 10] (EPS_STRATA cells); log delta in
    [1e-10, 1e-3] gets one of as many cells per target, by a fixed
    Latin-hypercube assignment.  Each target sits near its cell's centre,
    moved by a seeded offset of at most JITTER/2 of a cell per axis.
    Call cost depends on d and epsilon (the number of bisection probes)
    jointly, and on delta, so a fixed design with small offsets keeps the
    mix, and its median, the same from seed to seed while every target
    stays distinct: no call can reuse another's work.
    """

    name = "calibrate-mix"
    REFERENCE = staticmethod(grid_kernel)
    D_STRATA = 16
    EPS_STRATA = 8
    JITTER = 0.1
    TRACE_EVERY = 4  # the traced pass takes every 4th cell on each diagonal
    D_MAX = 2000
    TOL = 1e-3

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.seed = seed
        self.params = lib.calibrate.PrivacyParams
        lib.calibrate.calibrate_l2(10, self.params(1.0, 1e-5), tol=self.TOL)

    def targets(self, index: int):
        """The block's targets in cell order: (d cell, epsilon cell, d, epsilon, delta)."""
        n = self.D_STRATA * self.EPS_STRATA
        i_d, i_eps = np.divmod(np.arange(n), self.EPS_STRATA)
        i_delta = np.random.default_rng(0).permutation(n)  # fixed: part of the design
        rng = np.random.default_rng([self.seed, index])

        def place(cell, cells):
            return (cell + 0.5 + self.JITTER * (rng.random(n) - 0.5)) / cells

        dims = np.floor(np.exp(place(i_d, self.D_STRATA) * math.log(self.D_MAX + 1))).astype(int)
        eps = 10.0 ** (-1.0 + 2.0 * place(i_eps, self.EPS_STRATA))
        delta = 10.0 ** (-10.0 + 7.0 * place(i_delta, n))
        cells = zip(i_d, i_eps, dims, eps, delta)
        return [(int(a), int(b), int(d), float(e), float(dl)) for a, b, d, e, dl in cells]

    def _requests(self, targets):
        lib, params, tol = self.lib, self.params, self.TOL

        def request(d, e, dl):
            run = lambda: lib.calibrate.calibrate_l2(d, params(e, dl), tol=tol)  # noqa: E731
            return [Call("calibrate_l2", run, lambda r: r, meta=(d, e, dl))]

        order = np.random.default_rng([self.seed, len(targets)]).permutation(len(targets))
        return [request(*targets[i][2:]) for i in order]

    def block(self, index: int):
        return self._requests(self.targets(index))

    def trace_block(self):
        """A fixed quarter of block 0 that still meets every stratum of d and epsilon."""
        every = self.TRACE_EVERY
        return self._requests([t for t in self.targets(0) if (t[0] + t[1]) % every == 0])

    def gate(self, records):
        out = []
        self.uncertified = 0
        for rec in records:
            d, e, dl = rec.meta
            res, p = rec.outcome, self.params(e, dl)
            certified = self.lib.certified(d, res.sigma, p)
            self.uncertified += not certified
            if not certified and not self.lib.private(d, res.sigma, p):
                out.append(f"sigma={res.sigma!r} at {rec.meta} is not proved private")
            elif (
                not res.hit_bracket_floor
                and res.sigma - self.TOL > 0
                and self.lib.certified(d, res.sigma - self.TOL, p)
            ):
                out.append(f"sigma - tol also certifies at {rec.meta}: sigma is not minimal")
            else:
                out.append(None)
        return out

    def report(self, records):
        secs = [r.seconds for r in records]
        pct = tail_percentile(len(secs))
        block = self.D_STRATA * self.EPS_STRATA
        first = [r.outcome.sigma for r in records if r.request < block and r.error is None]
        geo = math.exp(statistics.fmean(math.log(s) for s in first)) if first else float("nan")
        lines = [("calibrate_p50_s", quantile(secs, 0.5), "s", f"median of {len(secs)} calls")]
        if pct > 50:
            lines.append((f"calibrate_p{pct}_s", quantile(secs, pct / 100), "s", f"of {len(secs)} calls"))
        lines.append(("sigma_geomean", geo, "sigma", f"first block, {len(first)} targets"))
        lines.append(("calibrate_uncertified", self.uncertified, "count",
                      "sigmas a fresh check_approx_dp does not certify (pure bound proves them)"))
        return lines


class CompareTable:
    """comparison_table(PrivacyParams(1, 1e-5), d_max=D), the same call repeated.

    Consecutive dimensions share one target and nearly the same answer,
    so reuse inside errormodel shows here; the repeated identical call is
    also the one place a cross-call cache would be hit.  The target is
    fixed, so the seed changes nothing on this workload.
    """

    name = "compare-table"
    REFERENCE = staticmethod(grid_kernel)
    D = 12
    EPSILON, DELTA = 1.0, 1e-5

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.params = lib.calibrate.PrivacyParams(self.EPSILON, self.DELTA)
        lib.errormodel.comparison_table(self.params, d_max=2)

    def block(self, index: int):
        lib, params, d_max = self.lib, self.params, self.D

        def digest(rows):
            return tuple((r.dim, r.mechanism, r.sigma, r.normalized_mse) for r in rows)

        run = lambda: lib.errormodel.comparison_table(params, d_max=d_max)  # noqa: E731
        return [[Call("comparison_table", run, digest)]]

    def trace_block(self):
        return self.block(0)

    def gate(self, records):
        tol = 1e-3  # comparison_table's default search tolerance
        reference = None
        out = []
        for rec in records:
            rows = rec.outcome
            problem = None
            by_dim: dict[int, dict[str, tuple]] = {}
            for dim, mech, sigma, nmse in rows:
                by_dim.setdefault(dim, {})[mech] = (sigma, nmse)
            if sorted(by_dim) != list(range(1, self.D + 1)):
                problem = "table does not cover d = 1..D"
            for dim, mechs in by_dim.items():
                l2 = mechs["l2"][1]
                if l2 > min(mechs["laplace"][1], mechs["gaussian"][1]):
                    problem = f"l2 loses to a baseline at d={dim}"
            if problem is None and reference is None:
                reference = rows
                for dim, mechs in by_dim.items():
                    sigma = mechs["l2"][0]
                    if not self.lib.private(dim, sigma, self.params):
                        problem = f"l2 sigma at d={dim} is not proved private"
                    elif sigma - tol > 0 and self.lib.certified(dim, sigma - tol, self.params):
                        problem = f"l2 sigma - tol also certifies at d={dim}"
            elif problem is None and rows != reference:
                problem = "table differs from the first one of the run"
            out.append(problem)
        return out

    def report(self, records):
        secs = [r.seconds for r in records]
        ok = [r for r in records if r.error is None]
        ratio = (
            statistics.fmean(n for _, mech, _, n in ok[0].outcome if mech == "l2")
            if ok
            else float("nan")
        )
        return [
            ("table_s", quantile(secs, 0.5), "s", f"median of {len(secs)} tables, d=1..{self.D}"),
            ("l2_mse_ratio_mean", ratio, "ratio", "mean l2 normalized_mse"),
        ]


class SampleVerify:
    """sample_l2 batches, sample_l2_parallel draws and empirical_lhs calls.

    One request is one round of the fixed mix below.  sigma is
    calibrated for (1, 1e-2) at set-up, so the calibration layers do no
    timed work here.  The sampler is used two ways: sample_l2 hands its
    draws to the caller, empirical_lhs consumes them internally.
    """

    name = "sample-verify"
    REFERENCE = staticmethod(mixed_kernel)
    EPSILON, DELTA = 1.0, 1e-2
    SAMPLE = ((10, 10000), (100, 2000), (1000, 200))
    PARALLEL_DIM, PARALLEL_DRAWS = 100, 20
    VERIFY = ((2, 20000), (10, 10000), (100, 2000))
    NORM_SE = 6.0  # mean-norm gate width, in standard errors
    LHS_SE = 4.0  # empirical_lhs gate width, in its std_error

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.seed = seed
        params = lib.calibrate.PrivacyParams(self.EPSILON, self.DELTA)
        dims = sorted({d for d, _ in self.SAMPLE + self.VERIFY} | {self.PARALLEL_DIM})
        self.sigma = {d: lib.calibrate.calibrate_l2(d, params).sigma for d in dims}
        self.lhs_upper = {
            d: lib.lossbounds.check_approx_dp(d, self.sigma[d], params).lhs_upper
            for d, _ in self.VERIFY
        }
        self.origin = {d: np.zeros(d) for d in dims}
        rng = lib.sampler.RngState
        self.workers = [rng(seed, 1 + i) for i in range(self.PARALLEL_DIM)]
        self.manager = rng(seed, 1 + self.PARALLEL_DIM)
        warm = rng(seed, 0)
        lib.sampler.sample_l2(self.origin[10], self.sigma[10], warm, size=10)
        lib.sampler.sample_l2_parallel(
            self.origin[self.PARALLEL_DIM], self.sigma[self.PARALLEL_DIM], self.workers, self.manager
        )
        lib.mcverify.empirical_lhs(2, self.sigma[2], self.EPSILON, 100, warm)

    def block(self, index: int):
        lib, sigma, origin = self.lib, self.sigma, self.origin
        rng = lib.sampler.RngState(self.seed, 1000 + index)
        calls = []
        for d, n in self.SAMPLE:
            calls.append(
                Call(
                    "sample_l2",
                    lambda d=d, n=n: lib.sampler.sample_l2(origin[d], sigma[d], rng, size=n),
                    lambda x: float(np.mean(np.linalg.norm(x, axis=1))),
                    work=n * d,
                    meta=(d, n),
                )
            )
        pd, pn = self.PARALLEL_DIM, self.PARALLEL_DRAWS
        calls.append(
            Call(
                "sample_l2_parallel",
                lambda: [
                    lib.sampler.sample_l2_parallel(origin[pd], sigma[pd], self.workers, self.manager)[0]
                    for _ in range(pn)
                ],
                lambda xs: float(np.mean([np.linalg.norm(x) for x in xs])),
                work=pn,
                meta=(pd, pn),
            )
        )
        for d, n in self.VERIFY:
            calls.append(
                Call(
                    "empirical_lhs",
                    lambda d=d, n=n: lib.mcverify.empirical_lhs(d, sigma[d], self.EPSILON, n, rng),
                    lambda est: (est.lhs_estimate, est.std_error),
                    work=2 * n,
                    meta=(d, n),
                )
            )
        return [calls]

    def trace_block(self):
        return self.block(0)

    def gate(self, records):
        out = []
        for rec in records:
            d, n = rec.meta
            if rec.kind == "empirical_lhs":
                est, se = rec.outcome
                bound = self.lhs_upper[d] + self.LHS_SE * se
                out.append(None if est <= bound else f"empirical lhs {est} > {bound} at d={d}")
                continue
            # the norm of l2 noise is Gamma(d, sigma): mean d sigma, sd sqrt(d) sigma
            s = self.sigma[d]
            width = self.NORM_SE * math.sqrt(d) * s / math.sqrt(n)
            gap = abs(rec.outcome - d * s)
            out.append(None if gap <= width else f"{rec.kind} mean norm off by {gap} > {width} at d={d}")
        return out

    def report(self, records):
        def rate(kind):
            rs = [r for r in records if r.kind == kind]
            return sum(r.work for r in rs) / sum(r.seconds for r in rs), len(rs)

        coords, n_s = rate("sample_l2")
        draws, n_p = rate("sample_l2_parallel")
        verify, n_v = rate("empirical_lhs")
        return [
            ("sample_coords_per_s", coords, "1/s", f"{n_s} sample_l2 batches"),
            ("parallel_draws_per_s", draws, "1/s", f"{n_p} batches of {self.PARALLEL_DRAWS} draws"),
            ("verify_draws_per_s", verify, "1/s", f"{n_v} empirical_lhs calls, both clouds"),
        ]


WORKLOADS = {w.name: w for w in (CalibrateMix, CompareTable, SampleVerify)}


# ---------------------------------------------------------------------------
# measurement


def run_request(calls, request: int, records: list) -> float:
    """Runs one request's calls back to back; returns the seconds inside them."""
    busy = 0.0
    for call in calls:
        rec = Record(call.kind, request, 0.0, call.work, call.meta)
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception:  # a failed call is counted, and the loop goes on
            rec.seconds = time.perf_counter() - t0
            rec.error = traceback.format_exc(limit=3)
        else:
            rec.seconds = time.perf_counter() - t0
            rec.outcome = call.digest(result)
        busy += rec.seconds
        records.append(rec)
    return busy


def apply_gates(workload, records) -> list[str]:
    """Runs the workload's correctness gates; returns one line per failure."""
    ok = [r for r in records if r.error is None]
    problems = [f"{r.kind}: raised\n{r.error}" for r in records if r.error is not None]
    for rec, problem in zip(ok, workload.gate(ok)):
        if problem is not None:
            rec.error = problem
            problems.append(f"{rec.kind}: {problem}")
    return problems


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process doing the import, the inputs and the warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0


def end_to_end(lib, name: str, seed: int, seconds: float):
    # set-up is sampled at the start, between requests and at the end, so
    # its median spans the run rather than one stretch of machine speed
    setup = [setup_seconds(name, seed)]
    setup_spacing = seconds / SETUP_REPEATS
    workload = WORKLOADS[name](lib, seed)
    records: list[Record] = []
    request_secs: list[float] = []
    ref_secs = [reference_seconds(workload.REFERENCE)]
    block_secs: list[float] = []
    start = time.perf_counter()
    paused = 0.0  # wall time spent in set-up samples inside the loop
    index = 0
    while True:
        t_block = time.perf_counter()
        for calls in workload.block(index):
            request_secs.append(run_request(calls, len(request_secs), records))
            ref_secs.append(reference_seconds(workload.REFERENCE))
            elapsed = time.perf_counter() - start - paused
            if len(setup) < SETUP_REPEATS - 1 and elapsed >= len(setup) * setup_spacing:
                setup.append(setup_seconds(name, seed))
                paused += setup[-1]
        block_secs.append(time.perf_counter() - t_block)
        index += 1
        if time.perf_counter() - start - paused + statistics.fmean(block_secs) > seconds:
            break
    problems = apply_gates(workload, records)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(name, seed))
    # each request against the mean of the reference timings either side of it
    in_refs = [2.0 * t / (a + b) for t, a, b in zip(request_secs, ref_secs, ref_secs[1:])]
    metrics = {
        "setup_s": statistics.median(setup),
        "request_p50_ref": quantile(in_refs, 0.5),
        "request_mean_ref": statistics.fmean(in_refs),
    }
    n = len(request_secs)
    lines = [
        ("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} fresh processes"),
        ("request_p50_ref", metrics["request_p50_ref"], "ref", f"median of {n} requests"),
        ("request_mean_ref", metrics["request_mean_ref"], "ref", f"mean of {n} requests"),
        ("request_p50_ms", 1e3 * quantile(request_secs, 0.5), "ms", "raw wall time"),
        ("reference_ms", 1e3 * statistics.median(ref_secs), "ms", f"median of {len(ref_secs)}"),
        *workload.report(records),
        ("failed_ratio", sum(r.error is not None for r in records) / len(records), "ratio",
         f"of {len(records)} calls"),
    ]
    return metrics, END_TO_END_UNITS, lines, records, problems


LAYER_METRICS = {
    # name: unit; times are medians over traced passes, exact counts come
    # from the first traced pass
    "specfun.reg_lower_gamma.calls": "count",
    "specfun.reg_lower_gamma.elements": "count",
    "specfun.reg_lower_gamma.self_s": "s",
    "specfun.reg_lower_gamma.max_iters": "count",
    "specfun.reg_upper_gamma.calls": "count",
    "specfun.reg_upper_gamma.self_s": "s",
    "specfun.reg_inc_beta.calls": "count",
    "specfun.reg_inc_beta.elements": "count",
    "specfun.reg_inc_beta.self_s": "s",
    "specfun.reg_inc_beta.max_iters": "count",
    "specfun.inv_reg_upper_gamma.calls": "count",
    "specfun.inv_reg_upper_gamma.self_s": "s",
    "capgeom.cap_fraction.calls": "count",
    "capgeom.cap_fraction.elements": "count",
    "capgeom.cap_fraction.self_s": "s",
    "lossbounds.check_approx_dp.calls": "count",
    "lossbounds.check_approx_dp.self_s": "s",
    "lossbounds.check_approx_dp.certified_ratio": "ratio",
    "lossbounds.check_approx_dp.grid_domain_errors": "count",
    "lossbounds.term1_upper_bound.self_s": "s",
    "lossbounds.term2_lower_bound.self_s": "s",
    "calibrate.calibrate_l2.probes_per_call": "count",
    "calibrate.calibrate_l2.self_s": "s",
    "calibrate.calibrate_gaussian.self_s": "s",
    "errormodel.comparison_table.self_s": "s",
    "errormodel.comparison_table.calibrate_calls": "count",
    "sampler.sample_l2.draws": "count",
    "sampler.sample_l2.busy_s": "s",
    "sampler.sample_l2.bytes_out_computed": "bytes",
    "sampler.sample_l2_parallel.draws": "count",
    "sampler.sample_l2_parallel.busy_s": "s",
    "mcverify.empirical_lhs.calls": "count",
    "mcverify.empirical_lhs.draws": "count",
    "mcverify.empirical_lhs.self_s": "s",
    "trace.iteration_probe_s": "s",
    "trace.overhead_share": "ratio",
}


# counts, and ratios of counts, that depend only on the inputs
EXACT_LAYER_METRICS = {m for m, u in LAYER_METRICS.items() if u in ("count", "bytes")} | {
    "lossbounds.check_approx_dp.certified_ratio"
}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the overhead."""
    spans = tracer.summary()
    counts = tracer.counts
    out = {}
    for metric, unit in LAYER_METRICS.items():
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "self_s", "busy_s"):
            out[metric] = spans[layer][field]
        elif field == "max_iters":
            out[metric] = tracer.maxima[f"{layer}.max_iters"]
        elif field in ("elements", "draws", "bytes_out_computed"):
            out[metric] = counts[metric]
    checks = spans["lossbounds.check_approx_dp"]["calls"]
    cal = spans["calibrate.calibrate_l2"]["calls"]
    tables = spans["errormodel.comparison_table"]["calls"]
    out["sampler.sample_l2_parallel.draws"] = spans["sampler.sample_l2_parallel"]["calls"]
    out["lossbounds.check_approx_dp.certified_ratio"] = (
        counts["lossbounds.check_approx_dp.certified"] / checks if checks else 0.0
    )
    out["lossbounds.check_approx_dp.grid_domain_errors"] = counts[
        "lossbounds.check_approx_dp.raised.GridDomainError"
    ]
    out["calibrate.calibrate_l2.probes_per_call"] = (
        tracer.count_under("lossbounds.check_approx_dp", "calibrate.calibrate_l2") / cal if cal else 0.0
    )
    out["errormodel.comparison_table.calibrate_calls"] = (
        tracer.count_under("calibrate.calibrate_l2", "errormodel.comparison_table") / tables
        if tables
        else 0.0
    )
    out["trace.iteration_probe_s"] = spans[PROBE]["busy_s"]
    return out


def traced(lib, name: str, seed: int, seconds: float):
    """Passes over a fixed amount of work, each request run untraced and
    then traced back to back, so the overhead compares like with like."""
    workload = WORKLOADS[name](lib, seed)
    records: list[Record] = []
    plain_secs: list[float] = []
    traced_secs: list[float] = []
    passes: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        tracer = Tracer()
        inst = Instrumentation(lib, tracer)
        plain = wrapped = 0.0
        for untraced_calls, traced_calls in zip(workload.trace_block(), workload.trace_block()):
            plain += run_request(untraced_calls, 0, records)
            with inst:
                wrapped += run_request(traced_calls, 0, records)
        plain_secs.append(plain)
        traced_secs.append(wrapped)
        tracers.append(tracer)
        passes.append(layer_values(tracer))
        last = time.perf_counter() - t_pass
        if time.perf_counter() - start + last > seconds:
            break
    problems = apply_gates(workload, records)
    metrics = {}
    for metric, unit in LAYER_METRICS.items():
        if metric == "trace.overhead_share":
            continue
        values = [p[metric] for p in passes]
        if metric not in EXACT_LAYER_METRICS:
            metrics[metric] = statistics.median(values)
        elif values[0] == int(values[0]) and unit != "ratio":
            metrics[metric] = int(values[0])
        else:
            metrics[metric] = float(values[0])
    metrics["trace.overhead_share"] = statistics.median(traced_secs) / statistics.median(plain_secs) - 1.0
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
    span_file.unlink(missing_ok=True)
    for i, tr in enumerate(tracers):
        tr.write_jsonl(span_file, i)
    lines = []
    for metric, unit in LAYER_METRICS.items():
        if metric == "trace.overhead_share":
            note = "traced over untraced pass time, medians, minus 1"
        elif metric in EXACT_LAYER_METRICS:
            note = "exact, first traced pass"
        else:
            note = "median over traced passes"
        lines.append((metric, metrics[metric], unit, note))
    plain, wrapped = statistics.median(plain_secs), statistics.median(traced_secs)
    probes = metrics["trace.iteration_probe_s"]
    lines.append(("trace.passes", len(tracers), "count",
                  f"untraced {plain:.3f} s, traced {wrapped:.3f} s per pass, "
                  f"{(wrapped - probes) / plain - 1:+.1%} without the iteration probes"))
    lines.append(("trace.spans", sum(len(t.spans) for t in tracers), "count",
                  f"written to {span_file.relative_to(ROOT)}"))
    for target in inst.missing:
        lines.append((f"trace.missing.{target}", 0, "count", "not found, not wrapped"))
    units = dict(LAYER_METRICS)
    return metrics, units, lines, records, problems


def print_lines(name: str, trace: int, lines) -> None:
    print(f"== {name} ({'traced' if trace else 'end-to-end'})")
    for metric, value, unit, note in lines:
        print(f"  {metric:<48s} {value:>14.6g} {unit:<6s} {note}")


def result_json(metrics, units, records, problems) -> str:
    return json.dumps(
        {
            "correct": not problems,
            "attempted": len(records),
            "failed": sum(r.error is not None for r in records),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")

    lib = Library()
    if args.setup_only:
        WORKLOADS[args.workload](lib, args.seed)
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else end_to_end
    all_metrics, all_units, all_records, all_problems = {}, {}, [], []
    for name in names:
        metrics, units, lines, records, problems = measure(lib, name, args.seed, args.seconds)
        print_lines(name, args.trace, lines)
        for problem in problems[:5]:
            print(f"  GATE FAILED: {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
        all_units.update({prefix + k: units[k] for k in metrics})
        all_records += records
        all_problems += problems
    print(result_json(all_metrics, all_units, all_records, all_problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
