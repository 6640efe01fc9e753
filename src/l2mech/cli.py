"""Command-line front end: calibrate, compare, sample, verify.

All value flags are parsed leniently and validated in one pass, so a
usage error reports every violated constraint in a single stderr line.
Exit codes: 0 success, 2 usage/validation error, 1 numerical failure
(non-convergence, unresolvable grids, bracketing failures).

The seed defaults to the L2MECH_SEED environment variable when the
--seed flag is absent, and to 0 when neither is set.  Outputs go to
stdout unless --out is given; JSON is the default format for
calibrate/verify, CSV for compare/sample.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .calibrate import (
    MECHANISMS,
    PrivacyParams,
    calibrate_gaussian,
    calibrate_l2,
    laplace_sigma,
)
from .errormodel import comparison_table, table_to_csv, table_to_json
from .lossbounds import check_approx_dp
from .mcverify import empirical_lhs, empirical_min_sigma
from .sampler import RngState, draw_batch
from .specfun import ConvergenceError

__all__ = ["CliConfig", "UsageError", "parse_args", "run", "main"]

FORMATS = ("json", "csv")
SEED_ENV_VAR = "L2MECH_SEED"


class UsageError(ValueError):
    """Invalid command-line values; message enumerates every violation."""


@dataclass(frozen=True)
class CliConfig:
    """Validated CLI invocation; one instance fully determines a run."""

    command: str
    epsilon: float | None = None
    delta: float | None = None
    dim: int = 1
    mechanism: str | None = None
    sigma: float | None = None
    n_r: int = 1000
    n_R: int = 1000
    tol: float = 1e-3
    samples: int | None = None
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2mech",
        description="calibrate, sample and verify the l2 noise mechanism",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, eps=False, mech=False, sigma=False, samples=False):
        if eps:
            p.add_argument("--eps", help="privacy epsilon (> 0)")
            p.add_argument("--delta", help="privacy delta (in (0, 1))")
        if mech:
            p.add_argument("--mech", help=f"one of {', '.join(MECHANISMS)}")
        p.add_argument("--dim", help="dimension (integer >= 1)")
        if sigma:
            p.add_argument("--sigma", help="noise scale (> 0)")
        if samples:
            p.add_argument("--samples", help="number of draws (integer >= 1)")
        p.add_argument("--seed", help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--nr", dest="n_r", help="radial grid size, first bound")
        p.add_argument("--nR", dest="n_R", help="radial grid size, second bound")
        p.add_argument("--tol", help="binary-search tolerance on sigma")
        p.add_argument("--format", dest="output_format", choices=FORMATS)
        p.add_argument("--out", dest="output_path", help="write output to this path")

    for name, command in _SUBCOMMANDS.items():
        add_common(sub.add_parser(name, help=command.help), **command.options)
    return parser


def _convert(problems, raw, name, kind, default=None):
    if raw is None:
        return default
    try:
        return kind(raw)
    except (TypeError, ValueError):
        problems.append(f"--{name} must be {'an integer' if kind is int else 'a number'}, got {raw!r}")
        return None


def parse_args(argv=None) -> CliConfig:
    """Parse and validate argv into a CliConfig; UsageError lists all faults."""
    ns = _build_parser().parse_args(argv)
    problems: list[str] = []
    command = ns.command

    epsilon = _convert(problems, getattr(ns, "eps", None), "eps", float)
    delta = _convert(problems, getattr(ns, "delta", None), "delta", float)
    dim = _convert(problems, getattr(ns, "dim", None), "dim", int, default=1)
    sigma = _convert(problems, getattr(ns, "sigma", None), "sigma", float)
    samples = _convert(problems, getattr(ns, "samples", None), "samples", int)
    n_r = _convert(problems, getattr(ns, "n_r", None), "nr", int, default=1000)
    n_R = _convert(problems, getattr(ns, "n_R", None), "nR", int, default=1000)
    tol = _convert(problems, getattr(ns, "tol", None), "tol", float, default=1e-3)
    mechanism = getattr(ns, "mech", None)

    raw_seed = getattr(ns, "seed", None)
    if raw_seed is None:
        raw_seed = os.environ.get(SEED_ENV_VAR)
        seed_origin = f"${SEED_ENV_VAR}"
    else:
        seed_origin = "--seed"
    if raw_seed is None:
        seed = 0
    else:
        try:
            seed = int(raw_seed)
        except (TypeError, ValueError):
            problems.append(f"{seed_origin} must be an integer, got {raw_seed!r}")
            seed = 0

    options = _SUBCOMMANDS[command].options
    if options.get("eps"):
        if epsilon is None and getattr(ns, "eps", None) is None:
            problems.append("--eps is required")
        elif epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
            problems.append(f"--eps must be positive and finite, got {epsilon}")
        if delta is None and getattr(ns, "delta", None) is None:
            problems.append("--delta is required")
        elif delta is not None and not (math.isfinite(delta) and 0 < delta < 1):
            problems.append(f"--delta must lie strictly in (0, 1), got {delta}")

    if options.get("mech"):
        if mechanism is None:
            problems.append("--mech is required")
        elif mechanism not in MECHANISMS:
            problems.append(f"--mech must be one of {', '.join(MECHANISMS)}, got {mechanism!r}")

    if command == "sample":
        if getattr(ns, "sigma", None) is None:
            problems.append("--sigma is required")
        if getattr(ns, "samples", None) is None:
            problems.append("--samples is required")
        if getattr(ns, "dim", None) is None:
            problems.append("--dim is required")

    if command == "compare" and getattr(ns, "dim", None) is None:
        problems.append("--dim is required (the largest dimension of the table)")

    if dim is not None and dim < 1:
        problems.append(f"--dim must be >= 1, got {dim}")
    if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
        problems.append(f"--sigma must be positive and finite, got {sigma}")
    if samples is not None and samples < 1:
        problems.append(f"--samples must be >= 1, got {samples}")
    if n_r is not None and n_r < 2:
        problems.append(f"--nr must be >= 2, got {n_r}")
    if n_R is not None and n_R < 2:
        problems.append(f"--nR must be >= 2, got {n_R}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        problems.append(f"--tol must be positive and finite, got {tol}")
    if not 0 <= seed < 2**64:
        problems.append(f"seed must lie in [0, 2^64), got {seed}")

    if problems:
        raise UsageError("; ".join(problems))

    output_format = ns.output_format or ("csv" if command in ("compare", "sample") else "json")
    return CliConfig(
        command=command,
        epsilon=epsilon,
        delta=delta,
        dim=dim,
        mechanism=mechanism,
        sigma=sigma,
        n_r=n_r,
        n_R=n_R,
        tol=tol,
        samples=samples,
        seed=seed,
        output_format=output_format,
        output_path=ns.output_path,
    )


def _dict_to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    keys = list(payload.keys())
    writer.writerow(keys)
    writer.writerow([payload[k] for k in keys])
    return buf.getvalue()


def _emit(config: CliConfig, payload) -> str:
    if isinstance(payload, str):
        return payload
    if config.output_format == "json":
        return json.dumps(payload, indent=2) + "\n"
    return _dict_to_csv(_flatten(payload))


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def _run_calibrate(config: CliConfig) -> dict:
    params = PrivacyParams(config.epsilon, config.delta)
    if config.mechanism == "l2":
        res = calibrate_l2(
            config.dim, params, n_r=config.n_r, n_R=config.n_R, tol=config.tol
        )
    elif config.mechanism == "laplace":
        res = laplace_sigma(config.dim, params)
    else:
        res = calibrate_gaussian(params, tol=config.tol)
    return {
        "mechanism": res.mechanism,
        "dim": config.dim,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "sigma": res.sigma,
        "pure_epsilon": res.pure_epsilon,
        "search_iterations": res.search_iterations,
        "tolerance": res.tolerance,
        "hit_bracket_floor": res.hit_bracket_floor,
    }


def _run_compare(config: CliConfig) -> str:
    params = PrivacyParams(config.epsilon, config.delta)
    rows = comparison_table(
        params, config.dim, n_r=config.n_r, n_R=config.n_R, tol=config.tol
    )
    if config.output_format == "json":
        return table_to_json(rows) + "\n"
    return table_to_csv(rows)


def _run_sample(config: CliConfig) -> str:
    batch = draw_batch(
        config.mechanism, config.dim, config.sigma, config.samples, config.seed
    )
    if config.output_format == "json":
        return batch.to_json() + "\n"
    return batch.to_csv()


def _run_verify(config: CliConfig) -> dict:
    params = PrivacyParams(config.epsilon, config.delta)
    n = config.samples or int(math.ceil(1000.0 / config.delta))
    rng = RngState(config.seed)
    if config.sigma is not None:
        report = check_approx_dp(
            config.dim, config.sigma, params, n_r=config.n_r, n_R=config.n_R
        )
        est = empirical_lhs(config.dim, config.sigma, config.epsilon, n, rng)
        return {
            "d": config.dim,
            "sigma": config.sigma,
            "epsilon": config.epsilon,
            "delta": config.delta,
            "analytic": {
                "term1_upper": report.term1_upper,
                "term2_lower": report.term2_lower,
                "lhs_upper": report.lhs_upper,
                "satisfies_dp": report.satisfies_dp,
                "branch": report.branch,
                "r_star": report.grid.r_star,
                "n_r": report.grid.n_r,
                "n_R": report.grid.n_R,
            },
            "empirical": {
                "lhs": est.lhs_estimate,
                "c1": est.c1,
                "c2": est.c2,
                "n": est.n,
                "std_error": est.std_error,
                "seed": est.seed,
            },
        }
    analytic = calibrate_l2(
        config.dim, params, n_r=config.n_r, n_R=config.n_R, tol=config.tol
    )
    empirical = empirical_min_sigma(config.dim, params, n, config.tol, rng)
    return {
        "d": config.dim,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "n": n,
        "seed": config.seed,
        "analytic_sigma": analytic.sigma,
        "empirical_sigma": empirical,
        "relative_gap": abs(empirical - analytic.sigma) / analytic.sigma,
    }


class _Subcommand(NamedTuple):
    """One subcommand: its help line, its handler and its flag groups."""

    help: str
    handler: Callable[[CliConfig], "dict | str"]
    options: dict  # keywords of _build_parser's add_common


# the one table of subcommands: the parser, the validation in parse_args
# and run all read it
_SUBCOMMANDS = {
    "calibrate": _Subcommand(
        "minimal sigma for a mechanism", _run_calibrate, dict(eps=True, mech=True)
    ),
    "compare": _Subcommand(
        "error table for all mechanisms", _run_compare, dict(eps=True)
    ),
    "sample": _Subcommand(
        "draw mechanism outputs", _run_sample, dict(mech=True, sigma=True, samples=True)
    ),
    "verify": _Subcommand(
        "analytic + Monte-Carlo check", _run_verify, dict(eps=True, sigma=True, samples=True)
    ),
}
COMMANDS = tuple(_SUBCOMMANDS)


def run(config: CliConfig) -> int:
    """Execute a validated CLI config; writes the artifact, returns 0."""
    text = _emit(config, _SUBCOMMANDS[config.command].handler(config))
    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    """Console entry point mapping failures to the documented exit codes."""
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (ValueError, RuntimeError, ConvergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
