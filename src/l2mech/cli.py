"""Command-line front end: calibrate, compare, sample, verify.

One table of value flags (_FLAGS: field, parser, _checks rule, help)
builds every subparser, and parse_args runs every required-flag and
range check over it in one loop, so a usage error reports every
violated constraint in a single stderr line.
Exit codes: 0 success, 2 usage/validation error, 1 numerical failure
(non-convergence, bracketing failures, values JSON cannot hold).

Each subcommand takes only the value flags it reads; any other is a
usage error.  The seed of sample and verify defaults to the
L2MECH_SEED environment variable when the --seed flag is absent, and
to 0 when neither is set.  Without --samples, verify draws
ceil(1000/delta) pairs per probe, and refuses with a usage error when
that exceeds 10^7.  Outputs go to stdout unless --out is given;
JSON is the default format for calibrate/verify, CSV for
compare/sample.  calibrate and verify read their records through one
key table each.  `python -m l2mech.cli` runs main, as l2mech does.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ._checks import integer, positive, unless
from ._records import to_csv, to_json
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

__all__ = ["CliConfig", "UsageError", "parse_args", "run", "main"]

FORMATS = ("json", "csv")
SEED_ENV_VAR = "L2MECH_SEED"
# the most pairs per probe verify draws by default; beyond this the
# default would run for hours, so verify asks for --samples instead
_MAX_DEFAULT_SAMPLES = 10**7


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


class _Flag(NamedTuple):
    """One value flag: the CliConfig field it fills, how to parse it, its
    _checks rule (flag name and parsed value to a message or None) and its
    help line."""

    field: str
    kind: Callable
    rule: Callable
    help: str


def _at_least(minimum: int):
    return lambda name, v: integer(name, v, minimum, f"{name} must be >= {minimum}")


_MECHANISMS = ", ".join(MECHANISMS)
# the one table of value flags, keyed by argparse dest (the flag is --dest
# without its underscore): the parser, parse_args' checks and the help
# all read it
_FLAGS = {
    "eps": _Flag("epsilon", float, positive, "privacy epsilon (> 0)"),
    "delta": _Flag(
        "delta",
        float,
        lambda name, v: unless(0 < v < 1, f"{name} must lie strictly in (0, 1)"),
        "privacy delta (in (0, 1))",
    ),
    "mech": _Flag(
        "mechanism",
        str,
        lambda name, v: unless(v in MECHANISMS, f"{name} must be one of {_MECHANISMS}"),
        f"one of {_MECHANISMS}",
    ),
    "dim": _Flag("dim", int, _at_least(1), "dimension (integer >= 1)"),
    "sigma": _Flag("sigma", float, positive, "noise scale (> 0)"),
    "samples": _Flag("samples", int, _at_least(1), "number of draws (integer >= 1)"),
    "seed": _Flag(
        "seed",
        int,
        lambda name, v: unless(0 <= v < 2**64, "seed must lie in [0, 2^64)"),
        f"RNG seed (default: ${SEED_ENV_VAR} or 0)",
    ),
    "n_r": _Flag(
        "n_r", int, _at_least(2), "nu-cells at d >= 3; first radial grid at d = 2"
    ),
    "n_R": _Flag(
        "n_R", int, _at_least(2), "mu-cells at d >= 3; second radial grid at d = 2"
    ),
    "tol": _Flag("tol", float, positive, "binary-search tolerance on sigma"),
}


def _flag_name(dest: str) -> str:
    return "--" + dest.replace("_", "")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2mech",
        description="calibrate, sample and verify the l2 noise mechanism",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.flags:
            p.add_argument(_flag_name(dest), dest=dest, help=_FLAGS[dest].help)
        p.add_argument("--format", dest="output_format", choices=FORMATS)
        p.add_argument("--out", dest="output_path", help="write output to this path")
    return parser


def parse_args(argv=None) -> CliConfig:
    """Parse and validate argv into a CliConfig; UsageError lists all faults.

    Each value flag in turn is required or left to CliConfig's default,
    parsed, and checked by its rule; the seed falls back to $L2MECH_SEED,
    and verify's default sample count, ceil(1000/delta), must not exceed
    _MAX_DEFAULT_SAMPLES.
    """
    ns = _build_parser().parse_args(argv)
    command = _SUBCOMMANDS[ns.command]
    problems: list[str] = []
    values = {}
    for dest in command.flags:
        flag, name, raw = _FLAGS[dest], _flag_name(dest), getattr(ns, dest)
        if raw is None and dest == "seed" and SEED_ENV_VAR in os.environ:
            name, raw = f"${SEED_ENV_VAR}", os.environ[SEED_ENV_VAR]
        if raw is None:
            note = command.flags.get(dest)
            if note is not None:
                problems.append(f"{name} is required{note}")
            elif dest == "samples" and "delta" in values:
                n = _default_samples(values["delta"])
                fault = unless(
                    n <= _MAX_DEFAULT_SAMPLES,
                    f"{name} is required when its default ceil(1000/delta) = {n} "
                    f"exceeds {_MAX_DEFAULT_SAMPLES}",
                )
                if fault:
                    problems.append(fault)
            continue
        try:
            value = flag.kind(raw)
        except ValueError:
            kind = "an integer" if flag.kind is int else "a number"
            problems.append(f"{name} must be {kind}, got {raw!r}")
            continue
        fault = flag.rule(name, value)
        if fault:
            problems.append(f"{fault}, got {value!r}")
            continue
        values[flag.field] = value
    if problems:
        raise UsageError("; ".join(problems))
    output_format = ns.output_format or (
        "csv" if ns.command in ("compare", "sample") else "json"
    )
    return CliConfig(
        ns.command, output_format=output_format, output_path=ns.output_path, **values
    )


def _default_samples(delta: float) -> int:
    """verify's pairs per probe without --samples: 1000 expected boundary events."""
    return int(math.ceil(1000.0 / delta))


def _emit(config: CliConfig, payload) -> str:
    if isinstance(payload, str):
        return payload
    if config.output_format == "json":
        return to_json(payload) + "\n"
    flat = _flatten(payload)
    return to_csv(flat, [flat.values()])


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


# the key tables: each output key, in payload order, and the field it reads
# of a CalibrationResult, a BoundReport or an EmpiricalPrivacyEstimate
_CALIBRATION_KEYS = {k: k for k in ("sigma", "pure_epsilon", "search_iterations",
                                    "tolerance", "hit_bracket_floor")}
_REPORT_KEYS = {k: k for k in ("term1_upper", "term2_lower", "lhs_upper",
                               "satisfies_dp", "branch", "r_star", "n_r", "n_R")}
_ESTIMATE_KEYS = {"lhs": "lhs_estimate", "c1": "c1", "c2": "c2", "n": "n",
                  "std_error": "std_error", "seed": "seed"}


def _read(record, keys: dict) -> dict:
    return {key: getattr(record, field) for key, field in keys.items()}


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
        "mechanism": config.mechanism,
        "dim": config.dim,
        "epsilon": config.epsilon,
        "delta": config.delta,
        **_read(res, _CALIBRATION_KEYS),
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
    n = config.samples or _default_samples(config.delta)
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
            "analytic": _read(report, _REPORT_KEYS),
            "empirical": _read(est, _ESTIMATE_KEYS),
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
    """One subcommand: its help line, its handler and its value flags.

    flags maps each value flag the subcommand reads, in _FLAGS order, to
    None when it is optional, or else to the note its "is required"
    message ends with.
    """

    help: str
    handler: Callable[[CliConfig], "dict | str"]
    flags: dict


# the one table of subcommands: the parser, the validation in parse_args
# and run all read it
_SUBCOMMANDS = {
    "calibrate": _Subcommand(
        "minimal sigma for a mechanism",
        _run_calibrate,
        dict(eps="", delta="", mech="", dim=None, n_r=None, n_R=None, tol=None),
    ),
    "compare": _Subcommand(
        "error table for all mechanisms",
        _run_compare,
        dict(eps="", delta="", dim=" (the largest dimension of the table)",
             n_r=None, n_R=None, tol=None),
    ),
    "sample": _Subcommand(
        "draw mechanism outputs",
        _run_sample,
        dict(mech="", dim="", sigma="", samples="", seed=None),
    ),
    "verify": _Subcommand(
        "analytic + Monte-Carlo check",
        _run_verify,
        dict(eps="", delta="", dim=None, sigma=None, samples=None, seed=None,
             n_r=None, n_R=None, tol=None),
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
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
