"""The counts ledger: machine-independent work counts of the calibration path.

For each target (epsilon, delta) in TARGETS this records one calibrate_l2
call per dimension in DIMS and one comparison_table up to TABLE_D_MAX.
Each calibration (and each l2 row of a table) records:

- checks: the probes calibrate sends to lossbounds (one per row of a
  _probe_checks round), and
  search_iterations as reported;
- nu_cells and mu_cells: the cells of the two grids of every
  lossbounds._prolate_batch row at that dimension, summed over its calls
  (the d >= 3 checks; d = 2 checks run the radial sum and count none);
- sigma as float.hex, and hit_bracket_floor.

A table also records prolate_calls: the calls of _prolate_batch, each
one certificate pass however many rows it bounds.

For each target it also records calibrate_gaussian at each tolerance in
GAUSSIAN_TOLS, the search every calibrate_l2 call at dim >= 2 runs to
place its first probe: its search_iterations (distinct sigmas
evaluated) and its sigma as float.hex.

It also records the search_iterations total and worst case of
calibrate_l2 over mix_grid(), a seeded grid shaped like the
benchmark's calibrate-mix, so a change to how the search steers shows
here even where no sigma moves.

It also records one empirical_min_sigma search per dimension in
EMPIRICAL_DIMS at EMPIRICAL_TARGET: its probes (calls of the unchecked
mcverify._empirical_lhs that empirical_lhs also runs), their draws
(outputs tested: n per cloud, both clouds), the random variates they
take from the stream (counted by a proxy generator) and its sigma as
float.hex.  These follow the seeded stream as well as float bits.

The counts follow float bits, not wall time, so they are the same on
every machine with the same numpy and libm.  tests/test_counts_ledger.py
recomputes the ledger and requires it to equal tests/BENCH_counts.json.
To regenerate the file after a change that moves counts, run from the
repository root

    PYTHONPATH=src python3 tests/counts_ledger.py --write

and explain each moved entry in CHANGES.md; without --write the script
prints the ledger.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import l2mech.calibrate as calibrate
import l2mech.errormodel as errormodel
import l2mech.lossbounds as lossbounds
import l2mech.mcverify as mcverify
from l2mech.calibrate import PrivacyParams, calibrate_gaussian, calibrate_l2
from l2mech.sampler import RngState

LEDGER_PATH = Path(__file__).with_name("BENCH_counts.json")
TARGETS = ((1.0, 1e-5), (0.1, 1e-7), (10.0, 1e-3))
DIMS = (2, 10, 100, 1000, 10000)
TABLE_D_MAX = 12
GAUSSIAN_TOLS = (1e-3, 2.0**-120)
EMPIRICAL_DIMS = (2, 10)
EMPIRICAL_TARGET = (1.0, 1e-2)
EMPIRICAL_N, EMPIRICAL_TOL, EMPIRICAL_SEED = 20000, 1e-3, 7
GRID_STRATA, GRID_SEED = 8, 20261018


def mix_grid() -> list[tuple[int, PrivacyParams]]:
    """GRID_STRATA^2 seeded (dim, params) targets shaped like calibrate-mix.

    GRID_STRATA strata of log d in [1, 2000] by as many of log epsilon in
    [0.1, 10]; log delta in [1e-10, 1e-3] gets one of as many cells as
    there are targets, by a seeded permutation.  Each target sits near
    its cell's centre, moved by a seeded offset of at most 5% of a cell.
    """
    rng = np.random.default_rng(GRID_SEED)
    n = GRID_STRATA * GRID_STRATA
    i_d, i_eps = np.divmod(np.arange(n), GRID_STRATA)
    i_delta = rng.permutation(n)

    def place(cell, cells):
        return (cell + 0.5 + 0.1 * (rng.random(n) - 0.5)) / cells

    dims = np.floor(np.exp(place(i_d, GRID_STRATA) * math.log(2001))).astype(int)
    eps = 10.0 ** (-1.0 + 2.0 * place(i_eps, GRID_STRATA))
    delta = 10.0 ** (-10.0 + 7.0 * place(i_delta, n))
    return [
        (int(d), PrivacyParams(float(e), float(dl)))
        for d, e, dl in zip(dims, eps, delta)
    ]


@contextmanager
def _counting(counts: defaultdict, calls: Counter):
    """Count checks and kernel work by dimension into counts, and certificate passes into calls."""
    checks = calibrate._probe_checks
    batch = lossbounds._prolate_batch

    def counted_checks(dims, *args):
        for dim in dims:
            counts[dim]["checks"] += 1
        return checks(dims, *args)

    def counted_batch(dims, sigmas, eps, n_nu, n_mu, **kwargs):
        calls["prolate_calls"] += 1
        for dim in dims:
            counts[dim]["nu_cells"] += n_nu
            counts[dim]["mu_cells"] += n_mu
        return batch(dims, sigmas, eps, n_nu, n_mu, **kwargs)

    calibrate._probe_checks = counted_checks
    lossbounds._prolate_batch = counted_batch
    try:
        yield
    finally:
        calibrate._probe_checks = checks
        lossbounds._prolate_batch = batch


def _entry(count: Counter, result) -> dict:
    return {
        "checks": count["checks"],
        "search_iterations": result.search_iterations,
        "nu_cells": count["nu_cells"],
        "mu_cells": count["mu_cells"],
        "sigma": result.sigma.hex(),
        "hit_bracket_floor": result.hit_bracket_floor,
    }


def _calibration(dim: int, params: PrivacyParams) -> dict:
    counts = defaultdict(Counter)
    with _counting(counts, Counter()):
        result = calibrate_l2(dim, params)
    return _entry(counts[dim], result)


def _table(params: PrivacyParams) -> dict:
    """One entry per l2 row, each counted from its own search, and the table's prolate_calls."""
    counts, calls = defaultdict(Counter), Counter()
    results = []
    rows = errormodel._calibrate_l2_rows

    def counted_rows(dims, *args):
        results.extend(zip(dims, rows(dims, *args)))
        return [result for _, result in results]

    errormodel._calibrate_l2_rows = counted_rows
    try:
        with _counting(counts, calls):
            errormodel.comparison_table(params, TABLE_D_MAX)
    finally:
        errormodel._calibrate_l2_rows = rows
    out = {f"d={dim}": _entry(counts[dim], result) for dim, result in results}
    out["prolate_calls"] = calls["prolate_calls"]
    return out


class _CountingGenerator:
    """A numpy Generator that counts the variates each draw returns."""

    def __init__(self, gen):
        self.gen = gen
        self.variates = 0

    def __getattr__(self, name):
        draw = getattr(self.gen, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.variates += int(np.size(out))
            return out

        return counted


def _empirical(dim: int) -> dict:
    calls = draws = 0
    rng = RngState(EMPIRICAL_SEED)
    gen = _CountingGenerator(rng.generator)
    rng._gen = gen
    estimate = mcverify._empirical_lhs

    def counted_estimate(*args):
        nonlocal calls, draws
        out = estimate(*args)
        calls += 1
        draws += 2 * out.n
        return out

    mcverify._empirical_lhs = counted_estimate
    try:
        sigma = mcverify.empirical_min_sigma(
            dim,
            PrivacyParams(*EMPIRICAL_TARGET),
            EMPIRICAL_N,
            EMPIRICAL_TOL,
            rng,
        )
    finally:
        mcverify._empirical_lhs = estimate
    return {
        "empirical_lhs_calls": calls,
        "draws": draws,
        "variates": gen.variates,
        "sigma": sigma.hex(),
    }


def ledger() -> dict:
    """Every case's counts, keyed by a name that spells out its inputs."""
    out = {}
    for eps, delta in TARGETS:
        params = PrivacyParams(eps, delta)
        for dim in DIMS:
            out[f"calibrate_l2 d={dim} eps={eps!r} delta={delta!r}"] = _calibration(
                dim, params
            )
        out[f"comparison_table d_max={TABLE_D_MAX} eps={eps!r} delta={delta!r}"] = (
            _table(params)
        )
        for tol in GAUSSIAN_TOLS:
            result = calibrate_gaussian(params, tol)
            out[f"calibrate_gaussian eps={eps!r} delta={delta!r} tol={tol!r}"] = {
                "search_iterations": result.search_iterations,
                "sigma": result.sigma.hex(),
            }
    probes = [calibrate_l2(dim, params).search_iterations for dim, params in mix_grid()]
    out[f"calibrate_l2 mix_grid strata={GRID_STRATA} seed={GRID_SEED}"] = {
        "search_iterations_total": sum(probes),
        "search_iterations_worst": max(probes),
    }
    eps, delta = EMPIRICAL_TARGET
    for dim in EMPIRICAL_DIMS:
        out[
            f"empirical_min_sigma d={dim} eps={eps!r} delta={delta!r} "
            f"n={EMPIRICAL_N} tol={EMPIRICAL_TOL!r} seed={EMPIRICAL_SEED}"
        ] = _empirical(dim)
    return out


def dumps(entries: dict) -> str:
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    text = dumps(ledger())
    if sys.argv[1:] == ["--write"]:
        LEDGER_PATH.write_text(text)
    else:
        sys.stdout.write(text)
