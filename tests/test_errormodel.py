"""Closed-form error model against algebra, samplers, and table contracts."""

import csv
import io
import json
import math

import numpy as np
import pytest

import l2mech.calibrate
import l2mech.errormodel as errormodel
import l2mech.lossbounds
from l2mech.calibrate import PrivacyParams, calibrate_l2
from l2mech.errormodel import (
    TABLE_FIELDS,
    ErrorRow,
    comparison_table,
    mse_gaussian,
    mse_laplace,
    mse_lp_mechanism,
    table_to_csv,
    table_to_json,
)
from l2mech.sampler import RngState, sample_gaussian, sample_l2, sample_laplace


def test_lp_mse_reference_values():
    assert math.isclose(mse_lp_mechanism(3, 2.0, 1.0), 12.0, rel_tol=1e-12)
    # p=1 with per-coordinate scale 1 spread over d=2 coordinates
    assert math.isclose(mse_lp_mechanism(2, 1.0, math.sqrt(2.0)), 8.0, rel_tol=1e-12)
    for p in [1.0, 2.0, 3.7]:
        assert math.isclose(mse_lp_mechanism(1, p, 0.8), 2.0 * 0.64, rel_tol=1e-12)


def test_lp_mse_p2_closed_form_collapse():
    # the gamma-ratio expression must reduce to d(d+1)sigma^2 exactly
    for d in [1, 2, 10, 100, 1000, 10000]:
        for sigma in [0.3, 1.0, 7.5]:
            want = d * (d + 1.0) * sigma * sigma
            got = mse_lp_mechanism(d, 2.0, sigma)
            assert abs(got - want) <= 1e-10 * want, (d, sigma)


def test_simple_mse_formulas():
    assert mse_gaussian(1, 1.0) == 1.0
    assert mse_gaussian(10, 2.0) == 40.0
    assert mse_laplace(2, 1.0) == 4.0
    with pytest.raises(ValueError):
        mse_gaussian(0, 1.0)
    with pytest.raises(ValueError):
        mse_laplace(2, -1.0)
    with pytest.raises(ValueError):
        mse_lp_mechanism(2, 0.0, 1.0)


def test_mse_formulas_match_samplers():
    # 3-standard-error agreement between each closed form and a large
    # empirical batch from the matching sampler
    n = 200000
    for d in [1, 3]:
        y = sample_l2(np.zeros(d), 0.6, RngState(70 + d), size=n)
        sq = np.einsum("ij,ij->i", y, y)
        se = float(np.std(sq)) / math.sqrt(n)
        assert abs(float(np.mean(sq)) - mse_lp_mechanism(d, 2.0, 0.6)) <= 3.0 * se

        y = sample_laplace(np.zeros(d), 0.6, RngState(80 + d), size=n)
        sq = np.einsum("ij,ij->i", y, y)
        se = float(np.std(sq)) / math.sqrt(n)
        assert abs(float(np.mean(sq)) - mse_laplace(d, 0.6)) <= 3.0 * se

        y = sample_gaussian(np.zeros(d), 0.6, RngState(90 + d), size=n)
        sq = np.einsum("ij,ij->i", y, y)
        se = float(np.std(sq)) / math.sqrt(n)
        assert abs(float(np.mean(sq)) - mse_gaussian(d, 0.6)) <= 3.0 * se


def test_comparison_table_structure():
    pp = PrivacyParams(1.0, 1e-5)
    rows = comparison_table(pp, 4)
    assert len(rows) == 12
    for d in range(1, 5):
        chunk = [r for r in rows if r.dim == d]
        assert [r.mechanism for r in chunk] == ["l2", "laplace", "gaussian"]
        gauss = chunk[2]
        assert gauss.normalized_mse == 1.0
        for r in chunk:
            assert isinstance(r, ErrorRow)
            assert r.sigma > 0.0 and r.mse > 0.0
            assert math.isclose(
                r.normalized_mse, r.mse / gauss.mse, rel_tol=1e-12
            )
    # the l2 row never loses to either baseline at these budgets
    for d in range(1, 5):
        chunk = {r.mechanism: r for r in rows if r.dim == d}
        assert chunk["l2"].mse <= chunk["laplace"].mse + 1e-12
        assert chunk["l2"].mse <= chunk["gaussian"].mse + 1e-12


def test_comparison_table_mse_consistency():
    pp = PrivacyParams(1.0, 1e-5)
    rows = comparison_table(pp, 3)
    for r in rows:
        if r.mechanism == "l2":
            want = mse_lp_mechanism(r.dim, 2.0, r.sigma)
        elif r.mechanism == "laplace":
            want = mse_laplace(r.dim, r.sigma)
        else:
            want = mse_gaussian(r.dim, r.sigma)
        assert math.isclose(r.mse, want, rel_tol=1e-12)


def test_table_csv_format():
    pp = PrivacyParams(1.0, 1e-5)
    rows = comparison_table(pp, 2)
    text = table_to_csv(rows)
    assert "\r\n" in text
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(TABLE_FIELDS)
    assert len(parsed) == 1 + len(rows)
    first = parsed[1]
    assert first[0] == "1" and first[1] == "l2"
    assert float(first[2]) == rows[0].sigma  # repr cells parse back exactly


def test_table_json_round_trip():
    pp = PrivacyParams(1.0, 1e-5)
    rows = comparison_table(pp, 2)
    payload = json.loads(table_to_json(rows))
    assert len(payload) == len(rows)
    assert payload[0]["d"] == 1 and payload[0]["mechanism"] == "l2"
    assert payload[0]["sigma"] == rows[0].sigma
    assert set(payload[0]) == set(TABLE_FIELDS)


def test_table_validation():
    with pytest.raises(ValueError):
        comparison_table(PrivacyParams(1.0, 1e-5), 0)


def test_table_validation_names_d_max():
    with pytest.raises(ValueError, match="d_max must be an integer"):
        comparison_table(PrivacyParams(1.0, 1e-5), 2.0)


def test_table_checks_grid_sizes_on_entry(monkeypatch):
    # before any calibration: the rows then run unchecked
    def refuse(*args, **kwargs):
        raise AssertionError("calibrated before checking the grid sizes")

    monkeypatch.setattr(errormodel, "calibrate_gaussian", refuse)
    pp = PrivacyParams(1.0, 1e-5)
    with pytest.raises(ValueError, match="n_r must be an integer >= 2"):
        comparison_table(pp, 3, n_r=1)
    with pytest.raises(ValueError, match="n_R must be an integer >= 2"):
        comparison_table(pp, 3, n_R=2.5)


def test_counts_refuse_bools():
    # True is an int to isinstance, but not a dimension
    pp = PrivacyParams(1.0, 1e-5)
    with pytest.raises(ValueError, match="d_max"):
        comparison_table(pp, True)
    with pytest.raises(ValueError, match="dim"):
        calibrate_l2(True, pp)
    with pytest.raises(ValueError, match="dim"):
        mse_gaussian(True, 1.0)


@pytest.mark.parametrize(
    "epsilon,delta,d_max,max_probes",
    [
        (1.0, 1e-5, 12, 33),
        (0.1, 1e-7, 12, 47),
        (10.0, 1e-3, 12, 31),
        (1.0, 1e-5, 40, 98),
    ],
)
def test_table_warm_start_changes_no_sigma(
    monkeypatch, epsilon, delta, d_max, max_probes
):
    # rows 0 and 1 start at once, and each later l2 search once the one
    # two rows before it has a report, at the secant through the latest
    # sigmas of the two nearest searches before it that have one; the
    # searches advance together, one round of row checks at a time, and
    # each answer is still the stand-alone calibration's.  The d_max = 12
    # tables take 31, 34 and 30 row checks and the d_max = 40 one 94 (28,
    # 33, 26 and 87 when each search waited for the one just before it,
    # 29, 34, 28 and 92 when it waited for that one to finish); the
    # bounds are those of the last, sequential schedule
    pp = PrivacyParams(epsilon, delta)
    probes = 0
    checks_at = l2mech.calibrate._probe_checks

    def counted(dims, *args):
        nonlocal probes
        probes += len(dims)
        return checks_at(dims, *args)

    with monkeypatch.context() as patch:
        patch.setattr(l2mech.calibrate, "_probe_checks", counted)
        rows = comparison_table(pp, d_max)
    table = [r.sigma for r in rows if r.mechanism == "l2"]
    alone = [calibrate_l2(d, pp).sigma for d in range(1, d_max + 1)]
    assert [s.hex() for s in table] == [s.hex() for s in alone]
    assert probes <= max_probes


def test_table_takes_a_certificate_pass_per_two_rows(monkeypatch):
    # with each search starting once the one two rows before it has a
    # report, the d_max = 40 table at (1, 1e-5) takes 24 certificate
    # passes (_prolate_batch calls), against 43 when each waited for the
    # row just before it
    batch_at = l2mech.lossbounds._prolate_batch
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return batch_at(*args, **kwargs)

    monkeypatch.setattr(l2mech.lossbounds, "_prolate_batch", counted)
    comparison_table(PrivacyParams(1.0, 1e-5), 40)
    assert calls == 24
