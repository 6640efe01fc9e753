"""Exact samplers: determinism, moments, and distributional law checks."""

import hashlib
import math
import re

import numpy as np
import pytest
from scipy import stats

import oracles
from l2mech.capgeom import radial_cdf
from l2mech.sampler import (
    ParallelTrace,
    RngState,
    SampleBatch,
    draw_batch,
    sample_gaussian,
    sample_l2,
    sample_l2_parallel,
    sample_laplace,
    sample_unit_ball,
)

KS_LEVEL = 0.01


def test_rng_state_validation_and_replay():
    with pytest.raises(ValueError):
        RngState(-1)
    with pytest.raises(ValueError):
        RngState(2**64)
    with pytest.raises(ValueError):
        RngState(3, -2)
    a = RngState(9, 1).generator.random(5)
    b = RngState(9, 1).generator.random(5)
    c = RngState(9, 2).generator.random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_state_advances_with_use():
    rng = RngState(4)
    first = rng.generator.random(3)
    second = rng.generator.random(3)
    assert not np.array_equal(first, second)


def test_unit_ball_norm_moments():
    z = sample_unit_ball(3, RngState(41), size=1000000)
    sq = np.einsum("ij,ij->i", z, z)
    assert np.all(sq <= 1.0 + 1e-12)
    assert abs(float(np.mean(sq)) - 3.0 / 5.0) < 0.003
    assert np.max(np.abs(np.mean(z, axis=0))) < 0.004


def test_unit_ball_norm_law():
    for d in [2, 6]:
        z = sample_unit_ball(d, RngState(42 + d), size=100000)
        norms = np.linalg.norm(z, axis=1)
        res = stats.kstest(norms, lambda r, d=d: np.asarray(r) ** d)
        assert res.pvalue > KS_LEVEL, d


def test_unit_ball_determinism():
    a = sample_unit_ball(4, RngState(7), size=8)
    b = sample_unit_ball(4, RngState(7), size=8)
    assert np.array_equal(a, b)


def test_sample_l2_radial_law():
    for d, n in [(1, 50000), (2, 50000), (5, 50000), (1000, 5000)]:
        y = sample_l2(np.zeros(d), 0.8, RngState(50 + d), size=n)
        norms = np.linalg.norm(y, axis=1)
        res = stats.kstest(norms, lambda r, d=d: radial_cdf(d, 0.8, r))
        assert res.pvalue > KS_LEVEL, d


def test_sample_l2_direction_law():
    # (1 + cos angle to e1) / 2 of a uniform direction is Beta((d-1)/2, (d-1)/2)
    for d in [3, 20]:
        y = sample_l2(np.zeros(d), 0.8, RngState(150 + d), size=50000)
        t = (1.0 + y[:, 0] / np.linalg.norm(y, axis=1)) / 2.0
        half = (d - 1) / 2.0
        res = stats.kstest(t, stats.beta(half, half).cdf)
        assert res.pvalue > KS_LEVEL, d


def test_l2_plus_a_gaussian_mixture_is_l2_at_the_larger_sigma():
    # the mechanism at sigma' > sigma is the one at sigma plus independent
    # noise W (oracles.gaussian_mixture_w), so its lhs cannot exceed the
    # one at sigma.  The radius of sample_l2(0, sigma) + W against
    # Gamma(d, sigma'), and its direction's first coordinate t against a
    # uniform direction's: (t + 1)/2 ~ Beta((d - 1)/2, (d - 1)/2), a fair
    # sign at d = 1.  Ten comparisons at 1e-4 each keep the chance of a
    # false alarm at or below 1e-3; the seeds were fixed before any run
    n, chunk = 200_000, 20_000
    for d, sigma, wider in ((1, 1.0, 1.5), (2, 1.0, 1.5), (3, 0.7, 2.0),
                            (10, 1.0, 1.1), (100, 0.5, 0.55)):
        rng = RngState(2500 + d)
        radius, t = [], []
        for block in range(n // chunk):
            y = sample_l2(np.zeros(d), sigma, rng, size=chunk)
            y += oracles.gaussian_mixture_w(d, sigma, wider, chunk, 3500 + 100 * d + block)
            norms = np.linalg.norm(y, axis=1)
            radius.append(norms)
            t.append(y[:, 0] / norms)
        radius, t = np.concatenate(radius), np.concatenate(t)
        assert stats.kstest(radius, stats.gamma(d, scale=wider).cdf).pvalue >= 1e-4, d
        if d == 1:
            p_dir = stats.binomtest(int(np.sum(t > 0)), n).pvalue
        else:
            half = (d - 1) / 2.0
            p_dir = stats.kstest((t + 1.0) / 2.0, stats.beta(half, half).cdf).pvalue
        assert p_dir >= 1e-4, d


def test_sample_l2_center_and_shape():
    center = np.array([5.0, -3.0, 0.5])
    y = sample_l2(center, 0.2, RngState(51), size=40000)
    assert y.shape == (40000, 3)
    assert np.max(np.abs(np.mean(y, axis=0) - center)) < 0.02
    one = sample_l2(center, 0.2, RngState(52))
    assert one.shape == (3,)


def test_sample_l2_determinism_and_validation():
    a = sample_l2(np.zeros(2), 1.0, RngState(8), size=5)
    b = sample_l2(np.zeros(2), 1.0, RngState(8), size=5)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_l2(np.zeros((2, 2)), 1.0, RngState(1))
    with pytest.raises(ValueError):
        sample_l2(np.zeros(2), 0.0, RngState(1))
    with pytest.raises(ValueError):
        sample_l2(np.array([np.inf, 0.0]), 1.0, RngState(1))


def test_samplers_check_their_rng():
    c = np.zeros(2)
    for draw in (
        lambda rng: sample_l2(c, 1.0, rng),
        lambda rng: sample_unit_ball(2, rng),
        lambda rng: sample_laplace(c, 1.0, rng, size=3),
        lambda rng: sample_gaussian(c, 1.0, rng),
    ):
        for rng in (7, None, np.random.default_rng(7)):
            with pytest.raises(ValueError, match="rng must be a RngState"):
                draw(rng)
    # every stream is checked before any advances: worker 0's stays fresh
    first = RngState(1)
    with pytest.raises(ValueError, match="worker_rngs must hold only RngState"):
        sample_l2_parallel(c, 1.0, [first, 5], RngState(3))
    with pytest.raises(ValueError, match="manager_rng must be a RngState"):
        sample_l2_parallel(c, 1.0, [first, RngState(2)], 3)
    # the worker streams come as a list or tuple: None and a generator of
    # streams are refused by name, not by len()
    for workers in (None, (rng for rng in (first, RngState(2)))):
        with pytest.raises(ValueError, match="^worker_rngs must be a list of RngState$"):
            sample_l2_parallel(c, 1.0, workers, RngState(3))
    assert first.generator.random() == RngState(1).generator.random()


def test_a_sampler_call_reports_all_its_faults_at_once():
    with pytest.raises(ValueError) as excinfo:
        sample_l2([np.nan], -1.0, 7)
    assert str(excinfo.value) == (
        "center must be finite; sigma must be positive and finite; "
        "rng must be a RngState"
    )
    with pytest.raises(ValueError) as excinfo:
        sample_laplace(np.zeros((2, 2)), 0.0, RngState(1), size=0)
    assert str(excinfo.value) == (
        "center must be a 1-d vector with at least one entry; scale must be "
        "positive and finite; size must be None or an integer >= 1"
    )
    with pytest.raises(ValueError) as excinfo:
        sample_unit_ball(0, None, size=1.5)
    assert str(excinfo.value).count(";") == 2
    first = RngState(1)
    with pytest.raises(ValueError) as excinfo:
        sample_l2_parallel([np.inf, 0.0], -1.0, [first], 3)
    assert str(excinfo.value).count(";") == 3
    assert first.generator.random() == RngState(1).generator.random()
    # draw_batch checks what its sampler does not: the mechanism and dim
    with pytest.raises(ValueError) as excinfo:
        draw_batch("cauchy", 0, -1.0, 0, 5)
    assert str(excinfo.value) == (
        "dim must be an integer >= 1; "
        "mechanism must be one of ['gaussian', 'l2', 'laplace']"
    )
    with pytest.raises(ValueError, match="sigma must be positive and finite; size"):
        draw_batch("gaussian", 2, -1.0, 0, 5)


def test_parallel_trace_identities():
    workers = [RngState(99, i) for i in range(4)]
    manager = RngState(99, 4)
    out, tr = sample_l2_parallel(np.zeros(4), 0.5, workers, manager)
    assert isinstance(tr, ParallelTrace)
    want_radius = 0.5 * (float(tr.worker_log_uniforms.sum()) + tr.manager_log_uniform)
    assert abs(tr.radius - want_radius) < 1e-12
    recon = (
        tr.radius
        * tr.manager_uniform_y ** (1.0 / 4.0)
        * tr.worker_gauss
        / math.sqrt(tr.sum_squares)
    )
    assert np.allclose(out, recon, rtol=0.0, atol=1e-15)
    assert abs(tr.sum_squares - float(np.dot(tr.worker_gauss, tr.worker_gauss))) < 1e-12


def test_parallel_worker_count_enforced():
    with pytest.raises(ValueError):
        sample_l2_parallel(np.zeros(3), 1.0, [RngState(1, 0)], RngState(1, 9))


def test_parallel_matches_serial_law():
    d, sigma, n = 3, 0.7, 20000
    workers = [RngState(77, i) for i in range(d)]
    manager = RngState(77, d)
    par = np.array(
        [sample_l2_parallel(np.zeros(d), sigma, workers, manager)[0] for _ in range(n)]
    )
    ser = sample_l2(np.zeros(d), sigma, RngState(78), size=n)
    res = stats.ks_2samp(np.linalg.norm(par, axis=1), np.linalg.norm(ser, axis=1))
    assert res.pvalue > KS_LEVEL


def test_parallel_d1_is_laplace():
    # one worker, so the output is radius times a random sign
    n = 20000
    worker = [RngState(88, 0)]
    manager = RngState(88, 1)
    vals = np.array(
        [sample_l2_parallel(np.zeros(1), 0.6, worker, manager)[0][0] for _ in range(n)]
    )
    res = stats.kstest(vals, stats.laplace(scale=0.6).cdf)
    assert res.pvalue > KS_LEVEL


def test_laplace_mse_and_law():
    y = sample_laplace(np.zeros(2), 1.0, RngState(60), size=1000000)
    mse = float(np.mean(np.einsum("ij,ij->i", y, y)))
    assert abs(mse - 4.0) < 0.04
    a = sample_laplace(np.zeros(2), 1.0, RngState(61), size=4)
    b = sample_laplace(np.zeros(2), 1.0, RngState(61), size=4)
    assert np.array_equal(a, b)


def test_d1_l2_matches_laplace_law():
    l2 = sample_l2(np.zeros(1), 0.9, RngState(62), size=50000)[:, 0]
    lap = sample_laplace(np.zeros(1), 0.9, RngState(63), size=50000)[:, 0]
    res = stats.ks_2samp(l2, lap)
    assert res.pvalue > KS_LEVEL


def test_gaussian_moments_and_determinism():
    y = sample_gaussian(np.zeros(2), 1.5, RngState(64), size=1000000)
    var = np.var(y, axis=0)
    assert np.max(np.abs(var - 2.25)) < 0.01 * 2.25
    a = sample_gaussian(np.zeros(3), 1.0, RngState(65), size=4)
    b = sample_gaussian(np.zeros(3), 1.0, RngState(65), size=4)
    assert np.array_equal(a, b)


def test_sample_batch_csv_round_trip():
    batch = draw_batch("l2", 3, 1.0, 5, seed=7)
    text = batch.to_csv()
    lines = text.split("\r\n")
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 7 and lines[-1] == ""  # header + 5 rows + final CRLF
    parsed = np.array([[float(v) for v in row.split(",")] for row in lines[1:6]])
    assert np.array_equal(parsed, batch.values)  # repr round-trips exactly


def test_sample_batch_json_schema():
    import json

    batch = draw_batch("gaussian", 2, 0.5, 3, seed=11)
    payload = json.loads(batch.to_json())
    assert payload["mechanism"] == "gaussian"
    assert payload["dim"] == 2 and payload["count"] == 3
    assert payload["sigma"] == 0.5 and payload["seed"] == 11
    vals = np.array(payload["values"])
    assert vals.shape == (3, 2)
    assert np.array_equal(vals, batch.values)


def test_sample_batch_checks_its_metadata():
    # a batch records what replays it, so its mechanism, sigma, seed and
    # stream id are checked as draw_batch and RngState check them, every
    # fault in one ValueError
    mechanisms = re.escape("mechanism must be one of ['gaussian', 'l2', 'laplace']")
    seed = re.escape("seed must be an integer in [0, 2^64)")
    with pytest.raises(ValueError, match=f"^{mechanisms}; sigma must be positive and finite; {seed}$"):
        SampleBatch(1, 1, [[1.0]], "cauchy", -1.0, "x")
    with pytest.raises(ValueError, match=f"^{seed}; stream_id must be a nonnegative integer$"):
        SampleBatch(1, 1, [[1.0]], "l2", 1.0, -5, -2)


def test_sample_batch_replays_from_its_metadata():
    import json

    batch = draw_batch("l2", 3, 0.5, 4, seed=9, stream_id=2)
    assert batch.stream_id == 2 and json.loads(batch.to_json())["stream_id"] == 2
    rng = RngState(batch.seed, batch.stream_id)
    replay = sample_l2(np.zeros(3), batch.sigma, rng, size=batch.count)
    assert np.array_equal(replay, batch.values)
    assert not np.array_equal(draw_batch("l2", 3, 0.5, 4, seed=9).values, replay)


def test_draw_batch_dispatch_and_determinism():
    for mech in ["l2", "laplace", "gaussian"]:
        a = draw_batch(mech, 2, 1.0, 4, seed=3)
        b = draw_batch(mech, 2, 1.0, 4, seed=3)
        assert a.to_csv() == b.to_csv(), mech
        assert isinstance(a, SampleBatch)
    lap = draw_batch("laplace", 2, 1.0, 4, seed=3)
    gau = draw_batch("gaussian", 2, 1.0, 4, seed=3)
    assert not np.array_equal(lap.values, gau.values)
    with pytest.raises(ValueError):
        draw_batch("cauchy", 2, 1.0, 4, seed=3)


# SHA-1 of the float64 bytes of fixed draws.  A released sample_l2
# stream must replay bit for bit across versions, so any change to the
# arithmetic or the draw order of these samplers shows up here.
STREAM_SHA1 = {
    (1, "l2"): "7267e00b5b2a04aded56b3cc1bd5bc4c039f5f2f",
    (1, "l2 scalar"): "676014cfda210cbd3e0b5baef849058a66f4434a",
    (1, "unit ball"): "b6d65890164f61610083f2dac408c476f3a75937",
    (1, "draw_batch"): "bea0fd890c1b33b302f998b32763e6d437b3cb57",
    (3, "l2"): "885bce4c7eea8487594795df6c8158a61e31712e",
    (3, "l2 scalar"): "971c9135404a0f679a6c5602ce74dc6f8638ec98",
    (3, "unit ball"): "eb662c8dd44339a7b7c190d3831c3cb78dcafa03",
    (3, "draw_batch"): "92db084a4536616a6c98b745334402d36c31b3a2",
    (100, "l2"): "41e68bf8e8966141781240335bf3d644ca0f2ea1",
    (100, "l2 scalar"): "598f80bd5d5afbdc84da17d6276cf9bbe3ae6031",
    (100, "unit ball"): "1b01f1b40029482db65cb82e45b517e4555e2583",
    (100, "draw_batch"): "48694872628b3b223731295b1292d8cd0f2d1fb3",
    (1, "parallel"): "98cec49964842ba72c8f828683969ebbd30ceefc",
    (3, "parallel"): "36dee872b1b19d795b7abf51cf569c2c138efd72",
    (100, "parallel"): "113b6e6ffc6c983a5805137ac7005163cf71708b",
}


def test_sample_streams_are_pinned():
    def sha1(a):
        return hashlib.sha1(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()

    got = {}
    for d in (1, 3, 100):
        center = np.linspace(-1.5, 2.0, d)
        got[d, "l2"] = sha1(sample_l2(center, 0.7, RngState(2024, d), size=64))
        got[d, "l2 scalar"] = sha1(sample_l2(center, 0.7, RngState(2027, d)))
        got[d, "unit ball"] = sha1(sample_unit_ball(d, RngState(2025, d), size=64))
        got[d, "draw_batch"] = sha1(draw_batch("l2", d, 0.7, 64, 2026, d).values)
        workers = [RngState(2028, i) for i in range(d)]
        manager = RngState(2028, d)
        got[d, "parallel"] = sha1(
            [sample_l2_parallel(center, 0.7, workers, manager)[0] for _ in range(50)]
        )
    assert got == STREAM_SHA1
