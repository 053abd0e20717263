"""Gaussian packing construction, decoding, and simulation tests."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from di_codes import (
    GaussChannel,
    GaussCodebook,
    build_gauss_codebook,
    chebyshev_references,
    gauss_codebook_from_dict,
    gauss_codebook_to_dict,
    gauss_identify,
    gaussian_rate_bound,
    min_center_distance,
    packing_lower_bound,
    packing_radii,
    simulate_gauss_errors,
    transmit_gauss,
)
import di_codes
from di_codes import gauss_code, stats
from di_codes._threads import env_threads, worker_count
from di_codes.gauss_code import _BATCH, _PENDING_LIMIT, _sample_ball


# --- radii and counting bound ---


def test_packing_radii_values():
    r0, r1 = packing_radii(1.0, 0.01)
    assert r0 == 0.1
    assert r1 == pytest.approx(0.9, abs=1e-15)
    with pytest.raises(ValueError):
        packing_radii(0.0, 0.01)
    with pytest.raises(ValueError):
        packing_radii(1.0, 1.0)
    with pytest.raises(ValueError):
        packing_radii(1.0, 0.0)


def test_packing_lower_bound_frozen():
    # (0.9 / 0.2)^6
    assert packing_lower_bound(1.0, 0.01, 6) == pytest.approx(8303.765625, abs=1e-9)


def test_packing_lower_bound_overflow_is_inf():
    assert packing_lower_bound(1.0, 0.01, 2000) == math.inf


@pytest.mark.parametrize("power, epsilon", [(1.0, 0.01), (1.0, 0.25), (2.0, 0.3), (1.0, 0.0025), (7.7, 0.04)])
def test_packing_lower_bound_is_two_to_the_n_times_the_rate(power, epsilon):
    # One formula: the count bound is 2^(n * gaussian_rate_bound), bit for bit below the overflow.
    rate = gaussian_rate_bound(power, epsilon)
    for n in (1, 2, 3, 5, 6, 64, 300):
        if n * rate <= 1023.0:
            assert packing_lower_bound(power, epsilon, n) == 2.0 ** (n * rate)
    assert packing_lower_bound(1.0, 0.01, 6) == 8303.765624999993  # every certificate keeps its bits


def test_r1_zero_is_refused_by_packing_radii_everywhere():
    # sqrt(1.0000000000000002) rounds to 1.0, so r1 = sqrt(P) - sqrt(eps) = 0 at eps = 1 < P.
    # Before, packing_lower_bound raised "math domain error", GaussCodebook accepted
    # the codebook, and build_gauss_codebook raised ConstructionError from its own guard.
    power, eps = 1.0000000000000002, 1.0
    ch = GaussChannel(1.0, power)
    calls = [lambda: packing_radii(power, eps), lambda: gaussian_rate_bound(power, eps),
             lambda: packing_lower_bound(power, eps, 3),
             lambda: GaussCodebook(channel=ch, centers=np.zeros((1, 3)), epsilon=eps, delta=0.1),
             lambda: build_gauss_codebook(ch, n=3, epsilon=eps, delta=0.1, seed=1)]
    for call in calls:
        with pytest.raises(ValueError, match="with r1 > 0"):
            call()


def test_rate_grows_without_bound_as_epsilon_shrinks():
    # The paper's Gaussian headline, DI capacity infinite whatever the noise, at n = 3:
    # each saturated packing reaches the certified count 2^(n * rate), covers the ball
    # by the rule of gauss-saturation-count (one-sided 95 % Clopper-Pearson bound on the
    # uncovered fraction <= 1e-3), and log2(L)/n climbs with log2(1/eps) at a slope near
    # 1/2 (0.53 measured: L = 32, 316 and 2 599). A packing whose separation ignored eps
    # would stay near L = 32.
    from scipy.stats import beta

    epsilons = np.array([0.04, 0.01, 0.0025])
    rates = []
    for eps in epsilons:
        _, cert = build_gauss_codebook(GaussChannel(1.0, 1.0), n=3, epsilon=eps, delta=eps / 3, seed=7,
                                       probe_budget=30_000, probe_trials=4096)
        assert cert.saturated_at_tolerance
        assert cert.center_count >= packing_lower_bound(1.0, eps, 3)
        uncovered = cert.probe_trials - cert.probe_covered
        assert float(beta.ppf(0.95, uncovered + 1, cert.probe_covered)) <= 1e-3
        rates.append(math.log2(cert.center_count) / 3)
    assert np.polyfit(np.log2(1.0 / epsilons), rates, 1)[0] >= 0.4


def test_packing_lower_bound_trivial_for_large_epsilon():
    # r1 < 2 r0 makes the bound fall below 1
    assert packing_lower_bound(1.0, 0.5, 10) < 1.0



@pytest.mark.parametrize("power, kwargs", [
    (1.0, dict(n=6, epsilon=0.01, delta=0.1)),  # gauss-saturation-count: bound 8 304
    (1.0, dict(n=5, epsilon=0.01, delta=0.1)),  # the gauss-pack workload: bound 1 845
    (2.0, dict(n=10000, epsilon=0.3, delta=0.1, max_centers=12)),  # gauss-error-decay
    (1.0, dict(n=8, epsilon=0.05, delta=0.1, max_centers=64)),  # determinism-replay
    # a cap far past the bound (3 centers): saturation comes first, so it fits
    (1.0, dict(n=2, epsilon=0.05, delta=0.1, max_centers=10**15)),
])
def test_packings_that_fit_are_not_refused(power, kwargs, monkeypatch):
    class Sampled(Exception):
        pass

    def sampled(*args, **kw):
        raise Sampled

    monkeypatch.setattr(gauss_code, "_sample_ball", sampled)
    with pytest.raises(Sampled):
        build_gauss_codebook(GaussChannel(1.0, power), seed=1, **kwargs)


def test_packing_refusal_names_the_budget():
    # Saturation at n = 64 needs 6.4e41 centers; a cap of 2e6 still passes 4 GiB.
    with pytest.raises(di_codes.BudgetError, match="memory budget"):
        build_gauss_codebook(GaussChannel(1.0, 1.0), n=64, epsilon=0.01, delta=0.1, seed=1)
    with pytest.raises(di_codes.BudgetError, match="2e\\+06 centers of length 64"):
        build_gauss_codebook(GaussChannel(1.0, 1.0), n=64, epsilon=0.01, delta=0.1, seed=1,
                             max_centers=2 * 10**6)

# --- candidate sampler ---


def test_sample_ball_stays_inside_and_replays():
    for n in (1, 2, 5, 12):
        a = _sample_ball(np.random.default_rng(31), 500, n, 0.7)
        b = _sample_ball(np.random.default_rng(31), 500, n, 0.7)
        assert a.shape == (500, n)
        assert np.array_equal(a, b)
        norms = np.sqrt((a * a).sum(axis=1))
        assert norms.max() <= 0.7 + 1e-12
        assert norms.min() > 0.0


def test_sample_ball_fills_the_ball():
    # radial cdf of the uniform ball is (r/R)^n: the median radius is R * 2^(-1/n)
    n = 3
    a = _sample_ball(np.random.default_rng(8), 4000, n, 1.0)
    norms = np.sqrt((a * a).sum(axis=1))
    assert abs(np.median(norms) - 2.0 ** (-1.0 / n)) < 0.02


def test_sample_ball_holds_little_more_than_its_output():
    # The norms come from row slices, so no temporary the size of the draws is
    # held, and the points are bit for bit those of the full product.
    rng = np.random.default_rng(31)
    tracemalloc.start()
    try:
        a = _sample_ball(rng, 512, 2000, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * a.nbytes
    rng = np.random.default_rng(31)
    g = rng.standard_normal((512, 2000))
    want = g * (0.7 * rng.random(512) ** (1.0 / 2000) / np.sqrt((g * g).sum(axis=1)))[:, None]
    assert np.array_equal(a, want)


# --- construction ---


def small_build(seed=7, **kw):
    ch = GaussChannel(1.0, 1.0)
    args = dict(n=4, epsilon=0.05, delta=0.1, seed=seed, probe_budget=2000, probe_trials=500)
    args.update(kw)
    return build_gauss_codebook(ch, **args)


def test_build_is_deterministic():
    cb1, cert1 = small_build()
    cb2, cert2 = small_build()
    assert np.array_equal(cb1.centers, cb2.centers)
    assert cert1.to_dict() == cert2.to_dict()


def test_build_invariants():
    cb, cert = small_build()
    r0, r1 = packing_radii(1.0, 0.05)
    norms2 = (cb.centers * cb.centers).sum(axis=1)
    assert norms2.max() <= r1 * r1 + 1e-12
    # brute pairwise separation
    diffs = cb.centers[:, None, :] - cb.centers[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= 2 * r0 - 1e-12
    assert min_center_distance(cb) == pytest.approx(dist.min(), abs=1e-12)
    assert cert.stop_reason == "saturation"
    assert cert.saturated_at_tolerance
    assert cert.meets_packing_bound
    assert cert.lower_bound == pytest.approx((r1 / (2 * r0)) ** 4, abs=1e-9)
    assert cert.center_count == cb.center_count
    assert cert.consecutive_rejections == 2000


def test_saturated_packing_covers_the_ball():
    _, cert = small_build(seed=99, probe_budget=3000, probe_trials=2000)
    assert cert.probe_coverage >= 0.99


def test_center_cap_stops_early():
    cb, cert = small_build(max_centers=3)
    assert cert.stop_reason == "center_cap"
    assert not cert.saturated_at_tolerance
    assert cb.center_count == 3
    full, _ = small_build()
    # the cap truncates the same deterministic stream
    assert np.array_equal(cb.centers, full.centers[:3])


def _greedy_dense_reference(n, epsilon, probe_budget, seed, probe_trials, max_centers=None):
    """Candidate-by-candidate greedy packing against every kept center, with
    the construction's candidate and probe streams; no tree involved."""
    r0, r1 = packing_radii(1.0, epsilon)
    min_d2 = (2.0 * r0) ** 2
    cand_stream, probe_stream = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(cand_stream)
    kept = np.empty((0, n))
    rejections = processed = 0
    while rejections < probe_budget and len(kept) != max_centers:
        for x in _sample_ball(rng, _BATCH, n, r1):
            processed += 1
            if kept.size and float(((kept - x) ** 2).sum(axis=1).min()) < min_d2:
                rejections += 1
                if rejections == probe_budget:
                    break
            else:
                kept = np.vstack([kept, x])
                rejections = 0
                if len(kept) == max_centers:
                    break
    centers = kept
    probes = _sample_ball(np.random.default_rng(probe_stream), probe_trials, n, r1)
    d2 = ((probes[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    covered = int((d2.min(axis=1) < min_d2).sum())
    return centers, processed, covered


@pytest.mark.parametrize("workers, group_cap, pending_limit, max_centers", [
    ("1", None, None, None), ("2", None, None, None), ("1", 2, None, None), ("2", 2, None, None),
    ("1", None, 1, None), ("1", None, 10**9, 1200),
], ids=["groups-1-worker", "groups-2-workers", "groups-of-2-1-worker", "groups-of-2-2-workers",
        "tree-after-every-accepting-group", "no-tree"])
def test_tree_cover_test_matches_dense_greedy_scan(monkeypatch, workers, group_cap, pending_limit, max_centers):
    # enough centers for two tree rebuilds, so most decisions go through the
    # k-d tree's cover test rather than the pending dense scan; with the
    # group cap at 2, rebuilds fall at group ends and the stop inside a group.
    # The pending limit's extremes: a tree after every group that accepts, and
    # no tree at all, every decision dense (capped, or it would take minutes).
    monkeypatch.setenv("DI_CODES_THREADS", workers)
    if group_cap is not None:
        monkeypatch.setattr(gauss_code, "_GROUP_CAP", group_cap)
    if pending_limit is not None:
        monkeypatch.setattr(gauss_code, "_PENDING_LIMIT", pending_limit)
    trees = []
    monkeypatch.setattr(gauss_code, "cKDTree", lambda data: trees.append(len(data)) or cKDTree(data))
    n, epsilon, budget, seed, trials = 4, 0.01, 2000, 7, 500
    cb, cert = build_gauss_codebook(
        GaussChannel(1.0, 1.0), n=n, epsilon=epsilon, delta=0.1, seed=seed,
        probe_budget=budget, probe_trials=trials, max_centers=max_centers,
    )
    assert cb.center_count > 2 * _PENDING_LIMIT
    loop_trees = trees[:-1]  # the last tree is the probe pass's, over the codebook
    assert trees[-1] == cb.center_count and loop_trees == sorted(set(loop_trees))
    assert len(loop_trees) == (0 if max_centers else 6 if pending_limit == 1 else 2)
    centers, processed, covered = _greedy_dense_reference(n, epsilon, budget, seed, trials, max_centers)
    assert np.array_equal(cb.centers, centers)
    assert cert.stop_reason == ("center_cap" if max_centers else "saturation")
    assert cert.consecutive_rejections == (0 if max_centers else budget)
    assert cert.candidates_processed == processed
    assert cert.probe_covered == covered


# sha256 of centers.tobytes() and of certificate.to_dict() as sorted-key
# JSON, recorded before the candidate loop worked on groups of batches: the
# dense-scan fixture above, one gauss-pack benchmark build, a center cap and
# a saturation stop that both land inside a group of batches.
PIN_BUILDS = {
    "dense-fixture": dict(n=4, epsilon=0.01, seed=7, probe_budget=2000, probe_trials=500),
    "gauss-pack": dict(n=5, epsilon=0.01, seed=621, probe_budget=10**4, probe_trials=4096),
    "cap-mid-group": dict(
        n=4, epsilon=0.01, seed=7, probe_budget=2000, probe_trials=500, max_centers=1000
    ),
    "saturation-mid-group": dict(n=3, epsilon=0.02, seed=3, probe_budget=3000, probe_trials=500),
}
GOLDEN_BUILDS = {
    "dense-fixture": (
        "c9227695927ff5d6f1a8337cb4a2353aeed59b2841f0c5d5ad3409a5588ec61f",
        "d4952a67efac6907c2ff2afbe3acad506327f40ae3ddb8989711b45b86f59222",
    ),
    "gauss-pack": (
        "827a271c18b67520b3c47271806e9c12ce4b018cfa8f4643db53457167c0878f",
        "93c1bdd421b1b571af0ece587a1d342bea464392b9e7f0f270987d2cb787bb9e",
    ),
    "cap-mid-group": (
        "950fe7f37c871b2a56c196370ff240d46089468d9e89be57ca8a5d05da46c1c4",
        "86ae1a762103ff337837fe7be38798987a72ea9ecb60dcba30ca1116d4824371",
    ),
    "saturation-mid-group": (
        "3b76ae8b410e69d784a722cf038b03b9d9a633a137c0fcb90365bbacf7580788",
        "61160d18806728f046e4049bb8a5517f96d7ac7abde5843c7ab4ed092165161e",
    ),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("key", sorted(PIN_BUILDS))
def test_golden_gauss_builds_replay_bit_for_bit(monkeypatch, key, workers):
    monkeypatch.setenv("DI_CODES_THREADS", workers)
    cb, cert = build_gauss_codebook(GaussChannel(1.0, 1.0), delta=0.1, **PIN_BUILDS[key])
    got = (
        hashlib.sha256(cb.centers.tobytes()).hexdigest(),
        hashlib.sha256(json.dumps(cert.to_dict(), sort_keys=True).encode()).hexdigest(),
    )
    assert got == GOLDEN_BUILDS[key]


def test_probe_pass_ignores_the_simulators_chunk_size(monkeypatch):
    # 600 000 probes at n = 8 span two probe blocks of 2**22 // 8 rows; the
    # count read 9434 when the probe pass followed stats._CHUNK_SCALARS = 2**20.
    monkeypatch.setattr(stats, "_CHUNK_SCALARS", 2**20)
    _, cert = build_gauss_codebook(
        GaussChannel(1.0, 2.0), n=8, epsilon=0.05, delta=0.1, seed=5,
        max_centers=64, probe_trials=600_000,
    )
    assert cert.probe_covered == 9457


def test_worker_count_parses_di_codes_threads(monkeypatch):
    # Only the parsed value is checked; no thread or process is started with
    # these settings. The package forwards env_threads() to the BLAS knobs.
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.delenv("DI_CODES_THREADS", raising=False)
    assert worker_count() == 1 and env_threads() is None
    cases = {"abc": None, "2.5": None, "": None, "0": None, "-3": None, "nan": None, "9" * 5000: None,
             "1": 1, "2": min(2, cpus), " 3 ": min(3, cpus), str(10**9): cpus, str(10**100): cpus}
    for value, want in cases.items():
        monkeypatch.setenv("DI_CODES_THREADS", value)
        assert env_threads() == want, value
        assert worker_count() == (want or 1), value


@pytest.mark.parametrize("value, forwarded", [("abc", None), ("0", None), ("-3", None), ("1", "1")])
def test_import_forwards_only_a_valid_thread_count(value, forwarded):
    knobs = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in knobs}
    env.update(DI_CODES_THREADS=value, PYTHONPATH=str(Path(di_codes.__file__).parents[1]))
    script = f"import os, di_codes; print([os.environ.get(k) for k in {knobs!r}])"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == repr([forwarded] * 3)


@pytest.mark.parametrize("kwargs", [{"n": 0}, {"epsilon": math.nan}, {"epsilon": math.inf},
                                    {"delta": math.nan}, {"delta": math.inf}, {"delta": -1.0}])
def test_build_refuses_bad_input_before_sampling(kwargs, monkeypatch):
    # Each rule is stated by the function that owns it: packing_lower_bound
    # (n), packing_radii (epsilon) and TypicalityParams (delta).
    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the input was checked")

    monkeypatch.setattr(gauss_code, "_sample_ball", no_sampling)
    with pytest.raises(ValueError):
        small_build(**kwargs)


def test_build_rejects_epsilon_filling_the_ball():
    from di_codes import ConstructionError

    with pytest.raises((ConstructionError, ValueError)):
        build_gauss_codebook(GaussChannel(1.0, 1.0), n=4, epsilon=1.0, delta=0.1, seed=1)


def test_min_center_distance_degenerate():
    ch = GaussChannel(1.0, 1.0)
    cb = GaussCodebook(channel=ch, centers=np.array([[0.1, 0.0]]), epsilon=0.05, delta=0.1)
    assert min_center_distance(cb) == math.inf


# --- decoder ---


def test_identify_energy_threshold_hand_case():
    ch = GaussChannel(1.0, 4.0)
    cb = GaussCodebook(channel=ch, centers=np.array([[0.5]]), epsilon=1.0, delta=0.5)
    x = cb.codeword(0)
    assert x[0] == 0.5
    edge = math.sqrt(1.5)
    assert gauss_identify(cb, [0.5 + edge], 0)
    assert not gauss_identify(cb, [0.5 + edge + 1e-6], 0)
    assert gauss_identify(cb, [0.5], 0)
    with pytest.raises(ValueError):
        gauss_identify(cb, [0.0, 0.0], 0)
    with pytest.raises(ValueError):
        gauss_identify(cb, [0.0], 1)
    for bad in (math.nan, math.inf, -math.inf):  # a NaN output was answered False
        with pytest.raises(ValueError, match="finite vector"):
            gauss_identify(cb, [bad], 0)


def test_codeword_scales_by_root_blocklength():
    ch = GaussChannel(1.0, 2.0)
    cb = GaussCodebook(
        channel=ch, centers=np.array([[0.3, -0.4, 0.0, 1.0]]), epsilon=0.1, delta=0.1
    )
    np.testing.assert_allclose(cb.codeword(0), 2.0 * np.array([0.3, -0.4, 0.0, 1.0]))


def test_chebyshev_reference_formulas():
    pe1, pe2 = chebyshev_references(GaussChannel(2.0, 3.0), n=50, delta=0.2)
    assert pe1 == pytest.approx(8.0 / 2.0, abs=1e-12)
    assert pe2 == pytest.approx(4.0 + 16.0 * 2.0 * 3.0 / 2.0, abs=1e-12)
    # small sigma2 branch of the max
    pe1_small, _ = chebyshev_references(GaussChannel(0.25, 1.0), n=10, delta=0.5)
    assert pe1_small == pytest.approx(0.25 / (10 * 0.25), abs=1e-12)
    with pytest.raises(ValueError):
        chebyshev_references(GaussChannel(1.0, 1.0), n=10, delta=0.0)
    with pytest.raises(ValueError):
        chebyshev_references(GaussChannel(1.0, 1.0), n=0, delta=0.1)


# --- simulation ---


def test_gauss_simulation_matches_per_stream_replay():
    cb, _ = small_build()
    trials = 200
    sim = simulate_gauss_errors(cb, trials=trials, seed=55, pair_budget=3, message_budget=4)
    n = cb.block_length
    s2 = cb.channel.sigma2
    threshold = s2 + cb.delta
    streams = np.random.SeedSequence(55).spawn(len(sim.pe1_index) + len(sim.pe2_pairs))
    for k, i in enumerate(sim.pe1_index):
        rng = np.random.default_rng(streams[k])
        z = math.sqrt(s2) * rng.standard_normal((trials, n))
        stat = (z * z).sum(axis=1) / n
        assert int((stat > threshold).sum()) == sim.pe1_errors[k]
    for k, (i, j) in enumerate(sim.pe2_pairs):
        rng = np.random.default_rng(streams[len(sim.pe1_index) + k])
        z = math.sqrt(s2) * rng.standard_normal((trials, n))
        diff = z + (cb.codeword(i) - cb.codeword(j))
        stat = (diff * diff).sum(axis=1) / n
        assert int((stat <= threshold).sum()) == sim.pe2_errors[k]


def test_gauss_simulation_matches_per_sample_replay():
    # The public decoder, one transmitted block at a time, counts what the
    # simulator counts: one energy decision behind both.
    cb, _ = small_build()
    trials = 200
    sim = simulate_gauss_errors(cb, trials=trials, seed=55, pair_budget=3, message_budget=4)
    messages = list(sim.pe1_index)
    pairs = list(sim.pe2_pairs)
    streams = np.random.SeedSequence(55).spawn(len(messages) + len(pairs))
    for k, i in enumerate(messages):
        rng = np.random.default_rng(streams[k])
        errors = sum(not gauss_identify(cb, transmit_gauss(cb.channel, cb.codeword(i), rng), i)
                     for _ in range(trials))
        assert 0 < errors == sim.pe1_errors[k]
    for k, (i, j) in enumerate(pairs):
        rng = np.random.default_rng(streams[len(messages) + k])
        errors = sum(gauss_identify(cb, transmit_gauss(cb.channel, cb.codeword(i), rng), j)
                     for _ in range(trials))
        assert errors == sim.pe2_errors[k]


def test_gauss_simulation_report_carries_references():
    cb, _ = small_build()
    sim = simulate_gauss_errors(cb, trials=100, seed=2, pair_budget=2)
    ref1, ref2 = chebyshev_references(cb.channel, cb.block_length, cb.delta)
    assert sim.chebyshev_pe1 == ref1
    assert sim.chebyshev_pe2 == ref2
    d = sim.to_dict()
    assert d["chebyshev"] == {"pe1": ref1, "pe2": ref2}
    assert len(d["pe1"]) == cb.center_count
    assert len(d["pe2"]) == 2


def test_gauss_simulation_deterministic():
    cb, _ = small_build()
    a = simulate_gauss_errors(cb, trials=150, seed=9).to_dict()
    b = simulate_gauss_errors(cb, trials=150, seed=9).to_dict()
    assert a == b


def test_gauss_pairs_start_with_closest():
    cb, _ = small_build()
    sim = simulate_gauss_errors(cb, trials=10, seed=1, pair_budget=2)
    (i, j), (j2, i2) = sim.pe2_pairs
    assert (i, j) == (i2, j2)
    diffs = cb.centers[:, None, :] - cb.centers[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    assert dist[i, j] == pytest.approx(dist.min(), abs=1e-12)
    assert min_center_distance(cb) == pytest.approx(dist[i, j], abs=1e-12)


def test_tree_is_built_once_per_codebook(monkeypatch):
    sizes = []

    def counting(data, *args, **kwargs):
        sizes.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr("di_codes.gauss_code.cKDTree", counting)
    cb, _ = small_build(epsilon=0.01)
    assert cb.center_count > _PENDING_LIMIT  # so the loop builds trees over fewer centers
    first, second = min_center_distance(cb), min_center_distance(cb)
    simulate_gauss_errors(cb, trials=10, seed=1, pair_budget=2)
    assert first == second
    assert sizes.count(cb.center_count) == 1


def test_bench_tracer_sees_the_lazily_loaded_tree():
    # gauss_code.cKDTree loads scipy.spatial at its first call; the benchmark's
    # tracer rebinds that module attribute, so every tree the build makes must
    # still go through it. A subprocess keeps the rebinding out of this one.
    script = textwrap.dedent("""
        import importlib.util, sys
        import di_codes
        spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracing.install(tracer, di_codes)
        tracer.current_op = tracer.current_round = 0
        di_codes.build_gauss_codebook(di_codes.GaussChannel(1.0, 1.0), n=4, epsilon=0.01, delta=0.1, seed=7,
                                      probe_budget=2000, probe_trials=500)
        print(tracer.name.count("scipy.cKDTree.build"), tracer.name.count("scipy.cKDTree.query"))
    """)
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    env = dict(os.environ, PYTHONPATH=str(Path(di_codes.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, str(tracing)], env=env,
                         capture_output=True, text=True, check=True)
    builds, queries = map(int, out.stdout.split())
    assert builds >= 2 and queries >= 1  # the loop's trees and the codebook's own


def test_build_hands_freed_heap_back_once(monkeypatch):
    calls = []
    monkeypatch.setattr(gauss_code, "_MALLOC_TRIM", calls.append)
    small_build(epsilon=0.01)
    assert [pad.value for pad in calls] == [0]


# --- serialization and validation ---


def test_gauss_codebook_round_trip():
    cb, _ = small_build()
    back = gauss_codebook_from_dict(gauss_codebook_to_dict(cb))
    assert np.array_equal(back.centers, cb.centers)
    assert back.epsilon == cb.epsilon and back.delta == cb.delta
    assert back.channel.sigma2 == cb.channel.sigma2
    assert back.channel.power == cb.channel.power


def test_gauss_codebook_validation():
    ch = GaussChannel(1.0, 1.0)
    with pytest.raises(ValueError):
        GaussCodebook(channel=ch, centers=np.array([[2.0, 0.0]]), epsilon=0.1, delta=0.1)
    with pytest.raises(ValueError):
        GaussCodebook(channel=ch, centers=np.array([[0.1]]), epsilon=1.5, delta=0.1)
    with pytest.raises(ValueError):
        GaussCodebook(channel=ch, centers=np.array([[0.1]]), epsilon=0.1, delta=-0.1)
    with pytest.raises(ValueError):
        GaussCodebook(channel=ch, centers=np.array([0.1, 0.2]), epsilon=0.1, delta=0.1)
    # NaN fails every comparison, so "max > power" let a NaN center through.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="violates the power constraint"):
            GaussCodebook(channel=ch, centers=np.array([[bad, 0.1], [0.3, 0.2]]), epsilon=0.1, delta=0.1)


def test_codebook_refuses_a_center_whose_codeword_transmit_gauss_refuses():
    # ||u||^2 = 1 + 5e-10 passed the old normalized test ||u||^2 <= P + 1e-9, but at
    # n = 100 its codeword's energy 100.00000005 is above the budget 100 + 1e-9.
    ch = GaussChannel(1.0, 1.0)
    u = np.zeros((1, 100))
    u[0, 0] = math.sqrt(1.0 + 5e-10)
    with pytest.raises(ValueError, match="exceeds the power budget"):
        transmit_gauss(ch, math.sqrt(100) * u[0], np.random.default_rng(0))
    with pytest.raises(ValueError, match="violates the power constraint"):
        GaussCodebook(channel=ch, centers=u, epsilon=0.01, delta=0.1)


@given(st.integers(1, 299), st.sampled_from([0.3, 1.0, 2.0, 7.7, 1000.0]), st.integers(0, 2**32 - 1),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_every_accepted_codeword_can_be_transmitted(n, power, seed, offsets):
    # Centers within a few 1e-9 of the codeword budget n * P: whatever GaussCodebook
    # accepts, transmit_gauss must accept too (one budget rule, one energy arithmetic).
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(offsets), n))
    squared = power * (1.0 + np.array(offsets) * 1e-9 / (n * power))
    centers = g / np.linalg.norm(g, axis=1, keepdims=True) * np.sqrt(squared)[:, None]
    ch = GaussChannel(1.0, power)
    try:
        cb = GaussCodebook(channel=ch, centers=centers, epsilon=power / 4, delta=0.1)
    except ValueError as err:
        assert "violates the power constraint" in str(err)
        return
    for j in range(cb.center_count):
        transmit_gauss(ch, cb.codeword(j), rng)


@pytest.mark.parametrize("a, b", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
def test_closest_pair_of_a_duplicated_center_is_two_messages(a, b):
    # A k = 2 query may list a duplicated center's twin first and the center
    # itself second; the pair was then (i, i), and pe2 was estimated for a
    # message against itself, twice.
    others = iter([[0.5, 0.5], [0.3, -0.1]])
    centers = [[-0.2, 0.4] if k in (a, b) else next(others) for k in range(4)]
    cb = GaussCodebook(channel=GaussChannel(1.0, 1.0), centers=np.array(centers), epsilon=0.01, delta=0.1)
    assert gauss_code._closest_pair(cb) == (0.0, a, b)
    assert min_center_distance(cb) == 0.0
    assert simulate_gauss_errors(cb, trials=5, seed=1).pe2_pairs[:2] == ((a, b), (b, a))


def test_centers_are_immutable():
    cb, _ = small_build()
    with pytest.raises(ValueError):
        cb.centers[0, 0] = 9.9
