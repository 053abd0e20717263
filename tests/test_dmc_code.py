"""Codebook construction, decoding, and simulation tests."""

import ast
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
from hypothesis import example, given
from hypothesis import strategies as st

from di_codes import (
    BudgetError,
    ConstructionError,
    Dmc,
    DmcCodebook,
    GaussChannel,
    TypicalityParams,
    bsc,
    build_codebook,
    build_gauss_codebook,
    codebook_from_dict,
    codebook_to_dict,
    construction_base_type,
    converse_count,
    di_capacity,
    enumerate_conditional_typical,
    identify,
    input_cost,
    intersection_ratio,
    same_codeword_conflict,
    simulate_errors,
    simulate_gauss_errors,
    to_dmc,
    transmit_dmc,
    validate_codebook,
)
import di_codes
from di_codes import acceptance, dmc_code, stats, typicality
from di_codes.dmc_code import drop_close_pairs, greedy_select, select_pairs
from di_codes.typicality import empirical_type, hamming_distance

GUARD = 1e-9


# --- base type ---


def test_base_type_frozen_bsc_case():
    et = construction_base_type(bsc(0.1, constraint=0.013), 200)
    assert et.counts == (198, 2)


def test_base_type_is_cost_feasible():
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        mat = rng.dirichlet(np.ones(3), size=k)
        cost = np.sort(rng.uniform(0, 2, k))
        a = float(rng.uniform(cost.min(), cost.max()))
        ch_rows_distinct = mat + np.arange(k)[:, None] * 0  # keep as is
        from di_codes import Dmc

        ch = Dmc(matrix=ch_rows_distinct, cost=cost, constraint=a)
        n = int(rng.integers(10, 80))
        et = construction_base_type(ch, n)
        assert sum(et.counts) == n
        mean_cost = float(np.dot(et.counts, ch.cost)) / n
        assert mean_cost <= ch.constraint + GUARD


def test_base_type_cost_margin_tightens_budget():
    ch = bsc(0.1, constraint=0.2)
    loose = construction_base_type(ch, 100)
    tight = construction_base_type(ch, 100, cost_margin=0.1)
    assert np.dot(tight.counts, ch.cost) / 100 <= 0.1 + GUARD
    assert tight.counts[1] <= loose.counts[1]


# --- expurgation oracles ---


def slow_drop_both(words, separation):
    m = len(words)
    keep = [True] * m
    for i in range(m):
        for j in range(m):
            if i != j and sum(a != b for a, b in zip(words[i], words[j])) < separation:
                keep[i] = False
    return keep


def slow_greedy(words, separation):
    kept_rows = []
    keep = []
    for w in words:
        if all(sum(a != b for a, b in zip(w, k)) >= separation for k in kept_rows):
            keep.append(True)
            kept_rows.append(w)
        else:
            keep.append(False)
    return keep


def slow_min_distance(rows):
    pairs = [(a, b) for i, a in enumerate(rows) for b in rows[i + 1:]]
    return min((sum(x != y for x, y in zip(a, b)) for a, b in pairs), default=None)


def slow_closest(rows):
    # The least (distance, i, j) with i < j is the row-major first closest pair.
    pairs = [(sum(x != y for x, y in zip(a, b)), i, i + 1 + k)
             for i, a in enumerate(rows) for k, b in enumerate(rows[i + 1:])]
    return min(pairs, default=None)


@given(
    m=st.integers(0, 20),
    n=st.integers(1, 8),
    separation=st.integers(0, 6),
    letters=st.sampled_from([(0, 1), (0, 1, 2), (0, 1, 2, 3, 4), (3, 7), (1, 4)]),
    repeat=st.integers(0, 3),
    scan_bytes=st.sampled_from([60, 500, 2000, dmc_code._SCAN_BYTES]),
    one_hot_bytes=st.sampled_from([1, typicality._ONE_HOT_BYTES]),
    seed=st.integers(0, 10**6),
)
# Three copies of one word: both modes keep fewer than two, so no pair.
@example(m=1, n=3, separation=1, letters=(0, 1), repeat=2, scan_bytes=60, one_hot_bytes=1, seed=0)
# Repeated words at separation 0: every word is kept and the closest pair is at distance 0.
@example(m=6, n=4, separation=0, letters=(0, 1, 2), repeat=3, scan_bytes=60, one_hot_bytes=1, seed=5)
def test_expurgation_matches_slow_oracles(m, n, separation, letters, repeat, scan_bytes, one_hot_bytes, seed):
    # Small constants split the one upper-triangle scan behind both modes and
    # every closest pair into blocks of one row up to several rows, with a
    # ragged last block, and split the words into column blocks. The last
    # `repeat` words repeat the first ones, at distance 0.
    words = np.asarray(letters)[np.random.default_rng(seed).integers(0, len(letters), (m, n))]
    words = words[np.arange(m + repeat) % m] if m else words
    rows = [tuple(r) for r in words]
    q = max(letters) + 1
    channel = Dmc(matrix=np.full((q, 2), 0.5), cost=np.zeros(q), constraint=0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmc_code, "_SCAN_BYTES", scan_bytes)
        mp.setattr(typicality, "_ONE_HOT_BYTES", one_hot_bytes)
        scans = [drop_close_pairs(words, separation, q), greedy_select(words, separation, q)]
        remeasured = [DmcCodebook(channel=channel, words=words[mask], epsilon=0.0, delta=0.1)._closest
                      for mask, _ in scans]
    (survivors, _), (keep, _) = scans
    assert survivors.tolist() == slow_drop_both(rows, separation)
    assert keep.tolist() == slow_greedy(rows, separation)
    for (mask, closest), again in zip(scans, remeasured):
        kept_rows = [r for r, k in zip(rows, mask) if k]
        assert (None if closest is None else closest[0]) == slow_min_distance(kept_rows)
        assert closest == again == slow_closest(kept_rows)


def test_drop_close_pairs_removes_both_members():
    words = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1]])
    keep, closest = drop_close_pairs(words, 2, 2)
    assert keep.tolist() == [False, False, True] and closest is None


def test_greedy_keeps_scan_order_winner():
    words = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1]])
    keep, closest = greedy_select(words, 2, 2)
    assert keep.tolist() == [True, False, True] and closest == (3, 0, 1)


# --- construction ---


def _faithful_yield(channel, n, rate, epsilon, seeds):
    """Exact E[kept] of faithful builds, and the mean and SD of the kept counts over ``seeds``.

    Words are i.i.d. uniform on the type class T, and a word is kept iff no other
    sample lies at distance < d from it, so E[kept] = M (1 - V/|T|)^(M - 1), where
    V = sum over 2k < d of C(n0, k) C(n1, k) counts the binary words of T at distance
    < d from a given one, itself included. Also returns (|T|, V, d, M).
    """
    kept = []
    for seed in seeds:
        _, report = build_codebook(channel, n=n, rate=rate, epsilon=epsilon, delta=0.03, seed=seed, backoff=0.0)
        kept.append(report.kept_words)
    (n0, n1), d, m = report.base_counts, report.separation, report.requested_words
    size = math.comb(n, n0)
    close = sum(math.comb(n0, k) * math.comb(n1, k) for k in range(n0 + 1) if 2 * k < d)
    return m * (1 - close / size) ** (m - 1), (size, close, d, m), float(np.mean(kept)), float(np.std(kept, ddof=1))


@pytest.mark.parametrize("channel, n, rate, epsilon, seeds, exact, sizes", [
    # the construction-yield check's fixture: only exact duplicates are dropped
    (bsc(0.1, constraint=0.013), 200, 0.5 * di_capacity(bsc(0.1, constraint=0.013)).value_bits, 0.01,
     range(acceptance._SEED + 4000, acceptance._SEED + 4100), 977.19, (19900, 1, 2, 1029)),
    # base type (20, 20) at separation 10: words within distance 8 go too
    (bsc(0.1), 40, 13 / 40, 0.25, range(10), 1875.32, (137846528820, 24810126, 10, 8192)),
])
def test_faithful_yield_matches_its_exact_mean(channel, n, rate, epsilon, seeds, exact, sizes):
    expected, got_sizes, mean, sd = _faithful_yield(channel, n, rate, epsilon, seeds)
    assert got_sizes == sizes and expected == pytest.approx(exact, abs=0.005)
    assert abs(mean - expected) <= 4 * sd / math.sqrt(len(seeds))


def test_build_is_deterministic_and_valid():
    ch = bsc(0.1, constraint=0.4)
    cb1, rep1 = build_codebook(ch, n=80, rate=0.05, epsilon=0.05, delta=0.05, seed=3, backoff=0.2)
    cb2, rep2 = build_codebook(ch, n=80, rate=0.05, epsilon=0.05, delta=0.05, seed=3, backoff=0.2)
    assert np.array_equal(cb1.words, cb2.words)
    assert rep1.to_dict() == rep2.to_dict()
    v = validate_codebook(cb1)
    assert v["same_type"] and v["cost_feasible"] and v["separated"]
    assert rep1.requested_words == math.floor(2.0 ** (80 * 0.05) + GUARD)
    assert rep1.kept_words + rep1.dropped_words == rep1.requested_words
    assert rep1.kept_words == cb1.word_count


def test_build_seeds_differ():
    ch = bsc(0.1, constraint=0.4)
    cb1, _ = build_codebook(ch, n=80, rate=0.05, epsilon=0.05, delta=0.05, seed=3, backoff=0.2)
    cb2, _ = build_codebook(ch, n=80, rate=0.05, epsilon=0.05, delta=0.05, seed=4, backoff=0.2)
    assert not np.array_equal(cb1.words, cb2.words)


def test_same_type_words_sit_at_even_distances():
    ch = bsc(0.1, constraint=1.0)
    cb, _ = build_codebook(ch, n=40, rate=0.1, epsilon=0.1, delta=0.05, seed=9, backoff=0.5)
    for i in range(cb.word_count):
        for j in range(i + 1, cb.word_count):
            assert hamming_distance(cb.words[i], cb.words[j]) % 2 == 0


def test_rate_precondition_enforced():
    ch = bsc(0.1, constraint=1.0)
    with pytest.raises(ConstructionError):
        build_codebook(ch, n=50, rate=0.9, epsilon=0.05, delta=0.05, seed=1)


def test_word_budget_refusal(monkeypatch):
    # 2^50 and 2^24 words, over the default 2^20, refused before any word is drawn
    # (their int64 arrays would trip the memory budget too, but the word budget is checked first).
    def no_sampling(*args):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(dmc_code, "sample_type_class", no_sampling)
    for n, rate, log2_m in ((100, 0.5, "50.00"), (40, 0.6, "24.00")):
        with pytest.raises(BudgetError, match=rf"word budget 1048576 exceeded: .* needs 2\^{log2_m} words"):
            build_codebook(bsc(0.1), n=n, rate=rate, epsilon=0.0, delta=0.05, seed=1, backoff=0.0)


def test_faithful_build_stays_within_its_memory_estimate(monkeypatch):
    # Expurgation scans the distances in row blocks, so a faithful build's
    # peak is bounded by the build's own estimate, not by M^2.
    monkeypatch.setattr(dmc_code, "_SCAN_BYTES", 2**20)
    m, n = 4096, 40
    tracemalloc.start()
    try:
        _, report = build_codebook(bsc(0.1, constraint=1.0), n=n, rate=math.log2(m) / n, epsilon=0.1,
                                   delta=0.05, seed=1, backoff=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.requested_words == m
    assert peak < 32 * m * n + dmc_code._SCAN_BYTES


def test_multi_block_scan_stays_within_the_words_and_one_block():
    # 16 385 words take 33 row blocks. Each peaks at its float32 distances and
    # the copy a column argmin makes, within _SCAN_BYTES; the encoded tail
    # (float32, one column a position) is smaller than the int64 words.
    words = np.random.default_rng(13).integers(0, 2, (16385, 40))
    tracemalloc.start()
    try:
        keep, _ = drop_close_pairs(words, 4, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keep.sum() > 16000
    assert peak < words.nbytes + dmc_code._SCAN_BYTES


@pytest.mark.parametrize("mode", ["faithful", "greedy"])
def test_memory_budget_refusal_before_sampling(mode, monkeypatch):
    # M = 2^20 words of length 10^4 pass max_words; their int64 array alone is 84 GB.
    def no_sampling(*args):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(dmc_code, "sample_type_class", no_sampling)
    with pytest.raises(BudgetError, match="memory budget"):
        build_codebook(bsc(0.1, constraint=1.0), n=10**4, rate=0.002, epsilon=0.0,
                       delta=0.05, seed=1, backoff=0.0, mode=mode)


@pytest.mark.parametrize("mode", ["faithful", "greedy"])
def test_build_holds_at_most_three_copies_of_the_words(mode):
    # Long words, all kept: the word arrays, not the distances, set the peak.
    # The sample is shuffled in place and its kept rows are spelled in one step.
    tracemalloc.start()
    try:
        cb, _ = build_codebook(bsc(0.1, constraint=1.0), n=20000, rate=6 / 20000, epsilon=0.0,
                               delta=0.05, seed=1, backoff=0.0, mode=mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cb.word_count == 64
    assert peak < 3.1 * cb.words.nbytes


def test_greedy_mode_builds_valid_codebook():
    ch = bsc(0.1, constraint=1.0)
    cb, report = build_codebook(
        ch, n=50, rate=0.22, epsilon=0.02, delta=0.05, seed=1, backoff=0.0, mode="greedy"
    )
    assert report.mode == "greedy"
    assert report.requested_words == 2048
    assert cb.word_count >= 1
    v = validate_codebook(cb)
    assert v["same_type"] and v["separated"]


def test_words_use_representative_letters():
    # letters 0 and 2 duplicate; representative of that class is letter 0
    m = np.array([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]])
    from di_codes import Dmc

    ch = Dmc(matrix=m, cost=(0.0, 1.0, 0.0), constraint=1.0)
    cb, report = build_codebook(ch, n=30, rate=0.1, epsilon=0.05, delta=0.05, seed=2, backoff=0.5)
    assert set(np.unique(cb.words)) <= {0, 1}
    assert len(report.base_counts) == 3
    assert report.base_counts[2] == 0


def test_construction_report_serializes():
    ch = bsc(0.1, constraint=0.4)
    _, report = build_codebook(ch, n=60, rate=0.05, epsilon=0.05, delta=0.05, seed=3, backoff=0.2)
    d = report.to_dict()
    for key in ("n", "rate", "epsilon", "delta", "mode", "seed", "requested_words",
                "kept_words", "dropped_words", "base_counts", "min_distance"):
        assert key in d


# --- decoding ---


def slow_box_decision(word, output, matrix, delta):
    n = len(word)
    kx, ky = matrix.shape
    counts = np.zeros((kx, ky))
    for a, b in zip(word, output):
        counts[a, b] += 1
    targets = np.bincount(word, minlength=kx)[:, None] * matrix
    for a in range(kx):
        for b in range(ky):
            if targets[a, b] == 0.0:
                if counts[a, b] != 0:
                    return False
            elif abs(counts[a, b] - targets[a, b]) > n * delta + GUARD:
                return False
    return True


def test_identify_matches_slow_box_oracle():
    ch = bsc(0.15, constraint=1.0)
    rng = np.random.default_rng(21)
    cb, _ = build_codebook(ch, n=24, rate=0.1, epsilon=0.05, delta=0.08, seed=5, backoff=0.5)
    agree = 0
    for _ in range(400):
        j = int(rng.integers(0, cb.word_count))
        if rng.random() < 0.5:
            y = transmit_dmc(ch, cb.words[j], rng)
        else:
            y = rng.integers(0, 2, cb.block_length)
        got = identify(cb, y, j)
        want = slow_box_decision(cb.words[j], y, ch.matrix, cb.delta)
        assert got == want
        agree += 1
    assert agree == 400


def test_identify_hand_case():
    ch = bsc(0.1, constraint=1.0)
    words = np.array([[0] * 5 + [1] * 5])
    cb = DmcCodebook(channel=ch, words=words, epsilon=0.0, delta=0.1)
    # exact expectation: N(0,0)=4.5, N(0,1)=0.5, N(1,0)=0.5, N(1,1)=4.5; slack 1.0
    assert identify(cb, [0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 0)
    assert identify(cb, [0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 0)
    assert not identify(cb, [0] * 10, 0)
    with pytest.raises(ValueError):
        identify(cb, [0] * 10, 1)
    # Refused at the boundary: one bincount counts (row, x, y) cells, so an
    # out-of-range letter would land in a neighbouring cell.
    for bad in ([2] + [0] * 4 + [1] * 5, [-1] + [0] * 9, [0] * 9, [0] * 11):
        with pytest.raises(ValueError):
            identify(cb, bad, 0)


# --- simulation ---


def test_simulation_matches_per_sample_replay():
    ch = bsc(0.1, constraint=1.0)
    cb, _ = build_codebook(ch, n=30, rate=0.1, epsilon=0.1, delta=0.06, seed=8, backoff=0.5)
    trials = 300
    sim = simulate_errors(cb, trials=trials, seed=123, pair_budget=2)
    messages = list(sim.pe1_index)
    pairs = list(sim.pe2_pairs)
    streams = np.random.SeedSequence(123).spawn(len(messages) + len(pairs))
    for k, i in enumerate(messages):
        rng = np.random.default_rng(streams[k])
        errors = 0
        for _ in range(trials):
            y = transmit_dmc(ch, cb.words[i], rng)
            errors += not identify(cb, y, i)
        assert errors == sim.pe1_errors[k]
    for k, (i, j) in enumerate(pairs):
        rng = np.random.default_rng(streams[len(messages) + k])
        errors = 0
        for _ in range(trials):
            y = transmit_dmc(ch, cb.words[i], rng)
            errors += identify(cb, y, j)
        assert errors == sim.pe2_errors[k]


def test_simulation_report_shape():
    ch = bsc(0.1, constraint=1.0)
    cb, _ = build_codebook(ch, n=30, rate=0.15, epsilon=0.1, delta=0.06, seed=8, backoff=0.5)
    sim = simulate_errors(cb, trials=100, seed=4, pair_budget=4, message_budget=3)
    assert len(sim.pe1_index) == 3
    assert len(sim.pe2_pairs) == 4
    assert all(0.0 <= p <= 1.0 for p in sim.pe1_estimates + sim.pe2_estimates)
    assert sim.pe1_max == max(sim.pe1_estimates)
    d = sim.to_dict()
    assert d["trials"] == 100 and d["seed"] == 4
    assert len(d["pe1"]) == 3 and len(d["pe2"]) == 4
    assert all(len(w["wilson"]) == 2 for w in d["pe1"])


def test_simulation_is_deterministic():
    ch = bsc(0.1, constraint=1.0)
    cb, _ = build_codebook(ch, n=30, rate=0.1, epsilon=0.1, delta=0.06, seed=8, backoff=0.5)
    a = simulate_errors(cb, trials=200, seed=77).to_dict()
    b = simulate_errors(cb, trials=200, seed=77).to_dict()
    assert a == b


def test_select_pairs_prioritizes_closest_pair():
    ch = bsc(0.1, constraint=1.0)
    words = np.array([
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [1, 1, 1, 1, 1, 1],
    ])
    cb = DmcCodebook(channel=ch, words=words, epsilon=0.0, delta=0.1)
    pairs = select_pairs(cb, pair_budget=6)
    assert pairs[0] == (0, 2) and pairs[1] == (2, 0)
    assert pairs[2:] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert select_pairs(cb, pair_budget=1) == [(0, 2)]


def test_large_codebook_reports_its_repeated_word():
    # Above 2^14 words as below: validation reports the repeated word's
    # distance 0 and no separation, select_pairs puts that pair first, and the
    # row blocks keep the peak bounded.
    words = np.random.default_rng(13).integers(0, 2, (16385, 40))
    words[16000] = words[5000]
    tracemalloc.start()
    try:
        cb = DmcCodebook(channel=bsc(0.1, constraint=1.0), words=words, epsilon=0.1, delta=0.1)
        v = validate_codebook(cb)
        pairs = select_pairs(cb, pair_budget=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v["min_distance"] == 0 and not v["separated"]
    assert pairs == [(5000, 16000), (16000, 5000)]
    assert peak < 128 * 2**20


@pytest.mark.parametrize("mode", ["faithful", "greedy"])
def test_closest_pair_is_measured_once_per_codebook(mode, monkeypatch):
    # The build's one scan, a single block here, both expurgates and measures
    # the closest pair; validation, pair selection and simulation scan nothing.
    scanned, matrices = [], []
    kernel, matrix = dmc_code._hamming_blocks, dmc_code.pairwise_hamming
    monkeypatch.setattr(dmc_code, "_hamming_blocks", lambda a, b, letters: scanned.append(b) or kernel(a, b, letters))
    monkeypatch.setattr(dmc_code, "pairwise_hamming", lambda w, q: matrices.append(w) or matrix(w, q))
    cb, report = build_codebook(bsc(0.1, constraint=1.0), n=30, rate=0.1, epsilon=0.1, delta=0.06,
                                seed=8, backoff=0.5, mode=mode)
    assert len(scanned) == 1
    first, second = validate_codebook(cb), validate_codebook(cb)
    select_pairs(cb, pair_budget=2)
    simulate_errors(cb, trials=10, seed=1, pair_budget=2)
    assert cb.word_count > 2 and first == second
    assert report.min_distance == first["min_distance"] >= report.separation
    assert len(scanned) == 1
    assert matrices == []


def test_bench_tracer_sees_both_expurgation_scans():
    # The benchmark's tracer rebinds names in dmc_code from outside, so each
    # must stay a module attribute, and build_codebook must call the public
    # scans for their time to show. A subprocess keeps the rebinding out of
    # this one.
    script = textwrap.dedent("""
        import importlib.util, sys
        import di_codes
        spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracing.install(tracer, di_codes)
        tracer.current_op = tracer.current_round = 0
        for mode in ("faithful", "greedy"):
            di_codes.build_codebook(di_codes.bsc(0.1, constraint=1.0), n=30, rate=0.1, epsilon=0.1,
                                    delta=0.06, seed=8, backoff=0.5, mode=mode)
        print(sorted(set(tracer.name)))
    """)
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    env = dict(os.environ, PYTHONPATH=str(Path(di_codes.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, str(tracing)], env=env,
                         capture_output=True, text=True, check=True)
    names = set(ast.literal_eval(out.stdout))
    assert {"dmc_code.build_codebook", "dmc_code.drop_close_pairs", "dmc_code.greedy_select"} <= names


def test_duplicate_words_split_one_probability():
    ch = bsc(0.1, constraint=1.0)
    words = np.tile(np.array([[0, 1] * 10]), (2, 1))
    cb = DmcCodebook(channel=ch, words=words, epsilon=0.0, delta=0.05)
    res = same_codeword_conflict(cb, 0, 1, trials=2000, seed=11)
    assert res["regions_identical"]
    assert res["pe1_estimate"] + res["pe2_estimate"] == 1.0
    assert res["sum"] == 1.0


def test_conflict_matches_per_sample_replay(monkeypatch):
    ch = bsc(0.1, constraint=1.0)
    words = np.tile(np.array([[0, 1] * 10]), (2, 1))
    cb = DmcCodebook(channel=ch, words=words, epsilon=0.0, delta=0.05)
    trials = 300
    res = same_codeword_conflict(cb, 0, 1, trials=trials, seed=11)
    rng = np.random.default_rng(np.random.SeedSequence(11))
    misses = accepts = 0
    for _ in range(trials):
        y = transmit_dmc(ch, words[0], rng)
        misses += not identify(cb, y, 0)
        accepts += identify(cb, y, 1)
    assert 0 < misses < trials
    assert (res["pe1_estimate"], res["pe2_estimate"]) == (misses / trials, accepts / trials)
    # Each decoder decides on its own: one that also looked at the message
    # index would break the identity the acceptance check tests.
    decide = dmc_code._decide
    monkeypatch.setattr(dmc_code, "_decide", lambda c, k, ys: decide(c, k, ys) & (k == 0))
    res = same_codeword_conflict(cb, 0, 1, trials=trials, seed=11)
    assert res["pe2_estimate"] == 0.0 and res["sum"] == misses / trials
    assert not res["regions_identical"]


def test_chunking_is_stream_equivalent(monkeypatch):
    rng = np.random.default_rng(3)
    bsc_cb = DmcCodebook(channel=bsc(0.1, constraint=1.0), words=rng.integers(0, 2, (6, 30)),
                         epsilon=0.0, delta=0.06)
    wide = to_dmc(1.0, 1.0, 0.5, 4).channel
    wide_cb = DmcCodebook(channel=wide, words=rng.integers(0, 9, (5, 40)), epsilon=0.0, delta=0.1)
    dup = DmcCodebook(channel=wide, words=wide_cb.words[[0, 0]], epsilon=0.0, delta=0.1)
    gcb, _ = build_gauss_codebook(
        GaussChannel(1.0, 2.0), n=8, epsilon=0.05, delta=0.1, seed=5,
        probe_budget=2000, max_centers=64, probe_trials=64,
    )

    def reports():
        return [
            simulate_errors(bsc_cb, trials=300, seed=1, pair_budget=3).to_dict(),
            simulate_errors(wide_cb, trials=100, seed=2, pair_budget=3).to_dict(),
            same_codeword_conflict(dup, 0, 1, trials=100, seed=3),
            simulate_gauss_errors(gcb, trials=2000, seed=4, pair_budget=3, message_budget=4).to_dict(),
        ]

    whole = reports()
    # One row per chunk; then 116 + 116 + 68 BSC rows, 14 chunks of 7 wide
    # rows and a last one of 2, and 875 + 875 + 250 Gaussian rows.
    for scalars in (1, 7 * 40 * 25):
        monkeypatch.setattr(stats, "_CHUNK_SCALARS", scalars)
        assert reports() == whole


def test_conflict_requires_equal_words_and_distinct_indices():
    ch = bsc(0.1, constraint=1.0)
    words = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    cb = DmcCodebook(channel=ch, words=words, epsilon=0.0, delta=0.05)
    with pytest.raises(ValueError):
        same_codeword_conflict(cb, 0, 1, trials=10, seed=1)
    dup = DmcCodebook(channel=ch, words=words[[0, 0]], epsilon=0.0, delta=0.05)
    with pytest.raises(ValueError):
        same_codeword_conflict(dup, 1, 1, trials=10, seed=1)


# --- validation and serialization ---


def test_validate_flags_violations():
    ch = bsc(0.1, constraint=0.4)
    mixed = np.array([[0, 0, 0, 0], [1, 1, 1, 0]])
    v = validate_codebook(DmcCodebook(channel=ch, words=mixed, epsilon=0.0, delta=0.1))
    assert not v["same_type"]
    greedy_cost = np.array([[1, 1, 1, 0]])
    v = validate_codebook(DmcCodebook(channel=ch, words=greedy_cost, epsilon=0.0, delta=0.1))
    assert not v["cost_feasible"]
    close = np.array([[0, 0, 0, 1], [0, 0, 1, 0]])
    v = validate_codebook(DmcCodebook(channel=ch, words=close, epsilon=0.9, delta=0.1))
    assert not v["separated"]
    assert v["min_distance"] == 2


def test_cost_verdict_is_the_budget_on_each_word_total():
    # validate_codebook compares each word's total cost with channels._budget, the
    # one rule of every budget site; word by word, its verdict is that comparison,
    # at the channel's ceiling and at ceilings equal to a word's own mean cost.
    from di_codes.channels import _budget

    wide = to_dmc(1.0, 1.0, 0.5, 4).channel
    rng = np.random.default_rng(12)
    # Costs that are not dyadic make the sums round, so the order of summation shows.
    rough = Dmc(matrix=wide.matrix, cost=np.sort(rng.uniform(0, 3, wide.input_size)), constraint=3.0)
    cases = [(cb.channel, cb.words[:8]) for _, (cb, _) in _golden_builds()]
    for n in (1, 7, 9, 128, 129, 1000, 4097):
        cases.append((wide, rng.integers(0, wide.input_size, (5, n))))
        cases.append((rough, rng.integers(0, wide.input_size, (5, n))))
    verdicts = set()
    for channel, words in cases:
        for limit in [channel.constraint, *(input_cost(channel, w) for w in words[:3])]:
            ch = Dmc(matrix=channel.matrix, cost=channel.cost, constraint=limit)
            for w in words:
                want = float(ch.cost[w].sum()) <= _budget(w.size, ch.constraint)
                got = validate_codebook(DmcCodebook(channel=ch, words=w[None], epsilon=0.0, delta=0.1))
                assert got["cost_feasible"] == want
                verdicts.add(want)
    assert verdicts == {False, True}


def test_budget_sites_agree_at_the_float_dust_edge():
    # n = 10 at a ceiling 5e-10 below 0.3: a weight-3 word costs 3.0 > 10 * A + 1e-9.
    # Before, validate_codebook compared its mean 0.3 with A + 1e-9 and called it
    # feasible, while converse_count and the construction already refused it.
    ch = bsc(0.1, cost=(0.0, 1.0), constraint=0.3 - 5e-10)
    assert construction_base_type(ch, 10).counts == (8, 2)
    assert converse_count(ch, 10)[0] == 1 + 10 + 45  # the words of weight <= 2, not 176
    for weight, feasible in ((2, True), (3, False)):
        word = np.array([[1] * weight + [0] * (10 - weight)])
        cb = DmcCodebook(channel=ch, words=word, epsilon=0.0, delta=0.1)
        assert validate_codebook(cb)["cost_feasible"] is feasible


@pytest.mark.parametrize("scan", [drop_close_pairs, greedy_select])
def test_scans_refuse_fractional_letters(scan):
    # Before, drop_close_pairs truncated both words to [0, 1] and returned
    # [False, False]; greedy_select raised TypeError on floats, AttributeError on a list.
    with pytest.raises(ValueError, match="words must be a two-dimensional array of integer letters"):
        scan([[0.5, 1.9], [0.0, 1.0]], 1, 2)
    keep, closest = scan([[0, 1], [1, 0]], 1, 2)
    assert keep.tolist() == [True, True] and closest == (2, 0, 1)


def test_codebook_round_trip():
    ch = bsc(0.1, constraint=0.4)
    cb, _ = build_codebook(ch, n=40, rate=0.08, epsilon=0.05, delta=0.05, seed=6, backoff=0.2)
    back = codebook_from_dict(codebook_to_dict(cb))
    assert np.array_equal(back.words, cb.words)
    assert back.epsilon == cb.epsilon and back.delta == cb.delta and back.rate == cb.rate
    assert back.base == cb.base
    np.testing.assert_array_equal(back.channel.matrix, cb.channel.matrix)


def test_codebook_rejects_bad_letters():
    ch = bsc(0.1, constraint=1.0)
    with pytest.raises(ValueError):
        DmcCodebook(channel=ch, words=np.array([[0, 2]]), epsilon=0.0, delta=0.1)
    # Before, the int64 cast kept [[0, 1, 0]] for the first of these.
    for bad in ([[0.5, 1.9, 0.0]], [[0, 1, math.nan]], [[0, 1, math.inf]], [[0, "1", 1]], [0, 1, 0], [[[0, 1]]]):
        with pytest.raises(ValueError, match="words must be a two-dimensional array of integer letters"):
            DmcCodebook(channel=ch, words=bad, epsilon=0.0, delta=0.1)


def test_fractional_letters_are_refused_not_truncated():
    # Before, identify took the output [0.9]*5 + [1.7]*5 as [0]*5 + [1]*5, and
    # a loaded file's words were truncated the same way.
    ch = bsc(0.1, constraint=1.0)
    cb = DmcCodebook(channel=ch, words=np.array([[0.0] * 5 + [1.0] * 5]), epsilon=0.0, delta=0.1)
    assert cb.words.dtype == np.int64 and identify(cb, [0] * 5 + [1] * 5, 0)
    with pytest.raises(ValueError, match="y must be a one-dimensional array of integer letters"):
        identify(cb, [0.9] * 5 + [1.7] * 5, 0)
    data = codebook_to_dict(cb)
    with pytest.raises(ValueError, match="words must be"):
        codebook_from_dict({**data, "words": [[0.9] * 5 + [1.2] * 5]})
    # The base type's length is checked against the words by DmcCodebook itself.
    assert codebook_from_dict(data).base is None
    assert codebook_from_dict({**data, "base_counts": [5, 5]}).base.counts == (5, 5)
    with pytest.raises(ValueError, match="base_counts must be"):  # before: loaded as (5, 5)
        codebook_from_dict({**data, "base_counts": [5.9, 5.0]})
    with pytest.raises(ValueError, match="base type length disagrees with the words"):
        codebook_from_dict({**data, "base_counts": [5, 4]})


def test_a_negative_base_count_is_called_a_count():
    # The counts go through the letter check; its message used to call -1 "a letter".
    data = codebook_to_dict(DmcCodebook(channel=bsc(0.1), words=np.zeros((1, 4), int), epsilon=0.0, delta=0.1))
    with pytest.raises(ValueError) as exc:
        codebook_from_dict({**data, "base_counts": [-1, 5]})
    assert str(exc.value) == "base_counts contains a count outside [0, inf)"


def test_mean_cost_respects_constraint_across_seeds():
    ch = bsc(0.1, constraint=0.3)
    for seed in range(10):
        cb, report = build_codebook(
            ch, n=64, rate=0.05, epsilon=0.05, delta=0.05, seed=seed, backoff=0.3
        )
        assert report.mean_cost <= 0.3 + GUARD
        assert input_cost(ch, cb.words[0]) <= 0.3 + GUARD


# --- golden replay ---

# sha256 of words.tobytes(), of report.to_dict() and of validate_codebook(...)
# (both dicts as sorted-key JSON), recorded before the Hamming kernel was
# replaced; every construction decision must replay bit for bit.
GOLDEN = {
    "faithful-0": (
        "bc15d1d17406759e3c48182d13f6577621a55c250c1fdd3bcfc8d0c3c123a3ad",
        "d252b9e29eb4a62970cd681cf0401ab6dd8f43ece71f3d75b5c9cd7838758243",
        "89be83a22991ce1604d5c2ad414a583fd19e45b918ef94970ea74b9b70512020",
    ),
    "faithful-1": (
        "378bc7bfd59146004a5224429dd4a15b8bdecf27d230a4e528c7b96e82d16125",
        "411c06d77119fd344e8a6cb39de03459878c2c4be004f8ea1625b8e55cd6d51a",
        "cdcfc09ddf0f52f1e4a1366cc7e071c677c4aa6006dc537c9a1903c9c6a677c8",
    ),
    "faithful-2": (
        "1a2b4c40bbedd168204abfd7ad30e2d09b7385ecfb89a4c30c740121639d72ca",
        "ae1cffe0379183ba09051377763669c84278a0619f7121126fbcdc03306dea39",
        "51c3c56510a68ab7e6553d64926c59222540073c0870ba90d338ff4bce3d33a9",
    ),
    "faithful-3": (
        "0e897fad8f90b47aaeb9145dc12bc63a19bd1fceeb962f1b1ceb4426a8e2ac79",
        "fafc2c02e811c3c7484059e4fe67c99da04a43aae3819d602b8c4034ae55b52d",
        "c2579b3514034dc07c0555632fe874161cc992f1a3a8b02417f01f9eca1c3fb5",
    ),
    "greedy-0": (
        "2669555bbc7ae5e052da02fce5cbf6ff303226487d6cc3b23571334e3dbd7a91",
        "49fecd4c292b674c01a8fe6ecd6bff6202ce6cea089d7c5d368b768c7cf85593",
        "7388cd958fe2102a79c97fa93e8c6426939f7782860badf69968238e7aa24a48",
    ),
    "greedy-1": (
        "66b5b8d4a18ed3d23106ab8fd72db46b4280f631455cd4487ea2dd2a1b44b3a2",
        "74740403d1a4532ab3a9030292e288d614c5e753c93673e8f89e75765d308030",
        "507ea72532491a5057c0da2ac9e40167c3e94c8c51dec50a3e9d00b146c6f109",
    ),
    "greedy-2": (
        "d5e215cb5977973a12cac781b6a8565b434650a27951cc91aa72150925dbc1b4",
        "425a34c2112bfd929fcd2b18595d6e6d554077455a7a26d4f9a4452050e9ce7f",
        "4b126e506f9d8001ee7d9b1dd4162193336f4c41cf1a07fcd633b6ce021d3ba0",
    ),
    "greedy-3": (
        "4ce59a9814aca6dbbc7dbdfcd4077b3a8f0502d7f70b2934ae093b27fef18f47",
        "27423ff5d12783e521c52eb186a24d975c291c2f3900b4cf5c7f756850ceeffb",
        "00025e35104c9d2ac908acc2ecb07487b50d588c1d97fc7fe684d128afdcb23a",
    ),
    "wide": (
        "1eb611cbd1e3ceadd6f28b5ea196a5e97bee5b46b67242d4a37f0a88814b52d6",
        "25b6257663e529f4138705fd0001239b41437a67d7b042a2366002779c308538",
        "0f235e447079b50c619841da562e5ec78196e800010da471302ab3799fcad1f4",
    ),
}


def _sha(obj):
    data = obj.tobytes() if isinstance(obj, np.ndarray) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _golden_builds():
    ch = bsc(0.1, constraint=0.013)
    rate = 0.5 * di_capacity(ch).value_bits
    for mode in ("faithful", "greedy"):
        for seed in range(4):
            yield f"{mode}-{seed}", build_codebook(
                ch, n=200, rate=rate, epsilon=0.01, delta=0.03, seed=seed, backoff=0.0, mode=mode
            )
    wide = to_dmc(1.0, 1.0, 0.5, 4).channel
    yield "wide", build_codebook(wide, n=200, rate=0.05, epsilon=0.05, delta=0.03, seed=0)


def test_golden_builds_replay_bit_for_bit():
    got = {key: (_sha(cb.words), _sha(rep.to_dict()), _sha(validate_codebook(cb)))
           for key, (cb, rep) in _golden_builds()}
    assert got == GOLDEN


# sha256 of each output below as sorted-key JSON, recorded before the
# typicality kernel and the Monte Carlo loop were shared between decoders,
# simulators and enumeration; every seeded output must replay bit for bit.
GOLDEN_OUTPUTS = {
    "simulate-bsc": "1027df16a060a1b5a361110ba1a82bc9a7f4c9e30b4da8da785be6ea5f7d46d2",
    "simulate-wide": "a8f1069cc78a2a2850642f3b38d9fe4c19b0e2d5b08cc2f4b7dc115b1cefa7fa",
    "simulate-gauss": "9d64a08fd08fd830999f3ab1ac8eb85e8d3a25fe76e5538421ec3d63e2d6def7",
    "conflict": "75d6b78b9b6db38a6474e28102b1b2cc7b34c2af452c083f5178d1de6df83a15",
    "enumerate-0": "3932ed834b18cf9c12bf39d3f396a01820d9ccd58e1818d2af59f1be1b5f76b3",
    "ratio-0": "32b0f62a35cf730d6a74a6cf4fa46cf436d9db90537449b46d908a303f49c85d",
    "enumerate-1": "65698a966bcbfe3b64463253864c30fd3b5c39b73312f38dd9cce232c6bb9cc7",
    "ratio-1": "35ed6d5332baf43fd05c15a42f767a8e13cdbce5a0953777b9b6dc71b3bc1e32",
    "transmit": "08f0000a7c7d92b3a6d6191d47cda6a30ac070ca581879da49c36f6b319f1aa1",
    "converse": "a36b66618a00dd90ce4474de852a9c19bcc861ec6ae5f2d48a605f577376179e",
}


def _golden_outputs():
    ch = bsc(0.1, constraint=1.0)
    cb, _ = build_codebook(ch, n=60, rate=0.1, epsilon=0.05, delta=0.06, seed=3, backoff=0.5)
    yield "simulate-bsc", simulate_errors(
        cb, trials=3000, seed=41, pair_budget=5, message_budget=4
    ).to_dict()
    wide = to_dmc(1.0, 1.0, 0.5, 4).channel
    wcb, _ = build_codebook(wide, n=200, rate=0.05, epsilon=0.05, delta=0.03, seed=0)
    yield "simulate-wide", simulate_errors(
        wcb, trials=2000, seed=42, pair_budget=3, message_budget=3
    ).to_dict()
    gcb, _ = build_gauss_codebook(
        GaussChannel(1.0, 2.0), n=8, epsilon=0.05, delta=0.1, seed=5,
        probe_budget=2000, max_centers=64, probe_trials=64,
    )
    yield "simulate-gauss", simulate_gauss_errors(
        gcb, trials=1500, seed=43, pair_budget=4, message_budget=5
    ).to_dict()
    words = wcb.words.copy()
    words[1] = words[0]
    dup = DmcCodebook(channel=wide, words=words, epsilon=0.0, delta=wcb.delta)
    yield "conflict", same_codeword_conflict(dup, 0, 1, trials=3000, seed=44)
    tern = Dmc(matrix=np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]]), cost=(0.0, 1.0), constraint=1.0)
    cases = [
        (ch.matrix, [0] * 5 + [1] * 5 + [0, 1], [1] + [0] * 5 + [1] * 4 + [0, 1], 0.1),
        (tern.matrix, [0, 1, 1, 0, 0, 1, 0, 1], [1, 0, 1, 0, 0, 1, 1, 0], 0.15),
    ]
    for k, (w, x1, x2, delta) in enumerate(cases):
        params = TypicalityParams(delta)
        yield f"enumerate-{k}", sorted(enumerate_conditional_typical(x1, w, params))
        yield f"ratio-{k}", intersection_ratio(x1, x2, w, params)
    rng = np.random.default_rng(np.random.SeedSequence(45))
    yield "transmit", [transmit_dmc(wide, wcb.words[i], rng).tolist() for i in range(3)] + [
        transmit_dmc(ch, cb.words[i], rng).tolist() for i in range(2)
    ]
    ch3 = Dmc(matrix=np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]), cost=(0.0, 1.0, 2.0),
              constraint=0.7)
    yield "converse", [list(converse_count(ch3, n)) for n in (10, 15, 20)]


def test_golden_outputs_replay_bit_for_bit():
    assert {key: _sha(out) for key, out in _golden_outputs()} == GOLDEN_OUTPUTS


def test_reports_do_not_depend_on_the_worker_count(monkeypatch):
    # Up to four workers whatever CPUs the machine has (the cap reads the
    # affinity); the seeded pins must hold on two as on one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setenv("DI_CODES_THREADS", "2")
    assert stats.worker_count() == 2
    assert {key: _sha(out) for key, out in _golden_outputs()} == GOLDEN_OUTPUTS

    rng = np.random.default_rng(8)
    bsc_cb = DmcCodebook(channel=bsc(0.1, constraint=1.0), words=rng.integers(0, 2, (6, 200)),
                         epsilon=0.0, delta=0.03)
    tern = Dmc(matrix=np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]]), cost=(0.0, 1.0), constraint=1.0)
    tern_cb = DmcCodebook(channel=tern, words=rng.integers(0, 2, (5, 200)), epsilon=0.0, delta=0.05)
    gcb, _ = build_gauss_codebook(
        GaussChannel(1.0, 2.0), n=8, epsilon=0.05, delta=0.1, seed=5,
        probe_budget=2000, max_centers=64, probe_trials=64,
    )

    def reports():
        return [
            simulate_errors(bsc_cb, trials=1000, seed=1, pair_budget=4),
            simulate_errors(tern_cb, trials=1000, seed=2, pair_budget=4),
            simulate_gauss_errors(gcb, trials=30000, seed=3, pair_budget=4, message_budget=6),
        ]

    # At least 3 chunks an estimate on one worker: 163 BSC rows, 109 rows of
    # the |Y| = 3 channel and 8192 Gaussian rows; fewer on more workers, which
    # switch as often as the interpreter allows, so that a shared buffer or
    # counts kept in completion order would show.
    monkeypatch.setattr(stats, "_CHUNK_SCALARS", 2**16)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "2", "4"):
            monkeypatch.setenv("DI_CODES_THREADS", workers)
            got[workers] = reports()
    finally:
        sys.setswitchinterval(interval)
    assert got["2"] == got["1"] and got["4"] == got["1"]
