"""The benchmark's oracles agree with brute force and reject planted wrong answers.

Run from the root of the repository: python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import multinomial

import oracles

POWER, EPSILON = 1.0, 0.01
R0, R1 = oracles.packing_radii(POWER, EPSILON)


@pytest.fixture(scope="module")
def packing():
    """A saturated greedy packing of the disc (n = 2), built here by brute force."""
    rng = np.random.default_rng(0)
    centers = np.empty((0, 2))
    rejections = 0
    while rejections < 3000:
        x = oracles.uniform_ball(rng, 1, 2, R1)[0]
        if centers.size and (((centers - x) ** 2).sum(axis=1) < (2 * R0) ** 2).any():
            rejections += 1
        else:
            centers = np.vstack([centers, x])
            rejections = 0
    probes = oracles.uniform_ball(np.random.default_rng(1), 2000, 2, R1)
    return centers, probes


def _packing_problems(centers, probes, stop="saturation", count=None):
    dmin = oracles.min_pairwise_distance(centers)
    count = len(centers) if count is None else count
    return oracles.check_packing(centers, dmin, stop, count, POWER, EPSILON, probes)


def test_min_pairwise_distance_matches_brute_force():
    x = np.random.default_rng(2).normal(size=(300, 3))
    brute = min(np.linalg.norm(a - b) for a, b in itertools.combinations(x, 2))
    assert oracles.min_pairwise_distance(x, chunk=37) == pytest.approx(brute, rel=1e-12)


def test_saturated_packing_passes(packing):
    assert _packing_problems(*packing) == []


def test_packing_rejects_two_close_centers(packing):
    centers, probes = packing
    planted = np.vstack([centers, centers[0] + [0.5 * R0, 0.0]])
    assert any("apart" in p for p in _packing_problems(planted, probes))


def test_packing_rejects_center_outside_r1(packing):
    centers, probes = packing
    planted = centers.copy()
    far = np.argmax((planted ** 2).sum(axis=1))
    planted[far] *= (R1 + 1e-6) / np.linalg.norm(planted[far])
    assert any("norm" in p for p in _packing_problems(planted, probes))


def test_packing_rejects_count_below_volume_bound(packing):
    centers, probes = packing
    few = centers[: int(oracles.volume_bound(POWER, EPSILON, 2)) - 1]
    assert any("volume bound" in p for p in _packing_problems(few, probes))


def test_packing_rejects_capped_stop_and_wrong_count(packing):
    problems = _packing_problems(*packing, stop="center_cap", count=len(packing[0]) + 1)
    assert any("stop reason" in p for p in problems)
    assert any("certificate reports" in p for p in problems)


def test_packing_rejects_hole(packing):
    centers, probes = packing
    holed = centers[centers[:, 0] < 0.3]
    assert any("probe points" in p for p in _packing_problems(holed, probes))


def test_min_distance_rejects_other_value(packing):
    dmin = oracles.min_pairwise_distance(packing[0])
    assert oracles.check_min_distance(dmin, dmin) == []
    assert oracles.check_min_distance(dmin * (1 + 1e-6), dmin)


# --- DMC codebooks ------------------------------------------------------------

N, EPS = 40, 0.1
BASE = (10, 20, 10)
COST = np.array([0.0, 0.5, 1.0])


@pytest.fixture
def words():
    base = np.repeat(np.arange(3), BASE)
    rng = np.random.default_rng(3)
    return np.stack([rng.permutation(base) for _ in range(30)])


def _dmc_problems(w, constraint=0.5, reported=None):
    dmin = oracles.min_hamming(w)
    return oracles.check_dmc_codebook(w, dmin, BASE, COST, constraint, EPS,
                                      dmin if reported is None else reported)


def test_min_hamming_matches_brute_force(words):
    brute = min(int((a != b).sum()) for a, b in itertools.combinations(words, 2))
    assert oracles.min_hamming(words) == brute


def test_random_type_class_words_pass(words):
    assert _dmc_problems(words) == []


def test_codebook_rejects_word_of_another_type(words):
    words[3, words[3] == 0] = 1
    assert any("base type" in p for p in _dmc_problems(words))


def test_codebook_rejects_word_over_cost(words):
    assert any("cost more" in p for p in _dmc_problems(words, constraint=0.49))


def test_codebook_rejects_close_words(words):
    words[1] = words[0]
    i, j = np.flatnonzero(words[0] == 0)[0], np.flatnonzero(words[0] == 2)[0]
    words[1, [i, j]] = words[1, [j, i]]
    problems = _dmc_problems(words)
    assert any("Hamming distance 2" in p for p in problems)


def test_codebook_rejects_wrong_reported_distance(words):
    assert any("reported min distance" in p
               for p in _dmc_problems(words, reported=oracles.min_hamming(words) + 1))


def test_retention_rejects_fewer_than_half():
    assert oracles.check_retention(515, 1029) == []
    assert oracles.check_retention(514, 1029)


def test_subset_rejects_missing_faithful_word(words):
    assert oracles.check_subset(words[:10], words) == []
    assert oracles.check_subset(words[:10], words[1:])


def test_validation_rejects_false_flags_and_wrong_distance():
    ok = {"word_count": 5, "same_type": True, "cost_feasible": True, "separated": True,
          "min_distance": 7}
    assert oracles.check_validation(ok, 5, 7) == []
    assert oracles.check_validation(dict(ok, separated=False), 5, 7)
    assert oracles.check_validation(ok, 5, 6)
    assert oracles.check_validation(ok, 4, 7)


def test_codebook_file_rejects_other_words(tmp_path, words):
    report = {"kept_words": 30, "mean_cost": 0.5, "notes": []}
    path = tmp_path / "cb.json"
    path.write_text(json.dumps({"codebook": {"words": words.tolist()}, "report": report}))
    assert oracles.check_codebook_file(str(path), words, report) == []
    assert oracles.check_codebook_file(str(path), words[::-1], report)
    assert oracles.check_codebook_file(str(path), words, dict(report, kept_words=29))
    path.write_text("{")
    assert oracles.check_codebook_file(str(path), words, report)


# --- Error probabilities --------------------------------------------------------

def _enumerated_accept(send, test, matrix, delta):
    """P(output of send is delta-typical for test), summing over every output word."""
    n = len(test)
    x_size, y_size = matrix.shape
    targets = np.bincount(test, minlength=x_size)[:, None] * matrix
    total = 0.0
    for y in itertools.product(range(y_size), repeat=n):
        joint = np.zeros((x_size, y_size))
        np.add.at(joint, (test, np.array(y)), 1)
        ok = np.all(np.abs(joint - targets) <= n * delta + oracles.TOL) and not (
            joint[matrix == 0] > 0).any()
        if ok:
            total += math.prod(matrix[s, b] for s, b in zip(send, y))
    return total


def test_multinomial_box_matches_enumeration():
    pmf = np.array([0.5, 0.3, 0.2, 0.0])
    trials, ndelta = 7, 1.2
    brute = 0.0
    for k in itertools.product(range(trials + 1), repeat=3):
        if sum(k) == trials:
            counts = list(k) + [0]
            if all(abs(c - trials * p) <= ndelta for c, p in zip(counts, pmf)):
                brute += multinomial.pmf(counts, trials, pmf)
    assert oracles.multinomial_box_probability(trials, pmf, ndelta) == pytest.approx(brute, rel=1e-12)


def test_dmc_accept_matches_enumeration():
    matrix = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    word = np.array([0, 1, 1, 0, 1, 0, 0])
    exact = oracles.dmc_accept_probability(word, matrix, 0.15)
    assert exact == pytest.approx(_enumerated_accept(word, word, matrix, 0.15), rel=1e-12)
    assert 0.0 < exact < 1.0


def test_bsc_accept_matches_enumeration():
    p = 0.2
    matrix = np.array([[1 - p, p], [p, 1 - p]])
    send = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0])
    test = np.array([0, 1, 0, 0, 1, 1, 0, 1, 0, 0])
    for s in (send, test):
        exact = oracles.bsc_cross_accept_probability(s, test, p, 0.1)
        assert exact == pytest.approx(_enumerated_accept(s, test, matrix, 0.1), rel=1e-12)


def test_count_band_rejects_shifted_count():
    p, trials = oracles.gauss_pe1(100, 1.0, 0.1), 4000
    centre = round(p * trials)
    assert oracles.count_problem("pe1", centre, trials, p) == []
    assert oracles.count_problem("pe1", centre + 200, trials, p)
    assert oracles.count_problem("pe1", centre - 200, trials, p)
    assert oracles.count_problem("pe2", 1, trials, 1e-12)


def test_gauss_probabilities_match_simulation():
    rng = np.random.default_rng(4)
    n, sigma2, delta, trials = 50, 1.0, 0.2, 20000
    shift = np.zeros(n)
    shift[0] = 2.0
    z = rng.normal(scale=math.sqrt(sigma2), size=(trials, n))
    miss = int(((z * z).sum(axis=1) / n > sigma2 + delta).sum())
    hit = int((((z + shift) ** 2).sum(axis=1) / n <= sigma2 + delta).sum())
    assert oracles.count_problem("pe1", miss, trials, oracles.gauss_pe1(n, sigma2, delta)) == []
    assert oracles.count_problem("pe2", hit, trials, oracles.gauss_pe2(4.0, n, sigma2, delta)) == []
    assert oracles.count_problem("pe2", hit, trials, oracles.gauss_pe2(1.0, n, sigma2, delta))


def test_typical_output_count_matches_exact_and_two_sample_rejects_shift():
    matrix = np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.1, 0.5, 0.4]])
    rng = np.random.default_rng(5)
    word = rng.integers(0, 3, size=60)
    other = rng.permutation(word)
    trials = 4000
    count = oracles.typical_output_count(word, word, matrix, 0.08, trials, rng)
    exact = oracles.dmc_accept_probability(word, matrix, 0.08)
    assert oracles.count_problem("accept", count, trials, exact) == []
    cross = oracles.typical_output_count(other, word, matrix, 0.08, trials, rng)
    again = oracles.typical_output_count(other, word, matrix, 0.08, trials, rng)
    assert oracles.two_sample_problem("pe2", cross, trials, again, trials) == []
    assert oracles.two_sample_problem("pe2", cross + 400, trials, again, trials)
