"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports di_codes: every value is computed from the fixture's
definition (channel law, cost vector, packing radii) and the program's output
alone. Each ``check_*`` function returns a list of problems, empty when the
output passes, so one failed oracle never hides another.

Monte Carlo counts are compared with an exact two-sided tail test at level
ALPHA. The level is small because every run makes tens of thousands of such
comparisons and a false alarm would count as a failed operation.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.stats import binom, chi2, hypergeom, ncx2

ALPHA = 1e-8

# Slack on box and radius comparisons, against float dust in n*delta, N(a)*W
# and squared norms; far below any integer step of a count.
TOL = 1e-9

# Share of the benchmark's own probe points that may miss every 2*r0 ball of
# a saturated packing.
MAX_UNCOVERED_SHARE = 0.005


# --- Gaussian packing -------------------------------------------------------

def packing_radii(power: float, epsilon: float) -> tuple[float, float]:
    """(r0, r1) in normalized units: r0 = sqrt(eps), r1 = sqrt(P) - sqrt(eps)."""
    r0 = math.sqrt(epsilon)
    return r0, math.sqrt(power) - r0


def volume_bound(power: float, epsilon: float, n: int) -> float:
    r0, r1 = packing_radii(power, epsilon)
    return (r1 / (2.0 * r0)) ** n


def _sq_dists(block: np.ndarray, points: np.ndarray, sq_points: np.ndarray) -> np.ndarray:
    d2 = block @ points.T
    d2 *= -2.0
    d2 += sq_points[None, :]
    d2 += (block * block).sum(axis=1)[:, None]
    return d2


def min_pairwise_distance(points: np.ndarray, chunk: int = 256) -> float:
    """Smallest distance between two rows, by a chunked scan of all pairs.

    Each chunk of rows is compared with itself and every later row. A
    Gram-matrix pass finds the pairs near the minimum; those are then
    recomputed from coordinate differences so the result is exact to
    rounding, not to the Gram expansion's cancellation.
    """
    x = np.asarray(points, dtype=np.float64)
    m = x.shape[0]
    if m < 2:
        return math.inf
    sq = (x * x).sum(axis=1)
    approx = math.inf
    near: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        d2 = _sq_dists(x[start:stop], x[start:], sq[start:])
        d2[:, : stop - start][np.tril_indices(stop - start)] = np.inf
        block_min = float(d2.min())
        if block_min < approx + 1e-6:
            approx = min(approx, block_min)
            i, j = np.nonzero(d2 <= approx + 1e-6)
            near.append((start + i, start + j))
    i = np.concatenate([p[0] for p in near])
    j = np.concatenate([p[1] for p in near])
    diff = x[i] - x[j]
    return float(np.sqrt((diff * diff).sum(axis=1).min()))


def uniform_ball(rng: np.random.Generator, count: int, n: int, radius: float) -> np.ndarray:
    """``count`` uniform points in the n-ball, by rejection from the cube."""
    out = np.empty((0, n))
    while out.shape[0] < count:
        cube = rng.uniform(-radius, radius, size=(4 * count, n))
        inside = cube[(cube * cube).sum(axis=1) <= radius * radius]
        out = np.concatenate([out, inside])
    return out[:count]


def uncovered_count(centers: np.ndarray, probes: np.ndarray, radius: float, chunk: int = 256) -> int:
    """Probe points farther than ``radius`` from every center."""
    c = np.asarray(centers, dtype=np.float64)
    if c.shape[0] == 0:
        return probes.shape[0]
    sq = (c * c).sum(axis=1)
    missing = 0
    for start in range(0, probes.shape[0], chunk):
        d2 = _sq_dists(probes[start:start + chunk], c, sq)
        missing += int((d2.min(axis=1) > radius * radius + TOL).sum())
    return missing


def check_packing(
    centers: np.ndarray,
    min_distance: float,
    stop_reason: str,
    reported_count: int,
    power: float,
    epsilon: float,
    probes: np.ndarray,
) -> list[str]:
    """Geometry of a saturated packing: separation, power, volume bound, coverage.

    ``min_distance`` is the pairwise scan's value for ``centers``.
    """
    problems = []
    c = np.asarray(centers, dtype=np.float64)
    n = c.shape[1]
    r0, r1 = packing_radii(power, epsilon)
    if c.shape[0] != reported_count:
        problems.append(f"certificate reports {reported_count} centers, packing has {c.shape[0]}")
    if stop_reason != "saturation":
        problems.append(f"stop reason {stop_reason!r}, expected 'saturation'")
    bound = volume_bound(power, epsilon, n)
    if not c.shape[0] >= bound:
        problems.append(f"L = {c.shape[0]} below the volume bound {bound:.1f}")
    if c.shape[0]:
        max_norm = float(np.sqrt((c * c).sum(axis=1).max()))
        if max_norm > r1 + TOL:
            problems.append(f"a center has norm {max_norm:.9f} > r1 = {r1:.9f}")
    if min_distance < 2.0 * r0 - TOL:
        problems.append(f"two centers {min_distance:.9f} apart, below 2*r0 = {2 * r0:.9f}")
    missing = uncovered_count(c, probes, 2.0 * r0)
    if missing > MAX_UNCOVERED_SHARE * probes.shape[0]:
        problems.append(f"{missing} of {probes.shape[0]} probe points lie farther than 2*r0 from every center")
    return problems


def check_min_distance(reported: float, expected: float) -> list[str]:
    """The program's minimum center distance against the pairwise scan's."""
    if not abs(reported - expected) <= 1e-9 * max(1.0, expected):
        return [f"min_center_distance {reported!r}, pairwise scan gives {expected!r}"]
    return []


# --- DMC codebooks ----------------------------------------------------------

def separation(n: int, epsilon: float) -> int:
    """ceil(n*eps): words strictly closer than this are too close."""
    return max(0, math.ceil(n * epsilon - TOL))


def letter_counts(words: np.ndarray, alphabet_size: int) -> np.ndarray:
    """(M, |X|) letter counts of every word."""
    return np.stack([np.bincount(row, minlength=alphabet_size) for row in np.asarray(words)])


def min_hamming(words: np.ndarray) -> int | None:
    """Smallest Hamming distance between two rows, comparing the rows directly."""
    w = np.asarray(words)
    best = None
    for i in range(w.shape[0] - 1):
        d = int((w[i + 1:] != w[i]).sum(axis=1).min())
        best = d if best is None else min(best, d)
    return best


def check_dmc_codebook(
    words: np.ndarray,
    min_distance: int | None,
    base_counts: tuple[int, ...],
    letter_cost: np.ndarray,
    constraint: float,
    epsilon: float,
    reported_min_distance: int | None,
) -> list[str]:
    """Common base type, per-word cost, and pairwise separation of a codebook.

    ``min_distance`` is ``min_hamming(words)``.
    """
    problems = []
    w = np.asarray(words)
    m, n = w.shape
    counts = letter_counts(w, len(letter_cost))
    wrong_type = int((counts != np.asarray(base_counts)).any(axis=1).sum())
    if wrong_type:
        problems.append(f"{wrong_type} of {m} words do not have the base type {tuple(base_counts)}")
    costs = np.asarray(letter_cost, dtype=np.float64)[w].mean(axis=1)
    over = int((costs > constraint + TOL).sum())
    if over:
        problems.append(f"{over} of {m} words cost more than {constraint} (max {costs.max():.6f})")
    need = separation(n, epsilon)
    if min_distance is not None and min_distance < need:
        problems.append(f"two words at Hamming distance {min_distance} < ceil(n*eps) = {need}")
    if min_distance != reported_min_distance:
        problems.append(f"reported min distance {reported_min_distance}, direct comparison gives {min_distance}")
    return problems


def requested_words(n: int, rate: float) -> int:
    return max(1, math.floor(2.0 ** (n * rate) + TOL))


def check_retention(kept: int, requested: int) -> list[str]:
    if not kept >= requested / 2:
        return [f"faithful build kept {kept} of {requested} words, fewer than M/2"]
    return []


def check_subset(faithful: np.ndarray, greedy: np.ndarray) -> list[str]:
    """Every faithful survivor is far from every sample, so greedy keeps it too."""
    greedy_rows = {row.tobytes() for row in np.ascontiguousarray(greedy, dtype=np.int64)}
    missing = sum(row.tobytes() not in greedy_rows
                  for row in np.ascontiguousarray(faithful, dtype=np.int64))
    if missing:
        return [f"{missing} faithful words are missing from the greedy codebook of the same seed"]
    return []


def check_validation(validation: dict, word_count: int, min_distance: int | None) -> list[str]:
    problems = [f"validate_codebook reports {key} = False"
                for key in ("same_type", "cost_feasible", "separated") if not validation.get(key)]
    if validation.get("word_count") != word_count:
        problems.append(f"validate_codebook counts {validation.get('word_count')} words, codebook has {word_count}")
    if validation.get("min_distance") != min_distance:
        problems.append(f"validate_codebook min distance {validation.get('min_distance')}, direct comparison gives {min_distance}")
    return problems


def check_codebook_file(path: str, words: np.ndarray, report: dict) -> list[str]:
    """A ``codebook-dmc --output`` file parses and equals the direct build."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"codebook file unreadable: {exc}"]
    problems = []
    if stored.get("codebook", {}).get("words") != np.asarray(words).tolist():
        problems.append("codebook file words differ from the direct build")
    if stored.get("report") != json.loads(json.dumps(report)):
        problems.append("codebook file report differs from the direct build")
    return problems


# --- Exact error probabilities of the typicality decoder ---------------------

def count_problem(label: str, count: int, trials: int, p: float) -> list[str]:
    """Exact two-sided binomial test of a Monte Carlo count against p."""
    low = binom.cdf(count, trials, p)
    high = binom.sf(count - 1, trials, p)
    if min(low, high) < ALPHA / 2:
        return [f"{label}: {count}/{trials} outside the binomial band of exact p = {p:.6g}"]
    return []


def two_sample_problem(label: str, count: int, trials: int, ref_count: int, ref_trials: int) -> list[str]:
    """Fisher's exact test: do two counts share one success probability?"""
    total = count + ref_count
    low = hypergeom.cdf(count, trials + ref_trials, total, trials)
    high = hypergeom.sf(count - 1, trials + ref_trials, total, trials)
    if min(low, high) < ALPHA / 2:
        return [f"{label}: {count}/{trials} disagrees with the reference {ref_count}/{ref_trials}"]
    return []


def _box(target: float, ndelta: float, limit: int) -> tuple[int, int]:
    lo = max(0, math.ceil(target - ndelta - TOL))
    hi = min(limit, math.floor(target + ndelta + TOL))
    return lo, hi


def multinomial_box_probability(trials: int, pmf: np.ndarray, ndelta: float) -> float:
    """P(|K_b - trials*pmf_b| <= ndelta for all b), K ~ Multinomial(trials, pmf).

    Cells are drawn one after another as conditional binomials; the state is
    the number of trials not yet assigned. Cells with pmf_b = 0 must stay
    empty, as the decoder's support condition requires.
    """
    p = np.asarray(pmf, dtype=np.float64)
    dp = np.zeros(trials + 1)
    dp[trials] = 1.0
    tail = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])
    for b in range(p.size - 1):
        lo, hi = (0, 0) if p[b] == 0.0 else _box(trials * p[b], ndelta, trials)
        q = min(1.0, p[b] / tail[b]) if tail[b] > 0.0 else 0.0
        new = np.zeros_like(dp)
        for k in range(lo, hi + 1):
            remaining = np.arange(k, trials + 1)
            new[: trials + 1 - k] += dp[k:] * binom.pmf(k, remaining, q)
        dp = new
    lo, hi = (0, 0) if p[-1] == 0.0 else _box(trials * p[-1], ndelta, trials)
    return float(dp[lo:hi + 1].sum())


def dmc_accept_probability(word: np.ndarray, matrix: np.ndarray, delta: float) -> float:
    """P(the output of ``word`` is delta-typical for ``word``): the pe1 complement.

    The joint counts split over input letters; letter a contributes an
    independent Multinomial(N(a|word), W[a]).
    """
    w = np.asarray(word)
    ndelta = w.size * delta
    counts = np.bincount(w, minlength=matrix.shape[0])
    prob = 1.0
    for a, na in enumerate(counts):
        if na:
            prob *= multinomial_box_probability(int(na), matrix[a], ndelta)
    return prob


def _box_probability_of_sum(pmf: np.ndarray, target: float, ndelta: float) -> float:
    lo, hi = _box(target, ndelta, pmf.size - 1)
    return float(pmf[lo:hi + 1].sum()) if lo <= hi else 0.0


def bsc_cross_accept_probability(send: np.ndarray, test: np.ndarray, crossover: float, delta: float) -> float:
    """P(output of ``send`` through BSC(p) is delta-typical for ``test``).

    For each test letter a, the outputs 1-a at its positions number
    Bin(A, p) + Bin(D, 1-p), where A positions carry a in ``send`` and D
    carry 1-a; the box is |F - N(a|test) p| <= n delta. Letters occupy
    disjoint positions, so their factors multiply. With send == test this is
    the pe1 complement.
    """
    s = np.asarray(send)
    t = np.asarray(test)
    ndelta = t.size * delta
    prob = 1.0
    for a in (0, 1):
        pos = t == a
        na = int(pos.sum())
        if na == 0:
            continue
        agree = int((s[pos] == a).sum())
        flips = np.convolve(binom.pmf(np.arange(agree + 1), agree, crossover),
                            binom.pmf(np.arange(na - agree + 1), na - agree, 1.0 - crossover))
        prob *= _box_probability_of_sum(flips, na * crossover, ndelta)
    return prob


def gauss_pe1(n: int, sigma2: float, delta: float) -> float:
    """P(||z||^2 / n > sigma2 + delta), z ~ N(0, sigma2 I_n)."""
    return float(chi2.sf(n * (sigma2 + delta) / sigma2, n))


def gauss_pe2(shift_norm2: float, n: int, sigma2: float, delta: float) -> float:
    """P(||z + s||^2 / n <= sigma2 + delta) for a shift with ||s||^2 = shift_norm2."""
    return float(ncx2.cdf(n * (sigma2 + delta) / sigma2, n, shift_norm2 / sigma2))


def typical_output_count(
    send: np.ndarray,
    test: np.ndarray,
    matrix: np.ndarray,
    delta: float,
    trials: int,
    rng: np.random.Generator,
    chunk: int = 1000,
) -> int:
    """Outputs of ``send`` that are delta-typical for ``test``, by simulation.

    Written from the definition: draw each output letter by inverse cdf,
    count the joint letters N(a, b) of (test, y), and accept when every
    |N(a, b) - N(a|test) W[a, b]| <= n delta, with N(a, b) = 0 wherever
    W[a, b] = 0.
    """
    s = np.asarray(send)
    t = np.asarray(test)
    n = t.size
    x_size, y_size = matrix.shape
    cdf = np.cumsum(matrix, axis=1)
    cdf[:, -1] = np.inf
    targets = np.bincount(t, minlength=x_size)[:, None] * matrix
    zero = matrix == 0.0
    hits = 0
    done = 0
    while done < trials:
        rows = min(chunk, trials - done)
        u = rng.random((rows, n))
        y = np.empty((rows, n), dtype=np.int64)
        for c in np.unique(s):
            pos = np.flatnonzero(s == c)
            y[:, pos] = np.searchsorted(cdf[c], u[:, pos], side="right")
        cell = (np.arange(rows)[:, None] * x_size + t[None, :]) * y_size + y
        joint = np.bincount(cell.ravel(), minlength=rows * x_size * y_size).reshape(rows, x_size, y_size)
        ok = (np.abs(joint - targets) <= n * delta + TOL).all(axis=(1, 2))
        ok &= ~(joint[:, zero] > 0).any(axis=1)
        hits += int(ok.sum())
        done += rows
    return hits
