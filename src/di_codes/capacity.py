"""Identification capacity of constrained channels, with converse diagnostics.

For deterministic identification over a DMC with per-letter costs, the
achievable-rate region is governed by the entropy of the input distribution on
the *reduced* channel (duplicate transition rows merged): the capacity equals

    max { H(p) : p a pmf on the reduced input letters, E_p[cost] <= A },

in bits. When the uniform distribution is feasible the maximum is exactly
log2(k) for k reduced letters; otherwise the maximizer is the Gibbs
distribution p(x) proportional to 2^(-lambda*cost(x)) with lambda chosen so the
cost constraint is met with equality.

The module also provides the converse-side counting quantities (how many
cost-feasible words exist, and the capacity-plus-polynomial-slack bound that
dominates that count), an empirical estimate of the decay rate of the overlap
between conditional typical sets, which controls the decoder's type-II error
exponent, and the Gaussian packing rate gaussian_rate_bound, from gauss_code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import Dmc, _budget, reduce_channel
from .errors import BudgetError, InfeasibleConstraintError
from .gauss_code import gaussian_rate_bound  # noqa: F401  (re-exported; it lives beside packing_radii)
from .typicality import (
    DEFAULT_ENUMERATION_BUDGET,
    EmpiricalType,
    TypicalityParams,
    apportion_counts,
    binary_entropy,
    canonical_word,
    distance_threshold,
    intersection_ratio,
    sphere_exponent,
    type_class_size,
)

DEFAULT_TYPE_BUDGET = 10**7


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Solution of the constrained entropy maximization.

    maximizer is a pmf over the reduced input letters; lagrange_multiplier is
    the exponent coefficient of the Gibbs solution (0 when the constraint is
    slack, +inf in the degenerate case A == min cost); binding records whether
    the cost constraint is active at the optimum.
    """

    value_bits: float
    maximizer: np.ndarray
    lagrange_multiplier: float
    binding: bool


@dataclass(frozen=True)
class ErrorExponentBounds:
    """Exponents entering the decoder's error bounds.

    theta: per-symbol sphere-size exponent of the separation radius.
    alpha1: typicality-deviation exponent at tolerance delta (computed with
        the channel-dependent constant set to 1; only decay is meaningful).
    L_empirical: fitted decay rate of the conditional-typical-set overlap.
    alpha2: type-II exponent, min(alpha1, L_empirical - delta*log2(|Y|)).
    """

    theta: float
    alpha1: float
    L_empirical: float
    alpha2: float


def entropy_bits(pmf: Sequence[float] | np.ndarray) -> float:
    p = np.asarray(pmf, dtype=float)
    if p.ndim != 1 or not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9):  # NaN fails it
        raise ValueError("pmf must be a probability vector")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _gibbs_pmf(cost: np.ndarray, lam: float) -> np.ndarray:
    # Subtracting the minimum cost keeps the weights in (0, 1]: no underflow
    # to an all-zero vector, no overflow for any lambda.
    w = np.exp2(-lam * (cost - cost.min()))
    return w / w.sum()


def max_entropy_pmf(cost: Sequence[float] | np.ndarray, limit: float) -> CapacityResult:
    """Maximize entropy over pmfs with E[cost] <= limit (costs in bits domain).

    The Gibbs exponent is doubled until E[cost] < limit, then bisected until no float
    lies inside its bracket; the residual must then be at most 1e-10 * max|cost|.
    """
    c = np.asarray(cost, dtype=float)
    k = c.size
    if k < 1:
        raise ValueError("cost vector is empty")
    if not (np.isfinite(c).all() and math.isfinite(limit)):
        raise ValueError("letter costs and the cost limit must be finite")
    cmin = float(c.min())
    if limit < cmin:
        raise InfeasibleConstraintError(
            f"cost limit {limit} is below the cheapest letter cost {cmin}"
        )
    if float(c.mean()) <= limit:
        uniform = np.full(k, 1.0 / k)
        return CapacityResult(
            value_bits=math.log2(k),
            maximizer=uniform,
            lagrange_multiplier=0.0,
            binding=False,
        )
    if limit <= cmin:
        # only the cheapest letters carry mass; the Gibbs family reaches this
        # expectation only in the lambda -> inf limit
        support = c == cmin
        p = support.astype(float)
        p /= p.sum()
        return CapacityResult(
            value_bits=math.log2(int(support.sum())),
            maximizer=p,
            lagrange_multiplier=math.inf,
            binding=True,
        )

    def expected(lam: float) -> float:
        return float(_gibbs_pmf(c, lam) @ c)

    lo, hi = 0.0, 1.0
    while expected(hi) >= limit:  # NaN, which ends it, once hi overflows
        lo, hi = hi, hi * 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # every step shrinks the bracket
        if expected(mid) > limit:
            lo = mid
        else:
            hi = mid
    p = _gibbs_pmf(c, mid)
    gap = abs(float(p @ c) - limit) / float(np.abs(c).max())
    if not gap <= 1e-10:
        raise RuntimeError(f"cost bisection ended off the limit: relative residual {gap}")
    return CapacityResult(
        value_bits=entropy_bits(p),
        maximizer=p,
        lagrange_multiplier=mid,
        binding=True,
    )


def di_capacity(channel: Dmc) -> CapacityResult:
    """Identification capacity of ``channel`` in bits (reduction applied first)."""
    reduced, _ = reduce_channel(channel)
    return max_entropy_pmf(reduced.cost, reduced.constraint)


def bsc_capacity_curve(crossover: float, grid: Sequence[float]) -> list[tuple[float, float]]:
    """Closed-form capacity of the cost-(0,1) BSC at each constraint in ``grid``.

    H2(min(A, 1/2)), flat at 1 bit from A = 1/2; identically zero when the
    crossover is 1/2 (the two rows coincide and the channel carries nothing).
    """
    if not 0.0 <= crossover <= 0.5:
        raise ValueError("crossover must lie in [0, 1/2]")
    out: list[tuple[float, float]] = []
    for a in grid:
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError("constraint grid values must lie in [0, 1]")
        out.append((a, binary_entropy(min(a, 0.5)) if crossover < 0.5 else 0.0))
    return out


def converse_count(channel: Dmc, n: int, type_budget: int = DEFAULT_TYPE_BUDGET) -> tuple[int, float]:
    """Exact number of cost-feasible words of length n, and its capacity bound.

    Counts over the reduced alphabet of k letters: each choice of k - 1 bars
    among n + k - 1 slots (stars and bars) is one composition of n, its letter
    counts the gaps between the bars, and the multinomial class sizes of the
    cost-feasible ones are summed. Returns
    (exact_count, bound_log2) where bound_log2 = n*(C + k*log2(n+1)/n); the
    log2 of the exact count never exceeds the bound.
    """
    if n < 1:
        raise ValueError("n must be positive")
    reduced, _ = reduce_channel(channel)
    k = reduced.input_size
    n_types = math.comb(n + k - 1, k - 1)
    if n_types > type_budget:
        raise BudgetError(
            f"type budget {type_budget} exceeded: {n_types} candidate types"
        )
    cost = reduced.cost
    ceiling = _budget(n, reduced.constraint)
    total = 0
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        counts = tuple(b - a - 1 for a, b in itertools.pairwise((-1, *bars, n + k - 1)))
        if float(np.dot(counts, cost)) <= ceiling:
            total += type_class_size(EmpiricalType(counts, n))
    cap = max_entropy_pmf(reduced.cost, reduced.constraint).value_bits
    alpha_n = k * math.log2(n + 1) / n
    return total, n * (cap + alpha_n)


def balanced_type(n: int, alphabet_size: int) -> EmpiricalType:
    """The n-type closest to uniform (largest-remainder rounding)."""
    return apportion_counts(np.full(alphabet_size, 1.0 / alphabet_size), n)


def same_type_pair(et: EmpiricalType, distance: int) -> tuple[np.ndarray, np.ndarray]:
    """Two words of type ``et`` at Hamming distance exactly ``distance``.

    Same-type words sit at even distances when only two letters are available
    (every change must be paired with its reverse), so odd targets require at
    least three populated letters, where a 3-cycle supplies the odd part.
    """
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    x1 = canonical_word(et)
    x2 = x1.copy()
    populated = [a for a, c in enumerate(et.counts) if c > 0]
    slots = {a: list(np.flatnonzero(x1 == a)) for a in populated}
    remaining = distance
    if remaining % 2 == 1:
        if len(populated) < 3:
            raise ValueError(
                "odd same-type distances need at least three populated letters"
            )
        a, b, c = populated[:3]
        x2[slots[a].pop()] = b
        x2[slots[b].pop()] = c
        x2[slots[c].pop()] = a
        remaining -= 3
    while remaining > 0:
        # swap one slot of each of two distinct populated letters
        candidates = [a for a in populated if slots[a]]
        if len(candidates) < 2:
            raise ValueError(f"distance {distance} unreachable within type {et.counts}")
        a, b = candidates[0], candidates[1]
        x2[slots[a].pop()] = b
        x2[slots[b].pop()] = a
        remaining -= 2
    return x1, x2


def min_same_type_distance(et: EmpiricalType, target: int) -> int:
    """Smallest realizable same-type distance >= target (parity-aware)."""
    populated = sum(1 for c in et.counts if c > 0)
    if target <= 0:
        return 0
    d = max(2, target)
    if populated < 3 and d % 2 == 1:
        d += 1
    return d


def _overlap_series(
    channel: Dmc,
    epsilon: float,
    delta: float,
    n_grid: Sequence[int],
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[list[int], list[float]]:
    """Separations and exact overlap ratios of estimate_L's canonical worst pairs."""
    params = TypicalityParams(delta)
    separations: list[int] = []
    ratios: list[float] = []
    for n in n_grid:
        et = balanced_type(int(n), channel.input_size)
        d = min_same_type_distance(et, distance_threshold(int(n), epsilon))
        x1, x2 = same_type_pair(et, d)
        separations.append(d)
        ratios.append(intersection_ratio(x1, x2, channel.matrix, params, budget))
    return separations, ratios


def _decay_rate(n_grid: Sequence[int], ratios: Sequence[float]) -> float:
    """Least-squares slope of -ln(ratio) against n, zero-overlap points excluded."""
    xs = [float(n) for n, r in zip(n_grid, ratios) if r != 0.0]
    ys = [-math.log(r) for r in ratios if r != 0.0]
    if len(xs) < 2:
        raise ValueError("need at least two block lengths with nonzero overlap")
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def estimate_L(
    channel: Dmc,
    epsilon: float,
    delta: float,
    n_grid: Sequence[int],
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Empirical overlap decay rate from exact enumeration on small blocks.

    For each n, a canonical worst pair is built (balanced type, separation the
    smallest realizable same-type distance >= ceil(n*eps)) and the overlap of
    the two conditional typical sets is enumerated exactly. The fitted
    least-squares slope of -ln(ratio) against n is returned; zero-overlap
    points are excluded as saturated. Positivity, not the constant, is the
    meaningful outcome at these block lengths.
    """
    reduced, _ = reduce_channel(channel)
    if reduced.input_size != channel.input_size:
        raise ValueError("channel rows must be pairwise distinct; reduce first")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    return _decay_rate(n_grid, _overlap_series(channel, epsilon, delta, n_grid, budget)[1])


def error_exponent_bounds(
    channel: Dmc,
    epsilon: float,
    delta: float,
    n_grid: Sequence[int],
    deviation_constant: float = 1.0,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ErrorExponentBounds:
    """Assemble the decoder's exponent diagnostics for one (eps, delta) choice."""
    theta = sphere_exponent(epsilon, channel.input_size)
    alpha1 = 0.5 * delta**2 / (4.0 * (1.0 + delta / 2.0)) * deviation_constant
    L = estimate_L(channel, epsilon, delta, n_grid, budget)
    alpha2 = min(alpha1, L - delta * math.log2(channel.output_size))
    return ErrorExponentBounds(theta=theta, alpha1=alpha1, L_empirical=L, alpha2=alpha2)
