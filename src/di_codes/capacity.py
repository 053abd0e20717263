"""Identification capacity of constrained channels, with converse diagnostics.

For deterministic identification over a DMC with per-letter costs, the
achievable-rate region is governed by the entropy of the input distribution on
the *reduced* channel (duplicate transition rows merged): the capacity equals

    max { H(p) : p a pmf on the reduced input letters, E_p[cost] <= A },

in bits. When the uniform distribution is feasible the maximum is exactly
log2(k) for k reduced letters; otherwise the maximizer is the Gibbs
distribution p(x) proportional to 2^(-lambda*cost(x)) with lambda chosen so the
cost constraint is met with equality.

The module also provides the matching converse-side counting quantities (how
many cost-feasible words exist, and the capacity-plus-polynomial-slack bound
that dominates that count) and an empirical estimate of the decay rate of the
overlap between conditional typical sets, which controls the type-II error
exponent of the typicality decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import Dmc, reduce_channel
from .errors import BudgetError, InfeasibleConstraintError
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
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _gibbs_pmf(cost: np.ndarray, lam: float) -> np.ndarray:
    # Subtracting the minimum cost keeps the weights in (0, 1]: no underflow
    # to an all-zero vector, no overflow for any lambda.
    w = np.exp2(-lam * (cost - cost.min()))
    return w / w.sum()


def max_entropy_pmf(cost: Sequence[float] | np.ndarray, limit: float) -> CapacityResult:
    """Maximize entropy over pmfs with E[cost] <= limit (costs in bits domain).

    Bisection on the Gibbs exponent runs until |E[cost] - limit| <= 1e-10
    (in practice to bracket exhaustion, far below that tolerance).
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
    for _ in range(200):
        if expected(hi) < limit:
            break
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) > limit:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    p = _gibbs_pmf(c, lam)
    gap = abs(float(p @ c) - limit)
    if not gap <= 1e-10:
        raise RuntimeError(f"cost bisection failed to converge: residual {gap}")
    return CapacityResult(
        value_bits=entropy_bits(p),
        maximizer=p,
        lagrange_multiplier=lam,
        binding=True,
    )


def di_capacity(channel: Dmc) -> CapacityResult:
    """Identification capacity of ``channel`` in bits (reduction applied first)."""
    reduced, _ = reduce_channel(channel)
    if float(reduced.cost.min()) > reduced.constraint:
        raise InfeasibleConstraintError(
            "no reduced letter satisfies the cost constraint"
        )
    return max_entropy_pmf(reduced.cost, reduced.constraint)


def bsc_capacity_curve(crossover: float, grid: Sequence[float]) -> list[tuple[float, float]]:
    """Closed-form capacity of the cost-(0,1) BSC at each constraint in ``grid``.

    H2(A) below A = 1/2, then flat at 1 bit; identically zero when the
    crossover is 1/2 (the two rows coincide and the channel carries nothing).
    """
    if not 0.0 <= crossover <= 0.5:
        raise ValueError("crossover must lie in [0, 1/2]")
    out: list[tuple[float, float]] = []
    for a in grid:
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError("constraint grid values must lie in [0, 1]")
        if crossover == 0.5:
            value = 0.0
        elif a < 0.5:
            value = binary_entropy(a)
        else:
            value = 1.0
        out.append((a, value))
    return out


def gaussian_rate_bound(power: float, epsilon: float) -> float:
    """Guaranteed identification rate (1/2)log2(power/eps) - 1 of sphere packing."""
    if not power > 0:
        raise ValueError("power must be positive")
    if not 0.0 < epsilon < power:
        raise ValueError("epsilon must lie strictly between 0 and power")
    return 0.5 * math.log2(power / epsilon) - 1.0


def _compositions(n: int, parts: int):
    """Yield all count vectors of length ``parts`` summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def converse_count(channel: Dmc, n: int, type_budget: int = DEFAULT_TYPE_BUDGET) -> tuple[int, float]:
    """Exact number of cost-feasible words of length n, and its capacity bound.

    Counts over the reduced alphabet by summing multinomial class sizes over
    feasible types (a DP over the composition tree). Returns
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
    ceiling = reduced.constraint * n + 1e-9
    total = 0
    for counts in _compositions(n, k):
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
    params = TypicalityParams(delta)
    xs: list[float] = []
    ys: list[float] = []
    for n in n_grid:
        et = balanced_type(int(n), channel.input_size)
        d = min_same_type_distance(et, distance_threshold(int(n), epsilon))
        x1, x2 = same_type_pair(et, d)
        ratio = intersection_ratio(x1, x2, channel.matrix, params, budget)
        if ratio == 0.0:
            continue
        xs.append(float(n))
        ys.append(-math.log(ratio))
    if len(xs) < 2:
        raise ValueError("need at least two block lengths with nonzero overlap")
    slope = float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])
    return slope


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
