"""Statistics helpers and the one Monte Carlo loop behind both simulators."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._threads import worker_count

# 95% two-sided normal quantile used for every interval in this package.
WILSON_Z = 1.96

DEFAULT_PAIR_BUDGET = 8

# Transmissions are generated in chunks of about this many scalars. Chunking
# is stream-equivalent: the concatenated chunks reproduce exactly the draws
# of one unchunked call on the same generator.
_CHUNK_SCALARS = 2**22


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because error-rate estimates here
    are routinely near 0 or 1, where Wald intervals collapse.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def proportion_se(p_hat: float, trials: int) -> float:
    """Standard error of a binomial proportion estimate."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def nonincreasing_within_ci(estimates: list[float], trials: int, z: float = WILSON_Z) -> bool:
    """True iff each successive estimate is not significantly above its predecessor.

    "Significantly" means the Wilson lower bound of the later point exceeds the
    Wilson upper bound of the earlier one.
    """
    for prev, nxt in zip(estimates, estimates[1:]):
        prev_hi = wilson_interval(round(prev * trials), trials, z)[1]
        nxt_lo = wilson_interval(round(nxt * trials), trials, z)[0]
        if nxt_lo > prev_hi:
            return False
    return True


@dataclass(frozen=True)
class SimReport:
    """Empirical identification-error estimates from one Monte Carlo run.

    pe1 entries are per evaluated message i: the fraction of transmissions of
    u_i whose output fell outside the decoding region of i. pe2 entries are
    per evaluated ordered pair (i, j), i != j: the fraction of transmissions
    of u_i whose output fell inside the region of j. The Chebyshev fields are
    analytic reference bounds (distance decoder only); None where no such
    bound applies.
    """

    trials: int
    seed: int
    pe1_index: tuple[int, ...]
    pe1_errors: tuple[int, ...]
    pe2_pairs: tuple[tuple[int, int], ...]
    pe2_errors: tuple[int, ...]
    chebyshev_pe1: float | None = None
    chebyshev_pe2: float | None = None

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if len(self.pe1_index) != len(self.pe1_errors):
            raise ValueError("pe1 lengths disagree")
        if len(self.pe2_pairs) != len(self.pe2_errors):
            raise ValueError("pe2 lengths disagree")
        for e in self.pe1_errors + self.pe2_errors:
            if not 0 <= e <= self.trials:
                raise ValueError("error count out of range")

    @property
    def pe1_estimates(self) -> tuple[float, ...]:
        return tuple(e / self.trials for e in self.pe1_errors)

    @property
    def pe2_estimates(self) -> tuple[float, ...]:
        return tuple(e / self.trials for e in self.pe2_errors)

    @property
    def pe1_max(self) -> float:
        return max(self.pe1_estimates, default=0.0)

    @property
    def pe2_max(self) -> float:
        return max(self.pe2_estimates, default=0.0)

    def to_dict(self) -> dict:
        def record(e: int) -> dict:
            return {"errors": e, "estimate": e / self.trials, "wilson": list(wilson_interval(e, self.trials))}

        pe1 = [{"message": i, **record(e)} for i, e in zip(self.pe1_index, self.pe1_errors)]
        pe2 = [{"sender": i, "target": j, **record(e)} for (i, j), e in zip(self.pe2_pairs, self.pe2_errors)]
        out = {
            "trials": self.trials,
            "seed": self.seed,
            "pe1": pe1,
            "pe2": pe2,
            "pe1_max": self.pe1_max,
            "pe2_max": self.pe2_max,
        }
        if self.chebyshev_pe1 is not None or self.chebyshev_pe2 is not None:
            out["chebyshev"] = {"pe1": self.chebyshev_pe1, "pe2": self.chebyshev_pe2}
        return out


def _chunk_rows(trials: int, row_scalars: int, workers: int = 1) -> int:
    """Rows of one worker's chunk: a chunk of ``_CHUNK_SCALARS // row_scalars``
    rows (at least one, at most ``trials``) split evenly over ``workers``."""
    return -(-min(max(1, _CHUNK_SCALARS // row_scalars), trials) // workers)


def _in_chunks(trials: int, step: int, chunk: Callable[[int], int | np.ndarray]):
    """Sum of ``chunk(rows)`` over chunks of at most ``step`` rows covering
    ``trials`` transmissions."""
    return sum(chunk(min(step, trials - done)) for done in range(0, trials, step))


def _closest_first_pairs(
    m: int, pair_budget: int, closest: Callable[[], tuple[int, int]]
) -> list[tuple[int, int]]:
    """Deterministic ordered pairs for type-II estimation.

    The closest pair is evaluated in both directions first, lower index
    first, because words at minimum separation dominate the overlap error;
    the remaining budget is filled with the cyclic pairs (i, i+1 mod M) in
    index order. ``closest`` is called only when a pair is evaluated.
    """
    if m < 2 or pair_budget < 1:
        return []
    i, j = sorted(int(v) for v in closest())
    first = [(i, j), (j, i)]
    cyclic = ((a, (a + 1) % m) for a in range(m))
    return (first + [p for p in cyclic if p not in first])[:pair_budget]


def _simulate(
    m: int,
    trials: int,
    seed: int,
    message_budget: int | None,
    pairs: Callable[[], list[tuple[int, int]]],
    accepts: Callable[[int, int, np.random.Generator, np.ndarray], np.ndarray],
    n: int,
    row_scalars: int,
) -> SimReport:
    """Monte Carlo estimates of both identification error kinds.

    ``accepts(i, j, rng, out)`` draws into ``out`` (rows x n float64) the
    randomness of ``len(out)`` transmissions of the codeword of message i and
    says which outputs the decoder of message j accepts; a transmission costs
    ``row_scalars`` scalars of chunk memory. Every evaluated message and every
    ordered pair from ``pairs()`` gets its own child stream of ``seed``,
    spawned messages first, then pairs, so enlarging one budget never
    perturbs the other estimates. message_budget = None evaluates every
    message; an integer evaluates an evenly spaced subset of that size.

    The estimates run on ``worker_count()`` workers, the calling thread and
    pool threads, each taking every workers-th one and storing its count at
    its index, so the report is the same for any worker count. Worker w draws
    into ``buffers[w]``, which the calling thread allocates once: together
    one chunk of a single worker, up to rounding, and none of it left in a
    pool thread's malloc arena. Chunking is stream-equivalent.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if m < 1:
        raise ValueError("codebook is empty")
    if message_budget is None or message_budget >= m:
        messages = list(range(m))
    elif message_budget < 1:
        raise ValueError("message_budget must be positive")
    else:
        messages = sorted({int(v) for v in np.linspace(0, m - 1, message_budget).round()})
    tested = pairs()
    jobs = [(i, i) for i in messages] + tested
    streams = np.random.SeedSequence(seed).spawn(len(jobs))
    workers = min(worker_count(), len(jobs))
    step = _chunk_rows(trials, row_scalars, workers)
    buffers = np.empty((workers, step, n))
    hits = [0] * len(jobs)

    def work(w: int) -> None:
        for k in range(w, len(jobs), workers):
            (i, j), rng = jobs[k], np.random.default_rng(streams[k])
            hits[k] = _in_chunks(trials, step, lambda rows: int(accepts(i, j, rng, buffers[w, :rows]).sum()))

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        shares = pool.map(work, range(1, workers))
        work(0)
        list(shares)
    return SimReport(
        trials=trials,
        seed=seed,
        pe1_index=tuple(messages),
        pe1_errors=tuple(trials - h for h in hits[:len(messages)]),
        pe2_pairs=tuple(tested),
        pe2_errors=tuple(hits[len(messages):]),
    )
