"""Deterministic identification codes for DMCs.

Construction draws all codewords from a single capacity-achieving type class
and enforces pairwise Hamming separation; decoding asks whether the received
block is jointly typical with the candidate codeword under the channel law.
Decoding regions of different messages deliberately overlap: the decoder
answers one yes/no question per candidate, it never picks a unique message.

Two separation policies are provided. The "faithful" policy removes both
members of every too-close pair, mirroring the expurgation argument that
backs the achievability bound (the surviving words are exactly the sampled
words whose spheres contain no other sample). The "greedy" policy keeps a
maximal prefix-greedy subset and typically retains far more words; it trades
the clean counting argument for yield.

One float32 upper-triangle Hamming scan per build, bounded in memory at any
size, both expurgates (or packs) and measures the kept words' closest pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .capacity import entropy_bits, max_entropy_pmf
from .channels import Dmc, _budget, _transmit_rows, dmc_from_dict, dmc_to_dict, input_cost, reduce_channel
from .errors import BudgetError, ConstructionError, _refuse_over_budget
from .stats import DEFAULT_PAIR_BUDGET, SimReport, _chunk_rows, _closest_first_pairs, _in_chunks, _simulate
from .typicality import (
    _TIE_GUARD,
    EmpiricalType,
    TypicalityParams,
    _aligned,
    _as_word,
    _conditional_targets,
    _distance_dtype,
    _hamming_blocks,
    _typical_rows,
    apportion_counts,
    distance_threshold,
    empirical_type,
    pairwise_hamming,  # unused here, but a module attribute the benchmark's tracer rebinds
    sample_type_class,
    sphere_exponent,
)

DEFAULT_MAX_WORDS = 2**20

_SCAN_BYTES = 2**26  # a block of the one scan that expurgates and measures, at 8 bytes a distance (see _scan)

# The build's peak, checked against _MAX_BUILD_BYTES: up to 24 bytes a sampled
# symbol for the words (int64: the sample, the kept words in the channel's
# letters, the codebook's copy), which the estimate rounds to 32, and one scan block.

# (distance, i, j), i < j: the closest pair np.argmin finds first in the full matrix; None below two words.
_Closest = tuple[int, int, int] | None


@dataclass(frozen=True, eq=False)
class DmcCodebook:
    """An identification codebook over a DMC input alphabet.

    words is an (M, n) integer array. base is the common empirical type when
    the codebook came out of the standard construction; manually assembled
    codebooks (arbitrary word lists) may leave it None. epsilon is the
    separation parameter the words were built for, delta the decoder's
    typicality tolerance. The closest pair (_closest) comes from the build's
    one scan, or is measured on first use if the codebook was not built here.
    """

    channel: Dmc
    words: np.ndarray
    epsilon: float
    delta: float
    rate: float | None = None
    base: EmpiricalType | None = None

    def __post_init__(self):
        w = _as_word(self.words, self.channel.input_size, "words", 2)
        if w.shape[1] < 1:
            raise ValueError("block length must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        TypicalityParams(self.delta)
        if self.base is not None and self.base.n != w.shape[1]:
            raise ValueError("base type length disagrees with the words")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "words", w)

    @property
    def word_count(self) -> int:
        return self.words.shape[0]

    @property
    def block_length(self) -> int:
        return self.words.shape[1]

    @functools.cached_property
    def _closest(self) -> _Closest:
        """The closest pair (see ``_Closest``). A build hands over the one its
        scan measured; any other codebook runs that scan at separation 0,
        which drops nothing, on first use."""
        return drop_close_pairs(self.words, 0, self.channel.input_size)[1]


@dataclass(frozen=True)
class ConstructionReport:
    """What the construction did and why: sizes, thresholds, and yields."""

    n: int
    rate: float
    epsilon: float
    delta: float
    mode: str
    seed: int
    backoff: float
    separation: int
    requested_words: int
    kept_words: int
    dropped_words: int
    base_counts: tuple[int, ...]
    base_entropy_bits: float
    mean_cost: float
    min_distance: int | None
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {**asdict(self), "base_counts": list(self.base_counts), "notes": list(self.notes)}


def construction_base_type(channel: Dmc, n: int, cost_margin: float = 0.0) -> EmpiricalType:
    """The n-type all codewords share: the rounded capacity maximizer.

    Rounding can push the average cost above the ceiling by a fraction of a
    letter, so counts are repaired afterwards, moving single occurrences from
    the most expensive populated letter to the cheapest letter until the
    constraint (tightened by cost_margin) holds. Feasibility of the repaired
    type follows from constraint >= min cost, which Dmc guarantees.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (cost_margin >= 0 and math.isfinite(cost_margin)):
        raise ValueError("cost_margin must be a nonnegative finite number")
    result = max_entropy_pmf(channel.cost, channel.constraint)
    et = apportion_counts(result.maximizer, n)
    counts = np.asarray(et.counts, dtype=np.int64)
    cost = channel.cost
    budget = _budget(n, channel.constraint - cost_margin)
    if n * float(cost.min()) > budget:
        raise ValueError("cost_margin leaves no feasible type")
    cheapest = int(np.argmin(cost))
    while float(counts @ cost) > budget:
        populated = np.flatnonzero(counts > 0)
        worst = populated[np.argmax(cost[populated])]
        if worst == cheapest:
            raise ValueError("cost repair stuck; constraint infeasible for any type")
        counts[worst] -= 1
        counts[cheapest] += 1
    return EmpiricalType(tuple(int(c) for c in counts), n)


def _scan(words: np.ndarray, separation: int, alphabet_size: int, greedy: bool) -> tuple[np.ndarray, _Closest]:
    """(keep, closest) of one upper-triangle Hamming scan, bounded in memory at any size.

    Row block s holds the float32 distances from words[s:s + rows] to words[s:]
    (at its peak with one temporary of their shape: 8 bytes a distance), inf on
    the diagonal, so each pair i < j is computed once. near[k], final once
    word k is decided (kept iff near[k] >= separation), is its distance to the
    closest other word, or in greedy mode to the closest word kept before it.
    Then the block's kept rows lower low[k] and arg[k]: the least distance
    from a kept word to word k, and the first kept word at it.
    """
    m, acc = len(words), _distance_dtype(words.shape[1])  # the distances' own dtype, in which they are exact
    near, low, arg = np.full(m, np.inf, acc), np.full(m, np.inf, acc), np.zeros(m, dtype=np.int64)
    rows = max(1, _SCAN_BYTES // (8 * max(1, m)))
    for s in range(0, m, rows):
        tail = words[s:]
        square = rows >= len(tail)  # the whole tail: symmetric, and one encoded table serves both sides
        dist = _hamming_blocks(tail if square else tail[:rows], tail, alphabet_size)
        np.fill_diagonal(dist, np.inf)
        if greedy:  # each kept word lowers the words after it as it is kept
            for i in range(s, s + len(dist)):
                if near[i] >= separation:
                    np.minimum(near[i + 1:], dist[i - s, i + 1 - s:], out=near[i + 1:])
        else:
            np.minimum(near[s:s + len(dist)], dist.min(axis=1), out=near[s:s + len(dist)])
            if not square:
                np.minimum(near[s:], dist.min(axis=0), out=near[s:])
        dropped = near[s:s + len(dist)] < separation
        dist[dropped] = np.inf
        if square:  # symmetric once its dropped columns go too, so its transpose's column argmin copies nothing
            dist[:, dropped] = np.inf
            dist = dist.T
        first = dist.argmin(axis=0)  # a rectangular block's copy is the temporary allowed for
        least = dist[first, np.arange(len(tail))]
        better = least < low[s:]  # strictly: an earlier block's row comes first
        np.copyto(low[s:], least, where=better)
        np.copyto(arg[s:], s + first, where=better)
        del dist  # freed before the next block's
    keep = near >= separation
    kept = np.flatnonzero(keep)
    if len(kept) < 2:
        return keep, None
    # The first closest pair (i, j) has arg[j] = i; every other kept k at the least distance gives a later pair.
    least = low[kept].min()
    ends = kept[low[kept] == least]
    i, j = divmod(int((np.minimum(arg[ends], ends) * m + np.maximum(arg[ends], ends)).min()), m)
    return keep, (int(least), int(np.searchsorted(kept, i)), int(np.searchsorted(kept, j)))


def drop_close_pairs(words: np.ndarray, separation: int, alphabet_size: int) -> tuple[np.ndarray, _Closest]:
    """Keep-mask that removes BOTH members of every pair at distance < separation,
    and the closest pair of the kept words (see ``_Closest``).

    This is the expurgation step of the standard construction: a word
    survives iff no other sampled word lies strictly inside its separation
    radius. Symmetric, order-independent, idempotent.
    """
    return _scan(_as_word(words, alphabet_size, "words", 2), separation, alphabet_size, False)


def greedy_select(words: np.ndarray, separation: int, alphabet_size: int) -> tuple[np.ndarray, _Closest]:
    """Keep-mask of the prefix-greedy packing: scan order, keep if far from kept;
    and the closest pair of the kept words (see ``_Closest``)."""
    return _scan(_as_word(words, alphabet_size, "words", 2), separation, alphabet_size, True)


def build_codebook(
    channel: Dmc,
    n: int,
    rate: float,
    epsilon: float,
    delta: float,
    seed: int,
    mode: str = "faithful",
    backoff: float | None = None,
    max_words: int = DEFAULT_MAX_WORDS,
    cost_margin: float = 0.0,
) -> tuple[DmcCodebook, ConstructionReport]:
    """Sample-and-expurgate construction of an identification codebook.

    M = floor(2^(n*rate)) words are drawn i.i.d. uniformly from the base type
    class of the reduced channel, then thinned to pairwise separation
    ceil(n*epsilon) under the chosen mode. The rate must leave room below the
    type entropy: rate <= H(base) - backoff, where backoff defaults to three
    times the sphere exponent of epsilon (the slack the sphere-counting
    achievability argument consumes). Words are returned over the original
    input alphabet, spelled with the representative letter of each reduced
    class, so they are valid inputs of ``channel`` itself.

    Raises BudgetError, before anything is allocated, when M would exceed
    max_words or the words and one scan block could pass _MAX_BUILD_BYTES
    (4 GiB), in either mode; ConstructionError when the rate precondition
    fails or expurgation removes every word.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (rate >= 0 and math.isfinite(rate)):
        raise ValueError("rate must be a nonnegative finite number")
    if mode not in ("faithful", "greedy"):
        raise ValueError("mode must be 'faithful' or 'greedy'")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    TypicalityParams(delta)
    if backoff is not None and not math.isfinite(backoff):
        raise ValueError("backoff must be finite")

    reduced, rmap = reduce_channel(channel)
    if backoff is None:
        backoff = 3.0 * sphere_exponent(epsilon, reduced.input_size)
    base_reduced = construction_base_type(reduced, n, cost_margin)
    base_entropy = entropy_bits(base_reduced.pmf())
    if rate > base_entropy - backoff + _TIE_GUARD:
        raise ConstructionError(
            f"rate {rate} exceeds the admissible ceiling "
            f"H(base) - backoff = {base_entropy:.6f} - {backoff:.6f}"
        )

    log2_m = n * rate
    if log2_m > math.log2(max_words) + _TIE_GUARD:
        raise BudgetError(
            f"word budget {max_words} exceeded: floor(2^(n*rate)) needs 2^{log2_m:.2f} words"
        )
    requested = max(1, int(math.floor(2.0**log2_m + _TIE_GUARD)))
    _refuse_over_budget(32 * requested * n + _SCAN_BYTES, f"{requested} words of length {n}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sampled = sample_type_class(base_reduced, requested, rng)
    separation = distance_threshold(n, epsilon)
    if mode == "faithful":
        keep, closest = drop_close_pairs(sampled, separation, reduced.input_size)
    else:
        keep, closest = greedy_select(sampled, separation, reduced.input_size)
    reps = np.asarray(rmap.representative, dtype=np.int64)
    words = reps[sampled[keep]]

    base_counts = [0] * channel.input_size
    for c, rep in enumerate(rmap.representative):
        base_counts[rep] = base_reduced.counts[c]
    base = EmpiricalType(tuple(base_counts), n)
    codebook = DmcCodebook(
        channel=channel,
        words=words,
        epsilon=epsilon,
        delta=delta,
        rate=rate,
        base=base,
    )
    vars(codebook)["_closest"] = closest  # the scan's, so nothing is measured twice
    kept = codebook.word_count

    report = ConstructionReport(
        n=n,
        rate=rate,
        epsilon=epsilon,
        delta=delta,
        mode=mode,
        seed=seed,
        backoff=backoff,
        separation=separation,
        requested_words=requested,
        kept_words=kept,
        dropped_words=requested - kept,
        base_counts=base.counts,
        base_entropy_bits=base_entropy,
        mean_cost=input_cost(channel, codebook.words[0]) if kept else math.nan,
        min_distance=None if closest is None else closest[0],
        notes=channel.notes,
    )
    if kept == 0:
        raise ConstructionError(
            f"expurgation removed all {requested} words at separation {separation}",
            report=report,
        )
    return codebook, report


def _decide(codebook: DmcCodebook, candidate: int, outputs: np.ndarray) -> np.ndarray:
    """The answers of decoder ``candidate`` for every row of ``outputs``."""
    word = codebook.words[candidate]
    targets = _conditional_targets(word, codebook.channel.matrix)
    return _typical_rows(word, outputs, targets, codebook.delta)


def identify(codebook: DmcCodebook, output: Sequence[int] | np.ndarray, candidate: int) -> bool:
    """Decoder's answer to "was message ``candidate`` sent?" for one output block.

    True iff (word, output) is jointly delta-typical for type(word) x W. The
    regions of different candidates overlap; asking every candidate can
    return several yeses by design.
    """
    if not 0 <= candidate < codebook.word_count:
        raise ValueError("candidate index out of range")
    channel = codebook.channel
    _, y = _aligned(codebook.words[candidate], output, channel.input_size, channel.output_size)
    return bool(_decide(codebook, candidate, y[None, :])[0])


def select_pairs(codebook: DmcCodebook, pair_budget: int = DEFAULT_PAIR_BUDGET) -> list[tuple[int, int]]:
    """Deterministic ordered pairs for type-II estimation.

    The closest pair (ties: lexicographically first) is evaluated in both
    directions first, because words at minimum separation dominate the
    overlap error; the remaining budget is filled with the cyclic pairs
    (i, i+1 mod M) in index order.
    """
    return _closest_first_pairs(codebook.word_count, pair_budget, lambda: codebook._closest[1:])


def simulate_errors(
    codebook: DmcCodebook,
    trials: int,
    seed: int,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    message_budget: int | None = None,
) -> SimReport:
    """Monte Carlo estimates of both identification error kinds.

    Every evaluated message and every evaluated ordered pair gets its own
    child stream of ``seed`` (spawned in a fixed order: messages first, then
    pairs), so enlarging one budget never perturbs the other estimates.
    message_budget = None evaluates every message; an integer evaluates an
    evenly spaced subset of that size.
    """
    guide = codebook.channel._guide  # built here, before any worker starts

    def accepts(i: int, j: int, rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
        return _decide(codebook, j, _transmit_rows(guide, codebook.words[i], rng.random(out=u)))

    n = codebook.block_length
    return _simulate(
        codebook.word_count, trials, seed, message_budget,
        lambda: select_pairs(codebook, pair_budget),
        accepts, n, n * codebook.channel.output_size,
    )


def same_codeword_conflict(codebook: DmcCodebook, i: int, j: int, trials: int, seed: int) -> dict:
    """Test that the decoder depends only on the codeword: two messages that
    share one cannot both be identified reliably.

    Outputs of u_i are drawn on one stream, and decoder i and decoder j each
    decide every output block on their own. A decoder that depends only on
    the codeword gives both messages the same region, so on every block
    exactly one of the error events {miss i} and {accept j} occurs, and the
    estimates satisfy pe1 + pe2 = 1 identically, not just in expectation;
    regions_identical holds when the two decoders disagreed on no block.
    """
    if not (0 <= i < codebook.word_count and 0 <= j < codebook.word_count):
        raise ValueError("message index out of range")
    if i == j:
        raise ValueError("i and j must be distinct messages")
    if not np.array_equal(codebook.words[i], codebook.words[j]):
        raise ValueError("messages do not share a codeword")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = codebook.block_length

    def accepted(rows: int) -> np.ndarray:
        outputs = _transmit_rows(codebook.channel._guide, codebook.words[i], rng.random((rows, n)))
        yes_i, yes_j = (_decide(codebook, k, outputs) for k in (i, j))
        return np.array([yes_i.sum(), yes_j.sum(), (yes_i != yes_j).sum()])

    step = _chunk_rows(trials, n * codebook.channel.output_size)
    hits_i, hits_j, disagreements = (int(h) for h in _in_chunks(trials, step, accepted))
    pe1 = (trials - hits_i) / trials
    pe2 = hits_j / trials
    return {
        "i": i,
        "j": j,
        "trials": trials,
        "seed": seed,
        "regions_identical": disagreements == 0,
        "pe1_estimate": pe1,
        "pe2_estimate": pe2,
        "sum": pe1 + pe2,
    }


def validate_codebook(codebook: DmcCodebook) -> dict:
    """Structural checks: common type, cost feasibility, pairwise separation,
    the last from the codebook's closest pair (see ``DmcCodebook._closest``)."""
    words = codebook.words
    m, n = words.shape
    channel = codebook.channel
    q = channel.input_size
    same_type = True
    if m:
        ref = codebook.base or empirical_type(words[0], q)
        rows = words + q * np.arange(m)[:, None]
        counts = np.bincount(rows.ravel(), minlength=q * m).reshape(m, q)
        same_type = len(ref.counts) == q and bool((counts == ref.counts).all())
    cost_ok = bool((channel.cost[words].sum(axis=1) <= _budget(n, channel.constraint)).all())
    separation = distance_threshold(n, codebook.epsilon)
    min_distance = None if m < 2 else codebook._closest[0]
    return {
        "word_count": m,
        "block_length": n,
        "same_type": same_type,
        "cost_feasible": cost_ok,
        "separation": separation,
        "min_distance": min_distance,
        "separated": min_distance is None or min_distance >= separation,
    }


def _codebook_fields(codebook: DmcCodebook) -> dict:
    """codebook_to_dict without the words, for a writer that takes the array."""
    return {
        "channel": dmc_to_dict(codebook.channel),
        "epsilon": codebook.epsilon,
        "delta": codebook.delta,
        "rate": codebook.rate,
        "base_counts": list(codebook.base.counts) if codebook.base else None,
    }


def codebook_to_dict(codebook: DmcCodebook) -> dict:
    return {**_codebook_fields(codebook), "words": codebook.words.tolist()}


def codebook_from_dict(data: dict) -> DmcCodebook:
    channel = dmc_from_dict(data["channel"])
    base = None
    if data.get("base_counts") is not None:
        counts = tuple(_as_word(data["base_counts"], math.inf, "base_counts", unit="count").tolist())
        base = EmpiricalType(counts, sum(counts))  # DmcCodebook checks its length against the words
    return DmcCodebook(
        channel=channel,
        words=data["words"],
        epsilon=float(data["epsilon"]),
        delta=float(data["delta"]),
        rate=None if data.get("rate") is None else float(data["rate"]),
        base=base,
    )
