"""Empirical types, Hamming geometry, and strong typicality.

The conventions used throughout the package:

* The empirical type of a word is its letter-frequency vector, kept as exact
  integer counts. All typicality tests compare scaled counts, never ratios,
  so integer arithmetic decides membership and float ties cannot flip a
  decision for block lengths up to about 1e4.

* A pair (x, y) is delta-typical for a joint pmf p when every entry satisfies
  |N(a,b) - n*p(a,b)| <= n*delta, with the exact support condition N(a,b) = 0
  wherever p(a,b) = 0. This "strong" notion is what the decoder uses; weak
  (entropy-based) typicality is deliberately not implemented. One batched
  kernel, ``_typical_rows``, makes every such decision (``is_jointly_typical``,
  the enumeration below, the DMC decoder and simulator); binary outputs are
  counted by their ones per input letter, wider ones by one bincount.

* Hamming spheres use the strict inequality d(x, y) < n*eps, except that a
  zero-radius sphere is the center alone. The matching separation rule used
  by codebook constructions keeps words at distance >= ceil(n*eps).

The conditional typical set of a word x is the set of outputs y such that
(x, y) is jointly typical for type(x) x W. Its cardinality, and the overlap
between two such sets, are computed by exact enumeration guarded by an
explicit budget; both quantities drive the error-exponent diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError, DegenerateTypicalitySetError

# Sequences y^n are enumerated only when |Y|^n stays at or below this.
DEFAULT_ENUMERATION_BUDGET = 2**24

# Additive guard absorbing float dust in products like n*delta and counts*W;
# deviations are integer-valued so anything far below 0.5 is safe.
_TIE_GUARD = 1e-9

# Hamming kernel blocks: below 2**24 positions every float32 partial sum of
# agreements is an exact integer; the encoded blocks stay near this many bytes.
_EXACT_FLOAT32 = 2**24
_ONE_HOT_BYTES = 2**24


@dataclass(frozen=True)
class EmpiricalType:
    """Letter counts of a word; counts sum to the block length n.

    n = 0 (empty word) is allowed so types can be built incrementally; pmf()
    requires n >= 1.
    """

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")
        if sum(self.counts) != self.n:
            raise ValueError("counts do not sum to n")

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def pmf(self) -> np.ndarray:
        if self.n == 0:
            raise ValueError("empty type has no pmf")
        return np.asarray(self.counts, dtype=float) / self.n


@dataclass(frozen=True)
class JointType:
    """Joint letter counts of a word pair; entries sum to n."""

    counts: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        EmpiricalType(tuple(c for row in self.counts for c in row), self.n)  # its rules, over all entries

    def input_marginal(self) -> EmpiricalType:
        return EmpiricalType(tuple(sum(row) for row in self.counts), self.n)

    def output_marginal(self) -> EmpiricalType:
        cols = tuple(sum(row[b] for row in self.counts) for b in range(len(self.counts[0])))
        return EmpiricalType(cols, self.n)

    def matrix(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)


@dataclass(frozen=True)
class TypicalityParams:
    """Strong-typicality tolerance; delta is a per-entry additive slack."""

    delta: float

    def __post_init__(self):
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be a nonnegative finite number")


def _as_word(seq: Sequence[int] | np.ndarray, alphabet_size: int, name: str, ndim: int = 1,
             unit: str = "letter") -> np.ndarray:
    """``seq`` as an int64 word (``ndim`` 1) or word array (``ndim`` 2) over the letters 0..alphabet_size-1.
    A letter is a bool, an integer or an integral float: a value the int64 cast would change (0.9, NaN,
    inf) or no number at all ("1") raises ValueError naming ``name`` and calling an entry a ``unit``."""
    raw = np.asarray(seq)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, refused below
        word = raw.astype(np.int64, copy=False) if raw.dtype.kind in "biuf" else None
    if word is None or word.ndim != ndim or not (np.can_cast(raw.dtype, np.int64) or (word == raw).all()):
        raise ValueError(f"{name} must be a {('one', 'two')[ndim - 1]}-dimensional array of integer {unit}s")
    if word.size and (word.min() < 0 or word.max() >= alphabet_size):
        raise ValueError(f"{name} contains a {unit} outside [0, {alphabet_size})")
    return word


def _aligned(
    x: Sequence[int] | np.ndarray,
    y: Sequence[int] | np.ndarray,
    input_size: int,
    output_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """x and y as checked int64 words of one length."""
    xa = _as_word(x, input_size, "x")
    ya = _as_word(y, output_size, "y")
    if xa.size != ya.size:
        raise ValueError("x and y have different lengths")
    return xa, ya


def empirical_type(sequence: Sequence[int] | np.ndarray, alphabet_size: int) -> EmpiricalType:
    """Exact letter counts of ``sequence`` over the alphabet {0..alphabet_size-1}."""
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    word = _as_word(sequence, alphabet_size, "sequence")
    counts = np.bincount(word, minlength=alphabet_size)
    return EmpiricalType(tuple(int(c) for c in counts), int(word.size))


def joint_type(
    x: Sequence[int] | np.ndarray,
    y: Sequence[int] | np.ndarray,
    input_size: int,
    output_size: int,
) -> JointType:
    """Joint counts N(a, b) of the aligned pair (x, y)."""
    xa, ya = _aligned(x, y, input_size, output_size)
    mat = _joint_counts(xa, ya[None, :], input_size, output_size).reshape(input_size, output_size)
    return JointType(tuple(tuple(int(c) for c in row) for row in mat), int(xa.size))


def hamming_distance(a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> int:
    aa = np.asarray(a)
    bb = np.asarray(b)
    if aa.shape != bb.shape or aa.ndim != 1:
        raise ValueError("words must be one-dimensional and of equal length")
    return int(np.count_nonzero(aa != bb))


def distance_threshold(n: int, epsilon: float) -> int:
    """Smallest admissible separation ceil(n*eps), robust to float dust.

    Words strictly closer than this are "too close": they fall inside each
    other's open Hamming sphere of radius n*eps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return max(0, math.ceil(n * epsilon - _TIE_GUARD))


def hamming_sphere_size_exact(n: int, epsilon: float, alphabet_size: int) -> int:
    """Exact size of {y : d(x, y) < n*eps} around any center x.

    The zero-radius sphere is the center alone (size 1).
    """
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    thr = distance_threshold(n, epsilon)
    if thr == 0:
        return 1
    q = alphabet_size
    return sum(math.comb(n, d) * (q - 1) ** d for d in range(thr))


def hamming_sphere_size_bound(n: int, epsilon: float, alphabet_size: int) -> float:
    """log2 of the counting bound C(n, floor(n*eps)) * |X|^floor(n*eps).

    The exact sphere size never exceeds this for eps in [0, 1].
    """
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    k = int(math.floor(n * epsilon + _TIE_GUARD))  # at most n, since epsilon <= 1
    return math.log2(math.comb(n, k)) + k * math.log2(alphabet_size)


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with the 0 log 0 = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def sphere_exponent(epsilon: float, alphabet_size: int) -> float:
    """Per-symbol exponent H2(eps) + eps*log2(|X|) of the sphere-size bound.

    For eps <= 1/2 the log2 sphere bound is at most n times this value.
    """
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return binary_entropy(epsilon) + epsilon * math.log2(alphabet_size)


def type_class_size(et: EmpiricalType) -> int:
    """Number of words with exactly these counts (multinomial coefficient)."""
    total = 1
    remaining = et.n
    for c in et.counts:
        total *= math.comb(remaining, c)
        remaining -= c
    return total


def canonical_word(et: EmpiricalType) -> np.ndarray:
    """The sorted representative of a type class: letters in ascending runs."""
    return np.repeat(np.arange(et.alphabet_size, dtype=np.int64), et.counts)


def sample_type_class(et: EmpiricalType, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` words i.i.d. uniformly from the type class.

    Uniformity comes from independently shuffling the canonical multiset word.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    words = np.tile(canonical_word(et), (count, 1))
    rng.permuted(words, axis=1, out=words)  # draws nothing when there are no words
    return words


def _distance_dtype(n: int) -> type:
    """float32 below n = 2**24 positions, else float64: every Hamming distance and partial sum is then exact."""
    return np.float32 if n < _EXACT_FLOAT32 else np.float64


def _encode(words: np.ndarray, alphabet_size: int) -> np.ndarray:
    """float32 columns whose products count agreements; see ``pairwise_hamming``."""
    m, n = words.shape
    if alphabet_size == 2:
        return np.where(words == 0, np.float32(1), np.float32(-1))
    return (words[:, :, None] == np.arange(alphabet_size)).reshape(m, n * alphabet_size).astype(np.float32)


def _hamming_blocks(a: np.ndarray, b: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Hamming distances from every row of ``a`` to every row of ``b``, all letters in 0..alphabet_size-1,
    in the first product's float32 buffer (float64 from n = 2**24 on); see ``pairwise_hamming``."""
    n = a.shape[1]
    width = 1 if alphabet_size == 2 else alphabet_size  # columns a position
    cols = max(1, min(n, _EXACT_FLOAT32 - 1, _ONE_HOT_BYTES // (4 * max(1, width * len(a), width * len(b)))))
    dist = None
    for start in range(0, max(n, 1), cols):  # one empty block when n = 0
        ha = _encode(a[:, start:start + cols], alphabet_size)
        hb = ha if b is a else _encode(b[:, start:start + cols], alphabet_size)
        block = ha @ hb.T
        np.subtract(min(cols, n - start), block, out=block)  # c positions minus the agreements, or minus S
        if alphabet_size == 2:
            block *= 0.5  # (c - S) / 2
        dist = block.astype(_distance_dtype(n), copy=False) if dist is None else np.add(dist, block, out=dist)
    return dist


def pairwise_hamming(words: np.ndarray, alphabet_size: int) -> np.ndarray:
    """All pairwise Hamming distances of the rows of ``words``, as int64.

    One float32 matrix product per block of c positions gives every pair's S:
    with two letters, one +-1 column per position makes S agreements minus
    disagreements and the distance (c - S) / 2; otherwise one 0/1 column per
    (position, letter) makes S the agreements and the distance c - S.

    Exact: every partial sum a BLAS kernel forms is an integer of magnitude at
    most c < 2**24, so a float32, and c - S is even below 2**25; the distances,
    integers up to n, are summed in float32 below n = 2**24, else in float64.

    Memory: the M x M distances (float32, and the int64 result), one float32
    product per further block, and encoded blocks of about ``_ONE_HOT_BYTES``.
    """
    w = _as_word(words, alphabet_size, "words", 2)
    return _hamming_blocks(w, w, alphabet_size).astype(np.int64)


def _joint_counts(word: np.ndarray, outputs: np.ndarray, input_size: int, output_size: int) -> np.ndarray:
    """N(a,b) of (word, row) for every row of ``outputs``: rows x |X||Y| int64, cell a*|Y| + b.

    Binary outputs count the ones N(a,1) at the positions of each letter a of
    ``word`` and take N(a,0) = N(a) - N(a,1), with N(a) the letter count of
    ``word``; wider ones, and a single row, where the per-letter calls cost
    more than they save, come from one bincount over row*|X||Y| + a*|Y| + b.
    Every letter must lie in range (a letter >= |Y| would land in another cell).
    """
    rows, cells = outputs.shape[0], input_size * output_size
    if output_size == 2 and rows != 1:
        bits = outputs.astype(bool, copy=False)
        ones = np.stack([bits[:, word == a].sum(axis=1) for a in range(input_size)], axis=1)
        return np.stack([np.bincount(word, minlength=input_size) - ones, ones], axis=2).reshape(rows, cells)
    flat = outputs + word * output_size
    flat += (np.arange(rows) * cells)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * cells).reshape(rows, cells)


def _typical_rows(word: np.ndarray, outputs: np.ndarray, targets: np.ndarray, delta: float) -> np.ndarray:
    """Delta-typicality of (word, row) for every row of ``outputs``.

    ``targets`` holds the scaled joint pmf n*p(a,b). A row passes when its
    joint counts N(a,b) (``_joint_counts``) satisfy |N(a,b) - target| <= n*delta
    wherever the target is positive and are exactly 0 wherever it is 0 (a
    slack of 0, since counts are nonnegative).
    """
    t = targets.ravel()
    slack = np.where(t == 0.0, 0.0, outputs.shape[1] * delta + _TIE_GUARD)
    return (np.abs(_joint_counts(word, outputs, *targets.shape) - t) <= slack).all(axis=1)


def is_jointly_typical(
    x: Sequence[int] | np.ndarray,
    y: Sequence[int] | np.ndarray,
    joint_pmf: np.ndarray,
    params: TypicalityParams,
) -> bool:
    """Strong joint typicality of (x, y) with respect to ``joint_pmf``."""
    p = np.asarray(joint_pmf, dtype=float)
    if p.ndim != 2 or not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9):  # NaN fails it
        raise ValueError("joint_pmf must be a probability matrix")
    xa, ya = _aligned(x, y, p.shape[0], p.shape[1])
    return bool(_typical_rows(xa, ya[None, :], xa.size * p, params.delta)[0])


def _conditional_targets(word: np.ndarray, channel_matrix: np.ndarray) -> np.ndarray:
    """n * p(a,b) for p = type(word) x W, computed as counts[a] * W[a, b]."""
    counts = np.bincount(word, minlength=channel_matrix.shape[0]).astype(float)
    return counts[:, None] * channel_matrix


def _enumeration(
    x: Sequence[int] | np.ndarray, channel_matrix: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """x as a checked word, its targets for type(x) x W, and every output word.

    The outputs come in lexicographic blocks of |Y|^k rows, k <= 16 the most
    digits with |Y|^k <= 2^16: a block is one table of every string of k low
    digits behind the n - k high digits of the block's first index. Raises
    BudgetError when |Y|^n exceeds ``budget``.
    """
    w = np.asarray(channel_matrix, dtype=float)
    if w.ndim != 2 or not (np.all(w >= 0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)):  # NaN, inf fail it
        raise ValueError("channel_matrix must be a matrix of finite nonnegative rows summing to 1")
    word = _as_word(x, w.shape[0], "x")
    n, out_size = word.size, w.shape[1]
    total = out_size**n
    if total > budget:
        raise BudgetError(
            f"enumeration budget {budget} exceeded: |Y|^n = {out_size}^{n} = {total}"
        )
    pows = out_size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    k = max(d for d in range(min(n, 16) + 1) if out_size**d <= 1 << 16)
    low = (np.arange(out_size**k)[:, None] // pows[n - k:]) % out_size
    outputs = (
        np.concatenate((np.broadcast_to(high, (len(low), n - k)), low), axis=1)
        for high in (np.arange(0, total, len(low))[:, None] // pows[:n - k]) % out_size
    )
    return word, _conditional_targets(word, w), outputs


def enumerate_conditional_typical(
    x: Sequence[int] | np.ndarray,
    channel_matrix: np.ndarray,
    params: TypicalityParams,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> set[tuple[int, ...]]:
    """Exact set of outputs jointly typical with ``x`` for type(x) x W.

    Enumerates all |Y|^n output words (blockwise, vectorized); raises
    BudgetError when |Y|^n exceeds ``budget``.
    """
    word, targets, blocks = _enumeration(x, channel_matrix, budget)
    accepted: set[tuple[int, ...]] = set()
    for outputs in blocks:
        ok = _typical_rows(word, outputs, targets, params.delta)
        accepted.update(map(tuple, outputs[ok].tolist()))
    return accepted


def intersection_ratio(
    x1: Sequence[int] | np.ndarray,
    x2: Sequence[int] | np.ndarray,
    channel_matrix: np.ndarray,
    params: TypicalityParams,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """|G(x1) ∩ G(x2)| / |G(x1)| for conditional typical sets G.

    Both words must share one empirical type, which also makes the ratio
    symmetric in its arguments. Both sets are counted on one enumeration,
    never stored: the shared type gives both decoders the same targets.
    """
    w = np.asarray(channel_matrix, dtype=float)
    if empirical_type(x1, w.shape[0]) != empirical_type(x2, w.shape[0]):
        raise ValueError("x1 and x2 must have the same empirical type")
    word1, targets, blocks = _enumeration(x1, w, budget)
    word2 = _as_word(x2, w.shape[0], "x2")
    g1 = both = 0
    for outputs in blocks:
        ok = _typical_rows(word1, outputs, targets, params.delta)
        g1 += int(np.count_nonzero(ok))
        both += int(np.count_nonzero(ok & _typical_rows(word2, outputs, targets, params.delta)))
    if not g1:
        raise DegenerateTypicalitySetError(
            "conditional typical set of x1 is empty; increase delta"
        )
    return both / g1


def apportion_counts(pmf: Sequence[float] | np.ndarray, n: int) -> EmpiricalType:
    """Nearest n-type to ``pmf`` by largest-remainder apportionment.

    Floors n*p and hands the leftover units to the largest fractional parts,
    ties going to the lowest letter index.
    """
    p = np.asarray(pmf, dtype=float)
    if p.ndim != 1 or not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9):  # NaN fails it
        raise ValueError("pmf must be a probability vector")
    if n < 0:
        raise ValueError("n must be nonnegative")
    scaled = n * p
    counts = np.floor(scaled + _TIE_GUARD).astype(np.int64)
    short = n - int(counts.sum())
    if short < 0:
        # the tie guard can overshoot only when n*p sits on an integer; undo
        order = np.argsort(scaled - counts, kind="stable")
        for i in order[:-short]:
            counts[i] -= 1
    elif short > 0:
        frac = scaled - counts
        order = sorted(range(p.size), key=lambda i: (-frac[i], i))
        for i in order[:short]:
            counts[i] += 1
    return EmpiricalType(tuple(int(c) for c in counts), n)
