"""Channel models: finite DMCs with input costs, and the power-constrained AWGN channel.

A DMC carries a per-letter cost vector and an average-cost ceiling. Channels
whose transition matrix contains identical rows are handled through
``reduce_channel``, which merges duplicate rows and keeps the cheapest letter
of each class as its representative; replacing letters by their representatives
changes nothing an output observer (or decoder) can see, so error quantities
computed on the reduced channel match the original ones exactly. DMC outputs
are drawn by inverse cdf through an exact guide table (``_transmit_rows``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InfeasibleConstraintError
from .typicality import _TIE_GUARD, _as_word

# Two rows are the same letter "seen from the output" when they agree entrywise
# to this tolerance.
ROW_MERGE_TOL = 1e-12

_GUIDE_CELLS = 2**12  # cells of [0, 1) a letter in the DMC sampler's guide table


def _budget(n: int, limit: float) -> float:
    """The most a block of n letters may cost under the mean per-letter ceiling ``limit``."""
    return n * limit + _TIE_GUARD


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dmc:
    """Discrete memoryless channel with an input-cost constraint.

    matrix is row-stochastic (input_size x output_size); cost is the
    nonnegative per-letter cost vector; constraint is the average-cost ceiling.
    A ceiling above the maximum letter cost is clamped (recorded in notes);
    a ceiling below the minimum letter cost leaves no usable input and is
    rejected. Instances are immutable.
    """

    matrix: np.ndarray
    cost: np.ndarray
    constraint: float
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("matrix must be a nonempty 2-D array")
        if not (np.isfinite(mat).all() and (mat >= -1e-12).all()):
            raise ValueError("matrix entries must be finite and nonnegative")
        mat = np.clip(mat, 0.0, None)
        row_sums = mat.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise ValueError("matrix rows must sum to 1 within 1e-12")
        cost = np.asarray(self.cost, dtype=np.float64)
        if cost.shape != (mat.shape[0],):
            raise ValueError("cost must have one entry per input letter")
        if not (np.isfinite(cost).all() and (cost >= 0).all()):
            raise ValueError("letter costs must be finite and nonnegative")
        notes = tuple(self.notes)
        a = float(self.constraint)
        if not math.isfinite(a):
            raise ValueError("constraint must be finite")
        cmin = float(cost.min())
        cmax = float(cost.max())
        if a < cmin:
            raise InfeasibleConstraintError(
                f"constraint {a} is below the cheapest letter cost {cmin}; no input is usable"
            )
        if a > cmax:
            notes += (f"constraint {a} clamped to the maximum letter cost {cmax}",)
            a = cmax
        if cmin > 0.0:
            notes += ("no zero-cost letter; cheapest letter costs " + repr(cmin),)
        object.__setattr__(self, "matrix", _freeze(mat))
        object.__setattr__(self, "cost", _freeze(cost))
        object.__setattr__(self, "constraint", a)
        object.__setattr__(self, "notes", notes)

    @property
    def input_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]

    @functools.cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The sampler's ``_guide_table(matrix)``, built at most once per channel."""
        return _guide_table(self.matrix)


@dataclass(frozen=True)
class ReductionMap:
    """Letter-to-class assignment produced by ``reduce_channel``.

    class_of[x] is the reduced-letter index of original letter x;
    representative[c] is the original letter whose row represents class c.
    """

    class_of: tuple[int, ...]
    representative: tuple[int, ...]

    def __post_init__(self):
        if sorted(set(self.class_of)) != list(range(len(self.representative))):
            raise ValueError("class indices must be 0..k-1 and all used")
        for c, rep in enumerate(self.representative):
            if self.class_of[rep] != c:
                raise ValueError("representative letters must belong to their class")


@dataclass(frozen=True)
class GaussChannel:
    """Additive white Gaussian noise channel with a block power constraint.

    sigma2 is the per-symbol noise variance; power bounds the average input
    energy: a block x of length n must satisfy ||x||^2 <= n * power.
    """

    sigma2: float
    power: float

    def __post_init__(self):
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be a positive finite number")
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError("power must be a positive finite number")


def bsc(crossover: float, cost: Sequence[float] = (0.0, 1.0), constraint: float = 1.0) -> Dmc:
    """Binary symmetric channel with flip probability ``crossover``."""
    if not 0.0 <= crossover <= 1.0:
        raise ValueError("crossover must lie in [0, 1]")
    p = float(crossover)
    matrix = np.array([[1.0 - p, p], [p, 1.0 - p]])
    return Dmc(matrix=matrix, cost=np.asarray(cost, dtype=float), constraint=constraint)


def reduce_channel(channel: Dmc) -> tuple[Dmc, ReductionMap]:
    """Merge duplicate rows; representative = cheapest letter (ties: lowest index).

    Classes are numbered by first occurrence, so reduction is deterministic and
    idempotent: reducing a reduced channel yields the identity map.
    """
    mat = channel.matrix
    cost = channel.cost
    class_rows: list[np.ndarray] = []
    class_of: list[int] = []
    members: list[list[int]] = []
    for x in range(channel.input_size):
        row = mat[x]
        for c, ref in enumerate(class_rows):
            if np.all(np.abs(row - ref) <= ROW_MERGE_TOL):
                class_of.append(c)
                members[c].append(x)
                break
        else:
            class_of.append(len(class_rows))
            class_rows.append(row)
            members.append([x])
    reps: list[int] = []
    for group in members:
        best = min(group, key=lambda x: (cost[x], x))
        reps.append(best)
    reduced = Dmc(
        matrix=mat[reps].copy(),
        cost=cost[list(reps)].copy(),
        constraint=channel.constraint,
    )
    return reduced, ReductionMap(tuple(class_of), tuple(reps))


def transmit_dmc(channel: Dmc, codeword: Sequence[int] | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one channel output block for ``codeword`` (inverse-cdf per symbol)."""
    word = _as_word(codeword, channel.input_size, "codeword")
    return _transmit_rows(channel._guide, word, rng.random((1, word.size)))[0].astype(np.int64)


def _guide_table(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The cumulative rows less their last entry, and (None for binary outputs)
    the guide table: entry a·K + g, K = _GUIDE_CELLS, is the output of input a
    for every u in [g/K, (g+1)/K), or -1 if a threshold of row a lies inside."""
    cum = np.cumsum(matrix, axis=1)[:, :-1]
    if cum.shape[1] == 1:
        return cum, None
    grid = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
    lo = np.array([np.searchsorted(c, grid[:-1], "right") for c in cum], dtype=np.int32)
    hi = np.array([np.searchsorted(c, grid[1:], "left") for c in cum], dtype=np.int32)
    return cum, np.where(lo == hi, lo, -1).ravel()


def _transmit_rows(guide: tuple, word: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One output block for ``word`` per row of the uniforms ``u`` (rows x n;
    ``rng.random((rows, n))`` replays ``rows`` calls of ``transmit_dmc``): each output
    counts the thresholds c <= u of its letter's cumulative row, read from
    ``_guide_table`` (Chen and Asau; Devroye 1986, §III.2). This is exact: u is
    a multiple of 2^-53, so u·K and its floor g are exact, and a cumulative row
    of finite nonnegative entries never decreases, so the count lies between
    #{c <= g/K} and #{c < (g+1)/K}; cells where these differ (at most |Y|-1 a
    letter) fall back to counting. Binary outputs keep the faster comparison.
    The outputs stay narrow: bool for binary outputs, else int32."""
    cum, table = guide
    if table is None:
        return cum[word, 0] <= u
    out = table.take((u * _GUIDE_CELLS).astype(np.int32) + word.astype(np.int32) * _GUIDE_CELLS)
    miss = np.flatnonzero(out < 0)
    out.flat[miss] = (cum[word[miss % word.size]] <= u.flat[miss][:, None]).sum(axis=1)
    return out


def transmit_gauss(channel: GaussChannel, codeword: Sequence[float] | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise to a power-feasible input block."""
    x = np.asarray(codeword, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("codeword must be a nonempty vector")
    energy = float(x @ x)
    if not energy <= _budget(x.size, channel.power):  # NaN fails it
        raise ValueError(
            f"codeword energy {energy} exceeds the power budget {channel.power * x.size}"
        )
    return x + math.sqrt(channel.sigma2) * rng.standard_normal(x.size)


def input_cost(channel: Dmc, codeword: Sequence[int] | np.ndarray) -> float:
    """Average per-letter cost of ``codeword``."""
    word = _as_word(codeword, channel.input_size, "codeword")
    if word.size == 0:
        raise ValueError("codeword must be nonempty")
    return float(channel.cost[word].mean())


def dmc_to_dict(channel: Dmc) -> dict:
    return {
        "input_size": channel.input_size,
        "output_size": channel.output_size,
        "matrix": channel.matrix.tolist(),
        "cost": channel.cost.tolist(),
        "constraint": channel.constraint,
    }


def dmc_from_dict(data: dict) -> Dmc:
    matrix = np.asarray(data["matrix"], dtype=float)
    sizes = _as_word([data["input_size"], data["output_size"]], math.inf, "input_size/output_size", unit="size")
    if matrix.shape != tuple(sizes):
        raise ValueError("matrix shape disagrees with input_size/output_size")
    return Dmc(matrix=matrix, cost=np.asarray(data["cost"], dtype=float), constraint=float(data["constraint"]))


def gauss_to_dict(channel: GaussChannel) -> dict:
    return {"sigma2": channel.sigma2, "power": channel.power}


def gauss_from_dict(data: dict) -> GaussChannel:
    return GaussChannel(sigma2=float(data["sigma2"]), power=float(data["power"]))
