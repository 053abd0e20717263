"""Lattice discretization of the Gaussian input and channel.

A real value is mapped to the lattice {k * step : |k| <= J} by rounding
toward zero and clipping at the extreme points. Rounding toward zero never
increases magnitude, so the quantized input satisfies every power constraint
the original did, and the quantizer commutes with sign flips, keeping the
discrete law symmetric.

The induced input pmf of X ~ N(0, power) puts 2 * Phi(step / sd) - 1 on the
origin (both half-open cells around zero), ordinary cell differences on the
interior points, and the full Gaussian tails on +-J * step. As step -> 0
(with J * step fixed and large), the discrete entropy H satisfies
H + log2(step) -> (1/2) * log2(2 * pi * e * power), the differential entropy
of the input; that defect is the convergence diagnostic this module exposes.

Passing the quantized input through the Gaussian noise channel and quantizing
the output yields an honest constrained DMC: transition rows are again cdf
differences, the cost of input k * step is its power (k * step)^2, and the
cost ceiling is the original power budget. The output lattice is widened
beyond the input one (default by ceil(4 * sigma / step) cells) so noise
rarely saturates the clip, which keeps distinct input rows distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .capacity import entropy_bits
from .channels import Dmc
from .errors import _MAX_BUILD_BYTES, BudgetError, _refuse_over_budget

# Two rows closer than this (sup norm) are flagged as indistinguishable.
ROW_DISTINCT_TOL = 1e-9


def _positive(**values: float) -> None:
    """Refuse a non-finite or non-positive sigma2, power or step, by name."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")


def _half_width(j: int, name: str = "J") -> int:
    """The half-width J as an int if a whole number at least 1; else (0.5, 0, -3, NaN, inf) ValueError."""
    if not (isinstance(j, (int, float, np.integer, np.floating)) and j >= 1 and j % 1 == 0):
        raise ValueError(f"{name} must be a whole number at least 1")
    return int(j)


def lattice(step: float, j: int) -> np.ndarray:
    """The 2J+1 lattice values -J*step .. J*step in increasing order."""
    _positive(step=step)
    j = _half_width(j)
    return step * np.arange(-j, j + 1, dtype=np.float64)


def discretize_value(x: float, step: float, j: int) -> float:
    """Round toward zero to the lattice, clipping at +-J*step.

    The four cases: clip high, round down a nonnegative value, round up a
    negative value, clip low.
    """
    _positive(step=step)
    hi = _half_width(j) * step
    if x >= hi:
        return hi
    if x <= -hi:
        return -hi
    if x >= 0.0:
        return math.floor(x / step) * step
    return -math.floor(-x / step) * step


def _cell_edges(step: float, j: int) -> np.ndarray:
    """Boundaries of the quantizer cells, one partition of the real line.

    Cells in lattice order: (-inf, -J*step], then ((k-1)*step, k*step] for
    k = -J+1 .. -1, then (-step, step) for k = 0, then [k*step, (k+1)*step)
    for k = 1 .. J-1, then [J*step, inf). Closures carry no probability for
    continuous laws, so edges alone determine every cell mass.
    """
    grid = lattice(step, j)  # the edges are the lattice without its middle point 0
    return np.concatenate(([-np.inf], grid[:j], grid[j + 1:], [np.inf]))


def _cell_probabilities(means: np.ndarray, sd: float, step: float, j: int) -> np.ndarray:
    """Masses of all 2J+1 cells under N(mean, sd^2), one row per mean, by telescoping cdf differences.

    The analytic total of a row is exactly 1; its leftover float dust (well
    below 1e-12) is folded into the row's largest cell so downstream
    row-stochasticity checks never trip on summation noise.
    """
    from scipy.special import ndtr  # loads at the first discretization, not at import
    p = np.diff(ndtr((_cell_edges(step, j) - np.reshape(means, (-1, 1))) / sd), axis=1)
    p[np.arange(len(p)), p.argmax(axis=1)] += 1.0 - p.sum(axis=1)
    return p


def input_pmf(power: float, step: float, j: int) -> np.ndarray:
    """pmf of the quantized input discretize(X) for X ~ N(0, power)."""
    _positive(power=power, step=step)
    return _cell_probabilities(np.zeros(1), math.sqrt(power), step, _half_width(j))[0]


def discretized_entropy(power: float, step: float, j: int) -> float:
    """Entropy in bits of the quantized N(0, power) input."""
    return entropy_bits(input_pmf(power, step, j))


def gaussian_differential_entropy(power: float) -> float:
    """(1/2) log2(2 pi e power), the small-step limit of H + log2(step)."""
    _positive(power=power)
    return 0.5 * math.log2(2.0 * math.pi * math.e * power)


def entropy_defect(power: float, step: float, j: int) -> float:
    """H(quantized input) + log2(step) minus its differential-entropy limit."""
    return discretized_entropy(power, step, j) + math.log2(step) - gaussian_differential_entropy(power)


@dataclass(frozen=True, eq=False)
class DiscretizedChannel:
    """A Gaussian channel quantized on both ends, packaged as a costed DMC.

    channel.matrix rows follow the input lattice order; channel.cost is the
    per-letter power (k*step)^2 with the original power budget as ceiling.
    min_row_gap is the smallest sup-norm distance between any two checked
    rows (all pairs for small lattices, adjacent pairs otherwise); rows_distinct
    records whether it clears ROW_DISTINCT_TOL.
    """

    step: float
    input_j: int
    output_j: int
    power: float
    sigma2: float
    input_support: np.ndarray
    output_support: np.ndarray
    input_probabilities: np.ndarray
    channel: Dmc
    min_row_gap: float
    rows_distinct: bool


def default_output_j(input_j: int, sigma2: float, step: float) -> int:
    """Widen the output lattice by ceil(4 sigma / step) cells beyond the input's;
    BudgetError when that count overflows a float."""
    _positive(sigma2=sigma2, step=step)
    cells = 4.0 * math.sqrt(sigma2) / step
    if not math.isfinite(cells):
        raise BudgetError(f"memory budget of {_MAX_BUILD_BYTES} bytes exceeded: step {step:g} needs {cells} output cells")
    return _half_width(input_j, "input_j") + int(math.ceil(cells))


def to_dmc(
    sigma2: float,
    power: float,
    step: float,
    input_j: int,
    output_j: int | None = None,
    pair_check_limit: int = 512,
) -> DiscretizedChannel:
    """Build the discretized channel: quantized inputs, noise, quantized output.

    Row k of the matrix is the cell-mass vector of N(k*step, sigma2) on the
    output lattice. Row distinctness is verified exhaustively when the input
    lattice has at most pair_check_limit points and on adjacent rows (the
    closest rows, including the saturating extremes) otherwise.
    """
    _positive(sigma2=sigma2, power=power, step=step)
    input_j = _half_width(input_j, "input_j")
    output_j = default_output_j(input_j, sigma2, step) if output_j is None else _half_width(output_j, "output_j")
    if output_j < input_j:
        raise ValueError("output lattice must be at least as wide as the input lattice")
    need = 32 * (2 * input_j + 1) * (2 * output_j + 1)  # four float64 copies of the matrix at the peak
    _refuse_over_budget(need, f"a {Decimal(2 * input_j + 1):.4g} x {Decimal(2 * output_j + 1):.4g} channel")
    inp = lattice(step, input_j)
    out = lattice(step, output_j)
    rows = _cell_probabilities(inp, math.sqrt(sigma2), step, output_j)

    k = inp.size
    if k <= pair_check_limit:
        gap = math.inf
        for a in range(k - 1):
            gap = min(gap, float(np.abs(rows[a + 1 :] - rows[a]).max(axis=1).min()))
    else:
        gap = float(np.abs(np.diff(rows, axis=0)).max(axis=1).min())

    cost = inp * inp
    channel = Dmc(matrix=rows, cost=cost, constraint=power)
    return DiscretizedChannel(
        step=step,
        input_j=input_j,
        output_j=output_j,
        power=power,
        sigma2=sigma2,
        input_support=inp,
        output_support=out,
        input_probabilities=input_pmf(power, step, input_j),
        channel=channel,
        min_row_gap=gap,
        rows_distinct=bool(gap > ROW_DISTINCT_TOL),
    )
