"""Input/channel discretization tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from di_codes import (
    DiscretizedChannel,
    default_output_j,
    di_capacity,
    discretize_value,
    discretized_entropy,
    entropy_defect,
    gaussian_differential_entropy,
    input_pmf,
    lattice,
    to_dmc,
)
from di_codes.discretize import _cell_edges, _cell_probabilities


# --- quantizer ---


def test_discretize_value_rounds_toward_zero():
    assert discretize_value(0.6, 0.5, 4) == 0.5
    assert discretize_value(-0.6, 0.5, 4) == -0.5
    assert discretize_value(0.2, 0.5, 4) == 0.0
    assert discretize_value(-0.2, 0.5, 4) == 0.0
    assert discretize_value(0.5, 0.5, 4) == 0.5
    assert discretize_value(-0.5, 0.5, 4) == -0.5


def test_discretize_value_clips_at_extremes():
    assert discretize_value(7.3, 0.5, 4) == 2.0
    assert discretize_value(-7.3, 0.5, 4) == -2.0
    assert discretize_value(2.0, 0.5, 4) == 2.0


def test_discretize_value_never_grows_magnitude():
    rng = np.random.default_rng(17)
    for x in rng.normal(0, 2, 500):
        q = discretize_value(float(x), 0.3, 5)
        assert abs(q) <= abs(x) + 1e-15
        assert q == -discretize_value(float(-x), 0.3, 5)


def test_lattice_layout():
    np.testing.assert_allclose(lattice(0.5, 2), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        lattice(0.0, 2)
    with pytest.raises(ValueError):
        lattice(0.5, 0)


# One rule for the half-width J: a whole number at least 1. Fractions once
# built off-lattice points (lattice(0.5, 1.5) gave +-0.25, +-0.75) and pmfs
# of the wrong length; 0 and negatives gave input_pmf [1.0].
BAD_J = [1.5, 0, -3, 0.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("j", BAD_J)
@pytest.mark.parametrize("call", [
    lambda j: lattice(0.5, j),
    lambda j: discretize_value(10.0, 0.5, j),
    lambda j: input_pmf(1.0, 0.5, j),
    lambda j: discretized_entropy(1.0, 0.5, j),
    lambda j: entropy_defect(1.0, 0.5, j),
], ids=["lattice", "discretize_value", "input_pmf", "discretized_entropy", "entropy_defect"])
def test_half_width_refuses_all_but_whole_numbers_at_least_one(call, j):
    with pytest.raises(ValueError, match="J must be a whole number at least 1"):
        call(j)


@pytest.mark.parametrize("j", BAD_J + [2.5, 3.5])
def test_to_dmc_refuses_a_fractional_or_non_positive_half_width(j):
    # input_j=2.5 once built 6 letters at +-0.25, +-0.75, +-1.25 with output_j
    # 10.5, and output_j=3.5 nine output cells shifted by half a step
    with pytest.raises(ValueError, match="input_j must be a whole number at least 1"):
        to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=j)
    with pytest.raises(ValueError, match="input_j must be a whole number at least 1"):
        default_output_j(j, 1.0, 0.5)
    with pytest.raises(ValueError, match="output_j must be a whole number at least 1"):
        to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=2, output_j=j)


@pytest.mark.parametrize("j", [np.int32(3), np.int64(3), np.uint8(3), 3.0, np.float32(3.0)])
def test_half_width_takes_numpy_ints_and_integral_floats(j):
    assert lattice(0.5, j).tobytes() == lattice(0.5, 3).tobytes()
    assert discretize_value(10.0, 0.5, j) == discretize_value(10.0, 0.5, 3) == 1.5
    assert input_pmf(1.0, 0.5, j).tobytes() == input_pmf(1.0, 0.5, 3).tobytes()
    assert default_output_j(j, 1.0, 0.5) == default_output_j(3, 1.0, 0.5)
    dc, ref = to_dmc(1.0, 1.0, 0.5, j, output_j=j + 5), to_dmc(1.0, 1.0, 0.5, 3, output_j=8)
    assert (dc.input_j, dc.output_j) == (3, 8) and type(dc.input_j) is int
    assert dc.channel.matrix.tobytes() == ref.channel.matrix.tobytes()
    assert dc.input_probabilities.tobytes() == ref.input_probabilities.tobytes()


# --- cell masses ---


def test_cell_probabilities_match_quadrature():
    step, j, mean, sd = 0.4, 5, 0.7, 1.3
    p = _cell_probabilities([mean], sd, step, j)[0]
    edges = _cell_edges(step, j)
    assert p.size == 2 * j + 1
    for k in range(p.size):
        lo, hi = edges[k], edges[k + 1]
        lo = mean - 12 * sd if not np.isfinite(lo) else lo
        hi = mean + 12 * sd if not np.isfinite(hi) else hi
        mass, _ = quad(lambda t: norm.pdf(t, mean, sd), lo, hi, epsabs=1e-14)
        assert abs(p[k] - mass) < 1e-12


def test_cell_probabilities_sum_exactly_one():
    for mean, sd, step, j in [(0.0, 1.0, 0.1, 20), (2.5, 0.3, 0.05, 100), (-1.0, 2.0, 1.0, 3)]:
        p = _cell_probabilities([mean], sd, step, j)[0]
        assert float(p.sum()) == 1.0
        assert p.min() >= 0.0


def test_input_pmf_is_symmetric():
    p = input_pmf(1.0, 0.25, 8)
    np.testing.assert_allclose(p, p[::-1], atol=1e-15)
    # origin cell holds both half-open cells around zero
    assert p[8] == pytest.approx(2.0 * norm.cdf(0.25) - 1.0, abs=1e-12)
    # extreme cells hold the full tails
    assert p[0] == pytest.approx(norm.cdf(-2.0), abs=1e-12)


# --- entropy limit ---


def test_differential_entropy_frozen():
    assert gaussian_differential_entropy(1.0) == pytest.approx(2.047095585180641, abs=1e-12)
    assert gaussian_differential_entropy(4.0) == pytest.approx(
        2.047095585180641 + 1.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        gaussian_differential_entropy(0.0)


def test_entropy_defect_shrinks_with_step():
    defects = [abs(entropy_defect(1.0, 2.0**-k, 8 * 2**k)) for k in range(4, 9)]
    assert all(a > b for a, b in zip(defects, defects[1:]))
    assert defects[-1] < 0.05


def test_entropy_matches_direct_formula():
    p = input_pmf(1.0, 0.5, 6)
    direct = -sum(v * math.log2(v) for v in p if v > 0)
    assert discretized_entropy(1.0, 0.5, 6) == pytest.approx(direct, abs=1e-12)


# --- induced DMC ---


def test_to_dmc_shapes_and_cost():
    dc = to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=3)
    assert isinstance(dc, DiscretizedChannel)
    assert dc.output_j == default_output_j(3, 1.0, 0.5)
    assert dc.output_j == 3 + math.ceil(4.0 / 0.5)
    k_in, k_out = 2 * 3 + 1, 2 * dc.output_j + 1
    assert dc.channel.matrix.shape == (k_in, k_out)
    np.testing.assert_allclose(dc.channel.cost, (0.5 * np.arange(-3, 4)) ** 2, atol=1e-15)
    assert dc.channel.constraint == 1.0
    assert dc.rows_distinct
    assert dc.min_row_gap > 1e-9
    sums = dc.channel.matrix.sum(axis=1)
    assert all(float(s) == 1.0 for s in sums)


def test_to_dmc_rows_are_shifted_gaussians():
    dc = to_dmc(sigma2=0.5, power=1.0, step=0.4, input_j=2)
    for idx, x in enumerate(dc.input_support):
        expected = _cell_probabilities([x], math.sqrt(0.5), 0.4, dc.output_j)[0]
        np.testing.assert_allclose(dc.channel.matrix[idx], expected, atol=0)


def _rows_one_mean_at_a_time(means, sd, step, j):
    """The cell masses computed one mean at a time, each row's dust folded into its own largest cell."""
    rows = []
    for mean in means:
        p = np.diff(ndtr((_cell_edges(step, j) - mean) / sd))
        p[np.argmax(p)] += 1.0 - float(p.sum())
        rows.append(p)
    return np.stack(rows)


@given(
    sigma2=st.sampled_from([0.01, 0.3, 1.0, 2.5, 17.0]) | st.floats(0.01, 20.0),
    step=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0, 1.7]) | st.floats(0.05, 2.0),
    input_j=st.sampled_from([1, 2, 4, 9, 30, 60]) | st.integers(1, 60),
    widen=st.sampled_from([None, 0, 1, 5]),
    power=st.sampled_from([0.3, 1.0, 4.0]),
)
def test_to_dmc_equals_the_table_built_one_row_at_a_time(sigma2, step, input_j, widen, power):
    # One cdf table over all means must give every row, dust included, bit for bit.
    dc = to_dmc(sigma2, power, step, input_j, None if widen is None else input_j + widen)
    expected = _rows_one_mean_at_a_time(dc.input_support, math.sqrt(sigma2), step, dc.output_j)
    assert np.array_equal(dc.channel.matrix, expected)
    assert np.array_equal(dc.input_probabilities, _rows_one_mean_at_a_time([0.0], math.sqrt(power), step, input_j)[0])


def test_quantized_input_power_within_budget():
    dc = to_dmc(sigma2=1.0, power=1.0, step=0.25, input_j=8)
    mean_power = float(np.dot(dc.input_probabilities, dc.channel.cost))
    assert mean_power <= 1.0 + 1e-12


def test_capacity_runs_on_discretized_channel():
    dc = to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=4)
    res = di_capacity(dc.channel)
    assert 0.0 < res.value_bits <= math.log2(dc.channel.input_size)


def test_to_dmc_validation():
    with pytest.raises(ValueError):
        to_dmc(sigma2=0.0, power=1.0, step=0.5, input_j=3)
    with pytest.raises(ValueError):
        to_dmc(sigma2=1.0, power=0.0, step=0.5, input_j=3)
    with pytest.raises(ValueError):
        to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=3, output_j=2)


def test_adjacent_row_check_agrees_on_small_lattice():
    full = to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=5)
    adj = to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=5, pair_check_limit=1)
    # adjacent rows are the closest pair here, so the shortcut finds the same gap
    assert adj.min_row_gap == pytest.approx(full.min_row_gap, abs=1e-15)
