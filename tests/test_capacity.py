"""Capacity, converse counting, and overlap-decay estimation tests.

The Gibbs maximizer is cross-checked against an independent root-finding
oracle (scipy brentq on the cost-moment equation) rather than against the
implementation's own bisection.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from di_codes import (
    BudgetError,
    Dmc,
    InfeasibleConstraintError,
    balanced_type,
    bsc,
    bsc_capacity_curve,
    converse_count,
    di_capacity,
    entropy_bits,
    error_exponent_bounds,
    estimate_L,
    gaussian_rate_bound,
    max_entropy_pmf,
    min_same_type_distance,
    reduce_channel,
    same_type_pair,
)
from di_codes import capacity
from di_codes.typicality import empirical_type, hamming_distance


def gibbs_oracle(cost, limit):
    """Independent solve of E_p[cost] = limit for p ∝ 2^(-lam*cost)."""
    cost = np.asarray(cost, dtype=float)

    def excess(lam):
        w = 2.0 ** (-lam * (cost - cost.min()))
        p = w / w.sum()
        return float(p @ cost) - limit

    lam = brentq(excess, 0.0, 500.0, xtol=1e-14)
    w = 2.0 ** (-lam * (cost - cost.min()))
    p = w / w.sum()
    return lam, p


def test_matches_independent_gibbs_oracle():
    cost = (0.0, 1.0, 4.0)
    res = max_entropy_pmf(cost, 0.5)
    lam, p = gibbs_oracle(cost, 0.5)
    assert res.lagrange_multiplier == pytest.approx(lam, abs=1e-10)
    np.testing.assert_allclose(res.maximizer, p, atol=1e-10)
    assert res.value_bits == pytest.approx(entropy_bits(p), abs=1e-12)
    assert res.binding


def test_frozen_gibbs_case():
    res = max_entropy_pmf((0.0, 1.0, 4.0), 0.5)
    assert res.value_bits == pytest.approx(1.1434689788772385, abs=1e-12)
    assert res.lagrange_multiplier == pytest.approx(0.9616801172087828, abs=1e-10)


def test_loose_constraint_gives_uniform():
    res = max_entropy_pmf((0.0, 1.0, 2.0), 1.0)
    assert res.value_bits == math.log2(3)
    assert res.lagrange_multiplier == 0.0
    assert not res.binding
    np.testing.assert_allclose(res.maximizer, np.full(3, 1 / 3))


def test_constraint_at_cheapest_cost_pins_to_argmin_letters():
    res = max_entropy_pmf((1.0, 1.0, 3.0), 1.0)
    assert res.value_bits == 1.0
    assert math.isinf(res.lagrange_multiplier)
    np.testing.assert_allclose(res.maximizer, [0.5, 0.5, 0.0])


def test_constraint_below_cheapest_cost_raises():
    with pytest.raises(InfeasibleConstraintError):
        max_entropy_pmf((1.0, 2.0), 0.5)


def test_bisection_refuses_a_nan_residual(monkeypatch):
    # Non-finite costs and limits are refused at entry.
    for cost, limit in (((0.0, 1.0), math.nan), ((0.0, math.nan, 1.0), 0.5), ((0.0, math.inf), 0.5)):
        with pytest.raises(ValueError, match="finite"):
            max_entropy_pmf(cost, limit)
    # Every comparison with NaN is False, so only "not (gap <= tol)" catches a
    # NaN residual from inside the bisection.
    monkeypatch.setattr("di_codes.capacity._gibbs_pmf", lambda cost, lam: np.full(cost.size, math.nan))
    with pytest.raises(RuntimeError, match="residual nan"):
        max_entropy_pmf((0.0, 1.0), 0.3)


def _capped_bisection(c, limit):
    """The solver's two loops before they ended on their own: 200 doublings at most, then
    200 halvings, whatever the bracket. Kept as the reference the new loops must replay."""
    def expected(lam):
        return float(capacity._gibbs_pmf(c, lam) @ c)

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
    return 0.5 * (lo + hi)


def test_bisection_replays_the_capped_loops_bit_for_bit():
    # Wherever the capped reference's lambda stays below 2^200, the loops that
    # end at bracket exhaustion give the same lambda, maximizer and value.
    rng = np.random.default_rng(20)
    compared = 0
    for _ in range(300):
        k = int(rng.integers(2, 10))
        cost = rng.uniform(0, 1, k) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.4:  # ties at the minimum
            cost[rng.choice(k, int(rng.integers(2, k)) if k > 2 else 1, replace=False)] = cost.min()
        limit = float(cost.min() + rng.random() * (cost.mean() - cost.min()))
        if not cost.min() < limit < cost.mean():
            continue
        lam = _capped_bisection(cost, limit)
        assert lam < 2.0**200
        p = capacity._gibbs_pmf(cost, lam)
        res = max_entropy_pmf(cost, limit)
        assert res.binding and res.lagrange_multiplier == lam
        assert res.maximizer.tobytes() == p.tobytes() and res.value_bits == entropy_bits(p)
        compared += 1
    assert compared > 250


def test_bisection_is_not_capped():
    # lambda* = log2(9) * 1e100 > 2^200: the capped loops stopped at 2^200 and
    # returned the uniform pmf (mean cost 5e-101 > 1e-101) and 1.0 bit, which
    # the absolute 1e-10 residual check let through.
    res = max_entropy_pmf([0.0, 1e-100], 1e-101)
    np.testing.assert_allclose(res.maximizer, [0.9, 0.1], rtol=1e-12)
    assert res.value_bits == pytest.approx(0.4690, abs=1e-4)
    assert res.value_bits == pytest.approx(entropy_bits([0.9, 0.1]), rel=1e-12)
    assert res.lagrange_multiplier == pytest.approx(math.log2(9) * 1e100, rel=1e-12)
    assert _capped_bisection(np.array([0.0, 1e-100]), 1e-101) == 2.0**200


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_residual_check_fails_at_every_cost_scale(scale, monkeypatch):
    # An expectation that jumps over the limit at lambda = 3 leaves a residual
    # of a fifth or three tenths of the largest cost at any scale; an absolute
    # tolerance of 1e-10 missed it below costs of 1e-10.
    monkeypatch.setattr(capacity, "_gibbs_pmf", lambda c, lam: np.array([0.5, 0.5] if lam < 3.0 else [1.0, 0.0]))
    with pytest.raises(RuntimeError, match=r"relative residual 0\.[23]"):
        max_entropy_pmf([0.0, scale], 0.3 * scale)


def test_estimate_L_refuses_an_infinite_delta():
    # delta = inf makes every output typical: a ratio of 1 and a rate of 0.0.
    with pytest.raises(ValueError, match="finite"):
        estimate_L(bsc(0.1), 0.1, math.inf, [6, 8])


def test_constraint_is_met_and_entropy_maximal():
    rng = np.random.default_rng(17)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        cost = np.sort(rng.uniform(0, 3, k))
        limit = float(rng.uniform(cost.min(), cost.mean()))
        res = max_entropy_pmf(cost, limit)
        assert float(res.maximizer @ cost) <= limit + 1e-9
        # no feasible competitor does better
        for _ in range(20):
            q = rng.dirichlet(np.ones(k))
            if float(q @ cost) <= limit:
                assert entropy_bits(q) <= res.value_bits + 1e-9


def test_di_capacity_bsc_closed_forms():
    assert di_capacity(bsc(0.1, constraint=0.25)).value_bits == pytest.approx(
        0.8112781244591328, abs=1e-12
    )
    assert di_capacity(bsc(0.1, constraint=0.3)).value_bits == pytest.approx(
        0.8812908992306927, abs=1e-12
    )
    assert di_capacity(bsc(0.1, constraint=1.0)).value_bits == 1.0


def test_di_capacity_sees_only_distinct_rows():
    m = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.1]])
    ch = Dmc(matrix=m, cost=(0.0, 0.0, 0.0, 0.0), constraint=0.0)
    assert di_capacity(ch).value_bits == 1.0
    assert di_capacity(bsc(0.5)).value_bits == 0.0


@given(
    rows=st.lists(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3), min_size=1, max_size=4),
    copies=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    costs=st.lists(st.floats(0.0, 10.0), min_size=8, max_size=8),
    slack=st.floats(0.0, 1.0),
)
def test_reduction_keeps_the_cheapest_letter(rows, copies, costs, slack):
    # Dmc refuses a constraint below its cheapest letter and reduction keeps
    # the cheapest letter of every class, so the reduced channel can always
    # meet its constraint and di_capacity raises nothing.
    base = np.asarray(rows) / np.sum(rows, axis=1, keepdims=True)
    matrix = np.concatenate([base, base[[c % len(rows) for c in copies]]])
    cost = np.asarray(costs[: matrix.shape[0]])
    channel = Dmc(matrix=matrix, cost=cost, constraint=cost.min() + slack * (cost.max() - cost.min()))
    reduced, _ = reduce_channel(channel)
    assert reduced.cost.min() == cost.min()
    assert reduced.constraint >= reduced.cost.min()
    assert di_capacity(channel).maximizer.size == reduced.input_size


def test_bsc_capacity_curve_shape():
    curve = bsc_capacity_curve(0.1, [0.0, 0.25, 0.5, 0.9])
    assert curve[0] == (0.0, 0.0)
    assert curve[1][1] == pytest.approx(0.8112781244591328)
    assert curve[2][1] == 1.0 and curve[3][1] == 1.0
    assert all(v == 0.0 for _, v in bsc_capacity_curve(0.5, [0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        bsc_capacity_curve(0.7, [0.5])


def test_gaussian_rate_bound_values():
    # The rate the packing certifies, log2(r1 / 2r0), not (1/2)log2(P/eps) - 1 above it.
    assert gaussian_rate_bound(1.0, 0.01) == pytest.approx(math.log2(9.0) - 1.0)  # 2.170, not 2.322
    assert gaussian_rate_bound(1.0, 0.25) == pytest.approx(-1.0)  # not 0
    assert gaussian_rate_bound(2.0, 0.3) == pytest.approx(-0.33826052510639)  # not 0.368
    assert gaussian_rate_bound(1.0, 0.0025) == pytest.approx(math.log2(19.0) - 1.0)  # 3.248, not 3.322
    with pytest.raises(ValueError):
        gaussian_rate_bound(1.0, 0.0)


# --- converse counting ---


def test_converse_count_binary_brute_force():
    ch = bsc(0.1, cost=(0.0, 1.0), constraint=0.3)
    count, bound = converse_count(ch, 10)
    assert count == 176  # C(10,0)+C(10,1)+C(10,2)+C(10,3)
    assert math.log2(count) <= bound


def test_converse_count_ternary_brute_force():
    mat = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
    ch = Dmc(matrix=mat, cost=(0.0, 0.5, 1.0), constraint=0.4)
    for n, expected in ((5, 96), (6, 168)):
        count, bound = converse_count(ch, n)
        brute = sum(
            1
            for w in itertools.product(range(3), repeat=n)
            if sum((0.0, 0.5, 1.0)[x] for x in w) <= n * 0.4 + 1e-9
        )
        assert count == brute == expected
        assert math.log2(count) <= bound


def test_converse_count_unconstrained_is_total():
    ch = bsc(0.1, constraint=1.0)
    count, _ = converse_count(ch, 12)
    assert count == 2**12
    # bsc(0.5) reduces to one letter: stars and bars with no bar, one composition (n,) at every n
    ch = bsc(0.5, constraint=1.0)
    assert reduce_channel(ch)[0].input_size == 1
    for n in range(1, 8):
        count, bound = converse_count(ch, n)
        assert count == 1 and bound == pytest.approx(math.log2(n + 1))


def test_converse_count_four_letters_brute_force():
    mat = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1], [0.1, 0.1, 0.7, 0.1], [0.1, 0.1, 0.1, 0.7]])
    cost = (1.0, 0.0, 2.0, 0.5)
    ch = Dmc(matrix=mat, cost=cost, constraint=0.55)
    for n in (1, 4, 5, 6):
        count, bound = converse_count(ch, n)
        brute = sum(1 for w in itertools.product(range(4), repeat=n) if sum(cost[x] for x in w) <= n * 0.55 + 1e-9)
        assert count == brute and math.log2(count) <= bound
    assert count < 4**6


def test_converse_count_budget_refusal():
    ch = Dmc(matrix=np.eye(8), cost=tuple(range(8)), constraint=7.0)
    with pytest.raises(BudgetError):
        converse_count(ch, 500, type_budget=10**4)


# --- canonical pairs and overlap decay ---


def test_balanced_type_counts():
    assert balanced_type(10, 2).counts == (5, 5)
    assert balanced_type(11, 2).counts == (6, 5)
    assert balanced_type(7, 3).counts == (3, 2, 2)


@pytest.mark.parametrize("n,distance", [(8, 2), (8, 4), (10, 6), (12, 3)])
def test_same_type_pair_properties(n, distance):
    et = balanced_type(n, 3 if distance % 2 else 2)
    x1, x2 = same_type_pair(et, distance)
    k = et.alphabet_size
    assert empirical_type(x1, k) == empirical_type(x2, k) == et
    assert hamming_distance(x1, x2) == distance


def test_same_type_pair_refuses_a_negative_distance():
    # Unchecked, -1 and -3 gave words at distance 3 and -2 identical words.
    for distance in (-1, -2, -3):
        with pytest.raises(ValueError, match="distance must be nonnegative"):
            same_type_pair(balanced_type(9, 3), distance)


def test_min_same_type_distance_parity():
    # binary types cannot realize odd separations; ternary can
    assert min_same_type_distance(balanced_type(10, 2), 3) == 4
    assert min_same_type_distance(balanced_type(10, 3), 3) == 3
    assert min_same_type_distance(balanced_type(10, 2), 0) == 0


def test_estimate_L_positive_for_bsc():
    slope = estimate_L(bsc(0.1), epsilon=0.5, delta=0.15, n_grid=(6, 8, 10, 12))
    assert slope == pytest.approx(0.016193624375731238, abs=1e-9)
    assert slope > 0


def test_estimate_L_requires_distinct_rows():
    with pytest.raises(ValueError):
        estimate_L(bsc(0.5), epsilon=0.5, delta=0.15, n_grid=(6, 8))


def test_error_exponent_bounds_assembly():
    b = error_exponent_bounds(bsc(0.1), epsilon=0.5, delta=0.15, n_grid=(6, 8, 10, 12))
    assert b.theta == pytest.approx(1.5)
    assert b.alpha1 == pytest.approx(0.5 * 0.15**2 / (4 * 1.075))
    assert b.alpha2 == min(b.alpha1, b.L_empirical - 0.15 * 1.0)


def test_entropy_bits_basics():
    assert entropy_bits([1.0, 0.0]) == 0.0
    assert entropy_bits([0.25] * 4) == 2.0


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [0.5, 0.7], [-0.5, 1.5], [[0.5, 0.5]]])
def test_entropy_bits_refuses_what_is_not_a_pmf(bad):
    # Before, these gave -0.0, 0.860, -0.877 and 1.0.
    with pytest.raises(ValueError, match="pmf must be a probability vector"):
        entropy_bits(bad)


@given(st.integers(2, 6), st.integers(1, 99))
def test_capacity_between_zero_and_log_alphabet(k, pct):
    cost = tuple(float(i) for i in range(k))
    limit = cost[0] + (cost[-1] - cost[0]) * pct / 100.0
    res = max_entropy_pmf(cost, limit)
    assert -1e-12 <= res.value_bits <= math.log2(k) + 1e-12
