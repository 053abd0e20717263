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
    same_type_pair,
)
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


def test_bsc_capacity_curve_shape():
    curve = bsc_capacity_curve(0.1, [0.0, 0.25, 0.5, 0.9])
    assert curve[0] == (0.0, 0.0)
    assert curve[1][1] == pytest.approx(0.8112781244591328)
    assert curve[2][1] == 1.0 and curve[3][1] == 1.0
    assert all(v == 0.0 for _, v in bsc_capacity_curve(0.5, [0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        bsc_capacity_curve(0.7, [0.5])


def test_gaussian_rate_bound_values():
    assert gaussian_rate_bound(1.0, 0.25) == pytest.approx(0.0)
    assert gaussian_rate_bound(1.0, 0.01) == pytest.approx(0.5 * math.log2(100.0) - 1.0)
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


@given(st.integers(2, 6), st.integers(1, 99))
def test_capacity_between_zero_and_log_alphabet(k, pct):
    cost = tuple(float(i) for i in range(k))
    limit = cost[0] + (cost[-1] - cost[0]) * pct / 100.0
    res = max_entropy_pmf(cost, limit)
    assert -1e-12 <= res.value_bits <= math.log2(k) + 1e-12
