"""Acceptance battery: every documented guarantee, one test per claim.

Each underlying check runs once per session (module-scoped fixtures) and its
one-line verdict is printed so `pytest -v -s` doubles as the verification
report. The small-blocklength overlap-ratio monotonicity claim is known not
to hold as stated and is kept as a strict expected failure rather than
weakened; the fitted decay rate behind the same data is asserted for real.
"""

import pytest

from di_codes import CheckResult, acceptance, format_line, run_checks

# The battery in definition order, with the fixture that runs each check.
REGISTRY = {
    "bsc-capacity-closed-form": "bsc_capacity_check",
    "distinct-rows-capacity": "distinct_rows_check",
    "reduction-equivalence": "reduction_check",
    "construction-yield": "yield_check",
    "dmc-error-decay": "dmc_decay_check",
    "duplicate-codeword-identity": "duplicate_check",
    "intersection-ratio-decay": "intersection_check",
    "constrained-count-bound": "count_bound_check",
    "gauss-saturation-count": "saturation_check",
    "gauss-error-decay": "gauss_decay_check",
    "discretized-entropy-limit": "entropy_limit_check",
    "determinism-replay": "replay_check",
}


def _run(name):
    res = run_checks([name])[0]
    print(format_line(res))
    return res


@pytest.fixture(scope="module")
def bsc_capacity_check():
    return _run("bsc-capacity-closed-form")


@pytest.fixture(scope="module")
def distinct_rows_check():
    return _run("distinct-rows-capacity")


@pytest.fixture(scope="module")
def reduction_check():
    return _run("reduction-equivalence")


@pytest.fixture(scope="module")
def yield_check():
    return _run("construction-yield")


@pytest.fixture(scope="module")
def dmc_decay_check():
    return _run("dmc-error-decay")


@pytest.fixture(scope="module")
def duplicate_check():
    return _run("duplicate-codeword-identity")


@pytest.fixture(scope="module")
def intersection_check():
    return _run("intersection-ratio-decay")


@pytest.fixture(scope="module")
def count_bound_check():
    return _run("constrained-count-bound")


@pytest.fixture(scope="module")
def saturation_check():
    return _run("gauss-saturation-count")


@pytest.fixture(scope="module")
def gauss_decay_check():
    return _run("gauss-error-decay")


@pytest.fixture(scope="module")
def entropy_limit_check():
    return _run("discretized-entropy-limit")


@pytest.fixture(scope="module")
def replay_check():
    return _run("determinism-replay")


def _assert_clean_pass(res):
    assert res.passed, res.note
    assert not res.expected_failure
    assert res.within_limit, (
        f"{res.name} took {res.runtime_seconds:.1f}s, limit {res.runtime_limit_seconds:.0f}s"
    )


def test_bsc_capacity_matches_closed_form(bsc_capacity_check):
    _assert_clean_pass(bsc_capacity_check)
    assert bsc_capacity_check.details["max_abs_error"] <= 1e-9


def test_capacity_counts_distinct_rows_only(distinct_rows_check):
    _assert_clean_pass(distinct_rows_check)
    d = distinct_rows_check.details
    assert d["exact_matches"] == d["configs"]


def test_reduced_channel_simulates_identically(reduction_check):
    _assert_clean_pass(reduction_check)


def test_construction_yield_and_invariants(yield_check):
    _assert_clean_pass(yield_check)
    assert yield_check.details["invariant_failures"] == 0


def test_dmc_error_rates_decay_with_blocklength(dmc_decay_check):
    _assert_clean_pass(dmc_decay_check)
    assert dmc_decay_check.details["closest_pair_pe2"] < 0.05


def test_duplicate_codewords_force_complementary_errors(duplicate_check):
    _assert_clean_pass(duplicate_check)


def test_overlap_fitted_decay_rate_is_positive(intersection_check):
    # honest record: the raw ratio sequence is not monotone at these n
    assert intersection_check.expected_failure
    assert intersection_check.details["fitted_L"] > 0
    assert intersection_check.within_limit


@pytest.mark.xfail(
    strict=True,
    reason="overlap ratios at enumerable blocklengths are not strictly "
    "decreasing; integer separation thresholds introduce parity effects",
)
def test_overlap_ratios_strictly_decreasing(intersection_check):
    assert intersection_check.details["strictly_decreasing"]


def test_constrained_word_count_matches_brute_force(count_bound_check):
    _assert_clean_pass(count_bound_check)


def test_gauss_packing_saturates_above_volume_bound(saturation_check):
    _assert_clean_pass(saturation_check)
    d = saturation_check.details
    assert d["center_count"] >= d["lower_bound"]


def test_gauss_error_rates_decay_with_blocklength(gauss_decay_check):
    _assert_clean_pass(gauss_decay_check)


def test_discretized_entropy_approaches_differential_limit(entropy_limit_check):
    _assert_clean_pass(entropy_limit_check)


def test_reported_results_replay_bit_identically(replay_check):
    _assert_clean_pass(replay_check)
    assert replay_check.details["mismatches"] == []


def test_check_registry_is_pinned(request):
    # A dropped decorator, a new check or a reordering changes this list.
    assert list(acceptance.CHECKS) == list(REGISTRY)
    for name, fixture in REGISTRY.items():
        assert acceptance.CHECKS[name] is getattr(acceptance, "check_" + name.replace("-", "_"))
        res = request.getfixturevalue(fixture)
        assert isinstance(res, CheckResult) and res.name == name
