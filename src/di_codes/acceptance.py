"""Executable acceptance checks, one per verifiable claim the package makes.

Each check builds its own fixtures from hard-coded seeds and returns a
CheckResult with the evidence it gathered. The same functions back the test
suite and the command-line ``verify`` subcommand, so there is exactly one
definition of what "passing" means. Finishing inside the check's runtime
limit is part of it: a check whose evidence holds but which overran its limit
is reported as a failure.

A check is declared once, as a ``check_*`` function under ``@_check(name,
runtime_limit_seconds)``: its body returns only the CheckResult fields it
decides, and the decorator times it and registers it in ``CHECKS``. The
definition order below is the ``CHECKS`` order and the ``verify`` order.

One check is expected to fail and says so in its result: the overlap between
conditional typical sets of a fixed-separation word pair is provably summable
but measurably not monotone at the small block lengths where exact
enumeration is feasible (parity effects in the admissible joint types
dominate until n is much larger). The check reports the measured ratios and
the fitted decay rate honestly instead of relaxing the claim.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .capacity import balanced_type, converse_count, di_capacity, estimate_L, min_same_type_distance, same_type_pair
from .channels import Dmc, GaussChannel, bsc, reduce_channel, transmit_dmc
from .discretize import entropy_defect, gaussian_differential_entropy
from .dmc_code import (
    DmcCodebook,
    build_codebook,
    codebook_to_dict,
    same_codeword_conflict,
    simulate_errors,
    validate_codebook,
)
from .gauss_code import (
    build_gauss_codebook,
    gauss_codebook_to_dict,
    min_center_distance,
    packing_radii,
    simulate_gauss_errors,
)
from .stats import nonincreasing_within_ci, proportion_se
from .typicality import (
    TypicalityParams,
    binary_entropy,
    distance_threshold,
    intersection_ratio,
)

_SEED = 20260817


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    runtime_seconds: float
    runtime_limit_seconds: float
    details: dict = field(default_factory=dict)
    expected_failure: bool = False
    note: str = ""

    @property
    def within_limit(self) -> bool:
        """Whether the check finished strictly inside its runtime limit."""
        return self.runtime_seconds < self.runtime_limit_seconds

    @property
    def unexpected_failure(self) -> bool:
        """Over the limit, or failed without being a documented expected failure."""
        return not self.within_limit or not (self.passed or self.expected_failure)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "expected_failure": self.expected_failure,
            "runtime_seconds": self.runtime_seconds,
            "runtime_limit_seconds": self.runtime_limit_seconds,
            "within_limit": self.within_limit,
            "note": self.note,
            "details": self.details,
        }


def format_line(result: CheckResult) -> str:
    if not result.within_limit:
        status = "FAIL (too slow)"
    elif result.passed:
        status = "PASS"
    elif result.expected_failure:
        status = "FAIL (expected)"
    else:
        status = "FAIL"
    line = f"{status:15s} {result.name}  [{result.runtime_seconds:.2f}s / limit {result.runtime_limit_seconds:.0f}s]"
    if result.note:
        line += f"  {result.note}"
    return line


CHECKS: "OrderedDict[str, Callable[[], CheckResult]]" = OrderedDict()


def _check(name: str, limit: float):
    """Register the decorated body as check ``name`` with runtime limit ``limit``."""

    def register(body: Callable[[], dict]) -> Callable[[], CheckResult]:
        @functools.wraps(body)
        def check() -> CheckResult:
            start = time.perf_counter()
            fields = body()
            elapsed = time.perf_counter() - start
            return CheckResult(name=name, runtime_seconds=elapsed, runtime_limit_seconds=limit, **fields)

        CHECKS[name] = check
        return check

    return register


@_check("bsc-capacity-closed-form", 1.0)
def check_bsc_capacity_closed_form():
    """Capacity of the weight-constrained BSC equals its closed form on a grid."""
    crossover = 0.1
    grid = [round(0.01 * i, 2) for i in range(101)]
    max_err = 0.0
    for a in grid:
        got = di_capacity(bsc(crossover, constraint=a)).value_bits
        want = binary_entropy(a) if a < 0.5 else 1.0
        max_err = max(max_err, abs(got - want))
    passed = max_err <= 1e-9
    note = f"max |C - closed form| = {max_err:.2e} over {len(grid)} constraints"
    return dict(passed=passed, note=note, details={"grid_points": len(grid), "max_abs_error": max_err})


@_check("distinct-rows-capacity", 1.0)
def check_distinct_rows_capacity():
    """Unconstrained capacity is exactly log2 of the distinct-row count."""
    rng = np.random.default_rng(np.random.SeedSequence(_SEED + 2))
    exact = 0
    configs = 50
    for _ in range(configs):
        k_dist = int(rng.integers(1, 9))
        out = int(rng.integers(2, 9))
        base = rng.dirichlet(np.ones(out), size=k_dist)
        extras = int(rng.integers(1, 5))
        rows = np.concatenate([base, base[rng.integers(0, k_dist, size=extras)]])
        rows = rows[rng.permutation(rows.shape[0])]
        cost = rng.uniform(0.0, 1.0, rows.shape[0])
        channel = Dmc(matrix=rows, cost=cost, constraint=float(cost.max()))
        reduced, _ = reduce_channel(channel)
        got = di_capacity(channel).value_bits
        if reduced.input_size == k_dist and got == math.log2(k_dist):
            exact += 1
    passed = exact == configs
    note = f"{exact}/{configs} channels matched log2(distinct rows) exactly"
    return dict(passed=passed, note=note, details={"configs": configs, "exact_matches": exact})


@_check("reduction-equivalence", 120.0)
def check_reduction_equivalence():
    """Paired-seed simulation gives identical error estimates on a channel and its reduction."""
    rng = np.random.default_rng(np.random.SeedSequence(_SEED + 3))
    configs = 20
    trials = 2000
    max_diff = 0.0
    comparisons = 0
    violations = 0
    for _ in range(configs):
        k_base = int(rng.integers(2, 5))
        out = int(rng.integers(2, 5))
        base = rng.dirichlet(np.ones(out), size=k_base)
        copies = rng.integers(0, k_base, size=int(rng.integers(1, 4)))
        rows = np.concatenate([base, base[copies]])
        perm = rng.permutation(rows.shape[0])
        rows = rows[perm]
        cost = rng.uniform(0.0, 1.0, rows.shape[0])
        channel = Dmc(matrix=rows, cost=cost, constraint=float(cost.max()))
        reduced, rmap = reduce_channel(channel)
        class_of = np.asarray(rmap.class_of)
        # one letter per class, not necessarily the representative
        chosen = []
        for c in range(reduced.input_size):
            members = np.flatnonzero(class_of == c)
            chosen.append(int(members[rng.integers(0, members.size)]))
        chosen = np.asarray(chosen)
        words_full = chosen[rng.integers(0, reduced.input_size, size=(4, 64))]
        words_red = class_of[words_full]
        cb_full = DmcCodebook(channel=channel, words=words_full, epsilon=0.0, delta=0.1)
        cb_red = DmcCodebook(channel=reduced, words=words_red, epsilon=0.0, delta=0.1)
        sim_seed = int(rng.integers(2**32))
        ra = simulate_errors(cb_full, trials=trials, seed=sim_seed, pair_budget=4)
        rb = simulate_errors(cb_red, trials=trials, seed=sim_seed, pair_budget=4)
        diff = np.subtract(ra.pe1_errors + ra.pe2_errors, rb.pe1_errors + rb.pe2_errors)
        comparisons += diff.size
        violations += int(np.count_nonzero(diff))
        max_diff = max(max_diff, float(np.abs(diff).max()) / trials)
    passed = violations == 0
    note = f"{violations} of {comparisons} paired error counts differ; max |estimate difference| = {max_diff:.2e}"
    return dict(passed=passed, note=note, details={
        "configs": configs, "comparisons": comparisons, "violations": violations,
        "max_abs_difference": max_diff})


@_check("construction-yield", 120.0)
def check_construction_yield():
    """Faithful construction keeps its invariants and at least half the words."""
    channel = bsc(0.1, constraint=0.013)
    rate = 0.5 * di_capacity(channel).value_bits
    runs = 100
    invariant_failures = 0
    retention_successes = 0
    requested = None
    for i in range(runs):
        cb, report = build_codebook(
            channel, n=200, rate=rate, epsilon=0.01, delta=0.03,
            seed=_SEED + 4000 + i, backoff=0.0,
        )
        requested = report.requested_words
        v = validate_codebook(cb)
        if not (v["same_type"] and v["cost_feasible"] and v["separated"]):
            invariant_failures += 1
        if report.kept_words >= report.requested_words / 2:
            retention_successes += 1
    passed = invariant_failures == 0 and retention_successes >= 99
    note = (
        f"invariants clean in {runs - invariant_failures}/{runs} runs, "
        f"retention >= M/2 in {retention_successes}/{runs} (M = {requested})"
    )
    return dict(passed=passed, note=note, details={
        "runs": runs, "invariant_failures": invariant_failures,
        "retention_successes": retention_successes, "requested_words": requested})


@_check("dmc-error-decay", 600.0)
def check_dmc_error_decay():
    """Both empirical error kinds shrink with block length on the BSC."""
    channel = bsc(0.1, constraint=1.0)
    trials = 10**4
    ns = (100, 200, 400)
    pe1_series = []
    pe2_series = []
    closest_pair_pe2 = None
    for idx, n in enumerate(ns):
        cb, _ = build_codebook(
            channel, n=n, rate=6.0 / n, epsilon=0.1, delta=0.03,
            seed=_SEED + 50 + idx, backoff=0.5,
        )
        sim = simulate_errors(cb, trials=trials, seed=_SEED + 500 + idx, pair_budget=8)
        pe1_series.append(sim.pe1_max)
        pe2_series.append(sim.pe2_max)
        if n == ns[-1]:
            closest_pair_pe2 = max(sim.pe2_estimates[0], sim.pe2_estimates[1])
    ok1 = nonincreasing_within_ci(pe1_series, trials)
    ok2 = nonincreasing_within_ci(pe2_series, trials)
    ok3 = closest_pair_pe2 < 0.05
    passed = ok1 and ok2 and ok3
    note = (
        f"pe1_max {['%.4f' % p for p in pe1_series]}, "
        f"pe2_max {['%.4f' % p for p in pe2_series]}, "
        f"closest-pair pe2 at n={ns[-1]}: {closest_pair_pe2:.4f}"
    )
    return dict(passed=passed, note=note, details={
        "ns": list(ns), "trials": trials, "pe1_max": pe1_series,
        "pe2_max": pe2_series, "closest_pair_pe2": closest_pair_pe2,
        "pe1_nonincreasing": ok1, "pe2_nonincreasing": ok2})


@_check("duplicate-codeword-identity", 60.0)
def check_duplicate_codeword_identity():
    """With a duplicated codeword, the two decoders, each deciding on its own,
    accept exactly the same output blocks: the decoder depends only on the codeword."""
    channel = bsc(0.1, constraint=1.0)
    cb, _ = build_codebook(
        channel, n=100, rate=0.03, epsilon=0.0, delta=0.03, seed=_SEED + 6,
    )
    words = cb.words.copy()
    words[1] = words[0]
    dup = DmcCodebook(channel=channel, words=words, epsilon=0.0, delta=cb.delta)
    trials = 10**4
    res = same_codeword_conflict(dup, 0, 1, trials=trials, seed=_SEED + 60)
    pe1, pe2 = res["pe1_estimate"], res["pe2_estimate"]
    hits_i, hits_j = trials - round(pe1 * trials), round(pe2 * trials)
    band = 3.0 * math.sqrt(pe1 * (1 - pe1) / trials + pe2 * (1 - pe2) / trials)
    note = f"decoders 0 and 1 accept {hits_i} and {hits_j} of {trials} blocks; pe1 + pe2 = {pe1 + pe2:.6f}"
    return dict(passed=hits_i == hits_j, note=note, details={
        "trials": trials, "pe1": pe1, "pe2": pe2, "sum": pe1 + pe2, "band": band})


@_check("intersection-ratio-decay", 300.0)
def check_intersection_ratio_decay():
    """Overlap of conditional typical sets across block lengths; see module docstring.

    The strict-monotonicity half of this claim fails at these block lengths
    and is reported as an expected failure; the fitted decay rate is positive
    as claimed.
    """
    channel = bsc(0.1, constraint=1.0)
    params = TypicalityParams(0.15)
    ns = (6, 8, 10, 12)
    ratios = []
    distances = []
    for n in ns:
        et = balanced_type(n, 2)
        d = min_same_type_distance(et, distance_threshold(n, 0.5))
        x1, x2 = same_type_pair(et, d)
        distances.append(d)
        ratios.append(intersection_ratio(x1, x2, channel.matrix, params))
    strictly_decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    fitted = estimate_L(channel, epsilon=0.5, delta=0.15, n_grid=ns)
    passed = strictly_decreasing and fitted > 0
    expected_failure = not strictly_decreasing and fitted > 0
    note = (
        "ratios "
        + ", ".join(f"{r:.5f}" for r in ratios)
        + f" at n = {list(ns)} (separations {distances}); "
        + ("monotone, " if strictly_decreasing else "not monotone (parity effects at small n), ")
        + f"fitted decay rate {fitted:.4f}"
    )
    return dict(passed=passed, expected_failure=expected_failure, note=note, details={
        "ns": list(ns), "separations": distances, "ratios": ratios,
        "strictly_decreasing": strictly_decreasing, "fitted_L": fitted})


@_check("constrained-count-bound", 60.0)
def check_constrained_count_bound():
    """Composition-DP word count equals brute force and respects the capacity bound."""
    channel = bsc(0.1, cost=(0.0, 1.0), constraint=0.3)
    results = {}
    all_ok = True
    for n in (10, 15, 20):
        count, bound = converse_count(channel, n)
        weights = np.bitwise_count(np.arange(2**n, dtype=np.uint64))
        brute = int((weights <= n * 0.3 + 1e-9).sum())
        ok = count == brute and math.log2(count) <= bound
        all_ok = all_ok and ok
        results[n] = {"count": count, "brute_force": brute,
                      "log2_count": math.log2(count), "bound_log2": bound, "ok": ok}
    note = "; ".join(
        f"n={n}: count {v['count']} (brute {v['brute_force']}), "
        f"log2 {v['log2_count']:.2f} <= {v['bound_log2']:.2f}"
        for n, v in results.items()
    )
    return dict(passed=all_ok, note=note, details={"cases": {str(k): v for k, v in results.items()}})


@_check("gauss-saturation-count", 300.0)
def check_gauss_saturation_count():
    """Saturated packing reaches the volume lower bound with valid geometry."""
    channel = GaussChannel(sigma2=1.0, power=1.0)
    epsilon = 0.01
    cb, cert = build_gauss_codebook(
        channel, n=6, epsilon=epsilon, delta=0.1, seed=_SEED,
        probe_budget=10**5, probe_trials=4096,
    )
    r0, _ = packing_radii(channel.power, epsilon)
    min_dist = min_center_distance(cb)
    max_norm_sq = float((cb.centers**2).sum(axis=1).max())
    norms_ok = max_norm_sq <= channel.power + 1e-12
    dist_ok = min_dist >= 2.0 * r0 - 1e-12
    passed = (
        cert.saturated_at_tolerance
        and cert.meets_packing_bound
        and dist_ok
        and norms_ok
    )
    note = (
        f"L = {cert.center_count} >= bound {cert.lower_bound:.1f}, "
        f"min distance {min_dist:.4f} (>= {2 * r0:.4f}), "
        f"probe coverage {cert.probe_coverage:.4f}"
    )
    return dict(passed=passed, note=note, details={
        "center_count": cert.center_count, "lower_bound": cert.lower_bound,
        "min_distance": min_dist, "required_distance": 2.0 * r0,
        "max_norm_sq": max_norm_sq,
        "probe_coverage": cert.probe_coverage,
        "stop_reason": cert.stop_reason})


@_check("gauss-error-decay", 600.0)
def check_gauss_error_decay():
    """Gaussian type-I error shrinks with n and stays under the variance bound."""
    channel = GaussChannel(sigma2=1.0, power=2.0)
    trials = 10**4
    ns = (100, 1000, 10000)
    pe1_series = []
    bounds = []
    under_bound = True
    for idx, n in enumerate(ns):
        cb, _ = build_gauss_codebook(
            channel, n=n, epsilon=0.3, delta=0.1, seed=_SEED + 100 + idx,
            probe_budget=2000, max_centers=12, probe_trials=256,
        )
        sim = simulate_gauss_errors(
            cb, trials=trials, seed=_SEED + 1000 + idx, pair_budget=8,
        )
        pe1_series.append(sim.pe1_max)
        bounds.append(sim.chebyshev_pe1)
        band = 3.0 * proportion_se(sim.pe1_max, trials)
        if not sim.pe1_max < sim.chebyshev_pe1 + band:
            under_bound = False
    nonincreasing = nonincreasing_within_ci(pe1_series, trials)
    passed = nonincreasing and under_bound
    note = (
        f"pe1_max {['%.4f' % p for p in pe1_series]} vs bounds "
        f"{['%.3f' % b for b in bounds]} at n = {list(ns)}"
    )
    return dict(passed=passed, note=note, details={
        "ns": list(ns), "trials": trials, "pe1_max": pe1_series,
        "chebyshev_pe1": bounds, "nonincreasing": nonincreasing,
        "under_bound": under_bound})


@_check("discretized-entropy-limit", 10.0)
def check_discretized_entropy_limit():
    """Quantized-input entropy defect shrinks with the step and hits the limit."""
    power = 1.0
    ks = list(range(4, 11))
    defects = [abs(entropy_defect(power, 2.0**-k, 8 * 2**k)) for k in ks]
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    final_ok = defects[-1] < 0.05
    passed = decreasing and final_ok
    note = (
        f"|H + log2(step) - {gaussian_differential_entropy(power):.4f}| runs "
        f"{defects[0]:.4f} -> {defects[-1]:.5f} over step = 2^-4..2^-10"
    )
    return dict(passed=passed, note=note, details={
        "ks": ks, "defects": defects, "decreasing": decreasing,
        "limit": gaussian_differential_entropy(power)})


@_check("determinism-replay", 60.0)
def check_determinism_replay():
    """Every seeded operation reproduces its output bit for bit."""
    channel = bsc(0.1, constraint=1.0)
    gchannel = GaussChannel(sigma2=1.0, power=2.0)
    mismatches = []
    kept = {}  # the codebooks of the last replayed builds, for the simulations

    def canon(obj) -> str:
        return json.dumps(obj, sort_keys=True)

    def twice(label: str, fn: Callable[[], object]):
        a, b = canon(fn()), canon(fn())
        if a != b:
            mismatches.append(label)

    twice(
        "transmit",
        lambda: transmit_dmc(
            channel, np.zeros(32, dtype=np.int64),
            np.random.default_rng(np.random.SeedSequence(_SEED + 11)),
        ).tolist(),
    )

    def built():
        kept["cb"], rep = build_codebook(
            channel, n=60, rate=0.08, epsilon=0.05, delta=0.05,
            seed=_SEED + 12, backoff=0.0,
        )
        return [codebook_to_dict(kept["cb"]), rep.to_dict()]

    twice("build-codebook", built)
    cb = kept["cb"]
    twice(
        "simulate-dmc",
        lambda: simulate_errors(
            cb, trials=400, seed=_SEED + 13, pair_budget=4, message_budget=3
        ).to_dict(),
    )
    words = cb.words.copy()
    words[1] = words[0]
    dup = DmcCodebook(channel=channel, words=words, epsilon=0.0, delta=cb.delta)
    twice(
        "duplicate-conflict",
        lambda: same_codeword_conflict(dup, 0, 1, trials=400, seed=_SEED + 14),
    )

    def gauss_built():
        kept["gcb"], cert = build_gauss_codebook(
            gchannel, n=8, epsilon=0.05, delta=0.1, seed=_SEED + 15,
            probe_budget=10**4, max_centers=64, probe_trials=512,
        )
        return [gauss_codebook_to_dict(kept["gcb"]), cert.to_dict()]

    twice("build-gauss", gauss_built)
    gcb = kept["gcb"]
    twice(
        "simulate-gauss",
        lambda: simulate_gauss_errors(
            gcb, trials=400, seed=_SEED + 16, pair_budget=4, message_budget=4
        ).to_dict(),
    )

    passed = not mismatches
    note = (
        "6/6 operations replayed bit-identically"
        if passed
        else "mismatches: " + ", ".join(mismatches)
    )
    return dict(passed=passed, note=note, details={"operations": 6, "mismatches": mismatches})


def run_checks(names: Iterable[str] | None = None) -> list[CheckResult]:
    selected: Sequence[str] = list(names) if names is not None else list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(unknown)}")
    return [CHECKS[n]() for n in selected]
