"""Executable acceptance checks, one per verifiable claim the package makes.

Each check builds its own fixtures from hard-coded seeds, measures its own
runtime, and returns a CheckResult with the evidence it gathered. The same
functions back the test suite and the command-line ``verify`` subcommand, so
there is exactly one definition of what "passing" means. Finishing inside
the check's runtime limit is part of it: a check whose evidence holds but
which overran its limit is reported as a failure.

One check is expected to fail and says so in its result: the overlap between
conditional typical sets of a fixed-separation word pair is provably summable
but measurably not monotone at the small block lengths where exact
enumeration is feasible (parity effects in the admissible joint types
dominate until n is much larger). The check reports the measured ratios and
the fitted decay rate honestly instead of relaxing the claim.
"""

from __future__ import annotations

import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .capacity import balanced_type, converse_count, di_capacity, estimate_L
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
from .capacity import min_same_type_distance, same_type_pair

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


def _timed(fn: Callable[[], tuple[bool, dict, bool, str]], name: str, limit: float) -> CheckResult:
    start = time.perf_counter()
    passed, details, expected_failure, note = fn()
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        passed=passed,
        runtime_seconds=elapsed,
        runtime_limit_seconds=limit,
        details=details,
        expected_failure=expected_failure,
        note=note,
    )


def check_bsc_capacity_closed_form() -> CheckResult:
    """Capacity of the weight-constrained BSC equals its closed form on a grid."""

    def run():
        crossover = 0.1
        grid = [round(0.01 * i, 2) for i in range(101)]
        max_err = 0.0
        for a in grid:
            got = di_capacity(bsc(crossover, constraint=a)).value_bits
            want = binary_entropy(a) if a < 0.5 else 1.0
            max_err = max(max_err, abs(got - want))
        passed = max_err <= 1e-9
        note = f"max |C - closed form| = {max_err:.2e} over {len(grid)} constraints"
        return passed, {"grid_points": len(grid), "max_abs_error": max_err}, False, note

    return _timed(run, "bsc-capacity-closed-form", 1.0)


def check_distinct_rows_capacity() -> CheckResult:
    """Unconstrained capacity is exactly log2 of the distinct-row count."""

    def run():
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
        return passed, {"configs": configs, "exact_matches": exact}, False, note

    return _timed(run, "distinct-rows-capacity", 1.0)


def check_reduction_equivalence() -> CheckResult:
    """Paired-seed simulation gives matching error estimates on a channel and its reduction."""

    def run():
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
            for pa, pb in zip(
                ra.pe1_estimates + ra.pe2_estimates, rb.pe1_estimates + rb.pe2_estimates
            ):
                diff = abs(pa - pb)
                band = 3.0 * math.sqrt(
                    pa * (1 - pa) / trials + pb * (1 - pb) / trials
                )
                comparisons += 1
                max_diff = max(max_diff, diff)
                if diff > band:
                    violations += 1
        passed = violations == 0
        note = f"max |estimate difference| = {max_diff:.2e} over {comparisons} paired estimates"
        return (
            passed,
            {"configs": configs, "comparisons": comparisons, "violations": violations,
             "max_abs_difference": max_diff},
            False,
            note,
        )

    return _timed(run, "reduction-equivalence", 120.0)


def check_construction_yield() -> CheckResult:
    """Faithful construction keeps its invariants and at least half the words."""

    def run():
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
        return (
            passed,
            {"runs": runs, "invariant_failures": invariant_failures,
             "retention_successes": retention_successes, "requested_words": requested},
            False,
            note,
        )

    return _timed(run, "construction-yield", 120.0)


def check_dmc_error_decay() -> CheckResult:
    """Both empirical error kinds shrink with block length on the BSC."""

    def run():
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
        return (
            passed,
            {"ns": list(ns), "trials": trials, "pe1_max": pe1_series,
             "pe2_max": pe2_series, "closest_pair_pe2": closest_pair_pe2,
             "pe1_nonincreasing": ok1, "pe2_nonincreasing": ok2},
            False,
            note,
        )

    return _timed(run, "dmc-error-decay", 600.0)


def check_duplicate_codeword_identity() -> CheckResult:
    """With a duplicated codeword, the two decoders, each deciding on its own,
    give error kinds that sum to one: the decoder depends only on the codeword."""

    def run():
        channel = bsc(0.1, constraint=1.0)
        cb, _ = build_codebook(
            channel, n=100, rate=0.03, epsilon=0.0, delta=0.03, seed=_SEED + 6,
        )
        words = cb.words.copy()
        words[1] = words[0]
        dup = DmcCodebook(channel=channel, words=words, epsilon=0.0, delta=cb.delta)
        trials = 10**4
        res = same_codeword_conflict(dup, 0, 1, trials=trials, seed=_SEED + 60)
        total = res["pe1_estimate"] + res["pe2_estimate"]
        band = 3.0 * math.sqrt(
            res["pe1_estimate"] * (1 - res["pe1_estimate"]) / trials
            + res["pe2_estimate"] * (1 - res["pe2_estimate"]) / trials
        )
        passed = abs(total - 1.0) <= band
        note = f"pe1 + pe2 = {total:.6f} (band width 3SE = {band:.4f})"
        return (
            passed,
            {"trials": trials, "pe1": res["pe1_estimate"], "pe2": res["pe2_estimate"],
             "sum": total, "band": band},
            False,
            note,
        )

    return _timed(run, "duplicate-codeword-identity", 60.0)


def check_intersection_ratio_decay() -> CheckResult:
    """Overlap of conditional typical sets across block lengths; see module docstring.

    The strict-monotonicity half of this claim fails at these block lengths
    and is reported as an expected failure; the fitted decay rate is positive
    as claimed.
    """

    def run():
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
        return (
            passed,
            {"ns": list(ns), "separations": distances, "ratios": ratios,
             "strictly_decreasing": strictly_decreasing, "fitted_L": fitted},
            expected_failure,
            note,
        )

    return _timed(run, "intersection-ratio-decay", 300.0)


def check_constrained_count_bound() -> CheckResult:
    """Composition-DP word count equals brute force and respects the capacity bound."""

    def run():
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
        return all_ok, {"cases": {str(k): v for k, v in results.items()}}, False, note

    return _timed(run, "constrained-count-bound", 60.0)


def check_gauss_saturation_count() -> CheckResult:
    """Saturated packing reaches the volume lower bound with valid geometry."""

    def run():
        channel = GaussChannel(sigma2=1.0, power=1.0)
        epsilon = 0.01
        cb, cert = build_gauss_codebook(
            channel, n=6, epsilon=epsilon, delta=0.1, seed=_SEED,
            probe_budget=10**5, probe_trials=4096,
        )
        r0, _ = packing_radii(channel.power, epsilon)
        min_dist = min_center_distance(cb)
        norms_ok = float((cb.centers**2).sum(axis=1).max()) <= channel.power + 1e-12
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
        return (
            passed,
            {"center_count": cert.center_count, "lower_bound": cert.lower_bound,
             "min_distance": min_dist, "required_distance": 2.0 * r0,
             "max_norm_sq": float((cb.centers**2).sum(axis=1).max()),
             "probe_coverage": cert.probe_coverage,
             "stop_reason": cert.stop_reason},
            False,
            note,
        )

    return _timed(run, "gauss-saturation-count", 300.0)


def check_gauss_error_decay() -> CheckResult:
    """Gaussian type-I error shrinks with n and stays under the variance bound."""

    def run():
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
        return (
            passed,
            {"ns": list(ns), "trials": trials, "pe1_max": pe1_series,
             "chebyshev_pe1": bounds, "nonincreasing": nonincreasing,
             "under_bound": under_bound},
            False,
            note,
        )

    return _timed(run, "gauss-error-decay", 600.0)


def check_discretized_entropy_limit() -> CheckResult:
    """Quantized-input entropy defect shrinks with the step and hits the limit."""

    def run():
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
        return (
            passed,
            {"ks": ks, "defects": defects, "decreasing": decreasing,
             "limit": gaussian_differential_entropy(power)},
            False,
            note,
        )

    return _timed(run, "discretized-entropy-limit", 10.0)


def check_determinism_replay() -> CheckResult:
    """Every seeded operation reproduces its output bit for bit."""

    def run():
        channel = bsc(0.1, constraint=1.0)
        gchannel = GaussChannel(sigma2=1.0, power=2.0)
        mismatches = []

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
            cb, rep = build_codebook(
                channel, n=60, rate=0.08, epsilon=0.05, delta=0.05,
                seed=_SEED + 12, backoff=0.0,
            )
            return [codebook_to_dict(cb), rep.to_dict()]

        twice("build-codebook", built)
        cb, _ = build_codebook(
            channel, n=60, rate=0.08, epsilon=0.05, delta=0.05,
            seed=_SEED + 12, backoff=0.0,
        )
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
            gcb, cert = build_gauss_codebook(
                gchannel, n=8, epsilon=0.05, delta=0.1, seed=_SEED + 15,
                probe_budget=10**4, max_centers=64, probe_trials=512,
            )
            return [gauss_codebook_to_dict(gcb), cert.to_dict()]

        twice("build-gauss", gauss_built)
        gcb, _ = build_gauss_codebook(
            gchannel, n=8, epsilon=0.05, delta=0.1, seed=_SEED + 15,
            probe_budget=10**4, max_centers=64, probe_trials=512,
        )
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
        return passed, {"operations": 6, "mismatches": mismatches}, False, note

    return _timed(run, "determinism-replay", 60.0)


CHECKS: "OrderedDict[str, Callable[[], CheckResult]]" = OrderedDict(
    [
        ("bsc-capacity-closed-form", check_bsc_capacity_closed_form),
        ("distinct-rows-capacity", check_distinct_rows_capacity),
        ("reduction-equivalence", check_reduction_equivalence),
        ("construction-yield", check_construction_yield),
        ("dmc-error-decay", check_dmc_error_decay),
        ("duplicate-codeword-identity", check_duplicate_codeword_identity),
        ("intersection-ratio-decay", check_intersection_ratio_decay),
        ("constrained-count-bound", check_constrained_count_bound),
        ("gauss-saturation-count", check_gauss_saturation_count),
        ("gauss-error-decay", check_gauss_error_decay),
        ("discretized-entropy-limit", check_discretized_entropy_limit),
        ("determinism-replay", check_determinism_replay),
    ]
)


def run_checks(names: Iterable[str] | None = None) -> list[CheckResult]:
    selected: Sequence[str] = list(names) if names is not None else list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(unknown)}")
    return [CHECKS[n]() for n in selected]
