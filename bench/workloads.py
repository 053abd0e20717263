"""The benchmark's three workloads and the bookkeeping of their operations.

A workload has a ``setup`` (program calls that build fixtures; timed as
set-up, never as work), and a ``run_round`` that makes the same fixed list of
public or CLI calls every round, each timed on its own, and then checks every
output against ``oracles``. A round's figures feed the end-to-end metrics:

* ``main_s``: the round's main part (see each workload's docstring);
* ``second_s``: one time per call of the workload's second kind;
* ``work``: units of work the main part delivered;
* ``ops_s``: the sum of all the round's timed calls.

The program is always reached through ``di_codes.<name>`` or
``di_codes.cli.main`` looked up at call time, so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import oracles


class Ops:
    """Times, counts and checks the operations of one run.

    An operation is one public call or one CLI call. It fails when it
    raises, when its output fails an oracle, or when the call it depends on
    failed; the run goes on either way.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run one operation; return (output, seconds), output None if it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_op = self.attempted
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the workload must run to its end
            out = None
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.current_op = None
        return out, seconds

    def check(self, label: str, problems: list[str]) -> None:
        """Count one operation that returned as failed if its oracles object."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def skip(self, label: str) -> None:
        """Count an operation whose input a failed operation should have made."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{label}: not run, its input failed")


def round_seed(seed: int, *path: int) -> int:
    """A child seed of the run's ``--seed``; the same path gives the same seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Workload:
    name = ""

    def __init__(self, di_codes, seed: int, scratch: str):
        self.dc = di_codes
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, ops: Ops, k: int) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the rounds left in the scratch directory."""


class GaussPack(Workload):
    """Saturated greedy packings of the Gaussian power ball.

    One round: a ``build_gauss_codebook`` to saturation on a fresh seed
    (main part; work = candidates processed), then MCD_CALLS calls of
    ``min_center_distance`` on it (second kind). The probe budget is a tenth
    of the saturation check's: at 10**5 one packing takes 8-16 s, too few
    fit in a run for a steady median.
    """

    name = "gauss-pack"
    N, EPSILON, DELTA, POWER, SIGMA2 = 5, 0.01, 0.1, 1.0, 1.0
    PROBE_BUDGET, PROBE_TRIALS = 10**4, 4096
    MCD_CALLS = 5
    ORACLE_PROBES = 2000

    def setup(self) -> None:
        self.channel = self.dc.GaussChannel(sigma2=self.SIGMA2, power=self.POWER)

    def run_round(self, ops: Ops, k: int) -> dict:
        dc = self.dc
        out, t_pack = ops.call(
            "build_gauss_codebook", dc.build_gauss_codebook, self.channel, n=self.N,
            epsilon=self.EPSILON, delta=self.DELTA, seed=round_seed(self.seed, k),
            probe_budget=self.PROBE_BUDGET, probe_trials=self.PROBE_TRIALS)
        fig = {"main_s": t_pack, "second_s": [], "work": 0, "ops_s": t_pack}
        if out is None:
            for _ in range(self.MCD_CALLS):
                ops.skip("min_center_distance")
            return fig
        codebook, cert = out
        fig["work"] = cert.candidates_processed
        centers = codebook.centers
        dmin = oracles.min_pairwise_distance(centers)
        _, r1 = oracles.packing_radii(self.POWER, self.EPSILON)
        probes = oracles.uniform_ball(np.random.default_rng(round_seed(self.seed, k, 1)),
                                      self.ORACLE_PROBES, self.N, r1)
        ops.check("build_gauss_codebook", oracles.check_packing(
            centers, dmin, cert.stop_reason, cert.center_count, self.POWER, self.EPSILON, probes))
        for _ in range(self.MCD_CALLS):
            d, t = ops.call("min_center_distance", dc.min_center_distance, codebook)
            fig["second_s"].append(t)
            fig["ops_s"] += t
            if d is not None:
                ops.check("min_center_distance", oracles.check_min_distance(d, dmin))
        return fig


class DmcBuild(Workload):
    """Sample-and-expurgate builds, each followed by ``validate_codebook``.

    One round (main part: the three direct builds with their validations;
    work = sampled codeword symbols M*n; second kind: the CLI call):

    * faithful and greedy builds on bsc(0.1, constraint=0.013), n = 200,
      M = 1029, the construction-yield family, on one seed;
    * a faithful build on the wide-alphabet DMC of to_dmc(sigma2=1, power=1,
      step=0.5, input_j=4) (|X| = 9, |Y| = 25), n = 200, M = 1024;
    * ``di-codes codebook-dmc --output`` through ``cli.main`` in process,
      with the faithful BSC build's arguments.
    """

    name = "dmc-build"
    BSC_N, BSC_EPSILON, BSC_DELTA, BSC_CROSSOVER, BSC_CONSTRAINT = 200, 0.01, 0.03, 0.1, 0.013
    BSC_COST = np.array([0.0, 1.0])
    WIDE_N, WIDE_RATE, WIDE_EPSILON, WIDE_DELTA = 200, 0.05, 0.05, 0.03
    WIDE_STEP, WIDE_J, WIDE_POWER = 0.5, 4, 1.0
    # Letter k*step of the lattice -J..J costs its power (k*step)^2.
    WIDE_COST = (np.arange(-WIDE_J, WIDE_J + 1) * WIDE_STEP) ** 2

    def __init__(self, di_codes, seed: int, scratch: str):
        super().__init__(di_codes, seed, scratch)
        self.output = os.path.join(scratch, f"codebook-{os.getpid()}.json")

    def setup(self) -> None:
        dc = self.dc
        self.bsc = dc.bsc(self.BSC_CROSSOVER, constraint=self.BSC_CONSTRAINT)
        self.bsc_rate = 0.5 * dc.di_capacity(self.bsc).value_bits
        self.wide = dc.to_dmc(sigma2=1.0, power=self.WIDE_POWER, step=self.WIDE_STEP,
                              input_j=self.WIDE_J).channel

    def _build(self, ops: Ops, label: str, channel, n, rate, epsilon, delta, seed, **kw):
        """One build plus its validation: ((codebook, report), validation, seconds).

        The first two are None when the call that makes them failed.
        """
        out, t_build = ops.call(label, self.dc.build_codebook, channel, n=n, rate=rate,
                                epsilon=epsilon, delta=delta, seed=seed, **kw)
        if out is None:
            ops.skip("validate_codebook")
            return None, None, t_build
        validation, t_val = ops.call("validate_codebook", self.dc.validate_codebook, out[0])
        return out, validation, t_build + t_val

    def _check(self, ops, label, out, validation, letter_cost, constraint, epsilon, extra=()):
        codebook, report = out
        dmin = oracles.min_hamming(codebook.words)
        ops.check(label, oracles.check_dmc_codebook(
            codebook.words, dmin, report.base_counts, letter_cost, constraint, epsilon,
            report.min_distance) + list(extra))
        if validation is not None:
            ops.check("validate_codebook",
                      oracles.check_validation(validation, codebook.word_count, dmin))

    def run_round(self, ops: Ops, k: int) -> dict:
        seed_bsc, seed_wide = round_seed(self.seed, k, 0), round_seed(self.seed, k, 1)
        bsc_args = dict(n=self.BSC_N, rate=self.bsc_rate, epsilon=self.BSC_EPSILON,
                        delta=self.BSC_DELTA, seed=seed_bsc, backoff=0.0)
        faithful, v_f, t_f = self._build(ops, "build_codebook faithful", self.bsc, **bsc_args)
        greedy, v_g, t_g = self._build(ops, "build_codebook greedy", self.bsc, mode="greedy", **bsc_args)
        wide, v_w, t_w = self._build(
            ops, "build_codebook wide", self.wide, n=self.WIDE_N, rate=self.WIDE_RATE,
            epsilon=self.WIDE_EPSILON, delta=self.WIDE_DELTA, seed=seed_wide)

        requested = oracles.requested_words(self.BSC_N, self.bsc_rate)
        if faithful is not None:
            report = faithful[1]
            extra = oracles.check_retention(report.kept_words, requested)
            if report.requested_words != requested:
                extra.append(f"requested {report.requested_words} words, floor(2^(n*rate)) = {requested}")
            self._check(ops, "build_codebook faithful", faithful, v_f, self.BSC_COST,
                        self.BSC_CONSTRAINT, self.BSC_EPSILON, extra)
        if greedy is not None:
            extra = oracles.check_subset(faithful[0].words, greedy[0].words) if faithful else []
            self._check(ops, "build_codebook greedy", greedy, v_g, self.BSC_COST,
                        self.BSC_CONSTRAINT, self.BSC_EPSILON, extra)
        if wide is not None:
            self._check(ops, "build_codebook wide", wide, v_w, self.WIDE_COST,
                        self.WIDE_POWER, self.WIDE_EPSILON)

        argv = ["codebook-dmc", "--bsc", repr(self.BSC_CROSSOVER), "--constraint",
                repr(self.BSC_CONSTRAINT), "--n", str(self.BSC_N), "--rate", repr(self.bsc_rate),
                "--epsilon", repr(self.BSC_EPSILON), "--delta", repr(self.BSC_DELTA),
                "--seed", str(seed_bsc), "--backoff", "0", "--output", self.output]
        envelope = io.StringIO()
        with contextlib.redirect_stdout(envelope):
            code, t_cli = ops.call("cli codebook-dmc", self.dc.cli.main, argv)
        fig = {"main_s": t_f + t_g + t_w, "second_s": [t_cli], "ops_s": t_f + t_g + t_w + t_cli,
               "work": sum(out[1].requested_words * self.BSC_N for out in (faithful, greedy) if out)
               + (wide[1].requested_words * self.WIDE_N if wide else 0),
               "envelope_bytes": 0}
        if code is not None:
            if code != 0:
                ops.check("cli codebook-dmc", [f"exit code {code}"])
            elif faithful is None:
                ops.check("cli codebook-dmc", ["no direct build to compare the file with"])
            else:
                ops.check("cli codebook-dmc", oracles.check_codebook_file(
                    self.output, faithful[0].words, faithful[1].to_dict()))
                fig["envelope_bytes"] = len(envelope.getvalue().encode()) + os.path.getsize(self.output)
        return fig

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.output)


class IdentifyMc(Workload):
    """Monte Carlo of both error kinds on small codebooks built in set-up.

    One round (main part: the two ``simulate_errors`` calls, work = trials*n
    summed over their reported estimates; second kind: the
    ``simulate_gauss_errors`` call):

    * ``simulate_errors`` on a BSC(0.1) codebook, n = 400, M = 64, 8 messages
      and 8 pairs (binary kernel);
    * ``simulate_errors`` on the wide-alphabet DMC, n = 400, M = 16,
      delta = 0.015 (pe1 near 0.66, pe2 near 0.001), 4 messages, 4 pairs;
    * ``simulate_gauss_errors`` at n = 1000, 12 centers, 8 pairs.
    """

    name = "identify-mc"
    CROSSOVER = 0.1
    BSC = dict(n=400, rate=6.0 / 400, epsilon=0.1, delta=0.03, backoff=0.5)
    BSC_SIM = dict(trials=2000, pair_budget=8, message_budget=8)
    WIDE = dict(n=400, rate=4.0 / 400, epsilon=0.1, delta=0.015)
    WIDE_SIM = dict(trials=1000, pair_budget=4, message_budget=4)
    WIDE_REF_TRIALS = 20000
    GAUSS_CHANNEL = dict(sigma2=1.0, power=2.0)
    GAUSS = dict(n=1000, epsilon=0.3, delta=0.1, probe_budget=2000, max_centers=12, probe_trials=256)
    GAUSS_SIM = dict(trials=1000, pair_budget=8)

    def __init__(self, di_codes, seed: int, scratch: str):
        super().__init__(di_codes, seed, scratch)
        self._exact: dict = {}
        self._wide_ref: dict = {}

    def setup(self) -> None:
        dc = self.dc
        self.bsc_cb, _ = dc.build_codebook(dc.bsc(self.CROSSOVER, constraint=1.0),
                                           seed=round_seed(self.seed, 0), **self.BSC)
        wide = dc.to_dmc(sigma2=1.0, power=1.0, step=0.5, input_j=4).channel
        self.wide_cb, _ = dc.build_codebook(wide, seed=round_seed(self.seed, 1), **self.WIDE)
        self.gauss_cb, _ = dc.build_gauss_codebook(dc.GaussChannel(**self.GAUSS_CHANNEL),
                                                   seed=round_seed(self.seed, 2), **self.GAUSS)

    # Exact values and reference counts depend only on the codebooks, which
    # stay fixed for the run, so each is computed once.

    def _bsc_p(self, i: int, j: int) -> float:
        key = ("bsc", i, j)
        if key not in self._exact:
            w = self.bsc_cb.words
            accept = oracles.bsc_cross_accept_probability(w[i], w[j], self.CROSSOVER, self.bsc_cb.delta)
            self._exact[key] = 1.0 - accept if i == j else accept
        return self._exact[key]

    def _wide_pe1(self, i: int) -> float:
        word = self.wide_cb.words[i]
        key = ("wide", np.bincount(word, minlength=self.wide_cb.channel.input_size).tobytes())
        if key not in self._exact:
            self._exact[key] = 1.0 - oracles.dmc_accept_probability(
                word, self.wide_cb.channel.matrix, self.wide_cb.delta)
        return self._exact[key]

    def _wide_pe2_ref(self, i: int, j: int) -> int:
        if (i, j) not in self._wide_ref:
            w = self.wide_cb.words
            rng = np.random.default_rng(round_seed(self.seed, 3, i, j))
            self._wide_ref[i, j] = oracles.typical_output_count(
                w[i], w[j], self.wide_cb.channel.matrix, self.wide_cb.delta, self.WIDE_REF_TRIALS, rng)
        return self._wide_ref[i, j]

    def _gauss_p(self, i: int, j: int) -> float:
        key = ("gauss", i, j)
        if key not in self._exact:
            cb = self.gauss_cb
            n, s2, delta = cb.block_length, cb.channel.sigma2, cb.delta
            shift = n * float(((cb.centers[i] - cb.centers[j]) ** 2).sum())
            self._exact[key] = (oracles.gauss_pe1(n, s2, delta) if i == j
                                else oracles.gauss_pe2(shift, n, s2, delta))
        return self._exact[key]

    @staticmethod
    def _shape_problems(report, trials: int, messages: int, pairs: int) -> list[str]:
        if (report.trials, len(report.pe1_errors), len(report.pe2_errors)) != (trials, messages, pairs):
            return [f"report has {report.trials} trials, {len(report.pe1_errors)} messages, "
                    f"{len(report.pe2_errors)} pairs; asked {trials}, {messages}, {pairs}"]
        return []

    def run_round(self, ops: Ops, k: int) -> dict:
        dc = self.dc
        rep_b, t_b = ops.call("simulate_errors binary", dc.simulate_errors, self.bsc_cb,
                              seed=round_seed(self.seed, 10, k), **self.BSC_SIM)
        rep_w, t_w = ops.call("simulate_errors wide", dc.simulate_errors, self.wide_cb,
                              seed=round_seed(self.seed, 11, k), **self.WIDE_SIM)
        rep_g, t_g = ops.call("simulate_gauss_errors", dc.simulate_gauss_errors, self.gauss_cb,
                              seed=round_seed(self.seed, 12, k), **self.GAUSS_SIM)
        work = 0
        if rep_b is not None:
            t = rep_b.trials
            problems = self._shape_problems(rep_b, self.BSC_SIM["trials"], 8, 8)
            for i, e in zip(rep_b.pe1_index, rep_b.pe1_errors):
                problems += oracles.count_problem(f"pe1[{i}]", e, t, self._bsc_p(i, i))
            for (i, j), e in zip(rep_b.pe2_pairs, rep_b.pe2_errors):
                problems += oracles.count_problem(f"pe2[{i},{j}]", e, t, self._bsc_p(i, j))
            ops.check("simulate_errors binary", problems)
            work += t * self.bsc_cb.block_length * (len(rep_b.pe1_errors) + len(rep_b.pe2_errors))
        if rep_w is not None:
            t = rep_w.trials
            problems = self._shape_problems(rep_w, self.WIDE_SIM["trials"], 4, 4)
            for i, e in zip(rep_w.pe1_index, rep_w.pe1_errors):
                problems += oracles.count_problem(f"pe1[{i}]", e, t, self._wide_pe1(i))
            for (i, j), e in zip(rep_w.pe2_pairs, rep_w.pe2_errors):
                problems += oracles.two_sample_problem(
                    f"pe2[{i},{j}]", e, t, self._wide_pe2_ref(i, j), self.WIDE_REF_TRIALS)
            ops.check("simulate_errors wide", problems)
            work += t * self.wide_cb.block_length * (len(rep_w.pe1_errors) + len(rep_w.pe2_errors))
        if rep_g is not None:
            t = rep_g.trials
            problems = self._shape_problems(rep_g, self.GAUSS_SIM["trials"], 12, 8)
            for i, e in zip(rep_g.pe1_index, rep_g.pe1_errors):
                problems += oracles.count_problem(f"pe1[{i}]", e, t, self._gauss_p(i, i))
            for (i, j), e in zip(rep_g.pe2_pairs, rep_g.pe2_errors):
                problems += oracles.count_problem(f"pe2[{i},{j}]", e, t, self._gauss_p(i, j))
            ops.check("simulate_gauss_errors", problems)
        return {"main_s": t_b + t_w, "second_s": [t_g], "work": work, "ops_s": t_b + t_w + t_g}


WORKLOADS = {w.name: w for w in (GaussPack, DmcBuild, IdentifyMc)}
