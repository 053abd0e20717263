"""End-to-end command-line tests, run in process."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import di_codes
from di_codes import (
    Dmc,
    GaussChannel,
    __version__,
    binary_entropy,
    bsc,
    build_codebook,
    build_gauss_codebook,
    default_output_j,
    di_capacity,
    discretize,
    discretize_value,
    discretized_entropy,
    dmc_code,
    dmc_to_dict,
    entropy_defect,
    gauss_code,
    input_pmf,
    lattice,
    to_dmc,
)
from di_codes.cli import EXIT_BUDGET, EXIT_FAILURE, EXIT_OK, _json_chunks, _write_json, main
from di_codes.dmc_code import _codebook_fields

ENVELOPE_KEYS = {"tool_version", "config", "seed", "timestamp", "payload"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"di-codes {__version__}" in capsys.readouterr().out


def test_capacity_envelope(capsys):
    code, env = run_json(capsys, ["capacity", "--bsc", "0.1", "--constraint", "0.2"])
    assert code == EXIT_OK
    assert set(env) == ENVELOPE_KEYS
    assert env["tool_version"] == __version__
    assert env["seed"] is None
    assert env["config"]["bsc"] == 0.1
    assert env["payload"]["value_bits"] == pytest.approx(binary_entropy(0.2), abs=1e-12)
    assert env["payload"]["binding"] is True
    assert env["payload"]["input_size"] == 2


def test_capacity_requires_a_channel():
    with pytest.raises(SystemExit) as exc:
        main(["capacity"])
    assert exc.value.code == EXIT_FAILURE


def test_capacity_rejects_two_channel_sources(tmp_path):
    f = tmp_path / "ch.json"
    f.write_text(json.dumps(dmc_to_dict(bsc(0.1))))
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--channel", str(f), "--bsc", "0.1"])
    assert exc.value.code == EXIT_FAILURE


def test_sweep_bsc_writes_csv(capsys):
    code = main(["sweep-bsc", "--crossover", "0.1", "--points", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "constraint,capacity_bits"
    assert len(lines) == 6
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(last[0]) == 1.0 and float(last[1]) == 1.0


def test_codebook_simulate_round_trip(tmp_path, capsys):
    book = tmp_path / "book.json"
    code, env = run_json(capsys, [
        "codebook-dmc", "--bsc", "0.1", "--n", "40", "--rate", "0.1",
        "--epsilon", "0.05", "--delta", "0.05", "--seed", "7",
        "--backoff", "0.3", "--output", str(book),
    ])
    assert code == EXIT_OK
    assert env["seed"] == 7
    assert env["payload"]["output"] == str(book)
    assert "codebook" not in env["payload"]
    v = env["payload"]["validation"]
    assert v["same_type"] and v["cost_feasible"] and v["separated"]
    assert env["payload"]["report"]["kept_words"] >= 1

    stored = json.loads(book.read_text())
    assert set(stored) == {"codebook", "report"}

    code, env = run_json(capsys, [
        "simulate-dmc", "--codebook", str(book), "--trials", "50", "--seed", "3",
        "--pair-budget", "2",
    ])
    assert code == EXIT_OK
    assert env["seed"] == 3
    assert len(env["payload"]["pe2"]) == 2
    for entry in env["payload"]["pe1"]:
        assert 0.0 <= entry["estimate"] <= 1.0
        assert len(entry["wilson"]) == 2


def test_envelopes_replay_except_timestamp(capsys):
    argv = ["codebook-dmc", "--bsc", "0.1", "--n", "40", "--rate", "0.1",
            "--epsilon", "0.05", "--delta", "0.05", "--seed", "7", "--backoff", "0.3"]
    _, env_a = run_json(capsys, argv)
    _, env_b = run_json(capsys, argv)
    env_a.pop("timestamp")
    env_b.pop("timestamp")
    assert json.dumps(env_a, sort_keys=True) == json.dumps(env_b, sort_keys=True)


def test_simulate_refuses_fractional_letters_and_non_finite_centers(tmp_path, capsys):
    # Before, words of 0.9 and 1.2 were simulated as 0 and 1, and a NaN center
    # was simulated with 50 errors in 50 trials; both commands exited 0.
    dmc_book, gauss_book = tmp_path / "dmc.json", tmp_path / "gauss.json"
    dmc_book.write_text(json.dumps({"codebook": {
        "channel": {"input_size": 2, "output_size": 2, "matrix": [[0.9, 0.1], [0.1, 0.9]],
                    "cost": [0.0, 1.0], "constraint": 1.0},
        "epsilon": 0.1, "delta": 0.1, "rate": None, "base_counts": None,
        "words": [[0.9, 1.2, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]}}))
    gauss_book.write_text(json.dumps({"codebook": {
        "channel": {"sigma2": 1.0, "power": 1.0}, "epsilon": 0.05, "delta": 0.1,
        "centers": [[math.nan, 0.1], [0.3, 0.2]]}}))
    for command, book, message in (("simulate-dmc", dmc_book, "words must be a two-dimensional array of integer"),
                                   ("simulate-gauss", gauss_book, "violates the power constraint")):
        code = main([command, "--codebook", str(book), "--trials", "50", "--seed", "1", "--pair-budget", "0"])
        out, err = capsys.readouterr()
        assert code == EXIT_FAILURE and out == ""
        assert err.startswith("di-codes: error:") and message in err


def test_gauss_round_trip(tmp_path, capsys):
    book = tmp_path / "gauss.json"
    code, env = run_json(capsys, [
        "codebook-gauss", "--n", "4", "--epsilon", "0.05", "--delta", "0.1",
        "--seed", "3", "--probe-budget", "2000", "--probe-trials", "256",
        "--output", str(book),
    ])
    assert code == EXIT_OK
    cert = env["payload"]["certificate"]
    assert cert["stop_reason"] == "saturation"
    assert cert["meets_packing_bound"] is True
    assert env["payload"]["min_center_distance"] >= 2 * math.sqrt(0.05) - 1e-12

    code, env = run_json(capsys, [
        "simulate-gauss", "--codebook", str(book), "--trials", "50", "--seed", "2",
        "--pair-budget", "2",
    ])
    assert code == EXIT_OK
    assert "chebyshev" in env["payload"]
    assert env["payload"]["chebyshev"]["pe1"] > 0


_GAUSS_ARGS = {"sigma2": 1.0, "power": 1.0, "epsilon": 0.05, "delta": 0.1}


@given(name=st.sampled_from(sorted(_GAUSS_ARGS)), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_gauss_refuses_non_finite_input(name, bad):
    # One parameter non-finite: the API raises ValueError and the CLI exits 1
    # with a message, before any numeric warning and without a payload.
    args = dict(_GAUSS_ARGS, **{name: bad})
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            build_gauss_codebook(
                GaussChannel(args["sigma2"], args["power"]), n=3, epsilon=args["epsilon"],
                delta=args["delta"], seed=1, probe_budget=50, probe_trials=10,
            )
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["codebook-gauss", "--n", "3", "--seed", "1", "--probe-budget", "50",
                         "--probe-trials", "10", *(f"--{k}={v}" for k, v in args.items())])
    assert code == EXIT_FAILURE
    assert out.getvalue() == ""
    assert err.getvalue().startswith("di-codes: error:") and "finite" in err.getvalue()


_DMC_ARGS = {"rate": 0.1, "epsilon": 0.1, "delta": 0.1, "backoff": 0.0, "cost_margin": 0.0}


@given(
    name=st.sampled_from(["matrix", "cost", "constraint", *sorted(_DMC_ARGS)]),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_dmc_refuses_non_finite_input(tmp_path_factory, name, bad):
    # One channel entry or build parameter non-finite: the API raises
    # ValueError and the CLI exits 1 with a message, before any numeric
    # warning and without a payload.
    matrix = [[0.9, 0.1], [bad if name == "matrix" else 0.1, 0.9]]
    cost = [0.0, bad if name == "cost" else 1.0]
    constraint = bad if name == "constraint" else 0.5
    args = dict(_DMC_ARGS, **{name: bad}) if name in _DMC_ARGS else _DMC_ARGS
    chan = tmp_path_factory.mktemp("chan") / "chan.json"
    chan.write_text(json.dumps({"input_size": 2, "output_size": 2, "matrix": matrix,
                                "cost": cost, "constraint": constraint}))
    argvs = [["codebook-dmc", "--channel", str(chan), "--n", "20", "--seed", "1",
              *(f"--{k.replace('_', '-')}={v}" for k, v in args.items())]]
    if name not in _DMC_ARGS:
        argvs.append(["capacity", "--channel", str(chan)])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            build_codebook(Dmc(np.array(matrix), np.array(cost), constraint), n=20, seed=1, **args)
        with redirect_stdout(out), redirect_stderr(err):
            codes = [main(argv) for argv in argvs]
    assert codes == [EXIT_FAILURE] * len(argvs)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == len(argvs) and all(line.startswith("di-codes: error:") for line in lines)


_DISCRETIZE_ARGS = {"sigma2": 1.0, "power": 1.0, "step": 0.5}


@given(
    name=st.sampled_from(sorted(_DISCRETIZE_ARGS)),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
)
def test_discretize_refuses_non_finite_or_non_positive_input(name, bad):
    # sigma2, power or step NaN, infinite or zero: every discretizer entry
    # point raises ValueError naming it, and the CLI exits 1 with one line,
    # before any numeric warning and without a payload.
    args = dict(_DISCRETIZE_ARGS, **{name: bad})
    calls = {
        "sigma2": [lambda: default_output_j(4, bad, 0.5)],
        "power": [lambda: input_pmf(bad, 0.5, 4)],
        "step": [lambda: lattice(bad, 4), lambda: discretize_value(0.3, bad, 4),
                 lambda: default_output_j(4, 1.0, bad), lambda: input_pmf(1.0, bad, 4)],
    }[name] + [lambda: to_dmc(input_j=4, **args)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                call()
        tracemalloc.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["discretize", "--input-j", "4", *(f"--{k}={v}" for k, v in args.items())])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == EXIT_FAILURE
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("di-codes: error:") and name in lines[0]
    assert peak < 2**24


@pytest.mark.parametrize("argv, stage", [
    # 17 x 8 000 017 entries: 4.35e9 bytes at the peak
    (["discretize", "--sigma2", "1", "--power", "1", "--step", "1e-6", "--input-j", "8"],
     (discretize, "_cell_probabilities")),
    # saturation needs at least 6.4e41 centers
    (["codebook-gauss", "--n", "64", "--epsilon", "0.01", "--delta", "0.1", "--seed", "1"],
     (gauss_code, "_sample_ball")),
    (["codebook-gauss", "--n", "64", "--epsilon", "0.01", "--delta", "0.1", "--seed", "1",
      "--max-centers", "2000000"], (gauss_code, "_sample_ball")),
    # 4 sqrt(sigma2) / step is 4e300 output cells, then inf for the two denormal steps
    *((["discretize", "--sigma2", "1", "--power", "1", "--step", step, "--input-j", "1"],
       (discretize, "_cell_probabilities")) for step in ("1e-300", "1e-310", "5e-324")),
])
def test_builds_that_cannot_fit_are_refused_before_they_start(argv, stage, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(*stage, no_work)
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_BUDGET
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("di-codes: budget exceeded: memory budget")
    assert peak < 2**24


def test_discretize_payload_and_channel_output(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code, env = run_json(capsys, [
        "discretize", "--sigma2", "1.0", "--power", "1.0", "--step", "0.5",
        "--input-j", "4", "--output", str(out),
    ])
    assert code == EXIT_OK
    p = env["payload"]
    assert p["input_size"] == 9
    assert p["rows_distinct"] is True
    assert p["entropy_defect"] == pytest.approx(
        p["entropy_plus_log_step"] - p["differential_entropy_limit"], abs=1e-12
    )
    assert p["entropy_bits"] == discretized_entropy(1.0, 0.5, 4)
    assert p["entropy_defect"] == entropy_defect(1.0, 0.5, 4)
    # the emitted channel is a valid input for the capacity command
    code, env = run_json(capsys, ["capacity", "--channel", str(out)])
    assert code == EXIT_OK
    assert 0.0 < env["payload"]["value_bits"] <= math.log2(9)


def test_discretize_computes_the_input_pmf_once(monkeypatch, capsys):
    # 17 channel rows, and the N(0, power) masses on the input lattice once:
    # the entropy and its defect read them from the discretized channel.
    calls = []
    cells = discretize._cell_probabilities
    monkeypatch.setattr(discretize, "_cell_probabilities", lambda *a: calls.append(a) or cells(*a))
    code, env = run_json(capsys, ["discretize", "--sigma2", "1", "--power", "1", "--step", "0.25", "--input-j", "8"])
    assert code == EXIT_OK and env["payload"]["input_size"] == 17
    assert len(calls) == 18


def test_reduce_merges_duplicate_rows(tmp_path, capsys):
    f = tmp_path / "dup.json"
    f.write_text(json.dumps({
        "input_size": 3,
        "output_size": 2,
        "matrix": [[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]],
        "cost": [0.0, 1.0, 2.0],
        "constraint": 2.0,
    }))
    code, env = run_json(capsys, ["reduce", "--channel", str(f)])
    assert code == EXIT_OK
    assert env["payload"]["channel"]["input_size"] == 2
    assert env["payload"]["class_of"] == [0, 1, 0]
    assert env["payload"]["representative"] == [0, 1]


def test_budget_refusal_exit_code(capsys):
    code = main(["codebook-dmc", "--bsc", "0.1", "--n", "100", "--rate", "0.5",
                 "--epsilon", "0.0", "--delta", "0.05", "--seed", "1", "--backoff", "0.0"])
    assert code == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_memory_budget_refusal_exit_code(capsys, monkeypatch):
    # M = 2^20 words of length 10^4 would take 84 GB as int64; refused unallocated.
    def no_sampling(*args):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(dmc_code, "sample_type_class", no_sampling)
    tracemalloc.start()
    try:
        code = main(["codebook-dmc", "--bsc", "0.1", "--n", "10000", "--rate", "0.002",
                     "--epsilon", "0.0", "--delta", "0.05", "--seed", "1", "--backoff", "0.0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_BUDGET
    assert "memory budget" in capsys.readouterr().err
    assert peak < 2**24


def test_construction_failure_exit_code(capsys):
    code = main(["codebook-dmc", "--bsc", "0.1", "--n", "50", "--rate", "0.9",
                 "--epsilon", "0.05", "--delta", "0.05", "--seed", "1"])
    assert code == EXIT_FAILURE
    assert "error" in capsys.readouterr().err


def test_missing_codebook_file_exit_code(capsys):
    code = main(["simulate-dmc", "--codebook", "/no/such/file.json",
                 "--trials", "10", "--seed", "1"])
    assert code == EXIT_FAILURE


def test_malformed_channel_json_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code = main(["capacity", "--channel", str(f)])
    assert code == EXIT_FAILURE


def test_verify_single_check_text(capsys):
    code = main(["verify", "--check", "discretized-entropy-limit"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    first = out.splitlines()[0]
    assert first.startswith("PASS") and "discretized-entropy-limit" in first
    assert "1/1 checks passed" in out


def test_verify_single_check_json(capsys):
    code, env = run_json(capsys, ["verify", "--check", "discretized-entropy-limit", "--json"])
    assert code == EXIT_OK
    results = env["payload"]["results"]
    assert len(results) == 1
    assert results[0]["name"] == "discretized-entropy-limit"
    assert results[0]["passed"] is True
    assert env["payload"]["unexpected_failures"] == []


def test_verify_fails_a_check_over_its_runtime_limit(capsys, monkeypatch):
    # evidence holds, but the run overran its limit: that is a failure
    from di_codes import acceptance

    def slow_check():
        return acceptance.CheckResult(
            name="stub-slow", passed=True, runtime_seconds=2.5, runtime_limit_seconds=1.0
        )

    monkeypatch.setitem(acceptance.CHECKS, "stub-slow", slow_check)
    code = main(["verify", "--check", "stub-slow"])
    out = capsys.readouterr().out
    assert code == EXIT_FAILURE
    first = out.splitlines()[0]
    assert first.startswith("FAIL") and "stub-slow" in first
    assert "0/1 checks passed" in out and "1 UNEXPECTED failure" in out

    code, env = run_json(capsys, ["verify", "--check", "stub-slow", "--json"])
    assert code == EXIT_FAILURE
    assert env["payload"]["unexpected_failures"] == ["stub-slow"]
    assert env["payload"]["results"][0]["within_limit"] is False


def test_verify_rejects_unknown_check():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "no-such-check"])
    assert exc.value.code == EXIT_FAILURE


# sha256 of every output file and of every stdout envelope without its
# timestamp line, recorded before the CLI's JSON encoder was replaced; the
# files and envelopes must stay byte for byte what json.dump(indent=2) wrote.
GOLDEN_CLI = {
    "codebook-dmc": ("aa7d4c264ae16c8980f93d0ee37af36fbdb614057b78328bd3c1baa506f24fa6",
                     "ff3f17cd96a9c6d94a0b6095afdf287e21e41faa203dfd06a7d2255cd813819b"),
    "discretize": ("bafc9fc29acddb0b905cb24ddcb4e954239144bf513f4455238b4eff184d7eb0",
                   "b937765351e70f1f33e965be29d16d882240c856d51a1d2c871bdf333000fa61"),
    "codebook-dmc-wide": ("08f6af2c6bb8b84704f1ea01929f1f0aa27834295ae2766e2da7b103ec20b165",
                          "095c9cf58fb8de9546f92097b795256879dc6eab386afb1f505bb0ef4d4a63e3"),
    "codebook-gauss": ("7f6f11f0d15096d0699c5afe536bdbebfb347d76e9e0a51236cdb5923c887df9",
                       "4f9da026c6ef220aeed852c598cff6fa82d3c84b184a061152ffb2ef709c777b"),
    "reduce": ("0b03b96ec5a53c674c134963ea3274568b1a58f557968ddd377881799f0e0a5b",
               "fc16cbba180740d650d3fe466b867554326b4bb86801a657f82c06c15a33837e"),
    "capacity": ("4874d81e975643cdeb0bc8527fd96667d6957978e5651e7539b75a9c027a51ed", None),
    "simulate-dmc": ("50885e2e15ef19882dabb09442edef1f25d76286f8b3cebaedeb7353dc530134", None),
    "simulate-gauss": ("ca6f771ab33ab6dfa7b5fc0bae6f85007a46640ab05b4056fe20ba89203f04ec", None),
}

# Run in this order, in one directory: later commands read earlier outputs.
GOLDEN_CLI_ARGV = {
    "codebook-dmc": (["codebook-dmc", "--bsc", "0.1", "--n", "40", "--rate", "0.1",
                      "--epsilon", "0.05", "--delta", "0.05", "--seed", "7", "--backoff", "0.3",
                      "--output", "book.json"], "book.json"),
    "discretize": (["discretize", "--sigma2", "1.0", "--power", "1.0", "--step", "0.5",
                    "--input-j", "4", "--output", "chan.json"], "chan.json"),
    "codebook-dmc-wide": (["codebook-dmc", "--channel", "chan.json", "--n", "30", "--rate", "0.2",
                           "--epsilon", "0.05", "--delta", "0.05", "--seed", "3",
                           "--mode", "greedy", "--output", "wide.json"], "wide.json"),
    "codebook-gauss": (["codebook-gauss", "--n", "4", "--epsilon", "0.05", "--delta", "0.1",
                        "--seed", "3", "--probe-budget", "2000", "--probe-trials", "256",
                        "--output", "gauss.json"], "gauss.json"),
    "reduce": (["reduce", "--channel", "dup.json", "--output", "red.json"], "red.json"),
    "capacity": (["capacity", "--channel", "chan.json"], None),
    "simulate-dmc": (["simulate-dmc", "--codebook", "book.json", "--trials", "50", "--seed", "3",
                      "--pair-budget", "2"], None),
    "simulate-gauss": (["simulate-gauss", "--codebook", "gauss.json", "--trials", "50",
                        "--seed", "2", "--pair-budget", "2"], None),
}


def test_cli_files_and_envelopes_replay_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.json").write_text(json.dumps({
        "input_size": 3, "output_size": 2, "matrix": [[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]],
        "cost": [0.0, 1.0, 2.0], "constraint": 2.0,
    }))
    got = {}
    for name, (argv, output) in GOLDEN_CLI_ARGV.items():
        assert main(argv) == EXIT_OK, name
        lines = capsys.readouterr().out.splitlines(keepends=True)
        envelope = "".join(line for line in lines if not line.startswith('  "timestamp": '))
        assert len(envelope) < len("".join(lines))
        file_sha = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() if output else None
        got[name] = (hashlib.sha256(envelope.encode()).hexdigest(), file_sha)
    assert got == GOLDEN_CLI


def _old_json_safe(obj):
    """The CLI's former conversion, applied before json.dump(indent=2): the oracle."""
    if isinstance(obj, dict):
        return {k: _old_json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _old_json_safe(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return {math.inf: "inf", -math.inf: "-inf"}.get(obj, "nan")
    return obj


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
)
_arrays = st.one_of(*(
    hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4), elements=elements)
    for dtype, elements in [(np.int64, None), (np.float64, st.floats()), (np.bool_, None)]
))
# Integer arrays of 1-D and 2-D shapes, (0, n) and (m, 0) among them: 2-D ones
# of narrow values, negative ones too, take the k-letter lookup of their span;
# full-range ones span more than 4096 integers and, like 1-D ones, go through tolist().
_int_arrays = st.one_of(*(
    hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9), elements=elements)
    for dtype in (np.int8, np.int32, np.uint8, np.int64)
    for elements in (None, st.integers(0 if np.dtype(dtype).kind == "u" else -3, 3))
))
_lists = st.one_of(
    st.lists(st.integers()), st.lists(_finite), st.lists(st.floats()),
    st.lists(st.one_of(st.integers(), _finite)), st.lists(st.one_of(st.integers(), st.booleans())),
    st.lists(_finite).map(tuple),
)
_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_values = st.recursive(
    st.one_of(_scalars, _arrays, _int_arrays, _lists),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=20,
)


@given(obj=_values)
def test_json_chunks_match_json_safe_then_indented_dump(obj):
    assert "".join(_json_chunks(obj)) == json.dumps(_old_json_safe(obj), indent=2)


def test_json_chunks_hand_cases():
    rng = np.random.default_rng(5)
    nine = rng.integers(0, 9, (4, 200))
    nine[0, :2] = 0, 8
    cases = [
        {}, [], {"a": []}, [[], {}], {1: [1, 2], "x": (0.5, -0.0)}, [True, 1], [1, 1.0],
        [math.inf, -math.inf, math.nan, 1.0], np.arange(6).reshape(2, 3), np.float32(0.1),
        np.array([[True, False]]), np.array(2.5), {"é\u2603": "snow ☃"}, [np.int64(3), 4],
        # offsets that overflow int8 and sit at the ends of uint64 and int64; an int array
        # beside a list of str
        np.arange(-100, 101, dtype=np.int8), np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
        np.array([[-2**63, 1 - 2**63]] * 2), [np.array([1, 2]), ["1", "2"]],
        # word arrays: binary rows of 200 letters (k = 10), nine letters (k = 2), a prime row
        # length (k = 1), spans too wide for k > 1 (100) and for the table (5 000), negative
        # least values, int8 and uint64 extremes, and the (m, 0) and (0, n) shapes
        {"codebook": {"words": rng.integers(0, 2, (5, 200))}}, {"words": nine}, rng.integers(0, 2, (3, 199)),
        rng.integers(0, 100, (3, 200)), np.array([[0, 4999, 7]] * 2), rng.integers(-3, 2, (4, 12)),
        np.array([[-128, 127]] * 2, dtype=np.int8), np.array([[-128, -127, -127, -128]] * 3, dtype=np.int8),
        np.array([[2**64 - 1, 2**64 - 2] * 3, [2**64 - 2] * 6], dtype=np.uint64),
        np.zeros((3, 0), dtype=np.int8), np.zeros((0, 5), dtype=np.int64),
    ]
    for obj in cases:
        assert "".join(_json_chunks(obj)) == json.dumps(_old_json_safe(obj), indent=2)

    # An integer array is one chunk at any row length: '{"words": ', the array, '}'. A list of
    # number rows stays one chunk a row: '{"words": ', '[', a row, ',', a row, ']', '}'.
    for length in (1, 500):
        assert len(list(_json_chunks({"words": np.tile([0, 1], (2, length))}))) == 3
        assert len(list(_json_chunks({"words": [[0, 1] * length, [0.5] * length]}))) == 7


@st.composite
def _word_arrays(draw):
    """2-D integer arrays, rows of 1-60 letters spanning 1-20 values, from a negative least value too."""
    dtype = draw(st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]))
    lo = draw(st.integers(0 if np.dtype(dtype).kind == "u" else -100, 100))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 60)))
    return draw(hnp.arrays(dtype, shape, elements=st.integers(lo, lo + draw(st.integers(0, 19)))))


@given(words=_word_arrays())
def test_word_arrays_match_json_safe_then_indented_dump(words):
    obj = {"codebook": {"words": words, "n": words.shape[1]}}
    assert "".join(_json_chunks(obj)) == json.dumps(_old_json_safe(obj), indent=2)
    assert len(list(_json_chunks(words))) == 1


def test_writing_the_benchmark_codebook_peaks_under_three_times_its_file(tmp_path):
    # The record codebook-dmc --output writes for the dmc-build workload's BSC build.
    channel = bsc(0.1, constraint=0.013)
    codebook, report = build_codebook(channel, n=200, rate=0.5 * di_capacity(channel).value_bits,
                                      epsilon=0.01, delta=0.03, seed=1, backoff=0.0)
    record = {"codebook": {**_codebook_fields(codebook), "words": codebook.words}, "report": report.to_dict()}
    tracemalloc.start()
    try:
        _write_json(tmp_path / "book.json", record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "book.json").stat().st_size
    assert codebook.words.shape[0] > 900 and size > 2**21
    assert peak < 3 * size


def test_dmc_commands_load_no_scipy(tmp_path):
    # The DMC side needs numpy only: scipy.spatial loads at the first Gaussian
    # tree and scipy.special at the first discretization. A fresh interpreter
    # shows what importing the package and running the commands load.
    script = textwrap.dedent("""
        import contextlib, io, sys
        import di_codes
        from di_codes import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["capacity", "--bsc", "0.1"]),
                     cli.main(["codebook-dmc", "--bsc", "0.1", "--n", "30", "--rate", "0.1", "--epsilon", "0.1",
                               "--delta", "0.06", "--seed", "8", "--backoff", "0.5", "--output", sys.argv[1]])]
        print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(di_codes.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "book.json")], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] []"
