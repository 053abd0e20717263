"""End-to-end command-line tests, run in process."""

import json
import math
import tracemalloc

import pytest

from di_codes import (
    __version__,
    binary_entropy,
    bsc,
    discretized_entropy,
    dmc_code,
    dmc_to_dict,
    entropy_defect,
)
from di_codes.cli import EXIT_BUDGET, EXIT_FAILURE, EXIT_OK, main

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
