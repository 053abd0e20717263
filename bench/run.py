"""Benchmark of di_codes: saturated packing, DMC construction, Monte Carlo identification.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload gauss-pack --seed 1 --seconds 30 --trace 0

The program is imported from ./src; the benchmark gives it only inputs made
from --seed. One process makes every call, one at a time (a closed loop with
a single caller), in whole rounds until --seconds have passed. Every output
is checked against bench/oracles.py.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it carries the
per-layer metrics, from spans recorded around each layer's calls. A fuller
record, with the machine, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUPS = 3
# Pin the BLAS pool; the reference machine has 2 cores.
THREADS = str(min(os.cpu_count() or 1, 2))

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import di_codes; "
                 "print(time.perf_counter() - t)")


def _import_seconds(root: str) -> float:
    """Time ``import di_codes`` in a fresh interpreter, as a user's process pays it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), DI_CODES_THREADS=THREADS)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_info(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def end_to_end(rounds: list[dict], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "run_s": median([r["ops_s"] for r in rounds]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "main_ms": 1e3 * median([r["main_s"] for r in rounds]),
        "second_ms": 1e3 * median([t for r in rounds for t in r["second_s"]]),
        "work_per_s": median([r["work"] / r["main_s"] for r in rounds]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "di_codes", "__init__.py")):
        print("bench: no src/di_codes here; run from the root of a di-codes checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metric_units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # The pool size must be set before numpy first loads; di_codes forwards it.
    os.environ["DI_CODES_THREADS"] = THREADS
    sys.path.insert(0, os.path.join(root, "src"))
    import di_codes
    import di_codes.cli
    import numpy as np
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, di_codes)

    workload = workloads.WORKLOADS[args.workload](di_codes, args.seed, OUT_DIR)
    setups = []
    for _ in range(SETUPS):
        imported = _import_seconds(root)
        start = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - start)

    ops = workloads.Ops(tracer)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not rounds or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.current_round = len(rounds)
            rounds.append(workload.run_round(ops, len(rounds)))
    finally:
        workload.close()

    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, len(rounds), {
            "envelope_bytes": [r["envelope_bytes"] for r in rounds if "envelope_bytes" in r]})
    else:
        metrics = end_to_end(rounds, median(setups))
    if set(metrics) != set(metric_units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(metric_units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    result = {
        "correct": not ops.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(value), "unit": metric_units[name]}
                    for name, value in metrics.items()},
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_info(np, scipy), rounds=rounds,
                  setup_samples_s=setups, problems=ops.problems, errors=ops.errors)
    if tracer is not None:
        record["spans_file"] = os.path.basename(stem) + ".spans.jsonl"
        tracer.write(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in ops.problems + ops.errors:
        print("bench:", line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
