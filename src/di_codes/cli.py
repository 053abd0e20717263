"""Command-line front end.

Every subcommand except ``sweep-bsc`` (CSV) and ``verify`` (line-per-check
text by default) prints a single JSON envelope to stdout::

    {"tool_version": ..., "config": {...}, "seed": ..., "timestamp": ..., "payload": {...}}

``config`` echoes the parsed arguments, ``seed`` repeats the RNG seed when
the subcommand takes one (null otherwise), and ``payload`` carries the
subcommand-specific result. Re-running a command with the same arguments
reproduces everything except ``timestamp``.

Exit codes: 0 on success, 1 on usage errors and failed verification checks,
2 when a computation refuses to start because it would exceed an enumeration
or memory budget.

Set DI_CODES_THREADS to pin the BLAS/OpenMP thread count; a positive integer
(capped at the usable CPUs) is exported before the numeric libraries spin up
their pools, as long as nothing imported numpy beforehand. It also sets the
worker threads of the Gaussian packing's large k-d-tree queries and of the
``simulate-*`` commands' estimates; outputs do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from itertools import product
from typing import Sequence

import numpy as np

from . import __version__
from .acceptance import CHECKS, format_line, run_checks
from .capacity import bsc_capacity_curve, di_capacity, entropy_bits
from .channels import Dmc, GaussChannel, bsc, dmc_from_dict, dmc_to_dict, reduce_channel
from .discretize import gaussian_differential_entropy, to_dmc
from .dmc_code import (
    _codebook_fields,
    build_codebook,
    codebook_from_dict,
    simulate_errors,
    validate_codebook,
)
from .errors import BudgetError, DiCodesError
from .gauss_code import (
    DEFAULT_PROBE_BUDGET,
    DEFAULT_PROBE_TRIALS,
    build_gauss_codebook,
    gauss_codebook_from_dict,
    gauss_codebook_to_dict,
    min_center_distance,
    simulate_gauss_errors,
)
from .stats import DEFAULT_PAIR_BUDGET

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BUDGET = 2
_GRAMS = 4096  # entries at most in the table of k-letter groups that writes an integer array


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for budgets."""

    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAILURE, f"{self.prog}: error: {message}\n")


def _json_chunks(obj, indent: str = ""):
    """Yield the text ``json.dump(obj, fh, indent=2)`` writes, in chunks.

    Arrays are written as lists; numpy scalars as Python numbers; non-finite
    floats as the strings "inf", "-inf" and "nan", since strict JSON has no
    Infinity. A non-empty 2-D integer array spanning q <= _GRAMS values is one
    chunk, its k-letter groups (k the largest divisor of the row length with
    q**k <= _GRAMS) looked up in a table of their joined reprs. A list of only
    exact ints, or of only finite floats, is one chunk with ``json``'s reprs;
    other lists go item by item; strings, bools, None and dict keys go to ``json``.
    """
    inner = indent + "  "
    if isinstance(obj, np.ndarray):
        if (obj.ndim == 2 and obj.size and obj.dtype.kind in "iu"
                and (hi := int(obj.max())) - (lo := int(obj.min())) < _GRAMS):
            (m, n), q, sep = obj.shape, hi - lo + 1, ",\n" + inner + "  "
            k = max(d for d in range(1, n + 1) if n % d == 0 and q**d <= _GRAMS)
            table = np.array([sep.join(g) for g in product(map(str, range(lo, hi + 1)), repeat=k)], dtype=object)
            # obj - lo, in [0, q), is exact in 64 bits of obj's signedness; as int64 the product stays integral.
            obj = np.subtract(obj, lo, dtype=obj.dtype.kind + "8").astype(np.int64, copy=False)
            obj = table[obj.reshape(m, n // k, k) @ q ** np.arange(k - 1, -1, -1)].tolist()  # frees the offsets
            gap = f"\n{inner}],\n{inner}[{sep[1:]}"  # between rows
            yield f"[\n{inner}[{sep[1:]}{gap.join(map(sep.join, obj))}\n{inner}]\n{indent}]"
            return
        obj = obj.tolist()
    if isinstance(obj, dict):
        # json's own key conversion and escaping: '{KEY: null}'[1:-7]
        items = [(json.dumps({k: None})[1:-7] + ": ", v) for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        types = set(map(type, obj))
        if types == {int} or (types == {float} and all(map(math.isfinite, obj))):
            text = map(int.__repr__ if types == {int} else float.__repr__, obj)
            yield "[\n" + inner + (",\n" + inner).join(text) + "\n" + indent + "]"
            return
        items = [("", v) for v in obj]
        brackets = "[]"
    else:
        if isinstance(obj, np.integer):
            obj = int(obj)
        elif isinstance(obj, np.floating):
            obj = float(obj)
        if isinstance(obj, float) and not math.isfinite(obj):
            obj = "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
        yield json.dumps(obj)
        return
    if not items:
        yield brackets
        return
    lead = brackets[0] + "\n" + inner
    for prefix, value in items:
        yield lead + prefix
        yield from _json_chunks(value, inner)
        lead = ",\n" + inner
    yield "\n" + indent + brackets[1]


def _emit(args: argparse.Namespace, payload: dict, seed: int | None = None) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and not k.startswith("_")}
    envelope = {
        "tool_version": __version__,
        "config": config,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
    }
    sys.stdout.writelines(_json_chunks(envelope))
    sys.stdout.write("\n")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(obj))
        fh.write("\n")


def _channel_from_args(parser: _Parser, args: argparse.Namespace) -> Dmc:
    if args.channel is not None and args.bsc is not None:
        parser.error("pass either --channel or --bsc, not both")
    if args.channel is not None:
        return dmc_from_dict(_load_json(args.channel))
    if args.bsc is not None:
        cost = tuple(args.cost) if args.cost is not None else (0.0, 1.0)
        constraint = args.constraint if args.constraint is not None else max(cost)
        return bsc(args.bsc, cost=cost, constraint=constraint)
    parser.error("a channel is required: --channel FILE or --bsc CROSSOVER")
    raise AssertionError  # parser.error never returns


def _add_channel_args(sub: _Parser) -> None:
    sub.add_argument("--channel", metavar="FILE", help="channel description as JSON")
    sub.add_argument("--bsc", type=float, metavar="P", help="binary symmetric channel with this crossover")
    sub.add_argument("--cost", type=float, nargs=2, metavar=("C0", "C1"),
                     help="letter costs for --bsc (default 0 1)")
    sub.add_argument("--constraint", type=float, metavar="A",
                     help="mean input cost ceiling (default: unconstrained)")


def _cmd_capacity(parser: _Parser, args: argparse.Namespace) -> int:
    channel = _channel_from_args(parser, args)
    result = di_capacity(channel)
    payload = {
        "value_bits": result.value_bits,
        "maximizer": result.maximizer.tolist(),
        "lagrange_multiplier": result.lagrange_multiplier,
        "binding": result.binding,
        "input_size": channel.input_size,
        "reduced_input_size": result.maximizer.size,
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_reduce(parser: _Parser, args: argparse.Namespace) -> int:
    channel = _channel_from_args(parser, args)
    reduced, rmap = reduce_channel(channel)
    payload = {
        "channel": dmc_to_dict(reduced),
        "class_of": list(rmap.class_of),
        "representative": list(rmap.representative),
    }
    if args.output:
        _write_json(args.output, dmc_to_dict(reduced))
        payload["output"] = args.output
    _emit(args, payload)
    return EXIT_OK


def _cmd_sweep_bsc(parser: _Parser, args: argparse.Namespace) -> int:
    if args.points < 2:
        parser.error("--points must be at least 2")
    grid = np.linspace(args.start, args.stop, args.points)
    curve = bsc_capacity_curve(args.crossover, grid)
    lines = ["constraint,capacity_bits"]
    lines += [f"{a:.10g},{c:.12g}" for a, c in curve]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, {"rows": len(grid), "output": args.output})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_codebook_dmc(parser: _Parser, args: argparse.Namespace) -> int:
    channel = _channel_from_args(parser, args)
    codebook, report = build_codebook(
        channel,
        n=args.n,
        rate=args.rate,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        mode=args.mode,
        backoff=args.backoff,
        cost_margin=args.cost_margin,
    )
    report_dict = report.to_dict()
    record = {**_codebook_fields(codebook), "words": codebook.words}  # the array, written as one chunk
    payload = {"report": report_dict, "validation": validate_codebook(codebook)}
    if args.output:
        _write_json(args.output, {"codebook": record, "report": report_dict})
        payload["output"] = args.output
    else:
        payload["codebook"] = record
    _emit(args, payload, seed=args.seed)
    return EXIT_OK


def _cmd_simulate(parser: _Parser, args: argparse.Namespace) -> int:
    obj = _load_json(args.codebook)
    codebook = args._from_dict(obj["codebook"] if "codebook" in obj else obj)
    report = args._simulate(
        codebook,
        trials=args.trials,
        seed=args.seed,
        pair_budget=args.pair_budget,
        message_budget=args.message_budget,
    )
    _emit(args, report.to_dict(), seed=args.seed)
    return EXIT_OK


def _cmd_codebook_gauss(parser: _Parser, args: argparse.Namespace) -> int:
    channel = GaussChannel(sigma2=args.sigma2, power=args.power)
    codebook, certificate = build_gauss_codebook(
        channel,
        n=args.n,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        probe_budget=args.probe_budget,
        max_centers=args.max_centers,
        probe_trials=args.probe_trials,
    )
    certificate_dict = certificate.to_dict()
    payload = {
        "certificate": certificate_dict,
        "min_center_distance": min_center_distance(codebook),
    }
    if args.output:
        _write_json(args.output, {"codebook": gauss_codebook_to_dict(codebook),
                                  "certificate": certificate_dict})
        payload["output"] = args.output
    else:
        payload["codebook"] = gauss_codebook_to_dict(codebook)
    _emit(args, payload, seed=args.seed)
    return EXIT_OK


def _cmd_discretize(parser: _Parser, args: argparse.Namespace) -> int:
    dc = to_dmc(
        sigma2=args.sigma2,
        power=args.power,
        step=args.step,
        input_j=args.input_j,
        output_j=args.output_j,
    )
    # The input pmf from to_dmc, summed in the order of discretized_entropy and entropy_defect.
    entropy = entropy_bits(dc.input_probabilities)
    payload = {
        "step": dc.step,
        "input_j": dc.input_j,
        "output_j": dc.output_j,
        "input_size": dc.channel.input_size,
        "output_size": dc.channel.output_size,
        "entropy_bits": entropy,
        "entropy_plus_log_step": entropy + math.log2(dc.step),
        "differential_entropy_limit": gaussian_differential_entropy(args.power),
        "entropy_defect": entropy + math.log2(dc.step) - gaussian_differential_entropy(args.power),
        "rows_distinct": dc.rows_distinct,
        "min_row_gap": dc.min_row_gap,
        "constraint": dc.channel.constraint,
    }
    if args.output:
        _write_json(args.output, dmc_to_dict(dc.channel))
        payload["output"] = args.output
    _emit(args, payload)
    return EXIT_OK


def _cmd_verify(parser: _Parser, args: argparse.Namespace) -> int:
    names = args.check if args.check else None
    results = run_checks(names)
    unexpected = [r for r in results if r.unexpected_failure]
    if args.json:
        payload = {
            "results": [r.to_dict() for r in results],
            "unexpected_failures": [r.name for r in unexpected],
        }
        _emit(args, payload)
    else:
        for r in results:
            print(format_line(r))
        expected = sum(1 for r in results if not r.passed and not r.unexpected_failure)
        passed = sum(r.passed and r.within_limit for r in results)
        summary = f"{passed}/{len(results)} checks passed"
        if expected:
            summary += f", {expected} expected failure{'s' if expected > 1 else ''}"
        if unexpected:
            summary += f", {len(unexpected)} UNEXPECTED failure{'s' if len(unexpected) > 1 else ''}"
        print(summary)
    return EXIT_FAILURE if unexpected else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="di-codes", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"di-codes {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("capacity", help="identification capacity of a constrained channel")
    _add_channel_args(p)
    p.set_defaults(func=_cmd_capacity)

    p = subs.add_parser("reduce", help="merge duplicate channel rows, report the letter map")
    _add_channel_args(p)
    p.add_argument("--output", metavar="FILE", help="write the reduced channel as JSON")
    p.set_defaults(func=_cmd_reduce)

    p = subs.add_parser("sweep-bsc", help="capacity of the weight-constrained BSC over a grid (CSV)")
    p.add_argument("--crossover", type=float, required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--output", metavar="FILE", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep_bsc)

    p = subs.add_parser("codebook-dmc", help="construct a typicality codebook")
    _add_channel_args(p)
    p.add_argument("--n", type=int, required=True, help="block length")
    p.add_argument("--rate", type=float, required=True, help="bits per symbol; M = floor(2^(n*rate))")
    p.add_argument("--epsilon", type=float, required=True, help="separation fraction of n")
    p.add_argument("--delta", type=float, required=True, help="typicality slack per letter pair")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("faithful", "greedy"), default="faithful")
    p.add_argument("--backoff", type=float, default=None,
                   help="entropy margin the rate must clear (default 3x the sphere exponent)")
    p.add_argument("--cost-margin", type=float, default=0.0)
    p.add_argument("--output", metavar="FILE", help="write codebook + report as JSON")
    p.set_defaults(func=_cmd_codebook_dmc)

    p = subs.add_parser("codebook-gauss", help="pack codeword centers for the Gaussian channel")
    p.add_argument("--sigma2", type=float, default=1.0, help="noise variance")
    p.add_argument("--power", type=float, default=1.0, help="mean power ceiling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True, help="protection radius squared")
    p.add_argument("--delta", type=float, required=True, help="decoder energy slack")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--probe-budget", type=int, default=DEFAULT_PROBE_BUDGET,
                   help="consecutive rejections that declare saturation")
    p.add_argument("--max-centers", type=int, default=None)
    p.add_argument("--probe-trials", type=int, default=DEFAULT_PROBE_TRIALS)
    p.add_argument("--output", metavar="FILE", help="write codebook + certificate as JSON")
    p.set_defaults(func=_cmd_codebook_gauss)

    for name, help_text, from_dict, simulate in (
        ("simulate-dmc", "estimate both error kinds for a stored codebook",
         codebook_from_dict, simulate_errors),
        ("simulate-gauss", "estimate both error kinds for a stored Gaussian codebook",
         gauss_codebook_from_dict, simulate_gauss_errors),
    ):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--codebook", metavar="FILE", required=True)
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET)
        p.add_argument("--message-budget", type=int, default=None)
        p.set_defaults(func=_cmd_simulate, _from_dict=from_dict, _simulate=simulate)

    p = subs.add_parser("discretize", help="quantize the Gaussian channel onto a finite lattice")
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--step", type=float, required=True, help="lattice spacing")
    p.add_argument("--input-j", type=int, required=True, help="inputs span -J..J lattice points")
    p.add_argument("--output-j", type=int, default=None,
                   help="output span (default: input span plus 4 sigma)")
    p.add_argument("--output", metavar="FILE", help="write the induced channel as JSON")
    p.set_defaults(func=_cmd_discretize)

    p = subs.add_parser("verify", help="run the acceptance checks (several minutes for the full set)")
    p.add_argument("--check", action="append", choices=list(CHECKS),
                   help="run only this check (repeatable)")
    p.add_argument("--json", action="store_true", help="emit one JSON envelope instead of text lines")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except BudgetError as exc:
        print(f"di-codes: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DiCodesError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"di-codes: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
