"""Spans around the calls into each layer of di_codes, recorded from outside.

``install`` rebinds the names the program's modules look up (for example
``dmc_code.pairwise_hamming`` or ``gauss_code.cKDTree``) to timing wrappers,
so the program's own files stay untouched. A span is recorded only while the
benchmark has an operation open; calls made during set-up pass straight
through. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from statistics import median


class Tracer:
    """In-memory spans, one column per field.

    Columns of numbers and strings leave the garbage collector a handful of
    lists to walk instead of one object per span.
    """

    FIELDS = ("name", "start", "end", "parent", "op", "round", "attrs")

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int | None] = []
        self.op: list[int | None] = []
        self.round: list[int | None] = []
        self.attrs: list[dict | None] = []
        self._stack: list[int] = []
        self.current_op: int | None = None
        self.current_round: int | None = None

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else None)
        self.op.append(self.current_op)
        self.round.append(self.current_round)
        self.end.append(0.0)
        self.attrs.append(None)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self.attrs[idx] = attrs
        self._stack.pop()

    def spans(self):
        """(name, start, end, parent, op, round, attrs) of every span, in opening order."""
        return zip(*(getattr(self, f) for f in self.FIELDS))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(dict(zip(self.FIELDS, span))) + "\n")


def _wrap(tracer: Tracer, fn, name: str, attrs=None):
    def traced(*args, **kwargs):
        if tracer.current_op is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            tracer.close(idx, attrs(args, kwargs, out) if attrs and out is not None else None)

    return traced


class _TracedTree:
    """Stands in for a cKDTree: the build and every query become spans."""

    def __init__(self, tracer: Tracer, tree_cls, data, *args, **kwargs):
        self._tracer = tracer
        if tracer.current_op is None:
            self._tree = tree_cls(data, *args, **kwargs)
            return
        idx = tracer.open("scipy.cKDTree.build")
        try:
            self._tree = tree_cls(data, *args, **kwargs)
        finally:
            tracer.close(idx, {"rows": len(data)})

    def query(self, x, *args, **kwargs):
        if self._tracer.current_op is None:
            return self._tree.query(x, *args, **kwargs)
        idx = self._tracer.open("scipy.cKDTree.query")
        try:
            return self._tree.query(x, *args, **kwargs)
        finally:
            eps = kwargs.get("eps", 0.0)
            bounded = kwargs.get("distance_upper_bound", float("inf")) != float("inf")
            self._tracer.close(idx, {"rows": len(x), "approx": eps > 0, "exact_cover": bounded and eps == 0})


def _rows_n(args, kwargs, out):
    w = args[0]
    return {"m": int(w.shape[0]), "n": int(w.shape[1])}


def _sampled(args, kwargs, out):
    return {"symbols": int(out.size)}


def _gauss_build(args, kwargs, out):
    return {"candidates": int(out[1].candidates_processed)}


def _mc_symbols(args, kwargs, out):
    codebook = args[0]
    estimates = len(out.pe1_errors) + len(out.pe2_errors)
    return {"symbols": out.trials * codebook.block_length * estimates,
            "outputs": getattr(codebook.channel, "output_size", 0)}


def install(tracer: Tracer, di_codes) -> None:
    """Rebind the looked-up names of every traced layer to timing wrappers."""
    from di_codes import cli, dmc_code, gauss_code

    tree_cls = gauss_code.cKDTree
    gauss_code.cKDTree = lambda data, *a, **k: _TracedTree(tracer, tree_cls, data, *a, **k)

    table = [
        (di_codes, "build_gauss_codebook", "gauss_code.build_gauss_codebook", _gauss_build),
        (di_codes, "min_center_distance", "gauss_code.min_center_distance", None),
        (di_codes, "simulate_gauss_errors", "gauss_code.simulate_gauss_errors", _mc_symbols),
        (di_codes, "build_codebook", "dmc_code.build_codebook", None),
        (di_codes, "validate_codebook", "dmc_code.validate_codebook", None),
        (di_codes, "simulate_errors", "dmc_code.simulate_errors", _mc_symbols),
        (cli, "main", "cli.main", None),
        (cli, "build_codebook", "dmc_code.build_codebook", None),
        (cli, "validate_codebook", "dmc_code.validate_codebook", None),
        (dmc_code, "pairwise_hamming", "typicality.pairwise_hamming", _rows_n),
        (dmc_code, "sample_type_class", "typicality.sample_type_class", _sampled),
        (dmc_code, "empirical_type", "typicality.empirical_type", None),
        (dmc_code, "input_cost", "channels.input_cost", None),
        (dmc_code, "reduce_channel", "channels.reduce_channel", None),
        (dmc_code, "max_entropy_pmf", "capacity.max_entropy_pmf", None),
        (dmc_code, "greedy_select", "dmc_code.greedy_select", None),
        (dmc_code, "drop_close_pairs", "dmc_code.drop_close_pairs", None),
        (dmc_code, "select_pairs", "dmc_code.select_pairs", None),
    ]
    for module, attr, name, attrs in table:
        setattr(module, attr, _wrap(tracer, getattr(module, attr), name, attrs))


# --- Per-layer metrics --------------------------------------------------------

def _median(values: list[float]) -> float:
    return median(values) if values else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, figures: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer figures from the spans; a layer the workload never calls reads 0.

    Times and counts are per round (median over rounds) unless the name says
    otherwise; rates are totals over the run divided by their base.
    ``figures`` carries per-round values the workload measured itself.
    """
    spans = list(tracer.spans())
    child_time = defaultdict(float)
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start

    per_round = defaultdict(lambda: [0.0] * rounds)  # (name, kind) -> per-round sums
    total = defaultdict(float)
    for idx, (name, start, end, parent, op, rnd, attrs) in enumerate(spans):
        dur = end - start
        attrs = attrs or {}
        per_round[name, "s"][rnd] += dur
        per_round[name, "calls"][rnd] += 1
        per_round[name, "self_s"][rnd] += dur - child_time[idx]
        total[name, "s"] += dur
        total[name, "self_s"] += dur - child_time[idx]
        total[name, "calls"] += 1
        for key, value in attrs.items():
            if isinstance(value, bool):
                if value:
                    total[name, key + "_rows"] += attrs.get("rows", 0)
            else:
                total[name, key] += value
                per_round[name, key][rnd] += value
        if name == "dmc_code.simulate_errors":
            kind = "binary" if attrs.get("outputs") == 2 else "wide"
            total[name, "s." + kind] += dur
            total[name, "symbols." + kind] += attrs.get("symbols", 0)
        if name == "typicality.pairwise_hamming":
            total[name, "m2n"] += attrs.get("m", 0) ** 2 * attrs.get("n", 0)
            if _root_name(spans, idx) == "cli.main":
                total[name, "calls_in_cli"] += 1

    def med(name, kind):
        return _median(per_round[name, kind]) if (name, kind) in per_round else 0.0

    q, b = "scipy.cKDTree.query", "scipy.cKDTree.build"
    g, ph = "gauss_code.build_gauss_codebook", "typicality.pairwise_hamming"
    se = "dmc_code.simulate_errors"
    mcd = [s[2] - s[1] for s in spans if s[0] == "gauss_code.min_center_distance"]
    return {
        q + ".calls": med(q, "calls"),
        q + ".rows": med(q, "rows"),
        q + ".us_per_row": _ratio(total[q, "s"], total[q, "rows"], 1e6),
        q + ".exact_rows_ratio": _ratio(total[q, "exact_cover_rows"], total[q, "approx_rows"]),
        b + ".count": med(b, "calls"),
        b + ".s": med(b, "s"),
        g + ".self_s": med(g, "self_s"),
        g + ".us_per_candidate": _ratio(total[g, "self_s"], total[g, "candidates"], 1e6),
        "gauss_code.min_center_distance.s": _median(mcd),
        ph + ".calls_per_codebook": _ratio(total[ph, "calls_in_cli"], total["cli.main", "calls"]),
        ph + ".s": med(ph, "s"),
        ph + ".ns_per_m2n": _ratio(total[ph, "s"], total[ph, "m2n"], 1e9),
        "typicality.sample_type_class.ns_per_symbol": _ratio(
            total["typicality.sample_type_class", "s"], total["typicality.sample_type_class", "symbols"], 1e9),
        "dmc_code.greedy_select.s": med("dmc_code.greedy_select", "s"),
        "dmc_code.drop_close_pairs.s": med("dmc_code.drop_close_pairs", "s"),
        "dmc_code.validate_codebook.self_s": med("dmc_code.validate_codebook", "self_s"),
        "typicality.empirical_type.calls": med("typicality.empirical_type", "calls"),
        "channels.input_cost.calls": med("channels.input_cost", "calls"),
        "channels.reduce_channel.calls": med("channels.reduce_channel", "calls"),
        "capacity.max_entropy_pmf.calls": med("capacity.max_entropy_pmf", "calls"),
        "cli.main.self_s": med("cli.main", "self_s"),
        "cli.envelope_bytes": _median(figures.get("envelope_bytes", [])),
        se + ".ns_per_symbol.binary": _ratio(total[se, "s.binary"], total[se, "symbols.binary"], 1e9),
        se + ".ns_per_symbol.wide": _ratio(total[se, "s.wide"], total[se, "symbols.wide"], 1e9),
        "dmc_code.select_pairs.s": med("dmc_code.select_pairs", "s"),
        "gauss_code.simulate_gauss_errors.ns_per_symbol": _ratio(
            total["gauss_code.simulate_gauss_errors", "s"],
            total["gauss_code.simulate_gauss_errors", "symbols"], 1e9),
    }


def _root_name(spans: list[tuple], idx: int) -> str:
    while spans[idx][3] is not None:
        idx = spans[idx][3]
    return spans[idx][0]
