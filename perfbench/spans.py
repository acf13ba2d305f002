"""Span recorder and per-layer report for a traced ``skeintails verify`` run.

Run as a program it imports ``skeintails``, wraps the public functions of
each layer (module) from the outside, runs ``cli.main(["verify", ...])``
and writes the spans to a file.  Imported, it loads that file and turns
the spans into the per-layer metrics.

A span is (name, parent, start, end, work, top).  ``name`` is
``<layer>.<group>``, where the layer is the module.  ``work`` is a count
computed from the call's arguments (for example len(a) * len(b) for a
series product).  ``top`` is false when the span runs inside another
span of the same name, so inclusive times never count a nested call
twice.  A span's self time is its duration minus that of its direct
children; a layer's self time is the sum over its spans, so the self
times of all layers add up to the duration of the root ``cli.main`` span.

Usage: python3 perfbench/spans.py SUITE SPANS_OUT REPORT_OUT
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array

# (span name, module, attribute, work computed from the call's arguments)
WRAPPED = [
    ("qcore.series_mul", "qcore", "series_mul", lambda a, b: len(a.coeffs) * len(b.coeffs)),
    ("qcore.series_div", "qcore", "series_div", None),
    ("qcore.poch", "qcore", "poch_inf", None),
    ("qcore.poch", "qcore", "poch_inf_step", None),
    ("qcore.poch", "qcore", "poch_finite", None),
    ("qcore.poch", "qcore", "qbinom", None),
    ("qcore.vfraction_new", "qcore", "VFraction.__init__", None),
    ("qcore.vlaurent_divmod", "qcore", "VLaurent.divmod_by", None),
    (
        "qcore.vlaurent_mul",
        "qcore",
        "VLaurent.__mul__",
        lambda s, o: len(s.terms) * (len(o.terms) if hasattr(o, "terms") else 1),
    ),
    ("qcore.quantum", "qcore", "quantum_fact", None),
    ("qcore.to_series", "qcore", "to_q_series", None),
    ("qcore.to_series", "qcore", "fraction_to_q_series", None),
    ("qcore.to_series", "qcore", "to_x_series", None),
    ("qcore.to_series", "qcore", "fraction_to_x_series", None),
    ("tl_oracle.jones_wenzl", "tl_oracle", "jones_wenzl", None),
    (
        "tl_oracle.mul",
        "tl_oracle",
        "TLElement.__mul__",
        lambda s, o: len(s.terms) * len(o.terms),
    ),
    ("tl_oracle.closure", "tl_oracle", "TLElement.trace_close", None),
    ("tl_oracle.closure", "tl_oracle", "TLElement.partial_close", None),
    ("tl_oracle.tensor", "tl_oracle", "TLElement.tensor_with", None),
    ("tl_oracle.tensor", "tl_oracle", "TLElement.tensor_strand", None),
    ("tl_oracle.coeff_of", "tl_oracle", "coeff_of", None),
    (
        "networks.bracket_closed",
        "networks",
        "bracket_closed",
        lambda net, *a, **k: 2 ** len(net.crossings),
    ),
    ("networks.build", "networks", "loop_network", None),
    ("networks.build", "networks", "kinked_loop", None),
    ("networks.build", "networks", "closed_projector", None),
    ("networks.build", "networks", "theta_network", None),
    ("networks.build", "networks", "tet_network", None),
    ("networks.build", "networks", "bubble_lhs_network", None),
    ("networks.build", "networks", "bubble_rhs_network", None),
    ("networks.build", "networks", "torus_knot_network", None),
    ("skein_formulas.bubble_coeff", "skein_formulas", "bubble_coeff", None),
    ("skein_formulas.theta_2n", "skein_formulas", "theta_2n", None),
    ("skein_formulas.tet_2n", "skein_formulas", "tet_2n", None),
    ("skein_formulas.p_coeff", "skein_formulas", "p_coeff", None),
    ("skein_formulas.nn_i_coeff", "skein_formulas", "nn_i_coeff", None),
    ("skein_formulas.colored_jones_torus", "skein_formulas", "colored_jones_torus", None),
    ("skein_formulas.chain_tail", "skein_formulas", "chain_tail", None),
    ("qidentities.nested_sum_series", "qidentities", "nested_sum_series", None),
    ("qidentities.direct_sums", "qidentities", "theta_f", None),
    ("qidentities.direct_sums", "qidentities", "false_theta", None),
    ("qidentities.direct_sums", "qidentities", "theta_general", None),
    ("qidentities.direct_sums", "qidentities", "psi_general", None),
    ("qidentities.ag_sums", "qidentities", "ag_rhs", None),
    ("qidentities.ag_sums", "qidentities", "false_ag_rhs", None),
    ("qidentities.lambda_series", "qidentities", "lambda_series", None),
    ("qidentities.tail_85", "qidentities", "tail_85", None),
    ("qidentities.named_series", "qidentities", "named_series", None),
    ("tails_engine.normalize", "tails_engine", "normalize", None),
    ("tails_engine.agree_to_order", "tails_engine", "agree_to_order", lambda a, b, n: n),
    ("tails_engine.sum_fraction_products_x", "tails_engine", "sum_fraction_products_x", None),
    ("tails_engine.x_series_to_normalized_q", "tails_engine", "x_series_to_normalized_q", None),
    ("tails_engine.stabilization_report", "tails_engine", "stabilization_report", None),
    ("tails_engine.tail_product", "tails_engine", "tail_product_1", None),
    ("tails_engine.tail_product", "tails_engine", "tail_product_23", None),
    ("tails_engine.graph_family_tail", "tails_engine", "graph_family_tail", None),
    ("verifycases.run_check", "verifycases", "run_check", None),
    ("cli.main", "cli", "main", None),
    ("cli.load_suite", "cli", "_load_suite", None),
    ("cli.run_case", "cli", "_run_case", None),
]

LAYERS = (
    "qcore",
    "tl_oracle",
    "networks",
    "skein_formulas",
    "qidentities",
    "tails_engine",
    "verifycases",
    "cli",
)

# Span names with a ``.calls`` metric; INCLUSIVE also has those with ``.s``.
CALLS = (
    "qcore.series_mul", "qcore.series_div", "qcore.vfraction_new",
    "qcore.vlaurent_divmod", "qcore.vlaurent_mul", "tl_oracle.jones_wenzl",
    "tl_oracle.mul", "networks.bracket_closed", "skein_formulas.bubble_coeff",
    "qidentities.nested_sum_series", "tails_engine.normalize",
)
INCLUSIVE = CALLS + (
    "qcore.poch", "tl_oracle.closure", "tl_oracle.tensor",
    "skein_formulas.tet_2n", "skein_formulas.nn_i_coeff",
    "skein_formulas.colored_jones_torus", "qidentities.direct_sums",
    "qidentities.lambda_series", "qidentities.tail_85",
    "tails_engine.sum_fraction_products_x", "tails_engine.stabilization_report",
)
# Counts computed from call arguments (the ``work`` of a span group).
COMPUTED = {
    "qcore.series_mul.coeff_products": "qcore.series_mul",
    "qcore.vlaurent_mul.term_products": "qcore.vlaurent_mul",
    "tl_oracle.mul.diagram_pairs": "tl_oracle.mul",
    "networks.crossing_states": "networks.bracket_closed",
    "tails_engine.coeffs_compared": "tails_engine.agree_to_order",
}


class Spans:
    """Spans kept in flat arrays, in the order they were opened."""

    def __init__(self, names: list[str] | None = None):
        self.names: list[str] = list(names or [])
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.top = array("b")

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, parent: int, start: float, end: float,
            work: int = 0, top: bool = True) -> int:
        """Append a finished span (used by the self-test)."""
        if name not in self.names:
            self.names.append(name)
        self.name.append(self.names.index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.work.append(work)
        self.top.append(top)
        return len(self.name) - 1

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.work, self.top):
                arr.tofile(fh)

    @classmethod
    def load(cls, path: str) -> "Spans":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            spans = cls(header["names"])
            n = header["count"]
            for arr in (spans.name, spans.parent, spans.start, spans.end, spans.work, spans.top):
                arr.fromfile(fh, n)
        return spans


class Recorder:
    """Wraps functions so that each call appends one span to ``spans``."""

    def __init__(self):
        self.spans = Spans()
        self._stack = [-1]
        self._depth: list[int] = []

    def wrap(self, name: str, fn, work=None):
        sp = self.spans
        if name not in sp.names:
            sp.names.append(name)
            self._depth.append(0)
        nid = sp.names.index(name)
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        names, parents, starts, ends, works, tops = (
            sp.name, sp.parent, sp.start, sp.end, sp.work, sp.top,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            d = depth[nid]
            names.append(nid)
            parents.append(stack[-1])
            works.append(work(*args, **kwargs) if work else 0)
            tops.append(d == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] = d + 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] = d
                stack.pop()

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every function in WRAPPED wherever skeintails holds a reference.

    Names bound at import (``from .qcore import series_mul``) and dict
    registries hold the original function object, so every module
    namespace, class dict and dict value that is the original is replaced.
    """
    for layer in LAYERS:
        importlib.import_module(f"skeintails.{layer}")
    modules = [m for k, m in sys.modules.items() if k == "skeintails" or k.startswith("skeintails.")]
    for name, mod_name, attr, work in WRAPPED:
        obj = importlib.import_module(f"skeintails.{mod_name}")
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            obj = getattr(obj, part)
        original = getattr(obj, leaf)
        wrapper = recorder.wrap(name, original, work)
        for mod in modules:
            for space in [vars(mod)] + [
                v for v in vars(mod).values() if isinstance(v, dict)
            ]:
                for key, val in list(space.items()):
                    if val is original:
                        space[key] = wrapper
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__.startswith("skeintails"):
                    for key, val in list(vars(cls).items()):
                        if val is original:
                            setattr(cls, key, wrapper)


def _durations(spans: Spans) -> tuple[list[float], list[float]]:
    """Each span's duration and self time (duration minus its direct children)."""
    dur = [e - s for s, e in zip(spans.start, spans.end)]
    self_t = list(dur)
    for i, p in enumerate(spans.parent):
        if p >= 0:
            self_t[p] -= dur[i]
    return dur, self_t


def group_self_times(spans: Spans) -> dict[str, float]:
    """Self time of each span name, largest first."""
    out = dict.fromkeys(spans.names, 0.0)
    for i, t in enumerate(_durations(spans)[1]):
        out[spans.names[spans.name[i]]] += t
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_report(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds)."""
    n = len(spans)
    names = spans.names
    layer_of = [nm.split(".")[0] for nm in names]
    dur, self_t = _durations(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    calls = {nm: 0 for nm in names}
    incl = {nm: 0.0 for nm in names}
    work = {nm: 0 for nm in names}
    box_expansions = 0
    case_times = []
    for i in range(n):
        nm = names[spans.name[i]]
        out[f"{layer_of[spans.name[i]]}.self_s"] += self_t[i]
        calls[nm] += 1
        work[nm] += spans.work[i]
        if spans.top[i]:
            incl[nm] += dur[i]
        if nm == "tl_oracle.jones_wenzl":
            p = spans.parent[i]
            if p >= 0 and layer_of[spans.name[p]] == "networks":
                box_expansions += 1
        if nm == "cli.run_case":
            case_times.append(dur[i])
    for g in CALLS:
        out[f"{g}.calls"] = calls.get(g, 0)
    for g in INCLUSIVE:
        out[f"{g}.s"] = incl.get(g, 0.0)
    for metric, g in COMPUTED.items():
        out[metric] = work.get(g, 0)
    out["networks.box_expansions"] = box_expansions
    out["cli.cases"] = len(case_times)
    out["cli.max_case_s"] = max(case_times, default=0.0)
    return out


def is_time(metric: str) -> bool:
    return metric.endswith("_s") or metric.endswith(".s")


def median_report(reports: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time over the traced runs of one benchmark run.

    Counts are taken from the first run; the caller checks that they repeat.
    """
    return {
        k: statistics.median(r[k] for r in reports) if is_time(k) else v
        for k, v in reports[0].items()
    }


def main(argv: list[str]) -> int:
    suite, spans_out, report_out = argv
    recorder = Recorder()
    install(recorder)
    from skeintails import cli

    code = cli.main(["verify", suite, "--jobs", "1", "--out", report_out])
    recorder.spans.save(spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
