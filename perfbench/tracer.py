"""Traced runner: one cold process that runs one benchmark command with spans.

Usage:  python tracer.py SPANS_FILE (time|memory) (ppp|hbound) ARG...

It imports ``subuniform`` inside an ``import`` span, wraps the public
functions of every layer at each name a calling module binds, then runs
``subuniform.cli.main(ARG...)`` (or the benchmark's h_bound script) with
stdout untouched.  ``time`` records span times only; ``memory`` also records
tracemalloc peaks (see Tracer).  Spans stay in memory and are written to
SPANS_FILE as JSON lines when the command ends.  The exit code is the
command's.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter

# Spans whose worker threads inherit them as parent: frequency_run hands its
# blocks to a thread pool, and a span opened there has no enclosing span of
# its own thread.
FANOUT = frozenset({"frequency_run"})


def _n_arg(pos):
    def attrs(args, kwargs, result):
        return {"n": int(args[pos] if len(args) > pos else kwargs["n"])}
    return attrs


def _sample_attrs(args, kwargs, result):
    return {"values": int(args[0].n)}


def _dominance_attrs(args, kwargs, result):
    lower, upper = args[0], args[1]
    return {"breakpoints": int(lower.breakpoints.size + upper.breakpoints.size),
            "holds": bool(result)}


def _transport_attrs(args, kwargs, result):
    return {"bins": len(args[1][0]), "atoms": len(args[0][0])}


def _synth_attrs(args, kwargs, result):
    meta = result.meta
    return {"bins": int(meta.get("n_bins", 0)),
            "discretization_ks": float(meta.get("discretization_ks", 0.0))}


def _estimator_attrs(args, kwargs, result):
    return {"n": int(args[2]), "m_draws": int(args[0].m_draws)}


# (layer, module under subuniform, qualified name, attribute extractor).
# Names missing from the package under test are skipped.
SPANS = (
    ("numerics", "numerics", "EmpiricalSample.__init__", _sample_attrs),
    ("numerics", "numerics", "RngStream.generator", None),
    ("numerics", "numerics", "RngStream.block_generator", None),
    ("numerics", "numerics", "chi2_sf", None),
    ("numerics", "numerics", "chi2_quantile", None),
    ("numerics", "numerics", "ks_statistic", None),
    ("numerics", "numerics", "log_gamma", None),
    ("idf", "idf", "IntegratedDF.from_samples", None),
    ("idf", "idf", "IntegratedDF.from_atoms", None),
    ("idf", "idf", "IntegratedDF.mean", None),
    ("idf", "idf", "IntegratedDF.validate", None),
    ("idf", "idf", "dominates_cx", _dominance_attrs),
    ("idf", "idf", "uniform_idf", None),
    ("idf", "idf", "beta22_idf", None),
    ("idf", "idf", "mean_of", None),
    ("distributions", "distributions", "SubUniformDist.cdf", None),
    ("distributions", "distributions", "SubUniformDist.sample", None),
    ("distributions", "distributions", "SubUniformDist.idf", None),
    ("distributions", "distributions", "SubUniformDist.is_sub_uniform", None),
    ("distributions", "distributions", "SubUniformDist.from_json", None),
    ("distributions", "distributions", "SubUniformDist.to_json", None),
    ("distributions", "distributions", "p2alpha", None),
    ("distributions", "distributions", "as_p2alpha", None),
    ("distributions", "distributions", "ks_distance", None),
    ("distributions", "distributions", "discretize", None),
    ("distributions", "distributions", "atom_frequencies", None),
    ("distributions", "distributions", "continuous_part_ks", None),
    ("bounds", "bounds", "conservative_single", None),
    ("bounds", "bounds", "h_bound", None),
    ("bounds", "bounds", "fisher_score", None),
    ("bounds", "bounds", "fisher_bounds", None),
    ("bounds", "bounds", "fisher_report", None),
    ("bounds", "bounds", "fisher_critical", None),
    ("bounds", "bounds", "minp_bound", None),
    ("bounds", "bounds", "minp_limit_check", None),
    ("bounds", "bounds", "FisherReport.to_json", None),
    ("models", "models", "frequency_run", _n_arg(1)),
    ("models", "models", "GenerativeModel.draw_pvalues", _n_arg(2)),
    ("models", "models", "exact_ppp", None),
    ("models", "models", "lasso_model", None),
    ("models", "models", "simplex_model", None),
    ("models", "models", "port_model", None),
    ("models", "models", "load_port_pmfs", None),
    ("models", "models", "ruschendorf_sample", None),
    ("models", "models", "simplex_atom", None),
    ("estimators", "estimators", "EstimatorScheme.draw_pvalues", _estimator_attrs),
    ("estimators", "estimators", "PosteriorSampler.draw_matrix", None),
    ("estimators", "estimators", "marginal_estimator_run", None),
    ("estimators", "estimators", "estimate_p_hat", None),
    ("estimators", "estimators", "estimate_r_hat", None),
    ("coupling", "coupling", "synthesize_ppp", _synth_attrs),
    ("coupling", "coupling", "martingale_transport", _transport_attrs),
    ("coupling", "coupling", "SyntheticPPPModel.draw_joint", None),
    ("coupling", "coupling", "SyntheticPPPModel.to_json", None),
    ("coupling", "coupling", "ConditionalLaw.martingale_residual", None),
    ("coupling", "coupling", "explicit_p2alpha_coupling", None),
    ("coupling", "coupling", "uniform_coupling", None),
    ("coupling", "coupling", "mod1_family", None),
    ("cli", "cli", "main", None),
)


# Spans of these never switch tracemalloc on: the import is outside every
# layer, and cli's per-line write loops allocate so often that tracemalloc
# slows them twentyfold.
UNTRACED_LAYERS = frozenset({"import", "cli"})


class Tracer:
    """Span recorder.  With ``memory`` set, tracemalloc runs while a span of a
    layer below cli is open; its high-water mark, reset at every span
    boundary, is credited to every span open at that moment.  Without it the
    spans carry times only, undisturbed by tracemalloc."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.traced_depth = 0
        self.lock = threading.Lock()
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.open: dict[int, dict] = {}
        self.fanout: list[int] = []
        self.records: list[dict] = []
        self.counts: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _memory_event(self) -> int:
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for rec in self.open.values():
            rec["peak"] = max(rec["peak"], peak)
        tracemalloc.reset_peak()
        return current

    def enter(self, name: str, layer: str) -> dict:
        stack = self._stack()
        with self.lock:
            if stack:
                parent = stack[-1]["id"]
            else:
                parent = self.fanout[-1] if self.fanout else None
            if self.memory and layer not in UNTRACED_LAYERS:
                if self.traced_depth == 0:
                    tracemalloc.start()
                self.traced_depth += 1
            current = self._memory_event()
            rec = {"kind": "span", "id": next(self.ids), "parent": parent, "name": name,
                   "layer": layer, "thread": threading.get_ident(), "mem0": current,
                   "peak": current}
            self.open[rec["id"]] = rec
            if name in FANOUT:
                self.fanout.append(rec["id"])
            rec["t0"] = time.perf_counter()
        stack.append(rec)
        return rec

    def exit(self, rec: dict, attrs: dict) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        with self.lock:
            self._memory_event()
            if self.memory and rec["layer"] not in UNTRACED_LAYERS:
                self.traced_depth -= 1
                if self.traced_depth == 0:
                    tracemalloc.stop()
            del self.open[rec["id"]]
            if rec["name"] in FANOUT:
                self.fanout.remove(rec["id"])
            rec["t1"] = t1
            rec["peak_bytes"] = rec.pop("peak") - rec.pop("mem0")
            rec["attrs"] = attrs
            self.records.append(rec)

    def add_timer(self, name: str, t0: float, t1: float, attrs: dict) -> None:
        with self.lock:
            self.records.append({"kind": "timer", "name": name, "t0": t0, "t1": t1,
                                 "attrs": attrs})

    def count(self, key: str) -> None:
        with self.lock:
            self.counts[key] += 1

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"kind": "counts", "counts": dict(self.counts)}) + "\n")


def _span_wrapper(tracer: Tracer, fn, name: str, layer: str, attrs_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.enter(name, layer)
        attrs = {}
        try:
            result = fn(*args, **kwargs)
            if attrs_fn is not None:
                try:
                    attrs = attrs_fn(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    attrs = {"attrs_unavailable": True}
            return result
        finally:
            tracer.exit(rec, attrs)
    return traced


def _count_wrapper(tracer: Tracer, fn, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)
    return counted


def _timer_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_timer(name, t0, time.perf_counter(), {"vars": len(args[0])})
    return timed


def _replace(modname: str, qualname: str, make_wrapper) -> None:
    """Replace a package function or method by its wrapper, at every name a
    subuniform module binds it under.  A name the package lacks is skipped."""
    module = sys.modules.get(f"subuniform.{modname}")
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = cls.__dict__.get(attr) if cls is not None else None
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(make_wrapper(raw.__func__)))
        elif raw is not None:
            setattr(cls, attr, make_wrapper(raw))
        return
    original = getattr(module, qualname, None)
    if original is None:
        return
    wrapped = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "subuniform" or name.startswith("subuniform.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    for layer, modname, qualname, attrs_fn in SPANS:
        name = qualname.replace(".__init__", "")
        _replace(modname, qualname,
                 lambda fn, n=name, l=layer, a=attrs_fn: _span_wrapper(tracer, fn, n, l, a))
    # Counted, not spanned: called too often for a span to be cheap.
    _replace("idf", "IntegratedDF.evaluate",
             lambda fn: _count_wrapper(tracer, fn, "idf.evaluate"))
    # Timed without a span, so that the LP stays in coupling's self time.
    _replace("coupling", "linprog", lambda fn: _timer_wrapper(tracer, fn, "linprog"))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("time", "memory") or argv[2] not in ("ppp", "hbound"):
        print("usage: tracer.py SPANS_FILE (time|memory) (ppp|hbound) ARG...", file=sys.stderr)
        return 2
    spans_path, mode, kind, args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(memory=mode == "memory")
    try:
        rec = tracer.enter("import", "import")
        try:
            import subuniform  # noqa: F401
            import subuniform.cli
        finally:
            tracer.exit(rec, {})
        install(tracer)
        if kind == "ppp":
            code = subuniform.cli.main(args)
        else:
            import hbound_cmd
            code = hbound_cmd.main(args)
        sys.stdout.flush()
        return code
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
