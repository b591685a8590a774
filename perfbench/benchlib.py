"""Pure helpers of the benchmark: summary statistics, span self time and the
parser for ``python -X importtime`` output.  Nothing here starts a process.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Layers of the package, bottom up.  Every per-layer metric is keyed by these.
LAYERS = ("numerics", "idf", "distributions", "bounds", "models", "estimators",
          "coupling", "cli")

# The tail percentile of command wall time must have at least this many
# samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> dict:
    """The highest percentile that has at least ``beyond`` samples above it.

    With the samples sorted, that is the nearest-rank percentile of the
    sample with exactly ``beyond`` samples after it.  With ``beyond`` or fewer
    samples no percentile qualifies; the maximum is reported instead, with
    ``samples_beyond`` 0 so the record says so.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return {"value": xs[-1], "percentile": 100.0, "samples": n, "samples_beyond": 0}
    k = n - beyond - 1
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / n, "samples": n,
            "samples_beyond": beyond}


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``.

    Child spans opened in worker threads overlap each other, so their
    durations are merged, never summed.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that child spans cover.

    ``spans`` are dicts with ``id``, ``parent``, ``t0`` and ``t1``.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"]) - covered_length(children[s["id"]], s["t0"], s["t1"])
            for s in spans}


def parse_importtime(text: str) -> dict:
    """Import cost from ``python -X importtime`` stderr, in seconds.

    ``import_s`` sums the cumulative time of the top-level ``subuniform``
    imports; ``scipy_s`` sums the cumulative time of every ``scipy`` import
    that no other ``scipy`` import encloses.
    """
    pending = defaultdict(list)  # depth -> finished nodes awaiting their parent
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        raw = parts[2][1:]
        name = raw.lstrip()
        depth = (len(raw) - len(name)) // 2
        node = (name, int(parts[1]) * 1e-6, pending.pop(depth + 1, []))
        pending[depth].append(node)
    roots = pending.get(0, [])

    def scipy_time(node, inside: bool) -> float:
        name, cum, kids = node
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            return cum
        return sum(scipy_time(k, inside or is_scipy) for k in kids)

    return {
        "import_s": sum(cum for name, cum, _ in roots
                        if name == "subuniform" or name.startswith("subuniform.")),
        "scipy_s": sum(scipy_time(r, False) for r in roots),
    }


def layer_metrics(spans, wall_s: float, memory_spans) -> dict:
    """Per-layer calls, self time and share of ``wall_s`` from ``spans``, and
    the peak traced memory from ``memory_spans`` (a separate pass, so that
    tracemalloc does not slow the timed one)."""
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        self_s = sum(own[s["id"]] for s in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall_s if wall_s > 0 else 0.0
        out[f"{layer}.peak_mb"] = max((s["peak_bytes"] for s in memory_spans
                                       if s["layer"] == layer), default=0) / 1e6
    return out
