"""Self-tests of the benchmark's helpers.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ tail rule

def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 41))  # 40 samples
    tail = benchlib.tail_percentile(values)
    assert tail["value"] == 30
    assert sum(v > tail["value"] for v in values) == 10
    assert tail["percentile"] == pytest.approx(75.0)
    assert (tail["samples"], tail["samples_beyond"]) == (40, 10)


def test_tail_is_order_free_and_rises_with_more_samples():
    values = [float((7 * i) % 100) for i in range(100)]  # 0..99, shuffled
    tail = benchlib.tail_percentile(values)
    assert tail["value"] == 89.0 and tail["percentile"] == pytest.approx(90.0)
    assert benchlib.tail_percentile(sorted(values)) == tail
    assert benchlib.tail_percentile(values * 10)["percentile"] == pytest.approx(99.0)


def test_tail_with_eleven_samples_is_the_minimum():
    tail = benchlib.tail_percentile([float(v) for v in range(11)])
    assert tail["value"] == 0.0 and tail["samples_beyond"] == 10


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_with_too_few_samples_reports_the_maximum(n):
    tail = benchlib.tail_percentile(list(range(n)))
    assert tail == {"value": n - 1, "percentile": 100.0, "samples": n, "samples_beyond": 0}


# ------------------------------------------------------------------ self time

def _span(i, parent, t0, t1, layer="models"):
    return {"id": i, "parent": parent, "t0": t0, "t1": t1, "layer": layer, "peak_bytes": 0}


def test_self_time_merges_overlapping_threaded_children():
    # frequency_run [0, 10] with blocks on two threads: [1, 5] and [2, 6]
    # overlap, [8, 9] stands alone.  Covered: [1, 6] and [8, 9] = 6.
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 5.0), _span(3, 1, 2.0, 6.0),
             _span(4, 1, 8.0, 9.0)]
    own = benchlib.self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(4.0) and own[3] == pytest.approx(4.0)


def test_self_time_nested_and_clipped():
    spans = [_span(1, None, 0.0, 4.0), _span(2, 1, 1.0, 3.0), _span(3, 2, 1.5, 2.0),
             _span(5, 1, 3.5, 4.5)]  # a child that outlives its parent is clipped
    own = benchlib.self_times(spans)
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(0.5)


def test_layer_metrics_sum_self_time_per_layer():
    spans = [_span(1, None, 0.0, 10.0, "cli"), _span(2, 1, 1.0, 5.0, "models"),
             _span(3, 1, 2.0, 6.0, "models")]
    memory = [dict(s, peak_bytes=3_000_000 if s["id"] == 2 else 0) for s in spans]
    m = benchlib.layer_metrics(spans, 20.0, memory)
    assert m["cli.self_s"] == pytest.approx(5.0) and m["cli.share"] == pytest.approx(0.25)
    assert m["models.self_s"] == pytest.approx(8.0) and m["models.calls"] == 2
    assert m["models.peak_mb"] == pytest.approx(3.0)
    assert m["coupling.calls"] == 0 and m["coupling.self_s"] == 0


# ------------------------------------------------------------------ importtime

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | encodings
import time:       200 |        200 |       scipy._lib
import time:       300 |        500 |     scipy
import time:        50 |         50 |       scipy.special._ufuncs
import time:        70 |        120 |     scipy.special
import time:       400 |       1020 |   subuniform.numerics
import time:      1000 |       2020 | subuniform
"""


def test_parse_importtime_counts_outermost_scipy_only():
    r = benchlib.parse_importtime(IMPORTTIME)
    assert r["import_s"] == pytest.approx(2020e-6)
    assert r["scipy_s"] == pytest.approx(620e-6)


# ------------------------------------------------------------------ inputs

def _inputs(tmp_path: Path, workload: str, seed: int, tag: str):
    workdir = tmp_path / tag
    workdir.mkdir()
    commands = workloads.build(workload, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argvs = [c.argv for c in commands]
    return files, [tuple(a.replace(str(workdir), "") for a in argv) for argv in argvs]


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_same_seed_gives_same_inputs_and_commands(tmp_path, workload):
    assert _inputs(tmp_path, workload, 7, "a") == _inputs(tmp_path, workload, 7, "b")


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_other_seed_gives_other_inputs_or_commands(tmp_path, workload):
    assert _inputs(tmp_path, workload, 7, "a") != _inputs(tmp_path, workload, 8, "b")


def test_threaded_lasso_pair_shares_its_seed(tmp_path):
    cmds = {c.name: c for c in workloads.build("simulate", 3, tmp_path)}
    one, two = cmds["lasso.threads1"], cmds["lasso.threads2"]
    assert one.argv == two.argv and (one.threads, two.threads) == ("1", "2")
    assert two.same_as == one.name


# ------------------------------------------------------------------ checks

def test_checks_reject_wrong_output():
    with pytest.raises(workloads.CheckFailed):
        workloads.check_calibrate(0.03, 0.06)(b'{"p": 0.03, "conservative_p": 0.05}\n')
    with pytest.raises(workloads.CheckFailed):
        workloads.check_minp(0.01, 12)(
            b'{"min": 0.01, "m": 12, "conservative_p": 0.2}\n')
    workloads.check_minp(0.01, 12)(json.dumps(
        {"min": 0.01, "m": 12, "conservative_p": 1 - 0.98**12}).encode())


# ------------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_names_every_reported_metric():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
