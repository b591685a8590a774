"""The benchmark's workloads: inputs made from the seed, the command lists and
the check of every command's output.

Each workload is a fixed list of commands.  A command is either a ``ppp``
invocation or the benchmark's h_bound script.  All of a workload's command
seeds and generated inputs come from ``numpy.random.default_rng(seed)``,
drawn in a fixed order, so one seed always gives the same commands and the
same input bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hbound_cmd import ALPHAS

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "simulate": "Summary-only ppp simulate at n=2e6 on every model plus two estimator runs: "
                "frequency runs and their sort/IDF/KS summaries do the work; peak RSS lives here.",
    "bounds_export": "Short cold calibrate/minp/fisher/curves/h_bound commands, then simulate "
                     "and construct (beta22) writing 5e5 values each: import, scalar bounds, "
                     "coupling and the cli write loops.",
}


class CheckFailed(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    kind: str = "ppp"                   # "ppp" or "hbound"
    threads: str | None = None          # PPP_THREADS for the child, if set
    replicates: int = 0                 # replicates drawn, for replicates_per_s
    check: Callable[[bytes], None] | None = None
    outputs: tuple[Path, ...] = field(default=())  # files the command writes
    same_as: str | None = None          # command whose stdout must be identical


# ------------------------------------------------------------------ checks

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON object: {exc}") from exc


def _read_values(path: Path, n: int) -> np.ndarray:
    text = path.read_text()
    _require(text.count("\n") == n and text.endswith("\n"), f"{path.name}: expected {n} lines")
    vals = np.array(text.split(), dtype=float)
    _require(vals.size == n, f"{path.name}: expected {n} values, got {vals.size}")
    _require(bool(np.all((vals >= 0.0) & (vals <= 1.0))), f"{path.name}: value outside [0, 1]")
    return vals


def check_calibrate(p: float, expected: float):
    def check(stdout: bytes) -> None:
        out = _json(stdout)
        _require(out["p"] == p, "calibrate echoed a different p")
        _require(out["conservative_p"] == expected,
                 f"calibrate gave {out['conservative_p']!r}, expected {expected!r}")
    return check


def check_minp(x: float, m: int):
    expected = 1.0 if x >= 0.5 else 1.0 - (1.0 - 2.0 * x) ** m

    def check(stdout: bytes) -> None:
        out = _json(stdout)
        _require(out["min"] == x and out["m"] == m, "minp read a different min or m")
        _require(math.isclose(out["conservative_p"], expected, rel_tol=1e-9, abs_tol=1e-15),
                 f"minp gave {out['conservative_p']!r}, 1-(1-2x)^m is {expected!r}")
    return check


def check_fisher(values: np.ndarray):
    score = -2.0 * math.fsum(np.log(values))

    def check(stdout: bytes) -> None:
        out = _json(stdout)
        _require(out["m"] == values.size, "fisher counted a different m")
        _require(math.isclose(out["score"], score, rel_tol=1e-9), "fisher score differs")
        bounds = [out[k] for k in ("bound_shifted_chi2", "bound_cantelli", "bound_mgf")
                  if out[k] is not None]
        _require(out["conservative_p"] == min(1.0, *bounds),
                 "conservative_p is not the smallest bound")
        _require(0.0 <= out["nominal_p"] <= out["bound_shifted_chi2"] <= 1.0,
                 "nominal p above the shifted chi-square bound")
    return check


def _fisher_rows(rows, m: int, points: int) -> None:
    _require(len(rows) == points, f"expected {points} rows, got {len(rows)}")
    grid = np.geomspace(1e-5, 0.1, points)
    for (alpha, _score, nominal, shifted, _cantelli, _mgf), a in zip(rows, grid):
        _require(math.isclose(alpha, a, rel_tol=1e-12), "alpha grid differs")
        _require(math.isclose(nominal, alpha, rel_tol=1e-6),
                 f"nominal tail {nominal!r} at the critical value is not alpha={alpha!r} (m={m})")
        _require(nominal <= shifted <= 1.0, "shifted chi-square bound below the nominal tail")


FISHER_COLUMNS = ["alpha", "score", "nominal", "bound_shifted_chi2", "bound_cantelli",
                  "bound_mgf"]


def check_curves_fisher(m: int, points: int, fmt: str):
    def check(stdout: bytes) -> None:
        if fmt == "json":
            out = _json(stdout)
            _require(out["columns"] == FISHER_COLUMNS, "fisher curve columns differ")
            rows = out["rows"]
        else:
            lines = stdout.decode().splitlines()
            _require(lines[0].split(",") == FISHER_COLUMNS, "fisher curve CSV header differs")
            rows = [[float(v) if v else None for v in ln.split(",")] for ln in lines[1:]]
        _fisher_rows(rows, m, points)
    return check


def check_curves_idf(alpha: float, points: int):
    def check(stdout: bytes) -> None:
        out = _json(stdout)
        _require(out["columns"] == ["x", "phi_uniform", "phi_beta22", "phi_p2alpha"],
                 "idf curve columns differ")
        rows = np.array(out["rows"], dtype=float)
        _require(rows.shape == (points, 4), f"expected {points} rows of 4")
        x = rows[:, 0]
        extremal = np.where(x < alpha, 0.0,
                            2 * alpha * (x - alpha) + np.maximum(x - 2 * alpha, 0.0) ** 2 / 2)
        _require(np.allclose(x, np.linspace(0.0, 1.0, points), rtol=0, atol=1e-15), "x grid")
        _require(np.allclose(rows[:, 1], x * x / 2, rtol=0, atol=1e-15), "phi_uniform")
        _require(np.allclose(rows[:, 2], x**3 - x**4 / 2, rtol=0, atol=1e-12), "phi_beta22")
        _require(np.allclose(rows[:, 3], extremal, rtol=0, atol=1e-12), "phi_p2alpha")
    return check


def check_hbound(a: float):
    def target_cdf(name: str, x: float) -> float:
        if name == "uniform":
            return x
        if name == "beta22":
            return 3 * x * x - 2 * x**3
        return 0.0 if x < a else (2 * a if x < 2 * a else x)

    def check(stdout: bytes) -> None:
        out = _json(stdout)
        _require(out["p2alpha"] == a, "h_bound script read a different p2alpha")
        _require([row[:2] for row in out["rows"]]
                 == [[t, al] for t in ("uniform", "beta22", "p2alpha") for al in ALPHAS],
                 "h_bound rows are not the target x alpha grid")
        for name, alpha, h in out["rows"]:
            cap = min(1.0, 2 * alpha)
            if name == "uniform":
                _require(abs(h - cap) <= 1e-9, f"h_bound on the uniform target at {alpha}: "
                                               f"{h!r} is not 2*alpha")
            else:
                _require(target_cdf(name, alpha) - 1e-9 <= h <= cap + 1e-9,
                         f"h_bound({alpha}, {name}) = {h!r} outside [F(alpha), 2*alpha]")
    return check


def check_simulate(n: int, seed: int, covered: bool, out_file: Path | None = None):
    """``covered``: the run's law is sub-uniform (exact p-values and r_hat).
    Indicator averaging (p_hat) is not, and its report must say so."""
    slack = 3.0 / math.sqrt(n)

    def check(stdout: bytes) -> None:
        out = _json(stdout)
        _require(out["n"] == n and out["seed"] == seed, "simulate echoed other n or seed")
        _require(abs(out["mean"] - 0.5) <= slack, f"mean {out['mean']!r} is not 1/2")
        holds = out["sub_uniformity"]["holds"]
        if covered:
            _require(holds is True, "sub_uniformity.holds is not true")
            for a, v in out["p_le_alpha"].items():
                _require(0.0 <= v <= 2 * float(a) + slack,
                         f"P(p <= {a}) = {v!r} above 2*alpha + 3/sqrt(n)")
        else:
            _require(holds is False, "indicator averaging reported as sub-uniform")
        if out_file is not None:
            _read_values(out_file, n)
    return check


def check_simulate_csv(n: int):
    def check(stdout: bytes) -> None:
        _require(stdout.count(b"\n") == n and stdout.endswith(b"\n"), f"expected {n} lines")
        vals = np.array(stdout.split(), dtype=float)
        _require(vals.size == n, f"expected {n} values")
        _require(bool(np.all((vals >= 0.0) & (vals <= 1.0))), "value outside [0, 1]")
        _require(abs(vals.mean() - 0.5) <= 3.0 / math.sqrt(n), "sample mean is not 1/2")
    return check


def check_construct(target: dict, n: int, seed: int, out_file: Path | None = None,
                    model_file: Path | None = None):
    def check(stdout: bytes) -> None:
        out = _json(stdout)
        _require(out["n"] == n and out["seed"] == seed, "construct echoed other n or seed")
        _require(out["target"] == target, "construct echoed a different target")
        cmp = out["comparison"]
        disc = cmp.get("discretization_ks",
                       out["model"].get("meta", {}).get("discretization_ks", 0.0))
        _require(cmp["martingale_residual"] <= 1e-9,
                 f"martingale residual {cmp['martingale_residual']!r} above 1e-9")
        _require(cmp["ks_vs_target"] <= disc + 2.0 / math.sqrt(n),
                 f"ks_vs_target {cmp['ks_vs_target']!r} above discretization_ks {disc!r} "
                 f"+ 2/sqrt(n)")
        if out_file is not None:
            _read_values(out_file, n)
        if model_file is not None:
            _require(json.loads(model_file.read_text()) == out["model"],
                     "--model-out differs from the reported model")
    return check


# ------------------------------------------------------------------ workloads

def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=k)]


def _write_values(path: Path, values: np.ndarray) -> None:
    np.savetxt(path, values, fmt="%.17g")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload) + "\n")


def _simulate(rng, workdir: Path) -> list[Command]:
    s = _seeds(rng, 7)
    n, n_est = 2_000_000, 500_000

    def sim(name, seed, *extra, n=n, covered=True, **kw):
        argv = ("simulate", *extra, "--n", str(n), "--seed", str(seed))
        return Command(name, argv, replicates=n, check=check_simulate(n, seed, covered), **kw)

    return [
        sim("lasso.threads1", s[0], "--model", "lasso", threads="1"),
        sim("lasso.threads2", s[0], "--model", "lasso", threads="2", same_as="lasso.threads1"),
        sim("lasso.power2", s[1], "--model", "lasso", "--g", "power2"),
        sim("simplex", s[2], "--model", "simplex"),
        sim("port", s[3], "--model", "port"),
        sim("ruschendorf", s[4], "--model", "ruschendorf"),
        sim("simplex.r_hat", s[5], "--model", "simplex", "--estimator", "r_hat", "--M", "16",
            "--sampler", "markov", "--rho", "0.9", n=n_est),
        sim("lasso.p_hat", s[6], "--model", "lasso", "--estimator", "p_hat", "--M", "8",
            n=n_est, covered=False),
    ]


def _bounds(rng, workdir: Path) -> list[Command]:
    few = rng.random(20)
    many = rng.random(100_000)
    x = float(rng.uniform(0.001, 0.05))
    m = int(rng.integers(2, 100))
    a = float(rng.uniform(0.05, 0.2))
    few_path, many_path = workdir / "pvals_20.csv", workdir / "pvals_1e5.csv"
    _write_values(few_path, few)
    _write_values(many_path, many)
    return [
        Command("calibrate", ("calibrate", "--p", "0.03"), check=check_calibrate(0.03, 0.06)),
        Command("minp.args", ("minp", "--min", repr(x), "--m", str(m)), check=check_minp(x, m)),
        Command("minp.pvals", ("minp", "--pvals", str(many_path)),
                check=check_minp(float(many.min()), many.size)),
        Command("fisher.20", ("fisher", "--pvals", str(few_path)), check=check_fisher(few)),
        Command("fisher.1e5", ("fisher", "--pvals", str(many_path)), check=check_fisher(many)),
        Command("curves.fisher.m20", ("curves", "--figure", "fisher", "--m", "20",
                                      "--points", "512"),
                check=check_curves_fisher(20, 512, "json")),
        Command("curves.fisher.m1e9", ("curves", "--figure", "fisher", "--m", "1000000000",
                                       "--points", "64"),
                check=check_curves_fisher(1_000_000_000, 64, "json")),
        Command("curves.idf", ("curves", "--figure", "idf"), check=check_curves_idf(0.1, 512)),
        Command("h_bound", ("--p2alpha", repr(a)), kind="hbound", check=check_hbound(a)),
    ]


def _export(rng, workdir: Path) -> list[Command]:
    s = _seeds(rng, 3)
    # 5e5, not 1e6: at 1e6 three passes of bounds_export take well over a
    # minute whenever the machine is slow.
    n = 500_000
    sim_out = workdir / "simulate_out.csv"
    con_out, model_out = workdir / "construct_out.csv", workdir / "model_out.json"
    target = {"variant": "beta22"}
    target_path = workdir / "target_beta22.json"
    _write_json(target_path, target)
    return [
        Command("simulate.csv", ("simulate", "--model", "lasso", "--n", str(n), "--seed",
                                 str(s[0]), "--format", "csv"),
                replicates=n, check=check_simulate_csv(n)),
        Command("simulate.out", ("simulate", "--model", "lasso", "--n", str(n), "--seed",
                                 str(s[1]), "--out", str(sim_out)),
                replicates=n, check=check_simulate(n, s[1], True, out_file=sim_out),
                outputs=(sim_out,)),
        Command("construct.out", ("construct", "--target", str(target_path), "--n", str(n),
                                  "--seed", str(s[2]), "--out", str(con_out),
                                  "--model-out", str(model_out)),
                replicates=n, check=check_construct(target, n, s[2], con_out, model_out),
                outputs=(con_out, model_out)),
        Command("curves.fisher.csv", ("curves", "--figure", "fisher", "--format", "csv"),
                check=check_curves_fisher(20, 512, "csv")),
    ]


def _bounds_export(rng, workdir: Path) -> list[Command]:
    # One workload rather than two: the total time for all runs is fixed, and
    # with two workloads each run is long enough for three or more passes.
    return _bounds(rng, workdir) + _export(rng, workdir)


COMMANDS = {"simulate": _simulate, "bounds_export": _bounds_export}


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's inputs for ``seed`` into ``workdir`` and return
    its commands, in the order a pass runs them."""
    return COMMANDS[workload](np.random.default_rng(seed), workdir)
