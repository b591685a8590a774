"""Command-line surface.

Subcommands cover calibration of a single p-value, Fisher combination,
min-p combination, frequency simulation of the built-in models and
estimators, synthesis of a p-value with a prescribed law, and curve-data
export.  Payload goes to stdout as JSON (or CSV with --format csv);
diagnostics go to stderr.  Exit codes: 0 success, 1 domain or validation
error or out of memory, 2 I/O error or a usage error (argparse's, with a
"usage: ppp ..." line: a flag of the wrong type, an unknown choice or a
missing required flag).  Identical flags and seed give byte-identical
stdout.  simulate draws on one thread, and no command reads an environment
variable of its own (numpy's BLAS reads three, see _import_numpy).

calibrate, fisher, minp and the fisher figure are scalar math code; only
simulate, construct and the idf figure import numpy and the array layers,
inside their functions, so the scalar commands start without numpy.  Those
three load numpy with its BLAS on one thread (see _import_numpy): the package
calls no BLAS routine, and OpenBLAS otherwise starts a thread per CPU.  They
also freeze numpy's import-time heap, so no garbage collection walks it.
simulate and construct, which draw, import numpy.random without OpenSSL's
hashes: the package always seeds, so it needs no entropy from secrets.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings
from typing import Callable, TextIO

from .bounds import (_fisher_critical, _fisher_dof, _fisher_report, _fisher_score,
                     _in_unit_interval, conservative_single, fisher_bounds, minp_bound)

_TAIL_GRID = (0.01, 0.05, 0.1, 0.25)

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the values of the flags a command reads only in some of its modes; the
# parser leaves them None, so a flag given at its default is told apart from
# an absent one, and the command fills in these where it reads them
_DEFAULTS = {"alpha": 0.1, "m": 20, "g": "uniform", "m_draws": 1, "sampler": "iid", "rho": 0.0}


def _import_numpy(random: bool = False) -> None:
    """Import numpy, and numpy.random too if random, with its BLAS on one
    thread, unless numpy is loaded already or the user set the thread count,
    and with the cyclic GC off, then freeze the heap the import made.

    BLAS reads these variables once, when numpy loads it; a variable the user
    set is left as it is, and the ones set here are removed again, so the
    caller's os.environ is unchanged.  The import leaves tens of thousands of
    objects that live as long as the process; with the GC on, the collections
    the import triggers, those of the run and the full one at interpreter exit
    walk them again and again (about 18 ms of a cold array command).
    gc.freeze moves them where no collection looks, the few hundred the import
    left unreachable included (about 0.2 MB); the caller's GC state is
    restored.

    numpy.random imports secrets only for unseeded entropy, and through hmac
    and hashlib that loads _hashlib, which maps OpenSSL's libcrypto (about
    3.5 MB and 4 ms).  Unless something loaded _hashlib already, it is hidden
    from sys.modules for that one import, so hashlib and hmac take their
    builtin code, and the entry is removed again: a later import _hashlib
    loads it as usual."""
    if "numpy" in sys.modules:
        return
    unset = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        import numpy  # noqa: F401
        if random:
            hide = "_hashlib" not in sys.modules
            if hide:
                sys.modules["_hashlib"] = None  # its import now raises ImportError
            try:
                import numpy.random  # noqa: F401
            finally:
                if hide:
                    del sys.modules["_hashlib"]
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
        for var in unset:
            del os.environ[var]


def _resolve(args, *names: str) -> None:
    """Set each named flag that was not given to its value in _DEFAULTS."""
    for name in names:
        if getattr(args, name) is None:
            setattr(args, name, _DEFAULTS[name])


def _flatten(payload: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in payload.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, prefix=f"{name}."))
        elif isinstance(val, (list, tuple)):
            continue  # vector fields are JSON-only
        else:
            out[name] = val
    return out


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload) + "\n")
        return
    flat = _flatten(payload)
    _emit_table(list(flat), [list(flat.values())], fmt)


def _emit_table(columns: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps({"columns": columns, "rows": rows}) + "\n")
        return
    sys.stdout.write(",".join(columns) + "\n")
    for row in rows:
        sys.stdout.write(",".join("" if v is None else f"{v}" for v in row) + "\n")


def _read_pvals(path: str) -> list[float]:
    """The p-values of the file at path, one a line, checked to lie in [0, 1].
    Blank lines are skipped, and float ignores whitespace around a value."""
    lines = _read_file(path).split("\n")
    if not lines[-1]:
        lines.pop()  # after the final newline
    try:
        try:  # one pass when no line is blank, the usual file
            vals = list(map(float, lines))
        except ValueError:  # a blank line, or again for a message quoting the stripped line
            vals = [float(ln.strip()) for ln in lines if ln.strip()]
    except ValueError as exc:
        raise ValueError(f"non-numeric entry in {path!r}: {exc}") from exc
    if not vals:
        raise ValueError(f"{path!r} contains no p-values")
    if not _in_unit_interval(vals):
        raise ValueError("p-values must lie in [0, 1]")
    return vals


# ------------------------------------------------------------------ subcommands

def _cmd_calibrate(args) -> None:
    if not 0.0 <= args.p <= 1.0:
        raise ValueError(f"--p must lie in [0, 1], got {args.p!r}")
    _emit({"p": args.p, "conservative_p": conservative_single(args.p)}, args.format)


def _cmd_fisher(args) -> None:
    vals = _read_pvals(args.pvals)  # non-empty and in [0, 1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        score = _fisher_score(vals)
    notes = tuple(str(w.message) for w in caught)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    _emit(fisher_bounds(score.score, score.m, warnings=notes)._asdict(), args.format)


def _cmd_minp(args) -> None:
    if args.pvals is not None:
        for flag, value in (("--min", args.min), ("--m", args.m)):
            if value is not None:
                raise ValueError(f"{flag} applies only to minp without --pvals")
        vals = _read_pvals(args.pvals)
        x, m = min(vals), len(vals)
    else:
        if args.min is None or args.m is None:
            raise ValueError("provide either --pvals or both --min and --m")
        x, m = args.min, args.m
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"--min must lie in [0, 1], got {x!r}")
        if m < 1:
            raise ValueError(f"--m must be >= 1, got {m!r}")
    conservative = minp_bound(x, m)  # first: it rejects an m too large for a float
    nominal_q = -math.expm1(m * math.log1p(-x)) if x < 1.0 else 1.0
    _emit({
        "min": x,
        "m": m,
        "conservative_p": conservative,
        "nominal_q": nominal_q,
        "limit_2q_minus_q2": 2.0 * nominal_q - nominal_q ** 2,
    }, args.format)


_WORKED_PMFS = ((0.7, 0.2, 0.1), (0.1, 0.2, 0.7))


def _build_model(args):
    from .models import G_FAMILIES, lasso_model, load_port_pmfs, port_model, simplex_model

    if args.model == "lasso":
        if args.g not in G_FAMILIES:
            raise ValueError(f"--g must be one of {sorted(G_FAMILIES)}")
        return lasso_model(args.alpha, G_FAMILIES[args.g]())
    if args.model == "simplex":
        return simplex_model(args.alpha)
    if args.model == "port":
        pmfs = _WORKED_PMFS if args.pmfs is None else load_port_pmfs(args.pmfs)
        return port_model(pmfs)
    raise ValueError(f"unknown model {args.model!r}")


def _read_file(path: str) -> str:
    """The text of the file at path; an OSError names the path."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path!r}: {exc}") from exc


def _write_file(path: str, write: Callable[[TextIO], object]) -> None:
    """write(fh) to the file at path; an OSError names the path."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def _cmd_simulate(args) -> None:
    _import_numpy(random=True)
    from .distributions import _binned_ks, as_p2alpha
    from .estimators import EstimatorScheme, PosteriorSampler
    from .idf import _binned_sub_uniformity
    from .models import _fold, _model_blocks, _ruschendorf_blocks
    from .numerics import EmpiricalSample, RngStream, _BinSummary, _write_values

    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.estimator == "exact":
        for flag, value in (("--M", args.m_draws), ("--sampler", args.sampler),
                            ("--rho", args.rho)):
            if value is not None:
                raise ValueError(f"{flag} applies only to --estimator p_hat or r_hat")
    if args.g is not None and args.model != "lasso":
        raise ValueError("--g applies only to --model lasso")
    if args.pmfs is not None and args.model != "port":
        raise ValueError("--pmfs applies only to --model port")
    if args.alpha is not None and args.model == "port":
        raise ValueError("--alpha applies only to --model lasso, simplex or ruschendorf")
    _resolve(args, "alpha", "g", "m_draws", "sampler", "rho")
    rng = RngStream(seed=args.seed)
    if args.model == "ruschendorf":
        if not 0.0 < args.alpha <= 0.5:
            raise ValueError(f"--alpha must lie in (0, 0.5] for ruschendorf, got {args.alpha!r}")
        if args.estimator != "exact":
            raise ValueError("ruschendorf is a direct construction; only --estimator exact applies")
        blocks = _ruschendorf_blocks(args.alpha, rng)
    else:
        model = _build_model(args)
        if args.estimator != "exact":
            model = EstimatorScheme(model, args.estimator, args.m_draws,
                                    PosteriorSampler(kind=args.sampler, rho=args.rho))
        blocks = _model_blocks(model, rng)
    # the law the model states for its values, if it is p2alpha(a) with
    # a < 1/2 (p2alpha(1/2) is a point mass): its atom is at a
    ref = None if blocks.law is None else as_p2alpha(blocks.law)
    ref = ref if ref != 0.5 else None
    summary = None if args.format == "csv" else _BinSummary(
        (*_TAIL_GRID, *(() if ref is None else (ref,))))
    keep = args.out is not None or args.format == "csv"
    values = _fold(blocks.draw, args.n, summary and summary.add, keep)
    if keep:
        sample = EmpiricalSample(values, _owned=True)
        if args.out is not None:
            _write_file(args.out, lambda fh: _write_values(fh, sample.values))
        if args.format == "csv":  # the sample itself; the summary below is JSON-only
            _write_values(sys.stdout, sample.values)
            return
    res, lower = _binned_sub_uniformity(summary)
    payload = {
        "model": blocks.model_id,
        "n": args.n,
        "seed": args.seed,
        "mean": summary.mean(),
        "variance": summary.variance(),
        "p_le_alpha": {f"{a:g}": summary.tail_prob(a) for a in _TAIL_GRID},
        "sub_uniformity": {"holds": bool(res), "max_violation": lower,
                           "max_violation_upper": res.max_violation, "tol": res.tol},
    }
    if ref is not None:
        payload["ks_vs_p2alpha"], payload["ks_vs_p2alpha_upper"] = _binned_ks(blocks.law, summary)
        payload["p2alpha_alpha"] = ref
    _emit(payload, args.format)


def _cmd_construct(args) -> None:
    _import_numpy(random=True)
    from .coupling import synthesize_ppp
    from .distributions import SubUniformDist, ks_distance
    from .numerics import EmpiricalSample, RngStream, _write_values

    if args.n < 1:
        raise ValueError("--n must be >= 1")
    target_text = _read_file(args.target)
    try:
        target = SubUniformDist.from_json(target_text)
    except ValueError as exc:
        raise ValueError(f"invalid target spec: {exc}") from exc
    rng = RngStream(seed=args.seed)
    model = synthesize_ppp(target, g_name=args.g, rng=rng)
    gen = rng.generator()
    pvals, svals = model.draw_joint(gen, args.n)
    sample = EmpiricalSample(pvals, _owned=True)
    s_sample = EmpiricalSample(svals, _owned=True)
    uniform = SubUniformDist("uniform01")
    # keyed by repr, so atoms share a key only at one location (their masses add)
    expected = {}
    for loc, m in target.atoms:
        expected[repr(loc)] = expected.get(repr(loc), 0.0) + m
    comparison = {
        "ks_vs_target": ks_distance(target, sample),
        "atom_frequencies": {repr(loc): sample.atom_frequency(loc) for loc, _m in target.atoms},
        "atom_expected": expected,
        "s_marginal_ks": ks_distance(uniform, s_sample),
        "martingale_residual": model.coupling.martingale_residual(),
    }
    if "discretization_ks" in model.meta:
        comparison["discretization_ks"] = model.meta["discretization_ks"]
    singular_only = not model.coupling.atom_rows
    payload = {
        "target": target.to_payload(),
        "coupling": "singular" if singular_only else "mixed",
        "path": model.meta.get("path", ""),
        "n": args.n,
        "seed": args.seed,
        "comparison": comparison,
        "model": model.to_payload(),
    }
    if args.out is not None:
        _write_file(args.out, lambda fh: _write_values(fh, sample.values))
    if args.model_out is not None:
        _write_file(args.model_out, lambda fh: fh.write(model.to_json() + "\n"))
    _emit(payload, args.format)


def _alpha_grid(points: int) -> list[float]:
    """np.geomspace(1e-5, 0.1, points) in math code: 10**y on numpy's linspace
    of the exponents, with the endpoints exact."""
    if points < 2:
        return [1e-5] * points
    lo, hi = math.log10(1e-5), math.log10(0.1)
    step = (hi - lo) / (points - 1)
    return [1e-5, *(10.0 ** (i * step + lo) for i in range(1, points - 1)), 0.1]


def _cmd_curves(args) -> None:
    if args.points < 0:
        raise ValueError(f"--points must be >= 0, got {args.points!r}")
    if args.figure == "idf":
        if args.m is not None:
            raise ValueError("--m applies only to --figure fisher")
        _resolve(args, "alpha")
        _import_numpy()
        import numpy as np

        from .distributions import p2alpha
        from .idf import beta22_idf, uniform_idf

        if not 0.0 < args.alpha < 0.5:
            raise ValueError(f"--alpha must lie in (0, 0.5), got {args.alpha!r}")
        grid = np.linspace(0.0, 1.0, args.points)
        idfs = (uniform_idf(), beta22_idf(), p2alpha(args.alpha).idf())
        rows = np.column_stack([grid, *(idf.evaluate(grid) for idf in idfs)]).tolist()
        _emit_table(["x", "phi_uniform", "phi_beta22", "phi_p2alpha"], rows, args.format)
        return
    if args.figure == "fisher":
        if args.alpha is not None:
            raise ValueError("--alpha applies only to --figure idf")
        _resolve(args, "m")
        k = _fisher_dof(args.m)  # before the rows: --points 0 computes none
        rows = []
        for a in _alpha_grid(args.points):
            score, tail = _fisher_critical(a, args.m, k)  # tail is the nominal p
            rep = _fisher_report(score, args.m, k, tail)
            rows.append([a, score, rep.nominal_p, rep.bound_shifted_chi2,
                         rep.bound_cantelli, rep.bound_mgf])
        _emit_table(["alpha", "score", "nominal", "bound_shifted_chi2",
                     "bound_cantelli", "bound_mgf"], rows, args.format)
        return
    raise ValueError(f"unknown figure {args.figure!r}")


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppp",
        description="Calibration, combination, simulation and synthesis of "
                    "posterior predictive p-values.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("calibrate", help="conservative calibration of one p-value")
    p.add_argument("--p", type=float, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("fisher", help="Fisher combination with conservative bounds")
    p.add_argument("--pvals", required=True, help="CSV file, one p-value per line")
    add_format(p)
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("minp", help="minimum-p combination bound")
    p.add_argument("--pvals", help="CSV file, one p-value per line")
    p.add_argument("--min", type=float, help="smallest p-value")
    p.add_argument("--m", type=int, help="number of p-values")
    add_format(p)
    p.set_defaults(func=_cmd_minp)

    p = sub.add_parser("simulate", help="frequency run of a built-in model")
    p.add_argument("--model", choices=("lasso", "simplex", "port", "ruschendorf"),
                   required=True)
    p.add_argument("--alpha", type=float,
                   help=f"lasso, simplex, ruschendorf parameter (default {_DEFAULTS['alpha']})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--g",
                   help=f"lasso travel law: uniform|power2|power3 (default {_DEFAULTS['g']})")
    p.add_argument("--pmfs", help="port model pmf CSV (rows = applications)")
    p.add_argument("--estimator", choices=("exact", "p_hat", "r_hat"), default="exact")
    p.add_argument("--M", dest="m_draws", type=int,
                   help="posterior draws per replicate for p_hat/r_hat "
                        f"(default {_DEFAULTS['m_draws']})")
    p.add_argument("--sampler", choices=("iid", "markov"),
                   help=f"p_hat/r_hat posterior sampler (default {_DEFAULTS['sampler']})")
    p.add_argument("--rho", type=float,
                   help=f"markov sampler autocorrelation (default {_DEFAULTS['rho']})")
    p.add_argument("--out", help="write the p-value sample to this CSV path")
    add_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("construct", help="synthesize a p-value with a prescribed law")
    p.add_argument("--target", required=True, help="JSON file with the target law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--g", default="logistic", help="parameter CDF: logistic|normal")
    p.add_argument("--out", help="write the realized p-value sample to this CSV path")
    p.add_argument("--model-out", dest="model_out", help="write the model JSON here")
    add_format(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("curves", help="figure-data export")
    p.add_argument("--figure", choices=("idf", "fisher"), required=True)
    p.add_argument("--alpha", type=float,
                   help=f"idf: extremal mixture parameter (default {_DEFAULTS['alpha']})")
    p.add_argument("--m", type=int,
                   help=f"fisher: number of combined p-values (default {_DEFAULTS['m']})")
    p.add_argument("--points", type=int, default=512)
    add_format(p)
    p.set_defaults(func=_cmd_curves)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
