"""End-to-end checks of the ppp command-line surface via subprocess."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from subuniform import (RngStream, SubUniformDist, SyntheticPPPModel, fisher_bounds,
                        fisher_critical, fisher_score, p2alpha)
from subuniform.cli import _alpha_grid, _read_pvals, main


def run_cli(*argv, env_extra=None, timeout=None):
    """Run ppp argv; a run past timeout seconds fails the test, not hangs it."""
    return subprocess.run([sys.executable, "-m", "subuniform.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, **(env_extra or {})})


def payload(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_needs_no_solver():
    # every computation has a closed form or a math-only series: no optimizer,
    # no sparse matrices, and no scipy.special (about half a cold start)
    code = ("import sys, subuniform.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# main(argv) in a cold interpreter, then a report of what the process held
_COLD_MAIN = """\
import gc, json, os, sys
from subuniform.cli import main

argv, path, blas_vars, gc_off = json.loads(sys.argv[1])
if gc_off:
    gc.disable()
before = dict(os.environ)
rc = main(argv)
task, maps = "/proc/self/task", "/proc/self/maps"
with open(path, "w") as fh:
    json.dump({"modules": sorted(m for m in sys.modules
                                 if m in ("scipy", "numpy", "numpy.ma", "numpy.random",
                                          "concurrent.futures", "dataclasses", "inspect",
                                          "_hashlib")
                                 or m.startswith("scipy.")),
               "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
               "libcrypto": ("libcrypto" in open(maps).read()) if os.path.exists(maps) else None,
               "environ_kept": dict(os.environ) == before,
               "blas_env": {var: os.environ.get(var) for var in blas_vars},
               "gc_enabled": gc.isenabled(), "gc_frozen": gc.get_freeze_count()}, fh)
sys.exit(rc)
"""


def _cold_main(argv, tmp_path, env_extra=None, gc_off=False):
    """Run main(argv) in a cold interpreter, with the BLAS thread variables
    unset unless env_extra sets them, and the cyclic GC disabled before main
    if gc_off.  Return its process and what it held when
    main returned (written to a file: stdout is main's): "modules", the scipy
    modules, numpy, numpy.ma, numpy.random, concurrent.futures, dataclasses,
    inspect and _hashlib, if loaded; "threads", its thread count, or None without
    /proc/self/task; "libcrypto", whether OpenSSL's libcrypto is mapped, or
    None without /proc/self/maps; "environ_kept", whether
    os.environ equals its value before main; "blas_env", the BLAS thread
    variables; "gc_enabled", gc.isenabled(); and "gc_frozen",
    gc.get_freeze_count()."""
    report = tmp_path / "report.json"
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-c", _COLD_MAIN,
                           json.dumps([argv, str(report), _BLAS_THREAD_VARS, gc_off])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(report.read_text())


@pytest.mark.parametrize("argv", [
    ["calibrate", "--p", "0.03"],
    ["simulate", "--model", "lasso", "--n", "1000", "--seed", "1"],
    ["simulate", "--model", "ruschendorf", "--n", "1000", "--seed", "1"],
    ["construct", "--target", "{beta22}", "--n", "1000", "--seed", "1"],
    ["curves", "--figure", "fisher", "--m", "20", "--points", "16"],
    ["curves", "--figure", "fisher", "--m", "1000000000", "--points", "4"],
    ["simulate", "--model", "port", "--estimator", "r_hat", "--M", "2", "--n", "1000",
     "--seed", "1"],
    ["curves", "--figure", "idf", "--points", "8"],
])
def test_cli_loads_scipy_only_where_used(argv, tmp_path):
    # no command loads scipy, the chi-square tails included; none needs
    # numpy.ma, which np.unique imports (about 18 ms of a cold start); none
    # loads concurrent.futures, which loads logging (about 7 ms); and none
    # loads _hashlib.  numpy.random, and the array layers' dataclasses (with
    # the inspect it imports), are theirs to load
    target = tmp_path / "beta22.json"
    target.write_text('{"variant": "beta22"}')
    _, report = _cold_main([a.format(beta22=target) for a in argv], tmp_path)
    assert [m for m in report["modules"]
            if m not in ("numpy", "numpy.random", "dataclasses", "inspect")] == []


@pytest.mark.parametrize("argv", [
    ["calibrate", "--p", "0.03"],
    ["minp", "--min", "0.01", "--m", "12"],
    ["minp", "--pvals", "{pvals}"],
    ["fisher", "--pvals", "{pvals}"],
    ["curves", "--figure", "fisher", "--m", "20", "--points", "16"],
    ["curves", "--figure", "fisher", "--m", "20", "--points", "16", "--format", "csv"],
])
def test_scalar_commands_load_no_numpy(argv, tmp_path):
    # the scalar commands are math code: importing numpy would be about 60%
    # of their cold start, and dataclasses, which imports inspect, ast, dis
    # and tokenize, about 8 ms of it
    path = tmp_path / "p.csv"
    path.write_text("0.01\n0.2\n0.03\n0.5\n")
    _, report = _cold_main([a.format(pvals=path) for a in argv], tmp_path)
    assert report["modules"] == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "lasso", "--n", "1000", "--seed", "1"],
    ["simulate", "--model", "port", "--estimator", "r_hat", "--M", "2", "--n", "1000",
     "--seed", "1"],
    ["construct", "--target", "{beta22}", "--n", "1000", "--seed", "1"],
    ["curves", "--figure", "idf", "--points", "8"],
])
def test_array_commands_start_no_threads(argv, tmp_path):
    # the package calls no BLAS routine, so numpy loads its BLAS on one
    # thread (OpenBLAS would start one per CPU), and simulate starts no
    # pool; the variables set for the import are gone when main returns
    target = tmp_path / "beta22.json"
    target.write_text('{"variant": "beta22"}')
    _, report = _cold_main([a.format(beta22=target) for a in argv], tmp_path)
    assert "numpy" in report["modules"] and report["environ_kept"]
    assert report["blas_env"] == dict.fromkeys(_BLAS_THREAD_VARS)
    if report["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert report["threads"] == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "lasso", "--n", "70000", "--seed", "1"],
    ["simulate", "--model", "lasso", "--estimator", "r_hat", "--M", "2", "--n", "70000",
     "--seed", "1"],
], ids=["exact", "r_hat"])
def test_simulate_starts_no_pool(argv, tmp_path):
    # n = 70000 is two RNG blocks.  Every simulate, an estimator run too, takes
    # them on one thread, so it loads no concurrent.futures, whatever
    # PPP_THREADS says
    _, report = _cold_main(argv, tmp_path, env_extra={"PPP_THREADS": "2"})
    assert "concurrent.futures" not in report["modules"]


def test_array_commands_keep_the_users_blas_threads(tmp_path):
    argv = ["simulate", "--model", "lasso", "--n", "1000", "--seed", "1"]
    _, report = _cold_main(argv, tmp_path, env_extra={"OPENBLAS_NUM_THREADS": "2"})
    assert report["environ_kept"]
    assert report["blas_env"] == {**dict.fromkeys(_BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "2"}


_COLD_SIMULATE = ["simulate", "--model", "lasso", "--n", "1000", "--seed", "1"]


@pytest.mark.parametrize("argv, gc_off, frozen, enabled", [
    (_COLD_SIMULATE, False, True, True),
    (_COLD_SIMULATE, True, True, False),
    (["calibrate", "--p", "0.03"], False, False, True),
], ids=["simulate", "simulate.gc_off", "calibrate"])
def test_numpy_heap_is_frozen_and_the_gc_state_kept(argv, gc_off, frozen, enabled, tmp_path):
    # an array command imports numpy with the cyclic GC off and freezes what
    # the import made, so no collection (those at exit included) walks it
    # again; the GC ends as the caller left it.  A scalar command loads no
    # numpy and freezes nothing
    _, report = _cold_main(argv, tmp_path, gc_off=gc_off)
    assert (report["gc_frozen"] > 0) == frozen
    assert report["gc_enabled"] == enabled


def test_in_process_main_leaves_the_gc_as_it_was(capsys):
    # numpy is loaded here already, so main imports and freezes nothing
    import gc

    before = gc.isenabled(), gc.get_freeze_count()
    assert main(_COLD_SIMULATE) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert json.loads(capsys.readouterr().out)["n"] == 1000


def test_package_import_loads_no_numpy():
    code = "import sys, subuniform; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_only_the_scalar_bounds():
    # a cold import subuniform.cli is the start-up every command pays: the
    # array layers load inside the commands that use them
    code = ("import sys, subuniform.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('subuniform', 'numpy', 'dataclasses')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['subuniform', 'subuniform.bounds', 'subuniform.cli']"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "lasso", "--n", "1000", "--seed", "1"],
    ["simulate", "--model", "lasso", "--estimator", "r_hat", "--M", "2", "--n", "1000",
     "--seed", "1"],
    ["construct", "--target", "{beta22}", "--n", "1000", "--seed", "1"],
], ids=["exact", "r_hat", "construct"])
def test_drawing_commands_map_no_openssl(argv, tmp_path):
    # numpy.random imports secrets for unseeded entropy, which the package
    # never takes; with _hashlib hidden for that import, hashlib and hmac
    # use their builtin code and OpenSSL's libcrypto (3.5 MB) stays unmapped,
    # and hashlib logs no missing algorithm to stderr
    target = tmp_path / "beta22.json"
    target.write_text('{"variant": "beta22"}')
    proc, report = _cold_main([a.format(beta22=target) for a in argv], tmp_path)
    assert "numpy.random" in report["modules"] and "_hashlib" not in report["modules"]
    assert report["libcrypto"] in (False, None)
    assert proc.stderr == ""


def test_idf_figure_loads_no_numpy_random(tmp_path):
    # the figure draws nothing
    _, report = _cold_main(["curves", "--figure", "idf", "--points", "8"], tmp_path)
    assert "numpy" in report["modules"] and "numpy.random" not in report["modules"]


# main(argv), after importing _hashlib first if argv[1] is "1"; then the
# hashes and whether they are OpenSSL's, as JSON on stderr (stdout is main's)
_HASHES_AFTER_MAIN = """\
import json, sys
if sys.argv[1] == "1":
    import _hashlib
from subuniform.cli import main
rc = main(sys.argv[2:])
import _hashlib, hashlib, hmac
json.dump({"sha256": hashlib.sha256(b"").hexdigest(),
           "hmac": hmac.new(b"k", b"m", "sha256").hexdigest(),
           "openssl": hashlib.sha256.__module__ == "_hashlib"}, sys.stderr)
sys.exit(rc)
"""


def test_hidden_hashlib_leaves_no_trace():
    # after a cold simulate, _hashlib imports and the hashes work, on their
    # builtin code; a caller that loaded _hashlib first keeps OpenSSL's, and
    # stdout is the same bytes either way
    pytest.importorskip("_hashlib")
    import hmac

    def run(preload):
        proc = subprocess.run([sys.executable, "-c", _HASHES_AFTER_MAIN, preload,
                               *_COLD_SIMULATE], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, json.loads(proc.stderr)

    hmac_km = hmac.new(b"k", b"m", "sha256").hexdigest()
    sha256_empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    cold_out, cold = run("0")
    warm_out, warm = run("1")
    assert cold == {"sha256": sha256_empty, "hmac": hmac_km, "openssl": False}
    assert warm == {"sha256": sha256_empty, "hmac": hmac_km, "openssl": True}
    assert cold_out == warm_out and json.loads(cold_out)["n"] == 1000


def test_only_numerics_imports_scipy():
    # no module imports scipy: a stray import would show only later, as a
    # slower cold start.  Nor do the modules a scalar command loads import
    # numpy when they load: only inside the functions that use it
    scipy_importers, numpy_at_load = set(), set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "subuniform").glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                scipy_importers.add(path.name)
            if id(node) not in in_functions and any(n == "numpy" or n.startswith("numpy.")
                                                    for n in names):
                numpy_at_load.add(path.name)
    assert scipy_importers == set()
    assert numpy_at_load.isdisjoint({"__init__.py", "bounds.py", "cli.py"})
    assert {"idf.py", "numerics.py"} <= numpy_at_load  # the check sees such imports


def test_fisher_loads_scipy_on_use(tmp_path):
    # the chi-square tails are math code: fisher loads no scipy module
    path = tmp_path / "p.csv"
    path.write_text("0.01\n0.2\n0.03\n0.5\n")
    proc, report = _cold_main(["fisher", "--pvals", str(path)], tmp_path)
    assert report["modules"] == []
    score = fisher_score(np.array([0.01, 0.2, 0.03, 0.5]))
    assert json.loads(proc.stdout) == json.loads(fisher_bounds(score.score, score.m).to_json())


# a child whose `import scipy` fails, as on an install without scipy
_NO_SCIPY = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from subuniform.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_fisher_commands_run_without_scipy(tmp_path):
    def run(*argv):
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    pvals = np.array([0.01, 0.2, 0.03, 0.5])
    path = tmp_path / "p.csv"
    path.write_text("".join(f"{p!r}\n" for p in pvals.tolist()))
    score = fisher_score(pvals)
    assert run("fisher", "--pvals", str(path)) == fisher_bounds(score.score, score.m).to_json() + "\n"
    for m, points in ((20, 16), (10 ** 9, 4)):
        rows = []
        for alpha in np.geomspace(1e-5, 0.1, points):
            rep = fisher_bounds(fisher_critical(float(alpha), m), m)
            rows.append([float(alpha), rep.score, rep.nominal_p, rep.bound_shifted_chi2,
                         rep.bound_cantelli, rep.bound_mgf])
        expected = json.dumps({"columns": ["alpha", "score", "nominal", "bound_shifted_chi2",
                                           "bound_cantelli", "bound_mgf"], "rows": rows})
        assert run("curves", "--figure", "fisher", "--m", str(m), "--points", str(points)) \
            == expected + "\n"


# ------------------------------------------------------------------ calibrate

def test_calibrate_doubles():
    doc = payload(run_cli("calibrate", "--p", "0.03"))
    assert doc == {"p": 0.03, "conservative_p": 0.06}


def test_calibrate_saturates():
    assert payload(run_cli("calibrate", "--p", "0.7"))["conservative_p"] == 1.0


def test_calibrate_rejects_out_of_range():
    proc = run_cli("calibrate", "--p", "-0.1")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_calibrate_csv_format():
    proc = run_cli("calibrate", "--p", "0.03", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0] == "p,conservative_p"
    assert [float(v) for v in lines[1].split(",")] == [0.03, 0.06]


# ------------------------------------------------------------------ fisher

def test_fisher_single_pvalue(tmp_path):
    path = tmp_path / "pvals.csv"
    path.write_text("0.05\n")
    doc = payload(run_cli("fisher", "--pvals", str(path)))
    assert doc["score"] == pytest.approx(5.991464547107982, abs=1e-9)
    assert doc["m"] == 1
    assert doc["nominal_p"] == pytest.approx(0.05, abs=1e-9)
    assert doc["bound_shifted_chi2"] == pytest.approx(0.1, abs=1e-6)


def test_fisher_all_ones(tmp_path):
    path = tmp_path / "pvals.csv"
    path.write_text("1\n1\n1\n")
    doc = payload(run_cli("fisher", "--pvals", str(path)))
    assert doc["score"] == 0.0
    assert doc["conservative_p"] == 1.0
    assert set(doc["inapplicable"]) == {"bound_cantelli", "bound_mgf"}


def test_fisher_matches_library_exactly(tmp_path):
    gen = RngStream(seed=500).generator()
    vals = p2alpha(0.2).sample(gen, 20).values
    path = tmp_path / "pvals.csv"
    path.write_text("".join(f"{v:.17g}\n" for v in vals))
    doc = payload(run_cli("fisher", "--pvals", str(path)))
    parsed = np.array([float(ln) for ln in path.read_text().splitlines()])
    score = fisher_score(parsed)
    report = fisher_bounds(score.score, score.m)
    assert doc == json.loads(report.to_json())


def test_fisher_zero_pvalue_warns_but_succeeds(tmp_path):
    path = tmp_path / "pvals.csv"
    path.write_text("0\n0.5\n")
    proc = run_cli("fisher", "--pvals", str(path))
    assert proc.returncode == 0
    assert "note:" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["warnings"]
    assert np.isfinite(doc["score"])


def test_fisher_rejects_negative(tmp_path):
    path = tmp_path / "pvals.csv"
    path.write_text("-0.2\n")
    assert run_cli("fisher", "--pvals", str(path)).returncode == 1


@pytest.mark.parametrize("command", ["fisher", "minp"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_pvals_reject_nan_and_inf(tmp_path, command, bad):
    path = tmp_path / "pvals.csv"
    path.write_text(f"0.2\n{bad}\n")
    proc = run_cli(command, "--pvals", str(path))
    assert proc.returncode == 1
    assert "error: p-values must lie in [0, 1]" in proc.stderr


@pytest.mark.parametrize("command", ["fisher", "minp"])
def test_fisher_missing_file_is_io_error(command):
    path = "/no/such/file.csv"
    proc = run_cli(command, "--pvals", path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0] == (f"error: cannot read {path!r}: [Errno 2] "
                                           f"No such file or directory: {path!r}")


@pytest.mark.parametrize("argv, usage", [
    (("curves", "--figure", "fisher", "--m", "1.5"), "curves"),
    (("simulate", "--model", "lasso", "--n", "abc", "--seed", "1"), "simulate"),
    (("simulate", "--model", "normal", "--n", "10", "--seed", "1"), "simulate"),
    (("calibrate",), "calibrate"),
], ids=["wrong_type", "wrong_type.simulate", "unknown_choice", "missing_flag"])
def test_usage_error_exits_2_with_usage(argv, usage):
    # argparse rejects a flag of the wrong type, an unknown choice and a
    # missing required flag before any command runs: exit code 2 (as for an
    # I/O error), the command's usage line, and argparse's error line
    proc = run_cli(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"usage: ppp {usage} [-h] ")
    assert proc.stderr.splitlines()[-1].startswith(f"ppp {usage}: error: ")
    assert "Traceback" not in proc.stderr


# one p-value a line; blank lines skipped, whitespace around a value ignored
_PVALS_FILES = {
    "blank_start": ("\n0.1\n0.2\n", [0.1, 0.2]),
    "blank_middle": ("0.1\n\n0.2\n", [0.1, 0.2]),
    "blank_end": ("0.1\n0.2\n\n\n", [0.1, 0.2]),
    "crlf": ("0.1\r\n0.2\r\n", [0.1, 0.2]),
    "spaces_tabs": (" 0.1\t\n\t0.2  \n", [0.1, 0.2]),
    "no_final_newline": ("0.1\n0.2", [0.1, 0.2]),
    "two_on_a_line": ("0.3\n0.1 0.2\n",
                      "non-numeric entry in {path!r}: could not convert string to float: "
                      "'0.1 0.2'"),
    "word_in_spaces": ("0.3\n  abc \t\n",
                       "non-numeric entry in {path!r}: could not convert string to float: 'abc'"),
    "nan": ("0.1\nnan\n", "p-values must lie in [0, 1]"),
    "outside": ("0.1\n1.5\n", "p-values must lie in [0, 1]"),
    "empty": ("", "{path!r} contains no p-values"),
    "whitespace_only": (" \n\t\n\n", "{path!r} contains no p-values"),
}


@pytest.mark.parametrize("command", ["minp", "fisher"])
@pytest.mark.parametrize("name", sorted(_PVALS_FILES))
def test_pvals_files_parse_or_fail_as_before(name, command, tmp_path, capsys):
    # exit code and stderr of each edge case; a file read is one float pass
    # over its lines unless a line is blank or no number, and that pass and
    # the line-by-line fallback give the same list
    text, expected = _PVALS_FILES[name]
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    rc = main([command, "--pvals", str(path)])
    out, err = capsys.readouterr()
    if isinstance(expected, str):
        assert (rc, out, err) == (1, "", f"error: {expected.format(path=str(path))}\n")
        return
    assert rc == 0 and err == ""
    vals, read = _read_pvals(str(path)), path.read_text()  # CRLF reads as LF
    assert vals == expected == [float(ln.strip()) for ln in read.split("\n") if ln.strip()]
    if not name.startswith("blank"):  # these take the one float pass
        assert vals == list(map(float, read.removesuffix("\n").split("\n")))


def test_pvals_fast_path_equals_the_fallback(tmp_path):
    # the same values in every format numpy and repr write, as one float
    # pass (no blank line) and through the fallback (one blank line added)
    vals = np.random.default_rng(3).random(2000) ** 8
    vals[::97] = 0.0
    vals[::89] = 1.0
    for fmt in ("%.17g", "%.18e", "%r"):
        body = "".join(fmt % v + "\n" for v in vals.tolist())
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        fast.write_text(body)
        slow.write_text("\n" + body)
        assert _read_pvals(str(fast)) == _read_pvals(str(slow)) == vals.tolist()


# ------------------------------------------------------------------ minp

def test_minp_inline():
    doc = payload(run_cli("minp", "--min", "0.1", "--m", "2"))
    assert doc["conservative_p"] == pytest.approx(0.36, abs=1e-12)
    assert doc["nominal_q"] == pytest.approx(0.19, abs=1e-12)
    assert doc["limit_2q_minus_q2"] == pytest.approx(2 * 0.19 - 0.19 ** 2, abs=1e-12)


def test_minp_from_file(tmp_path):
    path = tmp_path / "pvals.csv"
    path.write_text("0.4\n0.1\n0.9\n")
    doc = payload(run_cli("minp", "--pvals", str(path)))
    assert doc["min"] == 0.1 and doc["m"] == 3
    assert doc["conservative_p"] == pytest.approx(1.0 - 0.8 ** 3, abs=1e-12)


def test_minp_requires_arguments():
    assert run_cli("minp").returncode == 1


@pytest.mark.parametrize("argv, flag", [
    (("minp", "--pvals", "{pvals}", "--min", "0.1"), "--min"),
    (("minp", "--pvals", "{pvals}", "--m", "3"), "--m"),
    (("curves", "--figure", "idf", "--m", "5"), "--m"),
    (("curves", "--figure", "fisher", "--alpha", "0.2"), "--alpha"),
    (("curves", "--figure", "idf", "--m", "20"), "--m"),  # at the flags' defaults
    (("curves", "--figure", "fisher", "--alpha", "0.1"), "--alpha"),
], ids=["minp.pvals.min", "minp.pvals.m", "curves.idf.m", "curves.fisher.alpha",
        "curves.idf.m.default", "curves.fisher.alpha.default"])
def test_minp_and_curves_reject_flags_they_would_ignore(tmp_path, argv, flag):
    pvals = tmp_path / "pvals.csv"
    pvals.write_text("0.4\n0.1\n")
    proc = run_cli(*(arg.format(pvals=pvals) for arg in argv))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {flag} applies only to ")


@pytest.mark.parametrize("argv, m_ok", [(("minp", "--min", "0.1"), 10**20),
                                        (("curves", "--figure", "fisher", "--points", "2"), 10**18)],
                         ids=["minp", "curves.fisher"])
def test_m_past_the_largest_double_is_a_domain_error(argv, m_ok):
    # such an m cannot enter the float formulas; m_ok still can (the Fisher
    # critical values lose their meaning from about 1e20 on, see below)
    proc = run_cli(*argv, "--m", "1" + "0" * 400)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: m must be a positive integer at most 1.79769e+308")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert run_cli(*argv, "--m", str(m_ok)).returncode == 0


@pytest.mark.parametrize("m", [10**9, 10**18, 10**30, 10**38])
def test_fisher_critical_values_past_double_resolution_fail_cleanly(m):
    # over the default grid the chi-square tail at the critical value is alpha
    # to 6.1e-7 relative at m = 1e18 (1.5e-11 at 1e9), 6.5e-6 at 1e20 and
    # 0.62 at 1e30, and it reads 0.5 at every alpha at 1e38: past 1e-6 the
    # figure is a domain error with one line, not wrong rows
    proc = run_cli("curves", "--figure", "fisher", "--m", str(m))
    if m <= 10**18:
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert len(rows) == 512
        assert all(math.isclose(nominal, alpha, rel_tol=1e-6) for alpha, _, nominal, *_ in rows)
        return
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: no Fisher critical value for m = {m}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_fisher_curve_takes_each_tail_once(monkeypatch, capsys):
    # a row takes chi2_sf twice: at the critical value, whose tail is the
    # nominal p, and at the shifted score
    from subuniform import bounds

    calls = []
    sf = bounds.chi2_sf
    monkeypatch.setattr(bounds, "chi2_sf", lambda x, k: calls.append(x) or sf(x, k))
    assert main(["curves", "--figure", "fisher", "--m", "20", "--points", "16"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(calls) == 2 * len(rows) == 32
    for alpha, score, nominal, *_ in rows:
        assert nominal == sf(score, 40.0) and math.isclose(nominal, alpha, rel_tol=1e-6)


def test_fisher_critical_checks_its_tail():
    assert math.isclose(fisher_critical(1e-5, 10**18), 2e18, rel_tol=1e-8)
    with pytest.raises(ValueError, match="m = 100000000000000000000000000000000000000"):
        fisher_critical(0.05, 10**38)


def test_minp_nominal_q_matches_mpmath(capsys):
    # -expm1(m * log1p(-x)): log1p and expm1 within an ulp each, and the
    # product's error damped by expm1, so within 5 * 2**-53 relative
    rng = np.random.default_rng(12)
    xs, ms = 10.0 ** rng.uniform(-12, 0, 300), np.floor(10.0 ** rng.uniform(0, 9, 300))
    for x, m in zip(xs.tolist(), ms.astype(int).tolist()):
        assert main(["minp", "--min", repr(x), "--m", str(m)]) == 0
        q = json.loads(capsys.readouterr().out)["nominal_q"]
        with mp.workdps(50):
            exact = -mp.expm1(m * mp.log1p(-mp.mpf(x)))
            assert abs(q - exact) <= 5 * 2.0**-53 * exact, (x, m)


# ------------------------------------------------------------------ simulate

def test_simulate_ruschendorf_deterministic(tmp_path):
    out = tmp_path / "pvals.csv"
    args = ("simulate", "--model", "ruschendorf", "--alpha", "0.25",
            "--n", "10", "--seed", "7", "--format", "csv")
    first = run_cli(*args, "--out", str(out))
    second = run_cli(*args)
    assert first.returncode == 0 and first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert len(lines) == 10
    vals = np.array([float(v) for v in lines])
    assert np.all((np.abs(vals - 0.25) < 1e-12) | (vals >= 0.5))
    assert np.array_equal(np.loadtxt(out), vals)


def test_simulate_csv_and_out_write_savetxt_bytes(tmp_path):
    # more than one 65536-value block; stdout and --out carry the same lines
    out = tmp_path / "pvals.csv"
    proc = run_cli("simulate", "--model", "lasso", "--n", "70000", "--seed", "508",
                   "--format", "csv", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, np.loadtxt(out), fmt="%.17g")
    assert out.read_bytes() == ref.read_bytes() == proc.stdout.encode()
    bad = run_cli("simulate", "--model", "lasso", "--n", "10", "--seed", "508",
                  "--out", str(tmp_path / "missing" / "pvals.csv"))
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: cannot write")


def test_simulate_lasso_summary_keys():
    doc = payload(run_cli("simulate", "--model", "lasso", "--alpha", "0.1",
                          "--n", "20000", "--seed", "501"))
    assert doc["n"] == 20000 and doc["seed"] == 501
    assert doc["mean"] == pytest.approx(0.5, abs=0.01)
    assert set(doc["p_le_alpha"]) == {"0.01", "0.05", "0.1", "0.25"}
    assert doc["p_le_alpha"]["0.1"] == pytest.approx(0.2, abs=0.01)
    assert doc["sub_uniformity"]["holds"] is True
    assert doc["ks_vs_p2alpha"] <= 0.02
    assert doc["p2alpha_alpha"] == 0.1
    assert list(doc) == ["model", "n", "seed", "mean", "variance", "p_le_alpha",
                         "sub_uniformity", "ks_vs_p2alpha", "ks_vs_p2alpha_upper", "p2alpha_alpha"]
    assert list(doc["sub_uniformity"]) == ["holds", "max_violation", "max_violation_upper", "tol"]
    # the brackets' widths: h^2/8 (h = 2**-16) on the violation, and on the KS
    # distance the mass p2alpha(0.1) puts on one bin, h
    low, high = doc["sub_uniformity"]["max_violation"], doc["sub_uniformity"]["max_violation_upper"]
    assert 0.0 <= low <= high <= low + 2.0**-35 + 1e-14
    assert doc["ks_vs_p2alpha"] <= doc["ks_vs_p2alpha_upper"] <= doc["ks_vs_p2alpha"] + 2.0**-16


@pytest.mark.parametrize("argv", [
    ("--model", "lasso"),
    ("--model", "ruschendorf", "--alpha", "0.25"),
    ("--model", "port", "--estimator", "r_hat", "--M", "3"),
], ids=["lasso", "ruschendorf", "r_hat"])
def test_simulate_stdout_is_the_same_with_and_without_out(argv, tmp_path):
    # --out keeps the n-array; the summary folds the same blocks either way
    args = ("simulate", *argv, "--n", "70000", "--seed", "509")
    with_out = run_cli(*args, "--out", str(tmp_path / "pvals.csv"))
    assert with_out.returncode == 0 and with_out.stdout == run_cli(*args).stdout
    assert (tmp_path / "pvals.csv").read_text().count("\n") == 70000


def test_simulate_port_default_pmfs():
    doc = payload(run_cli("simulate", "--model", "port", "--n", "5000", "--seed", "502"))
    assert doc["model"].startswith("port")
    assert doc["sub_uniformity"]["holds"] is True


def test_simulate_port_missing_pmfs_is_io_error():
    proc = run_cli("simulate", "--model", "port", "--pmfs", "/nonexistent/pmfs.csv",
                   "--n", "1000", "--seed", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read '/nonexistent/pmfs.csv': ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["", "\n  \n", "# ports a, b, c\n"])
def test_simulate_port_empty_pmfs_is_domain_error(tmp_path, text):
    path = tmp_path / "pmfs.csv"
    path.write_text(text)
    proc = run_cli("simulate", "--model", "port", "--pmfs", str(path), "--n", "1000",
                   "--seed", "1")
    assert proc.returncode == 1
    assert proc.stderr == f"error: {str(path)!r} contains no pmf rows\n"  # no numpy warning


def test_simulate_port_nan_pmf_is_domain_error(tmp_path):
    path = tmp_path / "pmfs.csv"
    path.write_text("nan,0.5,0.5\n0.1,0.2,0.7\n")  # every range check passes NaN
    proc = run_cli("simulate", "--model", "port", "--pmfs", str(path), "--n", "1000",
                   "--seed", "1")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: pmf row 0, column 0 is not finite: nan\n"


@pytest.mark.parametrize("text, cause", [
    ("0.7,0.2,0.1\n0.1,abc,0.7\n", "could not convert string 'abc' to float64"),
    ("0.7,0.2,0.1\n0.5,0.5\n", "the number of columns changed from 3 to 2"),
], ids=["non_numeric", "ragged"])
def test_simulate_port_malformed_pmfs_is_domain_error(tmp_path, text, cause):
    path = tmp_path / "pmfs.csv"
    path.write_text(text)
    proc = run_cli("simulate", "--model", "port", "--pmfs", str(path), "--n", "1000",
                   "--seed", "1")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: malformed pmf CSV {str(path)!r}: ")
    assert cause in proc.stderr and "Traceback" not in proc.stderr


def test_simulate_estimator_flags():
    doc = payload(run_cli("simulate", "--model", "lasso", "--alpha", "0.1",
                          "--n", "5000", "--seed", "503", "--estimator", "r_hat",
                          "--M", "4", "--sampler", "markov", "--rho", "0.7"))
    for tag in ("r_hat", "M=4", "markov"):
        assert tag in doc["model"]
    assert doc["mean"] == pytest.approx(0.5, abs=0.02)


def test_simulate_rejects_rho_without_markov_sampler():
    proc = run_cli("simulate", "--model", "simplex", "--estimator", "r_hat", "--M", "4",
                   "--sampler", "iid", "--rho", "0.9", "--n", "1000", "--seed", "1")
    assert proc.returncode == 1
    assert "rho is only meaningful for the markov sampler" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("extra, flag", [
    (("--model", "simplex", "--M", "16", "--sampler", "markov", "--rho", "0.9"), "--M"),
    (("--model", "simplex", "--sampler", "markov"), "--sampler"),
    (("--model", "lasso", "--rho", "0.5"), "--rho"),
    (("--model", "ruschendorf", "--M", "2"), "--M"),
    (("--model", "simplex", "--g", "power2"), "--g"),
    (("--model", "port", "--estimator", "r_hat", "--M", "2", "--g", "power3"), "--g"),
    (("--model", "lasso", "--pmfs", "/nonexistent.csv"), "--pmfs"),
    (("--model", "ruschendorf", "--pmfs", "/nonexistent.csv"), "--pmfs"),
    (("--model", "port", "--alpha", "0.2"), "--alpha"),
    # each flag given at its default is still a flag the run would not read
    (("--model", "simplex", "--M", "1"), "--M"),
    (("--model", "simplex", "--sampler", "iid"), "--sampler"),
    (("--model", "lasso", "--rho", "0.0"), "--rho"),
    (("--model", "simplex", "--g", "uniform"), "--g"),
    (("--model", "port", "--alpha", "0.1"), "--alpha"),
], ids=["exact.M", "exact.sampler", "exact.rho", "ruschendorf.M", "simplex.g", "port.g",
        "lasso.pmfs", "ruschendorf.pmfs", "port.alpha", "exact.M.default",
        "exact.sampler.default", "exact.rho.default", "simplex.g.default", "port.alpha.default"])
def test_simulate_rejects_flags_it_would_ignore(extra, flag):
    # a flag the run would not read is an error, not a silent default run
    proc = run_cli("simulate", *extra, "--n", "100", "--seed", "1")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {flag} applies only to --")


@pytest.mark.parametrize("model", [
    ("--model", "simplex"),
    ("--model", "ruschendorf"),
    ("--model", "simplex", "--estimator", "r_hat", "--M", "2"),
], ids=["simplex", "ruschendorf", "r_hat"])
def test_simulate_ignores_ppp_threads(model):
    # simulate runs on one thread and reads no PPP_THREADS, a thread count
    # that scripts may still set: at any value, a malformed one too, it
    # prints the stdout of a run without it.  n = 70000 is two RNG blocks
    args = ("simulate", *model, "--n", "70000", "--seed", "507")
    unset = run_cli(*args)
    assert unset.returncode == 0, unset.stderr
    for value in ("", "1", "2", "abc", "-2"):
        proc = run_cli(*args, env_extra={"PPP_THREADS": value})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, unset.stdout, ""), value


def test_simulate_rejects_bad_alpha():
    proc = run_cli("simulate", "--model", "simplex", "--alpha", "0.6",
                   "--n", "100", "--seed", "505")
    assert proc.returncode == 1


@pytest.mark.parametrize("model", ["ruschendorf", "lasso"])
def test_simulate_atom_at_the_snap_tolerance(model):
    # the reference atom at _ATOM_TOL = 1e-9 puts its window's left edge by 0,
    # among the tiny and subnormal doubles, where a search one double at a
    # time would take about 2**62 steps
    doc = payload(run_cli("simulate", "--model", model, "--alpha", "1e-9", "--n", "1000",
                          "--seed", "1", timeout=60))
    assert doc["p2alpha_alpha"] == 1e-9 and doc["sub_uniformity"]["holds"] is True


def test_simulate_point_mass_law_has_no_ks_keys():
    # ruschendorf at alpha 0.5 states p2alpha(0.5), a point mass at 1/2 (the
    # point-mass branch of as_p2alpha): simulate reports no KS against it
    doc = payload(run_cli("simulate", "--model", "ruschendorf", "--alpha", "0.5", "--n", "1000",
                          "--seed", "1"))
    assert not doc.keys() & {"ks_vs_p2alpha", "ks_vs_p2alpha_upper", "p2alpha_alpha"}
    assert (doc["mean"], doc["variance"]) == (0.5, 0.0)


def test_simulate_ruschendorf_rejects_estimators():
    proc = run_cli("simulate", "--model", "ruschendorf", "--n", "100",
                   "--seed", "506", "--estimator", "p_hat")
    assert proc.returncode == 1


def _limit_address_space():
    # 3 GB of address space: the 800 GB sample below fails to allocate without
    # touching host memory, whatever the host's overcommit policy
    import resource

    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(hard, 3 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("model", ["lasso", "ruschendorf"])
def test_simulate_out_of_memory_is_a_domain_error(model, tmp_path):
    # --out writes the sample, so the run holds all n values; a summary-only
    # run of this n holds none and would run for hours
    out = tmp_path / "pvals.csv"
    proc = subprocess.run([sys.executable, "-m", "subuniform.cli", "simulate", "--model", model,
                           "--n", "100000000000", "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True, preexec_fn=_limit_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr and proc.stdout == "" and not out.exists()


# argv of the package's CLI in a child forked from this small launcher, which
# prints the child's exit code and peak RSS in KB.  Not a subprocess of pytest
# itself: subprocess spawns with vfork, and the child's ru_maxrss starts at
# the spawning process's RSS
_PEAK_RSS = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "subuniform.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(*argv):
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True,
                          text=True)
    code, peak = map(int, proc.stdout.split())
    assert proc.returncode == 0 and code == 0, proc.stderr
    return peak


def test_simulate_summary_memory_is_flat_in_n():
    # a summary-only run folds its blocks into fixed bins and keeps no value:
    # 20 times the replicates (160 MB of p-values) cost no more than 2 MB
    argv = ("simulate", "--model", "lasso", "--seed", "1", "--n")
    assert _peak_rss_kb(*argv, "20000000") - _peak_rss_kb(*argv, "1000000") <= 2048


# Digests of the stdout of one version of the package, recomputed only when an
# output is meant to change (the simulate JSON last moved when it came to be
# built from a _BinSummary's bins, with two bracket keys).  n = 2 * 65536 + 17
# crosses two RNG blocks and several 8192-value pieces; the 10-application
# port model at 65536 + 16385 replicates has a last block of one piece plus
# one value, where a lone value would round its 10-term posterior average
# differently.  Pinned with numpy 2.4 on x86-64: another numpy or CPU may
# round pow, sin or exp differently.
_N_PIN = str(2 * 65536 + 17)
_PINNED = {
    "lasso": (("simulate", "--model", "lasso", "--n", _N_PIN, "--seed", "1"),
              "b6aa61bc0fcf8ddf4cb8fa4e422a036f4f03a3cb96bdb1c9aaa327fbcbcf491e"),
    "lasso.power2": (("simulate", "--model", "lasso", "--g", "power2", "--n", _N_PIN,
                      "--seed", "2"),
                     "b763cbf02fcde831e27f76df358abcc297a409ff6f87f01569f8c308bb39d2c4"),
    "lasso.power3": (("simulate", "--model", "lasso", "--g", "power3", "--n", _N_PIN,
                      "--seed", "3"),
                     "0795d5b89c4200236e73f5789c9cb7bf988916bb3c0d65f5b39e47940f43bd8d"),
    "simplex": (("simulate", "--model", "simplex", "--n", _N_PIN, "--seed", "4"),
                "503ac1c7170bd349f29ec1ba279864f9ed8e9fbccd7ba2f12c7caf4a936262d9"),
    "port": (("simulate", "--model", "port", "--n", _N_PIN, "--seed", "5"),
             "cea7ff5a3f0d611974b28e4b0d1da44cefad9e944f576be7d4f9cd3c2c9b5ea4"),
    "port.10apps.csv": (("simulate", "--model", "port", "--pmfs", "pmfs10.csv",
                         "--n", str(65536 + 16385), "--seed", "6", "--format", "csv"),
                        "ebeb4d1ed3a6b5740213426ce61a90abcfec05df8176af889e06bdf06919438b"),
    # one replicate: numpy sums its 10-term posterior average pairwise
    "port.10apps.n1": (("simulate", "--model", "port", "--pmfs", "pmfs10.csv", "--n", "1",
                        "--seed", "3", "--format", "csv"),
                       "bed4cc61f14b3918f78f374c91f4f345eea4c0afac66661981d6b229fa09d98a"),
    "ruschendorf": (("simulate", "--model", "ruschendorf", "--n", _N_PIN, "--seed", "7"),
                    "fb48edc546ebbcebf55784af6e9966b58784515f425b3c1576c7af88a574cb0b"),
    "simplex.r_hat": (("simulate", "--model", "simplex", "--estimator", "r_hat", "--M", "4",
                       "--sampler", "markov", "--rho", "0.9", "--n", _N_PIN, "--seed", "8"),
                      "7d417177a8d1762c13bc7e8f225b717a03c4f4c31571f2fe47e50a024b4f3879"),
    "lasso.p_hat": (("simulate", "--model", "lasso", "--estimator", "p_hat", "--M", "3",
                     "--n", _N_PIN, "--seed", "9"),
                    "7c918684d52e0bb8d019903fb3cefb7d96a79c1f12022063c8d95620bbee6fbe"),
    "port.r_hat": (("simulate", "--model", "port", "--estimator", "r_hat", "--M", "2",
                    "--n", _N_PIN, "--seed", "10"),
                   "ee281d200e9b104578140430aa32702992b97eb6849fd22fe41d4765cae81632"),
    "lasso.csv": (("simulate", "--model", "lasso", "--n", _N_PIN, "--seed", "11",
                   "--format", "csv"),
                  "221e6b3928ce0a6a7ac5be21a6df43431a026196fd08f18ef95f7209aaec756a"),
    # the bytes --out writes, and runs with PPP_THREADS=2, which simulate
    # ignores: any reordering of the draws, or a block drawn by another
    # generator, moves these
    "lasso.out": (("simulate", "--model", "lasso", "--n", _N_PIN, "--seed", "1",
                   "--out", "out.csv"),
                  "0a19017779f33f9add2ffd29c526c89f81b3e6c7549b1978c153b70bad53d42d"),
    "ruschendorf.out": (("simulate", "--model", "ruschendorf", "--n", _N_PIN, "--seed", "7",
                         "--out", "out.csv"),
                        "2f7b882a0faa20928383881e16b767620f585cbf89579583da4db9df364f079b"),
    "lasso.threads2": (("simulate", "--model", "lasso", "--n", _N_PIN, "--seed", "1"),
                       "b6aa61bc0fcf8ddf4cb8fa4e422a036f4f03a3cb96bdb1c9aaa327fbcbcf491e",
                       {"PPP_THREADS": "2"}),
    "simplex.r_hat.threads2": (("simulate", "--model", "simplex", "--estimator", "r_hat",
                                "--M", "4", "--sampler", "markov", "--rho", "0.9",
                                "--n", _N_PIN, "--seed", "8"),
                               "7d417177a8d1762c13bc7e8f225b717a03c4f4c31571f2fe47e50a024b4f3879",
                               {"PPP_THREADS": "2"}),
    "construct.beta22": (("construct", "--target", "beta22.json", "--n", "3000", "--seed", "12"),
                         "d7654c85ea995d9f04bae5a8161980f68b19de267907b1fc5d06aa766bfd7a68"),
    # the bytes construct --out writes: the row labels' categorical draw and the writer
    "construct.beta22.out": (("construct", "--target", "beta22.json", "--n", _N_PIN, "--seed", "12",
                              "--out", "out.csv"),
                             "4bb5ae714d99a934e3c224cac0024376710326b197d4c763c2d15020bfbc3cfe"),
    # the singular-span path: SubUniformDist.sample feeds the rows
    "construct.p2alpha": (("construct", "--target", "p2alpha.json", "--n", _N_PIN, "--seed", "13"),
                          "0c747583c0187848527cd21b453466fbaa6080da306768984901ada455231d21"),
    "construct.uniform01": (("construct", "--target", "uniform01.json", "--n", _N_PIN,
                             "--seed", "13"),
                            "7dee9b53cb54b08d2bb7c9bafa94e151c7a1c3ca493389b68b90709f46a721a1"),
    # the scalar commands
    "calibrate": (("calibrate", "--p", "0.03"),
                  "ae6e8c21bdded6046c4481802e0e36c8ba053a4d8bd60df5efb69de9b34b89d5"),
    "minp.args": (("minp", "--min", "0.0123", "--m", "37"),
                  "b592e0b8164fc6180ef4ab6f163b878f5f5df6c98f73982607490f51dd801581"),
    "minp.pvals": (("minp", "--pvals", "pvals.csv"),
                   "4647ef0098a3d53ea9751b7dae5c5b2d9c9a95c6ff55c8dc8f799af01c9e9e5e"),
    # one p-value of 0: its note goes to stderr and into the report
    "fisher.pvals0": (("fisher", "--pvals", "pvals0.csv"),
                      "8a921d2675cec122764bdc9f65f974662b1b257e83f6a74cd33c6c23e3e89ae7"),
    "curves.fisher": (("curves", "--figure", "fisher"),
                      "b913b27419079ed70105b348355f0036d355bd138c217c2ed3b9604fd49017eb"),
    "curves.fisher.csv": (("curves", "--figure", "fisher", "--format", "csv"),
                          "a642b1918e23fe4f48a066f1918471d307b79206448b3fec3cc993cfdf0cb7d1"),
    "curves.fisher.m1e9": (("curves", "--figure", "fisher", "--m", "1000000000",
                            "--points", "64"),
                           "415f2fecfa20bf818ad4ad9d45f313d4dd09d7d9bb1f3fd755f9a9a477be7c71"),
    "curves.idf": (("curves", "--figure", "idf"),
                   "67c13f0ba2ffbf73d523a9c14f18fec76e109d03cd1a14585941172c188398b5"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_stdout_matches_pinned_digest(name, tmp_path):
    # the package promises byte-identical stdout for the same flags and seed
    import hashlib

    pmfs = np.random.default_rng(5).random((10, 4)) + 0.05
    np.savetxt(tmp_path / "pmfs10.csv", pmfs / pmfs.sum(axis=1, keepdims=True), fmt="%.17g",
               delimiter=",")
    (tmp_path / "beta22.json").write_text('{"variant": "beta22"}')
    (tmp_path / "p2alpha.json").write_text('{"variant": "p2alpha", "alpha": 0.2}')
    (tmp_path / "uniform01.json").write_text('{"variant": "uniform01"}')
    pvals = np.random.default_rng(7).random(1000)
    np.savetxt(tmp_path / "pvals.csv", pvals, fmt="%.17g")
    pvals[17] = 0.0
    np.savetxt(tmp_path / "pvals0.csv", pvals, fmt="%.17g")
    argv, digest, *env = _PINNED[name]
    proc = run_cli(*(str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv),
                   env_extra=env[0] if env else None)
    assert proc.returncode == 0, proc.stderr
    # the file --out names, if any, else stdout
    out = (tmp_path / "out.csv").read_bytes() if "--out" in argv else proc.stdout.encode()
    assert hashlib.sha256(out).hexdigest() == digest


# ------------------------------------------------------------------ construct

def test_construct_p2alpha(tmp_path):
    target = tmp_path / "target.json"
    target.write_text(p2alpha(0.1).to_json())
    out = tmp_path / "pvals.csv"
    model_out = tmp_path / "model.json"
    doc = payload(run_cli("construct", "--target", str(target), "--n", "40000",
                          "--seed", "507", "--out", str(out),
                          "--model-out", str(model_out)))
    assert doc["coupling"] == "mixed"
    assert doc["path"] == "explicit-p2alpha"
    comp = doc["comparison"]
    assert comp["ks_vs_target"] <= 0.01
    assert comp["atom_frequencies"]["0.1"] == pytest.approx(0.2, abs=0.01)
    assert comp["atom_expected"]["0.1"] == pytest.approx(0.2, abs=1e-12)
    assert comp["s_marginal_ks"] <= 0.01
    assert comp["martingale_residual"] <= 1e-9
    assert "discretization_ks" not in comp  # explicit paths are exact
    vals = np.loadtxt(out)
    assert vals.size == 40000
    model = SyntheticPPPModel.from_json(model_out.read_text())
    assert model.meta["path"] == "explicit-p2alpha"


def test_construct_uniform_is_singular(tmp_path):
    target = tmp_path / "target.json"
    target.write_text(SubUniformDist("uniform01").to_json())
    doc = payload(run_cli("construct", "--target", str(target), "--n", "5000",
                          "--seed", "508"))
    assert doc["coupling"] == "singular"
    assert doc["path"] == "explicit-uniform"


def test_construct_beta22_reports_discretization_ks(tmp_path):
    target = tmp_path / "target.json"
    target.write_text(SubUniformDist("beta22").to_json())
    doc = payload(run_cli("construct", "--target", str(target), "--n", "20000",
                          "--seed", "511"))
    assert doc["path"] == "left-curtain"
    comp = doc["comparison"]
    assert comp["discretization_ks"] == doc["model"]["meta"]["discretization_ks"]
    assert comp["ks_vs_target"] <= comp["discretization_ks"] + 2.0 / np.sqrt(20000)
    assert comp["martingale_residual"] <= 1e-12


def test_construct_rejects_super_uniform_target(tmp_path):
    target = tmp_path / "target.json"
    bad = SubUniformDist("mixture", atoms=((0.9, 1.0),), pieces=())
    target.write_text(bad.to_json())
    proc = run_cli("construct", "--target", str(target), "--n", "100", "--seed", "509")
    assert proc.returncode == 1
    assert "not sub-uniform" in proc.stderr


@pytest.mark.parametrize("spec", ['{"variant": "mixture", "atoms": 5}',
                                  '{"variant": "mixture", "atoms": [[0.5, null]]}',
                                  '{"variant": "p2alpha", "alpha": null}',
                                  '{"variant": "p2alpha"}'])
def test_construct_rejects_malformed_target_cleanly(tmp_path, spec):
    target = tmp_path / "target.json"
    target.write_text(spec)
    proc = run_cli("construct", "--target", str(target), "--n", "100", "--seed", "512")
    assert proc.returncode == 1
    assert "error: invalid target spec:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec, field", [
    ('{"variant": "p2alpha", "alpha": "abc"}', "'p2alpha' distribution JSON field alpha"),
    ('{"variant": "mixture", "atoms": [["x", 1.0]]}', "'mixture' distribution JSON field atoms"),
    ('{"variant": "mixture", "atoms": [[0.5]]}', "'mixture' distribution JSON field atoms"),
])
def test_construct_malformed_target_names_its_field(tmp_path, spec, field):
    # a value that does not parse is reported with the variant and the field,
    # as a missing key is, not as a bare conversion or unpacking error
    target = tmp_path / "target.json"
    target.write_text(spec)
    proc = run_cli("construct", "--target", str(target), "--n", "100", "--seed", "513")
    assert proc.returncode == 1
    assert f"error: invalid target spec: malformed {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("alpha, path, frequencies", [
    (0.5, "left-curtain", {"0.5": 1.0}),
    (1e-9, "explicit-p2alpha", {"1e-09": 0.0}),
], ids=["point_mass", "atom_at_snap_tolerance"])
def test_construct_p2alpha_at_the_ends(tmp_path, alpha, path, frequencies):
    # p2alpha(0.5) is a point mass at 1/2, which as_p2alpha names and the
    # left curtain realizes; an atom at 1e-9 = _ATOM_TOL has a snap window
    # whose left edge lies by 0, about 2**62 doubles from 1e-9 - 1e-9
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"variant": "p2alpha", "alpha": alpha}))
    doc = payload(run_cli("construct", "--target", str(target), "--n", "1000", "--seed", "1",
                          timeout=60))
    assert doc["path"] == path
    assert doc["comparison"]["atom_frequencies"] == frequencies


def test_construct_missing_target_is_io_error():
    path = "/no/such/target.json"
    proc = run_cli("construct", "--target", path, "--n", "100", "--seed", "510")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0] == (f"error: cannot read {path!r}: [Errno 2] "
                                           f"No such file or directory: {path!r}")


# ------------------------------------------------------------------ curves

def test_curves_idf_table():
    doc = payload(run_cli("curves", "--figure", "idf", "--alpha", "0.25"))
    assert doc["columns"] == ["x", "phi_uniform", "phi_beta22", "phi_p2alpha"]
    assert len(doc["rows"]) == 512
    first, last = doc["rows"][0], doc["rows"][-1]
    assert first == [0.0, 0.0, 0.0, 0.0]
    assert last[0] == 1.0
    for phi_at_one in last[1:]:
        assert phi_at_one == pytest.approx(0.5, abs=1e-12)  # every mean is 1/2
    for row in doc["rows"]:
        assert row[3] <= row[1] + 1e-12  # extremal law sits below uniform


def test_curves_fisher_small_m():
    doc = payload(run_cli("curves", "--figure", "fisher", "--m", "20",
                          "--points", "16"))
    assert doc["columns"][:2] == ["alpha", "score"]
    first = doc["rows"][0]  # alpha = 1e-5: the moment bound wins
    alpha, _score, nominal, shifted, cantelli, mgf = first
    assert alpha == pytest.approx(1e-5, rel=1e-9)
    assert nominal == pytest.approx(1e-5, rel=1e-6)
    assert mgf < cantelli and mgf < shifted


def test_curves_fisher_huge_m():
    doc = payload(run_cli("curves", "--figure", "fisher", "--m", "1000000",
                          "--points", "4"))
    _alpha, _score, _nominal, shifted, cantelli, mgf = doc["rows"][0]
    assert shifted >= 0.5  # location shift is vacuous at this scale
    assert cantelli < 0.06  # Gaussian limit 1/(1 + z^2) at alpha = 1e-5
    assert mgf < 1e-3


def test_curves_fisher_alpha_grid_is_geomspace():
    # numpy's geomspace, in math code: 10**y on the same exponents, with the
    # endpoints exact; a moved value is the correctly rounded 10**y
    for points in range(1, 601):
        grid, ref = _alpha_grid(points), np.geomspace(1e-5, 0.1, points).tolist()
        assert len(grid) == points and grid[0] == 1e-5
        assert points == 1 or grid[-1] == 0.1
        assert all(abs(a - b) <= math.ulp(b) for a, b in zip(grid, ref)), points
    step = 4.0 / 63
    with mp.workdps(50):
        assert all(a == float(mp.power(10, i * step - 5.0))
                   for i, a in enumerate(_alpha_grid(64)))


def test_curves_fisher_points_edges():
    doc = payload(run_cli("curves", "--figure", "fisher", "--points", "0"))
    assert doc["rows"] == []
    proc = run_cli("curves", "--figure", "fisher", "--points", "-1")
    assert proc.returncode == 1 and "--points" in proc.stderr


@pytest.mark.parametrize("figure", ["idf", "fisher"])
def test_curves_rejects_negative_points(figure):
    proc = run_cli("curves", "--figure", figure, "--points", "-1")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: --points must be >= 0, got -1\n"


def test_curves_fisher_checks_m_before_the_rows():
    # --points 0 computes no row, so no row may be the first to check m; and
    # the chi-square's 2m degrees of freedom must be a double as well as m
    proc = run_cli("curves", "--figure", "fisher", "--points", "0", "--m", "1" + "0" * 400)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: m must be a positive integer at most 1.79769e+308")
    proc = run_cli("curves", "--figure", "fisher", "--points", "4", "--m", str(10 ** 308))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: m must be at most 8.98847e+307 for the chi-square")
    assert proc.stderr.count("\n") == 1 and "chi2_quantile" not in proc.stderr


def test_curves_rejects_bad_alpha():
    assert run_cli("curves", "--figure", "idf", "--alpha", "0.6").returncode == 1


def test_curves_csv_deterministic():
    args = ("curves", "--figure", "idf", "--points", "64", "--format", "csv")
    assert run_cli(*args).stdout == run_cli(*args).stdout


# ------------------------------------------------------------------ paths no other test reaches

@pytest.mark.parametrize("argv, header", [
    (("fisher", "--pvals", "{small}"),
     "score,m,nominal_p,bound_shifted_chi2,bound_cantelli,bound_mgf,conservative_p"),
    (("fisher", "--pvals", "{large}"),
     "score,m,nominal_p,bound_shifted_chi2,bound_cantelli,bound_mgf,conservative_p,"
     "inapplicable.bound_cantelli,inapplicable.bound_mgf"),
    (("construct", "--target", "{beta22}", "--n", "10", "--seed", "1"),
     "target.variant,coupling,path,n,seed,comparison.ks_vs_target,comparison.s_marginal_ks,"
     "comparison.martingale_residual,comparison.discretization_ks,model.target.variant,"
     "model.g_name,model.seed,model.stream_id,model.meta.path,model.meta.n_cells,"
     "model.meta.discretization_ks"),
], ids=["fisher", "fisher.inapplicable", "construct"])
def test_csv_flattens_nested_payloads(argv, header, tmp_path):
    # nested objects become dotted columns; lists (fisher's warnings, the
    # coupling's rows) are JSON-only, and None is an empty cell
    paths = {"small": tmp_path / "small.csv", "large": tmp_path / "large.csv",
             "beta22": tmp_path / "beta22.json"}
    paths["small"].write_text("0.01\n0.2\n0.03\n0.5\n")
    paths["large"].write_text("0.9\n0.95\n")
    paths["beta22"].write_text('{"variant": "beta22"}')
    argv = [a.format(**paths) for a in argv]
    proc = run_cli(*argv, "--format", "csv")
    assert proc.returncode == 0 and proc.stderr == ""
    head, row = proc.stdout.splitlines()
    assert head == header
    doc = payload(run_cli(*argv))
    for column, cell in zip(head.split(","), row.split(","), strict=True):
        value = doc
        for key in column.split("."):
            value = value[key]
        assert cell == ("" if value is None else f"{value}"), column


@pytest.mark.parametrize("argv, code, first_line", [
    (("fisher", "--pvals", "{text}"), 1,
     "error: non-numeric entry in {text!r}: could not convert string to float: 'abc'"),
    (("fisher", "--pvals", "{empty}"), 1, "error: {empty!r} contains no p-values"),
    # the first bad line is quoted stripped, as a line-by-line read quotes it
    (("fisher", "--pvals", "{padded}"), 1,
     "error: non-numeric entry in {padded!r}: could not convert string to float: '1e-2x'"),
    (("minp", "--pvals", "{blank}"), 1, "error: {blank!r} contains no p-values"),
    (("fisher", "--pvals", "{nan}"), 1, "error: p-values must lie in [0, 1]"),
    (("minp", "--pvals", "{nan}"), 1, "error: p-values must lie in [0, 1]"),
    (("minp", "--pvals", "{negative}"), 1, "error: p-values must lie in [0, 1]"),
    (("fisher", "--pvals", "{above}"), 1, "error: p-values must lie in [0, 1]"),
    (("minp", "--min", "1.5", "--m", "3"), 1, "error: --min must lie in [0, 1], got 1.5"),
    (("minp", "--min", "0.1", "--m", "0"), 1, "error: --m must be >= 1, got 0"),
    (("simulate", "--model", "lasso", "--g", "power4", "--n", "10", "--seed", "1"), 1,
     "error: --g must be one of ['power2', 'power3', 'uniform']"),
    (("simulate", "--model", "lasso", "--n", "0", "--seed", "1"), 1, "error: --n must be >= 1"),
    (("construct", "--target", "{beta22}", "--n", "0", "--seed", "1"), 1,
     "error: --n must be >= 1"),
    (("simulate", "--model", "ruschendorf", "--alpha", "0.7", "--n", "10", "--seed", "1"), 1,
     "error: --alpha must lie in (0, 0.5] for ruschendorf, got 0.7"),
    (("construct", "--target", "{beta22}", "--n", "10", "--seed", "1", "--model-out",
      "{no_dir}"), 2,
     "error: cannot write {no_dir!r}: [Errno 2] No such file or directory: {no_dir!r}"),
], ids=["fisher.text", "fisher.empty", "fisher.padded", "minp.blank", "fisher.nan", "minp.nan",
        "minp.negative", "fisher.above", "minp.min", "minp.m", "simulate.g", "simulate.n0",
        "construct.n0", "ruschendorf.alpha", "construct.model_out"])
def test_bad_input_fails_cleanly(argv, code, first_line, tmp_path):
    files = {"text": "0.5\nabc\n", "empty": "", "padded": "0.5\n\n  0.25\t\n \t1e-2x  \n0.1\n",
             "blank": "\n  \n\t\n", "nan": "0.5\nnan\n0.25\n", "negative": "0.5\n-0.1\n",
             "above": "0.5\n1.5\n0.25\n"}
    paths = {"beta22": tmp_path / "beta22.json", "no_dir": tmp_path / "missing" / "model.json"}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)
    paths["beta22"].write_text('{"variant": "beta22"}')
    paths = {name: str(path) for name, path in paths.items()}
    proc = run_cli(*(a.format(**paths) for a in argv))
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.splitlines()[0] == first_line.format(**paths)
