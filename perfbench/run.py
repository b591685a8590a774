"""Benchmark of the ``ppp`` command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of simulate, bounds_export (see workloads.py).  Every
command runs as a cold child process, one at a time: a closed loop with one
client.  The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the full
record (environment, per-command times, tail percentile, failures).

--trace 0 runs passes over the command list for about S seconds (a pass is
started only if it should end in time; at least three passes) and reports the
end-to-end metrics.  --trace 1 runs one untraced pass, then replays the
same commands under tracer.py twice, for span times and for tracemalloc
peaks, and reports the per-layer metrics.  The exit
code is 0 when every output checked out, 1 when one did not, and 2 when the
benchmark could not run at all (for instance without ``src/subuniform``).
"""

from __future__ import annotations

import os
import sys

# Children get the environment run.py was started with.  run.py itself keeps
# numpy's BLAS single-threaded, so that it starts no thread pool of its own.
CHILD_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Command  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 120.0
IMPORTTIME_REPEATS = 3
SPEEDUP_N, SPEEDUP_REPEATS = 2_000_000, 3
PPP_ENTRY = "import sys; from subuniform.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "op_s_p50": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "replicates_per_s": "1/s",
}
_LAYER_UNITS = {"calls": "count", "self_s": "s", "share": "ratio", "peak_mb": "MB"}
PER_LAYER = {f"{layer}.{key}": unit for layer in benchlib.LAYERS
             for key, unit in _LAYER_UNITS.items()}
PER_LAYER.update({
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.bytes_out": "bytes",
    "numerics.sample_mb_computed": "MB", "numerics.chi2_sf_calls": "count",
    "idf.evaluate_calls": "count", "idf.breakpoints_checked": "count",
    "models.replicates": "count", "models.blocks": "count", "models.thread_speedup": "ratio",
    "estimators.draws": "count",
    "coupling.lp_s": "s", "coupling.lp_vars": "count", "coupling.bins": "count",
    "coupling.dominance_checks": "count", "coupling.bins_accept_ratio": "ratio",
    "coupling.discretization_ks": "prob",
    "trace.overhead_s": "s",
})


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    """One command execution."""

    name: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    digest: str
    bytes_out: int
    replicates: int
    failure: str | None = None


# ------------------------------------------------------------------ processes

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: str | None = None) -> dict:
    env = dict(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PPP_THREADS", None)
    if threads is not None:
        env["PPP_THREADS"] = threads
    return env


def run_child(argv: list[str], env: dict, stderr_path: Path):
    """Run one child to exit with stdout drained.  Returns (wall seconds,
    rusage, exit code or None on timeout, stdout bytes)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        fd = proc.stdout.fileno()
        # One growing buffer: a list of the short chunks a pipe yields would
        # keep one memory mapping per chunk and can exhaust vm.max_map_count.
        out = bytearray()
        timed_out = False
        deadline = t0 + COMMAND_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return wall, usage, None if timed_out else proc.returncode, bytes(out)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` in a child that imports the package
    from ``src``; raise BenchError if it fails."""
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"python {' '.join(args)[:60]} failed: {proc.stderr.strip()[-500:]}")
    return proc


def command_argv(cmd: Command, trace: tuple[Path, str] | None) -> list[str]:
    if trace is not None:
        spans_path, mode = trace
        return [sys.executable, str(HERE / "tracer.py"), str(spans_path), mode, cmd.kind,
                *cmd.argv]
    if cmd.kind == "ppp":
        return [sys.executable, "-c", PPP_ENTRY, *cmd.argv]
    return [sys.executable, str(HERE / "hbound_cmd.py"), *cmd.argv]


def execute(cmd: Command, workdir: Path, digests: dict,
            trace: tuple[Path, str] | None = None) -> Op:
    """Run one command and judge it.  ``digests`` maps a command name to the
    digest of its first correct run, over stdout and the files it writes.
    Output is checked on that first run; every later run must match it."""
    stderr_path = workdir / "stderr.txt"
    wall, usage, code, stdout = run_child(command_argv(cmd, trace),
                                          child_env(cmd.threads), stderr_path)
    digest = hashlib.sha256(stdout)
    bytes_out = len(stdout)
    for path in cmd.outputs:
        if path.exists():
            data = path.read_bytes()
            digest.update(data)
            bytes_out += len(data)
    digest = digest.hexdigest()
    failure = None
    if code is None:
        failure = f"timed out after {COMMAND_TIMEOUT_S:g} s"
    elif code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        failure = f"exit code {code}: {' | '.join(tail)}"
    elif cmd.name in digests:
        if digest != digests[cmd.name]:
            failure = "output digest differs from an earlier run of the same command"
    else:
        try:
            cmd.check(stdout)
            digests[cmd.name] = digest
        except CheckFailed as exc:
            failure = str(exc)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            failure = f"malformed output: {exc!r}"
    for path in cmd.outputs:
        path.unlink(missing_ok=True)
    return Op(name=cmd.name, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
              maxrss_mb=usage.ru_maxrss * 1024 / 1e6, digest=digest, bytes_out=bytes_out,
              replicates=cmd.replicates, failure=failure)


def run_pass(commands: list[Command], workdir: Path, digests: dict,
             trace_mode: str | None = None):
    """One pass over the command list, under tracer.py in ``trace_mode`` if
    given; returns its ops and the span files' text."""
    ops, spans = [], []
    by_name = {}
    for i, cmd in enumerate(commands):
        spans_path = workdir / f"spans_{i}.jsonl"
        op = execute(cmd, workdir, digests, (spans_path, trace_mode) if trace_mode else None)
        twin = by_name.get(cmd.same_as)
        if op.failure is None and twin is not None and op.digest != twin.digest:
            op.failure = f"stdout differs from {cmd.same_as}"
        by_name[cmd.name] = op
        ops.append(op)
        if trace_mode and spans_path.exists():
            spans.append(spans_path.read_text())
            spans_path.unlink()
    return ops, spans


# ------------------------------------------------------------------ set-up

def setup(workload: str, seed: int, workdir: Path) -> tuple[list[Command], float]:
    """Write the inputs and import the package once, untimed by the passes.
    Repeated; returns the commands and the median set-up time."""
    times = []
    commands = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        commands = workloads.build(workload, seed, workdir)
        probe = run_python("-c", "import sys, subuniform.cli; "
                                 "sys.stdout.write(subuniform.cli.__file__)")
        times.append(time.perf_counter() - t0)
        if not Path(probe.stdout).resolve().is_relative_to(SRC):
            raise BenchError(f"subuniform was imported from {probe.stdout}, not from {SRC}")
    return commands, benchlib.median(times)


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "git_commit": git_commit(), "seed": seed}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ------------------------------------------------------------------ metrics

def end_to_end(ops: list[Op], setup_s: float) -> tuple[dict, dict]:
    """Every time metric starts from each command's fastest run over the
    run's passes (at least three).  A shared machine only ever slows a
    command down, in stretches that can outlast a pass, so the minimum moves
    less between runs than the median does.  The median and the tail of the
    raw command times are recorded beside the metrics; the tail rests on one
    or two commands' few runs and moves too much from run to run to gate."""
    by_cmd: dict[str, list[Op]] = {}
    for op in ops:
        by_cmd.setdefault(op.name, []).append(op)
    wall = {name: min(op.wall_s for op in runs) for name, runs in by_cmd.items()}
    cpu = {name: min(op.cpu_s for op in runs) for name, runs in by_cmd.items()}
    drawn = [name for name, runs in by_cmd.items() if runs[0].replicates]
    metrics = {
        "setup_s": setup_s,
        "pass_s": sum(wall.values()),
        "op_s_p50": benchlib.median(wall.values()),
        "cpu_s": sum(cpu.values()),
        "peak_rss_mb": max(op.maxrss_mb for op in ops),
        "replicates_per_s": (sum(by_cmd[name][0].replicates for name in drawn)
                             / sum(wall[name] for name in drawn)),
    }
    raw = [op.wall_s for op in ops]
    return metrics, {"op_s_median": benchlib.median(raw),
                     "op_s_tail": benchlib.tail_percentile(raw)}


def _load_trace(texts: list[str]) -> tuple[list[dict], list[dict], dict]:
    """Spans, timers and summed counts of a traced pass.  Span ids are made
    unique across the per-command files."""
    spans, timers, counts = [], [], {}
    for i, text in enumerate(texts):
        offset = (i + 1) * 10**9
        for line in text.splitlines():
            rec = json.loads(line)
            if rec["kind"] == "span":
                rec["id"] += offset
                if rec["parent"] is not None:
                    rec["parent"] += offset
                spans.append(rec)
            elif rec["kind"] == "timer":
                timers.append(rec)
            else:
                for key, val in rec["counts"].items():
                    counts[key] = counts.get(key, 0) + val
    return spans, timers, counts


def per_layer(traced: list[Op], untraced: list[Op], texts: list[str], memory_texts: list[str],
              seed: int) -> tuple[dict, dict]:
    spans, timers, counts = _load_trace(texts)
    traced_wall = sum(op.wall_s for op in traced)
    metrics = benchlib.layer_metrics(spans, traced_wall, _load_trace(memory_texts)[0])

    def named(*names):
        return [s for s in spans if s["name"] in names]

    by_id = {s["id"]: s for s in spans}

    def parent_name(s):
        parent = by_id.get(s["parent"])
        return parent["name"] if parent else None

    checks = [s for s in named("dominates_cx") if parent_name(s) == "synthesize_ppp"]
    imports = [benchlib.parse_importtime(
        run_python("-X", "importtime", "-c", "import subuniform.cli").stderr)
        for _ in range(IMPORTTIME_REPEATS)]
    speedup = json.loads(run_python(str(HERE / "speedup.py"), str(SPEEDUP_N), str(seed),
                                    str(SPEEDUP_REPEATS)).stdout)
    metrics.update({
        "cli.import_s": benchlib.median([r["import_s"] for r in imports]),
        "cli.import_scipy_s": benchlib.median([r["scipy_s"] for r in imports]),
        "cli.bytes_out": sum(op.bytes_out for op in traced),
        "numerics.sample_mb_computed": 8 * sum(s["attrs"].get("values", 0)
                                               for s in named("EmpiricalSample")) / 1e6,
        "numerics.chi2_sf_calls": len(named("chi2_sf")),
        "idf.evaluate_calls": counts.get("idf.evaluate", 0),
        "idf.breakpoints_checked": sum(s["attrs"].get("breakpoints", 0)
                                       for s in named("dominates_cx")),
        "models.replicates": sum(s["attrs"].get("n", 0) for s in named("frequency_run")),
        "models.blocks": sum(1 for s in named("GenerativeModel.draw_pvalues",
                                              "EstimatorScheme.draw_pvalues")
                             if parent_name(s) == "frequency_run"),
        "models.thread_speedup": speedup["speedup"],
        "estimators.draws": sum(s["attrs"].get("n", 0) * s["attrs"].get("m_draws", 0)
                                for s in named("EstimatorScheme.draw_pvalues")),
        "coupling.lp_s": sum(t["t1"] - t["t0"] for t in timers if t["name"] == "linprog"),
        "coupling.lp_vars": sum(t["attrs"]["vars"] for t in timers if t["name"] == "linprog"),
        "coupling.bins": sum(s["attrs"].get("bins", 0) for s in named("martingale_transport")),
        "coupling.dominance_checks": len(checks),
        "coupling.bins_accept_ratio": (sum(1 for s in checks if s["attrs"].get("holds"))
                                       / len(checks) if checks else 0.0),
        "coupling.discretization_ks": max((s["attrs"].get("discretization_ks", 0.0)
                                           for s in named("synthesize_ppp")), default=0.0),
        "trace.overhead_s": traced_wall - sum(op.wall_s for op in untraced),
    })
    return metrics, {"thread_speedup": speedup, "spans": len(spans)}


# ------------------------------------------------------------------ main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    if not (SRC / "subuniform" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'subuniform'}")
    workdir = WORK / args.workload
    commands, setup_s = setup(args.workload, args.seed, workdir)
    needed = max([int(c.threads) for c in commands if c.threads] + [2 if args.trace else 1])
    if needed > nproc():
        raise BenchError(f"refusing to set PPP_THREADS={needed} above nproc={nproc()}")

    digests: dict[str, str] = {}
    failures = []
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "setup_s": setup_s}
    if args.trace:
        untraced, _ = run_pass(commands, workdir, digests)
        traced, texts = run_pass(commands, workdir, digests, "time")
        measured, memory_texts = run_pass(commands, workdir, digests, "memory")
        ops = untraced + traced + measured
        metrics, extra = per_layer(traced, untraced, texts, memory_texts, args.seed)
        if not extra["thread_speedup"]["identical"]:
            failures.append({"command": "speedup.py", "failure": "frequency_run draws differ "
                                                                 "between threads=1 and 2"})
        units = PER_LAYER
    else:
        ops = []
        n_passes = 0
        start = time.perf_counter()
        while True:
            ops += run_pass(commands, workdir, digests)[0]
            n_passes += 1
            elapsed = time.perf_counter() - start
            # Start another pass only if it should end within --seconds.
            if n_passes >= MIN_PASSES and elapsed * (n_passes + 1) / n_passes > args.seconds:
                break
        metrics, extra = end_to_end(ops, setup_s)
        units = END_TO_END
        record["passes"] = n_passes
    failures += [{"command": op.name, "failure": op.failure} for op in ops if op.failure]
    attempted = len(ops) + args.trace  # the traced run also checks speedup.py
    record.update(extra)
    record["commands"] = {c.name: {"argv": list(c.argv), "threads": c.threads,
                                   "wall_s": [op.wall_s for op in ops if op.name == c.name],
                                   "maxrss_mb": max(op.maxrss_mb for op in ops
                                                    if op.name == c.name),
                                   "digest": digests.get(c.name)}
                          for c in commands}
    record["fail_ratio"] = len(failures) / attempted
    record["failures"] = failures
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
