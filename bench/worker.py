"""Run one workload in this interpreter: set up, then time passes of its batch.

Invoked by run.py in a fresh interpreter, with BLAS and OpenMP pinned to one
thread.  Library workloads call the package here; a cli_cold op spawns one
``python -m primelattice.cli`` child (``cli_launch.py`` in traced passes).
Prints one JSON object: set-up times, per-pass wall times, each op's fastest
times (workloads.KEPT_SAMPLES), peak RSS (of the children, for cli_cold), the
first pass's result summaries (run.py checks them against its oracles), and,
when traced, per-layer figures.  Every later pass must reproduce the first
pass's results exactly; an op that does not counts as failed for that pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

clock = time.perf_counter
_T0 = clock()

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

# read-only properties that state a result's own check
_PROPERTIES = ("within_bound", "methods_agree")
CHILD_TIMEOUT = 120


def fastest(pass_times: list, keep: int) -> list:
    """Each op's ``keep`` fastest times, ascending, from one list of op times
    per pass."""
    return [sorted(col)[:keep] for col in zip(*pass_times)]


@dataclasses.dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliTracer:
    """Tracing for cli_cold: while installed, commands run under cli_launch.py,
    which records its own spans and hands them back; a pass's fold merges the
    folds of its commands."""

    def __init__(self):
        self.installed = False
        self.op = None
        self.records: list = []
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        self.span_file = os.path.join(out_dir, f"cli-spans-{os.getpid()}.json")

    def install(self) -> None:
        self.installed = True

    def uninstall(self) -> None:
        self.installed = False

    def take(self) -> list:
        out, self.records = self.records, []
        return out

    @staticmethod
    def fold(taken: list) -> dict:
        return spans.merge([r["fold"] for r in taken])

    @staticmethod
    def rows(taken: list) -> list:
        return [{"argv": r["argv"], "spans": r["spans"]} for r in taken]


def _spawn(cmd: list, env: dict | None = None) -> CliResult:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _run_cli(argv: list, tracer) -> CliResult:
    """One command in a fresh interpreter, under cli_launch.py when traced."""
    if tracer is None or not tracer.installed:
        return _spawn([sys.executable, "-m", "primelattice.cli", *argv])
    env = dict(os.environ, BENCH_SPANS_FILE=tracer.span_file,
               BENCH_SPAWN=repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    got = _spawn([sys.executable, os.path.join(BENCH, "cli_launch.py"), *argv], env)
    if os.path.exists(tracer.span_file):  # absent when the command crashed
        with open(tracer.span_file) as f:
            rec = json.load(f)
        os.remove(tracer.span_file)
        tracer.records.append(dict(rec, argv=argv))
    return got


class Failure:
    """An op that raised; summarised as its exception."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def summarize(v):
    """A JSON-able summary of a package result, compared exactly between passes."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, Failure):
        return {"exception": v.text}
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, numbers.Real):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [summarize(x) for x in v]
    if dataclasses.is_dataclass(v):
        out = {f.name: summarize(getattr(v, f.name)) for f in dataclasses.fields(v)}
        for prop in _PROPERTIES:
            if isinstance(getattr(type(v), prop, None), property):
                out[prop] = bool(getattr(v, prop))
        return out
    raise TypeError(f"cannot summarize {type(v).__name__}")


def _bind(op: dict, pkg, state: dict):
    """A no-argument callable for one op; looks the function up at call time."""
    fn = op["fn"]
    if fn == "cli":
        tracer = state.get("tracer")
        return lambda: _run_cli(op["argv"], tracer)
    layer, name = fn.split(".")
    mod = getattr(pkg, layer)
    T = state.get("table")
    tup = pkg.tuples
    if fn in ("sieve.pi_exact", "sieve.capital_pi_exact", "sieve.j_exact"):
        args, kw = (T, op["x"]), {}
    elif fn in ("sieve.mu", "sieve.von_mangoldt", "tuples.factor_sorted"):
        args, kw = (T, op["n"]), {}
    elif fn == "tuples.pi_k":
        args, kw = (T, op["r"], tup.OffsetSet(tuple(op["offsets"]))), {}
    elif fn == "tuples.pi_k_power":
        args, kw = (T, op["x"], tup.OffsetSet(tuple(op["offsets"])),
                    tup.ExponentVector(tuple(op["exponents"]))), {}
    elif fn == "tuples.capital_pi_k":
        args, kw = (T, op["x"], tup.OffsetSet(tuple(op["offsets"]))), {}
    elif fn == "tuples.localization_sum":
        args, kw = (T, op["x"]), {}
    elif fn in ("lattice.gauss_circle_count", "lattice.ball3_count"):
        args, kw = (op["R"],), {"threads": op["threads"]}
    elif fn == "lattice.divisor_hyperbola_count":
        args, kw = (op["x"],), {"threads": op["threads"]}
    elif fn == "lattice.error_exponent_fit":
        args, kw = (op["shape"], op["sizes"]), {"threads": op["threads"]}
    elif fn == "lattice.count_under_graph":
        a, b, np = op["a"], op["b"], state["np"]

        def f(t):
            return np.sqrt(a * t + b)

        args, kw = (f, op["x_max"]), {}
    elif fn in ("explicit.riemann_pi_explicit", "explicit.capital_pi_explicit"):
        args, kw = (op["x"],), {"zero_count": op["zero_count"]}
    elif fn == "explicit.perron_truncated":
        args, kw = (op["x"], op["c"], op["T"]), {}
    elif fn == "explicit.prime_zeta":
        args, kw = (op["s"], state["zeta_table"]), {}
    elif fn == "density.singular_series":
        args, kw = (tup.OffsetSet(tuple(op["offsets"])),), {}
    elif fn == "density.average_capital_pi_k":
        args, kw = (op["x"], tup.OffsetSet(tuple(op["offsets"])), op["c_value"]), {}
    elif fn == "explicit.ei_k":
        args, kw = (op["r"], tup.OffsetSet(tuple(op["offsets"]))), {}
    elif fn == "special.li_quadrature":
        args, kw = (op["x"],), {}
    elif fn == "explicit.verify_zero_table":
        args, kw = (mod.default_zero_table(),), {}
    else:
        raise ValueError(f"no binding for {fn}")
    return lambda: getattr(mod, name)(*args, **kw)


def _setup_cli(seed: int, scale: str, tracer):
    """cli_cold set-up: fresh interpreters that only import the CLI.

    Returns (ops, callables, set-up seconds per interpreter)."""
    times = []
    for _ in range(workloads.SETUP_SAMPLES):
        t = clock()
        got = _spawn([sys.executable, "-c", "import primelattice.cli"])
        times.append(clock() - t)
        if got.code != 0:
            raise RuntimeError(f"importing primelattice.cli failed: {got.stderr[-2000:]}")
    ops = workloads.generate("cli_cold", seed, scale)
    state = {"tracer": tracer}
    return ops, [_bind(op, None, state) for op in ops], times


def _setup(workload: str, seed: int, scale: str, recorder):
    """Import, input generation and warm state; returns (ops, callables, state)."""
    import numpy as np

    import primelattice as pkg
    # cli too: the recorder wraps every layer module's functions, cli.run included
    from primelattice import cli, explicit, sieve  # noqa: F401

    if recorder is not None:
        recorder.install()
    ops = workloads.generate(workload, seed, scale)
    sizes = workloads.SIZES[scale]
    state = {"np": np}
    if workload == "counting_warm":
        table = sieve.build_table(sizes["sieve_limit"])
        table.primes()
        table.is_prime_array()
        state["table"] = table
    elif workload == "analytic":
        table = sieve.build_table(sizes["zeta_table"])
        table.primes()
        state["zeta_table"] = table
        explicit.default_zero_table()
    calls = [_bind(op, pkg, state) for op in ops]
    return ops, calls, state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    cli = args.workload == "cli_cold"
    if cli:
        recorder = CliTracer() if args.trace else None
        fold_of, rows_of = CliTracer.fold, CliTracer.rows
        ops, calls, setups = _setup_cli(args.seed, args.scale, recorder)
    else:
        recorder = spans.Recorder() if args.trace else None
        fold_of, rows_of = spans.fold, lambda taken: spans.span_rows(taken, _T0)
        t_setup = clock()
        ops, calls, _state = _setup(args.workload, args.seed, args.scale, recorder)
        setups = [clock() - t_setup]
    setup_fold = fold_of(recorder.take()) if recorder else None

    n = len(calls)
    first = None
    mismatched = [0] * n  # passes whose result differs from the first pass
    walls, traced_walls, pass_times = [], [], []
    thread_time: dict = {}  # (fn, threads) -> seconds, untraced passes
    folds, last_spans = [], []
    measured = 0.0
    while measured < args.seconds or not walls or (recorder and not traced_walls):
        # a traced run alternates untraced and traced passes, starting untraced
        traced = bool(recorder) and len(traced_walls) < len(walls)
        if recorder:
            recorder.install() if traced else recorder.uninstall()
        out = [None] * n
        times = [0.0] * n
        t_pass = clock()
        for i, call in enumerate(calls):
            if traced:
                recorder.op = i
            t = clock()
            try:
                out[i] = call()
            except Exception as exc:  # recorded as a failed op, never retried
                out[i] = Failure(exc)
            times[i] = clock() - t
        wall = clock() - t_pass
        measured += wall
        got = [summarize(v) for v in out]
        if first is None:
            first = got
        else:
            for i in range(n):
                if got[i] != first[i]:
                    mismatched[i] += 1
        if traced:
            traced_walls.append(wall)
            last_spans = recorder.take()
            folds.append(fold_of(last_spans))
        else:
            walls.append(wall)
            pass_times.append([1e3 * t for t in times])
            for op, t in zip(ops, times):
                if "threads" in op:
                    key = f"{op['fn']}@{op['threads']}"
                    thread_time[key] = thread_time.get(key, 0.0) + t
    if recorder:
        recorder.uninstall()

    result = {
        "inputs_sha256": workloads.inputs_hash(ops),
        "setups": setups,
        "passes": len(walls) + len(traced_walls),
        "walls": walls,
        "traced_walls": traced_walls,
        "fastest_ms": fastest(pass_times, workloads.KEPT_SAMPLES),
        "first": first,
        "mismatched": mismatched,
        "thread_time": thread_time,
        # for cli_cold the largest child: the import-only ones and the commands
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN if cli else
                                          resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder:
        result["layers"] = spans.layer_metrics(setup_fold, folds)
        if args.spans_out:
            with open(args.spans_out, "w") as f:
                json.dump({"spans": rows_of(last_spans)}, f)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
