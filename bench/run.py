"""primelattice benchmark: run one seeded workload, check it, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

Run from the repository root; it measures the package under ./src.  Every
workload is a closed loop: one caller issues the next operation when the
previous one returns, and repeats the workload's fixed batch of operations ("a
pass") until --seconds of passes are measured.  The latency samples are each
op's five fastest times in the run (workloads.KEPT_SAMPLES says why), and
wall_s is the batch's time with every op at the median of its samples.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, which come from timing spans around
the package's public functions.  Every result is checked by an oracle in
oracles.py that does not call the package; checking happens between passes,
outside the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --out appends the full record
(provenance, every metric, failing ops) as a JSON line; --compare reads two
such files and gives a verdict per workload and metric under the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP before numpy loads, here and in every child process, so
# np.polyfit inside the lattice fits adds no threads beyond the workload's own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

# op_ms_tail is the highest of these with at least 10 ops beyond it.  The
# ladder stops at p99: above it, scheduler stalls on a shared host (ops at 2-4x
# their usual time) set the value, not the program; counting_warm's p99.9
# spread 43% of its median over ten seeds.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0)
TAIL_BEYOND = 10
THREADED = ("gauss_circle_count", "divisor_hyperbola_count", "ball3_count",
            "error_exponent_fit")
clock = time.perf_counter


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _provenance(ops: list, seed: int) -> dict:
    import numpy

    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "primelattice")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src_hash.update(name.encode() + b"\0" + f.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "inputs_sha256": workloads.inputs_hash(ops), "ops_per_pass": len(ops)}


# ---------------------------------------------------------------------------
# workers: each runs the closed loop in its own interpreter (worker.py)


def _worker(args: list) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                          capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise HarnessError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float, trace: bool, scale: str,
                spans_out: str | None) -> dict:
    """Run the workload's workers in turn, each set up afresh, sharing --seconds.

    A library worker's speed shifts with the host as a whole (which CPU it
    lands on, huge-page luck for its arrays), so medians over several workers'
    passes are steadier than one long worker, and each worker adds a set-up
    sample.
    """
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale,
            "--trace", str(int(trace))]
    # cli_cold's ops are fresh interpreters already: one worker, which takes
    # its set-up samples from import-only children
    count = 1 if workload == "cli_cold" else workloads.SETUP_SAMPLES
    want_hash = workloads.inputs_hash(workloads.generate(workload, seed, scale))
    runs, measured = [], 0.0
    for k in range(count):
        budget = max(0.0, seconds * (k + 1) / count - measured)
        extra = ["--spans-out", spans_out] if spans_out and k == 0 else []
        r = _worker(base + ["--seconds", repr(budget)] + extra)
        if r["inputs_sha256"] != want_hash:
            raise HarnessError("worker generated different inputs from the same seed")
        measured += sum(r["walls"]) + sum(r["traced_walls"])
        runs.append(r)
    first = runs[0]["first"]
    mismatched = [0] * len(first)
    for r in runs:
        for i, got in enumerate(r["first"]):
            # another interpreter must reproduce worker 0's results exactly
            mismatched[i] += r["passes"] if got != first[i] else r["mismatched"][i]
    thread_time: dict = {}
    for r in runs:
        for key, t in r["thread_time"].items():
            thread_time[key] = thread_time.get(key, 0.0) + t
    setups = [t for r in runs for t in r["setups"]]
    result = {
        "setups": setups,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "passes": sum(r["passes"] for r in runs),
        "first": first,
        "mismatched": mismatched,
        "thread_time": thread_time,
    }
    for key in ("walls", "traced_walls"):
        result[key] = [v for r in runs for v in r[key]]
    result["kept_ms"] = [sorted(t for r in runs for t in r["fastest_ms"][i])
                         [:workloads.KEPT_SAMPLES] for i in range(len(first))]
    if trace:
        result["layers"] = {name: statistics.median(r["layers"][name] for r in runs)
                            for name in runs[0]["layers"]}
    return result


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest ladder percentile with >= 10 ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    best = None
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            best = (q, xs[rank - 1])
    if best is None:  # fewer than 11 samples: report the median
        best = (50.0, statistics.median(xs))
    return best


def check_results(ops: list, result: dict, sieve_limit: int) -> tuple:
    """Oracle verdicts: (failed count, failing-op list)."""
    import oracles

    oracle = oracles.Oracle(sieve_limit)
    oracles.self_check()
    passes = result["passes"]
    failed, listing = 0, []
    for i, (op, summary) in enumerate(zip(ops, result["first"])):
        reason = oracle.check(op, summary)
        bad = passes if reason else result["mismatched"][i]
        if bad:
            failed += bad
            listing.append({"op": i, "input": op, "passes_failed": bad,
                            "reason": reason or "result differs from the first pass"})
    return failed, listing


def end_to_end(result: dict, failed: int, attempted: int) -> dict:
    latencies = [t for kept in result["kept_ms"] for t in kept]
    q, tail_ms = tail(latencies)
    return {
        "wall_s": sum(statistics.median(kept) for kept in result["kept_ms"]) / 1e3,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": result["setup_s"],
        "fail_frac": failed / attempted,
        "tail_percentile": q,
        "latency_samples": len(latencies),
    }


def per_layer(result: dict) -> dict:
    m = dict(result["layers"])
    tt = result["thread_time"]
    for fn in THREADED:
        t1, t2 = tt.get(f"lattice.{fn}@1", 0.0), tt.get(f"lattice.{fn}@2", 0.0)
        m[f"lattice.{fn}.speedup_2t"] = t1 / t2 if t2 > 0 else 0.0
    untraced = statistics.median(result["walls"])
    m["trace.overhead_frac"] = (statistics.median(result["traced_walls"]) - untraced) / untraced
    return m


def _declared(kind: str) -> dict:
    """Metric name -> BENCHMARK.json row, for "end_to_end" or "per_layer"."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {row["name"]: row for row in json.load(f)[kind]}


# ---------------------------------------------------------------------------
# compare mode


def _quartiles(vals: list) -> tuple:
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(base: list, new: list, pairs: list, bound: float) -> str:
    """improved / within-bound / worse / unresolved for a lower-is-better metric."""
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    wins = sum(1 for a, b in pairs if b < a)
    if pairs and wins >= 0.9 * len(pairs) and bm - nm > b3 - b1:
        return "improved"
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    if spread > bound and not max(new) < min(base):
        return "unresolved"
    return "worse" if nm > bm * (1.0 + bound) else "within-bound"


def compare(base_path: str, new_path: str) -> int:
    bounds = {name: row["bound"] for name, row in _declared("end_to_end").items()}

    def load(path):
        runs: dict = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    if not rec["trace"]:
                        runs.setdefault(rec["workload"], []).append(rec)
        return runs

    base, new = load(base_path), load(new_path)
    for wl in workloads.WORKLOADS:
        if wl not in base or wl not in new:
            continue
        cells = []
        for name, bound in bounds.items():
            a = [r["metrics"][name] for r in base[wl]]
            b = [r["metrics"][name] for r in new[wl]]
            by_seed = {r["seed"]: r["metrics"][name] for r in base[wl]}
            pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in new[wl]
                     if r["seed"] in by_seed]
            qa, qb = _quartiles(a), _quartiles(b)
            cells.append(f"{name}: base {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a)}"
                         f" new {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b)}"
                         f" ratio {qb[1] / qa[1]:.3f} ({qb[1]:.4g}/{qa[1]:.4g})"
                         f" -> {verdict(a, b, pairs, bound)}")
        print(f"{wl} | " + " | ".join(cells))
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                    help="tiny is for the smoke test only")
    ap.add_argument("--out", help="append the full result record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "primelattice", "__init__.py")):
        print(f"error: no package source at {os.path.join(SRC, 'primelattice')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    # installed users have bytecode; so does every timed child
    compileall.compile_dir(os.path.join(SRC, "primelattice"), quiet=1)

    ops = workloads.generate(args.workload, args.seed, args.scale)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = (os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
                 if args.trace else None)
    try:
        result = run_workers(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.scale, spans_out)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = result["passes"] * len(ops)
    failed, failures = check_results(ops, result, workloads.SIZES[args.scale]["sieve_limit"])
    prov = _provenance(ops, args.seed)
    e2e = end_to_end(result, failed, attempted)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  ops/pass {len(ops)}  attempted {attempted}  "
          f"failed {failed}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    units = {name: row["unit"] for name, row in
             _declared("per_layer" if args.trace else "end_to_end").items()}
    if not args.trace:
        for name, unit in units.items():
            print(f"  {name:<12} {e2e[name]:>14.6g} {unit}")
        print(f"  op_ms_tail is p{e2e['tail_percentile']:g} of {e2e['latency_samples']} "
              "op latencies")
    print(f"  {'fail_frac':<12} {e2e['fail_frac']:>14.6g} frac")
    for fl in failures:
        print(f"  FAILED op {fl['op']} x{fl['passes_failed']}: {json.dumps(fl['input'])}: "
              f"{fl['reason']}")
    values = e2e
    if args.trace:
        values = per_layer(result)
        for name, unit in units.items():
            print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "scale": args.scale, "seconds": args.seconds, "provenance": prov,
                  "metrics": {k: v["value"] for k, v in metrics.items()},
                  "end_to_end": e2e, "walls": result["walls"], "setups": result["setups"],
                  "attempted": attempted, "failed": failed, "failures": failures}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
