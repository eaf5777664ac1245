"""Smoke test of the benchmark at tiny sizes, so it does not rot.

Each workload must print every metric BENCHMARK.json names, with its unit,
and fail no operation on a small seed.  Sizes and timings are toy values;
nothing here asserts on a measured time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    DECLARED = json.load(_f)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, \
        proc.stdout
    assert "fail_frac" in proc.stdout
    return last


def _assert_metrics(last: dict, kind: str) -> None:
    want = {row["name"]: row["unit"] for row in DECLARED[kind]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == want
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float))


# one run per workload; the traced ones cover the launcher and worker spans
@pytest.mark.parametrize("workload,trace", [("cli_cold", 1), ("counting_warm", 0),
                                            ("lattice_sweep", 0), ("analytic", 1)])
def test_workload_metrics(workload, trace):
    last = _result(_run(workload, trace))
    _assert_metrics(last, "per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_declared_workloads_and_layer_map():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(BENCH, "metadata.json")) as f:
        meta = json.load(f)
    assert set(meta["workloads"]) == set(workloads.WORKLOADS)
    layer_names = {row["name"] for row in DECLARED["per_layer"]}
    mapped = {name for row in meta["layer_map"] for name in row["metrics"]}
    assert mapped == layer_names


def test_oracles_match_published_and_brute_force():
    oracles.self_check()
    assert oracles.disk_count(10 ** 14) == oracles.GAUSS_CIRCLE[10 ** 7]


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 5)
        assert workloads.inputs_hash(a) == workloads.inputs_hash(workloads.generate(workload, 5))
        assert workloads.inputs_hash(a) != workloads.inputs_hash(workloads.generate(workload, 6))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("counting_warm", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    import run

    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    pairs = list(zip(base, faster))
    assert run.verdict(base, faster, pairs, 0.1) == "improved"
    assert run.verdict(base, slower, list(zip(base, slower)), 0.1) == "worse"
    assert run.verdict(base, base, list(zip(base, base)), 0.1) == "within-bound"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert run.verdict(base, noisy, list(zip(base, noisy)), 0.1) == "unresolved"
