"""The analytic and lattice commands print the same bytes on any host kernels.

numpy picks some loops (complex multiply and abs, float64 exp and log) by
the CPU features it finds at start-up, and those loops round differently;
NPY_DISABLE_CPU_FEATURES switches the dispatched targets off, and
OPENBLAS_CORETYPE=Prescott makes OpenBLAS take its oldest x86 kernels.  Each
command runs in a fresh interpreter with the host's defaults and with both
of those set, and the two stdouts must match byte for byte.  The lattice
commands cover the float-floor isqrt and the fsum exponent fit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath

import primelattice

TARGETS = list(getattr(_multiarray_umath, "__cpu_dispatch__", []))

COMMANDS = [
    ["explicit", "pi", "1000", "--zeros", "100", "--format", "json"],
    ["explicit", "pi", "1e8"],
    ["explicit", "pi", "2"],
    ["perron", "10", "1.5", "1000"],  # asymptotic regime, |z| ~ 2300
    ["perron", "2", "1.5", "20"],  # continued-fraction band, |z| ~ 13.9
    ["perron", "0.5", "2", "10"],  # power series, |z| ~ 7.1
    ["lattice", "circle", "2087575"],
    ["lattice", "fit", "--shape", "ball3", "--from", "2", "--to", "300", "--format", "csv"],
    ["lattice", "fit", "--shape", "circle", "--from", "128", "--to", "131072"],
]


def _stdout(argv, disable):
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("OPENBLAS_CORETYPE", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = ",".join(TARGETS)
        env["OPENBLAS_CORETYPE"] = "Prescott"
    src = str(Path(primelattice.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-m", "primelattice.cli", *argv],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not TARGETS, reason="numpy lists no dispatched CPU targets")
@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_independent_of_cpu_dispatch(argv):
    assert _stdout(argv, disable=False) == _stdout(argv, disable=True)
