"""Traced stand-in for ``python -m primelattice.cli``: same argv, same output.

Imports the package, installs the span wrappers and calls ``cli.run(argv)``.
On exit it writes its spans, the interpreter start-up time (from the spawn
time run.py passes in BENCH_SPAWN) and the import time to BENCH_SPANS_FILE.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    t = time.perf_counter()
    import primelattice.cli as cli

    import_s = time.perf_counter() - t
    recorder = spans.Recorder()
    recorder.install()
    recorder.op = 0
    code = cli.run(sys.argv[1:])
    sys.stdout.flush()
    recorder.uninstall()
    taken = recorder.take()
    fold = spans.fold(taken)
    fold["table_bytes"] = {str(k): v for k, v in fold["table_bytes"].items()}
    fold["interp"] = T_START - float(os.environ["BENCH_SPAWN"])
    fold["import"] = import_s
    with open(os.environ["BENCH_SPANS_FILE"], "w") as f:
        json.dump({"fold": fold, "spans": spans.span_rows(taken, taken[0][1] if taken else 0.0)},
                  f)
    return code


if __name__ == "__main__":
    sys.exit(main())
