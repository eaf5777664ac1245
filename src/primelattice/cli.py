"""Command-line surface: every operation behind one reproducible binary.

Every run with identical flags produces byte-identical output, regardless of
the thread budget; integers print exactly, reals in shortest round-trip form
(Python repr), JSON through the stock encoder.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Optional

from . import density, explicit, lattice, sieve, tuples

ZEROS_ENV = "PRIMELATTICE_ZEROS"
DEFAULT_SIEVE_LIMIT = 10 ** 7


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(fields: dict, fmt: str, single: Optional[str] = None) -> str:
    """Render an ordered field dict as text, csv, or json.

    `single` names the field that text format prints bare (the common
    one-number commands); multi-field text prints key=value pairs.
    """
    if fmt == "json":
        return json.dumps(fields, separators=(",", ":"))
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(fields.keys())
        w.writerow([_fmt(v) for v in fields.values()])
        return buf.getvalue().rstrip("\n")
    if single is not None:
        return _fmt(fields[single])
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())


def _table_for(x: float, limit: int, pad: int = 2) -> sieve.ArithTable:
    # the cap applies to x; pad is overhead for offsets and floor slack
    if int(math.floor(x)) > limit:
        raise ValueError(f"x={x} needs a sieve past the limit {limit}")
    return sieve.build_table(max(4, int(math.floor(x)) + pad))


def _zero_table(args) -> explicit.ZeroTable:
    path = getattr(args, "zero_file", None) or os.environ.get(ZEROS_ENV)
    if path:
        with open(path, "r", encoding="ascii") as f:
            return explicit.load_zero_table(f)
    return explicit.default_zero_table()


# ---------------------------------------------------------------------------
# subcommand bodies, each returning the rendered output string


def _cmd_pi(args) -> str:
    table = _table_for(args.x, args.limit)
    return _emit({"x": args.x, "value": sieve.pi_exact(table, args.x)},
                 args.format, single="value")


def _cmd_prime_powers(args) -> str:
    table = _table_for(args.x, args.limit)
    return _emit({"x": args.x, "value": sieve.capital_pi_exact(table, args.x)},
                 args.format, single="value")


def _cmd_j(args) -> str:
    table = _table_for(args.x, args.limit)
    val = sieve.j_exact(table, args.x)
    return _emit({"x": args.x, "value": str(val), "float": float(val)},
                 args.format, single="value")


def _cmd_tuples_count(args) -> str:
    H = tuples.OffsetSet.parse(args.offsets)
    # the table runs to limit + max offset, so the offsets share the cap
    if H.max_offset > DEFAULT_SIEVE_LIMIT:
        raise ValueError(f"max offset {H.max_offset} above the cap {DEFAULT_SIEVE_LIMIT}")
    table = _table_for(args.limit, DEFAULT_SIEVE_LIMIT, pad=H.max_offset + 2)
    count = tuples.pi_k(table, args.limit, H)
    return _emit({"offsets": str(H), "limit": args.limit, "count": count},
                 args.format, single="count")


def _cmd_tuples_power(args) -> str:
    H = tuples.OffsetSet.parse(args.offsets)
    m = tuples.ExponentVector.parse(args.exponents)
    base_cap = sieve.iroot(int(args.cutoff), m.total) + H.max_offset + 2
    table = _table_for(base_cap, DEFAULT_SIEVE_LIMIT, pad=0)
    count = tuples.pi_k_power(table, args.cutoff, H, m)
    return _emit(
        {"offsets": str(H), "exponents": ",".join(str(e) for e in m.exponents),
         "cutoff": args.cutoff, "count": count},
        args.format, single="count")


def _cmd_localize(args) -> str:
    table = _table_for(args.x, args.limit)
    total = tuples.localization_sum(table, args.x)
    xf = math.floor(args.x)
    match = "floor-1" if total == xf - 1 else ("floor" if total == xf else "neither")
    return _emit({"sum": total, "floor": xf, "floor-1": xf - 1, "match": match},
                 args.format)


def _cmd_explicit_pi(args) -> str:
    table = _zero_table(args)
    got = explicit.riemann_pi_explicit(args.x, zeros=table, zero_count=args.zeros)
    return _emit(
        {"value": got.value, "main_term": got.main_term, "zero_sum": got.zero_sum,
         "log2_term": got.log2_term, "trivial_zero_sum": got.trivial_zero_sum,
         "zeros_used": got.zeros_used},
        args.format)


def _cmd_perron(args) -> str:
    got = explicit.perron_truncated(args.x, args.c, args.T)
    return _emit(
        {"approx": got.approx, "indicator": got.indicator, "bound": got.bound,
         "error": abs(got.approx - got.indicator), "within_bound": got.within_bound},
        args.format)


def _cmd_singular_series(args) -> str:
    H = tuples.OffsetSet.parse(args.offsets)
    got = density.singular_series(H, args.prime_limit)
    return _emit(
        {"offsets": str(H), "value": got.value, "prime_limit": got.prime_limit,
         "tail_estimate": got.tail_estimate},
        args.format, single="value")


def _cmd_lattice_circle(args) -> str:
    got = lattice.gauss_circle_count(args.R, threads=args.threads)
    return _emit({"count": got.count, "main_term": got.main_term, "error": got.error},
                 args.format)


def _cmd_lattice_divisor(args) -> str:
    got = lattice.divisor_hyperbola_count(args.x, threads=args.threads)
    return _emit({"count": got.count, "main_term": got.main_term, "error": got.error},
                 args.format)


def _cmd_lattice_fit(args) -> str:
    sizes = lattice.geometric_sizes(getattr(args, "from"), args.to, args.samples)
    series = lattice.error_exponent_fit(args.shape, sizes, threads=args.threads)
    if args.format == "csv":
        buf = io.StringIO()
        lattice.write_error_series_csv(series, buf)
        return buf.getvalue().rstrip("\n")
    return _emit(
        {"fitted_exponent": series.fitted_exponent, "residual": series.residual,
         "window_lo": series.fit_window[0], "window_hi": series.fit_window[1]},
        args.format)


def _cmd_zeros_verify(args) -> str:
    table = _zero_table(args)
    n = explicit.verify_zero_table(table)
    return _emit({"zeros": n, "verified": True}, args.format)


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return v


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--threads", type=_positive_int, default=1)
    common.add_argument("--zero-file", dest="zero_file", default=None,
                        help=f"zero-table file; default ${ZEROS_ENV} or embedded")

    sieve_limit = argparse.ArgumentParser(add_help=False)
    sieve_limit.add_argument("--limit", type=int, default=DEFAULT_SIEVE_LIMIT,
                             help="sieve table bound")

    p = argparse.ArgumentParser(prog="primelattice")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("pi", parents=[common, sieve_limit])
    q.add_argument("x", type=_finite_float)
    q.set_defaults(run=_cmd_pi)

    q = sub.add_parser("prime-powers", parents=[common, sieve_limit])
    q.add_argument("x", type=_finite_float)
    q.set_defaults(run=_cmd_prime_powers)

    q = sub.add_parser("j", parents=[common, sieve_limit])
    q.add_argument("x", type=_finite_float)
    q.set_defaults(run=_cmd_j)

    tp = sub.add_parser("tuples", parents=[]).add_subparsers(dest="subcommand",
                                                             required=True)
    q = tp.add_parser("count", parents=[common])
    q.add_argument("--offsets", required=True)
    q.add_argument("--limit", type=int, default=DEFAULT_SIEVE_LIMIT,
                   help="count tuples with base <= this")
    q.set_defaults(run=_cmd_tuples_count)
    q = tp.add_parser("power", parents=[common])
    q.add_argument("--offsets", required=True)
    q.add_argument("--exponents", required=True)
    q.add_argument("--cutoff", type=int, required=True)
    q.set_defaults(run=_cmd_tuples_power)

    q = sub.add_parser("localize", parents=[common, sieve_limit])
    q.add_argument("x", type=_finite_float)
    q.set_defaults(run=_cmd_localize)

    ep = sub.add_parser("explicit", parents=[]).add_subparsers(dest="subcommand",
                                                               required=True)
    q = ep.add_parser("pi", parents=[common])
    q.add_argument("x", type=_finite_float)
    q.add_argument("--zeros", type=int, default=None,
                   help="number of zeros to use (default: whole table)")
    q.set_defaults(run=_cmd_explicit_pi)

    q = sub.add_parser("perron", parents=[common])
    q.add_argument("x", type=_finite_float)
    q.add_argument("c", type=_finite_float)
    q.add_argument("T", type=_finite_float)
    q.set_defaults(run=_cmd_perron)

    q = sub.add_parser("singular-series", parents=[common])
    q.add_argument("--offsets", required=True)
    q.add_argument("--prime-limit", dest="prime_limit", type=int,
                   default=density.DEFAULT_PRIME_LIMIT)
    q.set_defaults(run=_cmd_singular_series)

    lp = sub.add_parser("lattice", parents=[]).add_subparsers(dest="subcommand",
                                                              required=True)
    q = lp.add_parser("circle", parents=[common])
    q.add_argument("R", type=_finite_float)
    q.set_defaults(run=_cmd_lattice_circle)
    q = lp.add_parser("divisor", parents=[common])
    q.add_argument("x", type=int)
    q.set_defaults(run=_cmd_lattice_divisor)
    q = lp.add_parser("fit", parents=[common])
    q.add_argument("--shape", choices=("circle", "divisor", "ball3"), required=True)
    q.add_argument("--from", type=_finite_float, required=True)
    q.add_argument("--to", type=_finite_float, required=True)
    q.add_argument("--samples", type=int, default=32)
    q.set_defaults(run=_cmd_lattice_fit)

    zp = sub.add_parser("zeros", parents=[]).add_subparsers(dest="subcommand",
                                                            required=True)
    q = zp.add_parser("verify", parents=[common])
    q.set_defaults(run=_cmd_zeros_verify)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        out = args.run(args)
    except (ValueError, ArithmeticError, OSError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'no detail'}", file=sys.stderr)
        return 1
    print(out)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
