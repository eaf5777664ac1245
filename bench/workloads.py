"""Seeded inputs for the benchmark workloads.

Each workload is a fixed batch of operations drawn from its seed over fixed
ranges.  A range used n times is cut into n equal parts and one value is
drawn from each part.  Parts are equal in the quantity that sets an op's
cost (R^2 for a ball, T |log x| for Perron, linear for sieve-sized inputs),
and two-parameter ops pair the i-th part of one range with a fixed part of
the other, so a batch's total work stays nearly the same from seed to seed.
Error-exponent fits keep fixed windows and draw only their interior sizes.
Ranges are set by run time alone, never narrowed to steer round a known
defect: an op that misses its oracle is reported as failed.
An operation is a JSON-able dict: ``fn`` names the package function (or
``cli``) and the other keys are its arguments.  Nothing here imports
primelattice; the oracle side rebuilds the same batch from the same seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("cli_cold", "counting_warm", "lattice_sweep", "analytic")
# set-up samples per run: library workloads split their passes over this many
# worker interpreters, each set up afresh; cli_cold's one worker times this
# many fresh interpreters that only import the CLI
SETUP_SAMPLES = 5
# latency samples per op: its fastest untraced times in the whole run.  On a
# shared host an op's time switches between levels up to 1.5x apart as other
# tenants' load comes and goes, in spells of milliseconds to tens of seconds,
# and the share of slow spells drifts from minute to minute; a median over
# every pass follows that share, where an op's few fastest times read its own
# cost.  cli_cold makes only about four passes a run, so it keeps them all.
KEPT_SAMPLES = 5

# "full" is the benchmark; "tiny" keeps each mix at toy sizes so the smoke
# test runs in seconds
SIZES = {
    "full": {
        "reps": 1,
        "sieve_limit": 10 ** 7,
        "zeta_table": 10 ** 6,
        "localize": (10 ** 5, 10 ** 6),
        "circle": (11 * 10 ** 5, 22 * 10 ** 5),
        "divisor": (4 * 10 ** 6, 8 * 10 ** 6),
        "ball3": (300, 500),
        "graph": (15 * 10 ** 3, 30 * 10 ** 3),
        "fit": {"circle": (100, 4 * 10 ** 5), "divisor": (100, 5 * 10 ** 8),
                "ball3": (2, 250)},
        "cli_circle": (10 ** 5, 2 * 10 ** 6),
        "cli_divisor": (10 ** 6, 2 * 10 ** 7),
        "cli_fit_to": {"circle": 6 * 10 ** 4, "divisor": 5 * 10 ** 7, "ball3": 300},
        "explicit_x": (1e3, 1e8),
        "perron_cost": (2e3, 5e4),
        "quad_x": (1e3, 1e7),
    },
    "tiny": {
        "reps": 0,
        "sieve_limit": 2 * 10 ** 5,
        "zeta_table": 10 ** 4,
        "localize": (10 ** 3, 10 ** 4),
        "circle": (10 ** 3, 10 ** 4),
        "divisor": (10 ** 3, 10 ** 4),
        "ball3": (20, 60),
        "graph": (100, 1000),
        "fit": {"circle": (100, 2 * 10 ** 4), "divisor": (100, 10 ** 6), "ball3": (1, 120)},
        "cli_circle": (10 ** 2, 10 ** 3),
        "cli_divisor": (10 ** 3, 10 ** 4),
        "cli_fit_to": {"circle": 2 * 10 ** 4, "divisor": 10 ** 6, "ball3": 120},
        "explicit_x": (1e3, 1e4),
        "perron_cost": (1e2, 1e3),
        "quad_x": (1e2, 1e4),
    },
}

FIT_SAMPLES = 16
ZERO_COUNT = (10, 100)
# Perron's x range spans the indicator jump at x = 1; only x == 1 itself,
# which perron_truncated rejects, is redrawn
PERRON_X = (0.01, 1e4)
PERRON_C = (1.1, 3.0)


def strata(rng: random.Random, n: int, lo: float, hi: float, *, log: bool = False,
           power: float = 1.0, integer: bool = False) -> list:
    """n draws, the i-th from the i-th of n equal parts of [lo, hi].

    Parts are equal in log(v) with ``log``, else in v**power.
    """
    if log:
        a, b = math.log(lo), math.log(hi)
    else:
        a, b = lo ** power, hi ** power
    out = []
    for i in range(n):
        u = a + (b - a) * (i + rng.random()) / n
        v = math.exp(u) if log else u ** (1.0 / power)
        out.append(int(v) if integer else v)
    return out


def admissible(offsets) -> bool:
    """True when no prime p <= k sees every residue class among the offsets."""
    k = len(offsets)
    for p in range(2, k + 1):
        if all(p % d for d in range(2, p)) and len({h % p for h in offsets}) == p:
            return False
    return True


def pattern(rng: random.Random, k: int, span: int = 40) -> list:
    """A random admissible offset pattern (0, h_2, ..., h_k), max offset <= span."""
    while True:
        offs = [0] + sorted(rng.sample(range(2, span + 1, 2), k - 1))
        if admissible(offs):
            return offs


def fit_sizes(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """Distinct ascending integers over the fixed window [lo, hi]: both ends
    fixed, each interior point drawn from its own slot of a geometric grid,
    so the fit's cost, set by its largest sizes, barely moves with the seed."""
    step = math.log(hi / lo) / (count - 1)
    out: list = []
    for i in range(count):
        u = 0.0 if i in (0, count - 1) else rng.random() - 0.5
        n = max(1, round(lo * math.exp((i + u) * step)))
        if not out or n > out[-1]:
            out.append(n)
    return out


def generate(workload: str, seed: int, scale: str = "full") -> list:
    """The batch of operations for one workload and seed, in run order.

    The order of op kinds is the same for every seed: allocator state, and
    with it the cost of the large numpy temporaries, depends on what ran
    before, so only the sizes vary with the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, SIZES[scale])


def inputs_hash(ops: list) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def _n(z: dict, full: int) -> int:
    return full if z["reps"] else max(1, full // 8)


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _explicit_inputs(rng, n: int, z: dict) -> list:
    # the largest x goes with the fewest zeros, so the calls cost about the same
    xs = strata(rng, n, *z["explicit_x"], log=True)
    zs = strata(rng, n, *ZERO_COUNT, integer=True)[::-1]
    return [{"x": round(x, 3), "zero_count": c} for x, c in zip(xs, zs)]


def _squarefree_upto(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if all(k % (p * p) for p in range(2, k + 1)))


def _capital_inputs(rng, n: int, z: dict, ei_calls: int = 2000) -> list:
    """capital_pi_explicit sums the zero formula at every root x^(1/j) >= 2, one
    Ei call per (squarefree m <= log2 root, zero); the zero count is set so each
    call makes about ``ei_calls`` of them, the cluster op_ms_tail reads."""
    out = []
    for x in strata(rng, n, *z["explicit_x"], log=True):
        terms = sum(_squarefree_upto(max(int(math.log2(x) / j), 1))
                    for j in range(1, int(math.log2(x)) + 1) if x ** (1.0 / j) >= 2.0)
        count = round(ei_calls * rng.uniform(0.95, 1.05) / terms)
        out.append({"x": round(x, 3), "zero_count": min(max(count, ZERO_COUNT[0]),
                                                        ZERO_COUNT[1])})
    return out


def _perron_x(rng, lo: float, hi: float) -> float:
    while True:
        x = round(strata(rng, 1, lo, hi, log=True)[0], 4)
        if x != 1.0:
            return x


def _perron_inputs(rng, n: int, z: dict) -> list:
    """x over PERRON_X, jump neighbourhood included, and c over PERRON_C.  The
    panel count goes as T max(|log x|, 0.5), so that product is stratified and
    T follows from it; the i-th cost part pairs with the i-th x part from the
    top, so neither the largest T nor the largest x gathers in one op."""
    a, b = math.log(PERRON_X[0]), math.log(PERRON_X[1])
    edges = [math.exp(a + (b - a) * i / n) for i in range(n + 1)]
    out = []
    for i, cost in enumerate(strata(rng, n, *z["perron_cost"])):
        x = _perron_x(rng, edges[n - 1 - i], edges[n - i])
        t = cost / max(abs(math.log(x)), 0.5)
        out.append({"x": x, "c": round(rng.uniform(*PERRON_C), 3), "T": round(t, 1)})
    return out


# ---------------------------------------------------------------------------
# cli_cold: README-style commands, each in a fresh process


def _cli(rng, z):
    limit = z["sieve_limit"]
    fmts = ("text", "json", "csv")
    # the eight commands that build a sieve share one stratified range
    sieve_x = strata(rng, 8, limit // 10, limit, integer=True)
    rng.shuffle(sieve_x)
    cmds = [[sub, str(x), "--format", fmts[i % 3]]
            for i, (sub, x) in enumerate(zip(("pi", "pi", "prime-powers", "prime-powers", "j",
                                              "j"), sieve_x))]
    for i, lim in enumerate(sieve_x[6:]):
        offs = pattern(rng, 2 + i, span=20)
        cmds.append(["tuples", "count", "--offsets", ",".join(map(str, offs)),
                     "--limit", str(lim), "--format", fmts[i]])
    offs = pattern(rng, 3, span=12)
    exps = [rng.randint(1, 3) for _ in offs]
    cutoff = strata(rng, 1, 1e6, 1e12, log=True, integer=True)[0]
    cmds.append(["tuples", "power", "--offsets", ",".join(map(str, offs)),
                 "--exponents", ",".join(map(str, exps)), "--cutoff", str(cutoff),
                 "--format", "csv"])
    for i, x in enumerate(strata(rng, 2, *z["localize"])):
        cmds.append(["localize", _fmt_num(round(x, 2)), "--format", fmts[i]])
    for i, r in enumerate(strata(rng, 2, *z["cli_circle"], integer=True)):
        cmds.append(["lattice", "circle", str(r), "--format", fmts[i + 1]])
    for i, x in enumerate(strata(rng, 2, *z["cli_divisor"], integer=True)):
        cmds.append(["lattice", "divisor", str(x), "--format", fmts[2 - i]])
    # fixed windows: the CLI samples them evenly, so the seed moves nothing here
    for shape, lo, fmt in (("circle", 128, "json"), ("divisor", 100, "csv"),
                           ("ball3", 2, "text")):
        hi = z["cli_fit_to"][shape]
        cmds.append(["lattice", "fit", "--shape", shape, "--from", str(lo), "--to", str(hi),
                     "--samples", str(FIT_SAMPLES), "--format", fmt])
    for i, e in enumerate(_explicit_inputs(rng, 2, z)):
        cmds.append(["explicit", "pi", _fmt_num(e["x"]), "--zeros", str(e["zero_count"]),
                     "--format", fmts[1 - i]])
    for i, p in enumerate(_perron_inputs(rng, 2, z)):
        cmds.append(["perron", _fmt_num(p["x"]), _fmt_num(p["c"]), _fmt_num(p["T"]),
                     "--format", fmts[2 - 2 * i]])
    offs = pattern(rng, rng.randint(2, 4), span=20)
    cmds.append(["singular-series", "--offsets", ",".join(map(str, offs)), "--format", "json"])
    cmds.append(["zeros", "verify"])
    if not z["reps"]:
        cmds = cmds[::9]
    return [{"fn": "cli", "argv": a} for a in cmds]


# ---------------------------------------------------------------------------
# counting_warm: one table, a stream of exact queries
#
# As many ops cost less than capital_pi_exact as cost more, so op_ms_p50 sits
# inside that cluster rather than on the edge between two.


def _counting(rng, z):
    limit = z["sieve_limit"]
    ops = [{"fn": "tuples.localization_sum", "x": round(x, 2)}
           for x in strata(rng, _n(z, 20), *z["localize"])]
    for fn in ("sieve.mu", "sieve.von_mangoldt", "tuples.factor_sorted"):
        ops += [{"fn": fn, "n": n} for n in strata(rng, _n(z, 15), 2, limit, integer=True)]
    ops += [{"fn": "sieve.pi_exact", "x": x}
            for x in strata(rng, _n(z, 20), 2, limit, integer=True)]
    for i, x in enumerate(strata(rng, _n(z, 20), 1e4, float(limit) ** 1.5, log=True,
                                 integer=True)):
        offs = pattern(rng, 2 + i % 2, span=20)
        ops.append({"fn": "tuples.pi_k_power", "x": x, "offsets": offs,
                    "exponents": [rng.randint(1, 3) for _ in offs]})
    for fn in ("sieve.capital_pi_exact", "sieve.j_exact"):
        ops += [{"fn": fn, "x": x} for x in strata(rng, _n(z, 40), 2, limit, integer=True)]
    for k in (1, 2, 3):
        ops += [{"fn": "tuples.capital_pi_k", "x": x, "offsets": pattern(rng, k, span=20)}
                for x in strata(rng, _n(z, 7), limit // 10, limit, integer=True)]
    for k in range(2, 7):
        ops += [{"fn": "tuples.pi_k", "r": r, "offsets": pattern(rng, k)}
                for r in strata(rng, _n(z, 9), limit * 9 // 10, limit - 64, integer=True)]
    return ops


# ---------------------------------------------------------------------------
# lattice_sweep: every kernel at threads=1 and threads=2


def _lattice(rng, z):
    n = _n(z, 4)
    base = [{"fn": "lattice.gauss_circle_count", "R": r}
            for r in strata(rng, n, *z["circle"], integer=True)]
    base += [{"fn": "lattice.divisor_hyperbola_count", "x": x}
             for x in strata(rng, n, *z["divisor"], integer=True)]
    base += [{"fn": "lattice.ball3_count", "R": r}
             for r in strata(rng, n, *z["ball3"], power=2, integer=True)]
    for shape, (lo, hi) in z["fit"].items():
        base.append({"fn": "lattice.error_exponent_fit", "shape": shape,
                     "sizes": fit_sizes(rng, lo, hi, FIT_SAMPLES)})
    ops = [dict(op, threads=t) for op in base for t in (1, 2)]
    # count_under_graph takes no thread count, so it runs once per batch
    for x_max in strata(rng, 2, *z["graph"], integer=True):
        ops.append({"fn": "lattice.count_under_graph", "x_max": x_max,
                    "a": rng.randint(1, 50), "b": rng.randint(1, 100)})
    return ops


# ---------------------------------------------------------------------------
# analytic: explicit formula, Perron, prime zeta, densities, quadrature


def _analytic(rng, z):
    ops = [dict(e, fn="explicit.riemann_pi_explicit")
           for e in _explicit_inputs(rng, _n(z, 10), z)]
    ops += [dict(e, fn="explicit.capital_pi_explicit") for e in _capital_inputs(rng, _n(z, 4), z)]
    ops += [dict(p, fn="explicit.perron_truncated") for p in _perron_inputs(rng, _n(z, 4), z)]
    if z["reps"]:
        # one call at the 400 000-panel cap: T |log x| above 6.3e5 with T <= 1e5
        ops.append({"fn": "explicit.perron_truncated",
                    "x": _perron_x(rng, 2e3, 1e4),
                    "c": round(rng.uniform(*PERRON_C), 3),
                    "T": round(strata(rng, 1, 8.5e4, 1e5)[0], 1)})
    ops += [{"fn": "explicit.prime_zeta", "s": round(s, 4)}
            for s in strata(rng, _n(z, 4), 1.5, 4.0)]
    ops += [{"fn": "density.singular_series", "offsets": pattern(rng, k, span=30)}
            for k in range(2, 2 + _n(z, 4))]
    for i, x in enumerate(strata(rng, _n(z, 3), *z["quad_x"], log=True)):
        ops.append({"fn": "density.average_capital_pi_k", "x": round(x, 2),
                    "offsets": pattern(rng, 1 + i % 3, span=12),
                    "c_value": round(rng.uniform(0.5, 3.0), 6)})
    for i, r in enumerate(strata(rng, _n(z, 3), *z["quad_x"], log=True)):
        ops.append({"fn": "explicit.ei_k", "r": round(r, 2),
                    "offsets": pattern(rng, 1 + i % 3, span=12)})
    ops += [{"fn": "special.li_quadrature", "x": round(x, 3)}
            for x in strata(rng, _n(z, 3), 3.0, z["explicit_x"][1], log=True)]
    ops.append({"fn": "explicit.verify_zero_table"})
    return ops


_BUILDERS = {
    "cli_cold": _cli,
    "counting_warm": _counting,
    "lattice_sweep": _lattice,
    "analytic": _analytic,
}
