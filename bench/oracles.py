"""Independent checks for every benchmark operation.

Nothing here imports primelattice.  Exact counts come from this file's own
numpy Eratosthenes sieve and trial division; lattice counts from Jacobi's
two-square theorem and the Dirichlet hyperbola identity (checked against
published Gauss-circle values and brute force by ``self_check``); Ei, li,
prime zeta and the quadratures from mpmath; float results that state a bound
(Perron, singular-series tail, prime-zeta tails) must sit inside it.

``check(op, summary)`` returns None for a correct result, else the reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np

EULER_GAMMA = float(mpmath.euler)
CHUNK = 1 << 20

# N(10^k) = #{(a, b) in Z^2 : a^2 + b^2 <= 10^(2k)}, published values
GAUSS_CIRCLE = {
    1: 5, 10: 317, 100: 31417, 1000: 3141549, 10 ** 4: 314159053,
    10 ** 5: 31415925457, 10 ** 6: 3141592649625, 10 ** 7: 314159265350589,
}

# the package's documented defaults the CLI and library calls rely on
PACKAGE_PRIME_LIMIT = 10 ** 6
REF_PRIME_LIMIT = 10 ** 7


def _zero_ordinates() -> list:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "zeta_zeros.txt")
    with open(path) as f:
        return [mpmath.mpf(line) for line in f if line.strip() and not line.startswith("#")]


# ---------------------------------------------------------------------------
# exact counting: own sieve and trial division


class Sieve:
    """Boolean Eratosthenes sieve with cumulative prime counts."""

    def __init__(self, limit: int):
        self.limit = limit
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = False
        self.is_prime = flags
        self.pi_cum = np.cumsum(flags, dtype=np.int32)
        self.primes = np.flatnonzero(flags)
        # higher prime powers p^a (a >= 2) with their exponents, ascending
        higher = []
        for p in self.primes[: int(np.searchsorted(self.primes, isqrt(limit), "right"))]:
            p, a, v = int(p), 2, int(p) * int(p)
            while v <= limit:
                higher.append((v, a))
                a, v = a + 1, v * p
        higher.sort()
        self.higher = higher
        self._bases: dict = {}

    def pi(self, x) -> int:
        return int(self.pi_cum[int(math.floor(x))]) if x >= 2 else 0

    def capital_pi(self, x) -> int:
        xf = int(math.floor(x))
        return self.pi(xf) + sum(1 for v, _ in self.higher if v <= xf)

    def j(self, x) -> Fraction:
        xf = int(math.floor(x))
        return Fraction(self.pi(xf)) + sum((Fraction(1, a) for v, a in self.higher if v <= xf),
                                           Fraction(0))

    def tuple_bases(self, offsets) -> np.ndarray:
        """Ascending n >= 2 with n + h prime for every offset h (n + max h <= limit)."""
        key = tuple(offsets)
        if key not in self._bases:
            top = self.limit - max(offsets)
            ok = self.is_prime[2: top + 1].copy()
            for h in offsets[1:]:
                ok &= self.is_prime[2 + h: top + 1 + h]
            self._bases[key] = np.flatnonzero(ok) + 2
        return self._bases[key]

    def pi_k(self, r, offsets) -> int:
        return int(np.searchsorted(self.tuple_bases(offsets), int(math.floor(r)), "right"))

    def pi_k_power(self, x, offsets, exponents) -> int:
        xf = int(math.floor(x))
        count = 0
        for n in self.tuple_bases(offsets).tolist():
            prod = 1
            for h, e in zip(offsets, exponents):
                prod *= (n + h) ** e
            if prod > xf:
                break  # the product grows with n
            count += 1
        return count

    def capital_pi_k(self, x, offsets) -> int:
        """Sum over prime tuples n + H of the exponent vectors that fit under x."""
        xf = int(math.floor(x))
        total = 0
        for n in self.tuple_bases(offsets).tolist():
            entries = [n + h for h in offsets]
            if math.prod(entries) > xf:
                break
            total += _vectors_under(entries, xf)
        return total


def _vectors_under(entries: list, x: int) -> int:
    """#{m >= 1 : prod entries[i]^m_i <= x}, counted position by position."""
    def rec(i: int, budget: int) -> int:
        if i == len(entries):
            return 1
        rest = math.prod(entries[i + 1:])
        total, v = 0, entries[i]
        while v * rest <= budget:
            total += rec(i + 1, budget // v)
            v *= entries[i]
        return total

    return rec(0, x)


def factor(n: int) -> tuple:
    """(primes ascending, exponents) by trial division."""
    primes, exps = [], []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            primes.append(d)
            exps.append(e)
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
        exps.append(1)
    return primes, exps


def mobius(n: int) -> int:
    if n == 1:
        return 1
    _, exps = factor(n)
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


# ---------------------------------------------------------------------------
# lattice counts


def disk_count(m: int) -> int:
    """#{(a, b) : a^2 + b^2 <= m} = 1 + 4 sum_{d <= m} chi_4(d) floor(m/d).

    Jacobi's two-square theorem, summed by the hyperbola split in O(sqrt m):
    sum_{d <= s} chi(d) floor(m/d) + sum_{e <= s} S(floor(m/e)) - S(s) s, with
    s = isqrt(m) and S(y) = sum_{d <= y} chi(d) = 1 if y mod 4 in {1, 2} else 0.
    """
    if m < 0:
        return 0
    s = isqrt(m)
    total = -s * (1 if s % 4 in (1, 2) else 0)
    for lo in range(1, s + 1, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, s + 1), dtype=np.int64)
        q = m // d
        chi = (d & 1) * (2 - (d & 3))
        total += int(np.dot(chi, q)) + int(np.count_nonzero(((q & 3) == 1) | ((q & 3) == 2)))
    return 1 + 4 * total


def ball_count(r: int) -> int:
    m = r * r
    return disk_count(m) + 2 * sum(disk_count(m - c * c) for c in range(1, r + 1))


def divisor_sum(x: int) -> int:
    """sum_{n <= x} floor(x/n) by the Dirichlet hyperbola identity."""
    s = isqrt(x)
    total = 0
    for lo in range(1, s + 1, CHUNK):
        d = np.arange(lo, min(lo + CHUNK, s + 1), dtype=np.int64)
        total += int(np.sum(x // d))
    return 2 * total - s * s


def _main_term(shape: str, r) -> float:
    r = float(r)
    if shape == "circle":
        return math.pi * r * r
    if shape == "divisor":
        return r * math.log(r) + (2.0 * EULER_GAMMA - 1.0) * r
    return 4.0 / 3.0 * math.pi * r ** 3


def _shape_count(shape: str, r: int) -> int:
    return {"circle": lambda: disk_count(r * r), "divisor": lambda: divisor_sum(r),
            "ball3": lambda: ball_count(r)}[shape]()


def _fit(rows: list) -> tuple:
    """Least-squares slope of log|error| on log R and its rms residual."""
    pts = [(math.log(r), math.log(abs(e))) for r, _, _, e in rows if e != 0.0]
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    slope = sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx
    icpt = my - slope * mx
    resid = math.sqrt(sum((p[1] - icpt - slope * p[0]) ** 2 for p in pts) / n)
    return slope, resid


def _close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= abs_ + rel * abs(want)


def _check_count(summary: dict, count: int, main: float) -> str | None:
    if summary["count"] != count:
        return f"count {summary['count']} != {count}"
    if not _close(summary["main_term"], main, 1e-12):
        return f"main_term {summary['main_term']!r} != {main!r}"
    if summary["error"] != summary["main_term"] - count:
        return "error != main_term - count"
    return None


def _check_fit(shape: str, sizes: list, summary: dict) -> str | None:
    rows = []
    for r in sorted(set(sizes)):
        count = _shape_count(shape, r)
        main = _main_term(shape, r)
        rows.append((float(r), count, main, main - count))
    samples = summary.get("samples")
    if samples is not None:
        for got, want in zip(samples, rows):
            if got[0] != want[0] or got[1] != want[1] or not _close(got[2], want[2], 1e-12):
                return f"fit sample {got} != {want}"
        if len(samples) != len(rows):
            return f"{len(samples)} fit samples, expected {len(rows)}"
    slope, resid = _fit(rows)
    if not _close(summary["fitted_exponent"], slope, 1e-9):
        return f"fitted_exponent {summary['fitted_exponent']!r} != {slope!r}"
    if not _close(summary["residual"], resid, 1e-7, 1e-12):
        return f"residual {summary['residual']!r} != {resid!r}"
    return None


def _graph(op: dict, summary: dict) -> str | None:
    a, b, top = op["a"], op["b"], op["x_max"]
    count = sum(isqrt(a * n + b) for n in range(top + 1))
    main = 2.0 / (3.0 * a) * ((a * top + b) ** 1.5 - b ** 1.5)
    if summary["count"] != count:
        return f"count {summary['count']} != {count}"
    # the graph main term is a quadrature at abs_tol 1e-9
    if not _close(summary["main_term"], main, 1e-13, 1e-9):
        return f"main_term {summary['main_term']!r} != {main!r}"
    return None


# ---------------------------------------------------------------------------
# analytic references (mpmath)


class Analytic:
    def __init__(self):
        self._zeros = None

    @property
    def zeros(self) -> list:
        if self._zeros is None:
            self._zeros = _zero_ordinates()
        return self._zeros

    def explicit_parts(self, x: float, zero_count: int) -> dict:
        """The explicit formula's parts for pi(x) at 20 digits, plus their scale."""
        with mpmath.workdps(20):
            used = min(zero_count, len(self.zeros))
            gammas = self.zeros[:used]
            big_m = max(int(math.floor(math.log(x) / math.log(2.0))), 1)
            parts = dict(main_term=0, zero_sum=0, log2_term=0, trivial_zero_sum=0)
            scale = 0
            for m in range(1, big_m + 1):
                mu = mobius(m)
                if mu == 0:
                    continue
                w = mpmath.mpf(mu) / m
                y = mpmath.log(x) / m
                main = mpmath.ei(y)
                zs = [2 * mpmath.re(mpmath.ei(mpmath.mpc(0.5, g) * y)) for g in gammas]
                triv, j = 0, 1
                while True:
                    term = mpmath.ei(-2 * j * y)
                    triv += term
                    if abs(term) < 1e-30:
                        break
                    j += 1
                parts["main_term"] += w * main
                parts["zero_sum"] += w * mpmath.fsum(zs)
                parts["log2_term"] += w * mpmath.log(2)
                parts["trivial_zero_sum"] += w * triv
                scale += abs(w) * (abs(main) + mpmath.fsum(abs(z) for z in zs) + 1)
            out = {k: float(v) for k, v in parts.items()}
            out["value"] = float(parts["main_term"] - parts["zero_sum"] - parts["log2_term"]
                                 - parts["trivial_zero_sum"])
            out["scale"] = float(scale)
            out["zeros_used"] = used
            out["truncation_m"] = big_m
            return out

    def check_explicit(self, x: float, zero_count: int, summary: dict, capital: bool) -> str | None:
        if capital:
            n_max = int(math.floor(math.log(x) / math.log(2.0)))
            ref = None
            for n in range(1, n_max + 1):
                root = x ** (1.0 / n)
                if root < 2.0:
                    break
                part = self.explicit_parts(root, zero_count)
                if ref is None:
                    ref = part
                else:
                    for k in ("value", "main_term", "zero_sum", "log2_term",
                              "trivial_zero_sum", "scale"):
                        ref[k] += part[k]
            ref["truncation_m"] = n_max
        else:
            ref = self.explicit_parts(x, zero_count)
        # float Ei parts must agree to 1e-10 of the summed term magnitudes; the
        # package drops trivial-zero terms below 1e-14
        tol = 1e-10 * ref["scale"] + 1e-12 * ref["truncation_m"]
        for k in ("value", "main_term", "zero_sum", "log2_term", "trivial_zero_sum"):
            if abs(summary[k] - ref[k]) > tol:
                return f"{k} {summary[k]!r} vs mpmath {ref[k]!r} (tol {tol:.3g})"
        if summary["zeros_used"] != ref["zeros_used"]:
            return f"zeros_used {summary['zeros_used']} != {ref['zeros_used']}"
        if "truncation_m" in summary and summary["truncation_m"] != ref["truncation_m"]:
            return f"truncation_m {summary['truncation_m']} != {ref['truncation_m']}"
        return None

    @staticmethod
    def quad(f, lo: float, hi: float):
        with mpmath.workdps(30):
            pts = [mpmath.mpf(lo)]
            edge = 10.0
            while edge < hi:
                if edge > lo:
                    pts.append(mpmath.mpf(edge))
                edge *= 10.0
            pts.append(mpmath.mpf(hi))
            return float(mpmath.quad(f, pts))


def check_perron(x: float, c: float, t: float, got: dict) -> str | None:
    indicator = 1.0 if x > 1 else 0.0
    bound = x ** c / (math.pi * t * abs(math.log(x)))
    if got["indicator"] != indicator:
        return f"indicator {got['indicator']} != {indicator}"
    if not _close(got["bound"], bound, 1e-12):
        return f"bound {got['bound']!r} != {bound!r}"
    if not abs(got["approx"] - indicator) <= bound or got["within_bound"] is not True:
        return f"|approx - indicator| = {abs(got['approx'] - indicator):.3g} > bound {bound:.3g}"
    return None


# ---------------------------------------------------------------------------
# dispatch


class Oracle:
    """Checks op summaries; sieves and references are built on first use."""

    def __init__(self, sieve_limit: int = REF_PRIME_LIMIT):
        self._sieve = None
        self._sieve_limit = sieve_limit
        self.analytic = Analytic()

    def sieve(self, need: int) -> Sieve:
        """A sieve past ``need``, with room for tuple offsets; grown as needed."""
        need = int(need) + 100
        if self._sieve is None or self._sieve.limit < need:
            self._sieve = Sieve(max(need, self._sieve_limit + 100))
        return self._sieve

    def singular_series_ref(self, offsets: list) -> tuple:
        """Euler product over p <= 10^7 and a bound on its own truncation."""
        primes = self.sieve(REF_PRIME_LIMIT).primes
        primes = primes[primes <= REF_PRIME_LIMIT].astype(np.float64)
        k = len(offsets)
        nu = np.full(len(primes), float(k))
        for i, p in enumerate(primes[: int(np.searchsorted(primes, max(offsets) + 1, "right"))]):
            nu[i] = len({h % int(p) for h in offsets})
        if np.any(nu == primes):
            return 0.0, 0.0
        value = float(np.exp(np.sum(np.log1p(-nu / primes) - k * np.log1p(-1.0 / primes))))
        # |log factor| <= k^2/p^2 for the p > 10^7 left out, and sum 1/n^2 < 1/L
        return value, 2.0 * value * k * k / REF_PRIME_LIMIT

    def check(self, op: dict, s) -> str | None:
        if isinstance(s, dict) and "exception" in s:
            return s["exception"]
        fn = op["fn"]
        if fn == "cli":
            return self.check_cli(op["argv"], s)
        if fn.startswith(("sieve.", "tuples.")):
            return self._counting(fn, op, s)
        if fn == "lattice.gauss_circle_count":
            return _check_count(s, disk_count(op["R"] ** 2), _main_term("circle", op["R"]))
        if fn == "lattice.divisor_hyperbola_count":
            return _check_count(s, divisor_sum(op["x"]), _main_term("divisor", op["x"]))
        if fn == "lattice.ball3_count":
            return _check_count(s, ball_count(op["R"]), _main_term("ball3", op["R"]))
        if fn == "lattice.error_exponent_fit":
            return _check_fit(op["shape"], op["sizes"], s)
        if fn == "lattice.count_under_graph":
            return _graph(op, s)
        return self._analytic(fn, op, s)

    def _counting(self, fn: str, op: dict, s) -> str | None:
        if fn == "tuples.localization_sum":
            want = int(math.floor(op["x"])) - 1
        elif fn in ("sieve.mu", "sieve.von_mangoldt", "tuples.factor_sorted"):
            primes, exps = factor(op["n"])
            if fn == "sieve.mu":
                want = 0 if any(e > 1 for e in exps) else (-1) ** len(exps)
            elif fn == "sieve.von_mangoldt":
                want = math.log(primes[0]) if len(primes) == 1 else 0.0
            else:
                want = [primes, exps]
        else:
            offs = op.get("offsets", [0])
            sv = self.sieve(isqrt(op["x"]) if fn == "tuples.pi_k_power"
                            else op.get("x", op.get("r")))
            if fn == "sieve.pi_exact":
                want = sv.pi(op["x"])
            elif fn == "sieve.capital_pi_exact":
                want = sv.capital_pi(op["x"])
            elif fn == "sieve.j_exact":
                j = sv.j(op["x"])
                want = [j.numerator, j.denominator]
            elif fn == "tuples.pi_k":
                want = sv.pi_k(op["r"], offs)
            elif fn == "tuples.pi_k_power":
                want = sv.pi_k_power(op["x"], offs, op["exponents"])
            elif len(offs) == 1:
                want = sv.capital_pi(op["x"])  # one entry: the prime powers up to x
            else:
                want = sv.capital_pi_k(op["x"], offs)
        return None if s == want else f"{s!r} != {want!r}"

    def _analytic(self, fn: str, op: dict, s) -> str | None:
        if fn in ("explicit.riemann_pi_explicit", "explicit.capital_pi_explicit"):
            return self.analytic.check_explicit(op["x"], op["zero_count"], s,
                                                capital=fn.endswith("capital_pi_explicit"))
        if fn == "explicit.perron_truncated":
            return check_perron(op["x"], op["c"], op["T"], s)
        if fn == "explicit.prime_zeta":
            with mpmath.workdps(30):
                ref = float(mpmath.primezeta(op["s"]))
            if not abs(s["mobius_value"] - ref) <= s["mobius_tail"]:
                return f"mobius_value {s['mobius_value']!r} vs mpmath {ref!r}"
            if not abs(s["direct_value"] - ref) <= s["direct_tail"]:
                return f"direct_value {s['direct_value']!r} vs mpmath {ref!r}"
            return None if s["methods_agree"] else "methods disagree"
        if fn == "density.singular_series":
            return self._singular(op["offsets"], s["value"], s["tail_estimate"])
        if fn == "density.average_capital_pi_k":
            hs = op["offsets"]
            ref = op["c_value"] * Analytic.quad(
                lambda r: 1 / mpmath.fprod(mpmath.log(r + h) for h in hs), 2.0, op["x"])
            tol = op["c_value"] * 1e-8 + 1e-13 * abs(ref)  # its abs_tol, plus rounding
            return None if abs(s - ref) <= tol else f"{s!r} vs mpmath {ref!r}"
        if fn == "explicit.ei_k":
            hs, k = op["offsets"], len(op["offsets"])

            def f(r):
                logs = [mpmath.log(r + h) for h in hs]
                return (mpmath.fsum(logs) / k) ** (k - 1) / mpmath.fprod(logs)

            ref = Analytic.quad(f, 2.0, op["r"])
            tol = 1e-12 + 1e-13 * abs(ref)
            return None if abs(s - ref) <= tol else f"{s!r} vs mpmath {ref!r}"
        if fn == "special.li_quadrature":
            with mpmath.workdps(30):
                ref = float(mpmath.li(op["x"]))
            tol = 3e-12 + 1e-13 * abs(ref)  # three pieces at abs_tol 1e-12
            return None if abs(s - ref) <= tol else f"{s!r} vs mpmath {ref!r}"
        if fn == "explicit.verify_zero_table":
            return None if s == len(self.analytic.zeros) else f"verified {s}, expected 100"
        raise ValueError(f"no oracle for {fn}")

    def _singular(self, offsets: list, value: float, tail: float) -> str | None:
        ref, ref_tail = self.singular_series_ref(offsets)
        if not abs(value - ref) <= tail + ref_tail:
            return f"{value!r} vs Euler product {ref!r} (tail {tail:.3g})"
        return None

    # -- command line -------------------------------------------------------

    def check_cli(self, argv: list, result: dict) -> str | None:
        if result["code"] != 0:
            return f"exit {result['code']}: {result['stderr'].strip()[:200]}"
        try:
            return self._cli(argv, result["stdout"])
        except (KeyError, ValueError, IndexError) as exc:
            return f"unparseable output ({exc}): {result['stdout'][:200]!r}"

    def _cli(self, argv: list, out: str) -> str | None:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        cmd = argv[0] if argv[0] not in ("tuples", "lattice", "explicit", "zeros") \
            else " ".join(argv[:2])
        pos = [a for a in argv if not a.startswith("--")]
        opt = {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
               if argv[i].startswith("--")}
        single = {"pi": "value", "prime-powers": "value", "j": "value",
                  "tuples count": "count", "tuples power": "count",
                  "singular-series": "value"}.get(cmd)
        if cmd == "lattice fit" and fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            if rows[0] != ["R", "count", "main_term", "error"]:
                return f"bad csv header {rows[0]}"
            samples = [[float(r[0]), int(r[1]), float(r[2]), float(r[3])] for r in rows[1:]]
            return self._cli_fit(opt, {"samples": samples, **_refit(samples)})
        f = _fields(out, fmt, single)
        if cmd in ("pi", "prime-powers", "j"):
            x = float(pos[1])
            sv = self.sieve(x)
            if cmd == "j":
                want = sv.j(x)
                if Fraction(f["value"]) != want or str(want) != str(f["value"]):
                    return f"j {f['value']} != {want}"
                if "float" in f and f["float"] != float(want):
                    return f"j float {f['float']!r} != {float(want)!r}"
                return None
            want = sv.pi(x) if cmd == "pi" else sv.capital_pi(x)
            return None if f["value"] == want else f"{cmd} {f['value']} != {want}"
        if cmd == "tuples count":
            offs = [int(h) for h in opt["offsets"].split(",")]
            want = self.sieve(int(opt["limit"])).pi_k(int(opt["limit"]), offs)
            return None if f["count"] == want else f"count {f['count']} != {want}"
        if cmd == "tuples power":
            offs = [int(h) for h in opt["offsets"].split(",")]
            exps = [int(e) for e in opt["exponents"].split(",")]
            want = self.sieve(isqrt(int(opt["cutoff"]))).pi_k_power(int(opt["cutoff"]), offs,
                                                                   exps)
            return None if f["count"] == want else f"count {f['count']} != {want}"
        if cmd == "localize":
            fl = int(math.floor(float(pos[1])))
            want = {"sum": fl - 1, "floor": fl, "floor-1": fl - 1, "match": "floor-1"}
            return None if f == want else f"{f} != {want}"
        if cmd == "lattice circle":
            r = int(pos[2])
            return _check_count(f, disk_count(r * r), _main_term("circle", r))
        if cmd == "lattice divisor":
            x = int(pos[2])
            return _check_count(f, divisor_sum(x), _main_term("divisor", x))
        if cmd == "lattice fit":
            return self._cli_fit(opt, f)
        if cmd == "explicit pi":
            return self.analytic.check_explicit(float(pos[2]), int(opt["zeros"]), f, False)
        if cmd == "perron":
            x, c, t = (float(v) for v in pos[1:4])
            return check_perron(x, c, t, f)
        if cmd == "singular-series":
            offs = [int(h) for h in opt["offsets"].split(",")]
            k = len(offs)
            # text prints the value alone; its tail is the documented |C| k(k-1)/L
            tail = f.get("tail_estimate", abs(f["value"]) * k * (k - 1) / PACKAGE_PRIME_LIMIT)
            if f.get("prime_limit", PACKAGE_PRIME_LIMIT) != PACKAGE_PRIME_LIMIT:
                return f"prime_limit {f['prime_limit']}"
            return self._singular(offs, f["value"], tail)
        if cmd == "zeros verify":
            want = {"zeros": len(self.analytic.zeros), "verified": True}
            return None if f == want else f"{f} != {want}"
        raise ValueError(f"no oracle for command {cmd!r}")

    def _cli_fit(self, opt: dict, f: dict) -> str | None:
        # the sizes the CLI samples: round(geomspace(from, to, samples)), deduplicated
        sizes: list = []
        for v in np.geomspace(float(opt["from"]), float(opt["to"]), int(opt["samples"])):
            n = max(1, int(round(v)))
            if not sizes or n > sizes[-1]:
                sizes.append(n)
        if "window_lo" in f and (f["window_lo"] != sizes[0] or f["window_hi"] != sizes[-1]):
            return f"window {f['window_lo']}..{f['window_hi']} != {sizes[0]}..{sizes[-1]}"
        return _check_fit(opt["shape"], sizes, f)


def _refit(samples: list) -> dict:
    slope, resid = _fit([tuple(r) for r in samples])
    return {"fitted_exponent": slope, "residual": resid}


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def _fields(out: str, fmt: str, single: str | None) -> dict:
    out = out.strip()
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        head, row = list(csv.reader(io.StringIO(out)))
        return {k: _value(v) for k, v in zip(head, row)}
    if single is not None:
        return {single: _value(out)}
    return {k: _value(v) for k, v in (item.split("=", 1) for item in out.split())}


def self_check() -> None:
    """The lattice oracles against published values and brute force."""
    for r, want in GAUSS_CIRCLE.items():
        if r <= 10 ** 6 and disk_count(r * r) != want:
            raise AssertionError(f"Jacobi disk count at R={r} != published {want}")
    for m in range(0, 200):
        brute = sum(1 for a in range(-15, 16) for b in range(-15, 16) if a * a + b * b <= m)
        if disk_count(m) != brute:
            raise AssertionError(f"Jacobi disk count at m={m} != brute force {brute}")
    for r in range(1, 12):
        brute = sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1)
                    for c in range(-r, r + 1) if a * a + b * b + c * c <= r * r)
        if ball_count(r) != brute:
            raise AssertionError(f"ball count at R={r} != brute force {brute}")
    for x in range(1, 300):
        if divisor_sum(x) != sum(x // n for n in range(1, x + 1)):
            raise AssertionError(f"hyperbola divisor sum at x={x} != direct sum")
