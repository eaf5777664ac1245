"""Explicit-formula evaluations from a zero table, Perron integrals, and
the prime zeta function two ways.

Everything here is float numerics on top of the exact counting machinery:
the zero-sum form of the prime counting function, its prime-power variant,
the truncated Perron indicator integral with its classical error envelope,
and the two cross-checking prime zeta evaluations.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import ceil, floor, isfinite, log, pi
from typing import Optional, Union

import numpy as np

from ._zeros import ZERO_ORDINATES
from .quadrature import integrate
from .sieve import ArithTable
from . import special
from .special import e1_real, ei_complex, ei_jump_free, ei_real, rs_z, zeta_real
from .tuples import OffsetSet

FIRST_ZERO = 14.134725141735
# how far a table's first ordinate may sit from FIRST_ZERO
FIRST_ZERO_TOL = 1e-6
# the fewest ordinates a zero table must hold
MIN_ZEROS = 100
# Largest explicit-formula truncation accepted.  Each squarefree m <= max_m
# is a row of the Ei grids, and the trivial-zero row of m runs to j ~ 15 m /
# log x, so an unbounded max_m at small x hangs (x = 2, max_m = 10^4 ran past
# 20 s).  The default floor(log2 x) stays within it for every x < 2^101.
MAX_M = 100


# ---------------------------------------------------------------------------
# zero table


@dataclass(frozen=True)
class ZeroTable:
    """Increasing ordinates of nontrivial zeros, all taken as 1/2 + i*gamma."""

    ordinates: np.ndarray

    def __len__(self):
        return len(self.ordinates)

    def validate(self) -> None:
        g = self.ordinates
        if len(g) < MIN_ZEROS:
            raise ValueError(f"zero table has {len(g)} entries, need {MIN_ZEROS}")
        if not np.all(np.diff(g) > 0):
            raise ValueError("zero ordinates must be strictly increasing")
        if g[0] <= 0:
            raise ValueError("zero ordinates must be positive")
        if abs(float(g[0]) - FIRST_ZERO) > FIRST_ZERO_TOL:
            raise ValueError(
                f"first ordinate {g[0]} is not the known first zero within {FIRST_ZERO_TOL}"
            )


def load_zero_table(source: Union[str, io.TextIOBase]) -> ZeroTable:
    """Parse one ordinate per line; the table must pass ZeroTable.validate."""
    if isinstance(source, str):
        with open(source, "r") as f:
            return load_zero_table(f)
    values = []
    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse ordinate {text!r}") from None
        if values and v <= values[-1]:
            raise ValueError(f"line {lineno}: ordinate {v} not increasing")
        values.append(v)
    if not values:
        raise ValueError("zero table stream is empty")
    table = ZeroTable(np.asarray(values, dtype=np.float64))
    table.validate()
    return table


_DEFAULT_TABLE: Optional[ZeroTable] = None


def default_zero_table() -> ZeroTable:
    """The embedded first-100 table."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        t = ZeroTable(np.asarray(ZERO_ORDINATES, dtype=np.float64))
        t.validate()
        _DEFAULT_TABLE = t
    return _DEFAULT_TABLE


def verify_zero_table(table: ZeroTable) -> int:
    """Check each ordinate by a Riemann-Siegel Z sign change around it.

    Bracket half-width adapts to the neighbor gaps so adjacent zeros cannot
    contaminate the sign check.  Returns the number verified; raises on the
    first ordinate that fails.
    """
    g = [float(v) for v in table.ordinates]
    for j, gamma in enumerate(g):
        left_gap = g[j] - g[j - 1] if j > 0 else 2.0
        right_gap = g[j + 1] - g[j] if j + 1 < len(g) else 2.0
        delta = min(0.25, 0.35 * min(left_gap, right_gap))
        lo, hi = gamma - delta, gamma + delta
        if rs_z(lo) * rs_z(hi) >= 0:
            raise ValueError(
                f"ordinate #{j + 1} = {gamma}: no Z sign change in [{lo}, {hi}]"
            )
    return len(g)


# ---------------------------------------------------------------------------
# small Mobius helper (arguments never exceed ~64 here)


def _mu_small(n: int) -> int:
    if n == 1:
        return 1
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def _pairwise_sum(values: np.ndarray) -> float:
    """Sum with a fixed pairwise tree (shape depends only on the length)."""
    buf = np.asarray(values, dtype=np.float64)
    n = 1
    while n < len(buf):
        n <<= 1
    padded = np.zeros(n, dtype=np.float64)
    padded[: len(buf)] = buf
    while n > 1:
        n //= 2
        padded = padded[:n] + padded[n : 2 * n]
    return float(padded[0]) if len(buf) else 0.0


# ---------------------------------------------------------------------------
# explicit formula


@dataclass(frozen=True)
class ExplicitEval:
    """Breakdown of one zero-sum evaluation.

    value = main_term - zero_sum - log2_term - trivial_zero_sum; each part
    already carries its mu(m)/m weights.
    """

    value: float
    main_term: float
    zero_sum: float
    log2_term: float
    trivial_zero_sum: float
    zeros_used: int
    truncation_m: int


def _grid_rows(ys: np.ndarray, n_cols: int, evaluate):
    """Yield evaluate(y, col) over cols 0..n_cols-1 for each y in ys, a row
    at a time.

    The flattened (y, col) grid is evaluated in passes of at most
    special.EI_BLOCK points, so memory stays bounded by the block and one
    row however many rows there are.  The yielded buffer is reused: fold it
    before asking for the next row.
    """
    block = special.EI_BLOCK
    total = len(ys) * n_cols
    row = np.empty(n_cols, dtype=np.float64)
    filled = 0
    for start in range(0, total, block):
        flat = np.arange(start, min(start + block, total))
        vals = evaluate(ys[flat // n_cols], flat % n_cols)
        pos = 0
        while pos < len(vals):
            take = min(n_cols - filled, len(vals) - pos)
            row[filled:filled + take] = vals[pos:pos + take]
            filled += take
            pos += take
            if filled == n_cols:
                yield row
                filled = 0


def _trivial_sum(terms: np.ndarray) -> float:
    # Ei(-2jy) summed left to right; the first term below 1e-14 is the last
    t = 0.0
    for term in terms.tolist():
        t += term
        if abs(term) < 1e-14:
            return t
    raise ArithmeticError("trivial-zero series did not reach 1e-14")


def _explicit_evals(xs, zeros, max_m, zero_count) -> list:
    """riemann_pi_explicit at every x in xs from one Ei grid.

    The rows (x, squarefree m) of all the xs share one ei_complex grid of
    zero terms and one E1 grid of trivial-zero terms; each row is then
    folded exactly as a lone evaluation folds it.
    """
    if zeros is None:
        zeros = default_zero_table()
    if len(zeros) == 0:
        raise ValueError("empty zero table")
    used = len(zeros) if zero_count is None else min(zero_count, len(zeros))
    if used < 1:
        raise ValueError("need at least one zero")
    if max_m is not None and not (isinstance(max_m, int) and 1 <= max_m <= MAX_M):
        raise ValueError(f"max_m must be an int in [1, {MAX_M}], got {max_m!r}")
    gammas = zeros.ordinates[:used]
    plans = []
    for x in xs:
        big_m = int(floor(log(x) / log(2.0))) if max_m is None else max_m
        rows = []
        for m in range(1, big_m + 1):
            mu_m = _mu_small(m)
            if mu_m != 0:
                rows.append((mu_m / m, log(x) / m))
        plans.append((big_m, rows))
    ys = np.array([y for _, rows in plans for _, y in rows])

    def zero_terms(y, j):
        z = np.empty(len(y), dtype=np.complex128)
        z.real, z.imag = 0.5 * y, gammas[j] * y
        return 2.0 * ei_complex(z).real

    def trivial_terms(y, j):
        return -e1_real(2.0 * (j + 1) * y)

    zero_sums = (_pairwise_sum(r) for r in _grid_rows(ys, used, zero_terms))
    # E1(u) < e^-u / u < 1e-14 for u >= 30, so j <= 15/y + 1 reaches the stop
    n_trivial = int(15.0 / float(ys.min())) + 1
    trivial_sums = (_trivial_sum(r) for r in _grid_rows(ys, n_trivial, trivial_terms))
    evals = []
    for big_m, rows in plans:
        main_term = zero_sum = log2_term = trivial = 0.0
        for w, y in rows:
            main_term += w * ei_real(y)
            zero_sum += w * next(zero_sums)
            log2_term += w * log(2.0)
            trivial += w * next(trivial_sums)
        evals.append(ExplicitEval(
            value=main_term - zero_sum - log2_term - trivial,
            main_term=main_term,
            zero_sum=zero_sum,
            log2_term=log2_term,
            trivial_zero_sum=trivial,
            zeros_used=used,
            truncation_m=big_m,
        ))
    return evals


def riemann_pi_explicit(
    x: float,
    zeros: Optional[ZeroTable] = None,
    max_m: Optional[int] = None,
    zero_count: Optional[int] = None,
) -> ExplicitEval:
    """Zero-sum evaluation of the prime counting function at x.

    Sums over m <= floor(log2 x) the mu(m)/m-weighted difference of Ei at
    log(x)/m, the zero contributions Ei((1/2 + i gamma) log(x)/m) folded as
    2 Re per conjugate pair in increasing-gamma order, the log 2 constant,
    and the trivial-zero series (terms dropped below 1e-14).
    """
    if x < 2:
        raise ValueError(f"explicit evaluation needs x >= 2, got {x}")
    return _explicit_evals([x], zeros, max_m, zero_count)[0]


def capital_pi_explicit(
    x: float,
    zeros: Optional[ZeroTable] = None,
    max_m: Optional[int] = None,
    zero_count: Optional[int] = None,
) -> ExplicitEval:
    """Prime-power variant: sum the k=1 evaluation at x^{1/n} while >= 2.

    The rows of every root share one Ei grid, and each root's evaluation
    has the bits riemann_pi_explicit gives it.
    """
    if x < 2:
        raise ValueError(f"explicit evaluation needs x >= 2, got {x}")
    n_max = int(floor(log(x) / log(2.0)))
    roots = []
    for n in range(1, n_max + 1):
        root = x ** (1.0 / n)
        if root < 2.0:
            break
        roots.append(root)
    value = main = zsum = l2 = triv = 0.0
    used = 0
    for ev in _explicit_evals(roots, zeros, max_m, zero_count):
        value += ev.value
        main += ev.main_term
        zsum += ev.zero_sum
        l2 += ev.log2_term
        triv += ev.trivial_zero_sum
        used = ev.zeros_used
    return ExplicitEval(
        value=value,
        main_term=main,
        zero_sum=zsum,
        log2_term=l2,
        trivial_zero_sum=triv,
        zeros_used=used,
        truncation_m=n_max,
    )


# ---------------------------------------------------------------------------
# truncated Perron integral


@dataclass(frozen=True)
class PerronResult:
    approx: float
    bound: float
    x: float
    c: float
    t_height: float
    indicator: float
    panels: int = 0  # always 0; bench/spans.py still reads it in traced runs

    @property
    def within_bound(self) -> bool:
        return abs(self.approx - self.indicator) <= self.bound


def perron_truncated(x: float, c: float, t_height: float) -> PerronResult:
    """(1/2 pi i) integral of x^s/s along the segment c - iT .. c + iT.

    With u = s log x the integrand is e^u/u, whose antiderivative off the
    negative real axis is Ei; so with z = (c + iT) log x the integral is
    (Ei(z) - Ei(conj z)) / (2 pi i) + [x < 1] (Davenport, Multiplicative
    Number Theory, ch. 17; DLMF 6.2-6.4).  Written with the jump-free part
    h = Ei - i pi sgn(Im z) it is [x > 1] + Im h(z) / pi: for x < 1 the
    segment crosses the cut, and h never adds and removes the jump there.

    The bound x^c / (pi T |log x|) is the classical envelope of the true
    error, which reaches 0.9999999987 x bound on some inputs.  Measured
    against mpmath at 40 digits, the evaluation error stayed below
    1.3e-8 x bound over 21,400 inputs (bench seeds 1-200, and x log-uniform
    in [1e-8, 1e4], c in [0.2, 3], T log-uniform in [0.1, 1e7]); it comes
    from rounding the phase T log x, so it grows with T |log x|.
    """
    if not (isfinite(x) and isfinite(c) and isfinite(t_height)):
        raise ValueError(f"perron needs finite x, c and T, got {x}, {c}, {t_height}")
    if x <= 0:
        raise ValueError(f"perron needs x > 0, got {x}")
    if x == 1.0:
        raise ValueError("x = 1 sits on the indicator jump")
    if c <= 0 or t_height <= 0:
        raise ValueError("need c > 0 and T > 0")
    big_l = log(x)
    try:
        x_c = x ** c
    except OverflowError:
        raise ValueError(f"x^c overflows float64 at x={x}, c={c}") from None
    bound = x_c / (pi * t_height * abs(big_l))
    indicator = 1.0 if x > 1 else 0.0
    h = ei_jump_free(complex(c * big_l, t_height * big_l))  # inf or nan on overflow
    approx = indicator + h.imag / pi
    if not isfinite(approx):
        raise ValueError(f"perron value overflows at x={x}, c={c}, T={t_height}")
    return PerronResult(
        approx=float(approx),
        bound=float(bound),
        x=float(x),
        c=float(c),
        t_height=float(t_height),
        indicator=indicator,
    )


# ---------------------------------------------------------------------------
# prime zeta two ways


@dataclass(frozen=True)
class PrimeZetaResult:
    s: float
    direct_value: float
    direct_tail: float
    direct_limit: int
    mobius_value: float
    mobius_tail: float

    @property
    def value(self) -> float:
        # the Mobius route has the far smaller tail; it is the headline value
        return self.mobius_value

    @property
    def combined_tail(self) -> float:
        return self.direct_tail + self.mobius_tail

    @property
    def methods_agree(self) -> bool:
        return abs(self.direct_value - self.mobius_value) <= self.combined_tail


def prime_zeta(
    s: float,
    table: Optional[ArithTable] = None,
    n_limit: Optional[int] = None,
) -> PrimeZetaResult:
    """P(s) = sum over primes p of p^{-s}, evaluated two independent ways.

    Direct route: -sum_{n<=N} mu(n) Lambda(n) / (log n * n^s); the summand
    vanishes unless n is prime, where it is p^{-s}, so the sum runs over the
    table's primes (tests check the all-n formula agrees).  Tail bound is
    the integral comparison N^{1-s}/(s-1).

    Mobius route: sum_m mu(m)/m * log zeta(m s), truncated once the
    geometric 2^{-ms} envelope is below float noise.
    """
    if s <= 1:
        raise ValueError(f"prime zeta diverges for s <= 1, got {s}")
    if table is None:
        raise ValueError("direct method needs an ArithTable")
    n = int(n_limit) if n_limit is not None else table.limit
    if n > table.limit:
        raise ValueError(f"N={n} exceeds table limit {table.limit}")
    if n < 2:
        raise ValueError("need N >= 2")
    primes = table.primes()
    primes = primes[primes <= n]
    direct = _pairwise_sum(primes.astype(np.float64) ** (-s))
    # truncation by integral comparison, plus the rounding of a pairwise sum
    # of ~pi(N) positive terms (eps per tree level and ~2 eps per power)
    eps = float(np.finfo(np.float64).eps)
    direct_tail = n ** (1.0 - s) / (s - 1.0) + eps * (np.log2(n) + 4.0) * direct

    m_terms = max(3, ceil(60.0 / s))
    mob = 0.0
    for m in range(1, m_terms + 1):
        mu_m = _mu_small(m)
        if mu_m == 0:
            continue
        mob += mu_m / m * log(zeta_real(m * s))
    # |log zeta(u)| <= (zeta(u) - 1)/(2 - zeta(u)) <= 2^{-u}(1 + 2/(u-1)) for
    # the u >= 2 reached here; geometric sum over m > M
    u0 = (m_terms + 1) * s
    mob_tail = (
        (1.0 + 2.0 / (u0 - 1.0))
        * 2.0 ** (-u0)
        / ((m_terms + 1) * (1.0 - 2.0 ** (-s)))
    )
    # each log-zeta term carries O(eps) absolute rounding; ~8 eps covers the
    # handful of squarefree m that contribute above float noise
    mob_tail += 8.0 * eps
    return PrimeZetaResult(
        s=float(s),
        direct_value=float(direct),
        direct_tail=float(direct_tail),
        direct_limit=n,
        mobius_value=float(mob),
        mobius_tail=float(mob_tail),
    )


# ---------------------------------------------------------------------------
# the k-tuple exponential integral


def ei_k(r: float, H: OffsetSet, abs_tol: float = 1e-12) -> float:
    """Quadrature of the k-tuple density kernel from 2 to r.

    Integrand: (mean of log(x+h_i))^{k-1} / prod_i log(x+h_i); for k = 1 the
    integrand is 1/log x, so the value is li(r) - li(2).
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if r == 2:
        return 0.0
    k = H.k
    offsets = [float(h) for h in H.offsets]

    def f(xs):
        logs = np.stack([np.log(xs + h) for h in offsets])
        denom = np.prod(logs, axis=0)
        if k == 1:
            return 1.0 / denom
        mean_log = np.sum(logs, axis=0) / k
        return mean_log ** (k - 1) / denom

    return integrate(f, 2.0, float(r), abs_tol=abs_tol)
