"""Lattice-point counts in planar regions and their boundary error terms.

Every count is exact integer arithmetic; the floats only enter through the
smooth main terms (area, volume, x log x).  Each region has one exact
kernel; the brute-force counts that check them live in the tests.  The
error series fitted here measure how the signed boundary error
main_term - count grows with the region size.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import IO, Callable, Sequence

import numpy as np

from .quadrature import integrate
from .sieve import isqrt_array
from .special import EULER_GAMMA

CIRCLE_R_MAX = 10 ** 7
BALL3_R_MAX = 3000
# The hyperbola split sums isqrt(x) int64 quotients.  At 1e16 the whole sum,
# 2 x H(sqrt x) ~ 3.7e17, stays below 2^63, so no chunk sum can wrap; one
# call there takes ~1.3 s at threads=1 (0.5 s at 2) on a 2-CPU x86 host.
DIVISOR_DIRECT_MAX = 10 ** 16
GEOMETRIC_SIZES_MAX = 10 ** 4
_CHUNK = 1 << 20


@dataclass(frozen=True)
class CountResult:
    count: int
    main_term: float
    error: float  # main_term - count, signed

    @classmethod
    def assemble(cls, count: int, main_term: float) -> "CountResult":
        return cls(int(count), float(main_term), float(main_term) - int(count))


@dataclass(frozen=True)
class ErrorSeries:
    samples: tuple  # (R, count, main_term, error) rows
    fitted_exponent: float
    residual: float
    fit_window: tuple


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _radius_floor_sq(R):
    """(floor(R), floor(R^2)) with the square exact for int, float, Fraction."""
    if isinstance(R, int):
        return R, R * R
    q = Fraction(R) ** 2
    m = q.numerator // q.denominator
    return isqrt(m), m


def _chunked_sum(term: Callable, lo: int, hi: int, threads: int = 1) -> int:
    """sum_{n=lo}^{hi} term(n), exact, for a vectorized int64 term.

    The range is cut into fixed _CHUNK-wide pieces whose integer partials are
    merged in order, so the result never depends on the thread count.  A pool
    opens only when there are at least two chunks to share.
    """
    if hi < lo:
        return 0
    starts = range(lo, hi + 1, _CHUNK)

    def one(start: int) -> int:
        ns = np.arange(start, min(start + _CHUNK, hi + 1), dtype=np.int64)
        return int(np.sum(term(ns)))

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(one, starts))
    return sum(map(one, starts))


# ---------------------------------------------------------------------------
# Graph regions


def count_under_graph(f: Callable, x_max) -> CountResult:
    """Sum of floor(f(n)) over integer n in [0, floor(x_max)]."""
    n_top = int(math.floor(x_max))
    if n_top < 0:
        raise ValueError("x_max must be >= 0")
    count = 0
    for n in range(n_top + 1):
        y = float(f(n))
        if not math.isfinite(y):
            raise ValueError(f"f is not finite at index {n}")
        count += math.floor(y)

    def fv(rs):
        # quadrature hands arrays; plain scalar handles get mapped
        try:
            out = np.asarray(f(rs), dtype=np.float64)
            if out.shape == np.shape(rs):
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(f(t)) for t in np.atleast_1d(rs)])

    if float(x_max) > 0:
        main = integrate(fv, 0.0, float(x_max), abs_tol=1e-9)
    else:
        main = 0.0
    return CountResult.assemble(count, main)


# ---------------------------------------------------------------------------
# Circles


def _quadrant_sq(m: int, threads: int = 1) -> int:
    """#{(a,b) : a >= 1, b >= 1, a^2 + b^2 <= m}, split at c = isqrt(m // 2).

    Points with both coordinates <= c always fit (2c^2 <= m) and points with
    both > c never do, so the count is the c x c square plus two mirrored
    wings, each an isqrt sum over n in (c, isqrt(m)]: about 0.29 sqrt(m)
    terms instead of sqrt(m).
    """
    c = isqrt(m // 2)
    wing = _chunked_sum(lambda ns: isqrt_array(m - ns * ns), c + 1, isqrt(m), threads)
    return c * c + 2 * wing


def _disk_count_sq(m: int, threads: int = 1) -> int:
    """#{(a,b) in Z^2 : a^2 + b^2 <= m} for integer m >= 0."""
    return 1 + 4 * isqrt(m) + 4 * _quadrant_sq(m, threads)


def gauss_circle_count(R, threads: int = 1) -> CountResult:
    """Lattice points in the closed disk of radius R."""
    _check_threads(threads)
    if not 0 < R <= CIRCLE_R_MAX:
        raise ValueError(f"need 0 < R <= {CIRCLE_R_MAX}, got {R}")
    _, m = _radius_floor_sq(R)
    main = math.pi * float(R) * float(R)
    return CountResult.assemble(_disk_count_sq(m, threads), main)


# ---------------------------------------------------------------------------
# Divisor hyperbola


def divisor_count_split(x: int, threads: int = 1) -> int:
    """Hyperbola-split form 2 sum_{n<=sqrt x} floor(x/n) - floor(sqrt x)^2."""
    x = int(x)
    if x < 1:
        raise ValueError("need x >= 1")
    s = isqrt(x)
    return 2 * _chunked_sum(lambda ns: x // ns, 1, s, threads) - s * s


def divisor_hyperbola_count(x, threads: int = 1) -> CountResult:
    """sum_{n<=x} floor(x/n), i.e. lattice points under the hyperbola ab <= x."""
    _check_threads(threads)
    xi = int(x)
    if xi != x or xi < 1:
        raise ValueError(f"need a positive integer, got {x!r}")
    main = xi * math.log(xi) + (2.0 * EULER_GAMMA - 1.0) * xi
    if xi > DIVISOR_DIRECT_MAX:
        raise ValueError(f"direct sum capped at x <= {DIVISOR_DIRECT_MAX}")
    return CountResult.assemble(divisor_count_split(xi, threads), main)


# ---------------------------------------------------------------------------
# 3-ball


def _ragged_wings(mc: np.ndarray, s: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per slice c, sum of isqrt(mc[c] - n^2) over n in (s[c], s[c] + lengths[c]].

    All the slices' terms go through one isqrt pass; each slice's sum is a
    difference of one running sum.
    """
    ends = np.cumsum(lengths)
    starts = ends - lengths
    ns = np.repeat(s + 1 - starts, lengths) + np.arange(ends[-1], dtype=np.int64)
    running = np.cumsum(isqrt_array(np.repeat(mc, lengths) - ns * ns))
    running = np.concatenate(([0], running))
    return running[ends] - running[starts]


# Wing terms per ball3 block.  A sweep of 2^12..2^16, one fresh process per
# cap and best of 21 on a 2-CPU x86 host, had 2^14 fastest at every R: 0.43,
# 1.95 and 17 ms at R = 461, 1000 and 3000 (per-slice disks: 10, 23, 94 ms);
# 2^13 took ~1.2x that, 2^15 ~1.5x and 2^16 ~2x.
_BALL3_BLOCK = 1 << 14


def ball3_count(R, threads: int = 1) -> CountResult:
    """#{(a,b,c) in Z^3 : a^2+b^2+c^2 <= R^2} by disk slices along one axis.

    Slice c is the disk of squared radius m_c = m - c^2, split as in
    _quadrant_sq at s_c = isqrt(m_c // 2); the wings of consecutive slices
    are summed in blocks of at most _BALL3_BLOCK terms, one isqrt pass each.
    The whole count is a few array passes, so it runs on one thread whatever
    threads says.
    """
    _check_threads(threads)
    if not 0 < R <= BALL3_R_MAX:
        raise ValueError(f"need 0 < R <= {BALL3_R_MAX}, got {R}")
    r_floor, m = _radius_floor_sq(R)
    main = 4.0 / 3.0 * math.pi * float(R) ** 3
    mc = m - np.arange(r_floor + 1, dtype=np.int64) ** 2
    r, s = isqrt_array(mc), isqrt_array(mc // 2)
    lengths = r - s
    # a block of `step` slices holds at most _BALL3_BLOCK wing terms
    step = max(1, _BALL3_BLOCK // max(1, int(lengths.max())))
    wing = np.concatenate([
        _ragged_wings(mc[lo:lo + step], s[lo:lo + step], lengths[lo:lo + step])
        for lo in range(0, r_floor + 1, step)])
    disks = 1 + 4 * r + 4 * (s * s + 2 * wing)
    # slices c and -c mirror each other
    count = int(disks[0]) + 2 * int(np.sum(disks[1:]))
    return CountResult.assemble(count, main)


# ---------------------------------------------------------------------------
# Error-growth fits


def fit_error_samples(samples: Sequence[tuple]) -> ErrorSeries:
    """Least-squares slope of log|error| against log R.

    Zero-error samples are excluded; if none are left the fit is refused
    rather than fabricated.  The line is the closed-form two-parameter fit
    with every sum in math.fsum and every log from libm, so the result does
    not depend on the BLAS, LAPACK or SIMD kernels of the host.  The residual
    is sqrt(SSR / n).
    """
    rows = [(float(r), int(c), float(mt), float(e)) for (r, c, mt, e) in samples]
    live = [(math.log(r), math.log(abs(e))) for (r, _, _, e) in rows if abs(e) > 0.0]
    if len(live) < 2:
        raise ValueError("not enough nonzero errors to fit")
    n = len(live)
    x_mean = math.fsum(x for x, _ in live) / n
    y_mean = math.fsum(y for _, y in live) / n
    sxx = math.fsum((x - x_mean) ** 2 for x, _ in live)
    if sxx == 0.0:
        raise ValueError("need nonzero errors at two distinct sizes to fit")
    slope = math.fsum((x - x_mean) * (y - y_mean) for x, y in live) / sxx
    ssr = math.fsum((y - y_mean - slope * (x - x_mean)) ** 2 for x, y in live)
    residual = math.sqrt(ssr / n)
    if not math.isfinite(slope):
        raise ValueError("fit produced a non-finite exponent")
    rs = [r for r, *_ in rows]
    return ErrorSeries(tuple(rows), slope, residual, (min(rs), max(rs)))


# region kind -> (exact counter, largest size it accepts)
_FIT_COUNTERS = {
    "circle": (gauss_circle_count, CIRCLE_R_MAX),
    "divisor": (divisor_hyperbola_count, DIVISOR_DIRECT_MAX),
    "ball3": (ball3_count, BALL3_R_MAX),
}


def error_exponent_fit(region_kind: str, R_samples: Sequence, threads: int = 1) -> ErrorSeries:
    """Measure the boundary-error exponent over a sweep of sizes.

    region_kind is "circle", "divisor" or "ball3".  Needs at least 8 samples
    spanning at least two decades; the counts are exact, so the only noise in
    the fit is the arithmetic of |error| itself.
    """
    _check_threads(threads)
    rs = sorted(set(float(r) for r in R_samples))
    if len(rs) < 8:
        raise ValueError(f"need >= 8 samples, got {len(rs)}")
    if max(rs) < 100.0 * min(rs):
        raise ValueError("samples must span at least two decades")
    if region_kind not in _FIT_COUNTERS:
        raise ValueError(f"no error series for region kind {region_kind!r}")
    counter, cap = _FIT_COUNTERS[region_kind]
    # checked before any count, so the message names the caller's largest size
    if max(R_samples) > cap:
        raise ValueError(f"{region_kind} sizes must be <= {cap}, got {max(R_samples)}")
    samples = []
    for r in rs:
        r_arg = int(r) if float(r).is_integer() else r
        got = counter(r_arg, threads=threads)
        samples.append((float(r), got.count, got.main_term, got.error))
    return fit_error_samples(samples)


def geometric_sizes(lo: float, hi: float, count: int = 12) -> list:
    """Distinct integer sample sizes, geometrically spaced over [lo, hi]."""
    if not (0 < lo < hi) or count < 2:
        raise ValueError("need 0 < lo < hi and count >= 2")
    if count > GEOMETRIC_SIZES_MAX:
        raise ValueError(f"count={count} above the cap {GEOMETRIC_SIZES_MAX}")
    raw = np.geomspace(lo, hi, count)
    out: list = []
    for v in raw:
        n = max(1, int(round(v)))
        if not out or n > out[-1]:
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# Emission


def write_error_series_csv(series: ErrorSeries, f: IO[str]) -> None:
    w = csv.writer(f, lineterminator="\n")
    w.writerow(["R", "count", "main_term", "error"])
    for r, c, mt, e in series.samples:
        w.writerow([repr(r), c, repr(mt), repr(e)])
