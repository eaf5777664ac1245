"""Singular series, conjectured tuple densities, and the Gallagher average.

The singular series here is the classical Euler product

    C(H) = prod_p (1 - nu_p(H)/p) / (1 - 1/p)^k

with nu_p(H) the number of distinct residues of the offsets mod p.  For
p > max(H) every offset is distinct mod p, so nu_p = k and the factors decay
like 1 - k(k-1)/(2 p^2); the product is truncated at a prime limit with a
first-order tail estimate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from math import log
from typing import IO, Optional

import numpy as np

from .quadrature import integrate
from .sieve import ArithTable, _simple_prime_list, build_table, factor_sorted
from .tuples import OffsetSet

DEFAULT_PRIME_LIMIT = 10 ** 6
# the sieve's practical limit: the prime list's bool flags take one byte per n
MAX_PRIME_LIMIT = 10 ** 8


@dataclass(frozen=True)
class SingularSeriesValue:
    value: float
    prime_limit: int
    tail_estimate: float

    def __float__(self):
        return self.value


def singular_series(H: OffsetSet, prime_limit: int = DEFAULT_PRIME_LIMIT) -> SingularSeriesValue:
    """Truncated Euler product for the pattern H.

    Returns 0 exactly when some prime covers every residue class of H (an
    inadmissible pattern, e.g. {0,1} at p=2).  Factors for p <= max(H) use
    the counted residues; beyond that nu_p = k and the log-factors are
    accumulated with log1p for stability.
    """
    if prime_limit < 100:
        raise ValueError(f"prime_limit must be >= 100, got {prime_limit}")
    if prime_limit > MAX_PRIME_LIMIT:
        raise ValueError(f"prime_limit must be <= {MAX_PRIME_LIMIT}, got {prime_limit}")
    k = H.k
    if k == 1:
        return SingularSeriesValue(1.0, prime_limit, 0.0)
    primes = _simple_prime_list(prime_limit)
    # k <= max_offset + 1, so past this cut 1 - k/p stays strictly positive
    small_cut = int(np.searchsorted(primes, H.max_offset + 1, side="right"))
    log_total = 0.0
    for p in primes[:small_cut].tolist():
        nu = len({h % p for h in H.offsets})
        if nu == p:
            return SingularSeriesValue(0.0, prime_limit, 0.0)
        log_total += log(1.0 - nu / p) - k * log(1.0 - 1.0 / p)
    big = primes[small_cut:].astype(np.float64)
    # nu_p = k out here; offsets are distinct mod any p > max(H)
    logs = np.log1p(-k / big) - k * np.log1p(-1.0 / big)
    log_total += float(np.sum(logs))
    value = float(np.exp(log_total))
    # |log factor| ~ k(k-1)/(2 p^2); sum_{p > L} p^{-2} < 1/L by integral
    # comparison, doubled for the higher-order slack
    tail = abs(value) * k * (k - 1) / prime_limit
    return SingularSeriesValue(value, int(prime_limit), tail)


def average_capital_pi_k(x: float, H: OffsetSet, c_value: float, abs_tol: float = 1e-8) -> float:
    """Conjectured average count: C * integral_2^x dr / prod_i log(r + h_i)."""
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if x == 2:
        return 0.0
    offsets = [float(h) for h in H.offsets]

    def f(rs):
        acc = np.ones_like(rs)
        for h in offsets:
            acc = acc * np.log(rs + h)
        return 1.0 / acc

    return c_value * integrate(f, 2.0, float(x), abs_tol=abs_tol, max_panels=16384)


# ---------------------------------------------------------------------------
# Gallagher-style average over shifted twin patterns


@lru_cache(maxsize=8)
def _twin_constant(prime_limit: int) -> SingularSeriesValue:
    return singular_series(OffsetSet((0, 2)), prime_limit)


def twin_pattern_series(h: int, prime_limit: int = DEFAULT_PRIME_LIMIT,
                        table: Optional[ArithTable] = None) -> SingularSeriesValue:
    """C({0,h}) through the twin constant times prod_{odd p | h} (p-1)/(p-2).

    Algebraically identical to singular_series({0,h}, prime_limit) whenever
    every odd prime divisor of h is <= prime_limit (tests check this), but
    O(number of divisors) instead of O(pi(prime_limit)) per h.
    """
    if h < 1:
        raise ValueError("need h >= 1")
    if h % 2 == 1:
        return SingularSeriesValue(0.0, prime_limit, 0.0)
    twin = _twin_constant(prime_limit)
    correction = 1.0
    if table is None:
        table = build_table(max(h, 4))
    for p in factor_sorted(table, h)[0]:
        if p > 2:
            correction *= (p - 1.0) / (p - 2.0)
    return SingularSeriesValue(twin.value * correction, prime_limit,
                               twin.tail_estimate * correction)


def gallagher_aggregate(k: int = 2, h_max: int = 10 ** 4,
                        prime_limit: int = DEFAULT_PRIME_LIMIT) -> float:
    """(1/h_max) sum_{h=1}^{h_max} C({0,h}); tends to 1 as h_max grows.

    Odd h contribute 0 (the p=2 factor dies), so only even shifts enter the
    sum; the normalization still divides by the full h_max.
    """
    if k != 2:
        raise ValueError("only k = 2 is supported at desk scale")
    if h_max < 10:
        raise ValueError(f"need h_max >= 10, got {h_max}")
    table = build_table(max(h_max, 4))
    total = 0.0
    for h in range(2, h_max + 1, 2):
        total += twin_pattern_series(h, prime_limit, table=table).value
    return total / h_max


def write_gallagher_csv(f: IO[str], h_max: int,
                        prime_limit: int = DEFAULT_PRIME_LIMIT) -> None:
    """Emit (h, C({0,h})) rows for h = 1..h_max."""
    table = build_table(max(h_max, 4))
    w = csv.writer(f, lineterminator="\n")
    w.writerow(["h", "singular_series"])
    for h in range(1, h_max + 1):
        v = twin_pattern_series(h, prime_limit, table=table)
        w.writerow([h, repr(v.value)])
