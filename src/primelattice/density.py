"""Singular series and conjectured tuple densities.

The singular series here is the classical Euler product

    C(H) = prod_p (1 - nu_p(H)/p) / (1 - 1/p)^k

with nu_p(H) the number of distinct residues of the offsets mod p.  For
p > max(H) every offset is distinct mod p, so nu_p = k and the factors decay
like 1 - k(k-1)/(2 p^2); the product is truncated at a prime limit with a
first-order tail estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .quadrature import integrate
from .sieve import _simple_prime_list
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
