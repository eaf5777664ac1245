"""Smallest-prime-factor sieve and the exact k=1 counting functions.

The central object is :class:`ArithTable`, a segmented smallest-prime-factor
(spf) table for 2..limit.  Everything else (primality, factorization,
Mobius mu, von Mangoldt Lambda, pi(x), Pi(x), J(x)) is derived from spf on
demand, so a single 2-byte-per-entry array serves the whole package.

Memory bound: spf is stored as uint16, one entry per integer, with 0 for
primes; a composite n < 2**32 has spf[n] <= sqrt(n) < 2**16, so the table
supports limit < 2**32.  Practically a limit of 10**8 costs ~200 MB plus
~46 MB for the lazily built prime list and ~6 MB for the prime bitmap.  The
default desk limit used by the CLI is 10**7 (~20 MB).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, log
from typing import Optional

import numpy as np

# Entries per sieve pass: fastest of 2^18..2^23 at limits 1e7 and 1e8, best of 3
# on a 2-CPU x86 host (27 and 355 ms; one unsegmented pass took 1.33 s at 1e8).
SEGMENT_SIZE = 1 << 20


def iroot(x: int, n: int) -> int:
    """Integer n-th root: the largest r >= 0 with r**n <= x.

    Pure integer Newton iteration with a final correction step; no floating
    point is involved, so there are no off-by-one errors for large x.
    """
    x = int(x)
    n = int(n)
    if n <= 0:
        raise ValueError("iroot: n must be positive")
    if x < 0:
        raise ValueError("iroot: x must be nonnegative")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return isqrt(x)
    if x < (1 << n):  # x < 2**n means the root is 1
        return 1
    # Newton iteration on r -> ((n-1)*r + x // r**(n-1)) // n, started from a
    # power of two just above the true root.
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def isqrt_array(m: np.ndarray) -> np.ndarray:
    """Elementwise floor square root of a nonnegative int64 array.

    Below 2**52 the float64 sqrt already is the floor: m converts exactly,
    and for k**2 <= m < (k+1)**2 the gap k+1 - sqrt(m) exceeds 1/(2(k+1)) >=
    2**-27, more than half an ulp of a result below 2**26, so the correctly
    rounded sqrt lies in [k, k+1).  Larger m take two exact int64 correction
    sweeps, so v*v <= m < (v+1)*(v+1) holds for every m < 2**62 (the +-1
    guess correction needs (v+1)**2 in range).  A negative entry raises
    ValueError; one unsigned max pass finds it, since it reads as >= 2**63.
    """
    m = np.asarray(m, dtype=np.int64)
    top = int(m.view(np.uint64).max()) if m.size else 0
    if top >= 2 ** 63:
        raise ValueError(f"isqrt_array needs nonnegative entries, got {m.min()}")
    v = np.sqrt(m.astype(np.float64)).astype(np.int64)
    if top < 2 ** 52:
        return v
    # float sqrt is within 1 ulp; two correction sweeps settle every entry
    for _ in range(2):
        v = np.where((v + 1) * (v + 1) <= m, v + 1, v)
        v = np.where(v * v > m, v - 1, v)
    return v


class ArithTable:
    """Read-only smallest-prime-factor table for 2..limit, made by build_table.

    For composite n, ``spf[n]`` is the smallest prime dividing n; for prime
    n, and for 0 and 1, it is 0.  spf and the lazily derived arrays are marked
    read-only, so the table is safe to share between threads: a race on a
    lazy array can only build it twice.
    """

    def __init__(self, limit: int, spf: np.ndarray):
        self.limit = int(limit)
        spf.flags.writeable = False
        self.spf = spf
        self._primes: Optional[np.ndarray] = None
        self._is_prime: Optional[np.ndarray] = None
        self._rays_verified_upto = 1  # see tuples.localization_sum

    # -- derived arrays ----------------------------------------------------

    def primes(self) -> np.ndarray:
        """Sorted int64 array of all primes <= limit (built lazily)."""
        if self._primes is None:
            primes = np.flatnonzero(self.spf[2:] == 0).astype(np.int64) + 2
            primes.flags.writeable = False
            self._primes = primes
        return self._primes

    def is_prime_array(self) -> np.ndarray:
        """Odd-only prime bitmap in little-endian uint64 words (built lazily).

        Bit i (bit i % 64 of word i // 64) is set iff 2i + 1 is a prime
        <= limit; 2 is not represented.  Bits past the limit are 0, and one
        spare zero word follows the last word holding a bit <= limit, so a
        read shifted by up to one word never runs off the array.
        """
        if self._is_prime is None:
            words = (self.limit - 1) // 2 // 64 + 2
            flags = np.zeros(64 * words, dtype=bool)
            odd = self.spf[1::2]  # n = 2i + 1 <= limit
            np.equal(odd, 0, out=flags[: odd.size])
            flags[0] = False  # spf[1] is 0, but 1 is not prime
            bits = np.packbits(flags, bitorder="little").view("<u8")
            bits.flags.writeable = False
            self._is_prime = bits
        return self._is_prime

    def is_prime(self, n: int) -> bool:
        self._check_range(n)
        return n >= 2 and int(self.spf[int(n)]) == 0

    def _check_range(self, n, lo=1):
        if not float(n).is_integer():
            raise ValueError(f"expected an integer, got {n!r}")
        if n < lo or n > self.limit:
            raise ValueError(f"n={n} outside table range [{lo}, {self.limit}]")


def build_table(limit: int) -> ArithTable:
    """Build the spf table for 2..limit with a segmented sieve.

    In each segment every base prime p <= sqrt(limit) writes p over its
    multiples from p*p on, largest p first, so the smallest factor writes last.
    """
    if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool):
        raise ValueError("limit must be an integer")
    limit = int(limit)
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit >= 1 << 32:
        raise ValueError(
            "limit must be < 2**32: the uint16 spf table holds spf[n] <= sqrt(n) < 2**16"
        )
    try:
        spf = np.zeros(limit + 1, dtype=np.uint16)
    except MemoryError as exc:
        raise MemoryError(
            f"cannot allocate spf table of {2 * (limit + 1)} bytes for limit={limit}"
        ) from exc

    small = _simple_prime_list(isqrt(limit))[::-1].tolist()
    for lo in range(2, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        for p in small:
            spf[max(p * p, -(-lo // p) * p) : hi : p] = p
    # every unmarked n >= 2 has no prime factor <= sqrt(limit): it is prime
    return ArithTable(limit, spf)


def _simple_prime_list(n: int) -> np.ndarray:
    """Plain boolean Eratosthenes sieve: int64 array of the primes <= n."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


# -- arithmetic functions ---------------------------------------------------


def factor_sorted(table: ArithTable, n: int) -> tuple[list[int], list[int]]:
    """Factor n into (primes ascending, exponents) via the spf table."""
    table._check_range(n, lo=2)
    return _strip_factors(table.spf, int(n))


def _strip_factors(spf: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """factor_sorted without the range check: the caller has made it."""
    primes: list[int] = []
    exps: list[int] = []
    while n > 1:
        p = spf.item(n) or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        primes.append(p)
        exps.append(e)
    return primes, exps


def mu(table: ArithTable, n: int) -> int:
    """Mobius function: (-1)^(number of prime factors) if squarefree, else 0."""
    table._check_range(n)
    if n == 1:
        return 1
    primes, exps = _strip_factors(table.spf, int(n))
    return 0 if max(exps) > 1 else (-1) ** len(primes)


def von_mangoldt(table: ArithTable, n: int) -> float:
    """Lambda(n) = log p if n = p**a, else 0.  (1 maps to 0.)"""
    table._check_range(n)
    if n == 1:
        return 0.0
    primes, _ = _strip_factors(table.spf, int(n))
    return log(primes[0]) if len(primes) == 1 else 0.0


# -- counting functions -----------------------------------------------------


def _floor_arg(table: ArithTable, x) -> int:
    if x > table.limit:
        raise ValueError(f"x={x} exceeds table limit {table.limit}")
    return int(np.floor(x))


def pi_exact(table: ArithTable, x) -> int:
    """Number of primes <= x (x real, x <= limit)."""
    xf = _floor_arg(table, x)
    if xf < 2:
        return 0
    return int(np.searchsorted(table.primes(), xf, side="right"))


def capital_pi_exact(table: ArithTable, x) -> int:
    """Number of prime powers p**a <= x with a >= 1.

    Evaluated as sum over a of pi(floor(x**(1/a))) with exact integer roots;
    the sum stops at a = floor(log2 x) since 2**a must stay <= x.
    """
    xf = _floor_arg(table, x)
    if xf < 2:
        return 0
    total = 0
    a = 1
    while (1 << a) <= xf:
        total += pi_exact(table, iroot(xf, a))
        a += 1
    return total


def j_exact(table: ArithTable, x) -> Fraction:
    """Weighted prime-power count sum_{p^a <= x} 1/a, as an exact Fraction.

    Each n = p**a contributes Lambda(n)/log(n) = 1/a, evaluated symbolically:
    grouping by exponent gives sum over a of pi(floor(x**(1/a)))/a.
    """
    xf = _floor_arg(table, x)
    total = Fraction(0)
    if xf < 2:
        return total
    a = 1
    while (1 << a) <= xf:
        total += Fraction(pi_exact(table, iroot(xf, a)), a)
        a += 1
    return total
