"""Offset patterns, exponent vectors, and exact k-tuple counting.

An offset pattern H = (0, h_2, ..., h_k) shifts a base integer n to the
tuple (n, n+h_2, ..., n+h_k); an exponent vector m = (m_1, ..., m_k) turns a
prime tuple into the prime-power product prod_i (n+h_i)^{m_i}.  Counting all
such products up to a cutoff, over every pattern and every exponent vector,
is the same thing as counting ordered prime factorizations, which is where
the floor-of-x identity checked by :func:`localization_sum` comes from.

Every product here is computed in exact (unbounded) integer arithmetic, so
"overflow" cannot occur; a product either is <= the cutoff or it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Sequence

import numpy as np

from .sieve import ArithTable, factor_sorted, iroot

RAY_ENUM_BOUND = 10 ** 6
# capital_pi_k refuses an x with more exponent vectors than this; the count
# grows like (log x)^k / k!, so the cap stops a huge x from running for hours
EXPONENT_VECTORS_MAX = 10 ** 5


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Parse '0,2,6' style comma-separated integers."""
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if not parts:
        raise ValueError(f"no {what} in {text!r}")
    return tuple(int(p) for p in parts)


@dataclass(frozen=True)
class OffsetSet:
    """Strictly increasing nonnegative offsets starting at 0."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        offs = tuple(int(h) for h in self.offsets)
        object.__setattr__(self, "offsets", offs)
        if not offs:
            raise ValueError("offset set must be nonempty")
        if offs[0] != 0:
            raise ValueError("first offset must be 0")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError(f"offsets must be strictly increasing: {offs}")

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def max_offset(self) -> int:
        return self.offsets[-1]

    @classmethod
    def parse(cls, text: str) -> "OffsetSet":
        return cls(_parse_ints(text, "offsets"))

    def __str__(self):
        return "{" + ",".join(str(h) for h in self.offsets) + "}"


@dataclass(frozen=True)
class ExponentVector:
    """Positive integer exponents m = (m_1, ..., m_k)."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if not exps:
            raise ValueError("exponent vector must be nonempty")
        if any(e < 1 for e in exps):
            raise ValueError(f"exponents must be >= 1: {exps}")

    @property
    def k(self) -> int:
        return len(self.exponents)

    @property
    def total(self) -> int:
        return sum(self.exponents)

    @classmethod
    def parse(cls, text: str) -> "ExponentVector":
        return cls(_parse_ints(text, "exponents"))

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.exponents) + ")"


@dataclass(frozen=True)
class RayPoint:
    """One prime-power tuple: base n, pattern H, exponents m, and the product.

    product is stored, not trusted: recompute_product() must return the same
    value, and enumerate_rays checks this for every point it emits.
    """

    base: int
    offset_set: OffsetSet
    exponents: ExponentVector
    product: int

    def recompute_product(self) -> int:
        return ray_product(self.base, self.offset_set, self.exponents)


def ray_product(n: int, H: OffsetSet, m: ExponentVector) -> int:
    """prod_i (n + h_i)^{m_i}, exact."""
    if m.k != H.k:
        raise ValueError(f"exponent vector length {m.k} != offset count {H.k}")
    prod = 1
    for h, e in zip(H.offsets, m.exponents):
        prod *= (n + h) ** e
    return prod


# ---------------------------------------------------------------------------
# prime k-tuple counts


def _check_tuple_range(table: ArithTable, rf: int, H: OffsetSet) -> None:
    if rf + H.max_offset > table.limit:
        raise ValueError(
            f"r + max offset = {rf + H.max_offset} exceeds table limit {table.limit}"
        )


def _odd_base_words(table: ArithTable, rf: int, H: OffsetSet) -> np.ndarray:
    """Words whose bit i is set iff n = 2i + 1 in [3, rf] has every n + h prime.

    Needs rf >= 2 and only even offsets.  With h = 2s, n + h = 2(i + s) + 1,
    so each offset reads the odd-only bitmap at bit offset s: a word offset
    plus two shifts.  The bitmap's spare word keeps the last read in range,
    and its bit 0 (n = 1) is clear, so only the bits past rf need masking.
    """
    bits = table.is_prime_array()
    top = (rf - 1) // 2
    nw = top // 64 + 1
    acc = bits[:nw].copy()
    for h in H.offsets[1:]:
        q, b = divmod(h // 2, 64)
        if b:
            acc &= (bits[q : q + nw] >> np.uint64(b)) | (
                bits[q + 1 : q + nw + 1] << np.uint64(64 - b)
            )
        else:
            acc &= bits[q : q + nw]
    acc[-1] &= np.uint64((1 << (top % 64 + 1)) - 1)  # n > rf
    return acc


def _two_is_base(table: ArithTable, H: OffsetSet) -> bool:
    """True iff every 2 + h is prime.  With an odd offset h, n = 2 is the
    only possible base, since n or n + h is otherwise even and above 2."""
    return all(table.is_prime(2 + h) for h in H.offsets)


def pi_k(table: ArithTable, r, H: OffsetSet) -> int:
    """Count bases n <= r (n >= 2) with n + h prime for every offset h."""
    rf = int(floor(r))
    if rf < 2:
        return 0
    _check_tuple_range(table, rf, H)
    if any(h % 2 for h in H.offsets):
        return int(_two_is_base(table, H))
    # n = 2 needs 2 + h prime for h >= 2 even, impossible unless k = 1
    return int(np.bitwise_count(_odd_base_words(table, rf, H)).sum()) + int(H.k == 1)


def max_base_for_cutoff(x, H: OffsetSet, m: ExponentVector) -> int:
    """Largest n >= 1 with ray_product(n, H, m) <= x, or 0 if there is none.

    The product is strictly increasing in n and >= n^{sum(m)}, so binary
    search on [1, iroot(x, sum m)] suffices.
    """
    xf = int(floor(x))
    if xf < 1:
        return 0
    hi = iroot(xf, m.total)
    if hi < 1:
        return 0
    if ray_product(1, H, m) > xf:
        return 0
    lo = 1  # product(lo) <= xf invariant
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ray_product(mid, H, m) <= xf:
            lo = mid
        else:
            hi = mid - 1
    return lo


def pi_k_power(table: ArithTable, x, H: OffsetSet, m: ExponentVector) -> int:
    """Count bases n >= 2, all n+h prime, with prod (n+h_i)^{m_i} <= x."""
    if m.k != H.k:
        raise ValueError(f"exponent vector length {m.k} != offset count {H.k}")
    n_star = max_base_for_cutoff(x, H, m)
    if n_star < 2:
        return 0
    return pi_k(table, n_star, H)


def _exponent_vectors(bases: Sequence[int], x: int) -> list[tuple[int, ...]]:
    """All m >= (1,...,1) with prod bases[i]^{m_i} <= x, DFS order.

    Raises ValueError once more than EXPONENT_VECTORS_MAX vectors are found.
    """
    k = len(bases)
    # suffix[i] = minimal product of the remaining positions at exponent 1
    suffix = [1] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] * bases[i]
    out: list[tuple[int, ...]] = []
    cur: list[int] = []

    def rec(i: int, prod: int):
        if i == k:
            if len(out) == EXPONENT_VECTORS_MAX:
                raise ValueError(
                    f"x={x} has more than {EXPONENT_VECTORS_MAX} exponent vectors"
                )
            out.append(tuple(cur))
            return
        e = 1
        p = prod * bases[i]
        while p * suffix[i + 1] <= x:
            cur.append(e)
            rec(i + 1, p)
            cur.pop()
            e += 1
            p *= bases[i]

    rec(0, 1)
    return out


def capital_pi_k(table: ArithTable, x, H: OffsetSet) -> int:
    """Count prime-power tuples along the H ray with product <= x.

    Sums pi_k_power over every exponent vector whose minimal achievable
    product (base n = 2) stays <= x; the DFS bound makes the sum finite
    because every entry is >= 2, so sum(m) <= log2(x).  The bases are listed
    once, up to the largest cutoff base n* (the all-ones vector's, checked
    against the table before any vector is listed), and every vector's count
    is a search for its n* in that list.
    """
    xf = int(floor(x))
    if xf < 2:
        return 0
    top = max_base_for_cutoff(xf, H, ExponentVector((1,) * H.k))
    if top < 2:
        return 0
    _check_tuple_range(table, top, H)
    bases = [2 + h for h in H.offsets]
    n_star = np.array(
        [max_base_for_cutoff(xf, H, ExponentVector(exps))
         for exps in _exponent_vectors(bases, xf)],
        dtype=np.int64,
    )
    if H.k == 1:
        found = table.primes()
    elif any(h % 2 for h in H.offsets):
        return int(np.count_nonzero(n_star >= 2)) if _two_is_base(table, H) else 0
    else:
        words = _odd_base_words(table, top, H).astype("<u8", copy=False)
        found = 2 * np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little")) + 1
    return int(np.searchsorted(found, n_star, side="right").sum())


# ---------------------------------------------------------------------------
# ray enumeration: one ray point per integer via its factorization


def ray_from_integer(table: ArithTable, n: int) -> RayPoint:
    """The unique ray point whose product is n (grouped factorization)."""
    primes, exps = factor_sorted(table, n)
    base = primes[0]
    point = RayPoint(
        base=base,
        offset_set=OffsetSet(tuple(p - base for p in primes)),
        exponents=ExponentVector(tuple(exps)),
        product=int(n),
    )
    if point.recompute_product() != int(n):
        raise AssertionError(f"factorization of {n} does not multiply back")
    return point


def _check_ray_range(table: ArithTable, xf: int) -> None:
    if xf > RAY_ENUM_BOUND:
        raise ValueError(f"x={xf} above enumeration bound {RAY_ENUM_BOUND}")
    if xf > table.limit:
        raise ValueError(f"x={xf} exceeds table limit {table.limit}")


def enumerate_rays(table: ArithTable, x) -> list[RayPoint]:
    """All ray points with product <= x, exactly one per integer in [2, x].

    Enumeration is by factorizing each integer, so the one-point-per-integer
    bijection holds by construction; each point's product is still recomputed
    from its parts and checked.
    """
    xf = int(floor(x))
    if xf < 2:
        return []
    _check_ray_range(table, xf)
    return [ray_from_integer(table, n) for n in range(2, xf + 1)]


# ---------------------------------------------------------------------------
# localization: total ray count against floor(x)

# entries per pass of the spf invariant check
_VERIFY_BLOCK = 1 << 20


def _verify_ray_products(table: ArithTable, upto: int) -> None:
    """Check the spf invariant for every n in (watermark, upto], in blocks.

    With s = spf[n] and eff(m) = spf[m] or m (the smallest prime factor of m
    once the table is right), each nonzero entry must satisfy
      1. s >= 2,
      2. s divides n,
      3. spf[s] == 0,
      4. s <= eff(n // s).
    1 and 2 make every step of factor_sorted divide n by a divisor >= 2, so
    its loop ends and its factors multiply back to n.  4 also rejects s == n,
    since eff(1) = 1.  Given that every zero entry n >= 2 is prime, 3 and 4
    make spf[n] the smallest prime factor of n, by induction on n.  A zero
    entry cannot be checked locally: a composite stored as 0 (spf[12] = 0)
    passes, and only the sieve vouches for it.  1 and 2 are checked first:
    they bound s <= n, which keeps the indexing in 3 and 4 in range.  The
    table's watermark records the checked prefix, so repeated sums stay
    cheap.
    """
    done = table._rays_verified_upto
    if upto <= done:
        return
    spf = table.spf
    for lo in range(done + 1, upto + 1, _VERIFY_BLOCK):
        hi = min(lo + _VERIFY_BLOCK - 1, upto)
        s = spf[lo : hi + 1].astype(np.int64)
        n = np.flatnonzero(s) + lo
        s = s[s != 0]
        bad = (s < 2) | (n % s != 0)
        if not bad.any():
            cof = n // s
            eff = spf[cof].astype(np.int64)
            eff = np.where(eff == 0, cof, eff)
            bad = (spf[s] != 0) | (s > eff)
        if bad.any():
            bad_n = int(n[np.argmax(bad)])
            raise AssertionError(f"spf table invariant fails at n={bad_n}")
        table._rays_verified_upto = hi


def localization_sum(table: ArithTable, x) -> int:
    """Total number of ray points with product <= x, over all patterns.

    Equivalent to summing capital_pi_k over every admissible-or-not offset
    pattern; computed instead by the factorization bijection: every integer
    in [2, floor(x)] is the product of exactly one ray point, and 1 is the
    product of none (its factorization is empty).  The count therefore comes
    out floor(x) - 1, one below the floor.
    """
    xf = int(floor(x))
    if xf < 2:
        return 0
    _check_ray_range(table, xf)
    _verify_ray_products(table, xf)
    return xf - 1  # one verified ray per integer in [2, xf]

