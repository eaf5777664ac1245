"""Exponential integrals, real-axis zeta, and a Riemann-Siegel Z oracle.

Ei uses three regimes chosen by where float64 actually holds up:

  power series        gamma + log z + sum z^n/(n n!)   |z| <= 8, or close to
                                                       the positive real axis
  continued fraction  Ei(z) = -E1(-z) +- i pi          mid-range, off-axis
  asymptotic          e^z/z sum_j j!/z^j (+- i pi)     |z| > 40

The mid band exists because the power series cancels catastrophically for
oscillatory arguments of moderate size, while the asymptotic series has not
yet bottomed out; the E1 continued fraction (modified Lentz) covers it.  On
the real line Ei takes its principal-value meaning, so li(x) = Ei(log x) for
x > 1 without any imaginary part.  Off the axis each regime yields the
jump-free part h(z) = Ei(z) - i pi sgn(Im z) = -E1(-z) (ei_jump_free), and
ei_complex adds the jump back.
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, exp, floor, log, pi, sqrt

import numpy as np

from .quadrature import integrate

EULER_GAMMA = 0.5772156649015329

_SERIES_RADIUS = 8.0
_ASYMPTOTIC_RADIUS = 40.0


# ---------------------------------------------------------------------------
# E1 building blocks


def _e1_series(u: float) -> float:
    # E1(u) = -gamma - log u - sum_{n>=1} (-u)^n/(n n!),  good for 0 < u <= 1
    s = 0.0
    t = 1.0
    n = 1
    while True:
        t *= -u / n
        s += t / n
        if abs(t) / n < 1e-18:
            break
        n += 1
    return -EULER_GAMMA - log(u) - s


def _e1_cf_denominator(w: complex) -> complex:
    # V in E1(w) = e^{-w} / V, V = w+1 - 1/(w+3 - 4/(w+5 - 9/(...)));
    # modified Lentz; converges for w off the negative real axis
    tiny = 1e-300
    f = w + 1.0
    if f == 0:
        f = tiny
    c = f
    d = 0.0
    for j in range(1, 500):
        a = -(j * j)
        b = w + 2.0 * j + 1.0
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise ArithmeticError(f"E1 continued fraction stalled at w={w}")


def e1_real(u: float) -> float:
    """Exponential integral E1(u) for u > 0."""
    if u <= 0:
        raise ValueError(f"e1_real needs u > 0, got {u}")
    if u <= 1.0:
        return _e1_series(u)
    return exp(-u) / (_e1_cf_denominator(complex(u, 0.0))).real


# ---------------------------------------------------------------------------
# Ei


def _ei_series_pos(x: float) -> float:
    # gamma + log x + sum x^n/(n n!) for 0 < x <= 40
    s = 0.0
    t = 1.0
    n = 1
    while True:
        t *= x / n
        s += t / n
        if t / n < 1e-17 * max(1.0, s):
            break
        n += 1
    return EULER_GAMMA + log(x) + s


def _ei_asymptotic_real(x: float) -> float:
    # e^x/x sum j!/x^j truncated at the smallest term (x > 40: error < 1e-16 rel)
    s = 1.0
    t = 1.0
    for j in range(1, 200):
        t_next = t * j / x
        if t_next >= t:
            break
        t = t_next
        s += t
    return exp(x) / x * s


def ei_real(x: float) -> float:
    """Principal-value exponential integral Ei(x), x != 0."""
    if x == 0.0:
        raise ValueError("Ei has a pole at 0")
    if x > 0:
        return _ei_series_pos(x) if x <= _ASYMPTOTIC_RADIUS else _ei_asymptotic_real(x)
    return -e1_real(-x)


def _ei_series_complex(z: complex) -> complex:
    s = 0.0 + 0.0j
    t = 1.0 + 0.0j
    n = 1
    while True:
        t *= z / n
        s += t / n
        if abs(t) / n < 1e-18 * max(1.0, abs(s)):
            break
        n += 1
        if n > 600:
            raise ArithmeticError(f"Ei series stalled at z={z}")
    return EULER_GAMMA + np.log(complex(z)) + s


def _ei_asymptotic_complex(z: complex) -> complex:
    s = 1.0 + 0.0j
    t = 1.0 + 0.0j
    for j in range(1, 400):
        t_next = t * j / z
        if abs(t_next) >= abs(t):
            break
        t = t_next
        s += t
    return np.exp(z) / z * s


def ei_jump_free(z: complex) -> complex:
    """h(z) = Ei(z) - i pi sgn(Im z) = -E1(-z), for z off the real axis.

    Ei jumps by 2 pi i across the negative real axis; h does not, so a
    difference h(z) - h(conj z) along a path through that axis keeps every
    digit, where Ei(z) - Ei(conj z) would add and then remove the jump.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError(f"h is taken off the real axis, got {z}")
    az = abs(z)
    if az > _ASYMPTOTIC_RADIUS:
        return _ei_asymptotic_complex(z)
    if az <= _SERIES_RADIUS or z.real >= 0.9 * az:
        return _ei_series_complex(z) - 1j * pi * (1.0 if z.imag > 0 else -1.0)
    w = -z
    return -np.exp(-w) / _e1_cf_denominator(w)


def ei_complex(z: complex) -> complex:
    """Ei continued off the real axis (principal branch; PV on the axis)."""
    z = complex(z)
    if z == 0:
        raise ValueError("Ei has a pole at 0")
    if z.imag == 0.0:
        return complex(ei_real(z.real))
    return ei_jump_free(z) + 1j * pi * (1.0 if z.imag > 0 else -1.0)


def li(x: float) -> float:
    """Principal-value logarithmic integral li(x) = Ei(log x), x > 0, x != 1."""
    if x <= 0:
        raise ValueError(f"li needs x > 0, got {x}")
    if x == 1:
        raise ValueError("li has a pole at 1")
    return ei_real(log(x))


def li_quadrature(x: float, abs_tol: float = 1e-12) -> float:
    """li(x) by explicit principal-value quadrature (the slow cross-check).

    After t = e^s the pole at t = 1 becomes the pole of e^s/s at 0, and the
    symmetric PV window turns into the smooth integrand 2 sinh(s)/s.
    """
    if x <= 0 or x == 1:
        raise ValueError(f"li_quadrature needs x > 0, x != 1, got {x}")
    y = log(x)
    lower = -50.0  # e^s/s below this is < 1e-23, beyond double noise here
    if y < 0:
        return integrate(lambda s: np.exp(s) / s, lower, y, abs_tol=abs_tol)
    delta = min(0.5, 0.5 * y)
    left = integrate(lambda s: np.exp(s) / s, lower, -delta, abs_tol=abs_tol)
    # Gauss nodes are interior points, so s = 0 is never evaluated
    middle = integrate(lambda s: 2.0 * np.sinh(s) / s, 0.0, delta, abs_tol=abs_tol)
    right = 0.0
    if y > delta:
        right = integrate(lambda s: np.exp(s) / s, delta, y, abs_tol=abs_tol)
    return left + middle + right


# ---------------------------------------------------------------------------
# real-axis zeta via Euler-Maclaurin

_BERNOULLI_2J = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
]

_FACT = [1.0]
for _i in range(1, 18):
    _FACT.append(_FACT[-1] * _i)


def zeta_real(s: float, cutoff: int = 32, corrections: int = 8) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin with Bernoulli corrections.

    With cutoff 32 and 8 correction terms the remainder is far below 1e-14
    for every s >= 1.2 (checked against an independent evaluation in tests).
    """
    if s <= 1:
        raise ValueError(f"zeta_real needs s > 1, got {s}")
    if corrections > len(_BERNOULLI_2J):
        raise ValueError(f"at most {len(_BERNOULLI_2J)} correction terms supported")
    n = np.arange(1, cutoff, dtype=np.float64)
    total = float(np.sum(n ** (-s)))
    total += cutoff ** (1.0 - s) / (s - 1.0)
    total += 0.5 * cutoff ** (-s)
    rising = 1.0  # s (s+1) ... accumulated
    for j in range(1, corrections + 1):
        if j == 1:
            rising = s
        else:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        coeff = float(_BERNOULLI_2J[j - 1]) / _FACT[2 * j]
        total += coeff * rising * cutoff ** (1.0 - s - 2 * j)
    return total


# ---------------------------------------------------------------------------
# Riemann-Siegel Z, the desk oracle for zero ordinates


def rs_theta(t: float) -> float:
    """Riemann-Siegel theta, asymptotic form (plenty below t ~ 10^6)."""
    if t <= 0:
        raise ValueError("rs_theta needs t > 0")
    return (
        0.5 * t * log(t / (2.0 * pi))
        - 0.5 * t
        - pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t ** 3)
    )


def rs_z(t: float) -> float:
    """Riemann-Siegel Z(t) with the first correction term.

    Accuracy ~ t^{-3/4}: a couple of decimal digits around t = 14..240,
    which is all the zero-table verification needs (sign changes across
    comfortably separated brackets).
    """
    if t < 2.0 * pi:
        raise ValueError(f"rs_z main sum is empty below t = 2 pi, got {t}")
    a = sqrt(t / (2.0 * pi))
    nu = int(floor(a))
    theta = rs_theta(t)
    main = 0.0
    for n in range(1, nu + 1):
        main += cos(theta - t * log(n)) / sqrt(n)
    main *= 2.0
    p = a - nu
    c0 = cos(2.0 * pi * (p * p - p - 1.0 / 16.0)) / cos(2.0 * pi * p)
    return main + (-1.0) ** (nu - 1) * a ** (-0.5) * c0
