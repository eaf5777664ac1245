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

ei_complex, ei_jump_free and e1_real take a scalar or an array.  Each
complex regime is one masked kernel on float64 real/imag arrays that
repeats the scalar arithmetic step for step, so an array call gives every
element the bits a scalar call gives it, on any CPU; scalar calls run the
same kernels on one element.
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
# complex arithmetic on (real, imag) float64 arrays
#
# The Ei kernels run on real/imag array pairs and spell out every complex
# step in real + - * /, exactly as CPython evaluates it on complex scalars,
# so each element's bits are those of a scalar evaluation, whatever else
# shares its array.  Real + - * /, np.hypot, and numpy's complex np.exp,
# np.log and division give the same bits on every CPU; numpy's
# CPU-dispatched loops for complex multiply and abs, and for float64 exp
# and log, do not, so no kernel uses them.

EI_BLOCK = 1 << 16  # points per kernel pass: bounds the kernels' temporaries

_JUMP_UP = 1j * pi * 1.0  # the i pi sgn(Im z) that separates Ei from h
_JUMP_DOWN = 1j * pi * -1.0
_TINY = 1e-300  # stands in for a zero denominator in modified Lentz
# A term below |v| 2^-54 is under half the gap from v to either neighbour,
# so adding it (or any smaller term) leaves v unchanged.
_HALF_ULP = 2.0 ** -54


def _mul(ar, ai, br, bi):
    # CPython's complex product
    return ar * br - ai * bi, ar * bi + ai * br


def _div(ar, ai, br, bi):
    # CPython's complex quotient: Smith's method, scaling by the larger part
    # of the divisor
    by_real = np.abs(br) >= np.abs(bi)
    p = np.where(by_real, br, bi)
    q = np.where(by_real, bi, br)
    ratio = q / p
    denom = p + q * ratio
    s = np.where(by_real, ar, ai)
    t = np.where(by_real, ai, ar)
    return ((s + t * ratio) / denom,
            np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _untiny(re, im) -> None:
    if not re.all():  # a complex zero needs a zero real part
        zero = (re == 0.0) & (im == 0.0)
        re[zero] = _TINY
        im[zero] = 0.0


def _jump(zi):
    up = zi > 0
    return (np.where(up, _JUMP_UP.real, _JUMP_DOWN.real),
            np.where(up, _JUMP_UP.imag, _JUMP_DOWN.imag))


def _blockwise(kernel, *args) -> list:
    """kernel(*args) for 1-D float64 args, in passes of at most EI_BLOCK."""
    passes = [kernel(*(a[start:start + EI_BLOCK] for a in args))
              for start in range(0, max(len(args[0]), 1), EI_BLOCK)]
    return [np.concatenate(parts) for parts in zip(*passes)]


# ---------------------------------------------------------------------------
# Ei regimes: each maps off-axis points z to h(z) = Ei(z) - i pi sgn(Im z).
# Every loop is masked and compacting: a point leaves the working arrays at
# the step where the scalar loop would have stopped.


def _h_series(zr, zi):
    # gamma + log z + sum z^n/(n n!) - i pi sgn(Im z), for |z| <= 8 or near
    # the positive real axis
    sr, si = np.zeros_like(zr), np.zeros_like(zr)
    tr, ti = np.ones_like(zr), np.zeros_like(zr)
    out_r, out_i = np.empty_like(zr), np.empty_like(zr)
    live, wr, wi = np.arange(len(zr)), zr, zi
    n = 1
    while len(live):
        tr, ti = _mul(tr, ti, *_div(wr, wi, float(n), 0.0))
        ur, ui = _div(tr, ti, float(n), 0.0)
        sr, si = sr + ur, si + ui
        done = np.hypot(tr, ti) / n < 1e-18 * np.fmax(1.0, np.hypot(sr, si))
        if done.any():
            out_r[live[done]], out_i[live[done]] = sr[done], si[done]
            keep = ~done
            live, wr, wi, tr, ti, sr, si = (
                v[keep] for v in (live, wr, wi, tr, ti, sr, si))
        n += 1
        if n > 600 and len(live):
            raise ArithmeticError(f"Ei series stalled at z={complex(wr[0], wi[0])}")
    log_z = np.log(_complex(zr, zi))
    jr, ji = _jump(zi)
    return ((EULER_GAMMA + log_z.real) + out_r - jr,
            (0.0 + log_z.imag) + out_i - ji)


def _e1_cf(wr, wi):
    # V in E1(w) = e^{-w} / V, V = w+1 - 1/(w+3 - 4/(w+5 - 9/(...)));
    # modified Lentz; converges for w off the negative real axis
    fr, fi = wr + 1.0, wi + 0.0
    _untiny(fr, fi)
    cr, ci = fr, fi
    dr, di = np.zeros_like(wr), np.zeros_like(wr)
    bi = wi + 0.0
    out_r, out_i = np.empty_like(wr), np.empty_like(wr)
    live = np.arange(len(wr))
    for j in range(1, 500):
        if not len(live):
            return out_r, out_i
        a = float(-(j * j))
        br = wr + 2.0 * j + 1.0
        ar_d, ai_d = _mul(a, 0.0, dr, di)
        dr, di = br + ar_d, bi + ai_d
        _untiny(dr, di)
        qr, qi = _div(a, 0.0, cr, ci)
        cr, ci = br + qr, bi + qi
        _untiny(cr, ci)
        dr, di = _div(1.0, 0.0, dr, di)
        er, ei = _mul(cr, ci, dr, di)
        fr, fi = _mul(fr, fi, er, ei)
        done = np.hypot(er - 1.0, ei - 0.0) < 1e-16
        if done.any():
            out_r[live[done]], out_i[live[done]] = fr[done], fi[done]
            keep = ~done
            live, wr, wi, bi, cr, ci, dr, di, fr, fi = (
                v[keep] for v in (live, wr, wi, bi, cr, ci, dr, di, fr, fi))
    if len(live):
        raise ArithmeticError(
            f"E1 continued fraction stalled at w={complex(wr[0], wi[0])}")
    return out_r, out_i


def _h_cf(zr, zi):
    # -E1(-z) = -e^z / V(-z), for the mid band off the axis
    v = _complex(*_e1_cf(-zr, -zi))
    h = -np.exp(_complex(zr, zi)) / v
    return h.real, h.imag


def _h_asymptotic(zr, zi):
    # e^z/z sum_j j!/z^j, |z| > 40, truncated at the smallest term; the loop
    # also stops once a term is below half an ulp of both parts of the sum,
    # since later terms are smaller still and cannot change it
    sr, si = np.ones_like(zr), np.zeros_like(zr)
    tr, ti = np.ones_like(zr), np.zeros_like(zr)
    size = np.ones_like(zr)
    out_r, out_i = np.empty_like(zr), np.empty_like(zr)
    live, wr, wi = np.arange(len(zr)), zr, zi
    for j in range(1, 400):
        if not len(live):
            break
        tr, ti = _div(*_mul(tr, ti, float(j), 0.0), wr, wi)
        grown = np.hypot(tr, ti)
        stop = grown >= size
        sr, si = np.where(stop, sr, sr + tr), np.where(stop, si, si + ti)
        size = grown
        done = stop | (size < np.minimum(np.abs(sr), np.abs(si)) * _HALF_ULP)
        if done.any():
            out_r[live[done]], out_i[live[done]] = sr[done], si[done]
            keep = ~done
            live, wr, wi, tr, ti, sr, si, size = (
                v[keep] for v in (live, wr, wi, tr, ti, sr, si, size))
    out_r[live], out_i[live] = sr, si
    lead = np.exp(_complex(zr, zi)) / _complex(zr, zi)
    return _mul(lead.real, lead.imag, out_r, out_i)


def _h(zr, zi):
    """h(z) at off-axis points, each by the regime its |z| and angle pick."""
    az = np.hypot(zr, zi)
    far = az > _ASYMPTOTIC_RADIUS
    near = ~far & ((az <= _SERIES_RADIUS) | (zr >= 0.9 * az))
    mid = ~(far | near)
    hr, hi = np.empty_like(zr), np.empty_like(zr)
    for mask, regime in ((near, _h_series), (mid, _h_cf), (far, _h_asymptotic)):
        if mask.any():
            hr[mask], hi[mask] = regime(zr[mask], zi[mask])
    return hr, hi


def _ei(zr, zi):
    """Ei at arbitrary nonzero points: PV ei_real on the axis, h + jump off it."""
    er, ei = np.empty_like(zr), np.zeros_like(zr)
    axis = zi == 0.0
    left = axis & (zr < 0)
    er[left] = -e1_real(-zr[left])
    for k in np.flatnonzero(axis & (zr > 0)):
        er[k] = ei_real(float(zr[k]))
    off = ~axis
    hr, hi = _h(zr[off], zi[off])
    jr, ji = _jump(zi[off])
    er[off], ei[off] = hr + jr, hi + ji
    return er, ei


def _on_points(kernel, z):
    # run a (re, im) kernel over scalar or array z; scalars come back complex
    zs = np.asarray(z, dtype=np.complex128)
    flat = zs.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = _blockwise(kernel, flat.real.copy(), flat.imag.copy())
    if zs.ndim == 0:
        return complex(re[0], im[0])
    return _complex(re, im).reshape(zs.shape)


# ---------------------------------------------------------------------------
# E1 and Ei


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


def _e1_cf_real(u):
    # E1(u) = e^{-u} / V(u) for u > 1 (libm exp, as for the scalar)
    vr, _ = _e1_cf(u, np.zeros_like(u))
    return (np.array([exp(-v) for v in u.tolist()]) / vr,)


def e1_real(u):
    """Exponential integral E1(u) for u > 0; u may be a scalar or an array."""
    us = np.asarray(u, dtype=np.float64)
    flat = us.ravel()
    if np.any(flat <= 0):
        bad = u if us.ndim == 0 else float(flat[flat <= 0][0])
        raise ValueError(f"e1_real needs u > 0, got {bad}")
    out = np.empty_like(flat)
    small = flat <= 1.0
    out[small] = [_e1_series(v) for v in flat[small].tolist()]
    out[~small] = _blockwise(_e1_cf_real, flat[~small])[0]
    return float(out[0]) if us.ndim == 0 else out.reshape(us.shape)


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


def ei_jump_free(z):
    """h(z) = Ei(z) - i pi sgn(Im z) = -E1(-z), for z off the real axis.

    Ei jumps by 2 pi i across the negative real axis; h does not, so a
    difference h(z) - h(conj z) along a path through that axis keeps every
    digit, where Ei(z) - Ei(conj z) would add and then remove the jump.
    z may be a scalar (the result is a complex) or an array (complex128 of
    the same shape); every element gets the bits a scalar call gives it.
    """
    zs = np.asarray(z, dtype=np.complex128)
    on_axis = zs.imag == 0.0
    if np.any(on_axis):
        raise ValueError(f"h is taken off the real axis, got {complex(zs[on_axis][0])}")
    return _on_points(_h, zs)


def ei_complex(z):
    """Ei continued off the real axis (principal branch; PV on the axis).

    z may be a scalar (the result is a complex) or an array (complex128 of
    the same shape); every element gets the bits a scalar call gives it.
    """
    zs = np.asarray(z, dtype=np.complex128)
    if np.any(zs == 0):
        raise ValueError("Ei has a pole at 0")
    return _on_points(_ei, zs)


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


def zeta_real(s: float) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin with Bernoulli corrections.

    With cutoff 32 and all 8 correction terms of _BERNOULLI_2J the remainder
    is far below 1e-14 for every s >= 1.2 (checked against an independent
    evaluation in tests).
    """
    if s <= 1:
        raise ValueError(f"zeta_real needs s > 1, got {s}")
    cutoff = 32
    n = np.arange(1, cutoff, dtype=np.float64)
    total = float(np.sum(n ** (-s)))
    total += cutoff ** (1.0 - s) / (s - 1.0)
    total += 0.5 * cutoff ** (-s)
    rising = 1.0  # s (s+1) ... accumulated
    for j in range(1, len(_BERNOULLI_2J) + 1):
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
