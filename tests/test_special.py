from math import acos, cos, exp, log, pi, sin

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from primelattice.quadrature import QuadratureCapError, integrate
from primelattice.special import (
    e1_real,
    ei_complex,
    ei_jump_free,
    ei_real,
    li,
    li_quadrature,
    rs_theta,
    rs_z,
    zeta_real,
)

# frozen high-precision reference values (25-digit evaluation, rounded)
EI_REAL_REF = [
    (-50, -3.783264029550459e-24),
    (-5, -0.0011482955912753258),
    (-1, -0.21938393439552027),
    (-0.3, -0.90567665167584674),
    (0.2, -0.82176058790240025),
    (1, 1.8951178163559368),
    (5, 40.185275355803177),
    (8, 440.37989953483827),
    (20, 25615652.664056589),
    (39, 2280446200301902.6),
    (41, 16006649143245041.0),
    (100, 2.7155527448538798e41),
    (700, 1.4509787360525609e301),
]

EI_COMPLEX_REF = [
    (3 + 4j, -4.1540916516426898 + 4.2944186200243575j),
    (-10 + 2j, 2.3461694530923405e-6 + 3.141589306563751j),
    (10 + 30j, -633.94654799964705 - 299.82386666953537j),
    (-25 - 9j, 5.0318508616421715e-13 - 3.1415926535897474j),
    (50 + 50j, 3.6128528616649269e19 - 6.4648801861338742e19j),
    (-45 + 80j, -2.5020011741719569e-22 + 3.1415926535897932j),
    # a zero-sum style argument, (1/2 + i*14.1347...) * log(100)
    (2.302585092994046 + 32.5446786061195j, 0.28227593386034587 + 3.0215626439891376j),
]

E1_REF = [
    (0.5, 0.55977359477616081),
    (1, 0.21938393439552027),
    (2, 0.04890051070806112),
    (30, 3.0215520106888125e-15),
]

LI_REF = [
    (2, 1.0451637801174928),
    (4, 2.9675850950390509),
    (100, 30.12614158407963),
    (1000000, 78627.549159462182),
]

SIEGELZ_REF = [
    (14.2, 0.0520452717156),
    (20, 1.14784241219),
    (100, 2.69269705666),
    (236, 2.59121230918),
]


# ---------------------------------------------------------------------------
# quadrature driver


def test_integrate_polynomial_exact():
    got = integrate(lambda x: 5.0 * x ** 4, 0.0, 1.0)
    assert got == pytest.approx(1.0, abs=1e-14)


def test_integrate_exponential():
    got = integrate(lambda x: np.exp(x), 0.0, 3.0)
    assert got == pytest.approx(exp(3.0) - 1.0, rel=1e-14)


def test_integrate_oscillatory_adaptive():
    got = integrate(lambda x: np.sin(50.0 * x), 0.0, pi)
    want = (1.0 - np.cos(50.0 * pi)) / 50.0
    assert got == pytest.approx(want, abs=1e-12)


def test_integrate_empty_and_bad_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: x, 3.0, 2.0)


def test_integrate_cap_is_loud():
    # endpoint-singular integrand with a tiny panel budget must raise,
    # never return a silently degraded value
    with pytest.raises(QuadratureCapError):
        integrate(lambda x: x ** -0.9, 0.0, 1.0, abs_tol=1e-12, max_panels=6)


# ---------------------------------------------------------------------------
# exponential integrals, real


def test_ei_real_reference_values():
    for x, want in EI_REAL_REF:
        assert ei_real(x) == pytest.approx(want, rel=5e-14), x


def test_ei_real_pole():
    with pytest.raises(ValueError):
        ei_real(0.0)


def test_e1_real_reference_values():
    for u, want in E1_REF:
        assert e1_real(u) == pytest.approx(want, rel=1e-13), u
    with pytest.raises(ValueError):
        e1_real(-1.0)


def test_ei_negative_is_minus_e1():
    for u in (0.1, 0.7, 1.5, 12.0):
        assert ei_real(-u) == pytest.approx(-e1_real(u), rel=1e-14)


# ---------------------------------------------------------------------------
# exponential integrals, complex


def test_ei_complex_reference_values():
    for z, want in EI_COMPLEX_REF:
        got = ei_complex(z)
        scale = max(1.0, abs(want))
        assert abs(got - want) / scale < 1e-12, z


def test_ei_complex_schwarz_reflection():
    for z in (2 + 3j, -5 + 1j, 30 + 40j, -30 + 5j, 0.5 + 14.1j, 9 + 0.5j):
        assert ei_complex(np.conj(z)) == np.conj(ei_complex(z))


def test_ei_complex_real_axis_matches_pv():
    for x in (-3.0, -0.5, 0.7, 25.0):
        got = ei_complex(complex(x, 0.0))
        assert got.imag == 0.0
        assert got.real == pytest.approx(ei_real(x), rel=1e-14)


def _polar(r, theta):
    return complex(r * cos(theta), r * sin(theta))


_ANGLE = st.floats(-pi, pi)
# each regime, the seams |z| = 8 and |z| = 40 (a few ulps either side) and
# Re z = 0.9 |z|, and far asymptotic points, where the half-ulp stop ends
# the sum; Re z stays below 700 so that e^z is finite
_POINT = st.one_of(
    st.builds(_polar, st.floats(log(1e-6), log(1e6)).map(exp), _ANGLE),
    st.builds(_polar, st.sampled_from([8.0, 40.0]), _ANGLE).flatmap(
        lambda z: st.integers(-3, 3).map(lambda k: z * (1.0 + k * 2.0 ** -52))),
    st.builds(_polar, st.floats(8.0, 40.0),
              st.sampled_from([acos(0.9), -acos(0.9)])),
).filter(lambda z: z.real < 700.0 and z != 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_ei_complex_array_matches_mpmath(zs):
    # error relative to the larger of 1, |Ei(z)| and |e^z / z|: Ei has zeros
    # (0.3725..., 3.007 +- 5.967i, and a chain along Re z ~ log(pi |z|))
    # where e^z / z and the jump cancel, and a plain relative error is
    # meaningless there
    got = ei_complex(np.array(zs))
    assert got.shape == (len(zs),)
    for z, g in zip(zs, got):
        assert g == ei_complex(z), z  # the array path keeps the scalar bits
        with mpmath.workdps(30):
            w = mpmath.mpc(z.real, z.imag)
            want = complex(mpmath.ei(w))
            lead = float(abs(mpmath.exp(w) / w))
        assert abs(g - want) <= 1e-14 * max(1.0, abs(want), lead), z


def test_ei_array_shapes_and_axis_points():
    z = np.array([[3 + 4j, -2.5 + 0j], [0.5 - 14j, 60 + 1e-3j]])
    got = ei_complex(z)
    assert got.shape == (2, 2) and got.dtype == np.complex128
    for zz, g in zip(z.ravel(), got.ravel()):
        assert g == ei_complex(complex(zz))
    assert got[0, 1] == complex(ei_real(-2.5))
    h = ei_jump_free(z[:, 0])
    assert list(h) == [ei_jump_free(complex(v)) for v in z[:, 0]]
    u = np.array([0.25, 1.0, 1.5, 30.0])
    assert list(e1_real(u)) == [e1_real(float(v)) for v in u]
    with pytest.raises(ValueError):
        ei_complex(np.array([1 + 1j, 0j]))
    with pytest.raises(ValueError):
        ei_jump_free(np.array([1 + 1j, -2 + 0j]))
    with pytest.raises(ValueError):
        e1_real(np.array([1.0, -1.0]))


def test_ei_jump_free_is_minus_e1_of_minus_z():
    # one point per regime on each side of the axis: series, continued
    # fraction, asymptotic, and the near-real series wedge
    for z in (2 + 3j, -2 - 3j, -12 + 5j, -12 - 5j, -30 + 50j, 60 - 2j, 9 + 0.5j,
              -40 + 1e-9j):
        with mpmath.workdps(30):
            want = complex(-mpmath.e1(-mpmath.mpc(z)))
        got = ei_jump_free(z)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), z
        s = 1.0 if z.imag > 0 else -1.0
        assert ei_complex(z) == got + 1j * pi * s


def test_ei_jump_free_is_continuous_across_the_cut():
    for x in (-0.5, -5.0, -20.0, -60.0):
        above, below = ei_jump_free(complex(x, 1e-12)), ei_jump_free(complex(x, -1e-12))
        assert abs(above - below) <= 1e-10 * max(1.0, abs(above)), x
    with pytest.raises(ValueError):
        ei_jump_free(complex(-5.0, 0.0))


def test_ei_complex_pole():
    with pytest.raises(ValueError):
        ei_complex(0j)


def test_ei_complex_regime_seams():
    # the three evaluation routes must agree where their regions meet, so
    # run the competing kernels at the same points and compare directly
    from primelattice.special import _h_asymptotic, _h_cf, _h_series

    def run(regime, zs):
        hr, hi = regime(zs.real.copy(), zs.imag.copy())
        return hr + 1j * hi

    theta = np.array([1.2, 2.0, 2.8, -1.5])
    z = 8.0 * np.exp(1j * theta)
    a, b = run(_h_series, z), run(_h_cf, z)
    assert np.all(np.abs(a - b) / np.maximum(1.0, np.abs(a)) < 1e-11), "series/cf"
    z = 40.0 * np.exp(1j * theta)
    a, b = run(_h_cf, z), run(_h_asymptotic, z)
    assert np.all(np.abs(a - b) / np.maximum(1.0, np.abs(a)) < 1e-11), "cf/asymptotic"


# ---------------------------------------------------------------------------
# li


def test_li_reference_values():
    for x, want in LI_REF:
        assert li(x) == pytest.approx(want, rel=1e-12), x


def test_li_domain_errors():
    with pytest.raises(ValueError):
        li(1.0)
    with pytest.raises(ValueError):
        li(0.0)
    with pytest.raises(ValueError):
        li(-2.0)


def test_li_quadrature_agrees_with_series_route():
    # the PV quadrature and the Ei series route agree to 1e-9 over the band
    for x in (1.1, 1.5, 2.0, 10.0, 123.4, 1e4):
        assert abs(li_quadrature(x) - li(x)) < 1e-9, x
    assert abs(li_quadrature(0.5) - li(0.5)) < 1e-12


def test_li_continuity_at_anchor():
    base = li(2.0)
    for eps in (1e-3, 1e-6, 1e-9):
        assert abs(li(2.0 + eps) - base) < 2.0 * eps + 1e-12


# ---------------------------------------------------------------------------
# zeta on the real axis


def test_zeta_real_against_scipy():
    for s in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 30.0):
        want = float(scipy.special.zeta(s))
        assert zeta_real(s) == pytest.approx(want, rel=1e-13), s


def test_zeta_real_known_closed_forms():
    assert zeta_real(2.0) == pytest.approx(pi ** 2 / 6.0, rel=1e-14)
    assert zeta_real(4.0) == pytest.approx(pi ** 4 / 90.0, rel=1e-14)


def test_zeta_real_domain():
    with pytest.raises(ValueError):
        zeta_real(1.0)
    with pytest.raises(ValueError):
        zeta_real(0.5)


# ---------------------------------------------------------------------------
# Riemann-Siegel Z


def test_rs_z_reference_values():
    for t, want in SIEGELZ_REF:
        assert rs_z(t) == pytest.approx(want, abs=0.02), t


def test_rs_z_sign_change_at_first_zero():
    g1 = 14.134725141735
    assert rs_z(g1 - 0.2) * rs_z(g1 + 0.2) < 0


def test_rs_theta_monotone_growth():
    ts = np.linspace(10.0, 300.0, 50)
    vals = [rs_theta(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals[20:], vals[21:]))  # increasing past t~18
    with pytest.raises(ValueError):
        rs_theta(0.0)
    with pytest.raises(ValueError):
        rs_z(5.0)
