import math

import numpy as np
import pytest

from tfim_rfs import elliptic_e, elliptic_k
from tfim_rfs.elliptic import _agm


def quad_k(k):
    quad = pytest.importorskip("scipy.integrate").quad
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_e(k):
    quad = pytest.importorskip("scipy.integrate").quad
    val, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def test_defining_values_at_zero():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert elliptic_e(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)


# (k, K(k), E(k)) as hex; 1 - 2^-52 is the largest double below 1.
AGM_PINS = [
    (0.0, "0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),
    (-0.0, "0x1.921fb54442d18p+0", "0x1.921fb54442d18p+0"),
    (0.5, "0x1.af8d55d323f79p+0", "0x1.77ab9a753a8f1p+0"),
    (0.9, "0x1.23e908bf392ffp+1", "0x1.2bf4568a84411p+0"),
    (1.0 - 2.0 ** -52, "0x1.30fc1931f09cap+4", "0x1.0000000000007p+0"),
]


@pytest.mark.parametrize("k,big_k,big_e", AGM_PINS, ids=[repr(k) for k, _, _ in AGM_PINS])
def test_agm_returns_the_public_pair(k, big_k, big_e):
    # The cached run holds (K, E) themselves, so elliptic_k and elliptic_e
    # each return one member of it, whichever of them runs the AGM.
    _agm.cache_clear()
    pair = _agm(k)
    _agm.cache_clear()
    e_first = elliptic_e(k)
    _agm.cache_clear()
    assert pair == (elliptic_k(k), e_first)
    assert (pair[0].hex(), pair[1].hex()) == (big_k, big_e)


def test_e_at_unit_modulus():
    assert elliptic_e(1.0) == 1.0


@pytest.mark.parametrize("k", [1.0, 1.5, -0.1])
def test_k_domain_errors(k):
    with pytest.raises(ValueError):
        elliptic_k(k)


@pytest.mark.parametrize("k", [1.0 + 1e-12, 2.0, -0.3])
def test_e_domain_errors(k):
    with pytest.raises(ValueError):
        elliptic_e(k)


@pytest.mark.parametrize("k", [0.05, 0.3, 0.6, 0.9, 0.99])
def test_against_quadrature(k):
    assert elliptic_k(k) == pytest.approx(quad_k(k), rel=1e-11)
    assert elliptic_e(k) == pytest.approx(quad_e(k), rel=1e-11)


def test_relative_accuracy_against_scipy():
    # scipy.special uses the parameter m = k^2
    scipy_special = pytest.importorskip("scipy.special")
    for k in np.linspace(0.0, 0.999, 200):
        m = k * k
        assert elliptic_k(k) == pytest.approx(float(scipy_special.ellipk(m)), rel=1e-12)
        assert elliptic_e(k) == pytest.approx(float(scipy_special.ellipe(m)), rel=1e-12)


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
def test_legendre_relation(k):
    kp = math.sqrt(1.0 - k * k)
    lhs = (elliptic_e(k) * elliptic_k(kp) + elliptic_e(kp) * elliptic_k(k)
           - elliptic_k(k) * elliptic_k(kp))
    assert abs(lhs - math.pi / 2.0) <= 1e-10


def test_log_asymptote_near_unit_modulus():
    # K(k) approaches ln(4 / sqrt(1 - k^2)); the gap shrinks as k -> 1.
    gaps = []
    for k in (1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6):
        kp_sq = (1.0 - k) * (1.0 + k)
        gaps.append(abs(elliptic_k(k) - math.log(4.0 / math.sqrt(kp_sq))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-5
    # independent quadrature of the defining integral at the extreme point
    k = 1.0 - 1e-6
    assert elliptic_k(k) == pytest.approx(quad_k(k), abs=1e-8)


def test_against_mpmath_near_unit_modulus():
    # The thermodynamic modulus k = 2 sqrt(lam) / (1 + lam) at |1 - lam| =
    # 1e-1, 10^-1.5, ..., 1e-8 on both branches, less 1 + 10^-7.5 and
    # 1 + 1e-8, where k rounds to 1.  mpmath takes the parameter m = k^2.
    # K of one modulus comes before E of the next, so a result reused from
    # another modulus would show.  Measured worst errors: 4.3e-16 in K and
    # 2.4e-15 in E.
    mpmath = pytest.importorskip("mpmath")
    lams = [1.0 + sign * 10.0 ** (-twice_e / 2.0) for twice_e in range(2, 17) for sign in (-1, 1)]
    moduli = [k for k in (2.0 * math.sqrt(lam) / (1.0 + lam) for lam in lams) if k < 1.0]
    assert len(moduli) == 28
    with mpmath.workdps(40):
        for k, k_next in zip(moduli, moduli[1:] + moduli[:1]):
            big_k, big_e = elliptic_k(k), elliptic_e(k_next)
            ref_k = mpmath.ellipk(mpmath.mpf(k) ** 2)
            ref_e = mpmath.ellipe(mpmath.mpf(k_next) ** 2)
            assert abs((big_k - ref_k) / ref_k) <= 1e-15, k
            assert abs((big_e - ref_e) / ref_e) <= 5e-15, k_next


@pytest.mark.parametrize("k", [np.float32(0.7), np.float64(0.7), np.float32(0.999), np.float64(0.3),
                               0, np.int64(0), np.float32(0.0)])
def test_any_real_k_gives_the_float_of_float_k(k):
    # Both integrals run in double precision on float(k) and return Python
    # floats: a float32 k no longer rounds the AGM to single precision, and a
    # numpy scalar k no longer makes E a numpy scalar.  K of another modulus
    # first empties the one-entry cache, since k and float(k) share an entry.
    elliptic_k(0.5)
    big_e, big_k = elliptic_e(k), elliptic_k(k)
    elliptic_k(0.5)
    reference_e, reference_k = elliptic_e(float(k)), elliptic_k(float(k))
    assert type(big_e) is float and type(big_k) is float
    assert (big_k.hex(), big_e.hex()) == (reference_k.hex(), reference_e.hex())


def test_float32_modulus_is_not_rounded_to_single_precision():
    # float32(0.7) is 0.699999988079071; its K and E from mpmath at 30 digits.
    # The AGM in single precision gave K 1.5e-8 off.
    k = np.float32(0.7)
    assert elliptic_k(k) == pytest.approx(1.8456939845385258, rel=1e-15)
    assert elliptic_e(k) == pytest.approx(1.3556611439171653, rel=1e-15)
