import math
import re
from functools import lru_cache

import numpy as np
import pytest

import tfim_rfs.exact
from tfim_rfs import (
    ChainSpec,
    CorrelatorSet,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    momentum_grid,
    susceptibility,
    susceptibility_slope,
)

FIELDS = ("sz", "xx", "yy", "zz")
DERIVS = ("d_sz", "d_xx", "d_yy", "d_zz")

CRITICAL = {
    "sz": 2.0 / math.pi,
    "xx": 2.0 / math.pi,
    "yy": -2.0 / (3.0 * math.pi),
    "zz": 16.0 / (3.0 * math.pi ** 2),
}


def fd6(fn, x, h=1e-5):
    # 6th-order central difference; truncation stays below 1e-7 even where
    # the 2-point stencil would not.
    return (-fn(x - 3 * h) + 9 * fn(x - 2 * h) - 45 * fn(x - h)
            + 45 * fn(x + h) - 9 * fn(x + 2 * h) + fn(x + 3 * h)) / (60 * h)


class TestMomentumGrid:
    def test_four_sites(self):
        phi = momentum_grid(ChainSpec(4, 1.0))
        expected = np.array([-3, -1, 1, 3]) * math.pi / 4
        np.testing.assert_allclose(phi, expected, atol=1e-15)

    def test_six_sites_minimum_angle(self):
        phi = momentum_grid(ChainSpec(6, 1.0))
        assert len(phi) == 6
        assert np.min(np.abs(phi)) == pytest.approx(math.pi / 6, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 64, 1000])
    def test_cosines_sum_to_zero(self, n):
        phi = momentum_grid(ChainSpec(n, 0.5))
        assert abs(math.fsum(np.cos(phi))) <= 1e-12

    @pytest.mark.parametrize("n", [4, 30, 256])
    def test_negation_symmetry_and_open_endpoints(self, n):
        phi = momentum_grid(ChainSpec(n, 1.0))
        assert len(phi) == n
        np.testing.assert_allclose(np.sort(-phi), np.sort(phi), atol=1e-15)
        assert np.all(np.abs(phi) > 0.0)
        assert np.all(np.abs(np.abs(phi) - math.pi) > 1e-12)


class TestChainSpec:
    @pytest.mark.parametrize("n,lam", [(5, 1.0), (2, 1.0), (0, 1.0), (64, -0.1),
                                       (64, math.inf), (64, math.nan), (6.5, 1.0)])
    def test_invalid(self, n, lam):
        with pytest.raises(ValueError):
            ChainSpec(n, lam)

    def test_valid_normalizes(self):
        spec = ChainSpec(np.int64(8), np.float64(0.5))
        assert spec.n_sites == 8 and spec.lam == 0.5


class TestFiniteCorrelators:
    def test_zero_coupling_polarized(self):
        c = correlators_finite(ChainSpec(1024, 0.0))
        assert c.sz == pytest.approx(1.0, abs=1e-14)
        assert c.xx == pytest.approx(0.0, abs=1e-14)
        assert c.yy == pytest.approx(0.0, abs=1e-14)
        assert c.zz == pytest.approx(1.0, abs=1e-14)
        assert c.d_sz == pytest.approx(0.0, abs=1e-14)
        assert c.d_xx == pytest.approx(0.5, abs=1e-14)
        assert c.d_yy == pytest.approx(-0.5, abs=1e-14)
        assert c.d_zz == pytest.approx(0.0, abs=1e-14)

    def test_critical_values_large_chain(self):
        n = 8192
        c = correlators_finite(ChainSpec(n, 1.0))
        for name in FIELDS:
            assert getattr(c, name) == pytest.approx(CRITICAL[name], abs=1.0 / n)

    @pytest.mark.parametrize("lam", [0.2, 0.8, 1.0, 1.3, 2.5])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_magnitudes_and_zz_identity(self, lam, n):
        c = correlators_finite(ChainSpec(n, lam))
        for name in FIELDS:
            assert abs(getattr(c, name)) <= 1.0 + 1e-12
        assert abs(c.zz - (c.sz * c.sz - c.xx * c.yy)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.2, 0.8, 1.0, 1.3])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_derivatives_match_finite_differences(self, lam, n):
        c = correlators_finite(ChainSpec(n, lam))
        for value, deriv in zip(FIELDS, DERIVS):
            fd = fd6(lambda x: getattr(correlators_finite(ChainSpec(n, x)), value), lam)
            assert abs(fd - getattr(c, deriv)) <= 1e-7

    def test_dispersion_positive_on_grid(self):
        # Why the finite sums need no omega > 0 check: the smallest table entry
        # is sin^2(pi/2N) > 0, so omega >= 2 sqrt(s) > 0 at lam = 1, and
        # omega >= |1 - lam| >= 2^-53 elsewhere.
        for n in (4, 12, 1024, 2 ** 20):
            s = tfim_rfs.exact._half_angle_table(n)
            assert float(s.min()) == pytest.approx(math.sin(math.pi / (2 * n)) ** 2, rel=1e-12)
            for lam in (1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52):
                c = correlators_finite(ChainSpec(n, lam))
                assert all(math.isfinite(getattr(c, name)) for name in FIELDS)

    @pytest.mark.parametrize("lam", [1e155, 1.7e308])
    def test_overflowing_gap_rejected(self, lam):
        # (1 - lam)^2 overflows: omega would be inf and every correlator 0.
        with pytest.raises(ValueError, match=re.escape(f"N=64, lam={lam}")):
            correlators_finite(ChainSpec(64, lam))
        with pytest.raises(ValueError, match="overflows"):
            susceptibility(64, lam)
        with pytest.raises(ValueError, match="overflows"):
            susceptibility_slope(64, lam)

    def test_largest_representable_gap_accepted(self):
        c = correlators_finite(ChainSpec(64, 1.34e154))
        assert c.xx == pytest.approx(1.0, abs=1e-12)

    def test_critical_magnetization_derivative_finite_difference(self):
        n = 8192
        fd = fd6(lambda x: correlators_finite(ChainSpec(n, x)).sz, 1.0)
        assert abs(fd - correlators_finite(ChainSpec(n, 1.0)).d_sz) <= 1e-7

    def test_critical_magnetization_derivative_log_growth(self):
        # d_sz tracks -(ln N)/pi up to an N-independent offset
        offsets = []
        for n in (2048, 8192, 32768):
            c = correlators_finite(ChainSpec(n, 1.0))
            offsets.append(c.d_sz + math.log(n) / math.pi)
        assert abs(offsets[0] - offsets[1]) < 0.01
        assert abs(offsets[1] - offsets[2]) < 0.01


@lru_cache(maxsize=None)
def _reference_table(reference, n):
    with reference.mp.workdps(reference.FINITE_DPS):
        return reference.mode_table(n)


class TestMpmathReference:
    @pytest.mark.parametrize("n,lam", [(512, 1.0), (4096, 1.0), (4096, 0.95),
                                       (4096, 1.003), (1024, 0.3), (1024, 2.5)])
    def test_correlators_and_chi(self, n, lam, reference):
        mp = reference.mp
        table = _reference_table(reference, n)
        c = correlators_finite(ChainSpec(n, lam))
        chi = susceptibility(n, lam)
        with mp.workdps(reference.FINITE_DPS):
            sz, xx, yy, d_sz, d_xx, d_yy = reference.correlators_finite(lam, table)
            expected = {
                "sz": sz, "xx": xx, "yy": yy, "zz": sz * sz - xx * yy,
                "d_sz": d_sz, "d_xx": d_xx, "d_yy": d_yy,
                "d_zz": 2 * sz * d_sz - d_xx * yy - xx * d_yy,
            }
            for name, value in expected.items():
                assert abs(getattr(c, name) - value) <= 1e-13 * abs(value), name
            ref_chi = reference.chi_from_correlators(sz, xx, yy, d_sz, d_xx, d_yy)
            assert abs(chi - ref_chi) <= 1e-13 * ref_chi

    # Below the peak (slope > 0), above it (slope < 0) and at lam = 1, where
    # the peak sits at 0.952, 0.997 and 0.999998 for N = 12, 64 and 4096.
    @pytest.mark.parametrize("n,lam", [
        *((n, lam) for n in (12, 64) for lam in (0.9, 0.99, 1.0, 1.05)),
        *((4096, lam) for lam in (0.99, 0.999995, 1.0, 1.003)),
    ])
    def test_susceptibility_slope(self, n, lam, reference):
        mp = reference.mp
        table = _reference_table(reference, n)
        slope = susceptibility_slope(n, lam)
        with mp.workdps(reference.FINITE_DPS):
            expected = mp.diff(lambda x: reference.chi_finite(x, table), lam)
        assert abs(slope - expected) <= 1e-12 * abs(expected)


class TestThermoCorrelators:
    def test_critical_point_exact(self):
        c = correlators_thermo(1.0)
        for name in FIELDS:
            assert getattr(c, name) == pytest.approx(CRITICAL[name], abs=1e-12)
        assert c.derivatives_divergent
        assert c.d_sz == -math.inf and c.d_zz == -math.inf
        assert c.d_xx == math.inf and c.d_yy == math.inf

    def test_zero_coupling(self):
        c = correlators_thermo(0.0)
        assert (c.sz, c.xx, c.yy, c.zz) == (1.0, 0.0, 0.0, 1.0)
        assert (c.d_sz, c.d_xx, c.d_yy, c.d_zz) == (0.0, 0.5, -0.5, 0.0)

    def test_matches_large_chain(self):
        fin = correlators_finite(ChainSpec(2 ** 16, 0.5))
        th = correlators_thermo(0.5)
        for name in FIELDS + DERIVS:
            assert abs(getattr(fin, name) - getattr(th, name)) <= 1e-6

    @pytest.mark.parametrize("n", [2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14])
    def test_convergence_bound(self, n):
        fin = correlators_finite(ChainSpec(n, 0.5))
        th = correlators_thermo(0.5)
        assert abs(fin.sz - th.sz) <= 1.0 / n

    def test_convergence_monotone_to_roundoff(self):
        # the gap shrinks with N until it hits the double-precision floor
        th = correlators_thermo(0.5)
        gaps = [abs(correlators_finite(ChainSpec(n, 0.5)).sz - th.sz)
                for n in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14)]
        for previous, current in zip(gaps, gaps[1:]):
            assert current <= max(previous, 1e-15)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9, 1.2, 2.0])
    def test_derivatives_match_finite_differences(self, lam):
        c = correlators_thermo(lam)
        for value, deriv in zip(FIELDS, DERIVS):
            fd = fd6(lambda x: getattr(correlators_thermo(x), value), lam)
            assert abs(fd - getattr(c, deriv)) <= 1e-9

    @pytest.mark.parametrize("lam", [0.4, 0.8, 1.1, 1.7])
    def test_magnetization_derivative_closed_form(self, lam):
        # independent reduction: d sz / d lam
        #   = (lam+1)/(pi lam) E(k) - (lam^2+1)/(pi lam (lam+1)) K(k)
        from tfim_rfs import elliptic_e, elliptic_k
        k = 2 * math.sqrt(lam) / (1 + lam)
        expected = ((lam + 1) / (math.pi * lam) * elliptic_e(k)
                    - (lam * lam + 1) / (math.pi * lam * (lam + 1)) * elliptic_k(k))
        assert correlators_thermo(lam).d_sz == pytest.approx(expected, rel=1e-12)

    def test_near_critical_log_divergence(self):
        lam = 0.999
        asym = -math.log(1.0 / abs(1.0 - lam)) / math.pi
        assert abs(correlators_thermo(lam).d_sz - asym) < 0.1

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            correlators_thermo(-0.2)


class TestLogDivergenceCoefficients:
    def test_xx_yy_combination_at_criticality(self):
        # d_xx + d_yy grows like (2/pi) ln N; d_xx - d_yy converges to 4/(3 pi)
        sizes = [2 ** k for k in range(10, 15)]
        sums = [correlators_finite(ChainSpec(n, 1.0)) for n in sizes]
        slope = np.polyfit(np.log(sizes), [c.d_xx + c.d_yy for c in sums], 1)[0]
        assert slope == pytest.approx(2 / math.pi, rel=0.02)
        assert sums[-1].d_xx - sums[-1].d_yy == pytest.approx(4 / (3 * math.pi), abs=1e-6)


class TestCorrelatorSetValidation:
    def test_magnitude_violation(self):
        with pytest.raises(ValueError):
            CorrelatorSet(1.5, 0.0, 0.0, 2.25, 0, 0, 0, 0, regime="finite")

    def test_zz_identity_violation(self):
        with pytest.raises(ValueError):
            CorrelatorSet(0.5, 0.1, 0.1, 0.9, 0, 0, 0, 0, regime="finite")

    def test_unflagged_infinite_derivative(self):
        # Nothing flags a divergence: an infinite derivative is read off the
        # values, and no finite derivative matrix is built from it.
        c = CorrelatorSet(0.5, 0.1, 0.1, 0.24, math.inf, 0, 0, 0, regime="finite")
        assert c.derivatives_divergent
        with pytest.raises(ValueError):
            build_rdm(c)
        assert correlators_thermo(1.0).derivatives_divergent

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            CorrelatorSet(0.5, 0.1, 0.1, 0.24, 0, 0, 0, 0, regime="bulk")
