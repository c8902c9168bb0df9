import math

import numpy as np
import pytest

from tfim_rfs import (
    ChainSpec,
    ConsistencyError,
    CorrelatorSet,
    SingularBlockError,
    build_rdm,
    correlators_finite,
    rdm_blocks,
    rfs_closed_form,
)


def rdm_at(n, lam):
    return build_rdm(correlators_finite(ChainSpec(n, lam)))


class TestBuildRdm:
    def test_zero_coupling_product_state(self):
        rho = rdm_at(1024, 0.0)
        assert rho.u_plus == pytest.approx(1.0, abs=1e-14)
        assert rho.u_minus == pytest.approx(0.0, abs=1e-14)
        assert rho.w == pytest.approx(0.0, abs=1e-14)
        assert rho.z_plus == pytest.approx(0.0, abs=1e-14)
        assert rho.z_minus == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(SingularBlockError):
            rfs_closed_form(rho)

    def test_critical_elements(self):
        rho = rdm_at(2 ** 14, 1.0)
        u_plus_ref = (1 + 4 / math.pi + 16 / (3 * math.pi ** 2)) / 4
        assert rho.u_plus == pytest.approx(u_plus_ref, abs=1e-6)
        assert rho.z_minus == pytest.approx(2 / (3 * math.pi), abs=1e-6)

    def test_critical_z_minus_derivative(self):
        rho = rdm_at(2 ** 14, 1.0)
        assert rho.d_z_minus == pytest.approx(1 / (3 * math.pi), abs=1e-3)

    @pytest.mark.parametrize("lam", [0.2, 0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_traces(self, lam, n):
        rho = rdm_at(n, lam)
        assert abs(rho.u_plus + rho.u_minus + 2 * rho.w - 1.0) <= 1e-14
        assert abs(rho.d_u_plus + rho.d_u_minus + 2 * rho.d_w) <= 1e-12

    @pytest.mark.parametrize("lam", np.linspace(0.2, 2.0, 13))
    def test_positive_spectrum(self, lam):
        rho = rdm_at(64, float(lam))
        (b1, _), (b2, _) = rdm_blocks(rho)
        eigs = np.concatenate([np.linalg.eigvalsh(b1), np.linalg.eigvalsh(b2)])
        assert eigs.min() >= 1e-6
        assert rfs_closed_form(rho).chi > 0.0

    def test_positivity_violation_rejected(self):
        # magnitudes are legal but u_minus = (1 - 2 sz + zz)/4 goes negative
        bad = CorrelatorSet(0.9, 0.9, 0.9, 0.0, 0, 0, 0, 0, regime="finite")
        with pytest.raises(ConsistencyError):
            build_rdm(bad)

    def test_divergent_derivatives_rejected(self):
        from tfim_rfs import correlators_thermo
        with pytest.raises(ValueError):
            build_rdm(correlators_thermo(1.0))

    def test_affine_in_correlators(self):
        a = correlators_finite(ChainSpec(256, 0.6))
        b = correlators_finite(ChainSpec(256, 1.4))
        alpha = 0.3
        fields = ("sz", "xx", "yy", "d_sz", "d_xx", "d_yy", "d_zz")
        mixed = {f: alpha * getattr(a, f) + (1 - alpha) * getattr(b, f) for f in fields}
        mix = CorrelatorSet(
            mixed["sz"], mixed["xx"], mixed["yy"],
            mixed["sz"] ** 2 - mixed["xx"] * mixed["yy"],  # keep the identity
            mixed["d_sz"], mixed["d_xx"], mixed["d_yy"], mixed["d_zz"],
            regime="finite",
        )
        rho_mix = build_rdm(mix)
        rho_a, rho_b = build_rdm(a), build_rdm(b)
        # the element map is affine in (sz, xx, yy, zz); compare on elements
        # built from the mixed zz actually used
        u_plus = (1 + 2 * mix.sz + mix.zz) / 4
        z_plus = (mix.xx + mix.yy) / 4
        assert rho_mix.u_plus == pytest.approx(u_plus, abs=1e-15)
        assert rho_mix.z_plus == pytest.approx(z_plus, abs=1e-15)
        # derivative elements mix exactly (the derivative map is linear)
        assert rho_mix.d_z_minus == pytest.approx(
            alpha * rho_a.d_z_minus + (1 - alpha) * rho_b.d_z_minus, abs=1e-15)
        assert rho_mix.d_w == pytest.approx(
            alpha * rho_a.d_w + (1 - alpha) * rho_b.d_w, abs=1e-15)


class TestRdmBlocks:
    def test_block_layout_and_trace(self):
        rho = rdm_at(512, 0.9)
        (b1, db1), (b2, db2) = rdm_blocks(rho)
        assert b1[0, 0] == rho.u_plus and b1[1, 1] == rho.u_minus
        assert b1[0, 1] == b1[1, 0] == rho.z_minus
        assert b2[0, 0] == b2[1, 1] == rho.w
        assert b2[0, 1] == b2[1, 0] == rho.z_plus
        assert np.trace(b1) + np.trace(b2) == pytest.approx(1.0, abs=1e-14)
        assert db1[0, 1] == rho.d_z_minus and db2[0, 1] == rho.d_z_plus

    def test_zero_coupling_second_block_vanishes(self):
        (_, _), (b2, _) = rdm_blocks(rdm_at(64, 0.0))
        np.testing.assert_allclose(b2, 0.0, atol=1e-14)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_eigenvalues_form_distribution(self, lam):
        (b1, _), (b2, _) = rdm_blocks(rdm_at(1024, lam))
        eigs = np.concatenate([np.linalg.eigvalsh(b1), np.linalg.eigvalsh(b2)])
        assert np.all(eigs >= 0.0) and np.all(eigs <= 1.0)
        assert math.fsum(eigs) == pytest.approx(1.0, abs=1e-14)
