import math

import numpy as np
import pytest

from tfim_rfs import (
    ChainSpec,
    SingularBlockError,
    TwoSiteRdm,
    block_susceptibility,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    oracle_estimate,
    rdm_blocks,
    rfs_closed_form,
    rfs_oracle,
    susceptibility,
    uhlmann_fidelity,
)


def rdm_at(n, lam):
    return build_rdm(correlators_finite(ChainSpec(n, lam)))


class TestClosedForm:
    def test_blocks_sum_to_total(self):
        value = rfs_closed_form(rdm_at(512, 0.9))
        assert value.method == "closed_form"
        assert value.chi == pytest.approx(value.chi_block1 + value.chi_block2, rel=1e-15)
        assert value.chi >= 0.0

    @pytest.mark.parametrize("n,lam", [
        *((n, lam) for n in (64, 1024) for lam in (0.3, 0.95, 1.0, 1.6)),
        *(("thermo", 1.0 + s * d) for d in (1e-1, 1e-3, 1e-5) for s in (-1.0, 1.0)),
        ("thermo", 0.3),
        ("thermo", 1.6),
    ])
    def test_expanded_equals_generic(self, n, lam):
        rho = build_rdm(correlators_thermo(lam)) if n == "thermo" else rdm_at(n, lam)
        value = rfs_closed_form(rho)
        (b1, db1), (b2, db2) = rdm_blocks(rho)
        generic = block_susceptibility(b1, db1) + block_susceptibility(b2, db2)
        assert value.chi == pytest.approx(generic, rel=1e-10)

    def test_zero_derivative_gives_zero(self):
        rho = rdm_at(256, 0.7)
        frozen = TwoSiteRdm(rho.u_plus, rho.u_minus, rho.w, rho.z_plus, rho.z_minus,
                            0.0, 0.0, 0.0, 0.0, 0.0)
        assert rfs_closed_form(frozen).chi == 0.0

    def test_singular_block_rejected(self):
        with pytest.raises(SingularBlockError):
            rfs_closed_form(rdm_at(64, 0.0))

    @pytest.mark.parametrize("n", [64, 512, 8192])
    def test_nonnegative_over_sweep(self, n):
        for lam in np.linspace(0.05, 3.0, 30):
            assert susceptibility(n, float(lam)) >= 0.0

    @pytest.mark.parametrize("n,lam", [(1024.5, 1.0), ("1024", 1.0), (1024, "1.0")],
                             ids=["float_n", "str_n", "str_lam"])
    def test_susceptibility_validates_like_chain_spec(self, n, lam):
        with pytest.raises(ValueError):
            susceptibility(n, lam)

    def test_peak_sharpens_and_moves_toward_critical(self):
        lams = np.linspace(0.8, 1.2, 81)
        heights, positions = [], []
        for n in (12, 52, 252):
            chis = [susceptibility(n, float(l)) for l in lams]
            i = int(np.argmax(chis))
            assert 0 < i < len(lams) - 1
            heights.append(chis[i])
            positions.append(lams[i])
        assert heights[0] < heights[1] < heights[2]
        assert abs(positions[0] - 1) > abs(positions[1] - 1) >= abs(positions[2] - 1)


class TestUhlmannFidelity:
    def test_self_fidelity_is_one(self):
        rho = rdm_at(512, 0.9)
        assert uhlmann_fidelity(rho, rho) == 1.0

    def test_symmetric(self):
        a, b = rdm_at(256, 0.7), rdm_at(256, 0.9)
        assert uhlmann_fidelity(a, b) == pytest.approx(uhlmann_fidelity(b, a), rel=1e-15)

    def test_pure_state_overlap(self):
        # rank-one blocks reduce the fidelity to the state overlap |<psi|phi>|
        def pure(theta):
            v = (math.cos(theta), math.sin(theta))
            return TwoSiteRdm(v[0] * v[0], v[1] * v[1], 0.0, 0.0, v[0] * v[1],
                              0, 0, 0, 0, 0)
        t1, t2 = 0.3, 1.1
        overlap = abs(math.cos(t1 - t2))
        assert uhlmann_fidelity(pure(t1), pure(t2)) == pytest.approx(overlap, abs=1e-12)

    def test_quadratic_decay_matches_susceptibility(self):
        spec = ChainSpec(512, 0.9)
        chi = rfs_closed_form(rdm_at(512, 0.9)).chi
        delta = 1e-4
        fid = uhlmann_fidelity(rdm_at(512, 0.9), rdm_at(512, 0.9 + delta))
        assert abs(fid - (1.0 - chi * delta * delta / 2.0)) <= 10.0 * delta ** 3

    def test_bounded_by_one(self):
        for lam in (0.3, 0.8, 1.0):
            f = uhlmann_fidelity(rdm_at(128, lam), rdm_at(128, lam + 0.05))
            assert 0.0 < f < 1.0

    def test_negative_eigenvalue_rejected(self):
        broken = TwoSiteRdm(0.5, 0.4, 0.05, 0.2, 0.5, 0, 0, 0, 0, 0)  # block1 indefinite
        good = rdm_at(64, 0.5)
        with pytest.raises(ValueError):
            uhlmann_fidelity(broken, good)


class TestOracle:
    @pytest.mark.parametrize("lam,n,delta", [(0.5, 256, 1e-4), (1.0, 4096, 1e-5)])
    def test_agrees_with_closed_form(self, lam, n, delta):
        value = rfs_oracle(ChainSpec(n, lam), delta)
        assert value.method == "oracle"
        assert value.oracle_delta == delta
        assert value.discrepancy is not None and value.discrepancy <= 1e-3

    def test_raw_estimate_halving_converges(self):
        spec = ChainSpec(256, 0.9)
        e1 = oracle_estimate(spec, 1e-3)
        e2 = oracle_estimate(spec, 5e-4)
        e3 = oracle_estimate(spec, 2.5e-4)
        assert abs(e1 - e2) / abs(e2 - e3) >= 2.0

    def test_extrapolation_beats_raw(self):
        spec = ChainSpec(512, 0.95)
        chi = rfs_closed_form(rdm_at(512, 0.95)).chi
        raw_error = abs(oracle_estimate(spec, 1e-4) - chi)
        assert abs(rfs_oracle(spec, 1e-4).chi - chi) < raw_error

    @pytest.mark.parametrize("delta", [1e-7, 5e-3, 0.0])
    def test_step_bounds(self, delta):
        with pytest.raises(ValueError):
            rfs_oracle(ChainSpec(64, 0.5), delta)

    def test_grid_agreement(self):
        # 10 couplings (away from lam < 1e-2) x 5 sizes
        lams = (0.05, 0.2, 0.5, 0.8, 0.95, 1.0, 1.05, 1.3, 1.8, 2.5)
        for lam in lams:
            for n in (64, 128, 512, 2048, 8192):
                value = rfs_oracle(ChainSpec(n, lam), 1e-4)
                assert value.discrepancy <= 1e-3, (lam, n, value.discrepancy)

    def test_smooth_away_from_peak(self):
        # second differences of chi(lam) stay modest off-peak, huge on-peak
        n = 1024
        h = 1e-3
        def second(lam):
            return (susceptibility(n, lam + h) - 2 * susceptibility(n, lam)
                    + susceptibility(n, lam - h)) / h ** 2
        assert abs(second(0.5)) < 1e3
        assert abs(second(1.0)) > 1e4
