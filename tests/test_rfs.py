import math

import numpy as np
import pytest

from tfim_rfs import (
    ChainSpec,
    ConsistencyError,
    SingularBlockError,
    TwoSiteRdm,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    data_collapse,
    find_peak,
    rfs_closed_form,
    rfs_oracle,
    susceptibility,
    susceptibility_slope,
    susceptibility_thermo,
)
from tfim_rfs.rfs import (
    _chi_finite_cached,
    _oracle_estimate,
    _susceptibility_finite_array,
    _susceptibility_thermo_array,
    _uhlmann_fidelity,
)
from test_exact import PLAIN_LAMS


def rdm_at(n, lam):
    return build_rdm(correlators_finite(ChainSpec(n, lam)))


class TestClosedForm:
    def test_blocks_sum_to_total(self):
        value = rfs_closed_form(rdm_at(512, 0.9))
        assert value.chi == pytest.approx(value.chi_block1 + value.chi_block2, rel=1e-15)
        assert value.chi >= 0.0

    @pytest.mark.parametrize("n,lam", [
        *((n, lam) for n in (64, 1024) for lam in (0.3, 0.95, 1.0, 1.6)),
        *(("thermo", 1.0 + s * d) for d in (1e-1, 1e-3, 1e-5) for s in (-1.0, 1.0)),
        ("thermo", 0.3),
        ("thermo", 1.6),
    ])
    def test_expanded_equals_generic(self, n, lam, eigen_qfi_chi):
        # The generic form is the QFI of the blocks' eigen-decomposition, a
        # different formula from the closed form's det/trace algebra.
        c = correlators_thermo(lam) if n == "thermo" else correlators_finite(ChainSpec(n, lam))
        assert rfs_closed_form(build_rdm(c)).chi == pytest.approx(eigen_qfi_chi(c), rel=1e-14)

    def test_zero_derivative_gives_zero(self):
        rho = rdm_at(256, 0.7)
        frozen = TwoSiteRdm(rho.u_plus, rho.u_minus, rho.w, rho.z_plus, rho.z_minus,
                            0.0, 0.0, 0.0, 0.0, 0.0)
        assert rfs_closed_form(frozen).chi == 0.0

    def test_singular_block_rejected(self):
        with pytest.raises(SingularBlockError):
            rfs_closed_form(rdm_at(64, 0.0))

    @pytest.mark.parametrize("n,lam,block1,block2", [
        (12, 0.9, "0x1.03d9b00c05ce0p-2", "0x1.4ef8eb4dc821dp-1"),
        (64, 1.0, "0x1.79a2c3db1fcf0p-1", "0x1.c955a9a88addcp+0"),
        (4096, 0.999, "0x1.ac20fe7c9ddabp+0", "0x1.27be6d5e14fe2p+2"),
        ("thermo", 0.5, "0x1.37476e189e212p-4", "0x1.6c46b188d6045p-3"),
        ("thermo", 1.5, "0x1.1517afb20e617p-5", "0x1.c3d4e51a1f516p-7"),
    ])
    def test_block_terms_pinned(self, n, lam, block1, block2):
        # Bit patterns of the per-block terms as first computed from the
        # block-specific expanded expressions; the generic per-block routine
        # reproduces them exactly.
        rho = build_rdm(correlators_thermo(lam)) if n == "thermo" else rdm_at(n, lam)
        value = rfs_closed_form(rho)
        assert (value.chi_block1.hex(), value.chi_block2.hex()) == (block1, block2)
        assert value.chi == value.chi_block1 + value.chi_block2

    @pytest.mark.parametrize("n,lam,slope", [
        (4, 0.7, "-0x1.352d61e4392ecp-6"),
        (4, 1.3, "-0x1.937b6b60b1486p-2"),
        (64, 1.0, "-0x1.1b46b53e069b3p+3"),
        (512, 0.999, "0x1.04ec39b803a18p+8"),
        (2**14, 0.9999, "0x1.95358540e3da0p+14"),
        (2**14, 1.0, "-0x1.438cde3396026p+6"),
    ])
    def test_slope_pinned(self, n, lam, slope):
        # Bit patterns of dchi/dlam, the function the peak search solves, from
        # the per-block slope on the closed form's own blocks and chi_b.
        assert susceptibility_slope(n, lam).hex() == slope

    @pytest.mark.parametrize("lam,dets", [
        (0.0, "det1=0.000e+00, det2=0.000e+00"),
        (1e-13, "det1=-6.245e-28, det2=-8.560e-35"),
    ])
    def test_singular_block_reports_both_determinants(self, lam, dets):
        with pytest.raises(SingularBlockError) as info:
            rfs_closed_form(rdm_at(12, lam))
        assert str(info.value) == f"singular block ({dets}); use the fidelity oracle instead"

    @pytest.mark.parametrize("lam,smallest", [
        (1e-11, "-2.356e-06"), (1e-9, "-2.356e-08"), (1e-8, "-5.890e-10"),
    ])
    def test_thermo_cancellation_rejected(self, lam, smallest):
        # Near lam = 0 the thermodynamic block 2 loses its digits to
        # cancellation; its determinant is below 1e-15 in magnitude, but its
        # smaller eigenvalue is clearly negative.
        with pytest.raises(ConsistencyError, match=f"RDM block 2 .* {smallest}$"):
            susceptibility_thermo(lam)

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


def test_array_pass_flags_exactly_the_scalar_failures():
    # |1 - lam| log-uniform in [1e-7, 1] on both branches, where no modulus
    # rounds to 1, and lam log-uniform in [1e-12, 1e110], which reaches the
    # indefinite blocks near 0, the singular blocks and the NaN values.
    rng = np.random.default_rng(2024)
    gaps = 10.0 ** -rng.uniform(0.0, 7.0, 8000)
    lams = np.concatenate([1.0 - gaps, 1.0 + gaps, 10.0 ** rng.uniform(-12.0, 110.0, 2000)])
    chi, ok = _susceptibility_thermo_array(lams)
    raised = 0
    for lam, value, passed in zip(lams.tolist(), chi.tolist(), ok.tolist()):
        try:
            expected = susceptibility_thermo(lam)
        except (ValueError, ConsistencyError):
            assert not passed, lam
            raised += 1
            continue
        assert passed and value.hex() == expected.hex(), lam
    assert 0 < raised < len(lams)


@pytest.mark.parametrize("n", [12, 64, 4096, 2 ** 15, 2 ** 16, 2 ** 17])
def test_finite_array_pass_is_bitwise_the_scalar_path(n):
    # The couplings of PLAIN_LAMS, a few that ChainSpec or the overflow check
    # rejects, and the 41 of the collapse window around the peak.  Up to N =
    # 2^15 one pass holds several couplings, each a row of a 2-d block; at
    # 2^15 a row of 16384 modes is longer than numpy's default iterator
    # buffer.  Above 2^15 each coupling goes alone, as a float; at 2^17 its
    # modes split into two blocks, added along the pairwise tree.
    window = find_peak(n).lambda_m + np.linspace(-10.0, 10.0, 41) / n
    lams = np.concatenate([PLAIN_LAMS, [-0.0, -1e-300, math.nan, math.inf, 1e155], window])
    chi, ok = _susceptibility_finite_array(n, lams)
    passed = 0
    for lam, value, flagged in zip(lams.tolist(), chi.tolist(), (~ok).tolist()):
        try:
            expected = susceptibility(n, lam)
        except (ValueError, ConsistencyError):
            assert flagged, lam
            continue
        assert not flagged and value.hex() == expected.hex(), lam
        passed += 1
    assert passed >= 41


class TestSusceptibilityMemo:
    def test_bounded(self):
        for k in range(200):
            susceptibility(16, 0.5 + k * 1e-3)
        info = _chi_finite_cached.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64

    def test_float_size_raises_after_its_integer_is_cached(self):
        # 64.0 == 64 with one hash, so a memo keyed on (n_sites, lam) would
        # answer the float N from the entry of N = 64.  The ChainSpec key
        # raises first.
        susceptibility(64, 1.0)
        with pytest.raises(ValueError, match="n_sites must be an integer, got 64.0"):
            susceptibility(64.0, 1.0)

    def test_collapse_reads_back_the_peak(self):
        # find_peak writes chi at lam_m; the collapse's w = 0 sample of each
        # size reads that entry back.
        sizes = (64, 128, 256)
        _chi_finite_cached.cache_clear()
        peaks = {n: find_peak(n) for n in sizes}
        hits = _chi_finite_cached.cache_info().hits
        data_collapse(sizes, peaks=peaks)
        assert _chi_finite_cached.cache_info().hits == hits + len(sizes)


class TestUhlmannFidelity:
    def test_self_fidelity_is_one(self):
        rho = rdm_at(512, 0.9)
        assert _uhlmann_fidelity(rho, rho) == 1.0

    def test_symmetric(self):
        a, b = rdm_at(256, 0.7), rdm_at(256, 0.9)
        assert _uhlmann_fidelity(a, b) == pytest.approx(_uhlmann_fidelity(b, a), rel=1e-15)

    def test_pure_state_overlap(self):
        # rank-one blocks reduce the fidelity to the state overlap |<psi|phi>|
        def pure(theta):
            v = (math.cos(theta), math.sin(theta))
            return TwoSiteRdm(v[0] * v[0], v[1] * v[1], 0.0, 0.0, v[0] * v[1],
                              0, 0, 0, 0, 0)
        t1, t2 = 0.3, 1.1
        overlap = abs(math.cos(t1 - t2))
        assert _uhlmann_fidelity(pure(t1), pure(t2)) == pytest.approx(overlap, abs=1e-12)

    def test_quadratic_decay_matches_susceptibility(self):
        spec = ChainSpec(512, 0.9)
        chi = rfs_closed_form(rdm_at(512, 0.9)).chi
        delta = 1e-4
        fid = _uhlmann_fidelity(rdm_at(512, 0.9), rdm_at(512, 0.9 + delta))
        assert abs(fid - (1.0 - chi * delta * delta / 2.0)) <= 10.0 * delta ** 3

    def test_bounded_by_one(self):
        for lam in (0.3, 0.8, 1.0):
            f = _uhlmann_fidelity(rdm_at(128, lam), rdm_at(128, lam + 0.05))
            assert 0.0 < f < 1.0

    def test_negative_eigenvalue_rejected(self):
        # An indefinite block cannot reach the fidelity: the record rejects it.
        with pytest.raises(ConsistencyError, match="RDM block 1 "):
            TwoSiteRdm(0.5, 0.4, 0.05, 0.2, 0.5, 0, 0, 0, 0, 0)


class TestOracle:
    @pytest.mark.parametrize("lam,n,delta", [(0.5, 256, 1e-4), (1.0, 4096, 1e-5)])
    def test_agrees_with_closed_form(self, lam, n, delta):
        value = rfs_oracle(ChainSpec(n, lam), delta)
        assert value.discrepancy is not None and value.discrepancy <= 1e-3

    def test_raw_estimate_halving_converges(self):
        spec = ChainSpec(256, 0.9)
        e1 = _oracle_estimate(spec, 1e-3)
        e2 = _oracle_estimate(spec, 5e-4)
        e3 = _oracle_estimate(spec, 2.5e-4)
        assert abs(e1 - e2) / abs(e2 - e3) >= 2.0

    def test_extrapolation_beats_raw(self):
        spec = ChainSpec(512, 0.95)
        chi = rfs_closed_form(rdm_at(512, 0.95)).chi
        raw_error = abs(_oracle_estimate(spec, 1e-4) - chi)
        assert abs(rfs_oracle(spec, 1e-4).chi - chi) < raw_error

    def test_singular_closed_form_leaves_no_discrepancy(self):
        # At lam = 1e-3 and N = 8 a block determinant is below 1e-12, so the
        # closed form raises; the oracle still gives chi, with nothing to compare.
        with pytest.raises(SingularBlockError):
            rfs_closed_form(rdm_at(8, 1e-3))
        value = rfs_oracle(ChainSpec(8, 1e-3), 1e-6)
        assert math.isfinite(value.chi) and value.discrepancy is None

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
