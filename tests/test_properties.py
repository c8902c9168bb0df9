"""Hypothesis property tests of the correlators and the susceptibility."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tfim_rfs import (  # noqa: E402
    ChainSpec,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    susceptibility,
    susceptibility_thermo,
)
from test_fidelity_bounds import global_susceptibility, one_site_susceptibility  # noqa: E402

# Fixed example sequence, so a tier-1 run is reproducible.
PROPERTIES = settings(max_examples=50, deadline=None, derandomize=True)

EVEN_SIZES = st.integers(min_value=2, max_value=2048).map(lambda k: 2 * k)
COUPLINGS = st.floats(min_value=0.01, max_value=5.0)
WIDE_COUPLINGS = st.floats(min_value=0.01, max_value=100.0)
# lam in [0.05, 5] with |1 - lam| >= 0.05: the correlation length stays
# below ~20 sites, so N >= 1024 is in the thermodynamic limit to roundoff.
OFF_CRITICAL = st.floats(min_value=0.05, max_value=0.95) | st.floats(min_value=1.05, max_value=5.0)
LARGE_SIZES = st.sampled_from([1024, 2048, 4096])

FIELDS = ("sz", "xx", "yy", "zz")
DERIVS = ("d_sz", "d_xx", "d_yy", "d_zz")


@PROPERTIES
@given(n=EVEN_SIZES, lam=COUPLINGS)
def test_kramers_wannier_duality(n, lam):
    # On the half-odd grid the ring maps exactly onto itself under
    # lam -> 1/lam with sz and xx exchanged.
    sz = correlators_finite(ChainSpec(n, lam)).sz
    xx_dual = correlators_finite(ChainSpec(n, 1.0 / lam)).xx
    assert sz == pytest.approx(xx_dual, rel=1e-13, abs=0.0)


@PROPERTIES
@given(n=EVEN_SIZES, lam=COUPLINGS)
def test_correlators_bounded_and_chi_positive(n, lam):
    c = correlators_finite(ChainSpec(n, lam))
    assert all(abs(getattr(c, f)) <= 1.0 for f in FIELDS)
    build_rdm(c)
    assert susceptibility(n, lam) > 0.0


@PROPERTIES
@given(n=LARGE_SIZES, lam=OFF_CRITICAL)
def test_large_rings_reach_thermodynamic_limit(n, lam):
    finite = correlators_finite(ChainSpec(n, lam))
    thermo = correlators_thermo(lam)
    for f in FIELDS + DERIVS:
        assert getattr(finite, f) == pytest.approx(getattr(thermo, f), rel=0.0, abs=1e-12), f
    assert susceptibility(n, lam) == pytest.approx(susceptibility_thermo(lam), rel=1e-11, abs=0.0)


@PROPERTIES
@given(n=EVEN_SIZES, lam=WIDE_COUPLINGS)
def test_chi_between_one_site_and_global(n, lam):
    # Fidelity cannot decrease under a partial trace (tests/test_fidelity_bounds.py).
    chi = susceptibility(n, lam)
    assert one_site_susceptibility(correlators_finite(ChainSpec(n, lam))) <= chi
    assert chi <= global_susceptibility(n, lam)
