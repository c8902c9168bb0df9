"""Hypothesis property tests of the correlators and the susceptibility."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import tfim_rfs.scaling  # noqa: E402
from tfim_rfs import (  # noqa: E402
    ChainSpec,
    ConsistencyError,
    PeakRecord,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    data_collapse,
    fit_thermo,
    susceptibility,
    susceptibility_thermo,
)
from shared import DERIVS, FIELDS, global_susceptibility, one_site_susceptibility  # noqa: E402

# Fixed example sequence, so a tier-1 run is reproducible.
PROPERTIES = settings(max_examples=50, deadline=None, derandomize=True)

EVEN_SIZES = st.integers(min_value=2, max_value=2048).map(lambda k: 2 * k)
COUPLINGS = st.floats(min_value=0.01, max_value=5.0)
WIDE_COUPLINGS = st.floats(min_value=0.01, max_value=100.0)
# lam in [0.05, 5] with |1 - lam| >= 0.05: the correlation length stays
# below ~20 sites, so N >= 1024 is in the thermodynamic limit to roundoff.
OFF_CRITICAL = st.floats(min_value=0.05, max_value=0.95) | st.floats(min_value=1.05, max_value=5.0)
LARGE_SIZES = st.sampled_from([1024, 2048, 4096])


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


@st.composite
def thermo_windows(draw):
    """4 to 30 couplings on one branch with |1 - lam| log-uniform in a decade
    inside [1e-16, 1] (1 + 1e-16 rounds to lam = 1, 1 - 1 is lam = 0), half the
    time with one more coupling of that branch inserted: below 1, 0, one with
    infinite derivatives, or one in the indefinite range of block 1 or 2;
    above 1, one past the singular-block or the NaN threshold; or 1 itself."""
    below = draw(st.booleans())
    top = draw(st.floats(min_value=0.0, max_value=15.0))
    decade = st.floats(min_value=top, max_value=top + 1.0)
    gaps = [10.0 ** -e for e in draw(st.lists(decade, min_size=4, max_size=30))]
    window = [1.0 - g if below else 1.0 + g for g in gaps]
    extras = [0.0, 1e-310, 1e-15, 1e-9, 1.0] if below else [300.0, 1e8, 1e103, 1.0]
    extra = draw(st.none() | st.sampled_from(extras))
    if extra is not None:
        window.insert(draw(st.integers(min_value=0, max_value=len(window))), extra)
    return window


def _fit_outcome(window):
    try:
        fit = fit_thermo(window)
    except (ValueError, ConsistencyError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in (fit.slope, fit.intercept, fit.r_squared, *fit.params.values())]


def _nothing_evaluated(lam):
    return np.empty_like(lam), np.zeros(lam.shape, dtype=bool)


@settings(PROPERTIES, max_examples=150)
@given(window=thermo_windows())
@example(window=[0.5, 0.6, 0.7, 1e-310])
@example(window=[0.5, 1e-15, 0.6, 0.7])
def test_fit_thermo_equals_scalar_composition(window):
    # With an array pass that flags every coupling, fit_thermo fits
    # x = ln 1/|1 - lam| against [susceptibility_thermo(l) for l in window],
    # called in window order: the scalar composition, raising where it raises.
    with mock.patch.object(tfim_rfs.scaling, "_susceptibility_thermo_array", _nothing_evaluated):
        expected = _fit_outcome(window)
    assert _fit_outcome(window) == expected


@st.composite
def collapse_peaks(draw):
    """1 to 3 sizes, most even and >= 12, each even one with a hand-made
    PeakRecord or none (find_peak then makes it).  lam_m lies near the peak, where every
    sample passes; at 10/N + 10^-e, where the window starts at a coupling
    whose block is singular; or near 1e154, where (1 - lam)^2 overflows."""
    sizes = draw(st.lists(st.sampled_from([12, 14, 16, 64, 128, 250, 512, 1000, 13]),
                          min_size=1, max_size=3, unique=True))
    peaks = {}
    for n in sizes:
        lam_m = draw(st.floats(min_value=0.9, max_value=1.1)
                     | st.floats(min_value=0.0, max_value=20.0).map(lambda e, n=n: 10.0 / n + 10.0 ** -e)
                     | st.floats(min_value=1e153, max_value=1e155))
        if n % 2 == 0 and draw(st.booleans()):
            peaks[n] = PeakRecord(n, lam_m, draw(st.floats(min_value=0.0, max_value=10.0)))
    return sizes, peaks


def _collapse_outcome(sizes, peaks):
    try:
        curve = data_collapse(sizes, peaks=peaks)
    except (ValueError, ConsistencyError) as exc:
        return type(exc), str(exc)
    return {n: [v.hex() for v in (*w.tolist(), *y.tolist())] for n, (w, y) in curve.samples.items()}


@settings(PROPERTIES, max_examples=100)
@given(case=collapse_peaks())
def test_data_collapse_equals_scalar_composition(case):
    # With an array pass that flags every coupling, data_collapse samples
    # [susceptibility(n, lam_m + w / n) for w in offsets], in sample order:
    # the scalar composition, raising where it raises.
    def flag_all(n_sites, lam):
        return _nothing_evaluated(lam)

    with mock.patch.object(tfim_rfs.scaling, "_susceptibility_finite_array", flag_all):
        expected = _collapse_outcome(*case)
    assert _collapse_outcome(*case) == expected
