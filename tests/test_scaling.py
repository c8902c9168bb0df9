import bisect
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
from dataclasses import asdict, replace
from decimal import Decimal
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import tfim_rfs.scaling
from tfim_rfs import (
    LOG_SQUARED_AMPLITUDE,
    ChainSpec,
    CollapseCurve,
    ConsistencyError,
    PeakRecord,
    PeakSearchError,
    ScalingFit,
    SingularBlockError,
    best_collapse_exponent,
    collapse_quality,
    correlators_finite,
    data_collapse,
    find_peak,
    fit_finite_size,
    fit_sq_log_model,
    fit_thermo,
    susceptibility,
    susceptibility_slope,
    susceptibility_thermo,
)
from tfim_rfs.rfs import _susceptibility_finite_array
from tfim_rfs.scaling import (
    _THERMO_D1,
    _THERMO_D2,
    _brent_root,
    _collapse_scorer,
    _r_squared,
    _read_samples,
)

COLLAPSE_SIZES = (512, 1024, 2048, 4096)
SMALL_COLLAPSE_SIZES = (64, 128, 256)
REFERENCE_TABLE = (Path(__file__).resolve().parents[1] / "perfbench" / "tables"
                   / "reference.json")
LARGE_RING_TABLE = Path(__file__).resolve().parent / "data" / "large_ring_reference.json"


@pytest.fixture(scope="module")
def collapse_peaks():
    return {n: find_peak(n) for n in COLLAPSE_SIZES}


class TestFindPeak:
    def test_moves_toward_critical_point(self):
        small = find_peak(12)
        large = find_peak(4096)
        assert 0.0 < small.lambda_m < 1.0
        assert abs(large.lambda_m - 1.0) < abs(small.lambda_m - 1.0)

    def test_local_maximum_certificate(self):
        # find_peak returns the root of the slope; chi itself is checked here.
        for n in (256, 4096, 2 ** 16):
            rec = find_peak(n)
            for probe in (rec.lambda_m - 1e-6, rec.lambda_m + 1e-6):
                assert susceptibility(n, probe) <= rec.chi_m, n

    def test_unimodal_scan(self):
        lams = np.linspace(0.8, 1.1, 41)
        chis = np.array([susceptibility(300, float(l)) for l in lams])
        diffs = np.diff(chis)
        i = int(np.argmax(chis))
        assert np.all(diffs[:i] > 0) and np.all(diffs[i:] < 0)

    def test_no_interior_maximum_raises_with_scan(self, monkeypatch):
        # A model slope whose root lies outside 1 +- 2/N: the two end slopes
        # decide it, and chi itself is not evaluated.
        chi_calls = []
        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility_slope", lambda n, lam: 0.9 - lam)
        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility",
                            lambda *args: chi_calls.append(args))
        with pytest.raises(PeakSearchError, match=r"for N=256$"):
            find_peak(256)
        assert chi_calls == []

    def test_no_interior_maximum_carries_bracket_ends(self, monkeypatch):
        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility_slope", lambda n, lam: lam - 1.0)
        with pytest.raises(PeakSearchError,
                           match=re.escape("no maximum of chi in [0.9921875, 1.0078125] for N=256")):
            find_peak(256)

    @pytest.mark.parametrize("n", [0, 2, 7, -4])
    def test_bad_size_rejected(self, n):
        with pytest.raises(ValueError, match="n_sites must be even and >= 4"):
            find_peak(n)

    def test_record_size_is_a_plain_int(self):
        # An np.int64 N used to be stored as given, and json.dumps of the
        # record raised TypeError.
        record = find_peak(np.int64(64))
        assert type(record.n_sites) is int and record == find_peak(64)
        assert json.loads(json.dumps(asdict(record))) == asdict(record)

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 30, 64, 256, 1024, 2 ** 12, 2 ** 16, 2 ** 20])
    def test_slope_changes_sign_once_inside_window(self, n):
        # The search window 1 +- 2/N rests on this: over two decades on each
        # side of lam = 1 the slope of chi falls through zero once, inside
        # the window, and no block is singular.  So find_peak's root is a
        # local maximum, and it needs no certificate.  The window is scanned
        # at 41 points, ends included, so the change lies between two scanned
        # points inside it.  Above N = 1024, where a slope costs up to 10 ms,
        # 60 points scan the two decades instead of 400.
        outside = np.geomspace(0.01, 100.0, 400 if n <= 1024 else 60)
        lams = np.union1d(outside, np.linspace(1.0 - 2.0 / n, 1.0 + 2.0 / n, 41))
        positive = np.array([susceptibility_slope(n, float(lam)) > 0.0 for lam in lams])
        changes = np.flatnonzero(positive[:-1] != positive[1:])
        assert len(changes) == 1
        i = int(changes[0])
        assert positive[i] and 1.0 - 2.0 / n <= lams[i] and lams[i + 1] <= 1.0 + 2.0 / n

    def test_matches_reference_peaks(self):
        # 25-digit mpmath peaks of perfbench/tables/reference.json: lam_m to
        # about 4 ulps; a search that stops at sqrt(eps) is off by about 2e-9.
        table = json.loads(REFERENCE_TABLE.read_text(encoding="utf-8"))
        for entry in table["peaks"]:
            rec = find_peak(entry["n_sites"])
            lam_ref, chi_ref = float(entry["lambda_m"]), float(entry["chi_m"])
            assert abs(rec.lambda_m - lam_ref) <= 4.5e-16, entry["n_sites"]
            assert abs(rec.chi_m - chi_ref) <= 1e-14 * chi_ref, entry["n_sites"]

    @pytest.mark.parametrize("n", [2 ** 19, 2 ** 20])
    def test_matches_large_ring_reference(self, n):
        # 25 digits of 40-digit mpmath sums (tests/data/make_large_ring_reference.py)
        # at lam = 1, lam_m, 1 - 4/N and 1 + 1/N.  The measured errors are at
        # most 7.9e-16 in chi and 3.9e-16 in the fields.  lam_m is stored as
        # the peak search found it on 1 +- 2/N, so its hex pins the peak-shift
        # bracket at the two largest sizes.
        entries = json.loads(LARGE_RING_TABLE.read_text(encoding="utf-8"))["sizes"][str(n)]
        couplings = {e["coupling"]: float.fromhex(e["lambda"]) for e in entries}
        assert find_peak(n).lambda_m.hex() == couplings["lambda_m"].hex()
        for entry in entries:
            lam = float.fromhex(entry["lambda"])
            fields = correlators_finite(ChainSpec(n, lam))
            for name in ("chi", "sz", "xx", "yy", "d_sz", "d_xx", "d_yy"):
                got = susceptibility(n, lam) if name == "chi" else getattr(fields, name)
                ref = Decimal(entry[name])
                assert abs(Decimal(got) - ref) <= Decimal("1e-15") * abs(ref), (lam, name)

    def test_resolves_large_rings(self):
        # 1 - lam_m shrinks about 13x per 4x in N; a search that stops at
        # sqrt(eps) returns one lam_m for both 2^18 and 2^20.
        gaps = [1.0 - find_peak(2 ** k).lambda_m for k in (16, 18, 20)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        for wide, narrow in zip(gaps, gaps[1:]):
            assert 8.0 <= wide / narrow <= 20.0

    def test_derived_window_matches_default_bracket(self):
        # The reference for the brackets of find_peak: Brent on 1 +- 2/N, and
        # on the former default bracket (0.8, 1.1) wherever that holds the
        # peak (N = 4 peaks at lam 0.694, outside it), finds bitwise the same
        # root and chi.  At N = 30 the slopes at the last two doubles tie in
        # magnitude.  From N = 42 up find_peak opens on the peak-shift
        # bracket instead.
        mismatches = []
        for n in [*range(4, 601, 2), *(2 ** k for k in range(10, 21))]:
            got = find_peak(n)
            for lo, hi in ((1.0 - 2.0 / n, 1.0 + 2.0 / n), (0.8, 1.1)):
                slope_lo, slope_hi = susceptibility_slope(n, lo), susceptibility_slope(n, hi)
                if not slope_lo > 0.0 > slope_hi:
                    continue
                whole = _brent_root(lambda lam: susceptibility_slope(n, lam),
                                    lo, hi, slope_lo, slope_hi)
                if (got.lambda_m, got.chi_m) != (whole, susceptibility(n, whole)):
                    mismatches.append((n, lo, got.lambda_m.hex(), whole.hex()))
        assert mismatches == []

    @pytest.mark.parametrize("n", [30, 64, 250, 512, 4096, 2 ** 16, 2 ** 18, 2 ** 20])
    def test_bracket_does_not_change_peak(self, n):
        # Brent's root does not depend on the bracket that holds the peak,
        # which is what lets find_peak search 1 +- 2/N, or from N = 42 up
        # the 1 % bracket of the peak shift.  At N = 30 the slopes at the
        # last two doubles tie in magnitude; without the tie rule the brackets
        # below disagree by one ulp.
        def slope(lam):
            return susceptibility_slope(n, lam)

        brackets = [(0.8, 1.1), (0.5, 1.5), (0.95, 1.02), (1.0 - 2.0 / n, 1.0 + 2.0 / n)]
        if n >= 42:
            shift = ((0.5746 * math.log(n) + 1.0677) / n) ** 2
            brackets += [(1.0 - 1.01 * shift, 1.0 - 0.99 * shift),
                         (1.0 - 1.1 * shift, 1.0 - 0.9 * shift)]
        roots = {_brent_root(slope, lo, hi, slope(lo), slope(hi)) for lo, hi in brackets}
        assert roots == {find_peak(n).lambda_m}

    @pytest.mark.parametrize("flip", [False, True])
    def test_brent_tie_returns_larger_end(self, flip):
        lo, hi = 1.0, math.nextafter(1.0, 2.0)

        def fn(lam):
            return 1.0 if lam == lo else -1.0

        args = (hi, lo, -1.0, 1.0) if flip else (lo, hi, 1.0, -1.0)
        assert _brent_root(fn, *args) == hi

    def test_brent_returns_an_exact_zero(self):
        # The first (bisection) step lands on the root itself.
        probes = []

        def fn(x):
            probes.append(x)
            return x - 0.5

        assert _brent_root(fn, 0.0, 1.0, -0.5, 0.5) == 0.5
        assert probes == [0.5]

    def test_shift_bracket_holds_the_peak_from_42_sites(self):
        # The 1 % bracket of the measured peak shift holds a sign change of
        # the slope at every even N from 42 to 1024, and misses it at every
        # N <= 40, where find_peak still needs its fallback 1 +- 2/N.
        def holds(n):
            shift = ((0.5746 * math.log(n) + 1.0677) / n) ** 2
            lo, hi = 1.0 - 1.01 * shift, 1.0 - 0.99 * shift
            return susceptibility_slope(n, lo) > 0.0 > susceptibility_slope(n, hi)

        assert [n for n in range(4, 1025, 2) if not holds(n)] == list(range(4, 41, 2))

    @pytest.mark.parametrize("k", range(6, 21))
    def test_slope_evaluations_bounded(self, k, monkeypatch):
        # Both ends of the peak-shift bracket included: 6 evaluations at
        # N = 2^6..2^8, 5 at 2^9..2^13 and 4 from 2^14 up (7-9 on 1 +- 2/N).
        calls = []

        def counted(n, lam):
            calls.append(lam)
            return susceptibility_slope(n, lam)

        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility_slope", counted)
        find_peak(2 ** k)
        assert len(calls) <= (6 if k <= 8 else 5 if k <= 13 else 4)

    def test_no_maximum_in_either_bracket_raises_after_four_slopes(self, monkeypatch):
        # A model slope whose root lies below both brackets: the peak-shift
        # bracket fails its check, then 1 +- 2/N does, and the error names
        # the second.  Four slopes, the ends of both brackets, and no chi.
        slopes, chi_calls = [], []
        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility_slope",
                            lambda n, lam: slopes.append(lam) or 0.9 - lam)
        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility",
                            lambda *args: chi_calls.append(args))
        with pytest.raises(PeakSearchError, match=re.escape(
                "no maximum of chi in [0.998046875, 1.001953125] for N=1024")):
            find_peak(1024)
        assert len(slopes) == 4 and chi_calls == []
        assert slopes[2:] == [0.998046875, 1.001953125]

    @pytest.mark.parametrize("root", [0.999, 1.0005])
    def test_root_outside_shift_bracket_found_on_wide_bracket(self, root, monkeypatch):
        # A model slope whose root lies in 1 +- 2/N but not in the 1 % bracket
        # of the peak shift (1 - 2.2e-5 at N = 1024): find_peak falls back
        # to 1 +- 2/N and returns the root Brent finds there alone.
        def model(lam):
            return root ** 3 - lam ** 3

        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility_slope", lambda n, lam: model(lam))
        lo, hi = 1.0 - 2.0 / 1024, 1.0 + 2.0 / 1024
        expected = _brent_root(model, lo, hi, model(lo), model(hi))
        assert abs(expected - root) <= 1e-15
        assert find_peak(1024).lambda_m == expected


class TestFitFiniteSize:
    def test_slope_matches_amplitude(self):
        peaks = [find_peak(2 ** k) for k in range(9, 15)]
        assert all(a.chi_m < b.chi_m for a, b in zip(peaks, peaks[1:]))
        fit = fit_finite_size(peaks)
        ref = math.sqrt(LOG_SQUARED_AMPLITUDE)
        assert abs(fit.slope - ref) <= 0.05 * ref
        assert fit.r_squared > 0.99 and not fit.flagged

    def test_two_points_interpolate_exactly(self):
        peaks = [PeakRecord(64, 0.97, 2.0), PeakRecord(1024, 0.999, 6.0)]
        fit = fit_finite_size(peaks)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        x1, x2 = math.log(64), math.log(1024)
        assert fit.slope == pytest.approx((math.sqrt(6) - math.sqrt(2)) / (x2 - x1), rel=1e-12, abs=0)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            fit_finite_size([PeakRecord(64, 0.97, 2.0), PeakRecord(64, 0.97, 2.0)])

    def test_equal_peaks_leave_c1_undetermined(self):
        # c1 = intercept/slope used to escape as ZeroDivisionError.
        peaks = [PeakRecord(64, 0.97, 2.0), PeakRecord(1024, 0.999, 2.0)]
        with pytest.raises(ValueError, match="slope is 0: c1"):
            fit_finite_size(peaks)

    @pytest.mark.parametrize("n_sites,message", [
        (0, "n_sites must be even and >= 4, got 0"),
        (-64, "n_sites must be even and >= 4, got -64"),
        (63, "n_sites must be even and >= 4, got 63"),
        (1.5, "n_sites must be an integer, got 1.5"),
    ], ids=["0", "-64", "63", "1.5"])
    def test_n_sites_not_a_chain_rejected(self, n_sites, message):
        # 0 and -64 used to give an all-NaN fit after a numpy warning, and 63
        # and 1.5 were fitted silently.
        peaks = [PeakRecord(n_sites, 0.9, 1.0), PeakRecord(1024, 0.999, 2.0)]
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_finite_size(peaks)

    @pytest.mark.parametrize("peaks,message", [
        ({64: PeakRecord(64, 0.97, 2.0), 128: PeakRecord(128, 0.98, 2.5)},
         "peaks must be an iterable of PeakRecord, got dict"),
        ([64, 128], "peaks must hold PeakRecords, got int"),
    ], ids=["mapping", "sizes"])
    def test_peaks_not_records_rejected(self, peaks, message):
        # The mapping that data_collapse takes, and a list of sizes, used to
        # raise a bare AttributeError from the sort by n_sites.
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_finite_size(peaks)

    def test_r_squared_of_flat_data(self):
        flat = np.array([2.0, 2.0])
        assert _r_squared(flat, [0.0, 0.0]) == 1.0
        assert _r_squared(flat, [0.0, 0.5]) == 0.0

    @pytest.mark.parametrize("r_squared,flagged", [(0.98, True), (0.99, False)])
    def test_flagged_below_threshold(self, r_squared, flagged):
        fit = ScalingFit(slope=0.4, intercept=1.0, r_squared=r_squared)
        assert fit.flagged is flagged


class TestFitThermo:
    def test_recovers_amplitude_below(self):
        fit = fit_thermo([1 - 10.0 ** (-k) for k in range(2, 6)])
        assert fit.params["amplitude_rel_deviation"] <= 0.05

    @pytest.mark.parametrize("name,value,bits", [
        ("A", LOG_SQUARED_AMPLITUDE, "0x1.30278004a7c06p-3"),
        ("d1", _THERMO_D1, "-0x1.046631f82effap-1"),
        ("d2", _THERMO_D2, "0x1.873845554d956p-5"),
    ], ids=["A", "d1", "d2"])
    def test_amplitude_is_the_correctly_rounded_closed_form(self, name, value, bits):
        # Evaluated in doubles, the closed form of A comes out 13 ulp low.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            pi2 = mpmath.pi ** 2
            exact = {
                "A": (27 * pi2 ** 2 - 144 * pi2 - 1024) / (pi2 * (9 * pi2 + 32) * (3 * pi2 - 32) + 4096),
                "d1": mpmath.log(8) + (63 * pi2 ** 2 - 288 * pi2 - 2816) / (1024 + 144 * pi2 - 27 * pi2 ** 2),
                "d2": (9 * pi2 - 80) / (27 * pi2 ** 2 - 144 * pi2 - 1024),
            }[name]
            assert float(exact) == value
        assert value.hex() == bits
        assert math.sqrt(LOG_SQUARED_AMPLITUDE) == 0.3853736374046395

    @pytest.mark.parametrize("sign", [-1, 1], ids=["below", "above"])
    def test_series_constants_match_mpmath(self, sign, reference):
        # The quadratic A L^2 + B L + C in L = ln 1/|1-lam| through 220-digit
        # chi of perfbench/reference.py at |1-lam| = 1e-50, 1e-60 and 1e-70
        # gives d1 = B / (2A) and d2 = C - B^2 / (4A); the series' remainder,
        # O(|1-lam| L^2), is below 1e-45 there.
        mp, mpmath = reference.mp, reference.mpmath
        with mp.workdps(220):
            rows, chi = [], []
            for exponent in (50, 60, 70):
                gap = mpmath.mpf(10) ** -exponent
                log_inverse = -mpmath.log(gap)
                rows.append([log_inverse ** 2, log_inverse, 1])
                chi.append(reference.chi_from_correlators(*reference.correlators_thermo(1 + sign * gap)))
            a, b, c = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(chi))
            d1, d2 = b / (2 * a), c - b * b / (4 * a)
            assert abs(a / LOG_SQUARED_AMPLITUDE - 1) <= 1e-14
        params = fit_thermo([1 + sign * 10.0 ** (-k) for k in range(2, 6)]).params
        assert abs(params["d1_ref"] / float(d1) - 1) <= 1e-15
        assert abs(params["d2_ref"] / float(d2) - 1) <= 1e-15

    def test_branches_agree(self):
        lo = fit_thermo([1 - 10.0 ** (-k) for k in range(2, 6)])
        hi = fit_thermo([1 + 10.0 ** (-k) for k in range(2, 6)])
        a_lo, a_hi = lo.params["amplitude"], hi.params["amplitude"]
        assert abs(a_lo - a_hi) <= 0.05 * a_hi

    def test_synthetic_exact_recovery(self):
        x = np.array([2.0, 3.0, 5.0, 7.0, 11.0])
        y = 0.2 * (x + 0.7) ** 2 + 0.1
        a, d1, d2, r_sq = fit_sq_log_model(x, y)
        assert abs(a - 0.2) <= 1e-8 and abs(d1 - 0.7) <= 1e-8 and abs(d2 - 0.1) <= 1e-8
        assert r_sq == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [-300, 300])
    def test_power_of_two_rescaling_of_x_is_exact(self, k):
        # At these scales t^4 under- or overflows unless t is scaled; a LAPACK
        # solve called such x degenerate (numerical rank 1).
        x, y = FIT_DATA["below_1e-2_1e-1"]()
        a, d1, d2, r_sq = fit_sq_log_model(x, y)
        assert fit_sq_log_model(np.ldexp(x, k), y) == (math.ldexp(a, -2 * k), math.ldexp(d1, k),
                                                       d2, r_sq)

    def test_fit_beyond_the_double_range_rejected(self):
        # a is about 1/3e-200^2: a ValueError, not math.ldexp's OverflowError.
        with pytest.raises(ValueError, match=re.escape("a or d1 overflows a double: x spans 3e-200")):
            fit_sq_log_model([0.0, 1e-200, 2e-200, 3e-200], [1.0, 2.0, 4.0, 3.0])

    @pytest.mark.parametrize("x,y", [
        ([2.0, 2.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
        ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]),  # a = 0 leaves d1 free
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]),  # linear: a is roundoff
        (np.linspace(2.0, 4.0, 20), 3.0 * np.linspace(2.0, 4.0, 20) + 1.0),
    ])
    def test_underdetermined_rejected(self, x, y):
        with pytest.raises(ValueError, match="not determined"):
            fit_sq_log_model(x, y)

    def test_centred_x_of_two_values_rejected_without_warning(self):
        # x has 3 distinct values, but x - mean(x) rounds to 2: q rounded to 0
        # and Σ q r / Σ q q used to warn of 0/0 before its ValueError.
        with pytest.raises(ValueError, match=re.escape(
                "x - mean(x) does not resolve 3 distinct values: "
                "the three parameters (a, d1, d2) are not determined")):
            fit_sq_log_model([0.0, 0.0, 1e-320, 1.0], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("x,y", [
        ([1, 2, 3, 4, 5], [1, 2, math.nan, 4, 5]),
        ([1, 2, 3, 4, 5], [1, 2, math.inf, 4, 5]),
        ([1, 2, 3, math.inf, 5], [1, 2, 3, 4, 5]),
        ([1, 2, -math.nan, 4, 5], [1, 2, 3, 4, 5]),
    ])
    def test_non_finite_data_rejected(self, x, y):
        # A NaN used to give (nan, nan, nan, nan), and an inf in x a LinAlgError.
        with pytest.raises(ValueError, match="x and y must be finite"):
            fit_sq_log_model(x, y)

    @pytest.mark.parametrize("x,y,shapes", [
        ([1, 2, 3, 4, 5], [1, 2, 3, 4], "(5,) and (4,)"),
    ], ids=["lengths"])
    def test_shapes_rejected(self, x, y, shapes):
        # Unequal lengths used to raise numpy's LinAlgError "Incompatible
        # dimensions".  A 2-d x is a row of tests/test_inputs.py.
        message = f"x and y must be 1-d of one length, got shapes {shapes}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_sq_log_model(x, y)

    def test_mixed_branches_rejected(self):
        with pytest.raises(ValueError):
            fit_thermo([0.99, 0.999, 1.01, 1.001])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_thermo([0.99, 0.999, 0.9999])
        with pytest.raises(ValueError, match="at least 4 points"):
            fit_sq_log_model([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])

    def test_critical_coupling_rejected(self):
        with pytest.raises(ValueError):
            fit_thermo([0.99, 0.999, 0.9999, 1.0])

    @pytest.mark.parametrize("window", [
        [0.9, 0.99, 0.999, math.nan],
        [2.0, 3.0, 4.0, math.inf],
        [0.5, 0.6, -math.inf, 0.7],
        [0.5, math.nan, math.inf, 0.7],
        [0.5, -math.inf, math.nan, 0.7],
    ])
    def test_non_finite_coupling_rejected(self, window):
        bad = next(l for l in window if not math.isfinite(l))
        with pytest.raises(ValueError, match=re.escape(f"lam must be finite and >= 0, got {bad!r}")):
            fit_thermo(window)


def _bench_window(top, sign, seed=101, n=200):
    """n couplings with |1 - lam| log-uniform in [top/10, top], stratified and
    sorted by distance from 1, as the benchmark draws its decade windows."""
    rng = random.Random(seed)
    gaps = sorted(top * 10.0 ** -((i + rng.random()) / n) for i in range(n))
    return [1.0 + sign * g for g in gaps]


FIT_WINDOWS = {
    "below_1e-2_1e-5": lambda: [1.0 - 10.0 ** -k for k in range(2, 6)],
    "above_1e-2_1e-5": lambda: [1.0 + 10.0 ** -k for k in range(2, 6)],
    "bench_below_1e-2": lambda: _bench_window(10.0 ** -1.5, -1.0),
    "bench_above_1e-2": lambda: _bench_window(10.0 ** -1.5, 1.0),
    "bench_below_1e-5": lambda: _bench_window(10.0 ** -4.5, -1.0),
    "bench_above_1e-5": lambda: _bench_window(10.0 ** -4.5, 1.0),
}


class TestFitThermoArrayPath:
    """fit_thermo evaluates a window in one numpy pass and sends only the
    couplings that a check flags through susceptibility_thermo."""

    # float.hex of (slope, intercept, r_squared), recorded from the scalar
    # composition fit_sq_log_model(x, [susceptibility_thermo(l) for l in window]).
    PINS = {
        "below_1e-2_1e-5": ("0x1.3749a7c4fe7a2p-3", "0x1.77e40912cb3a0p-2", "0x1.ffffeed43d93ep-1"),
        "above_1e-2_1e-5": ("0x1.2b5ce66e22823p-3", "-0x1.8af785e46a300p-3", "0x1.fffffd1e31798p-1"),
        "bench_below_1e-2": ("0x1.3fda8f4f65454p-3", "0x1.eaa5510d5bf48p-2", "0x1.fffffd9e6ec6dp-1"),
        "bench_above_1e-2": ("0x1.3c6b343c70262p-3", "-0x1.916ce3c26a780p-6", "0x1.ffffdc0d4b409p-1"),
        "bench_below_1e-5": ("0x1.30e27195d0922p-3", "0x1.a55f2f86a9600p-4", "0x1.fffffffe4b117p-1"),
        "bench_above_1e-5": ("0x1.2f655f2abbd7cp-3", "-0x1.2dea26f35d800p-7", "0x1.fffffffb003cap-1"),
    }

    @pytest.mark.parametrize("name", sorted(FIT_WINDOWS))
    def test_pinned_bits(self, name):
        fit = fit_thermo(FIT_WINDOWS[name]())
        assert (fit.slope.hex(), fit.intercept.hex(), fit.r_squared.hex()) == self.PINS[name]

    @pytest.mark.parametrize("window,error,message", [
        ([0.9, 1.0 - 1e-10, 0.99, 0.999], ValueError,
         "lam=0.9999999999 is too close to 1 (|1 - lam| = 1e-10): the elliptic modulus rounds to 1"),
        ([0.5, 1e-9, 0.6, 0.7], ConsistencyError,
         "RDM block 2 [[4.163336342344337e-16, 2.355966430713716e-08], "
         "[2.355966430713716e-08, 4.163336342344337e-16]] is not positive semidefinite: "
         "smallest eigenvalue -2.356e-08"),
        ([1.5, 2.0, 1000.0, 3.0], SingularBlockError,
         "singular block (det1=1.943e-15, det2=1.943e-15); use the fidelity oracle instead"),
    ])
    def test_pinned_exception(self, window, error, message):
        with pytest.raises(Exception) as info:
            fit_thermo(window)
        assert (type(info.value), str(info.value)) == (error, message)

    @staticmethod
    def bits(fit):
        return fit.slope.hex(), fit.intercept.hex(), fit.r_squared.hex()

    @pytest.mark.parametrize("convert", [list, tuple, np.array, lambda w: (l for l in w)],
                             ids=["list", "tuple", "ndarray", "generator"])
    def test_any_iterable_gives_the_pinned_bits(self, convert):
        fit = fit_thermo(convert(FIT_WINDOWS["bench_below_1e-2"]()))
        assert self.bits(fit) == self.PINS["bench_below_1e-2"]

    @pytest.mark.parametrize("window", [[2, 3, 4, 5], np.array([2, 3, 5, 7, 11])])
    def test_integer_couplings_fit_as_floats(self, window):
        assert self.bits(fit_thermo(window)) == self.bits(fit_thermo([float(l) for l in window]))

    @staticmethod
    def count_scalar_calls(monkeypatch):
        calls = []

        def counted(lam):
            calls.append(lam)
            return susceptibility_thermo(lam)

        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility_thermo", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(FIT_WINDOWS))
    def test_clear_window_makes_no_scalar_call(self, name, monkeypatch):
        calls = self.count_scalar_calls(monkeypatch)
        fit_thermo(FIT_WINDOWS[name]())
        assert calls == []

    @pytest.mark.parametrize("window,calls_made", [
        # A modulus that rounds to 1 leaves the whole window to the scalar
        # loop, which stops at its first failure.
        ([0.9, 0.99, 1.0 - 1e-10, 0.999, 0.9999], 3),
        ([1.0 + 1e-12, 1.0 + 1e-3, 1.0 + 1e-2, 1.1], 1),
        # Only the flagged coupling goes through the scalar path.
        ([0.5, 0.6, 1e-9, 0.7], 1),
        ([0.0, 0.5, 0.6, 0.7], 1),
        ([0.5, 0.6, 0.7, 1e-310], 1),  # the derivatives overflow
    ])
    def test_raising_window_stops_at_first_failure(self, window, calls_made, monkeypatch):
        calls = self.count_scalar_calls(monkeypatch)
        with pytest.raises((ValueError, ConsistencyError)):
            fit_thermo(window)
        assert len(calls) == calls_made


def _thermo_window(lo, hi, sign):
    gaps = np.logspace(math.log10(lo), math.log10(hi), 41)
    lams = 1.0 + sign * gaps
    x = np.log(1.0 / np.abs(1.0 - lams))
    return x, np.array([susceptibility_thermo(float(lam)) for lam in lams])


def _synthetic_far_window():
    # x ~ 30 is |1 - lam| ~ 1e-14: y runs from 130 to 160, and
    # d2 = c0 - c1^2/(4a) cancels c1^2/(4a) ~ 140 down to d2 ~ 0.5.
    x = np.linspace(30.0, 33.0, 41)
    return x, LOG_SQUARED_AMPLITUDE * (x - 0.6) ** 2 + 0.1 + 1e-3 * np.cos(5.0 * x)


FIT_DATA = {
    "below_1e-2_1e-1": lambda: _thermo_window(1e-2, 1e-1, -1.0),
    "above_1e-2_1e-1": lambda: _thermo_window(1e-2, 1e-1, 1.0),
    "below_1e-6_1e-5": lambda: _thermo_window(1e-6, 1e-5, -1.0),
    "synthetic_x_30_33": _synthetic_far_window,
}


class TestFitMpmathReference:
    """fit_sq_log_model against the exact optimum of the same float data:
    the normal equations of y = c2 x^2 + c1 x + c0 solved at 50 digits."""

    @staticmethod
    def exact_fit(x, y):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            xs = [mpmath.mpf(float(v)) for v in x]
            ys = [mpmath.mpf(float(v)) for v in y]
            power_sums = [mpmath.fsum(v ** k for v in xs) for k in range(5)]
            moments = [mpmath.fsum(u ** k * v for u, v in zip(xs, ys)) for k in (2, 1, 0)]
            normal = mpmath.matrix([[power_sums[4 - i - j] for j in range(3)] for i in range(3)])
            c2, c1, c0 = mpmath.lu_solve(normal, mpmath.matrix(moments))
            return c2, c1 / (2 * c2), c0 - c1 ** 2 / (4 * c2)

    @pytest.mark.parametrize("name", sorted(FIT_DATA))
    def test_matches_exact_optimum(self, name):
        x, y = FIT_DATA[name]()
        a, d1, d2, _ = fit_sq_log_model(x, y)
        ref_a, ref_d1, ref_d2 = (float(v) for v in self.exact_fit(x, y))
        # About ten times the worst errors on these windows: 7.5e-16, 2.2e-14
        # and 1.4e-13, all on the synthetic one.
        assert abs(a - ref_a) <= 1e-14 * abs(ref_a)
        assert abs(d1 - ref_d1) <= 2e-13 * max(1.0, abs(ref_d1))
        assert abs(d2 - ref_d2) <= 1.5e-12 * max(1.0, abs(ref_d2))


def _has_avx2():
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


_KERNEL_PROBE = """
import json, sys
from tfim_rfs import fit_thermo
for window in json.load(sys.stdin):
    fit = fit_thermo(window)
    print(fit.slope.hex(), fit.intercept.hex(), fit.r_squared.hex())
"""


@pytest.mark.skipif(platform.machine() != "x86_64" or not _has_avx2(),
                    reason="forcing OpenBLAS's Haswell kernel needs x86-64 with AVX2")
def test_fits_do_not_depend_on_the_openblas_kernel():
    # OPENBLAS_CORETYPE forces OpenBLAS's kernel for the CPU.  A LAPACK solve
    # of the fit gave other last bits under Haswell than under Prescott.
    src = Path(__file__).resolve().parents[1] / "src"
    windows = json.dumps([FIT_WINDOWS[name]() for name in sorted(FIT_WINDOWS)])
    outputs = [subprocess.run([sys.executable, "-c", _KERNEL_PROBE], input=windows,
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "OPENBLAS_CORETYPE": core}).stdout
               for core in ("Prescott", "Haswell")]
    assert len(outputs[0].splitlines()) == len(FIT_WINDOWS)
    assert outputs[0] == outputs[1]


class TestDataCollapse:
    @pytest.mark.parametrize("sizes", [[64], []])
    def test_fewer_than_two_sizes_rejected(self, sizes):
        # A single curve has no spread; 0.0 would read as a perfect collapse.
        xs = np.linspace(-1.0, 1.0, 21)
        curve = CollapseCurve(samples={n: (xs, xs ** 2) for n in sizes}, nu=1.0)
        with pytest.raises(ValueError, match=re.escape(f"2 distinct sizes, got {sizes}")):
            collapse_quality(curve)

    def test_constant_offset_definition(self):
        # two curves of unit swing offset by 0.1 -> quality 0.1
        xs = np.linspace(-1.0, 1.0, 21)
        samples = {64: (xs, xs ** 2), 128: (xs, xs ** 2 + 0.1)}
        assert collapse_quality(CollapseCurve(samples=samples, nu=1.0)) \
            == pytest.approx(0.1, rel=1e-12, abs=0)

    def test_identical_curves_give_zero(self):
        xs = np.linspace(-1.0, 1.0, 21)
        samples = {n: (xs, xs ** 2) for n in (64, 128)}
        assert collapse_quality(CollapseCurve(samples=samples, nu=1.0)) == 0.0

    @pytest.mark.parametrize("offset, quality", [(0.0, 0.0), (0.1, math.inf)])
    def test_flat_curves(self, offset, quality):
        # No swing: equal curves collapse perfectly, any spread is unbounded.
        xs = np.linspace(-1.0, 1.0, 21)
        samples = {64: (xs, np.ones_like(xs)), 128: (xs, np.ones_like(xs) + offset)}
        assert collapse_quality(CollapseCurve(samples=samples, nu=1.0)) == quality

    def test_no_sizes_rejected(self):
        with pytest.raises(ValueError, match="need at least one size"):
            data_collapse([])

    @pytest.mark.parametrize("sizes,message", [
        ([64.7, 128, 256], "got 64.7"),
        ([64.7, 128.2, 256.9], "got 64.7"),
        (["64", "128", "256"], "got '64'"),
        ([True, 128, 256], "got True"),
    ], ids=["float", "floats", "str", "bool"])
    def test_size_not_an_integer_rejected(self, sizes, message):
        # int() used to read 64.7 as 64, '64' as 64 and True as 1: the
        # exponent of [64.7, 128.2, 256.9] was that of 64, 128, 256.
        for collapse in (data_collapse, best_collapse_exponent):
            with pytest.raises(ValueError,
                               match=re.escape(f"n_sites must be an integer, {message}")):
                collapse(sizes)

    @pytest.mark.parametrize("n,nu", [(-64, 1.5), (0, 0.5), (63, 1.0)])
    def test_quality_rejects_a_size_not_a_chain(self, n, nu):
        # N^(nu-1) of -64 used to be complex (TypeError), of 0 a
        # ZeroDivisionError, and 63 was scored.
        xs = np.linspace(-1.0, 1.0, 21)
        curve = CollapseCurve(samples={n: (xs, xs ** 2), 128: (xs, xs ** 2 + 0.1)}, nu=nu)
        with pytest.raises(ValueError,
                           match=re.escape(f"n_sites must be even and >= 4, got {n}")):
            collapse_quality(curve)

    def test_size_keys_read_before_they_are_sorted(self):
        # Keys '64' and 128 used to reach sorted() first, which raised
        # TypeError: '<' not supported between instances of 'int' and 'str'.
        xs = np.linspace(-1.0, 1.0, 21)
        curve = CollapseCurve(samples={"64": (xs, xs ** 2), 128: (xs, xs ** 2)}, nu=1.0)
        for read in (collapse_quality, CollapseCurve.by_size):
            with pytest.raises(ValueError,
                               match=re.escape("n_sites must be an integer, got '64'")):
                read(curve)

    @pytest.mark.parametrize("listed", [lambda peaks: [peaks[512]], lambda peaks: [512]],
                             ids=["records", "sizes"])
    def test_peaks_not_a_mapping_rejected(self, listed, collapse_peaks, monkeypatch):
        # A list of records, the shape fit_finite_size takes, used to be
        # ignored, and its peaks searched again; a list of sizes raised a bare
        # IndexError.  Both are rejected before any peak is searched.
        searched = []
        monkeypatch.setattr(tfim_rfs.scaling, "find_peak",
                            lambda n: searched.append(n) or find_peak(n))
        message = re.escape("peaks must be a mapping n_sites -> PeakRecord, got list")
        for collapse in (data_collapse, best_collapse_exponent):
            with pytest.raises(ValueError, match=message):
                collapse([512, 1024], peaks=listed(collapse_peaks))
        assert searched == []

    def test_peak_record_of_another_size_rejected(self, collapse_peaks):
        # The record under key 512 is the 1024-site peak: N = 512 would be
        # sampled around it, and the exponent search returned 0.5003.
        peaks = {512: collapse_peaks[1024], 1024: collapse_peaks[1024]}
        message = re.escape("peaks[512] is the peak record of N=1024, not of N=512")
        for collapse in (data_collapse, best_collapse_exponent):
            with pytest.raises(ValueError, match=message):
                collapse([512, 1024], peaks=peaks)

    @pytest.mark.parametrize("chi_m", [-1.0, math.nan, math.inf])
    def test_peak_record_with_bad_chi_m_rejected(self, chi_m, collapse_peaks):
        # -1.0 used to raise a bare "math domain error", and nan to give a
        # curve of NaN that failed only later, in the exponent search.
        peaks = {**collapse_peaks, 1024: replace(collapse_peaks[1024], chi_m=chi_m)}
        message = re.escape(f"chi_m must be finite and >= 0, got {chi_m!r} at N=1024")
        for collapse in (data_collapse, best_collapse_exponent):
            with pytest.raises(ValueError, match=message):
                collapse([512, 1024], peaks=peaks)

    @pytest.mark.parametrize("sizes", [SMALL_COLLAPSE_SIZES, COLLAPSE_SIZES])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0])
    def test_quality_matches_plain_python(self, sizes, nu, collapse_peaks):
        peaks = {n: collapse_peaks[n] for n in sizes if n in collapse_peaks}
        curve = data_collapse(sizes, nu=nu, peaks=peaks)
        expected = _plain_collapse_quality(curve)
        assert abs(collapse_quality(curve) - expected) <= 1e-12 * expected

    def test_overflowing_rescale_names_size_and_exponent(self):
        # float(N) ** (nu - 1) used to escape as OverflowError.
        xs = np.linspace(-1.0, 1.0, 5)
        curve = CollapseCurve(samples={64: (xs, xs ** 2), 128: (xs, xs ** 2)}, nu=200.0)
        with pytest.raises(ValueError, match=r"N=64, nu=200\.0"):
            curve.by_size()

    def test_infinite_rescale_names_size_and_exponent(self):
        # N^(nu-1) is finite, 10 N^(nu-1) is not: the rows have no finite x,
        # but the quality, formed in w, is still defined.
        xs = np.linspace(-10.0, 10.0, 41)
        curve = CollapseCurve(samples={n: (xs, xs ** 2 + n / 64) for n in (64, 128, 256)},
                              nu=128.9)
        with pytest.raises(ValueError, match=r"not finite for N=256, nu=128\.9"):
            curve.by_size()
        assert math.isfinite(collapse_quality(curve))

    @pytest.mark.parametrize("nu", ["1.5", None, Decimal("1.5"), 1j],
                             ids=["str", "none", "decimal", "complex"])
    def test_nu_not_a_real_number_rejected(self, nu):
        # nu used to be stored as given and to fail as a bare TypeError in
        # N^(nu-1), from collapse_quality and by_size alike.
        xs = np.linspace(-1.0, 1.0, 5)
        curve = CollapseCurve(samples={64: (xs, xs ** 2), 128: (xs, xs ** 2)}, nu=1.0)
        message = re.escape(f"nu must be a real number, got {nu!r}")
        with pytest.raises(ValueError, match=message):
            CollapseCurve(samples=curve.samples, nu=nu)
        with pytest.raises(ValueError, match=message):
            replace(curve, nu=nu)

    def test_empty_overlap_raises(self):
        samples = {64: (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                   128: (np.array([5.0, 6.0]), np.array([0.0, 1.0]))}
        with pytest.raises(ValueError):
            collapse_quality(CollapseCurve(samples=samples, nu=1.0))

    @pytest.mark.parametrize("sizes,small,lam_m", [
        ([8, 16, 32], 8, "0.9054342433103578"),
        ([10, 12, 14], 10, "0.9348962946848883"),
    ])
    def test_window_below_zero_names_the_size(self, sizes, small, lam_m, monkeypatch):
        # The window w >= -10 reaches lam < 0 when lam_m < 10/N, at N <= 10;
        # it used to fail on the first sample with ChainSpec's bare message.
        message = rf"window at N={small} starts at lam = lam_m - 10/N = -0\.\d+ < 0 \(lam_m = {lam_m}\)"
        for collapse in (data_collapse, best_collapse_exponent):
            with pytest.raises(ValueError, match=message):
                collapse(sizes)
        # Given the peaks, no chi is evaluated before the error.
        peaks = {n: find_peak(n) for n in sizes}
        calls = []
        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility",
                            lambda n, lam: calls.append((n, lam)) or susceptibility(n, lam))
        monkeypatch.setattr(tfim_rfs.scaling, "_susceptibility_finite_array",
                            lambda n, lams: calls.append((n, lams)) or _susceptibility_finite_array(n, lams))
        for collapse in (data_collapse, best_collapse_exponent):
            with pytest.raises(ValueError, match=message):
                collapse(sizes, peaks=peaks)
        assert calls == []
        assert collapse_quality(data_collapse([12, 14, 16])) >= 0.0

    def test_unit_exponent_collapses(self, collapse_peaks):
        curve = data_collapse(COLLAPSE_SIZES, nu=1.0, peaks=collapse_peaks)
        assert collapse_quality(curve) <= 0.05

    @pytest.mark.parametrize("nu", [0.5, 0.75, 1.5, 2.0])
    def test_wrong_exponents_are_worse(self, nu, collapse_peaks):
        good = collapse_quality(data_collapse(COLLAPSE_SIZES, nu=1.0, peaks=collapse_peaks))
        bad = collapse_quality(data_collapse(COLLAPSE_SIZES, nu=nu, peaks=collapse_peaks))
        assert bad > good

    def test_large_argument_log_growth(self, collapse_peaks):
        # outer third of the positive branch: y is linear in ln x
        curve = data_collapse(COLLAPSE_SIZES, nu=1.0, peaks=collapse_peaks)
        xs, ys = curve.by_size()[4096]
        x_max = xs[-1]
        mask = xs >= (2.0 / 3.0) * x_max
        log_x = np.log(xs[mask])
        slope, intercept = np.polyfit(log_x, ys[mask], 1)
        fitted = slope * log_x + intercept
        ss_res = np.sum((ys[mask] - fitted) ** 2)
        ss_tot = np.sum((ys[mask] - ys[mask].mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.99

    def test_exponent_recovery(self, collapse_peaks):
        nu = best_collapse_exponent(COLLAPSE_SIZES, peaks=collapse_peaks)
        assert 0.9 <= nu <= 1.1
        assert nu.hex() == "0x1.fecc89f7c8813p-1"
        nu = best_collapse_exponent(SMALL_COLLAPSE_SIZES)
        assert nu.hex() == "0x1.0a21ec5d46a26p+0"

    def test_samples_are_the_scalar_loop(self):
        # Every sample, w = 0 and the array pass's alike, is bitwise the
        # scalar sqrt(chi_m) - sqrt(susceptibility(n, lam_m + w / n)).
        for n, (w, y) in data_collapse(SMALL_COLLAPSE_SIZES).samples.items():
            p = find_peak(n)
            expected = [math.sqrt(p.chi_m) - math.sqrt(susceptibility(n, p.lambda_m + v / n))
                        for v in w.tolist()]
            assert y.tolist() == expected, n

    @pytest.mark.parametrize("sizes", [COLLAPSE_SIZES, SMALL_COLLAPSE_SIZES])
    def test_search_trials_agree_with_collapse_quality(self, sizes, collapse_peaks, monkeypatch):
        # The search samples once, at nu = 1, and scores each trial exponent
        # with collapse_quality of that sampling with nu replaced.
        peaks = {n: collapse_peaks[n] for n in sizes if n in collapse_peaks}
        sampled = data_collapse(sizes, peaks=peaks)
        trials = []

        def recorded(fn, lo, hi, tol):
            trials.extend((nu, -fn(nu)) for nu in np.linspace(lo, hi, 31).tolist())
            return 1.0

        monkeypatch.setattr(tfim_rfs.scaling, "_golden_section_max", recorded)
        best_collapse_exponent(sizes, peaks=peaks)
        assert len(trials) == 31
        for nu, quality in trials:
            expected = collapse_quality(replace(sampled, nu=nu))
            assert quality == expected, nu

    @pytest.mark.parametrize("sizes", [[64], [64, 64], []])
    def test_exponent_needs_two_sizes(self, sizes):
        # Rejected before any curve is sampled, naming the sizes as given.
        with pytest.raises(ValueError, match=re.escape(f"2 distinct sizes, got {sizes}")):
            best_collapse_exponent(sizes)

    @pytest.mark.parametrize("make", [iter, lambda s: (n for n in s), lambda s: map(int, s)],
                             ids=["iterator", "generator", "map"])
    def test_exponent_reads_sizes_once(self, make):
        # The two-size check used to exhaust an iterator, and the collapse
        # then raised "need at least one size".
        expected = best_collapse_exponent(list(SMALL_COLLAPSE_SIZES))
        assert best_collapse_exponent(make(SMALL_COLLAPSE_SIZES)).hex() == expected.hex()

    @pytest.mark.parametrize("sizes", [COLLAPSE_SIZES, SMALL_COLLAPSE_SIZES])
    def test_exponent_search_scores_through_collapse_quality(self, sizes, collapse_peaks,
                                                             monkeypatch):
        # A bracket of 1.5 narrowed by 1/phi per trial to 1e-3 takes 2 + 16
        # trials, each one call of the scorer that collapse_quality also runs.
        calls = []

        def counted_scorer(curve):
            score = _collapse_scorer(curve)

            def counted(nu):
                calls.append(nu)
                return score(nu)
            return counted

        monkeypatch.setattr(tfim_rfs.scaling, "_collapse_scorer", counted_scorer)
        peaks = {n: collapse_peaks[n] for n in sizes if n in collapse_peaks}
        best_collapse_exponent(sizes, peaks=peaks)
        assert len(calls) == 18

    def test_exponent_search_checks_curves_once(self, collapse_peaks, monkeypatch):
        # The samples are read and checked when the scorer is built, not per
        # trial.
        calls = []

        def counted(curve):
            calls.append(len(curve.samples))
            return _read_samples(curve)

        monkeypatch.setattr(tfim_rfs.scaling, "_read_samples", counted)
        best_collapse_exponent(COLLAPSE_SIZES, peaks=collapse_peaks)
        assert calls == [len(COLLAPSE_SIZES)]

    def test_exponent_search_samples_once(self, collapse_peaks, monkeypatch):
        # Every coupling evaluated, through susceptibility or the array pass:
        # 41 per size, none twice.
        calls = []

        def counted(n, lam):
            calls.append((n, float(lam)))
            return susceptibility(n, lam)

        def counted_array(n, lams):
            calls.extend((n, lam) for lam in lams.tolist())
            return _susceptibility_finite_array(n, lams)

        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility", counted)
        monkeypatch.setattr(tfim_rfs.scaling, "_susceptibility_finite_array", counted_array)
        best_collapse_exponent(COLLAPSE_SIZES, peaks=collapse_peaks)
        assert len(calls) == len(set(calls)) == len(COLLAPSE_SIZES) * 41
        assert sorted({n for n, _ in calls}) == list(COLLAPSE_SIZES)

    @pytest.mark.parametrize("nu", [0.5, 0.75, 1.5, 2.0])
    def test_rescaled_unit_sampling_is_exact(self, nu, collapse_peaks):
        # best_collapse_exponent relies on this: the nu = 1 sampling with nu
        # replaced gives bitwise the curves that sampling at nu gives.
        unit = data_collapse(COLLAPSE_SIZES, peaks=collapse_peaks)
        rescaled = replace(unit, nu=nu).by_size()
        sampled = data_collapse(COLLAPSE_SIZES, nu=nu, peaks=collapse_peaks).by_size()
        assert list(rescaled) == list(sampled) == list(COLLAPSE_SIZES)
        for n in COLLAPSE_SIZES:
            for got, expected in zip(rescaled[n], sampled[n]):
                np.testing.assert_array_equal(got, expected)


def _plain_collapse_quality(curve):
    """collapse_quality in plain Python: bisect for each x / N^(nu-1) in w,
    the linear formula between the two samples around it, and the pairwise
    spread summed point by point."""
    scales = {n: float(n) ** (curve.nu - 1.0) for n in sorted(curve.samples)}
    curves = {n: ([float(v) for v in w], [float(v) for v in y])
              for n, (w, y) in curve.samples.items()}
    lo = max(curves[n][0][0] * s for n, s in scales.items())
    hi = min(curves[n][0][-1] * s for n, s in scales.items())
    grid = [lo + (hi - lo) * k / 100 for k in range(101)]

    def value(w, y, t):
        if t <= w[0]:
            return y[0]
        if t >= w[-1]:
            return y[-1]
        j = bisect.bisect_right(w, t) - 1
        return y[j] + (y[j + 1] - y[j]) * (t - w[j]) / (w[j + 1] - w[j])

    rows = [[value(*curves[n], x / s) for x in grid] for n, s in scales.items()]
    pairs = list(combinations(rows, 2))
    spread = sum(abs(a - b) for p, q in pairs for a, b in zip(p, q)) / (len(pairs) * len(grid))
    mean = [sum(column) / len(rows) for column in zip(*rows)]
    return spread / (max(mean) - min(mean))


def _combinations_quality(curve):
    """collapse_quality with the pairwise spreads summed by Python's sum over
    itertools.combinations, one numpy row at a time, as it was formed before
    the rows were stacked."""
    scales = {n: float(n) ** (curve.nu - 1.0) for n in sorted(curve.samples)}
    lo = max(float(curve.samples[n][0][0]) * s for n, s in scales.items())
    hi = min(float(curve.samples[n][0][-1]) * s for n, s in scales.items())
    grid = np.linspace(lo, hi, 101)
    rows = np.array([np.interp(grid / s, *curve.samples[n]) for n, s in scales.items()])
    pairs = list(combinations(rows, 2))
    spread = float(np.mean(sum(np.abs(a - b) for a, b in pairs) / len(pairs)))
    mean = rows.mean(axis=0)
    return spread / float(mean.max() - mean.min())


@pytest.mark.parametrize("seed", range(4))
def test_quality_sums_pairs_as_python_sum(seed):
    # One axis-0 reduce of the stacked pair differences adds the rows in the
    # order of the Python sum, so the quality keeps its bits: 2-8 random
    # curves, of one length or of several.
    rng = np.random.default_rng(seed)
    for case in range(100):
        sizes = sorted(rng.choice(np.arange(4, 5000, 2), int(rng.integers(2, 9)), replace=False))
        length = int(rng.integers(2, 60))
        samples = {}
        for n in sizes:
            m = length if case % 2 else int(rng.integers(2, 60))
            w = np.sort(rng.uniform(-10.0, 10.0, m))
            w[0], w[-1] = -10.0 - rng.random(), 10.0 + rng.random()
            samples[int(n)] = (w, rng.normal(size=m) * 10.0 ** rng.uniform(-3.0, 3.0))
        curve = CollapseCurve(samples=samples, nu=float(rng.uniform(0.5, 2.0)))
        assert collapse_quality(curve).hex() == _combinations_quality(curve).hex(), case


class TestCurveSamples:
    """Input checks of a collapse curve's samples, as ``collapse_quality`` and
    ``CollapseCurve.by_size`` read them, on hand-built curves."""

    BAD_CURVES = {
        "two_d": ((np.ones((2, 3)), np.ones((2, 3))),
                  "w and y must be 1-d of one length, got shapes (2, 3) and (2, 3)"),
        "short": (([0.0], [1.0]), "need at least 2 points to interpolate"),
        "nan_w": (([0.0, math.nan, 1.0], [0.0, 1.0, 2.0]), "w and y must be finite"),
        "inf_y": (([0.0, 0.5, 1.0], [0.0, math.inf, 2.0]), "w and y must be finite"),
        "flat_w": (([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]), "w must be strictly increasing"),
    }

    @pytest.mark.parametrize("first", sorted(BAD_CURVES))
    @pytest.mark.parametrize("second", sorted(BAD_CURVES))
    def test_first_of_two_bad_curves_is_named(self, first, second, read=collapse_quality):
        # The curves are checked in size order, so the smaller size's fault
        # is named.
        good = ([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])
        samples = {64: self.BAD_CURVES[first][0], 128: good, 256: self.BAD_CURVES[second][0]}
        with pytest.raises(ValueError) as info:
            read(CollapseCurve(samples=samples, nu=1.0))
        assert str(info.value) == self.BAD_CURVES[first][1]

    @pytest.mark.parametrize("first", sorted(BAD_CURVES))
    @pytest.mark.parametrize("second", sorted(BAD_CURVES))
    def test_by_size_names_first_of_two_bad_curves(self, first, second):
        # by_size used to skip the checks: it returned x for a decreasing or
        # 2-d w, and rescaled a NaN w to a message about x.
        self.test_first_of_two_bad_curves_is_named(first, second, read=CollapseCurve.by_size)

    INVALID_DATA = [
        ([0.0], [1.0], "at least 2 points"),
        ([0.0, 1.0, 2.0], [0.0, 1.0], "1-d of one length"),
        ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]], "1-d of one length"),
        ([0.0, math.inf], [0.0, 1.0], "finite"),
        ([0.0, 1.0], [0.0, math.nan], "finite"),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
        ([1.0, 0.0], [0.0, 1.0], "strictly increasing"),
    ]

    @pytest.mark.parametrize("xs, ys, message", INVALID_DATA)
    def test_rejects_invalid_data(self, xs, ys, message, read=collapse_quality):
        good = np.array([0.0, 0.5, 1.0])
        curve = CollapseCurve(samples={64: (xs, ys), 128: (good, good)}, nu=1.0)
        with pytest.raises(ValueError, match=message):
            read(curve)

    @pytest.mark.parametrize("xs, ys, message", INVALID_DATA)
    def test_by_size_rejects_invalid_data(self, xs, ys, message):
        self.test_rejects_invalid_data(xs, ys, message, read=CollapseCurve.by_size)

    def test_by_size_reads_list_samples(self):
        # by_size used to multiply the lists by N^(nu-1), a TypeError, while
        # collapse_quality converted them.
        samples = {64: ([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), 128: ([0.0, 1.0, 2.0], [0.0, 1.5, 4.0])}
        listed = CollapseCurve(samples=samples, nu=2.0)
        arrays = CollapseCurve(samples={n: tuple(map(np.array, s)) for n, s in samples.items()},
                               nu=2.0)
        expected = arrays.by_size()
        got = listed.by_size()
        assert list(got) == list(expected) == [64, 128]
        for n, (x, y) in got.items():
            assert (x.tobytes(), y.tobytes()) == tuple(a.tobytes() for a in expected[n])
        assert collapse_quality(listed).hex() == collapse_quality(arrays).hex()

    def test_non_finite_curve_rejected(self):
        # A hand-built curve is public input; np.interp would not reject an infinite w.
        finite = np.array([-1.0, 0.0, 1.0])
        samples = {64: (np.array([-1.0, 0.0, math.inf]), finite), 128: (finite, finite)}
        with pytest.raises(ValueError, match="finite"):
            collapse_quality(CollapseCurve(samples=samples, nu=1.0))

    def test_overflowing_window_rejected(self):
        # Finite w whose x = N^(nu-1) w overflows at every size: no grid.  The
        # ValueError comes before any numpy warning (np.linspace over [-inf,
        # inf], or np.diff of +-1e308), which pytest turns into an exception.
        for big in (1e307, 1e308):
            w, y = np.array([-big, big]), np.array([0.0, 1.0])
            curve = CollapseCurve(samples={64: (w, y), 128: (w, y)}, nu=2.0)
            with pytest.raises(ValueError, match=re.escape(
                    "collapse curves are not finite for N=[64, 128], nu=2.0: "
                    "the window of x = N^(nu-1) w is [-inf, inf]")):
                collapse_quality(curve)

    def test_overflowing_interpolation_rejected(self):
        # The window [0, 2] is finite, but interpolating between -1e308 and
        # 1e308 overflows; the ValueError comes before any numpy warning.
        w = np.array([0.0, 1.0, 2.0])
        samples = {64: (w, np.array([-1e308, 1e308, 0.0])), 128: (w, np.zeros(3))}
        with pytest.raises(ValueError, match=re.escape(
                "collapse curves are not finite for N=[64, 128], nu=1.0")):
            collapse_quality(CollapseCurve(samples=samples, nu=1.0))
