import math

import numpy as np
import pytest

import tfim_rfs.scaling
from tfim_rfs import (
    LOG_SQUARED_AMPLITUDE,
    CollapseCurve,
    PeakRecord,
    PeakSearchError,
    best_collapse_exponent,
    collapse_quality,
    data_collapse,
    find_peak,
    fit_finite_size,
    fit_sq_log_model,
    fit_thermo,
    susceptibility,
    susceptibility_thermo,
)

COLLAPSE_SIZES = (512, 1024, 2048, 4096)


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
        rec = find_peak(256)
        for probe in (rec.lambda_m - 1e-6, rec.lambda_m + 1e-6):
            assert susceptibility(256, probe) <= rec.chi_m

    def test_unimodal_scan(self):
        lams = np.linspace(0.8, 1.1, 41)
        chis = np.array([susceptibility(300, float(l)) for l in lams])
        diffs = np.diff(chis)
        i = int(np.argmax(chis))
        assert np.all(diffs[:i] > 0) and np.all(diffs[i:] < 0)

    def test_no_interior_maximum_raises_with_scan(self):
        with pytest.raises(PeakSearchError) as info:
            find_peak(256, bracket=(1.5, 2.0))
        assert info.value.lambdas is not None and info.value.chis is not None

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            find_peak(256, bracket=(1.1, 0.8))


class TestFitFiniteSize:
    def test_slope_matches_amplitude(self):
        peaks = [find_peak(2 ** k) for k in range(9, 15)]
        assert all(a.chi_m < b.chi_m for a, b in zip(peaks, peaks[1:]))
        fit = fit_finite_size(peaks)
        ref = math.sqrt(LOG_SQUARED_AMPLITUDE)
        assert fit.model == "sqrt_chi_vs_lnN"
        assert abs(fit.slope - ref) <= 0.05 * ref
        assert fit.r_squared > 0.99 and not fit.flagged

    def test_two_points_interpolate_exactly(self):
        peaks = [PeakRecord(64, 0.97, 2.0), PeakRecord(1024, 0.999, 6.0)]
        fit = fit_finite_size(peaks)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        x1, x2 = math.log(64), math.log(1024)
        assert fit.slope == pytest.approx((math.sqrt(6) - math.sqrt(2)) / (x2 - x1), rel=1e-12)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            fit_finite_size([PeakRecord(64, 0.97, 2.0), PeakRecord(64, 0.97, 2.0)])


class TestFitThermo:
    def test_recovers_amplitude_below(self):
        fit = fit_thermo([1 - 10.0 ** (-k) for k in range(2, 6)])
        assert fit.model == "chi_vs_sq_log_lambda"
        assert fit.params["amplitude_rel_deviation"] <= 0.05

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

    def test_mixed_branches_rejected(self):
        with pytest.raises(ValueError):
            fit_thermo([0.99, 0.999, 1.01, 1.001])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_thermo([0.99, 0.999, 0.9999])

    def test_critical_coupling_rejected(self):
        with pytest.raises(ValueError):
            fit_thermo([0.99, 0.999, 0.9999, 1.0])


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
        assert abs(a - ref_a) <= 1e-12 * abs(ref_a)
        assert abs(d1 - ref_d1) <= 1e-10 * max(1.0, abs(ref_d1))
        assert abs(d2 - ref_d2) <= 1e-10 * max(1.0, abs(ref_d2))


class TestDataCollapse:
    def test_single_size_has_zero_spread(self):
        curve = data_collapse([512], nu=1.0, peaks={512: find_peak(512)})
        assert collapse_quality(curve) == 0.0

    def test_constant_offset_definition(self):
        # two curves of unit swing offset by 0.1 -> quality 0.1
        xs = np.linspace(-1.0, 1.0, 21)
        points = [(float(x), float(x ** 2), 64) for x in xs]
        points += [(float(x), float(x ** 2) + 0.1, 128) for x in xs]
        assert collapse_quality(CollapseCurve(points=tuple(points), nu=1.0)) \
            == pytest.approx(0.1, rel=1e-12)

    def test_identical_curves_give_zero(self):
        xs = np.linspace(-1.0, 1.0, 21)
        points = [(float(x), float(x ** 2), n) for n in (64, 128) for x in xs]
        assert collapse_quality(CollapseCurve(points=tuple(points), nu=1.0)) == 0.0

    def test_empty_overlap_raises(self):
        points = ((0.0, 0.0, 64), (1.0, 1.0, 64), (5.0, 0.0, 128), (6.0, 1.0, 128))
        with pytest.raises(ValueError):
            collapse_quality(CollapseCurve(points=points, nu=1.0))

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

    def test_exponent_search_samples_once(self, collapse_peaks, monkeypatch):
        calls = []

        def counted(n, lam):
            calls.append((n, lam))
            return susceptibility(n, lam)

        monkeypatch.setattr(tfim_rfs.scaling, "susceptibility", counted)
        best_collapse_exponent(COLLAPSE_SIZES, peaks=collapse_peaks)
        assert len(calls) == len(COLLAPSE_SIZES) * 41

    @pytest.mark.parametrize("nu", [0.5, 0.75, 1.5, 2.0])
    def test_rescaled_unit_sampling_is_exact(self, nu, collapse_peaks):
        # best_collapse_exponent relies on this: rescaling the nu = 1 sampling
        # gives bitwise the points that sampling at nu gives.
        unit = data_collapse(COLLAPSE_SIZES, nu=1.0, peaks=collapse_peaks)
        rescaled = tuple((w * float(n) ** (nu - 1.0), y, n) for w, y, n in unit.points)
        assert rescaled == data_collapse(COLLAPSE_SIZES, nu=nu, peaks=collapse_peaks).points
