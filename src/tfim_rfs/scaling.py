"""Peak location, scaling fits, and data collapse for the susceptibility.

The peak height chi_m(N) grows like the square of a logarithm,

    chi_m(N) ~ A (ln N + c1)^2 + c2,

so sqrt(chi_m) is fitted linearly against ln N; the analytic amplitude is

    A = (27 pi^4 - 144 pi^2 - 1024)
        / [pi^2 (9 pi^2 + 32)(3 pi^2 - 32) + 4096]  ~ 0.1485.

In the thermodynamic limit the same amplitude governs
chi(lam) ~ A (ln 1/|1-lam| + d1)^2 + d2, and equality of the two amplitudes
fixes the scaling exponent nu = 1: curves of sqrt(chi_m) - sqrt(chi(lam))
plotted against N^nu (lam - lam_m) collapse onto one size-independent
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .rfs import susceptibility, susceptibility_thermo

__all__ = [
    "LOG_SQUARED_AMPLITUDE",
    "CollapseCurve",
    "PeakRecord",
    "PeakSearchError",
    "ScalingFit",
    "best_collapse_exponent",
    "collapse_quality",
    "data_collapse",
    "find_peak",
    "fit_finite_size",
    "fit_sq_log_model",
    "fit_thermo",
]

# Amplitude of the squared-logarithm divergence of the peak susceptibility.
LOG_SQUARED_AMPLITUDE = (27.0 * math.pi**4 - 144.0 * math.pi**2 - 1024.0) / (
    math.pi**2 * (9.0 * math.pi**2 + 32.0) * (3.0 * math.pi**2 - 32.0) + 4096.0
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Fixed settings of the collapse: the window in w = N (lam - lam_m) and its
# samples per size, the x grid of collapse_quality, and the exponent range and
# final bracket width of best_collapse_exponent.
_COLLAPSE_WINDOW = (-10.0, 10.0)
_COLLAPSE_POINTS = 41
_QUALITY_GRID_POINTS = 101
_NU_BOUNDS = (0.5, 2.0)
_NU_TOL = 1e-3


class PeakSearchError(ValueError):
    """No certified interior maximum; scan data attached for inspection."""

    def __init__(self, message: str, lambdas=None, chis=None):
        super().__init__(message)
        self.lambdas = lambdas
        self.chis = chis


@dataclass(frozen=True)
class PeakRecord:
    """A certified local maximum of chi(lam) at fixed chain size."""

    n_sites: int
    lambda_m: float
    chi_m: float


@dataclass(frozen=True)
class ScalingFit:
    """Fitted slope/intercept with quality measure and named constants.

    ``model`` is "sqrt_chi_vs_lnN" or "chi_vs_sq_log_lambda".  For the
    squared-log model a (x + d1)^2 + d2 the amplitude a is stored as
    ``slope`` and the additive constant d2 as ``intercept``.  Fits with
    r^2 < 0.99 carry ``flagged=True`` rather than being rejected.
    """

    slope: float
    intercept: float
    r_squared: float
    model: str
    params: dict = field(default_factory=dict)
    flagged: bool = False


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-8):
    """Golden-section maximization on [lo, hi]; stops at bracket width <= tol."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = fn(d)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def find_peak(
    n_sites: int,
    bracket: tuple[float, float] = (0.8, 1.1),
    scan_points: int = 41,
) -> PeakRecord:
    """Locate the susceptibility peak of an N-site chain within ``bracket``.

    A coarse scan certifies unimodality (strict rise then strict fall) and
    brackets the maximum, which golden-section search then refines until the
    bracket is narrower than 1e-8, the ``golden_section_max`` default.  The
    returned record is re-certified as a local maximum against lam_m +- 1e-6.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid bracket {bracket}")
    lams = np.linspace(lo, hi, scan_points)
    chis = np.array([susceptibility(n_sites, lam) for lam in lams])
    imax = int(np.argmax(chis))
    if imax == 0 or imax == scan_points - 1:
        raise PeakSearchError(
            f"no interior maximum of chi in bracket {bracket} for N={n_sites}",
            lambdas=lams, chis=chis,
        )
    diffs = np.diff(chis)
    if not (np.all(diffs[:imax] > 0.0) and np.all(diffs[imax:] < 0.0)):
        raise PeakSearchError(
            f"chi is not unimodal on {bracket} for N={n_sites}",
            lambdas=lams, chis=chis,
        )

    lam_m, chi_m = golden_section_max(
        lambda lam: susceptibility(n_sites, lam), lams[imax - 1], lams[imax + 1]
    )
    lam_m, chi_m = float(lam_m), float(chi_m)
    if not (0.0 < lam_m < 2.0):
        raise PeakSearchError(f"peak location {lam_m} outside (0, 2) for N={n_sites}")
    for probe in (lam_m - 1e-6, lam_m + 1e-6):
        if susceptibility(n_sites, probe) > chi_m:
            raise PeakSearchError(
                f"local-maximum certificate failed at N={n_sites}, lam={lam_m}"
            )
    return PeakRecord(n_sites=n_sites, lambda_m=lam_m, chi_m=chi_m)


def _r_squared(y, residuals) -> float:
    ss_res = float(np.sum(np.asarray(residuals) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_finite_size(peaks) -> ScalingFit:
    """Least-squares fit of sqrt(chi_m) against ln N.

    The slope estimates sqrt(A) with A the squared-log amplitude; the
    params report the implied amplitude, the constant c1 = intercept/slope,
    the analytic reference, and the relative slope deviation.
    """
    peaks = sorted(peaks, key=lambda p: p.n_sites)
    sizes = [p.n_sites for p in peaks]
    if len(set(sizes)) < 2:
        raise ValueError("need at least two distinct sizes for a line fit")
    x = np.log(sizes)
    y = np.sqrt([p.chi_m for p in peaks])
    coeffs = np.polyfit(x, y, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    r_sq = _r_squared(y, y - (slope * x + intercept))
    ref = math.sqrt(LOG_SQUARED_AMPLITUDE)
    params = {
        "amplitude": slope * slope,
        "c1": intercept / slope,
        "sqrt_amplitude_ref": ref,
        "slope_rel_deviation": abs(slope - ref) / ref,
    }
    return ScalingFit(
        slope=float(slope), intercept=float(intercept), r_squared=r_sq,
        model="sqrt_chi_vs_lnN", params=params, flagged=r_sq < 0.99,
    )


def fit_sq_log_model(x, y):
    """Least squares of y = a (x + d1)^2 + d2, solved exactly.

    The model is the quadratic a t^2 + c1 t + c0 in t = x - mean(x), so its
    optimum is one linear least-squares solve, mapped back by
    d1 = c1 / (2a) - mean(x) and d2 = c0 - c1^2 / (4a).  The solve runs on
    y - mean(y), with mean(y) added back to c0 after it: where y is large
    and varies little (x ~ 30) this cuts the error of a against an exact
    solve from about 1e-13 to about 1e-14.

    Returns (a, d1, d2, r_squared).  Used with x = ln 1/|1 - lam| for the
    thermodynamic divergence; exposed separately so synthetic data can be
    fitted directly.  Raises ValueError for fewer than 4 points, when x has
    fewer than 3 distinct values, which leaves (a, d1, d2) undetermined, and
    when the curvature is not resolved, |a| ptp(x)^2 <= 1e-8 ptp(y), which
    leaves d1 undetermined: on exactly linear data a is roundoff (~1e-16)
    and d1 ~ 1/a, while real thermodynamic windows give at least 0.07.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError("need at least 4 points to fit (a, d1, d2)")
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    design = np.vander(x - x_mean, 3)
    deviations = y - y_mean
    coeffs, _, rank, _ = np.linalg.lstsq(design, deviations, rcond=None)
    if rank < 3:
        raise ValueError(
            f"x has fewer than 3 distinct values (numerical rank {rank}): "
            "the three parameters (a, d1, d2) are not determined"
        )
    a, c1, c0 = (float(c) for c in coeffs)
    if abs(a) * float(np.ptp(x)) ** 2 <= 1e-8 * float(np.ptp(y)):
        raise ValueError(
            f"the fitted curvature a = {a!r} is not resolved against the spread of y: "
            "d1 is not determined"
        )
    d1 = c1 / (2.0 * a) - x_mean
    d2 = (c0 + y_mean) - c1 * c1 / (4.0 * a)
    return a, d1, d2, _r_squared(y, deviations - design @ coeffs)


def fit_thermo(lambdas) -> ScalingFit:
    """Fit the thermodynamic divergence chi(lam) = a (ln 1/|1-lam| + d1)^2 + d2.

    All couplings must lie strictly on one side of the critical point; the
    fitted amplitude is compared against the finite-size one (they agree
    analytically, which is what fixes the collapse exponent at 1).
    """
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) < 4:
        raise ValueError("need at least 4 couplings")
    if any(l == 1.0 for l in lambdas):
        raise ValueError("couplings must differ from the critical value 1")
    below = [l < 1.0 for l in lambdas]
    if any(below) and not all(below):
        raise ValueError("couplings must not mix the lam < 1 and lam > 1 branches")

    x = np.array([math.log(1.0 / abs(1.0 - l)) for l in lambdas])
    y = np.array([susceptibility_thermo(l) for l in lambdas])
    a, d1, d2, r_sq = fit_sq_log_model(x, y)
    params = {
        "amplitude": a,
        "d1": d1,
        "d2": d2,
        "amplitude_ref": LOG_SQUARED_AMPLITUDE,
        "amplitude_rel_deviation": abs(a - LOG_SQUARED_AMPLITUDE) / LOG_SQUARED_AMPLITUDE,
    }
    return ScalingFit(
        slope=a, intercept=d2, r_squared=r_sq,
        model="chi_vs_sq_log_lambda", params=params, flagged=r_sq < 0.99,
    )


@dataclass(frozen=True)
class CollapseCurve:
    """Scaled susceptibility curves for several sizes.

    ``points`` holds (x, y, n_sites) tuples with x = N^nu (lam - lam_m) and
    y = sqrt(chi_m) - sqrt(chi(lam)); at nu = 1 the curves for different
    sizes trace one universal function.
    """

    points: tuple
    nu: float

    def by_size(self) -> dict:
        """Per-size (x, y) arrays, x ascending."""
        sizes = sorted({p[2] for p in self.points})
        out = {}
        for n in sizes:
            branch = sorted((p[0], p[1]) for p in self.points if p[2] == n)
            xs = np.array([b[0] for b in branch])
            ys = np.array([b[1] for b in branch])
            out[n] = (xs, ys)
        return out


def data_collapse(sizes, nu: float = 1.0, peaks=None) -> CollapseCurve:
    """Sample the collapse curves for the given sizes at exponent ``nu``.

    Each size is sampled at 41 offsets w = N (lam - lam_m) evenly spaced on
    [-10, 10], at x = N^(nu-1) w, so at nu = 1 every size covers the same x
    range.  Peak records are taken from ``peaks`` (a mapping n_sites ->
    PeakRecord) or computed for the sizes it lacks.
    """
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes:
        raise ValueError("need at least one size")
    peaks = peaks or {}
    offsets = np.linspace(*_COLLAPSE_WINDOW, _COLLAPSE_POINTS)
    points = []
    for n in sizes:
        rec = peaks[n] if n in peaks else find_peak(n)
        sqrt_peak = math.sqrt(rec.chi_m)
        scale = float(n) ** (nu - 1.0)
        for w in offsets:
            lam = rec.lambda_m + w / n
            y = sqrt_peak - math.sqrt(susceptibility(n, lam))
            points.append((float(w * scale), float(y), n))
    return CollapseCurve(points=tuple(points), nu=float(nu))


def collapse_quality(curve: CollapseCurve) -> float:
    """Mean pairwise spread of the curves at matched x, relative to the
    swing of their mean.

    Curves are compared at 101 evenly spaced x of their common window, by
    monotone piecewise-cubic interpolation (no overshoot).  Identical curves
    give 0, and so does a single size; two curves a constant 0.1 apart on a
    unit-swing shape give 0.1.  An empty overlap window raises ValueError.
    """
    branches = curve.by_size()
    if len(branches) < 2:
        return 0.0
    lo = max(xs[0] for xs, _ in branches.values())
    hi = min(xs[-1] for xs, _ in branches.values())
    if lo >= hi:
        raise ValueError(f"empty overlap window: [{lo}, {hi}]")
    grid = np.linspace(lo, hi, _QUALITY_GRID_POINTS)
    interpolated = np.array(
        [PchipInterpolator(xs, ys)(grid) for xs, ys in branches.values()]
    )
    n = interpolated.shape[0]
    spread = np.zeros_like(grid)
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            spread += np.abs(interpolated[i] - interpolated[j])
            pairs += 1
    mean_spread = float(np.mean(spread / pairs))
    mean_curve = interpolated.mean(axis=0)
    swing = float(mean_curve.max() - mean_curve.min())
    if swing == 0.0:
        return 0.0 if mean_spread == 0.0 else math.inf
    return mean_spread / swing


def best_collapse_exponent(sizes, peaks=None) -> float:
    """Exponent in [0.5, 2] minimizing the collapse quality metric.

    The curves are sampled once, at nu = 1 where x = w.  Each trial exponent
    rescales that sampling to x = N^(nu-1) w, the same floats data_collapse
    computes at that nu, so the chain is not resampled.  Golden-section
    search stops at a bracket narrower than 1e-3.
    """
    sampled = data_collapse(sizes, peaks=peaks)

    def quality(nu: float) -> float:
        points = tuple((w * float(n) ** (nu - 1.0), y, n) for w, y, n in sampled.points)
        return collapse_quality(CollapseCurve(points=points, nu=nu))

    nu_best, _ = golden_section_max(lambda nu: -quality(nu), *_NU_BOUNDS, _NU_TOL)
    return nu_best
