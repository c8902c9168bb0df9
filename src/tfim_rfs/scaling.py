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
function.  Their spread is measured by linear interpolation (np.interp),
which never overshoots, of each size's curve in w = N (lam - lam_m) at
x / N^(nu-1), so a trial exponent rescales the curves without resampling.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._read import _real, _reals
from .exact import ChainSpec, _checked_lam
from .rfs import (_susceptibility_finite_array, _susceptibility_thermo_array, susceptibility,
                  susceptibility_slope, susceptibility_thermo)

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

# Amplitude of the squared-logarithm divergence of the peak susceptibility,
# (27 pi^4 - 144 pi^2 - 1024) / (pi^2 (9 pi^2 + 32)(3 pi^2 - 32) + 4096),
# correctly rounded: evaluated in doubles, the closed form comes out 13 ulp low.
LOG_SQUARED_AMPLITUDE = 0.14851284040648255

# The constants of the thermodynamic series chi ~ A (ln 1/|1-lam| + d1)^2 + d2,
# the same on both branches, correctly rounded:
#     d1 = ln 8 + (63 pi^4 - 288 pi^2 - 2816) / (1024 + 144 pi^2 - 27 pi^4)
#        = -0.508592187448356749616456415116...
#     d2 = (9 pi^2 - 80) / (27 pi^4 - 144 pi^2 - 1024)
#        = 0.0477563242115361271002786461545...
# The tests also rebuild both from the quadratic in ln 1/|1-lam| through
# 220-digit chi at |1-lam| = 1e-50, 1e-60 and 1e-70.
_THERMO_D1 = -0.50859218744835675
_THERMO_D2 = 0.047756324211536127

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Fixed settings of the collapse: the window in w = N (lam - lam_m) and its
# samples per size, the x grid of collapse_quality, and the exponent range and
# final bracket width of best_collapse_exponent.
_COLLAPSE_WINDOW = (-10.0, 10.0)
_COLLAPSE_POINTS = 41
_QUALITY_GRID_POINTS = 101
_NU_BOUNDS = (0.5, 2.0)
_NU_TOL = 1e-3

# The measured peak shift: sqrt(N^2 (1 - lam_m)) is 0.5746 ln N + 1.0677 by
# least squares over N = 2^9..2^20, which holds N^2 (1 - lam_m) to 0.5 % from
# N = 512 up.  find_peak brackets the peak at 1 % of the shift either side,
# which holds it at every even N from 42 up and misses it at N <= 40.
_PEAK_SHIFT_SLOPE = 0.5746
_PEAK_SHIFT_INTERCEPT = 1.0677
_PEAK_SHIFT_WIDTH = 0.01


class PeakSearchError(ValueError):
    """No maximum of chi: its slope does not fall from positive to negative
    across 1 +- 2/N, the bracket that find_peak tries last.  The message
    names that bracket and N."""


@dataclass(frozen=True)
class PeakRecord:
    """The local maximum of chi(lam) at fixed chain size: the one sign change
    of its slope in 1 +- 2/N, found from N = 42 up inside the narrower
    bracket of the measured peak shift.  Read when made: n_sites and lambda_m
    by ChainSpec, chi_m by ``_real``; ValueError unless chi_m is finite, >= 0."""

    n_sites: int
    lambda_m: float
    chi_m: float

    def __post_init__(self):
        spec, chi_m = ChainSpec(self.n_sites, self.lambda_m), _real(self.chi_m, "chi_m")
        if not 0.0 <= chi_m < math.inf:
            raise ValueError(f"chi_m must be finite and >= 0, got {chi_m!r} at N={spec.n_sites}")
        object.__setattr__(self, "n_sites", spec.n_sites)
        object.__setattr__(self, "lambda_m", spec.lam)
        object.__setattr__(self, "chi_m", chi_m)


@dataclass(frozen=True)
class ScalingFit:
    """Fitted slope/intercept with quality measure and named constants.

    ``fit_finite_size`` fits sqrt(chi_m) = slope ln N + intercept.  For the
    squared-log model a (x + d1)^2 + d2 of ``fit_thermo`` the amplitude a is
    stored as ``slope`` and the additive constant d2 as ``intercept``.  A
    poor fit is returned, not rejected; ``flagged`` reports it.
    """

    slope: float
    intercept: float
    r_squared: float
    params: dict = field(default_factory=dict)

    @property
    def flagged(self) -> bool:
        """True when r^2 < 0.99."""
        return self.r_squared < 0.99


def _golden_section_max(fn, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of fn on [lo, hi]; stops at bracket width <= tol."""
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
    return 0.5 * (lo + hi)


def _brent_root(fn, a: float, b: float, fa: float, fb: float) -> float:
    """A root of fn between a and b, given fa = fn(a) and fb = fn(b) of opposite signs.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inverse quadratic or secant steps, with a
    bisection step whenever they would not shrink the bracket fast enough.
    Runs until the bracket ends are adjacent doubles, or fn is exactly 0, and
    returns the end with the smaller |fn|, or the larger end where the two
    |fn| tie, so the result does not depend on which side Brent last moved.
    Each step moves by at least one double, so the loop ends.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0:
            return b
        if math.nextafter(b, c) == c:
            return max(b, c) if abs(fb) == abs(fc) else b
        m = 0.5 * (c - b)
        step = math.ulp(b)
        if abs(e) >= step and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(step * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b = b + d if abs(d) > step else math.nextafter(b, c)
        fb = fn(b)


def find_peak(n_sites: int) -> PeakRecord:
    """Locate the susceptibility peak of an N-site chain.

    With nu = 1 the peak lies in the critical window: 1 - lam_m is 4.9/N^2 at
    N = 4 and about 81/N^2 at N = 2^20.  So the peak is the root of dchi/dlam
    (``susceptibility_slope``, in closed form) where it falls from positive
    to negative, and Brent's method narrows that sign change down to adjacent
    doubles; chi_m = ``susceptibility(n_sites, lam_m)``.

    The search opens on 1 - c (1 +- 1 %) / N^2, with c = (0.5746 ln N + 1.0677)^2
    the measured peak shift, which holds the peak at every even N from 42 up.
    Where the slope does not fall through zero across that bracket (N <= 40)
    it opens on [1 - 2/N, 1 + 2/N] instead, and PeakSearchError is raised
    unless the slope falls through zero across that one.  Brent's root does
    not depend on which bracket holds it, so both give the same bits.
    """
    n_sites = ChainSpec(n_sites, 1.0).n_sites  # a plain int; a bad N raises before 2/N

    def slope(lam):
        return susceptibility_slope(n_sites, lam)

    shift = ((_PEAK_SHIFT_SLOPE * math.log(n_sites) + _PEAK_SHIFT_INTERCEPT) / n_sites) ** 2
    brackets = ((1.0 - (1.0 + _PEAK_SHIFT_WIDTH) * shift, 1.0 - (1.0 - _PEAK_SHIFT_WIDTH) * shift),
                (1.0 - 2.0 / n_sites, 1.0 + 2.0 / n_sites))
    for lo, hi in brackets:
        slope_lo, slope_hi = slope(lo), slope(hi)
        if slope_lo > 0.0 > slope_hi:
            lam_m = float(_brent_root(slope, lo, hi, slope_lo, slope_hi))
            return PeakRecord(n_sites=n_sites, lambda_m=lam_m,
                              chi_m=susceptibility(n_sites, lam_m))
    raise PeakSearchError(f"no maximum of chi in [{lo!r}, {hi!r}] for N={n_sites}")


def _checked_peak(rec) -> PeakRecord:
    """``rec`` itself; ValueError unless a PeakRecord, whose fields were read when it was made."""
    if not isinstance(rec, PeakRecord):
        raise ValueError(f"peaks must hold PeakRecords, got {type(rec).__name__}")
    return rec


def _sizes(sizes) -> list:
    """``sizes``, any iterable, read once into a list; ValueError naming its type otherwise."""
    if not isinstance(sizes, Iterable):
        raise ValueError(f"sizes must be an iterable of int, got {type(sizes).__name__}")
    return list(sizes)


def _read_pair(a, y, name: str):
    """(a, y) read by ``_reals``, ``name`` naming a; ValueError unless 1-d of one length, finite."""
    if np.ndim(a) != 1 or np.shape(a) != np.shape(y):
        raise ValueError(f"{name} and y must be 1-d of one length, got shapes {np.shape(a)} and {np.shape(y)}")
    a, y = _reals(a, name), _reals(y, "y")
    if not (np.isfinite(a).all() and np.isfinite(y).all()):
        raise ValueError(f"{name} and y must be finite")
    return a, y


def _r_squared(y, residuals) -> float:
    ss_res = float(np.sum(np.asarray(residuals) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_finite_size(peaks) -> ScalingFit:
    """Least-squares fit of sqrt(chi_m) against ln N, from centred sums (plain
    numpy reductions, no LAPACK, so the bytes do not depend on the BLAS build).

    The slope estimates sqrt(A) with A the squared-log amplitude; the
    params report the implied amplitude, the constant c1 = intercept/slope,
    the analytic reference, and the relative slope deviation.  ValueError for
    a ``peaks`` that is a mapping or not iterable, an item that is not a
    PeakRecord (each is checked before any is sorted), fewer than two distinct
    sizes, or a slope of exactly 0 (c1 undetermined).
    """
    if isinstance(peaks, Mapping) or not isinstance(peaks, Iterable):
        raise ValueError(f"peaks must be an iterable of PeakRecord, got {type(peaks).__name__}")
    peaks = sorted(map(_checked_peak, peaks), key=lambda p: p.n_sites)
    sizes = [p.n_sites for p in peaks]
    if len(set(sizes)) < 2:
        raise ValueError("need at least two distinct sizes for a line fit")
    x = np.log(sizes)
    y = np.sqrt([p.chi_m for p in peaks])
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    dx = x - x_mean
    slope = float(np.sum(dx * (y - y_mean)) / np.sum(dx * dx))
    if slope == 0.0:
        raise ValueError("the fitted slope is 0: c1 = intercept/slope is not determined")
    intercept = y_mean - slope * x_mean
    r_sq = _r_squared(y, y - (slope * x + intercept))
    ref = math.sqrt(LOG_SQUARED_AMPLITUDE)
    params = {
        "amplitude": slope * slope,
        "c1": intercept / slope,
        "sqrt_amplitude_ref": ref,
        "slope_rel_deviation": abs(slope - ref) / ref,
    }
    return ScalingFit(slope=slope, intercept=intercept, r_squared=r_sq, params=params)


def fit_sq_log_model(x, y):
    """Least squares of y = a (x + d1)^2 + d2, solved exactly.

    The model is the quadratic a t^2 + c1 t + c0 in t = x - mean(x), mapped
    back by d1 = c1 / (2a) - mean(x) and d2 = c0 - c1^2 / (4a).  Its optimum
    comes from centred sums, as in ``fit_finite_size`` (plain numpy
    reductions, no LAPACK, so the bytes do not depend on the BLAS build):
    r = y - mean(y) is projected on t, giving b, and the rest of r on
    q = t^2 - g t - h, the part of t^2 orthogonal to 1 and to t, giving a;
    then c1 = b - a g and c0 = mean(y) - a h.  Against the 50-digit optimum
    of the same data, on 60 windows of 60 benchmark-style couplings
    (|1 - lam| from 10^-6.5 to 10^-1.5) and a synthetic one at x ~ 30, the
    relative errors were at most 8e-16 on a, 4e-14 on d1 and 5e-12 on d2
    (a LAPACK solve: 2e-14, 4e-13 and 2e-11).

    Returns (a, d1, d2, r_squared).  Used with x = ln 1/|1 - lam| for the
    thermodynamic divergence; exposed separately so synthetic data can be
    fitted directly.  Raises ValueError for an x and y that ``_read_pair``
    rejects, fewer than 4 points, x or x - mean(x) with fewer than 3 distinct
    values, which leaves (a, d1, d2) undetermined, and a curvature not
    resolved, |a| ptp(x)^2 <= 1e-8 ptp(y), which leaves d1 undetermined: on
    exactly linear data a is roundoff (~1e-16) and d1 ~ 1/a, while real
    thermodynamic windows give at least 0.07; and for an a or d1 beyond the
    range of a double.
    """
    x, y = _read_pair(x, y, "x")
    if x.size < 4:
        raise ValueError("need at least 4 points to fit (a, d1, d2)")
    if np.all((x == x.min()) | (x == x.max())):  # fewer than 3 distinct values
        raise ValueError("x has fewer than 3 distinct values: "
                         "the three parameters (a, d1, d2) are not determined")
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    t, r = x - x_mean, y - y_mean
    # t in a unit 2^e just above max |t|: a power-of-2 unit changes no bit of
    # the fit, but keeps t^4 from over- or underflowing.  a and d1 are mapped
    # back by exact ldexp.
    e = math.frexp(float(np.max(np.abs(t))))[1]
    t = np.ldexp(t, -e)
    tt = t * t
    t_norm = np.sum(tt)
    # Gram-Schmidt: q = t^2 - g t - h is orthogonal to 1 and to t.  What t
    # leaves of r is projected on q; projecting r itself on q made the error
    # of a up to 200 times larger.
    g, h = np.sum(tt * t) / t_norm, t_norm / x.size
    q = tt - g * t - h
    b = np.sum(t * r) / t_norm
    r = r - b * t
    q_norm = np.sum(q * q)
    # Where x - mean(x) rounds to 2 distinct values, q can round to 0
    # everywhere, and Σ q r / Σ q q would be 0/0; where q is roundoff but
    # not 0, the curvature test below rejects a.
    if q_norm == 0.0:
        raise ValueError("x - mean(x) does not resolve 3 distinct values: "
                         "the three parameters (a, d1, d2) are not determined")
    a = float(np.sum(q * r) / q_norm)
    if not abs(a) * math.ldexp(float(np.ptp(x)), -e) ** 2 > 1e-8 * float(np.ptp(y)):
        raise ValueError(
            f"the fitted curvature a = {math.ldexp(a, -2 * e)!r} is not resolved "
            "against the spread of y: d1 is not determined"
        )
    c1, c0 = float(b - a * g), float(-a * h)
    try:
        d1 = math.ldexp(c1 / (2.0 * a), e) - x_mean
        a_of_x = math.ldexp(a, -2 * e)
    except OverflowError:
        raise ValueError(f"a or d1 overflows a double: x spans {float(np.ptp(x))!r}") from None
    d2 = (c0 + y_mean) - c1 * c1 / (4.0 * a)
    return a_of_x, d1, d2, _r_squared(y, r - a * q)


def fit_thermo(lambdas) -> ScalingFit:
    """Fit the thermodynamic divergence chi(lam) = a (ln 1/|1-lam| + d1)^2 + d2.

    ``lambdas`` is any iterable of couplings, read by ``_reals`` and each by
    ``_checked_lam`` (the first it rejects is named), all strictly on one side
    of the critical point.  The fitted amplitude is compared against the
    finite-size one (they agree analytically, which fixes nu = 1).

    chi is evaluated for the whole window in one numpy pass through the
    formulas of ``susceptibility_thermo``, so the fit is bit for bit the fit of
    ``[susceptibility_thermo(l) for l in lambdas]``.  A coupling that any check
    of the scalar path flags goes through ``susceptibility_thermo`` itself, in
    window order, so a window raises the exception, with the message, of its
    first coupling that the scalar path rejects.  chi comes before x, so a
    window that raises computes no logarithm.
    """
    lam = _reals(lambdas, "lam")
    if not (np.isfinite(lam).all() and (lam >= 0.0).all()):  # isfinite first: no NaN compared
        list(map(_checked_lam, lam.tolist()))  # raises at the first coupling the rule rejects
    if len(lam) < 4:
        raise ValueError("need at least 4 couplings")
    if (lam == 1.0).any():
        raise ValueError("couplings must differ from the critical value 1")
    below = lam < 1.0
    if below.any() and not below.all():
        raise ValueError("couplings must not mix the lam < 1 and lam > 1 branches")

    y, ok = _susceptibility_thermo_array(lam)
    for i in np.flatnonzero(~ok):
        y[i] = susceptibility_thermo(float(lam[i]))
    # math.log per element, not np.log, whose last bit may differ.
    x = np.array([math.log(1.0 / abs(1.0 - l)) for l in lam.tolist()])
    a, d1, d2, r_sq = fit_sq_log_model(x, y)
    params = {
        "amplitude": a,
        "d1": d1,
        "d2": d2,
        "amplitude_ref": LOG_SQUARED_AMPLITUDE,
        "amplitude_rel_deviation": abs(a - LOG_SQUARED_AMPLITUDE) / LOG_SQUARED_AMPLITUDE,
        "d1_ref": _THERMO_D1,
        "d2_ref": _THERMO_D2,
    }
    return ScalingFit(slope=a, intercept=d2, r_squared=r_sq, params=params)


def _checked_nu(nu) -> float:
    """The collapse exponent read by ``_real``; ValueError unless finite."""
    nu = _real(nu, "nu")
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    return nu


def _size_factor(n: int, nu: float) -> float:
    """N^(nu-1) of a size already read through ChainSpec; ValueError, naming
    N and nu, if it overflows."""
    try:
        return float(n) ** (nu - 1.0)
    except OverflowError:
        raise ValueError(f"N^(nu-1) overflows for N={n}, nu={nu!r}") from None


@dataclass(frozen=True)
class CollapseCurve:
    """Scaled susceptibility curves for several sizes.

    ``samples`` maps each size N to (w, y) arrays: ascending offsets
    w = N (lam - lam_m) and y = sqrt(chi_m) - sqrt(chi(lam)).  ``by_size``
    derives x = N^nu (lam - lam_m) = N^(nu-1) w, so ``replace(curve, nu=...)``
    rescales without resampling.  At nu = 1 the sizes trace one function.
    Read when made: ``nu`` by ``_checked_nu``, then ValueError for samples that
    are not a mapping, for a key that ChainSpec rejects, before any key is
    compared, then for the first (w, y) in size order that ``_read_pair``
    rejects, shorter than 2 or with w not strictly increasing.  They are kept
    read-only, keyed by size as a plain int, sizes ascending, each (w, y) a
    float copy, so a checked curve cannot change.
    """

    samples: Mapping
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "nu", _checked_nu(self.nu))
        if not isinstance(self.samples, Mapping):
            raise ValueError("samples must be a mapping n_sites -> (w, y), "
                             f"got {type(self.samples).__name__}")
        sized = {ChainSpec(n, 0.0).n_sites: s for n, s in self.samples.items()}
        samples = {}
        for n in sorted(sized):
            w, y = sized[n]
            w, y = samples[n] = tuple(np.array(a) for a in _read_pair(w, y, "w"))
            if w.size < 2:
                raise ValueError("need at least 2 points to interpolate")
            if not np.all(w[1:] > w[:-1]):
                raise ValueError("w must be strictly increasing")
            w.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "samples", MappingProxyType(samples))

    def __reduce__(self):
        # A mappingproxy does not pickle or deepcopy: rebuild from a dict, read again.
        return CollapseCurve, (dict(self.samples), self.nu)

    def by_size(self) -> dict:
        """Per-size (x, y) arrays, sizes and x ascending; ValueError if an x
        is not finite, or see ``_size_factor``."""
        with np.errstate(over="ignore"):
            curves = {n: (w * _size_factor(n, self.nu), y) for n, (w, y) in self.samples.items()}
        for n, (x, _) in curves.items():
            if not np.all(np.isfinite(x)):
                raise ValueError(f"x = N^(nu-1) w is not finite for N={n}, nu={self.nu!r}")
        return curves


def data_collapse(sizes, nu: float = 1.0, peaks=None) -> CollapseCurve:
    """Sample the collapse curves for the given sizes at exponent ``nu``.

    Each size is sampled at 41 offsets w = N (lam - lam_m) evenly spaced on
    [-10, 10], the same for every size; ``nu`` only sets how the curve scales
    them to x.  Peak records are taken from ``peaks`` (a mapping n_sites ->
    PeakRecord) or computed for the sizes it lacks.  Raises ValueError for a
    ``nu`` that ``_checked_nu`` rejects, ``sizes`` that ``_sizes`` rejects, a
    size that ChainSpec rejects or a ``peaks`` that is not None or a mapping,
    before any peak is searched, and before sampling a size whose record in
    ``peaks`` is not a PeakRecord or is of another N, or whose window
    reaches lam < 0, as at N <= 10.

    The 40 samples off the peak are evaluated in one pass over couplings x
    modes through the formulas of ``susceptibility``, so each is bitwise
    ``susceptibility(n, lam_m + w / n)``; w = 0 is ``susceptibility(n, lam_m)``
    itself.  A coupling that any check of the scalar path flags goes through
    ``susceptibility``, in sample order, so a size raises the exception, with
    the message, of its first sample that the scalar path rejects.
    """
    nu = _checked_nu(nu)
    sizes = sorted(set(ChainSpec(n, 0.0).n_sites for n in _sizes(sizes)))
    if not sizes:
        raise ValueError("need at least one size")
    if not isinstance(peaks, (Mapping, type(None))):
        raise ValueError(f"peaks must be a mapping n_sites -> PeakRecord, got {type(peaks).__name__}")
    peaks = peaks or {}
    offsets = np.linspace(*_COLLAPSE_WINDOW, _COLLAPSE_POINTS)
    samples = {}
    for n in sizes:
        rec = _checked_peak(peaks[n]) if n in peaks else find_peak(n)
        if rec.n_sites != n:
            raise ValueError(f"peaks[{n}] is the peak record of N={rec.n_sites}, not of N={n}")
        sqrt_peak = math.sqrt(rec.chi_m)
        low = rec.lambda_m + _COLLAPSE_WINDOW[0] / n
        if low < 0.0:
            raise ValueError(f"the collapse window at N={n} starts at lam = lam_m - 10/N = "
                             f"{low!r} < 0 (lam_m = {rec.lambda_m!r}); use N >= 12")
        lams = rec.lambda_m + offsets / n
        # The w = 0 sample is chi at lam_m itself: susceptibility's memo holds
        # it when find_peak made the record.
        chi, ok = np.empty_like(lams), np.zeros(lams.shape, dtype=bool)
        off_peak = offsets != 0.0
        chi[off_peak], ok[off_peak] = _susceptibility_finite_array(n, lams[off_peak])
        for i in np.flatnonzero(~ok):
            chi[i] = susceptibility(n, lams[i])
        samples[n] = (offsets, sqrt_peak - np.sqrt(chi))
    return CollapseCurve(samples=samples, nu=nu)


def _collapse_scorer(curve: CollapseCurve):
    """The quality of ``curve``'s samples as a function of nu.

    Everything that does not depend on nu is done here, once: the window
    ends and the pairs of sizes are kept.  The returned ``score(nu)`` is
    ``collapse_quality(replace(curve, nu=nu))``; see there for what it
    measures and raises.
    """
    sizes, curves = list(curve.samples), list(curve.samples.values())
    if len(sizes) < 2:
        raise ValueError(f"the collapse quality needs at least 2 distinct sizes, got {sizes}")
    # No numpy step of score can overflow before its check: w is compared,
    # not differenced, and the window ends are checked finite before
    # np.linspace.
    ends = [(float(w[0]), float(w[-1])) for w, _ in curves]
    # The pairs i < j in the order of itertools.combinations.
    first, second = np.triu_indices(len(sizes), 1)

    def score(nu: float) -> float:
        # Each curve is interpolated linearly in w at x / N^(nu-1).
        scales = [_size_factor(n, nu) for n in sizes]
        lo = max(w0 * s for (w0, _), s in zip(ends, scales))
        hi = min(w1 * s for (_, w1), s in zip(ends, scales))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"collapse curves are not finite for N={sizes}, nu={nu!r}: "
                             f"the window of x = N^(nu-1) w is [{lo}, {hi}]")
        if lo >= hi:
            raise ValueError(f"empty overlap window: [{lo}, {hi}]")
        grid = np.linspace(lo, hi, _QUALITY_GRID_POINTS)
        interpolated = np.array([np.interp(grid / s, w, y) for (w, y), s in zip(curves, scales)])
        if not np.all(np.isfinite(interpolated)):
            raise ValueError(f"collapse curves are not finite for N={sizes}, nu={nu!r}")
        # The pairwise spreads |row i - row j|, i < j, are summed row after
        # row in the order of itertools.combinations, so the sum is bitwise
        # Python's.
        pairs = np.abs(interpolated[first] - interpolated[second])
        mean_spread = float(np.mean(np.add.reduce(pairs, axis=0) / len(pairs)))
        mean_curve = interpolated.mean(axis=0)
        swing = float(mean_curve.max() - mean_curve.min())
        if swing == 0.0:
            return 0.0 if mean_spread == 0.0 else math.inf
        return mean_spread / swing

    return score


def collapse_quality(curve: CollapseCurve) -> float:
    """Mean pairwise spread of the curves at matched x, relative to the
    swing of their mean.

    Curves are compared at 101 evenly spaced x of their common window by
    linear interpolation, which does not overshoot.  Identical curves give
    0; two curves a constant 0.1 apart on a unit-swing shape give 0.1.
    ValueError for fewer than 2 sizes (one curve has no spread), an
    N^(nu-1) that overflows, and an empty overlap window.
    """
    return _collapse_scorer(curve)(curve.nu)


def best_collapse_exponent(sizes, peaks=None) -> float:
    """Exponent in [0.5, 2] minimizing the collapse quality metric.

    ``sizes`` is any iterable of sizes, read once by ``_sizes``.  The curves
    are sampled once, at nu = 1, and checked once, when made; each trial exponent
    scores them as ``collapse_quality`` with nu replaced would.  Golden-section search stops
    at a bracket narrower than 1e-3.  Raises ValueError for a size that
    ChainSpec rejects, for fewer than 2 distinct sizes (one curve fits every
    nu), and for a ``peaks`` that ``data_collapse`` rejects.
    """
    sizes = _sizes(sizes)
    if len(set(ChainSpec(n, 0.0).n_sites for n in sizes)) < 2:
        raise ValueError(f"the collapse exponent needs at least 2 distinct sizes, got {sizes}")
    score = _collapse_scorer(data_collapse(sizes, peaks=peaks))
    return _golden_section_max(lambda nu: -score(nu), *_NU_BOUNDS, _NU_TOL)
