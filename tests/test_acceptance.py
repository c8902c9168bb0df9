"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the summary lines with
measured values; without -s the pass/fail status is carried by the test
results themselves.
"""

import math
import time

import numpy as np

from tfim_rfs import (
    LOG_SQUARED_AMPLITUDE,
    ChainSpec,
    build_rdm,
    collapse_quality,
    correlators_finite,
    correlators_thermo,
    best_collapse_exponent,
    data_collapse,
    find_peak,
    fit_finite_size,
    fit_thermo,
    rfs_oracle,
)
from shared import CRITICAL


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_critical_point_correlators():
    start = time.perf_counter()
    fin = correlators_finite(ChainSpec(2 ** 14, 1.0))
    elapsed = time.perf_counter() - start
    th = correlators_thermo(1.0)
    worst_fin = max(abs(getattr(fin, k) - v) for k, v in CRITICAL.items())
    worst_th = max(abs(getattr(th, k) - v) for k, v in CRITICAL.items())
    ok = worst_fin <= 5e-4 and worst_th <= 1e-12 and elapsed < 1.0
    report(1, "critical-point correlators", ok,
           f"finite err {worst_fin:.2e} <= 5e-4, thermo err {worst_th:.2e} <= 1e-12, "
           f"runtime {elapsed * 1e3:.1f} ms")
    assert worst_fin <= 5e-4
    assert worst_th <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.3, 0.7, 0.95, 1.0, 1.05, 1.5):
        for n in (64, 512, 4096):
            value = rfs_oracle(ChainSpec(n, lam), delta=1e-4)
            worst = max(worst, value.discrepancy)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3
    report(2, "closed form vs oracle", ok,
           f"worst rel discrepancy {worst:.2e} <= 1e-3 on 6x3 grid, "
           f"runtime {elapsed:.1f} s")
    assert worst <= 1e-3


def test_criterion_3_log_divergence_coefficients():
    sizes = [2 ** k for k in range(10, 17)]
    log_n = np.log(sizes)
    refs = {"d_sz": -1 / math.pi, "d_xx": 1 / math.pi,
            "d_yy": 1 / math.pi, "d_zz": -16 / (3 * math.pi ** 2)}
    corr = {n: correlators_finite(ChainSpec(n, 1.0)) for n in sizes}
    devs = {}
    for field, ref in refs.items():
        slope = float(np.polyfit(log_n, [getattr(corr[n], field) for n in sizes], 1)[0])
        devs[field] = abs(slope - ref) / abs(ref)
    ok = all(d <= 0.02 for d in devs.values())
    report(3, "log-divergence coefficients", ok,
           "slope deviations " + ", ".join(f"{k}={v:.2%}" for k, v in devs.items())
           + " all <= 2%")
    assert all(d <= 0.02 for d in devs.values())


def test_criterion_4_z_minus_derivative_constant():
    rho = build_rdm(correlators_finite(ChainSpec(2 ** 14, 1.0)))
    err = abs(rho.d_z_minus - 1 / (3 * math.pi))
    ok = err <= 1e-3
    report(4, "z_minus derivative at criticality", ok,
           f"|d z- - 1/(3 pi)| = {err:.2e} <= 1e-3")
    assert err <= 1e-3


def test_criterion_5_finite_size_slope():
    start = time.perf_counter()
    peaks = [find_peak(2 ** k) for k in range(9, 15)]
    fit = fit_finite_size(peaks)
    elapsed = time.perf_counter() - start
    ref = math.sqrt(LOG_SQUARED_AMPLITUDE)
    deviation = abs(fit.slope - ref) / ref
    ok = deviation <= 0.05 and elapsed <= 60.0
    report(5, "finite-size peak scaling", ok,
           f"slope {fit.slope:.5f} vs sqrt(amplitude) {ref:.5f}, "
           f"deviation {deviation:.2%} <= 5%, runtime {elapsed:.1f} s")
    assert deviation <= 0.05
    assert elapsed <= 60.0


def test_criterion_6_thermodynamic_amplitude():
    fit = fit_thermo([1.0 - 10.0 ** (-k) for k in range(2, 6)])
    deviation = fit.params["amplitude_rel_deviation"]
    ok = deviation <= 0.05
    report(6, "thermodynamic amplitude", ok,
           f"fitted amplitude {fit.params['amplitude']:.5f} vs "
           f"{LOG_SQUARED_AMPLITUDE:.5f}, deviation {deviation:.2%} <= 5%")
    assert deviation <= 0.05


def test_criterion_7_data_collapse():
    sizes = (512, 1024, 2048, 4096)
    peaks = {n: find_peak(n) for n in sizes}
    quality = collapse_quality(data_collapse(sizes, nu=1.0, peaks=peaks))
    nu_best = best_collapse_exponent(sizes, peaks=peaks)
    ok = quality <= 0.05 and 0.9 <= nu_best <= 1.1
    report(7, "data collapse", ok,
           f"quality at nu=1 is {quality:.4f} <= 0.05, argmin nu = {nu_best:.3f} "
           "in [0.9, 1.1]")
    assert quality <= 0.05
    assert 0.9 <= nu_best <= 1.1

