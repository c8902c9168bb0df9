"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the summary lines with
measured values; without -s the pass/fail status is carried by the test
results themselves.
"""

import json
import math
import time

import numpy as np

from tfim_rfs import (
    LOG_SQUARED_AMPLITUDE,
    ChainSpec,
    block_susceptibility,
    build_rdm,
    collapse_quality,
    correlators_finite,
    correlators_thermo,
    best_collapse_exponent,
    data_collapse,
    elliptic_e,
    elliptic_k,
    find_peak,
    fit_finite_size,
    fit_thermo,
    rdm_blocks,
    rfs_closed_form,
    rfs_oracle,
)
from tfim_rfs.cli import main as cli_main

CRITICAL = {
    "sz": 2.0 / math.pi,
    "xx": 2.0 / math.pi,
    "yy": -2.0 / (3.0 * math.pi),
    "zz": 16.0 / (3.0 * math.pi ** 2),
}


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def fd6(fn, x, h=1e-5):
    return (-fn(x - 3 * h) + 9 * fn(x - 2 * h) - 45 * fn(x - h)
            + 45 * fn(x + h) - 9 * fn(x + 2 * h) + fn(x + 3 * h)) / (60 * h)


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


def test_criterion_8_property_suite(capsys, tmp_path):
    failures = []

    # RDM invariants: trace one, derivative trace zero, PSD
    for lam in (0.2, 0.7, 1.0, 1.5, 2.0):
        for n in (64, 1024):
            rho = build_rdm(correlators_finite(ChainSpec(n, lam)))
            if abs(rho.u_plus + rho.u_minus + 2 * rho.w - 1.0) > 1e-14:
                failures.append(f"trace at ({n}, {lam})")
            if abs(rho.d_u_plus + rho.d_u_minus + 2 * rho.d_w) > 1e-12:
                failures.append(f"derivative trace at ({n}, {lam})")
            (b1, _), (b2, _) = rdm_blocks(rho)
            eigs = np.concatenate([np.linalg.eigvalsh(b1), np.linalg.eigvalsh(b2)])
            if eigs.min() < -1e-10:
                failures.append(f"positivity at ({n}, {lam})")

    # analytic derivatives vs central finite differences (6th-order stencil)
    worst_fd = 0.0
    for lam in (0.2, 0.8, 1.0, 1.3):
        for n in (64, 1024):
            for field, deriv in zip(("sz", "xx", "yy", "zz"),
                                    ("d_sz", "d_xx", "d_yy", "d_zz")):
                fd = fd6(lambda x: getattr(correlators_finite(ChainSpec(n, x)), field), lam)
                worst_fd = max(worst_fd, abs(fd - getattr(
                    correlators_finite(ChainSpec(n, lam)), deriv)))
    if worst_fd > 1e-7:
        failures.append(f"finite-difference agreement {worst_fd:.2e}")

    # Legendre relation for the elliptic integrals
    worst_legendre = 0.0
    for k in (0.1, 0.5, 0.9):
        kp = math.sqrt(1 - k * k)
        lhs = (elliptic_e(k) * elliptic_k(kp) + elliptic_e(kp) * elliptic_k(k)
               - elliptic_k(k) * elliptic_k(kp))
        worst_legendre = max(worst_legendre, abs(lhs - math.pi / 2))
    if worst_legendre > 1e-10:
        failures.append(f"Legendre relation {worst_legendre:.2e}")

    # expanded block formula vs generic block formula
    worst_forms = 0.0
    for lam in (0.3, 0.95, 1.0, 1.6):
        for n in (64, 1024):
            rho = build_rdm(correlators_finite(ChainSpec(n, lam)))
            value = rfs_closed_form(rho)
            (b1, db1), (b2, db2) = rdm_blocks(rho)
            generic = block_susceptibility(b1, db1) + block_susceptibility(b2, db2)
            worst_forms = max(worst_forms, abs(value.chi - generic) / generic)
    if worst_forms > 1e-10:
        failures.append(f"block-formula agreement {worst_forms:.2e}")

    # CSV determinism and CSV/JSON value identity through the CLI
    args = ["sweep", "--sizes", "12,52", "--steps", "4"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    if first != second:
        failures.append("CSV output not byte-identical across reruns")
    assert cli_main(args + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    csv_rows = [line.split(",") for line in first.strip().splitlines()[1:]]
    for row, json_row in zip(csv_rows, doc["rows"]):
        if float(row[1]) != json_row["lambda"] or float(row[2]) != json_row["chi"]:
            failures.append("CSV and JSON values differ")
            break

    ok = not failures
    report(8, "property suite", ok,
           "all invariants hold" if ok else "; ".join(failures))
    assert not failures, failures
