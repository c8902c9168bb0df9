"""The mpmath reference and the stored table, checked without tfim_rfs.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import make_tables  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

TABLE = json.loads(run.TABLE_PATH.read_text(encoding="utf-8"))


def _thermo_by_quadrature(lam):
    """Mode averages (1/pi) int_0^pi f(phi) dphi and their lam-derivatives."""
    lam = mpf(lam)

    def average(f):
        return mpmath.quad(f, [0, mp.pi / 4, mp.pi]) / mp.pi

    def om(p):
        return mpmath.sqrt(1 + lam ** 2 - 2 * lam * mpmath.cos(p))

    def s2(p):
        return mpmath.sin(p) ** 2

    return (
        average(lambda p: (1 - lam * mpmath.cos(p)) / om(p)),
        average(lambda p: (lam - mpmath.cos(p)) / om(p)),
        average(lambda p: (lam * mpmath.cos(2 * p) - mpmath.cos(p)) / om(p)),
        average(lambda p: -lam * s2(p) / om(p) ** 3),
        average(lambda p: s2(p) / om(p) ** 3),
        average(lambda p: s2(p) * (2 * lam * mpmath.cos(p) - 1) / om(p) ** 3),
    )


@pytest.mark.parametrize("lam", [0.3, 0.9, 1.25, 3.0])
def test_thermo_correlators_match_quadrature(lam):
    with mp.workdps(30):
        closed = reference.correlators_thermo(lam)
        quad = _thermo_by_quadrature(lam)
        for a, b in zip(closed, quad):
            assert abs(a - b) <= mpf(10) ** -25 * max(1, abs(b))


@pytest.mark.parametrize("lam", [1 - 1e-3, 1 + 1e-9, 1 - 1e-15])
def test_thermo_derivatives_match_numerical_differentiation(lam):
    with mp.workdps(reference.THERMO_DPS):
        values = reference.correlators_thermo(lam)
        for i in range(3):
            numeric = mpmath.diff(lambda x: reference.correlators_thermo(x)[i], mpf(lam))
            assert abs(values[3 + i] - numeric) <= mpf(10) ** -30 * abs(numeric)


@pytest.mark.parametrize("n_sites,lam", [(8, 0.7), (64, 1.0), (128, 1.3)])
def test_finite_derivatives_match_numerical_differentiation(n_sites, lam):
    with mp.workdps(reference.FINITE_DPS):
        table = reference.mode_table(n_sites)
        values = reference.correlators_finite(lam, table)
        for i in range(3):
            numeric = mpmath.diff(lambda x: reference.correlators_finite(x, table)[i], mpf(lam))
            assert abs(values[3 + i] - numeric) <= mpf(10) ** -30 * abs(numeric)


def _fidelity(rho_a, rho_b):
    """Uhlmann fidelity of two 4x4 density matrices, by eigendecomposition."""
    eigval, eigvec = mpmath.eigsy(rho_a)
    root = eigvec * mpmath.diag([mpmath.sqrt(max(v, 0)) for v in eigval]) * eigvec.T
    inner_val, _ = mpmath.eigsy(root * rho_b * root)
    return sum(mpmath.sqrt(max(v, 0)) for v in inner_val)


def _rdm(sz, xx, yy):
    zz = sz * sz - xx * yy
    rho = mpmath.zeros(4, 4)
    rho[0, 0], rho[1, 1] = (1 + 2 * sz + zz) / 4, (1 - 2 * sz + zz) / 4
    rho[2, 2] = rho[3, 3] = (1 - zz) / 4
    rho[0, 1] = rho[1, 0] = (xx - yy) / 4
    rho[2, 3] = rho[3, 2] = (xx + yy) / 4
    return rho


@pytest.mark.parametrize("n_sites,lam", [(16, 0.8), (16, 1.0), (32, 1.2)])
def test_chi_matches_fidelity_limit(n_sites, lam):
    """chi = lim -2 ln F(rho(lam), rho(lam + d)) / d^2, at 50 digits."""
    with mp.workdps(50):
        table = reference.mode_table(n_sites)
        chi = reference.chi_finite(lam, table)
        d = mpf(10) ** -12
        rho = _rdm(*reference.correlators_finite(lam, table)[:3])
        rho_d = _rdm(*reference.correlators_finite(mpf(lam) + d, table)[:3])
        estimate = -2 * mpmath.log(_fidelity(rho, rho_d)) / d ** 2
        assert abs(estimate - chi) <= mpf(10) ** -9 * chi


def test_stored_peak_matches_generator():
    stored = TABLE["peaks"][0]
    assert stored["n_sites"] == 512
    with mp.workdps(reference.FINITE_DPS):
        lam_m, chi_m = reference.peak(512, make_tables._peak_guess(512))
        assert abs(lam_m - mpf(stored["lambda_m"])) < mpf(10) ** -24
        assert abs(chi_m - mpf(stored["chi_m"])) < mpf(10) ** -23


def test_table_covers_every_seed_window():
    pool = {lam.hex() for lam in make_tables.ring_pool()}
    for n in run.RING_SIZES:
        assert set(TABLE["ring_chi"][str(n)]) == pool
    for seed in range(200):
        lams = run.ring_couplings(seed, TABLE)
        # The CLI's lambda grid reproduces the pool couplings bit for bit.
        grid = [float(v) for v in np.linspace(lams[0], lams[-1], run.RING_STEPS)]
        assert grid == lams
        assert 1.0 in lams
        assert all(abs(lam - 1.0) <= 1e-3 and lam.hex() in pool for lam in lams)


def test_thermo_inputs_span_the_failing_domain():
    lams = run.thermo_couplings(0)
    distances = [abs(1.0 - lam) for lam in lams]
    assert min(distances) < 1e-14 and max(distances) > 1e-2
    assert sum(lam < 1.0 for lam in lams) == sum(lam > 1.0 for lam in lams)
    assert run.thermo_couplings(0) == lams
