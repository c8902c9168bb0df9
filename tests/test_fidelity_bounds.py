"""The two-site susceptibility lies between the one-site and the global one.

Fidelity cannot decrease under a partial trace (R. Jozsa, J. Mod. Opt. 41
(1994) 2315), so the susceptibility of a reduced state is bounded above by
that of any larger state that contains it:

    chi_1site <= chi <= chi_F.

Both bounds are computed here from the momentum sums alone, without the
two-site block algebra:

* chi_F(N, lam) = (1/4) sum_{phi>0} sin^2(phi) / omega^4, the global
  ground-state fidelity susceptibility of the ring (N(N-1)/32 at lam = 1);
* chi_1site = d_sz^2 / (4 (1 - sz^2)), a quarter of the classical Fisher
  information of the diagonal one-site state diag(1 + sz, 1 - sz) / 2.

In the thermodynamic limit only the lower bound applies: chi_F grows with N,
as N / (16 (1 - lam^2)) for lam < 1 and N / (16 lam^2 (lam^2 - 1)) for
lam > 1, while chi_1site at lam = 1 grows as ln^2 N / (4 pi^2 - 16).
"""

import math

import numpy as np
import pytest

from tfim_rfs import (
    ChainSpec,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    rfs_closed_form,
)

SIZES = (4, 6, 8, 10, 12, 64, 256, 1024, 4096)
# 306 couplings log-spaced on [0.01, 100]; none is exactly 1.
COUPLINGS = np.logspace(-2.0, 2.0, 306)


def momentum_grid(n_sites):
    """Mode angles phi_q = 2 pi q / N for half-odd q in {-M, ..., M}, M = (N-1)/2:
    the N angles lie in (-pi, pi), symmetric under negation, never 0 or +-pi."""
    m = (n_sites - 1) / 2.0
    q = np.arange(-m, m + 1.0)
    return 2.0 * math.pi * q / n_sites


def global_susceptibility(n_sites, lam):
    s = np.sin(0.5 * momentum_grid(n_sites)[n_sites // 2:]) ** 2
    omega_sq = (1.0 - lam) ** 2 + 4.0 * lam * s
    return 0.25 * float(np.sum(4.0 * s * (1.0 - s) / (omega_sq * omega_sq)))


def one_site_susceptibility(c):
    return c.d_sz * c.d_sz / (4.0 * (1.0 - c.sz * c.sz))


@pytest.mark.parametrize("n", SIZES)
def test_finite_chain_between_one_site_and_global(n):
    violations = []
    for lam in COUPLINGS.tolist():
        c = correlators_finite(ChainSpec(n, lam))
        chi = rfs_closed_form(build_rdm(c)).chi
        lower, upper = one_site_susceptibility(c), global_susceptibility(n, lam)
        if not lower <= chi <= upper:
            violations.append((lam, lower, chi, upper))
    assert violations == []


def test_thermodynamic_limit_above_one_site():
    violations = []
    for lam in COUPLINGS.tolist():
        c = correlators_thermo(lam)
        chi = rfs_closed_form(build_rdm(c)).chi
        if not one_site_susceptibility(c) <= chi:
            violations.append((lam, one_site_susceptibility(c), chi))
    assert violations == []


@pytest.mark.parametrize("n", SIZES)
def test_global_susceptibility_at_criticality(n):
    # sum over the N/2 positive momenta of cot^2(phi/2) is N(N-1)/2
    expected = n * (n - 1) / 32.0
    assert global_susceptibility(n, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [0.3, 0.7, 0.95, 1.05, 1.5, 3.0])
def test_global_susceptibility_per_site_limit(lam):
    n = 2 ** 16
    lam_sq = lam * lam
    expected = 1.0 / (16.0 * (1.0 - lam_sq) if lam < 1.0 else 16.0 * lam_sq * (lam_sq - 1.0))
    assert global_susceptibility(n, lam) / n == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_one_site_critical_amplitude():
    # sqrt(chi_1site(N, 1)) grows as ln N / sqrt(4 pi^2 - 16) plus a constant.
    roots = [math.sqrt(one_site_susceptibility(correlators_finite(ChainSpec(2 ** k, 1.0))))
             for k in (14, 16)]
    slope = (roots[1] - roots[0]) / math.log(4.0)
    expected = 1.0 / math.sqrt(4.0 * math.pi ** 2 - 16.0)
    assert slope == pytest.approx(expected, rel=0.0, abs=1e-8)
