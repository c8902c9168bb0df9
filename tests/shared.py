"""References that two or more test modules use, each defined once here.

A plain module: pytest collects only ``test_*.py``, and the test modules
import these names from here, never from one another.
"""

import math

import numpy as np

from tfim_rfs import ChainSpec, build_rdm, correlators_finite

FIELDS = ("sz", "xx", "yy", "zz")
DERIVS = ("d_sz", "d_xx", "d_yy", "d_zz")

# The thermodynamic correlators at lam = 1.
CRITICAL = {
    "sz": 2.0 / math.pi,
    "xx": 2.0 / math.pi,
    "yy": -2.0 / (3.0 * math.pi),
    "zz": 16.0 / (3.0 * math.pi ** 2),
}

# Couplings at which every in-place summand must round as its plain
# expression does.  5e-324 and 1e-310 are subnormal; at 1e102 the product
# s (1 - s) / omega^3 is subnormal at N = 12, so the 4 of sin^2 phi = 4 s (1 - s)
# cannot be moved out of it.
PLAIN_LAMS = (0.0, 5e-324, 1e-310, 1e-300, 1e-9, 0.005, 0.7, 1.0 - 2.0 ** -52, 1.0,
              1.0 + 2.0 ** -52, 1.0003, 3.0, 1e8, 1e102, 1e150)


def field_bits(c):
    """float.hex of a CorrelatorSet's four values and four derivatives."""
    return [getattr(c, name).hex() for name in FIELDS + DERIVS]


def fd6(fn, x, h=1e-5):
    # 6th-order central difference; truncation stays below 1e-7 even where
    # the 2-point stencil would not.
    return (-fn(x - 3 * h) + 9 * fn(x - 2 * h) - 45 * fn(x - h)
            + 45 * fn(x + h) - 9 * fn(x + 2 * h) + fn(x + 3 * h)) / (60 * h)


def momentum_grid(n_sites):
    """Mode angles phi_q = 2 pi q / N for half-odd q in {-M, ..., M}, M = (N-1)/2:
    the N angles lie in (-pi, pi), symmetric under negation, never 0 or +-pi."""
    m = (n_sites - 1) / 2.0
    q = np.arange(-m, m + 1.0)
    return 2.0 * math.pi * q / n_sites


def rdm_at(n, lam):
    return build_rdm(correlators_finite(ChainSpec(n, lam)))


def global_susceptibility(n_sites, lam):
    """chi_F = (1/4) sum_{phi>0} sin^2(phi) / omega^4, the ring's global fidelity susceptibility."""
    s = np.sin(0.5 * momentum_grid(n_sites)[n_sites // 2:]) ** 2
    omega_sq = (1.0 - lam) ** 2 + 4.0 * lam * s
    return 0.25 * float(np.sum(4.0 * s * (1.0 - s) / (omega_sq * omega_sq)))


def one_site_susceptibility(c):
    """d_sz^2 / (4 (1 - sz^2)): a quarter of the Fisher information of diag(1 + sz, 1 - sz) / 2."""
    return c.d_sz * c.d_sz / (4.0 * (1.0 - c.sz * c.sz))
