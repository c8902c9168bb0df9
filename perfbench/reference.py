"""Arbitrary-precision reference values for the benchmark, built on mpmath alone.

Nothing here imports ``tfim_rfs``: the chain is re-derived from the model,
H = -sum_j [lam sx_j sx_{j+1} + sz_j] on an even ring of N sites.

* Correlators.  The free-fermion ground state gives, with half-odd momenta
  phi = 2 pi q / N and omega = sqrt((1 - lam)^2 + 4 lam sin^2(phi/2)),
      <sz>        = <(1 - lam cos phi) / omega>
      <sx0 sx1>   = <(lam - cos phi) / omega>
      <sy0 sy1>   = <(lam cos 2phi - cos phi) / omega>
  where <.> is the mode average (an integral over phi / pi as N -> infinity,
  which is expressed through the complete elliptic integrals K(m), E(m) of
  parameter m = 1 - k'^2, k' = |1 - lam| / (1 + lam)).  Wick's theorem gives
  <sz0 sz1> = <sz>^2 - <sx0 sx1><sy0 sy1>.  Derivatives with respect to lam
  are taken summand by summand (finite N) or through dK/dm and dE/dm
  (thermodynamic limit).
* Susceptibility.  The two-site density matrix is block diagonal with 2x2
  real symmetric blocks; chi is one quarter of the quantum Fisher
  information, computed per block from the eigenvalues p and the rotation
  angle theta of its eigenvectors:
      chi_block = sum_i p_i'^2 / (4 p_i) + (p_+ - p_-)^2 theta'^2 / (p_+ + p_-).
  This route shares no formula with the closed form of the library.

Every input is taken at its exact binary double value (``mpf(float)`` is
exact).  The working precision of each family of values is recorded with
the tables that ``make_tables.py`` writes.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

__all__ = [
    "FINITE_DPS",
    "THERMO_DPS",
    "chi_from_correlators",
    "chi_finite",
    "chi_thermo",
    "correlators_finite",
    "correlators_thermo",
    "mode_table",
    "peak",
]

# Decimal digits carried in the momentum sums: N <= 2^18 terms lose at most
# about 6 digits to accumulation, leaving > 30.
FINITE_DPS = 40
# The thermodynamic limit down to |1 - lam| = 1e-15 needs 1 - k ~ 1e-31
# resolved, so twice the double range plus margin.
THERMO_DPS = 60


def chi_from_correlators(sz, xx, yy, d_sz, d_xx, d_yy):
    """Reduced fidelity susceptibility of two neighbouring sites.

    Blocks in the basis (up-up, down-down | up-down, down-up):
    [[(1 + 2 sz + zz)/4, (xx - yy)/4], [., (1 - 2 sz + zz)/4]] and
    [[(1 - zz)/4, (xx + yy)/4], [., (1 - zz)/4]].
    """
    zz = sz * sz - xx * yy
    d_zz = 2 * sz * d_sz - d_xx * yy - xx * d_yy
    block1 = ((1 + 2 * sz + zz) / 4, (1 - 2 * sz + zz) / 4, (xx - yy) / 4,
              (2 * d_sz + d_zz) / 4, (-2 * d_sz + d_zz) / 4, (d_xx - d_yy) / 4)
    block2 = ((1 - zz) / 4, (1 - zz) / 4, (xx + yy) / 4,
              -d_zz / 4, -d_zz / 4, (d_xx + d_yy) / 4)
    return sum(_block_fisher(*b) for b in (block1, block2)) / 4


def _block_fisher(a, b, c, da, db, dc):
    """Quantum Fisher information of the 2x2 block [[a, c], [c, b]]."""
    half_gap = mpmath.sqrt(((a - b) / 2) ** 2 + c * c)
    d_half_gap = (((a - b) / 2) * ((da - db) / 2) + c * dc) / half_gap
    mean, d_mean = (a + b) / 2, (da + db) / 2
    populations = sum(
        (d_mean + s * d_half_gap) ** 2 / (mean + s * half_gap) for s in (1, -1)
    )
    # theta = atan2(2c, a - b) / 2, so theta' (p+ - p-) = (dc (a-b) - c (da-db)) / gap.
    rotation = 4 * (dc * (a - b) - c * (da - db)) ** 2 / ((2 * half_gap) ** 2 * (a + b))
    return populations + rotation


def mode_table(n_sites: int):
    """(cos phi, cos 2phi, sin^2(phi/2)) for the positive half-odd momenta.

    Every summand is even in phi, so the N-mode average is the average over
    these N/2 modes.  Computed at the current working precision.
    """
    two_pi_over_n = 2 * mp.pi / n_sites
    table = []
    for j in range(n_sites // 2):
        phi = (j + mpf(0.5)) * two_pi_over_n
        table.append((mpmath.cos(phi), mpmath.cos(2 * phi), mpmath.sin(phi / 2) ** 2))
    return table


def correlators_finite(lam, table):
    """(sz, xx, yy, d_sz, d_xx, d_yy) of the ring described by ``table``."""
    lam = mpf(lam)
    gap_sq = (1 - lam) ** 2
    sums = [mpf(0)] * 6
    for cos1, cos2, half_sin_sq in table:
        om_sq = gap_sq + 4 * lam * half_sin_sq
        inv = 1 / mpmath.sqrt(om_sq)
        d_om_over_om = (lam - cos1) / om_sq  # omega' / omega
        f_sz, f_xx, f_yy = (1 - lam * cos1) * inv, (lam - cos1) * inv, (lam * cos2 - cos1) * inv
        sums[0] += f_sz
        sums[1] += f_xx
        sums[2] += f_yy
        # (g / omega)' = g' / omega - (g / omega) (omega' / omega)
        sums[3] += -cos1 * inv - f_sz * d_om_over_om
        sums[4] += inv - f_xx * d_om_over_om
        sums[5] += cos2 * inv - f_yy * d_om_over_om
    count = len(table)
    return tuple(s / count for s in sums)


def chi_finite(lam, table) -> mpf:
    return chi_from_correlators(*correlators_finite(lam, table))


def correlators_thermo(lam):
    """(sz, xx, yy, d_sz, d_xx, d_yy) in the thermodynamic limit, lam != 1, lam > 0.

    The mode averages (1/pi) int_0^pi f(phi) dphi reduce to K(m), E(m) with
    m = 4 lam / (1 + lam)^2, held as 1 - k'^2 so that 1 - m keeps its digits.
    """
    lam = mpf(lam)
    kp_sq = ((1 - lam) / (1 + lam)) ** 2
    m = 1 - kp_sq
    big_k, big_e = mpmath.ellipk(m), mpmath.ellipe(m)
    dm = 4 * (1 - lam) / (1 + lam) ** 3
    dk = (big_e - kp_sq * big_k) / (2 * m * kp_sq) * dm
    de = (big_e - big_k) / (2 * m) * dm
    pi = mp.pi
    sz = ((1 - lam) * big_k + (1 + lam) * big_e) / pi
    d_sz = (-big_k + (1 - lam) * dk + big_e + (1 + lam) * de) / pi
    xx_num = (lam - 1) * big_k + (1 + lam) * big_e
    xx = xx_num / (pi * lam)
    d_xx = (big_k + (lam - 1) * dk + big_e + (1 + lam) * de) / (pi * lam) - xx / lam
    p, dp = (lam - 1) * (2 * lam ** 2 + 1), 6 * lam ** 2 - 4 * lam + 1
    q, dq = (lam + 1) * (2 * lam ** 2 - 1), 6 * lam ** 2 + 4 * lam - 1
    yy = (big_k * p - big_e * q) / (3 * pi * lam)
    d_yy = (dk * p + big_k * dp - de * q - big_e * dq) / (3 * pi * lam) - yy / lam
    return sz, xx, yy, d_sz, d_xx, d_yy


def chi_thermo(lam) -> mpf:
    with mp.workdps(THERMO_DPS):
        return chi_from_correlators(*correlators_thermo(lam))


def peak(n_sites: int, guess: float):
    """(lam_m, chi_m) of the ring: the root of chi' = 0 nearest ``guess``.

    chi' comes from mpmath's numerical differentiation at raised precision
    and the root from the secant method; the returned point is certified
    as a maximum by the sign change of chi' across lam_m +- 1e-15.
    """
    table = mode_table(n_sites)

    def slope(lam):
        return mpmath.diff(lambda x: chi_finite(x, table), lam)

    guess = mpf(guess)
    lam_m = mpmath.findroot(slope, (guess, guess * (1 - mpf(1e-9))), solver="secant",
                            tol=mpf(10) ** (-2 * mp.dps // 3))
    eps = mpf(1e-15)
    if not slope(lam_m - eps) > 0 > slope(lam_m + eps):
        raise ArithmeticError(f"no certified maximum of chi near {guess} for N={n_sites}")
    return lam_m, chi_finite(lam_m, table)
