"""Reduced fidelity susceptibility of the two-site RDM.

Two routes are cross-checked; the oracle reuses ``correlators_finite`` and
``build_rdm``, so it checks the closed form's block and derivative algebra only:

* ``rfs_closed_form`` -- the RDM has the 2x2 blocks [[u+, z-], [z-, u-]] and
  [[w, z+], [z+, w]], and each nonsingular block contributes

      chi_i = [ (tr rho_i')^2 - 4 det rho_i'
                + (d/dlam det rho_i)^2 / det rho_i ] / (4 tr rho_i).

  One per-block routine evaluates this for both blocks, and a second one its
  lam-slope for ``susceptibility_slope``, which the peak search solves.
  The tests hold it to the quantum Fisher information of the blocks'
  eigen-decomposition (mpmath) and of an exactly diagonalized ring.

* ``rfs_oracle`` -- a finite-difference limit of the Uhlmann fidelity
  F = tr sqrt(sqrt(rho) rho~ sqrt(rho)) between the states at lam and
  lam + delta, chi = -2 ln F / delta^2, Richardson-extrapolated over the
  step pair {delta, delta/2}.

The 4x4 fidelity decomposes over the shared block structure, and for 2x2
positive blocks admits the closed form
tr sqrt(sqrt(A) B sqrt(A)) = sqrt(tr(AB) + 2 sqrt(det A det B)), so no
matrix square roots or eigensolves are needed.  Neither route checks
positivity: ``TwoSiteRdm`` checks both blocks when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exact import ChainSpec, _finite_curvature, correlators_finite, correlators_thermo
from .rdm import TwoSiteRdm, _element_derivatives, build_rdm

__all__ = [
    "RfsValue",
    "SingularBlockError",
    "rfs_closed_form",
    "rfs_oracle",
    "susceptibility",
    "susceptibility_slope",
    "susceptibility_thermo",
]

# Block determinants or traces at or below this are treated as singular
# (the closed-form susceptibility needs det != 0 and tr != 0).
_SINGULAR_TOL = 1e-12

_DELTA_MIN, _DELTA_MAX = 1e-6, 1e-3


class SingularBlockError(ValueError):
    """A block is singular, so the closed form does not apply."""


@dataclass(frozen=True, slots=True)
class RfsValue:
    """Susceptibility with its diagnostics.

    ``chi_block1``/``chi_block2`` are the per-block contributions (closed
    form only), and ``discrepancy`` the relative difference
    |closed - oracle| / closed (oracle only, when the closed form applies).
    An immutable value: frozen, slotted, hashable and picklable.
    """

    chi: float
    chi_block1: float | None = None
    chi_block2: float | None = None
    discrepancy: float | None = None


def _block_terms(a, b, c, da, db, dc):
    """(chi_b, det, half) of the block [[a, c], [c, b]] with derivative block
    [[da, dc], [dc, db]]: det = a b - c^2, half = (d/dlam det) / 2 and
    chi_b = [(da - db)^2 + 4 dc^2 + 4 half^2 / det] / [4 (a + b)], or None
    when det <= 1e-12.
    """
    det = a * b - c * c
    half = 0.5 * (b * da + a * db) - c * dc
    if det <= _SINGULAR_TOL:
        return None, det, half
    return ((da - db) ** 2 + 4.0 * dc ** 2 + 4.0 * half * half / det) / (4.0 * (a + b)), det, half


def _block_slope(a, b, c, da, db, dc, dda, ddb, ddc, chi, det, half):
    """dchi_b/dlam of a ``_block_terms`` block, from its second derivatives
    (dda, ddb, ddc) and its (chi_b, det, half): the quotient rule on chi_b,
    with d half = da db + (b dda + a ddb) / 2 - dc^2 - c ddc."""
    d_half = da * db + 0.5 * (b * dda + a * ddb) - dc * dc - c * ddc
    d_num = (
        2.0 * (da - db) * (dda - ddb) + 8.0 * dc * ddc
        + 8.0 * half * (d_half - half * half / det) / det
    )
    return (d_num - 4.0 * chi * (da + db)) / (4.0 * (a + b))


def _checked_sum(chi1, det1, chi2, det2) -> float:
    """chi1 + chi2, unless a block is singular."""
    if min(det1, det2) <= _SINGULAR_TOL:
        raise SingularBlockError(
            f"singular block (det1={det1:.3e}, det2={det2:.3e}); "
            "use the fidelity oracle instead"
        )
    return chi1 + chi2


def rfs_closed_form(rho: TwoSiteRdm) -> RfsValue:
    """Closed-form susceptibility chi_1 + chi_2, ``_block_terms`` of block 1
    (u+, u-, z-) and block 2 (w, w, z+) of a two-site RDM.

    Raises SingularBlockError when det_i <= 1e-12.  ``TwoSiteRdm`` holds
    only positive blocks, so det_i > 1e-12 forces tr_i > 2e-6 and each chi_i
    is a sum of squares over a positive trace: chi >= 0.
    """
    chi1, det1, _ = _block_terms(rho.u_plus, rho.u_minus, rho.z_minus,
                                 rho.d_u_plus, rho.d_u_minus, rho.d_z_minus)
    chi2, det2, _ = _block_terms(rho.w, rho.w, rho.z_plus, rho.d_w, rho.d_w, rho.d_z_plus)
    # Positional: keyword arguments cost the frozen dataclass about 0.3 us a call.
    return RfsValue(_checked_sum(chi1, det1, chi2, det2), chi1, chi2)


def _block_fidelity(a11, a22, a12, b11, b22, b12) -> float:
    """tr sqrt(sqrt(A) B sqrt(A)) for PSD symmetric 2x2 A, B; the clamps
    absorb the roundoff that ``TwoSiteRdm``'s positivity slack allows."""
    tr_ab = a11 * b11 + a22 * b22 + 2.0 * a12 * b12
    det_a = max(a11 * a22 - a12 * a12, 0.0)
    det_b = max(b11 * b22 - b12 * b12, 0.0)
    return math.sqrt(max(tr_ab + 2.0 * math.sqrt(det_a * det_b), 0.0))


def _uhlmann_fidelity(rho: TwoSiteRdm, rho_tilde: TwoSiteRdm) -> float:
    """Uhlmann fidelity between two block-diagonal two-site RDMs.

    Both states share the block structure, so the fidelity is the sum of
    the per-block closed forms.  The result lies in [0, 1] and equals 1
    exactly when the states coincide.
    """
    f = _block_fidelity(
        rho.u_plus, rho.u_minus, rho.z_minus,
        rho_tilde.u_plus, rho_tilde.u_minus, rho_tilde.z_minus,
    ) + _block_fidelity(
        rho.w, rho.w, rho.z_plus,
        rho_tilde.w, rho_tilde.w, rho_tilde.z_plus,
    )
    return min(f, 1.0)


def _oracle_estimate(spec: ChainSpec, delta: float) -> float:
    """Single-step fidelity estimate -2 ln F(rho(lam), rho(lam+delta)) / delta^2.

    ``delta`` may be negative; this is the raw (unextrapolated) quantity
    whose delta -> 0 limit defines the susceptibility.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    rho = build_rdm(correlators_finite(spec))
    rho_shifted = build_rdm(correlators_finite(ChainSpec(spec.n_sites, spec.lam + delta)))
    fid = _uhlmann_fidelity(rho, rho_shifted)
    if fid <= 0.0:
        raise ValueError("vanishing fidelity between valid states")
    return -2.0 * math.log(fid) / (delta * delta)


def rfs_oracle(spec: ChainSpec, delta: float = 1e-4) -> RfsValue:
    """Finite-difference susceptibility, Richardson-extrapolated over {delta, delta/2}.

    The single-step estimate carries an O(delta) bias from the asymmetry of
    the forward pair plus an O(delta^2) curvature term that grows near the
    critical peak.  Averaging the +delta and -delta forward estimates
    cancels all odd orders, and one Richardson step over {delta, delta/2}
    then removes the delta^2 term, leaving O(delta^4).

    Records, where the closed form applies, the relative discrepancy
    against it.
    """
    if not _DELTA_MIN <= delta <= _DELTA_MAX:
        raise ValueError(f"delta must lie in [{_DELTA_MIN}, {_DELTA_MAX}], got {delta}")
    if spec.lam - delta < 0.0:
        raise ValueError(f"lam={spec.lam} too close to zero for step {delta}")

    def symmetric(d: float) -> float:
        return 0.5 * (_oracle_estimate(spec, d) + _oracle_estimate(spec, -d))

    coarse = symmetric(delta)
    fine = symmetric(delta / 2.0)
    chi = (4.0 * fine - coarse) / 3.0

    discrepancy = None
    try:
        closed = rfs_closed_form(build_rdm(correlators_finite(spec)))
        discrepancy = abs(closed.chi - chi) / closed.chi
    except SingularBlockError:
        pass
    return RfsValue(chi, discrepancy=discrepancy)


@lru_cache(maxsize=262144)
def _chi_finite_cached(spec: ChainSpec) -> float:
    return rfs_closed_form(build_rdm(correlators_finite(spec))).chi


def susceptibility(n_sites: int, lam: float) -> float:
    """Closed-form susceptibility chi(N, lam), memoized on the validated ChainSpec."""
    return _chi_finite_cached(ChainSpec(n_sites, lam))


def susceptibility_slope(n_sites: int, lam: float) -> float:
    """dchi/dlam of the closed-form susceptibility of an N-site ring.

    ``_block_slope`` on both blocks, with the second lam-derivatives of the
    RDM elements from the momentum sums.  The point passes the same checks
    as ``susceptibility``.
    """
    c, second = _finite_curvature(ChainSpec(n_sites, lam))
    rho = build_rdm(c)
    dd_u_plus, dd_u_minus, dd_w, dd_z_plus, dd_z_minus = _element_derivatives(*second)
    block1 = (rho.u_plus, rho.u_minus, rho.z_minus, rho.d_u_plus, rho.d_u_minus, rho.d_z_minus)
    block2 = (rho.w, rho.w, rho.z_plus, rho.d_w, rho.d_w, rho.d_z_plus)
    chi1, det1, half1 = _block_terms(*block1)
    chi2, det2, half2 = _block_terms(*block2)
    _checked_sum(chi1, det1, chi2, det2)
    return (_block_slope(*block1, dd_u_plus, dd_u_minus, dd_z_minus, chi1, det1, half1)
            + _block_slope(*block2, dd_w, dd_w, dd_z_plus, chi2, det2, half2))


def susceptibility_thermo(lam: float) -> float:
    """Closed-form susceptibility in the thermodynamic limit (lam != 1)."""
    return rfs_closed_form(build_rdm(correlators_thermo(lam))).chi
