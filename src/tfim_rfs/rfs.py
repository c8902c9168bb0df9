"""Reduced fidelity susceptibility of the two-site RDM.

Two independent routes are provided and cross-checked:

* ``rfs_closed_form`` -- for a block-diagonal RDM with nonsingular 2x2
  blocks, each block contributes

      chi_i = [ (tr rho_i')^2 - 4 det rho_i'
                + (d/dlam det rho_i)^2 / det rho_i ] / (4 tr rho_i),

  which for the two-site block structure expands to explicit expressions in
  the matrix elements.  Only the expanded form is evaluated at run time;
  the generic form, ``block_susceptibility`` on the ``rdm_blocks`` arrays,
  is the reference the tests compare it against.

* ``rfs_oracle`` -- a finite-difference limit of the Uhlmann fidelity
  F = tr sqrt(sqrt(rho) rho~ sqrt(rho)) between the states at lam and
  lam + delta, chi = -2 ln F / delta^2, Richardson-extrapolated over the
  step pair {delta, delta/2}.

The 4x4 fidelity decomposes over the shared block structure, and for 2x2
positive blocks admits the closed form
tr sqrt(sqrt(A) B sqrt(A)) = sqrt(tr(AB) + 2 sqrt(det A det B)), so no
matrix square roots or eigensolves are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exact import ChainSpec, correlators_finite, correlators_thermo
from .rdm import _SINGULAR_TOL, ConsistencyError, TwoSiteRdm, build_rdm

__all__ = [
    "RfsValue",
    "SingularBlockError",
    "block_susceptibility",
    "oracle_estimate",
    "rfs_closed_form",
    "rfs_oracle",
    "susceptibility",
    "susceptibility_thermo",
    "uhlmann_fidelity",
]

# Eigenvalues above this (negative) threshold are roundoff and are clamped
# to zero; anything below it is a genuine positivity violation.
_EIG_TOL = -1e-12

_DELTA_MIN, _DELTA_MAX = 1e-6, 1e-3


class SingularBlockError(ValueError):
    """A block is singular, so the closed form does not apply."""


@dataclass(frozen=True)
class RfsValue:
    """Susceptibility with provenance and diagnostics.

    ``chi_block1``/``chi_block2`` are the per-block contributions (closed
    form only).  ``oracle_delta`` is the base step of the oracle, and
    ``discrepancy`` the relative difference |closed - oracle| / closed when
    both routes are available.
    """

    chi: float
    method: str
    chi_block1: float | None = None
    chi_block2: float | None = None
    oracle_delta: float | None = None
    discrepancy: float | None = None


def block_susceptibility(block, d_block) -> float:
    """Susceptibility contribution of one 2x2 block (generic form).

    block and d_block are 2x2 symmetric arrays (values and derivatives).
    """
    tr = block[0][0] + block[1][1]
    det = block[0][0] * block[1][1] - block[0][1] * block[1][0]
    if det <= _SINGULAR_TOL or abs(tr) <= _SINGULAR_TOL:
        raise SingularBlockError(
            f"block with det={det:.3e}, tr={tr:.3e} is singular; "
            "use the fidelity oracle instead"
        )
    d_tr = d_block[0][0] + d_block[1][1]
    d_det_matrix = d_block[0][0] * d_block[1][1] - d_block[0][1] * d_block[1][0]
    d_det = (
        d_block[0][0] * block[1][1] + block[0][0] * d_block[1][1]
        - d_block[0][1] * block[1][0] - block[0][1] * d_block[1][0]
    )
    return (d_tr * d_tr - 4.0 * d_det_matrix + d_det * d_det / det) / (4.0 * tr)


def rfs_closed_form(rho: TwoSiteRdm) -> RfsValue:
    """Closed-form susceptibility of a block-diagonal two-site RDM.

    Expanded per-block expressions:

        chi_1 = [ (du+ - du-)^2 + 4 dz-^2
                  + (u- du+ + u+ du- - 2 z- dz-)^2 / (u+ u- - z-^2) ]
                / [4 (u+ + u-)]
        chi_2 = [ dz+^2 + (w dw - z+ dz+)^2 / (w^2 - z+^2) ] / (2 w)

    The generic block formula (``block_susceptibility``) is not evaluated
    here; it is the reference the tests hold these expressions to.
    """
    det1 = rho.u_plus * rho.u_minus - rho.z_minus * rho.z_minus
    det2 = rho.w * rho.w - rho.z_plus * rho.z_plus
    if rho.degenerate or min(det1, det2) <= _SINGULAR_TOL:
        raise SingularBlockError(
            f"singular block (det1={det1:.3e}, det2={det2:.3e}); "
            "use the fidelity oracle instead"
        )

    d_det1 = (
        rho.u_minus * rho.d_u_plus + rho.u_plus * rho.d_u_minus
        - 2.0 * rho.z_minus * rho.d_z_minus
    )
    chi1 = (
        (rho.d_u_plus - rho.d_u_minus) ** 2
        + 4.0 * rho.d_z_minus ** 2
        + d_det1 * d_det1 / det1
    ) / (4.0 * (rho.u_plus + rho.u_minus))
    d_half2 = rho.w * rho.d_w - rho.z_plus * rho.d_z_plus
    chi2 = (rho.d_z_plus ** 2 + d_half2 * d_half2 / det2) / (2.0 * rho.w)

    chi = chi1 + chi2
    if chi < 0.0:
        raise ConsistencyError(f"negative susceptibility {chi!r}")
    return RfsValue(chi=chi, method="closed_form", chi_block1=chi1, chi_block2=chi2)


def _min_eigenvalue(a11: float, a22: float, a12: float) -> float:
    half_tr = 0.5 * (a11 + a22)
    radius = math.hypot(0.5 * (a11 - a22), a12)
    return half_tr - radius


def _block_fidelity(a11, a22, a12, b11, b22, b12) -> float:
    """tr sqrt(sqrt(A) B sqrt(A)) for PSD symmetric 2x2 A, B."""
    for a, b, c in ((a11, a22, a12), (b11, b22, b12)):
        if _min_eigenvalue(a, b, c) < _EIG_TOL:
            raise ValueError(
                f"block [[{a}, {c}], [{c}, {b}]] has a negative eigenvalue "
                "beyond roundoff tolerance"
            )
    tr_ab = a11 * b11 + a22 * b22 + 2.0 * a12 * b12
    det_a = max(a11 * a22 - a12 * a12, 0.0)
    det_b = max(b11 * b22 - b12 * b12, 0.0)
    return math.sqrt(max(tr_ab + 2.0 * math.sqrt(det_a * det_b), 0.0))


def uhlmann_fidelity(rho: TwoSiteRdm, rho_tilde: TwoSiteRdm) -> float:
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


def oracle_estimate(spec: ChainSpec, delta: float) -> float:
    """Single-step fidelity estimate -2 ln F(rho(lam), rho(lam+delta)) / delta^2.

    ``delta`` may be negative; this is the raw (unextrapolated) quantity
    whose delta -> 0 limit defines the susceptibility.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    rho = build_rdm(correlators_finite(spec))
    rho_shifted = build_rdm(correlators_finite(ChainSpec(spec.n_sites, spec.lam + delta)))
    fid = uhlmann_fidelity(rho, rho_shifted)
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

    Records the step used and, where the closed form applies, the relative
    discrepancy against it.
    """
    if not _DELTA_MIN <= delta <= _DELTA_MAX:
        raise ValueError(f"delta must lie in [{_DELTA_MIN}, {_DELTA_MAX}], got {delta}")
    if spec.lam - delta < 0.0:
        raise ValueError(f"lam={spec.lam} too close to zero for step {delta}")

    def symmetric(d: float) -> float:
        return 0.5 * (oracle_estimate(spec, d) + oracle_estimate(spec, -d))

    coarse = symmetric(delta)
    fine = symmetric(delta / 2.0)
    chi = (4.0 * fine - coarse) / 3.0

    discrepancy = None
    try:
        closed = rfs_closed_form(build_rdm(correlators_finite(spec)))
        discrepancy = abs(closed.chi - chi) / closed.chi
    except SingularBlockError:
        pass
    return RfsValue(chi=chi, method="oracle", oracle_delta=delta, discrepancy=discrepancy)


@lru_cache(maxsize=262144)
def _chi_finite_cached(spec: ChainSpec) -> float:
    return rfs_closed_form(build_rdm(correlators_finite(spec))).chi


def susceptibility(n_sites: int, lam: float) -> float:
    """Closed-form susceptibility chi(N, lam), memoized on the validated ChainSpec."""
    return _chi_finite_cached(ChainSpec(n_sites, lam))


def susceptibility_thermo(lam: float) -> float:
    """Closed-form susceptibility in the thermodynamic limit (lam != 1)."""
    return rfs_closed_form(build_rdm(correlators_thermo(lam))).chi
