"""Reduced fidelity susceptibility of the two-site RDM.

Two routes are cross-checked; the oracle reuses ``correlators_finite`` (whose
memo sums the point's own coupling once for all of its calls) and
``build_rdm``, so it checks the closed form's block and derivative algebra only:

* ``rfs_closed_form`` -- the RDM has the 2x2 blocks [[u+, z-], [z-, u-]] and
  [[w, z+], [z+, w]], and each nonsingular block contributes

      chi_i = [ (tr rho_i')^2 - 4 det rho_i'
                + (d/dlam det rho_i)^2 / det rho_i ] / (4 tr rho_i).

  One routine lays out both blocks with det and (d/dlam det) / 2, for every
  consumer: the closed form, its lam-slope for ``susceptibility_slope``
  (which the peak search solves), the array pass and the fidelity.
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
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._read import _real
from .exact import (_MAX_MAGNITUDE, ChainSpec, _correlators_finite_array, _correlators_thermo_array,
                    _finite_curvature, _slot_init, correlators_finite, correlators_thermo)
from .rdm import TwoSiteRdm, _element_derivatives, _elements, build_rdm

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


def _checked_delta(delta) -> float:
    """The oracle step read by ``_real``; ValueError unless in [1e-6, 1e-3]."""
    delta = _real(delta, "delta")
    if not 1e-6 <= delta <= 1e-3:
        raise ValueError(f"delta must lie in [1e-06, 0.001], got {delta}")
    return delta


class SingularBlockError(ValueError):
    """A block is singular, so the closed form does not apply."""


@_slot_init
@dataclass(frozen=True, slots=True)
class RfsValue:
    """Susceptibility with its diagnostics.

    ``chi_block1``/``chi_block2`` are the per-block contributions (closed
    form only), and ``discrepancy`` the relative difference
    |closed - oracle| / closed (oracle only, when the closed form applies).
    An immutable value: frozen, slotted, hashable and picklable; one is built
    per closed-form evaluation, through ``_slot_init``'s slot stores.
    """

    chi: float
    chi_block1: float | None = None
    chi_block2: float | None = None
    discrepancy: float | None = None


# The fields of a TwoSiteRdm as arrays, for the array pass; nothing checks them.
_RdmArrays = namedtuple("_RdmArrays", TwoSiteRdm.__match_args__)


def _blocks(rho):
    """Block 1 [[u+, z-], [z-, u-]] and block 2 [[w, z+], [z+, w]] of a
    ``TwoSiteRdm`` or an unchecked ``_RdmArrays``, each as (a, b, c, da, db,
    dc, det, half): [[a, c], [c, b]] with derivative [[da, dc], [dc, db]],
    det = a b - c^2 and half = (d/dlam det) / 2."""
    a, b, c = rho.u_plus, rho.u_minus, rho.z_minus
    da, db, dc = rho.d_u_plus, rho.d_u_minus, rho.d_z_minus
    w, z, dw, dz = rho.w, rho.z_plus, rho.d_w, rho.d_z_plus
    return ((a, b, c, da, db, dc, a * b - c * c, 0.5 * (b * da + a * db) - c * dc),
            (w, w, z, dw, dw, dz, w * w - z * z, 0.5 * (w * dw + w * dw) - z * dz))


def _block_chi(block):
    """chi_b = [(da - db)^2 + 4 dc^2 + 4 half^2 / det] / [4 (a + b)] of a
    nonsingular block; floats or arrays.  Squares are products, as numpy
    squares: Python's ``x ** 2`` calls pow, which can round differently."""
    a, b, _, da, db, dc, det, half = block
    diff = da - db
    return (diff * diff + 4.0 * (dc * dc) + 4.0 * half * half / det) / (4.0 * (a + b))


def _block_slope(block, dda, ddb, ddc, chi):
    """dchi_b/dlam of a block, from its second derivatives (dda, ddb, ddc) and
    its chi_b: the quotient rule on chi_b,
    with d half = da db + (b dda + a ddb) / 2 - dc^2 - c ddc."""
    a, b, c, da, db, dc, det, half = block
    d_half = da * db + 0.5 * (b * dda + a * ddb) - dc * dc - c * ddc
    d_num = (
        2.0 * (da - db) * (dda - ddb) + 8.0 * dc * ddc
        + 8.0 * half * (d_half - half * half / det) / det
    )
    return (d_num - 4.0 * chi * (da + db)) / (4.0 * (a + b))


def _closed_form_blocks(rho: TwoSiteRdm):
    """Both ``_blocks`` of rho and their chi_b; SingularBlockError if a det <= 1e-12."""
    one, two = _blocks(rho)
    if min(one[6], two[6]) <= _SINGULAR_TOL:
        raise SingularBlockError(
            f"singular block (det1={one[6]:.3e}, det2={two[6]:.3e}); "
            "use the fidelity oracle instead"
        )
    return one, two, _block_chi(one), _block_chi(two)


def rfs_closed_form(rho: TwoSiteRdm) -> RfsValue:
    """Closed-form susceptibility chi_1 + chi_2 over the two blocks of a two-site RDM.

    Raises SingularBlockError when det_i <= 1e-12.  ``TwoSiteRdm`` holds
    only positive blocks, so det_i > 1e-12 forces tr_i > 2e-6 and each chi_i
    is a sum of squares over a positive trace: chi >= 0.
    """
    _, _, chi1, chi2 = _closed_form_blocks(rho)
    # Positional: keyword arguments would add 0.3-0.4 us a call.
    return RfsValue(chi1 + chi2, chi1, chi2)


def _block_fidelity(block, other) -> float:
    """tr sqrt(sqrt(A) B sqrt(A)) for PSD ``_blocks`` A, B; the clamps
    absorb the roundoff that ``TwoSiteRdm``'s positivity slack allows."""
    a11, a22, a12, _, _, _, det_a, _ = block
    b11, b22, b12, _, _, _, det_b, _ = other
    tr_ab = a11 * b11 + a22 * b22 + 2.0 * a12 * b12
    return math.sqrt(max(tr_ab + 2.0 * math.sqrt(max(det_a, 0.0) * max(det_b, 0.0)), 0.0))


def _uhlmann_fidelity(rho: TwoSiteRdm, rho_tilde: TwoSiteRdm) -> float:
    """Uhlmann fidelity between two block-diagonal two-site RDMs.

    Both states share the block structure, so the fidelity is the sum of
    the per-block closed forms.  The result lies in [0, 1] and equals 1
    exactly when the states coincide.
    """
    one, two = map(_block_fidelity, _blocks(rho), _blocks(rho_tilde))
    return min(one + two, 1.0)


def _oracle_estimate(spec: ChainSpec, delta: float) -> float:
    """Single-step fidelity estimate -2 ln F(rho(lam), rho(lam+delta)) / delta^2.

    ``delta`` may be negative; this is the raw (unextrapolated) quantity
    whose delta -> 0 limit defines the susceptibility.
    """
    rho = build_rdm(correlators_finite(spec))
    rho_shifted = build_rdm(correlators_finite(ChainSpec(spec.n_sites, spec.lam + delta)))
    return -2.0 * math.log(_uhlmann_fidelity(rho, rho_shifted)) / (delta * delta)


def rfs_oracle(spec: ChainSpec, delta: float = 1e-4) -> RfsValue:
    """Finite-difference susceptibility, Richardson-extrapolated over {delta, delta/2}.

    The single-step estimate carries an O(delta) bias from the asymmetry of
    the forward pair plus an O(delta^2) curvature term that grows near the
    critical peak.  Averaging the +delta and -delta forward estimates
    cancels all odd orders, and one Richardson step over {delta, delta/2}
    then removes the delta^2 term, leaving O(delta^4).

    Roundoff in ln F (about eps = 2.2e-16) adds up to 11 eps / delta^2 to chi:
    2.5e-3 at delta = 1e-6, 2.5e-7 at 1e-4.  Where chi is not well above that
    (chi < 1e-5 at N = 64, lam >= 12), the discrepancy means nothing.

    Records, where the closed form applies, the relative discrepancy
    against it.
    """
    delta = _checked_delta(delta)
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


@lru_cache(maxsize=64)
def _chi_finite_cached(spec: ChainSpec) -> float:
    return rfs_closed_form(build_rdm(correlators_finite(spec))).chi


def susceptibility(n_sites: int, lam: float) -> float:
    """Closed-form susceptibility chi(N, lam), memoized on the 64 most recently
    used validated ChainSpecs: the peak search writes chi_m of each size, and
    the data collapse reads it back at w = 0.  With a raw (n_sites, lam) key,
    N = 64.0 (== 64) would hit the entry of 64, not raise ChainSpec's error."""
    return _chi_finite_cached(ChainSpec(n_sites, lam))


def susceptibility_slope(n_sites: int, lam: float) -> float:
    """dchi/dlam of the closed-form susceptibility of an N-site ring.

    ``_block_slope`` on both blocks, with the second lam-derivatives of the
    RDM elements from the momentum sums.  The point passes the same checks
    as ``susceptibility``.
    """
    correlators, second = _finite_curvature(ChainSpec(n_sites, lam))
    one, two, chi1, chi2 = _closed_form_blocks(build_rdm(correlators))
    dda, ddb, ddw, ddz, ddc = _element_derivatives(*second)
    return _block_slope(one, dda, ddb, ddc, chi1) + _block_slope(two, ddw, ddw, ddz, chi2)


def susceptibility_thermo(lam: float) -> float:
    """Closed-form susceptibility in the thermodynamic limit (lam != 1)."""
    return rfs_closed_form(build_rdm(correlators_thermo(lam))).chi


def _susceptibility_thermo_array(lam: np.ndarray):
    """``susceptibility_thermo`` of every coupling of an array, in one numpy pass.

    Returns (chi, ok).  Where ok is True the coupling passes every check of
    the scalar path, and chi is bitwise its value: the formulas are the
    scalar path's own functions.  Elsewhere chi may hold anything.  When some
    coupling's elliptic modulus rounds to 1, nothing is evaluated and ok is
    all False, so a caller that sends the rest through the scalar path stops
    at its first failure, as a scalar loop does.
    """
    with np.errstate(all="ignore"):
        return _closed_form_array(*_correlators_thermo_array(lam))


def _susceptibility_finite_array(n_sites: int, lam: np.ndarray):
    """``susceptibility(n_sites, l)`` of every coupling l of a 1-d array, in
    passes of couplings x modes (``_correlators_finite_array``).

    Returns (chi, ok), as ``_susceptibility_thermo_array`` does: where ok is
    True the coupling passes every check of ``susceptibility``, and chi is
    bitwise its value.  The memo is neither read nor filled.
    """
    with np.errstate(all="ignore"):
        return _closed_form_array(*_correlators_finite_array(n_sites, lam))


def _closed_form_array(fields, ok):
    """(chi, ok) of a correlator pass's (fields, ok): chi through ``build_rdm``'s and
    ``rfs_closed_form``'s own formulas, and ``ok`` cleared where ``CorrelatorSet``'s
    magnitude check or either formula rejects a coupling.  Fields of None, where
    the pass evaluated nothing, give an unset chi."""
    if fields is None:
        return np.empty(ok.shape), ok
    for value in fields[:4]:
        ok &= abs(value) <= _MAX_MAGNITUDE
    for derivative in fields[4:]:
        ok &= np.isfinite(derivative)
    one, two = _blocks(_RdmArrays(*_elements(*fields[:4]), *_element_derivatives(*fields[4:])))
    # This mask also covers TwoSiteRdm's positivity check: with every
    # |correlator| <= 1 + 1e-12, each block's trace is >= -5e-13, so an
    # eigenvalue below -1e-10 leaves the other one positive and det < 0,
    # up to a roundoff far below 1e-12.
    ok &= (one[6] > _SINGULAR_TOL) & (two[6] > _SINGULAR_TOL)
    return _block_chi(one) + _block_chi(two), ok
