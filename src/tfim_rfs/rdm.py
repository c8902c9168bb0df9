"""Two-neighbouring-site reduced density matrix of the chain's ground state.

In the basis {up-up, down-down, up-down, down-up} the RDM is block diagonal,

    [[u+, z-,  0,  0 ],
     [z-, u-,  0,  0 ],
     [0,  0,   w,  z+],
     [0,  0,   z+, w ]],

with elements fixed by translation invariance:

    u+- = (1 +- 2 sz + zz) / 4,   w = (1 - zz) / 4,   z+- = (xx +- yy) / 4.

The same affine map applied to the correlator derivatives yields the
lam-derivative of every element, carried alongside the values because the
susceptibility formula consumes both.  The tests check this basis and map
against the two-site state of an exactly diagonalized ring.  Positivity is
checked once, where a ``TwoSiteRdm`` is built; no consumer checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import CorrelatorSet, _slot_init

__all__ = ["ConsistencyError", "TwoSiteRdm", "build_rdm"]

# Slack on the smaller block eigenvalue: far above the roundoff of the
# correlator values, tight enough to catch genuine formula bugs.
_PSD_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """An internally computed quantity violated a structural invariant."""


@_slot_init
@dataclass(frozen=True, slots=True)
class TwoSiteRdm:
    """Block elements of the two-site RDM and their lam-derivatives.

    Construction raises ConsistencyError if a block [[a, c], [c, b]] has a
    smaller eigenvalue (a + b)/2 - hypot((a - b)/2, c) below -1e-10, or NaN.
    A positive matrix may still have a singular block (the product state at
    lam = 0); ``rfs_closed_form`` rejects it from the block determinants.
    The record is frozen, so the check holds for its lifetime; it is slotted,
    hashable and picklable, and ``dataclasses.replace`` checks again.  One is
    built per evaluated coupling, through ``_slot_init``'s slot stores.
    """

    u_plus: float
    u_minus: float
    w: float
    z_plus: float
    z_minus: float
    d_u_plus: float
    d_u_minus: float
    d_w: float
    d_z_plus: float
    d_z_minus: float

    def __post_init__(self):
        # Both blocks written out: one is built per evaluated coupling.  Block 2
        # keeps the general form, whose NaN from w - w rejects w = inf.
        a, b, c = self.u_plus, self.u_minus, self.z_minus
        smallest = 0.5 * (a + b) - math.hypot(0.5 * (a - b), c)
        if not smallest >= -_PSD_TOL:
            raise _not_positive(1, a, b, c, smallest)
        a = b = self.w
        c = self.z_plus
        smallest = 0.5 * (a + b) - math.hypot(0.5 * (a - b), c)
        if not smallest >= -_PSD_TOL:
            raise _not_positive(2, a, b, c, smallest)


def _not_positive(index, a, b, c, smallest) -> ConsistencyError:
    return ConsistencyError(
        f"RDM block {index} [[{a!r}, {c!r}], [{c!r}, {b!r}]] is not positive "
        f"semidefinite: smallest eigenvalue {smallest:.3e}"
    )


def build_rdm(c: CorrelatorSet) -> TwoSiteRdm:
    """Assemble the two-site RDM (values and derivatives) from correlators.

    Raises ValueError when a correlator derivative is not finite (at the
    thermodynamic critical point they diverge; at subnormal lam one
    overflows), and ConsistencyError, from ``TwoSiteRdm``, if a block is not
    positive semidefinite.
    """
    if c.derivatives_divergent:
        raise ValueError(
            "correlator derivatives are not finite: (d_sz, d_xx, d_yy, d_zz) = "
            f"({c.d_sz!r}, {c.d_xx!r}, {c.d_yy!r}, {c.d_zz!r})"
        )
    u_plus, u_minus, w, z_plus, z_minus = _elements(c.sz, c.xx, c.yy, c.zz)
    d_u_plus, d_u_minus, d_w, d_z_plus, d_z_minus = _element_derivatives(
        c.d_sz, c.d_xx, c.d_yy, c.d_zz
    )
    return TwoSiteRdm(
        u_plus, u_minus, w, z_plus, z_minus,
        d_u_plus, d_u_minus, d_w, d_z_plus, d_z_minus,
    )


def _elements(sz, xx, yy, zz):
    """RDM elements (u+, u-, w, z+, z-) from (sz, xx, yy, zz), floats or arrays."""
    two_sz = 2.0 * sz
    return (
        (1.0 + two_sz + zz) / 4.0,
        (1.0 - two_sz + zz) / 4.0,
        (1.0 - zz) / 4.0,
        (xx + yy) / 4.0,
        (xx - yy) / 4.0,
    )


def _element_derivatives(d_sz, d_xx, d_yy, d_zz):
    """lam-derivatives (u+, u-, w, z+, z-) of the RDM elements from those of
    (sz, xx, yy, zz), of any order (the element map is affine), floats or arrays."""
    return (
        (2.0 * d_sz + d_zz) / 4.0,
        (-2.0 * d_sz + d_zz) / 4.0,
        -d_zz / 4.0,
        (d_xx + d_yy) / 4.0,
        (d_xx - d_yy) / 4.0,
    )
