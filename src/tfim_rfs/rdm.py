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
against the two-site state of an exactly diagonalized ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import CorrelatorSet

__all__ = ["ConsistencyError", "TwoSiteRdm", "build_rdm"]

# Positivity slack: far above the roundoff of the correlator values, tight
# enough to catch genuine formula bugs.
_PSD_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """An internally computed quantity violated a structural invariant."""


@dataclass(frozen=True)
class TwoSiteRdm:
    """Block elements of the two-site RDM and their lam-derivatives.

    A matrix that passes ``build_rdm``'s positivity check may still have a
    singular block (e.g. the product state at lam = 0, where the second block
    vanishes); ``rfs_closed_form`` rejects it from the block determinants, and
    callers then use the fidelity oracle or keep lam away from zero.
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


def build_rdm(c: CorrelatorSet) -> TwoSiteRdm:
    """Assemble the two-site RDM (values and derivatives) from correlators.

    Raises ConsistencyError if the constructed matrix violates positive
    semidefiniteness beyond roundoff tolerance, and ValueError for
    divergent-derivative input (critical thermodynamic point), where no
    finite derivative matrix exists.
    """
    if c.derivatives_divergent:
        raise ValueError(
            "correlator derivatives diverge at this point; "
            "evaluate at finite N or at lam != 1 instead"
        )
    u_plus = (1.0 + 2.0 * c.sz + c.zz) / 4.0
    u_minus = (1.0 - 2.0 * c.sz + c.zz) / 4.0
    w = (1.0 - c.zz) / 4.0
    z_plus = (c.xx + c.yy) / 4.0
    z_minus = (c.xx - c.yy) / 4.0
    d_u_plus, d_u_minus, d_w, d_z_plus, d_z_minus = _element_derivatives(
        c.d_sz, c.d_xx, c.d_yy, c.d_zz
    )

    det1 = u_plus * u_minus - z_minus * z_minus
    det2 = w * w - z_plus * z_plus
    if min(u_plus, u_minus, w, det1, det2) < -_PSD_TOL:
        raise ConsistencyError(
            "constructed RDM is not positive semidefinite: "
            f"u+={u_plus:.3e} u-={u_minus:.3e} w={w:.3e} det1={det1:.3e} det2={det2:.3e}"
        )
    return TwoSiteRdm(
        u_plus, u_minus, w, z_plus, z_minus,
        d_u_plus, d_u_minus, d_w, d_z_plus, d_z_minus,
    )


def _element_derivatives(d_sz, d_xx, d_yy, d_zz):
    """lam-derivatives (u+, u-, w, z+, z-) of the RDM elements from those of
    (sz, xx, yy, zz), of any order: the element map is affine."""
    return (
        (2.0 * d_sz + d_zz) / 4.0,
        (-2.0 * d_sz + d_zz) / 4.0,
        -d_zz / 4.0,
        (d_xx + d_yy) / 4.0,
        (d_xx - d_yy) / 4.0,
    )
