"""Complete elliptic integrals K(k) and E(k) by arithmetic-geometric mean iteration.

Modulus convention: K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t) and
E(k) = int_0^{pi/2} sqrt(1 - k^2 sin^2 t) dt (note: scipy.special uses the
parameter m = k^2 instead).

The AGM converges quadratically, so a handful of iterations reach full
double precision without quadrature nodes.  One run gives both integrals,
and the last pair is kept, so the K and then E of a thermodynamic coupling
run the AGM once.
"""

import functools
import math

import numpy as np

from ._read import _real

__all__ = ["elliptic_k", "elliptic_e"]

# Relative gap |a - b| / a at which the AGM iteration stops; one step below
# this the sequence sits at the roundoff floor of (a - b).
_AGM_RTOL = 1e-15


# One entry: a thermodynamic coupling asks for K(k) and then E(k) of one k,
# so the second call reads the pair that the first one's run cached.
@functools.lru_cache(maxsize=1)
def _agm(k: float) -> tuple[float, float]:
    """(K(k), E(k)) from one AGM run for (1, k'), as ``_elliptic_ke_array``
    returns them for arrays.

    k' = sqrt(1 - k^2) is computed as sqrt((1-k)(1+k)) to avoid cancellation
    near k = 1, and E = K (1 - sum 2^(n-1) c_n^2) with c_n = (a_n - b_n)/2,
    c_0 = k.  Callers read k by ``_real`` and check its range, so every k runs
    in double precision and no NaN or out-of-range k reaches the cache; 0.0 and
    -0.0 share an entry and both give (pi/2, pi/2).
    """
    sqrt = math.sqrt
    a = 1.0
    b = sqrt((1.0 - k) * (1.0 + k))
    c_sum = 0.5 * k * k
    weight = 1.0
    while abs(a - b) > _AGM_RTOL * a:
        a, b, c = 0.5 * (a + b), sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        c_sum += 0.5 * weight * c * c
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - c_sum)


def _elliptic_ke_array(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K(k), E(k)) for an array of moduli 0 <= k < 1, bitwise ``elliptic_k``
    and ``elliptic_e`` of each element.

    Each element runs ``_agm``'s steps and is frozen (``np.where`` on the live
    mask) on the iteration where ``_agm`` would stop for it.  The live
    elements have all taken the same number of steps, so one weight serves.
    """
    a = np.ones_like(k)
    b = np.sqrt((1.0 - k) * (1.0 + k))
    c_sum = 0.5 * k * k
    weight = 1.0
    live = abs(a - b) > _AGM_RTOL * a
    while live.any():
        a, b, c = (np.where(live, 0.5 * (a + b), a), np.where(live, np.sqrt(a * b), b),
                   0.5 * (a - b))
        weight *= 2.0
        c_sum = np.where(live, c_sum + 0.5 * weight * c * c, c_sum)
        live &= abs(a - b) > _AGM_RTOL * a
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - c_sum)


def elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 agm(1, k')).

    Requires a real number 0 <= k < 1; K diverges logarithmically as k -> 1.
    """
    if type(k) is not float:  # no call for a float: K and E run per thermodynamic coupling
        k = _real(k, "k")
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_k requires 0 <= k < 1, got k={k!r}")
    return _agm(k)[0]


def elliptic_e(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k) = K(k) (1 - sum 2^(n-1) c_n^2).

    Requires a real number 0 <= k <= 1; E(1) = 1 exactly.
    """
    if type(k) is not float:  # no call for a float: K and E run per thermodynamic coupling
        k = _real(k, "k")
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"elliptic_e requires 0 <= k <= 1, got k={k!r}")
    if k == 1.0:
        return 1.0
    return _agm(k)[1]
