"""Exact ground-state quantities of the 1D transverse-field Ising chain.

Model: N spins on a ring with Ising coupling lam (in units of the transverse
field), H = -sum_j [lam sx_j sx_{j+1} + sz_j], N even.  The free-fermion
solution gives the magnetization and the nearest-neighbour correlators as
sums over the momenta phi_q = 2 pi q / N with q running over half-odd
integers -M, ..., M, M = (N-1)/2; the half-odd grid never contains the
gapless mode, so every quantity is finite for all lam >= 0, including the
critical coupling lam = 1.

Two evaluation regimes are provided:

* ``correlators_finite`` -- the exact momentum sums for a chain of N sites,
  with per-mode analytic lam-derivatives (quotient rule on each summand).
  The peak search also needs second lam-derivatives; ``_finite_curvature``
  adds them from the same per-mode arrays.
* ``correlators_thermo`` -- the N -> infinity limit, where the sums become
  complete elliptic integrals of modulus k = 2 sqrt(lam) / (1 + lam);
  derivatives follow from dK/dk = [E/(1-k^2) - K]/k and dE/dk = (E - K)/k
  via the chain rule.

Finite sums run over the N/2 positive momenta (every summand is even in
phi) in the half-angle variable s = sin^2(phi/2), which avoids the
cancellation in omega and its numerators as phi -> 0 near lam = 1.  They run
in cache-sized blocks of modes, in place, in three work arrays per thread, and
round every element as the plain expressions would (see ``_block_sums``).
Each block is reduced by np.add.reduce, the pairwise loop behind np.sum, and
the block sums are added along the tree that loop builds over the whole
table, so every sum is bitwise np.add.reduce of the whole summand array (see
``_pairwise_sums``).  The table of s is built in place, in one array of N/2
doubles.  Tables and the records of ``correlators_finite`` are each kept for
the 64 most recent sizes or specs: a verified sweep row asks for its own
coupling six times.  ``_correlators_finite_array`` runs the same kernel on
many couplings of one size at once, each a row of a couplings x modes block
in the same work arrays (one coupling per block above N = 2^15), bitwise
``correlators_finite`` at each: the data collapse samples its 40 couplings per
size this way.  Against a 40-digit reference, chi at lam = 1 is within about
1e-15 relative up to N = 32768.  For N <= 10 the tests also check every
correlator and derivative against exact diagonalization of the spin
Hamiltonian, which shares no step with the free-fermion solution.
"""

from __future__ import annotations

import math
import threading
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from math import pi
from numbers import Integral

import numpy as np

from ._read import _real
from .elliptic import _elliptic_ke_array, elliptic_e, elliptic_k

__all__ = [
    "ChainSpec",
    "CorrelatorSet",
    "correlators_finite",
    "correlators_thermo",
]

# Values of (sz, xx, yy, zz) at the critical coupling in the thermodynamic
# limit: (2/pi, 2/pi, -2/(3 pi), 16/(3 pi^2)).
_CRITICAL_SZ = 2.0 / pi
_CRITICAL_XX = 2.0 / pi
_CRITICAL_YY = -2.0 / (3.0 * pi)
_CRITICAL_ZZ = 16.0 / (3.0 * pi * pi)

# Largest correlator magnitude accepted: 1 plus roundoff slack.
_MAX_MAGNITUDE = 1.0 + 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """A single evaluation point: chain length and Ising coupling.

    n_sites must be even (so the momentum quantum numbers are half-odd
    integers) and at least 4; lam is read by ``_checked_lam``.
    """

    n_sites: int
    lam: float

    def __post_init__(self):
        if not isinstance(self.n_sites, Integral) or isinstance(self.n_sites, bool):
            raise ValueError(f"n_sites must be an integer, got {self.n_sites!r}")
        n = int(self.n_sites)
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 4, got {n}")
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "lam", _checked_lam(self.lam))


def _checked_lam(lam) -> float:
    """lam read by ``_real``, -0.0 as 0.0 (equal specs, equal bits); ValueError unless
    finite and >= 0: the rule of both regimes, the CLI grid and ``fit_thermo``'s windows."""
    lam = (lam if type(lam) is float else _real(lam, "lam")) + 0.0  # -0.0 + 0.0 is 0.0
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    return lam


def _slot_init(cls):
    """Replace the ``__init__`` of a frozen slotted dataclass by one that stores
    each argument through its slot's member descriptor, then calls
    ``self.__post_init__()`` if the class has one.

    The generated ``__init__`` of a frozen dataclass stores each field with
    ``object.__setattr__``, which looks the descriptor up again on every call;
    this one binds each descriptor's ``__set__`` once, when the class is made,
    and builds a record in about 60 % of the time.  The signature is the
    generated one: the same names, order, defaults and annotations.  Fields
    with a default factory, ``init=False`` or ``kw_only`` are not supported.
    """
    params = fields(cls)
    if any(f.default_factory is not MISSING or not f.init or f.kw_only for f in params):
        raise TypeError(f"_slot_init supports plain positional fields only: {cls.__name__}")
    names = [f.name for f in params]
    body = [f"        _set_{name}(self, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("        self.__post_init__()")
    source = "\n".join([f"def make_init({', '.join(f'_set_{name}' for name in names)}):",
                        f"    def __init__(self, {', '.join(names)}):",
                        *body,
                        "    return __init__"])
    namespace = {}
    exec(source, {}, namespace)
    init = namespace["make_init"](*(cls.__dict__[name].__set__ for name in names))
    init.__defaults__ = tuple(f.default for f in params if f.default is not MISSING) or None
    init.__annotations__ = {**{f.name: f.type for f in params}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class CorrelatorSet:
    """Magnetization and nearest-neighbour correlators with lam-derivatives.

    sz = <s^z>, xx = <sx_0 sx_1>, yy = <sy_0 sy_1>, zz = <sz_0 sz_1>, and
    d_* are the first derivatives with respect to the coupling.  The library
    computes zz as sz^2 - xx yy (Wick's theorem for the free-fermion ground
    state); the record checks only that the four magnitudes are at most 1,
    and ``TwoSiteRdm`` that the state they give is positive.  The record holds
    values only, not the point they were evaluated at.  At the critical
    coupling in the thermodynamic limit the derivatives diverge and are
    reported as signed infinities, which ``derivatives_divergent`` reads.

    An immutable value (frozen, slotted, hashable, picklable): one is built
    per evaluated coupling, so ``_slot_init`` stores its fields through their
    slots and its check is written as plain comparisons.
    """

    sz: float
    xx: float
    yy: float
    zz: float
    d_sz: float
    d_xx: float
    d_yy: float
    d_zz: float

    def __post_init__(self):
        sz, xx, yy, zz = self.sz, self.xx, self.yy, self.zz
        # NaN compares false and inf exceeds the bound, so both fail here.
        if not (abs(sz) <= _MAX_MAGNITUDE and abs(xx) <= _MAX_MAGNITUDE
                and abs(yy) <= _MAX_MAGNITUDE and abs(zz) <= _MAX_MAGNITUDE):
            raise ValueError(f"correlator magnitudes must be <= 1, got {(sz, xx, yy, zz)}")

    @property
    def derivatives_divergent(self) -> bool:
        """True when any derivative is not finite."""
        return not (math.isfinite(self.d_sz) and math.isfinite(self.d_xx)
                    and math.isfinite(self.d_yy) and math.isfinite(self.d_zz))


# Most modes evaluated at once; at least 128, the longest run np.add.reduce
# sums without splitting.  The three work arrays of a block and its slice of
# the table take 1 MiB, half a 2 MiB L2.  Blocks of 2^13..2^16 modes were
# timed at N = 2^16..2^20, and 2^15 was fastest.
_BLOCK = 32768

# Each thread's three work arrays of _BLOCK doubles, reused by its every call.
# Allocated per call, they were trimmed and refaulted by glibc malloc, up to
# 96 minor page faults a call at N = 2^18.
_WORK = threading.local()


@lru_cache(maxsize=64)
def _half_angle_table(n_sites: int) -> np.ndarray:
    """Cached, read-only s = sin^2(phi/2) on the N/2 positive momenta."""
    # phi/2 = pi q / N on the positive momenta, q = 1/2, 3/2, ..., (N-1)/2; the
    # half-odd q exclude the gapless mode, so every s is positive.  In place,
    # rounded as sin(pi q / N) ** 2 rounds.
    s = np.arange(n_sites // 2, dtype=float)
    s += 0.5
    s *= pi
    s /= n_sites
    np.sin(s, out=s)
    s *= s
    s.setflags(write=False)
    return s


def _block_sums(s, lam, work, curvature):
    """Unnormalized momentum sums over one block ``s`` of the half-angle table.

    Returns the sums of the sz, xx, yy, d_xx and d_yy summands, then, with
    ``curvature``, of the d2_xx and d2_yy summands.  ``lam`` is a float, or a
    (k, 1) column of k couplings: then each summand is k rows of len(s) modes,
    in the first k len(s) doubles of a work array, and each sum an array of k.
    Each summand is evaluated into the three arrays of ``work`` with numpy
    ``out=`` and in-place ufuncs and reduced by np.add.reduce along its last
    axis.  Every element is rounded as the summand's plain expression rounds
    it: the operations are the expression's, in its order, except for factors
    of 2 moved where scaling is exact.  2 s - gap and 1 - 2 s round to
    2 (s - gap/2) and 2 (1/2 - s), and (2 lam)(2 u) and (4 lam) u are the same
    product rounded once.  xx and yy also drop the 2
    before their last product, which is never subnormal (a nonzero s - gap/2
    or s t - gap/2 is above about 1e-50 for any N that fits in memory, and
    1/omega above 1e-155), and double their sums.  The 4 of
    sin^2 phi = 4 s (1 - s) stays first: s (1 - s) / omega^3 can be subnormal
    (N = 12, lam = 1e102).
    """
    shape = np.shape(lam)[:1] + (len(s),)
    inv, buf, sin_sq_inv3 = (row[:math.prod(shape)].reshape(shape) for row in work)
    gap = 1.0 - lam
    half_gap = 0.5 * gap
    # omega > 0: every table entry s >= sin^2(pi/2N), and |1 - lam| > 0 off lam = 1.
    # 1/omega: 1 / sqrt(gap^2 + (4 lam) s).
    np.multiply(s, 4.0 * lam, out=inv)
    inv += gap * gap
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)

    # sin^2(phi)/omega^3: ((((4 s) (1 - s)) inv) inv) inv; 1 - s stays in buf.
    np.subtract(1.0, s, out=buf)
    np.multiply(s, 4.0, out=sin_sq_inv3)
    sin_sq_inv3 *= buf
    sin_sq_inv3 *= inv
    sin_sq_inv3 *= inv
    sin_sq_inv3 *= inv
    d_xx = np.add.reduce(sin_sq_inv3, -1)

    # yy / 2: (s (1 - (4 lam) (1 - s)) - gap/2) inv.
    buf *= 4.0 * lam
    np.subtract(1.0, buf, out=buf)
    buf *= s
    buf -= half_gap
    buf *= inv
    yy = 2.0 * np.add.reduce(buf, -1)

    # xx / 2: (s - gap/2) inv.
    np.subtract(s, half_gap, out=buf)
    buf *= inv
    xx = 2.0 * np.add.reduce(buf, -1)

    # sz: (gap + (2 lam) s) inv.
    np.multiply(s, 2.0 * lam, out=buf)
    buf += gap
    buf *= inv
    sz = np.add.reduce(buf, -1)

    if curvature:
        # d2 xx: (((-6 (s - gap/2)) sin^2(phi)/omega^3) inv) inv, kept in buf.
        np.subtract(s, half_gap, out=buf)
        buf *= -6.0
        buf *= sin_sq_inv3
        buf *= inv
        buf *= inv
        d2_xx = np.add.reduce(buf, -1)
    # d yy: ((4 lam) (1/2 - s) - 1) sin^2(phi)/omega^3.  1/omega is spent, so
    # its array takes the first factor, which d2 yy shares.
    np.subtract(0.5, s, out=inv)
    inv *= 4.0 * lam
    inv -= 1.0
    if curvature:
        buf *= inv
    inv *= sin_sq_inv3
    d_yy = np.add.reduce(inv, -1)
    if not curvature:
        return sz, xx, yy, d_xx, d_yy

    # d2 yy: (4 (1/2 - s)) sin^2(phi)/omega^3 + ((4 lam) (1/2 - s) - 1) d2xx,
    # the second term in buf.
    np.subtract(0.5, s, out=inv)
    inv *= 4.0
    inv *= sin_sq_inv3
    inv += buf
    return sz, xx, yy, d_xx, d_yy, d2_xx, np.add.reduce(inv, -1)


def _pairwise_sums(s, lam, work, curvature):
    """``_block_sums`` of all of ``s``, added as np.add.reduce would add them.

    np.add.reduce sums an array pairwise: one of more than 128 elements
    splits at half its length rounded down to a multiple of 8, and the sums
    of the two parts are added.  This splits ``s`` the same way until a part
    fits in a block, so each sum is bitwise np.add.reduce over the whole
    array of its summands.
    """
    n = len(s)
    if n <= _BLOCK:
        return _block_sums(s, lam, work, curvature)
    mid = n // 2 - n // 2 % 8
    left = _pairwise_sums(s[:mid], lam, work, curvature)
    right = _pairwise_sums(s[mid:], lam, work, curvature)
    return [a + b for a, b in zip(left, right)]


def _finite_sums(spec: ChainSpec, curvature: bool):
    """The means of ``_block_sums`` over all N/2 modes.

    Raises ValueError, naming N and lam, when (1 - lam)^2 overflows (lam above
    about 1.34e154, where omega would be infinite and every correlator 0).
    """
    n, lam = spec.n_sites, spec.lam
    if math.isinf((1.0 - lam) * (1.0 - lam)):
        raise ValueError(f"(1 - lam)^2 overflows in floating point at N={n}, lam={lam}")
    s = _half_angle_table(n)
    half = len(s)
    return [float(total) / half for total in _pairwise_sums(s, lam, _work_rows(), curvature)]


def _work_rows():
    """This thread's three work arrays of _BLOCK doubles, made on its first call."""
    work = getattr(_WORK, "rows", None)
    if work is None:
        work = _WORK.rows = tuple(np.empty((3, _BLOCK)))
    return work


@lru_cache(maxsize=64)
def correlators_finite(spec: ChainSpec) -> CorrelatorSet:
    """Exact correlators of an N-site ring at coupling lam.

    Momentum sums (1/N) sum_q f(phi_q):
        sz = (1 - lam cos phi) / omega
        xx = (lam - cos phi) / omega
        yy = (lam cos 2phi - cos phi) / omega
    and zz = sz^2 - xx yy.  Each derivative is the quotient-rule derivative
    of its summand, which reduces to
        d sz = -lam sin^2 phi / omega^3  (= -lam d xx)
        d xx = sin^2 phi / omega^3
        d yy = sin^2 phi (2 lam cos phi - 1) / omega^3,
    with d zz from the product rule.  With s = sin^2(phi/2), cos phi = 1 - 2s,
    sin^2 phi = 4s(1 - s) and lam cos 2phi - cos phi = (lam - 1) + 2s(1 - 4 lam (1 - s));
    the sums are pairwise means over the N/2 positive momenta.  Raises
    ValueError for lam above about 1.34e154, where (1 - lam)^2 overflows.
    Memoized on the 64 most recently used specs: a repeated spec returns
    the frozen record of its first evaluation.
    """
    return CorrelatorSet(*_finite_fields(spec.lam, *_finite_sums(spec, curvature=False)))


def _finite_fields(lam, sz, xx, yy, d_xx, d_yy):
    """The 8 fields of the record of the five finite sums, with d_sz = -lam d_xx,
    zz and d_zz; floats or arrays, rounded alike."""
    d_sz = -lam * d_xx
    zz = sz * sz - xx * yy
    d_zz = 2.0 * sz * d_sz - d_xx * yy - xx * d_yy
    return sz, xx, yy, zz, d_sz, d_xx, d_yy, d_zz


def _correlators_finite_array(n_sites: int, lams: np.ndarray):
    """``correlators_finite`` of an N-site ring at every coupling of a 1-d array.

    Returns (fields, ok): the 8 ``CorrelatorSet`` fields as arrays, and the
    mask of the couplings that pass the checks of ``ChainSpec`` and
    ``_finite_sums``, whose fields are bitwise the scalar ones; the
    magnitude check of ``CorrelatorSet`` is left to the caller.  The rest
    may hold anything.  The couplings go through ``_pairwise_sums`` as
    columns of as many couplings as fit, with a block of modes each, in the
    first _BLOCK doubles of the thread's work arrays.  A column's sums are bitwise the scalar ones because np.add.reduce along the
    last axis of C-contiguous rows sums each row pairwise, as it sums a 1-d
    array; the tests check this on numpy 2.4, and the oldest-numpy CI job
    runs them on 1.24.  The memo is neither read nor filled.  A bad n_sites
    raises ChainSpec's ValueError.  Call it under
    ``np.errstate(all="ignore")``: masked elements may overflow.
    """
    n = ChainSpec(n_sites, 0.0).n_sites
    lam = lams + 0.0  # -0.0 + 0.0 is 0.0, as in ChainSpec
    # Finite, >= 0 (NaN fails), and (1 - lam)^2 finite, which rejects lam = inf too.
    ok = (lam >= 0.0) & np.isfinite((1.0 - lam) * (1.0 - lam))
    s = _half_angle_table(n)
    half = len(s)
    # Couplings per pass: _pairwise_sums's blocks hold at most min(half, _BLOCK) modes.
    step = _BLOCK // min(half, _BLOCK)
    chunks = [lam[i:i + step, None] for i in range(0, len(lam), step)]
    work = _work_rows()
    parts = [_pairwise_sums(s, chunk, work, False) for chunk in chunks]
    sz, xx, yy, d_xx, d_yy = (np.hstack(totals) / half for totals in zip(*parts))
    return _finite_fields(lam, sz, xx, yy, d_xx, d_yy), ok


def _finite_curvature(spec: ChainSpec):
    """``correlators_finite(spec)`` and the second lam-derivatives
    (d2_sz, d2_xx, d2_yy, d2_zz), from one pass over the modes.

    Differentiating the first-derivative summands once more gives
        d2 xx = -3 sin^2 phi (2s - (1 - lam)) / omega^5
        d2 yy = 2 (1 - 2s) sin^2 phi / omega^3 + (2 lam (1 - 2s) - 1) d2 xx,
    with d2 sz = -d xx - lam d2 xx and d2 zz from the product rule.
    """
    *first, d2_xx, d2_yy = _finite_sums(spec, curvature=True)
    lam = spec.lam
    c = CorrelatorSet(*_finite_fields(lam, *first))
    d2_sz = -c.d_xx - lam * d2_xx
    d2_zz = (2.0 * (c.d_sz * c.d_sz + c.sz * d2_sz)
             - d2_xx * c.yy - 2.0 * c.d_xx * c.d_yy - c.xx * d2_yy)
    return c, (d2_sz, d2_xx, d2_yy, d2_zz)


def correlators_thermo(lam: float) -> CorrelatorSet:
    """Thermodynamic-limit correlators at a coupling lam that ``ChainSpec`` accepts.

    With k = 2 sqrt(lam) / (1 + lam) and K = K(k), E = E(k):
        sz = [(1 - lam) K + (1 + lam) E] / pi
        xx = [(lam - 1) K + (1 + lam) E] / (pi lam)
        yy = [K (lam - 1)(2 lam^2 + 1) - E (lam + 1)(2 lam^2 - 1)] / (3 pi lam)
    and zz = sz^2 - xx yy.  Derivatives follow from the standard identities
    dK/dk = [E/(1-k^2) - K]/k and dE/dk = (E - K)/k together with
    dk/dlam = (1 - lam) / (sqrt(lam) (1 + lam)^2).

    k < 1 on both sides of the critical point, so lam < 1 and lam > 1 share
    this code path.  At lam = 1 exactly the correlators take their critical
    values and the derivatives diverge logarithmically; they are returned as
    signed infinities, so ``derivatives_divergent`` is true.  Where k rounds
    to 1 (at every |1 - lam| below about 1.4e-9 and at some up to about
    4e-8) a ValueError names lam and |1 - lam|.

    The fields come from ``_thermo_fields``, which ``fit_thermo`` also runs on
    whole arrays of couplings (through ``_correlators_thermo_array``); both
    round every value alike.
    """
    lam = _checked_lam(lam)
    if lam == 0.0:
        # Fully polarized paramagnet; derivative limits of the sums.
        return CorrelatorSet(1.0, 0.0, 0.0, 1.0, 0.0, 0.5, -0.5, 0.0)
    if lam == 1.0:
        return CorrelatorSet(_CRITICAL_SZ, _CRITICAL_XX, _CRITICAL_YY, _CRITICAL_ZZ,
                             -math.inf, math.inf, math.inf, -math.inf)

    sqrt_lam = math.sqrt(lam)
    k = 2.0 * sqrt_lam / (1.0 + lam)
    if not k < 1.0:
        raise ValueError(f"lam={lam!r} is too close to 1 (|1 - lam| = {abs(1.0 - lam):.3g}): "
                         "the elliptic modulus rounds to 1")
    return CorrelatorSet(*_thermo_fields(lam, sqrt_lam, k, elliptic_k(k), elliptic_e(k)))


def _thermo_fields(lam, sqrt_lam, k, big_k, big_e):
    """The 8 fields of ``correlators_thermo`` from lam, sqrt(lam), k, K(k) and E(k).

    Arithmetic only, in one order, so it takes floats or arrays alike and
    rounds each array element as it rounds the float.  Squares are written
    as products: numpy squares that way, while Python's ``x ** 2`` calls pow.
    """
    one_plus = 1.0 + lam
    gap, minus_gap = 1.0 - lam, lam - 1.0
    pi_lam, three_pi_lam = pi * lam, 3.0 * pi * lam
    kp = gap / one_plus
    kp_sq = kp * kp  # 1 - k^2, cancellation-free
    dk_dlam = gap / (sqrt_lam * one_plus * one_plus)
    kd = (big_e / kp_sq - big_k) / k * dk_dlam  # dK/dlam
    ed = (big_e - big_k) / k * dk_dlam          # dE/dlam

    sz = (gap * big_k + one_plus * big_e) / pi
    xx = (minus_gap * big_k + one_plus * big_e) / pi_lam
    p = minus_gap * (2.0 * lam * lam + 1.0)
    dp = 6.0 * lam * lam - 4.0 * lam + 1.0
    q = one_plus * (2.0 * lam * lam - 1.0)
    dq = 6.0 * lam * lam + 4.0 * lam - 1.0
    yy = (big_k * p - big_e * q) / three_pi_lam

    d_sz = (-big_k + gap * kd + big_e + one_plus * ed) / pi
    d_xx = (big_k + minus_gap * kd + big_e + one_plus * ed) / pi_lam - xx / lam
    d_yy = (kd * p + big_k * dp - ed * q - big_e * dq) / three_pi_lam - yy / lam

    zz = sz * sz - xx * yy
    d_zz = 2.0 * sz * d_sz - d_xx * yy - xx * d_yy
    return sz, xx, yy, zz, d_sz, d_xx, d_yy, d_zz


def _correlators_thermo_array(lam: np.ndarray):
    """``correlators_thermo`` of every coupling of an array, in one numpy pass.

    Returns (fields, ok): the 8 ``CorrelatorSet`` fields as arrays, and the
    mask of the couplings that pass the checks of ``correlators_thermo``,
    whose fields are bitwise the scalar ones; the magnitude check of
    ``CorrelatorSet`` is left to the caller.  The rest may hold anything;
    lam = 0, a special case of the scalar path, is among them.  When some
    modulus rounds to 1, nothing is evaluated: fields is None and ok is all
    False.  Call it under ``np.errstate(all="ignore")``: masked elements may
    overflow.
    """
    sqrt_lam = np.sqrt(lam)
    k = 2.0 * sqrt_lam / (1.0 + lam)
    if not np.all(k < 1.0):
        return None, np.zeros(lam.shape, dtype=bool)
    return _thermo_fields(lam, sqrt_lam, k, *_elliptic_ke_array(k)), lam != 0.0
