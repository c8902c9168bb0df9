"""Two-site reduced fidelity susceptibility of the 1D transverse-field Ising chain.

Exact finite-size and thermodynamic-limit correlators, the block-diagonal
two-site reduced density matrix, the closed-form susceptibility with an
Uhlmann-fidelity oracle that checks its algebra on the same RDMs, and the
scaling analysis (peak growth, thermodynamic divergence, data collapse).
Each module declares its public names in its own ``__all__``, and the
package re-exports them.
"""

from . import elliptic, exact, rdm, rfs, scaling
from .elliptic import *
from .exact import *
from .rdm import *
from .rfs import *
from .scaling import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (elliptic, exact, rdm, rfs, scaling) for name in module.__all__)
