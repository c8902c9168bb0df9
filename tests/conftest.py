import importlib.util
from pathlib import Path

import pytest

REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


@pytest.fixture(scope="session")
def reference():
    """``perfbench/reference.py``: the chain re-derived in mpmath (40 to 60
    digits) without importing tfim_rfs.  Its ``mp`` is mpmath's context."""
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def eigen_qfi_chi(reference):
    """chi of a CorrelatorSet as a quarter of the quantum Fisher information of
    the RDM blocks' eigen-decomposition (``reference.chi_from_correlators``),
    evaluated in mpmath on the set's exact double values."""
    def chi(c):
        values = (reference.mpf(getattr(c, f)) for f in ("sz", "xx", "yy", "d_sz", "d_xx", "d_yy"))
        with reference.mp.workdps(reference.FINITE_DPS):
            return float(reference.chi_from_correlators(*values))
    return chi
