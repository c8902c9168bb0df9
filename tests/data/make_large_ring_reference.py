"""Write the 40-digit references of chi at N = 2^19 and 2^20, using mpmath.

    PYTHONPATH=src python3 tests/data/make_large_ring_reference.py
    # rewrites tests/data/large_ring_reference.json

Every value comes from ``perfbench/reference.py``, which shares no formula
with tfim_rfs.  The couplings are lam = 1, lam_m, 1 - 4/N and 1 + 1/N, where
lam_m is ``find_peak(N).lambda_m``: the one number taken from tfim_rfs, as
an input, and stored as a pin of the peak search.  Each coupling is stored
as float.hex of the exact double, each value as a decimal string of 25
significant digits.

The N/2 positive modes are summed in chunks, so the mode table is never held
whole (about 400 MB at N = 2^20); chi follows from the chunk-weighted mode
averages of the six correlator fields.  It takes about 3.5 minutes on one
core of a 2-core Xeon (mpmath 1.3 on its pure-Python backend); tier-1 only
reads the file.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mp, mpf

from tfim_rfs import find_peak

HERE = Path(__file__).resolve().parent
DATA_PATH = HERE / "large_ring_reference.json"
REFERENCE_PATH = HERE.parents[1] / "perfbench" / "reference.py"

SIZES = (2 ** 19, 2 ** 20)
FIELDS = ("sz", "xx", "yy", "d_sz", "d_xx", "d_yy")
CHUNK = 2 ** 14
DIGITS = 25


def _load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def couplings(n_sites: int) -> dict:
    return {"1": 1.0, "lambda_m": find_peak(n_sites).lambda_m,
            "1 - 4/N": 1.0 - 4.0 / n_sites, "1 + 1/N": 1.0 + 1.0 / n_sites}


def _mode_chunks(n_sites: int):
    """``reference.mode_table(n_sites)`` in consecutive slices of CHUNK modes."""
    two_pi_over_n = 2 * mp.pi / n_sites
    for start in range(0, n_sites // 2, CHUNK):
        chunk = []
        for j in range(start, min(start + CHUNK, n_sites // 2)):
            phi = (j + mpf(0.5)) * two_pi_over_n
            chunk.append((mpmath.cos(phi), mpmath.cos(2 * phi), mpmath.sin(phi / 2) ** 2))
        yield chunk


def main() -> int:
    reference = _load_reference()
    mp.dps = reference.FINITE_DPS
    started = time.perf_counter()
    sizes = {}
    for n in SIZES:
        named = couplings(n)
        lams = list(named.values())
        sums = [[mpf(0)] * len(FIELDS) for _ in lams]
        for chunk in _mode_chunks(n):
            for total, lam in zip(sums, lams):
                means = reference.correlators_finite(lam, chunk)
                for i, mean in enumerate(means):
                    total[i] += mean * len(chunk)
        entries = []
        for total, (name, lam) in zip(sums, named.items()):
            fields = [s / (n // 2) for s in total]
            entry = {"coupling": name, "lambda": lam.hex(),
                     "chi": mpmath.nstr(reference.chi_from_correlators(*fields), DIGITS)}
            entry.update({field: mpmath.nstr(v, DIGITS) for field, v in zip(FIELDS, fields)})
            entries.append(entry)
        sizes[str(n)] = entries
        print(f"N={n} ({time.perf_counter() - started:.0f} s)", flush=True)

    doc = {
        "generator": "tests/data/make_large_ring_reference.py (perfbench/reference.py, mpmath)",
        "mpmath_version": mpmath.__version__,
        "dps": reference.FINITE_DPS,
        "digits_stored": DIGITS,
        "sizes": sizes,
    }
    DATA_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA_PATH} in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
