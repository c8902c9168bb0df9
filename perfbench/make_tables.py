"""Write the benchmark's precomputed reference table, using mpmath only.

    python3 perfbench/make_tables.py            # rewrites perfbench/tables/reference.json

The table holds
* the susceptibility peak (lam_m, chi_m) of every ring N = 2^9 .. 2^14 that
  ``peak_scaling`` analyses, and
* chi(N, lam) for N = 2^16, 2^18 at every coupling of the pool
  lam = 1 + j 2^-13, |j| <= 8, from which ``large_ring_verify`` draws its
  sweep windows (the CLI's linspace reproduces these couplings exactly).

Values are decimal strings with 25 significant digits; couplings are stored
as float.hex of the exact double the library receives.  Run time is a few
minutes on one core.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402

TABLE_PATH = Path(__file__).resolve().parent / "tables" / "reference.json"

PEAK_SIZES = tuple(2 ** k for k in range(9, 15))
RING_SIZES = (2 ** 16, 2 ** 18)
RING_STEP = 2.0 ** -13
RING_SPAN = 8  # pool index j runs over -RING_SPAN .. RING_SPAN
DIGITS = 25


def ring_pool() -> list[float]:
    return [1.0 + j * RING_STEP for j in range(-RING_SPAN, RING_SPAN + 1)]


def _peak_guess(n_sites: int) -> float:
    # 1 - lam_m falls roughly like N^-1.78 from 8.2e-5 at N = 512.
    return 1.0 - 8.2e-5 * (512.0 / n_sites) ** 1.78


def main() -> int:
    mp.dps = reference.FINITE_DPS
    started = time.perf_counter()
    peaks = []
    for n in PEAK_SIZES:
        lam_m, chi_m = reference.peak(n, _peak_guess(n))
        peaks.append({"n_sites": n, "lambda_m": mpmath.nstr(lam_m, DIGITS),
                      "chi_m": mpmath.nstr(chi_m, DIGITS)})
        print(f"peak N={n}: lam_m={peaks[-1]['lambda_m']} "
              f"({time.perf_counter() - started:.0f} s)", flush=True)

    ring = {str(n): {} for n in RING_SIZES}
    for n in RING_SIZES:
        table = reference.mode_table(n)
        for lam in ring_pool():
            ring[str(n)][lam.hex()] = mpmath.nstr(reference.chi_finite(lam, table), DIGITS)
        print(f"ring N={n} ({time.perf_counter() - started:.0f} s)", flush=True)

    doc = {
        "generator": "perfbench/make_tables.py (mpmath only)",
        "mpmath_version": mpmath.__version__,
        "dps": reference.FINITE_DPS,
        "digits_stored": DIGITS,
        "peaks": peaks,
        "ring_step_log2": int(math.log2(RING_STEP)),
        "ring_span": RING_SPAN,
        "ring_chi": ring,
    }
    TABLE_PATH.parent.mkdir(parents=True, exist_ok=True)
    TABLE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE_PATH} in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
