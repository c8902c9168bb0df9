"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json (written by run.py) names the workload, the generated inputs, the
source directory tfim_rfs must be imported from, and whether to trace.  The
worker times the import (set-up), runs the workload's library calls under a
wall clock, and writes RESULT.json with the timings, peak RSS and the raw
outputs for run.py to check.  The wall time of each operation (or fixed
chunk of operations) is kept in workload order, so that run.py can compare
the same operation across repetitions.  Before and after the import, before
each operation, and after the last, the worker times one calibration chunk:
a fixed loop that calls no tfim_rfs code, which measures the host's speed
at that moment.  When tracing, the spans are written to the job's span file
after the run.
"""

from __future__ import annotations

import csv
import json
import math
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

_CALIBRATION_VALUES = [math.cos(i * math.pi / 4096) for i in range(4096)]


def calibration_chunk() -> float:
    """A fixed ~1 ms of scalar float arithmetic and an exact sum, the two
    kinds of work the workloads do.  It uses only the standard library and
    calls no tfim_rfs code, so its time measures only the speed of the host,
    before the import as well as after it."""
    acc = 0.0
    for i in range(1, 1500):
        x = 1.0 + i * 1e-4
        acc += math.sqrt(x) * math.log(x) / (1.0 + x * x)
    return acc + math.fsum(_CALIBRATION_VALUES)


def time_calibration_chunk() -> float:
    start = time.perf_counter()
    calibration_chunk()
    return time.perf_counter() - start


_calibration_before = time_calibration_chunk()
_started = time.perf_counter()
import tfim_rfs  # noqa: E402
import tfim_rfs.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - _started
SETUP_CALIBRATION_S = [_calibration_before, time_calibration_chunk()]

import tfim_rfs.rfs as rfs  # noqa: E402
import tfim_rfs.scaling as scaling  # noqa: E402

import tracing  # noqa: E402


class OpTimer:
    """Wall time of each operation, with one calibration chunk timed just
    before each and one after the last, so that every operation has the
    host's speed measured on both sides of it."""

    def __init__(self):
        self.op_s: list[float] = []
        self.calibration_s: list[float] = []

    def _calibrate(self):
        self.calibration_s.append(time_calibration_chunk())

    @contextmanager
    def op(self):
        self._calibrate()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_s.append(time.perf_counter() - start)

    def close(self):
        self._calibrate()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def peak_scaling(inputs, job, timer):
    """find_peak per size, the sqrt(chi_m) vs ln N fit, and the collapse exponent."""
    peaks, outcomes = [], []
    for n in inputs["peak_sizes"]:
        with timer.op():
            try:
                record = scaling.find_peak(n)
                peaks.append(record)
                outcomes.append({"n_sites": n, "lambda_m": record.lambda_m,
                                 "chi_m": record.chi_m})
            except Exception as exc:  # any raise is a failed operation
                outcomes.append({"n_sites": n, "error": _error(exc)})
    with timer.op():
        try:
            fit = {"slope": scaling.fit_finite_size(peaks).slope}
        except Exception as exc:
            fit = {"error": _error(exc)}
    with timer.op():
        try:
            by_size = {p.n_sites: p for p in peaks}
            nu = {"nu": scaling.best_collapse_exponent(inputs["collapse_sizes"], peaks=by_size)}
        except Exception as exc:
            nu = {"error": _error(exc)}
    return {"peaks": outcomes, "fit": fit, "collapse": nu}


def large_ring_verify(inputs, job, timer):
    """`tfim-rfs sweep --verify` in process, one row per call, each to a CSV
    file that is then parsed.  The momentum tables stay cached between the
    calls, as they do between the rows of one sweep."""
    codes, rows = [], []
    for index, row_argv in enumerate(inputs["row_argvs"]):
        out_path = f"{job['csv_path']}.{index}"
        argv = list(row_argv) + ["--out", out_path]
        with timer.op():
            code = cli.main(argv)
        codes.append(code)
        if Path(out_path).is_file():
            with open(out_path, encoding="utf-8", newline="") as handle:
                for record in csv.DictReader(row for row in handle if not row.startswith("#")):
                    rows.append({key: (float(value) if value else None)
                                 for key, value in record.items()})
    return {"exit_codes": codes, "rows": rows}


def thermo_divergence(inputs, job, timer):
    """susceptibility_thermo per coupling, then fit_thermo per decade window.

    The couplings are timed in chunks of ``chunk`` (one call is ~40 us),
    the fits one by one."""
    chis = []
    couplings, chunk = inputs["couplings"], inputs["chunk"]
    for first in range(0, len(couplings), chunk):
        with timer.op():
            for lam in couplings[first:first + chunk]:
                try:
                    chis.append(rfs.susceptibility_thermo(lam))
                except Exception as exc:
                    chis.append(_error(exc))
    fits = []
    for window in inputs["windows"]:
        with timer.op():
            try:
                fits.append(scaling.fit_thermo(window).slope)
            except Exception as exc:
                fits.append(_error(exc))
    return {"chi": chis, "amplitude": fits}


WORKLOADS = {
    "peak_scaling": peak_scaling,
    "large_ring_verify": large_ring_verify,
    "thermo_divergence": thermo_divergence,
}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    imported_from = Path(tfim_rfs.__file__).resolve().parent
    if imported_from != Path(job["package_dir"]).resolve():
        print(f"worker: tfim_rfs imported from {imported_from}, expected {job['package_dir']}",
              file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
    timer = OpTimer()
    results = WORKLOADS[job["workload"]](job["inputs"], job, timer)
    timer.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(job["spans_path"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    doc = {"setup_s": SETUP_S, "setup_calibration_s": SETUP_CALIBRATION_S, "wall_s": sum(timer.op_s), "op_s": timer.op_s,
           "calibration_s": timer.calibration_s, "peak_rss_mb": peak_rss_mb, "results": results}
    Path(result_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
