"""Benchmark of tfim_rfs: three workloads, checked against mpmath references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
./src).  Each repetition runs in a fresh interpreter (perfbench/worker.py),
so the susceptibility memo and the momentum tables start cold as they do
for a command-line user; repetitions continue until S seconds have passed
(at least MIN_REPS).  The program receives only the inputs generated here
from the seed, with TFIM_RFS_THREADS removed from its environment.

Workloads (see perfbench/README.md for the reasons):
  peak_scaling       find_peak for N = 2^9..2^14, fit_finite_size, and
                     best_collapse_exponent on N = 512..4096 with those peaks
  large_ring_verify  `tfim-rfs sweep --verify` in process for N = 2^16, 2^18
                     on 3 seed-chosen couplings within 1e-3 of lam = 1, one
                     row per call
  thermo_divergence  susceptibility_thermo on seed-drawn couplings,
                     |1 - lam| log-uniform on [1e-15, 1e-1], both branches,
                     and fit_thermo on sliding decade windows

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics of the traced ones
plus trace.overhead_s.  wall_s and setup_s are timed against a calibration
loop run around each operation and around the import, which takes out the
host's changes of speed (see perfbench/README.md, "Machine and noise").
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "tfim_rfs"
TABLE_PATH = BENCH_DIR / "tables" / "reference.json"
RUNS_DIR = BENCH_DIR / "_runs"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402

MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0

# wall_s and setup_s are given for a host on which worker.calibration_chunk
# takes this long, a round figure near its time on the machine named in
# perfbench/README.md.
CALIBRATION_REFERENCE_S = 1.0e-3

# Operation tolerances: relative miss of the reference.
REL_TOL = 1e-6
ORACLE_REL_TOL = 1e-3
SLOPE_REL_TOL = 0.01
NU_ABS_TOL = 0.01

PEAK_SIZES = [2 ** k for k in range(9, 15)]
COLLAPSE_SIZES = [512, 1024, 2048, 4096]
RING_SIZES = (2 ** 16, 2 ** 18)
RING_STEPS = 3
# The oracle's finite-difference step must stay below the peak width ~1/N:
# the default 1e-4 misses chi by up to 27 % at lam = 1 for N = 2^18, so the
# sweep passes the smallest step the CLI accepts.
RING_ORACLE_DELTA = 1e-6
THERMO_COUPLINGS = 6000
THERMO_DECADES = (1.0, 15.0)  # |1 - lam| in [1e-15, 1e-1]
THERMO_CHUNK = 300  # couplings timed together (~5 ms)

# Layers each workload must reach; a traced run in which one of them records
# no spans reports it as missing.
REQUIRED_LAYERS = {
    "peak_scaling": ("exact.finite", "rdm.build", "rfs.closed_form", "rfs.susceptibility",
                     "scaling.find_peak", "scaling.fit", "scaling.collapse"),
    "large_ring_verify": ("cli", "exact.finite", "rdm.build", "rfs.closed_form", "rfs.oracle"),
    "thermo_divergence": ("elliptic", "exact.thermo", "rdm.build", "rfs.closed_form",
                          "scaling.fit"),
}

# Thermodynamic-limit operations closer than this to lam = 1 are the
# library's known defect (cancellation in k' = sqrt(1 - k^2)): they count as
# failed, but only a failure elsewhere makes a run incorrect.
KNOWN_DEFECT_DISTANCE = 1e-3

# Metric names and units, as BENCHMARK.json declares them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def metric_layer(name: str) -> str | None:
    """The traced layer a per-layer metric is computed from."""
    if name == "rfs.memo_hit_ratio":
        return "rfs.susceptibility"
    matches = [layer for layer in tracing.LAYERS if name.startswith(layer + ".")]
    return max(matches, key=len) if matches else None


def amplitude() -> float:
    """Analytic squared-log amplitude A."""
    pi2 = math.pi ** 2
    return (27 * pi2 ** 2 - 144 * pi2 - 1024) / (pi2 * (9 * pi2 + 32) * (3 * pi2 - 32) + 4096)


# ---------------------------------------------------------------- inputs


def ring_couplings(seed: int, table: dict) -> list[float]:
    """Three pool couplings 1 + j h with a seed-chosen stride and offset.

    The window always holds the critical coupling lam = 1, where the
    momentum sums cancel worst, so every seed sees the largest error.
    """
    rng = random.Random(seed)
    h = 2.0 ** table["ring_step_log2"]
    stride = 1 + int(rng.random() * (table["ring_span"] // (RING_STEPS - 1)))
    first = -stride * int(rng.random() * RING_STEPS)
    return [1.0 + (first + i * stride) * h for i in range(RING_STEPS)]


def thermo_couplings(seed: int) -> list[float]:
    """Log-uniform |1 - lam|, stratified so that every seed puts the same
    number of couplings in each decade (and so does the same work)."""
    rng = random.Random(seed)
    lo, hi = THERMO_DECADES
    out = []
    for i in range(THERMO_COUPLINGS):
        stratum = i // 2
        position = (stratum + rng.random()) / (THERMO_COUPLINGS // 2)
        distance = 10.0 ** -(lo + (hi - lo) * position)
        out.append(1.0 - distance if i % 2 == 0 else 1.0 + distance)
    return out


def thermo_windows(couplings: list[float]) -> list[list[float]]:
    """Couplings of each branch in decade windows [10^-(e+1), 10^-e], e = 1, 1.5, ..."""
    windows = []
    for below in (True, False):
        branch = sorted((l for l in couplings if (l < 1.0) == below and l != 1.0),
                        key=lambda l: abs(1.0 - l))
        for twice_e in range(2, 2 * int(THERMO_DECADES[1]) - 1):
            top = 10.0 ** (-twice_e / 2.0)
            members = [l for l in branch if top / 10.0 <= abs(1.0 - l) < top]
            if len(members) >= 4:
                windows.append(members)
    return windows


def make_inputs(workload: str, seed: int, table: dict) -> dict:
    if workload == "peak_scaling":
        # The paper fixes the sizes; the seed changes nothing here.
        return {"peak_sizes": PEAK_SIZES, "collapse_sizes": COLLAPSE_SIZES}
    if workload == "large_ring_verify":
        # One sweep row per call, so that each row is timed on its own; a
        # one-step grid holds just lambda-min.
        lams = ring_couplings(seed, table)
        h = 2.0 ** table["ring_step_log2"]
        row_argvs = [["sweep", "--sizes", str(n), "--lambda-min", repr(lam),
                      "--lambda-max", repr(lam + h), "--steps", "1",
                      "--delta", repr(RING_ORACLE_DELTA), "--verify", "--format", "csv"]
                     for n in RING_SIZES for lam in lams]
        return {"row_argvs": row_argvs, "couplings": lams}
    couplings = thermo_couplings(seed)
    return {"couplings": couplings, "windows": thermo_windows(couplings),
            "chunk": THERMO_CHUNK}


# ---------------------------------------------------------------- checks


class Outcome:
    """Operations attempted/failed and the worst errors seen in one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.unexpected: list[str] = []
        self.chi_max_rel_err = 0.0
        self.lam_m_max_abs_err = 0.0

    def op(self, label: str, problem: str | None, known_defect: bool = False):
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")
            if not known_defect:
                self.unexpected.append(f"{label}: {problem}")

    def chi_error(self, value, reference: float) -> float:
        err = abs(value - reference) / abs(reference)
        self.chi_max_rel_err = max(self.chi_max_rel_err, err)
        return err


def _number(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _line_fit_slope(x, y) -> float:
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
            / sum((a - x_mean) ** 2 for a in x))


def check_peak_scaling(results: dict, table: dict, _refs) -> Outcome:
    out = Outcome()
    ref = {p["n_sites"]: (float(p["lambda_m"]), float(p["chi_m"])) for p in table["peaks"]}
    for peak in results["peaks"]:
        n = peak["n_sites"]
        if "error" in peak:
            out.op(f"peak N={n}", peak["error"])
            continue
        lam_ref, chi_ref = ref[n]
        if not (_number(peak["lambda_m"]) and _number(peak["chi_m"])):
            out.op(f"peak N={n}", "non-finite")
            continue
        chi_err = out.chi_error(peak["chi_m"], chi_ref)
        lam_err = abs(peak["lambda_m"] - lam_ref)
        out.lam_m_max_abs_err = max(out.lam_m_max_abs_err, lam_err)
        problem = None
        if chi_err > REL_TOL or lam_err / lam_ref > REL_TOL:
            problem = f"chi_m rel err {chi_err:.3g}, lam_m abs err {lam_err:.3g}"
        out.op(f"peak N={n}", problem)

    fit = results["fit"]
    sizes = sorted(ref)
    slope_ref = _line_fit_slope([math.log(n) for n in sizes], [math.sqrt(ref[n][1]) for n in sizes])
    sqrt_a = math.sqrt(amplitude())
    if "error" in fit or not _number(fit.get("slope")):
        out.op("fit_finite_size", fit.get("error", "non-finite"))
    elif abs(fit["slope"] - slope_ref) > REL_TOL * slope_ref:
        out.op("fit_finite_size", f"slope {fit['slope']!r} vs reference fit {slope_ref!r}")
    elif abs(fit["slope"] - sqrt_a) > SLOPE_REL_TOL * sqrt_a:
        out.op("fit_finite_size", f"slope {fit['slope']!r} more than 1% off sqrt(A)")
    else:
        out.op("fit_finite_size", None)

    collapse = results["collapse"]
    if "error" in collapse or not _number(collapse.get("nu")):
        out.op("best_collapse_exponent", collapse.get("error", "non-finite"))
    elif abs(collapse["nu"] - 1.0) > NU_ABS_TOL:
        out.op("best_collapse_exponent", f"nu = {collapse['nu']!r}")
    else:
        out.op("best_collapse_exponent", None)
    return out


def check_large_ring(results: dict, table: dict, refs) -> Outcome:
    out = Outcome()
    expected = [(n, lam) for n in RING_SIZES for lam in refs["couplings"]]
    codes = results["exit_codes"]
    rows = results["rows"] if not any(codes) else []
    for index, (n, lam) in enumerate(expected):
        label = f"row N={n} lam={lam!r}"
        row = rows[index] if index < len(rows) else None
        if row is None:
            out.op(label, f"missing (exit codes {codes})")
            continue
        if row.get("n_sites") != n or row.get("lambda") != lam:
            out.op(label, f"row holds N={row.get('n_sites')} lam={row.get('lambda')!r}")
            continue
        chi_ref = float(table["ring_chi"][str(n)][lam.hex()])
        values = [row.get(key) for key in ("chi", "chi_oracle", "discrepancy")]
        if not all(_number(v) for v in values):
            out.op(label, f"non-finite or empty cell in {values}")
            continue
        chi_err = out.chi_error(row["chi"], chi_ref)
        oracle_err = abs(row["chi_oracle"] - chi_ref) / chi_ref
        problem = None
        if chi_err > REL_TOL or oracle_err > ORACLE_REL_TOL:
            problem = f"chi rel err {chi_err:.3g}, oracle rel err {oracle_err:.3g}"
        out.op(label, problem)
    return out


def _reference_fit(window: list[float], chi_ref: dict) -> float:
    x = np.array([math.log(1.0 / abs(1.0 - l)) for l in window])
    y = np.array([chi_ref[l] for l in window])
    sol = least_squares(lambda p: p[0] * (x + p[1]) ** 2 + p[2] - y, [amplitude(), 0.0, 0.0],
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return float(sol.x[0])


def check_thermo(results: dict, table: dict, refs) -> Outcome:
    out = Outcome()
    chi_ref = refs["chi"]
    for lam, chi in zip(refs["couplings"], results["chi"]):
        if isinstance(chi, str):
            problem = chi
        elif not _number(chi):
            problem = "non-finite"
        else:
            err = out.chi_error(chi, chi_ref[lam])
            problem = f"rel err {err:.3g}" if err > REL_TOL else None
        out.op(f"chi_thermo lam={lam!r}", problem,
               known_defect=abs(1.0 - lam) < KNOWN_DEFECT_DISTANCE)
    for window, fitted, reference in zip(refs["windows"], results["amplitude"],
                                         refs["fit_amplitude"]):
        if isinstance(fitted, str):
            problem = fitted
        elif not _number(fitted):
            problem = "non-finite"
        else:
            err = abs(fitted - reference) / abs(reference)
            problem = f"amplitude rel err {err:.3g}" if err > REL_TOL else None
        nearest = abs(1.0 - window[0])
        out.op(f"fit_thermo |1-lam| in [{nearest:.1e}, {abs(1.0 - window[-1]):.1e}]", problem,
               known_defect=nearest < KNOWN_DEFECT_DISTANCE)
    return out


CHECKS = {
    "peak_scaling": check_peak_scaling,
    "large_ring_verify": check_large_ring,
    "thermo_divergence": check_thermo,
}


def build_references(workload: str, inputs: dict) -> dict:
    """Reference values the checks need beyond the stored table (untimed)."""
    if workload == "large_ring_verify":
        return {"couplings": inputs["couplings"]}
    if workload != "thermo_divergence":
        return {}
    import reference  # mpmath only

    chi = {lam: float(reference.chi_thermo(lam)) for lam in set(inputs["couplings"])}
    return {
        "couplings": inputs["couplings"],
        "windows": inputs["windows"],
        "chi": chi,
        "fit_amplitude": [_reference_fit(w, chi) for w in inputs["windows"]],
    }


# ---------------------------------------------------------------- running


def run_child(job: dict, run_dir: Path, index: int) -> dict:
    job = dict(job, run_id=f"{job['run_id']}-rep{index}",
               spans_path=str(run_dir / f"rep{index}.spans.json"),
               csv_path=str(run_dir / f"rep{index}.csv"))
    job_path = run_dir / f"rep{index}.job.json"
    result_path = run_dir / f"rep{index}.result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("TFIM_RFS_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path), str(result_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    doc["traced"] = job["trace"]
    if job["trace"]:
        doc["spans"] = json.loads(Path(job["spans_path"]).read_text(encoding="utf-8"))
    return doc


def run_repetitions(job: dict, seconds: float, trace: bool, run_dir: Path) -> list[dict]:
    """Fresh-interpreter repetitions for about ``seconds``; traced ones alternate.

    A repetition is started only if it is expected, from the last one of
    its kind, to end within the time, once MIN_REPS of each kind are done.
    """
    reps, last_duration = [], {}
    clock = time.perf_counter
    deadline = clock() + seconds
    modes = (False, True) if trace else (False,)
    while True:
        mode = modes[len(reps) % len(modes)]
        done = min(sum(1 for r in reps if r["traced"] == m) for m in modes)
        if done >= MIN_REPS and clock() + last_duration.get(mode, 0.0) > deadline:
            break
        started = clock()
        reps.append(run_child(dict(job, trace=mode), run_dir, len(reps)))
        last_duration[mode] = clock() - started
    return reps


def scaled_time(reps: list[dict]) -> float:
    """Workload time at the reference host speed.

    Each operation's time is divided by the mean of the calibration chunks
    timed just before and just after it; the median of that ratio over
    ``reps`` is summed over the operations and multiplied by
    CALIBRATION_REFERENCE_S.
    """
    total = 0.0
    for index in range(len(reps[0]["op_s"])):
        total += statistics.median(
            r["op_s"][index] / (0.5 * (r["calibration_s"][index] + r["calibration_s"][index + 1]))
            for r in reps)
    return CALIBRATION_REFERENCE_S * total


def scaled_setup(reps: list[dict]) -> float:
    """Import time at the reference host speed, as in ``scaled_time``."""
    return CALIBRATION_REFERENCE_S * statistics.median(
        r["setup_s"] / statistics.fmean(r["setup_calibration_s"]) for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on an exception: subprocess.run then kills the
    # running worker and waits for it, and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"run.py: no tfim_rfs sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    table = json.loads(TABLE_PATH.read_text(encoding="utf-8"))
    inputs = make_inputs(args.workload, args.seed, table)
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir = RUNS_DIR / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    job = {"workload": args.workload, "inputs": inputs, "package_dir": str(PACKAGE_DIR),
           "run_id": run_id}
    try:
        reps = run_repetitions(job, args.seconds, bool(args.trace), run_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    refs = build_references(args.workload, inputs)
    outcomes = [CHECKS[args.workload](rep["results"], table, refs) for rep in reps]
    # Every repetition runs the same operations and must give the same
    # outputs (checked below), so the operations are counted once.
    attempted = outcomes[0].attempted
    failed = len(outcomes[0].failures)
    unexpected = sorted(set().union(*(o.unexpected for o in outcomes)))
    problems = [f"{len(unexpected)} operations failed outside the known defect domain, "
                f"for example {unexpected[0]}"] if unexpected else []
    first = json.dumps(reps[0]["results"], sort_keys=True)
    if any(json.dumps(r["results"], sort_keys=True) != first for r in reps[1:]):
        problems.append("repetitions disagree: the program's outputs are not deterministic")

    untraced = [r for r in reps if not r["traced"]]
    report = {"peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
    print(f"# {args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(reps) - len(untraced)} traced repetitions of {attempted} operations, "
          f"{failed} failed")
    known = len(outcomes[0].failures) - len(outcomes[0].unexpected)
    if known:
        print(f"#   {known} failures lie in the known defect domain "
              f"|1 - lam| < {KNOWN_DEFECT_DISTANCE:g}, for example {outcomes[0].failures[0]}")
    metrics = {"wall_s": scaled_time(untraced), "setup_s": scaled_setup(reps)}
    chunk = statistics.median(t for r in reps for t in r["calibration_s"])
    print(f"# a calibration chunk took a median {chunk:.6g} s here, against the "
          f"reference {CALIBRATION_REFERENCE_S:g} s")
    for name, runs in (("wall_s", untraced), ("setup_s", reps)):
        q1, q2, q3 = statistics.quantiles([r[name] for r in runs], n=4)
        print(f"{name} = {metrics[name]:.6g} s  (at the reference host speed, median of "
              f"{len(runs)} repetitions; as measured, {q2:.6g} s, quartiles {q1:.6g} .. {q3:.6g})")
    for name, values in report.items():
        q1, q2, q3 = statistics.quantiles(values, n=4)  # MIN_REPS >= 2 values
        metrics[name] = q2
        print(f"{name} = {q2:.6g} {END_TO_END_UNITS[name]}  "
              f"(median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g})")
    metrics["chi_max_rel_err"] = max(o.chi_max_rel_err for o in outcomes)
    fail_frac = failed / attempted
    print(f"chi_max_rel_err = {metrics['chi_max_rel_err']:.6g} 1")
    print(f"fail_frac = {fail_frac:.6g} 1")
    if args.workload == "peak_scaling":
        print(f"lam_m_max_abs_err = {max(o.lam_m_max_abs_err for o in outcomes):.6g} 1")

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = [tracing.layer_metrics(r["spans"]) for r in traced]
        reached = [tracing.layer_calls(r["spans"]) for r in traced]
        missing = sorted({layer for calls in reached for layer in REQUIRED_LAYERS[args.workload]
                          if calls[layer] == 0})
        layer_values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        layer_values["cli.rows"] = len(traced[0]["results"].get("rows", []))
        layer_values["trace.overhead_s"] = scaled_time(traced) - scaled_time(untraced)
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            if metric_layer(name) in missing:
                continue
            metrics[name] = {"value": layer_values[name], "unit": unit}
            print(f"{name} = {layer_values[name]:.6g} {unit}")
        for layer in missing:
            message = f"layer {layer}: missing (no spans recorded; was it renamed or moved?)"
            print(f"run.py: {message}", file=sys.stderr)
            problems.append(message)
    else:
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    for problem in problems:
        print(f"# {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
