"""Two traced repetitions with the same seed give identical counts and errors.

Each repetition runs in its own fresh interpreter, as in the benchmark.
Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7
TABLE = json.loads(run.TABLE_PATH.read_text(encoding="utf-8"))
TIMED_UNITS = ("s", "ns", "us")


def _traced_repetition(workload, inputs, run_dir, index):
    job = {"workload": workload, "inputs": inputs, "package_dir": str(run.PACKAGE_DIR),
           "run_id": f"determinism-{workload}", "trace": True}
    return run.run_child(job, run_dir, index)


@pytest.mark.parametrize("workload", sorted(run.CHECKS))
def test_traced_counts_and_errors_repeat(workload, tmp_path):
    inputs = run.make_inputs(workload, SEED, TABLE)
    refs = run.build_references(workload, inputs)
    summaries = []
    for index in range(2):
        rep = _traced_repetition(workload, inputs, tmp_path, index)
        layers = tracing.layer_metrics(rep["spans"])
        counts = {name: value for name, value in layers.items()
                  if run.PER_LAYER_UNITS[name] not in TIMED_UNITS}
        outcome = run.CHECKS[workload](rep["results"], TABLE, refs)
        reached = tracing.layer_calls(rep["spans"])
        assert all(reached[layer] > 0 for layer in run.REQUIRED_LAYERS[workload])
        summaries.append((counts, len(outcome.failures) / outcome.attempted,
                          outcome.chi_max_rel_err, outcome.lam_m_max_abs_err, rep["results"]))
    assert summaries[0] == summaries[1]
    counts = summaries[0][0]
    if workload == "large_ring_verify":
        assert counts["rfs.oracle.finite_calls_per_point"] == 10
        assert counts["exact.finite.distinct_ratio"] == 0.5
    if workload == "peak_scaling":
        assert counts["scaling.find_peak.calls"] == len(run.PEAK_SIZES)
        assert 0.0 < counts["rfs.memo_hit_ratio"] < 1.0
    if workload == "thermo_divergence":
        assert counts["exact.finite.calls"] == 0
        assert summaries[0][1] > 0.0  # the known failing domain is in the inputs
