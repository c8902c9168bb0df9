"""Byte-for-byte CLI output on fixed argv cases.

Each case in CASES has three files under tests/golden/: NAME.out (stdout),
NAME.err (stderr) and NAME.code (the exit code).  They are written by running
this file as a script,

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]

which rewrites the named cases, or every case when none is named.  A change
that rewrites any of these files must say in CHANGES.md which case changed
and why.
"""

import contextlib
import csv
import io
from pathlib import Path

import pytest

from tfim_rfs.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "thermo": ["thermo"],
    "correlators": ["correlators", "--sizes", "12,16", "--steps", "3"],
    "rfs_singular_verify": ["rfs", "--sizes", "12", "--lambda-min", "0", "--lambda-max", "0.5",
                            "--steps", "3", "--verify"],
    "sweep_verify_json": ["sweep", "--sizes", "64", "--steps", "3", "--verify",
                          "--delta", "1e-5", "--format", "json"],
    "peak": ["peak", "--sizes", "4,12,64"],
    "scaling": ["scaling", "--sizes", "64,128,256,512,1024"],
    "collapse_csv": ["collapse", "--sizes", "64,128,256", "--nu", "1.5"],
    "collapse_json": ["collapse", "--sizes", "64,128,256", "--nu", "1.5", "--format", "json"],
}


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden(name):
    read = lambda suffix: (GOLDEN / f"{name}.{suffix}").read_bytes().decode("utf-8")
    return int(read("code")), read("out"), read("err")


@pytest.mark.parametrize("name", CASES)
def test_cli_bytes_match_golden(name):
    assert run(CASES[name]) == golden(name)


def test_golden_peaks_match_mpmath(reference):
    # The peak case prints lam_m and chi_m; check them against the root of
    # mpmath's chi' (perfbench/reference.py, 40 digits, shares no code).
    rows = list(csv.DictReader(io.StringIO(golden("peak")[1])))
    assert [int(row["n_sites"]) for row in rows] == [4, 12, 64]
    for row in rows:
        lam_m, chi_m = float(row["lambda_m"]), float(row["chi_m"])
        with reference.mp.workdps(reference.FINITE_DPS):
            lam_ref, chi_ref = reference.peak(int(row["n_sites"]), lam_m)
            assert abs(lam_m - lam_ref) <= 4.5e-16
            assert abs(chi_m - chi_ref) <= 1e-14 * chi_ref


if __name__ == "__main__":
    import sys

    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s) {unknown}; expected some of {list(CASES)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        code, out, err = run(CASES[name])
        for suffix, text in (("code", f"{code}\n"), ("out", out), ("err", err)):
            (GOLDEN / f"{name}.{suffix}").write_text(text, encoding="utf-8", newline="")
