"""Byte-for-byte CLI output on fixed argv cases.

Each case in CASES has three files under tests/golden/: NAME.out (stdout),
NAME.err (stderr) and NAME.code (the exit code).  They were written by running
this file as a script,

    PYTHONPATH=src python tests/test_cli_golden.py

on the tree before the library records stopped storing the collapse points,
the RDM `degenerate` flag, the fit `flagged` flag and the correlator
`derivatives_divergent` flag, and the test passes on both trees.  A change
that rewrites any of these files must say in CHANGES.md which case changed
and why.

`scaling` is left out: its np.polyfit goes through LAPACK, whose last bit may
differ between BLAS builds.
"""

import contextlib
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
    "peak": ["peak", "--sizes", "12,64"],
    "peak_no_interior_max": ["peak", "--sizes", "64", "--lambda-min", "1.05",
                             "--lambda-max", "1.2"],
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out, err = run(argv)
        for suffix, text in (("code", f"{code}\n"), ("out", out), ("err", err)):
            (GOLDEN / f"{name}.{suffix}").write_text(text, encoding="utf-8", newline="")
