import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tfim_rfs.cli
import tfim_rfs.exact
import tfim_rfs.rfs
from tfim_rfs.cli import (_OPTIONS, RunConfig, UsageError, build_parser, load_config_file, main,
                          resolve_config)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    data_lines = [line for line in text.splitlines() if not line.startswith("#")]
    meta = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
    reader = csv.DictReader(io.StringIO("\n".join(data_lines)))
    return list(reader), meta


def test_sweep_csv_shape_and_order(capsys):
    code, out, err = run_cli(
        ["sweep", "--sizes", "52,12", "--lambda-min", "0.9", "--lambda-max", "1.1",
         "--steps", "3"], capsys)
    assert code == 0 and err == ""
    rows, _ = parse_csv(out)
    assert [r["n_sites"] for r in rows] == ["12", "12", "12", "52", "52", "52"]
    lambdas = [float(r["lambda"]) for r in rows[:3]]
    assert lambdas == sorted(lambdas)
    assert out.startswith("n_sites,lambda,chi\n")


def test_byte_identical_reruns(capsys):
    args = ["sweep", "--sizes", "12,52", "--steps", "5"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_csv_and_json_encode_identical_values(capsys):
    base = ["sweep", "--sizes", "12", "--steps", "4"]
    _, csv_text, _ = run_cli(base + ["--format", "csv"], capsys)
    _, json_text, _ = run_cli(base + ["--format", "json"], capsys)
    csv_rows, _ = parse_csv(csv_text)
    json_rows = json.loads(json_text)["rows"]
    assert len(csv_rows) == len(json_rows) == 4
    for c_row, j_row in zip(csv_rows, json_rows):
        for key in ("lambda", "chi"):
            assert float(c_row[key]) == j_row[key]  # exact round-trip equality


def test_steps_one_gives_single_row(capsys):
    code, out, _ = run_cli(
        ["sweep", "--sizes", "12", "--steps", "1", "--lambda-min", "0.9",
         "--lambda-max", "1.0"], capsys)
    rows, _ = parse_csv(out)
    assert code == 0 and len(rows) == 1
    assert float(rows[0]["lambda"]) == 0.9


def test_verify_adds_oracle_columns(capsys):
    code, out, _ = run_cli(
        ["sweep", "--sizes", "64", "--lambda-min", "0.5", "--lambda-max", "0.9",
         "--steps", "3", "--verify"], capsys)
    rows, _ = parse_csv(out)
    assert code == 0
    for row in rows:
        assert float(row["discrepancy"]) <= 1e-3
        assert float(row["chi_oracle"]) == pytest.approx(float(row["chi"]), rel=1e-3, abs=0)


def test_verified_row_sums_each_coupling_once(capsys, monkeypatch):
    # Each verified row asks for correlators_finite 10 times at 5 couplings:
    # its own (6 times: the row, the 4 oracle steps and the oracle's closed
    # form) and lam +- delta, lam +- delta/2.  The memo sums each one once,
    # and a repeated sweep prints the same bytes from its hits alone.
    calls, sums = [], []
    correlators_finite, finite_sums = tfim_rfs.exact.correlators_finite, tfim_rfs.exact._finite_sums

    def counted_correlators(spec):
        calls.append(spec)
        return correlators_finite(spec)

    def counted_sums(spec, curvature):
        sums.append(spec)
        return finite_sums(spec, curvature)

    for module in (tfim_rfs.cli, tfim_rfs.rfs):
        monkeypatch.setattr(module, "correlators_finite", counted_correlators)
    monkeypatch.setattr(tfim_rfs.exact, "_finite_sums", counted_sums)
    correlators_finite.cache_clear()
    argv = ["sweep", "--sizes", "1024", "--lambda-min", "0.9", "--lambda-max", "1.1",
            "--steps", "3", "--verify"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and len(parse_csv(out)[0]) == 3
    assert len(calls) == 30 and len(set(calls)) == 15
    assert len(sums) == 15 and set(sums) == set(calls)
    assert run_cli(argv, capsys) == (code, out, err)
    assert len(sums) == 15


def test_rfs_reports_block_contributions(capsys):
    code, out, _ = run_cli(
        ["rfs", "--sizes", "64", "--lambda-min", "0.9", "--lambda-max", "1.0",
         "--steps", "2"], capsys)
    rows, _ = parse_csv(out)
    assert code == 0
    for row in rows:
        total = float(row["chi_block1"]) + float(row["chi_block2"])
        assert float(row["chi"]) == pytest.approx(total, rel=1e-12, abs=0)


def test_correlators_command(capsys):
    code, out, _ = run_cli(
        ["correlators", "--sizes", "64", "--lambda-min", "0.0", "--lambda-max", "1.0",
         "--steps", "2"], capsys)
    rows, _ = parse_csv(out)
    assert code == 0
    assert list(rows[0]) == ["n_sites", "lambda", "sz", "xx", "yy", "zz",
                             "d_sz", "d_xx", "d_yy", "d_zz"]
    polarized = rows[0]
    assert float(polarized["sz"]) == pytest.approx(1.0, abs=1e-14)
    assert float(polarized["zz"]) == pytest.approx(1.0, abs=1e-14)


def test_peak_command(capsys):
    code, out, _ = run_cli(["peak", "--sizes", "12,252"], capsys)
    rows, _ = parse_csv(out)
    assert code == 0
    lam_small, lam_large = float(rows[0]["lambda_m"]), float(rows[1]["lambda_m"])
    assert abs(lam_large - 1.0) < abs(lam_small - 1.0)


def test_scaling_metadata_reference_slope(capsys):
    code, out, _ = run_cli(
        ["scaling", "--sizes", "64,128,256,512,1024", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["sqrt_amplitude_ref"] == pytest.approx(0.3853736374, abs=1e-9)
    assert doc["metadata"]["slope_percent_deviation"] < 5.0
    assert len(doc["rows"]) == 5


def test_scaling_requires_five_sizes(capsys):
    code, _, err = run_cli(["scaling", "--sizes", "64,128,256,512"], capsys)
    assert code == 2 and "5" in err


def test_collapse_defaults_to_unit_exponent(capsys):
    code, out, _ = run_cli(
        ["collapse", "--sizes", "64,128,256", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["nu"] == 1.0
    assert doc["config"]["nu"] == 1.0
    assert set(doc["rows"][0]) == {"n_sites", "x", "y"}


def test_collapse_quality_degrades_at_wrong_exponent(capsys):
    sizes = "64,128,256"
    _, out1, _ = run_cli(["collapse", "--sizes", sizes, "--format", "json"], capsys)
    _, out2, _ = run_cli(["collapse", "--sizes", sizes, "--nu", "2",
                          "--format", "json"], capsys)
    q1 = json.loads(out1)["metadata"]["collapse_quality"]
    q2 = json.loads(out2)["metadata"]["collapse_quality"]
    assert q2 > q1


def test_collapse_requires_three_sizes(capsys):
    code, _, err = run_cli(["collapse", "--sizes", "64,128"], capsys)
    assert code == 2 and "3" in err


def test_thermo_critical_row_flagged(capsys):
    code, out, _ = run_cli(
        ["thermo", "--lambda-min", "0.9", "--lambda-max", "1.1", "--steps", "3"],
        capsys)
    rows, meta = parse_csv(out)
    assert code == 0
    critical = rows[1]
    assert float(critical["lambda"]) == 1.0
    assert float(critical["sz"]) == pytest.approx(2 / math.pi, abs=1e-12)
    assert critical["chi"] == "" and critical["d_sz"] == ""
    assert meta["divergent_rows"] == "1"
    assert "singular_rows" not in meta


def test_thermo_singular_row_counted_apart_from_divergent(capsys):
    # lam = 0 has finite derivatives (0, 0.5, -0.5, 0) but a singular block.
    code, out, _ = run_cli(
        ["thermo", "--lambda-min", "0", "--lambda-max", "0.5", "--steps", "2"], capsys)
    rows, meta = parse_csv(out)
    assert code == 0
    assert rows[0]["chi"] == "" and rows[0]["d_xx"] == "0.5"
    assert rows[1]["chi"] != ""
    assert meta == {"singular_rows": "1"}


def test_thermo_modulus_rounding_to_one_names_the_coupling(capsys):
    # 2 sqrt(lam) / (1 + lam) rounds to 1; the error used to name only k=1.0.
    code, out, err = run_cli(["thermo", "--lambda-min", "0.9999999999",
                              "--lambda-max", "1.0000000001", "--steps", "3"], capsys)
    assert code == 2 and out == ""
    assert "lam=0.9999999999" in err and "|1 - lam| = 1e-10" in err and "k=" not in err

@pytest.mark.parametrize("args", [
    ["sweep", "--sizes", "13"],
    ["sweep", "--sizes", "12", "--lambda-min", "1.2", "--lambda-max", "0.8"],
    ["sweep", "--sizes", "12", "--steps", "0"],
    ["sweep", "--sizes", ""],
    ["sweep", "--sizes", "64", "--steps", "3", "--verify", "--delta", "0.5"],
    ["sweep", "--sizes", "64", "--steps", "3", "--verify", "--delta", "nan"],
])
def test_usage_errors_exit_two(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2 and err != ""


def test_run_config_rejects_unknown_command():
    with pytest.raises(UsageError, match="unknown command 'fit'"):
        RunConfig(command="fit", sizes=(12,), lambda_min=0.9, lambda_max=1.1, steps=3,
                  delta=1e-5, nu=1.0, verify=False, output_format="csv", output_path=None)


def test_internal_failure_exits_one(monkeypatch, capsys):
    def broken(n_sites):
        raise RuntimeError(f"no peak for N={n_sites}")

    monkeypatch.setattr(tfim_rfs.cli, "find_peak", broken)
    code, out, err = run_cli(["peak", "--sizes", "12"], capsys)
    assert code == 1 and out == ""
    assert err == "tfim-rfs: internal error: no peak for N=12\n"


def test_overflowing_coupling_exits_two(capsys):
    # chi used to print as 0.0: (1 - lam)^2 overflowed and every correlator vanished.
    code, out, err = run_cli(["sweep", "--sizes", "64", "--lambda-min", "1e155",
                              "--lambda-max", "1e156", "--steps", "2"], capsys)
    assert code == 2 and out == ""
    assert "lam=1e+155" in err and "overflows" in err


@pytest.mark.parametrize("nu, message", [
    ("200", "N^(nu-1) overflows for N=64, nu=200.0"),
    ("130", "N^(nu-1) overflows for N=256, nu=130.0"),
    ("128.9", "x = N^(nu-1) w is not finite for N=256, nu=128.9"),
    ("-300", "empty overlap window"),
])
def test_collapse_extreme_exponent_exits_two(nu, message, capsys):
    # --nu 200 used to exit 1 with "internal error: (34, 'Numerical result out of range')".
    code, out, err = run_cli(["collapse", "--sizes", "64,128,256", "--nu", nu], capsys)
    assert code == 2 and out == ""
    assert message in err


def test_collapse_large_exponent_scores_worse(capsys):
    # --nu 60 used to exit 2: the cubic overflowed on x near 1e143.
    qualities = []
    for nu in ("1", "60"):
        code, out, err = run_cli(["collapse", "--sizes", "64,128,256", "--nu", nu], capsys)
        assert code == 0 and err == ""
        qualities.append(float(parse_csv(out)[1]["collapse_quality"]))
    assert math.isfinite(qualities[1]) and qualities[1] > qualities[0]


def test_collapse_below_twelve_sites_names_the_size(capsys):
    # This used to exit 2 with "lam must be finite and >= 0", naming no size.
    code, out, err = run_cli(["collapse", "--sizes", "8,16,32"], capsys)
    assert code == 2 and out == ""
    assert "N=8" in err and "lam_m = 0.9054342433103578" in err and "N >= 12" in err


# Per option: a text that its _OPTIONS parser (or, for format, RunConfig)
# rejects, and the message, which names no source.  --verify takes no text
# on the command line, so its bad text has only a config line.
_BAD_TEXT = {
    "sizes": ("64,x", "cannot parse sizes '64,x'; expected e.g. 512,1024"),
    "lambda_min": ("low", "could not convert string to float: 'low'"),
    "lambda_max": ("0.9.1", "could not convert string to float: '0.9.1'"),
    "steps": ("1.5", "invalid literal for int() with base 10: '1.5'"),
    "delta": ("1e-4x", "could not convert string to float: '1e-4x'"),
    "nu": ("one", "could not convert string to float: 'one'"),
    "verify": ("maybe", "cannot parse boolean 'maybe'"),
    "format": ("xml", "format must be csv or json, got 'xml'"),
}


def _bad_text_cases():
    """Each bad text as a config line and as a flag: one reader, one message,
    after the name of where the text came from."""
    cases = []
    for key, (text, message) in _BAD_TEXT.items():
        flag = "--" + key.replace("_", "-")
        sources = {"config": (f"{key} = {text}\n", [], f"run.cfg:1: {key} = {text}: ")}
        if key != "verify":
            sources["flag"] = ("", [flag, text], f"{flag} {text}: ")
        for source, (config, flags, where) in sources.items():
            where = "" if key == "format" else where  # RunConfig's check names no source
            cases.append(pytest.param(config, flags, 2, where + message, id=f"{source}-{key}"))
    return cases


_BAD_TEXT_CASES = _bad_text_cases()


@pytest.mark.parametrize("config,flags,code,message", [
    ("format = xml\n", [], 2, "format must be csv or json, got 'xml'"),
    ("sizes = 12\nsteps\n", [], 2, "run.cfg:2: expected 'key = value'"),
    ("verify = maybe\n", [], 2, "cannot parse boolean 'maybe'"),
    ("verify = off\n", [], 0, ""),
    ("", ["--sizes", "a,b"], 2, "cannot parse sizes 'a,b'; expected e.g. 512,1024"),
    ("", ["--nu", "nan"], 2, "nu must be finite, got nan"),
    # A value that fails to parse is named with its line, even where a flag
    # would override it.
    ("sizes = 12\nsteps = 1.5\n", [], 2,
     "run.cfg:2: steps = 1.5: invalid literal for int() with base 10: '1.5'"),
    ("lambda_min = abc\n", [], 2,
     "run.cfg:1: lambda_min = abc: could not convert string to float: 'abc'"),
    *_BAD_TEXT_CASES,
], ids=["format_xml", "no_equals", "verify_maybe", "verify_off", "sizes_text", "nu_nan",
        "steps_float", "lambda_text", *(case.id for case in _BAD_TEXT_CASES)])
def test_config_and_flag_values_checked(config, flags, code, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    args = ["sweep", "--sizes", "12", "--steps", "2", "--config", str(path), *flags]
    got, out, err = run_cli(args, capsys)
    assert got == code
    if code:
        assert out == "" and err.startswith("tfim-rfs: error: ") and err.endswith(message + "\n")
    else:
        assert err == "" and out.startswith("n_sites,lambda,chi\n")


def test_import_needs_no_scipy():
    # A fresh interpreter, so that modules other tests imported do not count.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, tfim_rfs, tfim_rfs.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout == "[]\n"


def test_package_reexports_each_module_name():
    import tfim_rfs

    modules = (tfim_rfs.elliptic, tfim_rfs.exact, tfim_rfs.rdm, tfim_rfs.rfs, tfim_rfs.scaling)
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)) == len(tfim_rfs.__all__) == 28
    assert tfim_rfs.__all__ == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(tfim_rfs, name) is getattr(module, name)


@pytest.mark.parametrize("flags", [["--lambda-min", "2", "--lambda-max", "1"], ["--steps", "0"]])
def test_commands_without_grid_ignore_grid_flags(flags, capsys):
    # peak, scaling and collapse never read the lambda grid, so its bounds are not checked.
    code, plain, err = run_cli(["peak", "--sizes", "64"], capsys)
    assert code == 0, err
    code, out, err = run_cli(["peak", "--sizes", "64"] + flags, capsys)
    assert code == 0 and err == ""
    assert out == plain


@pytest.mark.parametrize("command", ["correlators", "rfs", "sweep", "thermo"])
@pytest.mark.parametrize("flags,message", [
    (["--lambda-min", "1.2", "--lambda-max", "0.8"], "lambda range must satisfy min < max"),
    (["--steps", "0"], "steps must be >= 1"),
])
def test_grid_commands_check_grid_flags(command, flags, message, capsys):
    code, out, err = run_cli([command, "--sizes", "12"] + flags, capsys)
    assert code == 2 and out == "" and message in err


def _run_separately(args):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "tfim_rfs.cli", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return proc.stdout


def test_repeated_main_calls_match_separate_runs(capsys):
    # The parser is built once per process; nothing of one call's flags may
    # reach the next, here --verify and --format json.
    first = ["sweep", "--sizes", "12", "--steps", "2", "--verify", "--format", "json"]
    second = ["sweep", "--sizes", "12", "--steps", "2"]
    outputs = [run_cli(args, capsys)[1] for args in (first, second)]
    assert build_parser() is build_parser()
    assert outputs == [_run_separately(args) for args in (first, second)]
    assert outputs[1].startswith("n_sites,lambda,chi\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nu_must_be_finite(value):
    # A separate process, so that warnings printed before the error reach stderr.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tfim_rfs.cli", "collapse", "--sizes", "64,128,256",
         "--nu", value],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and re.search(r"\bnu\b", proc.stderr)


@pytest.mark.parametrize("command,flags", [
    ("sweep", ["--sizes", "64", "--lambda-min", "0.8", "--lambda-max", "inf", "--steps", "3"]),
    ("thermo", ["--lambda-max", "inf", "--steps", "1"]),
    ("sweep", ["--sizes", "64", "--lambda-min", "nan", "--steps", "1"]),
    ("thermo", ["--lambda-min", "nan", "--steps", "1"]),
], ids=["sweep-max-inf", "thermo-max-inf", "sweep-min-nan", "thermo-min-nan"])
def test_grid_bounds_must_be_couplings(command, flags):
    # A separate process, so that warnings printed before the error reach
    # stderr.  An infinite bound used to reach np.linspace, which warned and
    # made a NaN grid point; a NaN bound failed the min < max check instead.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tfim_rfs.cli", command, *flags],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    value = "inf" if "inf" in flags else "nan"
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"tfim-rfs: error: lam must be finite and >= 0, got {value}\n"


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["does-not-exist"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [["--help"], ["peak", "--help"], ["--sizes", "64", "-h"]],
                         ids=["bare", "after-command", "after-option"])
def test_help_lists_every_command_and_option(argv, capsys):
    # Names only: argparse lays the page out differently across Python
    # versions, and from 3.14 colours it where FORCE_COLOR is set.
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr().out
    assert info.value.code == 0
    plain = re.sub(r"\x1b\[[0-9;]*m", "", out)
    for name, (_, _, help_text) in tfim_rfs.cli._COMMANDS.items():
        assert re.search(rf"^\s+{name}\s+{re.escape(help_text)}$", plain, flags=re.M), name
    for flag in [*("--" + key.replace("_", "-") for key in _OPTIONS), "--config", "--help"]:
        assert re.search(rf"(^|\s){flag}\b", plain), flag
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == out  # one page, wherever --help stands


def test_options_may_precede_the_command(capsys):
    assert run_cli(["--sizes", "64,128", "peak"], capsys) == \
        run_cli(["peak", "--sizes", "64,128"], capsys)
    assert run_cli(["--steps", "2", "--verify", "sweep", "--sizes", "12"], capsys) == \
        run_cli(["sweep", "--sizes", "12", "--steps", "2", "--verify"], capsys)


def test_config_file_then_flags(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# sweep defaults\nlambda_min = 0.85\nsteps = 3\nsizes = 12\n")
    code, out, _ = run_cli(
        ["sweep", "--config", str(config), "--steps", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["lambda_min"] == 0.85  # from file
    assert doc["config"]["steps"] == 2          # flag wins
    assert doc["config"]["sizes"] == [12]


# Per option: its config-file value, and the RunConfig field it sets with the
# value expected there.
_OPTION_CASES = {
    "sizes": ("16,12", "sizes", [12, 16]),
    "lambda_min": ("0.85", "lambda_min", 0.85),
    "lambda_max": ("1.05", "lambda_max", 1.05),
    "steps": ("3", "steps", 3),
    "delta": ("2e-4", "delta", 2e-4),
    "nu": ("1.5", "nu", 1.5),
    "verify": ("true", "verify", True),
    "format": ("json", "output_format", "json"),
    "out": ("rows.json", "output_path", "rows.json"),
}


@pytest.mark.parametrize("key", list(_OPTIONS))
def test_config_key_matches_flag(key, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text, field, expected = _OPTION_CASES[key]
    flag = ["--" + key.replace("_", "-")] + ([] if key == "verify" else [text])
    base = {"sizes": ["--sizes", "12"], "steps": ["--steps", "2"], "format": ["--format", "json"]}
    base_args = ["sweep"] + [arg for k, args in base.items() if k != key for arg in args]
    (tmp_path / "one.cfg").write_text(f"{key} = {text}\n")

    def config_of(args):
        code, out, err = run_cli(base_args + args, capsys)
        assert code == 0, err
        doc = json.loads((tmp_path / "rows.json").read_text() if key == "out" else out)
        return doc["config"]

    from_file = config_of(["--config", "one.cfg"])
    assert from_file[field] == expected
    assert config_of(flag) == from_file


@pytest.mark.parametrize("command,expected", [
    ("correlators", (0.8, 1.2)), ("rfs", (0.8, 1.2)), ("sweep", (0.8, 1.2)),
    ("thermo", (0.8, 1.2)), ("peak", (0.8, 1.2)), ("scaling", (0.8, 1.2)),
    ("collapse", (0.8, 1.2)),
])
def test_lambda_range_default(command, expected):
    cfg = resolve_config(build_parser().parse_args([command]))
    assert (cfg.lambda_min, cfg.lambda_max) == expected


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("volume = 11\n")
    code, _, err = run_cli(["sweep", "--config", str(config)], capsys)
    assert code == 2 and "volume" in err


def test_config_file_missing(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--config", str(tmp_path / "absent.cfg")], capsys)
    assert code == 2 and "absent.cfg" in err


def test_load_config_file_parses_types(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("sizes = 64,128\nverify = true\ndelta = 5e-5\nformat = json\n")
    parsed = load_config_file(str(config))
    assert parsed == {"sizes": (64, 128), "verify": True, "delta": 5e-5,
                      "format": "json"}


def test_load_config_file_skips_a_byte_order_mark(tmp_path, capsys):
    # Editors that save UTF-8 with a BOM put U+FEFF before the first key.
    config = tmp_path / "bom.cfg"
    config.write_bytes("\ufeffsizes = 64\n".encode("utf-8"))
    assert load_config_file(str(config)) == {"sizes": (64,)}
    assert run_cli(["peak", "--config", str(config)], capsys) == run_cli(
        ["peak", "--sizes", "64"], capsys)


def test_output_file_has_lf_endings(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        ["sweep", "--sizes", "12", "--steps", "2", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8").startswith("n_sites,lambda,chi\n")


def test_unwritable_output_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--sizes", "12", "--steps", "2",
         "--out", str(tmp_path / "missing" / "rows.csv")], capsys)
    assert code == 1 and "rows.csv" in err
