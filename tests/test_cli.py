import csv
import io
import json
import math

import pytest

from tfim_rfs.cli import _OPTIONS, build_parser, load_config_file, main, resolve_config


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
        assert float(row["chi_oracle"]) == pytest.approx(float(row["chi"]), rel=1e-3)


def test_rfs_reports_block_contributions(capsys):
    code, out, _ = run_cli(
        ["rfs", "--sizes", "64", "--lambda-min", "0.9", "--lambda-max", "1.0",
         "--steps", "2"], capsys)
    rows, _ = parse_csv(out)
    assert code == 0
    for row in rows:
        total = float(row["chi_block1"]) + float(row["chi_block2"])
        assert float(row["chi"]) == pytest.approx(total, rel=1e-12)


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


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["does-not-exist"])
    assert info.value.code == 2


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
    ("thermo", (0.8, 1.2)), ("peak", (0.8, 1.1)), ("scaling", (0.8, 1.1)),
    ("collapse", (0.8, 1.1)),
])
def test_lambda_range_default(command, expected):
    # peak, scaling and collapse read the range as the peak-search bracket.
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
