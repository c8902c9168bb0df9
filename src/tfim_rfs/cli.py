"""Command-line frontend: sweeps, peaks, scaling fits, and collapse tables.

Emits plot-ready columnar data as CSV (LF, UTF-8, repr-formatted numbers so
every value round-trips bit-for-bit) or JSON ({config, rows, metadata}).
Exit codes: 0 success, 1 internal or numeric error, 2 usage or precondition
error.

Each option is declared once, in `_OPTIONS` (its flag, config-file key,
parser, default and help), and each command once, in `_COMMANDS`: add an
option or a command there and nowhere else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .exact import ChainSpec, correlators_finite, correlators_thermo
from .rdm import build_rdm
from .rfs import _DELTA_MAX, _DELTA_MIN, SingularBlockError, rfs_closed_form, rfs_oracle
from .scaling import (
    LOG_SQUARED_AMPLITUDE,
    PeakSearchError,
    collapse_quality,
    data_collapse,
    find_peak,
    fit_finite_size,
)

__all__ = ["RunConfig", "main", "entry_point"]

_FORMATS = ("csv", "json")
_BRACKET_DEFAULT = (0.8, 1.1)


class UsageError(ValueError):
    """Bad flags, config values, or unmet command preconditions."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    sizes: tuple[int, ...]
    lambda_min: float
    lambda_max: float
    steps: int
    delta: float
    nu: float
    verify: bool
    output_format: str
    output_path: str | None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if not self.sizes:
            raise UsageError("at least one size is required")
        if any(n % 2 != 0 or n < 4 for n in self.sizes):
            raise UsageError(f"sizes must be even and >= 4, got {list(self.sizes)}")
        if not self.lambda_min < self.lambda_max:
            raise UsageError(
                f"lambda range must satisfy min < max, got [{self.lambda_min}, {self.lambda_max}]"
            )
        if self.steps < 1:
            raise UsageError(f"steps must be >= 1, got {self.steps}")
        if not _DELTA_MIN <= self.delta <= _DELTA_MAX:
            raise UsageError(f"delta must lie in [{_DELTA_MIN}, {_DELTA_MAX}], got {self.delta}")
        if self.output_format not in _FORMATS:
            raise UsageError(f"format must be csv or json, got {self.output_format!r}")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"cannot parse sizes {text!r}; expected e.g. 512,1024") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"cannot parse boolean {text!r}")


# name: (config-value parser, default, help).  The name is the config-file key
# and, with dashes for underscores, the flag of every command.
_OPTIONS = {
    "sizes": (_parse_sizes, (512, 1024, 2048, 4096, 8192, 16384),
              "comma-separated even chain sizes, e.g. 512,1024"),
    "lambda_min": (float, 0.8, None),
    "lambda_max": (float, 1.2, None),
    "steps": (int, 41, "grid points between lambda-min and lambda-max"),
    "delta": (float, 1e-4, "oracle base step (default 1e-4)"),
    "nu": (float, 1.0, "collapse exponent (default 1)"),
    "verify": (_parse_bool, False, "run the fidelity oracle alongside the closed form"),
    "format": (str, "csv", None),
    "out": (str, None, "output path (default stdout)"),
}


def load_config_file(path: str) -> dict:
    """Flat key = value file mirroring the flag names (underscored)."""
    values = {}
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    with handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _OPTIONS:
                raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = value
    return {key: _OPTIONS[key][0](value) for key, value in values.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfim-rfs",
        description=(
            "Two-site reduced fidelity susceptibility of the transverse-field "
            "Ising chain: exact sweeps, peak scaling, and data collapse."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for key, (parse, _, option_help) in _OPTIONS.items():
            flag = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                cmd.add_argument(flag, action="store_true", default=None, help=option_help)
            else:
                # argparse converts only numbers; text such as --sizes is parsed
                # in resolve_config, so a bad list exits 2 with our own message.
                cmd.add_argument(flag, type=parse if parse in (int, float) else str,
                                 choices=_FORMATS if key == "format" else None,
                                 default=None, help=option_help)
        cmd.add_argument("--config", type=str, default=None,
                         help="flat key=value config file; flags take precedence")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (increasing precedence)."""
    merged = {key: default for key, (_, default, _) in _OPTIONS.items()}
    if _COMMANDS[args.command][2]:
        merged["lambda_min"], merged["lambda_max"] = _BRACKET_DEFAULT
    if args.config is not None:
        merged.update(load_config_file(args.config))
    for key, (parse, _, _) in _OPTIONS.items():
        value = getattr(args, key)
        if value is not None:
            merged[key] = parse(value) if isinstance(value, str) else value
    # The other options share their RunConfig field's name.
    sizes = tuple(sorted(set(merged.pop("sizes"))))
    return RunConfig(command=args.command, sizes=sizes, output_format=merged.pop("format"),
                     output_path=merged.pop("out"), **merged)


def _lambda_grid(cfg: RunConfig):
    return [float(v) for v in np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.steps)]


def _finite(value):
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def cmd_correlators(cfg: RunConfig):
    columns = ["n_sites", "lambda", "sz", "xx", "yy", "zz", "d_sz", "d_xx", "d_yy", "d_zz"]

    def row(n, lam):
        c = correlators_finite(ChainSpec(n, lam))
        return {"n_sites": n, "lambda": lam, "sz": c.sz, "xx": c.xx, "yy": c.yy,
                "zz": c.zz, "d_sz": c.d_sz, "d_xx": c.d_xx, "d_yy": c.d_yy, "d_zz": c.d_zz}

    return columns, [row(n, lam) for n in cfg.sizes for lam in _lambda_grid(cfg)], {}


def _chi_row(n: int, lam: float, cfg: RunConfig) -> dict:
    """Every chi column of one grid point; None if a block is singular or the oracle fails."""
    row = {"n_sites": n, "lambda": lam, "chi": None, "chi_block1": None, "chi_block2": None,
           "chi_oracle": None, "discrepancy": None}
    try:
        value = rfs_closed_form(build_rdm(correlators_finite(ChainSpec(n, lam))))
        row.update(chi=value.chi, chi_block1=value.chi_block1, chi_block2=value.chi_block2)
    except SingularBlockError:
        pass
    if cfg.verify:
        try:
            oracle = rfs_oracle(ChainSpec(n, lam), cfg.delta)
            row.update(chi_oracle=oracle.chi, discrepancy=oracle.discrepancy)
        except ValueError:
            pass
    return row


def _chi_table(cfg: RunConfig, columns: list[str]):
    if cfg.verify:
        columns = columns + ["chi_oracle", "discrepancy"]
    rows = [_chi_row(n, lam, cfg) for n in cfg.sizes for lam in _lambda_grid(cfg)]
    singular = sum(1 for r in rows if r["chi"] is None)
    metadata = {"singular_rows": singular} if singular else {}
    return columns, rows, metadata


def cmd_sweep(cfg: RunConfig):
    return _chi_table(cfg, ["n_sites", "lambda", "chi"])


def cmd_rfs(cfg: RunConfig):
    return _chi_table(cfg, ["n_sites", "lambda", "chi", "chi_block1", "chi_block2"])


def _peaks(cfg: RunConfig, minimum: int | None = None):
    """Peak records of the sizes that succeed, and a message per failed size.

    Raises UsageError if any search fails or, given `minimum`, if fewer than
    `minimum` succeed.
    """
    peaks, failures = [], []
    for n in cfg.sizes:
        try:
            peaks.append(find_peak(n, bracket=(cfg.lambda_min, cfg.lambda_max),
                                   scan_points=cfg.steps))
        except PeakSearchError as exc:
            failures.append(f"N={n}: {exc}")
    if minimum is None and failures:
        raise UsageError("peak search failed for sizes: " + "; ".join(failures))
    if minimum is not None and len(peaks) < minimum:
        raise UsageError(
            f"only {len(peaks)} peak searches succeeded (need >= {minimum}); failures: "
            + "; ".join(failures)
        )
    return peaks, failures


def cmd_peak(cfg: RunConfig):
    peaks, _ = _peaks(cfg)
    columns = ["n_sites", "lambda_m", "chi_m"]
    rows = [{"n_sites": p.n_sites, "lambda_m": p.lambda_m, "chi_m": p.chi_m} for p in peaks]
    return columns, rows, {}


def cmd_scaling(cfg: RunConfig):
    if len(cfg.sizes) < 5:
        raise UsageError(f"scaling needs at least 5 sizes, got {len(cfg.sizes)}")
    peaks, failures = _peaks(cfg, minimum=5)
    fit = fit_finite_size(peaks)
    columns = ["n_sites", "lambda_m", "chi_m", "sqrt_chi_m"]
    rows = [
        {"n_sites": p.n_sites, "lambda_m": p.lambda_m, "chi_m": p.chi_m,
         "sqrt_chi_m": math.sqrt(p.chi_m)}
        for p in peaks
    ]
    metadata = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "sqrt_amplitude_ref": fit.params["sqrt_amplitude_ref"],
        "slope_percent_deviation": 100.0 * fit.params["slope_rel_deviation"],
        "amplitude": fit.params["amplitude"],
        "amplitude_ref": LOG_SQUARED_AMPLITUDE,
        "c1": fit.params["c1"],
        "flagged": fit.flagged,
    }
    if failures:
        metadata["peak_failures"] = failures
    return columns, rows, metadata


def cmd_collapse(cfg: RunConfig):
    if len(cfg.sizes) < 3:
        raise UsageError(f"collapse needs at least 3 sizes, got {len(cfg.sizes)}")
    peaks, _ = _peaks(cfg)
    records = {p.n_sites: p for p in peaks}
    curve = data_collapse(cfg.sizes, nu=cfg.nu, peaks=records)
    quality = collapse_quality(curve)
    columns = ["n_sites", "x", "y"]
    rows = [{"n_sites": n, "x": x, "y": y} for x, y, n in curve.points]
    return columns, rows, {"nu": cfg.nu, "collapse_quality": quality}


def cmd_thermo(cfg: RunConfig):
    columns = ["lambda", "sz", "xx", "yy", "zz", "d_sz", "d_xx", "d_yy", "d_zz", "chi"]
    rows = []
    for lam in _lambda_grid(cfg):
        c = correlators_thermo(lam)
        row = {"lambda": lam, "sz": c.sz, "xx": c.xx, "yy": c.yy, "zz": c.zz,
               "d_sz": _finite(c.d_sz), "d_xx": _finite(c.d_xx),
               "d_yy": _finite(c.d_yy), "d_zz": _finite(c.d_zz)}
        if c.derivatives_divergent:
            row["chi"] = None
        else:
            try:
                row["chi"] = rfs_closed_form(build_rdm(c)).chi
            except SingularBlockError:
                row["chi"] = None
        rows.append(row)
    divergent = sum(1 for r in rows if r["chi"] is None)
    metadata = {"divergent_rows": divergent} if divergent else {}
    return columns, rows, metadata


# name: (handler, help, whether lambda_min..lambda_max is a peak-search bracket,
# which then defaults to _BRACKET_DEFAULT).
_COMMANDS = {
    "correlators": (cmd_correlators,
                    "magnetization and neighbour correlators on an (N, lambda) grid", False),
    "rfs": (cmd_rfs, "closed-form susceptibility with per-block contributions", False),
    "sweep": (cmd_sweep,
              "susceptibility over the (N, lambda) grid, optionally oracle-verified", False),
    "peak": (cmd_peak, "peak location lambda_m and height chi_m per size", True),
    "scaling": (cmd_scaling, "peaks plus the sqrt(chi_m) vs ln N fit (needs >= 5 sizes)", True),
    "collapse": (cmd_collapse,
                 "scaled collapse curves and their quality metric (needs >= 3 sizes)", True),
    "thermo": (cmd_thermo, "thermodynamic-limit correlators and susceptibility per lambda", False),
}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr: shortest round-trip form
    return str(value)


def render_csv(columns, rows, metadata) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(col)) for col in columns])
    for key, value in metadata.items():
        if isinstance(value, list):
            for item in value:
                buffer.write(f"# {key} = {item}\n")
        else:
            buffer.write(f"# {key} = {_cell(value)}\n")
    return buffer.getvalue()


def render_json(cfg: RunConfig, columns, rows, metadata) -> str:
    cleaned = [{col: row.get(col) for col in columns} for row in rows]
    doc = {"config": asdict(cfg), "rows": cleaned, "metadata": metadata}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _emit(cfg: RunConfig, text: str):
    if cfg.output_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {cfg.output_path!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        columns, rows, metadata = _COMMANDS[cfg.command][0](cfg)
        text = (
            render_csv(columns, rows, metadata)
            if cfg.output_format == "csv"
            else render_json(cfg, columns, rows, metadata)
        )
        _emit(cfg, text)
    except ValueError as exc:  # includes UsageError
        print(f"tfim-rfs: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tfim-rfs: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/internal failures
        print(f"tfim-rfs: internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
