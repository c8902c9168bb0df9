"""Command-line frontend: sweeps, peaks, scaling fits, and collapse tables.

Emits plot-ready columnar data as CSV (LF, UTF-8, repr-formatted numbers so
every value round-trips bit-for-bit) or JSON ({config, rows, metadata}).
Exit codes: 0 success, 1 internal or numeric error, 2 usage or precondition
error.

Each option is declared once, in `_OPTIONS` (its flag, config-file key,
parser, default and help), and each command once, in `_COMMANDS`: add an
option or a command there and nowhere else.  One parser takes every command
and option, in any order, and keeps each flag's text, which `_read_option`
reads as it reads a config-file value.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .exact import ChainSpec, _checked_lam, correlators_finite, correlators_thermo
from .rdm import build_rdm
from .rfs import SingularBlockError, _checked_delta, rfs_closed_form, rfs_oracle
from .scaling import (LOG_SQUARED_AMPLITUDE, _checked_nu, collapse_quality, data_collapse,
                      find_peak, fit_finite_size)

__all__ = ["RunConfig", "main", "entry_point"]

_FORMATS = ("csv", "json")


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
        for n in self.sizes:
            ChainSpec(n, 0.0)  # ChainSpec's ValueError for a size that is not a chain
        if _COMMANDS[self.command][1]:
            for lam in (self.lambda_min, self.lambda_max):  # checked before np.linspace
                _checked_lam(lam)
            if not self.lambda_min < self.lambda_max:
                raise UsageError("lambda range must satisfy min < max, "
                                 f"got [{self.lambda_min}, {self.lambda_max}]")
            if self.steps < 1:
                raise UsageError(f"steps must be >= 1, got {self.steps}")
        _checked_delta(self.delta)
        _checked_nu(self.nu)
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
    "lambda_min": (float, 0.8, "lower end of the lambda grid "
                               "(unused by peak, scaling and collapse)"),
    "lambda_max": (float, 1.2, "upper end of the lambda grid "
                               "(unused by peak, scaling and collapse)"),
    "steps": (int, 41, "grid points between lambda-min and lambda-max "
                       "(unused by peak, scaling and collapse)"),
    "delta": (float, 1e-4, "oracle base step (default 1e-4)"),
    "nu": (float, 1.0, "collapse exponent (default 1)"),
    "verify": (_parse_bool, False, "run the fidelity oracle alongside the closed form"),
    "format": (str, "csv", "output format, csv or json (default csv)"),
    "out": (str, None, "output path (default stdout)"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_option(key: str, text: str, where: str):
    """``key``'s value from ``text`` by its ``_OPTIONS`` parser; its ValueError names ``where``."""
    try:
        return _OPTIONS[key][0](text)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def load_config_file(path: str) -> dict:
    """Flat key = value file mirroring the flag names (underscored).  A line whose
    first non-blank character is ``#`` is a comment; elsewhere ``#`` is part of
    the value, as on the command line."""
    values = {}
    try:
        handle = open(path, encoding="utf-8-sig")  # a leading BOM is not part of the first key
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    with handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _OPTIONS:
                raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _read_option(key, value, f"{path}:{line_no}: {key} = {value}")
    return values


@functools.cache  # built on first use, once per process: a build takes about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfim-rfs", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Two-site reduced fidelity susceptibility of the transverse-field Ising\n"
                    "chain: exact sweeps, peak scaling, and data collapse.",
        epilog="commands:\n" + "\n".join(f"  {name:<12} {entry[2]}"
                                         for name, entry in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="listed below")
    for key, (parse, _, option_help) in _OPTIONS.items():
        bare = {"action": "store_const", "const": "true"} if parse is _parse_bool else {}
        parser.add_argument(_flag(key), help=option_help, **bare)  # a bare flag reads "true"
    parser.add_argument("--config", help="flat key=value config file; flags take precedence")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (increasing precedence)."""
    merged = {key: default for key, (_, default, _) in _OPTIONS.items()}
    if args.config is not None:
        merged.update(load_config_file(args.config))
    for key in _OPTIONS:
        text = getattr(args, key)
        if text is not None:
            merged[key] = _read_option(key, text, f"{_flag(key)} {text}")
    # The other options share their RunConfig field's name.
    sizes = tuple(sorted(set(merged.pop("sizes"))))
    return RunConfig(command=args.command, sizes=sizes, output_format=merged.pop("format"),
                     output_path=merged.pop("out"), **merged)


def _lambda_grid(cfg: RunConfig):
    return [float(v) for v in np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.steps)]


# The CorrelatorSet fields printed by `correlators` and `thermo`, in column order.
_CORRELATORS = ("sz", "xx", "yy", "zz", "d_sz", "d_xx", "d_yy", "d_zz")


def _finite(value: float):
    return value if math.isfinite(value) else None


def cmd_correlators(cfg: RunConfig):
    columns = ["n_sites", "lambda", *_CORRELATORS]

    def row(n, lam):
        c = correlators_finite(ChainSpec(n, lam))
        return {"n_sites": n, "lambda": lam, **{name: getattr(c, name) for name in _CORRELATORS}}

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


def cmd_peak(cfg: RunConfig):
    peaks = [find_peak(n) for n in cfg.sizes]
    columns = ["n_sites", "lambda_m", "chi_m"]
    rows = [{"n_sites": p.n_sites, "lambda_m": p.lambda_m, "chi_m": p.chi_m} for p in peaks]
    return columns, rows, {}


def cmd_scaling(cfg: RunConfig):
    if len(cfg.sizes) < 5:
        raise UsageError(f"scaling needs at least 5 sizes, got {len(cfg.sizes)}")
    peaks = [find_peak(n) for n in cfg.sizes]
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
    return columns, rows, metadata


def cmd_collapse(cfg: RunConfig):
    if len(cfg.sizes) < 3:
        raise UsageError(f"collapse needs at least 3 sizes, got {len(cfg.sizes)}")
    curve = data_collapse(cfg.sizes, nu=cfg.nu)
    quality = collapse_quality(curve)
    columns = ["n_sites", "x", "y"]
    rows = [{"n_sites": n, "x": x, "y": y}
            for n, (xs, ys) in curve.by_size().items() for x, y in zip(xs.tolist(), ys.tolist())]
    return columns, rows, {"nu": cfg.nu, "collapse_quality": quality}


def cmd_thermo(cfg: RunConfig):
    columns = ["lambda", *_CORRELATORS, "chi"]
    rows = []
    divergent = singular = 0
    for lam in _lambda_grid(cfg):
        c = correlators_thermo(lam)
        row = {"lambda": lam, **{name: _finite(getattr(c, name)) for name in _CORRELATORS},
               "chi": None}
        if c.derivatives_divergent:
            divergent += 1
        else:
            try:
                row["chi"] = rfs_closed_form(build_rdm(c)).chi
            except SingularBlockError:
                singular += 1
        rows.append(row)
    counts = {"divergent_rows": divergent, "singular_rows": singular}
    return columns, rows, {key: count for key, count in counts.items() if count}


# name: (handler, whether it reads the lambda grid, help).  Only a command that
# reads the grid checks --lambda-min, --lambda-max and --steps.
_COMMANDS = {
    "correlators": (cmd_correlators, True,
                    "magnetization and neighbour correlators on an (N, lambda) grid"),
    "rfs": (cmd_rfs, True, "closed-form susceptibility with per-block contributions"),
    "sweep": (cmd_sweep, True,
              "susceptibility over the (N, lambda) grid, optionally oracle-verified"),
    "peak": (cmd_peak, False, "peak location lambda_m and height chi_m per size"),
    "scaling": (cmd_scaling, False,
                "peaks plus the sqrt(chi_m) vs ln N fit (needs >= 5 sizes)"),
    "collapse": (cmd_collapse, False,
                 "scaled collapse curves and their quality metric (needs >= 3 sizes)"),
    "thermo": (cmd_thermo, True,
               "thermodynamic-limit correlators and susceptibility per lambda"),
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
