"""Command-line interface and deterministic report emission.

Commands: spectrum, correct, degenerate, scan, validate. Flags override
config-file values, which override defaults; the fully resolved configuration
is echoed into every report, and feeding that echo back as a config file
reproduces the report byte for byte. Reports carry no timestamps and floats
are formatted with a fixed significant-digit count (17 in JSON/CSV, 12 in
text tables), so identical configurations give identical bytes.

Exit codes: 0 success, 1 validation discrepancy outside the allowlist,
2 usage error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, UsageError
from .fock import FockSpace
from .model import (
    BRANCHES,
    NEGATIVE,
    POSITIVE,
    ModelParams,
    landau_level,
)
from .numerics import dump_matrix
from .perturbation import (
    CLUSTER_WINDOW,
    PTReport,
    critical_field,
    degenerate_shift,
    field_scan,
    first_order_shift,
    interior_spectrum,
    level_cluster,
    level_exists,
    operator_level,
    validation_report,
)

COMMANDS = ("spectrum", "correct", "degenerate", "scan", "validate")
FORMATS = ("text", "json", "csv")
BRANCH_CHOICES = (POSITIVE, NEGATIVE, "both")

_DEFAULTS = {
    "omega": None,  # required
    "B": 0.0,
    "gup_a": 0.0,
    "mass": 1.0,
    "light_speed": 1.0,
    "hbar": 1.0,
    "charge": 1.0,
    "cutoff": 40,
    "levels": 8,
    "branch": POSITIVE,
    "B_min": None,
    "B_max": None,
    "steps": None,
    "format": "text",
    "output": None,
}

_TOLERANCE_KEYS = ("cluster_window", "degeneracy_window")
_DEFAULT_TOLERANCES = {"cluster_window": CLUSTER_WINDOW, "degeneracy_window": CLUSTER_WINDOW}


@dataclass
class RunConfig:
    command: str
    omega: float
    b_field: float
    gup_a: float
    mass: float
    light_speed: float
    hbar: float
    charge: float
    cutoff: int
    levels: int
    branch: str
    b_min: float | None
    b_max: float | None
    steps: int | None
    format: str
    output: str | None
    tolerances: dict = field(default_factory=dict)

    def params(self) -> ModelParams:
        return ModelParams(
            omega=self.omega,
            b_field=self.b_field,
            gup_a=self.gup_a,
            mass=self.mass,
            light_speed=self.light_speed,
            hbar=self.hbar,
            charge=self.charge,
        )

    def space(self) -> FockSpace:
        return FockSpace(cutoff=self.cutoff, include_spin=True)

    def echo(self) -> dict:
        out = {
            "command": self.command,
            "omega": self.omega,
            "B": self.b_field,
            "gup_a": self.gup_a,
            "mass": self.mass,
            "light_speed": self.light_speed,
            "hbar": self.hbar,
            "charge": self.charge,
            "cutoff": self.cutoff,
            "levels": self.levels,
            "branch": self.branch,
            "format": self.format,
            "tolerances": dict(sorted(self.tolerances.items())),
        }
        if self.command == "scan":
            out["B_min"] = self.b_min
            out["B_max"] = self.b_max
            out["steps"] = self.steps
        return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags take precedence)")
    common.add_argument("--omega", type=float, help="oscillator frequency")
    common.add_argument("--B", type=float, dest="B", help="magnetic field")
    common.add_argument("--gup-a", type=float, dest="gup_a",
                        help="deformation parameter a")
    common.add_argument("--mass", type=float, help="particle mass (default 1)")
    common.add_argument("--light-speed", type=float, dest="light_speed",
                        help="speed of light (default 1)")
    common.add_argument("--hbar", type=float, help="hbar (default 1)")
    common.add_argument("--charge", type=float, help="charge magnitude (default 1)")
    common.add_argument("--cutoff", type=int, help="boson cutoff per mode (default 40)")
    common.add_argument("--levels", type=int, help="levels to report (default 8)")
    common.add_argument("--branch", choices=BRANCH_CHOICES, help="energy branch")
    common.add_argument("--format", choices=FORMATS, help="output format")
    common.add_argument("--output", help="write the report to this path")
    common.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                        help="tolerance override (repeatable)")

    parser = argparse.ArgumentParser(
        prog="gup-dosc",
        description="Spectral solver for a planar relativistic oscillator in a "
                    "magnetic field with minimal-length corrections",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="closed-form levels vs the exact interior spectrum")
    sub.add_parser("correct", parents=[common],
                   help="non-degenerate first-order corrections (levels 0 and 1)")
    sub.add_parser("degenerate", parents=[common],
                   help="degenerate-cluster corrections for the second level")
    scan = sub.add_parser("scan", parents=[common], help="magnetic field sweep")
    scan.add_argument("--B-min", type=float, dest="B_min", help="lowest field")
    scan.add_argument("--B-max", type=float, dest="B_max", help="highest field")
    scan.add_argument("--steps", type=int, help="number of field values (>= 2)")
    sub.add_parser("validate", parents=[common],
                   help="compare against the stored reference values")
    return parser


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    known = set(_DEFAULTS) | {"command", "tolerances"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    if "command" in raw and raw["command"] != command:
        raise UsageError(
            f"config file command {raw['command']!r} does not match "
            f"invoked command {command!r}"
        )
    return raw


def _parse_tolerances(pairs, from_config: dict) -> dict:
    tol = dict(_DEFAULT_TOLERANCES)
    config_tol = from_config.get("tolerances", {})
    if not isinstance(config_tol, dict):
        raise UsageError("tolerances must be a map")
    merged = dict(config_tol)
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"tolerance override {item!r} must be NAME=VALUE")
        name, value = item.split("=", 1)
        merged[name] = value
    for name, value in merged.items():
        if name not in _TOLERANCE_KEYS:
            raise UsageError(
                f"unknown tolerance {name!r}; known: {', '.join(_TOLERANCE_KEYS)}"
            )
        try:
            tol[name] = float(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"tolerance {name!r} is not a number: {value!r}") from exc
        if tol[name] <= 0.0:
            raise UsageError(f"tolerance {name!r} must be positive")
    return tol


def parse_config(argv=None) -> RunConfig:
    """Resolve argv + optional config file + defaults into a RunConfig."""
    args = _build_parser().parse_args(argv)
    command = args.command
    file_values = _load_config_file(args.config, command) if args.config else {}

    def pick(name: str):
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            return cli_value
        if name in file_values:
            return file_values[name]
        return _DEFAULTS[name]

    values = {name: pick(name) for name in _DEFAULTS}
    if values["omega"] is None:
        raise UsageError("--omega is required (or set omega in the config file)")

    for name in ("omega", "B", "gup_a", "mass", "light_speed", "hbar", "charge",
                 "B_min", "B_max"):
        if values[name] is not None and not isinstance(values[name], (int, float)):
            raise UsageError(f"{name} must be a number, got {values[name]!r}")
        if values[name] is not None and not math.isfinite(values[name]):
            raise UsageError(f"{name} must be finite, got {values[name]!r}")
    for name in ("cutoff", "levels", "steps"):
        v = values[name]
        if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
            raise UsageError(f"{name} must be an integer, got {v!r}")
    if values["branch"] not in BRANCH_CHOICES:
        raise UsageError(f"branch must be one of {BRANCH_CHOICES}")
    if values["format"] not in FORMATS:
        raise UsageError(f"format must be one of {FORMATS}")
    if values["levels"] < 0:
        raise UsageError("levels must be >= 0")
    if values["cutoff"] < values["levels"] + 4:
        raise UsageError(
            f"cutoff {values['cutoff']} leaves no interior headroom for "
            f"levels {values['levels']}; raise --cutoff to at least "
            f"{values['levels'] + 4} or lower --levels"
        )
    if command == "scan":
        for name in ("B_min", "B_max", "steps"):
            if values[name] is None:
                raise UsageError(f"scan requires --{name.replace('_', '-')}")
        if values["steps"] < 2:
            raise UsageError("scan needs at least 2 steps")
        if not values["B_min"] <= values["B_max"]:
            raise UsageError("B-min must not exceed B-max")

    tolerances = _parse_tolerances(args.tol, file_values)
    return RunConfig(
        command=command,
        omega=float(values["omega"]),
        b_field=float(values["B"]),
        gup_a=float(values["gup_a"]),
        mass=float(values["mass"]),
        light_speed=float(values["light_speed"]),
        hbar=float(values["hbar"]),
        charge=float(values["charge"]),
        cutoff=int(values["cutoff"]),
        levels=int(values["levels"]),
        branch=str(values["branch"]),
        b_min=None if values["B_min"] is None else float(values["B_min"]),
        b_max=None if values["B_max"] is None else float(values["B_max"]),
        steps=None if values["steps"] is None else int(values["steps"]),
        format=str(values["format"]),
        output=values["output"],
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# deterministic emitters

def _fmt_float(x: float, digits: int = 17) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), f".{digits}g")


def _json_emit(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_json_emit(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_json_emit(v) for v in obj) + "]"
        parts = [f"{inner}{_json_emit(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ComputationError(f"cannot serialize {type(obj).__name__} to JSON")


def to_json(report: dict) -> str:
    return _json_emit(report) + "\n"


def _text_value(v, digits: int = 12) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (float, np.floating)):
        s = _fmt_float(float(v), digits)
        return s if s != "null" else "-"
    if isinstance(v, (list, tuple)):
        return ", ".join(_text_value(x, digits) for x in v)
    if isinstance(v, dict):
        return "; ".join(f"{k}:{_text_value(x, digits)}" for k, x in v.items())
    if v is None:
        return "-"
    return str(v)


def _text_table(rows: list[dict], columns: list[str]) -> list[str]:
    cells = [[_text_value(r.get(c)) for c in columns] for r in rows]
    widths = [
        max(len(columns[i]), *(len(row[i]) for row in cells)) if cells else len(columns[i])
        for i in range(len(columns))
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths).rstrip())
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def to_text(report: dict) -> str:
    lines: list[str] = [f"command: {report['command']}"]
    for k, v in report["config"].items():
        lines.append(f"  {k}: {_text_value(v)}")
    for k, v in report.items():
        if k in ("command", "config"):
            continue
        if isinstance(v, list) and v and isinstance(v[0], dict):
            lines.append("")
            lines.append(f"{k}:")
            columns: list[str] = []
            for row in v:
                for c in row:
                    if c not in columns:
                        columns.append(c)
            lines.extend(_text_table(v, columns))
        elif isinstance(v, dict):
            lines.append("")
            lines.append(f"{k}:")
            for kk, vv in v.items():
                lines.append(f"  {kk}: {_text_value(vv)}")
        else:
            lines.append(f"{k}: {_text_value(v)}")
    return "\n".join(lines) + "\n"


def _histogram_cell(hist) -> str:
    if hist is None:
        return ""
    return ";".join(
        f"{k}:{v}" for k, v in sorted(hist.items(), key=lambda kv: int(kv[0]))
    )


def to_csv(report: dict) -> str:
    if report["command"] != "scan":
        raise UsageError("csv output is defined for the scan command only")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [
        "B", "omega_tilde", "ground_shift", "first_shift",
        "n2_shift_1", "n2_shift_2", "n2_shift_3", "n2_shift_4",
        "degeneracy_counts_before", "degeneracy_counts_after", "error",
    ]
    writer.writerow(header)
    for point in report["points"]:
        n2 = point.get("n2_shifts") or [None] * 4
        row = [
            _fmt_float(point["B"]),
            _fmt_float(point["omega_tilde"]),
            "" if point.get("ground_shift") is None else _fmt_float(point["ground_shift"]),
            "" if point.get("first_shift") is None else _fmt_float(point["first_shift"]),
        ]
        row += ["" if s is None else _fmt_float(s) for s in n2]
        row.append(_histogram_cell(point.get("degeneracy_counts_before")))
        row.append(_histogram_cell(point.get("degeneracy_counts_after")))
        row.append(point.get("error", ""))
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# report builders

def _pt_report_dict(r: PTReport) -> dict:
    out = {
        "cluster_label": r.cluster_label,
        "unperturbed_energy": None if math.isnan(r.unperturbed_energy) else r.unperturbed_energy,
        "method": r.method,
        "shift_units": r.shift_units,
        "shifts": list(r.shifts),
        "shifts_energy": list(r.shifts_energy),
        "oracle_slopes": list(r.oracle_slopes),
        "subspace_basis": r.subspace_basis,
        "subspace_matrix": dump_matrix(r.subspace_matrix).split("\n"),
        "discrepancy_flags": list(r.discrepancy_flags),
    }
    if r.breakdown is not None:
        out["breakdown"] = dict(r.breakdown)
    if r.eigenvectors is not None:
        out["eigenvectors"] = dump_matrix(r.eigenvectors).split("\n")
    return out


def _branches(config: RunConfig) -> tuple[str, ...]:
    return BRANCHES if config.branch == "both" else (config.branch,)


def _histogram_json(hist: dict[int, int]) -> dict:
    return {str(k): int(v) for k, v in sorted(hist.items())}


def _report_header(config: RunConfig) -> dict:
    p = config.params()
    return {
        "command": config.command,
        "config": config.echo(),
        "derived": {
            "omega_tilde": p.omega_tilde,
            "cyclotron_frequency": p.cyclotron_frequency,
            "lambda": p.lam,
            "alpha_gup": p.alpha_gup,
            "critical_field": critical_field(p),
            "shift_unit_energy": p.shift_unit,
        },
    }


def _run_spectrum(config: RunConfig) -> dict:
    p = config.params()
    space = config.space()
    window = config.tolerances["cluster_window"] * p.rest_energy
    spectrum = interior_spectrum(space, p, strength=0.0)
    rows = []
    for n in range(config.levels + 1):
        for branch in _branches(config):
            analytic = landau_level(p, n, branch)
            nearest = float(spectrum[int(np.argmin(np.abs(spectrum - analytic)))])
            multiplicity = int(np.sum(np.abs(spectrum - analytic) <= window))
            rel = abs(nearest - analytic) / max(abs(analytic), 1e-30)
            rows.append(
                {
                    "n": n,
                    "branch": branch,
                    "analytic": analytic,
                    "exact_nearest": nearest,
                    "rel_error": rel,
                    "multiplicity": multiplicity,
                }
            )
    report = _report_header(config)
    if p.omega_tilde < 0.0:
        report["note"] = (
            "over-critical field: closed-form levels use the signed reduced "
            "frequency and need not appear in the operator spectrum"
        )
    report["levels"] = rows
    return report


def _run_correct(config: RunConfig) -> dict:
    p = config.params()
    space = config.space()
    reports = []
    for n in (0, 1):
        for branch in _branches(config):
            if not level_exists(p, n, branch):
                reports.append(
                    {
                        "cluster_label": f"n={n}, branch {branch}",
                        "absent": True,
                        "reason": "level does not exist on this side of the "
                                  "critical field",
                    }
                )
                continue
            level = operator_level(p, n, branch)
            reports.append(_pt_report_dict(first_order_shift(space, p, level)))
    report = _report_header(config)
    report["corrections"] = reports
    return report


def _run_degenerate(config: RunConfig) -> dict:
    p = config.params()
    space = config.space()
    result = degenerate_shift(space, p, level_cluster(n=2, size=4))
    report = _report_header(config)
    report["cluster"] = _pt_report_dict(result)
    return report


def _run_scan(config: RunConfig) -> dict:
    p = config.params()
    space = config.space()
    assert config.b_min is not None and config.b_max is not None
    assert config.steps is not None
    values = [
        config.b_min + (config.b_max - config.b_min) * i / (config.steps - 1)
        for i in range(config.steps)
    ]
    result = field_scan(
        space, p, values, degeneracy_window=config.tolerances["degeneracy_window"]
    )
    points = []
    for point in result.points:
        row = {"B": point["B"], "omega_tilde": point["omega_tilde"]}
        for key in ("ground_shift", "first_shift", "n2_shifts"):
            row[key] = point.get(key)
        for key in ("degeneracy_counts_before", "degeneracy_counts_after"):
            row[key] = (
                _histogram_json(point[key]) if key in point else None
            )
        if "error" in point:
            row["error"] = point["error"]
        points.append(row)
    report = _report_header(config)
    report["points"] = points
    report["critical_B"] = result.critical_b
    return report


def _run_validate(config: RunConfig) -> dict:
    p = config.params()
    space = config.space()
    result = validation_report(space, p)
    report = _report_header(config)
    report["rows"] = result["rows"]
    report["allowlisted"] = result["allowlisted"]
    report["unexpected_discrepancies"] = result["unexpected_discrepancies"]
    report["passed"] = result["passed"]
    report["own_block"] = _pt_report_dict(result["own_block"])
    report["stored_block"] = _pt_report_dict(result["stored_block"])
    return report


_RUNNERS = {
    "spectrum": _run_spectrum,
    "correct": _run_correct,
    "degenerate": _run_degenerate,
    "scan": _run_scan,
    "validate": _run_validate,
}


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    return to_text(report)


def run(config: RunConfig) -> int:
    """Execute one command; emits the report and returns the exit status."""
    report = _RUNNERS[config.command](config)
    payload = render(report, config.format)
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if config.command == "validate" and not report["passed"]:
        return 1
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(
            to_json({"error": str(exc), "kind": "computation"}).rstrip(),
            file=sys.stderr,
        )
        return 3
    except Exception as exc:  # an internal fault: report it, never a traceback
        print(
            to_json(
                {"error": str(exc), "kind": "internal", "type": type(exc).__name__}
            ).rstrip(),
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
