"""Command-line interface and deterministic report emission.

Commands: spectrum, correct, degenerate, scan, validate. Flags override
config-file values, which override defaults; the fully resolved configuration
is echoed into every report, and feeding that echo back as a config file
reproduces the report byte for byte. Reports carry no timestamps and floats
are formatted with a fixed significant-digit count (17 in JSON/CSV, 12 in
text tables), so identical configurations give identical bytes.

Exit codes: 0 success, 1 validation discrepancy outside the allowlist,
2 usage error, 3 computation failure.

This module loads no numpy, and neither do the report builders of
`spectrum`, `correct`, `degenerate` and `validate`: the closed forms, the
level rows at any field, the shift reports, the oracle, the stored block's
eigenpairs and their emission are pure Python. numpy loads only with a
scan's first dense spectrum (a != 0, or the critical field). The parser,
`ModelParams` and `FockSpace` check every input before anything is
computed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import math
import sys

from .errors import ComputationError, UsageError
from .fock import MAX_CUTOFF, FockSpace
from .params import (BRANCHES, CLUSTER_WINDOW, NEGATIVE, POSITIVE, ModelParams, _Value,
                     abs_level)

FORMATS = ("text", "json", "csv")
BRANCH_CHOICES = (POSITIVE, NEGATIVE, "both")
# Largest accepted --steps: far above any scan in use (README's largest has 16
# steps), and checked before the list of field values is built.
MAX_STEPS = 10_000


class Option(_Value):
    """One setting, named by its config key; a default of None means unset."""

    key: str
    type: type
    default: object
    help: str
    choices: tuple | None = None
    param: str | None = None  # the ModelParams field the value feeds
    scan_only: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


# The one list of settings: flags, config keys, validation, ModelParams and
# the config echo (in this order) all come from it.
OPTIONS = (
    Option("omega", float, None, "oscillator frequency", param="omega"),
    Option("B", float, 0.0, "magnetic field", param="b_field"),
    Option("gup_a", float, 0.0, "deformation parameter a", param="gup_a"),
    Option("mass", float, 1.0, "particle mass (default 1)", param="mass"),
    Option("light_speed", float, 1.0, "speed of light (default 1)", param="light_speed"),
    Option("hbar", float, 1.0, "hbar (default 1)", param="hbar"),
    Option("charge", float, 1.0, "charge magnitude (default 1)", param="charge"),
    Option("cutoff", int, 40, f"boson cutoff per mode (default 40, at most {MAX_CUTOFF})"),
    Option("levels", int, 8, "levels to report (default 8)"),
    Option("branch", str, POSITIVE, "energy branch", choices=BRANCH_CHOICES),
    Option("format", str, "text", "output format", choices=FORMATS),
    Option("output", str, None, "write the report to this path"),
    Option("B_min", float, None, "lowest field", scan_only=True),
    Option("B_max", float, None, "highest field", scan_only=True),
    Option("steps", int, None, f"number of field values (at least 2, at most {MAX_STEPS})",
           scan_only=True),
)

_TOLERANCE_KEYS = ("cluster_window", "degeneracy_window")


class RunConfig(_Value):
    """A resolved run; each setting reads as an attribute, e.g. `config.B_min`.
    It does not hash: its fields hold dicts."""

    command: str
    values: dict
    tolerances: dict

    def __getattr__(self, key: str):
        try:
            return self.__dict__["values"][key]
        except KeyError:
            raise AttributeError(key) from None

    def params(self) -> ModelParams:
        return ModelParams(**{o.param: self.values[o.key] for o in OPTIONS if o.param})

    def echo(self) -> dict:
        # the output path says where the report goes, not what it holds
        shared = [o for o in OPTIONS if not o.scan_only and o.key != "output"]
        scan = [o for o in OPTIONS if o.scan_only and self.command == "scan"]
        out = {"command": self.command}
        out.update((o.key, self.values[o.key]) for o in shared)
        out["tolerances"] = dict(sorted(self.tolerances.items()))
        out.update((o.key, self.values[o.key]) for o in scan)
        return out


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, its subcommands' included, are one-line usage errors."""
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    def add(parser, options):
        for o in options:
            parser.add_argument(o.flag, dest=o.key, type=o.type, choices=o.choices,
                                help=o.help)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags take precedence)")
    add(common, [o for o in OPTIONS if not o.scan_only])
    common.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                        help="tolerance override (repeatable)")

    parser = _Parser(
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
    add(scan, [o for o in OPTIONS if o.scan_only])
    sub.add_parser("validate", parents=[common],
                   help="compare against the stored reference values")
    return parser


def _load_config_file(path: str, command: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    known = {o.key for o in OPTIONS} | {"command", "tolerances"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    if raw.get("command") is not None and raw["command"] != command:
        raise UsageError(
            f"config file command {raw['command']!r} does not match "
            f"invoked command {command!r}"
        )
    return raw


def _checked(o: Option, value):
    """`value` converted to the option's type; UsageError naming the key if it is not one."""
    if value is None:
        return None
    if o.choices is not None:
        if value not in o.choices:
            raise UsageError(f"{o.key} must be one of {o.choices}")
    elif o.type is str:
        if not isinstance(value, str):
            raise UsageError(f"{o.key} must be a string, got {value!r}")
    elif o.type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise UsageError(f"{o.key} must be an integer, got {value!r}")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"{o.key} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise UsageError(f"{o.key} is too large for a float") from None
        if not math.isfinite(value):
            raise UsageError(f"{o.key} must be finite, got {value!r}")
    return o.type(value)


def _parse_tolerances(pairs, from_config: dict) -> dict:
    """Config-file tolerances (numbers, null for the default) under `--tol NAME=FLOAT`."""
    config_tol = from_config.get("tolerances")
    if not isinstance(config_tol, (dict, type(None))):
        raise UsageError("tolerances must be a map")
    overrides = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"tolerance override {item!r} must be NAME=VALUE")
        name, text = item.split("=", 1)
        overrides[name] = text
    tol = dict.fromkeys(_TOLERANCE_KEYS, CLUSTER_WINDOW)
    for name, value in {**(config_tol or {}), **overrides}.items():
        if name not in _TOLERANCE_KEYS:
            raise UsageError(
                f"unknown tolerance {name!r}; known: {', '.join(_TOLERANCE_KEYS)}"
            )
        if name in overrides:
            try:
                value = float(value)
            except ValueError:
                raise UsageError(f"tolerance {name!r} is not a number: {value!r}") from None
        value = _checked(Option(f"tolerance {name!r}", float, None, ""), value)
        if value is not None:
            tol[name] = value
        if tol[name] <= 0.0:
            raise UsageError(f"tolerance {name!r} must be positive")
    return tol


def parse_config(argv=None) -> RunConfig:
    """Resolve argv + optional config file + defaults into a RunConfig."""
    args = _build_parser().parse_args(argv)
    command = args.command
    file_values = _load_config_file(args.config, command) if args.config else {}

    def pick(o: Option):
        for value in (getattr(args, o.key, None), file_values.get(o.key)):
            if value is not None:
                return value
        return o.default

    raw = {o.key: pick(o) for o in OPTIONS}
    if raw["omega"] is None:
        raise UsageError("--omega is required (or set omega in the config file)")
    values = {o.key: _checked(o, raw[o.key]) for o in OPTIONS}
    if values["levels"] < 0:
        raise UsageError("levels must be >= 0")
    if values["format"] == "csv" and command != "scan":
        raise UsageError("csv output is defined for the scan command only")
    if command == "scan":
        for o in OPTIONS:
            if o.scan_only and values[o.key] is None:
                raise UsageError(f"scan requires {o.flag}")
        if values["steps"] < 2:
            raise UsageError("scan needs at least 2 steps")
        if values["steps"] > MAX_STEPS:
            raise UsageError(f"steps {values['steps']} exceeds the limit {MAX_STEPS}")
        if not values["B_min"] <= values["B_max"]:
            raise UsageError("B-min must not exceed B-max")
        # a bound on the span and on every product the field grid forms,
        # span i for i <= steps - 2, the last value being B-max (`_run_scan`)
        if not math.isfinite((values["B_max"] - values["B_min"])
                             * max(values["steps"] - 2, 1)):
            raise UsageError("--B-min, --B-max and --steps span a field grid beyond "
                             "the float range: (B-max - B-min) (steps - 1) overflows")

    return RunConfig(command, values, _parse_tolerances(args.tol, file_values))


# ---------------------------------------------------------------------------
# deterministic emitters

def _fmt_float(x: float, digits: int = 17) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), f".{digits}g")


def _json_emit(obj, indent: int = 0) -> str:
    import json

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
    # report values are Python values; numpy's float64 is a float
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ComputationError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_matrix(rows) -> str:
    """Text dump of a matrix, one of its rows per line, entries as `re+imi`
    with 17 significant digits."""
    return "\n".join(" ".join(f"{e.real:.17g}{e.imag:+.17g}i" for e in row)
                     for row in rows)


def to_json(report: dict) -> str:
    return _json_emit(report) + "\n"


def _text_value(v, digits: int = 12) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        s = _fmt_float(v, digits)
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
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [
        "B", "omega_tilde", "ground_shift", "first_shift",
        "n2_shift_1", "n2_shift_2", "n2_shift_3", "n2_shift_4",
        "degeneracy_counts_before", "degeneracy_counts_after", "error",
    ]
    writer.writerow(header)
    for point in report["points"]:
        values = [point["B"], point["omega_tilde"], point["ground_shift"],
                  point["first_shift"], *(point["n2_shifts"] or [None] * 4)]
        row = ["" if x is None else _fmt_float(x) for x in values]
        row.append(_histogram_cell(point["degeneracy_counts_before"]))
        row.append(_histogram_cell(point["degeneracy_counts_after"]))
        row.append(point.get("error", ""))
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# report builders; each imports the solver names it calls when it runs

def _pt_report_dict(r) -> dict:
    """The report form of a `perturbation.PTReport`."""
    from .perturbation import SHIFT_UNITS

    out = {
        "cluster_label": r.cluster_label,
        "unperturbed_energy": None if math.isnan(r.unperturbed_energy) else r.unperturbed_energy,
        "method": r.method,
        "shift_units": SHIFT_UNITS,
        "shifts": list(r.shifts),
        "shifts_energy": list(r.shifts_energy),
        "oracle_slopes": list(r.oracle_slopes),
        "subspace_basis": list(r.subspace_basis),
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


def _report_header(config: RunConfig, p: ModelParams) -> dict:
    return {
        "command": config.command,
        "config": config.echo(),
        "derived": {
            "omega_tilde": p.omega_tilde,
            "cyclotron_frequency": p.cyclotron_frequency,
            "lambda": p.lam,
            "alpha_gup": p.alpha_gup,
            "critical_field": p.critical_field,
            "shift_unit_energy": p.shift_unit,
        },
    }


# Each runner returns the keys its command adds after the report header.

def _run_spectrum(config: RunConfig, p: ModelParams, space: FockSpace) -> dict:
    from .perturbation import level_rows

    rows = level_rows(space, p, config.levels, _branches(config),
                      config.tolerances["cluster_window"])
    report = {}
    if p.omega_tilde < 0.0:
        report["note"] = (
            "over-critical field: closed-form levels use the signed reduced "
            "frequency and need not appear in the operator spectrum"
        )
    report["levels"] = rows
    return report


def _run_correct(config: RunConfig, p: ModelParams, space: FockSpace) -> dict:
    from .perturbation import first_order_shift, oracle_check

    states = [(n, branch) for n in (0, 1) for branch in _branches(config)]
    present = [s for s in states if abs_level(p, *s) is not None]
    checked = oracle_check(space, p, [first_order_shift(space, p, *s) for s in present])
    results = dict(zip(present, checked))
    return {"corrections": [
        _pt_report_dict(results[(n, branch)]) if (n, branch) in results else {
            "cluster_label": f"n={n}, branch {branch}",
            "absent": True,
            "reason": "level does not exist on this side of the critical field",
        }
        for n, branch in states
    ]}


def _run_degenerate(config: RunConfig, p: ModelParams, space: FockSpace) -> dict:
    from .perturbation import degenerate_shift, oracle_check

    (result,) = oracle_check(space, p, [degenerate_shift(space, p, 2, range(4))])
    return {"cluster": _pt_report_dict(result)}


def _run_scan(config: RunConfig, p: ModelParams, space: FockSpace) -> dict:
    from .perturbation import field_scan

    # the last value is B_max itself, which B_min + span * i / last need not round to
    span, last = config.B_max - config.B_min, config.steps - 1
    values = [config.B_min + span * i / last for i in range(last)] + [config.B_max]
    points, critical_b = field_scan(
        space, p, values, degeneracy_window=config.tolerances["degeneracy_window"]
    )
    return {"points": points, "critical_B": critical_b}


def _run_validate(config: RunConfig, p: ModelParams, space: FockSpace) -> dict:
    from .perturbation import validation_report

    result = validation_report(space, p)
    report = {key: result[key]
              for key in ("rows", "allowlisted", "unexpected_discrepancies", "passed")}
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


@functools.cache
def _freeze_heap() -> None:
    """Freeze the heap, once per process.

    The freeze moves everything allocated so far, numpy's module heap above
    all where a run loaded it, to the permanent generation, which the cyclic
    collector never traverses: a run frees little of it, and the collections
    at interpreter exit cost about 22 ms CPU per process over it (`validate`
    at cutoff 40 194 -> 179 ms, medians of 21 spawns on a 2-vCPU VM). Done in
    a command run only, so a library user's GC is untouched.
    """
    gc.freeze()


def run(config: RunConfig) -> int:
    """Execute one command; emits the report and returns the exit status.

    The report is built first, loading numpy only if the command solves a
    dense spectrum (a scan), and the heap is frozen once it is
    (`_freeze_heap`)."""
    # the last input checks: the physical scales, then the cutoff
    p = config.params()
    space = FockSpace(cutoff=config.cutoff)
    report = _report_header(config, p)
    report.update(_RUNNERS[config.command](config, p, space))
    _freeze_heap()
    payload = render(report, config.format)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write output file {config.output}: {exc}") from exc
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
