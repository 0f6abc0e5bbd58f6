"""By-value checks of gup-dosc reports.

Reports are parsed (JSON, text tables or CSV) and each number is checked
against the package's own closed forms and tolerances. Nothing is compared
with stored bytes or hashes: the last digits of a report depend on the
OpenBLAS thread count, so a byte check would fail on a correct program.

`verify` returns None for an accepted invocation and a one-line reason
otherwise. An exit of 0 with a verified report is always accepted; a
non-zero exit is accepted only where the seed gives the same status for that
input (KNOWN_EXITS) and the output says what the seed says.
"""

from __future__ import annotations

import csv
import io
import json
import re

from gup_dosc.errors import ComputationError
from gup_dosc.model import ModelParams, landau_level, spinor_level
from gup_dosc.perturbation import (
    ORACLE_RTOL,
    REFERENCE_DEGENERATE_SHIFTS,
    critical_field,
)

# Text tables print 12 significant digits; JSON and CSV print 17.
DIGITS_RTOL = 1e-10
# Closed-form against exact levels, as `validate` demands.
LEVEL_RTOL = 1e-8
# `validate` accepts the stored block's eigenvalues within this distance.
STORED_BLOCK_ATOL = 5e-4

# Non-zero exits of the seed, by (command, field regime): status and a text
# the output must contain. Status 1 puts it among the unexpected
# discrepancies of the report; status 3 in the JSON error body on stderr.
KNOWN_EXITS = {
    ("validate", "critical"): (1, "ground-shift"),
    ("spectrum", "beyond"): (3, "branch collapse"),
    ("validate", "beyond"): (3, "branch collapse"),
}


class Failure(Exception):
    """A report that does not hold the values it should."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Failure(message)


def close(x: float, y: float, rtol: float) -> bool:
    """|x - y| <= rtol |y|; a reference of 0 demands exactly 0."""
    return abs(x - y) <= rtol * abs(y)


def near(x: float, y: float, tol: float = DIGITS_RTOL) -> bool:
    return abs(x - y) <= tol * max(abs(y), 1.0)


def params(meta: dict) -> ModelParams:
    return ModelParams(omega=meta["omega"], b_field=meta.get("B", 0.0),
                       gup_a=meta["gup_a"])


def regime(p: ModelParams) -> str:
    wt = p.omega_tilde
    return "below" if wt > 0.0 else "critical" if wt == 0.0 else "beyond"


def interior_dim(cutoff: int) -> int:
    """Spinful states with n_a + n_b <= cutoff - 2, the package's interior margin."""
    top = cutoff - 2
    return (top + 1) * (top + 2)


# ---------------------------------------------------------------------------
# parsing

_TOP_KEY = re.compile(r"^([A-Za-z_]+): (.*)$")
_SECTION = re.compile(r"^([A-Za-z_]+):$")


def parse_text(text: str) -> dict:
    """The text report as a dict of strings, tables as lists of row dicts."""
    lines = text.split("\n")
    report: dict = {}
    section: dict | None = None
    i = 0
    while i < len(lines):
        line = lines[i]
        header = _SECTION.match(line)
        if not line:
            section = None
        elif line.startswith("  ") and section is not None:
            key, _, value = line[2:].partition(": ")
            section[key] = value
        elif header and i + 2 < len(lines) and lines[i + 2].startswith("-"):
            cols = [(m.start(), m.end()) for m in re.finditer(r"-+", lines[i + 2])]
            names = [lines[i + 1][a:b].strip() for a, b in cols]
            rows = []
            i += 3
            while i < len(lines) and lines[i] and not _TOP_KEY.match(lines[i]):
                rows.append({n: lines[i][a:b].strip() for n, (a, b) in zip(names, cols)})
                i += 1
            report[header.group(1)] = rows
            section = None
            continue
        elif header:
            section = report[header.group(1)] = {}
        else:
            m = _TOP_KEY.match(line)
            check(m is not None, f"unreadable text line {line!r}")
            report[m.group(1)] = m.group(2)
            section = None
            if i == 0 and m.group(1) == "command":
                section = report["config"] = {}
        i += 1
    return report


def nums(value) -> list[float]:
    if isinstance(value, list):
        return [float(v) for v in value]
    return [float(v) for v in value.split(", ")] if value else []


def strs(value) -> list[str]:
    if isinstance(value, list):
        return [str(v) for v in value]
    return value.split(", ") if value else []


def flag(value) -> bool:
    check(value in (True, False, "yes", "no"), f"not a yes/no value: {value!r}")
    return value in (True, "yes")


# ---------------------------------------------------------------------------
# closed forms in shift units (a c m hbar wt), below the critical field


def _c2(p: ModelParams, n: int) -> float:
    return spinor_level(p, n, "+").c_n ** 2


def _tower(p: ModelParams, size: int = 4) -> list[float]:
    """Second-level tower -(n_b + 2 + c_2^2), ascending."""
    return sorted(-(k + 2 + _c2(p, 2)) for k in range(size))


def _check_shifts(block: dict, p: ModelParams, closed_form) -> None:
    """Shifts against their oracle slopes, energies, and `closed_form()` below B_c."""
    shifts = nums(block["shifts"])
    slopes = nums(block["oracle_slopes"])
    energies = nums(block["shifts_energy"])
    check(bool(shifts) and len(slopes) == len(shifts) == len(energies),
          f"{len(shifts)} shifts, {len(slopes)} oracle slopes, {len(energies)} energies")
    check(shifts == sorted(shifts), "shifts are not ascending")
    for s, o, e in zip(shifts, slopes, energies):
        check(close(o, s, ORACLE_RTOL), f"shift {s!r} vs oracle slope {o!r}")
        check(close(e, s * p.shift_unit, DIGITS_RTOL), f"shift energy {e!r} vs {s!r} units")
    check("disagrees" not in str(block["discrepancy_flags"]), "oracle disagreement flagged")
    if regime(p) == "critical":
        check(all(s == 0.0 for s in shifts), f"shifts {shifts} at the critical field")
    elif regime(p) == "beyond":
        check(all(near(b - a, 1.0) for a, b in zip(shifts, shifts[1:])),
              f"tower spacing of {shifts} is not one unit")
    else:
        expected = closed_form()
        check(all(close(s, x, DIGITS_RTOL) for s, x in zip(shifts, expected)),
              f"shifts {shifts} vs closed form {expected}")


# ---------------------------------------------------------------------------
# per command


def _check_header(report: dict, meta: dict, p: ModelParams) -> None:
    check(report["command"] == meta["command"], f"command {report['command']!r}")
    config = report["config"]
    for key in ("omega", "B", "gup_a"):
        check(close(float(config[key]), meta[key], DIGITS_RTOL), f"config {key} {config[key]!r}")
    check(int(config["cutoff"]) == meta["cutoff"], f"config cutoff {config['cutoff']!r}")
    derived = report["derived"]
    check(near(float(derived["omega_tilde"]), p.omega_tilde),
          f"omega_tilde {derived['omega_tilde']!r}")
    check(close(float(derived["shift_unit_energy"]), p.shift_unit, DIGITS_RTOL),
          f"shift unit {derived['shift_unit_energy']!r}")


def _check_spectrum(report: dict, meta: dict, p: ModelParams) -> None:
    rows = report["levels"]
    check(len(rows) == meta["levels"] + 1, f"{len(rows)} level rows")
    for row in rows:
        n, branch = int(row["n"]), row["branch"]
        analytic, exact = float(row["analytic"]), float(row["exact_nearest"])
        check(close(analytic, landau_level(p, n, branch), DIGITS_RTOL),
              f"level {n}{branch} closed form {analytic!r}")
        check(close(exact, analytic, LEVEL_RTOL), f"level {n}{branch} exact {exact!r}")
        check(int(row["multiplicity"]) >= 1, f"level {n}{branch} not in the spectrum")


def _check_correct(report: dict, meta: dict, p: ModelParams) -> None:
    rows = report["corrections"]
    check(len(rows) == 2, f"{len(rows)} corrections")
    for n, row in enumerate(rows):
        check(row["cluster_label"].startswith(f"n={n},"), f"label {row['cluster_label']!r}")
        if row.get("absent") in (True, "yes"):
            check(n == 0 and regime(p) == "beyond", f"level n={n} reported absent")
            continue
        _check_shifts(row, p, lambda: [-1.0] if n == 0 else [-(1.0 + _c2(p, 1))])


def _check_degenerate(report: dict, meta: dict, p: ModelParams) -> None:
    _check_shifts(report["cluster"], p, lambda: _tower(p))


def _check_validate(report: dict, meta: dict, p: ModelParams) -> None:
    check(flag(report["passed"]), "validation did not pass")
    check(strs(report["unexpected_discrepancies"]) == [], "unexpected discrepancies")
    rows = {row["row"]: row for row in report["rows"]}
    for n in range(5):
        for branch in "+-":
            row = rows[f"level n={n} branch {branch}"]
            reference, computed = float(row["reference"]), float(row["computed"])
            check(close(reference, landau_level(p, n, branch), DIGITS_RTOL),
                  f"level {n}{branch} closed form {reference!r}")
            check(close(computed, reference, LEVEL_RTOL), f"level {n}{branch} exact {computed!r}")
    for name in ("ground-shift-oracle", "first-excited-oracle"):
        row = rows[name]
        check(close(float(row["computed"]), float(row["reference"]), ORACLE_RTOL),
              f"{name}: {row['computed']!r} vs {row['reference']!r}")
    if regime(p) == "below":
        check(close(float(rows["ground-shift"]["computed"]), -1.0, DIGITS_RTOL),
              f"ground shift {rows['ground-shift']['computed']!r}")
        first = float(rows["first-excited-shift"]["computed"])
        check(close(first, -(1.0 + _c2(p, 1)), DIGITS_RTOL), f"first excited shift {first!r}")
    check(close(float(rows["critical-field"]["computed"]), critical_field(p), DIGITS_RTOL),
          f"critical field {rows['critical-field']['computed']!r}")
    _check_shifts(report["own_block"], p, lambda: _tower(p))
    stored = nums(report["stored_block"]["shifts"])
    check(len(stored) == len(REFERENCE_DEGENERATE_SHIFTS)
          and all(abs(s - r) <= STORED_BLOCK_ATOL
                  for s, r in zip(stored, sorted(REFERENCE_DEGENERATE_SHIFTS))),
          f"stored block shifts {stored}")


def _histogram_total(cell: str) -> int:
    return sum(int(k) * int(v) for k, v in (pair.split(":") for pair in cell.split(";")))


def _check_scan_csv(text: str, meta: dict) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    steps, lo, hi = meta["steps"], meta["B_min"], meta["B_max"]
    check(len(rows) == steps, f"{len(rows)} scan rows for {steps} steps")
    for i, row in enumerate(rows):
        b = lo + (hi - lo) * i / (steps - 1)
        p = params(dict(meta, B=b))
        where = f"scan B={b:g}"
        check(near(float(row["B"]), b), f"{where}: B {row['B']!r}")
        check(near(float(row["omega_tilde"]), p.omega_tilde), f"{where}: omega_tilde")
        check(row["error"] == "", f"{where}: error {row['error']!r}")
        for key in ("degeneracy_counts_before", "degeneracy_counts_after"):
            check(_histogram_total(row[key]) == interior_dim(meta["cutoff"]),
                  f"{where}: {key} does not cover the interior")
        ground, first = float(row["ground_shift"]), float(row["first_shift"])
        tower = [float(row[f"n2_shift_{k}"]) for k in range(1, 5)]
        unit = p.shift_unit
        if regime(p) == "critical":
            check(ground == first == 0.0 and tower == [0.0] * 4, f"{where}: nonzero shift")
        elif regime(p) == "below":
            check(close(ground, -unit, DIGITS_RTOL), f"{where}: ground {ground!r}")
            check(close(first, -(1.0 + _c2(p, 1)) * unit, DIGITS_RTOL), f"{where}: first {first!r}")
            expected = [s * unit for s in _tower(p)]
            check(all(close(s, x, DIGITS_RTOL) for s, x in zip(tower, expected)),
                  f"{where}: n=2 tower {tower}")
        else:
            check(close(ground, -abs(unit), DIGITS_RTOL), f"{where}: ground {ground!r}")
            check(all(close(b2 - b1, abs(unit), DIGITS_RTOL) for b1, b2 in zip(tower, tower[1:])),
                  f"{where}: n=2 tower spacing {tower}")


_CHECKS = {
    "spectrum": _check_spectrum,
    "correct": _check_correct,
    "degenerate": _check_degenerate,
    "validate": _check_validate,
}


def _parse(text: str, fmt: str) -> dict:
    return json.loads(text) if fmt == "json" else parse_text(text)


def _verify(meta: dict, status: int, stdout: str, stderr: str) -> None:
    check("Traceback" not in stderr, "traceback on stderr")
    p = params(meta)
    command = meta["command"]
    if status == 0:
        if command == "scan":
            _check_scan_csv(stdout, meta)
            return
        report = _parse(stdout, meta["format"])
        _check_header(report, meta, p)
        _CHECKS[command](report, meta, p)
        return
    known_status, known_text = KNOWN_EXITS.get((command, regime(p)), (0, ""))
    if status == 1 and command == "validate":
        report = _parse(stdout, meta["format"])
        _check_header(report, meta, p)
        unexpected = strs(report["unexpected_discrepancies"])
        check(not flag(report["passed"]), "exit 1 but validation passed")
        check(status == known_status and unexpected == [known_text],
              f"exit 1 with unexpected discrepancies {unexpected}")
        return
    first_line = stderr.strip().splitlines()[0] if stderr.strip() else "no message"
    check(status == known_status, f"exit status {status}: {first_line}")
    body = json.loads(stderr)
    check(stdout == "", "report printed with an error exit")
    check(body.get("kind") == "computation" and known_text in body.get("error", ""),
          f"error body {body!r}")


def verify(meta: dict, status: int, stdout: str, stderr: str) -> str | None:
    """None if the invocation's output is correct, else the reason."""
    try:
        _verify(meta, status, stdout, stderr)
    except Failure as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError,
            ComputationError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
