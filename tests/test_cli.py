import contextlib
import copy
import dataclasses
import csv
import importlib
import importlib.util
import io
import json
import math
import os
import pathlib
import pickle
import re
import shutil
import subprocess
import sys
import warnings

import pytest

import gup_dosc
from gup_dosc import cli, fock, model, perturbation
from gup_dosc.cli import main, parse_config, to_json
from gup_dosc.errors import UsageError
from gup_dosc.params import CLUSTER_WINDOW, ModelParams, SpinorLevel

import corpus
import diff_parent

FAST = ["--cutoff", "12", "--levels", "4"]


def run_to_string(argv, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    return code, path.read_text(encoding="utf-8")


def test_parse_defaults_and_derived():
    cfg = parse_config(["spectrum", "--omega", "1", "--B", "1"])
    assert cfg.cutoff == 40 and cfg.levels == 8 and cfg.branch == "+"
    assert cfg.format == "text"
    assert cfg.params().omega_tilde == 0.5


def test_flag_overrides_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"omega": 1.0, "cutoff": 30}))
    cfg = parse_config(
        ["spectrum", "--config", str(config), "--cutoff", "50"]
    )
    assert cfg.cutoff == 50
    cfg = parse_config(["spectrum", "--config", str(config)])
    assert cfg.cutoff == 30


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"omega": 1.0, "omgea": 2.0}))
    with pytest.raises(UsageError, match="omgea"):
        parse_config(["spectrum", "--config", str(config)])


def test_config_command_mismatch_rejected(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"command": "scan", "omega": 1.0}))
    with pytest.raises(UsageError, match="does not match"):
        parse_config(["spectrum", "--config", str(config)])


def test_config_command_null_is_unset(tmp_path):
    # a null value counts as unset, the command's as every other's
    null, absent = tmp_path / "null.json", tmp_path / "absent.json"
    null.write_text(json.dumps({"command": None, "omega": 1.0}))
    absent.write_text(json.dumps({"omega": 1.0}))
    argv = ["spectrum", *FAST]
    code, text = run_to_string([*argv, "--config", str(null)], tmp_path)
    assert code == 0
    assert (code, text) == run_to_string([*argv, "--config", str(absent)], tmp_path,
                                         "absent.txt")


def test_cutoff_headroom_rule(monkeypatch, capsys):
    # level 40 does not fit in the interior n_a + n_b <= 18 of cutoff 20: the
    # config parses, and the level rows reject it before anything is solved
    argv = ["spectrum", "--omega", "1", "--levels", "40", "--cutoff", "20"]
    assert parse_config(argv).levels == 40
    monkeypatch.setattr(perturbation, "level_windows",
                        lambda *args: pytest.fail("a spectrum was solved"))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "usage error: state (n=40, spectator=0) too close to cutoff 20; raise the cutoff\n")


def test_validate_builds_every_shift_report_before_the_oracle_solves(monkeypatch, capsys):
    # the n = 2 cluster's spectator 3 does not fit in the interior
    # n_a + n_b <= 4 of cutoff 6: the level rows' one route call, on their
    # one a = 0 config, runs before the usage error, and no oracle
    # J-sector is built
    solved = []

    def recording(space, terms, levels, window):
        solved.append(terms)
        return model.level_windows(space, terms, levels, window)

    monkeypatch.setattr(perturbation, "level_windows", recording)
    monkeypatch.setattr(perturbation, "SectorBand",
                        lambda *args: pytest.fail("an oracle J-sector was built"))
    assert main(["validate", "--omega", "1", "--B", "1", "--gup-a", "1e-4",
                 "--cutoff", "6"]) == 2
    assert capsys.readouterr().err == (
        "usage error: state (n=2, spectator=3) too close to cutoff 6; raise the cutoff\n")
    assert len(solved) == 1


def test_only_spectrum_needs_headroom_for_its_levels(tmp_path, capsys):
    # degenerate never reads --levels: the default 8 at cutoff 10 changes
    # nothing but the echoed setting
    argv = ["degenerate", "--omega", "1", "--B", "1", "--gup-a", "1e-4", "--cutoff", "10"]
    code, default = run_to_string(argv, tmp_path, "default.txt")
    assert code == 0
    code, zero = run_to_string(argv + ["--levels", "0"], tmp_path, "zero.txt")
    assert code == 0
    assert default.replace("  levels: 8\n", "  levels: 0\n", 1) == zero
    assert default != zero
    # the default levels 8 need n = 8 in the interior: cutoff 10 and no less
    assert main(["spectrum", "--omega", "1", "--cutoff", "10"]) == 0
    assert main(["spectrum", "--omega", "1", "--cutoff", "9"]) == 2
    assert capsys.readouterr().err == (
        "usage error: state (n=8, spectator=0) too close to cutoff 9; raise the cutoff\n")


@pytest.mark.parametrize("levels", [0, 4, 8])
@pytest.mark.parametrize("b", ["0", "1"])
def test_spectrum_reaches_the_interior_top(levels, b, tmp_path):
    # cutoff = levels + 2: the highest level fills the interior n_a + n_b <= levels
    code, text = run_to_string(["spectrum", "--omega", "1", "--B", b, "--branch", "both",
                                "--levels", str(levels), "--cutoff", str(levels + 2),
                                "--format", "json"], tmp_path)
    assert code == 0
    rows = json.loads(text)["levels"]
    assert max(r["n"] for r in rows) == levels
    assert all(r["rel_error"] <= 1e-8 and r["multiplicity"] >= 1 for r in rows)


@pytest.mark.parametrize("command", ["spectrum", "correct", "degenerate", "scan",
                                     "validate"])
@pytest.mark.parametrize("cutoff", ["0", "1"])
def test_cutoffs_inside_the_margin_are_usage_errors(command, cutoff, capsys):
    extra = ["--B-min", "0", "--B-max", "3", "--steps", "3"] if command == "scan" else []
    assert main([command, *extra, "--omega", "1", "--gup-a", "1e-4", "--cutoff", cutoff]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"usage error: cutoff {cutoff} is below the interior margin 2\n"


def test_missing_omega_is_usage_error():
    assert main(["spectrum"]) == 2


def test_scan_range_required():
    assert main(["scan", "--omega", "1"]) == 2
    assert (
        main(["scan", "--omega", "1", "--B-min", "0", "--B-max", "3", "--steps", "1"])
        == 2
    )


def test_steps_above_the_limit_are_usage_errors(monkeypatch, tmp_path, capsys):
    # rejected while the config is parsed, before any field value is listed
    monkeypatch.setitem(cli._RUNNERS, "scan", lambda *args: pytest.fail("scan ran"))
    scan = ["scan", "--omega", "1", "--B-min", "0", "--B-max", "3"]
    assert parse_config(scan + ["--steps", str(cli.MAX_STEPS)]).steps == cli.MAX_STEPS
    with pytest.raises(UsageError, match="steps 10001 exceeds the limit 10000"):
        parse_config(scan + ["--steps", str(cli.MAX_STEPS + 1)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 10 ** 30}))
    for argv in (["--steps", str(10 ** 30)], ["--config", str(config)]):
        assert main(scan + argv) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: steps {10 ** 30} exceeds the limit 10000\n"


@pytest.mark.parametrize("b_min, b_max, steps", [
    ("0", "1e308", "4"), ("-1e308", "1e308", "3"), ("0", "1e305", "10000")])
def test_field_grids_beyond_the_float_range_are_usage_errors(b_min, b_max, steps):
    # the grid forms (B-max - B-min) i, i <= steps - 2, before it divides by
    # steps - 1: rejected while the config is parsed, where the span or a
    # product would overflow
    scan = ["scan", "--omega", "1", f"--B-min={b_min}", f"--B-max={b_max}", "--cutoff", "8"]
    with pytest.raises(UsageError, match=re.escape(
            "--B-min, --B-max and --steps span a field grid beyond the float range")):
        parse_config([*scan, "--steps", steps])


def test_the_widest_finite_field_grid_parses():
    config = parse_config(["scan", "--omega", "1", "--B-min=-1e307", "--B-max", "1e308",
                           "--steps", "2"])
    assert (config.B_max - config.B_min) * (config.steps - 1) == 1.1e308


def test_a_grid_whose_formed_products_are_finite_runs(tmp_path):
    # at 3 steps the grid forms (B-max - B-min) i for i <= 1 only, the last
    # value being B-max itself, so a span of 1e308 runs, where
    # (B-max - B-min) (steps - 1) would overflow
    argv = ["scan", "--omega", "1", "--B-min", "0", "--B-max", "1e308", "--steps", "3",
            "--cutoff", "8", "--format", "json"]
    config = parse_config(argv)
    assert math.isinf((config.B_max - config.B_min) * (config.steps - 1))
    code, text = run_to_string(argv, tmp_path)
    assert code == 0
    assert [point["B"] for point in json.loads(text)["points"]] == [0.0, 5e307, 1e308]


def test_unknown_tolerance_rejected():
    assert main(["spectrum", "--omega", "1", "--tol", "bogus=1e-9"]) == 2


def test_branch_flag_accepts_minus():
    cfg = parse_config(["spectrum", "--omega", "1", "--branch", "-"])
    assert cfg.branch == "-"


def test_spectrum_json_report(tmp_path):
    code, text = run_to_string(
        ["spectrum", "--omega", "0.1", "--format", "json"] + FAST, tmp_path
    )
    assert code == 0
    report = json.loads(text)
    assert report["command"] == "spectrum"
    rows = report["levels"]
    assert rows[0]["n"] == 0 and rows[0]["analytic"] == 1.0
    assert all(r["rel_error"] <= 1e-8 for r in rows)
    assert report["derived"]["critical_field"] == pytest.approx(0.2)


def test_spectrum_levels_zero_single_pair(tmp_path):
    code, text = run_to_string(
        ["spectrum", "--omega", "1", "--levels", "0", "--cutoff", "8",
         "--branch", "both", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    rows = json.loads(text)["levels"]
    assert [(r["n"], r["branch"]) for r in rows] == [(0, "+"), (0, "-")]
    assert sorted(r["analytic"] for r in rows) == [-1.0, 1.0]


def test_correct_reports_both_levels(tmp_path):
    code, text = run_to_string(
        ["correct", "--omega", "0.1", "--gup-a", "1e-4", "--format", "json"] + FAST,
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    shifts = [r["shifts"][0] for r in report["corrections"]]
    assert shifts[0] == -1.0
    assert shifts[1] == pytest.approx(-1.9225771273642582, abs=1e-12)


def test_correct_marks_absent_branch(tmp_path):
    code, text = run_to_string(
        ["correct", "--omega", "0.1", "--branch", "both", "--format", "json"] + FAST,
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    absent = [r for r in report["corrections"] if r.get("absent")]
    assert len(absent) == 1
    assert absent[0]["cluster_label"] == "n=0, branch -"


def test_degenerate_command(tmp_path):
    code, text = run_to_string(
        ["degenerate", "--omega", "0.1", "--gup-a", "1e-4", "--format", "json"]
        + FAST,
        tmp_path,
    )
    assert code == 0
    cluster = json.loads(text)["cluster"]
    assert len(cluster["shifts"]) == 4
    assert cluster["method"] == "degenerate"
    assert len(cluster["eigenvectors"]) == 4


def test_scan_csv_schema(tmp_path):
    code, text = run_to_string(
        ["scan", "--omega", "1", "--B-min", "0", "--B-max", "3", "--steps", "4",
         "--gup-a", "1e-4", "--cutoff", "10", "--levels", "4", "--format", "csv"],
        tmp_path,
        name="scan.csv",
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == (
        "B,omega_tilde,ground_shift,first_shift,"
        "n2_shift_1,n2_shift_2,n2_shift_3,n2_shift_4,"
        "degeneracy_counts_before,degeneracy_counts_after,error"
    )
    assert len(lines) == 5
    critical_row = lines[3].split(",")
    assert critical_row[0] == "2" and critical_row[1] == "0"
    assert critical_row[2] == "0"


def test_scan_json_has_critical_field(tmp_path):
    code, text = run_to_string(
        ["scan", "--omega", "1", "--B-min", "0", "--B-max", "3", "--steps", "4",
         "--gup-a", "1e-4", "--cutoff", "10", "--levels", "4", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    assert report["critical_B"] == 2.0
    assert len(report["points"]) == 4
    assert report["points"][2]["ground_shift"] == 0.0


def test_validate_exit_zero_with_allowlisted_rows(tmp_path):
    code, text = run_to_string(
        ["validate", "--omega", "1", "--B", "1", "--gup-a", "1e-4",
         "--cutoff", "14", "--levels", "4", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    assert report["passed"] is True and report["unexpected_discrepancies"] == []
    by_row = {r["row"]: r for r in report["rows"]}
    assert by_row["first-excited-shift"]["reference"] == -2.5
    discrepancies = {"first-excited-shift", "degenerate-block-basis"}
    assert {row: r["status"] for row, r in by_row.items()} == {
        row: "DISCREPANCY" if row in discrepancies else "MATCH" for row in [
            *(f"level n={n} branch {b}" for n in range(5) for b in ("+", "-")),
            "ground-shift", "ground-shift-oracle", "first-excited-shift",
            "first-excited-oracle", "degenerate-block-basis", "degenerate-block-eigenvalues",
            "degenerate-block-eigenvector", "critical-field"]}


def test_json_round_trip_values(tmp_path):
    code, text = run_to_string(
        ["correct", "--omega", "0.1", "--gup-a", "1e-4", "--format", "json"] + FAST,
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    assert to_json(json.loads(to_json(report))) == to_json(report)


@pytest.mark.parametrize("argv", [
    # each README example as the README writes it, one id per command
    *(pytest.param(list(row.argv), id=row.argv[0])
      for row in corpus.rows() if "readme" in row.tags),
    pytest.param(["spectrum", "--omega", "1", "--B", "1", "--tol", "cluster_window=1e-6",
                  "--tol", "degeneracy_window=2e-9", *FAST], id="tol"),
    pytest.param(["correct", "--omega", "1", "--B", "3", "--gup-a", "1e-4",
                  "--branch", "both", *FAST], id="branch-both"),
])
def test_config_echo_reproduces_report(argv, tmp_path):
    code, original = run_to_string(argv + ["--format", "json"], tmp_path, "orig.json")
    echoed = json.loads(original)["config"]
    assert echoed["tolerances"] == parse_config(argv).tolerances
    config_file = tmp_path / "echo.json"
    config_file.write_text(json.dumps(echoed))
    assert run_to_string([argv[0], "--config", str(config_file)], tmp_path,
                         "repro.json") == (code, original)


def test_no_trailing_whitespace_in_json(tmp_path):
    _, text = run_to_string(
        ["spectrum", "--omega", "0.1", "--format", "json"] + FAST, tmp_path
    )
    for line in text.split("\n"):
        assert line == line.rstrip()
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_text_format_alignment(tmp_path):
    code, text = run_to_string(
        ["spectrum", "--omega", "0.1", "--branch", "both"] + FAST, tmp_path
    )
    assert code == 0
    lines = text.split("\n")
    header = next(l for l in lines if l.startswith("n "))
    assert "analytic" in header and "multiplicity" in header


def _run_in_process(argv) -> tuple[int, str, str]:
    """(status, stdout, stderr) of main(argv), with no warning raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            status = main(list(argv))
        except SystemExit as exc:  # --help
            status = exc.code
    assert [str(w.message) for w in caught] == []
    return status, out.getvalue(), err.getvalue()


def _corpus_test(section):
    @pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in corpus.rows()
                                     if row.section == section])
    def test(row):
        corpus.check(row, *_run_in_process(row.argv))
    return test


# Each [name] section of tests/commands.txt runs as the test `name`, one
# pytest id per row
for _section in dict.fromkeys(row.section for row in corpus.rows()):
    globals()[_section] = _corpus_test(_section)


def test_the_critical_field_row_scales_with_omega(tmp_path):
    # the reduced frequency at the critical field is a difference of two
    # terms of size omega = 1e4: its roundoff, -1.8e-12, is relative to omega
    code, text = run_to_string(["validate", "--omega", "1e4", "--mass", "0.7",
                                "--light-speed", "7", "--B", "1", "--gup-a", "1e-4",
                                "--cutoff", "12", "--format", "json"], tmp_path)
    report = json.loads(text)
    assert code == 0 and report["unexpected_discrepancies"] == []
    (row,) = [r for r in report["rows"] if r["row"] == "critical-field"]
    assert row["status"] == "MATCH" and row["computed"] == row["reference"] == 98000
    assert row["detail"].endswith("-1.8189894035458565e-12")


# The numeric input table: each numeric setting, as a flag and as a config
# key, takes each of these values, the other settings at TABLE_BASE.
TABLE_VALUES = [2.0, 0, -1, float("nan"), float("inf"), 10 ** 400, 1e308, 5e-324]
TABLE_IDS = ["finite", "zero", "negative", "nan", "inf", "huge-int", "huge-float",
             "subnormal"]
TABLE_BASE = {"omega": 1.0, "B": 1.0, "gup_a": 1e-4}
TABLE_COMMANDS = {"spectrum": [], "correct": [], "degenerate": [], "validate": [],
                  "scan": ["--B-min", "0", "--B-max", "3", "--steps", "3"]}


def _table_settings(values, via, tmp_path) -> list[str]:
    if via == "flag":
        return [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))  # nan and inf as NaN and Infinity
    return ["--config", str(config)]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", TABLE_VALUES, ids=TABLE_IDS)
@pytest.mark.parametrize("key", ["omega", "B", "gup_a", "mass", "light_speed", "hbar",
                                 "charge"])
def test_every_numeric_input_exits_cleanly(key, value, via, tmp_path, capsys):
    settings = _table_settings(dict(TABLE_BASE, **{key: value}), via, tmp_path)
    for command, extra in TABLE_COMMANDS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, *extra, "--cutoff", "12", *settings])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        # B = 1 lies beyond the critical field at these omegas, where the level
        # rows still compare against the signed reduced frequency (ROADMAP
        # item 2): a known computation failure
        collapse = (command in ("spectrum", "validate") and key == "omega"
                    and value in (0, 5e-324))
        assert (code == 3) == collapse, (command, err)
        if code == 3:
            assert "branch collapse" in json.loads(err)["error"]
        elif code == 2:
            assert err.count("\n") == 1 and err.startswith("usage error:"), err
        else:
            assert code == 0 or (code == 1 and command == "validate")
            assert out and err == ""


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", TABLE_VALUES, ids=TABLE_IDS)
@pytest.mark.parametrize("key", ["cutoff", "levels", "steps"])
def test_every_integer_input_parses_or_is_a_usage_error(key, value, via, tmp_path):
    # parsed only: a large cutoff or --steps is never run
    values = {"omega": 1.0, "cutoff": 12, "levels": 4, key: value}
    for command, extra in TABLE_COMMANDS.items():
        argv = [command, *extra, *_table_settings(values, via, tmp_path)]
        try:
            config = parse_config(argv)
            fock.FockSpace(config.cutoff)
        except UsageError:
            continue
        assert type(getattr(config, key)) is int and config.levels >= 0
        assert command != "scan" or 2 <= config.steps <= cli.MAX_STEPS


@pytest.mark.parametrize("name", ["cluster_window", "degeneracy_window"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_non_finite_tolerances_are_usage_errors(name, value, via, tmp_path, capsys):
    argv = ["spectrum", "--omega", "1"] + FAST
    if via == "flag":
        argv += ["--tol", f"{name}={value}"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tolerances": {name: float(value)}}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: tolerance {name!r} must be finite, got {float(value)!r}\n"


@pytest.mark.parametrize("tolerances", [None, {"cluster_window": None},
                                        {"degeneracy_window": None, "cluster_window": 1e-9}])
def test_null_tolerances_take_their_defaults(tolerances, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"omega": 1.0, "tolerances": tolerances}))
    argv = ["spectrum", *FAST, "--format", "json"]
    code, text = run_to_string([*argv, "--config", str(config)], tmp_path)
    assert code == 0
    assert json.loads(text)["config"]["tolerances"] == {
        "cluster_window": 1e-9, "degeneracy_window": 1e-9}
    assert (code, text) == run_to_string([*argv, "--omega", "1"], tmp_path, "default.txt")


@pytest.mark.parametrize("key, value, named", [
    ("omega", True, "omega"),
    ("B", "1", "B"),
    ("B_min", [0], "B_min"),
    ("cutoff", 12.5, "cutoff"),
    ("levels", False, "levels"),
    ("steps", True, "steps"),
    ("branch", 7, "branch"),
    ("format", True, "format"),
    ("output", -1, "output"),
    ("tolerances", {"cluster_window": True}, "cluster_window"),
    # integers too large for a float
    pytest.param("omega", 10 ** 400, "omega", id="omega-huge-int"),
    pytest.param("B_min", 10 ** 400, "B_min", id="B_min-huge-int"),
    pytest.param("tolerances", {"cluster_window": 10 ** 400}, "cluster_window",
                 id="tolerance-huge-int"),
    # a tolerance is a JSON number, as omega is; only --tol reads text
    pytest.param("tolerances", {"cluster_window": "1e-9"}, "cluster_window",
                 id="tolerance-string"),
])
def test_config_values_are_type_checked(key, value, named, tmp_path, capsys):
    values = {"omega": 1.0, "B_min": 0.0, "B_max": 1.0, "steps": 2, "cutoff": 12,
              "levels": 4, key: value}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    assert main(["scan", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error:")
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("b", ["0", "1"])
def test_spectrum_and_validate_share_their_level_rows(tmp_path, b):
    argv = ["--omega", "1", "--B", b, "--gup-a", "1e-4", "--branch", "both",
            "--format", "json", *FAST]
    reports = {}
    for command in ("spectrum", "validate"):
        code, text = run_to_string([command, *argv], tmp_path, f"{command}.json")
        assert code == 0
        reports[command] = json.loads(text)
    spectrum = {(r["n"], r["branch"]): (r["analytic"], r["exact_nearest"])
                for r in reports["spectrum"]["levels"]}
    validate = {(int(n), branch): (r["reference"], r["computed"])
                for r in reports["validate"]["rows"]
                for n, branch in re.findall(r"^level n=(\d+) branch ([+-])$", r["row"])}
    assert len(spectrum) == 10 and validate == spectrum


def test_levels_closer_than_the_oracle_window_are_usage_errors(capsys):
    # omega = 1e-12: neighbouring levels of one J-sector lie 2e-12 m c^2 apart,
    # inside the 1e-9 m c^2 window, so the stencil cannot single out the state
    assert main(["correct", "--omega", "1e-12", "--gup-a", "1e-4", *FAST]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error: oracle stencil step")
    assert "J-sector 0 " in err


def test_correct_and_validate_give_one_oracle_verdict(tmp_path):
    # at omega = 1e6 and m = 0.7 the n = 1 slope misses its shift by 2.8e-6
    # relative, beyond ORACLE_RTOL = 1e-6; whatever the gap, the two commands
    # give one verdict on each slope
    argv = ["--omega", "1e6", "--mass", "0.7", "--B", "1", "--gup-a", "1e-4",
            "--cutoff", "12", "--format", "json"]
    code, text = run_to_string(["correct", *argv], tmp_path)
    assert code == 0
    corrections = json.loads(text)["corrections"]
    code, text = run_to_string(["validate", *argv], tmp_path, "validate.json")
    rows = {r["row"]: r for r in json.loads(text)["rows"]}
    for report, row in zip(corrections, ("ground-shift-oracle", "first-excited-oracle")):
        (slope,), (shift,) = report["oracle_slopes"], report["shifts"]
        assert (rows[row]["computed"], rows[row]["reference"]) == (slope, shift)
        flag = f"oracle slope {slope!r} disagrees with shift {shift!r}"
        assert (flag in report["discrepancy_flags"]) == (rows[row]["status"] == "DISCREPANCY")


def test_critical_field_reports_carry_their_level_energy(tmp_path):
    code, text = run_to_string(["correct", "--omega", "1", "--B", "2", "--gup-a", "1e-4",
                                "--branch", "both", "--format", "json", *FAST], tmp_path)
    assert code == 0
    energies = {r["cluster_label"]: r.get("unperturbed_energy")
                for r in json.loads(text)["corrections"]}
    assert energies == {"n=0, branch +": 1, "n=0, branch -": None,
                        "n=1, branch +": 1, "n=1, branch -": -1}


def test_internal_failure_exit_three(monkeypatch, capsys):
    def broken(config, p, space):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", broken)
    assert main(["spectrum", "--omega", "1"] + FAST) == 3
    body = json.loads(capsys.readouterr().err)
    assert body == {"error": "float division by zero", "kind": "internal",
                    "type": "ZeroDivisionError"}


def test_scan_csv_histograms_sorted_numerically(tmp_path):
    code, text = run_to_string(
        ["scan", "--omega", "1", "--B-min", "0", "--B-max", "1", "--steps", "2",
         "--cutoff", "14", "--levels", "4", "--format", "csv"],
        tmp_path,
        name="scan.csv",
    )
    assert code == 0
    for row in list(csv.DictReader(io.StringIO(text))):
        for key in ("degeneracy_counts_before", "degeneracy_counts_after"):
            sizes = [int(cell.split(":")[0]) for cell in row[key].split(";")]
            assert sizes == sorted(sizes)
    assert row["degeneracy_counts_before"].startswith("1:2;2:2;3:2;")


DENSE_ASSEMBLY = ("build_h0", "build_h_prime", "compress", "p_squared",
                  "p_squared_ladder_form", "position_ops", "momentum_ops",
                  "angular_momentum", "ladder_a", "ladder_b", "embed_spinor",
                  "OscParams", "adjoint", "commutator")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega", "1", "--B", "1"],
    ["correct", "--omega", "1", "--B", "1", "--gup-a", "1e-4"],
    ["degenerate", "--omega", "1", "--B", "3", "--gup-a", "1e-4"],
    ["scan", "--omega", "1", "--B-min", "0", "--B-max", "3", "--steps", "4",
     "--gup-a", "1e-4", "--format", "csv"],
    ["validate", "--omega", "1", "--B", "1", "--gup-a", "1e-4"],
])
def test_commands_never_assemble_dense_operators(argv, tmp_path):
    # the dense reference algebra lives in tests/reference.py only
    for path in sorted(pathlib.Path(gup_dosc.__file__).parent.glob("*.py")):
        name = "gup_dosc" if path.stem == "__init__" else f"gup_dosc.{path.stem}"
        module = importlib.import_module(name)
        assert [n for n in DENSE_ASSEMBLY if hasattr(module, n)] == [], name
        source = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import)\s+[\w.]*reference\b", source, re.M), name
    code, text = run_to_string(argv + FAST, tmp_path)
    assert code == 0 and text


def test_spectrum_beyond_dense_reach(tmp_path):
    # one dense operator at cutoff 80 would take 13122^2 complex entries, 2.7 GB
    code, text = run_to_string(
        ["spectrum", "--omega", "1", "--B", "1", "--cutoff", "80", "--levels", "6",
         "--format", "json"],
        tmp_path,
    )
    assert code == 0
    rows = json.loads(text)["levels"]
    assert all(r["rel_error"] <= 1e-12 for r in rows)
    assert [r["multiplicity"] for r in rows] == [79 - r["n"] for r in rows]


def test_reports_do_not_depend_on_the_blas_thread_count():
    # each README example that may load numpy (`corpus.may_load_numpy`, the
    # scan) in json, under the package's default of one OpenBLAS thread and
    # under a user's setting of two
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gup_dosc.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    for argv in (row.argv for row in corpus.rows()
                 if "readme" in row.tags and corpus.may_load_numpy(row)):
        reports = [
            subprocess.run([sys.executable, "-m", "gup_dosc.cli", *argv, "--format", "json"],
                           env=dict(env, **threads), check=True, capture_output=True,
                           timeout=120).stdout
            for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"})
        ]
        assert reports[0] and reports[0] == reports[1], argv


def test_only_the_cli_freezes_the_import_heap():
    # gc.freeze is a side effect of a command run alone, once its report is
    # built: a library import or call leaves the collector as it found it, a
    # run that solves, here a scan's dense spectra, freezes the numpy it
    # loaded, and a second run in the process freezes nothing
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gup_dosc.__file__).parents[1]))
    code = (
        "import gc, json, os\n"
        "import gup_dosc\n"
        "from gup_dosc import cli\n"
        "counts = [gc.get_freeze_count()]\n"
        "gup_dosc.first_order_shift(gup_dosc.FockSpace(12),\n"
        "                           gup_dosc.ModelParams(1.0, b_field=1.0, gup_a=1e-4), 0)\n"
        "counts.append(gc.get_freeze_count())\n"
        "argv = ['scan', '--omega', '1', '--B-min', '0', '--B-max', '3', '--steps', '2',\n"
        "        '--gup-a', '1e-4', '--cutoff', '12', '--output', os.devnull]\n"
        "assert cli.main(argv) == 0\n"
        "import numpy\n"
        "frozen = id(vars(numpy)) not in {id(o) for o in gc.get_objects()}\n"
        "counts.append(gc.get_freeze_count())\n"
        "assert cli.main(argv) == 0\n"
        "counts.append(gc.get_freeze_count())\n"
        "print(json.dumps([counts, frozen]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    (imported, library, first_run, second_run), numpy_frozen = json.loads(out)
    assert imported == library == 0
    assert first_run > 0 and numpy_frozen
    assert second_run == first_run


# modules the parse path must not load: numpy, and the standard-library modules
# that the value types, the emitters and validate's reference used to pull in
LEAN = ("numpy", "inspect", "dataclasses", "json", "csv", "typing", "fractions", "decimal",
        "numbers")


def test_the_parse_path_loads_no_numpy():
    # the CLI import and parse_config on every perfbench workload's argv and
    # each run below load none of LEAN. The runs are every row of
    # tests/commands.txt that `corpus.may_load_numpy` forbids numpy, in each
    # of its diff_parent.variants; each passes its row's checks (a variant
    # all but the row's strings, which are those of its own format) and loads
    # no numpy, and only its emitter besides (json for a json report or an
    # exit 3 error body, csv for a csv one) and, in the run whose message
    # names the cutoff limit (`FockSpace`), decimal and the numbers module it
    # loads.
    # The child runs without site, where no .pth file preloads typing, with
    # numpy's directory on its path, so that a run that loads numpy shows
    # here; it reads its argv lists as tab-separated lines, not JSON
    runs = [(row, argv) for row in corpus.rows() if not corpus.may_load_numpy(row)
            for argv in diff_parent.variants(row.argv)]
    numpy_dir = pathlib.Path(importlib.util.find_spec("numpy").origin).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        map(str, (pathlib.Path(gup_dosc.__file__).parents[1], numpy_dir))))
    workloads = json.loads(subprocess.run(
        [sys.executable, "-c",
         "import json, random, sys\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "import run as bench\n"
         "print(json.dumps([bench._argv(call)\n"
         "                  for name, workload in sorted(bench.WORKLOADS.items())\n"
         "                  for call in workload(random.Random(f'{name}:1'))]))\n",
         str(pathlib.Path(__file__).parents[1] / "perfbench")],
        env=env, check=True, capture_output=True, text=True, timeout=60).stdout)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "def loaded():\n"
        f"    return [m for m in {LEAN!r} if m in sys.modules and m not in before]\n"
        "from gup_dosc import cli\n"
        "found = [loaded()]\n"
        "argvs = [line.split('\\t') if line else [] for line in sys.stdin.read().split('\\n')]\n"
        "rows = argvs[int(sys.argv[1]):]\n"
        "import contextlib, io\n"
        "def quiet(call, argv):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            status = call(argv)\n"
        "        except (cli.UsageError, SystemExit) as exc:\n"
        "            status = getattr(exc, 'code', None)\n"
        "    return [status, out.getvalue(), err.getvalue()]\n"
        "for argv in argvs[:int(sys.argv[1])]:\n"
        "    cli.parse_config(argv)\n"
        "for argv in rows:\n"
        "    quiet(cli.parse_config, argv)\n"
        "found.append(loaded())\n"
        "exits = [[*quiet(cli.main, argv), loaded()] for argv in rows]\n"
        "import json\n"
        "print(json.dumps([found, exits]))\n"
    )
    argvs = [*workloads, *(argv for _, argv in runs)]
    assert all("\t" not in arg and "\n" not in arg for argv in argvs for arg in argv)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(len(workloads))],
        input="\n".join("\t".join(argv) for argv in argvs),
        env=env, check=True, capture_output=True, text=True, timeout=60).stdout
    (imported, parsed), exits = json.loads(out)
    assert imported == parsed == []
    seen = set()
    for (row, argv), (status, stdout, stderr, ran) in zip(runs, exits, strict=True):
        checked = row if argv == row.argv else dataclasses.replace(row, strings=())
        corpus.check(checked, status, stdout, stderr)
        allowed = {m for m in ("json", "csv") if m in argv} | ({"json"} if status == 3 else set())
        if f"exceeds the limit {fock.MAX_CUTOFF}" in stderr:
            allowed |= {"decimal", "numbers"}
        assert set(ran) - seen <= allowed, argv
        seen = set(ran)


def test_one_parser_per_process_and_parses_stay_independent():
    assert cli._build_parser() is cli._build_parser()
    tuned = parse_config(["spectrum", "--omega", "1", "--tol", "cluster_window=1e-8"])
    plain = parse_config(["spectrum", "--omega", "1"])
    assert tuned.tolerances["cluster_window"] == 1e-8
    assert plain.tolerances == dict.fromkeys(("cluster_window", "degeneracy_window"),
                                             CLUSTER_WINDOW)


def test_a_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"omega": 1}')
    assert main(["spectrum", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"usage error: config file {path} is not UTF-8 text: ")


@pytest.mark.parametrize("make, change, invalid, text", [
    (lambda: ModelParams(omega=1.0), {"omega": 2.0}, lambda p: p.with_field(math.nan),
     "ModelParams(omega=1.0, b_field=0.0, gup_a=0.0, mass=1.0, light_speed=1.0, hbar=1.0, "
     "charge=1.0)"),
    (lambda: SpinorLevel(n=1, branch="-", energy=-3.0, c_n=-0.5, d_n=0.75), {"n": 2}, None,
     "SpinorLevel(n=1, branch='-', energy=-3.0, c_n=-0.5, d_n=0.75)"),
    (lambda: fock.FockSpace(12), {"cutoff": 13}, lambda s: s.replace(cutoff=1),
     "FockSpace(cutoff=12)"),
    (lambda: cli.Option("steps", int, None, "field values", scan_only=True), {"key": "B"},
     None, "Option(key='steps', type=<class 'int'>, default=None, help='field values', "
     "choices=None, param=None, scan_only=True)"),
    (lambda: perturbation.PTReport(cluster_label="n=0, branch +", unperturbed_energy=1.0,
                                   method="nondegenerate", subspace_matrix=((0j,),),
                                   shifts=[-1.0]), {"shifts": [-2.0]}, None,
     "PTReport(cluster_label='n=0, branch +', unperturbed_energy=1.0, "
     "method='nondegenerate', subspace_basis=(), subspace_matrix=((0j,),), "
     "shifts=[-1.0], shifts_energy=(), oracle_slopes=(), discrepancy_flags=(), "
     "breakdown=None, eigenvectors=None, sectors=())"),
    (lambda: cli.RunConfig("spectrum", {"omega": 1.0}, {}), {"command": "correct"}, None,
     "RunConfig(command='spectrum', values={'omega': 1.0}, tolerances={})"),
], ids=["ModelParams", "SpinorLevel", "FockSpace", "Option", "PTReport", "RunConfig"])
def test_value_types_keep_frozen_dataclass_semantics(make, change, invalid, text):
    value = make()
    # a report holds lists, a run config dicts: neither hashes
    hashable = not isinstance(value, (perturbation.PTReport, cli.RunConfig))
    assert value == make() and value is not make()
    if hashable:
        assert hash(value) == hash(make())
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert repr(value) == text
    ((key, new),) = change.items()
    with pytest.raises(AttributeError):
        setattr(value, key, new)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert copied == value and repr(copied) == text
        assert not hashable or hash(copied) == hash(value)
    changed = value.replace(**change)
    assert type(changed) is type(value) and changed != value and value == make()
    if invalid is not None:
        with pytest.raises(UsageError):
            invalid(value)


def test_diff_parent_reports_exactly_the_runs_whose_bytes_differ(tmp_path):
    src = pathlib.Path(gup_dosc.__file__).parents[1]
    same, changed = tmp_path / "same", tmp_path / "changed"
    for copy in (same, changed):
        shutil.copytree(src / "gup_dosc", copy / "gup_dosc",
                        ignore=shutil.ignore_patterns("__pycache__"))
    # perturbation.OVER_CRITICAL flags every shift report beyond the critical field
    module = changed / "gup_dosc" / "perturbation.py"
    source = module.read_text(encoding="utf-8")
    module.write_text(source.replace('"over-critical: ', '"beyond B_c: ', 1), encoding="utf-8")
    assert module.read_text(encoding="utf-8") != source
    rows = [corpus.parse(line) for line in (
        "0 correct --omega 1 --B 3 --gup-a 1e-4 --cutoff 12 --format json",
        "0 correct --omega 1 --B 1 --gup-a 1e-4 --cutoff 12 --format json",
        "2 spectrum --omega nan")]
    assert list(diff_parent.differences(rows, src, same)) == []
    ((argv, lines),) = diff_parent.differences(rows, src, changed)
    assert argv == rows[0].argv and len(lines) == 1 and "beyond B_c: " in lines[0]


def test_every_public_name_resolves():
    # the solver names load on first use (PEP 562) and are perturbation's own
    namespace = {}
    exec("from gup_dosc import *", namespace)
    for name in gup_dosc.__all__:
        assert getattr(gup_dosc, name) is namespace[name], name
    for name in ("PTReport", "critical_field", "field_scan", "validation_report"):
        assert namespace[name] is getattr(perturbation, name)
    with pytest.raises(AttributeError, match="has no attribute 'build_h0'"):
        gup_dosc.build_h0
