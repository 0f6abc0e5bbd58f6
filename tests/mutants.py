"""Seeded mutants of the package, each with the tests that must kill it: a
mutant is killed when one of its tests fails.

    python tests/mutants.py

Each row of MUTANTS replaces one exact text, which must occur once, in one
module of src/gup_dosc. The mutant lives in a copy of src in a temporary
directory, and the tree is never edited. Its tests run under pytest, with
PYTHONPATH pointing at the copy and the temporary directory as the working
directory, stopping at the first failure. The tests of every row must first
pass on an unmutated copy. A row whose last field is a reason, not tests,
records an equivalent mutant, which no input tells from the program: its
text must still occur once, and it is not run. The script prints each
mutant's fate and seconds, and "k of n mutants killed, e equivalent, in t s",
and exits 1 unless every mutant is killed or equivalent.
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

ACCEPTANCE = "tests/test_acceptance.py::test_criterion_"
PERTURBATION = "tests/test_perturbation.py::"
PROPERTIES = "tests/test_properties.py::"
CERTIFIED = PERTURBATION + "test_band_eigenvalues_are_certified_or_refused_at_any_strength"
DENSE_BAND = PROPERTIES + "test_band_eigenvalues_and_counts_equal_the_dense_reference"
N_ORDER = PROPERTIES + "test_band_entries_are_the_sector_blocks_in_n_order"
JACOBI = PROPERTIES + "test_jacobi_rotations_keep_the_eigh_contract"
STORED = PERTURBATION + "test_the_stored_block_solver_keeps_the_error_kinds_of_eigh"
SORTED_DIAGONAL = PROPERTIES + "test_degenerate_shifts_are_the_sorted_diagonal"
NEAREST = PROPERTIES + "test_nearest_levels_equal_the_first_minimum_and_the_window_count"
RAYLEIGH = PERTURBATION + "test_the_rayleigh_step_certifies_every_stencil_eigenvalue"
# corpus sections of tests/commands.txt, each run as one test of test_cli.py
USAGE_ROWS = "tests/test_cli.py::test_inputs_that_are_one_line_usage_errors"
KNOWN_GAPS = "tests/test_cli.py::test_known_gaps_keep_their_status"

# (name, module, old text, new text, the tests that must kill it, or the
# reason why the mutant is equivalent)
MUTANTS = [
    ("_count's zero pivot taken as +pivmin, not -pivmin", "model.py",
     "            d = -pivmin\n        if d < 0.0:",
     "            d = pivmin\n        if d < 0.0:", (NEAREST,)),
    ("_count counts the positive pivots", "model.py",
     "        if d < 0.0:\n            below += 1",
     "        if d > 0.0:\n            below += 1", (CERTIFIED,)),
    ("the Weyl radius cut to its slack", "model.py",
     "radius = abs(deform) * self.norm + slack", "radius = slack", (CERTIFIED,)),
    ("FUDGE = 0", "model.py", "FUDGE = 2.1", "FUDGE = 0.0", (CERTIFIED, DENSE_BAND)),
    ("the Rayleigh-quotient candidate taken without its index confirmation", "model.py",
     "            if (residual <= bound and _count(band, theta - delta, pivmin) == k\n"
     "                    and _count(band, theta + delta, pivmin) == k + 1):",
     "            if residual <= bound:",
     (PERTURBATION + "test_an_inconsistent_count_is_an_internal_error",)),
    ("_inverse_step's back-substitution with a sign flipped", "model.py",
     "x1, x2 = y[i] - l1s[i + 1] * x1 - l2s[i + 2] * x2, x1",
     "x1, x2 = y[i] + l1s[i + 1] * x1 - l2s[i + 2] * x2, x1", (CERTIFIED, RAYLEIGH)),
    ("_residual's Rayleigh quotient over v.v, not v.Av", "model.py",
     "theta = math.fsum(x * y for x, y in zip(v, av)) / norm",
     "theta = math.fsum(x * x for x, y in zip(v, av)) / norm", (RAYLEIGH,)),
    ("the band's headroom check dropped", "model.py",
     "        if not math.isfinite(4.0 * n * reach):",
     "        if not math.isfinite(4.0 * n * reach) and False:", (CERTIFIED,)),
    ("the band's bracket count check dropped", "model.py",
     "        if (below, above) != (k, k + 1):", "        if False:",
     (PERTURBATION + "test_an_inconsistent_count_is_an_internal_error",)),
    ("the band's inverse-iteration residual bound dropped", "model.py",
     "            if residual <= bound:\n                return theta",
     "            if True:\n                return theta",
     (PERTURBATION + "test_a_residual_over_its_bound_is_an_internal_error",)),
    ("a coupling root one quantum off", "model.py",
     "k_a * math.sqrt(m_a + 1.0) if up", "k_a * math.sqrt(m_a + 2.0) if up",
     ("tests/test_model.py::test_sectors_equal_dense_interior_blocks",)),
    ("window_count's scaling dropped", "model.py",
     "scale = 2.0 ** -max(0, math.frexp(largest)[1])", "scale = 1.0",
     (PERTURBATION + "test_window_count_refuses_windows_below_its_resolution",
      PERTURBATION + "test_chain_counts_hold_up_to_the_float_range_of_their_pivots")),
    ("window_edges' TwoSum correction dropped", "model.py",
     "    return (a - (total - part)) + (b - part)", "    return 0.0", (NEAREST,)),
    ("window_edges' upper edge one float beyond", "model.py",
     "    return low, high", "    return low, math.nextafter(high, math.inf)", (NEAREST,)),
    ("window_count counts from its lower edge, not below it", "model.py",
     "below = math.nextafter(low, -math.inf)", "below = low", (NEAREST,)),
    ("window_count's lower sigma not lowered by the pivot floor", "model.py",
     "below * scale - PIVMIN, PIVMIN))", "below * scale, PIVMIN))", (NEAREST,)),
    ("nearest_level counts one run short of the window", "model.py",
     "runs[lo:hi])", "runs[lo:hi - 1])", (NEAREST,)),
    ("nearest_level takes the upper of two equally near runs", "model.py",
     "energy - runs[i - 1][0] <= runs[i][0] - energy",
     "energy - runs[i - 1][0] < runs[i][0] - energy", (NEAREST,)),
    ("sector_stacks assigns its off-diagonal entries where it adds them", "model.py",
     "            stack[:, lower, upper] += entries\n"
     "            stack[:, upper, lower] += entries",
     "            stack[:, lower, upper] = entries\n"
     "            stack[:, upper, lower] = entries", (N_ORDER,)),
    ("sector_stacks in the band's N order", "model.py",
     'row[np.argsort(~up, kind="stable")] = np.arange(len(up))',
     "row[:] = np.arange(len(up))", (N_ORDER,)),
    ("the stored block's square-matrix check dropped", "perturbation.py",
     "    if not n or any(len(row) != n for row in rows):", "    if not n:", (STORED,)),
    ("the stored block's finite-entry check dropped", "perturbation.py",
     '        raise UsageError("matrix contains non-finite entries")', "        pass",
     (STORED,)),
    ("the Jacobi moment checks dropped", "perturbation.py",
     "        if not gap <= bound:\n            raise ComputationError(message",
     "        if False:\n            raise ComputationError(message", (STORED,)),
    ("the Jacobi sweep limit never reached", "perturbation.py",
     "        if sweeps == JACOBI_SWEEPS:", "        if sweeps < 0:",
     (PERTURBATION + "test_jacobi_rotations_left_unfinished_are_an_internal_error",)),
    ("the Jacobi residual bound dropped", "perturbation.py",
     '    if not residual <= bound:\n        raise ComputationError(f"Jacobi residual',
     '    if False:\n        raise ComputationError(f"Jacobi residual',
     (PERTURBATION + "test_a_jacobi_residual_over_its_bound_is_an_internal_error",)),
    ("the Jacobi orthonormality check dropped", "perturbation.py",
     "    if not ortho <= 1e-10:", "    if False:",
     "the columns are products of the rotations that diagonalize the "
     "block, so a rotation that loses unitarity changes the eigenvalues too, which "
     "the moment check refuses first (each cosine 1% off gives a second-moment gap "
     "of 4.2e-2); no input reaches the orthonormality check alone"),
    ("the Jacobi orthonormality defect taken without the conjugate", "perturbation.py",
     "abs(sum(x.conjugate() * y for x, y in zip(a, b))",
     "abs(sum(x * y for x, y in zip(a, b))", (JACOBI,)),
    ("the Jacobi eigenvectors' phase fix dropped", "perturbation.py",
     "        if size > 0.0:\n            column = [x * (column[top].conjugate() / size)",
     "        if size < 0.0:\n            column = [x * (column[top].conjugate() / size)",
     (JACOBI,)),
    ("the Jacobi rotation's phase not conjugated", "perturbation.py",
     "s, phase = t * c, (h[p][q] / r).conjugate()", "s, phase = t * c, h[p][q] / r",
     (JACOBI,)),
    ("the shift unit squared in a", "params.py", "self.gup_a * self.light_speed",
     "self.gup_a ** 2 * self.light_speed", (ACCEPTANCE + "9_linearity_and_determinism",)),
    ("the first-order shift's sign flipped", "perturbation.py",
     "    return -math.copysign(1.0, p.omega_tilde) * total",
     "    return math.copysign(1.0, p.omega_tilde) * total",
     (ACCEPTANCE + "2_ground_state_correction",)),
    ("the critical field halved", "params.py", "return 2.0 * self.omega",
     "return 1.0 * self.omega", (ACCEPTANCE + "4_critical_field",)),
    ("with_field keeps the old field", "params.py", "        return self.replace(b_field=b_field)",
     "        return self", ("tests/test_model.py::test_reduced_frequency",)),
    ("a degenerate report's shifts all its lowest", "perturbation.py",
     "shifts = [diagonal[i].real for i in order]",
     "shifts = [diagonal[order[0]].real for i in order]", (SORTED_DIAGONAL,)),
    ("a degenerate report's eigenvectors all its first column", "perturbation.py",
     "complex(r == i) for i in order", "complex(r == order[0]) for i in order",
     (SORTED_DIAGONAL,)),
    ("a scan point's after config deformed at a = 0", "perturbation.py",
     "for alpha in (0.0, p.alpha_gup)]", "for alpha in (0.0, p.alpha_gup or 1e-3)]",
     (ACCEPTANCE + "5_degeneracy_lifting",)),
    ("the window noise floor lowered to 1e-21", "perturbation.py",
     "    if window < 1e-12:", "    if window < 1e-21:", (USAGE_ROWS,)),
    ("csv output allowed for every command", "cli.py",
     'if values["format"] == "csv" and command != "scan":', "if False:", (USAGE_ROWS,)),
    ("an unwritable output file not caught", "cli.py", "        except OSError as exc:",
     "        except ValueError as exc:", (USAGE_ROWS,)),
    ("a computation error exits 1", "cli.py", "        return 3\n    except Exception",
     "        return 1\n    except Exception", (KNOWN_GAPS,)),
    ("the config echo keeps only default tolerances", "cli.py",
     "dict(sorted(self.tolerances.items()))", "dict.fromkeys(sorted(self.tolerances), 1e-9)",
     ("tests/test_cli.py::test_config_echo_reproduces_report",)),
    ("eigh's eigenvalues descending", "numerics.py",
     "        w, v = np.linalg.eigh(h)\n    except",
     "        w, v = np.linalg.eigh(h)\n        w, v = w[::-1], v[:, ::-1]\n    except",
     (ACCEPTANCE + "8_eigensolver_contract",)),
]


def run_tests(src: pathlib.Path, tests) -> subprocess.CompletedProcess:
    """pytest on `tests`, stopping at the first failure, with the package
    taken from `src` and the working directory beside it."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(str(ROOT / test) for test in tests)],
        cwd=src.parent, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True)


def mutated_run(tests, module: str = "", old: str = "", new: str = ""):
    """The tests' run on a copy of src, with `old` replaced by `new` in
    `module` if one is named."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if module:
            path = src / "gup_dosc" / module
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                sys.exit(f"{module}: {old!r} does not occur exactly once")
            path.write_text(text.replace(old, new), encoding="utf-8")
        return run_tests(src, tests)


def main() -> int:
    tests = list(dict.fromkeys(test for *_, row_tests in MUTANTS
                               if not isinstance(row_tests, str) for test in row_tests))
    start = time.perf_counter()
    unmutated = mutated_run(tests)
    if unmutated.returncode != 0:
        print(unmutated.stdout[-3000:], unmutated.stderr[-3000:], sep="\n")
        print("the mutants' tests fail on the unmutated tree")
        return 1
    killed = equivalent = 0
    for name, module, old, new, row_tests in MUTANTS:
        if isinstance(row_tests, str):
            text = (ROOT / "src" / "gup_dosc" / module).read_text(encoding="utf-8")
            if text.count(old) != 1:
                sys.exit(f"{module}: {old!r} does not occur exactly once")
            equivalent += 1
            print(f"equivalent: {name} ({module}): {row_tests}")
            continue
        began = time.perf_counter()
        result = mutated_run(row_tests, module, old, new)
        # pytest exits 1 when a test fails, and 2 or more when it cannot run them
        fate = {0: "SURVIVED", 1: "killed"}.get(result.returncode,
                                                 f"ERROR (pytest exit {result.returncode})")
        killed += fate == "killed"
        print(f"{fate}: {name} ({module}), {time.perf_counter() - began:.1f} s")
        if fate != "killed":
            print(result.stdout[-3000:], result.stderr[-3000:], sep="\n")
    print(f"{killed} of {len(MUTANTS)} mutants killed, {equivalent} equivalent, "
          f"in {time.perf_counter() - start:.0f} s")
    return 0 if killed + equivalent == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
