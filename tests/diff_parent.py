"""Run every row of tests/commands.txt on a git revision and on the working
tree, and print each run whose stdout, stderr or exit status differs.

    python tests/diff_parent.py REV

REV is checked out with `git worktree add` under a temporary directory, and
the worktree is removed afterwards. Both trees run under this interpreter and
environment, every warning an error; only PYTHONPATH differs, pointing at
each tree's src. A row without --format runs in text and in json, and a scan
row in csv as well. The script exits 1 if any run differs.
"""
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import corpus

ROOT = pathlib.Path(__file__).resolve().parents[1]


def variants(argv: tuple[str, ...]) -> list[tuple[str, ...]]:
    if "--format" in argv:
        return [argv]
    formats = ("json", "csv") if argv[:1] == ("scan",) else ("json",)
    return [argv, *((*argv, "--format", fmt) for fmt in formats)]


def first_difference(old: tuple, new: tuple) -> list[str]:
    """One line for each of status, stdout and stderr that differs: the
    first differing line of a stream, as parent -> working tree."""
    found = [f"status {old[0]} -> {new[0]}"] if old[0] != new[0] else []
    for name, a, b in zip(("stdout", "stderr"), old[1:], new[1:]):
        a, b = a.splitlines(keepends=True), b.splitlines(keepends=True)
        k = next((k for k in range(max(len(a), len(b))) if a[k:k + 1] != b[k:k + 1]), None)
        if k is not None:
            found.append(f"{name} line {k + 1}: {a[k:k + 1]} -> {b[k:k + 1]}")
    return found


def differences(rows, old_src, new_src):
    """Yield (argv, first differing lines) for each run of rows whose bytes
    differ between the package in old_src and the one in new_src."""
    with ThreadPoolExecutor(2) as pool:
        for row in rows:
            for argv in variants(row.argv):
                old, new = pool.map(lambda src: corpus.run(argv, src), (old_src, new_src))
                if old != new:
                    yield argv, first_difference(old, new)


def main(rev: str) -> int:
    rows = corpus.rows()
    runs = sum(len(variants(row.argv)) for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp, "parent")
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            differing = 0
            for argv, lines in differences(rows, tree / "src", ROOT / "src"):
                differing += 1
                print(" ".join(argv), *(f"  {line}" for line in lines), sep="\n")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=True)
    print(f"{differing} of {runs} runs of {len(rows)} rows differ from {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/diff_parent.py REV")
    sys.exit(main(sys.argv[1]))
