"""The command corpus, tests/commands.txt: its rows and the checks each run of
a row must pass (the file's header states the row format and the checks).

Run as a script, it runs every row in a fresh interpreter under
`python -W error -m gup_dosc.cli` under -X importtime, the package taken
from PYTHONPATH, and prints each row that fails its checks, or that loads a
numpy module where `may_load_numpy` is false or none where it is true.

    PYTHONPATH=src python tests/corpus.py
"""
import json
import os
import pathlib
import shlex
import subprocess
import sys
from dataclasses import dataclass

FILE = pathlib.Path(__file__).with_name("commands.txt")
TAGS = ("readme", "numpy-free")
IMPORT_TIME = "import time:"


@dataclass(frozen=True)
class Row:
    section: str
    id: str
    status: int
    tags: tuple[str, ...]
    argv: tuple[str, ...]
    strings: tuple[str, ...]


def parse(line: str, section: str = "") -> Row:
    """One row: [ID:] STATUS [TAG ...] ARGV ... [-> STRING ...]"""
    words = shlex.split(line)
    row_id = words.pop(0)[:-1] if words[0].endswith(":") else None
    status = int(words.pop(0))
    tags = []
    while words and words[0] in TAGS:
        tags.append(words.pop(0))
    arrow = words.index("->") if "->" in words else len(words)
    argv = tuple(words[:arrow])
    return Row(section, row_id or shlex.join(argv), status, tuple(tags), argv,
               tuple(words[arrow + 1:]))


def rows() -> list[Row]:
    found, section = [], ""
    for line in FILE.read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.strip() and not line.startswith("#"):
            found.append(parse(line, section))
    return found


def may_load_numpy(row: Row) -> bool:
    """The numpy rule: no command but scan loads numpy, and a scan row loads
    it unless it is tagged numpy-free."""
    return row.argv[:1] == ("scan",) and "numpy-free" not in row.tags


def check(row: Row, status: int, out: str, err: str) -> None:
    """Assert that one run of row, (status, stdout, stderr), passes its checks."""
    assert status == row.status, f"exit {status}, expected {row.status}: {err}"
    assert "Traceback" not in err and "Warning" not in err, err
    if status in (0, 1):
        assert out and err == "", err
        assert status == 0 or row.argv[0] == "validate", "exit 1 is validate's alone"
        text = out
    elif status == 2:
        assert out == "", out
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        text = err
    else:
        assert out == "", out
        text = json.loads(err)["error"]
    for string in set(row.strings):
        found, listed = text.count(string), row.strings.count(string)
        assert found == listed, f"{string!r} occurs {found} times, listed {listed}: {text}"


def run(argv, src=None, importtime=False, env=None) -> tuple[int, str, str]:
    """(status, stdout, stderr) of one command in a fresh interpreter, every
    warning an error, in `env` (this process's environment by default), with
    the package from src or else from PYTHONPATH."""
    env = os.environ if env is None else env
    env = env if src is None else dict(env, PYTHONPATH=str(src))
    flags = ["-X", "importtime"] if importtime else []
    done = subprocess.run([sys.executable, *flags, "-W", "error", "-m", "gup_dosc.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    corpus, failed = rows(), 0
    for row in corpus:
        status, out, err = run(row.argv, importtime=True)
        lines = err.splitlines(keepends=True)
        imported = [line for line in lines if line.startswith(IMPORT_TIME)]
        try:
            check(row, status, out,
                  "".join(line for line in lines if not line.startswith(IMPORT_TIME)))
            loaded = any("numpy" in line for line in imported)
            assert loaded == may_load_numpy(row), (
                "numpy loaded" if loaded else "no numpy loaded, yet not tagged numpy-free")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL [{row.section}] {row.id}: {exc}")
    print(f"{len(corpus) - failed} of {len(corpus)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
