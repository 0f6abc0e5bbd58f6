#!/usr/bin/env python3
"""End-to-end benchmark of the gup-dosc command-line interface.

Run from the repository root:

    python3 perfbench/run.py --workload validate-c40 --seed 1 --seconds 30 --trace 0

A single closed-loop generator (this process) runs the workload's CLI
invocations one after another, each in a fresh interpreter, and reaps each
child with os.wait4 so that its CPU time and peak RSS belong to it alone.
Passes over the workload repeat until the next one would overrun --seconds
(at least one pass runs). Every report is then verified by value
(verify.py), outside the timed region.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates untraced passes with passes whose children run the same commands
in-process under the span tracer (tracer.py), and prints the per-layer
metrics. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Children run with the package's default threading.
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GUP_DOSC_THREADS")
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 11

SETUP_CODE = """\
import json, sys
from gup_dosc.cli import parse_config
for argv in json.loads(sys.argv[1]):
    parse_config(argv)
"""

# Warms the bytecode and file caches (compile, then import once) and reports
# the numerical stack. Nothing the commands compute is warmed.
WARM_CODE = """\
import compileall, json, sys
compileall.compile_dir(sys.argv[1], quiet=1)
import numpy
import gup_dosc.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({type(exc).__name__})"
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


def _argv(call: dict) -> list[str]:
    """CLI arguments of one invocation: {"command": "scan", "B_min": 0.0} -> scan --B-min 0.0."""
    args = [call["command"]]
    for key, value in call.items():
        if key != "command":
            args += ["--" + key.replace("_", "-"), str(value)]
    return args


def _gup_a(rng: random.Random) -> float:
    """A deformation strength within a factor 2 of 1e-4; shifts in units are independent of it."""
    return float(f"{1e-4 * 2.0 ** rng.uniform(-1.0, 1.0):.4g}")


def validate_c40(rng: random.Random) -> list[dict]:
    return [dict(command="validate", omega=1.0, B=1.0, gup_a=_gup_a(rng), cutoff=40,
                 format="json")]


def scan_c40(rng: random.Random) -> list[dict]:
    return [dict(command="scan", omega=1.0, B_min=0.0, B_max=3.0, steps=4,
                 gup_a=_gup_a(rng), cutoff=40, format="csv")]


def batch_c12(rng: random.Random) -> list[dict]:
    a = _gup_a(rng)
    calls = []
    for command in ("spectrum", "correct", "degenerate", "validate"):
        formats = ["text", "text", "json", "json"]
        rng.shuffle(formats)
        for b, fmt in zip((0.0, 1.0, 2.0, 3.0), formats):
            calls.append(dict(command=command, omega=1.0, B=b, gup_a=a, cutoff=12, levels=6,
                              format=fmt))
    calls.append(dict(command="scan", omega=1.0, B_min=0.0, B_max=3.0, steps=7, gup_a=a,
                      cutoff=12, levels=6, format="csv"))
    rng.shuffle(calls)
    return calls


WORKLOADS = {"validate-c40": validate_c40, "scan-c40": scan_c40, "batch-c12": batch_c12}


@dataclass
class Outcome:
    meta: dict
    status: int
    stdout: str
    stderr: str
    spans: dict | None = None


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outcomes: list[Outcome] = field(default_factory=list)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], stdout: Path, stderr: Path, env: dict) -> tuple[int, float, float, float]:
    """Run `python3 args...` to completion: (exit status, wall s, CPU s, max RSS MB) of that child."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def _run_pass(calls: list[dict], work: Path, env: dict, traced: bool) -> Pass:
    results = []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        if traced:
            args = [str(HERE / "tracer.py"), str(work / f"{i}.spans"), "--", *_argv(call)]
        else:
            args = ["-m", "gup_dosc.cli", *_argv(call)]
        results.append(_spawn(args, work / f"{i}.out", work / f"{i}.err", env))
    wall = time.perf_counter() - start
    done = Pass(wall, sum(r[2] for r in results), max(r[3] for r in results))
    for i, (call, (status, *_)) in enumerate(zip(calls, results)):
        spans_file = work / f"{i}.spans"
        spans = None
        if traced and spans_file.exists():
            try:
                spans = json.loads(spans_file.read_text())
            except ValueError:
                pass  # counted as a failure: the traced run wrote no spans
            spans_file.unlink()
        done.outcomes.append(Outcome(call, status,
                                     (work / f"{i}.out").read_text(errors="replace"),
                                     (work / f"{i}.err").read_text(errors="replace"), spans))
    return done


def _timed(seconds: float, one_round) -> None:
    """Repeat `one_round` while the next round is expected to end within `seconds`."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def _setup_seconds(calls: list[dict], work: Path, env: dict) -> list[float]:
    argv_lists = json.dumps([_argv(call) for call in calls])
    samples = []
    for _ in range(SETUP_SAMPLES):
        status, wall, _, _ = _spawn(["-c", SETUP_CODE, argv_lists], work / "setup.out",
                                    work / "setup.err", env)
        if status != 0:
            raise RuntimeError("parse_config failed on the workload's arguments:\n"
                               + (work / "setup.err").read_text(errors="replace"))
        samples.append(wall)
    return samples


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _median_by_key(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "gup_dosc" / "cli.py").is_file():
        print(f"perfbench: no gup_dosc sources under {SRC}", file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))
    load_at_start = os.getloadavg()
    os.chdir(ROOT)
    env = _child_env()
    calls = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    try:
        status, _, _, _ = _spawn(["-c", WARM_CODE, str(SRC)], work / "warm.out", work / "warm.err", env)
        if status != 0:
            print("perfbench: cannot import gup_dosc:\n" + (work / "warm.err").read_text(),
                  file=sys.stderr)
            return 2
        header = {
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            **json.loads((work / "warm.out").read_text()),
            "loadavg_at_start": load_at_start,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "invocations": [" ".join(_argv(call)) for call in calls],
        }
        print(json.dumps({"header": header}))

        plain: list[Pass] = []
        traced: list[Pass] = []
        setup: list[float] = []

        def one_round():
            plain.append(_run_pass(calls, work, env, traced=False))
            if args.trace:
                traced.append(_run_pass(calls, work, env, traced=True))

        if not args.trace:
            setup = _setup_seconds(calls, work, env)
        _timed(args.seconds, one_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass

    # The verifier imports the package, and with it numpy, only now that timing is over.
    sys.path.insert(0, str(SRC))
    import verify

    outcomes = [(o, False) for run in plain for o in run.outcomes]
    outcomes += [(o, True) for run in traced for o in run.outcomes]
    failures = []
    for o, was_traced in outcomes:
        reason = verify.verify(o.meta, o.status, o.stdout, o.stderr)
        if reason is None and was_traced and o.spans is None:
            reason = "traced run wrote no spans"
        if reason is not None:
            failures.append(f"{o.meta['command']} {o.meta}: {reason}")
    for line in failures[:20]:
        print("perfbench: FAILED " + line, file=sys.stderr)

    if args.trace:
        layers = [tracer.layer_metrics([o.spans for o in run.outcomes if o.spans]) for run in traced]
        values = _median_by_key(layers)
        plain_wall = statistics.median(run.wall_s for run in plain)
        values["trace.overhead_frac"] = (
            statistics.median(run.wall_s for run in traced) - plain_wall) / plain_wall
        missing = sorted({m for run in traced for o in run.outcomes if o.spans for m in o.spans["missing"]})
        if missing:
            print("perfbench: boundaries missing from the trace: " + ", ".join(missing), file=sys.stderr)
        samples = {name: [layer[name] for layer in layers] for name in layers[0]}
    else:
        samples = {
            "wall_s": [run.wall_s for run in plain],
            "cpu_s": [run.cpu_s for run in plain],
            "peak_rss_mb": [run.peak_rss_mb for run in plain],
            "setup_s": setup,
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["success_rate"] = (len(outcomes) - len(failures)) / len(outcomes)

    metrics = {}
    for spec in declared:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        series = samples.get(name, [values[name]])
        q1, _, q3 = _quartiles(series)
        print(f"{args.workload:13s} {name:40s} {values[name]:14.6g} {spec['unit']:6s}"
              f" q1 {q1:.6g} q3 {q3:.6g} n {len(series)}")
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
