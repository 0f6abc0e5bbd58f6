"""Layer spans for one gup-dosc CLI run, recorded from outside the package.

The tracer wraps the public functions at each module boundary in the
namespace that calls them (for example `cli.first_order_shift`,
`perturbation.eigvalsh`, `perturbation.build_h0`), so a call is recorded
where it crosses from one layer into another. `perturbation` calls its own
public functions (`validation_report` calls `first_order_shift`, a scan point
calls `degeneracy_analysis`), so those are wrapped in its own namespace too.
Each span records its name, start, end, parent and thread id. Spans opened on
a scan worker thread take the main thread's innermost open span, which is
`field_scan`, as their parent.

Run as a script, it executes one CLI invocation in-process under the tracer:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- validate --omega 1 ...

The report goes to stdout exactly as `gup-dosc` would print it, the exit
status is the CLI's, and the spans are written to SPANS.json. A boundary
that no longer exists is listed under "missing"; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

ROOT_SPAN = "cli.main"

# caller module -> {attribute looked up in that module: span name}
BOUNDARIES = {
    "gup_dosc.cli": {
        "parse_config": "cli.parse_config",
        "render": "cli.render",
        "interior_spectrum": "perturbation.interior_spectrum",
        "first_order_shift": "perturbation.first_order_shift",
        "degenerate_shift": "perturbation.degenerate_shift",
        "field_scan": "perturbation.field_scan",
        "validation_report": "perturbation.validation_report",
    },
    "gup_dosc.perturbation": {
        "interior_spectrum": "perturbation.interior_spectrum",
        "first_order_shift": "perturbation.first_order_shift",
        "degenerate_shift": "perturbation.degenerate_shift",
        "oracle_slopes": "perturbation.oracle_slopes",
        "degeneracy_analysis": "perturbation.degeneracy_analysis",
        "build_h0": "model.build_h0",
        "build_h_prime": "model.build_h_prime",
        "compress": "fock.compress",
        "ladder_a": "fock.operators",
        "position_ops": "fock.operators",
        "p_squared": "fock.operators",
        "angular_momentum": "fock.operators",
        "eigh": "numerics.eigh",
        "eigvalsh": "numerics.eigvalsh",
    },
    "gup_dosc.model": {
        "position_ops": "fock.operators",
        "momentum_ops": "fock.operators",
        "p_squared": "fock.operators",
    },
}

# Spans whose `.calls` and `.self_s` are reported.
TIMED_SPANS = (
    "numerics.eigvalsh",
    "numerics.eigh",
    "model.build_h0",
    "model.build_h_prime",
    "fock.operators",
    "fock.compress",
    "perturbation.oracle_slopes",
    "perturbation.first_order_shift",
    "perturbation.degenerate_shift",
    "perturbation.degeneracy_analysis",
    "perturbation.field_scan",
    "perturbation.interior_spectrum",
    "perturbation.validation_report",
    "cli.parse_config",
    "cli.render",
)


class Tracer:
    """Collects spans in memory; `dump` returns them for writing out."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._oracle_keys: set[str] = set()
        self.spans: list[dict] = []
        self.missing: list[str] = []

    def _stack(self) -> list[dict]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        with self._lock:
            span = {"id": next(self._ids), "name": name, "parent": parent,
                    "thread": threading.get_ident(), "start": 0.0, "end": 0.0}
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def _annotate(self, span: dict, args: tuple, result) -> None:
        """Per-layer counts, taken after the span has closed."""
        name = span["name"]
        if name in ("numerics.eigvalsh", "numerics.eigh") and args:
            span["dim"] = int(len(args[0]))
        elif name in ("model.build_h0", "model.build_h_prime") and hasattr(result, "nbytes"):
            import numpy as np  # here, so that importing this module does not load numpy

            span["nbytes"] = int(result.nbytes)
            span["entries"] = int(result.size)
            span["nnz"] = int(np.count_nonzero(result))
        elif name == "perturbation.oracle_slopes" and len(args) >= 2:
            key = repr(args[:2])
            with self._lock:
                span["cold"] = key not in self._oracle_keys
                self._oracle_keys.add(key)
        elif name in ("perturbation.first_order_shift", "perturbation.degenerate_shift"):
            pairs = zip(getattr(result, "shifts", ()), getattr(result, "oracle_slopes", ()))
            gaps = [abs(s - o) / max(abs(s), 1e-30) for s, o in pairs]
            if gaps:
                span["oracle_gap"] = max(gaps)
        elif name == "cli.render" and isinstance(result, str):
            span["bytes"] = len(result.encode("utf-8"))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._annotate(span, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every boundary in BOUNDARIES by its traced wrapper."""
        for module_name, names in BOUNDARIES.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.extend(f"{module_name}.{attr}" for attr in names)
                continue
            for attr, span_name in names.items():
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(span_name, fn))

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


# ---------------------------------------------------------------------------
# aggregation, done by the benchmark process after the run


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _clipped(spans, lo: float, hi: float):
    return [(max(s["start"], lo), min(s["end"], hi)) for s in spans
            if s["end"] > lo and s["start"] < hi]


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one span dump per invocation)."""
    out: dict[str, float] = {}
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    dims: list[int] = []
    oracle = {True: 0.0, False: 0.0}
    nbytes = entries = nnz = report_bytes = 0
    gap = 0.0
    covered = traced = 0.0
    for dump in dumps:
        spans = dump["spans"]
        children: dict[int, list[dict]] = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        for s in spans:
            duration = s["end"] - s["start"]
            if s["name"] == ROOT_SPAN:
                traced += duration
                below = [t for t in spans if t is not s]
                covered += _union(_clipped(below, s["start"], s["end"]))
                continue
            kids = children.get(s["id"], [])
            self_s = duration - _union(_clipped(kids, s["start"], s["end"]))
            if s["name"] in TIMED_SPANS:
                out[f"{s['name']}.calls"] += 1
                out[f"{s['name']}.self_s"] += self_s
            if s["name"] == "numerics.eigvalsh" and "dim" in s:
                dims.append(s["dim"])
            if "cold" in s:
                oracle[s["cold"]] += duration
            nbytes += s.get("nbytes", 0)
            entries += s.get("entries", 0)
            nnz += s.get("nnz", 0)
            report_bytes += s.get("bytes", 0)
            gap = max(gap, s.get("oracle_gap", 0.0))
    out["numerics.eigvalsh.dim_max"] = max(dims, default=0)
    out["numerics.eigvalsh.work_n3"] = sum(d ** 3 for d in dims)
    out["model.operator_mb"] = nbytes / 2**20
    out["model.nnz_frac"] = nnz / entries if entries else 0.0
    out["perturbation.oracle_slopes.cold_s"] = oracle[True]
    out["perturbation.oracle_slopes.warm_s"] = oracle[False]
    out["perturbation.oracle_gap_max"] = gap
    out["cli.report_bytes"] = report_bytes
    out["trace.coverage"] = covered / traced if traced else 0.0
    out["trace.missing"] = len({m for d in dumps for m in d["missing"]})
    return out


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <gup-dosc arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from gup_dosc import cli

    status = 1
    try:
        status = tracer.wrap(ROOT_SPAN, cli.main)(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return status


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
