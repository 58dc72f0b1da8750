"""Command-line benchmark runner.

``run`` synthesizes and schedules one OpenQASM file through a pipeline and
prints a report; ``suite`` sweeps a directory of .qasm files through several
pipelines and emits a merged table with an aggregate row of mean relative
execution time against a baseline pipeline.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .backend import Schedule, TimeConfig, schedule_counts
from .oracle import MAX_QUBITS, circuit_unitary, equal_up_to_scalar
from .pipeline import PIPELINES, run_pipeline
from .qasm import QasmError, parse_qasm, write_qasm

VERIFY_MAX_QUBITS = 10


def _load_time_config(path: Optional[str]) -> TimeConfig:
    """Durations from a JSON object with keys among TimeConfig's fields; ValueError otherwise."""
    if path is None:
        return TimeConfig()
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read time config {path}: {e}") from None
    if not isinstance(data, dict):
        raise ValueError(f"time config {path} must be a JSON object")
    names = [f.name for f in fields(TimeConfig)]
    for k, v in data.items():
        if k not in names:
            raise ValueError(f"unknown time config key {k!r} (expected {', '.join(names)})")
        if type(v) not in (int, float) or not 0 <= v <= sys.float_info.max:
            raise ValueError(f"time config {k!r} must be a finite non-negative number, got {v!r}")
    return TimeConfig(**data)


def _error(rep: dict) -> int:
    json.dump(rep, sys.stdout)
    sys.stdout.write("\n")
    return 1


def _report(file: str, pipeline: str, sched: Schedule, runtime_s: float, verified) -> dict:
    counts = schedule_counts(sched.ops)
    return {
        "file": file,
        "pipeline": pipeline,
        "counts": counts,
        "time_ms": sched.total_time * 1e3,
        "runtime_s": runtime_s,
        "verified": verified,
    }


def _run_one(path: Path, pipeline: str, args, time_config: TimeConfig) -> dict:
    c = parse_qasm(path.read_text())
    t0 = time.perf_counter()
    out, sched = run_pipeline(
        c, pipeline, max_ctrl=args.max_ctrl, debug=args.debug, time_config=time_config
    )
    runtime = time.perf_counter() - t0
    verified = None
    if args.verify:
        if c.num_qubits <= min(MAX_QUBITS, VERIFY_MAX_QUBITS):
            verified = equal_up_to_scalar(
                circuit_unitary(out), circuit_unitary(c), tol=1e-8
            )
    if args.emit_qasm:
        Path(args.emit_qasm).write_text(write_qasm(out))
    if args.emit_schedule:
        Path(args.emit_schedule).write_text(sched.to_json())
    return _report(path.name, pipeline, sched, runtime, verified)


def _flatten(rep: dict) -> dict:
    row = {
        "file": rep["file"],
        "pipeline": rep["pipeline"],
        "gr_pulses": rep["counts"]["gr_pulses"],
        "gr_layers": rep["counts"]["gr_layers"],
        "rz_layers": rep["counts"]["rz_layers"],
        "ncp": json.dumps(rep["counts"]["ncp"]),
        "time_ms": rep["time_ms"],
        "runtime_s": rep["runtime_s"],
        "verified": rep["verified"],
    }
    if "error" in rep:
        row["error"] = rep["error"]
    return row


def _emit(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
        return
    fields = ["file", "pipeline", "gr_pulses", "gr_layers", "rz_layers", "ncp", "time_ms", "runtime_s", "verified"]
    for extra in ("reduction", "error"):
        if any(extra in r for r in rows):
            fields.append(extra)
    flat = [_flatten(r) if "counts" in r else r for r in rows]
    if fmt == "csv":
        w = csv.DictWriter(stream, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        for r in flat:
            w.writerow(r)
        return
    # plain table
    widths = {f: max(len(f), *(len(str(r.get(f, ""))) for r in flat)) if flat else len(f) for f in fields}
    stream.write("  ".join(f.ljust(widths[f]) for f in fields) + "\n")
    for r in flat:
        stream.write("  ".join(str(r.get(f, "")).ljust(widths[f]) for f in fields) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="zxna", description="neutral-atom circuit synthesis")
    sub = ap.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="synthesize one qasm file")
    runp.add_argument("file")
    runp.add_argument("--pipeline", choices=PIPELINES, default="zx-with-insert")
    runp.add_argument("--max-ctrl", type=int, default=None)
    runp.add_argument("--verify", action="store_true")
    runp.add_argument("--debug", action="store_true", help="check gflow around every gadget insertion")
    runp.add_argument("--emit-qasm", metavar="PATH")
    runp.add_argument("--emit-schedule", metavar="PATH")
    runp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    runp.add_argument("--time-config", metavar="PATH")

    suitep = sub.add_parser("suite", help="run a directory of qasm files")
    suitep.add_argument("directory")
    suitep.add_argument("--pipeline", action="append", choices=PIPELINES, dest="pipelines")
    suitep.add_argument("--baseline", choices=PIPELINES, default="no-decomp")
    suitep.add_argument("--max-ctrl", type=int, default=None)
    suitep.add_argument("--verify", action="store_true")
    suitep.add_argument("--debug", action="store_true")
    suitep.add_argument("--format", choices=("json", "csv", "table"), default="table")
    suitep.add_argument("--out", metavar="PATH")
    suitep.add_argument("--time-config", metavar="PATH")

    args = ap.parse_args(argv)
    try:
        time_config = _load_time_config(args.time_config)
    except ValueError as e:
        return _error({"error": str(e)})

    if args.cmd == "run":
        try:
            rep = _run_one(Path(args.file), args.pipeline, args, time_config)
        except (QasmError, ValueError, RuntimeError) as e:
            return _error({"file": args.file, "pipeline": args.pipeline, "error": str(e)})
        _emit([rep], args.format, sys.stdout)
        return 0

    # suite
    args.emit_qasm = None
    args.emit_schedule = None
    pipelines = args.pipelines or list(PIPELINES)
    files = sorted(Path(args.directory).glob("*.qasm"))
    rows: list[dict] = []
    failed = False
    for f in files:
        for p in pipelines:
            try:
                rows.append(_run_one(f, p, args, time_config))
            except (QasmError, ValueError, RuntimeError) as e:
                rows.append({"file": f.name, "pipeline": p, "error": str(e)})
                failed = True
    # aggregate row: mean relative execution time against the baseline pipeline
    base_t = {r["file"]: r["time_ms"] for r in rows if r.get("pipeline") == args.baseline and "time_ms" in r}
    for p in pipelines:
        rel = [
            1.0 - r["time_ms"] / base_t[r["file"]]
            for r in rows
            if r.get("pipeline") == p and "time_ms" in r and base_t.get(r["file"])
        ]
        if rel:
            rows.append(
                {
                    "file": f"<mean reduction vs {args.baseline}>",
                    "pipeline": p,
                    "reduction": f"{100.0 * sum(rel) / len(rel):+.1f}%",
                }
            )
    stream = io.StringIO()
    _emit(rows, args.format, stream)
    text = stream.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
