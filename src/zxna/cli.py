"""Command-line benchmark runner.

``run`` synthesizes and schedules one OpenQASM file through a pipeline and
prints a report; ``suite`` sweeps a directory of .qasm files through several
pipelines and emits a merged table with an aggregate row of mean relative
execution time against a baseline pipeline.  Both build their rows with
:func:`_reports`.
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

from .backend import TimeConfig, schedule_counts
from .circuit import Circuit
from .oracle import circuit_unitary, equal_up_to_scalar
from .pipeline import PIPELINES, run_pipeline
from .qasm import parse_qasm, write_qasm

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


def _run_one(name: str, c: Circuit, ref, pipeline: str, args, time_config: TimeConfig) -> dict:
    t0 = time.perf_counter()
    out, sched = run_pipeline(
        c, pipeline, max_ctrl=args.max_ctrl, debug=args.debug, time_config=time_config
    )
    runtime = time.perf_counter() - t0
    verified = None if ref is None else equal_up_to_scalar(circuit_unitary(out), ref, tol=1e-8)
    if args.emit_qasm:
        Path(args.emit_qasm).write_text(write_qasm(out))
    if args.emit_schedule:
        Path(args.emit_schedule).write_text(sched.to_json())
    return {
        "file": name,
        "pipeline": pipeline,
        "counts": schedule_counts(sched.ops),
        "time_ms": sched.total_time * 1e3,
        "runtime_s": runtime,
        "verified": verified,
    }


def _reports(path: Path, pipelines: list[str], args, time_config: TimeConfig) -> list[dict]:
    """One report or error row per pipeline for the file at ``path``.

    The file is parsed, and its dense unitary built when ``--verify`` asks
    for a check and it fits, once for all pipelines.
    """
    errors = (ValueError, RuntimeError, OSError)  # QasmError is a ValueError
    try:
        c = parse_qasm(path.read_text())
        ref = circuit_unitary(c) if args.verify and c.num_qubits <= VERIFY_MAX_QUBITS else None
    except errors as e:
        return [{"file": path.name, "pipeline": p, "error": str(e)} for p in pipelines]
    rows = []
    for p in pipelines:
        try:
            rows.append(_run_one(path.name, c, ref, p, args, time_config))
        except errors as e:
            rows.append({"file": path.name, "pipeline": p, "error": str(e)})
    return rows


def _flatten(rep: dict) -> dict:
    """The row with its counts as columns of their own, the NCP histogram as JSON text."""
    if "counts" not in rep:
        return rep
    return {**rep, **rep["counts"], "ncp": json.dumps(rep["counts"]["ncp"])}


def _emit(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
        return
    fields = ["file", "pipeline", *schedule_counts([]), "time_ms", "runtime_s", "verified"]
    fields += [extra for extra in ("reduction", "error") if any(extra in r for r in rows)]
    flat = [_flatten(r) for r in rows]
    if fmt == "csv":
        w = csv.DictWriter(stream, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        w.writerows(flat)
        return
    # plain table
    widths = {f: max([len(f), *(len(str(r.get(f, ""))) for r in flat)]) for f in fields}
    stream.write("  ".join(f.ljust(widths[f]) for f in fields) + "\n")
    for r in flat:
        stream.write("  ".join(str(r.get(f, "")).ljust(widths[f]) for f in fields) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="zxna", description="neutral-atom circuit synthesis")
    sub = ap.add_subparsers(dest="cmd", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--max-ctrl", type=int, default=None)
    shared.add_argument("--verify", action="store_true")
    shared.add_argument("--debug", action="store_true", help="check gflow around every gadget insertion")
    shared.add_argument("--time-config", metavar="PATH")

    runp = sub.add_parser("run", parents=[shared], help="synthesize one qasm file")
    runp.add_argument("file")
    runp.add_argument("--pipeline", choices=PIPELINES, default="zx-with-insert")
    runp.add_argument("--emit-qasm", metavar="PATH")
    runp.add_argument("--emit-schedule", metavar="PATH")
    runp.add_argument("--format", choices=("json", "csv", "table"), default="json")

    suitep = sub.add_parser("suite", parents=[shared], help="run a directory of qasm files")
    suitep.add_argument("directory")
    suitep.add_argument("--pipeline", action="append", choices=PIPELINES, dest="pipelines")
    suitep.add_argument("--baseline", choices=PIPELINES, default="no-decomp")
    suitep.add_argument("--format", choices=("json", "csv", "table"), default="table")
    suitep.add_argument("--out", metavar="PATH")
    suitep.set_defaults(emit_qasm=None, emit_schedule=None)

    args = ap.parse_args(argv)
    try:
        time_config = _load_time_config(args.time_config)
    except ValueError as e:
        return _error({"error": str(e)})

    if args.cmd == "run":
        (rep,) = _reports(Path(args.file), [args.pipeline], args, time_config)
        if "error" in rep:
            return _error({**rep, "file": args.file})
        _emit([rep], args.format, sys.stdout)
        return 0

    # suite: each pipeline once, in first-named order; the baseline runs even if not named
    pipelines = list(dict.fromkeys([*(args.pipelines or PIPELINES), args.baseline]))
    files = sorted(Path(args.directory).glob("*.qasm"))
    if not files:
        return _error({"error": f"no .qasm files in directory {args.directory}"})
    rows = [r for f in files for r in _reports(f, pipelines, args, time_config)]
    failed = any("error" in r for r in rows)
    # aggregate row: mean relative execution time against the baseline pipeline
    base_t = {r["file"]: r["time_ms"] for r in rows if r["pipeline"] == args.baseline and "time_ms" in r}
    for p in pipelines:
        rel = [
            1.0 - r["time_ms"] / base_t[r["file"]]
            for r in rows
            if r["pipeline"] == p and "time_ms" in r and base_t.get(r["file"])
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
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            return _error({"error": str(e)})
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
