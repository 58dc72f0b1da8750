"""Compile-time and output-quality benchmark for zxna.

Run from the repository root:

    python3 perfbench/run.py --workload structured --seed 1 --seconds 50 --trace 0

A workload is a seeded corpus of OpenQASM 2.0 programs (see
``workloads.py``).  Every program goes through all four pipelines; one
program/pipeline pair is a job.  Jobs run one after another in this single
process (a closed loop with one caller and no extra threads).  Every job
is compiled and its output checked (``check.py``), and passes repeat while
another fits in ``--seconds``.  Each output is hashed (SHA-256 of
``write_qasm(out)`` and ``Schedule.to_json()``) and must hash the same on
every repetition.  End-to-end times are medians over repetitions, scaled to
a reference machine speed measured by a calibration loop (``Speed``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
untraced and then through ``tracing.traced_compile`` and reports the
per-layer metrics; the traced outputs must hash the same as the
untraced ones.  Every job's verdict and every metric with its unit are
printed; the last line of standard output is the JSON result.  A job that
raises or exceeds ``JOB_TIME_LIMIT_S`` counts as failed and is not rerun.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
# numpy's BLAS would otherwise start worker threads for the oracle's matrix
# products; they compete with the compiler for the CPUs and keep spinning
# after their work is done.  Set before numpy loads; the set-up's fresh
# interpreter inherits it.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from zxna import PIPELINES, parse_qasm, run_pipeline, write_qasm  # noqa: E402
from zxna.backend import Ncp, schedule_counts  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
JOB_TIME_LIMIT_S = 30.0
SPAN_DIR = HERE / "out"
CALIBRATE_EVERY_S = 0.5
# Median time of calibration_loop() over the seed-commit runs on the 2-vCPU
# machine recorded in BASELINE.md; end-to-end times are scaled to it.
REFERENCE_CALIBRATION_S = 0.025


@dataclass(frozen=True)
class Job:
    circuit: str
    qasm: str
    pipeline: str


@dataclass
class Outcome:
    """Everything the benchmark keeps about one job."""

    times: list[float] = field(default_factory=list)  # compile wall time per repetition
    verify_times: list[float] = field(default_factory=list)
    result: tuple | None = None  # (input circuit, output circuit, schedule)
    digest: str | None = None
    verdict: tuple[str, bool] | None = None
    error: str | None = None  # set once the job has failed; it is not run again
    wrong: bool = False  # failed by producing a wrong or unrepeatable output


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"over {JOB_TIME_LIMIT_S:.0f} s")


@contextmanager
def time_limit(seconds: float):
    """Raise JobTimeout in this (main) thread once ``seconds`` have passed."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def digest(out, sched) -> str:
    h = hashlib.sha256(write_qasm(out).encode())
    h.update(sched.to_json().encode())
    return h.hexdigest()


def make_jobs(corpus: list[tuple[str, str]]) -> list[Job]:
    return [Job(name, text, p) for name, text in corpus for p in PIPELINES]


def compile_untraced(_index: int, job: Job):
    c = parse_qasm(job.qasm)
    out, sched = run_pipeline(c, job.pipeline)
    return c, out, sched


def _run_job(i: int, job: Job, oc: Outcome, compile_fn) -> float | None:
    """One attempt at a job; returns its wall time, or None if it failed."""
    try:
        with time_limit(JOB_TIME_LIMIT_S):
            t0 = time.perf_counter()
            res = compile_fn(i, job)
            dt = time.perf_counter() - t0
    except Exception as e:  # a failing job is reported, not fatal
        first_line = str(e).splitlines()[0] if str(e) else ""
        oc.error = f"{type(e).__name__}: {first_line}"
        return None
    d = digest(res[1], res[2])
    if oc.digest is None:
        oc.result, oc.digest = res, d
    elif d != oc.digest:
        oc.error, oc.wrong = "output differs between repetitions", True
        return None
    oc.times.append(dt)
    return dt


def calibration_loop() -> Fraction:
    """Fixed pure-Python work of the compiler's kind: set toggles, sorting, Fractions.

    It does not touch zxna, so its time tracks only the machine's speed.
    """
    adj: dict[int, set[int]] = {i: set() for i in range(300)}
    acc = Fraction(0)
    for k in range(6000):
        a, b = (k * 7919) % 300, (k * 104729) % 300
        if a != b:
            adj[a] ^= {b}
            adj[b] ^= {a}
        acc += Fraction(k % 7, 8)
        if k % 50 == 0:
            sorted(adj[a] | adj[b])
    return acc


class Speed:
    """Times of ``calibration_loop``, sampled between jobs.

    A shared machine runs at different speeds for minutes at a time; the
    same compile pass took from 7.3 to 10.2 s in consecutive runs.  Scaling
    a run's times by ``factor()`` reports them at the reference speed and
    removes about half of that swing.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            t0 = time.perf_counter()
            calibration_loop()
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)

    def factor(self) -> float:
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples)


def run_pass(jobs: list[Job], outcomes: list[Outcome], compile_fn, speed: Speed | None = None) -> float:
    """Run every job that has not failed once; returns the summed job time."""
    total = 0.0
    for i, (job, oc) in enumerate(zip(jobs, outcomes)):
        if oc.error is None:
            total += _run_job(i, job, oc, compile_fn) or 0.0
            if speed is not None:
                speed.tick()
    return total


def verify(jobs: list[Job], outcomes: list[Outcome], native: bool, speed: Speed | None = None) -> None:
    """Check every output, timing each check."""
    refs: dict = {}
    for job, oc in zip(jobs, outcomes):
        if oc.error is not None:
            continue
        c, out, sched = oc.result
        t0 = time.perf_counter()
        oc.verdict = check.verify_job(c, out, sched, native, refs, job.circuit)
        oc.verify_times.append(time.perf_counter() - t0)
        if not oc.verdict[1]:
            oc.error, oc.wrong = f"verification failed ({oc.verdict[0]})", True
        if speed is not None:
            speed.tick()


def repeat_until(deadline: float, one_pass) -> None:
    """Run ``one_pass`` once, then again while another fits before the deadline."""
    while True:
        t0 = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def setup(workload: str, seed: int) -> tuple[float, list[Job]]:
    """Import zxna cold, generate the corpus and warm up each pipeline.

    Repeated ``SETUP_REPEATS`` times; returns the median time and the jobs.
    The cold import runs in a fresh interpreter, so it includes interpreter
    start-up and the numpy import.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import zxna", str(SRC)],
            check=True,
        )
        corpus = WORKLOADS[workload](seed)
        smallest = min(corpus, key=lambda item: len(item[1]))
        for job in make_jobs([smallest]):
            try:
                with time_limit(JOB_TIME_LIMIT_S):
                    compile_untraced(0, job)
            except Exception:  # the measured passes report the failure
                pass
        times.append(time.perf_counter() - t0)
    return statistics.median(times), make_jobs(corpus)


def quality(jobs: list[Job], outcomes: list[Outcome]) -> dict[str, float]:
    """Output-quality metrics of the jobs that succeeded."""
    time_ms: dict[str, list[float]] = {p: [] for p in PIPELINES}
    by_circuit: dict[str, dict[str, float]] = {}
    gr = 0
    arity = 0
    for job, oc in zip(jobs, outcomes):
        if oc.error is not None:
            continue
        sched = oc.result[2]
        t = sched.total_time * 1e3
        time_ms[job.pipeline].append(t)
        by_circuit.setdefault(job.circuit, {})[job.pipeline] = t
        if job.pipeline == "zx-with-insert":
            gr += schedule_counts(sched.ops)["gr_pulses"]
            arity = max([arity] + [len(op.qubits) for op in sched.ops if isinstance(op, Ncp)])
    ratios = [
        math.log(t["zx-with-insert"] / t["no-decomp"])
        for t in by_circuit.values()
        if "zx-with-insert" in t and t.get("no-decomp")
    ]
    out = {f"model_time_ms.{p}": statistics.fmean(v) for p, v in time_ms.items() if v}
    if ratios:
        out["time_ratio.geomean"] = math.exp(statistics.fmean(ratios))
    out["gr_pulses"] = gr
    out["ncp_arity.max"] = arity
    return out


UNITS = {
    "setup_s": "s",
    "compile_s": "s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "time_ratio.geomean": "ratio",
    "gr_pulses": "count",
    "ncp_arity.max": "count",
    **{f"model_time_ms.{p}": "ms" for p in PIPELINES},
}


def end_to_end(workload: str, seconds: float, setup_s: float, jobs: list[Job]) -> tuple[dict, list[Outcome]]:
    """Compile and check every job, then repeat while passes fit in ``seconds``.

    Passes that compile and check repeat while one fits, then passes that
    only compile.  A job's times are the medians of its repetitions, scaled
    by the run's ``Speed.factor``.  ``job_ms.p90`` stands in for the
    slowest job, which one repetition on a shared machine cannot pin down.
    """
    outcomes = [Outcome() for _ in jobs]
    speed = Speed()
    native = workload == "random-small"
    deadline = time.perf_counter() + seconds
    pass_s = run_pass(jobs, outcomes, compile_untraced, speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    verify(jobs, outcomes, native, speed)
    check_s = time.perf_counter() - t0
    while time.perf_counter() + pass_s + check_s <= deadline:
        pass_s = run_pass(jobs, outcomes, compile_untraced, speed)
        verify(jobs, outcomes, native, speed)
    while time.perf_counter() + pass_s <= deadline:
        pass_s = run_pass(jobs, outcomes, compile_untraced, speed)
    scale = speed.factor()
    print(f"calibration loop: median {statistics.median(speed.samples) * 1e3:.2f} ms over "
          f"{len(speed.samples)} samples; times scaled by {scale:.4f} to the reference speed")
    ok = [oc for oc in outcomes if oc.error is None]
    job_s = sorted(statistics.median(oc.times) * scale for oc in ok)
    print(f"slowest of {len(job_s)} jobs: {job_s[-1] * 1e3:.2f} ms (job_ms.max)")
    values = {
        "setup_s": setup_s * scale,
        "compile_s": sum(job_s),
        "job_ms.p50": statistics.median(job_s) * 1e3,
        "job_ms.p90": statistics.quantiles(job_s, n=10, method="inclusive")[-1] * 1e3,
        "verify_s": sum(statistics.median(oc.verify_times) for oc in ok) * scale,
        "peak_rss_mb": rss_mb,
        **quality(jobs, outcomes),
    }
    return values, outcomes


def per_layer(workload: str, seed: int, seconds: float, jobs: list[Job]) -> tuple[dict, list[Outcome], bool]:
    """Run each job untraced and traced, in passes; per-layer sums per workload.

    Times are raw wall seconds: medians over the traced passes of each
    pass's sum.  Counts come from the first traced pass, and the oracle is
    timed on one check of every traced output.  Returns the metrics, the outcomes and whether the
    traced outputs hashed the same as the untraced ones.
    """
    plain = [Outcome() for _ in jobs]
    traced = [Outcome() for _ in jobs]
    plain_s: list[float] = []
    tracers: list[tracing.Tracer] = []
    overhead_s: list[float] = []

    def one_pass():
        # each job runs untraced and then traced, so both see the same machine speed
        tr = tracing.Tracer()
        traced_fn = lambda i, job: tracing.traced_compile(tr, i, job.qasm, job.pipeline)  # noqa: E731
        plain_total = traced_total = 0.0
        for i, job in enumerate(jobs):
            if plain[i].error is None:
                plain_total += _run_job(i, job, plain[i], compile_untraced) or 0.0
            if traced[i].error is None:
                traced_total += _run_job(i, job, traced[i], traced_fn) or 0.0
        tracers.append(tr)
        plain_s.append(plain_total)
        overhead_s.append(traced_total - tr.seconds()["gflow"])

    repeat_until(time.perf_counter() + seconds, one_pass)
    same = all(p.digest == t.digest for p, t in zip(plain, traced) if p.error is None and t.error is None)
    verify(jobs, traced, native=workload == "random-small")
    for p, t in zip(plain, traced):
        p.verdict = t.verdict
        if t.error is not None and p.error is None:
            p.error, p.wrong = f"traced run: {t.error}", t.wrong
    checked = [oc for oc in traced if oc.verdict is not None]
    _write_spans(workload, seed, tracers)

    def secs(name: str) -> float:
        return statistics.median(tr.seconds()[name] for tr in tracers)

    modes = ("default", "no-insert", "with-insert")
    counts = tracers[0].counts
    values = {
        "qasm.parse_s": secs("qasm.parse"),
        "qasm.gates_in": counts["qasm.gates_in"],
        "ingest.s": secs("ingest"),
        "ingest.spiders": counts["ingest.spiders"],
        "ingest.edges": counts["ingest.edges"],
        "simplify.s": secs("simplify"),
        "simplify.rewrites": counts["simplify.rewrites"],
        **{f"simplify.rewrites.{r}": counts[f"simplify.rewrites.{r}"] for r in tracing.REWRITE_RULES},
        "simplify.spiders_out": counts["simplify.spiders_out"],
        "simplify.edges_out": counts["simplify.edges_out"],
        "simplify.gadgets_out": counts["simplify.gadgets_out"],
        "gflow.s": secs("gflow"),
        "gflow.vertices": counts["gflow.vertices"],
        "gflow.depth": counts["gflow.depth"],
        "extract.s": sum(secs(f"extract.{m}") for m in modes),
        **{f"extract.s.{m}": secs(f"extract.{m}") for m in modes},
        "extract.gates_out": counts["extract.gates_out"],
        "extract.cx": counts["extract.cx"],
        "extract.ncp": counts["extract.ncp"],
        "extract.ncp_ge3": counts["extract.ncp_ge3"],
        "circuit.lower_s": secs("circuit.lower"),
        "circuit.cancel_s": secs("circuit.cancel"),
        "circuit.cancel_removed": counts["circuit.cancel_removed"],
        "circuit.cancel_ratio": counts["circuit.cancel_removed"] / max(1, counts["circuit.cancel_in"]),
        "backend.layerize_s": secs("backend.layerize"),
        "backend.assign_s": secs("backend.assign"),
        "backend.decompose_s": secs("backend.decompose"),
        "backend.layers": counts["backend.layers"],
        "backend.gr_pulses": counts["backend.gr_pulses"],
        "backend.rz_layers": counts["backend.rz_layers"],
        "oracle.verify_s": sum(oc.verify_times[0] for oc in checked),
        "oracle.checked": len(checked),
        "oracle.passed": sum(oc.verdict[1] for oc in checked),
        "trace.overhead_share": statistics.median(overhead_s) / statistics.median(plain_s) - 1.0,
    }
    return values, plain, same


def _write_spans(workload: str, seed: int, tracers: list[tracing.Tracer]) -> None:
    """Write every span, one JSON object per line, under ``SPAN_DIR``."""
    SPAN_DIR.mkdir(exist_ok=True)
    with (SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl").open("w") as f:
        for n, tr in enumerate(tracers):
            for sp in tr.spans:
                f.write(json.dumps({"pass": n, **vars(sp)}) + "\n")


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")) or ".s." in name:
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def _report(jobs: list[Job], outcomes: list[Outcome]) -> None:
    for job, oc in zip(jobs, outcomes):
        ms = f"{statistics.median(oc.times) * 1e3:10.2f} ms x{len(oc.times)}" if oc.times else " " * 17
        if oc.error is not None:
            verdict = f"FAILED: {oc.error}"
        else:
            verdict = f"{oc.verdict[0]} ok"
        print(f"job {job.circuit:16s} {job.pipeline:15s} {ms}  sha256 {(oc.digest or '-')[:12]}  {verdict}")


def corpus_digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for oc in outcomes:
        h.update((oc.digest or "-").encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s, jobs = setup(args.workload, args.seed)
    if args.trace:
        values, outcomes, same = per_layer(args.workload, args.seed, args.seconds, jobs)
    else:
        values, outcomes = end_to_end(args.workload, args.seconds, setup_s, jobs)
        same = True

    _report(jobs, outcomes)
    failed = sum(oc.error is not None for oc in outcomes)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, {failed} failed "
          f"(failed_share {failed / len(jobs):.4f}), outputs sha256 {corpus_digest(outcomes)}")
    if not same:
        print("traced outputs differ from untraced outputs")
    for name, v in values.items():
        print(f"metric {name:32s} {v:.6g} {_unit(name)}")
    result = {
        "correct": same and not any(oc.wrong for oc in outcomes),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
