"""Smoke test of the benchmark at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from zxna import Circuit, parse_qasm, run_pipeline  # noqa: E402

TINY = workloads.random_small(5)[:2] + [("qft4", workloads.qft(4))]


def test_runs_repeat_and_tracing_changes_no_output():
    jobs = run.make_jobs(TINY)
    first, outcomes = run.end_to_end("random-small", 0.0, 0.0, jobs)
    second, again = run.end_to_end("random-small", 0.0, 0.0, jobs)
    assert all(oc.error is None and oc.verdict[1] for oc in outcomes)
    assert [oc.digest for oc in outcomes] == [oc.digest for oc in again]
    quality = [k for k in first if k.startswith(("model_time_ms", "time_ratio", "gr_pulses", "ncp_arity"))]
    assert quality and all(first[k] == second[k] for k in quality)

    layers, plain, same = run.per_layer("random-small", 0, 0.0, jobs)
    assert same
    assert [oc.digest for oc in plain] == [oc.digest for oc in outcomes]
    names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert names == set(layers)
    assert layers["oracle.checked"] == layers["oracle.passed"] == len(jobs)


def test_probe_rejects_a_wrong_output():
    c = parse_qasm(workloads.qft(11))
    out, sched = run_pipeline(c, "no-decomp")
    assert check.verify_job(c, out, sched, False, {}, "qft11") == ("probe", True)
    wrong = Circuit(out.num_qubits, out.gates[:-1])
    assert check.verify_job(c, wrong, sched, False, {}, "qft11") == ("probe", False)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    r = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "structured", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
