import hashlib

from helpers import qft_circuit, rand_corpus_circuit
from zxna import PIPELINES, parse_qasm, run_pipeline, write_qasm


def test_pipeline_output_digest():
    # Output identity of every pipeline on the corpus: a change meant to be
    # performance-only must leave this digest as it is
    circuits = [qft_circuit(n) for n in (4, 8, 12)]
    circuits += [rand_corpus_circuit(seed) for seed in range(60)]
    h = hashlib.sha256()
    for c in circuits:
        for p in PIPELINES:
            out, sched = run_pipeline(c, p)
            h.update((write_qasm(out) + sched.to_json()).encode())
    assert h.hexdigest() == "2b18a16468728cddbd7f1919f75a4a4d218d5326d0ae9b5e0717716ee20e086b"


def test_pipelines_keep_measurements():
    # --emit-qasm of a measured program must write its measure lines for every pipeline
    c = parse_qasm("qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; t q[2];"
                   " measure q[0] -> c[2]; measure q[2] -> c[0];")
    for p in PIPELINES:
        out, _ = run_pipeline(c, p)
        assert out.measurements == c.measurements == ((0, 2), (2, 0))
        assert parse_qasm(write_qasm(out)).measurements == c.measurements
