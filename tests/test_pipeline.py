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
    assert h.hexdigest() == "290183a5c9d3a54dae1916cbfb55b0013ba3a09389bdbd3af446f31a11b53e6c"


def test_pipelines_keep_measurements():
    # --emit-qasm of a measured program must write its measure lines for every pipeline
    c = parse_qasm("qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; t q[2];"
                   " measure q[0] -> c[2]; measure q[2] -> c[0];")
    for p in PIPELINES:
        out, _ = run_pipeline(c, p)
        assert out.measurements == c.measurements == ((0, 2), (2, 0))
        assert parse_qasm(write_qasm(out)).measurements == c.measurements


def test_no_decomp_writes_cz_as_ncp_pi():
    # the baseline's CZ and CCZ are NCP(pi): written cp(pi) and ncp3(pi), never an ncz name
    out, _ = run_pipeline(parse_qasm("qreg q[3]; cz q[0],q[1]; ccz q[0],q[1],q[2];"), "no-decomp")
    text = write_qasm(out)
    assert "ncz" not in text
    assert text.splitlines()[2:] == [
        "opaque ncp3(theta) q0,q1,q2;", "qreg q[3];", "cp(pi) q[0],q[1];", "ncp3(pi) q[0],q[1],q[2];",
    ]
