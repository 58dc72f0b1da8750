import hashlib
import math
import random

import numpy as np
import pytest

from helpers import dft_matrix, rand_rich_circuit
from zxna import Circuit, Gate, Phase, circuit_unitary, equal_up_to_scalar, parse_qasm, write_qasm
from zxna.qasm import QasmError


def test_minimal_program():
    c = parse_qasm("qreg q[1]; h q[0];")
    assert c.num_qubits == 1
    assert c.gates == (Gate("H", (0,)),)


def test_controlled_phase():
    c = parse_qasm("qreg q[2]; cp(pi/2) q[0],q[1];")
    assert c.gates == (Gate("NCP", (0, 1), Phase(1, 2)),)


def test_header_and_include():
    c = parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nx q[0];\n')
    assert c.gates == (Gate("X", (0,)),)


def test_qft3_matches_dft():
    qasm = """OPENQASM 2.0;
qreg q[3];
h q[2];
cp(pi/2) q[1],q[2];
cp(pi/4) q[0],q[2];
h q[1];
cp(pi/2) q[0],q[1];
h q[0];
swap q[0],q[2];
"""
    c = parse_qasm(qasm)
    kinds = [g.kind for g in c.gates]
    assert kinds.count("H") == 3
    ncp = [g for g in c.gates if g.kind == "NCP"]
    assert [g.angle for g in ncp] == [Phase(1, 2), Phase(1, 4), Phase(1, 2)]
    assert equal_up_to_scalar(circuit_unitary(c), dft_matrix(3), 1e-9)


def test_broadcast():
    c = parse_qasm("qreg q[3]; h q;")
    assert c.gates == tuple(Gate("H", (i,)) for i in range(3))
    c2 = parse_qasm("qreg q[2]; qreg r[2]; cx q,r;")
    assert c2.gates == (Gate("CX", (0, 2)), Gate("CX", (1, 3)))


def test_two_qregs_indexing():
    c = parse_qasm("qreg a[2]; qreg b[1]; cz a[1],b[0];")
    assert c.gates == (Gate("CZ", (1, 2)),)


def test_u_family_unitaries():
    def u3_matrix(t, p, l):
        return np.array([
            [math.cos(t / 2), -np.exp(1j * l) * math.sin(t / 2)],
            [np.exp(1j * p) * math.sin(t / 2), np.exp(1j * (p + l)) * math.cos(t / 2)],
        ])

    c = parse_qasm("qreg q[1]; u3(pi/3,pi/5,pi/7) q[0];")
    ref = u3_matrix(math.pi / 3, math.pi / 5, math.pi / 7)
    assert equal_up_to_scalar(circuit_unitary(c), ref, 1e-9)

    c = parse_qasm("qreg q[1]; u2(pi/5,pi/7) q[0];")
    ref = u3_matrix(math.pi / 2, math.pi / 5, math.pi / 7)
    assert equal_up_to_scalar(circuit_unitary(c), ref, 1e-9)

    c = parse_qasm("qreg q[1]; u1(pi/3) q[0]; p(pi/6) q[0];")
    assert c.gates == (Gate("Rz", (0,), Phase(1, 3)), Gate("Rz", (0,), Phase(1, 6)))


def test_ccx_and_ccz():
    c = parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")
    assert c.gates == (Gate("H", (2,)), Gate("NCZ", (0, 1, 2)), Gate("H", (2,)))
    ref = np.eye(8, dtype=complex)
    ref[[3, 7]] = ref[[7, 3]]  # controls 0,1 set: flip qubit 2 (qubit 0 least significant)
    assert equal_up_to_scalar(circuit_unitary(c), ref, 1e-9)
    c2 = parse_qasm("qreg q[3]; ccz q[2],q[0],q[1];")
    assert c2.gates == (Gate("NCZ", (2, 0, 1)),)


def test_exact_angle_arithmetic():
    c = parse_qasm("qreg q[1]; rz(3*pi/4 - pi/2) q[0]; rz(-pi/8) q[0]; rz(2*pi) q[0];")
    assert [g.angle for g in c.gates] == [Phase(1, 4), Phase(-1, 8), Phase(0)]


def test_decimal_angle_rationalized():
    c = parse_qasm(f"qreg q[1]; rz({math.pi / 4:.17g}) q[0];")
    assert c.gates[0].angle == Phase(1, 4)


def test_decimal_angle_unrepresentable():
    bad = math.pi / (3 * (1 << 20) + 1)
    with pytest.raises(QasmError):
        parse_qasm(f"qreg q[1]; rz({bad:.17g}) q[0];")


def test_custom_gate_definition():
    qasm = """qreg q[2];
gate foo(a) x, y { h x; cp(a/2) x, y; h x; }
foo(pi/2) q[1], q[0];
"""
    c = parse_qasm(qasm)
    assert c.gates == (
        Gate("H", (1,)),
        Gate("NCP", (1, 0), Phase(1, 4)),
        Gate("H", (1,)),
    )


def test_opaque_ncp():
    qasm = """qreg q[4];
opaque ncp3(theta) a,b,c;
opaque ncz4 a,b,c,d;
ncp3(pi/4) q[0],q[1],q[3];
ncz4 q[0],q[1],q[2],q[3];
"""
    c = parse_qasm(qasm)
    assert c.gates == (
        Gate("NCP", (0, 1, 3), Phase(1, 4)),
        Gate("NCZ", (0, 1, 2, 3)),
    )


def test_measurements_stripped():
    qasm = "qreg q[2]; creg c[2]; h q[0]; measure q[0] -> c[1]; measure q[1] -> c[0];"
    c = parse_qasm(qasm)
    assert c.gates == (Gate("H", (0,)),)
    assert c.measurements == ((0, 1), (1, 0))
    c2 = parse_qasm("qreg q[2]; creg c[2]; measure q -> c;")
    assert c2.measurements == ((0, 0), (1, 1))


def test_barrier_ignored():
    c = parse_qasm("qreg q[2]; h q[0]; barrier q; cx q[0],q[1];")
    assert len(c.gates) == 2


def test_error_positions():
    with pytest.raises(QasmError) as e:
        parse_qasm("qreg q[1];\nfrobnicate q[0];")
    assert e.value.line == 2 and e.value.col == 1
    with pytest.raises(QasmError, match="reset"):
        parse_qasm("qreg q[1]; reset q[0];")
    with pytest.raises(QasmError, match="if"):
        parse_qasm("qreg q[1]; creg c[1]; if (c) x q[0];")
    with pytest.raises(QasmError, match="after measure"):
        parse_qasm("qreg q[1]; creg c[1]; measure q[0] -> c[0]; x q[0];")
    with pytest.raises(QasmError, match="duplicate"):
        parse_qasm("qreg q[2]; cx q[0],q[0];")
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm("qreg q[2]; x q[5];")
    with pytest.raises(QasmError, match="version"):
        parse_qasm("OPENQASM 3.0; qreg q[1];")
    with pytest.raises(QasmError):
        parse_qasm("qreg q[2]; qreg r[3]; cx q,r;")
    with pytest.raises(QasmError, match="no qubits"):
        parse_qasm("creg c[1];")
    # the digits of an ncp<m>/ncz<m> name fix its qubit count
    with pytest.raises(QasmError, match="col 12: ncp3 expects 1 parameter\\(s\\) and 3 qubit"):
        parse_qasm("qreg q[2]; ncp3(pi/2) q[0], q[1];")
    with pytest.raises(QasmError, match="col 33: ncz4 expects 0 parameter\\(s\\) and 4 qubit"):
        parse_qasm("qreg q[2]; opaque ncz4 a,b,c,d; ncz4 q[0], q[1];")


@pytest.mark.parametrize(
    "text",
    ["qreg q[1]; gate foo(a", "qreg q[1]; opaque ncp3", "qreg q[1]; rz(", "qreg q[1]; h q[0]; barrier q"],
)
def test_truncated_input(text):
    with pytest.raises(QasmError, match="unexpected end of input") as e:
        parse_qasm(text)
    assert (e.value.line, e.value.col) == (1, len(text) + 1)


def test_unclosed_parenthesis_stops_at_semicolon():
    with pytest.raises(QasmError, match="expected '\\)'") as e:
        parse_qasm("qreg q[2];\nrz(pi/2 q[0];\nh q[1];")
    assert (e.value.line, e.value.col) == (2, 13)


def test_measure_qubit_out_of_range():
    with pytest.raises(QasmError, match="index 5 out of range for 'q'") as e:
        parse_qasm("qreg q[2]; creg c[2]; measure q[5] -> c[0];")
    assert (e.value.line, e.value.col) == (1, 23)


def test_measure_bit_out_of_range():
    with pytest.raises(QasmError, match="index 3 out of range for 'c'") as e:
        parse_qasm("qreg q[2]; creg c[1]; measure q[0] -> c[3];")
    assert (e.value.line, e.value.col) == (1, 23)


def test_measure_register_sizes_differ():
    with pytest.raises(QasmError, match="mismatched register lengths") as e:
        parse_qasm("qreg q[3]; creg c[2];\nmeasure q -> c;")
    assert (e.value.line, e.value.col) == (2, 1)


def test_gate_body_calls_itself():
    with pytest.raises(QasmError, match="gate 'g' calls itself") as e:
        parse_qasm("qreg q[1];\ngate g a { h a; g a; }\ng q[0];")
    assert (e.value.line, e.value.col) == (2, 17)


def test_gate_body_calls_later_gate():
    text = "qreg q[1]; gate f a { g a; } gate g a { f a; } f q[0];"
    with pytest.raises(QasmError, match="gate 'f' calls undefined gate 'g'") as e:
        parse_qasm(text)
    assert (e.value.line, e.value.col) == (1, 23)


def _gate_chain(depth):
    defs = "".join(f"gate g{i} a {{ g{i - 1} a; }}\n" for i in range(1, depth))
    return f"qreg q[1];\ngate g0 a {{ h a; }}\n{defs}g{depth - 1} q[0];"


@pytest.mark.parametrize(
    "text, pos",
    [
        ("qreg q[1]; rz(" + "(" * 400 + "pi" + ")" * 400 + ") q[0];", (1, 12)),
        ("qreg q[1]; rz(" + "-" * 2000 + "pi) q[0];", (1, 12)),
        (_gate_chain(600), (602, 1)),
    ],
    ids=["parentheses", "unary-minus", "gate-chain"],
)
def test_deep_nesting(text, pos):
    with pytest.raises(QasmError, match="nested too deeply") as e:
        parse_qasm(text)
    assert (e.value.line, e.value.col) == pos


def test_moderate_nesting_parses():
    c = parse_qasm("qreg q[1]; rz(" + "(" * 100 + "-" * 300 + "pi" + ")" * 100 + ") q[0];")
    assert c.gates == (Gate("Rz", (0,), Phase(1)),)
    assert parse_qasm(_gate_chain(100)).gates == (Gate("H", (0,)),)


def test_roundtrip_random_circuits():
    rng = random.Random(0)
    for seed in range(60):
        c = rand_rich_circuit(seed, max_qubits=5, max_gates=25)
        # swap is serialized natively but parsed as three CX; skip for
        # exact gate-list comparison
        gates = tuple(g for g in c.gates if g.kind != "Swap")
        c = Circuit(c.num_qubits, gates)
        back = parse_qasm(write_qasm(c))
        assert back.num_qubits == c.num_qubits
        assert back.gates == c.gates


def test_roundtrip_preserves_unitary_with_swap():
    for seed in range(15):
        c = rand_rich_circuit(seed + 300, max_qubits=4, max_gates=15)
        back = parse_qasm(write_qasm(c))
        assert equal_up_to_scalar(circuit_unitary(back), circuit_unitary(c), 1e-9)


def test_roundtrip_measurements():
    c = Circuit(2, (Gate("H", (0,)),), ((0, 0), (1, 1)))
    back = parse_qasm(write_qasm(c))
    assert back.measurements == c.measurements


_DIGEST_PROGRAMS = [
    """OPENQASM 2.0;
include "qelib1.inc";
// parameterised definition with nested parentheses in its body
gate rot(a, b) x, y { rz((a + b) / 2) x; cp(-(a - (b * 2))) x, y; ry(a) y; }
qreg q[3];
rot(pi/3, pi/(2*3)) q[0], q[2];
rot(pi, -pi/4) q[2], q[1];
""",
    "qreg q[2]; u1(pi/8) q[0]; u2(pi/4, -pi/2) q[1]; u3(pi/2, pi/3, pi/5) q[0];\n"
    "u(pi, 0, pi) q[1]; U(0, 0, pi/7) q[0]; p(3*pi/4) q[1]; cu1(pi/16) q[0], q[1];\n",
    "qreg q[2]; id q[0]; u0 q[1]; h q[0]; id q; x q[1];\n",
    "qreg q[3]; ccx q[0], q[1], q[2]; swap q[2], q[0]; ccz q[1], q[2], q[0];\n",
    "qreg a[3]; qreg b[3]; cx a, b; cz b, a; cp(pi/4) a, b[1]; h a; t b;\n",
    "qreg q[3];\nh q[0]; // comment after a gate\nbarrier q;\n// whole-line comment\n"
    "barrier q[0], q[2];\ncx q[0], q[1];\n",
    f"qreg q[2]; rz({math.pi / 4:.17g}) q[0]; rx(0.5 * pi) q[1]; ry(1.5707963267948966) q[0];\n"
    "rz(.25 * pi) q[1]; rz(2.5e-1 * pi) q[0];\n",
    """qreg q[5];
opaque ncp3(theta) a, b, c;
opaque ncz4 a, b, c, d;
opaque mcphase(theta) a, b;
ncp3(pi/4) q[0], q[1], q[3];
ncz4 q[4], q[1], q[2], q[3];
ncp5(-3*pi/8) q[0], q[1], q[2], q[3], q[4];
mcphase(pi/2) q[1], q[0];
""",
    "qreg q[3]; creg c[3]; h q[0]; cx q[0], q[1]; measure q[0] -> c[2]; measure q[1] -> c[0];\n",
    "qreg q[2]; creg c[2]; s q; sdg q[1]; tdg q[0]; y q; measure q -> c;\n",
    """qreg q[4];
gate inner(t) a { rz(t) a; h a; }
gate outer(t) a, b { inner(2*t) a; barrier a, b; cx a, b; inner(t/2) b; }
outer(pi/4) q[0], q[3];
outer(pi/8) q[2], q[1];
""",
    "qreg q[2]; qreg r[2]; gate bell a, b { h a; cx a, b; } bell q, r; swap q, r;\n",
]


def test_parse_digest():
    """Pin what the reader builds from a fixed corpus of written and hand-made programs."""
    texts = [write_qasm(rand_rich_circuit(seed, 8, 60)) for seed in range(200)] + _DIGEST_PROGRAMS
    h = hashlib.sha256()
    for text in texts:
        c = parse_qasm(text)
        h.update(repr((c.num_qubits, c.gates, c.measurements)).encode())
    assert h.hexdigest() == "20e7a00bff34e6129c1b4014770d2a07e287cd209d5946d250acd4da57797d31"
