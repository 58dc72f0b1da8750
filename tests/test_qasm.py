import hashlib
import math

import numpy as np
import pytest

from helpers import dft_matrix, rand_rich_circuit
from zxna import Circuit, Gate, Phase, circuit_unitary, equal_up_to_scalar, parse_qasm, write_qasm
from zxna import qasm
from zxna.qasm import MAX_QUBITS, QasmError


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
    assert c.gates == (Gate("H", (2,)), Gate("NCP", (0, 1, 2), Phase(1)), Gate("H", (2,)))
    ref = np.eye(8, dtype=complex)
    ref[[3, 7]] = ref[[7, 3]]  # controls 0,1 set: flip qubit 2 (qubit 0 least significant)
    assert equal_up_to_scalar(circuit_unitary(c), ref, 1e-9)
    c2 = parse_qasm("qreg q[3]; ccz q[2],q[0],q[1];")
    assert c2.gates == (Gate("NCP", (2, 0, 1), Phase(1)),)
    # every multi-controlled Z is read as NCP(pi), with or without a declaration
    for head in ("qreg q[4]; ", "qreg q[4]; opaque ncz4 a, b, c, d; "):
        assert parse_qasm(head + "ncz4 q[3], q[0], q[1], q[2];").gates == (Gate("NCP", (3, 0, 1, 2), Phase(1)),)


@pytest.mark.parametrize("m", range(2, 7))
def test_ncp_pi_roundtrips_at_every_arity(m):
    # NCP(pi) is written as cp(pi) or an opaque ncp<m>(pi), never as an ncz
    # name, and reads back as itself, as the same call spelled ncz<m> does
    qs = tuple(range(m))[::-1]
    c = Circuit(6, (Gate("NCP", qs, Phase(1)), Gate("NCP", (0, 5), Phase(1))))
    text = write_qasm(c)
    assert "ncz" not in text
    assert ("opaque" in text) == (m > 2)
    assert f"ncp{m}(pi) q[{m - 1}]" in text if m > 2 else "cp(pi) q[1],q[0];" in text
    assert parse_qasm(text).gates == c.gates
    calls = f"ncz{m} {', '.join(f'q[{q}]' for q in qs)}; ncz2 q[0], q[5];"
    assert parse_qasm("qreg q[6]; " + calls).gates == c.gates


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


@pytest.mark.parametrize(
    "angle, shown",
    [
        ("1e400", "inf"),
        ("-1e400", "-inf"),
        ("pi*1e308*10", "inf"),
        ("1e400-1e400", "nan"),
        ("1" + "0" * 400, "inf"),  # an exact integer beyond the float range
        ("1e-300*1" + "0" * 400, "inf"),
    ],
    ids=["inf", "-inf", "pi-product", "nan", "huge-int", "huge-product"],
)
def test_non_finite_angle_is_a_qasm_error(angle, shown):
    with pytest.raises(QasmError, match=f"cannot express angle {shown} as a rational multiple of pi") as e:
        parse_qasm(f"qreg q[1];\nh q[0]; rz({angle}) q[0];")
    assert (e.value.line, e.value.col) == (2, 9)


def test_huge_exact_divisor_rounds_to_zero():
    c = parse_qasm("qreg q[1]; rz(pi + 1.0/1" + "0" * 400 + ") q[0]; rz(pi - 1.0/-1" + "0" * 400 + ") q[0];")
    assert [g.angle for g in c.gates] == [Phase(1), Phase(1)]


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
        Gate("NCP", (0, 1, 2, 3), Phase(1)),
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


def test_error_line_counts_newlines_inside_strings():
    with pytest.raises(QasmError, match="unknown gate 'frobnicate'") as e:
        parse_qasm('include "a\nb";\nqreg q[1];\nfrobnicate q[0];')
    assert (e.value.line, e.value.col) == (4, 1)
    with pytest.raises(QasmError, match="unknown gate 'frobnicate'") as e:
        parse_qasm('qreg q[1]; include "a\n\nbc";  frobnicate q[0];')
    assert (e.value.line, e.value.col) == (3, 7)


@pytest.mark.parametrize(
    "text, pos",
    [
        ("qreg q[%s];", (2, 8)),
        ("qreg q[1];\nrz(%s) q[0];", (3, 4)),
        ("qreg q[1];\nrz(pi/%s) q[0];", (3, 7)),
        ("qreg q[2];\nncp%s(pi) q[0], q[1];", (3, 1)),
    ],
    ids=["register-size", "angle", "divisor", "ncp-name"],
)
def test_integer_too_long_for_int_is_a_qasm_error(text, pos):
    with pytest.raises(QasmError, match="integer of 5000 digits is too long") as e:
        parse_qasm("// a long literal\n" + text % ("7" * 5000))
    assert (e.value.line, e.value.col) == pos


@pytest.mark.parametrize(
    "text, pos",
    [
        ("qreg q[\u0663];", (2, 8)),  # ARABIC-INDIC DIGIT THREE
        ("qreg q[1];\nrz(1.\u0665) q[0];", (3, 6)),  # ARABIC-INDIC DIGIT FIVE
        ("qreg q[1];\nrz(\uff12) q[0];", (3, 4)),  # FULLWIDTH DIGIT TWO
        ("qreg q[2];\nncp2(pi/\u0969) q[0], q[1];", (3, 9)),  # DEVANAGARI DIGIT THREE
    ],
    ids=["register-size", "fraction", "angle", "divisor"],
)
def test_only_ascii_digits_are_digits(text, pos):
    # OpenQASM 2.0 numbers use 0-9 only; any other decimal digit starts no token
    with pytest.raises(QasmError, match="unexpected character") as e:
        parse_qasm("// a Unicode digit\n" + text)
    assert (e.value.line, e.value.col) == pos


@pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\u2003", "\x85"],
                         ids=["ideographic", "no-break", "em", "next-line"])
def test_only_ascii_whitespace_separates(space):
    # OpenQASM 2.0 whitespace is ASCII; any other space is a character of its own
    with pytest.raises(QasmError, match="unexpected character") as e:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];{space}h q[0];")
    assert (e.value.line, e.value.col) == (2, 11)
    assert parse_qasm("OPENQASM 2.0;\nqreg q[1];\t\r\x0b\x0c h q[0];").gates == (Gate("H", (0,)),)


@pytest.mark.parametrize("call", ["ncp0(pi) q[0], q[1];", "ncp1(pi) q[0], q[1];", "ncz0 q[0];", "ncz1 q[0], q[1];"])
def test_ncp_name_below_two_qubits_is_unknown(call):
    # ncp<m>/ncz<m> with m < 2 names no gate, with or without an opaque declaration
    name = call.split("(")[0].split()[0]
    for head in ("qreg q[2]; ", f"qreg q[2]; opaque {name} a;"):
        with pytest.raises(QasmError, match=f"col {len(head) + 1}: unknown gate '{name}'"):
            parse_qasm(head + call)


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


def test_duplicate_creg():
    with pytest.raises(QasmError, match="duplicate creg 'c'") as e:
        parse_qasm("qreg q[2]; creg c[2];\n creg c[1]; measure q -> c;")
    assert (e.value.line, e.value.col) == (2, 2)
    with pytest.raises(QasmError, match="duplicate qreg 'q'"):
        parse_qasm("qreg q[2]; qreg q[1];")
    # a classical and a quantum register may share a name
    assert parse_qasm("qreg c[1]; creg c[1]; measure c[0] -> c[0];").measurements == ((0, 0),)


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


@pytest.mark.parametrize(
    "text, msg, col",
    [
        ("qreg q[2]; gate g x,x { h x; } g q[0],q[1];", "repeated argument 'x'", 21),
        ("qreg q[1]; gate g(a,a) x { rz(a) x; } g(1,2) q[0];", "repeated parameter 'a'", 21),
        ("qreg q[3]; gate g(a, b, a) x, y { rz(a) x; }", "repeated parameter 'a'", 25),
        ("qreg q[3]; gate g x, y, z, y { h x; }", "repeated argument 'y'", 28),
        ("qreg q[3]; opaque ncp3(t, t) a, b, c; ncp3(pi/2) q[0], q[1], q[2];", "repeated parameter 't'", 27),
        ("qreg q[3]; opaque ncp3(t) a, a, b; ncp3(pi/2) q[0], q[1], q[2];", "repeated argument 'a'", 30),
    ],
    ids=["arguments", "parameters", "third-parameter", "fourth-argument", "opaque-parameters", "opaque-arguments"],
)
def test_gate_definition_repeats_a_name(text, msg, col):
    # a repeated name would bind one qubit twice or shadow an earlier parameter
    with pytest.raises(QasmError, match=msg) as e:
        parse_qasm(text)
    assert (e.value.line, e.value.col) == (1, col)


@pytest.mark.parametrize(
    "text, name, pos",
    [
        ("qreg q[1]; gate h a { x a; } h q[0];", "h", (1, 17)),
        ("qreg q[2]; gate ncp2(t) a, b { h a; } ncp2(pi) q[0], q[1];", "ncp2", (1, 17)),
        ("qreg q[2]; opaque mcp(t) a, b;\ngate mcp(t) a, b { h a; }", "mcp", (2, 6)),
        ("qreg q[1];\ngate g a { h a; }\ngate g a { x a; }\ng q[0];", "g", (3, 6)),
        ("qreg q[2];\ngate mcp(t) a, b { h a; }\nopaque mcp(t) a, b;\nmcp(pi) q[0], q[1];", "mcp", (3, 8)),
    ],
    ids=["built-in", "ncp-family", "opaque", "earlier-definition", "opaque-after-definition"],
)
def test_gate_definition_reuses_a_name(text, name, pos):
    # else the built-in, the ncp family, the first definition or the opaque declaration would win silently
    with pytest.raises(QasmError, match=f"gate '{name}' is already defined") as e:
        parse_qasm(text)
    assert (e.value.line, e.value.col) == pos


@pytest.mark.parametrize("name, col", [("5", 9), ("foo", 9), (";", 9), ("pi", 9)])
def test_include_names_a_string(name, col):
    with pytest.raises(QasmError, match=f"expected string literal, found '{name}'") as e:
        parse_qasm(f"include {name}; qreg q[1]; h q[0];")
    assert (e.value.line, e.value.col) == (1, col)
    assert parse_qasm('include "qelib1.inc"; qreg q[1]; h q[0];').gates == (Gate("H", (0,)),)


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


def test_declared_qubits_are_capped():
    assert parse_qasm(f"qreg q[{MAX_QUBITS - 1}]; qreg r[1]; h r;").num_qubits == MAX_QUBITS
    for text, pos in ((f"qreg q[{MAX_QUBITS}];\n  qreg r[1]; h q;", (2, 3)), ("qreg q[100000]; h q;", (1, 1))):
        with pytest.raises(QasmError, match=f"more than {MAX_QUBITS} qubits declared") as e:
            parse_qasm(text)
        assert (e.value.line, e.value.col) == pos


def _doubling_chain(depth, body="h a;"):
    """Definitions g0..g<depth-1>, each calling the one before twice.

    A call of the last makes 2^depth - 1 calls of the g's and 2^(depth-1) of the body.
    """
    defs = "".join(f"gate g{i} a {{ g{i - 1} a; g{i - 1} a; }}\n" for i in range(1, depth))
    return f"qreg q[1];\ngate g0 a {{ {body} }}\n{defs}x q[0]; g{depth - 1} q[0];"


def test_gate_calls_are_capped(monkeypatch):
    monkeypatch.setattr(qasm, "MAX_GATES", 1 << 10)
    # x, 511 calls of g8..g0, 256 of h and y: 769 calls, 258 gates
    assert len(parse_qasm(_doubling_chain(9) + " y q[0];").gates) == 258
    assert len(parse_qasm("qreg q[512]; h q; x q;").gates) == 1 << 10
    # 30 levels would make over 2^30 calls, whether or not their gates emit anything
    cases = [(_doubling_chain(30, body), (32, 9)) for body in ("h a;", "id a;", "")]
    cases += [("qreg q[1025]; h q;", (1, 15)), ("qreg q[512]; h q; x q; z q[0];", (1, 24))]
    for text, pos in cases:
        with pytest.raises(QasmError, match="more than 1024 gate calls") as e:
            parse_qasm(text)
        assert (e.value.line, e.value.col) == pos


def test_roundtrip_random_circuits():
    for seed in range(60):
        c = rand_rich_circuit(seed, max_qubits=5, max_gates=25)
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


def test_cregs_get_distinct_bits():
    # bits are numbered across registers in declaration order, so two cregs never share c[0]
    c = parse_qasm("qreg q[3]; creg a[1]; creg b[2]; measure q[0] -> a[0]; measure q[1] -> b[0];"
                   " measure q[2] -> b[1];")
    assert c.measurements == ((0, 0), (1, 1), (2, 2))
    assert parse_qasm(write_qasm(c)).measurements == c.measurements
    assert parse_qasm("qreg q[2]; creg a[1]; creg b[2]; measure q -> b;").measurements == ((0, 1), (1, 2))
    with pytest.raises(QasmError, match="index 1 out of range for 'a'"):
        parse_qasm("qreg q[2]; creg a[1]; creg b[2]; measure q[0] -> a[1];")


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
    assert h.hexdigest() == "6db001277f75f33b9dd64d3e40b81260cc771a2d1dedcd0afe53a13b5e17a9cd"


def _edits(text):
    """Every truncation, one-character deletion and ``@`` insertion of ``text``."""
    for i in range(len(text) + 1):
        yield text[:i]
        yield text[:i] + text[i + 1:]
        yield text[:i] + "@" + text[i:]


def test_error_digest():
    """Pin the message, line and column of every error on a corpus of damaged programs."""
    h = hashlib.sha256()
    outcomes = errors = 0
    for text in _DIGEST_PROGRAMS:
        for damaged in _edits(text):
            try:
                parse_qasm(damaged)
                out = "ok"
            except QasmError as e:
                out = str(e)
                errors += 1
            outcomes += 1
            h.update(out.encode() + b"\n")
    assert (outcomes, errors) == (4392, 3695)
    assert h.hexdigest() == "87db38da6095e452e7de3498efdfc77501d50f928970be462259bd41d3adcac8"
