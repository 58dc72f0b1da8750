import hashlib

import numpy as np
import pytest

from helpers import qft_circuit, rand_rich_circuit
from zxna import Circuit, Gate, Phase, circuit_unitary, diagram_tensor, equal_up_to_scalar
from zxna.ingest import circuit_to_diagram, to_graph_like


def test_empty_circuit_is_identity():
    d = circuit_to_diagram(Circuit(2))
    assert equal_up_to_scalar(diagram_tensor(d), np.eye(4), 1e-10)


def test_single_hadamard_uses_wire_flag():
    d = circuit_to_diagram(Circuit(1, (Gate("H", (0,)),)))
    assert d.output_hadamard == [True]
    h = np.array([[1, 1], [1, -1]], dtype=complex)
    assert equal_up_to_scalar(diagram_tensor(d), h, 1e-10)


def test_double_hadamard_cancels():
    d = circuit_to_diagram(Circuit(1, (Gate("H", (0,)), Gate("H", (0,)))))
    assert d.output_hadamard == [False]
    assert d.num_spiders() == 1


def test_cz_becomes_hadamard_edge():
    d = circuit_to_diagram(Circuit(2, (Gate("CZ", (0, 1)),)))
    assert d.num_spiders() == 2
    assert d.num_edges() == 1
    assert equal_up_to_scalar(diagram_tensor(d), np.diag([1, 1, 1, -1]), 1e-10)


def test_ncp_splices_gadget_structure():
    c = Circuit(2, (Gate("NCP", (0, 1), Phase(1)),))
    d = circuit_to_diagram(c)
    assert len(d.find_gadgets()) == 1
    assert equal_up_to_scalar(diagram_tensor(d), np.diag([1, 1, 1, -1]), 1e-10)


def test_ncz3_tensor():
    c = Circuit(3, (Gate("NCZ", (0, 1, 2)),))
    d = circuit_to_diagram(c)
    ref = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
    assert equal_up_to_scalar(diagram_tensor(d), ref, 1e-10)


def test_graph_like_invariants():
    for seed in range(30):
        c = rand_rich_circuit(seed, max_qubits=5, max_gates=20)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        d.check_simple()
        assert len(d.inputs) == len(d.outputs) == c.num_qubits


def test_tensor_matches_unitary():
    checked = 0
    for seed in range(60):
        c = rand_rich_circuit(seed, max_qubits=4, max_gates=12)
        d = circuit_to_diagram(c)
        if d.num_spiders() > 22:
            continue
        assert equal_up_to_scalar(diagram_tensor(d), circuit_unitary(c), 1e-9)
        checked += 1
    assert checked >= 30


def test_unknown_gate_rejected():
    c = Circuit(1, (Gate("Y", (0,)),))
    # Y itself is supported; build an unsupported kind artificially
    g = object.__new__(Gate)
    object.__setattr__(g, "kind", "Bogus")
    object.__setattr__(g, "qubits", (0,))
    object.__setattr__(g, "angle", None)
    c = Circuit(1, ())
    object.__setattr__(c, "gates", (g,))
    with pytest.raises(ValueError):
        circuit_to_diagram(c)


def test_ingest_digest():
    # Spider ids, edges and phases of ingest over every gate kind (X, Y, Ry,
    # Z, Sdg, Tdg, Swap and NCZ of arity 4 included): a refactor of ingest
    # must leave this digest as it is
    h = hashlib.sha256()
    for c in [rand_rich_circuit(seed) for seed in range(200)] + [qft_circuit(n) for n in range(4, 17)]:
        h.update(circuit_to_diagram(c).to_json().encode())
    assert h.hexdigest() == "0902d5ae760691ea91655e45838a43839de410b000b25ca0f2029beceebf6351"
