import numpy as np
import pytest

from helpers import basis_operator, rand_rich_circuit
from zxna import Circuit, Gate, Phase, apply_circuit, circuit_unitary
from zxna.circuit import ANGLE_KINDS, FIXED_KINDS
from zxna.oracle import MAX_QUBITS, gate_matrix

N = 7


def _random_state(rng: np.random.Generator, cols: int) -> np.ndarray:
    return rng.normal(size=(1 << N, cols)) + 1j * rng.normal(size=(1 << N, cols))


GATES = [
    # diagonal
    Gate("Z", (2,)),
    Gate("S", (6,)),
    Gate("Sdg", (0,)),
    Gate("T", (5,)),
    Gate("Tdg", (1,)),
    Gate("Rz", (3,), Phase(3, 8)),
    Gate("CZ", (4, 1)),
    Gate("NCP", (2, 6, 0), Phase(1)),
    Gate("NCP", (5, 2), Phase(-3, 4)),
    Gate("NCP", (6, 1, 3), Phase(1, 8)),
    Gate("NCP", (4, 0, 6, 2), Phase(5, 8)),
    # permutation
    Gate("CX", (1, 4)),
    Gate("CX", (5, 0)),
    Gate("Swap", (6, 2)),
    Gate("X", (3,)),
    Gate("Y", (4,)),
    # mixing, Rx on the lowest and on the highest qubit
    Gate("H", (0,)),
    Gate("Rx", (0,), Phase(3, 8)),
    Gate("Rx", (6,), Phase(-5, 8)),
    Gate("Ry", (2,), Phase(3, 4)),
]
CASES = {f"{g.kind}{g.qubits}": g for g in GATES}


def test_one_gate_cases_cover_every_kind():
    assert {g.kind for g in GATES} == FIXED_KINDS | ANGLE_KINDS


@pytest.mark.parametrize("cols", [1 << N, 3])
@pytest.mark.parametrize("name", list(CASES))
def test_apply_gate_matches_basis_action(name, cols):
    g = CASES[name]
    state = _random_state(np.random.default_rng(cols), cols)
    ref = basis_operator(gate_matrix(g), g.qubits, N) @ state
    out = apply_circuit(state, Circuit(N, (g,)))
    assert np.max(np.abs(out - ref)) < 1e-12


def basis_product(c: Circuit) -> np.ndarray:
    """Product of the gates' ``basis_operator`` matrices, first gate rightmost."""
    n = c.num_qubits
    ref = np.eye(1 << n, dtype=complex)
    for g in c.gates:
        ref = basis_operator(gate_matrix(g), g.qubits, n) @ ref
    return ref


def test_circuit_unitary_matches_basis_product():
    for seed in range(40):
        c = rand_rich_circuit(seed)
        assert np.max(np.abs(circuit_unitary(c) - basis_product(c))) < 1e-12, seed


# every monomial kind, with permutations both before and after phases
MONOMIAL = Circuit(5, (
    Gate("T", (1,)), Gate("X", (1,)), Gate("Y", (3,)), Gate("CX", (0, 4)), Gate("S", (4,)),
    Gate("Swap", (2, 4)), Gate("Z", (0,)), Gate("Sdg", (2,)), Gate("Tdg", (3,)),
    Gate("Rz", (4,), Phase(-5, 8)), Gate("Y", (0,)), Gate("CZ", (3, 1)), Gate("NCP", (0, 2, 3), Phase(1)),
    Gate("CX", (3, 2)), Gate("NCP", (1, 4), Phase(3, 4)), Gate("Swap", (0, 3)),
))
CIRCUITS = {
    "monomial": MONOMIAL,
    "ends-in-H": Circuit(5, MONOMIAL.gates + (Gate("H", (2,)),)),
    "ends-in-Rx": Circuit(5, MONOMIAL.gates + (Gate("Rx", (4,), Phase(1, 8)),)),
    "ends-in-Ry": Circuit(5, MONOMIAL.gates + (Gate("Ry", (0,), Phase(-3, 4)),)),
    "one-qubit": Circuit(1, (Gate("T", (0,)), Gate("H", (0,)), Gate("Y", (0,)), Gate("Ry", (0,), Phase(1, 4)),
                             Gate("Rz", (0,), Phase(1, 8)), Gate("X", (0,)), Gate("Rx", (0,), Phase(-1, 2)))),
    "empty": Circuit(3, ()),
    "ncp-arity-4": Circuit(5, (Gate("H", (2,)), Gate("X", (0,)), Gate("NCP", (4, 0, 2, 1), Phase(5, 8)),
                               Gate("CX", (2, 3)), Gate("NCP", (3, 1, 0, 4), Phase(-1, 4)))),
}


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_circuit_unitary_matches_basis_product_on_edge_cases(name):
    c = CIRCUITS[name]
    assert np.max(np.abs(circuit_unitary(c) - basis_product(c))) < 1e-12


def test_monomial_circuits_match_basis_product():
    for seed in range(40):
        c = rand_rich_circuit(seed)
        c = Circuit(c.num_qubits, tuple(g for g in c.gates if g.kind not in ("H", "Rx", "Ry")))
        assert np.max(np.abs(circuit_unitary(c) - basis_product(c))) < 1e-12, seed


def test_apply_circuit_on_column_block():
    rng = np.random.default_rng(7)
    for seed in range(40):
        c = rand_rich_circuit(seed)
        dim = 1 << c.num_qubits
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        before = block.copy()
        out = apply_circuit(block, c)
        assert np.max(np.abs(out - circuit_unitary(c) @ block)) < 1e-12, seed
        assert np.array_equal(block, before), seed


def test_many_hadamards_stay_normalized():
    c = Circuit(2, (Gate("H", (1,)),) * 4001)
    assert np.max(np.abs(circuit_unitary(c) - basis_operator(gate_matrix(c.gates[0]), (1,), 2))) < 1e-9


def test_apply_circuit_rejects_wrong_shape():
    c = Circuit(3, (Gate("H", (0,)),))
    for shape in [(8,), (4, 2), (8, 2, 1)]:
        with pytest.raises(ValueError):
            apply_circuit(np.zeros(shape, dtype=complex), c)


def test_circuit_unitary_rejects_too_many_qubits():
    with pytest.raises(ValueError, match="too many qubits"):
        circuit_unitary(Circuit(MAX_QUBITS + 1, ()))
