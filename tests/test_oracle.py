import numpy as np
import pytest

from helpers import rand_rich_circuit
from zxna import Gate, Phase, circuit_unitary
from zxna.oracle import apply_gate, gate_matrix

N = 7


def basis_operator(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Full 2**n operator of a gate, built column by column from its basis action.

    Basis state x maps to sum_r mat[r, c] |x with the gate qubits set to r>,
    where c reads gate qubit qubits[i] as bit i.
    """
    k = len(qubits)
    mask = sum(1 << q for q in qubits)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for x in range(1 << n):
        c = sum(((x >> q) & 1) << i for i, q in enumerate(qubits))
        for r in range(1 << k):
            y = (x & ~mask) | sum(((r >> i) & 1) << q for i, q in enumerate(qubits))
            full[y, x] += mat[r, c]
    return full


def _random_state(rng: np.random.Generator, cols: int) -> np.ndarray:
    return rng.normal(size=(1 << N, cols)) + 1j * rng.normal(size=(1 << N, cols))


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


GATES = [
    # diagonal
    Gate("Rz", (3,), Phase(3, 8)),
    Gate("T", (5,)),
    Gate("CZ", (4, 1)),
    Gate("NCP", (5, 2), Phase(-3, 4)),
    Gate("NCP", (6, 1, 3), Phase(1, 8)),
    Gate("NCP", (4, 0, 6, 2), Phase(5, 8)),
    # permutation
    Gate("CX", (1, 4)),
    Gate("CX", (5, 0)),
    Gate("Swap", (6, 2)),
    Gate("X", (3,)),
    # one-qubit dense
    Gate("H", (0,)),
    Gate("Rx", (6,), Phase(-5, 8)),
    Gate("Ry", (2,), Phase(3, 4)),
    Gate("Y", (4,)),
]
CASES = {f"{g.kind}{g.qubits}": (gate_matrix(g), g.qubits) for g in GATES}
# a permutation with an 8-cycle, unlike the involutions of the gate set
CASES["increment(6, 0, 3)"] = (np.roll(np.eye(8, dtype=complex), 1, axis=0), (6, 0, 3))
# no zero entries, so only the general path applies
CASES["random(5, 2)"] = (_random_unitary(np.random.default_rng(1), 4), (5, 2))


@pytest.mark.parametrize("cols", [1 << N, 3])
@pytest.mark.parametrize("name", list(CASES))
def test_apply_gate_matches_basis_action(name, cols):
    mat, qubits = CASES[name]
    state = _random_state(np.random.default_rng(cols), cols)
    ref = basis_operator(mat, qubits, N) @ state
    out = apply_gate(state, mat, qubits, N)
    assert out is state
    assert np.max(np.abs(out - ref)) < 1e-12


def test_apply_gate_rejects_state_it_cannot_update_in_place():
    mat = gate_matrix(Gate("H", (0,)))
    with pytest.raises(ValueError):
        apply_gate(np.eye(4, dtype=complex).T[:, :3], mat, (0,), 2)
    with pytest.raises(ValueError):
        apply_gate(np.eye(4), mat, (0,), 2)


def test_circuit_unitary_matches_basis_product():
    for seed in range(40):
        c = rand_rich_circuit(seed)
        n = c.num_qubits
        ref = np.eye(1 << n, dtype=complex)
        for g in c.gates:
            ref = basis_operator(gate_matrix(g), g.qubits, n) @ ref
        assert np.max(np.abs(circuit_unitary(c) - ref)) < 1e-12, seed

