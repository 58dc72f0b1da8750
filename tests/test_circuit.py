import random
import re

import numpy as np
import pytest

from helpers import RICH_KINDS, cancel_gates_reference, rand_corpus_circuit, rand_rich_circuit
from zxna import (
    Circuit,
    ExtractionMode,
    Gate,
    Phase,
    cancel_gates,
    circuit_unitary,
    equal_up_to_scalar,
    extract_circuit,
    full_simplify,
    schedule,
    to_ncz_baseline,
)
from zxna.circuit import lower_to_cz
from zxna.ingest import circuit_to_diagram, to_graph_like


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("Rz", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("H", (0,), Phase(1))  # unexpected angle
    with pytest.raises(ValueError):
        Gate("CX", (0, 0))  # duplicate qubits
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("NCP", (0,), Phase(1))
    with pytest.raises(ValueError):
        Gate("Frob", (0,))


def test_gate_rejects_a_non_phase_angle():
    # an int Rz(1) would schedule as Rz(pi) but be written as rz(1), one radian;
    # a float would fail far from here, in whichever pass read it first
    for kind, qubits in (("Rz", (0,)), ("Rx", (0,)), ("Ry", (0,)), ("NCP", (0, 1))):
        for angle in (1, 0.5):
            with pytest.raises(ValueError, match=f"{kind} requires a Phase angle, got {angle}"):
                Gate(kind, qubits, angle)
        assert Gate(kind, qubits, Phase(1, 2)).angle == Phase(1, 2)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError):
        Circuit(1, (Gate("H", (1,)),))


def test_circuit_range_error_names_the_gate():
    ok = (Gate("H", (0,)), Gate("CZ", (0, 1)))
    for bad in (Gate("CX", (0, 2)), Gate("Rz", (-1,), Phase(1, 4))):
        for gates in ((bad,), ok + (bad,), (bad,) + ok):
            with pytest.raises(ValueError, match=re.escape(f"gate {bad} out of range for 2 qubits")):
                Circuit(2, gates)
    assert Circuit(2, ok).gates == ok


def test_circuit_qubits_are_ints():
    # a float or bool qubit would be written as q[1.0] or read as qubit 1 far from here
    for bad in (Gate("H", (1.0,)), Gate("CZ", (True, 0)), Gate("NCP", (0, 1, np.int64(2)), Phase(1))):
        for gates in ((bad,), (Gate("H", (0,)), bad)):
            with pytest.raises(ValueError, match=re.escape(f"gate {bad} has a qubit that is not an int")):
                Circuit(3, gates)
    for size in (2.0, True, np.int64(2)):
        with pytest.raises(ValueError, match=re.escape(f"circuit size {size!r} is not an int")):
            Circuit(size)


def test_gate_qubits_are_a_tuple():
    # a list of qubits would make the gate unhashable and unequal to its tuple twin
    for qubits in ([0], range(1), (q for q in (0,))):
        with pytest.raises(ValueError, match="are not a tuple"):
            Gate("H", qubits)
    assert hash(Gate("CZ", (0, 1))) == hash(Gate("CZ", (0, 1)))


def test_circuit_checks_measurements():
    # an out-of-range pair would be written as measure q[5] -> c[0], which the reader rejects
    for bad in ((5, 0), (2, 0), (-1, 0), (0, -1), (0,), (0, 1, 2), [0, 0], (0, 1.0), (True, 0), 0):
        with pytest.raises(ValueError, match="is not a \\(qubit, bit\\) pair"):
            Circuit(2, (), (bad,))
    c = Circuit(2, (), [(1, 0), (0, 3)])
    assert c.measurements == ((1, 0), (0, 3))
    assert c.with_gates([Gate("H", (0,))]).measurements == ((1, 0), (0, 3))


def test_cancel_adjacent_self_inverse():
    c = Circuit(1, (Gate("H", (0,)), Gate("H", (0,))))
    assert cancel_gates(c).gates == ()


def test_cancel_through_disjoint_gate():
    c = Circuit(2, (
        Gate("Rz", (0,), Phase(1, 4)),
        Gate("X", (1,)),
        Gate("Rz", (0,), Phase(-1, 4)),
    ))
    assert cancel_gates(c).gates == (Gate("X", (1,)),)


def test_cancel_merges_phase_gates():
    c = Circuit(1, (Gate("S", (0,)), Gate("T", (0,))))
    assert cancel_gates(c).gates == (Gate("Rz", (0,), Phase(3, 4)),)


def test_cancel_merges_ncp():
    c = Circuit(3, (
        Gate("NCP", (0, 1, 2), Phase(1, 4)),
        Gate("NCP", (2, 0, 1), Phase(-1, 4)),
    ))
    assert cancel_gates(c).gates == ()
    c2 = Circuit(2, (Gate("NCP", (0, 1), Phase(1)), Gate("NCP", (1, 0), Phase(1))))
    assert cancel_gates(c2).gates == ()


def test_ncp_is_the_one_multi_controlled_z():
    # C^kZ is NCP(pi): there is no second kind for it
    with pytest.raises(ValueError, match="unknown gate kind 'NCZ'"):
        Gate("NCZ", (0, 1))


def test_cancel_drops_zero_rotations():
    c = Circuit(1, (Gate("Rz", (0,), Phase(0)), Gate("Rx", (0,), Phase(0))))
    assert cancel_gates(c).gates == ()


def test_cancel_blocked_by_overlap():
    c = Circuit(2, (Gate("H", (0,)), Gate("CZ", (0, 1)), Gate("H", (0,))))
    assert len(cancel_gates(c)) == 3


def test_cancel_preserves_unitary():
    for seed in range(40):
        c = rand_rich_circuit(seed, max_qubits=5, max_gates=25)
        out = cancel_gates(c)
        assert len(out) <= len(c)
        assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-9)


def _disjoint_runs_circuit(seed: int) -> Circuit:
    """Gate pairs that may cancel or merge, each pair split by a long run on the other qubits."""
    rng = random.Random(seed)
    n = 8
    gates = []
    for _ in range(10):
        qs = tuple(rng.sample(range(n), rng.randint(1, 3)))
        rest = [q for q in range(n) if q not in qs]
        angle = Phase(rng.randint(-3, 4), 4)
        if len(qs) == 1:
            pair = [Gate(rng.choice(("H", "X", "S", "T")), qs), Gate("Rz", qs, angle)]
        elif len(qs) == 2:
            pair = [Gate(rng.choice(("CX", "CZ", "Swap")), qs), Gate("NCP", qs[::-1], angle)]
        else:
            pair = [Gate("NCP", qs, Phase(1)), Gate("NCP", qs[::-1], angle)]
        gates.append(rng.choice(pair))
        for _ in range(rng.randint(5, 60)):
            if len(rest) > 1 and rng.random() < 0.3:
                gates.append(Gate(rng.choice(("CX", "CZ")), tuple(rng.sample(rest, 2))))
            else:
                gates.append(Gate(rng.choice(("H", "T", "Tdg", "X")), (rng.choice(rest),)))
        gates.append(rng.choice(pair))
    return Circuit(n, tuple(gates))


def _pre_cancel_circuits(c: Circuit) -> list[Circuit]:
    """What each pipeline hands to ``cancel_gates`` for ``c``."""
    d = circuit_to_diagram(c)
    to_graph_like(d)
    full_simplify(d)
    modes = [ExtractionMode(kind) for kind in ("default", "no-insert", "with-insert")]
    return [to_ncz_baseline(c)] + [extract_circuit(d, m) for m in modes]


def test_cancel_matches_scan_back_reference():
    # one pass of cancel_gates against passes repeated to a fixpoint
    circuits = [rand_rich_circuit(seed) for seed in range(300)]
    circuits += [rand_rich_circuit(seed, max_qubits=3, max_gates=80) for seed in range(100)]
    circuits += [_disjoint_runs_circuit(seed) for seed in range(100)]
    circuits += [out for seed in range(40) for out in _pre_cancel_circuits(rand_corpus_circuit(seed))]
    removed = 0
    for c in circuits:
        out = cancel_gates(c)
        assert out.gates == cancel_gates_reference(c).gates
        removed += len(c) - len(out)
    assert removed > 1000  # the corpus exercises the merges


def test_lower_to_cz_order():
    h0, h2 = Gate("H", (0,)), Gate("H", (2,))
    cx = list(lower_to_cz([Gate("CX", (2, 0))]))
    assert cx == [h0, Gate("CZ", (2, 0)), h0]
    assert cx[0] is cx[2]  # one H object per CX
    assert list(lower_to_cz([Gate("Swap", (0, 2))])) == [
        h2, Gate("CZ", (0, 2)), h2,
        h0, Gate("CZ", (2, 0)), h0,
        h2, Gate("CZ", (0, 2)), h2,
    ]
    others = [g for seed in range(20) for g in rand_rich_circuit(seed).gates if g.kind not in ("CX", "Swap")]
    assert {g.kind for g in others} == set(RICH_KINDS) - {"CX", "Swap", "NCZ"}  # an NCZ draw is an NCP
    out = list(lower_to_cz(others))
    assert len(out) == len(others) and all(a is b for a, b in zip(out, others))


def test_consumers_read_the_one_lowering():
    # ingest, the NCP baseline and the scheduler see a CX or Swap exactly as
    # the H-CZ-H gates lower_to_cz yields for it
    kinds = set()
    for seed in range(200):
        c = rand_rich_circuit(seed)
        kinds.update(g.kind for g in c.gates)
        low = c.with_gates(lower_to_cz(c.gates))
        assert circuit_to_diagram(c).to_json() == circuit_to_diagram(low).to_json()
        assert to_ncz_baseline(c) == to_ncz_baseline(low)
        assert schedule(c).to_json() == schedule(low).to_json()
    assert {"CX", "Swap"} <= kinds


def test_baseline_cx():
    c = Circuit(2, (Gate("CX", (0, 1)),))
    assert to_ncz_baseline(c).gates == (
        Gate("H", (1,)), Gate("NCP", (0, 1), Phase(1)), Gate("H", (1,)),
    )


def test_baseline_cz_and_swap():
    c = Circuit(2, (Gate("CZ", (0, 1)), Gate("Swap", (0, 1))))
    out = to_ncz_baseline(c)
    assert all(g.kind == "H" or g == Gate("NCP", g.qubits, Phase(1)) for g in out.gates)
    assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-9)


def test_baseline_gate_set_and_unitary():
    for seed in range(25):
        c = rand_rich_circuit(seed + 100, max_qubits=5, max_gates=20)
        out = to_ncz_baseline(c)
        for g in out.gates:
            assert len(g.qubits) == 1 or g.kind == "NCP"
        assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-9)
