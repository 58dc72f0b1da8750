import random

import pytest

from helpers import qft_circuit, rand_corpus_circuit, rand_rich_circuit
from zxna import (
    Circuit,
    ExtractionMode,
    Gate,
    Phase,
    ZxDiagram,
    cancel_gates,
    circuit_unitary,
    diagram_tensor,
    equal_up_to_scalar,
    extract_circuit,
    full_simplify,
)
from zxna.extract import ExtractionError, pivot_yz_neighbor
from zxna.gf2 import row_reduce
from zxna.ingest import circuit_to_diagram, to_graph_like


def _int_rank(rows, ncols):
    """GF(2) rank via bitmask elimination, independent of the library kernel."""
    rows = [r & ((1 << ncols) - 1) for r in rows]
    rank = 0
    for bit in range(ncols - 1, -1, -1):
        piv = next((i for i, r in enumerate(rows) if (r >> bit) & 1), None)
        if piv is None:
            continue
        p = rows.pop(piv)
        rows = [r ^ p if (r >> bit) & 1 else r for r in rows]
        rank += 1
    return rank


def test_gaussian_eliminate_identity():
    assert row_reduce([0b001, 0b010, 0b100], 3)[1] == []


def test_gaussian_eliminate_single_op():
    m = [0b11, 0b10]  # [[1, 1], [0, 1]]: bit j is column j
    ops = row_reduce(m, 2)[1]
    assert len(ops) == 1
    src, dst = ops[0]
    m[dst] ^= m[src]
    assert m == [0b01, 0b10]


def test_gaussian_eliminate_replay_gives_rref():
    rng = random.Random(5)
    for _ in range(50):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [sum(rng.randint(0, 1) << j for j in range(c)) for _ in range(r)]
        # row i carries bit c + i above the columns to record combinations
        tagged = [row | 1 << (c + i) for i, row in enumerate(m)]
        rref, ops, pivots = row_reduce(tagged, c)
        replay = list(tagged)
        for src, dst in ops:
            replay[dst] ^= replay[src]
        assert replay == rref
        low = [row & ((1 << c) - 1) for row in replay]
        # reduced row echelon: pivot columns are unit vectors
        assert _int_rank(low, c) == _int_rank(m, c) == len(pivots)
        seen = -1
        for row in low:
            if row == 0:
                continue
            piv = (row & -row).bit_length() - 1
            assert piv > seen
            seen = piv
            assert sum((x >> piv) & 1 for x in low) == 1
        # ride-along bits: each reduced row is the sum of the input rows its
        # combination names, so the zero rows' combinations sum to 0
        for i, row in enumerate(rref):
            comb = row >> c
            acc = 0
            for j in range(r):
                if (comb >> j) & 1:
                    acc ^= m[j]
            assert acc == low[i]
            if i >= len(pivots):
                assert low[i] == 0 and comb != 0


def test_extract_identity():
    d = circuit_to_diagram(Circuit(2))
    out = cancel_gates(extract_circuit(d))
    assert out.gates == ()


def test_extract_requires_gflow():
    d = ZxDiagram(0, 1)
    o = d.add_spider()
    d.outputs = [o]
    stray = d.add_spider(Phase(1, 4))
    with pytest.raises(ExtractionError):
        extract_circuit(d)


def test_extract_ncz3_as_single_ncp():
    c = Circuit(3, (Gate("NCZ", (0, 1, 2)),))
    d = circuit_to_diagram(c)
    out = cancel_gates(extract_circuit(d, ExtractionMode("no-insert")))
    assert len(out.gates) == 1
    (g,) = out.gates
    assert g.kind == "NCP" and set(g.qubits) == {0, 1, 2} and g.angle == Phase(1)


def test_default_mode_gate_set():
    for seed in range(8):
        c = rand_corpus_circuit(seed, max_qubits=5, max_gates=25)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        full_simplify(d)
        out = extract_circuit(d, ExtractionMode("default"))
        assert all(g.kind in ("H", "Rz", "CZ", "CX") for g in out.gates)
        assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-8)


def test_all_modes_roundtrip():
    for seed in range(10):
        c = rand_corpus_circuit(seed + 40, max_qubits=6, max_gates=35)
        ref = circuit_unitary(c)
        for kind in ("default", "no-insert", "with-insert"):
            d = circuit_to_diagram(c)
            to_graph_like(d)
            full_simplify(d)
            out = extract_circuit(d, ExtractionMode(kind))
            assert equal_up_to_scalar(circuit_unitary(out), ref, 1e-8), (seed, kind)


def test_debug_mode_checks_insertions():
    for seed in range(4):
        c = rand_corpus_circuit(seed + 200, max_qubits=5, max_gates=30)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        full_simplify(d)
        out = extract_circuit(d, ExtractionMode("with-insert", debug=True))
        assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-8)


def test_max_ctrl_caps_arity():
    c = qft_circuit(6)
    d = circuit_to_diagram(c)
    to_graph_like(d)
    full_simplify(d)
    out = extract_circuit(d, ExtractionMode("with-insert", max_ctrl=2))
    assert all(len(g.qubits) <= 2 for g in out.gates if g.kind == "NCP")
    assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-8)


def test_with_insert_reaches_higher_arity_on_qft():
    c = qft_circuit(6)
    d = circuit_to_diagram(c)
    to_graph_like(d)
    full_simplify(d)
    out = extract_circuit(d, ExtractionMode("with-insert"))
    assert any(g.kind == "NCP" and len(g.qubits) >= 3 for g in out.gates)
    assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-8)


def test_extraction_deterministic():
    c = rand_corpus_circuit(77, max_qubits=6, max_gates=40)
    outs = []
    for _ in range(2):
        d = circuit_to_diagram(c)
        to_graph_like(d)
        full_simplify(d)
        outs.append(extract_circuit(d, ExtractionMode("with-insert")).gates)
    assert outs[0] == outs[1]


def test_permutation_extraction():
    c = Circuit(3, (Gate("Swap", (0, 2)), Gate("Swap", (1, 2))))
    d = circuit_to_diagram(c)
    to_graph_like(d)
    full_simplify(d)
    out = extract_circuit(d)
    assert equal_up_to_scalar(circuit_unitary(out), circuit_unitary(c), 1e-9)


def test_pivot_yz_neighbor():
    d = ZxDiagram(1, 1)
    i = d.add_spider()
    o = d.add_spider()
    d.toggle_edge(i, o)
    d.inputs, d.outputs = [i], [o]
    root = d.add_spider(Phase(0))
    top = d.add_spider(Phase(1, 4))
    d.toggle_edge(root, top)
    d.toggle_edge(root, o)
    before = diagram_tensor(d)
    pivot_yz_neighbor(d, root, o)
    assert not d.contains(root)
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)
    with pytest.raises(ValueError):
        pivot_yz_neighbor(d, top, o)  # not adjacent


def test_rich_gate_set_roundtrip():
    for seed in range(8):
        c = rand_rich_circuit(seed, max_qubits=5, max_gates=20)
        ref = circuit_unitary(c)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        full_simplify(d)
        out = extract_circuit(d, ExtractionMode("no-insert"))
        assert equal_up_to_scalar(circuit_unitary(out), ref, 1e-8), seed
