import hashlib

import pytest

from helpers import qft_circuit, rand_corpus_circuit, rand_rich_circuit
from zxna import Circuit, Gate, Phase, ZxDiagram, circuit_unitary, diagram_tensor, equal_up_to_scalar, full_simplify
from zxna.ingest import circuit_to_diagram, to_graph_like
from zxna.simplify import gadget_fusion, gadget_pivot, id_simp, lc_simp, pivot_simp


def _line_diagram(phases):
    """chain in - v1 - ... - vk - out of Hadamard wires."""
    d = ZxDiagram(1, 1)
    vs = [d.add_spider(Phase(0))]
    d.inputs = [vs[0]]
    for p in phases:
        v = d.add_spider(p)
        d.toggle_edge(vs[-1], v)
        vs.append(v)
    out = d.add_spider(Phase(0))
    d.toggle_edge(vs[-1], out)
    d.outputs = [out]
    return d, vs


def test_lc_simp_guard():
    d, vs = _line_diagram([Phase(1, 4)])
    assert lc_simp(d, vs[1]) is False
    with pytest.raises(ValueError):
        lc_simp(d, d.inputs[0])


def test_lc_simp_example():
    d, vs = _line_diagram([Phase(1, 2)])
    before = diagram_tensor(d)
    assert lc_simp(d, vs[1])
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)
    # neighbors got -pi/2 and an edge toggle
    assert d.has_edge(d.inputs[0], d.outputs[0])
    assert d.phase(d.inputs[0]) == Phase(-1, 2)


def test_pivot_simp_example():
    d, vs = _line_diagram([Phase(0), Phase(1)])
    before = diagram_tensor(d)
    assert pivot_simp(d, vs[1], vs[2])
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)
    assert d.num_spiders() == 2


def test_pivot_simp_guard():
    d, vs = _line_diagram([Phase(1, 4), Phase(1), Phase(0)])
    assert pivot_simp(d, vs[1], vs[2]) is False
    with pytest.raises(ValueError):
        pivot_simp(d, vs[1], vs[3])  # not adjacent


def test_pivot_simp_settles_the_root_it_phases():
    # the pivot adds pu + pv + pi = pi to the common neighbour, a gadget root
    d = ZxDiagram(2, 2)
    i0, i1, o0, o1, u, v = (d.add_spider() for _ in range(6))
    d.inputs, d.outputs = [i0, i1], [o0, o1]
    for a, b in ((i0, u), (u, o0), (i1, v), (v, o1), (u, v)):
        d.toggle_edge(a, b)
    g = d.add_gadget((u, v), Phase(1, 4))
    before = diagram_tensor(d)
    assert pivot_simp(d, u, v)
    assert d.phase(g.root) == Phase(0) and d.phase(g.top) == Phase(-1, 4)
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)


def test_lc_simp_dissolves_the_root_it_makes_clifford():
    # removing v puts -pi/2 on its neighbour, a gadget root, which dissolves
    d = ZxDiagram(2, 2)
    i0, i1, o0, o1, x = (d.add_spider() for _ in range(5))
    v = d.add_spider(Phase(1, 2))
    d.inputs, d.outputs = [i0, i1], [o0, o1]
    for a, b in ((i0, v), (v, o0), (i1, x), (x, o1)):
        d.toggle_edge(a, b)
    g = d.add_gadget((v, x), Phase(1, 4))
    before = diagram_tensor(d)
    assert lc_simp(d, v)
    assert not d.contains(g.root) and d.find_gadgets() == []
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)


def test_gadget_pivot_creates_gadget():
    d, vs = _line_diagram([Phase(1), Phase(1, 4), Phase(0)])
    # vs[2] non-Clifford with Pauli neighbor vs[1]
    before = diagram_tensor(d)
    assert gadget_pivot(d, vs[1], vs[2])
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)
    gs = d.find_gadgets()
    assert len(gs) == 1
    assert gs[0].phase in (Phase(1, 4), Phase(-1, 4))


def test_gadget_pivot_guard():
    d, vs = _line_diagram([Phase(1), Phase(1, 2)])
    assert gadget_pivot(d, vs[1], vs[2]) is False  # Clifford target


def test_id_simp():
    d, vs = _line_diagram([Phase(0)])
    before = diagram_tensor(d)
    assert id_simp(d, vs[1])
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)
    # the two phase-free neighbors fused into a single boundary spider
    assert d.num_spiders() == 1


def test_gadget_fusion_merges_and_cancels():
    d = ZxDiagram(0, 2)
    a, b = d.add_spider(), d.add_spider()
    d.outputs = [a, b]
    for p in (Phase(1, 4), Phase(1, 8)):
        root = d.add_spider(Phase(0))
        top = d.add_spider(p)
        d.toggle_edge(root, top)
        d.toggle_edge(root, a)
        d.toggle_edge(root, b)
    assert gadget_fusion(d) == 1
    gs = d.find_gadgets()
    assert len(gs) == 1 and gs[0].phase == Phase(3, 8)
    # opposite phase: pair drops entirely
    root = d.add_spider(Phase(0))
    top = d.add_spider(Phase(-3, 8))
    d.toggle_edge(root, top)
    d.toggle_edge(root, a)
    d.toggle_edge(root, b)
    gadget_fusion(d)
    assert d.find_gadgets() == []


def test_gadget_fusion_settles_the_legs_it_frees():
    # deleting the zero gadget leaves leg l hanging on x, which holds pi
    d = ZxDiagram(1, 1)
    i0, o0 = d.add_spider(), d.add_spider()
    x, l = d.add_spider(Phase(1)), d.add_spider(Phase(1, 4))
    d.inputs, d.outputs = [i0], [o0]
    for a, b in ((i0, x), (x, o0), (x, l)):
        d.toggle_edge(a, b)
    d.add_gadget((l, o0), Phase(0))
    before = diagram_tensor(d)
    assert gadget_fusion(d) == 1
    assert d.phase(x) == Phase(0) and d.phase(l) == Phase(-1, 4)
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)


def test_gadget_fusion_drops_gadgets_on_each_others_roots():
    # each zero-phase gadget's root is a leg of the other, so the legs one
    # deletion frees include a spider the other deletion removes
    d = ZxDiagram(0, 1)
    y = d.add_spider()
    d.outputs = [y]
    a = d.add_gadget((y,), Phase(0))
    d.add_gadget((a.root, y), Phase(0))
    assert gadget_fusion(d) == 2
    assert list(d.spiders()) == [y]


def test_full_simplify_terminates_and_preserves_tensor():
    checked = 0
    for seed in range(40):
        c = rand_rich_circuit(seed, max_qubits=4, max_gates=14)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        if d.num_spiders() > 22:
            continue
        full_simplify(d)
        d.check_simple()
        if d.num_spiders() <= 22:
            assert equal_up_to_scalar(diagram_tensor(d), circuit_unitary(c), 1e-8)
            checked += 1
    assert checked >= 20


def test_full_simplify_per_rewrite_tensor():
    for seed in range(12):
        c = rand_rich_circuit(seed + 70, max_qubits=3, max_gates=10)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        if d.num_spiders() > 20:
            continue
        ref = diagram_tensor(d)

        def hook(rule, dd):
            if dd.num_spiders() <= 20:
                assert equal_up_to_scalar(diagram_tensor(dd), ref, 1e-8), rule

        full_simplify(d, on_rewrite=hook)


def test_full_simplify_postcondition():
    # every interior spider is non-Clifford, part of a gadget, or a Pauli
    # spider whose neighbors all lie on the boundary (no pivot partner left)
    for seed in range(25):
        c = rand_corpus_circuit(seed, max_qubits=6, max_gates=30)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        full_simplify(d)
        boundary = set(d.inputs) | set(d.outputs)
        gs = d.find_gadgets()
        parts = {g.top for g in gs} | {g.root for g in gs}
        for v in d.spiders():
            if v in boundary or v in parts:
                continue
            if d.phase(v).is_pauli() and d.adjacent(v) <= boundary:
                continue
            assert not d.phase(v).is_clifford(), (seed, v, d.phase(v))


def test_full_simplify_records_trace():
    c = Circuit(2, (Gate("S", (0,)), Gate("CZ", (0, 1)), Gate("S", (0,)), Gate("H", (0,))))
    d = circuit_to_diagram(c)
    trace = full_simplify(d)
    assert isinstance(trace.to_json(), str)


def test_full_simplify_drops_an_isolated_spider_first():
    # an isolated pi/4 spider is a scalar factor; a pi one would zero the tensor
    c = Circuit(2, (Gate("H", (0,)), Gate("T", (0,)), Gate("CZ", (0, 1)), Gate("H", (1,))))
    d = circuit_to_diagram(c)
    v = d.add_spider(Phase(1, 4))
    before = diagram_tensor(d)
    trace = full_simplify(d)
    assert trace.steps[0]["rule"] == "scalar" and trace.steps[0]["spiders"] == [v]
    assert not d.contains(v)
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)
    assert equal_up_to_scalar(diagram_tensor(d), circuit_unitary(c), 1e-9)


def test_clifford_circuit_collapses():
    gates = (
        Gate("H", (0,)), Gate("S", (1,)), Gate("CX", (0, 1)),
        Gate("CZ", (0, 1)), Gate("S", (0,)), Gate("H", (1,)),
        Gate("CX", (1, 0)), Gate("Z", (0,)),
    )
    c = Circuit(2, gates)
    d = circuit_to_diagram(c)
    to_graph_like(d)
    full_simplify(d)
    boundary = set(d.inputs) | set(d.outputs)
    # no non-Clifford phases anywhere, so no interior spiders survive
    assert all(v in boundary for v in d.spiders())
    assert equal_up_to_scalar(diagram_tensor(d), circuit_unitary(c), 1e-9)


def _trace_corpus():
    """qft4/8/12/16 and rand_corpus_circuit seeds 0-59, ingested and graph-like."""
    circuits = [qft_circuit(n) for n in (4, 8, 12, 16)]
    circuits += [rand_corpus_circuit(seed) for seed in range(60)]
    for c in circuits:
        d = circuit_to_diagram(c)
        to_graph_like(d)
        yield d


def test_full_simplify_scans_gadgets_per_rewrite_not_per_vertex(monkeypatch):
    scans = 0
    find_gadgets = ZxDiagram.find_gadgets

    def counted(self):
        nonlocal scans
        scans += 1
        return find_gadgets(self)

    monkeypatch.setattr(ZxDiagram, "find_gadgets", counted)
    for d in _trace_corpus():
        scans = 0
        trace = full_simplify(d)
        assert scans <= 4 * (len(trace.steps) + 1), (scans, len(trace.steps))


def test_full_simplify_settles_gadgets_next_to_each_rewrite(monkeypatch):
    # a whole-diagram hanging-spider sweep per rewrite costs qft48 about
    # 244,000 tests; settling only next to each rewrite about 10,000
    tests = 0
    hung_on = ZxDiagram._hung_on

    def counted(self, top, boundary):
        nonlocal tests
        tests += 1
        return hung_on(self, top, boundary)

    monkeypatch.setattr(ZxDiagram, "_hung_on", counted)
    d = circuit_to_diagram(qft_circuit(48))
    to_graph_like(d)
    full_simplify(d)
    assert tests <= 20000, tests


def test_full_simplify_keeps_gadget_form_after_every_rewrite():
    # no interior degree-1 spider hangs on an interior spider with phase
    # pi or +-pi/2, after each rewrite and not only at the end (the corpus
    # holds qft16 and 60 random circuits)
    def check(rule, d):
        boundary = d.boundary()
        for top in d.spiders():
            if top in boundary or d.degree(top) != 1:
                continue
            (root,) = d.adjacent(top)
            p = d.phase(root)
            assert root in boundary or (p != Phase(1) and not p.is_proper_clifford()), (rule, top, root, p)

    for d in _trace_corpus():
        full_simplify(d, on_rewrite=check)


def test_full_simplify_settles_a_hand_built_diagram_on_entry():
    # the first rewrite, lc on x, is far from the gadget whose root holds pi
    d = ZxDiagram(2, 2)
    i0, i1, o0, o1 = (d.add_spider() for _ in range(4))
    x, z = d.add_spider(Phase(1, 2)), d.add_spider(Phase(1, 4))
    d.inputs, d.outputs = [i0, i1], [o0, o1]
    for a, b in ((i0, x), (x, o0), (i1, z), (z, o1)):
        d.toggle_edge(a, b)
    g = d.add_gadget((z, o1), Phase(1, 4))
    d.set_phase(g.root, Phase(1))
    before = diagram_tensor(d)
    rules = []
    full_simplify(d, on_rewrite=lambda rule, dd: rules.append((rule, dd.phase(g.root))))
    assert rules[0] == ("lc", Phase(0))
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)


def test_full_simplify_dissolves_a_clifford_gadget_whole():
    # the root also carries a second degree-1 spider l: no settle may run
    # between the top's removal and the root's, or it would take the root
    d = ZxDiagram(1, 1)
    i0, o0 = d.add_spider(), d.add_spider()
    w, root = d.add_spider(Phase(1, 4)), d.add_spider()
    top, l = d.add_spider(Phase(1, 2)), d.add_spider(Phase(1, 4))
    d.inputs, d.outputs = [i0], [o0]
    for a, b in ((i0, w), (w, o0), (root, w), (root, top), (root, l)):
        d.toggle_edge(a, b)
    before = diagram_tensor(d)
    trace = full_simplify(d)
    assert trace.steps[0] == {"rule": "gadget_lc", "spiders": [top, root], "spiders_after": 4}
    assert equal_up_to_scalar(diagram_tensor(d), before, 1e-9)


def test_full_simplify_tests_no_boundary_list_membership():
    # gadget sweeps test the boundary against one set per sweep; a scan of
    # the inputs/outputs lists per spider costs qft48 about 457,000 tests
    class CountingList(list):
        def __contains__(self, x):
            nonlocal tests
            tests += 1
            return super().__contains__(x)

    tests = 0
    d = circuit_to_diagram(qft_circuit(48))
    to_graph_like(d)
    d.inputs, d.outputs = CountingList(d.inputs), CountingList(d.outputs)
    full_simplify(d)
    assert type(d.inputs) is type(d.outputs) is CountingList
    assert tests <= 1000, tests


def test_full_simplify_trace_digest():
    # RewriteTrace identity on the corpus: a driver change that alters any
    # rewrite, its order or its spiders must update this digest on purpose
    h = hashlib.sha256()
    for d in _trace_corpus():
        h.update(full_simplify(d).to_json().encode())
    assert h.hexdigest() == "3cb51f01dc07c3f1b9b9f7a079f4374f1bdd8cee75e742ad21d6c218e4d4bac4"
