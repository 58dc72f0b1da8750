import hashlib
import itertools

import pytest

from helpers import all_small_open_graphs, brute_gflow_exists, open_graph, qft_circuit, rand_corpus_circuit, rand_open_graph
from zxna import Circuit, Gate, Phase, ZxDiagram, find_gflow, full_simplify, verify_gflow
from zxna.gflow import GFlow, extend_gflow_insertion, labeled_graph_of, odd_neighborhood
from zxna.ingest import circuit_to_diagram, to_graph_like


def _triangle():
    return open_graph((0, 1, 2), [(0, 1), (1, 2), (0, 2)], (0,), (2,), {0: "XY", 1: "XY"})


def _chain():
    # input - mid - output line graph
    return open_graph((0, 1, 2), [(0, 1), (1, 2)], (0,), (2,), {0: "XY", 1: "XY"})


def test_odd_neighborhood_triangle():
    g = _triangle()
    assert odd_neighborhood(g, {0, 1}) == {0, 1}
    assert odd_neighborhood(g, {0}) == {1, 2}
    assert odd_neighborhood(g, set()) == set()


def test_identity_diagram_has_trivial_gflow():
    d = circuit_to_diagram(Circuit(2))
    g = labeled_graph_of(d)
    f = find_gflow(g)
    assert f is not None
    assert verify_gflow(g, f)


def test_chain_gflow():
    g = _chain()
    f = find_gflow(g)
    assert f is not None and verify_gflow(g, f)
    assert f.g[1] == frozenset({2})
    assert f.order[0] < f.order[1] < f.order[2]


def test_no_gflow_dead_end():
    # vertex with no path to an output cannot be corrected
    g = open_graph((0, 1), [], (0,), (1,), {0: "XY"})
    assert find_gflow(g) is None


def test_verify_rejects_tampered_flow():
    g = _chain()
    f = find_gflow(g)
    bad = GFlow(dict(f.g), dict(f.order))
    bad.g[1] = frozenset()
    assert not verify_gflow(g, bad)
    bad2 = GFlow(dict(f.g), {v: 0 for v in f.order})
    assert not verify_gflow(g, bad2)
    bad3 = GFlow({k: v for k, v in f.g.items() if k != 0}, dict(f.order))
    assert not verify_gflow(g, bad3)


def test_verify_rejects_each_broken_condition():
    # on the edge 0 - 1 with output 1, the correction sets {1}, {0, 1} and {0}
    # are the XY, XZ and YZ flows of 0; each other set breaks only the plane
    # condition, since its odd neighbourhood's other member is the output
    order = {0: 0, 1: 1}
    edge = {plane: open_graph((0, 1), [(0, 1)], (), (1,), {0: plane}) for plane in ("XY", "XZ", "YZ")}
    for plane, good, bad in (
        ("XY", {1}, [{0}, {0, 1}, set()]),
        ("XZ", {0, 1}, [{1}, {0}, set()]),
        ("YZ", {0}, [set(), {0, 1}, {1}]),  # missing from its set, in its odd neighbourhood, both
    ):
        g = edge[plane]
        assert verify_gflow(g, find_gflow(g)) and find_gflow(g).g == {0: frozenset(good)}, plane
        assert verify_gflow(g, GFlow({0: frozenset(good)}, order)), plane
        for s in bad:
            assert not verify_gflow(g, GFlow({0: frozenset(s)}, order)), (plane, s)
    unknown = open_graph((0, 1), [(0, 1)], (), (1,), {0: "XX"})
    for s in ({1}, {0, 1}, {0}, set()):
        assert not verify_gflow(unknown, GFlow({0: frozenset(s)}, order)), s
    # vertex 0 is an input and an output: correcting 1 through it matches
    # the plane and the order, but an input is never measured to correct
    g = open_graph((0, 1, 2), [(0, 1), (1, 2)], (0,), (0, 2), {1: "XY"})
    order = {1: 0, 0: 1, 2: 1}
    assert verify_gflow(g, GFlow({1: frozenset({2})}, order))
    assert odd_neighborhood(g, {0}) == {1}
    assert not verify_gflow(g, GFlow({1: frozenset({0})}, order))


@pytest.mark.parametrize("labels", [{0: "AB"}, {0: "xy"}, {}], ids=["unknown", "lower-case", "missing"])
def test_plane_labels_are_checked(labels):
    # on the edge 0 - 1 with output 1, each set is some plane's flow, so no other label may pick one
    g = open_graph((0, 1), [(0, 1)], (), (1,), labels)
    with pytest.raises(ValueError, match=f"vertex 0 has plane label {labels.get(0)!r}, not XY, XZ or YZ"):
        find_gflow(g)
    for s in ({1}, {0, 1}, {0}, set()):
        assert not verify_gflow(g, GFlow({0: frozenset(s)}, {0: 0, 1: 1})), s
    # an output needs no label
    assert find_gflow(open_graph((0, 1), [(0, 1)], (), (0, 1), {})) == GFlow({}, {0: 0, 1: 0})


def test_empty_graph_has_the_empty_gflow():
    g = open_graph((), [], (), (), {})
    f = find_gflow(g)
    assert f == GFlow({}, {}) and verify_gflow(g, f)


def test_simplified_corpus_diagrams_have_gflow():
    from helpers import rand_corpus_circuit
    from zxna import full_simplify

    for seed in range(10):
        c = rand_corpus_circuit(seed, max_qubits=6, max_gates=30)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        full_simplify(d)
        g = labeled_graph_of(d)
        f = find_gflow(g)
        assert f is not None and verify_gflow(g, f)


def test_labeled_graph_of_matches_edge_reference():
    # the diagram's edges between non-tops, roots labeled YZ, in spider order
    circuits = [qft_circuit(n) for n in range(4, 17)] + [rand_corpus_circuit(seed) for seed in range(30)]
    n_roots = 0
    for c in circuits:
        d = circuit_to_diagram(c)
        to_graph_like(d)
        full_simplify(d)
        gadgets = d.find_gadgets()
        tops = {g.top for g in gadgets}
        roots = {g.root for g in gadgets}
        verts = [v for v in d.spiders() if v not in tops]
        edges = [(u, v) for u, v in d.edges() if u not in tops and v not in tops]
        labels = {v: "YZ" if v in roots else "XY" for v in verts if v not in d.outputs}
        ref = open_graph(verts, edges, d.inputs, d.outputs, labels)
        g = labeled_graph_of(d)
        assert g == ref and g.vertices == ref.vertices
        n_roots += len(roots)
        # the graph owns its sets: emptying the diagram leaves it as it was
        for v in list(d.spiders()):
            d.remove_spider(v)
        assert g == ref
    assert n_roots > 0


def test_extend_gflow_insertion():
    d = circuit_to_diagram(Circuit(2, (Gate("CZ", (0, 1)),)))
    g = labeled_graph_of(d)
    f = find_gflow(g)
    # an identity pair: two gadgets with opposite phases on the same legs
    kept = d.add_gadget(d.outputs, Phase(1, 8))
    residual = d.add_gadget(d.outputs, Phase(-1, 8))
    for gadget in (kept, residual):
        g2 = labeled_graph_of(d)
        f = extend_gflow_insertion(g2, f, gadget.root)
    g2 = labeled_graph_of(d)
    assert verify_gflow(g2, f)
    assert f.g[kept.root] == frozenset({kept.root})
    # the new vertices sit between all non-outputs and the outputs
    out_levels = {f.order[v] for v in d.outputs}
    assert f.order[kept.root] < min(out_levels)


def test_extend_requires_output_legs():
    # the new YZ vertex 3 sits on the output 2 and on the non-output 1
    f = find_gflow(_chain())
    g = open_graph(range(4), [(0, 1), (1, 2), (1, 3), (2, 3)], (0,), (2,), {0: "XY", 1: "XY", 3: "YZ"})
    with pytest.raises(ValueError, match="legs must all be outputs"):
        extend_gflow_insertion(g, f, 3)


def test_find_gflow_matches_brute_force_small():
    # spot sample here; the full sweep runs in the acceptance suite
    n = 0
    for g in itertools.islice(all_small_open_graphs(3), 0, 4000, 7):
        f = find_gflow(g)
        assert (f is not None) == brute_gflow_exists(g)
        if f is not None:
            assert verify_gflow(g, f)
        n += 1
    assert n >= 300


def test_find_gflow_matches_brute_force_random():
    for seed in range(40):
        g = rand_open_graph(seed, 6, 8)
        f = find_gflow(g)
        assert (f is not None) == brute_gflow_exists(g)
        if f is not None:
            assert verify_gflow(g, f)


def test_find_gflow_digest():
    # correction sets and levels on every open graph of up to 3 vertices,
    # random XY/XZ/YZ graphs and simplified QFT diagrams (qft48 is the scale
    # canary); a change to the search must update this digest on purpose
    graphs = list(all_small_open_graphs(3))
    graphs += [rand_open_graph(seed, 6, 14) for seed in range(300)]
    for n in (8, 20, 48):
        d = circuit_to_diagram(qft_circuit(n))
        to_graph_like(d)
        full_simplify(d)
        graphs.append(labeled_graph_of(d))
    h = hashlib.sha256()
    for g in graphs:
        f = find_gflow(g)
        key = None if f is None else (sorted((v, sorted(s)) for v, s in f.g.items()), sorted(f.order.items()))
        h.update(repr(key).encode())
    assert len(graphs) == 4535
    assert h.hexdigest() == "b5852decd758bebf22147a649ce808fc08586cfef46dc54ffd6327f95ab5f77a"
