import itertools

import pytest

from helpers import all_small_open_graphs, brute_gflow_exists, rand_open_graph
from zxna import Circuit, Gate, Phase, ZxDiagram, find_gflow, verify_gflow
from zxna.gflow import GFlow, LabeledOpenGraph, extend_gflow_insertion, labeled_graph_of, odd_neighborhood
from zxna.ingest import circuit_to_diagram, to_graph_like


def _triangle():
    edges = frozenset(frozenset(e) for e in [(0, 1), (1, 2), (0, 2)])
    return LabeledOpenGraph((0, 1, 2), edges, (0,), (2,), {0: "XY", 1: "XY"})


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
    # input - mid - output line graph
    edges = frozenset(frozenset(e) for e in [(0, 1), (1, 2)])
    g = LabeledOpenGraph((0, 1, 2), edges, (0,), (2,), {0: "XY", 1: "XY"})
    f = find_gflow(g)
    assert f is not None and verify_gflow(g, f)
    assert f.g[1] == frozenset({2})
    assert f.order[0] < f.order[1] < f.order[2]


def test_no_gflow_dead_end():
    # vertex with no path to an output cannot be corrected
    g = LabeledOpenGraph((0, 1), frozenset(), (0,), (1,), {0: "XY"})
    assert find_gflow(g) is None


def test_verify_rejects_tampered_flow():
    edges = frozenset(frozenset(e) for e in [(0, 1), (1, 2)])
    g = LabeledOpenGraph((0, 1, 2), edges, (0,), (2,), {0: "XY", 1: "XY"})
    f = find_gflow(g)
    bad = GFlow(dict(f.g), dict(f.order))
    bad.g[1] = frozenset()
    assert not verify_gflow(g, bad)
    bad2 = GFlow(dict(f.g), {v: 0 for v in f.order})
    assert not verify_gflow(g, bad2)
    bad3 = GFlow({k: v for k, v in f.g.items() if k != 0}, dict(f.order))
    assert not verify_gflow(g, bad3)


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


def test_extend_gflow_insertion():
    d = circuit_to_diagram(Circuit(2, (Gate("CZ", (0, 1)),)))
    g = labeled_graph_of(d)
    f = find_gflow(g)
    # an identity pair: two gadgets with opposite phases on the same legs
    kept = d.add_gadget(d.outputs, Phase(1, 8))
    residual = d.add_gadget(d.outputs, Phase(-1, 8))
    for gadget in (kept, residual):
        g2 = labeled_graph_of(d)
        f = extend_gflow_insertion(g2, f, gadget.root, set(gadget.legs))
    g2 = labeled_graph_of(d)
    assert verify_gflow(g2, f)
    assert f.g[kept.root] == frozenset({kept.root})
    # the new vertices sit between all non-outputs and the outputs
    out_levels = {f.order[v] for v in d.outputs}
    assert f.order[kept.root] < min(out_levels)


def test_extend_requires_output_legs():
    d = circuit_to_diagram(Circuit(2))
    g = labeled_graph_of(d)
    f = find_gflow(g)
    with pytest.raises(ValueError):
        extend_gflow_insertion(g, f, 99, {12345})


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
