import json
import random
from itertools import combinations

import pytest

from zxna import Circuit, Phase, ZxDiagram
from zxna.cnp import add_cnp
from zxna.ingest import circuit_to_diagram


def _random_graph_diagram(seed, n=8, p=0.45):
    rng = random.Random(seed)
    d = ZxDiagram()
    vs = [d.add_spider(Phase(0)) for _ in range(n)]
    for a, b in combinations(vs, 2):
        if rng.random() < p:
            d.toggle_edge(a, b)
    return d, vs


def _star(adj, v):
    """Local complementation on a dict-of-sets adjacency."""
    nbrs = sorted(adj[v])
    for a, b in combinations(nbrs, 2):
        if b in adj[a]:
            adj[a].discard(b)
            adj[b].discard(a)
        else:
            adj[a].add(b)
            adj[b].add(a)


def test_toggle_is_involution():
    d = ZxDiagram()
    a, b = d.add_spider(), d.add_spider()
    d.toggle_edge(a, b)
    assert d.has_edge(a, b)
    d.toggle_edge(a, b)
    assert not d.has_edge(a, b)
    with pytest.raises(ValueError):
        d.toggle_edge(a, a)


def test_ids_never_reused():
    d = ZxDiagram()
    a = d.add_spider()
    d.remove_spider(a)
    b = d.add_spider()
    assert b != a


def test_local_complement_star():
    d = ZxDiagram()
    c, x, y, z = (d.add_spider() for _ in range(4))
    for w in (x, y, z):
        d.toggle_edge(c, w)
    d.local_complement_graph(c)
    # star becomes star plus triangle among the leaves
    assert d.has_edge(x, y) and d.has_edge(y, z) and d.has_edge(x, z)
    d.local_complement_graph(c)
    assert not d.has_edge(x, y)


def test_local_complement_involution_random():
    for seed in range(10):
        d, vs = _random_graph_diagram(seed)
        ref = {v: set(d.adjacent(v)) for v in vs}
        for v in vs:
            d.local_complement_graph(v)
            d.local_complement_graph(v)
        assert {v: set(d.adjacent(v)) for v in vs} == ref


def test_pivot_equals_three_local_complementations():
    tried = 0
    for seed in range(30):
        d, vs = _random_graph_diagram(seed + 50)
        edges = [(a, b) for a, b in combinations(vs, 2) if d.has_edge(a, b)]
        if not edges:
            continue
        u, v = edges[seed % len(edges)]
        adj = {w: set(d.adjacent(w)) for w in vs}
        _star(adj, u)
        _star(adj, v)
        _star(adj, u)
        d.pivot_graph(u, v)
        assert {w: set(d.adjacent(w)) for w in vs} == adj
        tried += 1
    assert tried >= 20


def test_pivot_requires_edge():
    d = ZxDiagram()
    a, b = d.add_spider(), d.add_spider()
    with pytest.raises(ValueError):
        d.pivot_graph(a, b)


def test_find_gadgets_basic():
    d = ZxDiagram(0, 2)
    o1, o2 = d.add_spider(), d.add_spider()
    d.outputs = [o1, o2]
    root = d.add_spider(Phase(0))
    top = d.add_spider(Phase(-1, 2))
    d.toggle_edge(root, top)
    d.toggle_edge(root, o1)
    d.toggle_edge(root, o2)
    gs = d.find_gadgets()
    assert len(gs) == 1
    (g,) = gs
    assert g.top == top and g.root == root
    assert g.legs == frozenset((o1, o2))
    assert g.phase == Phase(-1, 2)


def test_find_gadgets_excludes_malformed():
    # each edit of a one-gadget diagram leaves no gadget
    malformed = {
        "phased root": lambda d, o, root, top: d.set_phase(root, Phase(1, 4)),
        "boundary top": lambda d, o, root, top: d.outputs.append(top),
        "boundary root": lambda d, o, root, top: d.inputs.append(root),
        "root with no leg": lambda d, o, root, top: d.toggle_edge(root, o),
        "degree-2 top": lambda d, o, root, top: d.toggle_edge(top, o),
    }
    for what, edit in malformed.items():
        d = ZxDiagram()
        o = d.add_spider()
        d.outputs = [o]
        root = d.add_spider(Phase(0))
        top = d.add_spider(Phase(1, 4))
        d.toggle_edge(root, top)
        d.toggle_edge(root, o)
        assert [(g.top, g.root) for g in d.find_gadgets()] == [(top, root)] and d.gadget_root(top, d.boundary()) == root
        edit(d, o, root, top)
        assert d.find_gadgets() == [], what
        assert [d.gadget_root(v, d.boundary()) for v in d.spiders()] == [None] * 3, what


def test_hanging_reads_only_near_spiders():
    d = ZxDiagram(0, 1)
    out = d.add_spider()
    d.outputs = [out]
    a, b, c = (d.add_gadget((out,), Phase(1, 4)) for _ in range(3))
    assert list(d.hanging({b.root})) == [(b.top, b.root)]
    assert list(d.hanging({out})) == []  # its neighbours are roots, of degree 2
    assert list(d.hanging({c.root, a.top})) == [(a.top, a.root), (c.top, c.root)]


def test_frontier_gadgets_on_random_diagrams():
    # random gadgets on outputs and interior spiders, some with one leg, a
    # phased root, a second top or a wire between two legs: the frontier's
    # neighbourhood finds exactly the filtered whole-diagram scan, in order
    found = skipped = 0
    for seed in range(200):
        rng = random.Random(seed)
        d = ZxDiagram()
        outs = [d.add_spider() for _ in range(rng.randint(1, 6))]
        inner = [d.add_spider(Phase(rng.randint(0, 3), 4)) for _ in range(rng.randint(0, 3))]
        d.outputs = list(outs)
        for _ in range(rng.randint(0, 6)):
            legs = rng.sample(outs + inner, rng.randint(1, min(4, len(outs + inner))))
            g = d.add_gadget(legs, Phase(rng.randint(1, 7), 4))
            if rng.random() < 0.15:
                d.set_phase(g.root, Phase(1))
            if rng.random() < 0.15:
                d.toggle_edge(g.root, d.add_spider(Phase(1, 4)))
        for a, b in combinations(outs + inner, 2):
            if rng.random() < 0.2:
                d.toggle_edge(a, b)
        frontier = set(outs)
        local = d.frontier_gadgets(frontier)
        assert local == [g for g in d.find_gadgets() if g.legs <= frontier and len(g.legs) >= 2], seed
        found += len(local)
        skipped += len(d.find_gadgets()) - len(local)
    assert found > 50 and skipped > 50, (found, skipped)


def test_controlled_phase_structure_spider_counts():
    # n anchors plus two spiders per leg subset of size >= 2
    for n, spiders, gadgets in ((2, 4, 1), (3, 11, 4), (4, 26, 11)):
        d = ZxDiagram(0, n)
        anchors = [d.add_spider() for _ in range(n)]
        d.outputs = list(anchors)
        add_cnp(d, anchors, Phase(1))
        assert d.num_spiders() == spiders
        assert len(d.find_gadgets()) == gadgets


def test_json_roundtrip():
    d, vs = _random_graph_diagram(3, n=6)
    d.set_phase(vs[0], Phase(3, 8))
    d.inputs = [vs[0]]
    d.outputs = [vs[1], vs[2]]
    d.input_hadamard = [True]
    d.output_hadamard = [False, True]
    back = ZxDiagram.from_json(d.to_json())
    assert back.to_json() == d.to_json()
    assert back.phase(vs[0]) == Phase(3, 8)
    v = back.add_spider()
    assert v not in set(d.spiders())


def test_from_json_rejects_malformed():
    # each edit of a well-formed dump raises a ValueError naming the problem
    malformed = {
        r"repeated edge \[0, 1\]": lambda data: data["edges"].append([0, 1]),
        r"repeated edge \[1, 0\]": lambda data: data["edges"].append([1, 0]),
        "self-loop": lambda data: data["edges"].append([2, 2]),
        r"edge \[0, 5\] names an unknown spider": lambda data: data["edges"].append([0, 5]),
        r"outputs name unknown spiders \[7\]": lambda data: data["outputs"].append(7),
        r"inputs name unknown spiders \[9\]": lambda data: data["inputs"].append(9),
        "1 inputs but 2 Hadamard flags": lambda data: data["input_hadamard"].append(False),
        "1 outputs but 0 Hadamard flags": lambda data: data["output_hadamard"].pop(),
        r"spider 1 has phase \[1, 0\] with denominator 0": lambda data: data["spiders"].update({"1": [1, 0]}),
        r"diagram lacks keys \['inputs'\]": lambda data: data.pop("inputs"),
        r"inputs repeat spiders \[0\]": lambda data: data.update(inputs=[0, 0], input_hadamard=[False, True]),
        r"outputs repeat spiders \[2\]": lambda data: data.update(outputs=[2, 1, 2], output_hadamard=[False] * 3),
        r"spider 1 has phase 5, not a pair of integers": lambda data: data["spiders"].update({"1": 5}),
        r"spider 1 has phase \[1.5, 2\], not a pair of integers": lambda data: data["spiders"].update({"1": [1.5, 2]}),
        r"edge \[0\] is not a pair of spiders": lambda data: data["edges"].append([0]),
        "spider key 'x' is not a spider number": lambda data: data["spiders"].update({"x": [0, 1]}),
        # DEVANAGARI DIGIT ZERO is a decimal digit but no spider number
        "spider key '\u0966' is not a spider number": lambda data: data["spiders"].update({"\u0966": [0, 1]}),
        # "00" would name spider 0 a second time and overwrite its phase
        "spider key '00' is not a spider number": lambda data: data["spiders"].update({"00": [1, 4]}),
        "spider key '01' is not a spider number": lambda data: data["spiders"].update({"01": [0, 1]}),
        r"diagram keys \['spiders', 'inputs'\] hold the wrong JSON type": lambda data: data.update(spiders=[], inputs=5),
        r"inputs name unknown spiders \[\[0\]\]": lambda data: data["inputs"].append([0]),
        r"outputs Hadamard flags \['x'\] are not all booleans": lambda data: data.update(output_hadamard=["x"]),
    }
    d = ZxDiagram(1, 1)
    a, b, c = d.add_spider(), d.add_spider(), d.add_spider()
    d.toggle_edge(a, b)
    d.toggle_edge(b, c)
    d.inputs, d.outputs = [a], [c]
    assert ZxDiagram.from_json(d.to_json()).to_json() == d.to_json()
    # a bare wire's spider is both an input and an output
    wires = circuit_to_diagram(Circuit(2)).to_json()
    assert ZxDiagram.from_json(wires).to_json() == wires
    for message, edit in malformed.items():
        data = json.loads(d.to_json())
        edit(data)
        with pytest.raises(ValueError, match=message):
            ZxDiagram.from_json(json.dumps(data))
    with pytest.raises(ValueError, match="diagram is int 5, not an object"):
        ZxDiagram.from_json("5")


def test_check_simple():
    d, _ = _random_graph_diagram(1)
    d.check_simple()
