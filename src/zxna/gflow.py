"""Gflow search and verification on labeled open graphs.

A labeled open graph assigns each vertex a measurement plane (XY, XZ or
YZ).  In this pipeline gadget roots are YZ, everything else XY (gadget
tops are excluded from the vertex set); the verifier nevertheless
implements all three planes.

The search produces a maximally delayed layering (Mhalla & Perdrix,
"Finding optimal flows efficiently", ICALP 2008).  Every vertex pending in
a layer shares one GF(2) system: the pending vertices' adjacency to the
processed non-input vertices.  Each pending vertex v adds one augmented
column, its right-hand side over the pending rows (Backens et al., "There
and back again", Quantum 5, 421), so one elimination per layer solves all
of them:

- XY: the unit vector of v;
- YZ: v's pending neighbors, since v corrects itself (never for inputs);
- XZ: the sum of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .diagram import ZxDiagram
from .gf2 import row_reduce

__all__ = [
    "LabeledOpenGraph",
    "GFlow",
    "odd_neighborhood",
    "find_gflow",
    "verify_gflow",
    "extend_gflow_insertion",
    "labeled_graph_of",
]


@dataclass
class LabeledOpenGraph:
    """Each vertex's own neighbour set, ordered boundaries and plane labels."""

    adj: dict[int, set[int]]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    labels: dict[int, str]  # XY / XZ / YZ for non-output vertices

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.adj)


@dataclass
class GFlow:
    """Correction-set map plus a level order (lower level measured earlier)."""

    g: dict[int, frozenset[int]]
    order: dict[int, int]


def odd_neighborhood(graph: LabeledOpenGraph, s: Iterable[int]) -> set[int]:
    """Vertices adjacent to an odd number of members of s."""
    count: dict[int, int] = {}
    for v in s:
        for w in graph.adj[v]:
            count[w] = count.get(w, 0) + 1
    return {w for w, c in count.items() if c % 2 == 1}


def labeled_graph_of(d: ZxDiagram) -> LabeledOpenGraph:
    """The labeled open graph of a graph-like diagram.

    Gadget tops are dropped; their roots are labeled YZ.  Every other
    non-output spider is an XY measurement.  The graph owns its neighbour
    sets, so later changes to ``d`` leave it as it is.
    """
    gadgets = d.find_gadgets()
    tops = {g.top for g in gadgets}
    roots = {g.root for g in gadgets}
    adj = {v: d.adjacent(v) - tops if v in roots else set(d.adjacent(v)) for v in d.spiders() if v not in tops}
    outs = tuple(d.outputs)
    labels = {v: "YZ" if v in roots else "XY" for v in adj if v not in outs}
    return LabeledOpenGraph(adj, tuple(d.inputs), outs, labels)


def find_gflow(graph: LabeledOpenGraph) -> Optional[GFlow]:
    """Maximally delayed gflow, or None if the graph has no gflow.

    Layer 0 holds the outputs; each subsequent layer holds every remaining
    vertex whose correction set can be solved over the already-layered,
    non-input vertices.  Levels are flipped at the end so that lower level
    means measured earlier.  Raises ValueError if a non-output vertex lacks
    an XY, XZ or YZ label.
    """
    vertices = list(graph.vertices)
    outs = set(graph.outputs)
    for v in vertices:
        if v not in outs and graph.labels.get(v) not in ("XY", "XZ", "YZ"):
            raise ValueError(f"vertex {v} has plane label {graph.labels.get(v)!r}, not XY, XZ or YZ")
    ins = set(graph.inputs)
    layer = {v: 0 for v in outs}
    processed = set(outs)
    corr: dict[int, frozenset[int]] = {}
    k = 0
    while len(processed) < len(vertices):
        k += 1
        pending = [v for v in vertices if v not in processed]
        solved = _solve_layer(graph, pending, sorted(processed - ins))
        if not solved:
            return None
        for v, s in solved.items():
            layer[v] = k
            corr[v] = s
        processed |= set(solved)
    top = max(layer.values(), default=0)
    order = {v: top - l for v, l in layer.items()}
    return GFlow(corr, order)


def _solve_layer(
    graph: LabeledOpenGraph, pending: list[int], cols: list[int]
) -> dict[int, frozenset[int]]:
    """Correction sets over ``cols`` for every solvable pending vertex.

    Row i is pending vertex i's adjacency to the columns; bit ``ncols + j``
    above them is row i's entry of pending vertex j's right-hand side.
    After one elimination, vertex j has no solution if a zero row keeps
    bit j, and otherwise each pivot row's bit j is its pivot column's entry
    of the solution.
    """
    ncols = len(cols)
    labels = graph.labels
    # by symmetry, row i carries the right-hand-side bits of its XZ/YZ
    # pending neighbors, and its own unless it is YZ
    bit = {c: 1 << j for j, c in enumerate(cols)}
    bit.update((v, 1 << (ncols + j)) for j, v in enumerate(pending) if labels[v] != "XY")
    rows = [
        sum((bit[w] for w in graph.adj[u] if w in bit), 0 if labels[u] == "YZ" else 1 << (ncols + i))
        for i, u in enumerate(pending)
    ]
    rref, _, pivots = row_reduce(rows, ncols)
    unsolvable = 0
    for row in rref[len(pivots):]:
        unsolvable |= row
    solved: dict[int, frozenset[int]] = {}
    for j, v in enumerate(pending):
        corrects_self = labels[v] != "XY"
        if unsolvable >> (ncols + j) & 1 or corrects_self and v in graph.inputs:
            continue
        s = {cols[c] for c, row in zip(pivots, rref) if row >> (ncols + j) & 1}
        solved[v] = frozenset(s | {v} if corrects_self else s)
    return solved


def verify_gflow(graph: LabeledOpenGraph, f: GFlow) -> bool:
    """Check all five gflow conditions for every non-output vertex; a bad plane label fails."""
    outs = set(graph.outputs)
    ins = set(graph.inputs)
    order = f.order
    for v in graph.vertices:
        if v in outs:
            continue
        if v not in f.g or v not in order:
            return False
        s = f.g[v]
        if s & ins:
            return False
        odd = odd_neighborhood(graph, s)
        for w in s | odd:
            if w != v and not order[v] < order.get(w, -1):
                return False
        lab = graph.labels.get(v)
        if lab == "XY":
            if v in s or v not in odd:
                return False
        elif lab == "XZ":
            if v not in s or v not in odd:
                return False
        elif lab == "YZ":
            if v not in s or v in odd:
                return False
        else:
            return False
    return True


def extend_gflow_insertion(graph: LabeledOpenGraph, f: GFlow, new_vertex: int) -> GFlow:
    """Extend a verified gflow over a freshly inserted YZ vertex on outputs.

    The new vertex corrects itself and is ordered after every non-output
    but before all outputs; existing correction sets are untouched.
    ``graph`` must already contain the new vertex; its legs are its
    neighbours there.
    """
    outs = set(graph.outputs)
    if not graph.adj[new_vertex] <= outs:
        raise ValueError("inserted gadget legs must all be outputs")
    g2 = dict(f.g)
    g2[new_vertex] = frozenset({new_vertex})
    order2 = {v: 2 * l for v, l in f.order.items()}
    non_out = [v for v in f.order if v not in outs]
    out_levels = [f.order[v] for v in f.order if v in outs]
    top = 2 * min(out_levels) - 1 if out_levels else 1
    if non_out and top <= max(2 * f.order[v] for v in non_out):
        raise ValueError("order levels do not separate outputs")
    order2[new_vertex] = top
    return GFlow(g2, order2)
