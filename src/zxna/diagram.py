"""Graph-like ZX-diagrams.

A diagram is a simple graph of phase-labelled Z-spiders where every
spider-spider edge carries an implicit Hadamard.  The ordered input and
output lists name boundary spiders; each boundary position additionally
carries a flag marking a Hadamard on its dangling wire.  Parallel Hadamard
wires cancel pairwise, which is why edge insertion is a toggle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .phase import Phase

__all__ = ["ZxDiagram", "GadgetView"]


@dataclass(frozen=True)
class GadgetView:
    """A phase gadget: a degree-1 top spider hanging off a phase-free root."""

    top: int
    root: int
    legs: frozenset[int]
    phase: Phase


class ZxDiagram:
    def __init__(self, num_inputs: int = 0, num_outputs: int = 0):
        self._phases: dict[int, Phase] = {}
        self._adj: dict[int, set[int]] = {}
        self._next_id = 0
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.input_hadamard: list[bool] = [False] * num_inputs
        self.output_hadamard: list[bool] = [False] * num_outputs

    # -- basic surgery ----------------------------------------------------

    def add_spider(self, phase: Phase = Phase(0)) -> int:
        v = self._next_id
        self._next_id += 1
        self._phases[v] = phase
        self._adj[v] = set()
        return v

    def add_gadget(self, legs: Sequence[int], phase: Phase) -> GadgetView:
        """Hang a new phase gadget on ``legs``: a root, then a top, then the leg wires in order."""
        root = self.add_spider(Phase(0))
        top = self.add_spider(phase)
        self.toggle_edge(root, top)
        for a in legs:
            self.toggle_edge(root, a)
        return GadgetView(top, root, frozenset(legs), phase)

    def remove_spider(self, v: int) -> None:
        for w in self._adj.pop(v):
            self._adj[w].discard(v)
        del self._phases[v]

    def toggle_edge(self, u: int, v: int) -> None:
        """Add the Hadamard wire (u, v) if absent, remove it if present."""
        if u == v:
            raise ValueError("self-loop toggle is not allowed")
        if v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
        else:
            self._adj[u].add(v)
            self._adj[v].add(u)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        return set(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def phase(self, v: int) -> Phase:
        return self._phases[v]

    def set_phase(self, v: int, p: Phase) -> None:
        self._phases[v] = p

    def add_phase(self, v: int, p: Phase) -> None:
        self._phases[v] = self._phases[v] + p

    def spiders(self) -> Iterator[int]:
        """Spider ids in ascending creation order."""
        return iter(self._phases)

    def num_spiders(self) -> int:
        return len(self._phases)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def contains(self, v: int) -> bool:
        return v in self._phases

    def copy(self) -> "ZxDiagram":
        d = ZxDiagram()
        d._phases = dict(self._phases)
        d._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        d._next_id = self._next_id
        d.inputs = list(self.inputs)
        d.outputs = list(self.outputs)
        d.input_hadamard = list(self.input_hadamard)
        d.output_hadamard = list(self.output_hadamard)
        return d

    # -- graph operations -------------------------------------------------

    def local_complement_graph(self, v: int) -> None:
        """Toggle every edge between two neighbors of v."""
        nbrs = sorted(self._adj[v])
        for a, b in combinations(nbrs, 2):
            self.toggle_edge(a, b)

    def pivot_graph(self, u: int, v: int) -> None:
        """The pure graph pivot on an edge: equals three local complementations.

        Implemented as the complete-bipartite toggle among the exclusive
        neighborhoods of u and v and their common neighborhood, plus swapping
        the roles of u and v in the edge set.
        """
        if v not in self._adj[u]:
            raise ValueError("pivot requires adjacent spiders")
        nu = self._adj[u] - {v}
        nv = self._adj[v] - {u}
        common = nu & nv
        only_u = nu - common
        only_v = nv - common
        for a in only_u:
            for b in only_v:
                self.toggle_edge(a, b)
            for b in common:
                self.toggle_edge(a, b)
        for a in only_v:
            for b in common:
                self.toggle_edge(a, b)
        # u and v swap neighborhoods (G * u * v * u exchanges the pair)
        for a in only_u:
            self.toggle_edge(u, a)
            self.toggle_edge(v, a)
        for b in only_v:
            self.toggle_edge(u, b)
            self.toggle_edge(v, b)

    # -- gadget detection -------------------------------------------------

    def find_gadgets(self) -> list[GadgetView]:
        """All phase gadgets: interior degree-1 tops on phase-free interior roots.

        Gadgets come in ascending top id, i.e. in the order their tops were created.
        """
        boundary = set(self.inputs) | set(self.outputs)
        out = []
        for top in self.spiders():
            if top in boundary or len(self._adj[top]) != 1:
                continue
            (root,) = self._adj[top]
            if root in boundary or not self._phases[root].is_zero():
                continue
            legs = frozenset(self._adj[root] - {top})
            if not legs:
                continue
            out.append(GadgetView(top, root, legs, self._phases[top]))
        return out

    # -- validation & serialization ---------------------------------------

    def check_simple(self) -> None:
        for v, nbrs in self._adj.items():
            if v in nbrs:
                raise AssertionError(f"self-loop at {v}")
            for w in nbrs:
                if v not in self._adj[w]:
                    raise AssertionError(f"asymmetric edge {v},{w}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "spiders": {str(v): [p.numerator, p.denominator] for v, p in self._phases.items()},
                "edges": sorted([u, v] for u, v in self.edges()),
                "inputs": self.inputs,
                "outputs": self.outputs,
                "input_hadamard": self.input_hadamard,
                "output_hadamard": self.output_hadamard,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ZxDiagram":
        data = json.loads(text)
        d = cls()
        for v, (n, den) in sorted(((int(k), p) for k, p in data["spiders"].items())):
            d._phases[v] = Phase(n, den)
            d._adj[v] = set()
            d._next_id = max(d._next_id, v + 1)
        for u, v in data["edges"]:
            d.toggle_edge(u, v)
        d.inputs = list(data["inputs"])
        d.outputs = list(data["outputs"])
        d.input_hadamard = list(data["input_hadamard"])
        d.output_hadamard = list(data["output_hadamard"])
        return d
