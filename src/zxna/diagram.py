"""Graph-like ZX-diagrams.

A diagram is a simple graph of phase-labelled Z-spiders where every
spider-spider edge carries an implicit Hadamard.  The ordered input and
output lists name boundary spiders; each boundary position additionally
carries a flag marking a Hadamard on its dangling wire.  Parallel Hadamard
wires cancel pairwise, which is why edge insertion is a toggle.

Phase gadgets are defined here, once, for every module: a gadget's top is
an interior degree-1 spider, and its root, the top's one neighbour, is
interior, phase-free and has at least one other neighbour (a leg).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter
from typing import AbstractSet, Iterable, Iterator, Optional

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

    def add_gadget(self, legs: Iterable[int], phase: Phase) -> GadgetView:
        """Hang a new phase gadget on ``legs``: reserve its ids, then place it."""
        g = self.reserve_gadget(legs, phase)
        self.place_gadget(g)
        return g

    def reserve_gadget(self, legs: Iterable[int], phase: Phase) -> GadgetView:
        """Take the next two ids for a gadget's root and top without adding either."""
        root = self._next_id
        self._next_id += 2
        return GadgetView(root + 1, root, frozenset(legs), phase)

    def place_gadget(self, g: GadgetView) -> None:
        """Add a reserved gadget: its root, its top, then its leg wires in ascending order."""
        self._phases[g.root], self._phases[g.top] = Phase(0), g.phase
        self._adj[g.root], self._adj[g.top] = set(), set()
        for a in (g.top, *sorted(g.legs)):
            self.toggle_edge(g.root, a)

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

    def adjacent(self, v: int) -> AbstractSet[int]:
        """v's own neighbour set, not a copy: read it before the next change, never write it."""
        return self._adj[v]

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
        """The pure graph pivot on an edge, G ∧ uv = G * u * v * u (Duncan et al., Quantum 4, 279)."""
        if v not in self._adj[u]:
            raise ValueError("pivot requires adjacent spiders")
        for w in (u, v, u):
            self.local_complement_graph(w)

    # -- gadgets ------------------------------------------------------------

    def boundary(self) -> set[int]:
        """The input and output spiders."""
        return set(self.inputs) | set(self.outputs)

    def _hung_on(self, top: int, boundary: AbstractSet[int]) -> Optional[int]:
        """The one neighbour of a degree-1 spider if neither is in ``boundary``, else None."""
        if len(self._adj[top]) != 1 or top in boundary:
            return None
        (root,) = self._adj[top]
        return None if root in boundary else root

    def gadget_root(self, top: int, boundary: AbstractSet[int]) -> Optional[int]:
        """The gadget test: ``top``'s root if it is a gadget's top, else None.

        ``boundary`` is :meth:`boundary`, read once by the scan that tests each spider.
        """
        root = self._hung_on(top, boundary)
        if root is None or not self._phases[root].is_zero() or len(self._adj[root]) < 2:
            return None
        return root

    def find_gadgets(self) -> list[GadgetView]:
        """All phase gadgets, in ascending top id, i.e. in the order their tops were created."""
        out, boundary = [], self.boundary()
        for top in self.spiders():
            root = self.gadget_root(top, boundary)
            if root is not None:
                out.append(GadgetView(top, root, frozenset(self._adj[root] - {top}), self._phases[top]))
        return out

    def frontier_gadgets(self, frontier: AbstractSet[int]) -> list[GadgetView]:
        """The gadgets whose legs, two or more, all lie in ``frontier`` (outputs), in ascending top id.

        The same list as filtering :meth:`find_gadgets`, found from the
        frontier's neighbourhood: such a gadget's root is a non-frontier
        neighbour of the frontier whose one non-frontier neighbour is its top.
        """
        out, boundary, adj = [], self.boundary(), self._adj
        for root in {w for v in frontier for w in adj[v]} - frontier:
            off = adj[root] - frontier
            if len(off) == 1 and len(adj[root]) >= 3:
                (top,) = off
                if self.gadget_root(top, boundary) == root:
                    out.append(GadgetView(top, root, frozenset(adj[root] - off), self._phases[top]))
        out.sort(key=attrgetter("top"))
        return out

    def hanging(self, near: AbstractSet[int]) -> Iterator[tuple[int, int]]:
        """(top, root) of each interior degree-1 spider in or next to ``near`` on an interior one.

        Tops come in ascending id, whatever the phases.  A rewrite that changed
        only ``near`` finds here every pair it can have put out of gadget form.
        Each candidate is tested when reached, so the caller may rewrite the
        diagram between two steps, but not its boundary.
        """
        adj, boundary = self._adj, self.boundary()
        for top in sorted({*near, *(w for v in near for w in adj[v])}):
            if top in adj and (root := self._hung_on(top, boundary)) is not None:
                yield top, root

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
        """Read :meth:`to_json`'s format; raises ValueError for a malformed diagram."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"diagram is {type(data).__name__} {data!r}, not an object")
        keys = ("spiders", "edges", "inputs", "outputs", "input_hadamard", "output_hadamard")
        if missing := [k for k in keys if k not in data]:
            raise ValueError(f"diagram lacks keys {missing}")
        if wrong := [k for k in keys if not isinstance(data[k], dict if k == "spiders" else list)]:
            raise ValueError(f"diagram keys {wrong} hold the wrong JSON type")
        d = cls()
        spiders = []
        for k, p in data["spiders"].items():
            if not (k.isdecimal() and k == str(int(k))):  # one key per number
                raise ValueError(f"spider key {k!r} is not a spider number")
            if not (isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)):
                raise ValueError(f"spider {k} has phase {p!r}, not a pair of integers")
            spiders.append((int(k), p))
        for v, (n, den) in sorted(spiders):
            if den == 0:
                raise ValueError(f"spider {v} has phase {[n, den]} with denominator 0")
            d._phases[v] = Phase(n, den)
            d._adj[v] = set()
            d._next_id = max(d._next_id, v + 1)
        for e in data["edges"]:
            if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
                raise ValueError(f"edge {e!r} is not a pair of spiders")
            u, v = e
            if u not in d._adj or v not in d._adj:
                raise ValueError(f"edge {[u, v]} names an unknown spider")
            if u == v:
                raise ValueError(f"self-loop edge {[u, v]}")
            if d.has_edge(u, v):
                raise ValueError(f"repeated edge {[u, v]}")
            d.toggle_edge(u, v)
        d.inputs, d.outputs = list(data["inputs"]), list(data["outputs"])
        d.input_hadamard, d.output_hadamard = list(data["input_hadamard"]), list(data["output_hadamard"])
        for side, ids, flags in (("inputs", d.inputs, d.input_hadamard), ("outputs", d.outputs, d.output_hadamard)):
            if unknown := [v for v in ids if type(v) is not int or v not in d._adj]:
                raise ValueError(f"{side} name unknown spiders {unknown}")
            if len(set(ids)) < len(ids):
                raise ValueError(f"{side} repeat spiders {sorted(v for v in set(ids) if ids.count(v) > 1)}")
            if len(flags) != len(ids):
                raise ValueError(f"{len(ids)} {side} but {len(flags)} Hadamard flags")
            if not all(type(f) is bool for f in flags):
                raise ValueError(f"{side} Hadamard flags {flags} are not all booleans")
        return d
