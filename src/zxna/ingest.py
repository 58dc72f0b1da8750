"""Circuit to graph-like diagram translation.

Gates are replaced by their spider templates while fusing eagerly, so the
produced diagram is graph-like by construction: Z-spiders only, Hadamard
wires only, no self-loops or parallel wires.  CX and Swap arrive as
H·CZ·H from :func:`~zxna.circuit.lower_to_cz`.  Hadamard gates toggle a
pending marker on the wire instead of creating a spider; X-basis gates go
through the color-change into Z-spiders flanked by Hadamard wires;
multi-controlled phases splice in their gadget structure directly.
"""

from __future__ import annotations

from .circuit import PHASE_GATE_ANGLES, Circuit, Gate, lower_to_cz
from .cnp import add_cnp
from .diagram import ZxDiagram
from .phase import Phase

__all__ = ["circuit_to_diagram", "to_graph_like"]


class _Builder:
    def __init__(self, n: int):
        self.d = ZxDiagram(n, n)
        self.cur: list[int] = []
        self.pend_h: list[bool] = [False] * n
        for _ in range(n):
            v = self.d.add_spider(Phase(0))
            self.d.inputs.append(v)
            self.cur.append(v)

    def anchor(self, q: int) -> int:
        """Current wire-end spider of qubit q with no pending Hadamard."""
        if self.pend_h[q]:
            w = self.d.add_spider(Phase(0))
            self.d.toggle_edge(self.cur[q], w)
            self.cur[q] = w
            self.pend_h[q] = False
        return self.cur[q]

    def h(self, q: int) -> None:
        self.pend_h[q] = not self.pend_h[q]

    def rz(self, q: int, p: Phase) -> None:
        self.d.add_phase(self.anchor(q), p)

    def rx(self, q: int, p: Phase) -> None:
        self.h(q)
        self.rz(q, p)
        self.h(q)

    def cz(self, a: int, b: int) -> None:
        self.d.toggle_edge(self.anchor(a), self.anchor(b))

    def ncp(self, qubits: tuple[int, ...], phi: Phase) -> None:
        add_cnp(self.d, [self.anchor(q) for q in qubits], phi)

    def finish(self) -> ZxDiagram:
        for q, v in enumerate(self.cur):
            self.d.outputs.append(v)
            self.d.output_hadamard[q] = self.pend_h[q]
        return self.d


def circuit_to_diagram(c: Circuit) -> ZxDiagram:
    """Translate a circuit into an equivalent graph-like ZX-diagram."""
    b = _Builder(c.num_qubits)
    for g in lower_to_cz(c.gates):
        _ingest_gate(b, g)
    return b.finish()


def _ingest_gate(b: _Builder, g: Gate) -> None:
    k = g.kind
    if k == "H":
        b.h(g.qubits[0])
    elif k == "Rz":
        b.rz(g.qubits[0], g.angle)
    elif k in PHASE_GATE_ANGLES:
        b.rz(g.qubits[0], PHASE_GATE_ANGLES[k])
    elif k == "Rx":
        b.rx(g.qubits[0], g.angle)
    elif k == "X":
        b.rx(g.qubits[0], Phase(1))
    elif k == "Y":
        # Y = i X Z: Z first, then X (global phase is not tracked)
        b.rz(g.qubits[0], Phase(1))
        b.rx(g.qubits[0], Phase(1))
    elif k == "Ry":
        # Ry(t) = Rz(pi/2) Rx(t) Rz(-pi/2) as a matrix product
        q = g.qubits[0]
        b.rz(q, Phase(-1, 2))
        b.rx(q, g.angle)
        b.rz(q, Phase(1, 2))
    elif k == "CZ":
        b.cz(*g.qubits)
    elif k == "NCP":
        b.ncp(g.qubits, g.angle)
    elif k == "NCZ":
        b.ncp(g.qubits, Phase(1))
    else:
        raise ValueError(f"cannot ingest gate kind {k!r}")


def to_graph_like(d: ZxDiagram) -> None:
    """Validate the graph-like form of an ingested diagram.

    Diagrams built by :func:`circuit_to_diagram` fuse spiders eagerly, so
    this pass only has to verify the invariants (simple graph, boundary
    lists well formed).  Kept as a separate step so alternative front ends
    can plug in without the eager-fusion guarantee.
    """
    d.check_simple()
    if len(d.inputs) != len(d.input_hadamard) or len(d.outputs) != len(d.output_hadamard):
        raise AssertionError("boundary flag lists out of sync")
    for v in d.inputs + d.outputs:
        if not d.contains(v):
            raise AssertionError(f"boundary spider {v} missing")
