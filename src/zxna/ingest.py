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

from .circuit import PHASE_GATE_ANGLES, Circuit, lower_to_cz
from .cnp import add_cnp
from .diagram import ZxDiagram
from .phase import Phase

__all__ = ["circuit_to_diagram", "to_graph_like"]

#: Wire phases of each one-qubit kind but H, in the order applied, as (basis,
#: phase or None for the gate's angle): Y = iXZ, Ry(t) = Rz(pi/2)Rx(t)Rz(-pi/2).
_WIRE_PHASES = {
    "Rz": (("Z", None),),
    "Rx": (("X", None),),
    "X": (("X", Phase(1)),),
    "Y": (("Z", Phase(1)), ("X", Phase(1))),
    "Ry": (("Z", Phase(-1, 2)), ("X", None), ("Z", Phase(1, 2))),
    **{k: (("Z", p),) for k, p in PHASE_GATE_ANGLES.items()},
}


def circuit_to_diagram(c: Circuit) -> ZxDiagram:
    """Translate a circuit into an equivalent graph-like ZX-diagram."""
    n = c.num_qubits
    d = ZxDiagram(n, n)
    d.inputs.extend(d.add_spider(Phase(0)) for _ in range(n))
    cur = list(d.inputs)
    pend_h = [False] * n

    def anchor(q: int) -> int:
        """Current wire-end spider of qubit q with no pending Hadamard."""
        if pend_h[q]:
            w = d.add_spider(Phase(0))
            d.toggle_edge(cur[q], w)
            cur[q] = w
            pend_h[q] = False
        return cur[q]

    for g in lower_to_cz(c.gates):
        k, qs = g.kind, g.qubits
        if k == "H":
            pend_h[qs[0]] ^= True
        elif k == "CZ":
            d.toggle_edge(anchor(qs[0]), anchor(qs[1]))
        elif k in ("NCP", "NCZ"):
            add_cnp(d, [anchor(q) for q in qs], g.angle or Phase(1))
        elif k in _WIRE_PHASES:
            for basis, p in _WIRE_PHASES[k]:  # an X phase sits between two Hadamard toggles
                pend_h[qs[0]] ^= basis == "X"
                d.add_phase(anchor(qs[0]), p or g.angle)
                pend_h[qs[0]] ^= basis == "X"
        else:
            raise ValueError(f"cannot ingest gate kind {k!r}")
    d.outputs.extend(cur)
    d.output_hadamard[:] = pend_h
    return d


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
