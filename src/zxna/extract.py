"""Circuit extraction from graph-like diagrams with gflow.

Gates are peeled off the output side one at a time: frontier phases become
Rz gates, frontier-frontier wires CZ gates, and complete controlled-phase
structures NCP gates.  When a frontier spider has a single neighbor it
advances through a Hadamard; otherwise GF(2) elimination of the biadjacency
matrix emits CX gates until one does.  Gadget roots blocking the frontier
are pivoted back into the XY plane.  The collected gates are in reverse
order and flipped at the end.

Each step runs only when an earlier change can have enabled it:

- the CZ pull reads and clears only frontier-frontier wires;
- the NCP pull reads gadgets whose legs all lie on the frontier, clears
  anchor phases and changes only root-leg wires;
- the Rz pull clears frontier phases;
- elimination toggles only frontier-non-frontier wires.

So the pulls can enable only a Hadamard advance: a round without one is
settled and goes straight to elimination.  After an elimination with row
operations only the NCP pull and the advance can apply, and elimination
waits for an advance, as the rows stay reduced: the NCP pull deletes only
gadget-root columns, which have two or more legs and so are never pivot
columns, and appends root columns, last by id, only on legs with a
non-frontier neighbour, whose rows keep their pivots.  An advance or a YZ
pivot re-enables every step.

The NCP step finds the frontier's gadgets from the frontier's neighbours,
then matches on that index, which each plan updates.  Gadgets a plan
leaves get their ids at once but enter the diagram when the step ends, in
id order, so ids, spider order and edges are as if placed right away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from .circuit import Circuit, Gate
from .cnp import MatchPlan, match_cnp
from .diagram import GadgetView, ZxDiagram
from .gf2 import row_reduce
from .gflow import extend_gflow_insertion, find_gflow, labeled_graph_of, verify_gflow
from .phase import Phase
from .simplify import pivot_simp

__all__ = ["ExtractionMode", "ExtractionError", "extract_circuit"]


@dataclass(frozen=True)
class ExtractionMode:
    """Extraction flavor: plain, or with the controlled-phase step.

    ``default`` disables NCP extraction entirely; ``no-insert`` only matches
    structures already present; ``with-insert`` may complete partial
    structures by inserting the missing gadgets.  ``max_ctrl`` caps emitted
    NCP arity; it is None (no cap) or an int of at least 2.  ``debug``
    re-verifies gflow around every gadget insertion.
    """

    kind: Literal["default", "no-insert", "with-insert"] = "default"
    max_ctrl: Optional[int] = None
    debug: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("default", "no-insert", "with-insert"):
            raise ValueError(f"unknown extraction kind {self.kind!r}")
        if self.max_ctrl is not None and (type(self.max_ctrl) is not int or self.max_ctrl < 2):
            raise ValueError(f"max_ctrl must be at least 2 (an NCP spans two qubits) and an int, got {self.max_ctrl!r}")


class ExtractionError(RuntimeError):
    def __init__(self, msg: str, d: Optional[ZxDiagram] = None):
        if d is not None:
            msg = f"{msg}\ndiagram: {d.to_json()}"
        super().__init__(msg)


def pivot_yz_neighbor(d: ZxDiagram, gadget_root: int, frontier_spider: int) -> None:
    """Pivot a blocking gadget root against an adjacent frontier spider.

    The frontier spider is first buffered off the boundary (two phase-free
    spiders on its output wire) so the pivot only touches interior spiders.
    The gadget's phase relocates onto an XY-plane spider.  In extraction the
    root (by gadget form) and the frontier spider (its phase pulled) are both
    phase-free, so the pivot adds only Pauli phases, which ``pivot_simp``
    settles next to them.  Every precondition is checked before the diagram
    changes, so on an error the diagram is the caller's.
    """
    if not d.has_edge(gadget_root, frontier_spider):
        raise ValueError("root and frontier spider must be adjacent")
    if frontier_spider not in d.outputs or frontier_spider in d.inputs:
        raise ValueError(f"frontier spider {frontier_spider} is not an output, or is also an input")
    if gadget_root in d.boundary():
        raise ValueError(f"gadget root {gadget_root} is a boundary spider")
    for v in (gadget_root, frontier_spider):
        if not d.phase(v).is_pauli():
            raise ExtractionError(f"yz pivot failed: spider {v} has non-Pauli phase {d.phase(v)}", d)
    q = d.outputs.index(frontier_spider)
    w1 = d.add_spider(Phase(0))
    w2 = d.add_spider(Phase(0))
    d.toggle_edge(frontier_spider, w1)
    d.toggle_edge(w1, w2)
    d.outputs[q] = w2
    pivot_simp(d, gadget_root, frontier_spider)  # cannot refuse: both phases are Pauli


class _Extractor:
    def __init__(self, d: ZxDiagram, mode: ExtractionMode):
        self.d = d.copy()
        self.mode = mode
        self.rev: list[Gate] = []  # reversed gate order
        self.n = len(self.d.outputs)
        self.yz_pivots = 0
        self.no_extend: set[int] = set()
        self.gadgets: dict[int, GadgetView] = {}  # pull_cnp's frontier gadgets by top id, ascending
        self.pending: dict[int, GadgetView] = {}  # reserved, not yet placed
        self._pad_inputs()
        self.ins = {*self.d.inputs}  # the padded inputs never change

    def _pad_inputs(self) -> None:
        """Move every input behind a two-spider buffer (H-H = plain wire).

        A flagged input (Hadamard on its boundary wire) gets one buffer
        spider instead, so that Hadamard becomes the buffer's edge.
        Afterwards no input spider carries phases, gadgets or frontier
        duty, which keeps every extraction step's rewrite valid: the CX row
        operation and the Hadamard advance both assume the spiders they
        touch have no dangling input wire.
        """
        d = self.d
        for q, v in enumerate(d.inputs):
            for _ in range(1 if d.input_hadamard[q] else 2):
                w = d.add_spider(Phase(0))
                d.toggle_edge(v, w)
                v = w
            d.inputs[q] = v
            d.input_hadamard[q] = False

    # -- single extraction steps -----------------------------------------

    def pull_output_hadamards(self) -> None:
        for q in range(self.n):
            if self.d.output_hadamard[q]:
                self.rev.append(Gate("H", (q,)))
                self.d.output_hadamard[q] = False

    def pull_phases(self) -> None:
        for q, v in enumerate(self.d.outputs):
            p = self.d.phase(v)
            if not p.is_zero():
                self.rev.append(Gate("Rz", (q,), p))
                self.d.set_phase(v, Phase(0))

    def pull_czs(self) -> None:
        d = self.d
        fr = {v: q for q, v in enumerate(d.outputs)}
        frontier = set(fr)
        for q, v in enumerate(d.outputs):
            for w in sorted(d.adjacent(v) & frontier):
                if fr[w] > q:
                    self.rev.append(Gate("CZ", (q, fr[w])))
                    d.toggle_edge(v, w)

    def pull_cnp(self) -> None:
        if self.mode.kind == "default":
            return
        frontier = set(self.d.outputs)
        self.gadgets = {g.top: g for g in self.d.frontier_gadgets(frontier)}
        limit = 10 * (self.d.num_spiders() + 10)
        for _ in range(limit):
            plan = match_cnp(
                self.gadgets.values(), frontier, self.mode.kind, self.mode.max_ctrl,
                no_extend=self.no_extend,
            )
            if plan is None:
                self.place_pending()
                return
            self.execute_plan(plan)
        self.place_pending()
        raise ExtractionError("controlled-phase matching did not settle", self.d)

    def execute_plan(self, plan: MatchPlan) -> None:
        """Replace the plan's gadgets and anchor phases with one NCP gate.

        Each insertion leaves a gadget with the opposite of the required
        phase, each split a gadget with the surplus.  They are reserved in
        plan order, insertions first (later matches order seeds by top id),
        and join the index and ``pending``.  Matched gadgets leave the
        index; a pending one is dropped, a placed one removed.
        """
        d = self.d
        for legs, p in plan.insertions:
            f = self._gflow_before_insertion() if self.mode.debug else None
            g = self._reserve(legs, -p)
            self.no_extend.add(g.top)
            if f is not None:
                self.place_pending()
                self._check_insertion(f, g)
        for g, p in plan.splits:
            self._reserve(g.legs, g.phase - p)
        # the alpha on each anchor is absorbed into the NCP; the rest is an Rz
        qubits = tuple(d.outputs.index(a) for a in plan.target_set)
        for a, q in zip(plan.target_set, qubits):
            residue = d.phase(a) - plan.alpha
            if not residue.is_zero():
                self.rev.append(Gate("Rz", (q,), residue))
            d.set_phase(a, Phase(0))
        for g in plan.matched.values():
            del self.gadgets[g.top]
            if self.pending.pop(g.top, None) is None:
                d.remove_spider(g.top)
                d.remove_spider(g.root)
        self.rev.append(Gate("NCP", qubits, plan.phi))

    def _reserve(self, legs, phase: Phase) -> GadgetView:
        g = self.d.reserve_gadget(legs, phase)
        self.gadgets[g.top] = self.pending[g.top] = g
        return g

    def place_pending(self) -> None:
        """Place the reserved gadgets in the diagram, in ascending top id."""
        for g in self.pending.values():
            self.d.place_gadget(g)
        self.pending.clear()

    def _gflow_before_insertion(self):
        self.place_pending()
        f = find_gflow(labeled_graph_of(self.d))
        if f is None:
            raise ExtractionError("lost gflow before insertion", self.d)
        return f

    def _check_insertion(self, f, gadget) -> None:
        """Debug mode: extend the pre-insertion gflow over the new gadget and verify it."""
        graph = labeled_graph_of(self.d)
        f = extend_gflow_insertion(graph, f, gadget.root)
        if not verify_gflow(graph, f):
            raise ExtractionError("gflow extension failed verification", self.d)

    def advance_hadamard(self) -> bool:
        d = self.d
        frontier = set(d.outputs)
        changed = False
        for q in range(self.n):
            v = d.outputs[q]
            if v in self.ins or d.degree(v) != 1:
                continue
            (w,) = d.adjacent(v)
            if w in frontier:
                continue
            self.rev.append(Gate("H", (q,)))
            d.toggle_edge(v, w)
            d.remove_spider(v)
            d.outputs[q] = w
            frontier.add(w)
            changed = True
        return changed

    def eliminate(self) -> bool:
        """CX extraction via GF(2) elimination of the frontier biadjacency.

        Each row operation dst ^= src on the biadjacency matrix is a CX with
        control q_dst and target q_src (calibrated against the tensor
        oracle).  The reduced rows are then written back as the frontier
        spiders' non-frontier wires.
        """
        d = self.d
        rows = [q for q, v in enumerate(d.outputs) if v not in self.ins or d.degree(v) > 0]
        adj = [d.adjacent(d.outputs[q]) for q in rows]
        cols = sorted(set().union(*adj).difference(d.outputs))
        if not cols:
            return False
        bit = {c: 1 << j for j, c in enumerate(cols)}
        m = [sum(bit[w] for w in a if w in bit) for a in adj]
        rref, ops, _ = row_reduce(m, len(cols))
        self.rev.extend(Gate("CX", (rows[dst], rows[src])) for src, dst in ops)
        for q, old, new in zip(rows, m, rref):
            diff = old ^ new
            while diff:  # the changed columns, lowest first
                low = diff & -diff
                d.toggle_edge(d.outputs[q], cols[low.bit_length() - 1])
                diff ^= low
        return bool(ops)

    def yz_pivot_step(self) -> bool:
        d = self.d
        boundary = d.boundary()
        for q in range(self.n):
            v = d.outputs[q]
            if v in self.ins:
                continue
            for w in sorted(d.adjacent(v)):
                if any(d.gadget_root(t, boundary) == w for t in d.adjacent(w)):
                    pivot_yz_neighbor(d, w, v)
                    self.yz_pivots += 1
                    return True
        return False

    # -- driver -----------------------------------------------------------

    def done(self) -> bool:
        d = self.d
        return (
            all(v in self.ins for v in d.outputs)
            and d.num_edges() == 0
            and all(d.phase(v).is_zero() for v in d.spiders())
        )

    def finish_permutation(self) -> None:
        d = self.d
        perm = [d.inputs.index(v) for v in d.outputs]
        # output wire q carries input perm[q]; emit swaps as CX triples
        cur = list(perm)
        for q in range(self.n):
            if cur[q] == q:
                continue
            j = cur.index(q)
            for g in (Gate("CX", (q, j)), Gate("CX", (j, q)), Gate("CX", (q, j))):
                self.rev.append(g)
            cur[q], cur[j] = cur[j], cur[q]

    def run(self) -> Circuit:
        self.pull_output_hadamards()
        limit = 20 * (self.d.num_spiders() + 10)
        reduced = False  # right after row operations: only the NCP pull can apply, no elimination
        for _ in range(limit):
            if reduced:
                self.pull_cnp()
            else:
                self.pull_czs()
                self.pull_cnp()
                self.pull_phases()
            if self.advance_hadamard():  # a new frontier spider: every step again
                reduced = False
                continue
            # the pulls enable nothing but an advance, so this round is settled
            if self.done():
                break
            if not reduced and self.eliminate():
                reduced = True
                continue
            if self.yz_pivot_step():
                reduced = False
                continue
            raise ExtractionError("extraction stuck: no applicable step", self.d)
        else:
            raise ExtractionError("extraction did not terminate", self.d)
        self.finish_permutation()
        return Circuit(self.n, tuple(reversed(self.rev)))


def extract_circuit(d: ZxDiagram, mode: ExtractionMode = ExtractionMode()) -> Circuit:
    """Extract a circuit over {H, Rz, CZ, CX, NCP} from a square diagram with gflow.

    Gflow is proved only when extraction fails: every step is an equality of
    diagrams, so a finished extraction is correct without it.  On a failure
    a diagram without gflow raises ``no gflow``, which wins over every other
    reason.
    """
    try:
        if len(d.inputs) != len(d.outputs):
            raise ExtractionError(f"diagram not extractable: {len(d.inputs)} inputs but {len(d.outputs)} outputs", d)
        if not d.outputs:  # the IR has no 0-qubit circuit
            raise ExtractionError("diagram not extractable: no inputs and no outputs", d)
        return _Extractor(d, mode).run()
    except ExtractionError:
        if find_gflow(labeled_graph_of(d)) is None:
            raise ExtractionError("diagram not extractable: no gflow", d) from None
        raise
