"""Circuit extraction from graph-like diagrams with gflow.

Gates are peeled off the output side one at a time: frontier phases become
Rz gates, frontier-frontier wires CZ gates, and complete controlled-phase
structures NCP gates.  When a frontier spider has a single neighbor it
advances through a Hadamard; otherwise GF(2) elimination of the biadjacency
matrix emits CX gates until one does.  Gadget roots blocking the frontier
are pivoted back into the XY plane.  The collected gates are in reverse
order and flipped at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from .circuit import Circuit, Gate
from .cnp import MatchPlan, match_cnp
from .diagram import ZxDiagram
from .gf2 import row_reduce
from .gflow import extend_gflow_insertion, find_gflow, labeled_graph_of, verify_gflow
from .phase import Phase
from .simplify import _normalize_gadget_roots, pivot_simp

__all__ = ["ExtractionMode", "ExtractionError", "extract_circuit"]


@dataclass(frozen=True)
class ExtractionMode:
    """Extraction flavor: plain, or with the controlled-phase step.

    ``default`` disables NCP extraction entirely; ``no-insert`` only matches
    structures already present; ``with-insert`` may complete partial
    structures by inserting the missing gadgets.  ``max_ctrl`` caps emitted
    NCP arity.  ``debug`` re-verifies gflow around every gadget insertion.
    """

    kind: Literal["default", "no-insert", "with-insert"] = "default"
    max_ctrl: Optional[int] = None
    debug: bool = False


class ExtractionError(RuntimeError):
    def __init__(self, msg: str, d: Optional[ZxDiagram] = None):
        if d is not None:
            msg = f"{msg}\ndiagram: {d.to_json()}"
        super().__init__(msg)


def pivot_yz_neighbor(d: ZxDiagram, gadget_root: int, frontier_spider: int) -> None:
    """Pivot a blocking gadget root against an adjacent frontier spider.

    The frontier spider is first buffered off the boundary (two phase-free
    spiders on its output wire) so the pivot only touches interior spiders.
    The gadget's phase relocates onto an XY-plane spider.
    """
    if not d.has_edge(gadget_root, frontier_spider):
        raise ValueError("root and frontier spider must be adjacent")
    q = d.outputs.index(frontier_spider)
    w1 = d.add_spider(Phase(0))
    w2 = d.add_spider(Phase(0))
    d.toggle_edge(frontier_spider, w1)
    d.toggle_edge(w1, w2)
    d.outputs[q] = w2
    ok = pivot_simp(d, gadget_root, frontier_spider)
    if not ok:
        raise ExtractionError("yz pivot failed: non-Pauli phases", d)
    _normalize_gadget_roots(d)


class _Extractor:
    def __init__(self, d: ZxDiagram, mode: ExtractionMode):
        self.d = d.copy()
        self.mode = mode
        self.rev: list[Gate] = []  # reversed gate order
        self.n = len(self.d.outputs)
        self.yz_pivots = 0
        self.no_extend: set[int] = set()
        self._pad_inputs()

    def _pad_inputs(self) -> None:
        """Move every input behind a two-spider buffer (H-H = plain wire).

        Afterwards no input spider carries phases, gadgets or frontier
        duty, which keeps every extraction step's rewrite valid: the CX row
        operation and the Hadamard advance both assume the spiders they
        touch have no dangling input wire.
        """
        d = self.d
        for q, i in enumerate(d.inputs):
            x = d.add_spider(Phase(0))
            y = d.add_spider(Phase(0))
            d.toggle_edge(i, x)
            d.toggle_edge(x, y)
            d.inputs[q] = y

    def qubit_of(self, v: int) -> int:
        return self.d.outputs.index(v)

    # -- single extraction steps -----------------------------------------

    def pull_boundary_hadamards(self) -> None:
        for q in range(self.n):
            if self.d.output_hadamard[q]:
                self.rev.append(Gate("H", (q,)))
                self.d.output_hadamard[q] = False

    def pull_phases(self) -> bool:
        changed = False
        for q, v in enumerate(self.d.outputs):
            p = self.d.phase(v)
            if not p.is_zero():
                self.rev.append(Gate("Rz", (q,), p))
                self.d.set_phase(v, Phase(0))
                changed = True
        return changed

    def pull_czs(self) -> bool:
        changed = False
        fr = {v: q for q, v in enumerate(self.d.outputs)}
        for q, v in enumerate(self.d.outputs):
            for w in sorted(self.d.neighbors(v)):
                if w in fr and fr[w] > q:
                    self.rev.append(Gate("CZ", (q, fr[w])))
                    self.d.toggle_edge(v, w)
                    changed = True
        return changed

    def pull_cnp(self) -> bool:
        if self.mode.kind == "default":
            return False
        changed = False
        limit = 10 * (self.d.num_spiders() + 10)
        for _ in range(limit):
            frontier = set(self.d.outputs)
            plan = match_cnp(
                self.d, frontier, self.mode.kind, self.mode.max_ctrl,
                no_extend=frozenset(self.no_extend),
            )
            if plan is None:
                return changed
            self.execute_plan(plan)
            changed = True
        raise ExtractionError("controlled-phase matching did not settle", self.d)

    def execute_plan(self, plan: MatchPlan) -> None:
        """Replace the plan's gadgets and anchor phases with one NCP gate.

        Each insertion leaves a gadget with the opposite of the required
        phase, each split a gadget with the surplus.  They are created in
        plan order, insertions first: later matches order seeds by top id.
        """
        d = self.d
        for legs, p in plan.insertions:
            f = self._gflow_before_insertion() if self.mode.debug else None
            g = d.add_gadget(sorted(legs), -p)
            self.no_extend.add(g.top)
            if f is not None:
                self._check_insertion(f, g)
        for g, p in plan.splits:
            d.add_gadget(sorted(g.legs), g.phase - p)
        # the alpha on each anchor is absorbed into the NCP; the rest is an Rz
        qubits = tuple(self.qubit_of(a) for a in plan.target_set)
        for a, q in zip(plan.target_set, qubits):
            residue = d.phase(a) - plan.alpha
            if not residue.is_zero():
                self.rev.append(Gate("Rz", (q,), residue))
            d.set_phase(a, Phase(0))
        for g in plan.matched.values():
            d.remove_spider(g.top)
            d.remove_spider(g.root)
        self.rev.append(Gate("NCP", qubits, plan.phi))

    def _gflow_before_insertion(self):
        f = find_gflow(labeled_graph_of(self.d))
        if f is None:
            raise ExtractionError("lost gflow before insertion", self.d)
        return f

    def _check_insertion(self, f, gadget) -> None:
        """Debug mode: extend the pre-insertion gflow over the new gadget and verify it."""
        graph = labeled_graph_of(self.d)
        f = extend_gflow_insertion(graph, f, gadget.root, set(gadget.legs))
        if not verify_gflow(graph, f):
            raise ExtractionError("gflow extension failed verification", self.d)

    def advance_hadamard(self) -> bool:
        changed = False
        ins = set(self.d.inputs)
        for q in range(self.n):
            v = self.d.outputs[q]
            if v in ins:
                continue
            if self.d.degree(v) != 1:
                continue
            (w,) = self.d.neighbors(v)
            if w in self.d.outputs:
                continue
            self.rev.append(Gate("H", (q,)))
            self.d.toggle_edge(v, w)
            self.d.remove_spider(v)
            self.d.outputs[q] = w
            changed = True
        return changed

    def eliminate(self) -> bool:
        """CX extraction via GF(2) elimination of the frontier biadjacency."""
        d = self.d
        frontier = set(d.outputs)
        rows = [q for q in range(self.n) if d.outputs[q] not in set(d.inputs) or d.degree(d.outputs[q]) > 0]
        cols = sorted({w for q in rows for w in d.neighbors(d.outputs[q]) if w not in frontier})
        if not cols:
            return False
        cidx = {c: j for j, c in enumerate(cols)}
        m = [
            sum(1 << cidx[w] for w in d.neighbors(d.outputs[q]) if w in cidx)
            for q in rows
        ]
        ops = row_reduce(m, len(cols))[1]
        for src, dst in ops:
            self.apply_cx(rows[src], rows[dst])
        return bool(ops)

    def apply_cx(self, q_src: int, q_dst: int) -> None:
        """Add the wires of frontier q_src onto frontier q_dst, emitting a CX.

        The row operation dst ^= src on the biadjacency matrix corresponds
        to a CX with control q_dst and target q_src (calibrated against the
        tensor oracle).
        """
        d = self.d
        vs, vd = d.outputs[q_src], d.outputs[q_dst]
        frontier = set(d.outputs)
        for w in sorted(d.neighbors(vs)):
            if w not in frontier:
                d.toggle_edge(vd, w)
        self.rev.append(Gate("CX", (q_dst, q_src)))

    def yz_pivot_step(self) -> bool:
        d = self.d
        ins = set(d.inputs)
        frontier = set(d.outputs)
        roots = {g.root for g in d.find_gadgets()}
        for q in range(self.n):
            v = d.outputs[q]
            if v in ins:
                continue
            for w in sorted(d.neighbors(v)):
                if w in roots and w not in frontier:
                    pivot_yz_neighbor(d, w, v)
                    self.yz_pivots += 1
                    return True
        return False

    # -- driver -----------------------------------------------------------

    def done(self) -> bool:
        d = self.d
        ins = set(d.inputs)
        return (
            all(v in ins for v in d.outputs)
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
        self.pull_boundary_hadamards()
        limit = 20 * (self.d.num_spiders() + 10)
        for _ in range(limit):
            changed = self.pull_czs()
            changed |= self.pull_cnp()
            changed |= self.pull_phases()
            changed |= self.advance_hadamard()
            if changed:
                continue
            if self.done():
                break
            if self.eliminate():
                continue
            if self.yz_pivot_step():
                continue
            raise ExtractionError("extraction stuck: no applicable step", self.d)
        else:
            raise ExtractionError("extraction did not terminate", self.d)
        self.finish_permutation()
        return Circuit(self.n, tuple(reversed(self.rev)))


def extract_circuit(d: ZxDiagram, mode: ExtractionMode = ExtractionMode()) -> Circuit:
    """Extract a circuit over {H, Rz, CZ, CX, NCP} from a diagram with gflow."""
    graph = labeled_graph_of(d)
    if find_gflow(graph) is None:
        raise ExtractionError("diagram not extractable: no gflow")
    return _Extractor(d, mode).run()
