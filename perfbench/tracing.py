"""Traced compilation: ``run_pipeline`` rebuilt from public calls with spans.

``traced_compile`` makes the same calls as ``zxna.pipeline.synthesize`` and
``zxna.backend.schedule`` in the same order, timing each one and counting
its work, so its outputs must equal the untraced run's.  The one addition is
a standalone ``find_gflow(labeled_graph_of(d))`` on the simplified diagram,
the same check ``extract_circuit`` makes at its entry; its result is
discarded and its time is kept out of the tracing overhead.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from zxna import (
    ExtractionMode,
    Schedule,
    TimeConfig,
    cancel_gates,
    circuit_to_diagram,
    extract_circuit,
    find_gflow,
    full_simplify,
    parse_qasm,
    to_ncz_baseline,
)
from zxna.backend import execution_time, greedy_assign, layerize, schedule_counts, transversal_decompose
from zxna.gflow import labeled_graph_of
from zxna.ingest import to_graph_like

__all__ = ["Span", "Tracer", "traced_compile", "REWRITE_RULES"]

REWRITE_RULES = ("lc", "pivot", "id", "scalar", "gadget_lc", "gadget_pivot", "gadget_fusion")


@dataclass
class Span:
    job: int
    name: str
    start: float
    end: float
    parent: str | None


@dataclass
class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    @contextmanager
    def span(self, job: int, name: str, parent: str | None = "job"):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(job, name, start, time.perf_counter(), parent))

    def seconds(self) -> Counter:
        """Summed duration per span name."""
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out


def traced_compile(tr: Tracer, job: int, qasm: str, pipeline: str):
    """Compile one job as ``run_pipeline`` does, recording spans and counts."""
    count = tr.counts
    with tr.span(job, "job", None):
        with tr.span(job, "qasm.parse"):
            c = parse_qasm(qasm)
        count["qasm.gates_in"] += len(c.gates)
        if pipeline == "no-decomp":
            with tr.span(job, "circuit.lower"):
                raw = to_ncz_baseline(c)
        else:
            kind = pipeline.removeprefix("zx-")
            with tr.span(job, "ingest"):
                d = circuit_to_diagram(c)
                to_graph_like(d)
            count["ingest.spiders"] += d.num_spiders()
            count["ingest.edges"] += d.num_edges()
            with tr.span(job, "simplify"):
                rt = full_simplify(d)
            count["simplify.rewrites"] += len(rt.steps)
            count.update(f"simplify.rewrites.{s['rule']}" for s in rt.steps)
            count["simplify.spiders_out"] += d.num_spiders()
            count["simplify.edges_out"] += d.num_edges()
            count["simplify.gadgets_out"] += len(d.find_gadgets())
            with tr.span(job, "gflow"):
                graph = labeled_graph_of(d)
                flow = find_gflow(graph)
            count["gflow.vertices"] += len(graph.vertices)
            if flow is not None:
                count["gflow.depth"] += max(flow.order.values()) + 1
            with tr.span(job, f"extract.{kind}"):
                raw = extract_circuit(d, ExtractionMode(kind))
            count["extract.gates_out"] += len(raw.gates)
            count["extract.cx"] += sum(g.kind == "CX" for g in raw.gates)
            count["extract.ncp"] += sum(g.kind == "NCP" for g in raw.gates)
            count["extract.ncp_ge3"] += sum(g.kind == "NCP" and len(g.qubits) >= 3 for g in raw.gates)
        with tr.span(job, "circuit.cancel"):
            out = cancel_gates(raw)
        count["circuit.cancel_in"] += len(raw.gates)
        count["circuit.cancel_removed"] += len(raw.gates) - len(out.gates)
        with tr.span(job, "backend.layerize"):
            layers = layerize(out)
        with tr.span(job, "backend.assign"):
            layers = greedy_assign(layers)
        with tr.span(job, "backend.decompose"):
            ops = []
            for i, lay in enumerate(layers):
                ops.extend(transversal_decompose(lay, out.num_qubits) if i % 2 == 0 else lay)
            sched = Schedule(tuple(ops), execution_time(ops, TimeConfig()))
        counts = schedule_counts(sched.ops)
        count["backend.layers"] += len(layers)
        count["backend.gr_pulses"] += counts["gr_pulses"]
        count["backend.rz_layers"] += counts["rz_layers"]
    return c, out, sched
