"""End-to-end synthesis pipelines.

Each pipeline takes a circuit to the extractable gate set and applies the
basic gate cancellation pass; scheduling to the native layer structure is a
separate step shared by all pipelines.
"""

from __future__ import annotations

from typing import Optional

from .backend import Schedule, TimeConfig, schedule
from .circuit import Circuit, cancel_gates, to_ncz_baseline
from .extract import ExtractionMode, extract_circuit
from .ingest import circuit_to_diagram, to_graph_like
from .simplify import full_simplify

__all__ = ["PIPELINES", "synthesize", "run_pipeline"]

PIPELINES = ("zx-default", "zx-no-insert", "zx-with-insert", "no-decomp")


def synthesize(
    c: Circuit,
    pipeline: str,
    max_ctrl: Optional[int] = None,
    debug: bool = False,
) -> Circuit:
    """Resynthesize a circuit with the chosen scheme, cancellation included.

    The result keeps the input's final measurements. ``no-decomp`` keeps
    the input's controlled gates whole, so it raises ValueError for one
    wider than ``max_ctrl`` instead of honouring the cap.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    kind = pipeline.removeprefix("zx-")
    mode = ExtractionMode("default" if kind == "no-decomp" else kind, max_ctrl, debug)  # checks max_ctrl
    if kind == "no-decomp":
        out = cancel_gates(to_ncz_baseline(c))
        for g in out.gates:
            if g.kind == "NCP" and max_ctrl is not None and len(g.qubits) > max_ctrl:
                raise ValueError(f"no-decomp keeps {g.kind} on qubits {list(g.qubits)}, wider than max_ctrl {max_ctrl}")
        return out
    d = circuit_to_diagram(c)
    to_graph_like(d)
    full_simplify(d)
    return c.with_gates(cancel_gates(extract_circuit(d, mode)).gates)


def run_pipeline(
    c: Circuit,
    pipeline: str,
    max_ctrl: Optional[int] = None,
    debug: bool = False,
    time_config: TimeConfig = TimeConfig(),
) -> tuple[Circuit, Schedule]:
    """Synthesize and schedule; returns the native circuit and its schedule."""
    out = synthesize(c, pipeline, max_ctrl, debug)
    return out, schedule(out, time_config)
