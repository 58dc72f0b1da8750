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
    """Resynthesize a circuit with the chosen scheme, cancellation included."""
    if pipeline == "no-decomp":
        return cancel_gates(to_ncz_baseline(c))
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    d = circuit_to_diagram(c)
    to_graph_like(d)
    full_simplify(d)
    out = extract_circuit(d, ExtractionMode(pipeline.removeprefix("zx-"), max_ctrl, debug))
    return cancel_gates(out)


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
