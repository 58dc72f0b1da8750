"""ZX-calculus based circuit synthesis for neutral-atom gate sets.

Circuits are translated to graph-like ZX-diagrams, simplified with
graph-theoretic rewrites, and extracted back over {H, Rz, CZ, CX, NCP},
where multi-controlled phase gates are recognized as complete phase-gadget
structures.  A scheduling backend lowers the result to local Rz layers,
global XY pulses and sequential NCP gates with an execution-time model.
"""

from .backend import Schedule, TimeConfig, schedule
from .circuit import Circuit, Gate, cancel_gates, to_ncz_baseline
from .diagram import ZxDiagram
from .extract import ExtractionMode, extract_circuit
from .gflow import find_gflow, verify_gflow
from .ingest import circuit_to_diagram
from .oracle import apply_circuit, circuit_unitary, diagram_tensor, equal_up_to_scalar
from .phase import Phase
from .pipeline import PIPELINES, run_pipeline, synthesize
from .qasm import parse_qasm, write_qasm
from .simplify import full_simplify

__all__ = [
    "Phase",
    "Gate",
    "Circuit",
    "ZxDiagram",
    "cancel_gates",
    "to_ncz_baseline",
    "circuit_to_diagram",
    "full_simplify",
    "find_gflow",
    "verify_gflow",
    "ExtractionMode",
    "extract_circuit",
    "schedule",
    "Schedule",
    "TimeConfig",
    "apply_circuit",
    "circuit_unitary",
    "diagram_tensor",
    "equal_up_to_scalar",
    "parse_qasm",
    "write_qasm",
    "PIPELINES",
    "synthesize",
    "run_pipeline",
]

__version__ = "0.1.0"
