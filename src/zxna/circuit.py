"""Gate-list circuit representation and basic circuit-level passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .phase import Phase

__all__ = ["Gate", "Circuit", "cancel_gates", "lower_to_cz", "to_ncz_baseline"]

#: Gate kinds without a parameter.
FIXED_KINDS = {"H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg", "CX", "CZ", "Swap"}
#: Gate kinds carrying a Phase angle.
ANGLE_KINDS = {"Rx", "Ry", "Rz", "NCP"}

SINGLE_QUBIT_KINDS = {"H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg", "Rx", "Ry", "Rz"}

SELF_INVERSE_KINDS = {"H", "X", "Y", "Z", "CX", "CZ", "Swap"}

#: Diagonal-in-Z gates that merge by angle addition (kind -> implied Rz angle).
PHASE_GATE_ANGLES = {
    "Z": Phase(1),
    "S": Phase(1, 2),
    "Sdg": Phase(-1, 2),
    "T": Phase(1, 4),
    "Tdg": Phase(-1, 4),
}

@dataclass(frozen=True, slots=True)
class Gate:
    """A single gate: a kind, an ordered qubit tuple and an optional angle.

    ``NCP(qubits, phi)`` is the fully symmetric multi-controlled phase gate
    ``diag(1, ..., 1, e^{i*phi})`` on its qubit set, and the only
    multi-controlled Z: C^kZ is ``NCP`` at ``phi = pi``.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: Optional[Phase] = None

    def __post_init__(self):
        if self.kind in ANGLE_KINDS:
            if type(self.angle) is not Phase:
                raise ValueError(f"{self.kind} requires a Phase angle, got {self.angle!r}")
        elif self.kind in FIXED_KINDS:
            if self.angle is not None:
                raise ValueError(f"{self.kind} takes no angle")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if type(self.qubits) is not tuple:
            raise ValueError(f"{self.kind} qubits {self.qubits!r} are not a tuple")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.kind}{self.qubits}")
        n = len(self.qubits)
        if self.kind in SINGLE_QUBIT_KINDS and n != 1:
            raise ValueError(f"{self.kind} acts on one qubit")
        if self.kind in ("CX", "CZ", "Swap") and n != 2:
            raise ValueError(f"{self.kind} acts on two qubits")
        if self.kind == "NCP" and n < 2:
            raise ValueError(f"{self.kind} needs at least two qubits")

    def __repr__(self) -> str:
        if self.angle is not None:
            return f"{self.kind}({self.angle}){list(self.qubits)}"
        return f"{self.kind}{list(self.qubits)}"


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``num_qubits`` qubits.

    Immutable; passes return new circuits.  ``measurements`` records final
    measurements stripped at parse time as ``(qubit, classical bit)`` pairs.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    measurements: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    def __post_init__(self):
        n = self.num_qubits
        if type(n) is not int:
            raise ValueError(f"circuit size {n!r} is not an int")
        if n < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        qs = [q for g in self.gates for q in g.qubits]
        if not {*map(type, qs)} <= {int}:
            bad = next(g for g in self.gates if any(type(q) is not int for q in g.qubits))
            raise ValueError(f"gate {bad} has a qubit that is not an int")
        if qs and not 0 <= min(qs) <= max(qs) < n:
            bad = next(g for g in self.gates if not all(0 <= q < n for q in g.qubits))
            raise ValueError(f"gate {bad} out of range for {n} qubits")
        object.__setattr__(self, "measurements", tuple(self.measurements))
        for m in self.measurements:
            if type(m) is not tuple or [*map(type, m)] != [int, int] or not (0 <= m[0] < n and m[1] >= 0):
                raise ValueError(f"measurement {m!r} is not a (qubit, bit) pair of ints for {n} qubits")

    def with_gates(self, gates: Iterable[Gate]) -> "Circuit":
        return Circuit(self.num_qubits, tuple(gates), self.measurements)

    def __len__(self) -> int:
        return len(self.gates)


def _qubit_key(g: Gate):
    """Qubit identity used for cancellation matching.

    NCP is symmetric so its qubit order is irrelevant; CX is not.
    """
    if g.kind in ("NCP", "CZ", "Swap"):
        return (g.kind, frozenset(g.qubits))
    return (g.kind, g.qubits)


def _as_phase_gate(g: Gate) -> Optional[Phase]:
    """Rz-equivalent angle of a single-qubit diagonal gate, else None."""
    if g.kind == "Rz":
        return g.angle
    return PHASE_GATE_ANGLES.get(g.kind)


def _merge(a: Gate, b: Gate) -> Optional[list[Gate]]:
    """Try to merge adjacent gates a, b on the same qubits.

    Returns the replacement list (possibly empty) or None if not mergeable.
    """
    if _qubit_key(a) == _qubit_key(b) and a.kind in SELF_INVERSE_KINDS:
        return []
    pa, pb = _as_phase_gate(a), _as_phase_gate(b)
    if pa is not None and pb is not None and a.qubits == b.qubits:
        s = pa + pb
        return [] if s.is_zero() else [Gate("Rz", a.qubits, s)]
    if a.kind in ANGLE_KINDS and _qubit_key(a) == _qubit_key(b):
        s = a.angle + b.angle
        return [] if s.is_zero() else [Gate(a.kind, a.qubits, s)]
    return None


def cancel_gates(c: Circuit) -> Circuit:
    """Basic peephole cancellation.

    Removes adjacent self-inverse pairs, merges adjacent phase gates (and
    Rx, Ry or NCP gates of one kind on one qubit set) by adding angles,
    commuting candidates past gates on disjoint qubits, and drops angle
    gates whose angle is zero.  One pass reaches the fixpoint: a gate is
    removed or replaced only on top of its qubits' stacks, so nothing under
    a kept gate changes later, and a replacement merges only where the gate
    it replaces could (phase gates become ``Rz``, the others keep their
    kind).
    """
    out: list[Optional[Gate]] = []  # None marks a gate removed by a merge
    # indices into out of each qubit's gates, latest on top
    stacks: list[list[int]] = [[] for _ in range(c.num_qubits)]
    for g in c.gates:
        # out[i] is the nearest earlier gate sharing a qubit, on top of
        # `shared` of g's stacks; gates on disjoint qubits commute past
        i = shared = -1
        for q in g.qubits:
            s = stacks[q]
            if s and s[-1] > i:
                i, shared = s[-1], 1
            elif s and s[-1] == i:
                shared += 1
        # a merge needs equal qubit sets, so out[i] must top each of g's stacks
        if shared == len(g.qubits) == len(out[i].qubits):
            repl = _merge(out[i], g)
            if repl is not None:
                if repl:
                    out[i] = repl[0]
                else:
                    out[i] = None
                    for q in g.qubits:
                        stacks[q].pop()
                continue
        if g.kind in ANGLE_KINDS and g.angle.is_zero():
            continue
        for q in g.qubits:
            stacks[q].append(len(out))
        out.append(g)
    return c.with_gates(g for g in out if g is not None)


def lower_to_cz(gates: Iterable[Gate]) -> Iterator[Gate]:
    """The gates with each CX as ``H(tgt), CZ(ctl, tgt), H(tgt)``, one ``H``
    object in both places, and each ``Swap(a, b)`` as the lowering of
    ``CX(a, b), CX(b, a), CX(a, b)``.  Every other gate passes through.
    """
    triples: dict[tuple[int, int], tuple[Gate, Gate, Gate]] = {}  # each (ctl, tgt) built once
    for g in gates:
        if g.kind not in ("CX", "Swap"):
            yield g
            continue
        a, b = g.qubits
        for ctl, tgt in [(a, b)] if g.kind == "CX" else [(a, b), (b, a), (a, b)]:
            if (ctl, tgt) not in triples:
                h = Gate("H", (tgt,))
                triples[ctl, tgt] = h, Gate("CZ", (ctl, tgt)), h
            yield from triples[ctl, tgt]


def to_ncz_baseline(c: Circuit) -> Circuit:
    """Rewrite all controlled gates as multi-controlled phases.

    CX and Swap go through :func:`lower_to_cz`, and each CZ becomes
    ``NCP(pi)`` on its two qubits.  The result contains only single-qubit
    gates and NCP gates.
    """
    return c.with_gates(Gate("NCP", g.qubits, Phase(1)) if g.kind == "CZ" else g for g in lower_to_cz(c.gates))
