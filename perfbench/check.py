"""Output checks: dense unitaries, a statevector probe and the native schedule.

Up to ``DENSE_MAX_QUBITS`` qubits the synthesized circuit's unitary from
``zxna.oracle`` must equal the input's up to a scalar at 1e-8.  Wider
circuits go through the probe below, which belongs to the benchmark: a few
random product states are run through the input and the output circuit,
and the results must agree up to one global phase shared by all probes.
On request the native schedule (GR pulses, Rz layers, NCP gates) goes
through the same probe states; its dense unitary would cost more than
compiling the workload.

Qubit q is bit q of a basis index, as in ``zxna.oracle``.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from zxna import Circuit, circuit_unitary, equal_up_to_scalar
from zxna.backend import GR, Ncp, RzLayer

__all__ = ["DENSE_MAX_QUBITS", "PROBE_MAX_QUBITS", "verify_job"]

DENSE_MAX_QUBITS = 10
PROBE_MAX_QUBITS = 24
PROBES = 2
TOL = 1e-8

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
# diagonal single-qubit gates as the phase on |1>, global phase dropped
_PHASE_1Q = {"Z": math.pi, "S": math.pi / 2, "Sdg": -math.pi / 2, "T": math.pi / 4, "Tdg": -math.pi / 4}


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


class _State:
    """Columns of amplitudes over n qubits, updated in place."""

    def __init__(self, amps: np.ndarray, n: int):
        self.n = n
        self.amps = amps
        self.view = amps.reshape((2,) * n + (-1,))

    def _at(self, bits: dict[int, int]) -> tuple:
        idx = [slice(None)] * (self.n + 1)
        for q, b in bits.items():
            idx[self.n - 1 - q] = b
        return tuple(idx)

    def matrix(self, q: int, m: np.ndarray) -> None:
        i0, i1 = self._at({q: 0}), self._at({q: 1})
        a, b = self.view[i0], self.view[i1]
        a2 = m[0, 0] * a + m[0, 1] * b
        self.view[i1] = m[1, 0] * a + m[1, 1] * b
        self.view[i0] = a2

    def phase(self, qubits, phi: float) -> None:
        self.view[self._at({q: 1 for q in qubits})] *= cmath.exp(1j * phi)

    def exchange(self, bits_a: dict[int, int], bits_b: dict[int, int]) -> None:
        ia, ib = self._at(bits_a), self._at(bits_b)
        tmp = self.view[ia].copy()
        self.view[ia] = self.view[ib]
        self.view[ib] = tmp

    def gate(self, kind: str, qubits: tuple[int, ...], angle: float) -> None:
        if kind in _PHASE_1Q:
            self.phase(qubits, _PHASE_1Q[kind])
        elif kind == "Rz":
            self.phase(qubits, angle)
        elif kind in ("H", "X", "Y", "Rx", "Ry"):
            m = {"H": _H, "X": _X, "Y": _Y}.get(kind)
            if m is None:
                m = _rx(angle) if kind == "Rx" else _ry(angle)
            self.matrix(qubits[0], m)
        elif kind in ("CZ", "NCZ"):
            self.phase(qubits, math.pi)
        elif kind == "NCP":
            self.phase(qubits, angle)
        elif kind == "CX":
            c, t = qubits
            self.exchange({c: 1, t: 0}, {c: 1, t: 1})
        elif kind == "Swap":
            a, b = qubits
            self.exchange({a: 1, b: 0}, {a: 0, b: 1})
        else:
            raise ValueError(f"probe has no rule for gate kind {kind!r}")

    def run(self, c: Circuit) -> np.ndarray:
        for g in c.gates:
            self.gate(g.kind, g.qubits, g.angle.to_float() if g.angle is not None else 0.0)
        return self.amps

    def run_native(self, ops) -> np.ndarray:
        """Apply a native schedule: GR pulses, Rz layers and NCP gates."""
        for op in ops:
            if isinstance(op, GR):
                m = _ry(op.theta)
                for q in range(self.n):
                    self.matrix(q, m)
            elif isinstance(op, RzLayer):
                for q, a in op.angles.items():  # Rz(a) up to a global phase
                    self.phase((q,), a)
            elif isinstance(op, Ncp):
                self.phase(op.qubits, op.phi)
            else:
                raise TypeError(f"unknown native op {op!r}")
        return self.amps


def _product_states(n: int, k: int, rng: random.Random) -> np.ndarray:
    """k random product states as the columns of a (2**n, k) array."""
    cols = []
    for _ in range(k):
        v = np.ones(1, dtype=complex)
        for _ in range(n):  # qubit 0 ends up least significant
            a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            v = np.kron(np.array([a, b]) / norm, v)
        cols.append(v)
    return np.stack(cols, axis=1)


def _same_up_to_phase(got: np.ndarray, ref: np.ndarray) -> bool:
    c = np.vdot(ref, got) / np.vdot(ref, ref)
    return bool(abs(abs(c) - 1.0) < TOL and np.max(np.abs(got - c * ref)) < TOL)


def verify_job(c: Circuit, out: Circuit, sched, native: bool, refs: dict, key: str) -> tuple[str, bool]:
    """Check one job's output; returns (method, passed).

    ``refs`` keeps, per input circuit ``key``, its dense unitary and its
    image of the probe states, for reuse across pipelines.  With ``native``
    the schedule's ops also go through the probe.
    """
    n = c.num_qubits
    if n > PROBE_MAX_QUBITS or out.num_qubits != n:
        return "unchecked", False
    if key not in refs:
        psi = _product_states(n, PROBES, random.Random(n))
        dense = circuit_unitary(c) if n <= DENSE_MAX_QUBITS else None
        refs[key] = (dense, psi, _State(psi.copy(), n).run(c))
    dense, psi, ref = refs[key]
    if dense is not None:
        method, ok = "dense", equal_up_to_scalar(circuit_unitary(out), dense, tol=TOL)
    else:
        method, ok = "probe", _same_up_to_phase(_State(psi.copy(), n).run(out), ref)
    if native:
        method += "+native-probe"
        ok = ok and _same_up_to_phase(_State(psi.copy(), n).run_native(sched.ops), ref)
    return method, ok
