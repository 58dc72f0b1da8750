"""Lowering extracted circuits to the neutral-atom native schedule.

Circuits over {H, Rz, CZ, CX, NCP} are layerized into alternating
single-qubit and multi-qubit layers.  Each single-qubit layer becomes two
global XY half-pulses interleaved with local Rz layers (the transversal
scheme); NCP gates execute sequentially between them.  Execution time is a
linear-in-angle model: local Rz and two-qubit controlled phases at 100ns
full scale, larger controlled phases at 400ns, global pulses at 100us.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .circuit import Circuit, Gate
from .oracle import gate_matrix

__all__ = [
    "GR",
    "RzLayer",
    "Ncp",
    "NativeOp",
    "Schedule",
    "TimeConfig",
    "zyz_angles",
    "layerize",
    "greedy_assign",
    "transversal_decompose",
    "execution_time",
    "schedule",
    "schedule_counts",
]

_EPS = 1e-12


@dataclass(frozen=True)
class GR:
    """Global XY-rotation exp(-i theta/2 sum_i Y_i) on all qubits."""

    theta: float


@dataclass(frozen=True)
class RzLayer:
    """Parallel local Z-rotations, one angle per participating qubit."""

    angles: dict[int, float]


@dataclass(frozen=True)
class Ncp:
    """Multi-controlled phase diag(1, ..., 1, e^{i phi}) on a qubit set."""

    qubits: tuple[int, ...]
    phi: float


NativeOp = Union[GR, RzLayer, Ncp]


@dataclass(frozen=True)
class TimeConfig:
    """Full-scale (angle pi) gate durations in seconds."""

    rz: float = 100e-9
    gr: float = 100e-6
    cp: float = 100e-9
    ncp: float = 400e-9


@dataclass(frozen=True)
class Schedule:
    ops: tuple[NativeOp, ...]
    total_time: float

    def to_json(self) -> str:
        items = []
        for op in self.ops:
            if isinstance(op, GR):
                items.append({"type": "gr", "theta": op.theta})
            elif isinstance(op, RzLayer):
                items.append({"type": "rz", "angles": {str(q): a for q, a in sorted(op.angles.items())}})
            else:
                items.append({"type": "ncp", "qubits": list(op.qubits), "phi": op.phi})
        return json.dumps({"ops": items, "total_time": self.total_time})


def _norm_angle(x: float) -> float:
    """Wrap into (-pi, pi]."""
    y = math.remainder(x, 2 * math.pi)
    if y <= -math.pi + _EPS / 2 and not math.isclose(y, math.pi):
        y += 2 * math.pi
    if math.isclose(y, -math.pi, abs_tol=1e-15):
        y = math.pi
    return y


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (beta, theta, alpha) with u ~ Rz(alpha) Ry(theta) Rz(beta).

    theta lies in [0, pi]; at the branch points theta = 0 or pi the beta
    angle is fixed to 0.  The decomposition holds up to a global phase.
    """
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / cmath.sqrt(det)
    theta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if theta < 1e-12:
        return 0.0, 0.0, _norm_angle(2.0 * cmath.phase(su[1, 1]))
    if theta > math.pi - 1e-12:
        return 0.0, math.pi, _norm_angle(2.0 * cmath.phase(su[1, 0]))
    s = -2.0 * cmath.phase(su[0, 0])
    d = 2.0 * cmath.phase(su[1, 0])
    return _norm_angle((s - d) / 2.0), theta, _norm_angle((s + d) / 2.0)


def _rz(a: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * a), cmath.exp(0.5j * a)])


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _to_ncp(g: Gate) -> Ncp:
    if g.kind == "NCP":
        return Ncp(g.qubits, g.angle.to_float())
    return Ncp(g.qubits, math.pi)  # CZ / NCZ


def layerize(c: Circuit) -> list:
    """Alternating [1q-dict, ncp-list, 1q-dict, ...] layers of a circuit.

    Single-qubit layers map each active qubit to the 2x2 product of its
    consecutive single-qubit gates; multi-qubit layers hold Ncp ops in
    execution order.  Gates are packed as early as the qubit frontiers
    allow.
    """
    layers: list = [dict()]
    avail = [0] * c.num_qubits

    def layer_at(i):
        while len(layers) <= i:
            layers.append([] if len(layers) % 2 == 1 else dict())
        return layers[i]

    def put_1q(q: int, mat: np.ndarray) -> None:
        i = avail[q] if avail[q] % 2 == 0 else avail[q] + 1
        lay = layer_at(i)
        lay[q] = mat @ lay[q] if q in lay else mat
        avail[q] = i

    def put_mq(op: Ncp) -> None:
        i = max(a if a % 2 == 1 else a + 1 for a in (avail[q] for q in op.qubits))
        layer_at(i).append(op)
        for q in op.qubits:
            avail[q] = i + 1

    for g in c.gates:
        if g.kind == "CX":
            ctl, tgt = g.qubits
            put_1q(tgt, gate_matrix(Gate("H", (0,))))
            put_mq(Ncp((ctl, tgt), math.pi))
            put_1q(tgt, gate_matrix(Gate("H", (0,))))
        elif g.kind == "Swap":
            for a, b in ((g.qubits), (g.qubits[::-1]), (g.qubits)):
                h = gate_matrix(Gate("H", (0,)))
                put_1q(b, h)
                put_mq(Ncp((a, b), math.pi))
                put_1q(b, h)
        elif g.kind in ("CZ", "NCZ", "NCP"):
            put_mq(_to_ncp(g))
        elif len(g.qubits) == 1:
            put_1q(g.qubits[0], gate_matrix(g))
        else:
            raise ValueError(f"cannot layerize gate kind {g.kind!r}")

    while layers and not layers[-1]:
        layers.pop()
    return layers


def greedy_assign(layers: list, max_passes: int = 20) -> list:
    """Reassign movable single-qubit unitaries to cheaper layers in place.

    A unitary may move to an empty slot of another single-qubit layer if no
    multi-qubit gate (and no other gate of its qubit) lies in between.  A
    move is taken only when it strictly decreases the summed theta_max, so
    the total is monotonically non-increasing and the circuit unitary is
    unchanged.
    """
    # Euler theta of each unitary, computed once; it moves with its unitary
    thetas = [{q: zyz_angles(u)[1] for q, u in lay.items()} if i % 2 == 0 else None
              for i, lay in enumerate(layers)]
    for _ in range(max_passes):
        moved = False
        for i in range(0, len(layers), 2):
            for q in sorted(layers[i]):
                tq = thetas[i][q]
                others = max((t for p, t in thetas[i].items() if p != q), default=0.0)
                if tq <= others + _EPS:
                    continue  # not the critical gate of its layer
                best_j, best_delta = None, -_EPS
                for step in (-2, 2):
                    j = i + step
                    while 0 <= j < len(layers):
                        mid = layers[j - step // 2]  # the odd layer crossed
                        if any(q in op.qubits for op in mid):
                            break
                        if q not in layers[j]:
                            tj = max(thetas[j].values(), default=0.0)
                            delta = (others - tq) + (max(tj, tq) - tj)
                            if delta < best_delta:
                                best_j, best_delta = j, delta
                        else:
                            break
                        j += step
                if best_j is not None:
                    layers[best_j][q] = layers[i].pop(q)
                    thetas[best_j][q] = thetas[i].pop(q)
                    moved = True
        if not moved:
            break
    return layers


def transversal_decompose(layer: dict, num_qubits: int) -> list[NativeOp]:
    """Two global half-pulses with local Z-corrections realizing a 1q layer.

    With per-qubit Euler angles (beta, theta, alpha) and the layer maximum
    theta_max, each qubit gets Rz(c) GR(theta_max/2) Rz(b) GR(theta_max/2)
    Rz(a) where sin(theta/2) = sin(theta_max/2) cos(b/2); qubits without a
    gate take b = pi so the two half-pulses cancel.  If theta_max is zero
    the layer collapses to a single Rz layer.
    """
    eulers = {q: zyz_angles(u) for q, u in layer.items()}
    tmax = max((t for _, t, _ in eulers.values()), default=0.0)
    if tmax < 1e-12:
        angles = {}
        for q, (beta, _, alpha) in eulers.items():
            a = _norm_angle(alpha + beta)
            if abs(a) > _EPS:
                angles[q] = a
        return [RzLayer(angles)] if angles else []
    half = tmax / 2.0
    pre: dict[int, float] = {}
    mid: dict[int, float] = {}
    post: dict[int, float] = {}
    mid_eulers: dict[float, tuple] = {}  # per distinct b; every idle qubit has b = pi
    for q in range(num_qubits):
        beta, theta, alpha = eulers.get(q, (0.0, 0.0, 0.0))
        ratio = math.sin(theta / 2.0) / math.sin(half)
        b = 2.0 * math.acos(min(1.0, max(0.0, ratio)))
        if b not in mid_eulers:
            mid_eulers[b] = zyz_angles(_ry(half) @ _rz(b) @ _ry(half))
        nu, _, mu = mid_eulers[b]
        a = _norm_angle(beta - nu)
        cc = _norm_angle(alpha - mu)
        if abs(a) > _EPS:
            pre[q] = a
        if abs(b) > _EPS:
            mid[q] = _norm_angle(b)
        if abs(cc) > _EPS:
            post[q] = cc
    ops: list[NativeOp] = []
    if pre:
        ops.append(RzLayer(pre))
    ops.append(GR(half))
    if mid:
        ops.append(RzLayer(mid))
    ops.append(GR(half))
    if post:
        ops.append(RzLayer(post))
    return ops


def execution_time(ops, config: TimeConfig = TimeConfig()) -> float:
    """Linear-in-angle time model; Rz layers parallel, NCP gates sequential."""
    t = 0.0
    for op in ops:
        if isinstance(op, RzLayer):
            if op.angles:
                t += max(abs(a) for a in op.angles.values()) / math.pi * config.rz
        elif isinstance(op, GR):
            t += abs(op.theta) / math.pi * config.gr
        else:
            scale = config.cp if len(op.qubits) == 2 else config.ncp
            t += abs(op.phi) / math.pi * scale
    return t


def schedule(c: Circuit, config: TimeConfig = TimeConfig()) -> Schedule:
    """Full lowering: layerize, reassign, decompose, and time the circuit."""
    layers = greedy_assign(layerize(c))
    ops: list[NativeOp] = []
    for i, lay in enumerate(layers):
        if i % 2 == 0:
            ops.extend(transversal_decompose(lay, c.num_qubits))
        else:
            ops.extend(lay)
    return Schedule(tuple(ops), execution_time(ops, config))


def schedule_counts(ops) -> dict:
    """Report metrics: pulse/layer counts and the NCP size histogram."""
    gr_pulses = sum(1 for op in ops if isinstance(op, GR))
    rz_layers = sum(1 for op in ops if isinstance(op, RzLayer))
    ncp: dict[int, int] = {}
    for op in ops:
        if isinstance(op, Ncp):
            ncp[len(op.qubits)] = ncp.get(len(op.qubits), 0) + 1
    return {
        "gr_pulses": gr_pulses,
        "gr_layers": gr_pulses // 2,
        "rz_layers": rz_layers,
        "ncp": dict(sorted(ncp.items())),
    }
