"""Lowering extracted circuits to the neutral-atom native schedule.

Circuits are layerized into alternating single-qubit and multi-qubit
layers, CX and Swap as H·CZ·H.  Each single-qubit layer becomes two global
XY half-pulses interleaved with local Rz layers (the transversal scheme);
NCP gates execute sequentially between them.  Execution time is a
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

from .circuit import ANGLE_KINDS, Circuit, Gate, lower_to_cz
from .oracle import gate_matrix
from .phase import Phase

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
#: Passes of ``greedy_assign`` before it stops short of a fixpoint.
REASSIGN_PASSES = 20


@dataclass(frozen=True, slots=True)
class GR:
    """Global XY-rotation exp(-i theta/2 sum_i Y_i) on all qubits."""

    theta: float


@dataclass(frozen=True, slots=True)
class RzLayer:
    """Parallel local Z-rotations, one angle per participating qubit.

    ``schedule`` may put one instance in several places, so ``angles`` is read-only.
    """

    angles: dict[int, float]


@dataclass(frozen=True, slots=True)
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
    if -3.1415 < x <= math.pi:
        return x  # remainder() is exact here and the -pi snaps below cannot fire
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


def _chain_matrix(chain: list, mats: dict) -> np.ndarray:
    """Product of a chain's gate matrices, later gates on the left.

    The product is folded one gate at a time with numpy's ``@``, whose
    rounding a hand-written 2x2 product does not reproduce bit for bit.
    ``mats`` memoizes each key's ``gate_matrix``; the caller decides its
    lifetime.
    """
    u = None
    for key in chain:
        m = mats.get(key)
        if m is None:
            kind, n, d = key
            m = mats[key] = gate_matrix(Gate(kind, (0,), Phase(n, d) if kind in ANGLE_KINDS else None))
        u = m if u is None else m @ u
    return u


def layerize(c: Circuit) -> list:
    """Alternating [1q-dict, ncp-list, 1q-dict, ...] layers of a circuit.

    Single-qubit layers map each active qubit to the Euler triple
    (beta, theta, alpha) of the product of its consecutive single-qubit
    gates, from ``zyz_angles``; multi-qubit layers hold Ncp ops in execution
    order.  CX and Swap are read as H·CZ·H from
    :func:`~zxna.circuit.lower_to_cz`.  Gates are packed as early as the
    qubit frontiers allow.  A slot is first its chain, the keys
    ``(kind, numerator, denominator)`` of its gates in execution order (0
    and 1 for no angle); the triple of each distinct chain is computed
    once per call.
    """
    layers: list = []
    nxt = [0] * c.num_qubits  # each qubit's next single-qubit layer, always even
    for g in lower_to_cz(c.gates):
        qs = g.qubits
        i = nxt[qs[0]] if len(qs) == 1 else 1 + max(nxt[q] for q in qs)
        while len(layers) <= i:
            layers.append([] if len(layers) % 2 else {})
        if len(qs) == 1:
            p = g.angle
            layers[i].setdefault(qs[0], []).append((g.kind, 0, 1) if p is None else (g.kind, p.numerator, p.denominator))
        else:
            layers[i].append(_to_ncp(g))
            for q in qs:
                nxt[q] = i + 1
    mats: dict = {}
    triples: dict = {}
    for lay in layers[::2]:
        for q, chain in lay.items():
            key = tuple(chain)
            if key not in triples:
                triples[key] = zyz_angles(_chain_matrix(chain, mats))
            lay[q] = triples[key]
    return layers


def greedy_assign(layers: list) -> list:
    """Reassign movable single-qubit slots of ``layerize``'s layers in place.

    A slot's triple may move to an empty slot of another single-qubit layer
    if no multi-qubit gate (and no other gate of its qubit) lies in between.
    A move is taken only when it strictly decreases the summed theta_max, so
    the total is monotonically non-increasing and the circuit unitary is
    unchanged.
    """
    # qubits of each multi-qubit layer; moves touch only the single-qubit layers
    busy = [None if i % 2 == 0 else {q for op in lay for q in op.qubits}
            for i, lay in enumerate(layers)]
    # theta_max of each single-qubit layer, kept up to date across moves
    tmax = [None if i % 2 else max((t for _, t, _ in lay.values()), default=0.0)
            for i, lay in enumerate(layers)]
    for _ in range(REASSIGN_PASSES):
        moved = False
        for i in range(0, len(layers), 2):
            lay = layers[i]
            for q in sorted(lay):
                tq = lay[q][1]
                if tq < tmax[i]:
                    continue  # not the critical gate of its layer
                others = 0.0
                for p, e in lay.items():
                    if p != q and e[1] > others:
                        others = e[1]
                        if others >= tq:
                            break
                if tq <= others + _EPS:
                    continue  # shares the layer's largest theta
                best_j, best_delta = None, -_EPS
                for step in (-2, 2):
                    j = i + step
                    # stop at the odd layer crossed if q is busy there, or at q's own next slot
                    while 0 <= j < len(layers) and q not in busy[j - step // 2] and q not in layers[j]:
                        tj = tmax[j]
                        delta = (others - tq) + (max(tj, tq) - tj)
                        if delta < best_delta:
                            best_j, best_delta = j, delta
                        j += step
                if best_j is not None:
                    layers[best_j][q] = lay.pop(q)
                    tmax[i], tmax[best_j] = others, max(tmax[best_j], tq)
                    moved = True
        if not moved:
            break
    return layers


def _decompose(eulers: dict, num_qubits: int, mids: dict, corrs: dict) -> list[NativeOp]:
    """Core of ``transversal_decompose``, with its memos passed in.

    ``mids`` memoizes the outer Euler angles (nu, mu) of each middle pulse
    Ry(half) Rz(b) Ry(half) on (half, b), and ``corrs`` each qubit's
    corrections on (half, triple); the caller decides their lifetime.
    """
    tmax = max((t for _, t, _ in eulers.values()), default=0.0)
    if tmax < 1e-12:
        angles = {}
        for q, (beta, _, alpha) in eulers.items():
            a = _norm_angle(alpha + beta)
            if abs(a) > _EPS:
                angles[q] = a
        return [RzLayer(angles)] if angles else []
    half = tmax / 2.0
    sin_half = math.sin(half)

    def corrections(triple: tuple[float, float, float]) -> tuple[float, float, float]:
        got = corrs.get((half, triple))
        if got is None:
            beta, theta, alpha = triple
            ratio = math.sin(theta / 2.0) / sin_half
            b = 2.0 * math.acos(min(1.0, max(0.0, ratio)))
            if (half, b) not in mids:
                nu, _, mu = zyz_angles(_ry(half) @ _rz(b) @ _ry(half))
                mids[half, b] = nu, mu
            nu, mu = mids[half, b]
            got = corrs[half, triple] = _norm_angle(beta - nu), b, _norm_angle(alpha - mu)
        return got

    idle = corrections((0.0, 0.0, 0.0)) if len(eulers) < num_qubits else None  # b = pi
    pre: dict[int, float] = {}
    mid: dict[int, float] = {}
    post: dict[int, float] = {}
    for q in range(num_qubits):
        a, b, cc = corrections(eulers[q]) if q in eulers else idle
        if abs(a) > _EPS:
            pre[q] = a
        if abs(b) > _EPS:
            mid[q] = b
        if abs(cc) > _EPS:
            post[q] = cc
    ops: list[NativeOp] = []
    if pre:
        ops.append(RzLayer(pre))
    gr = GR(half)  # both half-pulses
    ops.append(gr)
    if mid:
        ops.append(RzLayer(mid))
    ops.append(gr)
    if post:
        ops.append(RzLayer(post))
    return ops


def transversal_decompose(layer: dict, num_qubits: int) -> list[NativeOp]:
    """Two global half-pulses with local Z-corrections realizing a 1q layer.

    ``layer`` maps qubits in ``range(num_qubits)`` to Euler triples
    (beta, theta, alpha), as ``layerize`` gives them.  With the layer
    maximum theta_max, each qubit gets Rz(c) GR(theta_max/2) Rz(b)
    GR(theta_max/2) Rz(a) where sin(theta/2) = sin(theta_max/2) cos(b/2);
    qubits without a gate take b = pi so the two half-pulses cancel.  If
    theta_max is zero the layer collapses to a single Rz layer.
    """
    if not all(q in range(num_qubits) for q in layer):
        raise ValueError(f"layer qubits {list(layer)} lie outside range({num_qubits})")
    return _decompose(layer, num_qubits, {}, {})


def execution_time(ops, config: TimeConfig = TimeConfig()) -> float:
    """Linear-in-angle time model; Rz layers parallel, NCP gates sequential."""
    t = 0.0
    for op in ops:
        kind = type(op)
        if kind is RzLayer:
            if op.angles:
                t += max(map(abs, op.angles.values())) / math.pi * config.rz
        elif kind is GR:
            t += abs(op.theta) / math.pi * config.gr
        else:
            scale = config.cp if len(op.qubits) == 2 else config.ncp
            t += abs(op.phi) / math.pi * scale
    return t


def schedule(c: Circuit, config: TimeConfig = TimeConfig()) -> Schedule:
    """Full lowering: layerize, reassign, decompose, and time the circuit.

    ``greedy_assign(layerize(c))``, then ``transversal_decompose`` of each
    single-qubit layer, with middle-pulse angles, corrections and the ops of
    each distinct layer memoized for this one call: a layer is decomposed
    once, and its repeats extend ``ops`` with the same op objects.
    """
    layers = greedy_assign(layerize(c))
    mids: dict = {}
    corrs: dict = {}
    done: dict = {}  # content of a single-qubit layer -> its ops
    ops: list[NativeOp] = []
    for i, lay in enumerate(layers):
        if i % 2 == 0:
            key = frozenset(lay.items())
            if key not in done:
                done[key] = _decompose(lay, c.num_qubits, mids, corrs)
            lay = done[key]
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
