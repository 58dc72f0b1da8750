"""Brute-force semantic oracles.

Dense unitaries of circuits, assignment-sum evaluation of ZX-diagrams, and
projective matrix comparison.  Qubit ordering is little-endian throughout:
qubit 0 is the least significant bit of a basis index.

``apply_circuit`` runs a circuit over a ``(2**n, m)`` array of column
vectors, and ``circuit_unitary`` runs it over the identity.  Most gates of
the circuit IR are monomial: they map each basis state to one basis state
times a phase.  These are the diagonal gates (Z, S, Sdg, T, Tdg, Rz, CZ,
NCZ, NCP) and the permutation gates (X, Y, CX, Swap).  ``apply_circuit``
composes them into one pending operator, a row permutation and a phase
vector of length 2**n each, so such a gate costs O(2**n) and leaves the
array alone.  The pending operator is written into the array, as one row
gather and one row scale, before a gate that mixes basis states and at the
end.  The mixing gates H, Rx and Ry share one kernel: a real 2x2 matrix
acts as one product over the array's float64 view.  H and Ry are real, and
Rx(t) = Sdg Ry(t) S, so an Rx gate multiplies the S phases (1, i) into the
pending phases, applies Ry(t) and leaves the Sdg phases pending.
H stays normalized: entries under a deferred (1/sqrt 2)**h scalar would
grow as sqrt(2)**h and overflow after about 2,000 H gates.

``diagram_tensor`` adds the spider phases of each assignment into one
angle and the edge signs into one parity, and takes one ``exp``.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, Gate
from .phase import Phase

__all__ = ["gate_matrix", "apply_circuit", "circuit_unitary", "diagram_tensor", "equal_up_to_scalar"]

MAX_QUBITS = 12
MAX_TENSOR_SPIDERS = 24

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# row y of Y|psi> is Y[y, 1 - y] times the amplitude at 1 - y
_Y_PHASES = np.array([-1j, 1j])

_FIXED_1Q = {
    "H": _H,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "S": np.diag([1, 1j]).astype(complex),
    "Sdg": np.diag([1, -1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "Tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
}


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix of a gate on its own qubits (qubits[0] = least significant bit)."""
    k = g.kind
    if k in _FIXED_1Q:
        return _FIXED_1Q[k]
    if k in ("Rx", "Ry", "Rz"):
        t = g.angle.to_float()
        c, s = math.cos(t / 2), math.sin(t / 2)
        if k == "Rx":
            return np.array([[c, -1j * s], [-1j * s, c]])
        if k == "Ry":
            return np.array([[c, -s], [s, c]], dtype=complex)
        return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
    n = len(g.qubits)
    dim = 1 << n
    if k == "CX":
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            ctl, tgt = j & 1, (j >> 1) & 1
            m[(ctl | ((tgt ^ ctl) << 1)), j] = 1
        return m
    if k == "Swap":
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            m[((j & 1) << 1) | ((j >> 1) & 1), j] = 1
        return m
    if k in ("CZ", "NCZ", "NCP"):
        phi = g.angle.to_float() if k == "NCP" else math.pi
        d = np.ones(dim, dtype=complex)
        d[dim - 1] = np.exp(1j * phi)
        return np.diag(d)
    raise ValueError(f"no matrix for gate kind {k!r}")


def apply_circuit(state: np.ndarray, c: Circuit) -> np.ndarray:
    """Return ``U @ state`` for the circuit's unitary U; ``state`` is left unchanged.

    ``state`` is a ``(2**n, m)`` array of column vectors over the circuit's
    n qubits (final measurements ignored).
    """
    n = c.num_qubits
    dim = 1 << n
    if state.ndim != 2 or state.shape[0] != dim:
        raise ValueError(f"state must have shape ({dim}, m), got {state.shape}")
    u = np.array(state, dtype=np.complex128, order="C")
    bits = np.arange(dim)
    qbit = (bits >> np.arange(n)[:, None]) & 1  # qbit[q, y] is bit q of y
    # pending monomial operator: row y of its image is ph[y] * u[src[y]];
    # None stands for the identity permutation or for unit phases
    src = ph = None
    for g in c.gates:
        kind, qs = g.kind, g.qubits
        if kind in ("H", "Rx", "Ry"):
            if kind == "Rx":  # Rx(t) = Sdg Ry(t) S
                s = _FIXED_1Q["S"].diagonal()[qbit[qs[0]]]
                ph = s if ph is None else ph * s
                g = Gate("Ry", qs, g.angle)
            u = _write_pending(u, src, ph)
            src = ph = None
            # a real matrix acts on the real and imaginary parts alike
            r = u.view(np.float64).reshape(dim >> (qs[0] + 1), 2, -1)
            u = np.matmul(gate_matrix(g).real, r).reshape(dim, -1).view(np.complex128)
            if kind == "Rx":
                ph = s.conj()
            continue
        if kind in ("X", "Y", "CX", "Swap"):
            if kind == "CX":
                flip = qbit[qs[0]] << qs[1]
            elif kind == "Swap":
                flip = (qbit[qs[0]] ^ qbit[qs[1]]) * ((1 << qs[0]) | (1 << qs[1]))
            else:
                flip = 1 << qs[0]
            row = bits ^ flip
            src = row if src is None else src[row]
            if ph is not None:
                ph = ph[row]
            if kind != "Y":
                continue
            d = _Y_PHASES[qbit[qs[0]]]
        elif kind in ("CZ", "NCZ", "NCP"):
            mask = sum(1 << q for q in qs)
            e = np.exp(1j * g.angle.to_float()) if kind == "NCP" else -1.0
            d = np.where((bits & mask) == mask, e, 1.0)
        else:  # one-qubit diagonal: Z, S, Sdg, T, Tdg, Rz
            d = gate_matrix(g).diagonal()[qbit[qs[0]]]
        ph = d if ph is None else ph * d
    return _write_pending(u, src, ph)


def _write_pending(u: np.ndarray, src, ph) -> np.ndarray:
    """Rows ``ph[y] * u[src[y]]``: one row gather and one row scale, each skipped when None."""
    if src is not None:
        u = u[src]
    if ph is not None:
        u *= ph[:, None]
    return u


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit (final measurements ignored)."""
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"too many qubits for dense oracle: {n}")
    return apply_circuit(np.eye(1 << n, dtype=complex), c)


def diagram_tensor(d) -> np.ndarray:
    """Evaluate a graph-like diagram by summing over spider assignments.

    Entry ``(y, x)`` sums ``prod e^{i phase_v a_v} * prod (-1)^{a_u a_v}``
    over 0/1 assignments, with boundary values tied to ``x``/``y`` either by
    a delta (plain boundary wire) or a Hadamard factor (flagged wire).  The
    result is only defined up to a nonzero global scalar.
    """
    ids = list(d.spiders())
    k = len(ids)
    if k > MAX_TENSOR_SPIDERS:
        raise ValueError(f"too many spiders for assignment sum: {k}")
    idx = {v: i for i, v in enumerate(ids)}
    size = 1 << k
    bits = np.arange(size, dtype=np.int64)
    angle = np.zeros(size)
    odd = np.zeros(size, dtype=np.int64)  # bit 0: parity of the edges with both ends 1
    for v in ids:
        i = idx[v]
        a_v = (bits >> i) & 1
        p = d.phase(v)
        if not p.is_zero():
            angle += p.to_float() * a_v
        later = sum(1 << idx[w] for w in d.adjacent(v) if idx[w] > i)
        if later:  # a_v times the number of later neighbours set to 1
            odd ^= np.bitwise_count(bits & later) & a_v
    amp = np.exp(1j * angle)
    np.negative(amp, out=amp, where=(odd & 1).astype(bool))

    # bit ``pos`` of the entry's flat index y * 2**ni + x is boundary wire
    # ``pos``, inputs first; a plain wire copies its spider's value there
    ni, no = len(d.inputs), len(d.outputs)
    wires = zip(d.inputs + d.outputs, d.input_hadamard + d.output_hadamard)
    flat = np.zeros(size, dtype=np.int64)
    had = []
    for pos, (v, flagged) in enumerate(wires):
        if flagged:
            had.append((pos, idx[v]))
        else:
            flat |= ((bits >> idx[v]) & 1) << pos

    # a flagged wire sums its free end over 0/1, with a sign when both ends are 1
    out = np.zeros(1 << (ni + no), dtype=complex)
    for combo in range(1 << len(had)):
        chosen = [h for j, h in enumerate(had) if (combo >> j) & 1]
        neg = (np.bitwise_count(bits & sum(1 << b for _, b in chosen)) & 1).astype(bool)
        w = np.where(neg, -amp, amp)
        target = flat | sum(1 << pos for pos, _ in chosen)
        out += np.bincount(target, w.real, out.size) + 1j * np.bincount(target, w.imag, out.size)
    return out.reshape(1 << no, 1 << ni)


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff ``a == c*b`` entrywise for some nonzero complex scalar c."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    i = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[i]) == 0:
        raise ValueError("reference matrix is zero")
    c = a[i] / b[i]
    if abs(c) < tol:
        return False
    return bool(np.max(np.abs(a - c * b)) < tol * max(1.0, abs(c)))
