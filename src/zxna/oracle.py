"""Brute-force semantic oracles.

Dense unitaries of circuits, assignment-sum evaluation of ZX-diagrams, and
projective matrix comparison.  Qubit ordering is little-endian throughout:
qubit 0 is the least significant bit of a basis index.

``apply_gate`` updates a ``(2**n, m)`` array in place through its
``(2,)*n + (m,)`` view and picks a kernel from the gate matrix's structure:
a diagonal matrix scales the sub-slices whose entry is not 1, a 0/1
permutation matrix exchanges sub-slices, a dense one-qubit matrix mixes the
two half-slices, and any other matrix is contracted over its qubit axes and
written back.  Only that last, general kernel copies the whole array; no
gate of the circuit IR reaches it.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, Gate
from .phase import Phase

__all__ = ["gate_matrix", "circuit_unitary", "diagram_tensor", "equal_up_to_scalar"]

MAX_QUBITS = 12
MAX_TENSOR_SPIDERS = 24

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

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


def _sub(bits: int, qubits: tuple[int, ...], n: int) -> tuple:
    """Index of the sub-array where gate qubit ``qubits[i]`` holds bit i of ``bits``."""
    idx = [slice(None)] * n
    for i, q in enumerate(qubits):
        idx[n - 1 - q] = (bits >> i) & 1  # axis of qubit q is n - 1 - q
    return tuple(idx)


def apply_gate(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a k-qubit gate matrix in place to a (2**n, m) array of column vectors.

    ``state`` must be a C-contiguous complex128 array; it is updated and
    returned.  ``qubits[0]`` is the gate matrix's least significant bit.
    """
    if state.dtype != np.complex128 or not state.flags.c_contiguous:
        raise ValueError("state must be a C-contiguous complex128 array")
    t = state.reshape((2,) * n + (state.shape[1],))
    k = len(qubits)
    diag = np.diagonal(mat)
    if np.count_nonzero(mat) == np.count_nonzero(diag):  # diagonal
        for j, d in enumerate(diag):
            if d != 1:
                t[_sub(j, qubits, n)] *= d
    elif (np.all((mat == 0) | (mat == 1))
          and np.all(mat.sum(axis=0) == 1) and np.all(mat.sum(axis=1) == 1)):
        # permutation: basis state j goes to dest[j]; walk each cycle once
        dest = np.argmax(mat, axis=0).tolist()
        done: set[int] = set()
        for start in range(1 << k):
            if start in done or dest[start] == start:
                continue
            cycle = [start]
            while dest[cycle[-1]] != start:
                cycle.append(dest[cycle[-1]])
            done.update(cycle)
            last = t[_sub(cycle[-1], qubits, n)].copy()
            for a, b in zip(cycle[:0:-1], cycle[-2::-1]):
                t[_sub(a, qubits, n)] = t[_sub(b, qubits, n)]
            t[_sub(start, qubits, n)] = last
    elif k == 1:
        # a 3-d view keeps each half-slice one strided block, which numpy walks faster
        t3 = state.reshape(1 << (n - 1 - qubits[0]), 2, -1)
        lo, hi = t3[:, 0], t3[:, 1]
        old_lo = lo.copy()
        lo *= mat[0, 0]
        lo += mat[0, 1] * hi
        hi *= mat[1, 1]
        old_lo *= mat[1, 0]
        hi += old_lo
    else:
        # gate's most significant bit is qubits[-1]
        v = np.moveaxis(t, [n - 1 - q for q in reversed(qubits)], range(k))
        v[...] = (mat @ v.reshape(1 << k, -1)).reshape(v.shape)
    return state


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit (final measurements ignored)."""
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"too many qubits for dense oracle: {n}")
    u = np.eye(1 << n, dtype=complex)
    for g in c.gates:
        u = apply_gate(u, gate_matrix(g), g.qubits, n)
    return u


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
    amp = np.ones(size, dtype=complex)
    for v in ids:
        p = d.phase(v)
        if not p.is_zero():
            a_v = (bits >> idx[v]) & 1
            amp = amp * np.where(a_v == 1, np.exp(1j * p.to_float()), 1.0)
    for (u, v) in d.edges():
        a_u = (bits >> idx[u]) & 1
        a_v = (bits >> idx[v]) & 1
        amp = amp * np.where((a_u & a_v) == 1, -1.0, 1.0)

    ni, no = len(d.inputs), len(d.outputs)
    out = np.zeros((1 << no, 1 << ni), dtype=complex)

    plain_in = [(i, idx[v]) for i, v in enumerate(d.inputs) if not d.input_hadamard[i]]
    had_in = [(i, idx[v]) for i, v in enumerate(d.inputs) if d.input_hadamard[i]]
    plain_out = [(i, idx[v]) for i, v in enumerate(d.outputs) if not d.output_hadamard[i]]
    had_out = [(i, idx[v]) for i, v in enumerate(d.outputs) if d.output_hadamard[i]]

    x_base = np.zeros(size, dtype=np.int64)
    for pos, b in plain_in:
        x_base |= (((bits >> b) & 1) << pos)
    y_base = np.zeros(size, dtype=np.int64)
    for pos, b in plain_out:
        y_base |= (((bits >> b) & 1) << pos)

    had = had_in + had_out
    nh = len(had)
    for combo in range(1 << nh):
        w = amp
        x = x_base
        y = y_base
        for j, (pos, b) in enumerate(had_in):
            val = (combo >> j) & 1
            if val:
                x = x | (1 << pos)
                w = w * np.where(((bits >> b) & 1) == 1, -1.0, 1.0)
        for j, (pos, b) in enumerate(had_out):
            val = (combo >> (len(had_in) + j)) & 1
            if val:
                y = y | (1 << pos)
                w = w * np.where(((bits >> b) & 1) == 1, -1.0, 1.0)
        np.add.at(out, (y, x), w)
    return out


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
