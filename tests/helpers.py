"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from zxna import Circuit, Gate, Phase, ZxDiagram
from zxna.circuit import _merge
from zxna.backend import GR, Ncp, RzLayer
from zxna.gflow import LabeledOpenGraph, odd_neighborhood

#: gate alphabet of the round-trip corpus
CORPUS_KINDS = ("H", "S", "T", "Rz", "Rx", "CX", "CZ", "CCZ", "CP")


def rand_corpus_circuit(seed: int, max_qubits: int = 8, max_gates: int = 60) -> Circuit:
    """Seeded random circuit over {H, S, T, Rz, Rx, CX, CZ, CCZ, CP}."""
    rng = random.Random(seed)
    n = rng.randint(2, max_qubits)
    ng = rng.randint(5, max_gates)
    gates = []
    for _ in range(ng):
        k = rng.choice(CORPUS_KINDS)
        if k in ("H", "S", "T"):
            gates.append(Gate(k, (rng.randrange(n),)))
        elif k in ("Rz", "Rx"):
            p = Phase(rng.randint(-7, 8), rng.choice([1, 2, 4, 8]))
            gates.append(Gate(k, (rng.randrange(n),), p))
        elif k in ("CX", "CZ"):
            gates.append(Gate(k, tuple(rng.sample(range(n), 2))))
        elif k == "CCZ":
            if n < 3:
                continue
            gates.append(Gate("NCP", tuple(rng.sample(range(n), 3)), Phase(1)))
        else:  # CP
            p = Phase(rng.randint(-7, 8), rng.choice([2, 4, 8]))
            gates.append(Gate("NCP", tuple(rng.sample(range(n), 2)), p))
    return Circuit(n, tuple(gates))


RICH_KINDS = ("H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg", "Rx", "Ry", "Rz",
              "CX", "CZ", "Swap", "NCZ", "NCP")


def rand_rich_circuit(seed: int, max_qubits: int = 6, max_gates: int = 30) -> Circuit:
    """Random circuit over the full IR gate alphabet, NCP arity up to 4."""
    rng = random.Random(seed)
    n = rng.randint(2, max_qubits)
    ng = rng.randint(1, max_gates)
    gates = []
    for _ in range(ng):
        k = rng.choice(RICH_KINDS)
        if k in ("CX", "CZ", "Swap"):
            gates.append(Gate(k, tuple(rng.sample(range(n), 2))))
        elif k in ("NCZ", "NCP"):
            m = rng.randint(2, min(4, n))
            qs = tuple(rng.sample(range(n), m))
            if k == "NCZ":  # NCP(pi), drawn as its own kind
                gates.append(Gate("NCP", qs, Phase(1)))
            else:
                gates.append(Gate("NCP", qs, Phase(rng.randint(-7, 8), rng.choice([1, 2, 4, 8]))))
        elif k in ("Rx", "Ry", "Rz"):
            gates.append(Gate(k, (rng.randrange(n),), Phase(rng.randint(-7, 8), rng.choice([1, 2, 4, 8]))))
        else:
            gates.append(Gate(k, (rng.randrange(n),)))
    return Circuit(n, tuple(gates))


def qft_circuit(n: int, swaps: bool = True) -> Circuit:
    """n-qubit quantum Fourier transform over {H, NCP, Swap}."""
    gates = []
    for i in range(n - 1, -1, -1):
        gates.append(Gate("H", (i,)))
        for j in range(i - 1, -1, -1):
            gates.append(Gate("NCP", (j, i), Phase(1, 1 << (i - j))))
    if swaps:
        for i in range(n // 2):
            gates.append(Gate("Swap", (i, n - 1 - i)))
    return Circuit(n, tuple(gates))


def dft_matrix(n: int) -> np.ndarray:
    size = 1 << n
    w = cmath.exp(2j * math.pi / size)
    return np.array([[w ** (j * k) for k in range(size)] for j in range(size)]) / math.sqrt(size)


def ry_matrix(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(a: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * a), cmath.exp(0.5j * a)])


def basis_operator(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Full 2**n operator of a gate, built column by column from its basis action.

    Basis state x maps to sum_r mat[r, c] |x with the gate qubits set to r>,
    where c reads gate qubit qubits[i] as bit i.
    """
    k = len(qubits)
    mask = sum(1 << q for q in qubits)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for x in range(1 << n):
        c = sum(((x >> q) & 1) << i for i, q in enumerate(qubits))
        for r in range(1 << k):
            y = (x & ~mask) | sum(((r >> i) & 1) << q for i, q in enumerate(qubits))
            full[y, x] += mat[r, c]
    return full


def native_unitary(ops, n: int) -> np.ndarray:
    """Dense unitary of a native-op sequence (GR / RzLayer / Ncp).

    Rz layers and NCP gates are diagonal, so they are collected in one phase
    vector that scales the rows before the next GR pulse and at the end.  A
    pulse applies Ry(theta) to every qubit, two qubits per product with the
    real 4x4 matrix Ry (x) Ry (the factors are equal, so their order does
    not matter), acting on the real and imaginary parts alike.
    """
    u = np.eye(1 << n, dtype=complex)
    bits = np.arange(1 << n)
    diag = np.ones(1 << n, dtype=complex)
    for op in ops:
        if isinstance(op, GR):
            u *= diag[:, None]
            diag[:] = 1
            ry = ry_matrix(op.theta).real
            ry2 = np.kron(ry, ry)
            r = u.view(np.float64)
            for q in range(0, n, 2):
                k = min(2, n - q)
                r = np.matmul(ry2 if k == 2 else ry, r.reshape(1 << (n - q - k), 1 << k, -1))
            u = r.reshape(1 << n, -1).view(np.complex128)
        elif isinstance(op, RzLayer):
            for q, a in op.angles.items():
                diag *= np.where((bits >> q) & 1, cmath.exp(0.5j * a), cmath.exp(-0.5j * a))
        elif isinstance(op, Ncp):
            mask = sum(1 << q for q in op.qubits)
            diag[(bits & mask) == mask] *= cmath.exp(1j * op.phi)
        else:
            raise TypeError(f"unknown native op {op!r}")
    return u * diag[:, None]


def random_su2(rng: random.Random) -> np.ndarray:
    """Haar-ish random 2x2 unitary."""
    z = np.array([[rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(2)] for _ in range(2)])
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


# -- Theorem 1 oracles ---------------------------------------------------------


def lemma2_sum(n: int, l: int) -> int:
    """Signed count of odd-parity leg subsets over all gadget sizes.

    Equals ``2^(n-1)`` when every variable is one (l == n) and 0 otherwise,
    which is exactly why the gadget structure acts as a controlled phase.
    """
    if not 0 <= l <= n or n < 1:
        raise ValueError("need 0 <= l <= n, n >= 1")
    total = 0
    for k in range(1, n + 1):
        inner = 0
        for j in range(0, min(k, l) + 1):
            if j % 2 == 1:
                inner += math.comb(l, j) * math.comb(n - l, k - j)
        total += inner if k % 2 == 1 else -inner
    return total


def phase_accumulation(d: ZxDiagram, basis: tuple[int, ...]) -> Phase:
    """Exact diagonal phase of an anchored gadget diagram on one basis state of its outputs.

    ``d`` must be output anchors plus phase gadgets whose legs are anchors,
    as :func:`zxna.cnp.add_cnp` builds on bare anchors.  Each anchor set to
    one adds its phase, and each gadget with an odd number of legs set to
    one adds its phase.
    """
    if len(basis) != len(d.outputs):
        raise ValueError("basis length does not match the anchor count")
    gadgets = d.find_gadgets()
    if set(d.spiders()) != {*d.outputs} | {v for g in gadgets for v in (g.top, g.root)}:
        raise ValueError("diagram is not anchors plus gadgets on them")
    bit = dict(zip(d.outputs, basis))
    total = Phase(0)
    for a, b in bit.items():
        if b:
            total = total + d.phase(a)
    for g in gadgets:
        if sum(bit[a] for a in g.legs) % 2:
            total = total + g.phase
    return total


# -- brute-force gflow oracle ------------------------------------------------


def brute_gflow_exists(graph: LabeledOpenGraph) -> bool:
    """Layered gflow existence test with exhaustive correction-set search.

    Peels vertices in maximally delayed order like the production search,
    but finds each correction set by enumerating every subset of the
    already-peeled non-input vertices instead of solving a linear system.
    """
    outs = set(graph.outputs)
    ins = set(graph.inputs)
    vertices = set(graph.vertices)
    processed = set(outs)
    while processed != vertices:
        newly = set()
        base_all = sorted(processed - ins)
        for v in vertices - processed:
            lab = graph.labels[v]
            include_self = lab in ("XZ", "YZ")
            if include_self and v in ins:
                continue
            base = [c for c in base_all if c != v]
            found = False
            for mask in range(1 << len(base)):
                s = {base[i] for i in range(len(base)) if (mask >> i) & 1}
                if include_self:
                    s.add(v)
                odd = odd_neighborhood(graph, s)
                if any(w != v and w not in processed for w in s | odd):
                    continue
                if lab == "XY" and (v in s or v not in odd):
                    continue
                if lab == "XZ" and (v not in s or v not in odd):
                    continue
                if lab == "YZ" and (v not in s or v in odd):
                    continue
                found = True
                break
            if found:
                newly.add(v)
        if not newly:
            return False
        processed |= newly
    return True


def open_graph(verts, edges, inputs, outputs, labels) -> LabeledOpenGraph:
    """The labeled open graph on ``verts`` with the undirected ``edges`` (pairs)."""
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return LabeledOpenGraph(adj, tuple(inputs), tuple(outputs), labels)


def rand_open_graph(seed: int, min_v: int = 6, max_v: int = 8) -> LabeledOpenGraph:
    """Random labeled open graph with XY/XZ/YZ labels."""
    rng = random.Random(seed)
    n = rng.randint(min_v, max_v)
    verts = tuple(range(n))
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                edges.add((a, b))
    k_out = rng.randint(1, n)
    outputs = tuple(rng.sample(range(n), k_out))
    rest = [v for v in verts if v not in outputs]
    k_in = rng.randint(0, min(len(rest), n))
    inputs = tuple(rng.sample(rest, k_in)) if k_in else ()
    labels = {v: rng.choice(("XY", "XZ", "YZ")) for v in verts if v not in outputs}
    return open_graph(verts, edges, inputs, outputs, labels)


def all_small_open_graphs(max_v: int = 3):
    """Every labeled open graph with up to max_v vertices.

    Enumerates all edge sets, all disjoint-or-overlapping input/output
    assignments and all plane labels for non-outputs.
    """
    from itertools import combinations, product

    for n in range(1, max_v + 1):
        verts = tuple(range(n))
        pairs = list(combinations(range(n), 2))
        for emask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (emask >> i) & 1]
            for role in product(range(4), repeat=n):  # 0 none, 1 in, 2 out, 3 both
                inputs = tuple(v for v in verts if role[v] in (1, 3))
                outputs = tuple(v for v in verts if role[v] in (2, 3))
                non_out = [v for v in verts if v not in outputs]
                for labs in product(("XY", "XZ", "YZ"), repeat=len(non_out)):
                    labels = dict(zip(non_out, labs))
                    yield open_graph(verts, edges, inputs, outputs, labels)


def cancel_gates_reference(c: Circuit) -> Circuit:
    """``cancel_gates`` that scans back from the end of the output for each
    gate, repeating passes until one changes nothing."""
    gates = list(c.gates)
    changed = True
    while changed:
        out: list[Gate] = []
        changed = False
        for g in gates:
            merged = False
            qs = set(g.qubits)
            for i in range(len(out) - 1, -1, -1):
                prev = out[i]
                if not qs & set(prev.qubits):
                    continue
                repl = _merge(prev, g)
                if repl is not None:
                    out[i : i + 1] = repl
                    merged = changed = True
                break
            if not merged:
                if g.kind in ("Rz", "Rx", "Ry", "NCP") and g.angle.is_zero():
                    changed = True
                    continue
                out.append(g)
        gates = out
    return c.with_gates(gates)
