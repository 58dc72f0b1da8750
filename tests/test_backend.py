import hashlib
import math
import random

import numpy as np
import pytest

from helpers import basis_operator, native_unitary, qft_circuit, rand_rich_circuit, random_su2, ry_matrix, rz_matrix
from zxna import Circuit, Gate, Phase, Schedule, TimeConfig, circuit_unitary, equal_up_to_scalar, schedule
from zxna import backend
from zxna.backend import (
    GR,
    Ncp,
    RzLayer,
    _decompose,
    _norm_angle,
    _ry,
    _rz,
    execution_time,
    greedy_assign,
    layerize,
    schedule_counts,
    transversal_decompose,
    zyz_angles,
)
from zxna.oracle import gate_matrix


def test_zyz_reconstruction():
    rng = random.Random(11)
    for _ in range(200):
        u = random_su2(rng)
        b, t, a = zyz_angles(u)
        v = rz_matrix(a) @ ry_matrix(t) @ rz_matrix(b)
        assert 0.0 <= t <= math.pi
        assert equal_up_to_scalar(v, u, 1e-9)


def test_zyz_branch_points():
    assert zyz_angles(np.eye(2))[:2] == (0.0, 0.0)
    b, t, _ = zyz_angles(ry_matrix(math.pi))
    assert b == 0.0 and t == pytest.approx(math.pi)


def test_layerize_empty():
    assert layerize(Circuit(1)) == []


def test_layerize_alternates():
    c = Circuit(2, (Gate("H", (0,)), Gate("NCP", (0, 1), Phase(1)), Gate("H", (0,))))
    layers = layerize(c)
    assert len(layers) == 3
    assert set(layers[0]) == {0}
    assert isinstance(layers[1], list) and len(layers[1]) == 1
    assert layers[1][0] == Ncp((0, 1), math.pi)
    assert set(layers[2]) == {0}


def test_layerize_packs_parallel_gates():
    c = Circuit(3, (Gate("H", (0,)), Gate("H", (1,)), Gate("CZ", (0, 1)), Gate("T", (2,))))
    layers = layerize(c)
    assert set(layers[0]) == {0, 1, 2}
    assert layers[1][0].qubits == (0, 1)


def test_layerize_merges_consecutive_1q():
    c = Circuit(1, (Gate("H", (0,)), Gate("S", (0,))))
    layers = layerize(c)
    assert len(layers) == 1
    ref = gate_matrix(Gate("S", (0,))) @ gate_matrix(Gate("H", (0,)))
    assert layers[0] == {0: zyz_angles(ref)}


def test_layerize_cx_lowering():
    c = Circuit(2, (Gate("CX", (0, 1)),))
    layers = layerize(c)
    mq = [op for lay in layers[1::2] for op in lay]
    assert mq == [Ncp((0, 1), math.pi)]
    sched = schedule(c)
    assert equal_up_to_scalar(native_unitary(sched.ops, 2), circuit_unitary(c), 1e-9)
    # a Swap is three CX, alternating direction
    c = Circuit(2, (Gate("Swap", (0, 1)),))
    layers = layerize(c)
    assert [op for lay in layers[1::2] for op in lay] == [Ncp((0, 1), math.pi), Ncp((1, 0), math.pi), Ncp((0, 1), math.pi)]
    assert [sorted(lay) for lay in layers[0::2]] == [[1], [0, 1], [0, 1], [1]]
    sched = schedule(c)
    assert equal_up_to_scalar(native_unitary(sched.ops, 2), circuit_unitary(c), 1e-9)


def test_transversal_single_ry_layer():
    ops = transversal_decompose({0: zyz_angles(ry_matrix(math.pi / 2))}, 2)
    grs = [op for op in ops if isinstance(op, GR)]
    assert len(grs) == 2 and all(op.theta == pytest.approx(math.pi / 4) for op in grs)
    # the idle qubit gets the cancelling b = pi correction
    mids = [op for op in ops if isinstance(op, RzLayer) and 1 in op.angles]
    assert any(abs(op.angles[1]) == pytest.approx(math.pi) for op in mids)
    u = native_unitary(ops, 2)
    ref = np.kron(np.eye(2), ry_matrix(math.pi / 2))  # qubit 0 least significant
    assert equal_up_to_scalar(u, ref, 1e-9)


def test_transversal_rz_only_layer():
    ops = transversal_decompose({0: zyz_angles(rz_matrix(0.3)), 1: zyz_angles(rz_matrix(-0.7))}, 2)
    assert len(ops) == 1 and isinstance(ops[0], RzLayer)
    assert ops[0].angles == {0: pytest.approx(0.3), 1: pytest.approx(-0.7)}


def test_transversal_hadamard():
    ops = transversal_decompose({0: zyz_angles(gate_matrix(Gate("H", (0,))))}, 1)
    grs = [op for op in ops if isinstance(op, GR)]
    assert sum(op.theta for op in grs) == pytest.approx(math.pi / 2)
    assert equal_up_to_scalar(native_unitary(ops, 1), gate_matrix(Gate("H", (0,))), 1e-9)


def test_transversal_random_layers():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 4)
        layer = {q: random_su2(rng) for q in range(n) if rng.random() < 0.7}
        ops = transversal_decompose({q: zyz_angles(m) for q, m in layer.items()}, n)
        u = native_unitary(ops, n)
        ref = np.eye(1 << n, dtype=complex)
        for q, m in layer.items():
            ref = basis_operator(m, (q,), n) @ ref
        assert equal_up_to_scalar(u, ref, 1e-9)


def test_transversal_middle_angles_lie_in_zero_to_pi():
    # b = 2 acos(clamped ratio) is stored as it is, with no wrap into (-pi, pi]
    rng = random.Random(29)
    exact = [gate_matrix(Gate(k, (0,))) for k in ("H", "X", "Y", "S", "T")] + [ry_matrix(math.pi)]
    angles = []
    for _ in range(200):
        n = rng.randint(1, 4)
        layer = {q: rng.choice(exact) if rng.random() < 0.3 else random_su2(rng)
                 for q in range(n) if rng.random() < 0.7}
        ops = transversal_decompose({q: zyz_angles(m) for q, m in layer.items()}, n)
        for first, mid, second in zip(ops, ops[1:], ops[2:]):
            if isinstance(first, GR) and isinstance(second, GR):
                angles += mid.angles.values()
    assert math.pi in angles  # an idle qubit's b
    assert all(0.0 <= b <= math.pi for b in angles)


def test_greedy_assign_monotone_and_sound():
    def total(ls):
        return sum(max((t for _, t, _ in lay.values()), default=0.0) for lay in ls[::2])

    for seed in range(25):
        c = rand_rich_circuit(seed, max_qubits=4, max_gates=20)
        layers = layerize(c)
        before = total(layers)
        out = greedy_assign(layers)
        assert total(out) <= before + 1e-9
        sched = schedule(c)
        assert equal_up_to_scalar(native_unitary(sched.ops, c.num_qubits), circuit_unitary(c), 1e-8)
    moved = 0
    for seed in range(60):
        c = rand_rich_circuit(seed)
        layers = layerize(c)
        out = greedy_assign(layerize(c))
        moved += [set(lay) for lay in out[::2]] != [set(lay) for lay in layers[::2]]
        # a move carries a slot's triple: the slots and the multi-qubit layers stay as they were
        assert sorted((q, t) for lay in out[::2] for q, t in lay.items()) == \
            sorted((q, t) for lay in layers[::2] for q, t in lay.items())
        assert out[1::2] == layers[1::2]
    assert moved > 0  # the corpus exercises the moves


def test_schedule_equals_public_steps_exactly():
    # schedule() runs the public steps with a per-call memo of each distinct
    # layer's decomposition; without the memo the ops must match bit for bit
    for seed in range(60):
        c = rand_rich_circuit(seed)
        layers = greedy_assign(layerize(c))
        ops = []
        for i, lay in enumerate(layers):
            ops.extend(transversal_decompose(lay, c.num_qubits) if i % 2 == 0 else lay)
        assert schedule(c).ops == tuple(ops)


def test_schedule_digest():
    # schedule JSON on rich circuits, which lower Swap, Rx, Ry, X, Y and T and
    # leave zero-theta layers; a change meant to be performance-only must
    # leave this digest as it is
    h = hashlib.sha256()
    for seed in range(300):
        h.update(schedule(rand_rich_circuit(seed)).to_json().encode())
    assert h.hexdigest() == "b56a23c9b0e8fb0d2700b442d76c4c961af7e8451caafab30d1a10edce8db782"


def test_layerize_digest():
    # every layer of layerize on the same corpus: the Euler triples of the
    # single-qubit slots (repr round-trips a float exactly) and the Ncp lists
    h = hashlib.sha256()
    zero_theta = 0
    for seed in range(300):
        for i, lay in enumerate(layerize(rand_rich_circuit(seed))):
            h.update(repr(lay if i % 2 else sorted(lay.items())).encode())
            if i % 2 == 0:
                zero_theta += max((t for _, t, _ in lay.values()), default=1.0) < 1e-12
    assert zero_theta > 0
    assert h.hexdigest() == "392232ba9c9886002cf5ac4b911d83e4817657f4dbf6482b493381424516e6a2"


def _norm_angle_reference(x: float) -> float:
    y = math.remainder(x, 2 * math.pi)
    if y <= -math.pi + 1e-12 / 2 and not math.isclose(y, math.pi):
        y += 2 * math.pi
    if math.isclose(y, -math.pi, abs_tol=1e-15):
        y = math.pi
    return y


def test_norm_angle_matches_reference_bitwise():
    xs = [0.0, -0.0, math.pi, -math.pi, -math.pi + 1e-10, -math.pi + 1e-6, 3.1415, -3.1415,
          3 * math.pi, -3 * math.pi, 2 * math.pi - 1e-12, 1e6]
    rng = random.Random(5)
    xs += [rng.uniform(-20.0, 20.0) for _ in range(20000)]
    for x in xs:
        assert _norm_angle(x).hex() == _norm_angle_reference(x).hex(), x
    assert _norm_angle(-math.pi + 1e-10) == math.pi


def _decompose_reference(layer: dict, num_qubits: int) -> list:
    """Layer decomposition with every middle pulse recomputed per qubit."""
    eulers = {q: zyz_angles(u) for q, u in layer.items()}
    tmax = max((t for _, t, _ in eulers.values()), default=0.0)
    half = tmax / 2.0
    pre, mid, post = {}, {}, {}
    for q in range(num_qubits):
        beta, theta, alpha = eulers.get(q, (0.0, 0.0, 0.0))
        ratio = math.sin(theta / 2.0) / math.sin(half)
        b = 2.0 * math.acos(min(1.0, max(0.0, ratio)))
        nu, _, mu = zyz_angles(_ry(half) @ _rz(b) @ _ry(half))
        a, cc = _norm_angle_reference(beta - nu), _norm_angle_reference(alpha - mu)
        if abs(a) > 1e-12:
            pre[q] = a
        if abs(b) > 1e-12:
            mid[q] = _norm_angle_reference(b)
        if abs(cc) > 1e-12:
            post[q] = cc
    ops = [RzLayer(pre)] if pre else []
    ops += [GR(half), RzLayer(mid), GR(half)] if mid else [GR(half), GR(half)]
    return ops + ([RzLayer(post)] if post else [])


def test_middle_pulse_memo_matches_recomputation(monkeypatch):
    # qubits 1 and 4 share the layer's largest theta, qubit 2 has a smaller
    # one, and qubits 0, 3, 5 and 6 are idle (b = pi)
    layers = [
        {1: rz_matrix(-1.3) @ ry_matrix(1.1), 4: ry_matrix(1.1) @ rz_matrix(2.0),
         2: rz_matrix(-2.5) @ ry_matrix(0.6)},
        {3: ry_matrix(1.1), 6: rz_matrix(0.9) @ ry_matrix(0.2)},  # same half as the first layer
        {0: ry_matrix(-0.8)},
    ]
    assert len({zyz_angles(u)[1] for u in (*layers[0].values(), layers[1][3])}) == 2
    mids: dict = {}
    corrs: dict = {}
    for layer in layers:
        eulers = {q: zyz_angles(u) for q, u in layer.items()}
        got = _decompose(eulers, 7, mids, corrs)
        assert got == _decompose_reference(layer, 7)
        assert got == transversal_decompose(eulers, 7)
    # one entry per distinct (half, b): b = 0, pi and two smaller-theta b values
    assert len({half for half, _ in mids}) == 2 and len(mids) == 6

    calls = []

    def counting_zyz(u):
        calls.append(1)
        return zyz_angles(u)

    monkeypatch.setattr(backend, "zyz_angles", counting_zyz)
    c = qft_circuit(5)
    per_call = []
    for _ in range(3):
        calls.clear()
        schedule(c)
        per_call.append(len(calls))
    # a memo outliving one schedule() call would make later calls cheaper
    assert per_call[0] == per_call[1] == per_call[2]
    assert not [k for k, v in vars(backend).items() if isinstance(v, dict) and not k.startswith("__")]


def test_schedule_one_triple_per_distinct_chain(monkeypatch):
    # walls of H then Rz(pi/4) on every qubit between CZ walls: 202 slots
    # that hold two distinct triples, and never more triples than chains
    n = 6
    gates = []
    for r in range(40):
        gates += [Gate("H", (q,)) for q in range(n)]
        gates += [Gate("Rz", (q,), Phase(1, 4)) for q in range(n)]
        gates += [Gate("CZ", (q, q + 1)) for q in range(r % 2, n - 1, 2)]
    c = Circuit(n, tuple(gates))
    layers = layerize(c)
    distinct = {t for lay in layers[::2] for t in lay.values()}
    assert sum(map(len, layers[::2])) == 202 and len(distinct) == 2

    calls = []

    def counting_zyz(u):
        calls.append(1)
        return zyz_angles(u)

    memos = {}

    def keeping_mids(eulers, num_qubits, mids, corrs):
        memos[id(mids)] = mids
        return _decompose(eulers, num_qubits, mids, corrs)

    monkeypatch.setattr(backend, "zyz_angles", counting_zyz)
    monkeypatch.setattr(backend, "_decompose", keeping_mids)
    ops = schedule(c).ops
    (mids,) = memos.values()  # one middle-pulse memo per call
    assert len(calls) <= len(distinct) + len(mids)
    monkeypatch.undo()
    assert ops == schedule(c).ops


def _walls(n: int = 6, rounds: int = 40) -> Circuit:
    """H then Rz(pi/4) on every qubit between CZ walls: repeated single-qubit layers."""
    gates = []
    for r in range(rounds):
        gates += [Gate("H", (q,)) for q in range(n)]
        gates += [Gate("Rz", (q,), Phase(1, 4)) for q in range(n)]
        gates += [Gate("CZ", (q, q + 1)) for q in range(r % 2, n - 1, 2)]
    return Circuit(n, tuple(gates))


def test_schedule_decomposes_each_distinct_layer_once(monkeypatch):
    c = _walls()
    layers = greedy_assign(layerize(c))
    distinct = {frozenset(lay.items()) for lay in layers[::2]}
    assert len(layers[::2]) > 10 * len(distinct)

    made = []

    def keeping_ops(eulers, num_qubits, mids, corrs):
        made.append(_decompose(eulers, num_qubits, mids, corrs))
        return made[-1]

    monkeypatch.setattr(backend, "_decompose", keeping_ops)
    for _ in range(3):  # once per call: no memo outlives it
        made.clear()
        ops = schedule(c).ops
        assert len(made) == len(distinct)
    # the repeats of a layer extend the ops with the objects of its one decomposition
    single = [op for op in ops if not isinstance(op, Ncp)]
    assert {id(op) for op in single} == {id(op) for got in made for op in got}
    assert len(single) > 10 * len({id(op) for op in single})
    monkeypatch.undo()

    # the same schedule, bit for bit, as the public steps rebuild it without a memo
    rebuilt = []
    for i, lay in enumerate(greedy_assign(layerize(c))):
        rebuilt.extend(transversal_decompose(lay, c.num_qubits) if i % 2 == 0 else lay)
    assert ops == tuple(rebuilt)
    assert schedule(c) == Schedule(tuple(rebuilt), execution_time(rebuilt))


def test_layer_half_pulses_are_one_gr():
    rng = random.Random(4)
    for layer in ({0: gate_matrix(Gate("H", (0,)))}, {q: random_su2(rng) for q in (0, 2, 3)}):
        ops = transversal_decompose({q: zyz_angles(u) for q, u in layer.items()}, 4)
        first, second = [op for op in ops if type(op) is GR]
        assert first is second
    grs = [op for op in schedule(Circuit(1, (Gate("H", (0,)),))).ops if type(op) is GR]
    assert len(grs) == 2 and grs[0] is grs[1]


def test_transversal_rejects_qubit_out_of_range():
    h = zyz_angles(gate_matrix(Gate("H", (0,))))
    for layer in ({3: h}, {0: h, 2: h}, {-1: h}):
        with pytest.raises(ValueError, match="outside range\\(2\\)"):
            transversal_decompose(layer, 2)
    ops = transversal_decompose({1: h}, 2)
    assert equal_up_to_scalar(native_unitary(ops, 2), np.kron(gate_matrix(Gate("H", (0,))), np.eye(2)), 1e-9)


def test_native_ops_and_gates_have_no_instance_dict():
    for obj in (GR(1.0), RzLayer({0: 1.0}), Ncp((0, 1), 1.0), Gate("H", (0,)), Gate("Rz", (0,), Phase(1, 4))):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)


def test_execution_time_units():
    assert execution_time([GR(math.pi)]) == pytest.approx(100e-6)
    assert execution_time([Ncp((0, 1), math.pi)]) == pytest.approx(100e-9)
    assert execution_time([Ncp((0, 1, 2), math.pi)]) == pytest.approx(400e-9)
    assert execution_time([Ncp((0, 1, 2), math.pi / 2)]) == pytest.approx(200e-9)
    assert execution_time([RzLayer({0: math.pi, 1: 0.1})]) == pytest.approx(100e-9)
    assert execution_time([]) == 0.0


def test_execution_time_config_override():
    cfg = TimeConfig(rz=1.0, gr=2.0, cp=3.0, ncp=4.0)
    ops = [RzLayer({0: math.pi}), GR(math.pi), Ncp((0, 1), math.pi), Ncp((0, 1, 2), math.pi)]
    assert execution_time(ops, cfg) == pytest.approx(1 + 2 + 3 + 4)


def test_schedule_empty():
    s = schedule(Circuit(1))
    assert s.ops == () and s.total_time == 0.0


def test_schedule_single_hadamard():
    s = schedule(Circuit(1, (Gate("H", (0,)),)))
    grs = [op for op in s.ops if isinstance(op, GR)]
    assert len(grs) == 2
    gr_time = sum(abs(op.theta) / math.pi * 100e-6 for op in grs)
    assert gr_time == pytest.approx(50e-6)
    assert equal_up_to_scalar(native_unitary(s.ops, 1), gate_matrix(Gate("H", (0,))), 1e-9)


def test_schedule_counts():
    ops = (GR(1.0), GR(1.0), RzLayer({0: 1.0}), Ncp((0, 1), 1.0), Ncp((0, 1, 2), 1.0), Ncp((1, 2), 1.0))
    counts = schedule_counts(ops)
    assert counts == {"gr_pulses": 2, "gr_layers": 1, "rz_layers": 1, "ncp": {2: 2, 3: 1}}


def test_schedule_json():
    s = schedule(Circuit(2, (Gate("H", (0,)), Gate("CZ", (0, 1)))))
    import json
    data = json.loads(s.to_json())
    assert data["total_time"] == pytest.approx(s.total_time)
    assert all(op["type"] in ("gr", "rz", "ncp") for op in data["ops"])
