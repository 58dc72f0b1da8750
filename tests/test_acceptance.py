"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance and runtime budget by an
oracle that is independent of the code path it certifies.
"""

import itertools
import math
import random
import time
from itertools import product

import numpy as np
import pytest

from helpers import (
    all_small_open_graphs,
    brute_gflow_exists,
    native_unitary,
    qft_circuit,
    rand_corpus_circuit,
    rand_open_graph,
    random_su2,
)
from zxna import (
    Circuit,
    ExtractionMode,
    Phase,
    circuit_unitary,
    equal_up_to_scalar,
    extract_circuit,
    find_gflow,
    full_simplify,
    run_pipeline,
    schedule,
    verify_gflow,
)
from zxna.backend import (
    GR,
    Ncp,
    RzLayer,
    execution_time,
    greedy_assign,
    schedule_counts,
    transversal_decompose,
    zyz_angles,
)
from zxna.cnp import add_cnp, lemma2_sum, phase_accumulation, theorem1_template
from zxna.gflow import labeled_graph_of
from zxna.ingest import circuit_to_diagram, to_graph_like
from zxna.oracle import gate_matrix
from zxna import Gate


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _gadget_diagonal(d):
    """Evaluate an anchored gadget diagram as a diagonal, scalably.

    The diagram must consist of output anchors plus phase gadgets whose legs
    are anchors. Summing out each root and top exactly gives the factor
    2 * exp(i * beta * parity(legs)) per gadget, so the diagonal follows from
    a 2^n sweep over anchor basis states only.
    """
    anchors = list(d.outputs)
    gadgets = d.find_gadgets()
    interior = {v for v in d.spiders() if v not in anchors}
    parts = {g.top for g in gadgets} | {g.root for g in gadgets}
    assert interior == parts, "diagram is not in anchored gadget form"
    idx = {a: i for i, a in enumerate(anchors)}
    n = len(anchors)
    diag = np.empty(1 << n, dtype=complex)
    for b in range(1 << n):
        amp = 1.0 + 0.0j
        for a in anchors:
            if (b >> idx[a]) & 1:
                amp *= np.exp(1j * d.phase(a).to_float())
        for g in gadgets:
            parity = 0
            for leg in g.legs:
                parity ^= (b >> idx[leg]) & 1
            if parity:
                amp *= np.exp(1j * g.phase.to_float())
        diag[b] = amp
    return diag


def test_criterion_1_diagonal_structure_oracle(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n in range(2, 7):
        for phi in (Phase(1), Phase(1, 2), Phase(-3, 4)):
            from zxna import ZxDiagram

            d = ZxDiagram(0, n)
            anchors = [d.add_spider() for _ in range(n)]
            d.outputs = list(anchors)
            add_cnp(d, anchors, phi)
            got = _gadget_diagonal(d)
            ref = np.ones(1 << n, dtype=complex)
            ref[-1] = np.exp(1j * phi.to_float())
            got = got / got[0]
            err = np.abs(got - ref).max()
            worst = max(worst, err)
            if err > 1e-9:
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _report(capsys, 1, ok, f"n=2..6, 3 angles, max residual {worst:.2e}, {dt:.2f}s")


def test_criterion_2_alternating_sum_table(capsys):
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for n in range(1, 13):
        for l in range(0, n + 1):
            want = (1 << (n - 1)) if l == n else 0
            if lemma2_sum(n, l) != want:
                ok = False
            cases += 1
    for n in range(2, 7):
        t = theorem1_template(range(n), Phase(1, 2))
        for basis in product((0, 1), repeat=n):
            want = Phase(1, 2) if all(basis) else Phase(0)
            if phase_accumulation(t, basis) != want:
                ok = False
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0 and cases == 90
    _report(capsys, 2, ok, f"{cases} lemma cases exact, basis sweep n<=6, {dt:.2f}s")


def test_criterion_3_roundtrip_corpus(capsys):
    t0 = time.perf_counter()
    bad = []
    for seed in range(200):
        c = rand_corpus_circuit(seed)
        ref = circuit_unitary(c)
        for p in ("zx-default", "zx-no-insert", "zx-with-insert", "no-decomp"):
            out, sched = run_pipeline(c, p)
            if not equal_up_to_scalar(circuit_unitary(out), ref, 1e-8):
                bad.append((seed, p, "circuit"))
            elif not equal_up_to_scalar(native_unitary(sched.ops, c.num_qubits), ref, 1e-8):
                bad.append((seed, p, "schedule"))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 300.0
    _report(capsys, 3, ok, f"200 circuits x 4 pipelines + schedule, failures {bad[:3]}, {dt:.1f}s")


def test_criterion_4_gflow_invariance(capsys):
    t0 = time.perf_counter()
    bad = []
    rewrites = 0

    for seed in range(200):
        c = rand_corpus_circuit(seed)
        d = circuit_to_diagram(c)
        to_graph_like(d)
        state = {"n": 0}

        def hook(rule, dd):
            state["n"] += 1
            g = labeled_graph_of(dd)
            f = find_gflow(g)
            if f is None or not verify_gflow(g, f):
                bad.append((seed, rule))

        full_simplify(d, on_rewrite=hook)
        rewrites += state["n"]
        # debug mode re-verifies gflow around every gadget insertion and
        # raises if any extend_gflow_insertion output fails verify_gflow
        try:
            extract_circuit(d, ExtractionMode("with-insert", debug=True))
        except Exception as e:  # noqa: BLE001 - any failure is a criterion failure
            bad.append((seed, f"insertion: {e}"))
    dt = time.perf_counter() - t0
    ok = not bad
    _report(capsys, 4, ok, f"{rewrites} rewrites + insertions on 200 circuits, failures {bad[:3]}, {dt:.1f}s")


def test_criterion_5_transversal_layers(capsys):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    bad = []
    for trial in range(1000):
        n = rng.randint(1, 10)
        layer = {q: random_su2(rng) for q in range(n) if rng.random() < 0.6}
        ops = transversal_decompose({q: zyz_angles(u) for q, u in layer.items()}, n)
        # per-qubit product of the global and local pulses
        us = {q: np.eye(2, dtype=complex) for q in range(n)}
        for op in ops:
            if isinstance(op, GR):
                m = np.array(
                    [[math.cos(op.theta / 2), -math.sin(op.theta / 2)],
                     [math.sin(op.theta / 2), math.cos(op.theta / 2)]],
                    dtype=complex,
                )
                for q in range(n):
                    us[q] = m @ us[q]
            else:
                for q, a in op.angles.items():
                    us[q] = np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)]) @ us[q]
        for q in range(n):
            if q in layer:
                if not equal_up_to_scalar(us[q], layer[q], 1e-9):
                    bad.append((trial, q, "residual"))
            else:
                eye = np.eye(2)
                if min(np.abs(us[q] - eye).max(), np.abs(us[q] + eye).max()) > 1e-12:
                    bad.append((trial, q, "idle"))
        # greedy reassignment never increases the total first Euler angle
        def total(ls):
            return sum(
                max((t for _, t, _ in lay.values()), default=0.0)
                for lay in ls[::2]
            )

        k = rng.randint(1, 3)
        seq = []
        for i in range(k):
            seq.append({q: zyz_angles(random_su2(rng)) for q in range(n) if rng.random() < 0.5})
            if i < k - 1:
                mid = []
                if n >= 2:
                    mid.append(Ncp(tuple(sorted(rng.sample(range(n), 2))), math.pi))
                seq.append(mid)
        before = total(seq)
        after = total(greedy_assign(seq))
        if after > before + 1e-9:
            bad.append((trial, "greedy"))
    dt = time.perf_counter() - t0
    ok = not bad
    _report(capsys, 5, ok, f"1000 layers <=10 qubits, failures {bad[:3]}, {dt:.1f}s")


def test_criterion_6_time_units(capsys):
    checks = [
        (execution_time([GR(math.pi)]), 100e-6),
        (execution_time([Ncp((0, 1), math.pi)]), 100e-9),
        (execution_time([Ncp((0, 1, 2), math.pi)]), 400e-9),
        (execution_time([RzLayer({0: math.pi, 1: -0.25})]), 100e-9),
    ]
    ok = all(got == pytest.approx(want, rel=0, abs=1e-18) for got, want in checks)
    _report(capsys, 6, ok, "GR(pi)=100us, NCP(2,pi)=100ns, NCP(3,pi)=400ns, Rz(pi)=100ns exact")


def test_criterion_7_qft_directional(capsys):
    t0 = time.perf_counter()
    c = qft_circuit(10)
    results = {}
    for p in ("zx-default", "zx-with-insert"):
        out, sched = run_pipeline(c, p)
        results[p] = (schedule_counts(sched.ops), sched.total_time)
    wi_counts, wi_t = results["zx-with-insert"]
    df_counts, df_t = results["zx-default"]
    has_high = any(k >= 3 for k in wi_counts["ncp"])
    fewer_gr = wi_counts["gr_pulses"] < df_counts["gr_pulses"]
    faster = wi_t < df_t
    dt = time.perf_counter() - t0
    ok = has_high and fewer_gr and faster and dt < 30.0
    _report(
        capsys, 7, ok,
        f"qft10 with-insert: ncp {dict(sorted(wi_counts['ncp'].items()))}, "
        f"GR {wi_counts['gr_pulses']} vs {df_counts['gr_pulses']}, "
        f"T {wi_t * 1e3:.3f} vs {df_t * 1e3:.3f} ms "
        f"(ratio {wi_t / df_t:.3f}), {dt:.1f}s",
    )


def test_criterion_8_qft_runtime(capsys):
    c = qft_circuit(10)
    times = {}
    ok = True
    for p in ("zx-default", "zx-no-insert", "zx-with-insert", "no-decomp"):
        t0 = time.perf_counter()
        run_pipeline(c, p)
        times[p] = time.perf_counter() - t0
        ok = ok and times[p] <= 5.0
    detail = ", ".join(f"{p} {t:.2f}s" for p, t in times.items())
    _report(capsys, 8, ok, f"qft10 per-pipeline runtime: {detail}")


def test_criterion_9_gflow_brute_force(capsys):
    # exhaustive up to 3 vertices over every edge set, boundary role, and
    # measurement label; dense random sampling at 4 and 5 vertices; plus the
    # 200 random 6-8 vertex graphs
    t0 = time.perf_counter()
    bad = 0
    cases = 0

    def check(g):
        nonlocal bad, cases
        cases += 1
        f = find_gflow(g)
        if (f is not None) != brute_gflow_exists(g):
            bad += 1
        elif f is not None and not verify_gflow(g, f):
            bad += 1

    for g in all_small_open_graphs(3):
        check(g)
    for seed in range(300):
        check(rand_open_graph(seed, 4, 5))
    for seed in range(200):
        check(rand_open_graph(10_000 + seed, 6, 8))
    dt = time.perf_counter() - t0
    ok = bad == 0
    _report(capsys, 9, ok, f"{cases} graphs vs exhaustive search, {bad} disagreements, {dt:.1f}s")
