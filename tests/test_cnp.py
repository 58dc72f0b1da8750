from itertools import product

import numpy as np
import pytest

from zxna import Phase, ZxDiagram, diagram_tensor, equal_up_to_scalar
from zxna.cnp import (
    add_cnp,
    lemma2_sum,
    match_cnp,
    phase_accumulation,
    theorem1_template,
)


def _anchored(n):
    d = ZxDiagram(0, n)
    anchors = [d.add_spider() for _ in range(n)]
    d.outputs = list(anchors)
    return d, anchors


def test_template_n2():
    t = theorem1_template(range(2), Phase(1))
    assert t.alpha == Phase(1, 2)
    assert t.required == (((0, 1), Phase(-1, 2)),)
    assert t.phi == Phase(1)


def test_template_n3():
    t = theorem1_template(range(3), Phase(1))
    assert t.alpha == Phase(1, 4)
    pairs = [(s, p) for s, p in t.required if len(s) == 2]
    triples = [(s, p) for s, p in t.required if len(s) == 3]
    assert len(pairs) == 3 and all(p == Phase(-1, 4) for _, p in pairs)
    assert triples == [((0, 1, 2), Phase(1, 4))]


def test_template_counts():
    for n in range(2, 7):
        t = theorem1_template(range(n), Phase(1, 2))
        assert len(t.required) == (1 << n) - n - 1
        assert t.alpha == Phase(1, 2).div_pow2(n - 1)
    with pytest.raises(ValueError):
        theorem1_template(range(1), Phase(1))


def test_add_cnp_validation():
    d, anchors = _anchored(2)
    with pytest.raises(ValueError):
        add_cnp(d, (998, 999), Phase(1))
    with pytest.raises(ValueError):
        add_cnp(d, anchors[:1], Phase(1))
    assert d.num_spiders() == 2


def test_instantiated_template_tensor():
    for n in (2, 3):
        for phi in (Phase(1), Phase(-3, 4)):
            d, anchors = _anchored(n)
            add_cnp(d, anchors, phi)
            # no inputs: the tensor is the diagonal applied to the plus state
            ref = np.ones(1 << n, dtype=complex)
            ref[-1] = np.exp(1j * phi.to_float())
            assert equal_up_to_scalar(diagram_tensor(d), ref[:, None], 1e-9)


def test_lemma2_values():
    assert lemma2_sum(3, 3) == 4
    assert lemma2_sum(3, 1) == 0
    assert lemma2_sum(3, 2) == 0
    assert lemma2_sum(1, 1) == 1
    assert lemma2_sum(1, 0) == 0
    with pytest.raises(ValueError):
        lemma2_sum(2, 3)


def test_phase_accumulation():
    for n in (2, 3, 4):
        t = theorem1_template(range(n), Phase(1, 2))
        for basis in product((0, 1), repeat=n):
            got = phase_accumulation(t, basis)
            assert got == (Phase(1, 2) if all(basis) else Phase(0))
    with pytest.raises(ValueError):
        phase_accumulation(theorem1_template(range(2), Phase(1)), (1,))


def test_match_exact_structure():
    d, anchors = _anchored(3)
    add_cnp(d, anchors, Phase(1))
    plan = match_cnp(d.frontier_gadgets(set(anchors)), set(anchors), "no-insert")
    assert plan is not None
    assert plan.n == 3 and plan.phi == Phase(1)
    assert plan.required == theorem1_template(anchors, Phase(1)).required
    assert not plan.insertions and not plan.splits
    assert len(plan.matched) == 4


def test_match_partial_structure():
    # a 3-leg gadget with only one of its three pair gadgets present
    d, anchors = _anchored(3)
    a, b, c = anchors
    d.add_gadget((a, b, c), Phase(1, 4))
    d.add_gadget((a, b), Phase(-1, 4))
    no_ins = match_cnp(d.frontier_gadgets(set(anchors)), set(anchors), "no-insert")
    # the 3-anchor seed fails; the pair gadget still matches on its own
    assert no_ins is not None and no_ins.n == 2
    plan = match_cnp(d.frontier_gadgets(set(anchors)), set(anchors), "with-insert")
    assert plan is not None and plan.n == 3
    assert plan.alpha == Phase(1, 4)
    assert sorted(tuple(sorted(l)) for l, _ in plan.insertions) == [
        tuple(sorted((a, c))), tuple(sorted((b, c))),
    ]
    assert all(p == Phase(-1, 4) for _, p in plan.insertions)


def test_match_upward_completion():
    # three pair gadgets forming a triangle grow into a 3-anchor target
    d, anchors = _anchored(3)
    a, b, c = anchors
    seed_top = d.add_gadget((a, b), Phase(1, 8)).top
    d.add_gadget((a, c), Phase(1, 8))
    d.add_gadget((b, c), Phase(1, 8))
    plan = match_cnp(d.frontier_gadgets(set(anchors)), set(anchors), "with-insert")
    assert plan is not None
    assert plan.target_set == tuple(sorted((a, b, c)))
    assert [set(l) for l, _ in plan.insertions] == [{a, b, c}]
    # the same seed stays a pair when its top is frozen
    plan2 = match_cnp(d.frontier_gadgets(set(anchors)), set(anchors), "with-insert", no_extend=frozenset({seed_top}))
    assert plan2 is not None and plan2.n == 2


def test_match_respects_max_size():
    d, anchors = _anchored(3)
    a, b, c = anchors
    d.add_gadget((a, b), Phase(1, 8))
    d.add_gadget((a, c), Phase(1, 8))
    d.add_gadget((b, c), Phase(1, 8))
    plan = match_cnp(d.frontier_gadgets(set(anchors)), set(anchors), "with-insert", max_size=2)
    assert plan is not None and plan.n == 2


def test_match_ignores_off_frontier_gadgets():
    d, anchors = _anchored(2)
    extra = d.add_spider()
    d.add_gadget((anchors[0], extra), Phase(1, 4))
    assert match_cnp(d.frontier_gadgets(set(anchors)), set(anchors), "no-insert") is None


def test_match_requires_phase_difference_split():
    d, anchors = _anchored(2)
    a, b = anchors
    d.add_gadget((a, b), Phase(1, 8))
    plan = match_cnp(d.frontier_gadgets({a, b}), {a, b}, "no-insert")
    assert plan is not None and plan.alpha == Phase(-1, 8)
    assert plan.phi == Phase(-1, 4)
