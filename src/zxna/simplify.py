"""Diagram simplification rewrites.

The driver removes interior Clifford spiders via local complementation and
pivoting, turns interior Pauli/non-Clifford pairs into phase gadgets, and
fuses gadgets with identical legs, until every interior spider either has a
non-Clifford phase or belongs to a gadget.  All rewrites preserve the
diagram tensor up to a global scalar (checked by the oracle test suite) and
preserve the existence of gflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .diagram import ZxDiagram
from .phase import Phase

__all__ = [
    "RewriteTrace",
    "lc_simp",
    "pivot_simp",
    "gadget_pivot",
    "gadget_fusion",
    "id_simp",
    "full_simplify",
]

MAX_ROUNDS = 10000

_PI = Phase(1)


@dataclass
class RewriteTrace:
    """Step log of a simplification run, serializable for debugging."""

    steps: list[dict] = field(default_factory=list)

    def record(self, rule: str, spiders: tuple[int, ...], d: ZxDiagram) -> None:
        self.steps.append(
            {"rule": rule, "spiders": list(spiders), "spiders_after": d.num_spiders()}
        )

    def to_json(self) -> str:
        return json.dumps(self.steps)


def _boundary(d: ZxDiagram) -> set[int]:
    return set(d.inputs) | set(d.outputs)


def lc_simp(d: ZxDiagram, v: int) -> bool:
    """Eliminate an interior spider with phase +-pi/2 by local complementation.

    Neighbors become pairwise toggled and each loses the removed phase.
    Returns False without change if the phase guard fails.
    """
    if v in _boundary(d):
        raise ValueError("lc_simp target must be interior")
    p = d.phase(v)
    if not p.is_proper_clifford():
        return False
    nbrs = sorted(d.neighbors(v))
    d.local_complement_graph(v)
    for w in nbrs:
        d.add_phase(w, -p)
    d.remove_spider(v)
    return True


def pivot_simp(d: ZxDiagram, u: int, v: int) -> bool:
    """Eliminate an adjacent interior pair with phases in {0, pi} by pivoting."""
    boundary = _boundary(d)
    if u in boundary or v in boundary:
        raise ValueError("pivot_simp targets must be interior")
    if not d.has_edge(u, v):
        raise ValueError("pivot_simp requires adjacent spiders")
    pu, pv = d.phase(u), d.phase(v)
    if not (pu.is_pauli() and pv.is_pauli()):
        return False
    nu = d.neighbors(u) - {v}
    nv = d.neighbors(v) - {u}
    common = nu & nv
    d.pivot_graph(u, v)
    for w in nu - common:
        d.add_phase(w, pv)
    for w in nv - common:
        d.add_phase(w, pu)
    for w in common:
        d.add_phase(w, pu + pv + Phase(1))
    d.remove_spider(u)
    d.remove_spider(v)
    return True


def gadget_pivot(d: ZxDiagram, u: int, v: int) -> bool:
    """Pivot a 0/pi spider against a non-Clifford neighbor, gadgetizing the phase.

    The non-Clifford phase of v is unfused onto a fresh gadget hanging off
    v, after which the ordinary pivot removes u and the now phase-free v.
    """
    boundary = _boundary(d)
    if u in boundary or v in boundary:
        raise ValueError("gadget_pivot targets must be interior")
    if not d.has_edge(u, v):
        raise ValueError("gadget_pivot requires adjacent spiders")
    if not d.phase(u).is_pauli() or d.phase(v).is_clifford():
        return False
    d.add_gadget((v,), d.phase(v))
    d.set_phase(v, Phase(0))
    ok = pivot_simp(d, u, v)
    assert ok
    _normalize_gadget_roots(d)
    return True


def _hanging(d: ZxDiagram) -> Iterator[tuple[int, int]]:
    """Yield (top, root): interior degree-1 tops on interior roots, tested as reached."""
    boundary = _boundary(d)
    for top in list(d.spiders()):
        if d.contains(top) and top not in boundary and d.degree(top) == 1:
            (root,) = d.neighbors(top)
            if root not in boundary:
                yield top, root


def _normalize_gadget_roots(d: ZxDiagram) -> None:
    """Flip roots that picked up a pi phase: negate the top, zero the root."""
    for top, root in _hanging(d):
        if d.phase(root) == _PI:
            d.set_phase(root, Phase(0))
            d.set_phase(top, -d.phase(top))


def _repair_gadgets(d: ZxDiagram) -> None:
    """Restore gadget form after a rewrite touched gadget roots.

    Neighboring rewrites only ever add Clifford phases to a root: a pi
    phase folds into the top, a +-pi/2 phase makes the root an ordinary
    removable Clifford spider, so it is eliminated by local complementation
    (dissolving the gadget into its legs).  Runs to a fixpoint because a
    dissolution can in turn phase another root.
    """
    while True:
        _normalize_gadget_roots(d)
        dissolved = False
        for _, root in _hanging(d):
            if d.phase(root).is_proper_clifford():
                ok = lc_simp(d, root)
                assert ok
                dissolved = True
        if not dissolved:
            return


def id_simp(d: ZxDiagram, v: int) -> bool:
    """Remove an interior phase-free spider with exactly two neighbors.

    The two Hadamard wires compose to a plain wire, so the neighbors fuse:
    phases add, adjacencies symmetric-difference, and an edge between the
    neighbors turns into a Hadamard self-loop contributing pi.
    """
    if v in _boundary(d):
        raise ValueError("id_simp target must be interior")
    if not d.phase(v).is_zero() or d.degree(v) != 2:
        return False
    a, b = sorted(d.neighbors(v))
    d.remove_spider(v)
    _fuse(d, a, b)
    return True


def _fuse(d: ZxDiagram, keep: int, merge: int) -> None:
    """Fuse spider ``merge`` into ``keep`` along an implicit plain wire."""
    if keep == merge:
        return
    if d.has_edge(keep, merge):
        # the extra Hadamard wire becomes a self-loop: adds pi
        d.toggle_edge(keep, merge)
        d.add_phase(keep, Phase(1))
    d.add_phase(keep, d.phase(merge))
    for w in sorted(d.neighbors(merge)):
        d.toggle_edge(merge, w)
        d.toggle_edge(keep, w)
    d.remove_spider(merge)
    for lst in (d.inputs, d.outputs):
        for i, x in enumerate(lst):
            if x == merge:
                lst[i] = keep


def gadget_fusion(d: ZxDiagram) -> int:
    """Merge gadgets with identical leg sets, dropping zero-sum results.

    Returns the number of fusions performed.
    """
    count = 0
    _normalize_gadget_roots(d)
    groups: dict[frozenset[int], list] = {}
    for g in d.find_gadgets():
        groups.setdefault(g.legs, []).append(g)
    for legs, gs in groups.items():
        if len(gs) < 2 and not (len(gs) == 1 and gs[0].phase.is_zero()):
            continue
        gs.sort(key=lambda g: g.top)
        total = Phase(0)
        for g in gs:
            total = total + g.phase
        keep = gs[0]
        for g in gs[1:]:
            d.remove_spider(g.top)
            d.remove_spider(g.root)
            count += 1
        if total.is_zero():
            d.remove_spider(keep.top)
            d.remove_spider(keep.root)
            count += 1
        else:
            d.set_phase(keep.top, total)
    return count


def full_simplify(
    d: ZxDiagram,
    trace: Optional[RewriteTrace] = None,
    on_rewrite: Optional[Callable[[str, ZxDiagram], None]] = None,
) -> RewriteTrace:
    """Run all rewrites to a fixpoint.

    ``on_rewrite`` is a debug hook called after every individual rewrite
    (used by the test suite to assert gflow preservation step by step).

    The gadget index (tops, roots, top -> root) is one ``find_gadgets`` scan,
    kept until a recorded rewrite or the start of a Clifford round (after
    ``gadget_fusion``'s unrecorded root flips) clears it; a rewrite that
    returns False leaves the diagram untouched, so the index is never stale.
    """
    if trace is None:
        trace = RewriteTrace()
    index: Optional[tuple[set[int], set[int], dict[int, int]]] = None

    def did(rule: str, spiders: tuple[int, ...]) -> None:
        nonlocal index
        index = None
        trace.record(rule, spiders, d)
        if on_rewrite is not None:
            on_rewrite(rule, d)

    def gadget_parts() -> tuple[set[int], set[int], dict[int, int]]:
        nonlocal index
        if index is None:
            gs = d.find_gadgets()
            index = {g.top for g in gs}, {g.root for g in gs}, {g.top: g.root for g in gs}
        return index

    def clifford_round() -> bool:
        nonlocal index
        index = None
        changed = False
        boundary = _boundary(d)
        for v in sorted(d.spiders()):
            # isolated interior spiders are scalars; drop them
            if v not in boundary and d.degree(v) == 0:
                d.remove_spider(v)
                did("scalar", (v,))
                changed = True
        for v in sorted(d.spiders()):
            if not d.contains(v) or v in boundary:
                continue
            if d.phase(v).is_zero() and d.degree(v) == 2 and id_simp(d, v):
                _repair_gadgets(d)
                did("id", (v,))
                changed = True
                # fusing may relabel a boundary spider
                boundary = _boundary(d)
        for v in sorted(d.spiders()):
            if not d.contains(v) or v in boundary or not d.phase(v).is_proper_clifford():
                continue
            tops, roots, root_of = gadget_parts()
            if v in roots:
                continue
            if v in tops:
                # a Clifford gadget dissolves whole: removing only the top
                # would turn its YZ root into an XY spider and lose gflow
                root = root_of[v]
                ok = lc_simp(d, v) and lc_simp(d, root)
                assert ok
                _repair_gadgets(d)
                did("gadget_lc", (v, root))
                changed = True
                continue
            if lc_simp(d, v):
                _repair_gadgets(d)
                did("lc", (v,))
                changed = True
        for u in sorted(d.spiders()):
            if not d.contains(u) or u in boundary or not d.phase(u).is_pauli():
                continue
            tops, _, root_of = gadget_parts()
            # a failed pivot changes nothing, so the neighbor snapshot stays valid
            for v in sorted(d.neighbors(u)):
                if v in boundary or not d.phase(v).is_pauli():
                    continue
                # gadget tops only pivot against their own root (removing the
                # whole gadget); anything else converts measurement planes
                if u in tops and root_of[u] != v:
                    continue
                if v in tops and root_of[v] != u:
                    continue
                if pivot_simp(d, u, v):
                    _repair_gadgets(d)
                    did("pivot", (u, v))
                    changed = True
                    break
        return changed

    def gadget_round() -> bool:
        changed = False
        boundary = _boundary(d)
        # spiders of the gadgets present at the round's start never pivot
        tops, roots, _ = gadget_parts()
        parts = tops | roots
        for u in sorted(d.spiders()):
            if not d.contains(u) or u in boundary or u in parts:
                continue
            if not d.phase(u).is_pauli():
                continue
            for v in sorted(d.neighbors(u)):
                if v in boundary or v in parts:
                    continue
                if d.phase(v).is_clifford() or d.degree(v) < 2:
                    continue
                if gadget_pivot(d, u, v):
                    did("gadget_pivot", (u, v))
                    changed = True
                    break
        n = gadget_fusion(d)
        if n:
            did("gadget_fusion", ())
            changed = True
        return changed

    for _ in range(MAX_ROUNDS):
        changed = clifford_round()
        if changed:
            continue
        if not gadget_round():
            break
    else:
        raise RuntimeError("simplification did not terminate")
    return trace
