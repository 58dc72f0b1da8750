"""Multi-controlled phase gates as phase-gadget structures.

Theorem 1: an n-qubit controlled phase ``NCP(phi)`` equals its n anchor
spiders each carrying ``alpha = phi / 2^(n-1)`` plus, on every anchor subset
of size k >= 2, a phase gadget with phase ``(-1)^(k+1) * alpha``.
:func:`_required` lists those gadgets, :func:`add_cnp` splices the structure
onto a diagram's anchor spiders, and :func:`match_cnp` finds it on a
frontier as a :class:`MatchPlan`.  A match may need a gadget's phase split
(the NCP takes the required phase, a gadget on the same legs keeps the rest)
or, in ``with-insert`` mode, a missing gadget inserted (the NCP takes the
required phase, a gadget with the opposite phase stays behind).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import AbstractSet, Collection, Iterable, Iterator, Literal, Optional

from .diagram import GadgetView, ZxDiagram
from .phase import Phase

__all__ = ["MatchPlan", "add_cnp", "match_cnp"]


def _required(anchors, alpha: Phase) -> Iterator[tuple[tuple, Phase]]:
    """Theorem 1's gadgets: each anchor subset of size k >= 2 with ``(-1)^(k+1) * alpha``."""
    for k in range(2, len(anchors) + 1):
        p = alpha if k % 2 == 1 else -alpha
        for subset in combinations(anchors, k):
            yield subset, p


@dataclass
class MatchPlan:
    """Theorem 1 structure on ``target_set``, with how frontier gadgets supply it.

    ``matched`` maps each present required leg-set to the gadget the NCP
    consumes.  ``splits`` lists matched gadgets whose phase differs from the
    required one; each leaves a gadget with the difference on its legs.
    ``insertions`` lists missing leg-sets with their required phase; each
    leaves a gadget with the opposite phase on those legs.
    """

    target_set: tuple[int, ...]
    alpha: Phase
    matched: dict[frozenset[int], GadgetView] = field(default_factory=dict)
    splits: list[tuple[GadgetView, Phase]] = field(default_factory=list)
    insertions: list[tuple[frozenset[int], Phase]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.target_set)

    @property
    def phi(self) -> Phase:
        return self.alpha * (1 << (self.n - 1))


def add_cnp(d: ZxDiagram, anchors: Iterable[int], phi: Phase) -> None:
    """Splice the structure of ``NCP(phi)`` onto existing anchor spiders."""
    anchors = tuple(anchors)
    if len(anchors) < 2:
        raise ValueError("controlled phase structure needs n >= 2")
    for a in anchors:
        if not d.contains(a):
            raise ValueError(f"unknown anchor spider {a}")
    alpha = phi.div_pow2(len(anchors) - 1)
    for legs, p in _required(anchors, alpha):
        d.add_gadget(legs, p)
    for a in anchors:
        d.add_phase(a, alpha)


def match_cnp(
    gadgets: Collection[GadgetView],
    frontier: set[int],
    mode: Literal["no-insert", "with-insert"],
    max_size: Optional[int] = None,
    no_extend: AbstractSet[int] = frozenset(),
) -> Optional[MatchPlan]:
    """Find a C_nP structure among the gadgets attached only to the frontier.

    ``gadgets`` come in ascending top id, each with two or more legs, all in
    ``frontier``: the extractor's frontier index, or :meth:`ZxDiagram.frontier_gadgets`.
    Seeds are tried from the gadget with the most legs downwards (ties by
    smallest top id).  In ``no-insert`` mode a seed fails as soon as a
    required sub-gadget is missing; in ``with-insert`` mode the plan records
    an insertion instead, and the seed's anchor set may first grow to nearby
    frontier spiders (see :func:`_extend_anchors`) unless the seed's top is
    listed in ``no_extend``.  Callers put the opposite-phase gadgets left by
    earlier insertions there, otherwise their extraction and re-extension
    would chase each other forever.  Returns None if no seed works.
    """
    by_legs: dict[frozenset[int], GadgetView] = {}
    for g in gadgets:
        by_legs.setdefault(g.legs, g)

    seeds = [g for g in gadgets if not g.phase.is_zero()]
    if max_size is not None:
        seeds = [g for g in seeds if len(g.legs) <= max_size]
    seeds.sort(key=lambda g: (-len(g.legs), g.top))

    for seed in seeds:
        n = len(seed.legs)
        alpha = seed.phase if n % 2 == 1 else -seed.phase
        target = set(seed.legs)
        if mode == "with-insert" and seed.top not in no_extend:
            target |= _extend_anchors(target, frontier, by_legs, max_size)
        plan = MatchPlan(tuple(sorted(target)), alpha)
        plan.matched[seed.legs] = seed
        for subset, p in _required(plan.target_set, alpha):
            legs = frozenset(subset)
            if legs == seed.legs:
                continue
            cand = by_legs.get(legs)
            if cand is not None:
                plan.matched[legs] = cand
                if cand.phase != p:
                    plan.splits.append((cand, p))
            elif mode == "with-insert":
                plan.insertions.append((legs, p))
            else:
                break
        else:
            return plan
    return None


def _extend_anchors(
    target: set[int],
    frontier: set[int],
    by_legs: dict[frozenset[int], GadgetView],
    max_size: Optional[int],
) -> set[int]:
    """Grow a seed's anchor set toward a larger controlled-phase target.

    A frontier spider joins when pair gadgets tie it to at least half the
    current anchors, so the extra structure is mostly already present and
    only a minority of gadgets has to be inserted.  The gadget spanning the
    grown set itself is always missing and gets inserted; the
    opposite-phase gadget that insertion leaves is extracted in a later match.
    """
    extra: set[int] = set()
    candidates = sorted(frontier - target)
    progress = True
    while progress:
        if max_size is not None and len(target) + len(extra) >= max_size:
            break
        progress = False
        cur = target | extra
        for x in candidates:
            if x in cur:
                continue
            cover = sum(1 for t in cur if frozenset((x, t)) in by_legs)
            if 2 * cover >= len(cur):
                extra.add(x)
                progress = True
                break
    return extra

