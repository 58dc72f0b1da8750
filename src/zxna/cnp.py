"""Multi-controlled phase gates as phase-gadget structures.

An m-qubit controlled phase ``NCP(m, phi)`` is equivalent to a graph-like
diagram where each of the m anchor spiders carries ``alpha = phi / 2^(m-1)``
and every subset of anchors of size k >= 2 carries a phase gadget with
phase ``(-1)^(k+1) * alpha``.  This module generates those structures,
pattern-matches them on a frontier, and provides the combinatorial oracles
used to cross-check the construction.  A match may need a gadget's phase
split (the NCP takes the required phase, a gadget on the same legs keeps
the rest) or, in ``with-insert`` mode, a missing gadget inserted (the NCP
takes the required phase, a gadget with the opposite phase stays behind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import AbstractSet, Iterable, Iterator, Literal, Optional

from .diagram import GadgetView, ZxDiagram
from .phase import Phase

__all__ = [
    "CnpTemplate",
    "MatchPlan",
    "theorem1_template",
    "instantiate_template",
    "match_cnp",
    "lemma2_sum",
    "phase_accumulation",
]


@dataclass(frozen=True)
class CnpTemplate:
    """Gadget structure of an n-qubit controlled phase gate.

    ``required`` lists the gadget leg-subsets (as index tuples into
    ``target_set``) of size >= 2 together with their phases; each anchor
    additionally receives ``alpha``.
    """

    n: int
    alpha: Phase
    required: tuple[tuple[tuple[int, ...], Phase], ...]
    target_set: Optional[tuple[int, ...]] = None

    def bind(self, anchors: tuple[int, ...]) -> "CnpTemplate":
        if len(anchors) != self.n:
            raise ValueError("anchor count does not match template size")
        return CnpTemplate(self.n, self.alpha, self.required, tuple(anchors))

    @property
    def phi(self) -> Phase:
        return self.alpha * (1 << (self.n - 1))


def _required(anchors, alpha: Phase) -> Iterator[tuple[tuple, Phase]]:
    """Theorem 1's gadgets: each anchor subset of size k >= 2 with ``(-1)^(k+1) * alpha``."""
    for k in range(2, len(anchors) + 1):
        p = alpha if k % 2 == 1 else -alpha
        for subset in combinations(anchors, k):
            yield subset, p


def theorem1_template(n: int, phi: Phase) -> CnpTemplate:
    """Gadget structure of the n-qubit controlled phase gate with phase phi."""
    if n < 2:
        raise ValueError("controlled phase structure needs n >= 2")
    alpha = phi.div_pow2(n - 1)
    return CnpTemplate(n, alpha, tuple(_required(range(n), alpha)))


def instantiate_template(d: ZxDiagram, t: CnpTemplate) -> None:
    """Splice a bound template onto its anchor spiders."""
    if t.target_set is None:
        raise ValueError("template is not bound to anchors")
    anchors = t.target_set
    for a in anchors:
        if not d.contains(a):
            raise ValueError(f"unknown anchor spider {a}")
    for subset, p in t.required:
        d.add_gadget([anchors[i] for i in subset], p)
    for a in anchors:
        d.add_phase(a, t.alpha)


@dataclass
class MatchPlan:
    """Executable plan turning frontier gadgets into one exact C_nP structure.

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


def match_cnp(
    gadgets: Iterable[GadgetView],
    frontier: set[int],
    mode: Literal["no-insert", "with-insert"],
    max_size: Optional[int] = None,
    no_extend: AbstractSet[int] = frozenset(),
) -> Optional[MatchPlan]:
    """Find a C_nP structure among the gadgets attached only to the frontier.

    ``gadgets`` come in ascending top id (the extractor's frontier index, or
    :meth:`ZxDiagram.find_gadgets`); those off the frontier or with one leg are skipped.
    Seeds are tried from the gadget with the most legs downwards (ties by
    smallest top id).  In ``no-insert`` mode a seed fails as soon as a
    required sub-gadget is missing; in ``with-insert`` mode the plan records
    an insertion instead, and the seed's anchor set may first grow to nearby
    frontier spiders (see :func:`_extend_anchors`) unless the seed's top is
    listed in ``no_extend``.  Callers put the opposite-phase gadgets left by
    earlier insertions there, otherwise their extraction and re-extension
    would chase each other forever.  Returns None if no seed works.
    """
    gadgets = [g for g in gadgets if g.legs <= frontier and len(g.legs) >= 2]
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


def phase_accumulation(t: CnpTemplate, basis: tuple[int, ...]) -> Phase:
    """Exact diagonal phase the template applies to one computational basis state."""
    if len(basis) != t.n:
        raise ValueError("basis length does not match template size")
    total = Phase(0)
    for i, b in enumerate(basis):
        if b:
            total = total + t.alpha
    for subset, p in t.required:
        parity = 0
        for i in subset:
            parity ^= basis[i] & 1
        if parity:
            total = total + p
    return total
